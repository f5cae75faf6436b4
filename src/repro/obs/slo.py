"""SLO engine: objectives, error budgets and multi-window burn rates.

The serving layer (PR7/PR8) answers queries under deadlines, sheds the
hopeless ones, and keeps four-outcome books — but nothing states what
*good* looks like or how much *bad* the operator has agreed to
tolerate.  This module adds the SRE-style operational lens:

* an :class:`SLOObjective` per priority class — a latency-quantile
  target (the latency budget is **inherited from the class deadline**
  on :class:`~repro.serving.admission.ServingPolicy` unless overridden)
  plus a goodput objective (the fraction of offered queries that must
  receive an answer at all);
* **error-budget accounting** — with a compliance target of, say,
  99%, one bad query in a hundred is budgeted; the budget *spent* is
  the bad fraction over the allowed fraction, and ``budget_remaining``
  is what is left of that allowance (negative once the objective is
  blown);
* **multi-window burn rates** — for each trailing window ending at the
  makespan, the rate at which the budget is being consumed: a burn
  rate of 1.0 spends exactly the full budget over the window, higher
  burns it faster.  Short windows catch an active incident (a
  fail-slow drive), the full-horizon window catches slow leaks.

Everything is **evaluated event-driven off**
:class:`~repro.obs.timeline.TimelineSampler` **tracks**: the
:class:`SLOTracker` records cumulative good/bad step functions as each
query settles (``slo.<class>.total`` / ``slo.<class>.bad``), and the
window arithmetic reads those step functions back with
:meth:`~repro.obs.timeline.TimelineTrack.value_at`.  The tracker is a
pure **write-only observer**: it schedules nothing, consumes no RNG,
and attaching it is bit-identity-neutral (golden-asserted in
``tests/serving/test_slo_serving.py``).

The rendered section lands under ``"slo"`` in the RunReport
(:func:`repro.obs.report.build_run_report`), where ``repro diff``
gates ``burn_rate`` up-bad and ``budget_remaining`` / the goodput
margin down-bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.report import percentile
from repro.obs.timeline import TimelineSampler

#: Default trailing windows (simulated seconds) for burn-rate
#: evaluation — a short incident window and a longer leak window; the
#: full horizon is always evaluated in addition.
DEFAULT_BURN_WINDOWS = (0.25, 1.0)

#: Default latency quantile an objective targets.
DEFAULT_QUANTILE = 0.99

#: Default compliance target (fraction of queries that must be good).
DEFAULT_COMPLIANCE = 0.95

#: Default goodput objective: fraction of offered queries that must be
#: answered (complete or degraded) rather than shed/rejected.
DEFAULT_GOODPUT = 0.90


@dataclass(frozen=True)
class SLOObjective:
    """One priority class's service-level objective.

    :param klass: the :class:`~repro.serving.admission.PriorityClass`
        name this objective covers.
    :param latency_target: seconds within which a query must answer to
        count as *good* — inherited from the class deadline by
        :func:`slo_from_policy` when not set explicitly.  ``None``
        drops the latency criterion (only unanswered queries are bad).
    :param quantile: the latency quantile the target is stated at
        (reported as achieved-vs-target; the per-query budget math
        uses the per-query good/bad criterion directly).
    :param compliance_target: fraction of offered queries that must be
        good; ``1 - compliance_target`` is the error budget.
    :param goodput_target: fraction of offered queries that must be
        *answered* at all (complete or degraded).
    """

    klass: str = "default"
    latency_target: Optional[float] = None
    quantile: float = DEFAULT_QUANTILE
    compliance_target: float = DEFAULT_COMPLIANCE
    goodput_target: float = DEFAULT_GOODPUT

    def __post_init__(self) -> None:
        if not self.klass:
            raise ValueError("objective needs a class name")
        if self.latency_target is not None and self.latency_target <= 0:
            raise ValueError(
                f"latency_target must be positive, got {self.latency_target}"
            )
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        if not 0.0 < self.compliance_target < 1.0:
            raise ValueError(
                f"compliance_target must be in (0, 1), got "
                f"{self.compliance_target}"
            )
        if not 0.0 < self.goodput_target <= 1.0:
            raise ValueError(
                f"goodput_target must be in (0, 1], got {self.goodput_target}"
            )

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction (``1 - compliance_target``)."""
        return 1.0 - self.compliance_target

    def is_good(self, served: bool, response_time: float) -> bool:
        """The per-query SLI: answered, and inside the latency target."""
        if not served:
            return False
        if self.latency_target is None:
            return True
        return response_time <= self.latency_target

    def describe(self) -> Dict[str, object]:
        """Reporting-friendly summary (stable key order)."""
        return {
            "class": self.klass,
            "latency_target": self.latency_target,
            "quantile": self.quantile,
            "compliance_target": self.compliance_target,
            "goodput_target": self.goodput_target,
        }


@dataclass(frozen=True)
class SLOPolicy:
    """A bundle of per-class objectives plus the burn-rate windows."""

    objectives: Tuple[SLOObjective, ...] = (SLOObjective(),)
    windows: Tuple[float, ...] = DEFAULT_BURN_WINDOWS

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an SLO policy needs at least one objective")
        names = [obj.klass for obj in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective classes: {names}")
        for window in self.windows:
            if window <= 0:
                raise ValueError(f"burn windows must be positive, got {window}")

    def objective_for(self, klass: str) -> SLOObjective:
        """The objective covering *klass* ("" → the first objective)."""
        if not klass:
            return self.objectives[0]
        for objective in self.objectives:
            if objective.klass == klass:
                return objective
        raise KeyError(
            f"no SLO objective for class {klass!r}; policy covers "
            f"{[o.klass for o in self.objectives]}"
        )

    def describe(self) -> Dict[str, object]:
        """Reporting-friendly summary (stable key order)."""
        return {
            "objectives": [obj.describe() for obj in self.objectives],
            "windows": list(self.windows),
        }


def slo_from_policy(
    policy,
    quantile: float = DEFAULT_QUANTILE,
    compliance_target: float = DEFAULT_COMPLIANCE,
    goodput_target: float = DEFAULT_GOODPUT,
    default_latency_target: Optional[float] = None,
    windows: Tuple[float, ...] = DEFAULT_BURN_WINDOWS,
) -> SLOPolicy:
    """Derive an :class:`SLOPolicy` from a serving policy's classes.

    Each :class:`~repro.serving.admission.PriorityClass` becomes one
    objective whose latency target is the class **deadline** (the SLO
    the admission layer already enforces); classes without a deadline
    fall back to *default_latency_target* (``None`` → goodput-only).
    """
    objectives = tuple(
        SLOObjective(
            klass=cls.name,
            latency_target=(
                cls.deadline
                if cls.deadline is not None
                else default_latency_target
            ),
            quantile=quantile,
            compliance_target=compliance_target,
            goodput_target=goodput_target,
        )
        for cls in policy.classes
    )
    return SLOPolicy(objectives=objectives, windows=windows)


class SLOTracker:
    """Event-driven SLO bookkeeping over one serving run.

    The frontend calls :meth:`observe` as each offered query settles
    (in simulation-time order).  The tracker appends the outcome to
    cumulative per-class step tracks on its own
    :class:`~repro.obs.timeline.TimelineSampler` —

    ========================  ====================================
    ``slo.<class>.total``     offered queries settled so far
    ``slo.<class>.bad``       of those, SLI violations so far
    ``slo.<class>.served``    of those, answered (goodput numerator)
    ========================  ====================================

    — and :meth:`section` evaluates budgets and multi-window burn
    rates off those tracks.  Write-only: no events, no RNG.
    """

    def __init__(self, policy: Optional[SLOPolicy] = None):
        self.policy = policy if policy is not None else SLOPolicy()
        #: The cumulative step functions the window math reads back.
        self.sampler = TimelineSampler()
        self._counts: Dict[str, Dict[str, int]] = {}
        self._latencies: Dict[str, List[float]] = {}

    def _class_counts(self, klass: str) -> Dict[str, int]:
        counts = self._counts.get(klass)
        if counts is None:
            counts = {"total": 0, "bad": 0, "served": 0}
            self._counts[klass] = counts
            self._latencies[klass] = []
        return counts

    def observe(
        self,
        klass: str,
        ts: float,
        served: bool,
        response_time: float,
    ) -> None:
        """Record one settled query's SLI outcome at simulated *ts*."""
        objective = self.policy.objective_for(klass)
        counts = self._class_counts(objective.klass)
        counts["total"] += 1
        if served:
            counts["served"] += 1
            self._latencies[objective.klass].append(response_time)
        if not objective.is_good(served, response_time):
            counts["bad"] += 1
        prefix = f"slo.{objective.klass}"
        self.sampler.record(f"{prefix}.total", ts, counts["total"])
        self.sampler.record(f"{prefix}.bad", ts, counts["bad"])
        self.sampler.record(f"{prefix}.served", ts, counts["served"])

    # -- window arithmetic --------------------------------------------

    def _window_counts(
        self, klass: str, start: float, end: float
    ) -> Tuple[int, int]:
        """(settled, bad) inside ``(start, end]``, off the step tracks.

        *start* may precede the first sample — windows straddling the
        makespan boundary clamp to "nothing had settled yet", so a
        window longer than the run degenerates to the full horizon.
        """
        total_track = self.sampler.track(f"slo.{klass}.total")
        bad_track = self.sampler.track(f"slo.{klass}.bad")
        total = total_track.value_at(end) - total_track.value_at(start)
        bad = bad_track.value_at(end) - bad_track.value_at(start)
        return int(total), int(bad)

    def burn_rate(self, klass: str, window: float, end: float) -> float:
        """Budget consumption speed over the trailing *window* at *end*.

        ``bad_fraction_in_window / error_budget`` — 1.0 spends exactly
        the whole budget across the window, 0.0 is a clean window.  An
        empty window burns nothing.
        """
        objective = self.policy.objective_for(klass)
        total, bad = self._window_counts(klass, end - window, end)
        if total == 0:
            return 0.0
        return (bad / total) / objective.error_budget

    def merge_into(self, timeline) -> int:
        """Copy the ``slo.*`` step tracks into another
        :class:`~repro.obs.timeline.TimelineSampler`.

        ``repro serve --slo --report`` merges them into the report's
        timeline so ``repro top`` can replay budget burn frame by frame.
        Returns the number of samples copied.
        """
        copied = 0
        for track in self.sampler:
            for ts, value in track.samples:
                timeline.record(track.name, ts, value)
                copied += 1
        return copied

    def section(self, makespan: float) -> Dict[str, object]:
        """The JSON-ready ``"slo"`` RunReport section.

        Evaluated at *makespan* (clamped up to the last settle, so a
        background-heavy run still covers every query).  Deterministic:
        every value is a count or simulated-time arithmetic.
        """
        end = max(makespan, self.sampler.end)
        classes: Dict[str, object] = {}
        worst_burn = 0.0
        worst_remaining: Optional[float] = None
        for objective in self.policy.objectives:
            klass = objective.klass
            counts = self._class_counts(klass)
            total = counts["total"]
            bad = counts["bad"]
            served = counts["served"]
            compliance = 1.0 - (bad / total) if total else 1.0
            budget = objective.error_budget
            spent = (bad / total) / budget if total else 0.0
            remaining = 1.0 - spent
            goodput_achieved = served / total if total else 0.0
            latencies = self._latencies[klass]
            achieved_quantile = (
                percentile(latencies, objective.quantile) if latencies else 0.0
            )
            burn_rates = {
                f"w{window:g}": self.burn_rate(klass, window, end)
                for window in self.policy.windows
            }
            burn_rates["full"] = spent * 1.0 if total else 0.0
            classes[klass] = {
                "objective": objective.describe(),
                "counts": {"total": total, "bad": bad, "served": served},
                "compliance": compliance,
                "budget": {
                    "allowed_fraction": budget,
                    "spent": spent,
                    "budget_remaining": remaining,
                },
                "burn_rate": burn_rates,
                "latency": {
                    "quantile": objective.quantile,
                    "target": objective.latency_target,
                    "achieved": achieved_quantile,
                },
                "goodput": {
                    "target": objective.goodput_target,
                    "achieved": goodput_achieved,
                    "margin": goodput_achieved - objective.goodput_target,
                },
            }
            worst_burn = max(worst_burn, max(burn_rates.values()))
            worst_remaining = (
                remaining
                if worst_remaining is None
                else min(worst_remaining, remaining)
            )
        return {
            "windows": list(self.policy.windows),
            "horizon": end,
            "classes": classes,
            "worst_burn_rate": worst_burn,
            "worst_budget_remaining": (
                worst_remaining if worst_remaining is not None else 1.0
            ),
        }


def format_slo_section(section: Dict[str, object], width: int = 24) -> str:
    """Terminal rendering of a report's ``"slo"`` section."""
    lines = [
        f"slo        : windows {section.get('windows')} "
        f"(horizon {section.get('horizon', 0.0):.4f}s)"
    ]
    classes = section.get("classes") or {}
    for klass in sorted(classes):
        doc = classes[klass]
        counts = doc["counts"]
        budget = doc["budget"]
        burns = doc["burn_rate"]
        burn_text = "  ".join(
            f"{name} {burns[name]:.2f}" for name in sorted(burns)
        )
        lines.append(
            f"  {klass:<{width}} {counts['bad']}/{counts['total']} bad, "
            f"compliance {doc['compliance']:.4f}, "
            f"budget remaining {budget['budget_remaining']:+.3f}"
        )
        lines.append(f"  {'':<{width}} burn: {burn_text}")
        latency = doc["latency"]
        goodput = doc["goodput"]
        target = latency["target"]
        target_text = f"{target:.4f}s" if target is not None else "-"
        lines.append(
            f"  {'':<{width}} p{int(latency['quantile'] * 100)} "
            f"{latency['achieved']:.4f}s vs target {target_text}, "
            f"goodput {goodput['achieved']:.3f} vs {goodput['target']:.3f} "
            f"(margin {goodput['margin']:+.3f})"
        )
    return "\n".join(lines)
