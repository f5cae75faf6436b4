"""PR8 byte-identity goldens: disabled tail-tolerance changes nothing.

The health/hedging/rebuild layer is opt-in everywhere (``health=None``
/ ``hedge=None`` / ``rebuild=None`` defaults).  These digests were
captured on the pre-PR8 tree; they must keep matching bit for bit with
the layer merged but disabled — chaos reports (both RAID levels, under
a live fault plan) and serving RunReports (fault-free and faulty).
Any unconditional new report key, any extra RNG draw, any reordered
event breaks these.

The last two goldens pin the layer switched *on* (captured on the
commit before the two disk-array systems were merged): a RAID-1 serve
with breakers + hedging + online rebuild under crash / slow / transient
faults, and a RAID-0 serve whose breakers eject fetches.
"""

import hashlib
import json

import pytest

from repro.experiments.setup import build_tree, dataset, make_factory
from repro.faults.chaos import run_chaos
from repro.faults.health import HealthPolicy, HedgePolicy, RebuildPolicy
from repro.faults.plan import CrashWindow, FaultPlan, SlowWindow
from repro.faults.policy import RetryPolicy
from repro.obs.report import build_run_report
from repro.serving.admission import full_serving_policy
from repro.serving.frontend import serve_scenario
from repro.serving.traffic import make_scenario
from repro.simulation.parameters import SystemParameters

GOLDEN_CHAOS_RAID0 = (
    "4f558cb0be49654c8b22fbebf43bbcaab76e90ee69aa3200d9bdd036d70123b2"
)
GOLDEN_CHAOS_RAID1 = (
    "b21ec834a3119c93d5066b0c830fa2f96f36ae34a7096c6bc25a2f68dbfd5b5a"
)
GOLDEN_SERVE = (
    "98e03d430c5a2a568887a959c9f7d5797d5815d40e329ce24afa6ae049c8319b"
)
GOLDEN_SERVE_FAULTY = (
    "54df2555e2ecff4002632c84d022a96879be8a27a2ca2b1005cad3010693d5f9"
)
GOLDEN_SERVE_RAID1_TAIL = (
    "90fc846825f50ca783ff851781fdec15ce76ad8f8fc3c9449b00c383686058c0"
)
GOLDEN_SERVE_RAID0_EJECTED = (
    "cfda2e33a56d366fc14de4c8fdbc522f24eb19b4521fc54a113a2023ece53b91"
)


@pytest.fixture(scope="module")
def golden_data():
    return dataset("gaussian", 800, 2, seed=7)


@pytest.fixture(scope="module")
def golden_tree():
    return build_tree("gaussian", 800, 2, 4, seed=7)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_chaos_raid0_unchanged(golden_data, golden_tree):
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.02,
        crashes=(CrashWindow(2, 0.0),),
        slow_windows=(SlowWindow(1, 0.0, 5.0, 4.0),),
    )
    report = run_chaos(
        golden_tree,
        "fpss",
        golden_data[:12],
        k=5,
        raid="raid0",
        arrival_rate=20.0,
        seed=7,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, attempt_timeout=0.05),
        deadline=0.5,
    )
    assert _sha(report.to_json()) == GOLDEN_CHAOS_RAID0


def test_chaos_raid1_unchanged(golden_data, golden_tree):
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.02,
        crashes=(CrashWindow(4, 0.0, 2.0),),
        slow_windows=(SlowWindow(3, 0.0, 5.0, 4.0),),
    )
    report = run_chaos(
        golden_tree,
        "fpss",
        golden_data[:12],
        k=5,
        raid="raid1",
        arrival_rate=20.0,
        seed=7,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, attempt_timeout=0.05),
        deadline=0.5,
    )
    assert _sha(report.to_json()) == GOLDEN_CHAOS_RAID1


def _serve(tree, data, rate=60.0, **kwargs):
    scenario = make_scenario("bursty", data, rate=rate, horizon=1.0, seed=8)
    return serve_scenario(
        tree,
        make_factory("CRSS", tree, 5),
        scenario,
        policy=full_serving_policy(max_in_flight=8, deadline=0.3),
        params=SystemParameters(coalesce=True),
        seed=7,
        **kwargs,
    )


def _report_text(serving, config):
    report = build_run_report(
        "serve", config, serving.result, serving=serving.serving_section()
    )
    return json.dumps(report, indent=2, sort_keys=True)


def _serve_report(tree, data, config, fault_plan=None, retry_policy=None):
    serving = _serve(
        tree, data, fault_plan=fault_plan, retry_policy=retry_policy
    )
    return _report_text(serving, config)


def test_serve_report_unchanged(golden_data, golden_tree):
    text = _serve_report(golden_tree, golden_data, {"what": "pr8-golden"})
    assert _sha(text) == GOLDEN_SERVE


def test_faulty_serve_report_unchanged(golden_data, golden_tree):
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.02,
        crashes=(CrashWindow(2, 0.0),),
        slow_windows=(SlowWindow(1, 0.0, 5.0, 4.0),),
    )
    text = _serve_report(
        golden_tree,
        golden_data,
        {"what": "pr8-golden-faulty"},
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, attempt_timeout=0.05),
    )
    assert _sha(text) == GOLDEN_SERVE_FAULTY


def test_raid1_tail_tolerant_serve_report_unchanged(golden_data, golden_tree):
    """Breakers + hedging + rebuild all live on the mirrored array."""
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.05,
        crashes=(CrashWindow(4, 0.1, 0.3), CrashWindow(1, 0.5, 0.7)),
        slow_windows=(SlowWindow(3, 0.0, 0.8, 6.0),),
    )
    serving = _serve(
        golden_tree,
        golden_data,
        rate=120.0,
        raid="raid1",
        health=HealthPolicy(latency_threshold=0.04, seed=5),
        hedge=HedgePolicy(),
        rebuild=RebuildPolicy(),
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, attempt_timeout=0.05),
    )
    # The digest is only worth pinning if every feature actually fired.
    assert serving.hedge["won"] > 0
    assert serving.rebuild["completed"] == 2
    assert serving.health["opens"] > 0 and serving.health["closes"] > 0
    assert serving.system.retries > 0
    assert serving.system.failovers > 0
    assert serving.system.failed_fetches > 0
    text = _report_text(serving, {"what": "pr18-golden-raid1-tail"})
    assert _sha(text) == GOLDEN_SERVE_RAID1_TAIL


def test_raid0_ejecting_serve_report_unchanged(golden_data, golden_tree):
    """RAID-0 breakers fail fetches fast with reason ``"ejected"``."""
    plan = FaultPlan(
        seed=3,
        default_transient_prob=0.05,
        crashes=(CrashWindow(2, 0.6, 0.8),),
        slow_windows=(SlowWindow(1, 0.0, 0.3, 8.0),),
    )
    serving = _serve(
        golden_tree,
        golden_data,
        health=HealthPolicy(
            latency_threshold=0.06,
            open_cooldown=0.02,
            probe_probability=0.5,
            probe_successes=1,
            seed=5,
        ),
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, attempt_timeout=0.05),
    )
    # Every refused ``allow()`` on RAID-0 is one "ejected" FetchFailure.
    assert serving.health["closes"] > 0
    assert 0 < serving.health["ejected"] <= serving.system.failed_fetches
    assert serving.outcome_counts()["complete"] > 0
    text = _report_text(serving, {"what": "pr18-golden-raid0-ejected"})
    assert _sha(text) == GOLDEN_SERVE_RAID0_EJECTED
