"""Serving layer: admission control, cross-query batching, shedding.

The front door between production traffic and the simulated disk
array.  See :mod:`repro.serving.frontend` for the execution model,
:mod:`repro.serving.traffic` for the scenario generators,
:mod:`repro.serving.admission` for policies, and
:mod:`repro.serving.batcher` for the cross-query fetch broker.
:mod:`repro.serving.chaos_bench` benchmarks the fault-aware stack
(hedged reads + circuit breakers + online rebuild, configured through
``serve_scenario``'s ``health``/``hedge``/``rebuild`` parameters).
``docs/serving.md`` documents the semantics (including the
degraded-answer contract).
"""

from repro.serving.admission import (
    AdmissionController,
    PriorityClass,
    QueueEntry,
    ServingPolicy,
    admission_only_policy,
    full_serving_policy,
    no_admission_policy,
)
from repro.serving.batcher import FetchBroker, RoundTicket
from repro.serving.frontend import (
    OUTCOMES,
    BatchedExecutor,
    ServedQuery,
    ServingFrontend,
    ServingResult,
    serve_scenario,
)
from repro.serving.traffic import (
    SCENARIO_KINDS,
    TrafficScenario,
    assign_classes,
    diurnal_trace,
    make_scenario,
    mmpp_trace,
    poisson_trace,
    scenario_from_arrivals,
    workload_interarrivals,
    workload_scenario,
)

__all__ = [
    "AdmissionController",
    "BatchedExecutor",
    "FetchBroker",
    "OUTCOMES",
    "PriorityClass",
    "QueueEntry",
    "RoundTicket",
    "SCENARIO_KINDS",
    "ServedQuery",
    "ServingFrontend",
    "ServingPolicy",
    "ServingResult",
    "TrafficScenario",
    "admission_only_policy",
    "assign_classes",
    "diurnal_trace",
    "full_serving_policy",
    "make_scenario",
    "mmpp_trace",
    "no_admission_policy",
    "poisson_trace",
    "scenario_from_arrivals",
    "serve_scenario",
    "workload_interarrivals",
    "workload_scenario",
]
