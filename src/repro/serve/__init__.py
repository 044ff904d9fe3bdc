"""Supervised simulation job farm (``repro serve``; docs/serving.md)."""

import importlib

from repro.serve.jobspec import (
    JobRecord,
    JobSpec,
    JobState,
    demo_jobs,
    load_jobs,
    save_jobs,
)
from repro.serve.ledger import (
    JobLedger,
    LedgerEntry,
    fold_ledger,
    ledger_is_stale,
    read_ledger,
    recovery_plan,
    result_digest,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.retry import RetryPolicy

#: Farm-runtime exports resolved lazily: every CLI run command imports
#: :class:`JobSpec`, and should not pay for asyncio, multiprocessing and
#: the telemetry pipeline that only ``repro serve`` uses.
_LAZY_EXPORTS = {
    "Farm": "controller",
    "FarmConfig": "controller",
    "FarmReport": "controller",
    "recover_farm": "controller",
    "run_farm": "controller",
    "WorkerPool": "supervisor",
}

__all__ = [
    "AdmissionQueue",
    "Farm",
    "FarmConfig",
    "FarmReport",
    "JobLedger",
    "JobRecord",
    "JobSpec",
    "JobState",
    "LedgerEntry",
    "RetryPolicy",
    "WorkerPool",
    "demo_jobs",
    "fold_ledger",
    "ledger_is_stale",
    "load_jobs",
    "read_ledger",
    "recover_farm",
    "recovery_plan",
    "result_digest",
    "run_farm",
    "save_jobs",
]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(f"repro.serve.{_LAZY_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
