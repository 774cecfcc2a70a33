"""Verification harness: domain sweeps (serial and parallel), fault
totalization, chaos injection, checkpoints, and experiment-table
rendering."""

from ..robustness.faults import (TotalizedMechanism, cap_notice,
                                 crash_notice, fault_notice)
from .chaos import FaultPlan
from .checkpoint import CheckpointWriter, load_checkpoint
from .enumerate import (SweepResult, all_allow_policies, build_mechanism,
                        default_grid, fuel_notice, sampled_soundness,
                        soundness_sweep, unsound_results)
from .parallel import (EXECUTORS, FACTORIES, evaluate_chunk, merge_chunks,
                       parallel_soundness_sweep, quarantine_chunk,
                       resolve_factory)
from .report import Table, banner

__all__ = [
    "all_allow_policies", "default_grid", "soundness_sweep",
    "SweepResult", "unsound_results", "sampled_soundness",
    "build_mechanism", "fuel_notice", "cap_notice", "crash_notice",
    "fault_notice", "TotalizedMechanism",
    "parallel_soundness_sweep", "EXECUTORS", "FACTORIES",
    "resolve_factory", "evaluate_chunk", "merge_chunks",
    "quarantine_chunk", "FaultPlan", "CheckpointWriter",
    "load_checkpoint", "Table", "banner",
]
