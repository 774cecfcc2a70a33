"""Shared plumbing for the experiment benchmarks.

Each ``bench_eNN_*.py`` regenerates one paper "table/figure" (see
DESIGN.md's per-experiment index): it times the experiment kernel with
pytest-benchmark, renders the reproduced rows through
:class:`repro.verify.Table`, and *asserts the paper's qualitative
claims* so a regression in any reproduced result fails the bench run.

Tables are printed and also appended to ``benchmarks/results/summary.txt``
(pytest captures stdout by default; the file keeps the rows available
either way).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict

from repro.verify import Table

RESULTS_DIR = Path(__file__).parent / "results"


def time_callable(fn: Callable, repeats: int = 5,
                  warmup: int = 1) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock timing for a kernel.

    No execution result is memoised, so every rep executes.  Returns
    ``{"best", "mean", "reps"}`` in seconds.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {"best": min(samples),
            "mean": sum(samples) / len(samples),
            "reps": repeats}


def write_json(payload: Dict, path) -> Path:
    """Persist a machine-readable bench payload (stable key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _slug(title: str) -> str:
    import re

    head = title.split(":")[0].strip().lower()
    return re.sub(r"[^a-z0-9]+", "-", head).strip("-") or "table"


def emit(table: Table) -> None:
    """Print a reproduced table; persist it as text and CSV."""
    text = table.render()
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "summary.txt", "a") as handle:
        handle.write(text + "\n\n")
    with open(RESULTS_DIR / f"{_slug(table.title)}.csv", "w") as handle:
        handle.write(table.to_csv())
