"""End to end: ``run.py --smoke`` reports exactly the declared metrics."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_smoke_run_reports_every_declared_metric_for_every_workload():
    done = subprocess.run([sys.executable, RUN, "--seed", "1", "--smoke"],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=60,
                          check=False)
    report = json.loads(done.stdout.decode().splitlines()[-1])
    assert done.returncode == 0 and report["correct"], report
    assert report["failed"] == 0 and report["attempted"] > 0
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in SPEC["workloads"]:
        prefix = workload["name"] + "/"
        names = {name[len(prefix):] for name in report["metrics"]
                 if name.startswith(prefix)}
        assert names == declared, workload["name"]
    for name, value in report["metrics"].items():
        assert isinstance(value["value"], float), name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep_program", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          stdout=subprocess.PIPE, timeout=60, check=False)
    assert done.returncode != 0
    assert b"correct" not in done.stdout
