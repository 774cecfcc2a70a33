"""Kill a sweep mid-flight, resume it, and demand identical rows.

The checkpoint contract is crash-*safety*, not crash-avoidance: a
sweep SIGKILLed between journal writes must leave a journal that (a)
still validates against the trace-event schema (at worst one torn
final line, which the loader drops) and (b) resumes to rows
bit-identical to an uninterrupted run.  SIGTERM, by contrast, is the
graceful path: the CLI drains in-flight chunks and exits 130.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")

# Enough chunks to straddle a kill, slowed so the kill lands mid-sweep:
# every chunk attempt sleeps 50ms (chaos delay rate 1.0).
SWEEP = ["sweep", "--programs", "parity,max,mixer", "--executor",
         "thread", "--jobs", "2", "--chunk-size", "2",
         "--chaos", "seed=1,delay=1,delay_s=0.05"]


def run_cli(arguments, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "repro"] + arguments,
                          env=env, capture_output=True, text=True,
                          **kwargs)


def spawn_cli(arguments):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-m", "repro"] + arguments,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def journalled_chunks(path):
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle
                   if '"checkpoint_written"' in line)


def wait_for_chunks(path, minimum, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        count = journalled_chunks(path)
        if count >= minimum:
            return count
        time.sleep(0.01)
    pytest.fail(f"checkpoint never reached {minimum} journalled "
                f"chunk(s); saw {journalled_chunks(path)}")


@pytest.fixture(scope="module")
def baseline_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "rows.json"
    completed = run_cli(SWEEP + ["--results-json", str(path)])
    assert completed.returncode == 0, completed.stderr
    return json.loads(path.read_text())


def test_sigkill_then_resume_is_bit_identical(tmp_path, baseline_rows):
    checkpoint = str(tmp_path / "ck.jsonl")
    results = str(tmp_path / "rows.json")

    process = spawn_cli(SWEEP + ["--checkpoint", checkpoint])
    try:
        wait_for_chunks(checkpoint, 2)
        process.send_signal(signal.SIGKILL)
    finally:
        process.wait(timeout=30)
    assert not os.path.exists(results)  # it never got to the report

    # The torn journal still validates, wherever the SIGKILL landed:
    # `metrics --validate` skips a torn last line by the rule the
    # loader and --resume read it by (obs.audit._records_end).
    validated = run_cli(["metrics", "--validate", checkpoint])
    assert validated.returncode == 0, validated.stdout + validated.stderr

    resumed = run_cli(SWEEP + ["--checkpoint", checkpoint, "--resume",
                               "--results-json", results])
    assert resumed.returncode == 0, resumed.stderr
    assert json.loads(open(results).read()) == baseline_rows


def test_sigterm_drains_and_exits_130(tmp_path, baseline_rows):
    checkpoint = str(tmp_path / "ck.jsonl")
    results = str(tmp_path / "rows.json")

    process = spawn_cli(SWEEP + ["--checkpoint", checkpoint])
    try:
        wait_for_chunks(checkpoint, 1)
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert code == 130

    resumed = run_cli(SWEEP + ["--checkpoint", checkpoint, "--resume",
                               "--results-json", results])
    assert resumed.returncode == 0, resumed.stderr
    assert json.loads(open(results).read()) == baseline_rows


def test_resume_without_interruption_is_a_no_op_rerun(tmp_path,
                                                      baseline_rows):
    checkpoint = str(tmp_path / "ck.jsonl")
    results = str(tmp_path / "rows.json")
    completed = run_cli(SWEEP + ["--checkpoint", checkpoint])
    assert completed.returncode == 0, completed.stderr

    resumed = run_cli(SWEEP + ["--checkpoint", checkpoint, "--resume",
                               "--results-json", results])
    assert resumed.returncode == 0, resumed.stderr
    assert json.loads(open(results).read()) == baseline_rows
