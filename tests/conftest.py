"""Fixtures shared across the suite."""

import contextlib

import pytest

from repro.flowchart import batchpath

#: The batch lane setups a differential test runs under: NumPy lanes
#: where NumPy imports, and NumPy hidden (every lane on the compiled
#: tier) everywhere, so the all-fallback path stays covered on hosts
#: that have NumPy.
LANES = (["numpy"] if batchpath._numpy() is not None else []) + [
    "numpy-hidden"]


@contextlib.contextmanager
def _numpy_hidden():
    """The batch tier as on a host without NumPy.

    Batch caches are dropped on the way in and out, so no evaluator
    compiled for NumPy lanes serves a hidden run, or the reverse.
    """
    with pytest.MonkeyPatch.context() as patch:
        batchpath.clear_batch_caches()
        patch.setattr(batchpath, "_numpy", lambda: None)
        try:
            yield
        finally:
            batchpath.clear_batch_caches()


@pytest.fixture(scope="session")
def numpy_hidden():
    """A context-manager factory hiding NumPy from the batch tier, for
    tests that switch lanes mid-test (hypothesis tests among them)."""
    return _numpy_hidden


@pytest.fixture(params=LANES)
def lanes(request):
    """Each batch lane setup of ``LANES`` in turn."""
    hidden = request.param == "numpy-hidden"
    with _numpy_hidden() if hidden else contextlib.nullcontext():
        yield request.param
