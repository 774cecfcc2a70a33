"""Fixtures shared across the suite."""

import contextlib

import pytest

from repro.flowchart import batchpath

#: The batch setups a differential test runs under: NumPy importable
#: where it is (int64 views for the vectorised summariser), and NumPy
#: hidden everywhere, so the scalar summariser stays covered on hosts
#: that have NumPy.  The lanes themselves are compiled-tier calls in
#: both.
LANES = (["numpy"] if batchpath._numpy() is not None else []) + [
    "numpy-hidden"]


@contextlib.contextmanager
def _numpy_hidden():
    """The batch tier as on a host without NumPy.

    The rows memo is dropped on the way in and out, so no result that
    built its int64 view with NumPy serves a hidden run, or the reverse.
    """
    with pytest.MonkeyPatch.context() as patch:
        batchpath.clear_rows_memo()
        patch.setattr(batchpath, "_numpy", lambda: None)
        try:
            yield
        finally:
            batchpath.clear_rows_memo()


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
