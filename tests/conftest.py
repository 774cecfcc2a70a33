"""Fixtures shared across the suite."""

import contextlib
import importlib.util
import sys

import pytest

from repro.flowchart import batchpath

#: The batch setups a differential test runs under: NumPy importable
#: where it is, and NumPy blocked from import, as on a host without it.
#: The batch tier is plain Python, so both must give the same rows.
LANES = (["numpy"] if importlib.util.find_spec("numpy") is not None
         else []) + ["numpy-hidden"]


@contextlib.contextmanager
def _numpy_hidden():
    """The batch tier as on a host without NumPy: ``import numpy``
    raises ImportError.

    The rows memo is dropped on the way in and out, so the hidden run
    evaluates its batches itself rather than reading the other setup's.
    """
    with pytest.MonkeyPatch.context() as patch:
        batchpath.clear_rows_memo()
        patch.setitem(sys.modules, "numpy", None)
        try:
            yield
        finally:
            batchpath.clear_rows_memo()


@pytest.fixture(params=LANES)
def lanes(request):
    """Each batch lane setup of ``LANES`` in turn."""
    hidden = request.param == "numpy-hidden"
    with _numpy_hidden() if hidden else contextlib.nullcontext():
        yield request.param
