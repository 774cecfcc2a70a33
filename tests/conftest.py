"""Fixtures shared across the suite."""

import contextlib
import importlib.util
import sys

import pytest

#: The batch setups a differential test runs under: NumPy importable
#: where it is, and NumPy blocked from import, as on a host without it.
#: The batch tier is plain Python, so both must give the same rows.
LANES = (["numpy"] if importlib.util.find_spec("numpy") is not None
         else []) + ["numpy-hidden"]


@contextlib.contextmanager
def _numpy_hidden():
    """The batch tier as on a host without NumPy: ``import numpy``
    raises ImportError."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "numpy", None)
        yield


@pytest.fixture(params=LANES)
def lanes(request):
    """Each batch lane setup of ``LANES`` in turn."""
    hidden = request.param == "numpy-hidden"
    with _numpy_hidden() if hidden else contextlib.nullcontext():
        yield request.param
