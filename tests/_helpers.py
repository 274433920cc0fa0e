"""Helpers shared by the test modules.

Kept outside ``conftest.py`` deliberately: ``conftest`` is a pytest
implementation detail, and importing it by name from test modules collides
with the *other* ``conftest.py`` of the benchmark suite (both directories
sit on ``sys.path`` during collection, and whichever is imported first
claims the module name).  Test modules import helpers from here;
``conftest.py`` holds fixtures only.
"""

from __future__ import annotations

import pytest

from repro.core import BACKENDS, compiled_available
from repro.graphs import random_features
from repro.sparse import CSRMatrix

__all__ = ["make_xy", "needs_cc", "backend_params"]

#: Marks a test that needs a C compiler (``$CC`` or ``cc`` on ``PATH``).
needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no C compiler found ($CC or cc on PATH)"
)


def backend_params(backends=BACKENDS):
    """``backends`` as pytest params; ``compiled`` skips without a compiler."""
    return [pytest.param(b, marks=needs_cc) if b == "compiled" else b for b in backends]


def make_xy(A: CSRMatrix, d: int, seed: int = 0):
    """(X, Y) operand pair sized for A."""
    X = random_features(A.nrows, d, seed=seed)
    Y = X if A.nrows == A.ncols else random_features(A.ncols, d, seed=seed + 1)
    return X, Y
