"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from sketchbounds import SparseMatrix

# Hypothesis imports this module to report a failing example, and the import
# warns (mypy_extensions.TypedDict is deprecated).  Under filterwarnings =
# error that warning would abort the session instead of reporting the
# failure, so import it once here with the warning silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# One deterministic profile for every property test: each run draws the same
# examples and keeps no example database, so two runs test the same inputs.
# Tests still set their own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

ROOT2 = math.sqrt(2.0)


def dense(rows) -> SparseMatrix:
    """Shorthand: build a SparseMatrix from nested lists."""
    return SparseMatrix.from_dense(np.asarray(rows, dtype=np.float64))


def unit_random_sparse(m: int, n: int, nnz: int, rng: np.random.Generator) -> SparseMatrix:
    """Random matrix with exactly `nnz` gaussian entries per column, columns
    scaled to unit norm."""
    cols = []
    for _ in range(n):
        rows = np.sort(rng.choice(m, size=nnz, replace=False))
        vals = rng.standard_normal(nnz)
        while not np.all(vals):  # pragma: no cover - standard_normal is never 0 in practice
            vals = rng.standard_normal(nnz)
        vals = vals / math.sqrt(float(vals @ vals))
        cols.append(list(zip(rows.tolist(), vals.tolist())))
    return SparseMatrix(m, n, cols)


@pytest.fixture
def write_config(tmp_path):
    """Write a CLI config dict to a temp file and return its path."""

    def _write(obj, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write
