"""Deterministic random streams.

All sampling in this package flows through PCG64 generators derived from a
single 64-bit seed.  Independent substreams are split off with
``numpy.random.SeedSequence`` spawn keys, so the stream for (seed, path) is a
pure function of its arguments: samplers that draw one stream per column use
``substream(seed, column)``, and nested experiments derive child seeds with
``derive_seed(seed, trial)``.  This is what makes every sampler and every CLI
command reproducible from its config plus seed alone.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArgs

_SEED_BOUND = 2**64


def check_seed(seed: int) -> int:
    """Validate and return a 64-bit unsigned seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise BadArgs(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _SEED_BOUND:
        raise BadArgs(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for (seed, path).

    The same (seed, path) always yields an identical stream; distinct paths
    yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed for a nested sampler call."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
