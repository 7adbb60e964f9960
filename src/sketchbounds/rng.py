"""Deterministic random streams.

All sampling in this package flows through PCG64 generators derived from a
single 64-bit seed.  Independent substreams are split off with
``numpy.random.SeedSequence`` spawn keys, so the stream for (seed, path) is a
pure function of its arguments: samplers that draw one stream per column use
``substream(seed, column)``, and nested experiments derive child seeds with
``derive_seed(seed, trial)``.  This is what makes every sampler and every CLI
command reproducible from its config plus seed alone.

Lanes.  Drawing one ``substream`` per column costs one ``SeedSequence``, one
``PCG64`` and one ``Generator`` each, so the per-column streams are also
emulated for many columns at once: each column is a lane.
``spawn_states(entropy, *key)`` is ``SeedSequence``'s hash mix as uint64
array operations over the lanes: the entropy is one seed for every lane
(its words then mix the same way for every lane, so that part runs once in
Python) or one seed per lane, and the spawn key has any number of words, each
an int or one word per lane.  ``lane_draws(seed, lanes, count)`` gives every
lane's first 32-bit draws: it seeds PCG64 as ``pcg_setseq_128_srandom_r``
does and steps its XSL-RR output with a 128-bit multiply in 32-bit limbs,
splitting each 64-bit output into its low and then its high half as
``next_uint32`` does.  ``bounded`` is Lemire's bounded draw over such
draws.  It emulates no rejection: it flags every draw that could reject (at
most ``range / 2^32`` per draw), and callers send a flagged lane back through
``substream``.  ``derived_states(seed, *path)`` emulates only the seeding, of
``substream(derive_seed(seed, *path))``, and hands back PCG64 state dicts, so
that numpy's own generator, with a state set, makes the draws and none needs
emulating.  numpy does not promise the same ``Generator`` stream across
versions, so the callers also compare some emulated lanes with the real
stream and fall back to it when they differ.

``choice_bounds(m, s)`` lists the bounds of the draws
``Generator.choice(m, s, replace=False)`` makes when ``choice_is_floyd(m, s)``
holds, and ``floyd_picks`` turns the Floyd draws among them into an s-subset.
The sign sampler feeds it emulated draws below those bounds; the sampled RIP
estimate feeds it draws from numpy's own ``Generator.integers``, which makes
no emulation and so needs no comparison.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArgs
from .matrices import _BUDGET

_SEED_BOUND = 2**64
_M32 = 0xFFFFFFFF

# numpy's SeedSequence (a port of O'Neill's seed_seq): pool of 4 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier, as high and low words, and the low word's
# 32-bit limbs for the high half of the 64x64-bit product
_MUL_HI, _MUL_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MUL_LO0, _MUL_LO1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)

# The fewest columns or trials one emulation call covers.  Each call has a
# fixed Python cost (some 450 numpy operations for a sign sampler), and
# lane_draws steps once per pair of words for the whole chunk, so this floor
# stays a lane count outside the memory budget: 16 lanes, a count derived
# from the budget's bytes, made sample_sparse_sign_jl(4096, 2048, 512) take
# 4.1 s instead of 0.39 s on a 2-core x86 VM.  The sign samplers take
# lane_count(words) lanes a call, as many as the budget holds; at 256 x
# 10000, s = 8 that is 2 calls of 5,698 lanes instead of 10 of 1,024, and
# sample_sparse_sign_jl took 10.4 ms instead of 14.6 ms on the same VM.
# witnesses' trial states take _LANES, since each lane becomes a Python dict.
_LANES = 1024

# Generator.choice(m, s, replace=False) shuffles the tail of an arange
# instead of running Floyd's algorithm when m > 10000 and s > m // 50
_FLOYD_MAX_POP = 10000
_FLOYD_CUTOFF = 50


def lane_count(words: int) -> int:
    """Lanes one emulation call takes when each lane draws ``words`` 32-bit
    words: as many as hold their draws, 8 bytes a word, in ``_BUDGET``, and
    never fewer than ``_LANES``.  A lane counts as at least 16 words, since
    its seeding and PCG64 state hold about that many whatever it draws."""
    return max(_LANES, _BUDGET // (8 * max(words, 16)))


def check_seed(seed: int) -> int:
    """Validate and return a 64-bit unsigned seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise BadArgs(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < _SEED_BOUND:
        raise BadArgs(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    """The SeedSequence of (seed, path); a path word that is a bool, not an
    integer, or negative raises :class:`BadArgs`."""
    for word in path:
        if isinstance(word, bool) or not isinstance(word, (int, np.integer)) or word < 0:
            raise BadArgs(f"seed path words must be integers >= 0, got {word!r}")
    return np.random.SeedSequence(entropy=check_seed(seed), spawn_key=path)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for (seed, path).

    The same (seed, path) always yields an identical stream; distinct paths
    yield statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed for a nested sampler call."""
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])


# --- lane-wise emulation of substream(seed, j) -------------------------------

def _hashmix(value, const: int):
    """SeedSequence's hashmix: the mixed value and the next hash constant.
    ``value`` is a Python int or a uint64 array of 32-bit words."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ (result >> 16)


def spawn_states(entropy, *key, words: int = 4) -> list[np.ndarray]:
    """``SeedSequence(entropy=entropy, spawn_key=key).generate_state(words,
    np.uint64)`` lane-wise, as ``words`` uint64 arrays.

    ``entropy`` is one seed for every lane, an int, or a uint64 array of
    per-lane seeds.  Each spawn key word is an int or a uint64 array of
    per-lane words, each below 2^32 (numpy splits a larger word in two).
    """
    if isinstance(entropy, np.ndarray):
        entropy = entropy.astype(np.uint64)
        run = [entropy & np.uint64(_M32), entropy >> np.uint64(32)]
    else:
        # Python ints, since a uint64 scalar would warn where _mix wraps
        seed = check_seed(entropy)
        run = [seed & _M32, seed >> 32]
    # The seed's words, padded with zeros to the pool size.  numpy pads a
    # seed that has a spawn key, and hashes 0 for a missing word when it has
    # none, so a one-word seed (below 2^32) mixes the same either way.
    mixer, const = [], _INIT_A
    for word in run + [0] * (_POOL - len(run)):
        word, const = _hashmix(word, const)
        mixer.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(mixer[src], const)
                mixer[dst] = _mix(mixer[dst], word)
    # each spawn key word then mixes into every pool word
    for word in key:
        word = int(word) if isinstance(word, (int, np.integer)) else np.asarray(word, dtype=np.uint64)
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const)
            mixer[dst] = _mix(mixer[dst], hashed)
    # generate_state: 2 * words uint32 words off the cycled pool, paired
    # low-high
    halves, const = [], _INIT_B
    for i in range(2 * words):
        word = mixer[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        word = word * const & _M32
        halves.append(np.asarray(word ^ (word >> 16), dtype=np.uint64))
    return [halves[2 * i] | (halves[2 * i + 1] << np.uint64(32)) for i in range(words)]


def _mulhi64(a: np.ndarray, b0: np.uint64, b1: np.uint64) -> np.ndarray:
    """High 64 bits of a * (b1 * 2^32 + b0), in 32-bit limbs."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _add128(hi, lo, add_hi, add_lo):
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo).astype(np.uint64), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step of PCG64: state * multiplier + inc, mod 2^128."""
    hi = _mulhi64(lo, _MUL_LO0, _MUL_LO1) + hi * _MUL_LO + lo * _MUL_HI
    return _add128(hi, lo * _MUL_LO, inc_hi, inc_lo)


def _srandom(w0, w1, w2, w3):
    """PCG64's state and increment, as high and low uint64 words, when it is
    seeded from ``generate_state(4, np.uint64)`` = [w0, w1, w2, w3]:
    ``pcg_setseq_128_srandom_r(state=w0:w1, seq=w2:w3)`` sets state 0,
    steps, adds the seed and steps."""
    one = np.uint64(1)
    inc_hi, inc_lo = (w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one
    return (*_step(*_add128(inc_hi, inc_lo, w0, w1), inc_hi, inc_lo), inc_hi, inc_lo)


def lane_draws(seed: int, lanes: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` ``next_uint32`` draws of ``substream(seed, j)`` for
    each j in ``lanes`` (each below 2^32), as a (len(lanes), count) uint64
    array of values below 2^32."""
    hi, lo, inc_hi, inc_lo = _srandom(*spawn_states(seed, lanes))
    out = np.empty((hi.size, count + count % 2), dtype=np.uint64)
    for t in range(0, count, 2):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: xor the halves, rotate right by the top 6 bits
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, t] = x & np.uint64(_M32)
        out[:, t + 1] = x >> np.uint64(32)
    return out[:, :count]


def derived_states(seed: int, *path) -> list[dict]:
    """``substream(derive_seed(seed, *path)).bit_generator.state`` lane-wise,
    as PCG64 state dicts.  Each path word is an int or a uint64 array of
    per-lane words, each below 2^32.  Setting one on a ``PCG64``'s ``state``
    makes it that stream without a ``SeedSequence``."""
    derived = spawn_states(seed, *path, words=1)[0]
    words = (w.tolist() for w in _srandom(*spawn_states(derived)))
    return [{"bit_generator": "PCG64", "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
             "has_uint32": 0, "uinteger": 0}
            for hi, lo, inc_hi, inc_lo in zip(*words)]


def bounded(words: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw in [0, bound) from each 32-bit word, as numpy makes it
    for a range below 2^32, and whether that draw could have rejected the
    word: its low product word is below ``bound``."""
    bound = np.asarray(bound, dtype=np.uint64)
    product = words * bound
    return (product >> np.uint64(32)).astype(np.int64), (product & np.uint64(_M32)) < bound


def choice_is_floyd(m: int, s: int) -> bool:
    """Whether ``Generator.choice(m, s, replace=False)`` runs Floyd's
    algorithm; otherwise it shuffles the tail of an arange."""
    return not (m > _FLOYD_MAX_POP and s > m // _FLOYD_CUTOFF)


def choice_bounds(m: int, s: int) -> np.ndarray:
    """The exclusive bounds of the 2s - 1 draws ``Generator.choice(m, s,
    replace=False)`` makes on Floyd's path, in order: step i of Floyd's
    algorithm draws below m - s + 1 + i, then the shuffle draws below i + 1
    for i = s - 1 down to 1.  A bound of 1 draws nothing and gives 0."""
    return np.concatenate([np.arange(m - s, m) + 1, np.arange(s, 1, -1)])


def floyd_picks(vals: np.ndarray, m: int) -> np.ndarray:
    """Floyd's algorithm for s-subsets of [0, m), one lane per row of the
    (lanes, s) array ``vals``, where step i drew ``vals[:, i]`` in [0, j]
    for j = m - s + i; the picks come back sorted.

    Step i takes its value, or takes j when the lane has taken the value
    already.  That happens when an earlier step drew the same value, or when
    the value is the j of an earlier step that took its own j.  Equal values
    are found with one stable sort per lane and the chains of taken j's by a
    fixpoint, so a lane costs O(s log s), not O(s^2).
    """
    lanes, s = vals.shape
    steps = np.arange(m - s, m)
    order = np.argsort(vals, axis=1, kind="stable")
    ordered = np.take_along_axis(vals, order, axis=1)
    repeat = np.zeros((lanes, s), dtype=bool)
    np.put_along_axis(repeat, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
    k = vals - (m - s)  # the step whose j equals the value, if there is one
    chained = (k >= 0) & (k < np.arange(s))
    k[~chained] = 0
    taken = repeat
    while True:
        grown = repeat | chained & np.take_along_axis(taken, k, axis=1)
        if np.array_equal(grown, taken):
            break
        taken = grown
    picks = np.where(taken, steps, vals)
    picks.sort(axis=1)
    return picks
