"""The package's one memory budget, ``matrices._BUDGET``.

Every kernel derives its working chunks from that one byte count, and its
docstring states its peak as a multiple of the budget plus bytes per entry
and per column of its input, plus its output.  The tests here hold each
statement under tracemalloc at the benchmark's shapes and at adversarial
ones: wide columns (s = 512), 200,000 empty columns, one column of 2^17
entries, m = 2^40, and k > m for the RIP scans.  They also list the
package's size knobs, and check that the budget gives the benchmark's shapes
the chunks they had when each kernel had its own constant.
"""

from __future__ import annotations

import ast
import importlib
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import sketchbounds
from sketchbounds import (
    SparseMatrix,
    coherence,
    derive_seed,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    ose_failure_probability,
    random_code,
    rip_constant_exact,
    rip_constant_lower_estimate,
    rip_pattern_witness,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    save_matrix,
    save_one_sparse_map,
    sign_pattern_certify,
    ttype_collision_certify,
)
from sketchbounds import matrices, measures, witnesses
from sketchbounds.constructions import _spread_matrix
from sketchbounds.matrices import _BUDGET, _map_from_object, _spans
from sketchbounds.measures import _probe_level
from sketchbounds.rng import _LANES, lane_count

# --- shapes ---------------------------------------------------------------------


def _signed(m, cols, sign):
    """The matrix whose column j holds the rows cols[j], with random signs,
    each entry of magnitude 1/sqrt(largest column) when `sign`, else of
    1/sqrt(its column's size), which gives unit columns."""
    sizes = np.array([len(c) for c in cols])
    indices = np.concatenate([np.asarray(c, dtype=np.int64) for c in cols])
    mag = np.full(indices.size, 1 / math.sqrt(sizes.max())) if sign else \
        np.repeat(1 / np.sqrt(np.maximum(sizes, 1)), sizes)
    data = mag * np.random.default_rng(5).choice([-1.0, 1.0], indices.size)
    return SparseMatrix.from_csc(m, len(cols), np.concatenate(([0], np.cumsum(sizes))), indices, data)


def _shape(name, sign):
    """A matrix at a shape the statements are held at; `sign` asks for one
    magnitude throughout, as ``sign_pattern_certify`` needs, else unit columns."""
    if name == "benchmark":  # the witness and codec workloads' sign-JL matrix
        return sample_sparse_sign_jl(256, 10000, 8, 1)
    if name == "wide":
        return sample_sparse_sign_jl(4096, 2048, 512, 1)
    if name == "empty":  # 200,000 empty columns, then one full one
        return _signed(8, [[]] * 200000 + [range(8)], sign)
    if name == "long":  # one column of 2^17 entries among short ones
        rng = np.random.default_rng(2)
        cols = [np.sort(rng.choice(2**17, rng.integers(1, 5), replace=False)) for _ in range(15)]
        return _signed(2**17, cols[:7] + [range(2**17)] + cols[7:], sign)
    if name == "tall":  # m = 2^40 with a few entries, no two columns on the same rows
        return _signed(2**40, [[0, 2**40 - 1], [5, 2**39], [1, 2**40 - 2], [7, 2**40 - 3], [1, 2]], sign)
    if name == "measure":  # the measure workload's RIP matrix
        return sample_sparse_sign_jl(64, 60, 4, 1)
    if name == "readme":  # the README tour's matrix, whose exact k = 2 scan builds an 8 MB |G|
        return sample_sparse_sign_jl(64, 1000, 8, 7)
    if name == "perturbed":  # the benchmark's matrix off +-c by up to 2e-12 a magnitude, columns renormalized
        A = _shape("benchmark", True)
        data = A.data * (1 + np.random.default_rng(3).uniform(-2e-12, 2e-12, A.nnz))
        data /= np.repeat(np.sqrt(np.add.reduceat(data * data, A.indptr[:-1])), np.diff(A.indptr))
        return SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, data)
    if name in ("packed", "unpacked"):  # rows up to 2^31 - 1, which the writer packs, or up to 2^31
        top = 2**31 - (name == "packed")
        rng = np.random.default_rng(4)
        cols = [np.unique(np.concatenate((rng.integers(top - 64, top, 3), rng.integers(0, 64, 3))))
                for _ in range(2000)]
        return _signed(top + 1, cols[:-1] + [[0, top]], sign)
    if name == "short":  # k > m: two rows, 400 columns
        return SparseMatrix.from_dense(np.random.default_rng(0).standard_normal((2, 400)))
    raise KeyError(name)


@pytest.fixture(scope="module")
def shape():
    """:func:`_shape`, each matrix built once for this module's tests."""
    built = {}

    def get(name, sign=True):
        if (name, sign) not in built:
            built[name, sign] = _shape(name, sign)
        return built[name, sign]

    yield get
    built.clear()


def _largest(A):
    """Entries in A's largest column."""
    return int(np.diff(A.indptr).max())


def _code_bytes(A):
    """Bytes of one signed-row code, as ``witnesses._signed_rows`` stores it."""
    return 4 if A.m < 2**31 - 1 else 8


def _distinct_strings(A):
    """The entry strings the +-c writer formats: one per distinct (row, sign,
    opens its column, closes it), plus ``[]`` when a column is empty."""
    nnz = np.diff(A.indptr)
    items = 8 * A.indices + 4 * (A.data < 0)
    items[A.indptr[:-1][nnz > 0]] += 2
    items[A.indptr[1:][nnz > 0] - 1] += 1
    return np.unique(items).size + int((nnz == 0).any())


# --- the statements ---------------------------------------------------------------
#
# Each entry gives a kernel's run on A and the peak its docstring states,
# in bytes.  A span or block holds at most its share of the budget, or one
# column (support, trial) that alone holds more: that is the max(...) term.

def _writer(A):
    # matrices._signed_text
    return 4 * max(_BUDGET, 128 * _largest(A)) + 20 * A.nnz + 40 * A.n + 128 * _distinct_strings(A)


def _loader(A):
    # matrices._canonical_csc: a window's bytes and arrays, and the matrix's
    # arrays.  From a file, the read is inside this: one window at a time,
    # and no whole text
    return 2 * _BUDGET + 48 * A.nnz + 80 * A.n


def _map_loader(S, text):
    # matrices._canonical_map: a chunk's arrays, then the map's five n-sized
    # arrays and their checks; the text, and its read, are the caller's
    return _BUDGET + 40 * S.n + 2 * len(text)


def _keys(A, rows, width):
    # witnesses' key spans, then the block of `rows` keys of `width` codes
    # and its grouping
    return 4 * max(_BUDGET, 64 * _largest(A)) + 20 * A.nnz + 40 * A.n \
        + 3 * rows * width * _code_bytes(A) + 48 * rows


def _ttype(A, t):
    return _keys(A, A.n, 2 * t)


def _sign_pattern(A, t):
    return _keys(A, A.n, t)


def _full_enumeration(A, t):
    return _keys(A, sum(math.comb(int(c), t) for c in np.diff(A.indptr)), t)


def _rip_pattern(A, k):
    s = _largest(A)
    return _keys(A, A.n, min(witnesses._pattern_size(1, k, s), s))


def _rip(A, k, count):
    # the stacked columns and Grams of a chunk, k/m times larger than the
    # stack when k > m; |G| where it is built; the worst direction
    G = 8 * A.n**2 if A.m <= 2**21 and A.n**2 <= k * k * count else 0
    return 2 * max(_BUDGET, 8 * k * A.m) * max(1, k / A.m) + G + 20 * A.nnz + 40 * A.n


def _probe(A):
    # coherence by the pattern probe: 8 * n * C(s, tau) bytes of keys, with
    # links and groups at most as many
    tau, _ = _probe_level(A.m, A.n, A.nnz // A.n)
    return 4 * _BUDGET + 2 * 8 * A.n * math.comb(A.nnz // A.n, tau) + 20 * A.nnz + 40 * A.n


def _gram(A, itemsize):
    # coherence by the Gram of 512-column slabs: two slabs and, while the
    # next product is made, two 512 x 512 products, each entry `itemsize` bytes
    return 2 * itemsize * 512 * (A.m + 512) + 20 * A.nnz + 40 * A.n


def _sign_gram(A, tmp):
    """coherence by the float32 sign Gram, the probe passed over."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_probe_level", lambda m, n, s: None)
        return coherence(A)


def _sampler(A, words):
    # constructions._sample_sign_columns: one call's lanes of `words` draws
    # each, then the output and its checks
    return 4 * max(_BUDGET, 8 * _LANES * words) + 20 * A.nnz + 40 * A.n


def _sweep(n, trials):
    # a block of trials' rows, or one trial's 8n bytes, and the records
    return 5 * max(_BUDGET, 8 * n) + 256 * trials


CASES = {
    # (kernel, shape): (run, stated peak)
    **{("save_matrix", name): (lambda A, tmp: save_matrix(A, tmp / "A.json"), _writer)
       for name in ("benchmark", "wide", "empty", "long", "tall", "packed", "unpacked")},
    # matrix_to_json also holds the pieces and the joined text
    **{("matrix_to_json", name): (lambda A, tmp: matrix_to_json(A),
                                  lambda A: _writer(A) + 2 * len(matrix_to_json(A)))
       for name in ("benchmark", "empty", "tall")},
    # (the text is written before the trace starts)
    **{("matrix_from_json", name): (None, _loader) for name in ("benchmark", "wide", "empty", "long", "tall")},
    # (the file is written before the trace starts, and read inside it)
    **{("load_matrix", name): (None, _loader)
       for name in ("benchmark", "wide", "empty", "long", "tall", "packed", "unpacked")},
    **{("ttype_collision_certify", name): (lambda A, tmp: ttype_collision_certify(A, 0.0, 2),
                                           lambda A: _ttype(A, 2))
       for name in ("benchmark", "wide", "long", "tall")},
    **{("sign_pattern_certify", name): (lambda A, tmp: sign_pattern_certify(A, 0.0, 2),
                                        lambda A: _sign_pattern(A, 2))
       for name in ("benchmark", "wide", "empty", "long", "tall")},
    **{("full_enumeration", name): (lambda A, tmp: sign_pattern_certify(A, 0.0, min(4, _largest(A)), True),
                                    lambda A: _full_enumeration(A, min(4, _largest(A))))
       for name in ("benchmark", "empty", "tall")},
    **{("rip_pattern_witness", name): (lambda A, tmp: rip_pattern_witness(A, 4), lambda A: _rip_pattern(A, 4))
       for name in ("benchmark", "wide", "long", "tall")},
    # key rows of 2 codes, so the scale check would set the peak if it held
    # entry-sized arrays for the whole input at once
    ("rip_pattern_witness", "wide", 2048): (lambda A, tmp: rip_pattern_witness(A, 2048),
                                            lambda A: _rip_pattern(A, 2048)),
    ("rip_constant_exact", "measure"): (lambda A, tmp: rip_constant_exact(A, 3),
                                        lambda A: _rip(A, 3, math.comb(A.n, 3))),
    ("rip_constant_exact", "readme"): (lambda A, tmp: rip_constant_exact(A, 2),
                                       lambda A: _rip(A, 2, math.comb(A.n, 2))),
    ("rip_constant_exact", "long"): (lambda A, tmp: rip_constant_exact(A, 2),
                                     lambda A: _rip(A, 2, math.comb(A.n, 2))),
    ("rip_constant_lower_estimate", "measure"): (lambda A, tmp: rip_constant_lower_estimate(A, 8, 5000, 1),
                                                 lambda A: _rip(A, 8, 5000)),
    ("rip_constant_lower_estimate", "wide"): (lambda A, tmp: rip_constant_lower_estimate(A, 4, 300, 1),
                                              lambda A: _rip(A, 4, 300)),
    ("rip_constant_lower_estimate", "empty"): (lambda A, tmp: rip_constant_lower_estimate(A, 2, 2000, 1),
                                               lambda A: _rip(A, 2, 2000)),
    ("rip_constant_lower_estimate", "long"): (lambda A, tmp: rip_constant_lower_estimate(A, 3, 200, 1),
                                              lambda A: _rip(A, 3, 200)),
    # k > m: a chunk's 512 Grams at k = 128 are 64 times its 1 MiB stack
    **{("rip_constant_lower_estimate", "short", k): (
        lambda A, tmp, k=k: rip_constant_lower_estimate(A, k, _BUDGET // (16 * k), 1),
        lambda A, k=k: _rip(A, k, _BUDGET // (16 * k)))
       for k in (64, 128)},
    # the samplers at A's shape: 3s - 1 draws a lane for sign JL, 2s for blocks
    **{("sample_sparse_sign_jl", name): (lambda A, tmp: sample_sparse_sign_jl(A.m, A.n, _largest(A), 2),
                                         lambda A: _sampler(A, 3 * _largest(A) - 1))
       for name in ("benchmark", "wide")},
    **{("sample_osnap_block", name): (lambda A, tmp: sample_osnap_block(A.m, A.n, _largest(A), 2),
                                      lambda A: _sampler(A, 2 * _largest(A)))
       for name in ("benchmark", "wide")},
    ("coherence", "benchmark"): (lambda A, tmp: coherence(A), _probe),
    # entries not all +-c: the float64 Gram; a whole dense copy would take 20 MB
    ("coherence", "perturbed"): (lambda A, tmp: coherence(A), lambda A: _gram(A, 8)),
    ("coherence_sign_gram", "benchmark"): (_sign_gram, lambda A: _gram(A, 4)),
}

SWEEPS = [  # (m, d, n, trials)
    (64, 8, 256, 300),           # the benchmark's sweep point: one block
    (64, 8, 20000, 300),         # 6 trials a block
    (2**40, 8, 20000, 300),      # nearly every row hit once
    (2**40, 8, 400000, 4),       # one trial is larger than the budget
]


def _traced_peak(fn):
    fn()  # first-call allocations (lazy imports, caches) are not the kernel's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", list(CASES), ids=lambda case: "-".join(map(str, case)))
def test_peak_is_as_stated(case, shape, tmp_path):
    kernel, name = case[:2]
    run, stated = CASES[case]
    # the loaders' statement is the +-c decoder's, so they load +-c shapes
    A = shape(name, sign=kernel in ("sign_pattern_certify", "full_enumeration", "matrix_from_json", "load_matrix"))
    if kernel == "matrix_from_json":
        text = matrix_to_json(A)
        peak = _traced_peak(lambda: matrix_from_json(text))
    elif kernel == "load_matrix":
        save_matrix(A, tmp_path / "A.json")
        peak = _traced_peak(lambda: load_matrix(tmp_path / "A.json"))
    else:
        peak = _traced_peak(lambda: run(A, tmp_path))
    bound = stated(A)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("m, d, n, trials", SWEEPS)
def test_sweep_peak_is_as_stated(m, d, n, trials):
    peak = _traced_peak(lambda: ose_failure_probability(m, d, n, trials, 3))
    assert peak <= _sweep(n, trials), (peak, _sweep(n, trials))


def test_spread_family_peak_is_as_stated():
    """The CLI's spread_vectors family at q = 256, t = 16, N = 2,000 (n = 4,096,
    k = 32): code_to_incoherent's rows and values and the family's values, 8
    bytes an entry each, and two matrices' checks; 0.8 MiB, where stacking
    dense n-vectors peaked at 125.5 MiB."""
    c = random_code(256, 16, 2000, 1.0, 5)
    peak = _traced_peak(lambda: _spread_matrix(c, 4096, 32))
    stated = 32 * c.size * c.t + 40 * c.size
    assert peak <= stated < 2 * 2**20, (peak, stated)


@pytest.mark.parametrize("n", [20000, 2**20], ids=["benchmark_map", "wide_map"])
def test_map_load_peak_is_as_stated_and_below_the_json_path(n, tmp_path):
    """load_matrix of the benchmark's 4096 x 20000 map and of a 4096 x 2^20
    one, the file read inside the trace: within the stated peak and at most
    the json route's, whose lists of ints above 256 take about 48 bytes a
    column (77.4 MiB at 2^20 columns)."""
    S = sample_countsketch(4096, n, derive_seed(1, 5))
    path = tmp_path / "S.json"
    save_one_sparse_map(S, path)
    text = path.read_text()
    peak = _traced_peak(lambda: load_matrix(path))
    json_peak = _traced_peak(lambda: _map_from_object(json.loads(path.read_text())))
    assert peak <= _map_loader(S, text) and peak <= json_peak, (peak, _map_loader(S, text), json_peak)


def test_load_of_the_benchmark_file_holds_no_text(shape, tmp_path):
    """load_matrix of the 256x10000, s = 8 file, the read traced: the file is
    read in blocks into one buffer, so the load peaks at most at the text's
    length plus the matrix's arrays (2.2 MiB; 4.1 MiB when the text was
    read whole), and by half the text's length or more below a decode of
    the text read whole (4.2 MiB)."""
    A = shape("benchmark")
    path = tmp_path / "A.json"
    save_matrix(A, path)
    size = path.stat().st_size
    peak = _traced_peak(lambda: load_matrix(path))
    whole = _traced_peak(lambda: matrix_from_json(path.read_text()))
    arrays = A.indptr.nbytes + A.indices.nbytes + A.data.nbytes
    assert peak <= size + arrays and peak + size // 2 <= whole, (peak, whole, size, arrays)


# --- the chunks the budget derives ---------------------------------------------------


def test_the_benchmark_shapes_keep_their_chunks(shape, monkeypatch):
    """At the benchmark's shapes the derived chunks equal the constants the
    kernels had before the budget: 2,048 key columns and 1,024 writer
    columns at s = 8, 65,536 loader characters, 131,072 probe entries, RIP
    chunks of 682 and 256 supports on 64 rows, one block for the sweep."""
    A = shape("benchmark")
    widths, blocks = [], []

    def spans(*args):
        cut = list(_spans(*args))
        widths.append([hi - lo for lo, hi in cut])
        return cut

    monkeypatch.setattr(witnesses, "_spans", spans)
    ttype_collision_certify(A, 0.03, 2)
    assert widths == [[2048] * 4 + [10000 - 4 * 2048]]
    # the writer's pieces: the head, 10 blocks of at most 1,024 columns
    # with a comma between each two, the tail
    assert len(list(matrices._json_pieces(A))) == 1 + 10 + 9 + 1
    assert (_BUDGET // 16, _BUDGET // 8) == (65536, 131072)
    B = shape("measure")
    assert (measures._chunk_length(B, 3), measures._chunk_length(B, 8)) == (682, 256)
    assert (measures._scan_length(3), measures._scan_length(8)) == (5461, 2048)
    records = witnesses._block_records
    monkeypatch.setattr(witnesses, "_block_records", lambda a, *args: blocks.append(len(a)) or records(a, *args))
    ose_failure_probability(64, 8, 256, 300, 3)
    assert blocks == [300]


def test_the_samplers_take_the_budgets_lanes_and_the_floor_on_wide_columns():
    """At 256 x 10000, s = 8 a sign sampler call takes the lanes the budget
    holds, 5,698 for sign JL (23 draws a lane) and 8,192 for blocks (16),
    where it took 1,024 before; at s = 512 it takes the floor, the 1,024 lanes
    and so the peak it had."""
    assert (lane_count(3 * 8 - 1), lane_count(2 * 8)) == (5698, 8192)
    assert lane_count(3 * 512 - 1) == lane_count(2 * 512) == _LANES == 1024


def test_spans_cover_every_column_once():
    rng = np.random.default_rng(0)
    for _ in range(200):
        sizes = rng.choice([0, 0, 1, 3, 50], size=rng.integers(1, 40))
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        limit = int(rng.integers(1, 60))
        spans = list(_spans(ptr, limit))
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == sizes.size
        for lo, hi in spans:
            # within the limit, or one column; and no room for the next column
            assert ptr[hi] - ptr[lo] <= limit or hi == lo + 1
            assert hi == sizes.size or ptr[hi + 1] - ptr[lo] > limit


# --- one knob -------------------------------------------------------------------------


def test_the_size_knobs_are_the_budget_the_lanes_and_the_stream_block():
    """Module-level integer constants named as sizes: the budget, which sizes
    every memory chunk; the fewest lanes an emulation call takes, which set
    speed where the budget would hold fewer; and stream-demo's update block,
    which sets the draws."""
    found = set()
    for path in pathlib.Path(sketchbounds.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"sketchbounds.{path.stem}" if path.stem != "__init__" else "sketchbounds")
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(
                        ("BUDGET", "CHUNK", "BYTES", "BLOCK", "COLUMNS", "CHARS", "LANES")) \
                        and isinstance(getattr(module, target.id, None), int):
                    found.add(f"{path.stem}.{target.id}")
    assert found == {"matrices._BUDGET", "rng._LANES", "cli._STREAM_BLOCK"}
