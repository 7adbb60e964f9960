"""Property tests of the matrix JSON fast paths against the json module.

The oracle is the writer and loader as they were before the fast paths: one
``json.dumps`` of nested lists, and ``json.loads`` followed by the object
checks.  The fast writer must give the same bytes, and every text, canonical
or mutated, must load to the same matrix or raise the same error class with
the same message.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchbounds import (
    MalformedArtifact,
    SketchboundsError,
    SparseMatrix,
    artifact_from_json,
    code_to_incoherent,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    one_sparse_map_to_json,
    random_code,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    save_matrix,
    spread_vectors,
)
from sketchbounds.matrices import _map_from_object


# --- the oracle -------------------------------------------------------------------

def oracle_to_json(A):
    ptr = A.indptr.tolist()
    cols = [
        [[r, v] for r, v in zip(A.indices[a:b].tolist(), A.data[a:b].tolist())]
        for a, b in zip(ptr, ptr[1:])
    ]
    return json.dumps({"m": A.m, "n": A.n, "cols": cols}, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def oracle_from_json(text, what):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedArtifact(f"invalid {what} JSON: {exc}") from exc
    if what == "artifact" and isinstance(obj, dict) and "a" in obj:
        return _map_from_object(obj)
    if not isinstance(obj, dict) or not {"m", "n", "cols"} <= set(obj):
        raise MalformedArtifact("matrix JSON must be an object with keys m, n, cols")
    cols = obj["cols"]
    if not isinstance(cols, list) or not all(isinstance(col, list) for col in cols):
        raise MalformedArtifact("cols must be a list of per-column entry lists")
    if not all(isinstance(pair, list) and len(pair) == 2 for col in cols for pair in col):
        raise MalformedArtifact("each entry must be a [row, value] pair")
    indptr = np.cumsum([0] + [len(col) for col in cols])
    rows = [pair[0] for col in cols for pair in col]
    vals = [pair[1] for col in cols for pair in col]
    return SparseMatrix.from_csc(obj["m"], obj["n"], indptr, rows, vals)


LOADERS = [(matrix_from_json, "matrix"), (artifact_from_json, "artifact")]


def outcome(load, *args):
    """What a load gives: ("ok", artifact) or ("error", class, message)."""
    try:
        return ("ok", load(*args))
    except SketchboundsError as exc:
        return ("error", type(exc), str(exc))


def assert_loads_as_json_loads_does(text):
    for load, what in LOADERS:
        assert outcome(load, text) == outcome(oracle_from_json, text, what), text


# --- matrices ---------------------------------------------------------------------

# Magnitudes whose repr takes each form: short, long, exponent, subnormal.
MAGNITUDES = st.one_of(
    st.sampled_from([1.0, 0.5, 1 / math.sqrt(8), 1e-05, 1e16, 5e-324, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False),
)


@st.composite
def matrices(draw):
    """Small matrices with empty columns and n = 1 among them, each either
    of constant magnitude or with Gaussian values."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 8))
    counts = [draw(st.integers(0, min(m, 5))) for _ in range(n)]
    rows = [sorted(draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k))) for k in counts]
    nnz = sum(counts)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        data = draw(MAGNITUDES) * rng.choice([-1.0, 1.0], size=nnz)
    else:
        data = rng.standard_normal(nnz)
        data[data == 0.0] = 1.0
    indices = np.array([r for col in rows for r in col], dtype=np.int64)
    return SparseMatrix.from_csc(m, n, np.cumsum([0] + counts), indices, data)


def sampled(family, m, n, s, seed):
    if family == "sign_jl":
        return sample_sparse_sign_jl(m, n, s, seed)
    if family == "osnap_block":
        return sample_osnap_block(m, n, s, seed)
    if family == "countsketch":
        return sample_countsketch(m, n, seed)
    if family == "code_matrix":  # q^3 words leave room for n distinct ones
        return code_to_incoherent(random_code(s + 1 + round(n ** (1 / 3)), 3, n, 1.0, seed))
    # spread vectors: k = 2t with t = 3, q = 2n/k
    code = random_code(n // 3, 3, 5, 1.0, seed)
    return SparseMatrix.from_dense(np.column_stack(spread_vectors(code, n, 6)))


FAMILIES = ["sign_jl", "osnap_block", "countsketch", "code_matrix", "spread_vectors"]


@st.composite
def family_matrices(draw):
    family = draw(st.sampled_from(FAMILIES))
    s = draw(st.sampled_from([1, 2, 4]))
    m = s * draw(st.integers(1, 8)) if family != "code_matrix" else 0
    n = 3 * draw(st.integers(1, 6)) if family == "spread_vectors" else draw(st.integers(1, 40))
    if family == "spread_vectors":
        n = max(n, 6)
    return sampled(family, m, n, s, draw(st.integers(0, 2**32 - 1)))


ALL_MATRICES = st.one_of(matrices(), family_matrices())


@settings(max_examples=300, deadline=None)
@given(ALL_MATRICES)
def test_writer_bytes_equal_json_dumps(A):
    assert matrix_to_json(A) == oracle_to_json(A)


@pytest.mark.parametrize("family", FAMILIES)
def test_writer_bytes_equal_json_dumps_at_size(family):
    A = sampled(family, 64, 600, 4, 11)
    assert matrix_to_json(A) == oracle_to_json(A)


@settings(max_examples=200, deadline=None)
@given(ALL_MATRICES)
def test_canonical_text_loads_as_json_loads_does(A):
    text = oracle_to_json(A)
    for load, what in LOADERS:
        got = load(text)
        assert got == oracle_from_json(text, what) == A


def test_long_text_loads_in_many_chunks():
    A = sample_sparse_sign_jl(128, 9000, 4, 5)
    text = oracle_to_json(A)
    assert len(text) > 4 * 2**16  # five chunks or more
    for load, what in LOADERS:
        assert load(text) == oracle_from_json(text, what) == A


# --- mutated canonical text -------------------------------------------------------

ROW = r"(?<=\[)-?[0-9]+(?=,)"
VALUE = r"(?<=,)[-+.e0-9]+(?=\])"
SIZE = r'(?<=:)[0-9]+'
BYTES = list('0123456789-+.eE[]{},:" _\n\tNatrue')


def replace_one(text, pattern, repl, data):
    """`text` with one match of `pattern`, drawn, passed through `repl`."""
    spans = [m.span() for m in re.finditer(pattern, text)]
    if not spans:
        return text
    a, b = data.draw(st.sampled_from(spans))
    return text[:a] + repl(text[a:b]) + text[b:]


def mutate(text, kind, data):
    m, n = (int(t) for t in re.search(r'"m":([0-9]+),"n":([0-9]+)', text).groups())
    at = data.draw(st.integers(0, len(text) - 1))
    if kind == "flip":
        return text[:at] + data.draw(st.sampled_from(BYTES)) + text[at + 1:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    if kind == "whitespace":
        return text[:at] + data.draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + text[at:]
    if kind == "trailing_zero":  # 1.5 -> 1.50
        return replace_one(text, VALUE, lambda t: re.sub(r"(\.[0-9]+)", r"\g<1>0", t, count=1), data)
    if kind == "leading_zero":  # 1 -> 01
        return replace_one(text, data.draw(st.sampled_from([ROW, SIZE])), lambda t: "0" + t, data)
    if kind == "plus":  # 1 -> +1
        return replace_one(text, data.draw(st.sampled_from([ROW, VALUE, SIZE])), lambda t: "+" + t, data)
    if kind == "underscore":  # 10 -> 1_0
        return replace_one(text, data.draw(st.sampled_from([ROW, VALUE, SIZE])),
                           lambda t: t[:1] + "_" + t[1:], data)
    if kind == "minus_zero":
        return replace_one(text, ROW, lambda t: "-0", data)
    if kind == "special":
        word = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
        return replace_one(text, VALUE, lambda t: word, data)
    if kind == "bool":
        word = data.draw(st.sampled_from(["true", "false"]))
        return replace_one(text, data.draw(st.sampled_from([ROW, VALUE, SIZE])), lambda t: word, data)
    if kind == "row_out_of_range":
        return replace_one(text, ROW, lambda t: str(m + data.draw(st.integers(0, 3))), data)
    if kind == "empty_column":
        cols = text[len('{"cols":['):text.rindex('],"m":')]
        if data.draw(st.booleans()):  # an extra empty column: n no longer matches
            return '{"cols":[[],' + cols + text[text.rindex('],"m":'):]
        return replace_one(text, r"\[\[[^\[\]]*\](?:,\[[^\[\]]*\])*\]", lambda t: "[]", data)
    if kind == "no_newline":
        return text[:-1]
    cols = text[len('{"cols":'):text.rindex(',"m":')]
    if kind == "reordered_keys":
        return data.draw(st.sampled_from([f'{{"m":{m},"n":{n},"cols":{cols}}}\n',
                                          f'{{"n":{n},"cols":{cols},"m":{m}}}\n']))
    assert kind == "duplicated_key"
    key = data.draw(st.sampled_from([f'"m":{m}', f'"n":{n}', f'"m":{m + 1}', '"cols":[]']))
    return text[:-2] + "," + key + "}\n"


KINDS = ["flip", "delete", "whitespace", "trailing_zero", "leading_zero", "plus", "underscore",
         "minus_zero", "special", "bool", "row_out_of_range", "empty_column", "no_newline",
         "reordered_keys", "duplicated_key"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(A=ALL_MATRICES, data=st.data())
def test_mutated_text_loads_or_fails_as_json_loads_does(kind, A, data):
    assert_loads_as_json_loads_does(mutate(oracle_to_json(A), kind, data))


# --- which path runs -------------------------------------------------------------

@pytest.fixture
def json_loads_calls(monkeypatch):
    calls = []
    real = json.loads

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return calls


def test_canonical_constant_magnitude_text_skips_json_loads(json_loads_calls, tmp_path):
    A = sample_sparse_sign_jl(32, 200, 4, 3)
    text = matrix_to_json(A)
    assert matrix_from_json(text) == A
    assert artifact_from_json(text) == A
    save_matrix(A, tmp_path / "A.json")
    assert load_matrix(tmp_path / "A.json") == A
    assert json_loads_calls == []


@pytest.mark.parametrize("case", ["gaussian", "one_sparse_map", "mutated_byte"])
def test_other_text_goes_through_json_loads(json_loads_calls, case):
    A = sample_sparse_sign_jl(32, 200, 4, 3)
    if case == "gaussian":
        A = SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, np.linspace(0.1, 1.0, A.nnz))
        text = matrix_to_json(A)
    elif case == "one_sparse_map":
        text = one_sparse_map_to_json(sample_countsketch(32, 200, 3))
    else:  # the final newline becomes a space
        text = matrix_to_json(A)[:-1] + " "
    loads = [artifact_from_json] if case == "one_sparse_map" else [matrix_from_json, artifact_from_json]
    for i, load in enumerate(loads, 1):
        load(text)
        assert len(json_loads_calls) == i


def test_fast_paths_peak_below_json_paths():
    A = sample_sparse_sign_jl(256, 2000, 8, 1)
    text = oracle_to_json(A)
    peaks = []
    for fn, arg in [(matrix_to_json, A), (oracle_to_json, A),
                    (matrix_from_json, text), (lambda t: oracle_from_json(t, "matrix"), text)]:
        tracemalloc.start()
        try:
            fn(arg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] and peaks[2] <= peaks[3], peaks


def long_text():
    return oracle_to_json(sample_sparse_sign_jl(64, 6000, 4, 2))


def two_column_text():
    """A matrix text whose second and last column is the first to end more
    than one chunk (64 KB) into the text."""
    rows = np.arange(0, 70000, 10)
    A = SparseMatrix.from_csc(10**5, 2, [0, 5000, 7000], rows, np.full(7000, 0.5))
    text = oracle_to_json(A)
    assert text.index("]],[") < 2**16 < text.index("]]]")
    return text


# Texts whose number characters sit where matrix_to_json puts them, or whose
# only flaw is at a chunk boundary or outside ASCII.
@pytest.mark.parametrize("text", [
    '{"cols":[[[0,]]0.5,[[1,0.5]]],"m":2,"n":2}\n',  # an empty slot and a stray number
    '{"cols":[[[,0]0.5],[[1,0.5]]],"m":2,"n":2}\n',
    '{"cols":[[[0,0.5]5],[[1,0.5]]],"m":2,"n":2}\n',
    '{"cols":[[5],[[1,0.5]]],"m":2,"n":2}\n',
    '{"cols":[[[0,0.5]],],"m":2,"n":1}\n',  # a trailing comma
    '{"cols":[[[١,0.5]]],"m":2,"n":1}\n',  # an Arabic-Indic digit
    '{"cols":[[[0,0.5]]],"m":2,"n":١}\n',
    '{"cols":[[[0,0.5]]],"m":2,"n":1}\n\n',
    '{"cols":[[[0,0.5],[1,-0.5]]],"m":2,"n":1}\n',
    long_text().replace(']]],"m"', ']],],"m"'),
    two_column_text().replace(']]],"m"', ']],],"m"'),
    '{"cols":[[[0,0.5]]7,0.5[[1,0.5]]],"m":8,"n":2}\n',  # two stray numbers
    long_text().replace(']],[[', ']],[[]', 1),
    long_text().replace(']],[[', ']],5[[', 1),
    long_text()[:-len(']],"m":64,"n":6000}\n')] + ']]],"m":64,"n":6000}\n',
])
def test_near_canonical_text_loads_or_fails_as_json_loads_does(text):
    assert_loads_as_json_loads_does(text)
