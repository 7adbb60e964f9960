"""Property tests of the matrix and map JSON fast paths against the json module.

The oracle is the writer and loaders as they were before the fast paths: one
``json.dumps`` of nested lists, and ``json.loads`` followed by the object
checks.  The fast writer must give the same bytes, and every text, canonical
or mutated, must load to the same matrix or map or raise the same error
class with the same message.
"""

import json
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sketchbounds import (
    MalformedArtifact,
    SketchboundsError,
    SparseMatrix,
    code_to_incoherent,
    derive_seed,
    load_matrix,
    matrix_from_json,
    load_one_sparse_map,
    matrix_to_json,
    one_sparse_map_from_json,
    one_sparse_map_to_json,
    random_code,
    sample_countsketch,
    sample_osnap_block,
    sample_sparse_sign_jl,
    save_matrix,
    save_one_sparse_map,
    spread_vectors,
)
from sketchbounds.matrices import (
    _BUDGET,
    OneSparseMap,
    _canonical_csc,
    _canonical_map,
    _map_from_object,
    _read_text,
)


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
    if what == "map" or isinstance(obj, dict) and "a" in obj:
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


LOADERS = [(matrix_from_json, "matrix")]
MAP_LOADERS = [(matrix_from_json, "matrix"), (one_sparse_map_from_json, "map")]


def outcome(load, *args):
    """What a load gives: ("ok", class, artifact) or ("error", class, message)."""
    try:
        got = load(*args)
        return ("ok", type(got), got)
    except SketchboundsError as exc:
        return ("error", type(exc), str(exc))


def assert_loads_as_json_loads_does(text, loaders=LOADERS):
    for load, what in loaders:
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


def at_the_packing_limit(top):
    """Rows up to `top` in three columns, one empty, with both signs: the
    writer packs each code with its position into 64 bits for rows below
    2^31 and argsorts the codes from there."""
    rows = [0, top - 2, top, 5, 2**30, top - 1, top]
    return SparseMatrix.from_csc(top + 1, 3, [0, 3, 3, 7], rows, [0.5, -0.5, 0.5, -0.5, -0.5, 0.5, 0.5])


@settings(max_examples=300, deadline=None)
@given(ALL_MATRICES)
@example(at_the_packing_limit(2**31 - 1))
@example(at_the_packing_limit(2**31))
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
    A = sample_sparse_sign_jl(128, 36000, 4, 5)
    text = oracle_to_json(A)
    assert len(text) > 4 * _BUDGET // 4  # five windows or more
    for load, what in LOADERS:
        assert load(text) == oracle_from_json(text, what) == A


@st.composite
def edge_matrices(draw):
    """+-c matrices at the codec's edges: m = 1, rows on both sides of 2^31
    and 2^53, rows just below 2^63 (19-digit tokens, which the loader
    leaves to json.loads), and empty first and last columns."""
    m = draw(st.sampled_from([1, 2, 2**31 + 3, 2**53 + 3, 2**63 - 1]))
    n = draw(st.integers(1, 6))
    counts = [draw(st.integers(0, min(m, 4))) for _ in range(n)]
    if draw(st.booleans()):
        counts[0] = 0
    if draw(st.booleans()):
        counts[-1] = 0
    rows = [sorted(draw(st.sets(st.integers(max(0, m - 12), m - 1), min_size=k, max_size=k)))
            for k in counts]
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=sum(counts), max_size=sum(counts))))
    indices = np.array([r for col in rows for r in col], dtype=np.int64)
    return SparseMatrix.from_csc(m, n, np.cumsum([0] + counts), indices, draw(MAGNITUDES) * signs)


@settings(max_examples=200, deadline=None)
@given(edge_matrices())
def test_writer_and_loader_at_the_edges(A):
    text = matrix_to_json(A)
    assert text == oracle_to_json(A)
    for load, what in LOADERS:
        assert load(text) == oracle_from_json(text, what) == A


def test_writer_formats_only_the_rows_present():
    """m = 2^40 with three entries: a table of all 2m entry strings would
    not fit in memory, let alone in milliseconds."""
    A = SparseMatrix.from_csc(2**40, 3, [0, 1, 1, 3], [2**40 - 1, 0, 2**39], [0.5, -0.5, 0.5])
    began = time.perf_counter()
    text = matrix_to_json(A)
    elapsed = time.perf_counter() - began
    tracemalloc.start()
    try:
        matrix_to_json(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == oracle_to_json(A)
    assert elapsed < 1.0  # milliseconds in practice; slack for a loaded host
    assert peak < 2**14, peak  # a few kilobytes of numpy overhead, whatever m is
    assert_loads_as_json_loads_does(text)


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


# --- one-sparse maps ----------------------------------------------------------------

# Row counts with rows of every width the map loader reads, 1 to 18 digits,
# and past it: 10^18 and up take 19 digits, which it leaves to json.loads.
MAP_ROWS = st.one_of(st.integers(1, 300), st.sampled_from([2**31 + 3, 10**17, 10**18 - 1, 10**18, 2**62, 2**63 - 1]))


@st.composite
def maps(draw, long=True):
    """Small maps whose rows lie near 0 and near m, and now and then, if
    `long`, a long map, whose lists take several of the loader's chunks."""
    if long and draw(st.integers(0, 7)) == 0:
        return sample_countsketch(4096, draw(st.integers(7000, 16000)), draw(st.integers(0, 2**32 - 1)))
    m = draw(MAP_ROWS)
    n = draw(st.integers(1, 30))
    rows = st.one_of(st.integers(0, min(m, 300) - 1), st.integers(max(0, m - 5), m - 1))
    a = draw(st.lists(rows, min_size=n, max_size=n))
    return OneSparseMap(m, n, a, draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(maps())
def test_canonical_map_text_loads_as_json_loads_does(S):
    text = one_sparse_map_to_json(S)
    for load, what in MAP_LOADERS:
        assert outcome(load, text) == outcome(oracle_from_json, text, what) == ("ok", OneSparseMap, S)


NUMBER = r"-?[0-9]+"
MAP_ROW = r'(?<=[\[,])[0-9]+(?=[\],])(?=[^"]*"m")'  # a number in a
MAP_SIGN = r'(?<=[\[,])-?1(?=[\],])(?![^"]*"m")'  # a number in sigma


def mutate_map(text, kind, data):
    at = data.draw(st.integers(0, len(text) - 1))
    number = data.draw(st.sampled_from([NUMBER, MAP_ROW, MAP_SIGN]))
    if kind == "flip":
        return text[:at] + data.draw(st.sampled_from(BYTES)) + text[at + 1:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    if kind == "whitespace":
        return text[:at] + data.draw(st.sampled_from([" ", "\n", "\t", "\r\n"])) + text[at:]
    if kind == "leading_zero":  # 1 -> 01
        return replace_one(text, number, lambda t: t.replace("-", "-0") if t[0] == "-" else "0" + t, data)
    if kind == "minus_zero":
        return replace_one(text, number, lambda t: "-0", data)
    if kind == "plus":
        return replace_one(text, number, lambda t: "+" + t, data)
    if kind == "bool":
        return replace_one(text, number, lambda t: data.draw(st.sampled_from(["true", "false"])), data)
    if kind == "digits":  # 1 -> 10...0, up to 21 digits
        return replace_one(text, number, lambda t: t + "0" * data.draw(st.integers(1, 20)), data)
    if kind == "non_ascii":  # an Arabic-Indic digit
        return replace_one(text, number, lambda t: t[:-1] + "\u0665", data)
    if kind == "commas":  # a doubled comma, or a leading or trailing one in a list
        return replace_one(text, data.draw(st.sampled_from([r",(?=[-0-9])", r"(?<=\[)", r"(?=\])"])),
                           lambda t: ",", data)
    if kind == "out_of_range":  # a row of m or more, or a sign of 0 or 2
        word = data.draw(st.sampled_from([None, "0", "2", "-2"]))
        m = int(re.search(r'"m":([0-9]+)', text)[1])
        return replace_one(text, MAP_ROW, lambda t: str(m + int(t) % 3), data) if word is None \
            else replace_one(text, MAP_SIGN, lambda t: word, data)
    if kind == "empty_list":
        return replace_one(text, r"\[[^\]]*\]", lambda t: "[]", data)
    if kind == "no_newline":
        return text[:-1]
    fields = dict(re.findall(r'"(\w+)":(\[[^\]]*\]|-?[0-9]+)', text))
    if kind == "reordered_keys":
        order = data.draw(st.permutations(list(fields)))
        return "{" + ",".join(f'"{key}":{fields[key]}' for key in order) + "}\n"
    assert kind == "duplicated_key"
    key = data.draw(st.sampled_from(list(fields)))
    return text[:-2] + f',"{key}":{data.draw(st.sampled_from([fields[key], "1", "[]"]))}}}\n'


MAP_KINDS = ["flip", "delete", "whitespace", "leading_zero", "minus_zero", "plus", "bool", "digits",
             "non_ascii", "commas", "out_of_range", "empty_list", "no_newline", "reordered_keys",
             "duplicated_key"]


@pytest.mark.parametrize("kind", MAP_KINDS)
@settings(max_examples=60, deadline=None)
@given(S=maps(), data=st.data())
def test_mutated_map_text_loads_or_fails_as_json_loads_does(kind, S, data):
    assert_loads_as_json_loads_does(mutate_map(one_sparse_map_to_json(S), kind, data), MAP_LOADERS)


@settings(max_examples=300, deadline=None)
@given(S=maps(long=False), kind=st.sampled_from(["canonical", *MAP_KINDS]), chars=st.integers(1, 8),
       data=st.data())
def test_map_text_in_tiny_chunks_loads_or_fails_as_json_loads_does(S, kind, chars, data):
    """As above, in chunks of a few characters, so that a flaw, or the end
    of a list, often falls at a chunk's cut."""
    text = one_sparse_map_to_json(S)
    if kind != "canonical":
        text = mutate_map(text, kind, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sketchbounds.matrices._BUDGET", 32 * chars)
        assert_loads_as_json_loads_does(text, MAP_LOADERS)


@pytest.mark.parametrize("text", [
    '{"a":[0,1,],"m":2,"n":2,"sigma":[1,1]}\n',
    '{"a":[0,1],"m":2,"n":2,"sigma":[1,-1,]}\n',
    '{"a":[0,,1],"m":2,"n":2,"sigma":[1,1]}\n',
    '{"a":[,0,1],"m":2,"n":2,"sigma":[1,1]}\n',
    '{"a":[0,1],"m":2,"n":2,"sigma":[1,-]}\n',
])
@pytest.mark.parametrize("chars", [1, 2])
def test_stray_commas_at_chunk_cuts_load_or_fail_as_json_loads_does(text, chars, monkeypatch):
    """A comma where a chunk ends is a cut, not a number's end: a list that
    ends in one has a number too few."""
    monkeypatch.setattr("sketchbounds.matrices._BUDGET", 32 * chars)
    assert_loads_as_json_loads_does(text, MAP_LOADERS)


def long_map_text():
    """The benchmark's 4096 x 20000 map: a takes three of the loader's
    chunks and sigma two."""
    text = one_sparse_map_to_json(sample_countsketch(4096, 20000, derive_seed(1, 5)))
    assert text.index("]") > 2 * _BUDGET // 32 and len(text) - text.index('"sigma"') > _BUDGET // 32
    return text


def at_map_cut(text, which, template):
    """`text` with the number ending at the loader's first cut in the list
    `which` (``a`` or ``sigma``), the cut's comma and the next number
    replaced by ``template.format(before, after)``."""
    lo = text.index(f'"{which}":[') + len(which) + 4
    cut = text.index(",", lo + _BUDGET // 32)
    start, end = text.rindex(",", 0, cut) + 1, text.index(",", cut + 1)
    return text[:start] + template.format(text[start:cut], text[cut + 1:end]) + text[end:]


# Flaws at a chunk's first or last number, or at the comma between them.
@pytest.mark.parametrize("which", ["a", "sigma"])
@pytest.mark.parametrize("template", [
    "{0},{1}",  # canonical
    "0{0},{1}", "{0},0{1}", "{0},-0", "-0,{1}", "{0} ,{1}", "{0}, {1}", "{0},,{1}", "{0},+{1}",
    "{0}0000000000000000000,{1}", "{0},{1}0000000000000000000", "{0}.0,{1}", "{0},{1}e0", "{0}-,{1}",
    "{0},-{1}", "--{0},{1}", "{0}\u0665,{1}",
])
def test_map_text_at_chunk_cuts_loads_or_fails_as_json_loads_does(which, template):
    assert_loads_as_json_loads_does(at_map_cut(long_map_text(), which, template), MAP_LOADERS)


@pytest.mark.parametrize("text", [
    '{"a":[],"m":1,"n":0,"sigma":[]}\n',
    '{"a":[0],"m":1,"n":1,"sigma":[]}\n',
    '{"a":[0,0],"m":1,"n":2,"sigma":[1]}\n',
    '{"a":[0],"m":0,"n":1,"sigma":[1]}\n',
    '{"a":[0],"m":-1,"n":1,"sigma":[1]}\n',
    '{"a":[-1],"m":1,"n":1,"sigma":[1]}\n',
    '{"a":[0],"m":1,"n":2,"sigma":[1]}\n',
    '{"a":[0],"m":1,"n":-0,"sigma":[1]}\n',
    '{"a":[999999999999999999],"m":999999999999999999,"n":1,"sigma":[-1]}\n',
    '{"a":[999999999999999998],"m":999999999999999999,"n":1,"sigma":[-1]}\n',
    f'{{"a":[{2**63 - 2}],"m":{2**63 - 1},"n":1,"sigma":[-1]}}\n',
    '{"a":[0],"m":1,"n":1,"sigma":[1]}\n{"a":[0],"m":1,"n":1,"sigma":[1]}\n',
    '{"a":[0],"m":1,"n":1,"sigma":[1]}\n\n',
    '{"a":[0],"m":1,"n":1,"sigma":[1]]}\n',
    '{"a":[0]],"m":1,"n":1,"sigma":[1]}\n',
    '{"a":[0],"m":1,"n":1,"sigma":[1],"sigma":[1]}\n',
])
def test_near_canonical_map_text_loads_or_fails_as_json_loads_does(text):
    assert_loads_as_json_loads_does(text, MAP_LOADERS)


def test_map_text_is_decoded_in_chunks(json_loads_calls, monkeypatch):
    """At 4096 x 2^18 the map's build sets the peak, 35 bytes a column; a
    decode of each whole list at once peaks about 11 bytes a column above it."""
    n = 2**18
    text = one_sparse_map_to_json(sample_countsketch(4096, n, 1))
    peaks = []
    for chunk_chars in (_BUDGET // 32, len(text)):
        monkeypatch.setattr("sketchbounds.matrices._BUDGET", 32 * chunk_chars)
        tracemalloc.start()
        try:
            assert matrix_from_json(text).n == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert json_loads_calls == []
    assert peaks[0] + 8 * n < peaks[1], peaks


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
    save_matrix(A, tmp_path / "A.json")
    assert load_matrix(tmp_path / "A.json") == A
    assert json_loads_calls == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", ["sign_jl", "osnap_block"])
def test_benchmark_shaped_text_skips_json_loads(json_loads_calls, family, seed):
    A = sampled(family, 256, 10000, 8, derive_seed(seed, 1))
    assert matrix_from_json(matrix_to_json(A)) == A
    assert json_loads_calls == []


@pytest.mark.parametrize("load", [load_matrix, load_one_sparse_map])
@pytest.mark.parametrize("m, n, seed", [(32, 200, 3), (4096, 20000, derive_seed(1, 5))],
                         ids=["small_map", "benchmark_map"])
def test_canonical_map_text_skips_json_loads(json_loads_calls, load, m, n, seed, tmp_path):
    S = sample_countsketch(m, n, seed)
    save_one_sparse_map(S, tmp_path / "S.json")
    got = load(tmp_path / "S.json")
    assert type(got) is OneSparseMap and got == S
    assert json_loads_calls == []


# Map texts one flaw away from canonical, by the case that names them
MAP_FLAWS = {
    "map_final_space": lambda text: text[:-1] + " ",
    "map_leading_zero": lambda text: text.replace('{"a":[', '{"a":[0', 1),
    "map_minus_zero": lambda text: text.replace('"sigma":[', '"sigma":[-0,', 1).replace('"n":200', '"n":201'),
}


@pytest.mark.parametrize("case", ["gaussian", "mutated_byte", *MAP_FLAWS])
def test_other_text_goes_through_json_loads(json_loads_calls, case):
    A = sample_sparse_sign_jl(32, 200, 4, 3)
    loaders = LOADERS
    if case == "gaussian":
        A = SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, np.linspace(0.1, 1.0, A.nnz))
        text = matrix_to_json(A)
    elif case == "mutated_byte":  # the final newline becomes a space
        text = matrix_to_json(A)[:-1] + " "
    else:
        text, loaders = MAP_FLAWS[case](one_sparse_map_to_json(sample_countsketch(32, 200, 3))), MAP_LOADERS
    assert_loads_as_json_loads_does(text, loaders)
    json_loads_calls.clear()
    for load, _ in loaders:
        outcome(load, text)
    assert len(json_loads_calls) == len(loaders)


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


@pytest.mark.parametrize("m, n", [(1, 1), (4096, 1), (3, 5), (2, 20), (4096, 100), (64, 1000), (300, 1000),
                                  (10**18 - 1, 3000)])
def test_map_fast_path_peaks_at_or_below_the_json_path(m, n):
    """From one column up, with rows all cached small ints (m <= 256) or all
    18 digits: the decode holds a chunk's arrays, never json's lists.  At the
    smallest shapes numpy's own working memory, about 1 KB a call, can
    outweigh those lists, so the fast path may peak up to 4 KiB above."""
    text = one_sparse_map_to_json(sample_countsketch(m, n, 3))
    assert _canonical_map(text) is not None
    for load, what in MAP_LOADERS:
        peaks = []
        for fn in (lambda: load(text), lambda: oracle_from_json(text, what)):
            fn()
            tracemalloc.start()
            try:
                fn()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] + 4096, (load.__name__, peaks)


def test_fast_load_of_the_benchmark_shape_copies_no_whole_text():
    """At 256x10000, s = 8: both fast paths peak below the json paths, and
    the loader holds at most the matrix's arrays plus the text's length of
    working memory, which a decode of the whole text at once exceeds."""
    A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(1, 1))
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
    arrays = A.indptr.nbytes + A.indices.nbytes + A.data.nbytes
    assert peaks[0] <= peaks[1] and peaks[2] <= peaks[3], peaks
    assert peaks[2] <= len(text) + arrays, (peaks[2], len(text), arrays)


def long_matrix():
    """A sign matrix whose text, about 1 MB, takes four of the loader's windows."""
    return sample_sparse_sign_jl(64, 24000, 4, 2)


def long_text():
    return oracle_to_json(long_matrix())


# Where the loader's first window ends: it decodes the "[" bytes of fixed
# windows of _BUDGET // 4 bytes, the first one right after the head.
WINDOW_EDGE = len('{"cols":[') + _BUDGET // 4


def two_column_text():
    """A matrix text whose second and last column spans the loader's first
    window edge (256 KB into the text)."""
    rows = np.arange(0, 280000, 10)
    A = SparseMatrix.from_csc(10**6, 2, [0, 5000, 28000], rows, np.full(28000, 0.5))
    text = oracle_to_json(A)
    assert text.index("]],[") < WINDOW_EDGE < text.index("]]]")
    return text


def eighteen_digit_text():
    """A canonical text of several windows whose every row has 18 digits, so
    that the entries on both sides of each window edge are long digit runs."""
    n = 12000
    rows = np.stack((10**17 + np.arange(n), 10**18 - 1 - np.arange(n)), axis=1).ravel()
    A = SparseMatrix.from_csc(10**18, n, np.arange(0, 2 * n + 1, 2), rows, np.tile([0.5, -0.5], n))
    text = oracle_to_json(A)
    assert len(text) > 2 * _BUDGET // 4
    return text


def at_window_edges(text, template):
    """`text` with the row and comma of the first entry that opens in the
    loader's second window, and of the last that opens in its first,
    replaced by ``template.format(row)``."""
    first = re.compile(r"\[[0-9]").search(text, WINDOW_EDGE).start()
    for at in (first + 1, text.rindex("[", 0, first - 1) + 1):  # each row's first digit
        row = text[at:text.index(",", at)]
        assert len(row) == 18
        text = text[:at] + template.format(row) + text[at + len(row) + 1:]
    return text


# Texts whose number characters sit where matrix_to_json puts them, or whose
# only flaw is at a window edge or outside ASCII; and digit runs that end
# in something other than the entry's comma, also at a window's edges.
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
    long_text()[:-len(']],"m":64,"n":24000}\n')] + ']]],"m":64,"n":24000}\n',
    '{"cols":[[[12]]],"m":20,"n":1}\n',
    '{"cols":[[[12.5,0.5]]],"m":20,"n":1}\n',
    '{"cols":[[[1 2,0.5]]],"m":20,"n":1}\n',
    '{"cols":[[[0,0.5],[12]],[[1,0.5]]],"m":20,"n":2}\n',
    '{"cols":[[[0,0.5],[1 2,-0.5]]],"m":20,"n":1}\n',
    '{"cols":[[0,0.5]],[[1,0.5]]],"m":2,"n":1}\n',  # the first "[" opens an entry, not a column
    '{"cols":[[[0,0.5] [1,0.5]]],"m":2,"n":1}\n',  # no comma between two entries
    '{"cols":[[[0,0.5]] [[1,0.5]]],"m":2,"n":2}\n',  # no comma between two columns
    '{"cols":[[x[0,0.5]]],"m":2,"n":1}\n',  # a stray byte before a column's first entry
    # the run ends at "]", at ".", at a space, or after a 19th digit
    *(at_window_edges(eighteen_digit_text(), template) for template in ("{}]", "{}.5,", "{0:.9} {0:.9},", "{}0,")),
])
def test_near_canonical_text_loads_or_fails_as_json_loads_does(text):
    assert_loads_as_json_loads_does(text)


def late_replace(text, old, new):
    """`text` with the first `old` in its last quarter replaced, well past
    the first chunk."""
    at = text.index(old, 3 * len(text) // 4)
    return text[:at] + new + text[at + len(old):]


def empty_column_at_a_window_edge():
    """A canonical text whose empty column's ``[`` is the last byte of the
    loader's first window and its ``]`` the first of the second: k empty
    columns first, each 3 bytes, and a column j of entries emptied."""
    A = long_matrix()
    starts = [match.start() for match in re.finditer(r"\[\[", oracle_to_json(A))]  # every column has entries
    j = max(j for j, at in enumerate(starts) if at < WINDOW_EDGE and (WINDOW_EDGE - 1 - at) % 3 == 0)
    k = (WINDOW_EDGE - 1 - starts[j]) // 3
    keep = np.ones(A.nnz, bool)
    keep[A.indptr[j]:A.indptr[j + 1]] = False
    indptr = np.concatenate(([0] * k, np.concatenate(([0], np.cumsum(keep)))[A.indptr]))
    text = oracle_to_json(SparseMatrix.from_csc(A.m, A.n + k, indptr, A.indices[keep], A.data[keep]))
    assert text[WINDOW_EDGE - 4:WINDOW_EDGE + 3] == "]],[],["
    return text


def last_column_only():
    A = SparseMatrix.from_csc(8, 5000, [0] * 5000 + [2], [1, 6], [0.5, -0.5])
    return oracle_to_json(A)


# Texts the loader must decline, or accept only as json.loads does: row tokens
# past its 18 digits, a second magnitude, a non-ASCII digit late in the text,
# an empty column at a window edge, and entries only in the last column.
@pytest.mark.parametrize("text", [
    *(f'{{"cols":[[[{10**(w - 1) + 7},0.5]]],"m":{10**w},"n":1}}\n' for w in range(19, 26)),
    *(long_text().replace("[5,", f"[{10**(w - 1) + 7},") for w in (19, 25)),
    f'{{"cols":[[[{2**63},0.5]]],"m":{2**63 + 1},"n":1}}\n',
    f'{{"cols":[[[{2**63 - 1},0.5]]],"m":{2**63},"n":1}}\n',
    late_replace(long_text(), "[5,", f"[{2**63},"),
    '{"cols":[[[0,0.5],[1,0.25]]],"m":2,"n":1}\n',
    '{"cols":[[[0,0.5]],[[1,-0.25]]],"m":2,"n":2}\n',
    late_replace(long_text(), ",0.5]", ",0.25]"),
    late_replace(long_text(), ",-0.5]", ",-0.5000000000000001]"),
    late_replace(long_text(), "[5,", "[\u0665,"),  # an Arabic-Indic digit
    late_replace(long_text(), "[5,", "[\uff15,"),  # a fullwidth digit
    empty_column_at_a_window_edge(),
    empty_column_at_a_window_edge().replace("]],[],", "]],[,],", 1),
    last_column_only(),
    last_column_only().replace('"n":5000', '"n":4999'),
])
def test_loader_fallbacks_load_or_fail_as_json_loads_does(text):
    assert_loads_as_json_loads_does(text)


@pytest.mark.parametrize("between", ["", "x", " \n"])
@pytest.mark.parametrize("make", [lambda: SparseMatrix.from_csc(1, 1, [0, 1], [0], [1.0]),
                                  lambda: sample_sparse_sign_jl(32, 200, 4, 3)], ids=["one_entry", "sign_jl"])
def test_canonical_text_with_its_tail_again_is_refused(make, between):
    """The loader proves the whole text, not a prefix: a canonical text
    followed by `between` and a second copy of its tail decodes to the
    text's own arrays, but is invalid JSON, and the loader declines it."""
    text = matrix_to_json(make())
    text += between + text[text.rindex('],"m":'):]
    assert _canonical_csc(lambda lo, hi: text[lo:hi].encode("ascii"), len(text)) is None
    with pytest.raises(MalformedArtifact):
        matrix_from_json(text)


def long_column_text():
    """A column of 80,000 entries, about 1 MB of text, between two short
    ones: it spans four of the loader's windows."""
    rows = np.concatenate(([3], np.arange(0, 800000, 10), [7]))
    A = SparseMatrix.from_csc(800000, 3, [0, 1, 80001, 80002], rows, np.tile([0.5, -0.5], 40001))
    text = oracle_to_json(A)
    assert text.index("]],[", 20) - text.index("]],[") > 3 * _BUDGET // 4
    return text


def assert_loads_through_the_decoder(text, path, json_loads_calls):
    assert matrix_to_json(matrix_from_json(text)) == text
    path.write_text(text)
    assert matrix_to_json(load_matrix(path)) == text
    assert json_loads_calls == []


@pytest.mark.parametrize("make", [empty_column_at_a_window_edge, last_column_only, two_column_text,
                                  eighteen_digit_text, long_column_text])
def test_canonical_text_at_window_edges_skips_json_loads(json_loads_calls, make, tmp_path):
    assert_loads_through_the_decoder(make(), tmp_path / "A.json", json_loads_calls)


def edge_features():
    """A canonical text, and where in it each byte the decoder reads at a
    window edge sits: the first entry's ``[``, whose 18-digit row, minus
    sign and long value token give c, after a dozen empty columns; an empty
    column's ``[``; a column's ``[[``; the ``[`` of an entry after another;
    an 18-digit row's last digit; and a minus sign."""
    r1, r2, c = 123456789012345678, 876543210987654321, 1 / math.sqrt(2)
    A = SparseMatrix.from_csc(10**18, 17, [0] * 13 + [1, 1, 4, 5, 5], [r1, 5, 7, r2, 9], [-c, c, c, -c, -c])
    text = oracle_to_json(A)
    return text, {
        "first_entry": text.index(f"[{r1},"),
        "empty_column": text.index("[],[[5,"),
        "column_opener": text.index("[[5,"),
        "entry_opener": text.index(f"[{r2},"),
        "row_last_digit": text.index(f"{r2},") + 17,
        "minus_sign": text.index(f"{r2},-") + 19,
    }


@pytest.mark.parametrize("offset", range(-3, 25))
@pytest.mark.parametrize("feature", list(edge_features()[1]))
def test_each_feature_at_each_window_offset_skips_json_loads(json_loads_calls, feature, offset, tmp_path,
                                                              monkeypatch):
    """Windows sized so that `feature` sits `offset` bytes past the first
    one's end: an entry that opens in a window's last bytes finishes its
    row, sign and value in the bytes read after the window, and one that
    opens past the end is decoded in the next window alone."""
    text, at = edge_features()
    monkeypatch.setattr("sketchbounds.matrices._BUDGET", 4 * (at[feature] - offset - len('{"cols":[')))
    assert_loads_through_the_decoder(text, tmp_path / "A.json", json_loads_calls)


@pytest.mark.parametrize("digits, calls", [(18, 0), (19, 1)])
def test_rows_of_up_to_18_digits_skip_json_loads(json_loads_calls, digits, calls):
    """The loader reads rows of at most 18 digits, which lie below 2^63, and
    leaves a 19-digit row, below 2^63 or not, to json.loads."""
    for row in (10**(digits - 1), min(10**digits - 1, 2**63 - 1)):
        text = f'{{"cols":[[[7,0.5],[{row},-0.5]]],"m":{row + 1},"n":1}}\n'
        json_loads_calls.clear()
        assert matrix_to_json(matrix_from_json(text)) == text
        assert len(json_loads_calls) == calls


def test_save_matrix_writes_a_piece_at_a_time(tmp_path):
    """At 256x10000, s = 8 the file holds matrix_to_json's bytes, and the
    write peaks below the text's length: the joined text is never held."""
    A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(1, 1))
    text = matrix_to_json(A)
    peaks = []
    for fn in (lambda: matrix_to_json(A), lambda: save_matrix(A, tmp_path / "A.json")):
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "A.json").read_text() == text
    assert peaks[1] < len(text) and peaks[1] + len(text) < peaks[0], (peaks, len(text))
    B = SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, np.linspace(0.1, 1.0, A.nnz))
    save_matrix(B, tmp_path / "B.json")
    assert (tmp_path / "B.json").read_text() == matrix_to_json(B) == oracle_to_json(B)


def test_a_text_of_empty_columns_is_decoded_in_chunks(json_loads_calls, monkeypatch):
    """Entries only in the last of 400,000 columns: the loader decodes fixed
    windows of empty columns too, so it peaks well below a decode of the
    whole text at once."""
    A = SparseMatrix.from_csc(8, 400000, [0] * 400000 + [2], [1, 6], [0.5, -0.5])
    text = matrix_to_json(A)
    peaks = []
    for chunk_chars in (_BUDGET // 4, len(text)):
        monkeypatch.setattr("sketchbounds.matrices._BUDGET", 4 * chunk_chars)
        tracemalloc.start()
        try:
            assert matrix_from_json(text) == A
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert json_loads_calls == []
    assert peaks[0] + 2 * len(text) < peaks[1], (peaks, len(text))


# --- loads from files ----------------------------------------------------------------
#
# load_matrix decodes a regular file's +-c text straight from the file, a
# window at a time; whatever it declines, and whatever is not a regular file,
# it reads once with _read_text.  So a file must load as its text does.

def file_outcome(load, path):
    """What a load of `path` gives, any exception counted as an outcome."""
    try:
        got = load(path)
        return ("ok", type(got), got)
    except Exception as exc:
        return ("error", type(exc), str(exc))


def assert_file_loads_as_its_text_does(path):
    assert file_outcome(load_matrix, path) == file_outcome(lambda p: matrix_from_json(_read_text(p)), path)


@pytest.fixture(scope="module")
def file_of(tmp_path_factory):
    """Write bytes to one file of a module-wide directory and give its path."""
    path = tmp_path_factory.mktemp("files") / "artifact.json"

    def write(data: bytes):
        path.write_bytes(data)
        return path

    return write


@settings(max_examples=200, deadline=None)
@given(A=ALL_MATRICES, kind=st.sampled_from(["canonical", *KINDS]), data=st.data())
def test_matrix_file_loads_as_its_text_does(file_of, A, kind, data):
    text = oracle_to_json(A)
    if kind != "canonical":
        text = mutate(text, kind, data)
    assert_file_loads_as_its_text_does(file_of(text.encode()))


@settings(max_examples=100, deadline=None)
@given(S=maps(), kind=st.sampled_from(["canonical", *MAP_KINDS]), data=st.data())
def test_map_file_loads_as_its_text_does(file_of, S, kind, data):
    text = one_sparse_map_to_json(S)
    if kind != "canonical":
        text = mutate_map(text, kind, data)
    assert_file_loads_as_its_text_does(file_of(text.encode()))


@settings(max_examples=100, deadline=None)
@given(A=ALL_MATRICES, kind=st.sampled_from(["canonical", *KINDS]), chars=st.integers(1, 8), data=st.data())
def test_file_in_tiny_blocks_loads_as_its_text_does(file_of, A, kind, chars, data):
    """As above, in windows of a few bytes, so that most entries span a
    window's edge, and a flaw often falls at one."""
    text = oracle_to_json(A)
    if kind != "canonical":
        text = mutate(text, kind, data)
    path = file_of(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sketchbounds.matrices._BUDGET", 4 * chars)
        assert_file_loads_as_its_text_does(path)


def sign_text():
    return matrix_to_json(sample_sparse_sign_jl(32, 200, 4, 3))


# Files whose bytes differ from their text as _read_text gives it, or that
# the +-c decoder must decline: by the case that names them.
FILE_BYTES = {
    "crlf": lambda: sign_text()[:-1].encode() + b"\r\n",
    "lone_cr": lambda: sign_text()[:-1].encode() + b"\r",
    "cr_inside": lambda: sign_text().replace("]],[", "]],\r[", 1).encode(),
    "not_utf8": lambda: sign_text().encode().replace(b"[[", b"[\xff[", 1),
    "latin1_tail": lambda: sign_text()[:-1].encode() + b"\xe9\n",
    "after_tail": lambda: sign_text().encode() + b"x",
    "newline_after_tail": lambda: sign_text().encode() + b"\n",
    "second_tail": lambda: sign_text().encode() + sign_text()[sign_text().rindex('],"m":'):].encode(),
    "long_tail": lambda: matrix_to_json(SparseMatrix.from_csc(10**60, 2, [0, 1, 2], [0, 5], [0.5, -0.5])).encode(),
    "empty": lambda: b"",
    "newline": lambda: b"\n",
    "head_only": lambda: b'{"cols":[',
    "tail_only": lambda: b'],"m":2,"n":1}\n',
    **{f"truncated_{k}": lambda k=k: sign_text().encode()[:k]
       for k in (1, 9, 10, 100, len(sign_text()) // 2, len(sign_text()) - 2, len(sign_text()) - 1)},
}


@pytest.mark.parametrize("case", list(FILE_BYTES))
def test_edge_files_load_as_their_text_does(file_of, case):
    assert_file_loads_as_its_text_does(file_of(FILE_BYTES[case]()))


@pytest.mark.parametrize("case", ["crlf", "lone_cr", "long_tail"])
def test_declined_files_load_through_json_loads_once(file_of, json_loads_calls, case):
    """A file the +-c decoder declines is decoded once, from the file and
    at its size, and its text is not decoded as +-c a second time: it goes
    straight to json.loads."""
    path = file_of(FILE_BYTES[case]())
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sketchbounds.matrices._canonical_csc",
                      lambda read, size: sizes.append(size) or _canonical_csc(read, size))
        A = load_matrix(path)
    assert sizes == [path.stat().st_size]
    assert len(json_loads_calls) == 1
    assert A == matrix_from_json(path.read_text())


@pytest.mark.parametrize("window", [_BUDGET // 4, 2**14])
def test_non_constant_magnitude_file_is_declined_in_its_first_windows(file_of, json_loads_calls, window):
    """A 256 x 2000, s = 8 file of Gaussian values, at the loader's window
    and at windows of 16 KB (some 30 of them): the +-c decoder reads at
    most two windows, past its head and tail, before load_matrix reads
    the file through json.loads."""
    A = sample_sparse_sign_jl(256, 2000, 8, 1)
    A = SparseMatrix.from_csc(A.m, A.n, A.indptr, A.indices, np.random.default_rng(1).standard_normal(A.nnz))
    text = matrix_to_json(A)
    path = file_of(text.encode())
    reads = []

    def spy(read, size):
        return _canonical_csc(lambda lo, hi: reads.append((lo, hi)) or read(lo, hi), size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sketchbounds.matrices._BUDGET", 4 * window)
        patch.setattr("sketchbounds.matrices._canonical_csc", spy)
        assert load_matrix(path) == A
    windows = [(lo, hi) for lo, hi in reads if lo >= len('{"cols":[') and hi <= len(text) - 64]
    assert len(text) > 20 * 2**14 and 1 <= len(windows) <= 2, (len(text), reads)
    assert len(json_loads_calls) == 1


def test_no_load_runs_the_writer(tmp_path, monkeypatch):
    """The loader proves a +-c text by its grammar: neither load of the
    benchmark's 256 x 10000, s = 8 matrix runs _signed_text."""
    A = sample_sparse_sign_jl(256, 10000, 8, derive_seed(1, 1))
    save_matrix(A, tmp_path / "A.json")
    text = matrix_to_json(A)
    calls = []
    monkeypatch.setattr("sketchbounds.matrices._signed_text", lambda *args: calls.append(args))
    assert load_matrix(tmp_path / "A.json") == A and matrix_from_json(text) == A
    assert calls == []


@pytest.mark.parametrize("path", ["missing.json", "bad\0path.json", "."])
def test_paths_that_cannot_be_read_fail_as_read_text_does(tmp_path, path):
    """A missing path, a NUL in the path and a directory raise what _read_text raises."""
    path = tmp_path if path == "." else os.path.join(tmp_path, path)
    got = file_outcome(load_matrix, path)
    assert got[0] == "error" and got == file_outcome(_read_text, path), got


def test_a_fifo_is_read_once_as_text(tmp_path):
    """A FIFO, fed by a thread, is read by _read_text alone: it is never
    opened for positioned reads, which a pipe cannot serve."""
    A = sample_sparse_sign_jl(32, 200, 4, 3)
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    writer = threading.Thread(target=lambda: path.write_text(matrix_to_json(A)), daemon=True)
    writer.start()
    try:
        assert load_matrix(path) == A
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
