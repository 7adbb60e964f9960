"""Closed-form bound evaluators against hand values and the golden table."""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from sketchbounds import (
    FORMULAS,
    BadArgs,
    BoundValue,
    Infeasible,
    RangeError,
    SketchboundsError,
    code_size_exponents,
    incoherent_rows_lower,
    jl_sparsity_lower,
    min_sparsity_from_inequality,
    rip_rows_lower,
    rip_sparsity_lower,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "bounds_golden.json").read_text()
)
GENERATOR = pathlib.Path(__file__).parent.parent / "scripts" / "generate_golden.py"


class TestMinSparsity:
    def test_hand_value(self):
        assert min_sparsity_from_inequality(100, 10).value == 3

    def test_returned_s_is_smallest(self):
        for q, r in ((50, 4), (1000, 80), (10**4, 500)):
            s = min_sparsity_from_inequality(q, r).value
            assert s * math.log(q / s) >= r
            if s > 1:
                assert (s - 1) * math.log(q / (s - 1)) < r

    def test_matches_exhaustive_scan(self):
        for q in (10, 100, 1000):
            hi = max(1, math.floor(q / math.e))
            cand = np.arange(1, hi + 1, dtype=np.float64)
            vals = cand * np.log(q / cand)
            for r in (0.5, 1.0, 2.5, q / 20, q / 4):
                hits = np.nonzero(vals >= r)[0]
                assert min_sparsity_from_inequality(q, r).value == int(cand[hits[0]])

    def test_infeasible(self):
        # s * ln(q/s) tops out near q/e, far below r = q
        with pytest.raises(Infeasible):
            min_sparsity_from_inequality(10, 5)

    def test_bad_args(self):
        with pytest.raises(BadArgs):
            min_sparsity_from_inequality(100, 0)
        with pytest.raises(BadArgs):
            min_sparsity_from_inequality(3, 2)  # q/r < 2


class TestIncoherentRows:
    def test_hand_value(self):
        got = incoherent_rows_lower(0.1, math.exp(100)).value
        assert abs(got - 4342.944819032517) <= 1e-9

    def test_monotone_in_N(self):
        values = [incoherent_rows_lower(0.1, N).value for N in (1e3, 1e6, 1e9)]
        assert values[0] < values[1] < values[2]

    def test_domain(self):
        with pytest.raises(RangeError):
            incoherent_rows_lower(0.1, 1.0)
        with pytest.raises(RangeError):
            incoherent_rows_lower(0.1, 100.0)  # eps == 1/sqrt(N) exactly
        with pytest.raises(RangeError):
            incoherent_rows_lower(0.5, 1e6)


class TestJlSparsity:
    def test_clamped_denominator(self):
        # m barely above ln n: ln(m / ln n) < 1 clamps to 1
        assert jl_sparsity_lower(0.1, math.exp(10), 20).value == 100.0

    def test_unclamped_value(self):
        got = jl_sparsity_lower(0.1, math.exp(10), 10 * math.exp(5)).value
        assert abs(got - 20.0) <= 1e-9

    def test_sparsity_shrinks_with_more_rows(self):
        lo = jl_sparsity_lower(0.1, 1e6, 1e3).value
        hi = jl_sparsity_lower(0.1, 1e6, 1e6).value
        assert hi < lo

    def test_domain(self):
        with pytest.raises(RangeError):
            jl_sparsity_lower(0.1, 1.0, 100)
        with pytest.raises(RangeError):
            jl_sparsity_lower(0.6, 1e4, 100)
        with pytest.raises(RangeError):
            jl_sparsity_lower(0.1, 1e4, 5.0)  # m <= ln n


class TestRipSparsity:
    def test_log_term_exactly_one(self):
        # m = e * k * ln(n/k) makes the clamped log equal 1
        n = 2.0**40
        kl = 2 * math.log(n / 2)
        got = rip_sparsity_lower(2, n, math.e * kl).value
        assert abs(got - kl) <= 1e-9

    def test_row_budget_caps_the_bound(self):
        n = 2.0**40
        assert rip_sparsity_lower(2, n, 54.0).value == 54.0

    def test_domain(self):
        with pytest.raises(RangeError):
            rip_sparsity_lower(1, 2.0**40, 100.0)
        with pytest.raises(RangeError):
            rip_sparsity_lower(4, 2.0**40, 2.0)  # m < k
        # m above the n/(64 ln^3 n) budget is out of domain even when small
        with pytest.raises(RangeError):
            rip_sparsity_lower(2, 2.0**20, 72.0)


class TestRipRows:
    def test_hand_value(self):
        got = rip_rows_lower(0.5, 2, 1e4).value
        assert abs(got - 60.69240984530951) <= 1e-9

    def test_n_caps_the_numerator(self):
        # tiny delta forces k/delta^2 above n, so the min picks n
        got = rip_rows_lower(0.01, 1, 1e4).value
        assert abs(got - 1e4 / math.log(100.0)) <= 1e-9

    def test_domain(self):
        with pytest.raises(RangeError):
            rip_rows_lower(0.6, 2, 1e4)
        with pytest.raises(RangeError):
            rip_rows_lower(0.001, 2, 1e4)  # delta < 1/sqrt(n)
        with pytest.raises(RangeError):
            rip_rows_lower(0.1, 1e9, 1e10)  # k > delta * n / 2


class TestCodeSize:
    def test_boundary_k(self):
        assert code_size_exponents(0.5, 1, 4).value == (1.0, 0.0)

    def test_hand_value(self):
        e1, e2 = code_size_exponents(0.25, 4, 1024).value
        assert e1 == 64.0
        assert abs(e2 - math.log(32.0)) <= 1e-12

    def test_domain(self):
        with pytest.raises(RangeError):
            code_size_exponents(0.6, 1, 100)
        with pytest.raises(RangeError):
            code_size_exponents(0.25, 500, 100)  # k > eps * n / 2


class TestRegistry:
    def test_ids_and_parameter_names(self):
        assert set(FORMULAS) == {
            "min_sparsity", "incoherent_rows", "jl_sparsity",
            "rip_sparsity", "rip_rows", "code_size",
        }
        for formula_id, (fn, names) in FORMULAS.items():
            import inspect

            assert tuple(inspect.signature(fn).parameters) == names

    def test_all_results_are_normalized_bound_values(self):
        samples = {
            "min_sparsity": {"q": 100, "r": 10},
            "incoherent_rows": {"eps": 0.1, "N": 1e6},
            "jl_sparsity": {"eps": 0.1, "n": 1e4, "m": 1e3},
            "rip_sparsity": {"k": 2, "n": 2.0**40, "m": 1e3},
            "rip_rows": {"delta": 0.25, "k": 4, "n": 1e6},
            "code_size": {"eps": 0.25, "k": 4, "n": 1024},
        }
        for formula_id, (fn, _) in FORMULAS.items():
            out = fn(**samples[formula_id])
            assert isinstance(out, BoundValue)
            assert out.formula_id == formula_id
            assert out.normalized_constant is True


# one in-domain argument tuple per formula, in FORMULAS parameter order
VALID_ARGS = {
    "min_sparsity": (100, 10),
    "incoherent_rows": (0.25, 100),
    "jl_sparsity": (0.25, 100, 50),
    "rip_sparsity": (2, 10**8, 50),
    "rip_rows": (0.25, 2, 100),
    "code_size": (0.5, 2, 100),
}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", None, True, 10**400],
                         ids=["nan", "inf", "-inf", "str", "None", "bool", "huge_int"])
def test_non_finite_argument_refused(formula, bad):
    # each evaluator refuses these before its domain checks can misread them
    fn, names = FORMULAS[formula]
    assert isinstance(fn(*VALID_ARGS[formula]), BoundValue)
    for p in range(len(names)):
        args = list(VALID_ARGS[formula])
        args[p] = bad
        with pytest.raises(SketchboundsError, match="need finite real numbers"):
            fn(*args)


@pytest.mark.parametrize(
    "row", GOLDEN, ids=[f"{r['formula']}-{i}" for i, r in enumerate(GOLDEN)]
)
def test_golden_table(row):
    """Float64 evaluators agree with an independent 50-digit computation."""
    fn, _ = FORMULAS[row["formula"]]
    got = fn(**row["params"]).value
    want = row["value"]
    if row["formula"] == "min_sparsity":
        assert got == want
    elif isinstance(want, list):
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_golden_table_is_what_its_generator_writes():
    """The checked-in table has not drifted from the mpmath oracle."""
    spec = importlib.util.spec_from_file_location("generate_golden", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.build_rows() == GOLDEN
