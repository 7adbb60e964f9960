"""Closed-form bound evaluators.

Each evaluator turns an asymptotic lower bound into arithmetic you can run:
multiplicative constants are normalized to 1, logarithms are natural, and
the logarithmic denominators that could approach zero are clamped below at
1.  Every argument must be a real number a float holds (no bool, NaN,
infinity or huge int) and lie in its formula's stated domain; either failure
raises :class:`~sketchbounds.errors.RangeError` (or ``BadArgs`` /
``Infeasible`` for the integer search's domain).  Every result is wrapped in
:class:`BoundValue` so downstream consumers can see which formula produced
the number and that its constant convention is the normalized one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import BadArgs, Infeasible, RangeError


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: the number, the formula that made it, and a marker
    that all suppressed constants were taken to be 1."""

    value: float | int | tuple
    formula_id: str
    normalized_constant: bool = True


def finite_real(value) -> bool:
    """Whether `value` is a real number a float holds: no bool, NaN, infinity or huge int."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _check_finite(**args) -> None:
    bad = [f"{name}={value!r}" for name, value in args.items() if not finite_real(value)]
    if bad:
        raise RangeError(f"need finite real numbers; got {', '.join(bad)}")


def min_sparsity_from_inequality(q: float, r: float) -> BoundValue:
    """Smallest integer s with s * ln(q/s) >= r, searched over [1, floor(q/e)].

    The map s -> s * ln(q/s) is increasing on that interval, so a binary
    search finds the threshold.  Requires r > 0 and q/r >= 2; raises
    :class:`Infeasible` when even the interval's right end falls short.
    """
    _check_finite(q=q, r=r)
    if r <= 0:
        raise BadArgs(f"need r > 0, got r={r}")
    if q / r < 2:
        raise BadArgs(f"need q/r >= 2, got q/r={q / r:.6g}")

    def f(s: int) -> float:
        return s * math.log(q / s)

    hi = max(1, math.floor(q / math.e))
    if f(hi) < r:
        raise Infeasible(f"s * ln(q/s) stays below r={r} for every s in [1, {hi}]")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) >= r:
            hi = mid
        else:
            lo = mid + 1
    return BoundValue(value=lo, formula_id="min_sparsity")


def incoherent_rows_lower(eps: float, N: float) -> BoundValue:
    """Minimum ambient dimension for N pairwise eps-incoherent unit vectors:
    ln(N) / (eps^2 * ln(1/eps)).  Domain: 1/sqrt(N) < eps < 1/2."""
    _check_finite(eps=eps, N=N)
    if N <= 1:
        raise RangeError(f"need N > 1, got N={N}")
    if not (N ** -0.5 < eps < 0.5):
        raise RangeError(f"need 1/sqrt(N) < eps < 1/2, got eps={eps}, N={N}")
    value = math.log(N) / (eps * eps * math.log(1.0 / eps))
    return BoundValue(value=value, formula_id="incoherent_rows")


def jl_sparsity_lower(eps: float, n: float, m: float) -> BoundValue:
    """Column sparsity floor for eps-distortion embeddings of n points into m
    dimensions: (1/eps) * ln(n) / max(ln(m / ln n), 1).

    Domain: 1/sqrt(n) < eps < 1/2 and m > ln n."""
    _check_finite(eps=eps, n=n, m=m)
    if n <= 1:
        raise RangeError(f"need n > 1, got n={n}")
    if not (n ** -0.5 < eps < 0.5):
        raise RangeError(f"need 1/sqrt(n) < eps < 1/2, got eps={eps}, n={n}")
    log_n = math.log(n)
    if m <= log_n:
        raise RangeError(f"need m > ln(n) = {log_n:.6g}, got m={m}")
    value = (1.0 / eps) * log_n / max(math.log(m / log_n), 1.0)
    return BoundValue(value=value, formula_id="jl_sparsity")


def rip_sparsity_lower(k: float, n: float, m: float) -> BoundValue:
    """Column sparsity floor for restricted isometries:
    min(k * ln(n/k) / max(ln(m / (k * ln(n/k))), 1), m).

    Domain: 2 <= k <= m <= n / (64 * ln(n)^3)."""
    _check_finite(k=k, n=n, m=m)
    if k < 2:
        raise RangeError(f"need k >= 2, got k={k}")
    if m < k:
        raise RangeError(f"need m >= k, got m={m}, k={k}")
    cap = n / (64.0 * math.log(n) ** 3) if n > 1 else 0.0
    if m > cap:
        raise RangeError(f"need m <= n/(64 ln(n)^3) = {cap:.6g}, got m={m}")
    kl = k * math.log(n / k)
    value = min(kl / max(math.log(m / kl), 1.0), m)
    return BoundValue(value=value, formula_id="rip_sparsity")


def rip_rows_lower(delta: float, k: float, n: float) -> BoundValue:
    """Row-count floor for restricted isometries with constant delta:
    (1 / ln(1/delta)) * min(k * ln(n/k) / delta + k / delta^2, n).

    Domain: 1/sqrt(n) <= delta <= 1/2 and 1 <= k <= delta * n / 2."""
    _check_finite(delta=delta, k=k, n=n)
    if n <= 1:
        raise RangeError(f"need n > 1, got n={n}")
    if not (n ** -0.5 <= delta <= 0.5):
        raise RangeError(f"need 1/sqrt(n) <= delta <= 1/2, got delta={delta}, n={n}")
    if not (1 <= k <= delta * n / 2):
        raise RangeError(f"need 1 <= k <= delta*n/2 = {delta * n / 2:.6g}, got k={k}")
    value = min(k * math.log(n / k) / delta + k / (delta * delta), n) / math.log(1.0 / delta)
    return BoundValue(value=value, formula_id="rip_rows")


def code_size_exponents(eps: float, k: float, n: float) -> BoundValue:
    """Natural-log exponents of the two guaranteed code sizes for the spread
    construction: e1 = eps^2 * n and e2 = eps * k * ln(eps * n / (2k)).

    Domain: 0 < eps <= 1/2 and 1 <= k <= eps * n / 2.  The guaranteed size is
    exp(min(e1, e2)) with the convention that constants are 1; the exponents
    are returned unexponentiated so huge codes stay representable."""
    _check_finite(eps=eps, k=k, n=n)
    if not 0 < eps <= 0.5:
        raise RangeError(f"need 0 < eps <= 1/2, got eps={eps}")
    if not (1 <= k <= eps * n / 2):
        raise RangeError(f"need 1 <= k <= eps*n/2 = {eps * n / 2:.6g}, got k={k}")
    e1 = eps * eps * n
    e2 = eps * k * math.log(eps * n / (2.0 * k))
    return BoundValue(value=(e1, e2), formula_id="code_size")


#: CLI registry: formula id -> (callable, ordered parameter names)
FORMULAS = {
    "min_sparsity": (min_sparsity_from_inequality, ("q", "r")),
    "incoherent_rows": (incoherent_rows_lower, ("eps", "N")),
    "jl_sparsity": (jl_sparsity_lower, ("eps", "n", "m")),
    "rip_sparsity": (rip_sparsity_lower, ("k", "n", "m")),
    "rip_rows": (rip_rows_lower, ("delta", "k", "n")),
    "code_size": (code_size_exponents, ("eps", "k", "n")),
}
