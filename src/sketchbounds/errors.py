"""Exception types shared across the package.

Every error raised on a violated precondition derives from
:class:`SketchboundsError`, which itself derives from ``ValueError`` so
callers can catch either the specific class or the generic one.
"""

from __future__ import annotations


class SketchboundsError(ValueError):
    """Base class for all precondition and domain errors in this package."""


# --- matrix construction and application -----------------------------------

class ZeroColumn(SketchboundsError):
    """A column that must be normalized has zero norm."""


class DimensionMismatch(SketchboundsError):
    """Vector or matrix dimensions do not line up for the operation."""


class IndexOutOfRange(SketchboundsError):
    """A row or column index falls outside the matrix shape."""


class InvalidEntry(SketchboundsError):
    """A stored value is of the wrong kind: a non-finite value, a non-integer
    where an index is expected, rows out of order or repeated, or a sign
    other than +-1."""


class MalformedArtifact(SketchboundsError):
    """Artifact JSON does not parse or lacks the structure of its format."""


# --- samplers and code constructions ----------------------------------------

class Exhausted(SketchboundsError):
    """Rejection sampling could not place the next codeword within budget."""


class TooFewWords(SketchboundsError):
    """An operation needs at least two codewords."""


class InvalidSparsity(SketchboundsError):
    """Requested per-column sparsity is outside [1, m], or a vector has more
    nonzeros than its stated sparsity."""


class NotDivisible(SketchboundsError):
    """Block sampling requires the sparsity to divide the row count."""


class TooLarge(SketchboundsError):
    """An exact enumeration guard was exceeded."""


class ShapeMismatch(SketchboundsError):
    """Construction parameters disagree with each other."""


class InvalidDimension(SketchboundsError):
    """A requested dimension is impossible (e.g. subspace larger than ambient,
    or a support size k outside the range a search allows)."""


class InvalidCount(SketchboundsError):
    """A count that must be positive (trials, codewords, attempts) is not."""


class InvalidEps(SketchboundsError):
    """A distortion or agreement level eps lies outside its allowed range."""


class UnknownKind(SketchboundsError):
    """A certificate kind or sampler name is not one this package knows."""


# --- measures ----------------------------------------------------------------

class NotNormalized(SketchboundsError):
    """A column expected to be unit norm is not, within tolerance."""

    def __init__(self, column: int, norm: float):
        self.column = column
        self.norm = norm
        super().__init__(f"column {column} has norm {norm!r}, expected 1 within 1e-9")


class TooFewColumns(SketchboundsError):
    """Pairwise measures need at least two columns."""


class TooManySupports(SketchboundsError):
    """Exact restricted-isometry enumeration guard C(n, k) <= 10^6 exceeded."""


class EmptyIndexSet(SketchboundsError):
    """A column index set must be nonempty."""


class NonpositiveThreshold(SketchboundsError):
    """Row-mass thresholds must be positive."""


class NoScaleFound(SketchboundsError):
    """No dyadic scale qualifies; the column-mass precondition was violated."""


# --- witnesses ---------------------------------------------------------------

class InvalidT(SketchboundsError):
    """The truncation parameter t is outside [1, s]."""


class PreconditionViolated(SketchboundsError):
    """A certifier's arithmetic precondition (e.g. t/s vs eps) fails."""


class NotSignMatrix(SketchboundsError):
    """An entry magnitude differs from 1/sqrt(s) by more than tolerance."""


class DegenerateColumn(SketchboundsError):
    """A column has no qualifying scale and cannot support a pattern."""


# --- bound evaluators --------------------------------------------------------

class Infeasible(SketchboundsError):
    """No integer satisfies the requested inequality within its domain."""


class BadArgs(SketchboundsError):
    """Evaluator arguments violate a structural requirement."""


class RangeError(SketchboundsError):
    """Evaluator arguments are outside the formula's stated domain."""


# --- CLI ---------------------------------------------------------------------

class BadConfig(SketchboundsError):
    """An experiment config file is missing a key or holds an invalid value."""
