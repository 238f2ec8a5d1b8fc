"""Data model for SDPs with sparse-plus-low-rank constraint matrices.

A problem instance holds data matrices of the form

    A_i = (sparse part supported on pattern edges and the diagonal)
        + factor @ core_i @ factor.T

with a shared n-by-ell factor.  Constraint rows are two-sided interval
constraints lower_i <= <A_i, X> <= upper_i on a PSD variable X; equalities
use lower == upper, and infinite bounds mark one-sided rows.

The numerical rules the other modules share live here: the rank cut
RANK_TOL with _rank_mask, the pseudo-inverse cut PINV_RCOND, and _sym.
"""

import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "SparseSymMatrix",
    "Term",
    "Constraint",
    "SplrSdp",
    "FactoredSolution",
    "validate_problem",
    "eval_objective",
    "is_feasible",
]

RANK_TOL = 1e-8  # relative eigenvalue cut of every reported rank
# relative cut for pseudo-inverses, factor tails, face bases and the
# tangent system of completion_rank._rank_walk
PINV_RCOND = 1e-10
# floats gathered per step when row values read factor rows: at n = 2000 a
# whole-problem gather at full rank would take hundreds of MB
_GATHER = 1 << 16


def _rank_mask(w):
    """Eigenvalues in a (..., d) stack that count toward the rank: those
    above RANK_TOL times the largest, none when that is not positive."""
    return w > RANK_TOL * w.max(axis=-1, keepdims=True, initial=0.0)


def _sym(M):
    """(M + M^T) / 2 for each matrix in a (..., d, d) stack, halved before
    the sum so that finite entries near the float range stay finite."""
    H = 0.5 * M
    return H + np.swapaxes(H, -1, -2)


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix stored as upper-triangle entries {(i, j): value}, i <= j.

    Indices are 1-based.  Off-diagonal entries stand for both (i, j) and
    (j, i), so they count twice in inner products.
    """

    n: int
    entries: dict

    @staticmethod
    def from_entries(n, items):
        ent = {}
        for i, j, v in items:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("entry (%d, %d) outside 1..%d" % (i, j, n))
            key = (min(i, j), max(i, j))
            ent[key] = ent.get(key, 0.0) + float(v)
        return SparseSymMatrix(n, ent)

    def support(self):
        """Off-diagonal support as normalized (i, j) pairs."""
        return {(i, j) for (i, j) in self.entries if i != j}


@dataclass(frozen=True)
class Term:
    """One data matrix: sparse part plus core for the shared factor."""

    sparse: SparseSymMatrix
    core: np.ndarray  # ell x ell symmetric


@dataclass(frozen=True)
class Constraint:
    sparse: SparseSymMatrix
    core: np.ndarray
    lower: float  # -inf for one-sided
    upper: float  # +inf for one-sided

    @property
    def term(self):
        return Term(self.sparse, self.core)


@dataclass
class SplrSdp:
    """min <A_0, X> s.t. lower_i <= <A_i, X> <= upper_i, X PSD."""

    n: int
    ell: int
    pattern: object  # graph_core.Graph on n vertices
    factor: np.ndarray  # n x ell
    objective: Term
    constraints: list

    @property
    def m(self):
        return len(self.constraints)


@dataclass
class FactoredSolution:
    """PSD matrix represented by its factor: X = factor @ factor.T."""

    factor: np.ndarray  # n x r

    @property
    def rank(self):
        return self.factor.shape[1]

    def numerical_rank(self):
        """Rank of X: its eigenvalues, the squared singular values of the
        factor, counted by _rank_mask."""
        s = np.linalg.svd(self.factor, compute_uv=False)
        return int(np.sum(_rank_mask(s * s)))


def validate_problem(p):
    """Raise ValueError if the instance is structurally inconsistent or
    holds a non-finite number other than an infinite bound.

    One array pass over all entries, cores and bounds, cheap enough for
    every load.
    """
    if p.pattern.n != p.n:
        raise ValueError("pattern has %d vertices, problem has %d" % (p.pattern.n, p.n))
    if p.factor.shape != (p.n, p.ell):
        raise ValueError("factor shape %s, expected (%d, %d)" % (p.factor.shape, p.n, p.ell))
    if not np.isfinite(p.factor).all():
        raise ValueError("factor has a non-finite entry")
    terms = [p.objective, *p.constraints]

    def name(k):
        return "constraint %d" % k if k else "objective"

    for k, t in enumerate(terms):
        if (t.sparse.n, *t.core.shape) != (p.n, p.ell, p.ell):
            raise ValueError("%s has sparse dimension %d and core shape %s, expected"
                             " %d and (%d, %d)" % (name(k), t.sparse.n, t.core.shape,
                                                   p.n, p.ell, p.ell))
    cores = np.array([t.core for t in terms], dtype=float)
    row, i, j, v = _entries(terms)
    e = np.fromiter(chain.from_iterable(p.pattern.edges), np.int64).reshape(-1, 2) - 1
    off = np.flatnonzero(i != j)
    off = off[~np.isin(i[off] * p.n + j[off], e[:, 0] * p.n + e[:, 1])]
    at = "(%d, %d)" % (i[off[0]] + 1, j[off[0]] + 1) if off.size else ""
    # the objective's place holds bounds [0, 0]
    lo, hi = np.array([(0.0, 0.0)] + [(c.lower, c.upper) for c in p.constraints]).T
    for bad, why in (
            (~np.isfinite(cores).all(axis=(1, 2)), "core has a non-finite entry"),
            (~np.isclose(cores, cores.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2)),
             "core is not symmetric"),
            (np.bincount(row[~np.isfinite(v)], minlength=len(terms)) > 0,
             "sparse part has a non-finite value"),
            (np.bincount(row[off], minlength=len(terms)) > 0,
             "sparse part leaves the pattern at " + at),
            (np.isnan(lo) | np.isnan(hi), "has NaN bound"),
            (lo > hi, "has lower > upper"),
            (lo == np.inf, "has lower = +inf"),
            (hi == -np.inf, "has upper = -inf")):
        if bad.any():
            raise ValueError("%s %s" % (name(np.argmax(bad)), why))


def _number(value, kind, name):
    """value as kind, under the one rule for numbers read from input.

    For kind int or float, value must be a real number (numpy scalars
    too) that is no bool, and integral for int, where an integral float is
    taken; for kind np.ndarray, nested lists of such numbers, returned as
    a float array.  Anything else, strings included, raises ValueError
    "<name> must be ..., got <value>".
    """
    if kind is np.ndarray:
        why = "must be an array of numbers"
        try:
            arr = np.array(value, dtype=object)
            if all(issubclass(t, numbers.Real) and t is not bool
                   for t in set(map(type, arr.ravel().tolist()))):
                return arr.astype(float)
        except (ValueError, OverflowError):
            pass
    elif type(value) is kind:  # most JSON numbers, taken without the checks
        return value
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        why = "must be a number"
    elif kind is int and not (isinstance(value, numbers.Integral)
                              or float(value).is_integer()):
        why = "must be an integer"
    else:
        try:
            return kind(value)
        except OverflowError:
            why = "is out of range"
    raise ValueError("%s %s, got %.40r" % (name, why, value))


def _entries(terms):
    """Every term's sparse entries as flat arrays (term position, 0-based
    i <= j, value): terms in order, each one's entries in key order."""
    counts = [len(t.sparse.entries) for t in terms]
    ij = np.fromiter(chain.from_iterable(chain.from_iterable(t.sparse.entries)
                                         for t in terms), np.int64).reshape(-1, 2) - 1
    v = np.fromiter(chain.from_iterable(t.sparse.entries.values() for t in terms), float)
    return np.repeat(np.arange(len(terms)), counts), ij[:, 0], ij[:, 1], v


def _core_gram(p, sol):
    """factor.T @ X @ factor at the FactoredSolution sol, shared by every
    row at one point; None if ell = 0."""
    if not p.ell:
        return None
    G = p.factor.T @ sol.factor
    return G @ G.T


def _values(terms, sol, core_gram, entries=None):
    """Every term's <A, X> at the FactoredSolution sol at once: the sparse
    part against X plus core . core_gram (see _core_gram).  `entries` is
    _entries(terms) when the caller evaluates the same terms at many
    points, so the entry dicts are read once.
    """
    row, i, j, v = _entries(terms) if entries is None else entries
    R = sol.factor
    x = np.empty(i.size)
    step = _GATHER // max(R.shape[1], 1) + 1
    for s in range(0, i.size, step):
        x[s:s + step] = np.einsum("ij,ij->i", R[i[s:s + step]], R[j[s:s + step]])
    # off-diagonal entries stand for (i, j) and (j, i); a value beyond the
    # float range reads inf, which is_feasible never accepts
    with np.errstate(over="ignore"):
        out = np.bincount(row, np.where(i == j, v, 2.0 * v) * x,
                          len(terms)).astype(float)
    if core_gram is not None:
        cores = np.array([t.core for t in terms], dtype=float)
        out += cores.reshape(len(terms), core_gram.size) @ core_gram.ravel()
    return out


def eval_objective(p, sol):
    """<A_0, X> at the FactoredSolution sol."""
    return float(_values([p.objective], sol, _core_gram(p, sol))[0])


def is_feasible(p, sol, tol=1e-8):
    """Check all constraint rows at the FactoredSolution sol to absolute
    tolerance `tol`.

    Returns (ok, report) where report carries per-row violations.  A NaN
    row value has a NaN violation, which is never within `tol`.
    """
    v = _values(p.constraints, sol, _core_gram(p, sol))
    lo, hi = np.array([(c.lower, c.upper) for c in p.constraints]).reshape(-1, 2).T
    viol = np.maximum(np.maximum(lo - v, v - hi), 0.0)
    worst = float(viol.max(initial=0.0))
    return worst <= tol, {"max_violation": worst, "violations": viol.tolist()}

