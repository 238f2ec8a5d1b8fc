"""Data model for SDPs with sparse-plus-low-rank constraint matrices.

A problem instance holds data matrices of the form

    A_i = (sparse part supported on pattern edges and the diagonal)
        + factor @ core_i @ factor.T

with a shared n-by-ell factor.  Constraint rows are two-sided interval
constraints lower_i <= <A_i, X> <= upper_i on a PSD variable X; equalities
use lower == upper, and infinite bounds mark one-sided rows.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseSymMatrix",
    "Term",
    "Constraint",
    "SplrSdp",
    "FactoredSolution",
    "validate_problem",
    "eval_term",
    "eval_constraint",
    "eval_objective",
    "is_feasible",
    "detect_splr",
]

RANK_TOL = 1e-8  # relative eigenvalue cut of every reported rank


def _rank_mask(w):
    """Eigenvalues in a (..., d) stack that count toward the rank: those
    above RANK_TOL times the largest, none when that is not positive."""
    return w > RANK_TOL * w.max(axis=-1, keepdims=True, initial=0.0)


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

    @staticmethod
    def from_dense(M, tol=0.0):
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        ent = {}
        for i in range(n):
            for j in range(i, n):
                v = 0.5 * (M[i, j] + M[j, i])
                if abs(v) > tol:
                    ent[(i + 1, j + 1)] = v
        return SparseSymMatrix(n, ent)

    def to_dense(self):
        M = np.zeros((self.n, self.n))
        for (i, j), v in self.entries.items():
            M[i - 1, j - 1] = v
            M[j - 1, i - 1] = v
        return M

    def support(self):
        """Off-diagonal support as normalized (i, j) pairs."""
        return {(i, j) for (i, j) in self.entries if i != j}

    def inner_dense(self, X):
        s = 0.0
        for (i, j), v in self.entries.items():
            s += v * X[i - 1, j - 1] * (1.0 if i == j else 2.0)
        return s

    def inner_rows(self, R):
        """<A, R R^T> without forming R R^T."""
        s = 0.0
        for (i, j), v in self.entries.items():
            x = float(np.dot(R[i - 1], R[j - 1]))
            s += v * x * (1.0 if i == j else 2.0)
        return s


@dataclass(frozen=True)
class Term:
    """One data matrix: sparse part plus core for the shared factor."""

    sparse: SparseSymMatrix
    core: np.ndarray  # ell x ell symmetric

    def dense(self, factor):
        A = self.sparse.to_dense()
        if self.core.size:
            A = A + factor @ self.core @ factor.T
        return A


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
    def n(self):
        return self.factor.shape[0]

    @property
    def rank(self):
        return self.factor.shape[1]

    def matrix(self):
        return self.factor @ self.factor.T

    def numerical_rank(self):
        """Rank of X: its eigenvalues, the squared singular values of the
        factor, counted by _rank_mask."""
        s = np.linalg.svd(self.factor, compute_uv=False)
        return int(np.sum(_rank_mask(s * s)))


def validate_problem(p):
    """Raise ValueError if the instance is structurally inconsistent."""
    if p.pattern.n != p.n:
        raise ValueError("pattern has %d vertices, problem has %d" % (p.pattern.n, p.n))
    if p.factor.shape != (p.n, p.ell):
        raise ValueError("factor shape %s, expected (%d, %d)" % (p.factor.shape, p.n, p.ell))
    terms = [("objective", p.objective)] + [
        ("constraint %d" % (i + 1), c.term) for i, c in enumerate(p.constraints)
    ]
    for name, t in terms:
        if t.sparse.n != p.n:
            raise ValueError("%s sparse part has wrong dimension" % name)
        if t.core.shape != (p.ell, p.ell):
            raise ValueError("%s core shape %s, expected (%d, %d)"
                             % (name, t.core.shape, p.ell, p.ell))
        if t.core.size and not np.allclose(t.core, t.core.T, atol=1e-12):
            raise ValueError("%s core is not symmetric" % name)
        bad = t.sparse.support() - p.pattern.edges
        if bad:
            raise ValueError("%s sparse part leaves the pattern: %s" % (name, sorted(bad)[:3]))
    for i, c in enumerate(p.constraints):
        if math.isnan(c.lower) or math.isnan(c.upper):
            raise ValueError("constraint %d has NaN bound" % (i + 1))
        if c.lower > c.upper:
            raise ValueError("constraint %d has lower > upper" % (i + 1))
        if math.isinf(c.lower) and c.lower > 0:
            raise ValueError("constraint %d has lower = +inf" % (i + 1))
        if math.isinf(c.upper) and c.upper < 0:
            raise ValueError("constraint %d has upper = -inf" % (i + 1))


def _core_gram(p, sol):
    """factor.T @ X @ factor, shared by every row at one point; None if ell = 0."""
    if not p.ell:
        return None
    if isinstance(sol, FactoredSolution):
        G = p.factor.T @ sol.factor
        return G @ G.T
    return p.factor.T @ np.asarray(sol) @ p.factor


def _term_value(term, sol, core_gram):
    """<A, X>: the sparse part against X plus core . core_gram (see _core_gram).

    `sol` may be a FactoredSolution or a dense symmetric matrix.
    """
    if isinstance(sol, FactoredSolution):
        val = term.sparse.inner_rows(sol.factor)
    else:
        val = term.sparse.inner_dense(np.asarray(sol))
    if core_gram is not None:
        val += float(np.sum(term.core * core_gram))
    return val


def eval_term(p, term, sol):
    """<A, X> for a term, using the factored forms on both sides.

    `sol` may be a FactoredSolution or a dense symmetric matrix.
    """
    return _term_value(term, sol, _core_gram(p, sol))


def eval_constraint(p, i, sol):
    """Value of constraint row i (1-based)."""
    return eval_term(p, p.constraints[i - 1].term, sol)


def eval_objective(p, sol):
    return eval_term(p, p.objective, sol)


def is_feasible(p, sol, tol=1e-8):
    """Check all constraint rows to absolute tolerance `tol`.

    Returns (ok, report) where report carries per-row violations.
    """
    gram = _core_gram(p, sol)
    viol = []
    for c in p.constraints:
        v = _term_value(c.term, sol, gram)
        over = 0.0
        if v < c.lower:
            over = c.lower - v
        elif v > c.upper:
            over = v - c.upper
        viol.append(over)
    worst = max(viol, default=0.0)
    return worst <= tol, {"max_violation": worst, "violations": viol}


def _off_pattern_part(M, pattern):
    """Entries outside pattern edges and the diagonal."""
    n = M.shape[0]
    keep = np.zeros((n, n), dtype=bool)
    for i, j in pattern.edges:
        keep[i - 1, j - 1] = True
        keep[j - 1, i - 1] = True
    np.fill_diagonal(keep, True)
    out = M.copy()
    out[keep] = 0.0
    return out


def detect_splr(mats, bounds, pattern, rank_tol=1e-9):
    """Recover a declared sparse-plus-low-rank split from dense matrices.

    mats[0] is the objective, mats[1:] the constraint matrices; `bounds` is a
    list of (lower, upper) for the constraints.  A matrix supported inside
    pattern + diagonal is classified sparse.  The remaining matrices feed a
    shared column-space basis W (SVD at relative threshold rank_tol); each
    gets core W^T A W, and whatever W cannot explain must fit the pattern or
    a ValueError is raised.
    """
    mats = [np.asarray(M, dtype=float) for M in mats]
    n = mats[0].shape[0]
    if len(bounds) != len(mats) - 1:
        raise ValueError("expected %d bound pairs, got %d" % (len(mats) - 1, len(bounds)))
    scales = []
    for k, M in enumerate(mats):
        if M.shape != (n, n):
            raise ValueError("matrix %d has shape %s" % (k, M.shape))
        scale = max(1.0, np.abs(M).max())
        if np.abs(M - M.T).max() > rank_tol * scale:
            raise ValueError("matrix %d is not symmetric" % k)
        scales.append(scale)
    mats = [0.5 * (M + M.T) for M in mats]

    dense_idx = []
    for k, M in enumerate(mats):
        off = _off_pattern_part(M, pattern)
        if np.abs(off).max() > rank_tol * scales[k]:
            dense_idx.append(k)

    if dense_idx:
        stack = np.hstack([mats[k] for k in dense_idx])
        U, s, _ = np.linalg.svd(stack, full_matrices=False)
        ell = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
        W = U[:, :ell]
    else:
        ell = 0
        W = np.zeros((n, 0))

    terms = []
    for k, M in enumerate(mats):
        if k in dense_idx:
            core = W.T @ M @ W
            rest = M - W @ core @ W.T
            off = _off_pattern_part(rest, pattern)
            if np.abs(off).max() > 10 * rank_tol * scales[k]:
                raise ValueError("matrix %d is neither pattern-sparse nor in the "
                                 "shared low-rank span" % k)
            # drop numerical dust so fully-explained matrices get an empty
            # sparse part
            sparse = SparseSymMatrix.from_dense(rest - off, tol=rank_tol * scales[k])
        else:
            core = np.zeros((ell, ell))
            sparse = SparseSymMatrix.from_dense(M, tol=0.0)
        terms.append(Term(sparse, core))

    objective = terms[0]
    cons = [Constraint(t.sparse, t.core, float(l), float(u))
            for t, (l, u) in zip(terms[1:], bounds)]
    p = SplrSdp(n=n, ell=ell, pattern=pattern, factor=W,
                objective=objective, constraints=cons)
    validate_problem(p)
    return p
