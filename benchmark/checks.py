"""Correctness checks for one benchmark operation.

The checks re-evaluate the recovered point from the problem's raw data
(sparse entries, shared factor, cores and bounds) instead of calling the
package's own evaluators, so a defect in those cannot hide a wrong answer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# reason codes an operation can fail with
NOT_CONVERGED = "not_converged"
EXCEPTION = "exception"
CLI_EXIT = "cli_exit"
INFEASIBLE = "infeasible"
RANK_ABOVE_BOUND = "rank_above_bound"
VERIFY_FAILED = "verify_failed"
OBJECTIVE_OFF = "objective_off"


@dataclass
class Outcome:
    """What one operation did and which checks it failed."""

    op: str
    seconds: float = 0.0
    iterations: int = 0
    converged: bool = True
    rank: int = None
    bound: int = None
    max_violation: float = None
    objective: float = None
    reasons: list = field(default_factory=list)  # [(code, detail)]
    traceback: str = None

    def fail(self, code, detail):
        self.reasons.append((code, detail))

    @property
    def ok(self):
        return not self.reasons

    @property
    def codes(self):
        return {code for code, _ in self.reasons}

    def signature(self):
        """The fields that must repeat exactly across passes and runs."""
        return [self.op, self.iterations, self.rank, self.bound,
                sorted(self.codes)]


def _term_value(term, R, core_gram):
    val = 0.0
    for (i, j), v in term.sparse.entries.items():
        val += v * float(R[i - 1] @ R[j - 1]) * (1.0 if i == j else 2.0)
    if core_gram is not None:
        val += float(np.sum(term.core * core_gram))
    return val


def _core_gram(p, R):
    """factor^T R R^T factor, the low-rank parts' view of the point."""
    if not p.ell:
        return None
    G = p.factor.T @ R
    return G @ G.T


def objective_value(p, R):
    """<A_0, R R^T> from the raw problem data."""
    return _term_value(p.objective, R, _core_gram(p, R))


def max_violation(p, R):
    """Largest bound violation of R R^T over all rows."""
    gram = _core_gram(p, R)
    worst = 0.0
    for c in p.constraints:
        v = _term_value(c.term, R, gram)
        worst = max(worst, c.lower - v, v - c.upper)
    return worst


def numerical_rank(R, tol=1e-8):
    """Rank of R R^T: eigenvalues above `tol` times the largest."""
    if R.size == 0:
        return 0
    s = np.linalg.svd(R, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s * s > tol * s[0] * s[0]))


def check_point(out, p, R, bound, tol, ref_objective):
    """Feasibility at `tol`, rank against the certified bound, and objective
    against the reference value (relative to max(1, |ref|))."""
    R = np.asarray(R, dtype=float)
    out.bound = int(bound)
    out.rank = numerical_rank(R)
    out.max_violation = max_violation(p, R)
    out.objective = objective_value(p, R)
    if not out.max_violation <= tol:
        out.fail(INFEASIBLE, "max violation %.3e > %.0e"
                 % (out.max_violation, tol))
    if out.rank > out.bound:
        out.fail(RANK_ABOVE_BOUND, "rank %d > certified %d"
                 % (out.rank, out.bound))
    gap = abs(out.objective - ref_objective)
    if not gap <= tol * max(1.0, abs(ref_objective)):
        out.fail(OBJECTIVE_OFF, "objective %.9g vs reference %.9g"
                 % (out.objective, ref_objective))


# Violations below this are floating-point round-off on rows whose values
# reach the thousands (the n=2000 instances), not solution accuracy; flooring
# keeps exact-data workloads from reporting round-off as a change.
ACCURACY_FLOOR = 1e-10


def accuracy_digits(max_viol):
    return -math.log10(max(max_viol, ACCURACY_FLOOR))


def unexpected(outcome, known_defects):
    """Reason codes not covered by the op's recorded known defects."""
    return outcome.codes - known_defects.get(outcome.op, set())
