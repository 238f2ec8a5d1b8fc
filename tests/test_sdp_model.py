import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splrsdp.graph_core import Graph
from splrsdp.instances import gen_simex
from splrsdp.sdp_model import (
    _GATHER,
    Constraint,
    FactoredSolution,
    SparseSymMatrix,
    SplrSdp,
    Term,
    eval_objective,
    is_feasible,
    validate_problem,
)

from conftest import (eval_constraint, random_splr_problem, sparse_dense,
                      term_dense)


def test_sparse_sym_matrix_roundtrip_and_inner():
    rng = np.random.default_rng(0)
    A = SparseSymMatrix.from_entries(4, [(1, 2, 0.5), (2, 1, 0.5), (3, 3, -2.0)])
    assert A.entries == {(1, 2): 1.0, (3, 3): -2.0}
    D = sparse_dense(A)
    assert D[0, 1] == 1.0 and D[1, 0] == 1.0 and D[2, 2] == -2.0
    p = SplrSdp(n=4, ell=0, pattern=Graph.from_edges(4, [(1, 2)]),
                factor=np.zeros((4, 0)), objective=Term(A, np.zeros((0, 0))),
                constraints=[])
    R = rng.standard_normal((4, 2))
    assert np.isclose(eval_objective(p, FactoredSolution(R)),
                      np.sum(D * (R @ R.T)))
    with pytest.raises(ValueError):
        SparseSymMatrix.from_entries(2, [(1, 3, 1.0)])


def make_toy_problem():
    # n = 3 path pattern, ell = 1, factor = all-ones column
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    a = np.ones((3, 1))
    obj = Term(SparseSymMatrix.from_entries(3, [(1, 2, 1.0)]), np.zeros((1, 1)))
    cons = [
        Constraint(SparseSymMatrix.from_entries(3, [(i, i, 1.0)]),
                   np.zeros((1, 1)), 1.0, 1.0)
        for i in (1, 2, 3)
    ]
    cons.append(Constraint(SparseSymMatrix(3, {}), np.array([[1.0]]), 0.0, 0.0))
    return SplrSdp(n=3, ell=1, pattern=g, factor=a, objective=obj, constraints=cons)


def test_validate_problem_catches_mistakes():
    p = make_toy_problem()
    validate_problem(p)
    bad = SplrSdp(n=3, ell=1, pattern=p.pattern, factor=np.ones((2, 1)),
                  objective=p.objective, constraints=p.constraints)
    with pytest.raises(ValueError):
        validate_problem(bad)
    off = Constraint(SparseSymMatrix.from_entries(3, [(1, 3, 1.0)]),
                     np.zeros((1, 1)), 0.0, 0.0)
    with pytest.raises(ValueError):
        validate_problem(SplrSdp(n=3, ell=1, pattern=p.pattern, factor=p.factor,
                                 objective=p.objective, constraints=[off]))
    flipped = Constraint(SparseSymMatrix(3, {}), np.array([[1.0]]), 2.0, 1.0)
    with pytest.raises(ValueError):
        validate_problem(SplrSdp(n=3, ell=1, pattern=p.pattern, factor=p.factor,
                                 objective=p.objective, constraints=[flipped]))


def test_eval_matches_dense_reconstruction():
    rng = np.random.default_rng(42)
    p = make_toy_problem()
    R = rng.standard_normal((3, 2))
    sol = FactoredSolution(R)
    X = sol.factor @ sol.factor.T
    for i in range(1, p.m + 1):
        c = p.constraints[i - 1]
        A = term_dense(c.term, p.factor)
        assert np.isclose(eval_constraint(p, i, sol), np.sum(A * X), atol=1e-12)
    A0 = term_dense(p.objective, p.factor)
    assert np.isclose(eval_objective(p, sol), np.sum(A0 * X))


def test_is_feasible_interval_semantics():
    p = make_toy_problem()
    sol = FactoredSolution(np.eye(3))  # diag = 1, <11^T, I> = 3 != 0
    ok, rep = is_feasible(p, sol)
    assert not ok
    assert np.isclose(rep["max_violation"], 3.0)
    # relax the low-rank row into an interval that contains 3
    p.constraints[-1] = Constraint(SparseSymMatrix(3, {}), np.array([[1.0]]),
                                   float("-inf"), 5.0)
    ok, rep = is_feasible(p, sol)
    assert ok and rep["max_violation"] == 0.0


def test_is_feasible_reports_a_nan_point():
    ok, rep = is_feasible(gen_simex(5), FactoredSolution(np.full((5, 2), np.nan)),
                          tol=1e-4)
    assert not ok
    assert np.isnan(rep["max_violation"])
    assert all(np.isnan(rep["violations"]))


@given(seed=st.integers(0, 2**16), n=st.integers(2, 8), ell=st.integers(0, 3),
       case=st.sampled_from(["gather steps", "empty rows"]))
def test_row_values_match_dense_sums(seed, n, ell, case):
    # every row value against <A, X> on the dense A of Term.dense
    rng = np.random.default_rng(seed)
    p = random_splr_problem(rng, n, ell, p_edge=0.4)
    if case == "empty rows":
        # the objective and every other row without sparse entries; a
        # single empty row is a call with no entries at all
        p.objective = Term(SparseSymMatrix(n, {}), p.objective.core)
        p.constraints[::2] = [Constraint(SparseSymMatrix(n, {}), c.core,
                                         c.lower, c.upper)
                              for c in p.constraints[::2]]
    r = _GATHER // 3 if case == "gather steps" else 3
    R = rng.standard_normal((n, r)) / np.sqrt(r)
    X = R @ R.T
    sol = FactoredSolution(R)
    if case == "gather steps":
        # more entries than one gather step holds
        assume(sum(len(c.sparse.entries) for c in p.constraints)
               > _GATHER // r + 1)
    want = [np.sum(term_dense(c.term, p.factor) * X) for c in p.constraints]
    obj = eval_objective(p, sol)
    assert type(obj) is float
    assert np.isclose(obj, np.sum(term_dense(p.objective, p.factor) * X),
                      rtol=1e-10, atol=1e-10)
    for i, w in enumerate(want, start=1):
        assert np.isclose(eval_constraint(p, i, sol), w, rtol=1e-10, atol=1e-10)
    _, rep = is_feasible(p, sol)
    over = [max(c.lower - w, w - c.upper, 0.0)
            for c, w in zip(p.constraints, want)]
    assert np.allclose(rep["violations"], over, rtol=1e-10, atol=1e-10)


def test_factored_solution_rank():
    R = np.zeros((4, 3))
    R[:, 0] = [1.0, 0, 0, 0]
    R[:, 1] = [0, 1e-12, 0, 0]
    sol = FactoredSolution(R)
    assert sol.rank == 3
    assert sol.numerical_rank() == 1

