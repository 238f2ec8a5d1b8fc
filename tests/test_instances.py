import numpy as np
import pytest

from splrsdp.graph_core import Graph
from splrsdp.instances import (gen_bqp_relaxation, gen_lb_padded, gen_lb_small,
                               gen_lb_tree, gen_min_bisection, gen_simex)
from splrsdp.sdp_model import eval_objective, is_feasible, validate_problem

from conftest import (brute_force_treewidth, coupling_singular_values,
                      factored, lb_tree_feasible_point, phi_witness_matrix,
                      phi_witness_slice)


def _rank(X, tol=1e-8):
    w = np.linalg.eigvalsh(X)
    return int(np.sum(w > tol * max(w[-1], 1e-300)))


def test_simex_defaults():
    p = gen_simex(12)
    validate_problem(p)
    assert p.ell == 1 and p.m == 13
    assert not p.pattern.edges
    assert abs(np.linalg.norm(p.factor) - 1.0) < 1e-12
    ok, rep = is_feasible(p, factored(np.eye(12)), tol=1e-10)
    assert ok, rep


def test_simex_custom_vector():
    rng = np.random.default_rng(3)
    a = rng.normal(size=7) + 0.1
    p = gen_simex(7, a)  # default b keeps the identity feasible
    validate_problem(p)
    ok, _ = is_feasible(p, factored(np.eye(7)), tol=1e-9)
    assert ok
    # with b = (sum a)^2 the all-ones matrix is the natural witness
    q = gen_simex(7, a, float(a.sum()) ** 2)
    ok, rep = is_feasible(q, factored(np.ones((7, 7))), tol=1e-8)
    assert ok, rep


def test_simex_rejects_bad_vectors():
    with pytest.raises(ValueError):
        gen_simex(5, np.zeros(5))
    with pytest.raises(ValueError):
        gen_simex(5, np.ones(4))


def test_min_bisection_relaxation_point():
    rng = np.random.default_rng(4)
    for n in (2, 5, 8):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
        p = gen_min_bisection(g)
        validate_problem(p)
        X = n / (n - 1.0) * (np.eye(n) - np.ones((n, n)) / n) if n > 2 \
            else np.array([[1.0, -1.0], [-1.0, 1.0]])
        ok, rep = is_feasible(p, factored(X), tol=1e-9)
        assert ok, rep
    # K2 objective at the cut point is the hand value 4
    g2 = Graph.from_edges(2, [(1, 2)])
    p2 = gen_min_bisection(g2)
    X2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert abs(eval_objective(p2, factored(X2)) - 4.0) < 1e-12


def test_min_bisection_rejects_bad_graphs():
    with pytest.raises(ValueError):
        gen_min_bisection(Graph(1, frozenset()))
    with pytest.raises(ValueError):
        gen_min_bisection(Graph(4, frozenset({(1, 2)})))  # 3, 4 unreachable


def test_bqp_lifted_point_feasible():
    rng = np.random.default_rng(5)
    n = 4
    Q = rng.standard_normal((n, n))
    c = rng.normal(size=n)
    Aeq = np.array([[1.0, 1.0, 1.0, 1.0]])
    beq = np.array([2.0])
    p = gen_bqp_relaxation(Q, c, Aeq, beq, binary_set=(1, 2))
    validate_problem(p)
    assert p.n == n + 1 and p.ell == 1
    x = np.array([1.0, 1.0, 0.0, 0.0])  # meets the budget, binary where asked
    v = np.concatenate([[1.0], x])
    Y = np.outer(v, v)
    ok, rep = is_feasible(p, factored(Y), tol=1e-9)
    assert ok, rep
    Qs = 0.5 * (Q + Q.T)
    want = float(x @ Qs @ x + 2.0 * c @ x)
    assert abs(eval_objective(p, factored(Y)) - want) < 1e-9


def test_bqp_rank_one_row_measures_equalities():
    Q = np.eye(3)
    c = np.zeros(3)
    p0 = gen_bqp_relaxation(Q, c)
    assert p0.ell == 0 and p0.factor.shape == (4, 0)
    A1 = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # dependent rows
    p1 = gen_bqp_relaxation(Q, c, A1, np.array([1.0, 2.0]))
    assert p1.ell == 1
    A2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p2 = gen_bqp_relaxation(Q, c, A2, np.array([1.0, 1.0]))
    assert p2.ell == 2


def test_bqp_pattern_is_star_plus_quadratic_support():
    p = gen_bqp_relaxation(np.eye(3), np.zeros(3))
    assert p.pattern.edges == frozenset({(1, 2), (1, 3), (1, 4)})
    Q = np.eye(3)
    Q[0, 1] = Q[1, 0] = 1.0
    q = gen_bqp_relaxation(Q, np.zeros(3))
    assert (2, 3) in q.pattern.edges


def test_bqp_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_bqp_relaxation(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        gen_bqp_relaxation(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        gen_bqp_relaxation(np.eye(3), np.zeros(3), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        gen_bqp_relaxation(np.eye(3), np.zeros(3), binary_set=(4,))


def test_phi_witness_matrix_shape_and_rank():
    for ell in (1, 2, 3):
        M = phi_witness_matrix(ell)
        assert M.shape == (2 * ell, 2 * ell)
        assert np.abs(M - M.T).max() == 0.0
        assert np.linalg.eigvalsh(M)[0] > -1e-12
        # full coupling would force rank 2l; the halved corner saves l-1
        assert _rank(M) == ell + 1
    assert np.abs(phi_witness_matrix(1)
                  - np.array([[1.0, 0.5], [0.5, 1.0]])).max() == 0.0


def test_coupling_singular_values_match_svd():
    rng = np.random.default_rng(11)
    for alpha in (0.5, 1.0, 0.3, 2.0):
        for _ in range(50):
            beta = float(rng.uniform(-3.0, 3.0))
            s = np.linalg.svd(np.array([[1.0, beta], [-beta, alpha]]),
                              compute_uv=False)
            hi, lo = coupling_singular_values(alpha, beta)
            assert abs(hi - s[0]) < 1e-12
            assert abs(lo - s[1]) < 1e-12


def test_phi_witness_slice_pins_its_point():
    for ell in (1, 2, 3):
        mats, rhs, X = phi_witness_slice(ell)
        assert len(mats) == 3 * ell * (ell + 1) // 2
        for M, r in zip(mats, rhs):
            assert abs(float(np.sum(M * X)) - r) < 1e-12
    with pytest.raises(ValueError):
        phi_witness_slice(0)


def test_lb_small_identity_is_the_witness():
    for ell in (1, 2, 3):
        p = gen_lb_small(ell)
        validate_problem(p)
        assert p.n == ell + 1
        assert p.m == (ell + 1) + ell * (ell + 1) // 2
        ok, rep = is_feasible(p, factored(np.eye(ell + 1)), tol=1e-10)
        assert ok, rep
    with pytest.raises(ValueError):
        gen_lb_small(0)


def test_lb_padded_identity_point_and_pattern():
    base = gen_lb_small(2)
    p = gen_lb_padded(base, sigma=2, n_hat=7)
    validate_problem(p)
    assert p.n == 7 and p.ell == base.ell
    ok, rep = is_feasible(p, factored(np.eye(7)), tol=1e-10)
    assert ok, rep
    adj = p.pattern.adjacency()
    for s in (4, 5):
        assert set(range(1, 4)) <= adj[s]
    assert not adj[6] and not adj[7]  # spare vertices stay isolated
    assert np.abs(p.factor[3:]).max() == 0.0


def test_lb_padded_guards():
    base = gen_lb_small(1)
    assert gen_lb_padded(base, 0, base.n) is base
    with pytest.raises(ValueError):
        gen_lb_padded(base, 2, base.n + 1)
    with pytest.raises(ValueError):
        gen_lb_padded(base, -1, base.n)


def test_lb_tree_point_feasible_and_high_rank():
    for ell in (1, 2):
        p = gen_lb_tree(ell)
        validate_problem(p)
        assert p.n == 6 * ell
        X = lb_tree_feasible_point(ell)
        assert np.linalg.eigvalsh(X)[0] > -1e-12
        ok, rep = is_feasible(p, factored(X), tol=1e-9)
        assert ok, rep
        # pattern width stays low while the witness rank does not
        assert _rank(X) == 4 * ell + 1


def test_lb_tree_pattern_width():
    p = gen_lb_tree(1)
    assert brute_force_treewidth(p.pattern) == 2


def test_lb_tree_rejects_bad_blocks():
    with pytest.raises(ValueError):
        gen_lb_tree(0)


def test_all_generators_validate():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        edges = [(i, i + 1) for i in range(1, n)]
        extra = [(int(a), int(b)) for a, b in rng.integers(1, n + 1, (3, 2))
                 if a != b]
        g = Graph.from_edges(n, edges + [(min(a, b), max(a, b)) for a, b in extra])
        validate_problem(gen_min_bisection(g))
        validate_problem(gen_simex(n, rng.normal(size=n) + 2.0))
    validate_problem(gen_lb_tree(2))
