import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splrsdp import sparse_extension
from splrsdp.chordal_conversion import convert_problem
from splrsdp.graph_core import (
    Graph,
    TreeDecomposition,
    chordal_complete,
    clique_tree,
    root_binary,
    to_binary,
    width,
)
from splrsdp.instances import gen_simex
from splrsdp.sdp_model import (
    Constraint,
    FactoredSolution,
    SparseSymMatrix,
    SplrSdp,
    Term,
    eval_objective,
)
from splrsdp.sparse_extension import (
    build_extended_pattern,
    build_extension,
    canonical_relabel,
    extend_solution,
    null_residuals,
    restrict_solution,
    verify_extension,
)

from conftest import (aux, eval_constraint, eval_extended, ext_bags,
                      random_splr_problem, random_valid_td,
                      validate_decomposition, w_sets)


def singleton_path_problem(n, a, b):
    """Empty pattern, rank-one row <aa^T, X> = b, unit diagonal."""
    g = Graph.from_edges(n, [])
    norm = float(np.linalg.norm(a))
    factor = (np.asarray(a, dtype=float) / norm).reshape(n, 1)
    cons = [Constraint(SparseSymMatrix.from_entries(n, [(i, i, 1.0)]),
                       np.zeros((1, 1)), 1.0, 1.0) for i in range(1, n + 1)]
    cons.append(Constraint(SparseSymMatrix(n, {}), np.array([[norm ** 2]]), b, b))
    obj = Term(SparseSymMatrix(n, {}), np.zeros((1, 1)))
    return SplrSdp(n=n, ell=1, pattern=g, factor=factor, objective=obj,
                   constraints=cons)


def singleton_path_td(n):
    return TreeDecomposition(
        nodes=tuple(range(1, n + 1)),
        edges=frozenset((i, i + 1) for i in range(1, n)),
        bags={i: frozenset({i}) for i in range(1, n + 1)},
    )


def test_w_of_a_path_of_singleton_bags():
    p = singleton_path_problem(4, np.ones(4), 1.0)
    pat = build_extension(p, replace(singleton_path_td(4), root=4)).pattern
    assert w_sets(pat) == {t: {t} for t in range(1, 5)}


def test_w_of_overlapping_bags_rooted_at_an_end():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    p = random_splr_problem(np.random.default_rng(0), 4, 1, graph=g)
    td = TreeDecomposition(
        nodes=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3)}),
        bags={1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({3, 4})},
        root=1,
    )
    pat = build_extension(p, td).pattern
    # post-order puts the far end first: labels 1, 2, 3 are nodes 3, 2, 1
    assert w_sets(pat) == {1: {4}, 2: {3}, 3: {1, 2}}


def test_partition_bags_requires_root():
    # the bag partition W_t needs a root; build_extension refuses without one
    p = singleton_path_problem(3, np.ones(3), 1.0)
    with pytest.raises(ValueError, match="decomposition is not rooted"):
        build_extension(p, singleton_path_td(3))


def test_extended_pattern_arrays_equal_their_definitions():
    # W_t = bag(t) \ bag(parent(t)), W_t after W_t; auxiliary indices and
    # extended bags as ExtendedPattern defines them
    rng = np.random.default_rng(3)
    for _ in range(40):
        g, td = random_valid_td(rng, int(rng.integers(1, 25)))
        ell = int(rng.integers(0, 3))
        p = random_splr_problem(rng, g.n, ell, graph=g)
        pat = build_extension(p, root_binary(to_binary(td))).pattern
        ctd, w = pat.td, w_sets(pat)
        for t in ctd.nodes:
            par = ctd.parent(t)
            assert w[t] == set(ctd.bags[t]) - (
                set() if par is None else set(ctd.bags[par]))
        assert sorted(pat.held.tolist()) == list(range(1, g.n + 1))
        assert (np.diff(pat.owner) >= 0).all()
        bags = ext_bags(pat)
        for t in ctd.nodes:
            want = set(ctd.bags[t]).union(aux(pat, t), *(
                aux(pat, c) for c in ctd.children(t)))
            assert bags[t] == tuple(sorted(want))
        assert pat.index_j == aux(pat, pat.k)
        assert pat.n_ext == g.n + pat.k * ell


def test_canonical_relabel_children_before_parents():
    rng = np.random.default_rng(2)
    for _ in range(20):
        _, td = random_valid_td(rng, int(rng.integers(1, 25)))
        rooted = root_binary(to_binary(td))
        ctd = canonical_relabel(rooted)
        k = len(ctd.nodes)
        assert ctd.root == k and ctd.nodes == tuple(range(1, k + 1))
        for t in ctd.nodes:
            for c in ctd.children(t):
                assert c < t
        # bags carried over
        assert sorted(map(sorted, ctd.bags.values())) == sorted(map(sorted, rooted.bags.values()))


def test_extension_reproduces_worked_example():
    # empty pattern, one rank-one row: the extension must be the chain of
    # accumulator constraints [a_1, -1], [a_i, +1, -1] with the value pinned
    # on the last auxiliary index
    n = 6
    rng = np.random.default_rng(1)
    a = rng.standard_normal(n)
    p = singleton_path_problem(n, a, b=2.5)
    td = replace(singleton_path_td(n), root=n)
    ext = build_extension(p, td)
    pat = ext.pattern
    assert pat.k == n and pat.n_ext == 2 * n
    assert all(aux(pat, t) == (n + t,) for t in range(1, n + 1))
    bags = ext_bags(pat)
    assert bags[1] == (1, n + 1)
    for t in range(2, n + 1):
        assert bags[t] == (t, n + t - 1, n + t)
    assert pat.index_j == (2 * n,)
    ahat = p.factor[:, 0]
    A1 = ext.a_mats[1]
    assert np.allclose(A1[:, 0], [ahat[0], -1.0])
    for t in range(2, n + 1):
        At = ext.a_mats[t]  # rows ordered (t, n+t-1, n+t)
        assert np.allclose(At[:, 0], [ahat[t - 1], 1.0, -1.0])
    # width of the extended decomposition: 0 + 2*ell
    assert max(pat.bag_sizes) - 1 == 2


def test_extend_solution_accumulates_factor_products():
    n = 5
    rng = np.random.default_rng(7)
    a = rng.standard_normal(n)
    p = singleton_path_problem(n, a, b=1.0)
    td = replace(singleton_path_td(n), root=n)
    ext = build_extension(p, td)
    R = rng.standard_normal((n, 3))
    lifted = extend_solution(ext, FactoredSolution(R))
    ahat = p.factor[:, 0]
    # auxiliary row t = sum of ahat_i * R_i over i <= t
    for t in range(1, n + 1):
        expect = ahat[:t] @ R[:t]
        assert np.allclose(lifted.factor[n + t - 1], expect, atol=1e-12)
    res = null_residuals(ext, lifted)
    assert max(res.values()) < 1e-12
    back = restrict_solution(lifted, ext)
    assert np.array_equal(back.factor, R)


def test_extended_values_match_original():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(4, 20))
        ell = int(rng.integers(0, 4))
        p = random_splr_problem(rng, n, ell)
        h, _ = chordal_complete(p.pattern)
        td = root_binary(to_binary(clique_tree(h)))
        ext = build_extension(p, td)
        sol = FactoredSolution(rng.standard_normal((n, 3)))
        lifted = extend_solution(ext, sol)
        obj, vals = eval_extended(ext, lifted)
        assert np.isclose(obj, eval_objective(p, sol), atol=1e-9)
        for i in range(1, p.m + 1):
            assert np.isclose(vals[i - 1], eval_constraint(p, i, sol), atol=1e-9)
        if ell:
            assert max(null_residuals(ext, lifted).values()) < 1e-10


def test_extended_width_and_dimension_bounds():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        ell = int(rng.integers(1, 4))
        p = random_splr_problem(rng, n, ell, p_edge=0.2)
        h, _ = chordal_complete(p.pattern)
        base = clique_tree(h)
        td = root_binary(to_binary(base))
        full = build_extension(p, td)
        ext = full.pattern
        wid = width(base)
        ext_wid = max(ext.bag_sizes) - 1
        assert ext_wid <= wid + 3 * ell
        assert ext.n_ext == n + ext.k * ell
        assert ext.k <= 2 * len(base.nodes)
        # the extended bag tree is a valid decomposition of the extended data
        # support: pattern edges, the J x J core block and the support of
        # every accumulator row a a^T
        edges = set(p.pattern.edges)
        J = ext.index_j
        edges |= {(a, b) for a in J for b in J if a < b}
        bags = ext_bags(ext)
        for t, A in full.a_mats.items():
            bag = bags[t]
            for h in range(A.shape[1]):
                supp = [bag[r] for r in np.flatnonzero(A[:, h])]
                edges |= {(a, b) for a in supp for b in supp if a < b}
        etd = TreeDecomposition(nodes=ext.td.nodes, edges=ext.td.edges,
                                bags={t: frozenset(b) for t, b in bags.items()})
        assert validate_decomposition(etd, Graph.from_edges(ext.n_ext, edges))


def test_path_decomposition_gets_tighter_width():
    rng = np.random.default_rng(19)
    for n in (6, 10, 17):
        ell = int(rng.integers(1, 4))
        p = random_splr_problem(rng, n, ell, p_edge=0.0)
        # band pattern: bags {i, i+1} in a path
        edges = [(i, i + 1) for i in range(1, n)]
        p = SplrSdp(n=n, ell=ell, pattern=Graph.from_edges(n, edges),
                    factor=p.factor, objective=p.objective,
                    constraints=[c for c in p.constraints
                                 if not c.sparse.support()])
        td = root_binary(clique_tree(p.pattern))
        ext = build_extension(p, td).pattern
        wid = 1
        ext_wid = max(ext.bag_sizes) - 1
        assert ext_wid <= wid + 2 * ell
        assert ext.n_ext == n + ext.k * ell and ext.k == n - 1


def test_verify_extension_report():
    rng = np.random.default_rng(23)
    p = random_splr_problem(rng, 12, 2)
    h, _ = chordal_complete(p.pattern)
    td = root_binary(to_binary(clique_tree(h)))
    ext = build_extension(p, td)
    rep = verify_extension(p, ext, samples=25)
    assert rep["ok"]
    assert rep["max_null_residual"] <= 1e-10
    assert rep["max_value_mismatch"] <= 1e-9
    assert rep["max_restriction_error"] == 0.0


def test_verify_extension_gates_value_mismatch_relative_to_the_row():
    # rows scaled by 1e6 keep their relative rounding, so their absolute
    # mismatch (about 2e-8 here) passes a gate of 10 tol max(1, |value|)
    p = gen_simex(10)
    s = 1e6
    q = replace(p, constraints=[
        Constraint(SparseSymMatrix(c.sparse.n, {k: s * v for k, v in c.sparse.entries.items()}),
                   s * c.core, s * c.lower, s * c.upper) for c in p.constraints])
    ext, _, _ = convert_problem(q)
    rep = verify_extension(q, ext, samples=25)
    assert rep["ok"]
    assert rep["max_value_mismatch"] > 1e-9


def _loop_extend(ext, R):
    """extend_solution one node, column and vertex at a time."""
    pat = ext.pattern
    out = np.zeros((pat.n_ext, R.shape[1]))
    out[:pat.n] = R
    w = w_sets(pat)
    for t in range(1, pat.k + 1):
        for h in range(pat.ell):
            row = np.zeros(R.shape[1])
            for v in w[t]:
                row += ext.base.factor[v - 1, h] * R[v - 1]
            for j in pat.td.children(t):
                row += out[aux(pat, j)[h] - 1]
            out[aux(pat, t)[h] - 1] = row
    return out


def _loop_null_residuals(ext, L):
    """null_residuals one node at a time."""
    out = {}
    bags = ext_bags(ext.pattern)
    for t, A in ext.a_mats.items():
        G = A.T @ L[[v - 1 for v in bags[t]]]
        out[t] = float(np.abs(G @ G.T).max())
    return out


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 12),
       ell=st.integers(1, 2))
def test_lift_and_null_residuals_match_a_loop_reference(seed, nodes, ell):
    rng = np.random.default_rng(seed)
    g, td = random_valid_td(rng, nodes)
    p = random_splr_problem(rng, g.n, ell, graph=g)
    ext = build_extension(p, root_binary(to_binary(td)))
    # rank 0 included: the lift of X = 0 has no columns either
    R = rng.standard_normal((g.n, int(rng.integers(0, 4))))
    # same sums in the same order: bitwise equal
    L = extend_solution(ext, FactoredSolution(R)).factor
    assert np.array_equal(L, _loop_extend(ext, R))
    # at a point that is no lift the residuals are far from zero
    for F in (L, rng.standard_normal(L.shape)):
        got = null_residuals(ext, FactoredSolution(F))
        want = _loop_null_residuals(ext, F)
        assert list(got) == list(want)
        assert np.allclose(list(got.values()), list(want.values()),
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fault", ["aux sign", "factor row"])
def test_verify_extension_fails_on_a_broken_accumulator(monkeypatch, fault):
    rng = np.random.default_rng(29)
    p = random_splr_problem(rng, 12, 2)
    h, _ = chordal_complete(p.pattern)
    ext = build_extension(p, root_binary(to_binary(clique_tree(h))))
    pat = ext.pattern
    w = w_sets(pat)
    t = next(t for t in pat.td.nodes if w[t])
    bag = ext_bags(pat)[t]
    if fault == "aux sign":
        ext.a_mats[t][bag.index(aux(pat, t)[1]), 1] *= -1.0
    else:
        ext.a_mats[t][bag.index(min(w[t])), 0] += 0.5
    ranks = []

    def recording(ext, sol):
        ranks.append(sol.factor.shape[1])
        return extend_solution(ext, sol)

    monkeypatch.setattr(sparse_extension, "extend_solution", recording)
    rep = verify_extension(p, ext, samples=5)
    assert 1 <= min(ranks) and max(ranks) <= p.ell + 2
    assert rep["ok"] is False
    assert rep["max_null_residual"] > 1e-3
    assert rep["max_value_mismatch"] <= 1e-9


def test_verify_extension_memory_is_linear_in_n():
    # a sample's factor has at most ell + 2 columns; with its rank drawn up
    # to n, this call peaked at 164 MB
    p = gen_simex(2000)
    ext, _, _ = convert_problem(p)
    tracemalloc.start()
    try:
        rep = verify_extension(p, ext, samples=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"]
    assert peak < 4e6


def test_build_extension_rejects_bad_decomposition():
    p = singleton_path_problem(4, np.ones(4), 1.0)
    bad = TreeDecomposition(nodes=(1,), edges=frozenset(),
                            bags={1: frozenset({1, 2})}, root=1)
    with pytest.raises(ValueError, match="not valid for the problem pattern"):
        build_extension(p, bad)
    # running intersection broken: vertex 1 in two bags apart
    broken = TreeDecomposition(
        nodes=(1, 2, 3), edges=frozenset({(1, 2), (2, 3)}),
        bags={1: frozenset({1, 2}), 2: frozenset({3}), 3: frozenset({1, 4})},
        root=1)
    assert not validate_decomposition(broken, p.pattern)
    with pytest.raises(ValueError, match="not valid for the problem pattern"):
        build_extension(p, broken)
    # singleton bags on an edgeless pattern make every tree shape valid, so
    # only the shape check can reject the next two
    p5 = singleton_path_problem(5, np.ones(5), 1.0)
    bags = {t: frozenset({t}) for t in range(1, 6)}
    star = TreeDecomposition(nodes=tuple(range(1, 6)),
                             edges=frozenset((1, t) for t in range(2, 6)),
                             bags=bags, root=2)
    assert validate_decomposition(star, p5.pattern)
    with pytest.raises(ValueError, match="decomposition is not binary"):
        build_extension(p5, star)
    # no node above degree 3, but the root has three children
    claw = TreeDecomposition(nodes=(1, 2, 3, 4, 5),
                             edges=frozenset({(1, 2), (1, 3), (1, 4), (4, 5)}),
                             bags=bags, root=1)
    assert validate_decomposition(claw, p5.pattern)
    with pytest.raises(ValueError, match="root has more than two children"):
        build_extension(p5, claw)
    # a cycle, a cycle beside a separate edge (as many edges as a tree),
    # and a root that is no node
    cycle = replace(claw, edges=frozenset({(1, 2), (2, 3), (3, 4), (4, 5),
                                           (1, 5)}))
    split = replace(claw, edges=frozenset({(1, 2), (2, 3), (1, 3), (4, 5)}))
    for bad in (cycle, split):
        with pytest.raises(ValueError, match="decomposition is not a tree"):
            build_extension(p5, bad)
        assert not validate_decomposition(bad, p5.pattern)
    with pytest.raises(ValueError, match="decomposition is not rooted"):
        build_extension(p5, replace(claw, root=9))


def test_build_extension_refuses_exactly_what_validate_decomposition_does():
    # one vertex dropped from, or added to, a bag of a rooted binary tree
    rng = np.random.default_rng(31)
    verdicts = set()
    for _ in range(150):
        g, td = random_valid_td(rng, int(rng.integers(1, 12)))
        td = root_binary(to_binary(td))
        bags = dict(td.bags)
        t = int(rng.choice(td.nodes))
        v = int(rng.integers(1, g.n + 1))
        bags[t] = bags[t] ^ {v} if len(bags[t]) > 1 or v not in bags[t] \
            else bags[t]
        mtd = replace(td, bags=bags)
        p = random_splr_problem(rng, g.n, 1, graph=g, m_extra=1)
        valid = validate_decomposition(mtd, g)
        verdicts.add(valid)
        if valid:
            build_extension(p, mtd)
        else:
            with pytest.raises(ValueError,
                               match="not valid for the problem pattern"):
                build_extension(p, mtd)
    assert verdicts == {True, False}
