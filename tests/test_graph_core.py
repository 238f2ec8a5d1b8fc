from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splrsdp.chordal_conversion import convert_problem
from splrsdp.graph_core import (
    Graph,
    TreeDecomposition,
    _mcs_order,
    chordal_complete,
    clique_tree,
    read_graph,
    root_binary,
    to_binary,
    width,
)
from splrsdp.sparse_extension import canonical_relabel

from conftest import (CHORDAL12_CLIQUES, brute_force_treewidth, is_chordal,
                      random_splr_problem, random_valid_td,
                      validate_decomposition, write_graph)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_from_edges_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 1), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])


def test_graph_text_roundtrip(tmp_path):
    g = Graph.from_edges(5, [(1, 2), (2, 5), (3, 4)])
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        write_graph(g, fh)
    g2 = read_graph(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_read_graph_rejects_bad_counts(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n")
    with pytest.raises(ValueError):
        read_graph(path)


def test_width_and_empty_bags():
    td = TreeDecomposition(nodes=(1,), edges=frozenset(), bags={1: frozenset({1, 2})})
    assert width(td) == 1
    with pytest.raises(ValueError):
        width(TreeDecomposition(nodes=(), edges=frozenset(), bags={}))


def test_validate_decomposition_accepts_path_cover():
    g = path_graph(4)
    td = TreeDecomposition(
        nodes=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3)}),
        bags={1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({3, 4})},
    )
    assert validate_decomposition(td, g)


def test_validate_decomposition_rejects_broken_inputs():
    g = path_graph(3)
    good = TreeDecomposition(
        nodes=(1, 2),
        edges=frozenset({(1, 2)}),
        bags={1: frozenset({1, 2}), 2: frozenset({2, 3})},
    )
    assert validate_decomposition(good, g)
    # missing edge cover
    bad_edge = TreeDecomposition(
        nodes=(1, 2),
        edges=frozenset({(1, 2)}),
        bags={1: frozenset({1, 2}), 2: frozenset({3})},
    )
    assert not validate_decomposition(bad_edge, g)
    # vertex 3 missing entirely
    bad_vertex = TreeDecomposition(
        nodes=(1,), edges=frozenset(), bags={1: frozenset({1, 2})}
    )
    assert not validate_decomposition(bad_vertex, g)
    # running intersection broken: vertex 1 in two disconnected bags
    bad_ri = TreeDecomposition(
        nodes=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3)}),
        bags={1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1, 3})},
    )
    assert not validate_decomposition(bad_ri, g)
    # not a tree (cycle)
    bad_tree = TreeDecomposition(
        nodes=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3), (1, 3)}),
        bags={1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1, 3})},
    )
    assert not validate_decomposition(bad_tree, g)


def _valid_by_definition(td, g):
    """Reference check: a tree, bags inside 1..n covering every vertex and
    edge, and one breadth-first search per vertex over the nodes holding
    it to see that they are connected."""
    nodes = set(td.nodes)
    if not nodes or set(td.bags) != nodes or len(td.edges) != len(nodes) - 1:
        return False
    if any(a not in nodes or b not in nodes for a, b in td.edges):
        return False
    adj = {t: set() for t in nodes}
    for a, b in td.edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected(ts):
        start = next(iter(ts))
        seen, queue = {start}, deque([start])
        while queue:
            for u in adj[queue.popleft()] & ts - seen:
                seen.add(u)
                queue.append(u)
        return seen == ts

    occ = {}
    for t in nodes:
        for v in td.bags[t]:
            occ.setdefault(v, set()).add(t)
    return (connected(nodes) and set(occ) == set(range(1, g.n + 1))
            and all(occ[i] & occ[j] for i, j in g.edges)
            and all(connected(ts) for ts in occ.values()))


def _mutated(rng, g, td, kind):
    """td and g with one change of the given kind."""
    bags = dict(td.bags)
    edges = set(g.edges)
    t = int(rng.choice(td.nodes))
    if kind == "remove" and bags[t]:
        bags[t] = bags[t] - {int(rng.choice(sorted(bags[t])))}
    elif kind == "add":
        bags[t] = bags[t] | {int(rng.integers(1, g.n + 1))}
    elif kind == "split":
        # a vertex added to a node far from its occurrences
        v = int(rng.integers(1, g.n + 1))
        near = {s for s in td.nodes if v in bags[s]}
        near |= {b if a in near else a for a, b in td.edges
                 if (a in near) != (b in near)}
        far = [s for s in td.nodes if s not in near]
        if far:
            s = int(rng.choice(far))
            bags[s] = bags[s] | {v}
    elif kind == "uncover":
        pairs = [(i, j) for i in range(1, g.n + 1)
                 for j in range(i + 1, g.n + 1) if (i, j) not in edges]
        if pairs:
            edges.add(pairs[int(rng.integers(len(pairs)))])
    elif kind == "reroot":
        return g, TreeDecomposition(nodes=td.nodes, edges=td.edges,
                                    bags=bags, root=t)
    return (Graph(g.n, frozenset(edges)),
            TreeDecomposition(nodes=td.nodes, edges=td.edges, bags=bags))


def test_validate_decomposition_matches_the_definition():
    rng = np.random.default_rng(23)
    kinds = ("none", "remove", "add", "split", "uncover", "reroot")
    verdicts = {kind: set() for kind in kinds}
    for _ in range(120):
        g, td = random_valid_td(rng, int(rng.integers(1, 10)))
        for kind in kinds:
            mg, mtd = _mutated(rng, g, td, kind)
            want = _valid_by_definition(mtd, mg)
            assert validate_decomposition(mtd, mg) == want, kind
            verdicts[kind].add(want)
    assert verdicts["none"] == verdicts["reroot"] == {True}
    for kind in ("remove", "add", "split", "uncover"):
        assert False in verdicts[kind], kind


def test_chordal_complete_produces_chordal_supergraph():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        h, order = chordal_complete(g)
        assert g.edges <= h.edges
        assert is_chordal(h)
        assert sorted(order) == list(range(1, n + 1))


def test_chordal_complete_cycle_is_deterministic():
    h, order = chordal_complete(cycle_graph(5))
    h2, order2 = chordal_complete(cycle_graph(5))
    assert h.edges == h2.edges and order == order2
    # min degree on C5 starts at vertex 1 and fills (2,5)
    assert order[0] == 1
    assert (2, 5) in h.edges


def test_is_chordal_known_cases():
    assert is_chordal(path_graph(6))
    assert is_chordal(complete_graph(5))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(6))


def test_clique_tree_rejects_non_chordal():
    with pytest.raises(ValueError):
        clique_tree(cycle_graph(4))
    # on random graphs, clique_tree refuses exactly the graphs that the
    # pair-by-pair elimination check finds not chordal
    rng = np.random.default_rng(29)
    verdicts = set()
    for _ in range(300):
        n, q = int(rng.integers(1, 16)), rng.uniform(0.1, 0.7)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < q]
        g = Graph.from_edges(n, edges)
        chordal = is_chordal(g)
        verdicts.add(chordal)
        if chordal:
            assert validate_decomposition(clique_tree(g), g)
        else:
            with pytest.raises(ValueError, match="not chordal"):
                clique_tree(g)
    assert verdicts == {True, False}


def test_clique_tree_path():
    g = path_graph(5)
    td = clique_tree(g)
    assert set(td.bags.values()) == {frozenset({i, i + 1}) for i in range(1, 5)}
    assert validate_decomposition(td, g)
    assert width(td) == 1


def test_clique_tree_chordal12(chordal12):
    td = clique_tree(chordal12)
    assert set(td.bags.values()) == set(CHORDAL12_CLIQUES)
    assert len(td.nodes) == 8
    assert validate_decomposition(td, chordal12)
    assert width(td) == 3


def test_clique_tree_random_chordal_valid():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.25]
        h, _ = chordal_complete(Graph.from_edges(n, edges))
        td = clique_tree(h)
        assert validate_decomposition(td, h)
        # bags are exactly the maximal cliques: pairwise incomparable
        bags = list(td.bags.values())
        for a in bags:
            assert sum(1 for b in bags if a <= b) == 1


def scan_min_degree(g):
    """Reference minimum-degree fill-in: a full scan for the next vertex."""
    adj = g.adjacency()
    remaining = set(adj)
    fill = set(g.edges)
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        order.append(v)
        nbrs = sorted(adj[v])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                x, y = nbrs[a], nbrs[b]
                if y not in adj[x]:
                    adj[x].add(y)
                    adj[y].add(x)
                    fill.add((x, y))
        for u in nbrs:
            adj[u].discard(v)
        remaining.remove(v)
    return fill, tuple(order)


def scan_mcs(g):
    """Reference maximum cardinality search: a full scan for the next vertex."""
    adj = g.adjacency()
    weight = {v: 0 for v in adj}
    visited = []
    unvisited = set(adj)
    while unvisited:
        v = max(unvisited, key=lambda u: (weight[u], -u))
        visited.append(v)
        unvisited.remove(v)
        for u in adj[v] & unvisited:
            weight[u] += 1
    return visited


def maximal_cliques_by_id(h):
    """Node id -> maximal clique of a chordal graph, ids in elimination
    order of each clique's first vertex."""
    adj = h.adjacency()
    peo = scan_mcs(h)[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    cand = {frozenset({v} | {u for u in adj[v] if pos[u] > pos[v]}) for v in peo}
    maximal = [c for c in cand if not any(c < d for d in cand)]
    maximal.sort(key=lambda c: min(pos[v] for v in c))
    return {t + 1: c for t, c in enumerate(maximal)}


def prim_max_spanning_weight(bags):
    """Weight of a maximum spanning tree of the complete graph on the bags,
    an edge weighing the size of its bags' intersection."""
    ids = sorted(bags)
    best = {t: len(bags[t] & bags[ids[0]]) for t in ids[1:]}
    total = 0
    while best:
        t = max(best, key=best.get)
        total += best.pop(t)
        for u in best:
            best[u] = max(best[u], len(bags[u] & bags[t]))
    return total


@st.composite
def graphs(draw):
    """Random graphs on up to 40 vertices, often disconnected or with
    isolated vertices."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=3 * n))
    return Graph.from_edges(n, [(i, j) for i, j in pairs if i != j])


@given(g=graphs())
def test_front_end_matches_scan_oracles(g):
    fill, order = scan_min_degree(g)
    h, got = chordal_complete(g)
    assert h.edges == fill and got == order
    assert _mcs_order(g) == scan_mcs(g)
    assert _mcs_order(h) == scan_mcs(h)
    td = clique_tree(h)
    assert td.bags == maximal_cliques_by_id(h)
    assert validate_decomposition(td, h)
    # a spanning tree of the cliques is a clique tree iff its weight is the
    # maximum, which checks the tree edges and not only the bags
    assert sum(len(td.bags[a] & td.bags[b]) for a, b in td.edges) == \
        prim_max_spanning_weight(td.bags)


def test_clique_tree_chains_the_components_of_a_forest():
    # a triangle, an edge and two isolated vertices
    g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5)])
    td = clique_tree(g)
    assert td.bags == {1: frozenset({7}), 2: frozenset({6}),
                       3: frozenset({4, 5}), 4: frozenset({1, 2, 3})}
    assert td.edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert validate_decomposition(td, g)
    p = random_splr_problem(np.random.default_rng(0), 7, 1, graph=g)
    _, _, report = convert_problem(p)
    assert report["width_before"] == 2


def test_clique_tree_of_completed_long_cycle_is_a_fan_path():
    n = 2000
    h, _ = chordal_complete(cycle_graph(n))
    td = clique_tree(h)
    bags = list(td.bags.values())
    assert len(bags) == n - 2 and all(len(b) == 3 for b in bags)
    assert max(map(len, td.neighbors().values())) == 2
    assert len(frozenset.intersection(*bags)) == 1
    assert validate_decomposition(td, h)


def test_brute_force_treewidth_known_values(chordal12):
    assert brute_force_treewidth(Graph.from_edges(1, [])) == 0
    assert brute_force_treewidth(path_graph(6)) == 1
    assert brute_force_treewidth(cycle_graph(6)) == 2
    assert brute_force_treewidth(complete_graph(5)) == 4
    # K_{3,3}
    k33 = Graph.from_edges(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    assert brute_force_treewidth(k33) == 3
    # 3x3 grid
    grid = Graph.from_edges(9, [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
                                (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)])
    assert brute_force_treewidth(grid) == 3
    assert brute_force_treewidth(chordal12) == 3
    with pytest.raises(ValueError):
        brute_force_treewidth(path_graph(13))


def test_brute_force_matches_clique_tree_on_chordal():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.35]
        h, _ = chordal_complete(Graph.from_edges(n, edges))
        # for chordal graphs the clique tree width is the treewidth
        assert width(clique_tree(h)) == brute_force_treewidth(h)


def star_td(k):
    """Hub node 1 with k leaves, all bags {1, 2}."""
    nodes = tuple(range(1, k + 2))
    edges = frozenset((1, t) for t in range(2, k + 2))
    bags = {t: frozenset({1, 2}) for t in nodes}
    return TreeDecomposition(nodes=nodes, edges=edges, bags=bags)


def split_vertex(td, x):
    """Reference split: td rebuilt with node x, of degree k >= 4, replaced
    by a path of k copies of its bag, neighbour i (ascending id) on the
    i-th copy."""
    adj = td.neighbors()
    nbrs = sorted(adj[x])
    k = len(nbrs)
    if k < 4:
        raise ValueError("node %d has degree %d < 4" % (x, k))
    base = max(td.nodes)
    new_ids = [base + i + 1 for i in range(k)]
    nodes = tuple(t for t in td.nodes if t != x) + tuple(new_ids)
    bags = {t: td.bags[t] for t in td.nodes if t != x}
    for t in new_ids:
        bags[t] = td.bags[x]
    edges = {e for e in td.edges if x not in e}
    for a, b in zip(new_ids, new_ids[1:]):
        edges.add((a, b))
    for y, t in zip(nbrs, new_ids):
        edges.add((min(y, t), max(y, t)))
    return TreeDecomposition(nodes=nodes, edges=frozenset(edges), bags=bags)


def split_to_binary(td):
    """Reference to_binary: one whole-tree split_vertex per node of td of
    degree >= 4, smallest id first."""
    out = td
    for x in sorted(t for t, a in td.neighbors().items() if len(a) >= 4):
        out = split_vertex(out, x)
    return out


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 60),
       leaves=st.integers(0, 39))
def test_to_binary_matches_the_split_oracle(seed, p, leaves):
    _, td = random_valid_td(np.random.default_rng(seed), p)
    for tree in (td, star_td(leaves)):
        want, got = split_to_binary(tree), to_binary(tree)
        assert got.nodes == want.nodes and got.edges == want.edges
        assert list(got.bags.items()) == list(want.bags.items())
        assert got.root == want.root


def test_split_vertex_star():
    out = to_binary(star_td(5))
    assert len(out.nodes) == 10
    deg = {t: 0 for t in out.nodes}
    for a, b in out.edges:
        deg[a] += 1
        deg[b] += 1
    assert max(deg.values()) <= 3
    # leaf 2 hangs off the first copy, leaf 6 off the last
    assert (2, 7) in out.edges and (6, 11) in out.edges
    with pytest.raises(ValueError):
        split_vertex(out, 7)
    assert to_binary(out) is out


def test_to_binary_preserves_validity_width_and_bounds():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = int(rng.integers(1, 40))
        g, td = random_valid_td(rng, p)
        out = to_binary(td)
        deg = {t: 0 for t in out.nodes}
        for a, b in out.edges:
            deg[a] += 1
            deg[b] += 1
        assert max(deg.values(), default=0) <= 3
        assert len(out.nodes) <= 2 * p
        assert width(out) == width(td)
        assert validate_decomposition(out, g)


def test_root_binary_defaults_and_orientation():
    # path decomposition: root at the smallest-id endpoint
    td = TreeDecomposition(
        nodes=(1, 2, 3),
        edges=frozenset({(1, 2), (2, 3)}),
        bags={t: frozenset({t}) for t in (1, 2, 3)},
    )
    rooted = root_binary(td)
    assert rooted.root == 1
    assert rooted.parent(1) is None
    assert rooted.parent(3) == 2
    assert rooted.children(1) == [2]
    # re-rooted at the far end: the copy orients afresh, it does not keep
    # the orientation from 1
    other = replace(rooted, root=3)
    assert other.root == 3 and other.children(3) == [2]
    assert other.parent(3) is None and other.parent(1) == 2
    assert other.postorder() == [1, 2, 3]
    assert canonical_relabel(other).bags == {1: {1}, 2: {2}, 3: {3}}
    # postorder puts children before parents, root last
    order = rooted.postorder()
    assert order[-1] == 1
    seen = set()
    for t in order:
        for c in rooted.children(t):
            assert c in seen
        seen.add(t)


def test_replace_root_orients_like_a_fresh_tree():
    rng = np.random.default_rng(29)
    for _ in range(40):
        _, td = random_valid_td(rng, int(rng.integers(1, 25)))
        td = root_binary(to_binary(td))
        td.postorder()  # orient before every copy
        for r in td.nodes:
            got = replace(td, root=r)
            want = TreeDecomposition(nodes=td.nodes, edges=td.edges,
                                     bags=td.bags, root=r)
            for t in td.nodes:
                assert got.parent(t) == want.parent(t)
                assert got.children(t) == want.children(t)
            assert got.postorder() == want.postorder()
            a, b = canonical_relabel(got), canonical_relabel(want)
            assert (a.nodes, a.edges, a.root) == (b.nodes, b.edges, b.root)
            assert list(a.bags.items()) == list(b.bags.items())


def test_root_binary_branching_tree():
    # node 2 has degree 3, so default root is node 1
    td = TreeDecomposition(
        nodes=(1, 2, 3, 4),
        edges=frozenset({(1, 2), (2, 3), (2, 4)}),
        bags={t: frozenset({t}) for t in (1, 2, 3, 4)},
    )
    rooted = root_binary(td)
    assert rooted.root == 1


def test_root_binary_rejects_high_degree():
    with pytest.raises(ValueError):
        root_binary(star_td(5))
