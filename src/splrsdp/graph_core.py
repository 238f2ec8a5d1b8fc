"""Undirected graphs, tree decompositions, and chordal graph machinery.

Vertices are 1-based integers throughout, matching the text file format
("n m" header, one "i j" line per edge).  Tree decomposition nodes carry
integer ids; bags map node ids to vertex sets.  The tree shape checks the
other modules share (_binary_degrees, _two_child_nodes) live here.
"""

import heapq
from dataclasses import dataclass, replace
from functools import cached_property

__all__ = [
    "Graph",
    "TreeDecomposition",
    "read_graph",
    "width",
    "chordal_complete",
    "clique_tree",
    "to_binary",
    "root_binary",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; edges stored as (i, j), i < j."""

    n: int
    edges: frozenset

    @staticmethod
    def from_edges(n, edges):
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError("self-loop at vertex %d" % i)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("edge (%d, %d) outside 1..%d" % (i, j, n))
            norm.add((min(i, j), max(i, j)))
        return Graph(n, frozenset(norm))

    def adjacency(self):
        """Vertex -> set of neighbors, including isolated vertices."""
        adj = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Tree of bags.  `bags` maps node id -> frozenset of graph vertices.

    `root` is optional; parent/children/postorder need a root and are
    derived from (edges, root) alone, so a copy made by dataclasses.replace
    orients itself afresh.  Operations return new values.
    """

    nodes: tuple
    edges: frozenset
    bags: dict
    root: int = None

    def neighbors(self):
        adj = {t: set() for t in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @cached_property
    def _oriented(self):
        """(parent, children, postorder) from one walk down from the root.

        Children run in ascending id; the postorder puts children before
        parents (in ascending id) and the root last, the reverse of the
        preorder that visits children in descending id.  The walk is also
        the tree check: ValueError unless the root is a node and the edges
        form a tree on the keys of the bags.
        """
        nodes = set(self.nodes)
        if self.root not in nodes:
            raise ValueError("decomposition is not rooted")
        if set(self.bags) != nodes or len(self.edges) != len(nodes) - 1 \
                or any(a not in nodes or b not in nodes for a, b in self.edges):
            raise ValueError("decomposition is not a tree")
        adj = self.neighbors()
        parent, children, pre = {self.root: None}, {}, []
        # iterative, as large decompositions would blow the recursion limit
        stack = [self.root]
        while stack:
            t = stack.pop()
            pre.append(t)
            children[t] = kids = []
            for u in sorted(adj[t]):
                if u not in parent:
                    parent[u] = t
                    kids.append(u)
            stack.extend(kids)
        if len(pre) != len(nodes):
            raise ValueError("decomposition is not a tree")
        pre.reverse()
        return parent, children, pre

    def parent(self, t):
        return self._oriented[0][t]

    def children(self, t):
        return list(self._oriented[1][t])

    def postorder(self):
        """Node ids, children before parents (in ascending id), root last."""
        return list(self._oriented[2])


def read_graph(path):
    """Read the plain text format: first line "n m", then m lines "i j"."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("graph file too short")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise ValueError("expected %d edge tokens, got %d" % (2 * m, len(tokens) - 2))
    edges = []
    for e in range(m):
        edges.append((int(tokens[2 + 2 * e]), int(tokens[3 + 2 * e])))
    return Graph.from_edges(n, edges)


def width(td):
    """Largest bag size minus one."""
    if not td.bags:
        raise ValueError("decomposition has no bags")
    return max(len(b) for b in td.bags.values()) - 1


def _top_nodes(td, g):
    """Vertex -> its top node if the bags of the rooted tree td form a
    decomposition of g; None otherwise.  Keys run W_t by W_t in the order
    of td.bags, each W_t = bag(t) \\ bag(parent(t)) in its own order.

    One pass over the W_t (Blair & Peyton 1993): the nodes whose bag holds
    v form a subtree exactly when one of them, v's top node, is the root
    or has a parent whose bag lacks v, so the W_t partition 1..n exactly
    when the bags cover every vertex with running intersection.  Two such
    subtrees meet exactly when the top node of one vertex holds the other,
    which checks the edges.
    """
    top = {}
    for t, bag in td.bags.items():
        bag = frozenset(bag)
        par = td.parent(t)
        for v in (bag if par is None else bag.difference(td.bags[par])):
            if top.setdefault(v, t) != t:
                return None
    # bags live inside 1..n and cover every vertex
    if top.keys() != set(range(1, g.n + 1)):
        return None
    covered = all(j in td.bags[top[i]] or i in td.bags[top[j]]
                  for i, j in g.edges)
    return top if covered else None


def chordal_complete(g):
    """Minimum-degree fill-in.

    Returns (chordal supergraph, elimination order).  The order is a perfect
    elimination ordering of the returned graph.  Ties on degree break toward
    the smallest vertex index, so the result is deterministic.  The next
    vertex comes from a lazy heap of (degree, vertex): an entry is stale
    once its vertex is gone or its degree has moved.
    """
    adj = g.adjacency()
    heap = [(len(adj[v]), v) for v in adj]
    heapq.heapify(heap)
    fill = set(g.edges)
    order = []
    while heap:
        deg, v = heapq.heappop(heap)
        if v not in adj or deg != len(adj[v]):
            continue
        order.append(v)
        nbrs = list(adj.pop(v))
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                x, y = nbrs[a], nbrs[b]
                if y not in adj[x]:
                    adj[x].add(y)
                    adj[y].add(x)
                    fill.add((min(x, y), max(x, y)))
        for u in nbrs:
            adj[u].discard(v)
            heapq.heappush(heap, (len(adj[u]), u))
    return Graph(g.n, frozenset(fill)), tuple(order)


def _mcs_order(g):
    """Maximum cardinality search visit order (ties -> smallest index).

    Unvisited vertices sit in a lazy heap of (-weight, vertex), weight being
    the number of visited neighbours; an entry is stale once its vertex is
    visited or its weight has grown.
    """
    adj = g.adjacency()
    weight = dict.fromkeys(adj, 0)
    heap = [(0, v) for v in adj]
    visited = []
    done = set()
    while heap:
        w, v = heapq.heappop(heap)
        if v in done or -w != weight[v]:
            continue
        visited.append(v)
        done.add(v)
        for u in adj[v]:
            if u not in done:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return visited


def clique_tree(g):
    """Maximal cliques of a chordal graph arranged in a clique tree.

    One pass over the maximum cardinality search order (Blair & Peyton,
    "An introduction to chordal graphs and clique trees", 1993, sec. 4): a
    vertex with no more visited neighbours than the vertex before it starts
    a new clique, made of itself and those neighbours, whose parent is the
    clique holding the last visited of them.  Node ids are 1..p in
    elimination order of each clique's first vertex.  The trees of a
    disconnected graph are chained root to root in ascending id, so the
    result is one tree.

    The same pass decides chordality, as the zero fill-in test of Tarjan &
    Yannakakis (SIAM J. Comput. 1984) on the reverse visit order: the graph
    is chordal exactly when every visited neighbour of each vertex is
    adjacent to the last visited of them.  Raises ValueError otherwise.
    """
    order = _mcs_order(g)
    adj = g.adjacency()
    pos = {v: i for i, v in enumerate(order)}
    cliques, parent, home = [], [], {}
    prev = 0
    for v in order:
        seen = [u for u in adj[v] if pos[u] < pos[v]]
        last = max(seen, key=pos.get) if seen else None
        if any(u != last and u not in adj[last] for u in seen):
            raise ValueError("graph is not chordal")
        if len(seen) <= prev:
            cliques.append(set(seen))
            parent.append(home[last] if seen else None)
        cliques[-1].add(v)
        home[v] = len(cliques) - 1
        prev = len(seen)
    p = len(cliques)
    bags = {t: frozenset(cliques[p - t]) for t in range(1, p + 1)}
    edges = {(p - k, p - q) for k, q in enumerate(parent) if q is not None}
    roots = sorted(p - k for k, q in enumerate(parent) if q is None)
    edges.update(zip(roots, roots[1:]))
    return TreeDecomposition(nodes=tuple(range(1, p + 1)), edges=frozenset(edges),
                             bags=bags)


def to_binary(td):
    """Replace every node of degree k >= 4 by a path of k copies of its bag.

    In one pass over one adjacency map, as a split keeps every other
    node's degree: offenders in ascending id, each one's copies taking the
    next k ids, neighbour i (ascending id, earlier copies included) on
    copy i.  Untouched nodes keep their order, then come the copies.  Width
    is unchanged and the node count at most doubles; td without an
    offender comes back as is.
    """
    adj = td.neighbors()
    high = sorted(t for t in td.nodes if len(adj[t]) >= 4)
    if not high:
        return td
    nodes = [t for t in td.nodes if len(adj[t]) < 4]
    bags = {t: td.bags[t] for t in nodes}
    first = nxt = max(td.nodes) + 1
    for x in high:
        copies = range(nxt, nxt + len(adj[x]))
        nxt = copies.stop
        for y, c in zip(sorted(adj.pop(x)), copies):
            adj[y].remove(x)
            adj[y].add(c)
            adj[c] = {y}
        for a, b in zip(copies, copies[1:]):
            adj[a].add(b)
            adj[b].add(a)
        bags.update(dict.fromkeys(copies, td.bags[x]))
        nodes.extend(copies)
    # the input edges no split touched, then every edge at a copy
    edges = {e for e in td.edges if e[0] in adj and e[1] in adj}
    edges.update((min(c, y), max(c, y)) for c in range(first, nxt)
                 for y in adj[c])
    return TreeDecomposition(nodes=tuple(nodes), edges=frozenset(edges),
                             bags=bags)


def _binary_degrees(td):
    """Node id -> degree; ValueError if a node has degree > 3."""
    deg = {t: len(adj) for t, adj in td.neighbors().items()}
    if max(deg.values(), default=0) > 3:
        raise ValueError("decomposition is not binary (degree > 3)")
    return deg


def _two_child_nodes(td):
    """Sorted two-child nodes of a rooted tree; none on a path rooted at an end."""
    return [t for t in sorted(td.nodes) if len(td.children(t)) == 2]


def root_binary(td):
    """Pick a root of degree < 3 and orient the tree.

    For a path, the smallest-id endpoint; otherwise the smallest id among
    nodes of degree < 3.
    """
    deg = _binary_degrees(td)
    # a path (top degree <= 2) has its ends below degree 2
    low = max(max(deg.values(), default=0), 2)
    root = min(t for t in td.nodes if deg[t] < low)
    return replace(td, root=root)

