"""Synthetic instance generators with known ground-truth hierarchies.

Two families: a hierarchical random-walk network grown over a weighted
complete binary guide tree, and the two-stars-plus-clique construction on
which greedy seed selection provably loses a Theta(sqrt(N)) factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cascade import CascadeModel
from .decomposition import HierarchyTree, tree_from_nested
from .errors import CapacityError
from .graph import Graph
from ._rng import DOMAIN_HIER, generator


def gen_hierarchical(d: int, l: int, t: int, seed: int) -> tuple[Graph, HierarchyTree]:
    """Hierarchical network: t weighted guide-tree walks per leaf.

    Each of the 2^d leaves launches t random walks on the guide tree.  A
    walk leaves along an incident edge chosen with probability proportional
    to its weight (never the edge it arrived on; uniform if all candidate
    weights are zero) and stops at the first leaf it reaches.  Walks that
    return to their origin or duplicate an earlier target of the same
    origin are redrawn, so every vertex gains exactly t distinct neighbors
    before the directed edges are merged into a simple undirected graph.
    If zero-weight edges leave a vertex with fewer than t reachable
    targets, the redraw cap trips and a CapacityError is raised.

    Returns the graph and the guide tree's shape as the ground-truth
    decomposition.
    """
    if d < 1:
        raise ValueError("depth d must be >= 1")
    if l < 1:
        raise ValueError("weight parameter l must be >= 1")
    n = 2**d
    if not 0 <= t <= n - 1:
        raise ValueError(f"t={t} must lie in [0, 2^d - 1 = {n - 1}]")
    rng = generator(DOMAIN_HIER, seed)
    count = 2 ** (d + 1) - 1
    first = n - 1
    # Guide-tree nodes are heap-indexed: node i has children 2i+1 and 2i+2,
    # and leaf first + v stands for vertex v.  weights[i] is the weight of
    # the edge joining node i to its parent.
    weights = [0] + rng.binomial(l, 0.5, size=count - 1).tolist()

    edges: set[tuple[int, int]] = set()
    for v in range(n):
        targets: set[int] = set()
        # Zero-weight edges can make part of the leaf set unreachable, so a
        # vertex may be unable to collect t distinct targets at all; cap the
        # redraws instead of spinning forever.
        for _ in range(_REDRAW_CAP):
            if len(targets) == t:
                break
            terminal = _walk(v + first, first, count, weights, rng)
            if terminal >= 0 and terminal != v and terminal not in targets:
                targets.add(terminal)
        if len(targets) < t:
            raise CapacityError(
                f"vertex {v} cannot reach {t} distinct walk targets; "
                "zero-weight guide edges cut off too much of the tree"
            )
        for u in targets:
            edges.add((min(v, u), max(v, u)))
    parents = [-1] + [(i - 1) // 2 for i in range(1, count)]
    return Graph(n, edges), HierarchyTree(parents, [-1] * first + list(range(n)))


_WALK_STEP_CAP = 10**6
_REDRAW_CAP = 10**6


def _walk(start: int, first: int, count: int, weights: list[int], rng) -> int:
    """One guide-tree walk; returns the terminal leaf's vertex id, or -1
    if the step cap was hit (caller restarts)."""
    cur = start
    arrival = -1
    for _ in range(_WALK_STEP_CAP):
        cands = []
        if cur > 0 and cur != arrival:
            cands.append(cur)  # edge up to the parent, indexed by the child
        child = 2 * cur + 1
        if child < count:
            if child != arrival:
                cands.append(child)
            if child + 1 != arrival:
                cands.append(child + 1)
        total = sum(weights[c] for c in cands)
        if total == 0:
            pick = cands[int(rng.integers(len(cands)))]
        else:
            r = rng.random() * total
            acc = 0
            for pick in cands:
                acc += weights[pick]
                if r < acc:
                    break
        cur = (cur - 1) // 2 if pick == cur else pick
        arrival = pick
        if cur >= first:
            return cur - first
    return -1


@dataclass(frozen=True)
class WorstCaseInstance:
    """Two stars of size n^2+1 plus an n-clique, with the matching contagion.

    Single infected neighbors infect with probability 1/n^2 and two or more
    infect surely, so each star center is worth exactly 2 in expectation
    while any clique pair infects the whole clique.
    """

    graph: Graph
    model: CascadeModel
    truth_tree: HierarchyTree
    n: int


def gen_worstcase(n: int) -> WorstCaseInstance:
    """Instance with N = 2n^2 + n + 2 vertices and three components.

    Vertex layout: clique 0..n-1; first star center n with leaves
    n+1..n+n^2; second star center n+n^2+1 with leaves after it.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    clique = list(range(n))
    c1 = n
    star1 = [c1] + list(range(n + 1, n + n * n + 1))
    c2 = n + n * n + 1
    star2 = [c2] + list(range(c2 + 1, c2 + n * n + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j))
    edges.extend((c1, leaf) for leaf in star1[1:])
    edges.extend((c2, leaf) for leaf in star2[1:])
    graph = Graph(2 * n * n + n + 2, edges)

    # Balanced halves, with the first ceil(s/2) ids on the left.
    def balanced(ids):
        mid = (len(ids) + 1) // 2
        return ids[0] if len(ids) == 1 else (balanced(ids[:mid]), balanced(ids[mid:]))

    tree = tree_from_nested((balanced(clique), (balanced(star1), balanced(star2))))
    return WorstCaseInstance(graph, CascadeModel.twostep(1.0 / (n * n)), tree, n)
