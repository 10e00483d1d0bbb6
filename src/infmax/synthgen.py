"""Synthetic instance generators with known ground-truth hierarchies.

Two families: a hierarchical random-walk network grown over a weighted
complete binary guide tree, and the two-stars-plus-clique construction on
which greedy seed selection provably loses a Theta(sqrt(N)) factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cascade import CascadeModel
from .decomposition import HierarchyTree, tree_from_nested
from .errors import CapacityError
from .graph import Graph
from ._rng import DOMAIN_HIER, _integer, generator


def gen_hierarchical(d: int, l: int, t: int, seed: int) -> tuple[Graph, HierarchyTree]:
    """Hierarchical network: t weighted guide-tree walks per leaf.

    Each of the 2^d leaves launches t random walks on the guide tree.  A
    walk leaves along an incident edge chosen with probability proportional
    to its weight (never the edge it arrived on; uniform if all candidate
    weights are zero) and stops at the first leaf it reaches, which is never
    its origin.  Walks that duplicate an earlier target of the same origin
    are redrawn, so every vertex gains exactly t distinct neighbors before
    the directed edges are merged into a simple undirected graph.
    If zero-weight edges leave a vertex with fewer than t reachable
    targets, the redraw cap trips and a CapacityError is raised.

    The stream of (DOMAIN_HIER, seed) gives the weights, then one uniform
    per weighted walk step and one rng.integers per all-zero step, in vertex
    and walk order; _walk_edges reads it in chunks, to the same values.

    Returns the graph and the guide tree's shape as the ground-truth
    decomposition.
    """
    d, l, t = _integer(d, "d"), _integer(l, "l"), _integer(t, "t")
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
    parents = [-1] + [(i - 1) // 2 for i in range(1, count)]
    return Graph(n, _walk_edges(n, t, weights, rng)), HierarchyTree(parents, [-1] * first + list(range(n)))


_REDRAW_CAP = 10**6
# The most uniforms one rng.random call of _walk_edges draws.
_CHUNK = 1024


def _walk_edges(n: int, t: int, weights: list[int], rng) -> set[tuple[int, int]]:
    """The edges (v, u), v < u, of t distinct walk targets per leaf.

    A walk state is node + count * slot, slot naming the edge it arrived on
    (0, 1: from the left, right child; 2: from the parent).  A walk starts
    at its leaf in slot 0 and ends at a leaf reached from above, a state
    from stop on.  It has at most two candidate edges, so moves[state] is
    (a, b, cut, total): the next state over each (parent, left, right
    order), the first one's weight and their sum; a == b for one candidate.

    Uniforms come from chunks of rng.random(size), the doubles of one scalar
    call per weighted step; sizes double from 8 up to _CHUNK.  An all-zero
    step with two candidates first restores the state saved before the
    chunk and draws the pos uniforms used again, so rng.integers(2) sees the
    scalar walk's stream and uint32 buffer; with one candidate it draws
    nothing, as rng.integers(1) did not.
    """
    first, count = n - 1, 2 * n - 1
    moves = [None] * (3 * count)
    for node in range(count):
        up = (node - 1) // 2 + count * (1 - node % 2)
        if node >= first:  # a leaf: its walks start here and go up
            moves[node] = (up, up, weights[node], weights[node])
            continue
        left, right = 2 * node + 1, 2 * node + 2
        w, wl, wr = weights[node], weights[left], weights[right]
        dl, dr = left + 2 * count, right + 2 * count
        moves[node] = (up, dr, w, w + wr) if node else (dr, dr, wr, wr)
        moves[node + count] = (up, dl, w, w + wl) if node else (dl, dl, wl, wl)
        moves[node + 2 * count] = (dl, dr, wl, wl + wr)
    stop = 2 * count + first
    bits = rng.bit_generator
    saved, chunk, pos = None, [], 0
    edges = set()
    for v in range(n):
        targets: set[int] = set()
        # Zero-weight edges can make part of the leaf set unreachable, so a
        # vertex may be unable to collect t distinct targets at all; cap the
        # redraws instead of spinning forever.
        for _ in range(_REDRAW_CAP):
            if len(targets) == t:
                break
            state = first + v
            while state < stop:
                a, b, cut, total = moves[state]
                if total:
                    if pos == len(chunk):
                        saved, pos = bits.state, 0
                        chunk = rng.random(min(max(2 * len(chunk), 8), _CHUNK)).tolist()
                    # u * total < total: b exactly when the running sum passed a
                    state = a if chunk[pos] * total < cut else b
                    pos += 1
                elif a == b:
                    state = a
                else:
                    if pos < len(chunk):  # uniforms read ahead: give them back
                        bits.state = saved
                        rng.random(pos)
                    state = (a, b)[int(rng.integers(2))]
                    chunk, pos = [], 0
            targets.add(state - stop)
        if len(targets) < t:
            raise CapacityError(
                f"vertex {v} cannot reach {t} distinct walk targets; "
                "zero-weight guide edges cut off too much of the tree"
            )
        edges.update((min(v, u), max(v, u)) for u in targets)
    return edges


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
    n = _integer(n, "n")
    if n < 3:
        raise ValueError("n must be >= 3")
    clique = list(range(n))
    c1 = n
    star1 = [c1] + list(range(n + 1, n + n * n + 1))
    c2 = n + n * n + 1
    star2 = [c2] + list(range(c2 + 1, c2 + n * n + 1))
    edges = list(itertools.combinations(clique, 2))
    edges.extend((c1, leaf) for leaf in star1[1:])
    edges.extend((c2, leaf) for leaf in star2[1:])
    graph = Graph(2 * n * n + n + 2, edges)

    # Balanced halves, with the first ceil(s/2) ids on the left.
    def balanced(ids):
        mid = (len(ids) + 1) // 2
        return ids[0] if len(ids) == 1 else (balanced(ids[:mid]), balanced(ids[mid:]))

    tree = tree_from_nested((balanced(clique), (balanced(star1), balanced(star2))))
    return WorstCaseInstance(graph, CascadeModel("twostep", eps=1.0 / (n * n)), tree, n)
