"""Seed selection: greedy, tree dynamic program, message passing, brute force.

An oracle answers sigma(seeds) with a SigmaEstimate and sigma_many(sets)
with the list [sigma(s) for s in sets], counting one call per set either
way.  A greedy round sends all its candidates in one sigma_many, and so do
the allocation steps of one height of the dynamic program or of one level
of a message passing down sweep (in batches of about _BATCH_SETS sets), so
the Monte Carlo oracle can run them through its kernel together; the
oracle sees the same queries in the same order as one step at a time.
Comparisons run against a common-random-numbers oracle so argmaxes are
noise-consistent; the sigma reported on the returned seed set always comes
from fresh independent draws (or is exact).
oracle_calls on the result counts only the queries made while optimizing,
not the final evaluation.  Every argmax takes the first maximal candidate,
so ties fall to the smallest id, share or subset.

There is one allocation step, _allocate: each budget's best split between
two directions with the third direction's seeds held fixed.  The dynamic
program runs it bottom-up with an empty third direction, and each message
passing update runs it on the sets the current advice retrieves, which a
_Sets memo composes and keeps.  The advice is a plain dict, (node,
direction pair, budget) -> (into first, into second), owned by one search;
absent entries read (0, 0).  At a node, L and R are its children's
subtrees and U is the rest of the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .cascade import (
    INDEPENDENT,
    ExactOracle,
    MonteCarloOracle,
    OracleConfig,
    SigmaEstimate,
)
from .decomposition import HierarchyTree
from .errors import CapacityError, ConsistencyError
from .graph import _key_union, _SeedKey, _seed_key
from ._rng import _integer

LR = ("L", "R")
LU = ("L", "U")
RU = ("R", "U")


@dataclass(frozen=True)
class SeedSet:
    """Chosen seeds with their final influence estimate.

    oracle_calls counts sigma queries made during optimization.  history is
    set only by the message passing schedule: the strictly increasing
    sequence of accepted objective values, starting at initialization.
    """

    vertices: frozenset[int]
    sigma: SigmaEstimate
    oracle_calls: int
    history: tuple[float, ...] | None = None


def _make_oracle(graph, model, cfg):
    if isinstance(cfg, (MonteCarloOracle, ExactOracle)):
        if cfg.graph is not graph:
            raise ConsistencyError("oracle was built for a different graph")
        if cfg.model != model:
            raise ConsistencyError(
                f"oracle was built for model {cfg.model.spec}, not {model.spec}"
            )
        return cfg
    if cfg == "exact":
        return ExactOracle(graph, model)
    if isinstance(cfg, OracleConfig):
        return MonteCarloOracle(graph, model, cfg)
    raise ValueError(f"cfg must be an OracleConfig, an oracle, or 'exact'; got {cfg!r}")


def _final_estimate(oracle, seeds) -> SigmaEstimate:
    """Influence of the final set under fresh draws (exact stays exact)."""
    if isinstance(oracle, ExactOracle):
        return oracle.sigma(seeds)
    cfg = oracle.cfg
    fresh = MonteCarloOracle(
        oracle.graph, oracle.model, OracleConfig(cfg.reps, cfg.master_seed, INDEPENDENT)
    )
    return fresh.sigma(seeds)


def _check(graph, k: int, tree: HierarchyTree | None = None) -> int:
    """Validated k; the tree, when given, must have one leaf per vertex."""
    k = _integer(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > graph.n:
        raise ValueError(f"k={k} exceeds vertex count {graph.n}")
    if tree is not None and tree.n_leaves != graph.n:
        raise ConsistencyError(
            f"tree has {tree.n_leaves} leaves but graph has {graph.n} vertices"
        )
    return k


def _search(graph, model, k: int, cfg, search, tree: HierarchyTree | None = None) -> SeedSet:
    """The one optimizer harness: validate, build the oracle, run
    search(oracle, k) -> (seeds, history) and count its queries.

    The final evaluation is uncounted, so greedy stays within n*k queries.
    """
    k = _check(graph, k, tree)
    oracle = _make_oracle(graph, model, cfg)
    start = oracle.calls
    seeds, history = search(oracle, k)
    calls = oracle.calls - start
    return SeedSet(frozenset(seeds), _final_estimate(oracle, seeds), calls, history)


def greedy(graph, model, k: int, cfg) -> SeedSet:
    """k rounds of marginal argmax; ties fall to the smallest vertex id."""

    def search(oracle, k):
        chosen: list[int] = []
        for _ in range(k):
            taken = set(chosen)
            candidates = [v for v in range(graph.n) if v not in taken]
            means = [est.mean for est in oracle.sigma_many([chosen + [v] for v in candidates])]
            chosen.append(candidates[means.index(max(means))])
        return chosen, None

    return _search(graph, model, k, cfg, search)


# Candidate sets _allocate queues before it sends a batch of whole steps to
# the oracle.  A batch closes once it holds this many, so the memory one
# sigma_many call holds stays bounded however many steps a level has.
_BATCH_SETS = 256

# The empty seed set, budget 0's entry in every row.
_NONE = _seed_key((), 0)


def _allocate(oracle, advice: dict, k: int, steps) -> list[list[_SeedKey]]:
    """Run each step (node, dpair, first, second, rest): for each budget i,
    write (j, ii - j) into advice[node, dpair, i] for the first share j whose
    set first[j] | second[ii - j] | rest[min(k - i, cap3)] has the largest
    sigma, where ii = min(i, cap1 + cap2) and each list holds one key per
    budget 0..cap.  A forced split makes no query.  The other candidates go
    to the oracle in step order, one sigma_many per batch of whole steps
    closed once _BATCH_SETS sets are queued, so the steps' sets must not
    depend on each other's advice.  Returns each step's chosen sets for the
    budgets i <= cap1 + cap2."""
    chosen, pending, queries = [], [], []

    def close():
        answers = iter(oracle.sigma_many(queries))
        for node, dpair, rows in pending:
            picks = []
            for i, ii, shares, sets in rows:
                pick = 0
                if len(sets) > 1:
                    means = [next(answers).mean for _ in sets]
                    pick = means.index(max(means))
                j = shares[pick]
                advice[node, dpair, i] = (j, ii - j)
                if i == ii:
                    picks.append(sets[pick])
            chosen.append(picks)
        pending.clear()
        queries.clear()

    for node, dpair, first, second, rest in steps:
        cap1, cap2, cap3 = len(first) - 1, len(second) - 1, len(rest) - 1
        rows = []
        for i in range(k + 1):
            ii, fixed = min(i, cap1 + cap2), rest[min(k - i, cap3)]
            shares = range(max(0, ii - cap2), min(ii, cap1) + 1)
            sets = [_key_union(first[j], second[ii - j], fixed) for j in shares]
            rows.append((i, ii, shares, sets))
            if len(sets) > 1:
                queries += sets
        pending.append((node, dpair, rows))
        if len(queries) >= _BATCH_SETS:
            close()
    if pending:
        close()
    return chosen


def _dp_fill(oracle, tree: HierarchyTree, k: int, advice: dict, keep: bool = False) -> dict[int, list[_SeedKey]]:
    """The bottom-up dynamic program; returns the rows by node, every node's
    if keep, else the root's alone.

    Row [i] of node v is the chosen i-subset of T(v); rows run up to
    min(|T(v)|, k), a leaf's to 1.  The internal nodes of one height read
    only rows below it, so they are one _allocate call.  Every split chosen
    at an internal node is written as its (L, R) advice; budgets past the
    subtree size get the clamped split (size(L), size(R)).
    """
    n = oracle.graph.n
    rows = {leaf: [_NONE, _seed_key((tree.leaf_vertex(leaf),), n)] for leaf in tree.nodes_at_height(0)}
    for h in range(1, tree.tree_height + 1):
        nodes = tree.nodes_at_height(h)
        steps = [(node, LR, rows[tree.left(node)], rows[tree.right(node)], [_NONE]) for node in nodes]
        if not keep:
            for node in nodes:
                del rows[tree.left(node)], rows[tree.right(node)]
        rows.update(zip(nodes, _allocate(oracle, advice, k, steps)))
    return rows


def dpim(graph, tree: HierarchyTree, model, k: int, cfg) -> SeedSet:
    """Bottom-up dynamic program over the decomposition tree.

    A[v, i] holds the best i seeds inside T(v); each internal row picks the
    left/right split maximizing global sigma, smallest split on ties.
    """

    def search(oracle, k):
        return _dp_fill(oracle, tree, k, {})[tree.root][k], None

    return _search(graph, model, k, cfg, search, tree)


def _follow(tree: HierarchyTree, node: int, direction: str):
    """Step one edge from node: (neighbor, pair excluding the way back,
    leaves on that side).  Stepping U from the root finds no neighbor (-1)
    and no leaves."""
    if direction == "U":
        parent = tree.parent(node)
        pair = RU if parent >= 0 and tree.left(parent) == node else LU
        return parent, pair, tree.n_leaves - tree.size(node)
    child = tree.left(node) if direction == "L" else tree.right(node)
    return child, LR, tree.size(child)


class _Sets:
    """The sets one search's advice retrieves, each composed once and kept.

    The set of (node, dpair, b) is the set of leaves reached by following
    the advice from there.  An (L, R) set is the union of the children's
    sets at the advised split, so lr_row(node) composes node's whole row,
    budgets 0..min(size, k), from its children's rows; lr keeps the rows by
    node, seeded with the dynamic program's.  A U-facing set, (L, U) or
    (R, U), is the union of that child's (L, R) set and the parent's set
    facing away from the node at the advised budget, or at the root the
    child's set alone; up keeps these by (node, dpair, budget).  Both walk
    explicit stacks, and a U walk stops where the budget reaches 0.

    A U-facing set reads the (L, R) rows it passes and the U rows of its
    node and the node's ancestors.  A down sweep starts with no U-facing set
    kept, rewrites only U rows, from the top level down, and a node's U rows
    are first read by the level below it: no write of a down sweep makes a
    kept set stale.  After the (L, R) row of x is rewritten, rewrote(x)
    drops every U-facing set and the (L, R) rows of x and its ancestors.
    Each kept (L, R) row was composed from its children's, which are kept
    too, so once a node has none kept, none of its ancestors has.
    """

    def __init__(self, tree: HierarchyTree, advice: dict, k: int, rows: dict):
        self.tree, self.advice, self.k = tree, advice, k
        self.lr = rows
        self.up: dict[tuple, _SeedKey] = {}

    def lr_row(self, node: int) -> list[_SeedKey]:
        """The (L, R) sets of node at budgets 0..min(size, k)."""
        tree, advice, lr = self.tree, self.advice, self.lr
        stack = [node]
        while stack:
            node = stack[-1]
            got = lr.get(node)
            if got is None:
                children = tree.left(node), tree.right(node)
                missing = [child for child in children if child not in lr]
                if missing:
                    stack += missing
                    continue
                first, second = lr[children[0]], lr[children[1]]
                got = lr[node] = [_NONE]
                for ell in range(1, min(len(first) + len(second) - 2, self.k) + 1):
                    s1, s2 = advice.get((node, LR, ell), (0, 0))
                    a, b = first[s1], second[s2]
                    got.append(_key_union(a, b) if a and b else a or b)
            stack.pop()
        return got

    def up_row(self, node: int, dpair, top: int) -> list[_SeedKey]:
        """The U-facing sets of (node, dpair) at budgets 0..top."""
        return [_NONE] + [self._up(node, dpair, ell) for ell in range(1, top + 1)]

    def rewrote(self, node: int) -> None:
        """Drop what rewriting node's (L, R) row can make stale."""
        self.up.clear()
        while self.lr.pop(node, None) is not None:
            node = self.tree.parent(node)

    def _up(self, node, dpair, ell):
        tree, up = self.tree, self.up
        walk, got = [], _NONE
        while ell > 0:
            got = up.get((node, dpair, ell))
            if got is not None:
                break
            child = tree.left(node) if dpair[0] == "L" else tree.right(node)
            if node == tree.root:
                got = self.lr_row(child)[ell]
                break
            s1, s2 = self.advice.get((node, dpair, ell), (0, 0))
            walk.append((node, dpair, ell, child, s1))
            node, dpair, _ = _follow(tree, node, "U")
            ell, got = s2, _NONE
        for node, dpair, ell, child, s1 in reversed(walk):
            a = self.lr_row(child)[s1]
            got = up[node, dpair, ell] = _key_union(a, got) if a and got else a or got
        return got


def _update(oracle, k: int, sets: _Sets, nodes, dpairs) -> None:
    """Rewrite row (node, dpair) of every node and dpair in one _allocate
    call, from the rows the advice retrieves in each node's three
    directions, read once before any row changes.  No walk from a node's
    neighbors reads the node's own rows, and one level of a down sweep reads
    only (L, R) rows and U rows of greater heights, so it is one call.  A
    node's (L, R) row is read by its sibling's U walks, and the sibling may
    have the same height, so an up sweep rewrites one node per call."""
    tree = sets.tree
    steps = []
    for node in nodes:
        lists = {}
        for direction in "LRU":
            neighbor, pair, leaves = _follow(tree, node, direction)
            top = min(leaves, k)
            lists[direction] = sets.lr_row(neighbor) if pair == LR else sets.up_row(neighbor, pair, top)
        for dpair in dpairs:
            (d3,) = {"L", "R", "U"} - set(dpair)
            steps.append((node, dpair, lists[dpair[0]], lists[dpair[1]], lists[d3]))
    _allocate(oracle, sets.advice, k, steps)
    if LR in dpairs:
        for node in nodes:
            sets.rewrote(node)


def mpa(graph, tree: HierarchyTree, model, k: int, cfg, max_outer: int = 20) -> SeedSet:
    """Message passing schedule over the decomposition tree.

    Initializes with the bottom-up dynamic program (all U advice zero),
    then sweeps the tree down and up, accepting the retrieved root set
    whenever its sigma strictly improves under the frozen comparison
    draws, until no improvement or max_outer sweeps.  Returns the best
    accepted set.  The down sweep rewrites the (L, U) and (R, U) rows of
    one level per _update call, the up sweep the (L, R) row of one node.
    """
    max_outer = _integer(max_outer, "max_outer")
    if max_outer < 0:
        raise ValueError("max_outer must be nonnegative")

    def search(oracle, k):
        advice: dict = {}
        sets = _Sets(tree, advice, k, _dp_fill(oracle, tree, k, advice, keep=True))
        seeds = sets.lr_row(tree.root)[k]
        history = [oracle.sigma(seeds).mean]
        for _ in range(max_outer):
            for h in range(tree.tree_height - 1, 0, -1):
                _update(oracle, k, sets, tree.nodes_at_height(h), (LU, RU))
            for h in range(1, tree.tree_height + 1):
                for node in tree.nodes_at_height(h):
                    _update(oracle, k, sets, (node,), (LR,))
            candidate = sets.lr_row(tree.root)[k]
            value = oracle.sigma(candidate).mean
            if value <= history[-1]:
                break
            seeds = candidate
            history.append(value)
        return seeds, tuple(history)

    return _search(graph, model, k, cfg, search, tree)


_BRUTE_FORCE_LIMIT = 10**6


def brute_force(graph, model, k: int, cfg="exact") -> SeedSet:
    """Exhaustive optimum over all k-subsets (lexicographically smallest
    winner on ties); guarded by a subset-count budget."""
    sets = math.comb(graph.n, _check(graph, k))
    if sets > _BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"brute force over {sets} subsets exceeds {_BRUTE_FORCE_LIMIT}"
        )

    def search(oracle, k):
        return max(combinations(range(graph.n), k), key=lambda s: oracle.sigma(s).mean), None

    return _search(graph, model, k, cfg, search)
