"""Seed selection: greedy, tree dynamic program, message passing, brute force.

All optimizers share one oracle protocol (sigma(seeds) -> SigmaEstimate plus
a calls counter).  Comparisons run against a common-random-numbers oracle so
argmaxes are noise-consistent; the sigma reported on the returned seed set
always comes from fresh independent draws (or is exact).  oracle_calls on
the result counts only the queries made while optimizing, not the final
evaluation.  Every argmax takes the first maximal candidate, so ties fall
to the smallest id, share or subset.

There is one allocation step, _allocate: each budget's best split between
two directions with the third direction's seeds held fixed.  The dynamic
program runs it bottom-up with an empty third direction, and each message
passing update runs it on the sets the current table retrieves.
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

LR = ("L", "R")
LU = ("L", "U")
RU = ("R", "U")
DIRECTION_PAIRS = (LR, LU, RU)


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
        return SigmaEstimate(oracle.value(seeds), 0.0, 0)
    cfg = oracle.cfg
    fresh = MonteCarloOracle(
        oracle.graph, oracle.model, OracleConfig(cfg.reps, cfg.master_seed, INDEPENDENT)
    )
    return fresh.sigma(seeds)


def _check(graph, k: int, tree: HierarchyTree | None = None) -> int:
    """Validated k; the tree, when given, must have one leaf per vertex."""
    k = int(k)
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
            chosen.append(max(
                (v for v in range(graph.n) if v not in taken),
                key=lambda v: oracle.sigma(chosen + [v]).mean,
            ))
        return chosen, None

    return _search(graph, model, k, cfg, search)


def _allocate(oracle, table: AllocationTable, node: int, dpair, k: int, first, second, rest) -> list[frozenset[int]]:
    """For each budget i, write (j, ii - j) into row (node, dpair) for the
    first share j whose set first[j] | second[ii - j] | rest[min(k - i, cap3)]
    has the largest sigma, where ii = min(i, cap1 + cap2) and each list
    holds one set per budget 0..cap.  A forced split makes no query.
    Returns the chosen sets for the budgets i <= cap1 + cap2."""
    cap1, cap2, cap3 = len(first) - 1, len(second) - 1, len(rest) - 1
    chosen = []
    for i in range(k + 1):
        ii, fixed = min(i, cap1 + cap2), rest[min(k - i, cap3)]
        shares = range(max(0, ii - cap2), min(ii, cap1) + 1)
        j = shares[0] if len(shares) == 1 else max(
            shares, key=lambda j: oracle.sigma(first[j] | second[ii - j] | fixed).mean
        )
        table.set(node, dpair, i, j, ii - j)
        if i == ii:
            chosen.append(first[j] | second[ii - j] | fixed)
    return chosen


def _dp_fill(oracle, tree: HierarchyTree, k: int, table: AllocationTable) -> list[frozenset[int]]:
    """The bottom-up dynamic program; returns the root's row.

    Row [i] of node v is the chosen i-subset of T(v); rows run up to
    min(|T(v)|, k), and a child's row is dropped once its parent has read
    it.  Every split chosen at an internal node is written into table as
    its (L, R) advice; budgets past the subtree size get the clamped split
    (size(L), size(R)).
    """
    rows: dict[int, list[frozenset[int]]] = {}
    for h in range(tree.tree_height + 1):
        for node in tree.nodes_at_height(h):
            node = int(node)
            if tree.is_leaf(node):
                rows[node] = [frozenset(), frozenset((tree.leaf_vertex(node),))][: k + 1]
            else:
                left, right = rows.pop(tree.left(node)), rows.pop(tree.right(node))
                rows[node] = _allocate(oracle, table, node, LR, k, left, right, [frozenset()])
    return rows[tree.root]


def dpim(graph, tree: HierarchyTree, model, k: int, cfg) -> SeedSet:
    """Bottom-up dynamic program over the decomposition tree.

    A[v, i] holds the best i seeds inside T(v); each internal row picks the
    left/right split maximizing global sigma, smallest split on ties.
    """

    def search(oracle, k):
        return _dp_fill(oracle, tree, k, AllocationTable(tree, k))[k], None

    return _search(graph, model, k, cfg, search, tree)


def _check_node(tree: HierarchyTree, node: int) -> None:
    if not 0 <= node < tree.node_count:
        raise ValueError(f"node {node} is outside the tree")


class AllocationTable:
    """Split advice A(node, direction pair, budget) -> (into first, into second).

    Directions at a node: L and R are its children's subtrees, U is
    everything outside its own subtree.  Only entries that were set are
    stored; every other entry reads (0, 0).  The root's U share is pinned
    to zero.
    """

    def __init__(self, tree: HierarchyTree, k: int):
        self.k = int(k)
        self._tree = tree
        self._data: dict[tuple[int, tuple, int], tuple[int, int]] = {}

    def _key(self, node: int, dpair, ell: int) -> tuple[int, tuple, int]:
        dpair = tuple(dpair)
        if dpair not in DIRECTION_PAIRS:
            raise ValueError(f"bad direction pair {dpair!r}")
        _check_node(self._tree, node)
        if not 0 <= ell <= self.k:
            raise ValueError(f"budget {ell} is outside 0..{self.k}")
        return (node, dpair, ell)

    def get(self, node: int, dpair, ell: int) -> tuple[int, int]:
        return self._data.get(self._key(node, dpair, ell), (0, 0))

    def set(self, node: int, dpair, ell: int, s1: int, s2: int) -> None:
        key = self._key(node, dpair, ell)
        if s1 < 0 or s2 < 0 or s1 + s2 > ell:
            raise ValueError(f"split ({s1}, {s2}) invalid for budget {ell}")
        if node == self._tree.root and key[1] != LR and s2 != 0:
            raise ValueError("root has no U side; its U share must be 0")
        self._data[key] = (int(s1), int(s2))


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


def retrieve_seeds(tree: HierarchyTree, table: AllocationTable, node: int, dpair, ell: int) -> frozenset[int]:
    """Follow the table's advice from (node, dpair, ell) to the leaves it reaches.

    The walk keeps an explicit stack of (node, dpair, ell) steps, so its
    depth is not bounded by Python's recursion limit.
    """
    _check_node(tree, node)
    found: list[int] = []
    stack = [(node, tuple(dpair), ell)]
    while stack:
        node, dpair, ell = stack.pop()
        if ell <= 0:
            continue
        if dpair == LR:
            if tree.is_leaf(node):
                found.append(tree.leaf_vertex(node))
            else:
                s1, s2 = table.get(node, LR, ell)
                stack += [(tree.left(node), LR, s1), (tree.right(node), LR, s2)]
            continue
        child = tree.left(node) if dpair[0] == "L" else tree.right(node)
        if node == tree.root:
            stack.append((child, LR, ell))
        elif not tree.is_leaf(node):
            s1, s2 = table.get(node, dpair, ell)
            stack.append((child, LR, s1))
            parent, pair, _ = _follow(tree, node, "U")
            stack.append((parent, pair, s2))
    return frozenset(found)


def _update(oracle, tree: HierarchyTree, k: int, table: AllocationTable, node: int, dpair) -> None:
    """Rewrite row (node, dpair) from the sets the table retrieves in the
    three directions.  No walk from node's neighbors reads node's own rows,
    so each direction's sets are retrieved once, before the row changes."""
    (d3,) = {"L", "R", "U"} - set(dpair)
    sets = []
    for direction in (*dpair, d3):
        neighbor, pair, leaves = _follow(tree, node, direction)
        sets.append([frozenset()] + [
            retrieve_seeds(tree, table, neighbor, pair, b) for b in range(1, min(leaves, k) + 1)
        ])
    _allocate(oracle, table, node, dpair, k, *sets)


def mpa_update(graph, tree: HierarchyTree, model, k: int, cfg, table: AllocationTable, node: int, dpair) -> AllocationTable:
    """One local table refresh at an internal node; returns the table.

    For each budget i the remaining k-i seeds are first pinned in the third
    direction per the current table, then σ picks the best split of i
    between the pair's directions (capacity-clamped, smallest first share
    on ties).
    """
    k = _check(graph, k, tree)
    if table.k != k or table._tree is not tree:
        raise ConsistencyError("allocation table was built for another tree or another k")
    dpair = tuple(dpair)
    if dpair not in DIRECTION_PAIRS:
        raise ValueError(f"bad direction pair {dpair!r}")
    _check_node(tree, node)
    if tree.is_leaf(node):
        raise ValueError("updates apply to internal nodes only")
    _update(_make_oracle(graph, model, cfg), tree, k, table, node, dpair)
    return table


def mpa_init_table(graph, tree: HierarchyTree, model, k: int, cfg) -> AllocationTable:
    """Allocation table after the bottom-up initialization sweep.

    The sweep is the dynamic program of dpim, so retrieving the root's
    (L, R) row from this table reproduces its choice for every budget.
    """
    k = _check(graph, k, tree)
    table = AllocationTable(tree, k)
    _dp_fill(_make_oracle(graph, model, cfg), tree, k, table)
    return table


def mpa(graph, tree: HierarchyTree, model, k: int, cfg, max_outer: int = 20) -> SeedSet:
    """Message passing schedule over the decomposition tree.

    Initializes with the bottom-up dynamic program (all U advice zero),
    then sweeps the tree down and up, accepting the retrieved root set
    whenever its sigma strictly improves under the frozen comparison
    draws, until no improvement or max_outer sweeps.  Returns the best
    accepted set.
    """
    if max_outer < 0:
        raise ValueError("max_outer must be nonnegative")

    def search(oracle, k):
        table = AllocationTable(tree, k)
        _dp_fill(oracle, tree, k, table)
        seeds = retrieve_seeds(tree, table, tree.root, LR, k)
        history = [oracle.sigma(seeds).mean]
        for _ in range(max_outer):
            for h in range(tree.tree_height - 1, 0, -1):
                for node in tree.nodes_at_height(h):
                    _update(oracle, tree, k, table, int(node), LU)
                    _update(oracle, tree, k, table, int(node), RU)
            for h in range(1, tree.tree_height + 1):
                for node in tree.nodes_at_height(h):
                    _update(oracle, tree, k, table, int(node), LR)
            candidate = retrieve_seeds(tree, table, tree.root, LR, k)
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
