"""Seed selection: greedy, tree dynamic program, message passing, brute force.

All optimizers share one oracle protocol (sigma(seeds) -> SigmaEstimate plus
a calls counter).  Comparisons run against a common-random-numbers oracle so
argmaxes are noise-consistent; the sigma reported on the returned seed set
always comes from fresh independent draws (or is exact).  oracle_calls on
the result counts only the queries made while optimizing, not the final
evaluation.
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
        return cfg
    if cfg == "exact":
        return ExactOracle(graph, model)
    if isinstance(cfg, OracleConfig):
        return MonteCarloOracle(graph, model, cfg)
    raise ValueError(f"cfg must be an OracleConfig, an oracle, or 'exact'; got {cfg!r}")


def _final_estimate(graph, model, oracle, seeds) -> SigmaEstimate:
    """Influence of the final set under fresh draws (exact stays exact)."""
    if isinstance(oracle, ExactOracle):
        return SigmaEstimate(oracle.value(seeds), 0.0, 0)
    cfg = oracle.cfg
    fresh = MonteCarloOracle(
        graph, model, OracleConfig(cfg.reps, cfg.master_seed, INDEPENDENT)
    )
    return fresh.sigma(seeds)


def _check_k(graph, k: int) -> int:
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > graph.n:
        raise ValueError(f"k={k} exceeds vertex count {graph.n}")
    return k


def greedy(graph, model, k: int, cfg) -> SeedSet:
    """k rounds of marginal argmax; ties fall to the smallest vertex id."""
    k = _check_k(graph, k)
    oracle = _make_oracle(graph, model, cfg)
    start = oracle.calls
    chosen: list[int] = []
    members = set()
    for _ in range(k):
        best_v = -1
        best_val = -math.inf
        for v in range(graph.n):
            if v in members:
                continue
            val = oracle.sigma(chosen + [v]).mean
            if val > best_val:
                best_val, best_v = val, v
        chosen.append(best_v)
        members.add(best_v)
    calls = oracle.calls - start
    # Final evaluation is uncounted: greedy stays within n*k queries.
    final = _final_estimate(graph, model, oracle, chosen)
    return SeedSet(frozenset(chosen), final, calls)


def _check_tree(graph, tree: HierarchyTree) -> None:
    if tree.n_leaves != graph.n:
        raise ConsistencyError(
            f"tree has {tree.n_leaves} leaves but graph has {graph.n} vertices"
        )


def _dpim_fill(oracle, tree: HierarchyTree, k: int) -> dict[int, list[frozenset[int]]]:
    table: dict[int, list[frozenset[int]]] = {}
    for h in range(tree.tree_height + 1):
        for node in tree.nodes_at_height(h):
            node = int(node)
            if tree.is_leaf(node):
                rows = [frozenset()]
                if k >= 1:
                    rows.append(frozenset((tree.leaf_vertex(node),)))
                table[node] = rows
                continue
            vl, vr = tree.left(node), tree.right(node)
            cap_l = min(tree.size(vl), k)
            cap_r = min(tree.size(vr), k)
            rows = []
            for i in range(min(tree.size(node), k) + 1):
                j_lo = max(0, i - cap_r)
                j_hi = min(i, cap_l)
                if j_lo == j_hi:
                    rows.append(table[vl][j_lo] | table[vr][i - j_lo])
                    continue
                best_j = -1
                best_val = -math.inf
                for j in range(j_lo, j_hi + 1):
                    val = oracle.sigma(table[vl][j] | table[vr][i - j]).mean
                    if val > best_val:
                        best_val, best_j = val, j
                rows.append(table[vl][best_j] | table[vr][i - best_j])
            table[node] = rows
    return table


def dpim_table(graph, tree: HierarchyTree, model, k: int, cfg) -> dict[int, list[frozenset[int]]]:
    """The full dynamic-programming table: node -> [best seeds per budget].

    Entry [v][i] is the chosen i-subset of T(v); rows run up to
    min(|T(v)|, k).
    """
    k = _check_k(graph, k)
    _check_tree(graph, tree)
    return _dpim_fill(_make_oracle(graph, model, cfg), tree, k)


def dpim(graph, tree: HierarchyTree, model, k: int, cfg) -> SeedSet:
    """Bottom-up dynamic program over the decomposition tree.

    A[v, i] holds the best i seeds inside T(v); each internal row picks the
    left/right split maximizing global sigma, smallest split on ties.
    """
    k = _check_k(graph, k)
    _check_tree(graph, tree)
    oracle = _make_oracle(graph, model, cfg)
    start = oracle.calls
    table = _dpim_fill(oracle, tree, k)
    seeds = table[tree.root][k]
    calls = oracle.calls - start
    final = _final_estimate(graph, model, oracle, seeds)
    return SeedSet(seeds, final, calls)


class AllocationTable:
    """Split advice A(node, direction pair, budget) -> (into first, into second).

    Directions at a node: L and R are its children's subtrees, U is
    everything outside its own subtree.  All entries start at (0, 0); the
    root's U share is pinned to zero.
    """

    def __init__(self, tree: HierarchyTree, k: int):
        self.k = int(k)
        self.root = tree.root
        self._data: dict[tuple[int, tuple, int], tuple[int, int]] = {}
        for node in range(tree.node_count):
            for pair in DIRECTION_PAIRS:
                for ell in range(self.k + 1):
                    self._data[(node, pair, ell)] = (0, 0)

    def get(self, node: int, dpair, ell: int) -> tuple[int, int]:
        return self._data[(node, tuple(dpair), ell)]

    def set(self, node: int, dpair, ell: int, s1: int, s2: int) -> None:
        dpair = tuple(dpair)
        if dpair not in DIRECTION_PAIRS:
            raise ValueError(f"bad direction pair {dpair!r}")
        if s1 < 0 or s2 < 0 or s1 + s2 > ell:
            raise ValueError(f"split ({s1}, {s2}) invalid for budget {ell}")
        if node == self.root and dpair != LR and s2 != 0:
            raise ValueError("root has no U side; its U share must be 0")
        self._data[(node, dpair, ell)] = (int(s1), int(s2))


def _follow(tree: HierarchyTree, node: int, direction: str):
    """Step one edge from node; returns (neighbor, pair excluding the way
    back) or None when stepping U from the root."""
    if direction == "L":
        return tree.left(node), LR
    if direction == "R":
        return tree.right(node), LR
    parent = tree.parent(node)
    if parent < 0:
        return None
    return parent, (RU if tree.left(parent) == node else LU)


def retrieve_seeds(tree: HierarchyTree, table: AllocationTable, node: int, dpair, ell: int) -> frozenset[int]:
    """Follow the table's advice from (node, dpair, ell) to the leaves it reaches.

    The walk keeps an explicit stack of (node, dpair, ell) steps, so its
    depth is not bounded by Python's recursion limit.
    """
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
            parent, pair = _follow(tree, node, "U")
            stack.append((parent, pair, s2))
    return frozenset(found)


def _capacity(tree: HierarchyTree, node: int, direction: str) -> int:
    if direction == "L":
        return tree.size(tree.left(node))
    if direction == "R":
        return tree.size(tree.right(node))
    return tree.n_leaves - tree.size(node)


def _update(oracle, tree: HierarchyTree, k: int, table: AllocationTable, node: int, dpair, with_context: bool = True) -> None:
    d1, d2 = dpair
    (d3,) = {"L", "R", "U"} - {d1, d2}
    cap1 = min(_capacity(tree, node, d1), k)
    cap2 = min(_capacity(tree, node, d2), k)
    cap3 = min(_capacity(tree, node, d3), k) if with_context else 0
    t1 = _follow(tree, node, d1)
    t2 = _follow(tree, node, d2)
    t3 = _follow(tree, node, d3)
    for i in range(k + 1):
        b3 = min(k - i, cap3)
        part3 = (
            retrieve_seeds(tree, table, t3[0], t3[1], b3)
            if t3 is not None and b3 > 0
            else frozenset()
        )
        ii = min(i, cap1 + cap2)
        j_lo = max(0, ii - cap2)
        j_hi = min(ii, cap1)
        if j_lo == j_hi:
            table.set(node, dpair, i, j_lo, ii - j_lo)
            continue
        best_j = -1
        best_val = -math.inf
        for j in range(j_lo, j_hi + 1):
            part1 = (
                retrieve_seeds(tree, table, t1[0], t1[1], j)
                if t1 is not None and j > 0
                else frozenset()
            )
            part2 = (
                retrieve_seeds(tree, table, t2[0], t2[1], ii - j)
                if t2 is not None and ii - j > 0
                else frozenset()
            )
            val = oracle.sigma(part1 | part2 | part3).mean
            if val > best_val:
                best_val, best_j = val, j
        table.set(node, dpair, i, best_j, ii - best_j)


def mpa_update(graph, tree: HierarchyTree, model, k: int, cfg, table: AllocationTable, node: int, dpair) -> AllocationTable:
    """One local table refresh at an internal node; returns the table.

    For each budget i the remaining k-i seeds are first pinned in the third
    direction per the current table, then σ picks the best split of i
    between the pair's directions (capacity-clamped, smallest first share
    on ties).
    """
    k = _check_k(graph, k)
    _check_tree(graph, tree)
    dpair = tuple(dpair)
    if dpair not in DIRECTION_PAIRS:
        raise ValueError(f"bad direction pair {dpair!r}")
    if tree.is_leaf(node):
        raise ValueError("updates apply to internal nodes only")
    oracle = _make_oracle(graph, model, cfg)
    _update(oracle, tree, k, table, node, dpair)
    return table


def _init_sweep(oracle, tree: HierarchyTree, k: int, table: AllocationTable) -> None:
    # Initialization matches the plain dynamic program exactly, so the
    # outside-context term is suppressed here: through the root shortcut it
    # would otherwise leak the first sibling's fresh rows into the second's.
    for h in range(1, tree.tree_height + 1):
        for node in tree.nodes_at_height(h):
            _update(oracle, tree, k, table, int(node), LR, with_context=False)


def mpa_init_table(graph, tree: HierarchyTree, model, k: int, cfg) -> AllocationTable:
    """Allocation table after the bottom-up initialization sweep.

    Retrieving the root's (L, R) row from this table reproduces the plain
    dynamic program's choice for every budget.
    """
    k = _check_k(graph, k)
    _check_tree(graph, tree)
    oracle = _make_oracle(graph, model, cfg)
    table = AllocationTable(tree, k)
    _init_sweep(oracle, tree, k, table)
    return table


def mpa(graph, tree: HierarchyTree, model, k: int, cfg, max_outer: int = 20) -> SeedSet:
    """Message passing schedule over the decomposition tree.

    Initializes with the bottom-up dynamic program (all U advice zero),
    then sweeps the tree down and up, accepting the retrieved root set
    whenever its sigma strictly improves under the frozen comparison
    draws, until no improvement or max_outer sweeps.  Returns the best
    accepted set.
    """
    k = _check_k(graph, k)
    _check_tree(graph, tree)
    if max_outer < 0:
        raise ValueError("max_outer must be nonnegative")
    oracle = _make_oracle(graph, model, cfg)
    start = oracle.calls
    table = AllocationTable(tree, k)
    heights_up = range(1, tree.tree_height + 1)
    heights_down = range(tree.tree_height - 1, 0, -1)

    _init_sweep(oracle, tree, k, table)
    seeds = retrieve_seeds(tree, table, tree.root, LR, k)
    current = oracle.sigma(seeds).mean
    history = [current]

    for _ in range(max_outer):
        for h in heights_down:
            for node in tree.nodes_at_height(h):
                _update(oracle, tree, k, table, int(node), LU)
                _update(oracle, tree, k, table, int(node), RU)
        for h in heights_up:
            for node in tree.nodes_at_height(h):
                _update(oracle, tree, k, table, int(node), LR)
        candidate = retrieve_seeds(tree, table, tree.root, LR, k)
        value = oracle.sigma(candidate).mean
        if value > current:
            seeds, current = candidate, value
            history.append(value)
        else:
            break
    calls = oracle.calls - start
    final = _final_estimate(graph, model, oracle, seeds)
    return SeedSet(seeds, final, calls, history=tuple(history))


_BRUTE_FORCE_LIMIT = 10**6


def brute_force(graph, model, k: int, cfg="exact") -> SeedSet:
    """Exhaustive optimum over all k-subsets (lexicographically smallest
    winner on ties); guarded by a subset-count budget."""
    k = _check_k(graph, k)
    sets = math.comb(graph.n, k)
    if sets > _BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"brute force over {sets} subsets exceeds {_BRUTE_FORCE_LIMIT}"
        )
    oracle = _make_oracle(graph, model, cfg)
    start = oracle.calls
    best = None
    best_val = -math.inf
    for subset in combinations(range(graph.n), k):
        val = oracle.sigma(subset).mean
        if val > best_val:
            best_val, best = val, subset
    calls = oracle.calls - start
    final = _final_estimate(graph, model, oracle, best)
    return SeedSet(frozenset(best), final, calls)
