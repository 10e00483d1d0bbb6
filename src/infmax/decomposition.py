"""Hierarchical decompositions: tree type, builders, cost, file format.

A decomposition is a rooted full binary tree whose leaves biject with the
graph's vertices.  Children are ordered canonically (left child = smaller
node id), so a tree written to disk and read back is structurally identical,
including orientation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError, ConsistencyError, FormatError
from .graph import _bitmasks, _open_text, _parse_int, _write_atomic
from ._rng import (
    DOMAIN_TREE_BISECTION,
    DOMAIN_TREE_RANDOM_EDGE,
    DOMAIN_TREE_RANDOM_PAIR,
    _integer,
    generator,
)


def _id_array(ids) -> np.ndarray:
    """ids as an array.  Bools are refused here: numpy reads a list that
    mixes them with ints as int64, past HierarchyTree's dtype check."""
    ids = list(ids)
    if {bool, np.bool_} & set(map(type, ids)):
        raise FormatError("node and vertex ids must be integers, not bools")
    return np.asarray(ids)


class HierarchyTree:
    """Rooted full binary tree over 2n-1 dense node ids, leaves = vertices.

    Parameters
    ----------
    parents : sequence of int
        Parent node id per node, -1 for the root.
    leaf_vertex : sequence of int
        Graph vertex id per leaf node, -1 for internal nodes.

    Structural violations, and ids that are not integers, raise FormatError.

    In the leaf order, T(x) holds leaf positions _lo[x] .. _lo[x] + size(x) - 1.
    Internal node x owns the gap between its left child's last leaf and its
    right child's first; each of the n - 1 gaps has exactly one owner.
    """

    def __init__(self, parents, leaf_vertex):
        parents, leaf_vertex = (_id_array(ids) for ids in (parents, leaf_vertex))
        count = parents.shape[0]
        if count % 2 != 1 or count < 1:
            raise FormatError(f"node count must be odd (2n-1), got {count}")
        if leaf_vertex.shape[0] != count:
            raise FormatError("parents and leaf_vertex lengths differ")
        for ids in (parents, leaf_vertex):
            if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64):
                raise FormatError(f"node and vertex ids must be integers, got {ids.dtype}")
        parents, leaf_vertex = parents.astype(np.int64), leaf_vertex.astype(np.int64)
        n = (count + 1) // 2
        roots = np.flatnonzero(parents == -1)
        if roots.size != 1:
            raise FormatError(f"expected exactly one root, found {roots.size}")
        if np.any((parents < -1) | (parents >= count)):
            raise FormatError("parent id out of range")
        if np.any(parents == np.arange(count)):
            raise FormatError("node cannot be its own parent")

        child_count = np.zeros(count, dtype=np.int64)
        np.add.at(child_count, parents[parents >= 0], 1)
        # Nodes are visited in ascending order, so each left child is the
        # smaller id: the canonical orientation.
        left = [-1] * count
        right = [-1] * count
        for node, par in enumerate(parents.tolist()):
            if par < 0:
                continue
            if left[par] == -1:
                left[par] = node
            elif right[par] == -1:
                right[par] = node
        if not np.all((child_count == 0) | (child_count == 2)):
            raise FormatError("internal nodes must have exactly two children")

        is_leaf = child_count == 0
        if np.any(is_leaf != (leaf_vertex >= 0)):
            raise FormatError("leaf_vertex must be set exactly on childless nodes")
        vertices = leaf_vertex[is_leaf]
        if vertices.size != n or not np.array_equal(np.sort(vertices), np.arange(n)):
            raise FormatError("leaf vertices must be a permutation of 0..n-1")

        # Reachability from the root rules out cycles among non-root nodes.
        order = roots.tolist()
        for node in order:
            if left[node] >= 0:
                order.append(left[node])
                order.append(right[node])
        if len(order) != count:
            raise FormatError("nodes disconnected from the root (cycle)")

        sizes = [1] * count
        heights = [0] * count
        lo = [0] * count
        for node in reversed(order):  # children first
            a, b = left[node], right[node]
            if a >= 0:
                sizes[node] = sizes[a] + sizes[b]
                heights[node] = 1 + max(heights[a], heights[b])
        for node in order:  # parents first
            a, b = left[node], right[node]
            if a >= 0:
                lo[a] = lo[node]
                lo[b] = lo[node] + sizes[a]

        levels: list[list[int]] = [[] for _ in range(heights[order[0]] + 1)]
        for node, h in enumerate(heights):
            levels[h].append(node)
        for arr in (parents, leaf_vertex):
            arr.setflags(write=False)
        self._n, self._root = n, order[0]
        self._parents, self._leaf_vertex = parents, leaf_vertex
        # The walks read these per node, so they are tuples of Python ints.
        self._parent_of, self._vertex_of, self._left, self._right, self._sizes, self._lo = (
            tuple(x) for x in (parents.tolist(), leaf_vertex.tolist(), left, right, sizes, lo)
        )
        self._levels = tuple(map(tuple, levels))

    @property
    def n_leaves(self) -> int:
        return self._n

    @property
    def node_count(self) -> int:
        return len(self._left)

    @property
    def root(self) -> int:
        return self._root

    def parent(self, node: int) -> int:
        return self._parent_of[node]

    def left(self, node: int) -> int:
        return self._left[node]

    def right(self, node: int) -> int:
        return self._right[node]

    def is_leaf(self, node: int) -> bool:
        return self._left[node] < 0

    def leaf_vertex(self, node: int) -> int:
        return self._vertex_of[node]

    def size(self, node: int) -> int:
        """Leaf count of the subtree rooted at node."""
        return self._sizes[node]

    @property
    def tree_height(self) -> int:
        return len(self._levels) - 1

    def nodes_at_height(self, h: int) -> tuple[int, ...]:
        """The nodes of height h in ascending id order; none outside 0..tree_height."""
        return self._levels[h] if 0 <= _integer(h, "height") < len(self._levels) else ()

    def __eq__(self, other):
        if not isinstance(other, HierarchyTree):
            return NotImplemented
        return np.array_equal(self._parents, other._parents) and np.array_equal(
            self._leaf_vertex, other._leaf_vertex
        )

    def __hash__(self):
        return hash((self._parents.tobytes(), self._leaf_vertex.tobytes()))

    def __repr__(self):
        return f"HierarchyTree(n_leaves={self._n})"


def tree_from_nested(nested) -> HierarchyTree:
    """Build a tree from nested pairs of vertex ids, e.g. ((0, 1), 2).

    Node ids are assigned in preorder, so the first element of each pair
    becomes the left child.  The walk keeps an explicit stack, so the nesting
    depth is not bounded by Python's recursion limit.
    """
    parents: list[int] = []
    leaves: list[int] = []
    stack = [(nested, -1)]
    while stack:
        spec, parent = stack.pop()
        me = len(parents)
        parents.append(parent)
        if isinstance(spec, tuple):
            if len(spec) != 2:
                raise ValueError("nested spec must use pairs")
            leaves.append(-1)
            stack += [(spec[1], me), (spec[0], me)]
        else:
            leaves.append(_integer(spec, "vertex id"))
    return HierarchyTree(parents, leaves)


class _Agglomerator:
    """Bottom-up tree assembly: leaves 0..n-1, internals in merge order."""

    def __init__(self, n: int):
        self.parents = [-1] * (2 * n - 1)
        self.leaves = list(range(n)) + [-1] * (n - 1)
        self.next_id = n

    def merge(self, a: int, b: int) -> int:
        me = self.next_id
        self.next_id += 1
        self.parents[a] = me
        self.parents[b] = me
        return me

    def tree(self) -> HierarchyTree:
        return HierarchyTree(self.parents, self.leaves)


def build_random_pair(graph, seed: int) -> HierarchyTree:
    """Agglomerate by merging uniformly random partition pairs."""
    n = graph.n
    asm = _Agglomerator(n)
    _merge_random_pairs(asm, list(range(n)), generator(DOMAIN_TREE_RANDOM_PAIR, seed))
    return asm.tree()


def _merge_random_pairs(asm: _Agglomerator, active: list[int], rng) -> None:
    """Merge uniformly random pairs of the active nodes until one is left.

    Each pick swaps the last active node into the picked one's slot.
    """
    while len(active) > 1:
        pair = []
        for _ in range(2):
            i = int(rng.integers(len(active)))
            active[i], active[-1] = active[-1], active[i]
            pair.append(active.pop())
        active.append(asm.merge(*pair))


def build_random_edge(graph, seed: int) -> HierarchyTree:
    """Agglomerate by contracting uniformly random inter-partition edges.

    Edges inside a partition are discarded as drawn; when none remain the
    builder falls back to uniform random pair merges on the same stream.
    """
    n = graph.n
    rng = generator(DOMAIN_TREE_RANDOM_EDGE, seed)
    asm = _Agglomerator(n)
    part_node = list(range(n))  # union-find root vertex -> partition tree node
    uf = list(range(n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    pool = [(int(u), int(v)) for u, v in graph.edge_array]
    merges_left = n - 1
    while pool and merges_left:
        i = int(rng.integers(len(pool)))
        u, v = pool[i]
        pool[i] = pool[-1]
        pool.pop()
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        node = asm.merge(part_node[ru], part_node[rv])
        uf[ru] = rv
        part_node[rv] = node
        merges_left -= 1
    if merges_left:
        _merge_random_pairs(asm, sorted({part_node[find(v)] for v in range(n)}), rng)
    return asm.tree()


_JACCARD_MAX_N = 20_000


def build_jaccard(graph) -> HierarchyTree:
    """Agglomerate by maximal neighborhood Jaccard similarity.

    Score(A, B) = |G(A) & G(B)| / |G(A) | G(B)| where G(X) is the union of
    the members' original neighborhoods.  Deterministic: ties are broken by
    the smallest (min member id, min member id) pair.
    """
    n = graph.n
    if n > _JACCARD_MAX_N:
        raise CapacityError(f"jaccard builder limited to n <= {_JACCARD_MAX_N}, got {n}")
    asm = _Agglomerator(n)
    ptr, nbr = graph.csr().indptr.tolist(), graph.csr().indices
    gamma = _bitmasks((nbr[ptr[v] : ptr[v + 1]].tolist() for v in range(n)), n)
    pops = [m.bit_count() for m in gamma]
    minid = list(range(n))
    alive = set(range(n))
    # best[i] is i's least candidate among the other alive clusters.  Alive
    # clusters have distinct smallest members, so distinct partners have
    # distinct tie keys, and min keeps the first minimum in iteration order.
    best: dict[int, tuple | None] = {}

    def candidate(i, j):
        """(-score, (smaller min id, larger min id), j) for clusters i and j."""
        inter = (gamma[i] & gamma[j]).bit_count()
        union = pops[i] + pops[j] - inter
        a, b = minid[i], minid[j]
        return (-(inter / union if union else 0.0), (a, b) if a < b else (b, a), j)

    def rescan(i):
        best[i] = min((candidate(i, j) for j in alive if j != i), default=None)

    for i in alive:
        rescan(i)
    while len(alive) > 1:
        a = min(alive, key=lambda i: best[i][:2])
        b = best[a][2]
        merged = asm.merge(a, b)  # cluster i is tree node i
        gamma.append(gamma[a] | gamma[b])
        pops.append(gamma[merged].bit_count())
        minid.append(min(minid[a], minid[b]))
        alive -= {a, b}
        alive.add(merged)
        rescan(merged)
        for i in alive:
            if i == merged:
                continue
            if best[i][2] in (a, b):
                rescan(i)
            else:
                best[i] = min(best[i], candidate(i, merged))
    return asm.tree()


def build_bisection(graph, seed: int) -> HierarchyTree:
    """Top-down balanced bisection: BFS region growing + bounded swap refinement.

    Each split puts ceil(s/2) vertices on the left; the grown region is
    chosen from a few seeded BFS starts by cut size, then improved by
    balance-preserving single swaps while they strictly reduce the cut.

    A large split works on its subgraph as raw CSR arrays in local columns; a
    child's arrays are the parent's, masked and renumbered.  Each vertex's
    cut change from switching sides is kept incrementally: a swap changes it
    only for the two swapped vertices' neighbors (Fiduccia-Mattheyses
    bookkeeping).  Swap candidates are ranked by gain, then by smallest local
    id, and the first strictly best pair wins.  Once a subgraph has at most
    _SMALL_SPLIT vertices its arrays become Python lists, and it and all of
    its descendants are split on those lists by the same rules and the same
    draws (_bisect_small), which spares the numpy call overhead that
    dominates tiny splits; the trees are the same either way.
    """
    rng = generator(DOMAIN_TREE_BISECTION, seed)  # validates the seed
    n = graph.n
    if n < 2:  # n = 0 fails the tree's own node-count check
        return HierarchyTree([-1] * n, range(n))
    A = graph.csr()

    def split(ids, ptr, nbr):
        if isinstance(ids, np.ndarray) and ids.size <= _SMALL_SPLIT:
            ids, ptr, nbr = ids.tolist(), ptr.tolist(), nbr.tolist()
        if isinstance(ids, list):
            side = _bisect_small(ptr, nbr, rng)
            parts = (_restrict_small(ids, ptr, nbr, side, want) for want in (True, False))
        else:
            side = _bisect_once(ptr, nbr, rng)
            parts = ((ids[keep], *_restrict(ptr, nbr, keep)) for keep in (side, ~side))
        return tuple(int(sub[0]) if len(sub) == 1 else split(sub, *csr) for sub, *csr in parts)

    return tree_from_nested(split(np.arange(n), A.indptr, A.indices))


_BISECT_STARTS = 3
_BISECT_SWAPS = 64
# Subgraphs of at most this many vertices are split on Python lists.
_SMALL_SPLIT = 32


def _restrict(indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray):
    """CSR (indptr, indices) of the subgraph on keep, columns renumbered in order."""
    hit = keep[indices]
    row_nnz = _row_counts(indptr, hit)[keep]
    sub_indptr = np.zeros(row_nnz.size + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=sub_indptr[1:])
    local = np.cumsum(keep) - 1
    return sub_indptr, local[indices[hit & np.repeat(keep, np.diff(indptr))]]


def _row_counts(indptr: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per row, how many of its entries are flagged (along the last axis)."""
    csum = np.zeros(flags.shape[:-1] + (flags.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(flags, axis=-1, out=csum[..., 1:])
    return csum[..., indptr[1:]] - csum[..., indptr[:-1]]


def _grow(ptr, nbr, start: int, target: int) -> list:
    """The first target vertices in BFS order from start; when the queue runs
    dry the search restarts at the smallest unseen vertex."""
    queue = [start]
    seen = bytearray(len(ptr) - 1)
    seen[start] = 1
    rest = 0
    qi = 0
    while qi < target:
        if qi == len(queue):
            while seen[rest]:
                rest += 1
            seen[rest] = 1
            queue.append(rest)
        cur = queue[qi]
        qi += 1
        for nb in nbr[ptr[cur] : ptr[cur + 1]]:
            if not seen[nb]:
                seen[nb] = 1
                queue.append(nb)
    return queue[:target]


def _bisect_once(indptr: np.ndarray, indices: np.ndarray, rng) -> np.ndarray:
    """Pick a ceil(s/2)-sized side (bool mask over local ids) with a small cut."""
    s = indptr.size - 1
    target = (s + 1) // 2
    # Element reads as Python ints; a tolist() copy would hold about 36 bytes
    # per CSR entry for the top split.
    ptr = memoryview(indptr)
    nbr = memoryview(indices)

    starts = rng.choice(s, size=min(_BISECT_STARTS, s), replace=False)
    sides = np.zeros((starts.size, s), dtype=bool)
    for row, start in zip(sides, starts.tolist()):
        row[_grow(ptr, nbr, start, target)] = True
    nins = _row_counts(indptr, sides[:, indices])  # neighbors on the left, per vertex
    best = int(np.argmin((nins * ~sides).sum(axis=1)))  # first smallest cut
    side = sides[best]
    # Moving a left vertex w right changes the cut by loss[w]; moving a right
    # vertex w left changes it by -loss[w].
    loss = 2 * nins[best] - np.diff(indptr)
    # Left w has key loss[w] * s + w and right w has (2s - loss[w]) * s + w:
    # distinct keys, every left one below every right one, ordered within a
    # side by gain, then id.  Ranks [0, 8) and [target, target + 8) then hold
    # each side's (at most) 8 best candidates, in order.
    ids = np.arange(s)
    ranks = [*range(min(8, target)), *range(target, min(target + 8, s))]
    for _ in range(_BISECT_SWAPS):
        order = np.argpartition(np.where(side, loss, 2 * s - loss) * s + ids, ranks)
        ka = order[: min(8, target)]
        kb = order[target : target + 8]
        gain_a, gain_b = (-loss[ka]).tolist(), loss[kb].tolist()
        swap = _best_swap(ptr, nbr, list(zip(ka.tolist(), gain_a)), list(zip(kb.tolist(), gain_b)))
        if swap is None:
            break
        u, v = swap
        side[u] = False
        side[v] = True
        loss[indices[ptr[u] : ptr[u + 1]]] -= 2
        loss[indices[ptr[v] : ptr[v + 1]]] += 2
    return side


def _bisect_small(ptr: list, nbr: list, rng) -> list:
    """_bisect_once on a CSR subgraph held in Python lists; side as a list of bools.

    The same draw, BFS regions, first smallest cut, and swap candidates: each
    side's 8 best by (loss, id) on the left and (-loss, id) on the right, the
    order argpartition gives _bisect_once, since the keys are distinct.
    """
    s = len(ptr) - 1
    target = (s + 1) // 2
    best_cut = math.inf
    for start in rng.choice(s, size=min(_BISECT_STARTS, s), replace=False).tolist():
        region = _grow(ptr, nbr, start, target)
        left = [False] * s
        for w in region:
            left[w] = True
        cut = sum([not left[x] for w in region for x in nbr[ptr[w] : ptr[w + 1]]])
        if cut < best_cut:
            best_cut, side = cut, left
        if not cut:  # no later start can cut less, and no swap can gain
            return side
    # loss[w] = (neighbors on the left) - (neighbors on the right)
    loss = [sum([1 if side[x] else -1 for x in nbr[ptr[w] : ptr[w + 1]]]) for w in range(s)]
    for _ in range(_BISECT_SWAPS):
        ka = sorted([(loss[w], w) for w in range(s) if side[w]])[:8]
        kb = sorted([(-loss[w], w) for w in range(s) if not side[w]])[:8]
        swap = _best_swap(ptr, nbr, [(u, -la) for la, u in ka], [(v, -lb) for lb, v in kb])
        if swap is None:
            break
        u, v = swap
        side[u] = False
        side[v] = True
        for x in nbr[ptr[u] : ptr[u + 1]]:
            loss[x] -= 2
        for x in nbr[ptr[v] : ptr[v + 1]]:
            loss[x] += 2
    return side


def _best_swap(ptr, nbr, left: list, right: list):
    """The first strictly best swap (u, v) of a left and a right candidate,
    from (vertex, gain) lists ordered best first, scored gain_u + gain_v
    less 2 when u and v are adjacent; None when no pair gains."""
    if left[0][1] + right[0][1] <= 0:  # no pair can gain
        return None
    swap = None
    swap_gain = 0
    for u, gu in left:
        adj = set(nbr[ptr[u] : ptr[u + 1]])
        for v, gv in right:
            g = gu + gv - 2 * (v in adj)
            if g > swap_gain:
                swap_gain, swap = g, (u, v)
    return swap


def _restrict_small(ids: list, ptr: list, nbr: list, side: list, want: bool):
    """(ids, ptr, nbr) of the subgraph on the w with side[w] == want, columns
    renumbered in order, as _restrict does on arrays."""
    keep = [w for w, s in enumerate(side) if s == want]
    local = [0] * len(side)
    for i, w in enumerate(keep):
        local[w] = i
    sub_ptr = [0]
    sub_nbr: list[int] = []
    for w in keep:
        sub_nbr += [local[x] for x in nbr[ptr[w] : ptr[w + 1]] if side[x] == want]
        sub_ptr.append(len(sub_nbr))
    return [ids[w] for w in keep], sub_ptr, sub_nbr


def dasgupta_cost(graph, tree: HierarchyTree) -> int:
    """Sum over edges of the leaf count of the smallest common subtree.

    For an edge at leaf positions p < q, the owners of gaps p .. q - 1 (see
    HierarchyTree) all lie in that subtree and include its root, so its leaf
    count is their largest size: two lookups in a doubling range-max table.
    """
    if tree.n_leaves != graph.n:
        raise ConsistencyError(
            f"tree has {tree.n_leaves} leaves but graph has {graph.n} vertices"
        )
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return 0
    lo, sizes, left = (np.array(x, dtype=np.int64) for x in (tree._lo, tree._sizes, tree._left))
    leaves, inner = np.flatnonzero(left < 0), np.flatnonzero(left >= 0)
    pos = np.empty(graph.n, dtype=np.int64)
    pos[tree._leaf_vertex[leaves]] = lo[leaves]
    p, q = np.sort(pos[edges], axis=1).T
    level = np.frexp(q - p)[1] - 1  # floor(log2(q - p)), exact for integers
    # span[j, i] = max of the owner sizes of gaps i .. i + 2**j - 1
    span = np.zeros((int(level.max()) + 1, graph.n - 1), dtype=np.int64)
    span[0, lo[inner] + sizes[left[inner]] - 1] = sizes[inner]
    for j in range(1, span.shape[0]):
        h = 1 << (j - 1)
        np.maximum(span[j - 1, :-h], span[j - 1, h:], out=span[j, :-h])
    return int(np.maximum(span[level, p], span[level, q - (1 << level)]).sum())


def write_tree(tree: HierarchyTree, path) -> None:
    """Emit 'hier v1 <n>' plus one '<node> <parent> <leaf_vertex>' line per node."""
    lines = (
        f"{node} {tree.parent(node)} {tree.leaf_vertex(node) if tree.is_leaf(node) else -1}\n"
        for node in range(tree.node_count)
    )
    _write_atomic(path, itertools.chain([f"hier v1 {tree.n_leaves}\n"], lines))


def read_tree(path) -> HierarchyTree:
    """Parse a hier v1 file; structural problems raise FormatError."""
    with _open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "hier" or header[1] != "v1":
            raise FormatError(f"{path}:1: expected 'hier v1 <n>' header")
        n = _parse_int(header[2], f"{path}:1: leaf count")
        if n < 1:
            raise FormatError(f"{path}:1: leaf count must be positive")
        count = 2 * n - 1
        # The node lines are read before anything is allocated for them, so
        # a header alone cannot ask for memory.
        rows = [line for _, line in zip(range(count), fh)]
        if len(rows) < count:
            raise FormatError(f"{path}: header promises {count} node lines, file holds {len(rows)}")
        parents = np.full(count, -2, dtype=np.int64)
        leaf_vertex = np.full(count, -1, dtype=np.int64)
        for lineno, line in enumerate(rows, start=2):
            tokens = line.split()
            if len(tokens) != 3:
                raise FormatError(f"{path}:{lineno}: expected three tokens")
            where = f"{path}:{lineno}: token"
            node, par, lv = (_parse_int(t, where) for t in tokens)
            if not 0 <= node < count:
                raise FormatError(f"{path}:{lineno}: node id {node} out of range")
            if parents[node] != -2:
                raise FormatError(f"{path}:{lineno}: duplicate node id {node}")
            parents[node] = par
            leaf_vertex[node] = lv
        # Past the node lines only blank lines may follow; they are read one
        # at a time, so a long tail allocates nothing.
        if any(line.strip() for line in fh):
            raise FormatError(f"{path}: trailing content after {count} node lines")
    return HierarchyTree(parents, leaf_vertex)
