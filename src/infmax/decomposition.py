"""Hierarchical decompositions: tree type, builders, cost, file format.

A decomposition is a rooted full binary tree whose leaves biject with the
graph's vertices.  Children are ordered canonically (left child = smaller
node id), so a tree written to disk and read back is structurally identical,
including orientation.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import CapacityError, ConsistencyError, FormatError
from ._rng import (
    DOMAIN_TREE_BISECTION,
    DOMAIN_TREE_RANDOM_EDGE,
    DOMAIN_TREE_RANDOM_PAIR,
    generator,
)


class HierarchyTree:
    """Rooted full binary tree over 2n-1 dense node ids, leaves = vertices.

    Parameters
    ----------
    parents : sequence of int
        Parent node id per node, -1 for the root.
    leaf_vertex : sequence of int
        Graph vertex id per leaf node, -1 for internal nodes.

    Structural violations raise FormatError.
    """

    def __init__(self, parents, leaf_vertex):
        parents = np.asarray(list(parents), dtype=np.int64)
        leaf_vertex = np.asarray(list(leaf_vertex), dtype=np.int64)
        count = parents.shape[0]
        if count % 2 != 1 or count < 1:
            raise FormatError(f"node count must be odd (2n-1), got {count}")
        if leaf_vertex.shape[0] != count:
            raise FormatError("parents and leaf_vertex lengths differ")
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
        left = np.full(count, -1, dtype=np.int64)
        right = np.full(count, -1, dtype=np.int64)
        for node in range(count):
            par = parents[node]
            if par < 0:
                continue
            if left[par] == -1:
                left[par] = node
            elif right[par] == -1:
                right[par] = node
        if not np.all((child_count == 0) | (child_count == 2)):
            raise FormatError("internal nodes must have exactly two children")
        # Canonical orientation: left child is the smaller node id.
        swap = (right >= 0) & (right < left)
        left[swap], right[swap] = right[swap], left[swap]

        is_leaf = child_count == 0
        if np.any(is_leaf != (leaf_vertex >= 0)):
            raise FormatError("leaf_vertex must be set exactly on childless nodes")
        vertices = leaf_vertex[is_leaf]
        if vertices.size != n or not np.array_equal(np.sort(vertices), np.arange(n)):
            raise FormatError("leaf vertices must be a permutation of 0..n-1")

        # Reachability from the root rules out cycles among non-root nodes.
        order = [int(roots[0])]
        for node in order:
            if left[node] >= 0:
                order.append(int(left[node]))
                order.append(int(right[node]))
        if len(order) != count:
            raise FormatError("nodes disconnected from the root (cycle)")

        self._n = n
        self._parents = parents
        self._leaf_vertex = leaf_vertex
        self._left = left
        self._right = right
        self._root = int(roots[0])
        self._topo = np.array(order[::-1], dtype=np.int64)  # children first

        sizes = np.zeros(count, dtype=np.int64)
        heights = np.zeros(count, dtype=np.int64)
        depth = np.zeros(count, dtype=np.int64)
        for node in self._topo:
            if left[node] < 0:
                sizes[node] = 1
            else:
                sizes[node] = sizes[left[node]] + sizes[right[node]]
                heights[node] = 1 + max(heights[left[node]], heights[right[node]])
        for node in order:
            if left[node] >= 0:
                depth[left[node]] = depth[node] + 1
                depth[right[node]] = depth[node] + 1
        self._sizes = sizes
        self._heights = heights
        self._depth = depth
        leaf_of = np.full(n, -1, dtype=np.int64)
        leaf_nodes = np.flatnonzero(is_leaf)
        leaf_of[leaf_vertex[leaf_nodes]] = leaf_nodes
        self._leaf_of = leaf_of
        self._up = None
        for arr in (parents, leaf_vertex, left, right, sizes, heights, depth, leaf_of):
            arr.setflags(write=False)

    @property
    def n_leaves(self) -> int:
        return self._n

    @property
    def node_count(self) -> int:
        return int(self._parents.shape[0])

    @property
    def root(self) -> int:
        return self._root

    def parent(self, node: int) -> int:
        return int(self._parents[node])

    def left(self, node: int) -> int:
        return int(self._left[node])

    def right(self, node: int) -> int:
        return int(self._right[node])

    def is_leaf(self, node: int) -> bool:
        return self._left[node] < 0

    def leaf_vertex(self, node: int) -> int:
        return int(self._leaf_vertex[node])

    def leaf_of_vertex(self, vertex: int) -> int:
        return int(self._leaf_of[vertex])

    def size(self, node: int) -> int:
        """Leaf count of the subtree rooted at node."""
        return int(self._sizes[node])

    def height(self, node: int) -> int:
        return int(self._heights[node])

    @property
    def tree_height(self) -> int:
        return int(self._heights[self._root])

    def nodes_at_height(self, h: int) -> np.ndarray:
        return np.flatnonzero(self._heights == h)

    def leaf_set(self, node: int) -> frozenset[int]:
        """Vertex ids under node."""
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if self._left[cur] < 0:
                out.append(int(self._leaf_vertex[cur]))
            else:
                stack.append(int(self._left[cur]))
                stack.append(int(self._right[cur]))
        return frozenset(out)

    def _lift_table(self) -> np.ndarray:
        if self._up is None:
            count = self.node_count
            logn = max(1, int(math.ceil(math.log2(max(2, count)))))
            up = np.empty((logn, count), dtype=np.int64)
            up[0] = np.where(self._parents >= 0, self._parents, np.arange(count))
            for j in range(1, logn):
                up[j] = up[j - 1][up[j - 1]]
            self._up = up
        return self._up

    def lca(self, a, b) -> np.ndarray:
        """Elementwise lowest common ancestor of node-id arrays."""
        up = self._lift_table()
        depth = self._depth
        a = np.asarray(a, dtype=np.int64).copy()
        b = np.asarray(b, dtype=np.int64).copy()
        swap = depth[a] < depth[b]
        a[swap], b[swap] = b[swap], a[swap]
        diff = depth[a] - depth[b]
        for j in range(up.shape[0]):
            lift = (diff >> j & 1).astype(bool)
            a[lift] = up[j][a[lift]]
        done = a == b
        for j in range(up.shape[0] - 1, -1, -1):
            move = ~done & (up[j][a] != up[j][b])
            a[move] = up[j][a[move]]
            b[move] = up[j][b[move]]
        return np.where(done, a, up[0][a])

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
            leaves.append(int(spec))
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

    gamma = []
    for v in range(n):
        mask = 0
        for u in graph.neighbors(v):
            mask |= 1 << int(u)
        gamma.append(mask)
    pops = [m.bit_count() for m in gamma]
    minid = list(range(n))
    node = list(range(n))
    alive = set(range(n))

    def score(i, j):
        inter = (gamma[i] & gamma[j]).bit_count()
        union = pops[i] + pops[j] - inter
        return inter / union if union else 0.0

    def pair_key(i, j):
        a, b = minid[i], minid[j]
        return (min(a, b), max(a, b))

    # best[i] = (score, tie key, partner) among currently alive partitions
    best: dict[int, tuple] = {}

    def rescan(i):
        top = None
        for j in alive:
            if j == i:
                continue
            cand = (-score(i, j), pair_key(i, j), j)
            if top is None or cand < top:
                top = cand
        best[i] = top

    for i in alive:
        rescan(i)

    while len(alive) > 1:
        pick = None
        pick_i = -1
        for i in alive:
            cand = best[i]
            if pick is None or cand[:2] < pick[:2]:
                pick, pick_i = cand, i
        a, b = pick_i, pick[2]
        merged = len(gamma)
        gamma.append(gamma[a] | gamma[b])
        pops.append(gamma[merged].bit_count())
        minid.append(min(minid[a], minid[b]))
        node.append(asm.merge(node[a], node[b]))
        alive.discard(a)
        alive.discard(b)
        best.pop(a, None)
        best.pop(b, None)
        alive.add(merged)
        if len(alive) == 1:
            break
        rescan(merged)
        stale = (a, b)
        for i in alive:
            if i == merged:
                continue
            if best[i][2] in stale:
                rescan(i)
            else:
                cand = (-score(i, merged), pair_key(i, merged), merged)
                if cand < best[i]:
                    best[i] = cand
    return asm.tree()


def build_bisection(graph, seed: int) -> HierarchyTree:
    """Top-down balanced bisection: BFS region growing + bounded swap refinement.

    Each split puts ceil(s/2) vertices on the left; the grown region is
    chosen from a few seeded BFS starts by cut size, then improved by
    balance-preserving single swaps while they strictly reduce the cut.
    """
    rng = generator(DOMAIN_TREE_BISECTION, seed)
    A = graph.csr()

    def split(ids: np.ndarray):
        if ids.size == 1:
            return int(ids[0])
        side = _bisect_once(A, ids, rng)
        return (split(ids[side]), split(ids[~side]))

    return tree_from_nested(split(np.arange(graph.n, dtype=np.int64)))


_BISECT_STARTS = 3
_BISECT_SWAPS = 64


def _bisect_once(A, ids: np.ndarray, rng) -> np.ndarray:
    """Pick a ceil(s/2)-sized side (bool mask over ids) with a small cut."""
    s = ids.size
    target = (s + 1) // 2
    sub = A[ids][:, ids].tocsr()
    sub.sort_indices()
    indptr, indices = sub.indptr, sub.indices

    starts = rng.choice(s, size=min(_BISECT_STARTS, s), replace=False)
    best_side = None
    best_cut = None
    for start in starts:
        side = np.zeros(s, dtype=bool)
        chosen = 0
        queue = [int(start)]
        qi = 0
        seen = np.zeros(s, dtype=bool)
        seen[start] = True
        while chosen < target:
            if qi == len(queue):
                rest = np.flatnonzero(~seen)
                if rest.size == 0:
                    break
                queue.append(int(rest[0]))
                seen[rest[0]] = True
                continue
            cur = queue[qi]
            qi += 1
            side[cur] = True
            chosen += 1
            for nb in indices[indptr[cur] : indptr[cur + 1]]:
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(int(nb))
        inner = sub @ side.astype(np.int64)
        cut = int(inner[~side].sum())
        if best_cut is None or cut < best_cut:
            best_cut, best_side = cut, side

    side = best_side
    deg = np.asarray(sub.sum(axis=1)).ravel()
    for _ in range(_BISECT_SWAPS):
        nin = sub @ side.astype(np.int64)  # neighbors on the left, per vertex
        gain_a = deg - 2 * nin  # cut change from moving a left vertex right
        gain_b = 2 * nin - deg
        left_ids = np.flatnonzero(side)
        right_ids = np.flatnonzero(~side)
        ka = left_ids[np.lexsort((left_ids, -gain_a[left_ids]))][:8]
        kb = right_ids[np.lexsort((right_ids, -gain_b[right_ids]))][:8]
        swap = None
        swap_gain = 0
        for u in ka:
            row = indices[indptr[u] : indptr[u + 1]]
            for v in kb:
                pos = int(np.searchsorted(row, v))
                adj = 1 if pos < row.size and row[pos] == v else 0
                g = int(gain_a[u] + gain_b[v] - 2 * adj)
                if g > swap_gain:
                    swap_gain, swap = g, (int(u), int(v))
        if swap is None:
            break
        side[swap[0]] = False
        side[swap[1]] = True
    return side


def dasgupta_cost(graph, tree: HierarchyTree) -> int:
    """Sum over edges of the leaf count of the smallest common subtree."""
    if tree.n_leaves != graph.n:
        raise ConsistencyError(
            f"tree has {tree.n_leaves} leaves but graph has {graph.n} vertices"
        )
    edges = graph.edge_array
    if edges.shape[0] == 0:
        return 0
    a = tree._leaf_of[edges[:, 0]]
    b = tree._leaf_of[edges[:, 1]]
    anc = tree.lca(a, b)
    return int(tree._sizes[anc].sum())


def write_tree(tree: HierarchyTree, path) -> None:
    """Emit 'hier v1 <n>' plus one '<node> <parent> <leaf_vertex>' line per node."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f"hier v1 {tree.n_leaves}\n")
        for node in range(tree.node_count):
            lv = tree.leaf_vertex(node) if tree.is_leaf(node) else -1
            fh.write(f"{node} {tree.parent(node)} {lv}\n")
    os.replace(tmp, path)


def read_tree(path) -> HierarchyTree:
    """Parse a hier v1 file; structural problems raise FormatError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "hier" or header[1] != "v1":
            raise FormatError(f"{path}:1: expected 'hier v1 <n>' header")
        try:
            n = int(header[2])
        except ValueError:
            raise FormatError(f"{path}:1: bad leaf count {header[2]!r}") from None
        if n < 1:
            raise FormatError(f"{path}:1: leaf count must be positive")
        count = 2 * n - 1
        # The node lines (and the one after them) are read before anything
        # is allocated for them, so a header alone cannot ask for memory.
        rows = [line for _, line in zip(range(count + 1), fh)]
        if len(rows) < count:
            raise FormatError(f"{path}: header promises {count} node lines, file holds {len(rows)}")
        parents = np.full(count, -2, dtype=np.int64)
        leaf_vertex = np.full(count, -1, dtype=np.int64)
        for lineno, line in enumerate(rows[:count], start=2):
            tokens = line.split()
            if len(tokens) != 3:
                raise FormatError(f"{path}:{lineno}: expected three tokens")
            try:
                node, par, lv = (int(t) for t in tokens)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer token") from None
            if not 0 <= node < count:
                raise FormatError(f"{path}:{lineno}: node id {node} out of range")
            if parents[node] != -2:
                raise FormatError(f"{path}:{lineno}: duplicate node id {node}")
            parents[node] = par
            leaf_vertex[node] = lv
        if any(line.strip() for line in rows[count:]):
            raise FormatError(f"{path}: trailing content after {count} node lines")
    return HierarchyTree(parents, leaf_vertex)
