"""Undirected simple graphs: representation, edge-list files, G(n,m) sampling.

Edge-list files follow the SNAP convention: whitespace-separated integer
pairs, lines starting with '#' ignored.  One comment form is significant: a
line of exactly "# nodes: N" declares the vertex count, which is the only way
to represent isolated vertices.  Files with that header are treated as
canonical (ids are used as-is and must be dense-compatible); files without it
have their ids remapped to [0, n) in first-appearance order.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.sparse as sp

from .errors import FormatError
from ._rng import DOMAIN_GNM, generator

_NODES_HEADER = re.compile(r"^#\s*nodes:\s*(\d+)\s*$")


class Graph:
    """Immutable undirected simple graph with dense vertex ids in [0, n).

    Parameters
    ----------
    n : int
        Vertex count.
    edges : iterable of (u, v)
        Unordered vertex pairs; must be self-loop-free and duplicate-free
        after orienting u < v.
    orig_ids : sequence of int, optional
        Original id of each dense vertex, when the graph was remapped from
        a file.  Defaults to the identity.
    """

    def __init__(self, n, edges, orig_ids=None):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        if arr.size and (lo.min() < 0 or hi.max() >= n):
            raise ValueError("edge endpoint outside [0, n)")
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")
        arr = np.stack([lo, hi], axis=1)
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        arr = arr[order]
        if arr.shape[0] > 1 and np.any(np.all(arr[1:] == arr[:-1], axis=1)):
            raise ValueError("duplicate edges are not allowed")
        self._n = n
        self._edges = arr
        self._edges.setflags(write=False)
        if orig_ids is None:
            self._orig_ids = None
        else:
            self._orig_ids = tuple(int(x) for x in orig_ids)
            if len(self._orig_ids) != n:
                raise ValueError("orig_ids length must equal n")
        self._adj = _build_adjacency(n, arr)
        self._degrees = np.array([len(a) for a in self._adj], dtype=np.int64)
        self._degrees.setflags(write=False)
        self._csr = None
        self._components = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return int(self._edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        return self._adj[v]

    @property
    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        return self._edges

    def original_id(self, v: int) -> int:
        return v if self._orig_ids is None else self._orig_ids[v]

    def csr(self) -> sp.csr_array:
        """0/1 adjacency matrix as int32 CSR, cached."""
        if self._csr is None:
            u, v = self._edges[:, 0], self._edges[:, 1]
            data = np.ones(2 * self.m, dtype=np.int32)
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            self._csr = sp.csr_array((data, (rows, cols)), shape=(self._n, self._n))
        return self._csr

    def components(self) -> list[np.ndarray]:
        """Connected components as sorted vertex arrays, cached."""
        if self._components is None:
            if self._n == 0:
                self._components = []
            else:
                ncomp, labels = sp.csgraph.connected_components(self.csr(), directed=False)
                comps = [[] for _ in range(ncomp)]
                for v, c in enumerate(labels):
                    comps[c].append(v)
                self._components = [np.array(c, dtype=np.int64) for c in comps]
        return self._components

    def write(self, path) -> None:
        """Emit '# nodes: N' followed by 'u v' lines, u < v, ascending."""
        import os
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"# nodes: {self._n}\n")
            for u, v in self._edges:
                fh.write(f"{u} {v}\n")
        os.replace(tmp, path)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.m})"


def _build_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for nbrs in adj:
        a = np.array(sorted(nbrs), dtype=np.int64)
        a.setflags(write=False)
        out.append(a)
    return out


def load_edge_list(path) -> Graph:
    """Parse an edge-list file into a Graph.

    Self-loops and duplicate edges (in either orientation) are dropped
    silently.  Without a "# nodes: N" header, ids are remapped to [0, n) in
    first-appearance order; with it, ids are taken as canonical and n is
    forced to at least N.
    """
    forced_n = None
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                header = _NODES_HEADER.match(stripped)
                if header:
                    forced_n = int(header.group(1))
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise FormatError(f"{path}:{lineno}: expected two tokens, got {len(tokens)}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer token") from None
            pairs.append((u, v, lineno))

    edges = set()
    if forced_n is not None:
        n = forced_n
        for u, v, lineno in pairs:
            if u < 0 or v < 0:
                raise FormatError(f"{path}:{lineno}: negative id with nodes header")
            n = max(n, u + 1, v + 1)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        if n == 0:
            raise FormatError(f"{path}: empty graph")
        return Graph(n, edges)

    remap: dict[int, int] = {}
    for u, v, _ in pairs:
        for x in (u, v):
            if x not in remap:
                remap[x] = len(remap)
        if u != v:
            a, b = remap[u], remap[v]
            edges.add((min(a, b), max(a, b)))
    if not remap:
        raise FormatError(f"{path}: empty graph")
    orig = sorted(remap, key=remap.get)
    return Graph(len(remap), edges, orig_ids=orig)


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly n vertices and m edges.

    Deterministic in seed.  Edges are drawn by rejection sampling of
    unordered pairs, which is uniform over m-subsets of the pair universe.
    """
    n, m = int(n), int(m)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds maximum {max_m} for n={n}")
    rng = generator(DOMAIN_GNM, seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        batch = max(256, 2 * (m - len(chosen)))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        for u, v in zip(us, vs):
            if u == v:
                continue
            e = (int(min(u, v)), int(max(u, v)))
            if e not in chosen:
                chosen.add(e)
                if len(chosen) == m:
                    break
    return Graph(n, chosen)
