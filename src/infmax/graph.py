"""Undirected simple graphs: representation, edge-list files, G(n,m) sampling.

Edge-list files follow the SNAP convention: whitespace-separated pairs of
ASCII integers, lines starting with '#' ignored.  One comment form is
significant: a line of exactly "# nodes: N" declares the vertex count, which
is the only way to represent isolated vertices.  Files with that header are
treated as canonical (ids are used as-is and must be dense-compatible);
files without it have their ids remapped to [0, n) in first-appearance
order.

A Graph holds its adjacency as one int32 CSR matrix, built with the graph;
neighbor lists and degrees are read from it.  The connected-component index
that both influence oracles share (component labels, local columns, each
component's adjacency in local columns, and the per-component split of a
seed set) is built from the CSR on first use and cached on the graph.  It
also keeps up to _TABLE_LIMIT tables that the oracles build (table()).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re

import numpy as np
import scipy.sparse as sp

from .errors import FormatError
from ._rng import DOMAIN_GNM, _integer, generator

# \d also matches non-ASCII digits, so such a header is read, and refused.
_NODES_HEADER = re.compile(r"^#\s*nodes:\s*(\d+)\s*$")

# Tables one component index keeps at most; a full index drops them all.
_TABLE_LIMIT = 16


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
        n = _integer(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
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
        u, v = arr[:, 0], arr[:, 1]
        self._csr = sp.csr_array(
            (np.ones(2 * len(arr), dtype=np.int32), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        self._degrees = np.diff(self._csr.indptr).astype(np.int64)
        self._degrees.setflags(write=False)
        self._index = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return int(self._edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view of the CSR)."""
        indptr = self._csr.indptr
        out = self._csr.indices[indptr[v]:indptr[v + 1]]
        out.setflags(write=False)
        return out

    @property
    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        return self._edges

    def original_id(self, v: int) -> int:
        return v if self._orig_ids is None else self._orig_ids[v]

    def csr(self) -> sp.csr_array:
        """0/1 adjacency matrix as int32 CSR with sorted indices."""
        return self._csr

    def components(self) -> list[np.ndarray]:
        """Connected components as sorted vertex arrays, ordered by smallest vertex."""
        return self._component_index().members

    def _component_index(self) -> "_ComponentIndex":
        if self._index is None:
            self._index = _ComponentIndex(self._csr)
        return self._index

    def write(self, path) -> None:
        """Emit '# nodes: N' followed by 'u v' lines, u < v, ascending."""
        header = [f"# nodes: {self._n}\n"]
        _write_atomic(path, itertools.chain(header, (f"{u} {v}\n" for u, v in self._edges)))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self._n}, m={self.m})"


class _ComponentIndex:
    """Connected components of a CSR graph, numbered by smallest vertex.

    Vertex v lies in component labels[v] at local column local[v] (both kept
    only for split, which groups a seed set that _seed_key has checked and
    checks nothing itself).  members[ci] lists component ci's vertices in
    ascending order, and indptr[ci], indices[ci] and degrees[ci] are its
    adjacency in local columns: the graph's CSR rows of members[ci],
    remapped through local.  members, indices and degrees are read-only
    views of arrays that all components share.  class_tables holds the
    tables that table() built, by key.
    """

    def __init__(self, csr):
        n = csr.shape[0]
        _, labels = sp.csgraph.connected_components(csr, directed=False)
        sizes = np.bincount(labels)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        order = np.argsort(labels, kind="stable")
        local = np.empty(n, dtype=np.int64)
        local[order] = np.arange(n) - np.repeat(bounds[:-1], sizes)
        # The CSR rows of all components laid end to end, in component order.
        degree = np.diff(csr.indptr)[order]
        indptr = np.concatenate([[0], np.cumsum(degree)])
        pos = np.repeat(csr.indptr[order] - indptr[:-1], degree) + np.arange(indptr[-1])
        indices = local[csr.indices[pos]]
        for arr in (order, degree, indptr, indices):
            arr.setflags(write=False)
        self.members, self.indptr, self.indices, self.degrees = [], [], [], []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            self.members.append(order[lo:hi])
            self.indptr.append(indptr[lo:hi + 1] - indptr[lo])
            self.indices.append(indices[indptr[lo]:indptr[hi]])
            self.degrees.append(degree[lo:hi])
        self._where = list(zip(labels.tolist(), local.tolist()))
        self.class_tables: dict = {}

    def split(self, key) -> list[tuple[int, tuple[int, ...]]]:
        """The seeds of a checked key as (component, sorted local columns), by component."""
        groups: dict[int, list[int]] = {}
        for v in sorted(key):
            ci, col = self._where[v]
            groups.setdefault(ci, []).append(col)
        return [(ci, tuple(cols)) for ci, cols in sorted(groups.items())]

    def table(self, key, build):
        """class_tables[key], set to build() if missing.  A new table past
        _TABLE_LIMIT clears them all first: each rebuilds with the same bytes."""
        table = self.class_tables.get(key)
        if table is None:
            if len(self.class_tables) >= _TABLE_LIMIT:
                self.class_tables.clear()
            table = self.class_tables[key] = build()
        return table


class _SeedKey(frozenset):
    """A seed set whose ids _seed_key has checked: ints in [0, n)."""

    __slots__ = ()


def _seed_key(seeds, n: int) -> _SeedKey:
    """seeds as a _SeedKey.  Raises ValueError for an id that is not an
    integer (see _integer) or one outside [0, n).  A _SeedKey is returned as
    it is: only this function and _key_union, which unites checked keys,
    make one, so it has been checked."""
    if seeds.__class__ is _SeedKey:
        return seeds
    key = _SeedKey(map(_integer, seeds, itertools.repeat("vertex id")))
    if key and (min(key) < 0 or max(key) >= n):
        raise ValueError("seed outside vertex range")
    return key


def _key_union(first: _SeedKey, *rest: _SeedKey) -> _SeedKey:
    """The union of _SeedKeys as a _SeedKey.  It checks no id: each one was
    checked when the key holding it was made."""
    return _SeedKey(first.union(*rest))


def _bitmasks(groups, width: int) -> list[int]:
    """Each group of Python ints in [0, width) as an int with those bits set.
    The bits are set in a bytearray: O(len(group) + width / 8) per group."""
    size, masks = width // 8 + 1, []
    for group in groups:
        buf = bytearray(size)
        for c in group:
            buf[c >> 3] |= 1 << (c & 7)
        masks.append(int.from_bytes(buf, "little"))
    return masks


def _write_atomic(path, lines) -> None:
    """Stream lines to path through a temporary file, removed if the write or the replace fails.
    Its name is fresh and opened exclusively, so no other file is overwritten,
    and it has open()'s usual mode (not mkstemp's 0600), which path keeps."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def _open_text(path):
    """open(path); a decode error in the with block raises FormatError naming path."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _parse_int(text: str, what: str = "value") -> int:
    """The integer that text spells in ASCII, [+-]?[0-9]+ between optional
    whitespace: every integer in a file is read through it.  Anything else,
    such as 1_0 or non-ASCII digits that int() alone would read, raises
    FormatError (a ValueError) "<what> <text> is not an integer"."""
    try:
        if text.isascii() and "_" not in text:
            return int(text)
    except ValueError:
        pass
    raise FormatError(f"{what} {text!r} is not an integer")


def load_edge_list(path) -> Graph:
    """Parse an edge-list file into a Graph.

    Self-loops and duplicate edges (in either orientation) are dropped
    silently.  Without a "# nodes: N" header, ids are remapped to [0, n) in
    first-appearance order; with it, ids are taken as canonical and n is
    forced to at least N.
    """
    forced_n = None
    pairs = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                header = _NODES_HEADER.match(stripped)
                if header:
                    forced_n = _parse_int(header.group(1), f"{path}:{lineno}: node count")
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise FormatError(f"{path}:{lineno}: expected two tokens, got {len(tokens)}")
            where = f"{path}:{lineno}: vertex id"
            u, v = _parse_int(tokens[0], where), _parse_int(tokens[1], where)
            pairs.append((u, v, lineno))

    remap = None if forced_n is not None else {}
    n, edges = forced_n or 0, set()
    for u, v, lineno in pairs:
        if remap is not None:
            u, v = remap.setdefault(u, len(remap)), remap.setdefault(v, len(remap))
        elif u < 0 or v < 0:
            raise FormatError(f"{path}:{lineno}: negative id with nodes header")
        n = max(n, u + 1, v + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if n == 0:
        raise FormatError(f"{path}: empty graph")
    return Graph(n, edges, orig_ids=None if remap is None else list(remap))


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly n vertices and m edges.

    Deterministic in seed.  Edges are drawn by rejection sampling of
    unordered pairs, which is uniform over m-subsets of the pair universe.
    """
    n, m = _integer(n, "n"), _integer(m, "m")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds maximum {max_m} for n={n}")
    rng = generator(DOMAIN_GNM, seed)
    chosen = np.empty(0, dtype=np.int64)  # pairs as lo * n + hi, in draw order
    while chosen.size < m:
        batch = max(256, 2 * (m - chosen.size))
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        keys = (lo * n + hi)[lo != hi]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # first draw of each pair, in draw order
        keys = keys[~np.isin(keys, chosen)]
        chosen = np.concatenate([chosen, keys[: m - chosen.size]])
    return Graph(n, np.stack(np.divmod(chosen, n), axis=1))
