"""Threshold cascades and influence oracles.

Every model is run under the same general-threshold semantics: each vertex v
draws a threshold theta_v uniform on (0, 1], and an uninfected v becomes
infected in the round after f_v(|infected neighbors|, deg(v)) >= theta_v
first holds.  Because every f here depends on the neighbor set only through
its size, a threshold draw is equivalent to drawing a count class
K_v = min{c : f(c) >= theta_v}: v activates once it has K_v infected
neighbors.  Thresholds map to count classes through a bucket table: for
B = 1024 buckets of width 1/B and each degree, the table holds how many f
values lie below each bucket edge, so a threshold's bucket fixes K_v unless
the bucket also holds an f value, and a bisection of those few values
settles the rest.  f * B and theta * B are exact, so K_v is exactly
searchsorted(f_table(d), theta_v) (see _count_classes).  Both oracles work
in count-class space.  With the classes fixed,
a cascade is a monotone closure, so the infected set does not depend on how
a round is computed.  The Monte Carlo kernel runs a batch of seed sets at
once, as independent rows (set, repetition) that all read the one table of
count classes: it counts round one once for all repetitions of every set,
since every repetition of a set starts from the same seeds, then pushes only
the newly infected frontier of all rows at once along the raw CSR arrays,
and reads each row's infected count off a bincount of its infected entries.
A batch runs in blocks of whole sets under a cap on the entries one call
holds.  Exact expectations are computable by conditioning on one class
boundary at a time.  Both oracles evaluate a seed set one connected component
at a time, on the component index that each Graph builds once and caches
(graph.py): each query's seeds are checked once, by graph._seed_key, its
split() groups them, and its per-component CSR arrays feed the kernel and
the exact oracle's neighbor masks, which the index keeps per model.  The
Monte Carlo oracle answers a seed set it has answered before with one lookup
in a memo of whole sets.  Every other set, asked alone or in a batch, is
split once, and the batch's uncached (component, columns) pairs run in one
kernel call per component; each set gets the answer it would get alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .graph import _bitmasks, _seed_key
from ._rng import DOMAIN_CRN, DOMAIN_INDEPENDENT, _integer, generator, seeds_digest

CRN = "CRN"
INDEPENDENT = "INDEPENDENT"

_MODEL_PARAMS = {
    "icm": ("p",),
    "ltm": (),
    "dicm": ("p", "q"),
    "scm": (),
    "twostep": ("eps",),
}


@dataclass(frozen=True)
class CascadeModel:
    """Local influence function f(c, d), tagged by model kind.

    kind is one of icm, ltm, dicm, scm, twostep.  Parameters not used by a
    kind must be None; the others are real numbers in [0, 1], stored as
    Python floats.  f(c, d) is nondecreasing in c, f(0, d) = 0,
    f(d, d) <= 1; f_table(d) holds it for every c, and is the only place
    the formulas live.
    """

    kind: str
    p: float | None = None
    q: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in _MODEL_PARAMS:
            raise ValueError(f"unknown cascade model {self.kind!r}")
        wanted = _MODEL_PARAMS[self.kind]
        for name in ("p", "q", "eps"):
            val = getattr(self, name)
            if name in wanted:
                if val is None:
                    raise ValueError(f"model {self.kind} requires parameter {name}")
                # numpy's bool is no Real, but Python's is
                if isinstance(val, bool) or not isinstance(val, numbers.Real):
                    raise ValueError(f"parameter {name}={val!r} is not a real number")
                if not 0.0 <= val <= 1.0:
                    raise ValueError(f"parameter {name}={val} outside [0, 1]")
                object.__setattr__(self, name, float(val))
            elif val is not None:
                raise ValueError(f"model {self.kind} does not take parameter {name}")

    @property
    def spec(self) -> str:
        """Canonical spec string, parseable by parse_model."""
        params = ",".join(f"{name}={getattr(self, name)!r}" for name in _MODEL_PARAMS[self.kind])
        return f"{self.kind}:{params}" if params else self.kind

    def f_table(self, d: int) -> np.ndarray:
        """f(c, d) for c = 0..d as a read-only vector."""
        c = np.arange(d + 1, dtype=np.float64)
        if self.kind == "icm":
            out = 1.0 - (1.0 - self.p) ** c
        elif self.kind == "ltm":
            out = c / d if d > 0 else c
        elif self.kind == "dicm":
            out = 1.0 - (1.0 - self.p) ** c
            if d >= 1:
                out[1] = self.q * self.p
        elif self.kind == "scm":
            # Integer-scaled form of (x/2)^2 / ((x/2)^2 + (1-x)^2), x = c/d:
            # exact at the symmetry point and at c = d.
            half = c * c / 4.0
            denom = half + (d - c) ** 2
            out = np.divide(half, denom, out=np.zeros_like(half), where=denom > 0)
        else:
            out = np.ones(d + 1)
            out[0] = 0.0
            if d >= 1:
                out[1] = self.eps
        out[0] = 0.0
        out.setflags(write=False)
        return out


def parse_model(text: str) -> CascadeModel:
    """Parse a model spec like icm:p=0.01 or dicm:p=0.01,q=0.1."""
    name, _, rest = text.strip().partition(":")
    name = name.lower()
    if name not in _MODEL_PARAMS:
        raise ValueError(f"unknown cascade model {name!r}")
    return CascadeModel(name, **_parse_params(rest, f"model {name}", _MODEL_PARAMS[name], float))


def _parse_params(text: str, kind: str, keys: tuple[str, ...], convert) -> dict:
    """The comma-separated key=value items of text, values through convert:
    model specs and bench graph sources.  Each of keys must be given once and
    nothing else; otherwise ValueError, with kind naming the spec."""
    params: dict = {}
    for item in text.split(",") if text else ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise ValueError(f"bad {kind} parameter {item!r}")
        if key in params:
            raise ValueError(f"repeated {kind} parameter {key!r}")
        try:
            params[key] = convert(val)
        except ValueError:
            raise ValueError(f"bad {kind} parameter value {val!r}") from None
    if len(params) != len(keys):
        raise ValueError(f"{kind} takes parameters {list(keys)}, got {sorted(params)}")
    return params


@dataclass(frozen=True)
class OracleConfig:
    """Monte Carlo oracle settings: repetitions, seed, and draw regime.

    CRN mode reuses one fixed threshold table for every query so that sigma
    comparisons are noise-consistent; INDEPENDENT mode draws a fresh table
    per seed set (keyed by the set itself, so still deterministic).
    """

    reps: int
    master_seed: int
    mode: str = CRN

    def __post_init__(self):
        for name in ("reps", "master_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.mode not in (CRN, INDEPENDENT):
            raise ValueError(f"mode must be {CRN} or {INDEPENDENT}")


@dataclass(frozen=True)
class SigmaEstimate:
    """Estimated expected infected count.  reps == 0 marks an exact value."""

    mean: float
    stderr: float
    reps: int


# Buckets per unit threshold (a power of two, so theta * _BUCKETS is exact),
# and entries per block of whole repetitions that _count_classes maps at a
# time, so its temporaries stay small whatever reps * nc is.
_BUCKETS = 2**10
_CLASS_BLOCK = 2**15


def _count_classes(model: CascadeModel, degrees: np.ndarray, theta: np.ndarray, cols=None) -> np.ndarray:
    """Map thresholds theta[..., cols] (all columns if cols is None) to count classes.

    Entry K satisfies: activate exactly when the infected-neighbor count
    reaches K.  K = #{c : f(c) < theta}, which is
    searchsorted(f_table(d), theta, side="left") bit for bit; degrees are
    those of the selected columns.  theta in (0, 1] gives K in [1, d+1] and
    K = d+1 never fires; theta = 0 gives K = 0.  The bucket table is built
    for this call; _map_classes takes one built before.
    """
    return _map_classes(_class_table(model, degrees), degrees, theta, cols)


def _class_table(model: CascadeModel, degrees: np.ndarray) -> tuple:
    """The bucket table of every distinct degree in degrees, for _map_classes.

    The bucket rule, with B = _BUCKETS: below[d][b] = #{c : f(c) < b/B}.
    Since f(c) * B is exact and b an integer, f(c) < b/B holds exactly when
    floor(f(c) * B) + 1 <= b, so one bincount and one cumsum build every
    row.  f_table(d) is nondecreasing, so a threshold in bucket
    b = floor(theta * B) has K in [below[d][b], below[d][b+1]]; theta = 1
    falls in bucket B, so a row needs B + 2 columns.  Each degree's row and
    table depend on that degree alone, so a table over more degrees maps
    the same K.

    Returns (base, start, code, scaled): code holds the rows end to end and
    scaled every f_table(d) * B end to end; degree d's row begins at
    code[base[d]] and its table at scaled[start[d]].
    """
    uniq = np.unique(degrees)
    tables = [model.f_table(int(d)) for d in uniq]
    sizes = np.array([t.size for t in tables], dtype=np.intp)
    # f * B for every table, end to end, plus one entry that a finished
    # bisection may read but never uses.
    scaled = np.concatenate([*tables, [np.inf]]) * _BUCKETS
    width = _BUCKETS + 2
    edges = scaled[:-1].astype(np.intp) + 1
    edges += np.repeat(np.arange(uniq.size) * width, sizes)
    code = np.bincount(edges, minlength=uniq.size * width).reshape(uniq.size, width)
    code = code.cumsum(axis=1, dtype=np.int32)
    # code[d][b] is below[d][b], or its complement ~below[d][b] (negative)
    # when bucket b holds a table entry.
    np.invert(code[:, :-1], out=code[:, :-1], where=code[:, :-1] != code[:, 1:])
    base = np.zeros(int(uniq.max(initial=-1)) + 1, dtype=np.intp)
    start = np.zeros_like(base)
    base[uniq] = np.arange(uniq.size) * width
    start[uniq] = np.cumsum(sizes) - sizes
    return base, start, code.ravel(), scaled


def _map_classes(table: tuple, degrees: np.ndarray, theta: np.ndarray, cols=None) -> np.ndarray:
    """_count_classes through a bucket table from _class_table that covers degrees.

    When the two ends of a threshold's bucket are equal K is that value.
    Otherwise a bisection of the table between them compares f(c) * B with
    theta * B, both exact, so it makes the same < comparisons as
    searchsorted.
    """
    base, start, code, scaled = table
    row_base = base[degrees]
    row_start = start[degrees]

    rows = np.atleast_2d(theta)
    if cols is None:
        cols = np.arange(rows.shape[1])
    ncols = row_base.size
    K = np.empty((rows.shape[0], ncols), dtype=np.int32)
    step = max(1, _CLASS_BLOCK // max(ncols, 1))
    for r0 in range(0, rows.shape[0], step):
        th = np.take(rows[r0 : r0 + step], cols, axis=1)
        th *= _BUCKETS
        bucket = th.astype(np.intp)
        bucket += row_base
        block = K[r0 : r0 + step]
        # Every index is in range; mode "raise" would buffer the output.
        np.take(code, bucket, out=block, mode="clip")
        split = np.flatnonzero(block < 0)
        if split.size:
            lo = ~block.ravel()[split]
            hi = code[bucket.ravel()[split] + 1]
            hi = np.where(hi < 0, ~hi, hi)
            base = row_start[split % ncols]
            th = th.ravel()[split]
            for _ in range(int((hi - lo).max()).bit_length()):
                mid = (lo + hi) >> 1
                go = (mid < hi) & (scaled[base + mid] < th)
                lo = np.where(go, mid + 1, lo)
                hi = np.where(go, hi, mid)
            block.ravel()[split] = lo
    return K.reshape(theta.shape[:-1] + (ncols,))


def simulate_cascade(graph, model: CascadeModel, seeds, thresholds) -> set[int]:
    """One deterministic cascade run under an explicit threshold vector.

    Round 0 infects the seeds; each later round infects every uninfected v
    with f(|infected neighbors of v|, deg v) >= thresholds[v]; stops at a
    fixed point.
    """
    n = graph.n
    theta = np.asarray(thresholds, dtype=np.float64)
    if theta.shape != (n,):
        raise ValueError(f"need one threshold per vertex, got shape {theta.shape}")
    # NaN fails this test, as it would pass a min/max range check.
    if not ((theta >= 0.0) & (theta <= 1.0)).all():
        raise ValueError("thresholds must lie in [0, 1]")
    seed_list = sorted(_seed_key(seeds, n))

    K = _count_classes(model, graph.degrees, theta)
    # theta = 0 gives K = 0: such a vertex fires in round 1 whatever its
    # neighbors do, so starting it with the seeds yields the same closure.
    start = np.union1d(seed_list, np.flatnonzero(K == 0))
    A = graph.csr()
    return {int(v) for v in np.union1d(start, _closure(A.indptr, A.indices, K[None, :], [start]))}


# A round whose frontier has at least size / _DENSE_SHARE edge entries, size
# being the call's sets * reps * nc entries, adds its counts with dense
# bincounts over slices of about size edge entries; a smaller round sorts
# only what it touches.  So no push builds edge arrays longer than size plus
# one vertex's degree.  Counts on the hierarchical benchmark graph
# (gen_hierarchical(8, 15, 15, 1), bisection tree, scm, 100 reps): at
# k = 5 the 1,772 later rounds of greedy, dpim and mpa all ran sparse, as
# did the 191 from 150 fresh scm 5-sets and all G(n, m) icm, dicm and ltm
# rounds; at k = 20, one-sweep mpa took the dense push in 2,600 of its
# 26,407 later rounds and dpim in 171 of 2,984.  icm:p=0.5 on G(2000, 10^4)
# took it in 5 of 8.  Round one switches the same way on its touched (set,
# vertex) pairs: tested alone while under sets * nc / _DENSE_SHARE (G(n, m)
# seed neighborhoods), else with every entry (hierarchical seed sets: 615
# of the 734 calls at k = 5, 2,820 of the one-sweep mpa's 2,866 at k = 20).
_DENSE_SHARE = 8

# Entries (sets * reps * nc) that one _closure call holds at most, unless a
# single set has more: _totals runs a batch of seed sets in blocks of whole
# sets under this cap.  It bounds the kernel's memory, and a dense round one
# over many more entries is memory-bound.
_CLOSURE_ENTRIES = 2**18

# The count of an infected entry: pushes add at most nc - 1 to it, so it never
# reaches a count class again.
_DONE = -(2**30)


def _runs(indptr, v, d):
    """Positions in indices of the adjacency runs of vertices v (degrees d).

    The runs are laid end to end: entry j belongs to the run that holds j
    and reads indices at its offset in that run.
    """
    ends = np.cumsum(d)
    pos = np.repeat(indptr[v] - (ends - d), d)
    pos += np.arange(pos.size)
    return pos


def _targets(indptr, indices, nc, frontier, v, d):
    """Flattened targets r * nc + w of the edges leaving the frontier.

    v is frontier % nc and d its degrees.
    """
    targets = np.repeat(frontier - v, d)
    targets += indices[_runs(indptr, v, d)]
    return targets


def _entries(pairs, nc, reps):
    """Flat entries (b * reps + r) * nc + v, for every repetition r, of the
    (set, vertex) pairs b * nc + v."""
    b, v = np.divmod(pairs, nc)
    return ((b * (reps * nc) + v)[:, None] + np.arange(0, reps * nc, nc)).ravel()


def _closure(indptr, indices, K, seed_sets, degree=None) -> np.ndarray:
    """Flat entries that the cascades from seed_sets infect beyond their seeds.

    (indptr, indices) is the CSR adjacency of the nc vertices, degree their
    degrees (np.diff(indptr) if None) and K their (reps, nc) count classes.
    The B seed sets (each of distinct columns) run as B * reps independent
    rows against the one K: entry (b, r, v) is flattened to
    (b * reps + r) * nc + v, and row b * reps + r reads K[r].  Round one is
    the same in every repetition: each non-seed w of set b gains
    c_bw = |N(w) & seeds_b| infected neighbors, counted for all sets in one
    pass over their seeds' adjacency.  Its frontier is where K reaches c_bw:
    tested only at the touched pairs {(b, w) : c_bw > 0} when they are few,
    else over all entries.  So round one holds the seeds' adjacency plus at
    most B * reps * nc entries.  Each later round pushes the newly infected
    frontier of every set and repetition along its edges and infects the
    entries whose infected-neighbor count has reached K; an infected entry's
    count reads _DONE, so it never fires again.  No later push builds edge
    arrays longer than B * reps * nc plus one vertex's degree.
    """
    reps, nc = K.shape
    sets = len(seed_sets)
    block = reps * nc
    size = sets * block
    if degree is None:
        degree = np.diff(indptr)
    K = K.ravel()
    sizes = [len(cols) for cols in seed_sets]
    cols = np.fromiter(itertools.chain.from_iterable(seed_sets), dtype=np.int64, count=sum(sizes))
    seeds = np.repeat(np.arange(sets) * nc, sizes)
    d = degree[cols]
    targets = np.repeat(seeds, d)
    targets += indices[_runs(indptr, cols, d)]
    seeds += cols
    row = np.bincount(targets, minlength=sets * nc).astype(np.int32)
    row[seeds] = _DONE
    touched = np.flatnonzero(row > 0)
    if touched.size * _DENSE_SHARE < row.size:
        flat = _entries(touched, nc, reps)
        counts = np.zeros(size, dtype=np.int32)
        counts[flat] = hits = np.repeat(row[touched], reps)
        counts[_entries(seeds, nc, reps)] = _DONE
        frontier = flat[K[flat % block] <= hits]
    else:
        counts = np.repeat(row.reshape(sets, 1, nc), reps, axis=1).ravel()
        frontier = np.flatnonzero(counts.reshape(sets, block) >= K)
    spread = [frontier]
    while frontier.size:
        counts[frontier] = _DONE
        v = frontier % nc
        d = degree[v]
        total = int(d.sum())
        if total * _DENSE_SHARE < size:
            touched, hits = np.unique(_targets(indptr, indices, nc, frontier, v, d), return_counts=True)
            counts[touched] = hits = counts[touched] + hits
            frontier = touched[hits >= K[touched % block]]
        else:
            # Cut the frontier where its edge entries pass each multiple of
            # size (a degree is below nc, so no slice is empty); the test
            # after the last slice sees the same sums as one push.
            cuts = np.searchsorted(np.cumsum(d), np.arange(size, total, size), side="right")
            bounds = [0, *cuts.tolist(), frontier.size]
            for lo, hi in zip(bounds, bounds[1:]):
                part = _targets(indptr, indices, nc, frontier[lo:hi], v[lo:hi], d[lo:hi])
                counts += np.bincount(part, minlength=size)
            frontier = np.flatnonzero(counts.reshape(sets, block) >= K)
        spread.append(frontier)
    return np.concatenate(spread)


def _totals(indptr, indices, K, seed_sets, degree=None) -> np.ndarray:
    """Infected counts (len(seed_sets), reps) of _closure's cascades.

    The sets run through _closure in blocks of whole sets, each of at most
    _CLOSURE_ENTRIES entries (or a single set), and each count is the set's
    size plus a bincount of its infected entries.
    """
    reps, nc = K.shape
    step = max(1, _CLOSURE_ENTRIES // K.size)
    totals = np.empty((len(seed_sets), reps), dtype=np.int64)
    for lo in range(0, len(seed_sets), step):
        block = seed_sets[lo : lo + step]
        part = totals[lo : lo + len(block)]
        spread = _closure(indptr, indices, K, block, degree)
        part[:] = np.bincount(spread // nc, minlength=part.size).reshape(part.shape)
        part += np.array([len(cols) for cols in block])[:, None]
    return totals


def _draw_thresholds(rng, shape) -> np.ndarray:
    """Thresholds uniform on (0, 1]: 1 - u in place, the same bits as 1.0 - u."""
    u = rng.random(shape)
    np.subtract(1.0, u, out=u)
    return u


class MonteCarloOracle:
    """Monte Carlo sigma(S) with shared threshold draws and result caching.

    The oracle works per connected component, on the graph's shared
    component index, and caches, per component and per (component-local)
    seed set, the integer infected counts of every repetition.  Totals are
    sums of cached integer vectors, so results are bit-identical regardless
    of query order or parallelism.  A seed set already answered is answered
    again from a memo of whole sets, with one lookup; sigma and sigma_many
    answer every other set through _answer, which splits it once.  calls
    counts every sigma() invocation, cache hits included; sigma_many answers
    each of its sets through sigma().
    """

    def __init__(self, graph, model: CascadeModel, cfg: OracleConfig):
        self.graph = graph
        self.model = model
        self.cfg = cfg
        self.calls = 0
        self._index = graph._component_index()
        self._crn_classes: dict[int, np.ndarray] = {}
        self._memo: dict[tuple, np.ndarray] = {}
        self._answers: dict[frozenset, SigmaEstimate] = {}
        if cfg.mode == CRN:
            self._theta = _draw_thresholds(generator(DOMAIN_CRN, cfg.master_seed), (cfg.reps, graph.n))
        else:
            self._theta = None

    # Bound on each cache: totals vectors and answers are cheap to recompute
    # and exact, so a cache may be dropped wholesale without changing any
    # result.
    _MEMO_LIMIT = 200_000

    def _classes(self, ci: int, theta: np.ndarray) -> np.ndarray:
        index, model = self._index, self.model
        table = index.table(model, lambda: _class_table(model, self.graph.degrees))
        return _map_classes(table, index.degrees[ci], theta, index.members[ci])

    def sigma(self, seeds) -> SigmaEstimate:
        self.calls += 1
        key = _seed_key(seeds, self.graph.n)
        est = self._answers.get(key)
        return self._answer([key])[0] if est is None else est

    def sigma_many(self, sets) -> list[SigmaEstimate]:
        """[sigma(s) for s in sets]: the sets not answered before go through
        one _answer call first, then every set through sigma, so calls and
        the answers' bytes are those of one sigma call per set.  Each set is
        checked once: sigma takes the checked key as it is."""
        keys = [_seed_key(seeds, self.graph.n) for seeds in sets]
        self._answer([key for key in dict.fromkeys(keys) if key not in self._answers])
        return [self.sigma(key) for key in keys]

    def _answer(self, keys: list) -> list[SigmaEstimate]:
        """Answer distinct seed sets not answered before, splitting each once.

        Under CRN the pairs (component, columns) missing from the memo run in
        one _totals call per component, in first-seen order; the batch reads
        every pair's totals from a local map, which a memo clear cannot empty.
        A batch of two or more sets then sums its totals into one (sets, reps)
        array and reduces it along the repetitions at once, with the bytes of
        the per-set reduction that a lone set keeps.  INDEPENDENT draws differ
        per set, so each set runs alone.
        """
        index, reps, crn = self._index, self.cfg.reps, self.cfg.mode == CRN
        groups = [index.split(key) for key in keys]

        def run(ci, K, col_sets):
            return _totals(index.indptr[ci], index.indices[ci], K, col_sets, index.degrees[ci])

        if crn:
            known: dict[tuple, np.ndarray | None] = {}
            missing: dict[int, list] = {}
            for pair in itertools.chain.from_iterable(groups):
                if pair not in known:
                    known[pair] = totals = self._memo.get(pair)
                    if totals is None:
                        missing.setdefault(pair[0], []).append(pair[1])
            for ci, col_sets in missing.items():
                K = self._crn_classes.get(ci)
                if K is None:
                    K = self._crn_classes[ci] = self._classes(ci, self._theta)
                for cols, totals in zip(col_sets, run(ci, K, col_sets)):
                    if len(self._memo) >= self._MEMO_LIMIT:
                        self._memo.clear()
                    self._memo[(ci, cols)] = known[(ci, cols)] = totals
        if crn and len(keys) > 1:
            totals = np.zeros((len(keys), reps), dtype=np.int64)
            for row, pairs in zip(totals, groups):
                for pair in pairs:
                    row += known[pair]
            means = totals.mean(axis=1).tolist()
            stderrs = (totals.std(axis=1, ddof=1) / math.sqrt(reps)).tolist() if reps > 1 else [0.0] * len(keys)
            answers = [SigmaEstimate(*est, reps) for est in zip(means, stderrs)]
            for key, est in zip(keys, answers):
                if len(self._answers) >= self._MEMO_LIMIT:
                    self._answers.clear()
                self._answers[key] = est
            return answers
        answers = []
        for key, pairs in zip(keys, groups):
            totals = np.zeros(reps, dtype=np.int64)
            if crn:
                for pair in pairs:
                    totals += known[pair]
            else:
                rng = generator(DOMAIN_INDEPENDENT, self.cfg.master_seed, seeds_digest(key))
                theta = _draw_thresholds(rng, (reps, self.graph.n))
                for ci, cols in pairs:
                    totals += run(ci, self._classes(ci, theta), [cols])[0]
            stderr = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            answers.append(SigmaEstimate(float(totals.mean()), stderr, reps))
            if len(self._answers) >= self._MEMO_LIMIT:
                self._answers.clear()
            self._answers[key] = answers[-1]
        return answers


def sigma_mc(graph, model: CascadeModel, seeds, cfg: OracleConfig) -> SigmaEstimate:
    """Monte Carlo estimate of sigma(seeds) under cfg."""
    return MonteCarloOracle(graph, model, cfg).sigma(seeds)


class ExactOracle:
    """Exact sigma(S) by conditioning on count classes.

    Each vertex's threshold is equivalent to a count class K with
    P(K = c) = f(c) - f(c-1) and P(never) = 1 - f(d).  The oracle runs the
    cascade symbolically per connected component: activations forced by
    already-revealed information are applied outright, vertices whose
    neighbors are all infected are marginalized in closed form (their
    activation cannot influence anyone else), and otherwise the walk
    branches on whether the smallest undecided vertex activates at its
    current count, activating branch first, on an explicit stack.

    Only the core, every vertex but the pendants, goes through that
    per-vertex scan.  A pendant has degree 1 and its neighbor, its hub,
    degree at least 2.  It has an infected neighbor only once its hub is
    infected, and then its count is 1, its degree: it never branches, and
    whether it activates, survives at count 1 or is credited f(1, 1)
    changes no other vertex's count.  So the pendants of all infected hubs
    are settled together, in one step per state, since f(1, 1) is one number.

    A state is keyed by its infected mask, the mask of pendants that
    survived at count 1, and the frozenset of core (vertex, survived count)
    pairs with a nonzero count; a vertex's survived count is the
    infected-neighbor count it is known not to have activated at, and every
    count written is at least 1, so the key is one to one with the full
    vector of counts.  Each oracle keeps one memo per component, mapping
    each state key to its value; a query's start state (its seeds' mask, no
    counts) is one more key in it, so a repeated seed set is one memo hit
    per component.  Past _BUDGET explored states it raises CapacityError, a
    guard against exponential blowups.  _exact_structure builds the masks and
    f tables once per (graph, model); the graph's component index keeps them.

    calls counts every sigma()/value() invocation, cache hits included.
    """

    # Explored states one oracle may value before it raises CapacityError.
    _BUDGET = 10_000_000

    def __init__(self, graph, model: CascadeModel):
        self.graph = graph
        self.model = model
        self.calls = 0
        self._states = 0
        self._index = graph._component_index()
        self._p1, self._comps = self._index.table(("exact", model), lambda: _exact_structure(graph, model))
        self._memos = [{} for _ in self._comps]

    def value(self, seeds) -> float:
        """Exact expected infected count."""
        self.calls += 1
        key = _seed_key(seeds, self.graph.n)
        return math.fsum(self._component_value(*pair) for pair in self._index.split(key))

    def sigma(self, seeds) -> SigmaEstimate:
        return SigmaEstimate(self.value(seeds), 0.0, 0)

    def sigma_many(self, sets) -> list[SigmaEstimate]:
        """[sigma(s) for s in sets]; the walk has nothing to share."""
        return [self.sigma(seeds) for seeds in sets]

    def _component_value(self, ci: int, seed_cols) -> float:
        core, pend = self._comps[ci]
        memo, p1 = self._memos[ci], self._p1
        # A depth-first walk.  todo holds state keys (I, P, survived counts)
        # still to value, and branch points (key, (gain, p)), each pushed
        # below its "no" key and then its "yes" key; once both are valued,
        # their values are the last two on vals.
        todo = [(sum(1 << c for c in seed_cols), 0, frozenset())]
        vals = []
        while todo:
            key = todo.pop()
            if len(key) == 2:
                key, (gain, p) = key
                no = vals.pop()
                val = memo[key] = gain + p * vals.pop() + (1.0 - p) * no
            elif (val := memo.get(key)) is None:
                self._states += 1
                if self._states > self._BUDGET:
                    raise CapacityError(f"exact oracle exceeded {self._BUDGET} explored states")
                I, P, surv = key[0], key[1], dict(key[2])
                # Scan the core until a scan changes nothing: certain
                # activations may cascade, and zero-probability steps just
                # raise the survived count.  The last scan also credits each
                # vertex whose neighbors are all infected (its fate affects
                # nobody, so take its activation probability directly) and
                # picks the first vertex left to branch on.  A vertex with no
                # infected neighbor has c = 0 <= s and is skipped before its
                # lookup.
                changed = True
                while changed:
                    changed, credits, branch = False, [], None
                    for v, mask, d, table in core:
                        if I >> v & 1:
                            continue
                        c = (I & mask).bit_count()
                        if not c:
                            continue
                        s = surv.get(v, 0)
                        if c <= s:
                            continue
                        fs = table[s]
                        p = (table[c] - fs) / (1.0 - fs)
                        if p >= 1.0:
                            I |= 1 << v
                            changed = True
                        elif p <= 0.0:
                            surv[v] = c
                            changed = True
                        elif c == d:
                            credits.append((v, c, p))
                        elif branch is None:
                            branch = (v, c, p)
                # Credited only now: a credit taken during a scan that
                # changed something would be lost on the rescan.
                for v, c, _ in credits:
                    surv[v] = c
                # Then the unsettled pendants of every infected hub, all with
                # p = f(1, 1): they activate, or survive at 1, or are credited
                # p each and survive at 1.  That changes no core count, and no
                # hub is a pendant, so no rescan: one step settles them all.
                leaves = 0
                for h, mask in pend:
                    if I >> h & 1:
                        leaves |= mask
                leaves &= ~(I | P)
                if p1 >= 1.0:
                    I |= leaves
                else:
                    P |= leaves
                credited = leaves.bit_count() if 0.0 < p1 < 1.0 else 0
                # fsum is exactly rounded, so the order of the credits does
                # not matter.
                gain = math.fsum(itertools.chain((p for _, _, p in credits), itertools.repeat(p1, credited)))
                if branch is not None:
                    v, c, p = branch
                    no = frozenset({**surv, v: c}.items())
                    surv.pop(v, None)
                    todo += [(key, (gain, p)), (I, P, no), (I | 1 << v, P, frozenset(surv.items()))]
                    continue
                val = memo[key] = float(I.bit_count()) + gain
            vals.append(val)
        return vals[0]


def _exact_structure(graph, model: CascadeModel) -> tuple:
    """(f(1, 1), comps): comps[ci] is component ci's core, as (column, neighbor
    mask, degree, f table) in column order, and each hub's (column, pendants
    mask).  The masks take O(entries + nc / 8) on nc vertices (graph._bitmasks)."""
    by_degree = {d: model.f_table(d).tolist() for d in set(graph.degrees.tolist())}
    index, comps = graph._component_index(), []
    for indptr, indices, degrees in zip(index.indptr, index.indices, index.degrees):
        bounds, cols, degs = indptr.tolist(), indices.tolist(), degrees.tolist()
        core, leaves = [], []
        for v, d in enumerate(degs):
            (leaves if d == 1 and degs[cols[bounds[v]]] > 1 else core).append(v)
        rows = (cols[bounds[v] : bounds[v + 1]] for v in core)
        masks = _bitmasks(itertools.chain(rows, [leaves]), len(degs))
        pendants = masks.pop()
        pend = tuple((v, mask & pendants) for v, mask in zip(core, masks) if mask & pendants)
        comps.append(([(v, mask, degs[v], by_degree[degs[v]]) for v, mask in zip(core, masks)], pend))
    return model.f_table(1).tolist()[1], comps


def sigma_exact(graph, model: CascadeModel, seeds) -> float:
    """Exact expected infected count from seeds (capacity-guarded)."""
    return ExactOracle(graph, model).value(seeds)
