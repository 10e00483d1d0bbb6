"""Threshold cascades and influence oracles.

Every model is run under the same general-threshold semantics: each vertex v
draws a threshold theta_v uniform on (0, 1], and an uninfected v becomes
infected in the round after f_v(|infected neighbors|, deg(v)) >= theta_v
first holds.  Because every f here depends on the neighbor set only through
its size, a threshold draw is equivalent to drawing a count class
K_v = min{c : f(c) >= theta_v}: v activates once it has K_v infected
neighbors.  Both oracles work in count-class space.  With the classes fixed,
a cascade is a monotone closure, so the infected set does not depend on how
a round is computed: the Monte Carlo kernel pushes only the newly infected
frontier of all repetitions at once along the raw CSR arrays, and exact
expectations are computable by conditioning on one class boundary at a time.
Both oracles evaluate a seed set one connected component at a time, on the
component index that each Graph builds once and caches (graph.py): its
split() validates and groups the seeds, and its per-component CSR arrays feed
the kernel and the exact oracle's neighbor masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from ._rng import DOMAIN_CRN, DOMAIN_INDEPENDENT, generator, seeds_digest

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
    kind must be None.  f(c, d) is nondecreasing in c, f(0, d) = 0,
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
                if not 0.0 <= val <= 1.0:
                    raise ValueError(f"parameter {name}={val} outside [0, 1]")
            elif val is not None:
                raise ValueError(f"model {self.kind} does not take parameter {name}")

    @classmethod
    def icm(cls, p: float) -> "CascadeModel":
        return cls("icm", p=float(p))

    @classmethod
    def ltm(cls) -> "CascadeModel":
        return cls("ltm")

    @classmethod
    def dicm(cls, p: float, q: float) -> "CascadeModel":
        return cls("dicm", p=float(p), q=float(q))

    @classmethod
    def scm(cls) -> "CascadeModel":
        return cls("scm")

    @classmethod
    def twostep(cls, eps: float) -> "CascadeModel":
        return cls("twostep", eps=float(eps))

    @property
    def spec(self) -> str:
        """Canonical spec string, parseable by parse_model."""
        if self.kind == "icm":
            return f"icm:p={self.p!r}"
        if self.kind == "dicm":
            return f"dicm:p={self.p!r},q={self.q!r}"
        if self.kind == "twostep":
            return f"twostep:eps={self.eps!r}"
        return self.kind

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
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in ("p", "q", "eps"):
                raise ValueError(f"bad model parameter {item!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"bad model parameter value {val!r}") from None
    expected = set(_MODEL_PARAMS[name])
    if set(params) != expected:
        raise ValueError(
            f"model {name} takes parameters {sorted(expected)}, got {sorted(params)}"
        )
    return CascadeModel(name, **params)


def local_influence(model: CascadeModel, infected_count: int, degree: int) -> float:
    """f(c, d) with argument validation: the f_table(d) entry the cascades use."""
    c, d = int(infected_count), int(degree)
    if c < 0 or d < 0:
        raise ValueError("counts must be nonnegative")
    if c > d:
        raise ValueError(f"infected count {c} exceeds degree {d}")
    return float(model.f_table(d)[c])


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


def _count_classes(model: CascadeModel, degrees: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Map thresholds to activation count classes.

    Entry K satisfies: activate exactly when the infected-neighbor count
    reaches K.  theta in (0, 1] gives K in [1, d+1]; K = d+1 never fires.
    """
    K = np.empty(theta.shape, dtype=np.int32)
    for d in np.unique(degrees):
        cols = np.flatnonzero(degrees == d)
        table = model.f_table(int(d))
        K[..., cols] = np.searchsorted(table, theta[..., cols], side="left").astype(np.int32)
    return K


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
    if theta.size and (theta.min() < 0.0 or theta.max() > 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    seed_list = sorted({int(v) for v in seeds})
    if seed_list and (seed_list[0] < 0 or seed_list[-1] >= n):
        raise ValueError("seed outside vertex range")

    K = _count_classes(model, graph.degrees, theta)
    # theta = 0 gives K = 0: such a vertex fires in round 1 whatever its
    # neighbors do, so starting it with the seeds yields the same closure.
    start = np.union1d(seed_list, np.flatnonzero(K == 0))
    A = graph.csr()
    infected = _closure(A.indptr, A.indices, K[None, :], start)[0]
    return {int(v) for v in np.flatnonzero(infected)}


# A round whose frontier has at least reps * nc / _DENSE_SHARE edge entries
# adds its counts with dense bincounts; a smaller round sorts only what it
# touches.  Sparse G(n, m) cascades stay far below the switch, where a dense
# step costs several times more; hierarchical scm cascades put a third of
# their rounds above it, where sorting costs more.  Kernel time there is
# flat for shares from 6 to 16 and grows as the share falls below 6.
_DENSE_SHARE = 8


def _targets(indptr, indices, nc, frontier, v, d):
    """Flattened targets r * nc + w of the edges leaving the frontier.

    v is frontier % nc and d its degrees.  The frontier's adjacency runs are
    laid end to end: entry j belongs to the run that holds j and reads
    indices at its offset in that run.
    """
    ends = np.cumsum(d)
    pos = np.repeat(indptr[v] - (ends - d), d)
    pos += np.arange(ends[-1])
    targets = np.repeat(frontier - v, d)
    targets += indices[pos]
    return targets


def _closure(indptr, indices, K, seed_cols) -> np.ndarray:
    """Infected mask (reps, nc) of the cascade from seed_cols in every repetition.

    (indptr, indices) is the CSR adjacency of the nc vertices and K their
    (reps, nc) count classes.  Entry (r, v) is flattened to r * nc + v; each
    round pushes the newly infected frontier along its edges and infects the
    uninfected entries whose infected-neighbor count has reached K.  No push
    builds edge arrays longer than reps * nc plus one vertex's degree.
    """
    reps, nc = K.shape
    size = reps * nc
    K = K.ravel()
    infected = np.zeros(size, dtype=bool)
    counts = np.zeros(size, dtype=np.int32)
    degree = np.diff(indptr)
    cols = np.asarray(seed_cols, dtype=np.int64)
    frontier = (np.arange(reps)[:, None] * nc + cols).ravel()
    infected[frontier] = True
    while frontier.size:
        v = frontier % nc
        d = degree[v]
        total = int(d.sum())
        if total * _DENSE_SHARE < size:
            touched, hits = np.unique(_targets(indptr, indices, nc, frontier, v, d), return_counts=True)
            counts[touched] += hits
            frontier = touched[(counts[touched] >= K[touched]) & ~infected[touched]]
        else:
            # Cut the frontier where its edge entries pass each multiple of
            # reps * nc (a degree is below nc, so no slice is empty); the
            # test after the last slice sees the same sums as one push.
            cuts = np.searchsorted(np.cumsum(d), np.arange(size, total, size), side="right")
            bounds = [0, *cuts.tolist(), frontier.size]
            for lo, hi in zip(bounds, bounds[1:]):
                part = _targets(indptr, indices, nc, frontier[lo:hi], v[lo:hi], d[lo:hi])
                counts += np.bincount(part, minlength=size)
            frontier = np.flatnonzero((counts >= K) & ~infected)
        infected[frontier] = True
    return infected.reshape(reps, nc)


class MonteCarloOracle:
    """Monte Carlo sigma(S) with shared threshold draws and result caching.

    The oracle works per connected component, on the graph's shared
    component index, and caches, per component and per (component-local)
    seed set, the integer infected counts of every repetition.  Totals are
    sums of cached integer vectors, so results are bit-identical regardless
    of query order or parallelism.  calls counts every sigma() invocation,
    cache hits included.
    """

    def __init__(self, graph, model: CascadeModel, cfg: OracleConfig):
        self.graph = graph
        self.model = model
        self.cfg = cfg
        self.calls = 0
        self._index = graph._component_index()
        self._crn_classes: dict[int, np.ndarray] = {}
        self._memo: dict[tuple, np.ndarray] = {}
        if cfg.mode == CRN:
            rng = generator(DOMAIN_CRN, cfg.master_seed)
            self._theta = 1.0 - rng.random((cfg.reps, graph.n))
        else:
            self._theta = None

    # Cache bound: totals vectors are cheap to recompute and exact, so the
    # cache may be dropped wholesale without changing any result.
    _MEMO_LIMIT = 200_000

    def _classes(self, ci: int, theta: np.ndarray) -> np.ndarray:
        index = self._index
        return _count_classes(self.model, index.degrees[ci], theta[:, index.members[ci]])

    def _batch_sim(self, ci: int, K, seed_cols) -> np.ndarray:
        """Infected count per repetition for one component, one seed set."""
        infected = _closure(self._index.indptr[ci], self._index.indices[ci], K, seed_cols)
        return infected.sum(axis=1, dtype=np.int64)

    def _crn_totals(self, ci: int, seed_cols: tuple[int, ...]) -> np.ndarray:
        key = (ci, seed_cols)
        totals = self._memo.get(key)
        if totals is None:
            K = self._crn_classes.get(ci)
            if K is None:
                K = self._crn_classes[ci] = self._classes(ci, self._theta)
            totals = self._batch_sim(ci, K, seed_cols)
            if len(self._memo) >= self._MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = totals
        return totals

    def sigma(self, seeds) -> SigmaEstimate:
        self.calls += 1
        groups = self._index.split(seeds)
        reps = self.cfg.reps
        totals = np.zeros(reps, dtype=np.int64)
        if self.cfg.mode == CRN:
            for ci, cols in groups:
                totals += self._crn_totals(ci, cols)
        else:
            members = self._index.members
            digest = seeds_digest(members[ci][c] for ci, cols in groups for c in cols)
            rng = generator(DOMAIN_INDEPENDENT, self.cfg.master_seed, digest)
            theta = 1.0 - rng.random((reps, self.graph.n))
            for ci, cols in groups:
                totals += self._batch_sim(ci, self._classes(ci, theta), cols)
        mean = float(totals.mean())
        stderr = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        return SigmaEstimate(mean, stderr, reps)


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
    activation cannot influence anyone else), and otherwise the recursion
    branches on whether the smallest undecided vertex activates at its
    current count.  States are memoized; the explored-state budget guards
    against exponential blowups and raises CapacityError when exceeded.

    calls counts every sigma()/value() invocation, cache hits included.
    """

    def __init__(self, graph, model: CascadeModel, budget: int = 10_000_000):
        self.graph = graph
        self.model = model
        self.budget = int(budget)
        self.calls = 0
        self._states = 0
        self._index = index = graph._component_index()
        # Per component: neighbor bitmasks over local columns, degrees and
        # f tables of its vertices.
        self._comp_local: list[tuple] = []
        self._result_memo: dict[tuple, float] = {}
        self._state_memos: list[dict] = []
        for indptr, indices, degrees in zip(index.indptr, index.indices, index.degrees):
            bounds, cols, degs = indptr.tolist(), indices.tolist(), tuple(degrees.tolist())
            masks = tuple(sum(1 << c for c in cols[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
            tables = tuple(tuple(model.f_table(d)) for d in degs)
            self._comp_local.append((masks, degs, tables))
            self._state_memos.append({})

    def value(self, seeds) -> float:
        """Exact expected infected count."""
        self.calls += 1
        parts = []
        for key in self._index.split(seeds):
            val = self._result_memo.get(key)
            if val is None:
                val = self._result_memo[key] = self._component_value(*key)
            parts.append(val)
        return math.fsum(parts)

    def sigma(self, seeds) -> SigmaEstimate:
        return SigmaEstimate(self.value(seeds), 0.0, 0)

    def _component_value(self, ci: int, seed_cols) -> float:
        masks, degs, tables = self._comp_local[ci]
        nc = len(masks)
        memo = self._state_memos[ci]

        def g(I: int, surv: tuple) -> float:
            key = (I, surv)
            hit = memo.get(key)
            if hit is not None:
                return hit
            self._states += 1
            if self._states > self.budget:
                raise CapacityError(
                    f"exact oracle exceeded {self.budget} explored states"
                )
            slist = list(surv)
            # Settle forced outcomes: certain activations may cascade, and
            # zero-probability steps just raise the survived count.
            changed = True
            while changed:
                changed = False
                for v in range(nc):
                    if I >> v & 1:
                        continue
                    c = (I & masks[v]).bit_count()
                    s = slist[v]
                    if c <= s:
                        continue
                    table = tables[v]
                    fs = table[s]
                    p = (table[c] - fs) / (1.0 - fs)
                    if p >= 1.0:
                        I |= 1 << v
                        changed = True
                    elif p <= 0.0:
                        slist[v] = c
                        changed = True
            credits = []
            branch_v = -1
            branch_c = 0
            branch_p = 0.0
            for v in range(nc):
                if I >> v & 1:
                    continue
                c = (I & masks[v]).bit_count()
                s = slist[v]
                if c <= s:
                    continue
                table = tables[v]
                fs = table[s]
                p = (table[c] - fs) / (1.0 - fs)
                if c == degs[v]:
                    # All of v's neighbors are infected: v's fate affects
                    # nobody, so take its activation probability directly.
                    credits.append(p)
                    slist[v] = c
                elif branch_v < 0:
                    branch_v, branch_c, branch_p = v, c, p
            gain = math.fsum(credits)
            if branch_v < 0:
                val = float(I.bit_count()) + gain
            else:
                surv_no = list(slist)
                surv_no[branch_v] = branch_c
                surv_yes = list(slist)
                surv_yes[branch_v] = 0
                val = gain + branch_p * g(I | 1 << branch_v, tuple(surv_yes)) + (
                    1.0 - branch_p
                ) * g(I, tuple(surv_no))
            memo[key] = val
            return val

        I0 = 0
        for col in seed_cols:
            I0 |= 1 << col
        return g(I0, tuple(0 for _ in range(nc)))


def sigma_exact(graph, model: CascadeModel, seeds, budget: int = 10_000_000) -> float:
    """Exact expected infected count from seeds (capacity-guarded)."""
    return ExactOracle(graph, model, budget=budget).value(seeds)
