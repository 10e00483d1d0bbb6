"""The benchmark's workloads: set-up, one measured pass, and its checks.

A run repeats passes of one workload until its time is up (at least two, so
that the outputs digest of one seed can be compared with itself).  Each pass
builds the instance from the workload seed, runs the workload's public calls,
and checks every output.  Metrics are medians over passes; query latencies
are pooled over passes.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from infmax import (
    INDEPENDENT,
    ExactOracle,
    MonteCarloOracle,
    OracleConfig,
    build_bisection,
    dasgupta_cost,
    dpim,
    gen_gnm,
    gen_hierarchical,
    gen_worstcase,
    greedy,
    mpa,
    parse_model,
    sigma_exact,
    sigma_mc,
)

from tracing import Run

OPTIMIZERS = ("greedy", "dpim", "mpa")
GENERATORS = ("graph.gen_gnm", "synthgen.gen_hierarchical", "synthgen.gen_worstcase")
# Stream tag that keeps the sweep's random seed sets apart from anything
# else derived from the workload seed.
_QUERY_STREAM = 0x51A


@dataclass
class Instance:
    """What set-up hands to a pass: the generated inputs and nothing else."""

    graph: object
    model: object
    tree: object  # decomposition the optimizers search over; None without search
    tree_cost: int
    cfg: object  # OracleConfig, or "exact"
    k: int
    max_outer: int
    queries: list  # (model, OracleConfig or "exact", sorted seed list)
    expected: dict = field(default_factory=dict)  # known exact answers


@dataclass
class PassResult:
    """One pass's outputs, with the indices of its timed spans."""

    setups: list  # span index of each set-up
    queries: list  # (model kind, span index) per sweep query
    digest: str
    spans: tuple  # [first, last) span indices of this pass
    optimizers: dict  # name -> (span index, SeedSet)
    exact: bool
    max_outer: int
    tree_cost: int


def _random_queries(graph, seed, count, size, model_cfgs):
    """count seed sets of the given size, cycling the (model, cfg) makers."""
    rng = np.random.default_rng([seed, _QUERY_STREAM])
    out = []
    for i in range(count):
        seeds = sorted(int(v) for v in rng.choice(graph.n, size=size, replace=False))
        master = int(rng.integers(2**31))
        model, make_cfg = model_cfgs[i % len(model_cfgs)]
        out.append((model, make_cfg(master), seeds))
    return out


def _decompose(run, graph, seed):
    """First csr/components, then the seeded bisection tree and its cost."""
    run.call("graph.csr", graph.csr)
    run.call("graph.components", graph.components)
    tree, op, _ = run.call("decomposition.build_bisection", build_bisection, graph, seed)
    if tree is None:
        return None, None
    run.ledger.check(op, tree.n_leaves == graph.n, "tree leaves != vertex count")
    cost, op, _ = run.call("decomposition.dasgupta_cost", dasgupta_cost, graph, tree)
    if cost is not None:
        # Every edge's common subtree holds between 2 and n leaves.
        run.ledger.check(op, 2 * graph.m <= cost <= graph.m * graph.n, f"cost {cost} out of range")
    return tree, cost


@dataclass(frozen=True)
class HierSelect:
    """The paper's main setting: hierarchical network, scm, greedy/dpim/mpa."""

    name = "hier-select"
    # The MC kernel's array work, wrapped in per-query Python; the two
    # references together tracked it better than either alone.
    solve_reference = ("python", "numpy")
    d: int = 8
    l: int = 15
    t: int = 15
    k: int = 5
    reps: int = 100
    max_outer: int = 1
    queries: int = 150
    setups: int = 3  # set-up is cheap here; repeat it for a steadier setup_s

    def setup(self, run, seed):
        out, _, _ = run.call("synthgen.gen_hierarchical", gen_hierarchical, self.d, self.l, self.t, seed)
        if out is None:
            return None
        graph = out[0]
        tree, cost = _decompose(run, graph, seed)
        if tree is None:
            return None
        model = parse_model("scm")
        cfg = partial(OracleConfig, self.reps)
        return Instance(
            graph, model, tree, cost, OracleConfig(self.reps, seed), self.k, self.max_outer,
            _random_queries(graph, seed, self.queries, self.k, [(model, cfg)]),
        )


@dataclass(frozen=True)
class WorstcaseExact:
    """The separation family under the exact oracle; the MC kernel is bypassed."""

    name = "worstcase-exact"
    solve_reference = ("python",)  # the exact recursion is interpreter-bound
    n: int = 24
    k: int = 2
    max_outer: int = 4
    queries: int = 200
    setups: int = 3

    def setup(self, run, seed):
        inst, _, _ = run.call("synthgen.gen_worstcase", gen_worstcase, self.n)
        if inst is None:
            return None
        graph = inst.graph
        # The optimizers search the truth tree; the seeded bisection gives
        # this workload its tree-build layer and its tree_cost.
        _, cost = _decompose(run, graph, seed)
        if cost is None:
            return None
        n = self.n
        return Instance(
            graph, inst.model, inst.truth_tree, cost, "exact", self.k, self.max_outer,
            _random_queries(graph, seed, self.queries, self.k, [(inst.model, lambda _: "exact")]),
            expected={"centers": frozenset((n, n + n * n + 1)), "greedy": 4.0, "dpim": float(n), "clique": n},
        )


@dataclass(frozen=True)
class GnmSigma:
    """Set-up-heavy G(n, m) with fresh sigma_mc queries that nothing can reuse."""

    name = "gnm-sigma"
    solve_reference = ("numpy",)  # 50 x 10^4 count-class and kernel arrays
    n: int = 10_000
    m: int = 50_000
    seeds_per_query: int = 10
    reps: int = 50
    queries: int = 60
    setups: int = 1

    def setup(self, run, seed):
        graph, _, _ = run.call("graph.gen_gnm", gen_gnm, self.n, self.m, seed)
        if graph is None:
            return None
        tree, cost = _decompose(run, graph, seed)
        if tree is None:
            return None
        cfg = partial(OracleConfig, self.reps)
        models = [(parse_model(s), cfg) for s in ("icm:p=0.1", "dicm:p=0.1,q=0.1", "ltm")]
        return Instance(
            graph, None, None, cost, None, 0, 0,
            _random_queries(graph, seed, self.queries, self.seeds_per_query, models),
        )


WORKLOADS = {w.name: w for w in (HierSelect(), WorstcaseExact(), GnmSigma())}


def _search(run, inst, digest):
    """greedy, dpim and mpa on the instance, each checked; returns name -> (span, SeedSet)."""
    g, model, k, cfg = inst.graph, inst.model, inst.k, inst.cfg
    exact = cfg == "exact"
    calls = {
        "greedy": lambda o: greedy(g, model, k, o),
        "dpim": lambda o: dpim(g, inst.tree, model, k, o),
        "mpa": lambda o: mpa(g, inst.tree, model, k, o, max_outer=inst.max_outer),
    }
    bounds = {"greedy": g.n * k, "dpim": (2 * g.n - 1) * (k + 1) ** 2}
    done = {}
    for name in OPTIMIZERS:
        oracle = cfg
        if run.traced:
            make = partial(run.exact_oracle, g, model) if exact else partial(run.mc_oracle, g, model, cfg)
            oracle, _, _ = run.call("bench.oracle", make, tag=name)
            if oracle is None:
                continue
        res, op, idx = run.call(f"optimize.{name}", calls[name], oracle)
        if res is None:
            continue
        done[name] = (idx, res)
        check = partial(run.ledger.check, op)
        verts = res.vertices
        check(len(verts) == k, f"|S| = {len(verts)} != k = {k}")
        check(all(0 <= v < g.n for v in verts), "seed id out of range")
        if name in bounds:
            check(res.oracle_calls <= bounds[name], f"{res.oracle_calls} calls > bound {bounds[name]}")
        if name == "mpa":
            hist = res.history or ()
            check(len(hist) >= 1, "mpa history empty")
            check(all(a < b for a, b in zip(hist, hist[1:])), f"history not increasing: {hist}")
            check(len(hist) - 1 <= inst.max_outer, f"{len(hist) - 1} sweeps > max_outer")
        if run.traced:
            # The search oracle saw exactly the optimizer's queries, plus the
            # exact final estimate, which runs on the search oracle.
            expect = res.oracle_calls + (1 if exact else 0)
            check(oracle.calls == expect, f"oracle saw {oracle.calls} calls, expected {expect}")
        fin, fop, _ = run.call("bench.final", _final_estimate, g, model, cfg, verts, tag=name)
        if fin is not None:
            run.ledger.check(fop, repr(fin) == repr(res.sigma), f"re-run {fin!r} != {res.sigma!r}")
        digest.append(f"{name} {sorted(verts)} {res.sigma!r} {res.oracle_calls} {res.history!r}")

    if "dpim" in done and "mpa" in done:
        sets = {a: done[a][1].vertices for a in ("dpim", "mpa")}
        if exact:
            crn, op = {a: done[a][1].sigma.mean for a in sets}, run.ledger.begin("bench.crn")
        else:
            crn, op, _ = run.call("bench.crn", _crn_values, run, g, model, cfg, sets)
        if crn is not None:
            run.ledger.check(op, crn["mpa"] >= crn["dpim"], f"mpa CRN {crn['mpa']} < dpim CRN {crn['dpim']}")
    _check_expected(run, inst, done)
    return done


def _crn_values(run, graph, model, cfg, sets):
    """Each set's value under the search's own common random numbers."""
    oracle = run.mc_oracle(graph, model, cfg)
    return {name: oracle.sigma(seeds).mean for name, seeds in sets.items()}


def _final_estimate(graph, model, cfg, seeds):
    """The optimizers' final estimate, re-run from the public classes."""
    if cfg == "exact":
        return ExactOracle(graph, model).sigma(seeds)
    return MonteCarloOracle(graph, model, OracleConfig(cfg.reps, cfg.master_seed, INDEPENDENT)).sigma(seeds)


def _check_expected(run, inst, done):
    exp = inst.expected
    if not exp:
        return
    op = run.ledger.begin("bench.known_answers")
    check = partial(run.ledger.check, op)
    check("greedy" in done and "dpim" in done, "an optimizer failed")
    if "greedy" in done:
        res = done["greedy"][1]
        check(res.vertices == exp["centers"], f"greedy picked {sorted(res.vertices)}, not both star centers")
        check(res.sigma.mean == exp["greedy"], f"greedy sigma {res.sigma.mean!r} != {exp['greedy']}")
    if "dpim" in done:
        res = done["dpim"][1]
        check(all(v < exp["clique"] for v in res.vertices), f"dpim set {sorted(res.vertices)} leaves the clique")
        check(res.sigma.mean == exp["dpim"], f"dpim sigma {res.sigma.mean!r} != {exp['dpim']}")


def _sweep(run, inst, digest):
    """Fresh sigma queries; returns (model kind, span index) per query."""
    g = inst.graph
    queries = []
    for i, (model, cfg, seeds) in enumerate(inst.queries):
        exact = cfg == "exact"

        def query():
            oracle = run.exact_oracle(g, model) if exact else run.mc_oracle(g, model, cfg)
            return oracle, oracle.sigma(seeds)

        out, op, idx = run.call("bench.query", query, tag=model.kind)
        queries.append((model.kind, idx))
        if out is None:
            continue
        oracle, est = out
        check = partial(run.ledger.check, op)
        check(est.reps == (0 if exact else cfg.reps), f"reps {est.reps}")
        check(len(seeds) <= est.mean <= g.n, f"mean {est.mean} outside [|S|, n]")
        check(math.isfinite(est.stderr), f"stderr {est.stderr}")
        again, rop, _ = run.call("bench.requery", oracle.sigma, seeds)
        if again is not None:
            run.ledger.check(rop, repr(again) == repr(est), f"repeat query {again!r} != {est!r}")
        if i == 0:
            # The sweep builds its oracles itself so the traced run can swap
            # in its subclass; the public one-shot functions must agree.
            if exact:
                ref, fop, _ = run.call("bench.oneshot", sigma_exact, g, model, seeds)
                same = ref == est.mean
            else:
                ref, fop, _ = run.call("bench.oneshot", sigma_mc, g, model, seeds, cfg)
                same = repr(ref) == repr(est)
            run.ledger.check(fop, ref is not None and same, f"one-shot {ref!r} != {est!r}")
        digest.append(f"q{i} {model.spec} {seeds} {est!r}")
    return queries


def run_pass(run, workload, seed):
    """One pass: set-up, the workload's calls, checks.  None if set-up failed."""
    # The exact oracle's recursive closures hold its memo in reference
    # cycles; collect the last pass's before this one, so peak memory does
    # not depend on when the collector last ran.
    gc.collect()
    first = len(run.tracer.spans)
    with run.tracer.span("bench.pass"):
        setups = []
        for _ in range(workload.setups):
            with run.tracer.span("bench.setup") as idx:
                inst = workload.setup(run, seed)
            if inst is None:
                return None
            setups.append(idx)
        digest = [f"cost {inst.tree_cost}"]
        done = _search(run, inst, digest) if inst.tree is not None else {}
        queries = _sweep(run, inst, digest)
    return PassResult(
        setups, queries,
        hashlib.sha256("\n".join(digest).encode()).hexdigest()[:16],
        (first, len(run.tracer.spans)), done, inst.cfg == "exact", inst.max_outer,
        inst.tree_cost,
    )


def run_workload(workload, seed, seconds, traced):
    """Repeat passes for about `seconds` (at least two); returns (run, passes)."""
    run = Run(traced)
    start = time.perf_counter()
    passes = []
    longest = 0.0
    with run.speed.sampling():
        while True:
            t0 = time.perf_counter()
            out = run_pass(run, workload, seed)
            longest = max(longest, time.perf_counter() - t0)
            if out is not None:
                passes.append(out)
            if out is None:  # set-up failed and was counted; nothing left to measure
                break
            if len(passes) >= 2 and time.perf_counter() - start + longest > seconds:
                break
    if len(passes) >= 2:
        op = run.ledger.begin("bench.digest")
        for p in passes[1:]:
            run.ledger.check(op, p.digest == passes[0].digest, f"digest {p.digest} != {passes[0].digest}")
    return run, passes


def unit(metric: str) -> str:
    """A per-layer metric's unit, read off its name."""
    for suffix, u in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_share", "ratio"), ("_ratio", "ratio"),
                      ("_cost", "cost")):
        if metric.endswith(suffix):
            return u
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


class Clock:
    """Span durations in seconds at the reference speed around each span
    (calibrate.py), or as measured with raw=True; calibration bursts that
    fell inside a span are taken out either way.

    Set-up is interpreter-bound Python on every workload, so it is scaled by
    the python reference; the solve phase by the geometric mean of the
    references the workload declares.
    """

    def __init__(self, run, workload, raw=False):
        self._spans = run.tracer.spans
        self._speed = run.speed
        self._solve = workload.solve_reference
        self._raw = raw

    def busy(self, idx):
        """Measured seconds of the span, bursts taken out."""
        _, _, start, end, _ = self._spans[idx]
        return end - start - self._speed.paused(start, end)

    def factor(self, idx, phase="solve"):
        if self._raw:
            return 1.0
        _, _, start, end, _ = self._spans[idx]
        kinds = ("python",) if phase == "setup" else self._solve
        logs = [math.log(self._speed.factor(kind, start, end)) for kind in kinds]
        return math.exp(sum(logs) / len(logs))

    def __call__(self, idx, phase="solve"):
        return self.busy(idx) * self.factor(idx, phase)


def _pass_total(p, clock):
    return (
        statistics.median(clock(i, "setup") for i in p.setups)
        + sum(clock(i) for i, _ in p.optimizers.values())
        + sum(clock(i) for _, i in p.queries)
    )


def end_to_end(passes, clock):
    """The gated metrics."""
    lat = [clock(i) for p in passes for _, i in p.queries]
    return {
        "setup_s": (_median([clock(i, "setup") for p in passes for i in p.setups]), "s"),
        "total_s": (_median([_pass_total(p, clock) for p in passes]), "s"),
        "sigma_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "sigma_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def optimizer_numbers(passes, clock):
    """Per-optimizer wall time (median over passes) and spread (SeedSet.sigma.mean)."""
    out = {}
    for name in OPTIMIZERS:
        runs = [p.optimizers[name] for p in passes if name in p.optimizers]
        if runs:
            out[f"{name}_s"] = (_median([clock(i) for i, _ in runs]), "s")
            out[f"spread_{name}"] = (runs[0][1].sigma.mean, "vertices")
    return out


def sweep_numbers(passes, clock):
    """Query latency p50 per cascade model, pooled over passes."""
    by_model = {}
    for p in passes:
        for kind, i in p.queries:
            by_model.setdefault(kind, []).append(clock(i))
    return {f"sigma_p50_ms.{kind}": (statistics.median(v) * 1e3, "ms") for kind, v in sorted(by_model.items())}


def _owner_key(name, tag):
    """Which call a span's oracle work is charged to, or None to inherit."""
    if name.startswith("optimize."):
        return name.split(".", 1)[1]
    if name == "bench.oracle":
        return tag
    if name == "bench.query":
        return "sweep." + tag
    if name.startswith("bench.") and name not in ("bench.pass", "bench.setup"):
        return name
    return None


def layer_numbers(tracer, p, clock):
    """Per-layer numbers of one traced pass, from its spans.

    Returns (uniform metrics, per-optimizer and per-model detail, self
    seconds per layer).  Self time is a span's duration minus its children's.
    """
    lo, hi = p.spans
    spans = tracer.spans
    dur = [0.0] * (hi - lo)
    child = [0.0] * (hi - lo)
    owner = [""] * (hi - lo)
    # Every span is scaled by the speed factor of its outermost enclosing
    # call below the pass (a set-up, an optimizer call, a query), so that
    # shares and sums within one call stay consistent.
    factor = [1.0] * (hi - lo)
    for i in range(lo, hi):
        name, tag, _, _, parent = spans[i]
        if parent <= lo:
            factor[i - lo] = clock.factor(i, "setup" if name == "bench.setup" else "solve")
        else:
            factor[i - lo] = factor[parent - lo]
        dur[i - lo] = clock.busy(i) * factor[i - lo]
        key = _owner_key(name, tag)
        if key is None:
            key = owner[parent - lo] if parent >= lo else ""
        owner[i - lo] = key
        if parent >= lo:
            child[parent - lo] += dur[i - lo]
    self_s = {}
    durs = {}
    inits, queries = [], []  # (owner, seconds) / (owner, tag, seconds)
    for i in range(lo, hi):
        name, tag, _, _, _ = spans[i]
        d = dur[i - lo]
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + d - child[i - lo]
        durs.setdefault(name, []).append(d)
        if name == "cascade.init":
            inits.append((owner[i - lo], d))
        elif name == "cascade.sigma":
            queries.append((owner[i - lo], tag, d))

    def cascade_stats(qs, its):
        firsts = [d for _, t, d in qs if t == "first"]
        misses = [d for _, t, d in qs if t != "hit"]
        hits = [d for _, t, d in qs if t == "hit"]
        calls = len(qs)
        return {
            "init_s": _mean([d for _, d in its]),
            "first_query_s": _mean(firsts),
            "miss_ms": _mean(misses) * 1e3,
            "hit_us": _mean(hits) * 1e6,
            "calls": calls,
            "distinct": len(misses),
            "repeat_ratio": 1.0 - len(misses) / calls if calls else 0.0,
        }

    solve_owners = set(OPTIMIZERS) | {k for k, _, _ in queries if k.startswith("sweep.")}
    solve_wall = sum(clock(i) for i, _ in p.optimizers.values()) + sum(clock(i) for _, i in p.queries)
    solve_sigma = sum(d for k, _, d in queries if k in solve_owners)
    walls = finals = controls = 0.0
    detail = {}
    for name, (idx, res) in p.optimizers.items():
        wall = clock(idx)
        own = [(k, t, d) for k, t, d in queries if k == name]
        st = cascade_stats(own, [(k, d) for k, d in inits if k == name])
        sig = sum(d for _, _, d in own)
        if p.exact:  # the final estimate is the search oracle's last query
            final = own[-1][2] if own else 0.0
            sig -= final
        else:
            final = next((dur[i - lo] for i in range(lo, hi) if spans[i][:2] == ["bench.final", name]), 0.0)
        control = wall - sig - final
        walls, finals, controls = walls + wall, finals + final, controls + control
        detail.update({f"cascade.{name}.{key}": v for key, v in st.items()})
        detail[f"cascade.{name}.sigma_share"] = sig / wall if wall else 0.0
        detail[f"optimize.{name}.control_s"] = control
        detail[f"optimize.{name}.final_s"] = final
        detail[f"optimize.{name}.oracle_calls"] = res.oracle_calls
    for key in sorted({k for k, _, _ in queries if k.startswith("sweep.")}):
        st = cascade_stats([q for q in queries if q[0] == key], [i for i in inits if i[0] == key])
        model = key.split(".", 1)[1]
        detail.update({f"cascade.{model}.{k}": v for k, v in st.items() if k in ("init_s", "first_query_s")})

    mpa_res = p.optimizers.get("mpa")
    uniform = {f"cascade.{k}": v for k, v in cascade_stats(queries, inits).items()}
    uniform.update({
        "graph.gen_s": _median(next((durs[g] for g in GENERATORS if g in durs), [])),
        "graph.csr_s": _median(durs.get("graph.csr", [])),
        "graph.components_s": _median(durs.get("graph.components", [])),
        "decomposition.build_s": _median(durs.get("decomposition.build_bisection", [])),
        "decomposition.cost_s": _median(durs.get("decomposition.dasgupta_cost", [])),
        "decomposition.tree_cost": p.tree_cost,
        "cascade.sigma_s": solve_sigma,
        "cascade.sigma_share": solve_sigma / solve_wall if solve_wall else 0.0,
        "optimize.oracle_calls": sum(res.oracle_calls for _, res in p.optimizers.values()),
        # Sweeps mpa ran: the accepted ones plus the one that stopped it.
        "optimize.mpa_sweeps": min(len(mpa_res[1].history), p.max_outer) if mpa_res else 0,
        "optimize.control_share": controls / walls if walls else 0.0,
        "optimize.final_share": finals / walls if walls else 0.0,
        "trace.total_s": _pass_total(p, clock),
    })
    return uniform, detail, self_s
