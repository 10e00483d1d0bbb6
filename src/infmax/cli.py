"""Command-line front end and benchmark harness.

Exit codes: 0 success, 2 usage error (bad flags, bad model spec, missing
--seed), 3 inconsistent or malformed inputs (parse errors, mismatched
graph/tree, missing, unreadable or undecodable files), 4 capacity guard
tripped.  Every output file is written atomically; stochastic subcommands
require an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import multiprocessing
import os
import re
import sys
import time
from dataclasses import dataclass

from .cascade import OracleConfig, _parse_params, parse_model
from .decomposition import (
    build_bisection,
    build_jaccard,
    build_random_edge,
    build_random_pair,
    dasgupta_cost,
    read_tree,
    write_tree,
)
from .errors import CapacityError, ConsistencyError, FormatError
from .graph import Graph, _open_text, _parse_int, _write_atomic, gen_gnm, load_edge_list
from .optimize import _make_oracle, brute_force, dpim, greedy, mpa
from .synthgen import gen_hierarchical, gen_worstcase
from ._rng import DOMAIN_BENCH_ROW, DOMAIN_BENCH_TREE, _integer, mix64

_ALGORITHMS = ("greedy", "dpim", "mpa", "brute-force")
_ALGO_CODE = {name: code for code, name in enumerate(_ALGORITHMS, start=1)}
_NEEDS_TREE = {"dpim", "mpa"}
# Decomposition builders by name, each called as fn(graph, seed); jaccard is
# deterministic and ignores the seed.
_BUILDERS = {
    "random-pair": build_random_pair,
    "random-edge": build_random_edge,
    "jaccard": lambda graph, seed: build_jaccard(graph),
    "bisection": build_bisection,
}


def _read_seed_file(path, n: int) -> list[int]:
    seeds = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            v = _parse_int(stripped, f"{path}:{lineno}: seed id")
            if not 0 <= v < n:
                raise ConsistencyError(f"{path}:{lineno}: seed id {v} outside vertex range [0, {n})")
            seeds.append(v)
    return seeds


def _write_seed_file(path, seeds, est) -> None:
    header = [f"# sigma {est.mean!r} {est.stderr!r} {est.reps}\n"]
    _write_atomic(path, itertools.chain(header, (f"{v}\n" for v in sorted(seeds))))


def _require_seed(args) -> None:
    if args.seed is None:
        raise _UsageError("--seed is required for stochastic commands")


class _UsageError(ValueError):
    """A usage error: main maps it, like every other ValueError, to exit 2."""


def _oracle_config(args):
    """'exact' under --exact, else the Monte Carlo settings from --reps and --seed."""
    if args.exact:
        return "exact"
    if args.reps is None:
        raise _UsageError("--reps is required without --exact")
    _require_seed(args)
    return OracleConfig(args.reps, args.seed)


def _cmd_gen_hier(args) -> int:
    _require_seed(args)
    graph, tree = gen_hierarchical(args.d, args.l, args.t, args.seed)
    graph.write(args.out_graph)
    write_tree(tree, args.out_tree)
    return 0


def _cmd_gen_worstcase(args) -> int:
    inst = gen_worstcase(args.n)
    inst.graph.write(args.out_graph)
    write_tree(inst.truth_tree, args.out_tree)
    print(inst.model.spec)
    return 0


def _cmd_gen_gnm(args) -> int:
    _require_seed(args)
    if args.n < 1:
        # The loaders reject a graph without vertices, so none is written.
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    graph = gen_gnm(args.n, args.m, args.seed)
    graph.write(args.out)
    return 0


def _cmd_decompose(args) -> int:
    graph = load_edge_list(args.graph)
    if args.method != "jaccard":
        _require_seed(args)
    write_tree(_BUILDERS[args.method](graph, args.seed), args.out)
    return 0


def _cmd_hiercost(args) -> int:
    graph = load_edge_list(args.graph)
    tree = read_tree(args.tree)
    print(dasgupta_cost(graph, tree))
    return 0


def _cmd_sigma(args) -> int:
    graph = load_edge_list(args.graph)
    model = parse_model(args.cascade)
    seeds = _read_seed_file(args.seeds, graph.n)
    est = _make_oracle(graph, model, _oracle_config(args)).sigma(seeds)
    print(f"{est.mean!r} {est.stderr!r}")
    return 0


def _cmd_maximize(args) -> int:
    graph = load_edge_list(args.graph)
    model = parse_model(args.cascade)
    cfg = _oracle_config(args)
    tree = None
    if args.algo in _NEEDS_TREE:
        if args.tree is None:
            raise _UsageError(f"--tree is required for {args.algo}")
        tree = read_tree(args.tree)
    result = _run_algorithm(args.algo, graph, tree, model, args.k, cfg, args.max_outer)
    _write_seed_file(args.out, result.vertices, result.sigma)
    est = result.sigma
    print(f"sigma {est.mean!r} {est.stderr!r} reps {est.reps} oracle_calls {result.oracle_calls}")
    return 0


def _run_algorithm(algo, graph, tree, model, k, cfg, max_outer):
    """Run one optimizer; greedy and dpim must stay within their query budgets."""
    if algo == "greedy":
        result = greedy(graph, model, k, cfg)
        assert result.oracle_calls <= graph.n * k
    elif algo == "dpim":
        result = dpim(graph, tree, model, k, cfg)
        assert result.oracle_calls <= (2 * graph.n - 1) * (k + 1) ** 2
    elif algo == "mpa":
        result = mpa(graph, tree, model, k, cfg, max_outer=max_outer)
    else:
        result = brute_force(graph, model, k, cfg)
    return result


@dataclass(frozen=True)
class BenchConfig:
    """Parsed benchmark description (flat key = value file)."""

    graph_source: str
    tree_source: str | None
    cascades: tuple[str, ...]
    algorithms: tuple[str, ...]
    ks: tuple[int, ...]
    reps: int
    master_seed: int
    trials: int
    output: str
    max_outer: int
    timing: str


def parse_bench_config(path) -> BenchConfig:
    """Read a bench config; unknown keys and malformed values are errors.

    Required keys: graph, cascade, algorithms, k, reps, master_seed,
    output.  Optional: tree, trials (1), max_outer (20), timing (none).
    Multiple cascades are separated by ';' (model params contain commas).
    A '#' at the start of a line or after whitespace starts a comment.
    """
    values: dict[str, str] = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not stripped:
                continue
            key, eq, val = stripped.partition("=")
            if not eq:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key in values:
                raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val.strip()

    known = {
        "graph", "tree", "cascade", "algorithms", "k", "reps",
        "master_seed", "trials", "output", "max_outer", "timing",
    }
    unknown = set(values) - known
    if unknown:
        raise FormatError(f"{path}: unknown keys {sorted(unknown)}")
    missing = {"graph", "cascade", "algorithms", "k", "reps", "master_seed", "output"} - set(values)
    if missing:
        raise FormatError(f"{path}: missing keys {sorted(missing)}")

    def as_int(key, default=None, minimum=None):
        if key not in values:
            return default
        out = _parse_int(values[key], f"{path}: key {key!r} value")
        if minimum is not None and out < minimum:
            raise FormatError(f"{path}: key {key!r} must be >= {minimum}")
        return out

    algorithms = tuple(a.strip() for a in values["algorithms"].split(",") if a.strip())
    for algo in algorithms:
        if algo not in _ALGORITHMS:
            raise FormatError(f"{path}: unknown algorithm {algo!r}")
    if not algorithms:
        raise FormatError(f"{path}: algorithms list is empty")
    cascades = tuple(c.strip() for c in values["cascade"].split(";") if c.strip())
    if not cascades:
        raise FormatError(f"{path}: cascade list is empty")
    specs = []  # the CSV's cascade column: ltm and LTM are one cascade
    for spec in cascades:
        try:
            specs.append(parse_model(spec).spec)
        except ValueError as exc:
            raise FormatError(f"{path}: bad cascade {spec!r}: {exc}") from None
    ks = tuple(_parse_int(x, f"{path}: key 'k' entry") for x in values["k"].split(",") if x.strip())
    if not ks or any(k < 0 for k in ks):
        raise FormatError(f"{path}: key 'k' must list nonnegative integers")
    # A repeated entry would write rows for one cell under two row seeds.
    for what, entries in (("algorithm", algorithms), ("cascade", specs), ("k", ks)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise FormatError(f"{path}: repeated {what} {entry!r}")
    timing = values.get("timing", "none")
    if timing not in ("none", "wall"):
        raise FormatError(f"{path}: timing must be 'none' or 'wall'")

    config = BenchConfig(
        graph_source=values["graph"],
        tree_source=values.get("tree"),
        cascades=cascades,
        algorithms=algorithms,
        ks=ks,
        reps=as_int("reps", minimum=1),
        master_seed=as_int("master_seed"),
        trials=as_int("trials", default=1, minimum=1),
        output=values["output"],
        max_outer=as_int("max_outer", default=20, minimum=0),
        timing=timing,
    )
    if any(a in _NEEDS_TREE for a in config.algorithms) and config.tree_source is None:
        raise FormatError(f"{path}: key 'tree' is required by {sorted(_NEEDS_TREE)}")
    return config


def _parse_kv_spec(spec: str, kind: str, keys: tuple[str, ...]) -> dict[str, int]:
    try:
        return _parse_params(spec, f"{kind} source", keys, _parse_int)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _build_graph_source(source: str):
    """Materialize a graph source; returns (graph, truth_tree_or_None)."""
    if source.startswith("gnm:"):
        kv = _parse_kv_spec(source[4:], "gnm", ("n", "m", "seed"))
        return gen_gnm(kv["n"], kv["m"], kv["seed"]), None
    if source.startswith("hier:"):
        kv = _parse_kv_spec(source[5:], "hier", ("d", "l", "t", "seed"))
        graph, truth = gen_hierarchical(kv["d"], kv["l"], kv["t"], kv["seed"])
        return graph, truth
    if source.startswith("worstcase:"):
        kv = _parse_kv_spec(source[10:], "worstcase", ("n",))
        inst = gen_worstcase(kv["n"])
        return inst.graph, inst.truth_tree
    return load_edge_list(source), None


def _build_trial_trees(config: BenchConfig, graph, truth):
    """One decomposition (or None) per trial, shared by all algorithms in the trial."""
    source = config.tree_source
    if source is None:
        return [None] * config.trials
    if source == "truth":
        if truth is None:
            raise ConsistencyError("tree 'truth' needs a hier: or worstcase: graph")
        return [truth] * config.trials
    if source in _BUILDERS:
        build = _BUILDERS[source]
        return [
            build(graph, mix64(DOMAIN_BENCH_TREE, config.master_seed, trial))
            for trial in range(config.trials)
        ]
    return [read_tree(source)] * config.trials


# Worker state is inherited through fork, so graphs and trees are shared
# without pickling.  Each row builds its own oracle from the row seed.
_BENCH_STATE: dict = {}


def _bench_row(task):
    algo, spec, k, trial, row_seed = task
    state = _BENCH_STATE
    config, model = state["config"], state["models"][spec]
    cfg = OracleConfig(config.reps, row_seed)
    t0 = time.perf_counter()
    result = _run_algorithm(
        algo, state["graph"], state["trees"][trial], model, k, cfg, config.max_outer
    )
    elapsed = time.perf_counter() - t0
    stamp = f"{elapsed:.3f}" if config.timing == "wall" else "0.000"
    est = result.sigma
    return [
        algo, model.spec, str(k), str(trial),
        repr(est.mean), repr(est.stderr),
        str(result.oracle_calls), stamp, str(row_seed),
    ]


def run_bench(config: BenchConfig, workers: int = 1) -> None:
    """Run every (algorithm, cascade, k, trial) row and write the CSV.

    Output is byte-identical across reruns and worker counts: row seeds are
    derived from (master_seed, algorithm, cascade, k, trial) alone and rows
    are emitted in task order.
    """
    if _integer(workers, "workers") < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    graph, truth = _build_graph_source(config.graph_source)
    for k in config.ks:
        if k > graph.n:
            raise ConsistencyError(f"k={k} exceeds graph size {graph.n}")
    trees = _build_trial_trees(config, graph, truth)
    models = {spec: parse_model(spec) for spec in config.cascades}

    tasks = [
        (algo, spec, k, trial, mix64(DOMAIN_BENCH_ROW, config.master_seed, _ALGO_CODE[algo], ci, k, trial))
        for algo in config.algorithms
        for ci, spec in enumerate(config.cascades)
        for k in config.ks
        for trial in range(config.trials)
    ]

    global _BENCH_STATE
    _BENCH_STATE = {"config": config, "graph": graph, "trees": trees, "models": models}
    try:
        if workers > 1 and hasattr(os, "fork"):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(workers) as pool:
                rows = pool.map(_bench_row, tasks)
        else:
            rows = [_bench_row(task) for task in tasks]
    finally:
        _BENCH_STATE = {}

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "algorithm", "cascade", "k", "trial", "sigma_mean",
        "sigma_stderr", "oracle_calls", "elapsed_seconds", "seed",
    ])
    writer.writerows(rows)
    _write_atomic(config.output, [buf.getvalue()])


def _cmd_bench(args) -> int:
    config = parse_bench_config(args.config)
    run_bench(config, workers=args.workers)
    return 0


def _integer_flag(text: str) -> int:
    """The argparse type of every integer flag: read by graph._parse_int, so
    1_0 or non-ASCII digits are a usage error (exit 2), not a number."""
    try:
        return _parse_int(text, "value")
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infmax",
        description="Influence maximization on hierarchically decomposed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hier", help="generate a hierarchical random-walk network")
    p.add_argument("--d", type=_integer_flag, required=True, help="guide tree depth (2^d vertices)")
    p.add_argument("--l", type=_integer_flag, required=True, help="edge weight parameter")
    p.add_argument("--t", type=_integer_flag, required=True, help="walks per vertex")
    p.add_argument("--seed", type=_integer_flag)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-tree", required=True)
    p.set_defaults(func=_cmd_gen_hier)

    p = sub.add_parser("gen-worstcase", help="generate the two-stars-plus-clique instance")
    p.add_argument("--n", type=_integer_flag, required=True, help="clique size")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-tree", required=True)
    p.set_defaults(func=_cmd_gen_worstcase)

    p = sub.add_parser("gen-gnm", help="generate a uniform G(n,m) graph")
    p.add_argument("--n", type=_integer_flag, required=True)
    p.add_argument("--m", type=_integer_flag, required=True)
    p.add_argument("--seed", type=_integer_flag)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_gnm)

    p = sub.add_parser("decompose", help="build a hierarchical decomposition")
    p.add_argument("--method", choices=_BUILDERS, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=_integer_flag)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("hiercost", help="print the decomposition cost of a tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_hiercost)

    p = sub.add_parser("sigma", help="estimate or compute expected influence")
    p.add_argument("--graph", required=True)
    p.add_argument("--cascade", required=True, help="e.g. icm:p=0.01 or dicm:p=0.01,q=0.1")
    p.add_argument("--seeds", required=True, help="seed set file")
    p.add_argument("--reps", type=_integer_flag)
    p.add_argument("--seed", type=_integer_flag)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("maximize", help="select k seeds with a chosen algorithm")
    p.add_argument("--algo", choices=_ALGORITHMS, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", help="decomposition file (dpim and mpa)")
    p.add_argument("--cascade", required=True)
    p.add_argument("--k", type=_integer_flag, required=True)
    p.add_argument("--reps", type=_integer_flag)
    p.add_argument("--seed", type=_integer_flag)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--max-outer", type=_integer_flag, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("bench", help="run a benchmark config to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_integer_flag, default=1)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (FormatError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
