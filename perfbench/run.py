"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hier-select --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The
report lines name every metric with its unit; the last line is one JSON
object with keys correct, attempted, failed and metrics.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones (and writes the run's
spans under .perfbench/).  See perfbench/README.md for what each metric
measures and which layer moves it.
"""

import os

# Single-threaded numerics; must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
# Not used while the benchmark or a change was tuned: a claimed gain must
# also hold on it.
HELD_OUT_SEED = 20261017


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "infmax", "__init__.py")):
        print(f"perfbench: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # the package must be importable first

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines, trace = measure(workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if trace is not None:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(trace, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def measure(workloads, name, seed, seconds, traced):
    """Run the workload; returns (result object, report lines, spans or None).

    Times are scaled to the reference speed (calibrate.py); the report also
    prints the measured end-to-end times as raw.<name>.
    """
    workload = workloads.WORKLOADS[name]
    run, passes = workloads.run_workload(workload, seed, seconds, traced)
    ledger = run.ledger
    lines = [f"# {name} seed={seed} passes={len(passes)} traced={int(traced)} run_id={run.tracer.run_id}"]
    metrics = {}
    if passes:
        clock = workloads.Clock(run, workload)
        lines += [f"speed_factor.{kind} {run.speed.factor(kind):.6g}" for kind in sorted(run.speed.bursts)]
        lines.append(f"outputs_digest {passes[0].digest}")
        if traced:
            per_pass = [workloads.layer_numbers(run.tracer, p, clock) for p in passes]
            uniform, detail, self_s = (_median_dicts([pp[i] for pp in per_pass]) for i in range(3))
            metrics = {k: {"value": v, "unit": workloads.unit(k)} for k, v in uniform.items()}
            detail.update({f"{layer}.self_s": v for layer, v in self_s.items()})
            lines += [f"{k} {v:.6g} {workloads.unit(k)}" for k, v in sorted(detail.items())]
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in workloads.end_to_end(passes, clock).items()}
            extra = workloads.optimizer_numbers(passes, clock)
            extra.update(workloads.sweep_numbers(passes, clock))
            raw = workloads.end_to_end(passes, workloads.Clock(run, workload, raw=True))
            extra.update({f"raw.{k}": (v, u) for k, (v, u) in raw.items() if k != "peak_rss_mb"})
            lines += [f"{k} {v:.6g} {u}" for k, (v, u) in sorted(extra.items())]
            lines.append(f"sigma_queries {sum(len(p.queries) for p in passes)}")
        lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"error_rate {ledger.failed}/{ledger.attempted}")
    lines += [f"FAILED {p}" for p in ledger.problems()]
    result = {
        "correct": bool(passes) and ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if passes else max(ledger.failed, 1),
        "metrics": metrics,
    }
    return result, lines, run.tracer.dump() if traced else None


def _median_dicts(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


if __name__ == "__main__":
    sys.exit(main())
