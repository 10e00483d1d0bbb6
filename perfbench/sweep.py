"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads hier-select,gnm-sigma]
                               [--seconds 30] [--trace 0] [--out perfbench/BENCH_x.json]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every metric the median, the first and third quartiles and
their distance as a share of the median (statistics.quantiles, n=4).  With
--out it also writes those numbers and the raw values as JSON, under the key
"end_to_end" or, with --trace 1, "per_layer", keeping the other key of an
existing file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range like 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                continue
            metrics = dict(result["metrics"])
            # How fast the host ran against the references (calibrate.py).
            for line in lines:
                if line.startswith("speed_factor."):
                    key, value = line.split()[:2]
                    metrics[key] = {"value": float(value), "unit": "ratio"}
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                  flush=True)
        stats = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            print(f"{workload:16s} {name:24s} median {s['median']:.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} iqr/median {s['iqr_share']:.3f}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                data = json.load(fh)
        data["per_layer" if args.trace else "end_to_end"] = summary
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
