"""Self-tests of the benchmark's own checks: tiny smokes and tamper cases.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run as runner  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = {
    "hier-select": workloads.HierSelect(d=4, l=15, t=3, k=2, reps=20, queries=4),
    "worstcase-exact": workloads.WorstcaseExact(n=5, queries=4),
    "gnm-sigma": workloads.GnmSigma(n=200, m=600, reps=10, queries=6),
}


def _measure(monkeypatch, name, traced=False):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    result, lines, trace = runner.measure(workloads, name, seed=3, seconds=0, traced=traced)
    return result, "\n".join(lines), trace


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_smoke(monkeypatch, name, traced):
    result, report, trace = _measure(monkeypatch, name, traced)
    assert result["correct"] and result["failed"] == 0, report
    assert result["attempted"] > 0
    kind = "per_layer" if traced else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if traced:
        assert trace["spans"] and trace["run_id"]
        assert result["metrics"]["cascade.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values()), report
    assert "outputs_digest" in report


def test_bursts_are_taken_out_of_spans():
    run = workloads.Run(traced=False)
    with run.tracer.span("outer") as idx:
        t0 = time.perf_counter()
        run.speed.sample()
        burst = time.perf_counter() - t0
    raw = workloads.Clock(run, workloads.WORKLOADS["hier-select"], raw=True)
    assert 0 <= raw(idx) < run.tracer.duration(idx) - 0.9 * burst


def _wrap(monkeypatch, fn_name, tamper):
    """Replace workloads.<fn_name> by a wrapper that tampers with its result."""
    real = getattr(workloads, fn_name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return tamper(real(*args, **kwargs), len(calls))

    monkeypatch.setattr(workloads, fn_name, wrapper)


def _failed(result, report, needle):
    assert not result["correct"], report
    assert result["failed"] > 0, report
    assert needle in report, report


def test_swapped_seed_set_is_caught(monkeypatch):
    # greedy's answer replaced by the dynamic program's clique pair.
    _wrap(monkeypatch, "greedy", lambda res, _: dataclasses.replace(res, vertices=frozenset((0, 1))))
    _failed(*_measure(monkeypatch, "worstcase-exact")[:2], "not both star centers")


def test_perturbed_sigma_is_caught(monkeypatch):
    def bump(res, _):
        sigma = dataclasses.replace(res.sigma, mean=res.sigma.mean + 1e-9)
        return dataclasses.replace(res, sigma=sigma)

    _wrap(monkeypatch, "dpim", bump)
    _failed(*_measure(monkeypatch, "hier-select")[:2], "re-run")


def test_changed_output_between_passes_is_caught(monkeypatch):
    # Only the second pass differs, and only in a field no other check reads.
    _wrap(monkeypatch, "mpa", lambda res, n: dataclasses.replace(res, oracle_calls=res.oracle_calls + (n > 1)))
    _failed(*_measure(monkeypatch, "hier-select")[:2], "digest")


def test_wrong_one_shot_estimate_is_caught(monkeypatch):
    _wrap(monkeypatch, "sigma_mc", lambda est, _: dataclasses.replace(est, stderr=est.stderr * 2 + 1))
    _failed(*_measure(monkeypatch, "gnm-sigma")[:2], "one-shot")


def test_optimizer_exception_is_counted(monkeypatch):
    def boom(res, _):
        raise RuntimeError("injected")

    _wrap(monkeypatch, "greedy", boom)
    result, report, _ = _measure(monkeypatch, "worstcase-exact")
    _failed(result, report, "injected")
    assert "dpim" in report  # the other optimizers still ran and were reported


def test_failed_setup_ends_the_run(monkeypatch):
    def boom(res, _):
        raise RuntimeError("no instance")

    _wrap(monkeypatch, "gen_worstcase", boom)
    monkeypatch.setitem(workloads.WORKLOADS, "worstcase-exact", TINY["worstcase-exact"])
    result, lines, _ = runner.measure(workloads, "worstcase-exact", seed=3, seconds=60, traced=False)
    _failed(result, "\n".join(lines), "no instance")
    assert result["metrics"] == {}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hier-select", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
