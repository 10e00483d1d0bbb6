import csv
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import infmax
from infmax import (
    ConsistencyError,
    FormatError,
    Graph,
    gen_hierarchical,
    load_edge_list,
    parse_bench_config,
    read_tree,
    write_tree,
)
from infmax.cli import _build_parser, _read_seed_file, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def triangle(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("# nodes: 3\n0 1\n0 2\n1 2\n")
    return p


@pytest.fixture
def edge(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text("0 1\n")
    return p


# ---------------------------------------------------------------- generate


def test_gen_gnm_writes_graph(tmp_path):
    out = tmp_path / "g.txt"
    assert run("gen-gnm", "--n", 9, "--m", 14, "--seed", 2, "--out", out) == 0
    g = load_edge_list(out)
    assert (g.n, g.m) == (9, 14)


def test_write_leaves_a_file_named_like_its_temp_file_alone(tmp_path):
    # the temporary file gets a fresh name, and the output open()'s usual mode
    notes = tmp_path / "g.txt.tmp"
    notes.write_text("my notes")
    out = tmp_path / "g.txt"
    assert run("gen-gnm", "--n", 10, "--m", 5, "--seed", 1, "--out", out) == 0
    assert notes.read_text() == "my notes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # os.replace cannot put a file over a directory: the write fails with
    # exit 3 and takes its temporary file with it
    out = tmp_path / "d"
    out.mkdir()
    assert run("gen-gnm", "--n", 10, "--m", 5, "--seed", 1, "--out", out) == 3
    assert str(out) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]


def test_gen_gnm_requires_seed(tmp_path, capsys):
    rc = run("gen-gnm", "--n", 9, "--m", 14, "--out", tmp_path / "g.txt")
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -3])
def test_gen_gnm_rejects_empty_graph(tmp_path, capsys, n):
    out = tmp_path / "g.txt"
    rc = run("gen-gnm", "--n", n, "--m", 0, "--seed", 1, "--out", out)
    assert rc == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_gen_hier_writes_pair(tmp_path):
    og, ot = tmp_path / "g.txt", tmp_path / "t.tree"
    rc = run("gen-hier", "--d", 4, "--l", 9, "--t", 3, "--seed", 5,
             "--out-graph", og, "--out-tree", ot)
    assert rc == 0
    assert load_edge_list(og).n == 16
    assert read_tree(ot).n_leaves == 16


def test_gen_worstcase_prints_model(tmp_path, capsys):
    og, ot = tmp_path / "g.txt", tmp_path / "t.tree"
    rc = run("gen-worstcase", "--n", 3, "--out-graph", og, "--out-tree", ot)
    assert rc == 0
    assert capsys.readouterr().out.strip().startswith("twostep:eps=")
    assert load_edge_list(og).n == 23


# ---------------------------------------------------------------- decompose


def test_decompose_and_hiercost(triangle, tmp_path, capsys):
    tree = tmp_path / "t.tree"
    assert run("decompose", "--method", "jaccard", "--graph", triangle, "--out", tree) == 0
    assert run("hiercost", "--graph", triangle, "--tree", tree) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_decompose_stochastic_needs_seed(triangle, tmp_path):
    rc = run("decompose", "--method", "bisection", "--graph", triangle,
             "--out", tmp_path / "t.tree")
    assert rc == 2


def test_missing_graph_is_exit_3(tmp_path, capsys):
    rc = run("decompose", "--method", "jaccard", "--graph", tmp_path / "nope.txt",
             "--out", tmp_path / "t.tree")
    assert rc == 3
    # a directory, and a file that is not UTF-8 text, fail as inputs too
    undecodable = tmp_path / "ff.txt"
    undecodable.write_bytes(b"0 1\n\xff\n")
    for graph in (tmp_path, undecodable):
        assert run("decompose", "--method", "jaccard", "--graph", graph, "--out", tmp_path / "t.tree") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(graph) in err
    assert not (tmp_path / "t.tree").exists()


def test_undecodable_files_name_their_path(tmp_path):
    # every reader of a text file raises FormatError with the file's path
    undecodable = tmp_path / "ff.txt"
    undecodable.write_bytes(b"hier v1 1\n0 -1 0\n\xff\n")
    for read in (load_edge_list, read_tree, parse_bench_config, lambda p: _read_seed_file(p, 3)):
        with pytest.raises(FormatError, match=re.escape(f"{undecodable}: ") + ".*can't decode"):
            read(undecodable)


def test_malformed_tree_is_exit_3(triangle, tmp_path):
    bad = tmp_path / "bad.tree"
    for text in ["hier v1 3\n0 -1 -1\n", f"hier v1 {2**62}\n"]:
        bad.write_text(text)
        assert run("hiercost", "--graph", triangle, "--tree", bad) == 3


def test_mismatched_tree_is_exit_3(edge, triangle, tmp_path):
    tree = tmp_path / "t.tree"
    run("decompose", "--method", "jaccard", "--graph", triangle, "--out", tree)
    assert run("hiercost", "--graph", edge, "--tree", tree) == 3


# ---------------------------------------------------------------- sigma


def test_sigma_exact_edge(edge, tmp_path, capsys):
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    rc = run("sigma", "--graph", edge, "--cascade", "icm:p=0.5",
             "--seeds", seeds, "--exact")
    assert rc == 0
    assert capsys.readouterr().out.split() == ["1.5", "0.0"]


def test_sigma_exact_long_path(tmp_path, capsys):
    graph = tmp_path / "path.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(1499)))
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    rc = run("sigma", "--graph", graph, "--cascade", "icm:p=0.5",
             "--seeds", seeds, "--exact")
    assert rc == 0
    assert capsys.readouterr().out.split() == ["2.0", "0.0"]


def test_sigma_mc_deterministic(triangle, tmp_path, capsys):
    seeds = tmp_path / "s.txt"
    seeds.write_text("# a comment\n0\n")
    args = ("sigma", "--graph", triangle, "--cascade", "twostep:eps=0.25",
            "--seeds", seeds, "--reps", 400, "--seed", 3)
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("spec", ["icm:p=0.3", "dicm:p=0.4,q=0.3", "ltm", "scm", "twostep:eps=0.25"])
def test_sigma_prints_the_library_estimate(tmp_path, capsys, spec):
    # the CLI's "mean stderr" line is the library's estimate, repr for repr
    model, seeds = infmax.parse_model(spec), [0, 3]
    seed_file = tmp_path / "s.txt"
    seed_file.write_text("0\n3\n")
    for g, flags in (
        (infmax.gen_gnm(30, 60, seed=2), ("--reps", 40, "--seed", 7)),
        (infmax.gen_gnm(9, 12, seed=5), ("--exact",)),
    ):
        graph = tmp_path / "g.txt"
        g.write(graph)
        assert run("sigma", "--graph", graph, "--cascade", spec, "--seeds", seed_file, *flags) == 0
        if flags[0] == "--exact":
            expected = f"{infmax.sigma_exact(g, model, seeds)!r} 0.0"
        else:
            est = infmax.sigma_mc(g, model, seeds, infmax.OracleConfig(40, 7))
            expected = f"{est.mean!r} {est.stderr!r}"
        assert capsys.readouterr().out == expected + "\n"


def test_sigma_requires_reps_or_exact(edge, tmp_path):
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    assert run("sigma", "--graph", edge, "--cascade", "ltm", "--seeds", seeds) == 2


def test_sigma_bad_model_is_exit_2(edge, tmp_path):
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    rc = run("sigma", "--graph", edge, "--cascade", "nope:p=1",
             "--seeds", seeds, "--exact")
    assert rc == 2


def test_sigma_repeated_model_parameter_is_exit_2(edge, tmp_path):
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    rc = run("sigma", "--graph", edge, "--cascade", "icm:p=0.1,p=0.9",
             "--seeds", seeds, "--exact")
    assert rc == 2


def test_sigma_bad_seed_file_is_exit_3(edge, tmp_path):
    seeds = tmp_path / "s.txt"
    seeds.write_text("zero\n")
    rc = run("sigma", "--graph", edge, "--cascade", "ltm", "--seeds", seeds, "--exact")
    assert rc == 3


def test_sigma_seed_outside_graph_is_exit_3(edge, tmp_path, capsys):
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n5\n")
    rc = run("sigma", "--graph", edge, "--cascade", "ltm", "--seeds", seeds,
             "--reps", 10, "--seed", 1)
    assert rc == 3
    err = capsys.readouterr().err
    assert str(seeds) in err and "seed id 5" in err


def test_sigma_refused_allocation_is_exit_4(triangle, tmp_path, capsys):
    # numpy refuses a reps x n table of this size at once: nothing is allocated
    seeds = tmp_path / "s.txt"
    seeds.write_text("0\n")
    rc = run("sigma", "--graph", triangle, "--cascade", "ltm", "--seeds", seeds,
             "--reps", 10**15, "--seed", 1)
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------- maximize


def test_maximize_k0_writes_header_only(triangle, tmp_path, capsys):
    out = tmp_path / "s.txt"
    rc = run("maximize", "--algo", "greedy", "--graph", triangle,
             "--cascade", "icm:p=0.5", "--k", 0, "--reps", 10, "--seed", 1,
             "--out", out)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines == ["# sigma 0.0 0.0 10"]
    assert "sigma 0.0" in capsys.readouterr().out


def test_maximize_exact_round_trips_through_sigma(triangle, tmp_path, capsys):
    out = tmp_path / "s.txt"
    rc = run("maximize", "--algo", "brute-force", "--graph", triangle,
             "--cascade", "icm:p=0.5", "--k", 1, "--exact", "--out", out)
    assert rc == 0
    capsys.readouterr()
    assert run("sigma", "--graph", triangle, "--cascade", "icm:p=0.5",
               "--seeds", out, "--exact") == 0
    printed = float(capsys.readouterr().out.split()[0])
    # seed one corner: each neighbor fires directly w.p. 1/2, and a lone
    # firing pulls the other in through f(2) = 3/4
    assert printed == pytest.approx(2.25)


def test_maximize_dpim_needs_tree(triangle, tmp_path):
    rc = run("maximize", "--algo", "dpim", "--graph", triangle,
             "--cascade", "ltm", "--k", 1, "--exact", "--out", tmp_path / "s.txt")
    assert rc == 2


def test_maximize_dpim_with_tree(triangle, tmp_path):
    tree = tmp_path / "t.tree"
    run("decompose", "--method", "jaccard", "--graph", triangle, "--out", tree)
    out = tmp_path / "s.txt"
    rc = run("maximize", "--algo", "dpim", "--graph", triangle, "--tree", tree,
             "--cascade", "icm:p=0.5", "--k", 2, "--exact", "--out", out)
    assert rc == 0
    ids = [int(x) for x in out.read_text().splitlines()[1:]]
    assert len(ids) == 2


def test_maximize_mpa(triangle, tmp_path):
    tree = tmp_path / "t.tree"
    run("decompose", "--method", "jaccard", "--graph", triangle, "--out", tree)
    out = tmp_path / "s.txt"
    rc = run("maximize", "--algo", "mpa", "--graph", triangle, "--tree", tree,
             "--cascade", "icm:p=0.5", "--k", 1, "--reps", 100, "--seed", 4,
             "--max-outer", 3, "--out", out)
    assert rc == 0


# ---------------------------------------------------------------- bench


def _write_config(path, **over):
    fields = {
        "graph": "gnm:n=10,m=16,seed=3",
        "tree": "bisection",
        "cascade": "icm:p=0.2",
        "algorithms": "greedy, dpim",
        "k": "1, 2",
        "reps": "150",
        "master_seed": "71",
        "trials": "2",
        "output": str(path.parent / "out.csv"),
    }
    fields.update(over)
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path.parent / "out.csv"


def test_bench_runs_and_is_deterministic(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg)
    assert run("bench", "--config", cfg) == 0
    first = out.read_bytes()
    rows = first.decode().splitlines()
    assert rows[0] == (
        "algorithm,cascade,k,trial,sigma_mean,sigma_stderr,"
        "oracle_calls,elapsed_seconds,seed"
    )
    assert len(rows) == 1 + 2 * 1 * 2 * 2
    # elapsed column is pinned unless timing=wall
    assert all(r.split(",")[7] == "0.000" for r in rows[1:])
    assert run("bench", "--config", cfg) == 0
    assert out.read_bytes() == first


def test_bench_workers_agree(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg)
    assert run("bench", "--config", cfg, "--workers", 1) == 0
    one = out.read_bytes()
    assert run("bench", "--config", cfg, "--workers", 3) == 0
    assert out.read_bytes() == one
    # fewer than one worker is a usage error, not a serial run
    out.unlink()
    for workers in (0, -3):
        assert run("bench", "--config", cfg, "--workers", workers) == 2
        with pytest.raises(ValueError, match="workers"):
            infmax.run_bench(parse_bench_config(cfg), workers=workers)
    assert not out.exists()


def test_bench_k0_row(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg, algorithms="greedy", k="0", trials="1")
    assert run("bench", "--config", cfg) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "greedy"
    assert float(row[4]) == 0.0


def test_bench_multiple_cascades(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(
        cfg, cascade="icm:p=0.2; dicm:p=0.2,q=0.5", algorithms="greedy",
        k="1", trials="1",
    )
    assert run("bench", "--config", cfg) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["cascade"] for r in rows] == ["icm:p=0.2", "dicm:p=0.2,q=0.5"]


def test_bench_truth_tree_source(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(
        cfg, graph="worstcase:n=3", tree="truth", cascade="twostep:eps=0.1111",
        algorithms="dpim", k="2", trials="1",
    )
    assert run("bench", "--config", cfg) == 0
    assert len(out.read_text().splitlines()) == 2


def test_bench_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    cfg.write_text(cfg.read_text() + "surprise = 1\n")
    assert run("bench", "--config", cfg) == 3


def test_bench_rejects_missing_key(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("graph = gnm:n=4,m=3,seed=1\n")
    assert run("bench", "--config", cfg) == 3


@pytest.mark.parametrize(
    "over",
    [{"graph": "gnm:n=10,n=20,m=5,seed=1"}, {"cascade": "icm:p=0.1,p=0.2"}],
    ids=["graph", "cascade"],
)
def test_bench_repeated_spec_parameter_is_exit_3(tmp_path, over):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg, **over)
    assert run("bench", "--config", cfg) == 3


def test_bench_k_exceeding_n_is_exit_3(tmp_path):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg, k="11")
    assert run("bench", "--config", cfg) == 3


def test_bench_config_parses_defaults(tmp_path):
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg)
    parsed = parse_bench_config(cfg)
    assert parsed.trials == 2
    assert parsed.max_outer == 20
    assert parsed.timing == "none"
    assert parsed.algorithms == ("greedy", "dpim")
    assert parsed.ks == (1, 2)


def test_bench_config_readme_example(tmp_path):
    # the README's example config, trailing comments included
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(block)
    parsed = parse_bench_config(cfg)
    assert parsed.graph_source == "gnm:n=1000,m=5000,seed=3"
    assert parsed.tree_source == "bisection"
    assert parsed.cascades == ("icm:p=0.1", "dicm:p=0.1,q=0.5")
    assert parsed.algorithms == ("greedy", "dpim", "mpa")
    assert parsed.ks == (1, 5, 10)
    assert (parsed.reps, parsed.master_seed, parsed.trials) == (100, 42, 3)
    assert (parsed.output, parsed.max_outer, parsed.timing) == ("results.csv", 10, "none")


def test_readme_entry_points_exist():
    # every name the README lists under "Key entry points" is on the package
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Key entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    names = [re.match(r"[\w.]+", name).group() for name in re.findall(r"`([^`]+)`", block)]
    assert "Graph.write" in names and "gen_worstcase" in names
    for name in names:
        owner, _, attr = name.partition(".")
        assert owner in infmax.__all__, name
        assert not attr or hasattr(getattr(infmax, owner), attr), name


def test_bench_tree_required_for_dpim(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "graph = gnm:n=6,m=8,seed=1\ncascade = ltm\nalgorithms = dpim\n"
        "k = 1\nreps = 10\nmaster_seed = 2\noutput = o.csv\n"
    )
    with pytest.raises(FormatError):
        parse_bench_config(cfg)
    assert run("bench", "--config", cfg) == 3


# Digests of bench CSVs (timing = none) and decompose outputs, recorded
# before the CLI's builder table and algorithm dispatch were merged, so a
# change of result bytes across commits fails here.  gnm:n=14,m=11,seed=5 has
# one 10-vertex component and four isolated vertices, which also sends
# random-edge into its random-pair fallback.
_BENCH_PINS = {
    ("gnm:n=14,m=11,seed=5", "random-pair"): "e2ae76c11018d70485dabec2e59a58cd9f60b27f2ddd265130ac532758f1a016",
    ("gnm:n=14,m=11,seed=5", "random-edge"): "de767abe689e5bbee5992c5202ada77f66713870807faa9248abd2c17168cc77",
    ("gnm:n=14,m=11,seed=5", "jaccard"): "74ea5a5aeeb1d71a2a4aeff05830f35dca2d6ce6de3265b982806fe16d1d6d11",
    ("gnm:n=14,m=11,seed=5", "bisection"): "9646958f4498d71f20982ee6e086db7985c1a2a8445843f1f8ab40b1dc4b7af4",
    ("worstcase:n=3", "truth"): "e5a7bb272f04671b118744b0ef1dec4c104445e126918935bbb684e0f4697c0f",
}


@pytest.mark.parametrize("graph, tree", sorted(_BENCH_PINS))
def test_bench_csv_pinned(tmp_path, graph, tree):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(
        cfg, graph=graph, tree=tree,
        cascade="icm:p=0.3;dicm:p=0.3,q=0.5;ltm;scm;twostep:eps=0.2",
        algorithms="greedy,dpim,mpa,brute-force", k="1,3", reps="16",
        master_seed="7", trials="2", max_outer="3",
    )
    assert run("bench", "--config", cfg) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _BENCH_PINS[graph, tree]


_DECOMPOSE_PINS = {
    "random-pair": "7fa7d0e7d2163de40261ac8315f76dc75b4df88af85cb34b556c974c79b46efd",
    "random-edge": "248a51053e205a1f6c1dd20690cb81788dedb87349096daab94767bc9f9f19b2",
    "jaccard": "2d648b77398d48b6e6ae6c9ae58fd1eff223304bc953a3bd64e2b151eeb70fbe",
    "bisection": "bb16da19288622039ecccec0cdbdefb9227d1b3200b820e9116e3b003eff045b",
}


@pytest.mark.parametrize("method", sorted(_DECOMPOSE_PINS))
def test_decompose_pinned(tmp_path, method):
    graph, out = tmp_path / "g.txt", tmp_path / "t.tree"
    assert run("gen-gnm", "--n", 14, "--m", 11, "--seed", 5, "--out", graph) == 0
    assert run("decompose", "--method", method, "--graph", graph,
               "--seed", 9, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _DECOMPOSE_PINS[method]


# ---------------------------------------------------------------- parser


def test_unknown_subcommand_usage_error():
    assert run("frobnicate") == 2


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    # no console script needed: python -m infmax reaches the same parser
    src = str(Path(infmax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "infmax", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "maximize" in out.stdout
    assert out.stderr == ""


@pytest.mark.parametrize(
    "over",
    [
        {"algorithms": "greedy, greedy"},
        {"k": "1, 1"},
        {"cascade": "ltm; ltm"},
        {"cascade": "ltm; LTM"},
        {"cascade": "icm:p=0.1; icm:p=0.10"},
    ],
    ids=["algorithm", "k", "cascade", "cascade-case", "cascade-float"],
)
def test_bench_repeated_list_entry_is_exit_3(tmp_path, over):
    # a repeated entry would write one cell's rows twice, under two row seeds
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg, **over)
    with pytest.raises(FormatError, match="repeated"):
        parse_bench_config(cfg)
    assert run("bench", "--config", cfg) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "graph, message",
    [
        ("gnm:n=10,m=16", r"gnm source takes parameters \['n', 'm', 'seed'\], got \['m', 'n'\]"),
        ("gnm:n=10,m=16,seed=3,p=1", r"bad gnm source parameter 'p=1'"),
        ("hier:d=3,l=2,t=1,seed=2.5", r"bad hier source parameter value '2.5'"),
    ],
)
def test_bench_graph_source_errors(tmp_path, graph, message):
    # graph sources follow the model-spec rules (cascade._parse_params)
    cfg = tmp_path / "bench.cfg"
    _write_config(cfg, graph=graph)
    with pytest.raises(FormatError, match=message):
        infmax.run_bench(parse_bench_config(cfg))


@pytest.mark.parametrize(
    "over, extra, message",
    [
        ({}, "just words\n", r":10: expected 'key = value'"),
        ({}, "reps = 5\n", r":10: duplicate key 'reps'"),
        ({"reps": "0"}, "", r"key 'reps' must be >= 1"),
        ({"trials": "0"}, "", r"key 'trials' must be >= 1"),
        ({"max_outer": "-1"}, "", r"key 'max_outer' must be >= 0"),
        ({"algorithms": "greedy, magic"}, "", r"unknown algorithm 'magic'"),
        ({"algorithms": " , "}, "", r"algorithms list is empty"),
        ({"cascade": " ; "}, "", r"cascade list is empty"),
        ({"k": "1, -2"}, "", r"key 'k' must list nonnegative integers"),
        ({"k": ","}, "", r"key 'k' must list nonnegative integers"),
        ({"timing": "cpu"}, "", r"timing must be 'none' or 'wall'"),
    ],
    ids=[
        "no-equals", "duplicate", "reps", "trials", "max-outer", "algorithm",
        "no-algorithms", "no-cascades", "negative-k", "no-k", "timing",
    ],
)
def test_bench_config_refusals(tmp_path, capsys, over, extra, message):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg, **over)
    cfg.write_text(cfg.read_text() + extra)
    with pytest.raises(FormatError, match=message):
        parse_bench_config(cfg)
    assert run("bench", "--config", cfg) == 3
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_bench_truth_tree_needs_a_generated_truth(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    out = _write_config(cfg, tree="truth")
    message = "tree 'truth' needs a hier: or worstcase: graph"
    with pytest.raises(ConsistencyError, match=message):
        infmax.run_bench(parse_bench_config(cfg))
    assert run("bench", "--config", cfg) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_file_sources_match_generated_ones(tmp_path):
    # a hier: source with its truth tree writes the bytes that the same graph
    # and tree write when the config names them as files
    graph, tree = gen_hierarchical(3, 4, 2, 5)
    graph.write(tmp_path / "g.txt")
    write_tree(tree, tmp_path / "t.tree")
    cfg = tmp_path / "bench.cfg"
    rows = {}
    for source, tree_source in (("hier:d=3,l=4,t=2,seed=5", "truth"), (tmp_path / "g.txt", tmp_path / "t.tree")):
        out = _write_config(cfg, graph=source, tree=tree_source, trials="1")
        assert run("bench", "--config", cfg) == 0
        rows[source] = out.read_bytes()
    generated, from_files = rows.values()
    assert generated == from_files
    assert len(generated.decode().splitlines()) == 1 + 2 * 1 * 2 * 1


# ---------------------------------------------------------------- integers in files

# int() alone reads each of these: 1_0 as 10, and the Arabic-Indic and
# full-width digits as 3, 12 and 2.
_NOT_ASCII_INTEGERS = ["1_0", "٣", "١٢", "２"]


@pytest.mark.parametrize("token", _NOT_ASCII_INTEGERS)
def test_edge_list_integers_are_ascii_digits(tmp_path, token):
    # a nodes header of non-ASCII digits is refused; one that is not all
    # digits (1_0, many) stays a comment
    p = tmp_path / "g.txt"
    texts = [f"0 {token}\n"] + [f"# nodes: {token}\n0 1\n"] * token.isdigit()
    for text in texts:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            load_edge_list(p)
        assert run("decompose", "--method", "jaccard", "--graph", p, "--out", tmp_path / "t.tree") == 3
    p.write_text("# nodes: many\n0 1\n")
    assert load_edge_list(p).n == 2


@pytest.mark.parametrize("token", _NOT_ASCII_INTEGERS)
def test_seed_file_integers_are_ascii_digits(tmp_path, capsys, token):
    # 13 vertices, so every misread id would be in range
    graph, seeds = tmp_path / "g.txt", tmp_path / "s.txt"
    graph.write_text("# nodes: 13\n0 1\n")
    seeds.write_text(f"{token}\n", encoding="utf-8")
    assert run("sigma", "--graph", graph, "--cascade", "ltm", "--seeds", seeds, "--exact") == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("token", _NOT_ASCII_INTEGERS)
def test_tree_file_integers_are_ascii_digits(tmp_path, token):
    p = tmp_path / "t.tree"
    rows = ["hier v1 2", "0 2 0", "1 2 1", "2 -1 -1"]
    p.write_text("\n".join(rows) + "\n")
    assert read_tree(p).n_leaves == 2
    for i, bad in ((0, f"hier v1 {token}"), (1, f"0 2 {token}"), (3, f"2 -1 -{token}")):
        p.write_text("\n".join([*rows[:i], bad, *rows[i + 1:]]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_tree(p)


@pytest.mark.parametrize("token", _NOT_ASCII_INTEGERS)
def test_bench_config_integers_are_ascii_digits(tmp_path, token):
    cfg = tmp_path / "bench.cfg"
    for over in ({"reps": token}, {"master_seed": token}, {"trials": token}, {"k": f"1, {token}"}):
        out = _write_config(cfg, **over)
        with pytest.raises(FormatError, match="integer"):
            parse_bench_config(cfg)
        assert run("bench", "--config", cfg) == 3
        assert not out.exists()
    _write_config(cfg, graph=f"gnm:n={token},m=16,seed=3")
    with pytest.raises(FormatError, match="bad gnm source parameter value"):
        infmax.run_bench(parse_bench_config(cfg))


# Every integer flag of every command, with a value it reads as written.
_INTEGER_FLAGS = [
    "gen-hier --d 3 --l 1 --t 2 --seed 1 --out-graph g --out-tree t",
    "gen-worstcase --n 3 --out-graph g --out-tree t",
    "gen-gnm --n 5 --m 4 --seed 1 --out g",
    "decompose --method jaccard --graph g --seed 1 --out t",
    "sigma --graph g --cascade ltm --seeds s --reps 5 --seed 1",
    "maximize --algo greedy --graph g --cascade ltm --k 1 --reps 5 --seed 1 --max-outer 2 --out o",
    "bench --config c --workers 1",
]


@pytest.mark.parametrize("token", _NOT_ASCII_INTEGERS)
@pytest.mark.parametrize("line", _INTEGER_FLAGS, ids=lambda line: line.split()[0])
def test_flag_integers_are_ascii_digits(capsys, line, token):
    # int() would read 1_0 as 10 and the other tokens as 3, 12 and 2
    argv = line.split()
    args = vars(_build_parser().parse_args(argv))
    for i in range(1, len(argv), 2):
        if argv[i + 1].isdigit():
            assert args[argv[i][2:].replace("-", "_")] == int(argv[i + 1])
            assert run(*argv[: i + 1], token, *argv[i + 2 :]) == 2
            assert f"argument {argv[i]}: value {token!r} is not an integer" in capsys.readouterr().err


# ---------------------------------------------------------------- silence


def test_library_and_cli_print_nothing_unasked(tmp_path, capfd, caplog):
    # A caller reads the CLI's one result line from stdout, so neither the
    # optimizers nor the oracles may print, warn or log on their own.
    g = infmax.gen_gnm(10, 16, seed=3)
    tree = infmax.build_bisection(g, 1)
    model = infmax.CascadeModel("icm", p=0.3)
    graph, tree_file, out = tmp_path / "g.txt", tmp_path / "t.tree", tmp_path / "s.txt"
    g.write(graph)
    infmax.write_tree(tree, tree_file)
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cfg in (infmax.OracleConfig(20, 1), "exact"):
            infmax.greedy(g, model, 2, cfg)
            infmax.dpim(g, tree, model, 2, cfg)
            infmax.mpa(g, tree, model, 2, cfg, max_outer=2)
        assert capfd.readouterr() == ("", "")
        rc = run("maximize", "--algo", "mpa", "--graph", graph, "--tree", tree_file,
                 "--cascade", "icm:p=0.3", "--k", 2, "--reps", 20, "--seed", 1, "--out", out)
    assert rc == 0
    stdout, stderr = capfd.readouterr()
    assert stderr == ""
    assert re.fullmatch(r"sigma \S+ \S+ reps 20 oracle_calls \d+\n", stdout)
    assert not caught
    assert not caplog.records
