import csv
import hashlib

import pytest

from infmax import FormatError, Graph, load_edge_list, parse_bench_config, read_tree
from infmax.cli import main


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


def test_gen_gnm_requires_seed(tmp_path, capsys):
    rc = run("gen-gnm", "--n", 9, "--m", 14, "--out", tmp_path / "g.txt")
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


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


def test_sigma_mc_deterministic(triangle, tmp_path, capsys):
    seeds = tmp_path / "s.txt"
    seeds.write_text("# a comment\n0\n")
    args = ("sigma", "--graph", triangle, "--cascade", "twostep:eps=0.25",
            "--seeds", seeds, "--reps", 400, "--seed", 3)
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == first


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
