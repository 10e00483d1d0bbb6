import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infmax import cascade
from infmax import (
    CRN,
    INDEPENDENT,
    CapacityError,
    CascadeModel,
    ExactOracle,
    Graph,
    MonteCarloOracle,
    OracleConfig,
    gen_gnm,
    local_influence,
    parse_model,
    sigma_exact,
    sigma_mc,
    simulate_cascade,
)

ALL_MODELS = [
    CascadeModel.icm(0.3),
    CascadeModel.ltm(),
    CascadeModel.dicm(0.3, 0.2),
    CascadeModel.scm(),
    CascadeModel.twostep(0.05),
]


# ---------------------------------------------------------------- models


def test_icm_values():
    m = CascadeModel.icm(0.3)
    assert local_influence(m, 0, 5) == 0.0
    assert local_influence(m, 1, 5) == pytest.approx(0.3)
    assert local_influence(m, 2, 5) == pytest.approx(1 - 0.7**2)


def test_ltm_values():
    m = CascadeModel.ltm()
    assert local_influence(m, 2, 5) == pytest.approx(0.4)
    assert local_influence(m, 5, 5) == 1.0


def test_dicm_deflates_only_singletons():
    m = CascadeModel.dicm(0.01, 0.1)
    assert local_influence(m, 1, 5) == pytest.approx(0.001)
    assert local_influence(m, 2, 5) == pytest.approx(1 - 0.99**2)


def test_scm_values():
    m = CascadeModel.scm()
    assert local_influence(m, 2, 3) == 0.5
    assert local_influence(m, 3, 3) == 1.0
    assert local_influence(m, 0, 3) == 0.0
    # f(c,d) = c^2/4 / (c^2/4 + (d-c)^2), scaled to integers
    assert local_influence(m, 1, 4) == pytest.approx((1 / 4) / (1 / 4 + 9))


def test_twostep_values():
    m = CascadeModel.twostep(0.05)
    assert local_influence(m, 1, 9) == 0.05
    assert local_influence(m, 2, 9) == 1.0
    assert local_influence(m, 7, 9) == 1.0


def test_local_influence_validates():
    m = CascadeModel.ltm()
    with pytest.raises(ValueError):
        local_influence(m, -1, 3)
    with pytest.raises(ValueError):
        local_influence(m, 4, 3)


# Python's float ** int and numpy's power differ in the last bit here
_WITNESS_P = 0.04097352393619469


@pytest.mark.parametrize(
    "model",
    ALL_MODELS
    + [CascadeModel.icm(p) for p in (_WITNESS_P, 0.001, 0.1, 0.5, 0.731)]
    + [CascadeModel.dicm(p, q) for p in (_WITNESS_P, 0.1, 0.62) for q in (0.1, 0.45)],
    ids=lambda m: m.spec,
)
def test_local_influence_is_the_table_entry(model):
    # the public scalar reports, bit for bit, the value the cascades use
    for d in range(65):
        got = np.array([local_influence(model, c, d) for c in range(d + 1)])
        assert got.tobytes() == model.f_table(d).tobytes()


def test_local_influence_witness_entry():
    assert local_influence(CascadeModel.icm(_WITNESS_P), 9, 9) == 0.3137610363461497


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_monotone_in_neighbors(model):
    # every model's f is nondecreasing in c at fixed degree
    for d in range(1, 65):
        table = model.f_table(d)
        assert table[0] == 0.0
        assert (np.diff(table) >= -1e-15).all()
        assert table[-1] <= 1.0 + 1e-15


def test_dicm_submodularity_boundary():
    # the second neighbor helps more than the first iff q < 1 - p/2
    p = 0.3
    for q, violates in [(0.5, True), (0.9, False)]:
        m = CascadeModel.dicm(p, q)
        first = local_influence(m, 1, 5)
        second = local_influence(m, 2, 5) - first
        assert (second > first) is violates


def test_parse_model_round_trip():
    for spec in ["icm:p=0.01", "ltm", "dicm:p=0.01,q=0.1", "scm", "twostep:eps=0.0025"]:
        m = parse_model(spec)
        assert m.spec == spec
        assert parse_model(m.spec) == m


def test_parse_model_rejects():
    for bad in ["icm", "icm:q=0.1", "ltm:p=0.5", "dicm:p=0.1", "wat", "icm:p=2"]:
        with pytest.raises(ValueError):
            parse_model(bad)


# ---------------------------------------------------------------- cascades


def _thresholds(n, seed):
    rng = np.random.default_rng(seed)
    return 1.0 - rng.random(n)


def test_simulate_empty_seed_set():
    g = gen_gnm(8, 12, seed=1)
    out = simulate_cascade(g, CascadeModel.icm(0.9), set(), _thresholds(8, 0))
    assert out == set()


def test_simulate_certain_edge():
    g = Graph(2, [(0, 1)])
    out = simulate_cascade(g, CascadeModel.icm(1.0), {0}, np.array([0.5, 1.0]))
    assert out == {0, 1}


def test_simulate_two_step_pair():
    # both triangle corners seeded: the third vertex sees two infected
    # neighbors, so f = 1 and it always joins
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    out = simulate_cascade(g, CascadeModel.twostep(0.0025), {0, 1}, np.ones(3))
    assert out == {0, 1, 2}


def test_simulate_threshold_gate():
    g = Graph(2, [(0, 1)])
    m = CascadeModel.icm(0.5)
    assert simulate_cascade(g, m, {0}, np.array([1.0, 0.5])) == {0, 1}
    assert simulate_cascade(g, m, {0}, np.array([1.0, 0.500001])) == {0}


def test_simulate_validates_inputs():
    g = Graph(2, [(0, 1)])
    m = CascadeModel.ltm()
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {5}, np.ones(2))
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {0}, np.ones(3))
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {0}, np.array([0.5, 1.5]))


def test_simulate_zero_threshold_fires_unprompted():
    # theta = 0 means K = 0: vertex 1 joins in round 1 with no infected
    # neighbor and passes the cascade on to 2 but not to 0, whose threshold
    # is out of reach; isolated 3 joins alone
    g = Graph(4, [(0, 1), (1, 2)])
    out = simulate_cascade(g, CascadeModel.icm(0.5), set(), np.array([1.0, 0.0, 0.5, 0.0]))
    assert out == {1, 2, 3}


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_simulate_monotone_in_seeds(ts):
    # fixed thresholds: a superset of seeds infects a superset of vertices
    g = gen_gnm(12, 22, seed=5)
    theta = _thresholds(12, ts)
    m = CascadeModel.ltm()
    small = simulate_cascade(g, m, {0}, theta)
    big = simulate_cascade(g, m, {0, 3, 7}, theta)
    assert small <= big


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_simulate_idempotent(ts):
    # rerunning from the fixed point adds nothing
    g = gen_gnm(12, 22, seed=6)
    theta = _thresholds(12, ts)
    m = CascadeModel.icm(0.6)
    out = simulate_cascade(g, m, {1, 2}, theta)
    assert simulate_cascade(g, m, out, theta) == out


# ---------------------------------------------------------------- kernel


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    model = draw(st.sampled_from(ALL_MODELS))
    reps = draw(st.integers(1, 6))
    seeds = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return Graph(n, edges), model, reps, sorted(seeds), draw(st.integers(0, 2**32 - 1))


def _dense_rounds(graph, K, seeds):
    # the plain synchronous cascade: every round recounts every vertex
    A = graph.csr().toarray().astype(np.int64)
    infected = np.zeros(K.shape, dtype=bool)
    infected[:, seeds] = True
    while True:
        newly = (infected.astype(np.int64) @ A >= K) & ~infected
        if not newly.any():
            return infected
        infected |= newly


# _DENSE_SHARE = 0 keeps every round on the sparse step, a huge share puts
# every round on the dense step, and the shipped share switches per round.
_STEP_SHARES = {"sparse": 0, "dense": 10**9, "switched": cascade._DENSE_SHARE}


@pytest.mark.parametrize("step", sorted(_STEP_SHARES))
@given(case=_kernel_cases())
@example(case=(Graph(5, [(0, 1), (1, 2)]), ALL_MODELS[0], 3, [], 0))
@example(case=(Graph(5, [(0, 1), (1, 2)]), ALL_MODELS[4], 2, [3, 4], 1))
@example(case=(Graph(6, [(0, i) for i in range(1, 6)]), ALL_MODELS[1], 4, [0], 2))
# four of K_6 seeded: the first dense round pushes 20 edge entries per
# repetition in slices of at most reps * nc
@example(case=(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]), ALL_MODELS[1], 3, [0, 1, 2, 3], 3))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_dense_rounds(step, case):
    g, model, reps, seeds, theta_seed = case
    theta = 1.0 - np.random.default_rng(theta_seed).random((reps, g.n))
    K = cascade._count_classes(model, g.degrees, theta)
    A = g.csr()
    with (
        mock.patch.object(cascade, "_DENSE_SHARE", _STEP_SHARES[step]),
        mock.patch.object(cascade, "_targets", wraps=cascade._targets) as push,
    ):
        infected = cascade._closure(A.indptr, A.indices, K, seeds)
    expected = _dense_rounds(g, K, seeds)
    assert np.array_equal(infected, expected)
    # no push holds more edge entries than reps * nc plus one degree (a
    # sparse step forced onto every round pushes whole rounds)
    if step != "sparse":
        assert all(c.args[5].sum() < reps * g.n + g.n for c in push.call_args_list)


# sigma_mc reprs recorded with the earlier kernel, which rebuilt a sparse
# matrix every round; a kernel change that moves result bytes fails here.
_PINNED_SIGMA = {
    ("icm", CRN): "SigmaEstimate(mean=14.42, stderr=0.28794199217623145, reps=300)",
    ("icm", INDEPENDENT): "SigmaEstimate(mean=13.796666666666667, stderr=0.2701541049680099, reps=300)",
    ("ltm", CRN): "SigmaEstimate(mean=15.016666666666667, stderr=0.37699919221762096, reps=300)",
    ("ltm", INDEPENDENT): "SigmaEstimate(mean=14.106666666666667, stderr=0.3213437968108179, reps=300)",
    ("dicm", CRN): "SigmaEstimate(mean=8.773333333333333, stderr=0.17600124995333308, reps=300)",
    ("dicm", INDEPENDENT): "SigmaEstimate(mean=8.403333333333334, stderr=0.15308775351082365, reps=300)",
    ("scm", CRN): "SigmaEstimate(mean=6.18, stderr=0.07194386514805463, reps=300)",
    ("scm", INDEPENDENT): "SigmaEstimate(mean=6.016666666666667, stderr=0.06618415127764259, reps=300)",
    ("twostep", CRN): "SigmaEstimate(mean=22.72, stderr=0.06179045396069602, reps=300)",
    ("twostep", INDEPENDENT): "SigmaEstimate(mean=22.926666666666666, stderr=0.08002136466856087, reps=300)",
}


@pytest.mark.parametrize("mode", [CRN, INDEPENDENT])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_sigma_mc_pinned(model, mode):
    # one 37-vertex component plus isolated vertices 13, 30 and 34
    g = gen_gnm(40, 60, seed=12)
    est = sigma_mc(g, model, [0, 7, 13, 19, 33], OracleConfig(300, 2026, mode))
    assert repr(est) == _PINNED_SIGMA[(model.kind, mode)]


# ---------------------------------------------------------------- exact


def test_exact_single_edge():
    g = Graph(2, [(0, 1)])
    assert sigma_exact(g, CascadeModel.icm(0.3), [0]) == pytest.approx(1.3)


def test_exact_star_two_step():
    # center seeded: every leaf joins with prob eps, expected 1 + L*eps
    L = 400
    g = Graph(L + 1, [(0, i) for i in range(1, L + 1)])
    val = sigma_exact(g, CascadeModel.twostep(0.0025), [0])
    assert val == 2.0


def test_exact_triangle_two_step():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    eps = 0.0025
    val = sigma_exact(g, CascadeModel.twostep(eps), [0])
    # second-order term: either neighbor firing makes the other certain
    assert val == pytest.approx(1 + 2 * (1 - (1 - eps) ** 2))


def test_exact_path_ltm():
    # 0-1-2 path, seed the end: deg(1)=2 so f(1)=1/2, then 2 is certain
    g = Graph(3, [(0, 1), (1, 2)])
    val = sigma_exact(g, CascadeModel.ltm(), [0])
    assert val == pytest.approx(1 + 0.5 * 2)


def test_exact_empty_and_full():
    g = gen_gnm(6, 9, seed=2)
    assert sigma_exact(g, CascadeModel.icm(0.5), []) == 0.0
    assert sigma_exact(g, CascadeModel.icm(0.5), range(6)) == 6.0


def test_exact_additive_over_components():
    g = Graph(4, [(0, 1), (2, 3)])
    m = CascadeModel.icm(0.25)
    both = sigma_exact(g, m, [0, 2])
    assert both == pytest.approx(2 * 1.25)


def test_exact_budget_guard():
    g = gen_gnm(24, 60, seed=3)
    with pytest.raises(CapacityError):
        sigma_exact(g, CascadeModel.icm(0.5), [0], budget=10)


# ---------------------------------------------------------------- oracles


def test_mc_matches_exact_on_edge():
    g = Graph(2, [(0, 1)])
    est = sigma_mc(g, CascadeModel.icm(0.3), [0], OracleConfig(40000, 9))
    assert est.mean == pytest.approx(1.3, abs=4 * est.stderr)
    assert est.reps == 40000
    assert est.stderr > 0


def test_mc_stderr_formula():
    g = Graph(2, [(0, 1)])
    oracle = MonteCarloOracle(g, CascadeModel.icm(0.3), OracleConfig(1000, 9))
    est = oracle.sigma([0])
    totals = 1 + (oracle._theta[:, 1] <= 0.3)
    assert est.mean == pytest.approx(totals.mean())
    assert est.stderr == pytest.approx(totals.std(ddof=1) / math.sqrt(1000))


def test_mc_single_rep_has_zero_stderr():
    g = Graph(2, [(0, 1)])
    est = sigma_mc(g, CascadeModel.icm(0.3), [0], OracleConfig(1, 9))
    assert est.stderr == 0.0


def test_crn_is_deterministic():
    g = gen_gnm(15, 30, seed=4)
    m = CascadeModel.icm(0.2)
    a = sigma_mc(g, m, [0, 5], OracleConfig(500, 77))
    b = sigma_mc(g, m, [0, 5], OracleConfig(500, 77))
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_crn_shared_across_queries():
    # same oracle instance: repeated query is bit-identical, and disjoint
    # component contributions add exactly
    g = Graph(4, [(0, 1), (2, 3)])
    oracle = MonteCarloOracle(g, CascadeModel.icm(0.4), OracleConfig(2000, 5))
    ab = oracle.sigma([0, 2]).mean
    a = oracle.sigma([0]).mean
    b = oracle.sigma([2]).mean
    assert ab == a + b


def test_independent_mode_differs_from_crn():
    g = gen_gnm(15, 30, seed=4)
    m = CascadeModel.icm(0.2)
    crn = sigma_mc(g, m, [0, 5], OracleConfig(500, 77))
    ind = sigma_mc(g, m, [0, 5], OracleConfig(500, 77, mode=INDEPENDENT))
    assert crn.mean != ind.mean
    # independent draws are keyed by the seed set, still reproducible
    again = sigma_mc(g, m, [0, 5], OracleConfig(500, 77, mode=INDEPENDENT))
    assert ind.mean == again.mean


def test_mc_batch_agrees_with_single_runs():
    # drive simulate_cascade with the oracle's own threshold rows; the
    # vectorized batch must reproduce each run exactly
    g = gen_gnm(10, 18, seed=8)
    m = CascadeModel.dicm(0.4, 0.3)
    oracle = MonteCarloOracle(g, m, OracleConfig(64, 13))
    est = oracle.sigma([1, 4])
    sizes = [
        len(simulate_cascade(g, m, {1, 4}, oracle._theta[r]))
        for r in range(64)
    ]
    assert est.mean == pytest.approx(np.mean(sizes))


def test_oracle_call_counter():
    g = Graph(3, [(0, 1), (1, 2)])
    oracle = MonteCarloOracle(g, CascadeModel.ltm(), OracleConfig(10, 1))
    assert oracle.calls == 0
    oracle.sigma([0])
    oracle.sigma([0])
    assert oracle.calls == 2


def test_exact_oracle_counts_and_reps_zero():
    g = Graph(3, [(0, 1), (1, 2)])
    oracle = ExactOracle(g, CascadeModel.ltm())
    est = oracle.sigma([0])
    assert est.reps == 0
    assert est.stderr == 0.0
    assert oracle.calls == 1


@pytest.mark.parametrize(
    "query",
    [
        lambda g: MonteCarloOracle(g, CascadeModel.ltm(), OracleConfig(5, 1)).sigma,
        lambda g: MonteCarloOracle(g, CascadeModel.ltm(), OracleConfig(5, 1, INDEPENDENT)).sigma,
        lambda g: ExactOracle(g, CascadeModel.ltm()).value,
        lambda g: ExactOracle(g, CascadeModel.ltm()).sigma,
    ],
    ids=["mc-crn", "mc-independent", "exact-value", "exact-sigma"],
)
def test_oracles_reject_seed_outside_graph(query):
    ask = query(Graph(4, [(0, 1)]))
    for seeds in ([4], [0, -1], [2, 9]):
        with pytest.raises(ValueError, match="seed outside"):
            ask(seeds)


def test_config_validates():
    with pytest.raises(ValueError):
        OracleConfig(0, 1)
    with pytest.raises(ValueError):
        OracleConfig(10, 1, mode="sometimes")
    assert OracleConfig(10, 1).mode == CRN


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_mc_agrees_with_exact_small(model):
    rng = np.random.default_rng(202)
    hits = 0
    for trial in range(10):
        n = int(rng.integers(4, 10))
        m_edges = int(rng.integers(3, min(16, n * (n - 1) // 2) + 1))
        g = gen_gnm(n, m_edges, int(rng.integers(2**32)))
        k = int(rng.integers(1, 3))
        seeds = rng.choice(n, size=k, replace=False).tolist()
        exact = sigma_exact(g, model, seeds)
        est = sigma_mc(g, model, seeds, OracleConfig(4000, int(rng.integers(2**32))))
        if abs(est.mean - exact) <= 4 * max(est.stderr, 1e-12):
            hits += 1
    assert hits >= 9
