import gc
import hashlib
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infmax import cascade
from infmax import graph as graph_module
from infmax._rng import _integer
from infmax.graph import _SeedKey, _seed_key
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
    gen_worstcase,
    parse_model,
    sigma_exact,
    sigma_mc,
    simulate_cascade,
)

ALL_MODELS = [
    CascadeModel("icm", p=0.3),
    CascadeModel("ltm"),
    CascadeModel("dicm", p=0.3, q=0.2),
    CascadeModel("scm"),
    CascadeModel("twostep", eps=0.05),
]


# ---------------------------------------------------------------- models


def test_icm_values():
    m = CascadeModel("icm", p=0.3)
    assert m.f_table(5)[0] == 0.0
    assert m.f_table(5)[1] == pytest.approx(0.3)
    assert m.f_table(5)[2] == pytest.approx(1 - 0.7**2)


def test_ltm_values():
    m = CascadeModel("ltm")
    assert m.f_table(5)[2] == pytest.approx(0.4)
    assert m.f_table(5)[5] == 1.0


def test_dicm_deflates_only_singletons():
    m = CascadeModel("dicm", p=0.01, q=0.1)
    assert m.f_table(5)[1] == pytest.approx(0.001)
    assert m.f_table(5)[2] == pytest.approx(1 - 0.99**2)


def test_scm_values():
    m = CascadeModel("scm")
    assert m.f_table(3)[2] == 0.5
    assert m.f_table(3)[3] == 1.0
    assert m.f_table(3)[0] == 0.0
    # f(c,d) = c^2/4 / (c^2/4 + (d-c)^2), scaled to integers
    assert m.f_table(4)[1] == pytest.approx((1 / 4) / (1 / 4 + 9))


def test_twostep_values():
    m = CascadeModel("twostep", eps=0.05)
    assert m.f_table(9)[1] == 0.05
    assert m.f_table(9)[2] == 1.0
    assert m.f_table(9)[7] == 1.0


# Python's float ** int and numpy's power differ in the last bit here
_WITNESS_P = 0.04097352393619469


@pytest.mark.parametrize(
    "model",
    ALL_MODELS
    + [CascadeModel("icm", p=p) for p in (_WITNESS_P, 0.001, 0.1, 0.5, 0.731)]
    + [CascadeModel("dicm", p=p, q=q) for p in (_WITNESS_P, 0.1, 0.62) for q in (0.1, 0.45)],
    ids=lambda m: m.spec,
)
def test_local_influence_is_the_table_entry(model):
    # the paper's f(c, d), one entry at a time in Python floats, is the
    # table the cascades use, up to rounding
    for d in range(65):
        want = [_scalar_f(model, c, d) for c in range(d + 1)]
        np.testing.assert_allclose(model.f_table(d), want, rtol=1e-12, atol=0)


def _scalar_f(model, c, d):
    if c == 0:
        return 0.0
    if model.kind == "dicm" and c == 1:
        return model.q * model.p
    if model.kind in ("icm", "dicm"):
        return 1 - (1 - model.p) ** c
    if model.kind == "ltm":
        return c / d
    if model.kind == "scm":
        x = c / d
        return (x / 2) ** 2 / ((x / 2) ** 2 + (1 - x) ** 2)
    return model.eps if c == 1 else 1.0


def test_local_influence_witness_entry():
    assert CascadeModel("icm", p=_WITNESS_P).f_table(9)[9] == 0.3137610363461497


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
        m = CascadeModel("dicm", p=p, q=q)
        first = m.f_table(5)[1]
        second = m.f_table(5)[2] - first
        assert (second > first) == violates


def test_parse_model_round_trip():
    for spec in ["icm:p=0.01", "ltm", "dicm:p=0.01,q=0.1", "scm", "twostep:eps=0.0025"]:
        m = parse_model(spec)
        assert m.spec == spec
        assert parse_model(m.spec) == m
    # numpy numbers are stored as Python floats, so spec still parses
    for m, spec in [
        (CascadeModel("icm", p=np.float32(0.1)), "icm:p=0.10000000149011612"),
        (CascadeModel("dicm", p=np.float64(0.25), q=np.int64(1)), "dicm:p=0.25,q=1.0"),
        (CascadeModel("twostep", eps=np.uint8(0)), "twostep:eps=0.0"),
        (CascadeModel("icm", p=1), "icm:p=1.0"),
    ]:
        assert m.spec == spec and parse_model(spec) == m
        assert {type(v) for v in (m.p, m.q, m.eps) if v is not None} == {float}


def test_model_parameters_must_be_numbers():
    for bad in (True, False, np.True_, "0.5", None, [0.5], 1j):
        with pytest.raises(ValueError):
            CascadeModel("icm", p=bad)
        with pytest.raises(ValueError):
            CascadeModel("dicm", p=0.5, q=bad)
    with pytest.raises(ValueError, match="not a real number"):
        CascadeModel("twostep", eps=np.bool_(False))


def test_parse_model_rejects():
    for bad in ["icm", "icm:q=0.1", "ltm:p=0.5", "dicm:p=0.1", "wat", "icm:p=2"]:
        with pytest.raises(ValueError):
            parse_model(bad)


def test_parse_model_rejects_repeated_parameter():
    for bad in ["icm:p=0.1,p=0.9", "dicm:p=0.1,q=0.2,p=0.1", "twostep:eps=0.1,eps=0.1"]:
        with pytest.raises(ValueError, match="repeated"):
            parse_model(bad)


# ---------------------------------------------------------------- cascades


def _thresholds(n, seed):
    rng = np.random.default_rng(seed)
    return 1.0 - rng.random(n)


def test_simulate_empty_seed_set():
    g = gen_gnm(8, 12, seed=1)
    out = simulate_cascade(g, CascadeModel("icm", p=0.9), set(), _thresholds(8, 0))
    assert out == set()


def test_simulate_certain_edge():
    g = Graph(2, [(0, 1)])
    out = simulate_cascade(g, CascadeModel("icm", p=1.0), {0}, np.array([0.5, 1.0]))
    assert out == {0, 1}


def test_simulate_two_step_pair():
    # both triangle corners seeded: the third vertex sees two infected
    # neighbors, so f = 1 and it always joins
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    out = simulate_cascade(g, CascadeModel("twostep", eps=0.0025), {0, 1}, np.ones(3))
    assert out == {0, 1, 2}


def test_simulate_threshold_gate():
    g = Graph(2, [(0, 1)])
    m = CascadeModel("icm", p=0.5)
    assert simulate_cascade(g, m, {0}, np.array([1.0, 0.5])) == {0, 1}
    assert simulate_cascade(g, m, {0}, np.array([1.0, 0.500001])) == {0}


def test_simulate_validates_inputs():
    g = Graph(2, [(0, 1)])
    m = CascadeModel("ltm")
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {5}, np.ones(2))
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {0}, np.ones(3))
    with pytest.raises(ValueError):
        simulate_cascade(g, m, {0}, np.array([0.5, 1.5]))


def test_simulate_rejects_nan_thresholds():
    # NaN compares false both ways, so a min/max range check lets it through
    with pytest.raises(ValueError):
        simulate_cascade(gen_gnm(5, 4, seed=1), CascadeModel("icm", p=0.5), [0], [math.nan] * 5)


def test_simulate_zero_threshold_fires_unprompted():
    # theta = 0 means K = 0: vertex 1 joins in round 1 with no infected
    # neighbor and passes the cascade on to 2 but not to 0, whose threshold
    # is out of reach; isolated 3 joins alone
    g = Graph(4, [(0, 1), (1, 2)])
    out = simulate_cascade(g, CascadeModel("icm", p=0.5), set(), np.array([1.0, 0.0, 0.5, 0.0]))
    assert out == {1, 2, 3}


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_simulate_monotone_in_seeds(ts):
    # fixed thresholds: a superset of seeds infects a superset of vertices
    g = gen_gnm(12, 22, seed=5)
    theta = _thresholds(12, ts)
    m = CascadeModel("ltm")
    small = simulate_cascade(g, m, {0}, theta)
    big = simulate_cascade(g, m, {0, 3, 7}, theta)
    assert small <= big


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_simulate_idempotent(ts):
    # rerunning from the fixed point adds nothing
    g = gen_gnm(12, 22, seed=6)
    theta = _thresholds(12, ts)
    m = CascadeModel("icm", p=0.6)
    out = simulate_cascade(g, m, {1, 2}, theta)
    assert simulate_cascade(g, m, out, theta) == out


# ---------------------------------------------------------------- count classes


def _reference_classes(model, degrees, theta):
    # the definition: one searchsorted per column against its own table
    K = np.empty(theta.shape, dtype=np.int32)
    for col, d in enumerate(degrees):
        K[..., col] = np.searchsorted(model.f_table(int(d)), theta[..., col], side="left")
    return K


# Degenerate models repeat table values (icm p = 0 or 1, dicm q = 0,
# twostep eps = 0 or 1); icm p = 1/2 and ltm at d = 1024 put table values on
# bucket edges; ltm and scm past the bucket count put several table values in
# one bucket, so the bisection takes several steps.
_CLASS_MODELS = [
    *ALL_MODELS,
    CascadeModel("icm", p=0.0),
    CascadeModel("icm", p=0.5),
    CascadeModel("icm", p=1.0),
    CascadeModel("dicm", p=0.3, q=0.0),
    CascadeModel("twostep", eps=0.0),
    CascadeModel("twostep", eps=1.0),
]
_CLASS_DEGREES = [0, 1, 2, 3, 9, 69, 1023, 1024, 1025, 5000]


@st.composite
def _class_cases(draw):
    model = draw(st.sampled_from(_CLASS_MODELS))
    degrees = draw(st.lists(st.sampled_from(_CLASS_DEGREES), min_size=1, max_size=5))
    one_d = draw(st.booleans())
    reps = 1 if one_d else draw(st.integers(1, 5))
    buckets = cascade._BUCKETS
    theta = np.full((reps, len(degrees) + draw(st.integers(0, 2))), np.nan)
    cols = np.array(draw(st.permutations(range(theta.shape[1])))[: len(degrees)])
    for col, d in zip(cols, degrees):
        table = model.f_table(d).tolist()
        # theta = 0 only reaches the 1-D path, through simulate_cascade
        value = st.one_of(
            st.sampled_from(table),
            st.sampled_from(table).map(lambda t: float(np.nextafter(t, 2.0))),
            st.integers(0, buckets).map(lambda b: b / buckets),
            st.just(1.0),
            st.floats(0.0, 1.0, exclude_min=not one_d),
        )
        theta[:, col] = draw(st.lists(value, min_size=reps, max_size=reps))
    if one_d:
        theta = theta[0]
    # unselected columns stay NaN: reading one would break the comparison
    return model, np.array(degrees), theta, cols


@pytest.mark.parametrize("block", [1, 7, cascade._CLASS_BLOCK])
@given(case=_class_cases())
@example(case=(CascadeModel("ltm"), np.array([5000]), np.array([[0.5001], [1.0]]), np.array([0])))
@example(case=(CascadeModel("scm"), np.array([5000, 0]), np.array([0.0, 0.0]), np.array([0, 1])))
@settings(max_examples=150, deadline=None)
def test_count_classes_match_searchsorted(block, case):
    # a block of 1 or 7 entries maps one row at a time, or leaves a ragged
    # last block
    model, degrees, theta, cols = case
    with mock.patch.object(cascade, "_CLASS_BLOCK", block):
        K = cascade._count_classes(model, degrees, theta, cols)
    expected = _reference_classes(model, degrees, theta[..., cols])
    assert K.dtype == np.int32 and K.shape == expected.shape
    assert np.array_equal(K, expected)


def test_count_classes_memory_is_bounded():
    # the mapping works in blocks of whole repetitions, so beyond K itself
    # its peak holds one block's temporaries, the per-column arrays and the
    # bucket table (about 1.2 MB here), however many repetitions there are
    rng = np.random.default_rng(3)
    degrees = rng.poisson(10, size=10**4)
    model = CascadeModel("icm", p=0.1)
    for reps in (50, 200):
        theta = 1.0 - rng.random((reps, degrees.size))
        tracemalloc.start()
        try:
            K = cascade._count_classes(model, degrees, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - K.nbytes < 2 * 2**20, reps


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


def _closure_masks(A, K, seed_sets):
    # the kernel's infected entries plus the seeds, as (B, reps, nc) masks
    reps, nc = K.shape
    masks = np.zeros((len(seed_sets), reps, nc), dtype=bool)
    masks.ravel()[cascade._closure(A.indptr, A.indices, K, seed_sets)] = True
    for mask, seeds in zip(masks, seed_sets):
        mask[:, list(seeds)] = True
    return masks


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
        infected = _closure_masks(A, K, [seeds])[0]
    expected = _dense_rounds(g, K, seeds)
    assert np.array_equal(infected, expected)
    # no push holds more edge entries than reps * nc plus one degree (a
    # sparse step forced onto every round pushes whole rounds)
    if step != "sparse":
        assert all(c.args[5].sum() < reps * g.n + g.n for c in push.call_args_list)


@st.composite
def _law_cases(draw):
    g, model, reps, seeds, theta_seed = draw(_kernel_cases())
    other = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
    return g, model, reps, seeds, sorted(other), theta_seed


@pytest.mark.parametrize("step", sorted(_STEP_SHARES))
@given(case=_law_cases())
@example(case=(Graph(4, [(0, 1)]), ALL_MODELS[3], 2, [], [], 0))
# leaves 1 and 2 of a star share the center: it starts round two with two
# infected neighbors, which twostep turns into a certain activation
@example(case=(Graph(5, [(0, i) for i in range(1, 5)]), ALL_MODELS[4], 3, [1, 2], [3], 4))
@example(case=(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]), ALL_MODELS[3], 4, [0, 1, 2], [3], 5))
@settings(max_examples=60, deadline=None)
def test_closure_union_law(step, case):
    # with the count classes fixed a cascade is a monotone closure, for every
    # model: closure(S | T) = closure(closure(S) | closure(T)) and
    # closure(closure(S)) = closure(S), in each repetition
    g, model, reps, S, T, theta_seed = case
    theta = 1.0 - np.random.default_rng(theta_seed).random((reps, g.n))
    K = cascade._count_classes(model, g.degrees, theta)
    A = g.csr()

    def close(K, seeds):
        return _closure_masks(A, K, [seeds])[0]

    with mock.patch.object(cascade, "_DENSE_SHARE", _STEP_SHARES[step]):
        cs, ct, cst = close(K, S), close(K, T), close(K, sorted(set(S) | set(T)))
        for r in range(reps):
            row = K[r : r + 1]
            assert np.array_equal(close(row, np.flatnonzero(cs[r] | ct[r]))[0], cst[r])
            assert np.array_equal(close(row, np.flatnonzero(cs[r]))[0], cs[r])
    assert (cs <= cst).all() and (ct <= cst).all()


@st.composite
def _batch_cases(draw):
    g, model, reps, _, theta_seed = draw(_kernel_cases())
    some_set = st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n).map(sorted)
    sets = draw(st.lists(some_set, min_size=1, max_size=6))
    # repeat some sets, so a batch can hold duplicates
    sets += draw(st.lists(st.sampled_from(sets), max_size=2))
    cap = draw(st.integers(1, 3 * reps * g.n))
    return g, model, reps, sets, theta_seed, cap


@pytest.mark.parametrize("step", sorted(_STEP_SHARES))
@given(case=_batch_cases())
@example(case=(Graph(5, [(0, 1), (1, 2)]), ALL_MODELS[0], 3, [[], [0], [], [0, 1, 2, 3, 4]], 0, 2**18))
# a seeded leaf of a 20-vertex star touches the center alone, so alone it
# takes the tested-only round one; the center touches all 19 leaves, which
# puts the batch on the all-entries round one under the shipped share
@example(case=(Graph(20, [(0, i) for i in range(1, 20)]), ALL_MODELS[1], 4, [[1], [0], [1]], 2, 2**18))
@example(case=(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]), ALL_MODELS[3], 3, [[0, 1], [2], [0, 1], []], 3, 18))
@settings(max_examples=80, deadline=None)
def test_batched_kernel_matches_single_runs(step, case):
    # B seed sets run as B * reps rows of one kernel call give each set's own
    # masks and per-repetition totals, whatever the step share and block cap
    g, model, reps, sets, theta_seed, cap = case
    theta = 1.0 - np.random.default_rng(theta_seed).random((reps, g.n))
    K = cascade._count_classes(model, g.degrees, theta)
    A = g.csr()
    with (
        mock.patch.object(cascade, "_DENSE_SHARE", _STEP_SHARES[step]),
        mock.patch.object(cascade, "_CLOSURE_ENTRIES", cap),
        mock.patch.object(cascade, "_closure", wraps=cascade._closure) as kernel,
    ):
        masks = _closure_masks(A, K, sets)
        kernel.reset_mock()
        totals = cascade._totals(A.indptr, A.indices, K, sets)
        blocks = [len(c.args[3]) for c in kernel.call_args_list]
        singles = [_closure_masks(A, K, [seeds])[0] for seeds in sets]
    assert masks.shape == (len(sets), reps, g.n)
    assert totals.dtype == np.int64 and totals.shape == (len(sets), reps)
    for mask, total, single in zip(masks, totals, singles):
        assert np.array_equal(mask, single)
        assert np.array_equal(total, single.sum(axis=1))
    # blocks of whole sets, in order, each within the cap unless it is one set
    assert sum(blocks) == len(sets)
    assert all(b * K.size <= cap or b == 1 for b in blocks)


def test_batches_stay_under_the_entries_cap():
    # 100 reps of a 295-vertex component: 29,500 entries per set, so eight
    # sets fill a block of 2**18 and 25 fresh sets take four kernel calls
    g = gen_gnm(300, 600, seed=5)
    oracle = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(100, 4))
    giant = g.components()[0].tolist()
    assert len(giant) == 295 and cascade._CLOSURE_ENTRIES == 2**18
    sets = [giant[i : i + 3] for i in range(0, 75, 3)]
    with mock.patch.object(cascade, "_closure", wraps=cascade._closure) as kernel:
        got = [repr(est) for est in oracle.sigma_many(sets)]
    shapes = [(len(c.args[3]), c.args[2].shape) for c in kernel.call_args_list]
    assert shapes == [(8, (100, 295))] * 3 + [(1, (100, 295))]
    fresh = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(100, 4))
    assert got == [repr(fresh.sigma(s)) for s in sets]
    # a set whose entries alone pass the cap runs in a block of its own
    with (
        mock.patch.object(cascade, "_CLOSURE_ENTRIES", 1000),
        mock.patch.object(cascade, "_closure", wraps=cascade._closure) as kernel,
    ):
        capped = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(100, 4))
        assert [repr(est) for est in capped.sigma_many(sets)] == got
    assert all(len(c.args[3]) == 1 for c in kernel.call_args_list)


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
    assert sigma_exact(g, CascadeModel("icm", p=0.3), [0]) == pytest.approx(1.3)


def test_exact_star_two_step():
    # center seeded: every leaf joins with prob eps, expected 1 + L*eps
    L = 400
    g = Graph(L + 1, [(0, i) for i in range(1, L + 1)])
    val = sigma_exact(g, CascadeModel("twostep", eps=0.0025), [0])
    assert val == 2.0


def test_exact_triangle_two_step():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    eps = 0.0025
    val = sigma_exact(g, CascadeModel("twostep", eps=eps), [0])
    # second-order term: either neighbor firing makes the other certain
    assert val == pytest.approx(1 + 2 * (1 - (1 - eps) ** 2))


def test_exact_path_ltm():
    # 0-1-2 path, seed the end: deg(1)=2 so f(1)=1/2, then 2 is certain
    g = Graph(3, [(0, 1), (1, 2)])
    val = sigma_exact(g, CascadeModel("ltm"), [0])
    assert val == pytest.approx(1 + 0.5 * 2)


def test_exact_empty_and_full():
    g = gen_gnm(6, 9, seed=2)
    assert sigma_exact(g, CascadeModel("icm", p=0.5), []) == 0.0
    assert sigma_exact(g, CascadeModel("icm", p=0.5), range(6)) == 6.0


def test_exact_additive_over_components():
    g = Graph(4, [(0, 1), (2, 3)])
    m = CascadeModel("icm", p=0.25)
    both = sigma_exact(g, m, [0, 2])
    assert both == pytest.approx(2 * 1.25)


def test_exact_budget_guard():
    g = gen_gnm(24, 60, seed=3)
    with mock.patch.object(ExactOracle, "_BUDGET", 10), pytest.raises(CapacityError):
        sigma_exact(g, CascadeModel("icm", p=0.5), [0])
    # budget 0 explores no state
    with mock.patch.object(ExactOracle, "_BUDGET", 0):
        with pytest.raises(CapacityError, match="exceeded 0 explored states"):
            sigma_exact(g, CascadeModel("icm", p=0.5), [0])
        assert sigma_exact(g, CascadeModel("icm", p=0.5), []) == 0.0


def test_exact_long_path_has_no_depth_limit():
    # one branch point per path vertex, far deeper than Python's recursion
    # limit; the value is 1 + 1/2 + 1/4 + ... rounded to 2.0
    g = Graph(1500, [(i, i + 1) for i in range(1499)])
    assert sigma_exact(g, CascadeModel("icm", p=0.5), [0]) == 2.0


def _exact_memory_after_one_query(n):
    """Bytes the exact oracle still holds after valuing [0] on an n-vertex
    icm:p=0.5 path (about 2n states), counted by tracemalloc."""
    oracle = ExactOracle(Graph(n, [(i, i + 1) for i in range(n - 1)]), CascadeModel("icm", p=0.5))
    tracemalloc.start()
    try:
        oracle.value([0])
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_exact_memory_grows_linearly_on_a_path():
    # A state key holds only the nonzero survived counts, so doubling the
    # path about doubles what the memo keeps; keys holding a full
    # component-length tuple would about quadruple it.
    small, large = _exact_memory_after_one_query(150), _exact_memory_after_one_query(300)
    assert large < 2.5 * small


def test_exact_repeated_set_is_one_memo_hit():
    g = gen_gnm(10, 20, seed=3)
    oracle = ExactOracle(g, CascadeModel("icm", p=0.5))
    first = oracle.sigma([4, 1])
    states = oracle._states
    assert states > 0
    assert repr(oracle.sigma([1, 4])) == repr(first)
    assert oracle._states == states


def test_exact_oracle_freed_without_cycle_collector():
    g = gen_gnm(7, 10, seed=1)
    gc.disable()
    try:
        oracle = ExactOracle(g, CascadeModel("icm", p=0.5))
        oracle.value([0])
        ref = weakref.ref(oracle)
        del oracle
        assert ref() is None
    finally:
        gc.enable()


def _enumerated_sigma(g, model, seeds):
    """Expected infected count as a sum over every count-class assignment:
    K_v = c for c = 1..d with probability f(c) - f(c-1), and K_v = d + 1
    (never) with probability 1 - f(d)."""
    nbrs = [g.neighbors(v).tolist() for v in range(g.n)]
    laws = []
    for v in range(g.n):
        f = [*model.f_table(len(nbrs[v])).tolist(), 1.0]
        laws.append([(c, f[c] - f[c - 1]) for c in range(1, len(f))])
    total = 0.0
    for draw in itertools.product(*laws):
        infected = set(seeds)
        grew = True
        while grew:
            grew = False
            for v in range(g.n):
                if v not in infected and sum(u in infected for u in nbrs[v]) >= draw[v][0]:
                    infected.add(v)
                    grew = True
        total += math.prod(w for _, w in draw) * len(infected)
    return total


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_exact_matches_enumeration(model):
    graphs = [
        Graph(6, [(i, i + 1) for i in range(5)]),
        Graph(6, [(0, i) for i in range(1, 6)]),
        Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        gen_gnm(6, 9, seed=4),
        gen_gnm(5, 6, seed=9),
    ]
    for g in graphs:
        for seeds in ([0], [1, 3], [0, 2, 4]):
            expected = _enumerated_sigma(g, model, seeds)
            assert sigma_exact(g, model, seeds) == pytest.approx(expected, rel=1e-12)


def _exact_dump():
    """One line per query: the value's repr and the oracle's explored-state
    count so far (the memo carries over between queries)."""
    lines = []
    for g in (gen_gnm(7, 10, seed=1), gen_gnm(10, 20, seed=3), gen_worstcase(3).graph):
        for model in ALL_MODELS:
            oracle = ExactOracle(g, model)
            for seeds in ([], [0], [g.n - 1], [0, 4], [1, 2, 3], [0]):
                lines.append(f"{oracle.value(seeds)!r} {oracle._states}")
    return "\n".join(lines)


def test_sigma_exact_pinned():
    # Recorded with the recursive exact oracle: a change of any value's
    # bytes, of the explored-state counts or of where the budget trips
    # fails here.
    digest = hashlib.sha256(_exact_dump().encode()).hexdigest()
    assert digest == _EXACT_PIN
    g, model = gen_gnm(12, 24, seed=4), CascadeModel("icm", p=0.5)
    with mock.patch.object(ExactOracle, "_BUDGET", 3510):
        assert repr(sigma_exact(g, model, [0])) == "9.295737743377686"
    with mock.patch.object(ExactOracle, "_BUDGET", 3509):
        with pytest.raises(CapacityError, match="3509 explored states"):
            sigma_exact(g, model, [0])


_EXACT_PIN = "0cc435ec3bbc6d526756a37c8c32df503a71045464350891901b01abf6c188cb"


def _random_tree(n, seed, chords=0):
    """Each vertex v > 0 joins a random earlier vertex; then `chords` more
    random edges join pairs not yet adjacent."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while chords:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        if (u, v) not in edges:
            edges.add((u, v))
            chords -= 1
    return Graph(n, sorted(edges))


def _double_star(leaves):
    """Adjacent hubs 0 and 1, each with `leaves` degree-1 neighbors."""
    ids = range(2, 2 + 2 * leaves)
    return Graph(2 + 2 * leaves, [(0, 1), *((i % 2, i) for i in ids)])


# Degree-1 vertices in every layout: star centers first and in the middle of
# the ids, random trees with and without chords, hubs that are adjacent, and
# one graph holding a K2 component (each end is the other's only neighbor),
# an isolated vertex and two adjacent hubs with two pendants each.  The
# models put f(1, 1) at 1 (ltm, scm, icm p = 1, twostep eps = 1), at 0
# (icm p = 0, twostep eps = 0) and strictly between.
_PENDANT_GRAPHS = [
    Graph(7, [(0, i) for i in range(1, 7)]),
    Graph(8, [(4, i) for i in range(8) if i != 4]),
    _double_star(4),
    Graph(9, [(0, 1), (3, 4), (3, 5), (3, 6), (6, 7), (6, 8)]),
    *(_random_tree(12, seed) for seed in (1, 2, 3)),
    _random_tree(12, 4, chords=2),
]
_PENDANT_MODELS = [
    *ALL_MODELS,
    CascadeModel("icm", p=1.0),
    CascadeModel("icm", p=0.0),
    CascadeModel("twostep", eps=0.0),
    CascadeModel("twostep", eps=1.0),
]


def _pendant_dump():
    lines = []
    for g in _PENDANT_GRAPHS:
        for model in _PENDANT_MODELS:
            oracle = ExactOracle(g, model)
            for seeds in ([], [0], [1], [g.n - 1], [g.n // 2], [1, g.n - 1], [0, 2, 3], [0]):
                lines.append(f"{oracle.value(seeds)!r} {oracle._states}")
    return "\n".join(lines)


def test_sigma_exact_pendants_pinned():
    # Recorded while every degree-1 vertex still went through the per-vertex
    # scan: settling them in one step per hub keeps each value's bytes and
    # the explored-state counts.
    digest = hashlib.sha256(_pendant_dump().encode()).hexdigest()
    assert digest == _PENDANT_PIN


_PENDANT_PIN = "abbe1939d666d4ea234d014c28fb95391ed84fce70b65ce0d1c7dfd61872b1c8"


@pytest.mark.parametrize("model", _PENDANT_MODELS, ids=lambda m: m.spec)
def test_exact_pendants_match_enumeration(model):
    graphs = [*_PENDANT_GRAPHS[:2], _double_star(2), _PENDANT_GRAPHS[3], _random_tree(7, 5)]
    for g in graphs:
        for seeds in ([0], [1, 3], [g.n - 1]):
            expected = _enumerated_sigma(g, model, seeds)
            assert sigma_exact(g, model, seeds) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_exact_settled_pendants_hold_no_per_leaf_memory():
    # Every leaf of both hubs is settled at once, so the five states' keys
    # hold two masks each, not one survived-count pair per leaf.
    oracle = ExactOracle(_double_star(10**4), CascadeModel("icm", p=0.5))
    tracemalloc.start()
    try:
        assert oracle.value([2]) == 3751.5
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert oracle._states == 5
    assert held < 0.25 * 2**20


def test_exact_structure_shared_per_graph_and_model():
    # the masks and tables are built once per (graph, model); the memo and
    # the explored-state count stay each oracle's own
    g, icm = gen_gnm(12, 20, seed=3), CascadeModel("icm", p=0.5)
    first, second = ExactOracle(g, icm), ExactOracle(g, CascadeModel("icm", p=0.5))
    assert second._comps is first._comps
    assert second._memos is not first._memos
    value = first.value([0, 5])
    assert first._states > 0 and second._states == 0
    assert repr(second.value([0, 5])) == repr(value)
    assert second._states == first._states
    other = ExactOracle(g, CascadeModel("ltm"))
    assert other._comps is not first._comps
    assert list(g._component_index().class_tables) == [("exact", icm), ("exact", CascadeModel("ltm"))]


def test_exact_structure_cache_clears_without_changing_results():
    g = gen_gnm(10, 20, seed=3)
    expected = [repr(sigma_exact(g, model, [0, 7])) for model in ALL_MODELS]
    g = gen_gnm(10, 20, seed=3)
    with mock.patch.object(graph_module, "_TABLE_LIMIT", 2):
        got = []
        for model in ALL_MODELS:
            got.append(repr(sigma_exact(g, model, [0, 7])))
            assert len(g._component_index().class_tables) <= 2
    assert got == expected


@pytest.mark.parametrize(
    "g",
    [*_PENDANT_GRAPHS, Graph(3, []), _double_star(50), gen_worstcase(5).graph, gen_gnm(30, 45, seed=7)],
    ids=lambda g: repr(g),
)
def test_exact_masks_match_reference(g):
    # each core vertex's mask is the sum of its neighbors' bits, and each
    # hub's the sum (an OR) of its pendants' bits; every vertex is in the
    # core or is a pendant of exactly one hub
    index = g._component_index()
    comps = ExactOracle(g, CascadeModel("icm", p=0.5))._comps
    for ci, (core, pend) in enumerate(comps):
        nbrs = [index.indices[ci][lo:hi].tolist() for lo, hi in itertools.pairwise(index.indptr[ci].tolist())]
        leaves = {v for v, ns in enumerate(nbrs) if len(ns) == 1 and len(nbrs[ns[0]]) > 1}
        assert [v for v, *_ in core] == [v for v in range(len(nbrs)) if v not in leaves]
        for v, mask, d, table in core:
            assert mask == sum(1 << c for c in nbrs[v]) and d == len(nbrs[v]) and len(table) == d + 1
        assert dict(pend) == {
            h: sum(1 << v for v in leaves if nbrs[v] == [h])
            for h in sorted({nbrs[v][0] for v in leaves})
        }


# ---------------------------------------------------------------- oracles


def test_mc_matches_exact_on_edge():
    g = Graph(2, [(0, 1)])
    est = sigma_mc(g, CascadeModel("icm", p=0.3), [0], OracleConfig(40000, 9))
    assert est.mean == pytest.approx(1.3, abs=4 * est.stderr)
    assert est.reps == 40000
    assert est.stderr > 0


def test_mc_stderr_formula():
    g = Graph(2, [(0, 1)])
    oracle = MonteCarloOracle(g, CascadeModel("icm", p=0.3), OracleConfig(1000, 9))
    est = oracle.sigma([0])
    totals = 1 + (oracle._theta[:, 1] <= 0.3)
    assert est.mean == pytest.approx(totals.mean())
    assert est.stderr == pytest.approx(totals.std(ddof=1) / math.sqrt(1000))


@pytest.mark.parametrize("mode", [CRN, INDEPENDENT])
@pytest.mark.parametrize("reps", [1, 2, 100, 8193])
def test_batch_answers_match_per_set_formula(monkeypatch, mode, reps):
    # each answer of a batch must carry the exact bytes of its own _totals
    # row's mean and std (one component, so a set's row is the kernel's row)
    rows = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.extend(out.copy())
        return out

    real = cascade._totals
    monkeypatch.setattr(cascade, "_totals", spy)
    g = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)])
    oracle = MonteCarloOracle(g, CascadeModel("icm", p=0.3), OracleConfig(reps, 4, mode))
    sets = [[0], [1, 5], [2, 7, 9], [4, 11]]
    answers = oracle.sigma_many(sets)
    assert len(rows) == len(sets)
    for est, row in zip(answers, rows):
        assert est.mean == float(row.mean())
        if reps == 1:
            assert est.stderr == 0.0
        else:
            assert est.stderr == float(row.std(ddof=1) / math.sqrt(reps))
        assert est.reps == reps


def test_mc_single_rep_has_zero_stderr():
    g = Graph(2, [(0, 1)])
    est = sigma_mc(g, CascadeModel("icm", p=0.3), [0], OracleConfig(1, 9))
    assert est.stderr == 0.0


def test_crn_is_deterministic():
    g = gen_gnm(15, 30, seed=4)
    m = CascadeModel("icm", p=0.2)
    a = sigma_mc(g, m, [0, 5], OracleConfig(500, 77))
    b = sigma_mc(g, m, [0, 5], OracleConfig(500, 77))
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_crn_shared_across_queries():
    # same oracle instance: repeated query is bit-identical, and disjoint
    # component contributions add exactly
    g = Graph(4, [(0, 1), (2, 3)])
    oracle = MonteCarloOracle(g, CascadeModel("icm", p=0.4), OracleConfig(2000, 5))
    ab = oracle.sigma([0, 2]).mean
    a = oracle.sigma([0]).mean
    b = oracle.sigma([2]).mean
    assert ab == a + b


def test_independent_mode_differs_from_crn():
    g = gen_gnm(15, 30, seed=4)
    m = CascadeModel("icm", p=0.2)
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
    m = CascadeModel("dicm", p=0.4, q=0.3)
    oracle = MonteCarloOracle(g, m, OracleConfig(64, 13))
    est = oracle.sigma([1, 4])
    sizes = [
        len(simulate_cascade(g, m, {1, 4}, oracle._theta[r]))
        for r in range(64)
    ]
    assert est.mean == pytest.approx(np.mean(sizes))


def test_oracle_call_counter():
    g = Graph(3, [(0, 1), (1, 2)])
    oracle = MonteCarloOracle(g, CascadeModel("ltm"), OracleConfig(10, 1))
    assert oracle.calls == 0
    oracle.sigma([0])
    oracle.sigma([0])
    assert oracle.calls == 2


def test_exact_oracle_counts_and_reps_zero():
    g = Graph(3, [(0, 1), (1, 2)])
    oracle = ExactOracle(g, CascadeModel("ltm"))
    est = oracle.sigma([0])
    assert est.reps == 0
    assert est.stderr == 0.0
    assert oracle.calls == 1


@pytest.mark.parametrize(
    "query",
    [
        lambda g: MonteCarloOracle(g, CascadeModel("ltm"), OracleConfig(5, 1)).sigma,
        lambda g: MonteCarloOracle(g, CascadeModel("ltm"), OracleConfig(5, 1, INDEPENDENT)).sigma,
        lambda g: ExactOracle(g, CascadeModel("ltm")).value,
        lambda g: ExactOracle(g, CascadeModel("ltm")).sigma,
    ],
    ids=["mc-crn", "mc-independent", "exact-value", "exact-sigma"],
)
def test_oracles_reject_seed_outside_graph(query):
    ask = query(Graph(4, [(0, 1)]))
    for seeds in ([4], [0, -1], [2, 9]):
        with pytest.raises(ValueError, match="seed outside"):
            ask(seeds)


@pytest.mark.parametrize(
    "query",
    [
        lambda g, seeds: sigma_mc(g, CascadeModel("ltm"), seeds, OracleConfig(5, 1)),
        lambda g, seeds: sigma_mc(g, CascadeModel("ltm"), seeds, OracleConfig(5, 1, INDEPENDENT)),
        lambda g, seeds: sigma_exact(g, CascadeModel("ltm"), seeds),
        lambda g, seeds: simulate_cascade(g, CascadeModel("ltm"), seeds, np.ones(g.n)),
    ],
    ids=["mc-crn", "mc-independent", "exact", "simulate"],
)
def test_seed_ids_must_be_integers(query):
    # ids go through operator.index: 1.5 and "1" are refused, not read as 1
    g = Graph(4, [(0, 1), (1, 2)])
    for seeds in ([1.5], ["1"], [0, 1.0], [None]):
        with pytest.raises(ValueError, match="not an integer"):
            query(g, seeds)
    assert query(g, [np.int64(1), np.int32(2)]) == query(g, [1, 2])


def test_mc_answer_memo_serves_repeats():
    g = gen_gnm(30, 50, seed=3)
    oracle = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(40, 11))
    first = oracle.sigma([4, 9, 17])
    with (
        mock.patch.object(oracle._index, "split", wraps=oracle._index.split) as split,
        mock.patch.object(cascade, "_closure", wraps=cascade._closure) as closure,
    ):
        forms = [
            [17, 4, 9],
            (9, 17, 4, 9),
            frozenset({4, 9, 17}),
            np.array([4, 9, 17]),
            [np.int64(4), np.int32(9), 17],
            iter([9, 4, 17]),
            (v for v in (4, 17, 9)),
        ]
        again = [oracle.sigma(seeds) for seeds in forms]
    assert split.call_count == 0 and closure.call_count == 0
    assert {repr(est) for est in again} == {repr(first)}
    assert oracle.calls == 1 + len(forms)
    assert len(oracle._answers) == 1
    # 4.0 == 4 as a set member, but a float id is refused, memo or not
    with pytest.raises(ValueError, match="not an integer"):
        oracle.sigma([4.0, 9, 17])


def test_mc_answer_memo_clears_without_changing_results():
    g = gen_gnm(30, 50, seed=3)
    model, cfg = CascadeModel("dicm", p=0.4, q=0.3), OracleConfig(40, 11)
    sets = [[0], [1, 2], [3, 4, 5], [0], [6], [1, 2], [3, 4, 5]]
    expected = [repr(MonteCarloOracle(g, model, cfg).sigma(s)) for s in sets]
    with mock.patch.object(MonteCarloOracle, "_MEMO_LIMIT", 2):
        oracle = MonteCarloOracle(g, model, cfg)
        got = []
        for s in sets:
            got.append(repr(oracle.sigma(s)))
            assert len(oracle._answers) <= 2 and len(oracle._memo) <= 2
    assert got == expected
    assert oracle.calls == len(sets)


def _batch_graph():
    # 18 components, the largest of 28 vertices, plus isolated vertices
    g = gen_gnm(60, 45, seed=2)
    assert len(g.components()) > 10
    return g


_BATCH = [[0, 5], [1], [], [0, 5], [2, 30, 47], [5, 0], [59], [3, 4, 6, 7, 8, 9], [1], [47, 30, 2]]


@pytest.mark.parametrize("mode", [CRN, INDEPENDENT])
def test_sigma_many_answers_as_sigma_does(mode):
    g, model = _batch_graph(), CascadeModel("dicm", p=0.4, q=0.3)
    cfg = OracleConfig(30, 9, mode)
    single = MonteCarloOracle(g, model, cfg)
    expected = [repr(single.sigma(s)) for s in _BATCH]
    batched = MonteCarloOracle(g, model, cfg)
    assert [repr(est) for est in batched.sigma_many(_BATCH)] == expected
    assert batched.calls == single.calls == len(_BATCH)
    # the other way round: sets answered one by one first, then a batch
    # that mixes those earlier hits with fresh sets and repeats
    mixed = MonteCarloOracle(g, model, cfg)
    head = [repr(mixed.sigma(s)) for s in _BATCH[:4]]
    tail = [repr(est) for est in mixed.sigma_many(_BATCH[::-1])]
    assert head == expected[:4] and tail == expected[::-1]
    assert mixed.calls == 4 + len(_BATCH)
    assert mixed.sigma_many([]) == [] and mixed.calls == 4 + len(_BATCH)


def test_sigma_many_runs_each_component_once():
    g = _batch_graph()
    oracle = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(30, 9))
    oracle.sigma([1])
    # one kernel call per component with a pair not cached: [1] was answered
    split = g._component_index().split
    pending = {ci for s in _BATCH for ci, cols in split(s) if (ci, cols) not in oracle._memo}
    assert 1 < len(pending) < len({ci for s in _BATCH for ci, _ in split(s)})
    with mock.patch.object(cascade, "_closure", wraps=cascade._closure) as kernel:
        oracle.sigma_many(_BATCH)
        assert kernel.call_count == len(pending)
        kernel.reset_mock()
        oracle.sigma_many(_BATCH)
        assert kernel.call_count == 0


@pytest.mark.parametrize("mode", [CRN, INDEPENDENT])
def test_fresh_set_is_split_once(mode):
    g, cfg = _batch_graph(), OracleConfig(30, 9, mode)
    index = g._component_index()
    with mock.patch.object(index, "split", wraps=index.split) as split:
        oracle = MonteCarloOracle(g, CascadeModel("scm"), cfg)
        oracle.sigma([2, 30, 47])
        assert split.call_count == 1
        oracle.sigma([47, 2, 30])
        assert split.call_count == 1
        split.reset_mock()
        fresh = MonteCarloOracle(g, CascadeModel("scm"), cfg)
        fresh.sigma_many(_BATCH)
        assert split.call_count == len({frozenset(s) for s in _BATCH})


def test_sigma_many_with_a_tiny_memo():
    g, model, cfg = _batch_graph(), CascadeModel("scm"), OracleConfig(30, 9)
    expected = [repr(MonteCarloOracle(g, model, cfg).sigma(s)) for s in _BATCH]
    with mock.patch.object(MonteCarloOracle, "_MEMO_LIMIT", 3):
        oracle = MonteCarloOracle(g, model, cfg)
        for _ in range(2):
            assert [repr(est) for est in oracle.sigma_many(_BATCH)] == expected
            assert len(oracle._answers) <= 3 and len(oracle._memo) <= 3
    assert oracle.calls == 2 * len(_BATCH)


def test_exact_sigma_many_loops_sigma():
    g, model = _batch_graph(), CascadeModel("icm", p=0.4)
    single = ExactOracle(g, model)
    expected = [single.sigma(s) for s in _BATCH]
    batched = ExactOracle(g, model)
    assert batched.sigma_many(_BATCH) == expected
    assert batched.calls == len(_BATCH)


@pytest.mark.parametrize("mode", [CRN, INDEPENDENT])
def test_sigma_many_checks_each_id_once(mode):
    g = _batch_graph()
    oracle = MonteCarloOracle(g, CascadeModel("scm"), OracleConfig(30, 9, mode))
    with mock.patch("infmax.graph._integer", wraps=_integer) as check:
        oracle.sigma_many(_BATCH)
    assert check.call_count == sum(len(s) for s in _BATCH)


def test_checked_seed_key_is_not_checked_again():
    g = _batch_graph()
    key = _seed_key([2, 30, 47, 30], g.n)
    assert type(key) is _SeedKey and key == {2, 30, 47}
    with mock.patch("infmax.graph._integer", side_effect=AssertionError("checked again")):
        assert _seed_key(key, g.n) is key
        assert g._component_index().split(key) == g._component_index().split([2, 30, 47])
    # a plain frozenset is no checked key
    for bad, message in ((frozenset({2, 60}), "seed outside"), (frozenset({1.5}), "not an integer")):
        with pytest.raises(ValueError, match=message):
            _seed_key(bad, g.n)


@pytest.mark.parametrize(
    "oracle",
    [
        lambda g: MonteCarloOracle(g, CascadeModel("ltm"), OracleConfig(5, 1)),
        lambda g: MonteCarloOracle(g, CascadeModel("ltm"), OracleConfig(5, 1, INDEPENDENT)),
        lambda g: ExactOracle(g, CascadeModel("ltm")),
    ],
    ids=["mc-crn", "mc-independent", "exact"],
)
def test_sigma_many_rejects_bad_ids(oracle):
    ask = oracle(_batch_graph()).sigma_many
    for bad in ([0, 1.5], [True], [60], [-1]):
        with pytest.raises(ValueError, match="not an integer|seed outside"):
            ask([[0], bad, [1]])


def test_bool_seed_ids_are_refused():
    # True is not read as vertex 1
    g, model = Graph(3, [(0, 1)]), CascadeModel("icm", p=1.0)
    for seeds in ([True], [0, False], [np.True_]):
        with pytest.raises(ValueError, match="not an integer"):
            sigma_exact(g, model, seeds)
        with pytest.raises(ValueError, match="not an integer"):
            sigma_mc(g, model, seeds, OracleConfig(5, 1))
        with pytest.raises(ValueError, match="not an integer"):
            simulate_cascade(g, model, seeds, np.ones(3))


def test_class_table_cached_per_model():
    # one table per model over the graph's distinct degrees, shared by all
    # components and all oracles on the graph; K equals a per-component build
    g = gen_gnm(60, 30, seed=4)
    index = g._component_index()
    assert len(index.members) > 20
    cfg = OracleConfig(30, 5)
    icm = CascadeModel("icm", p=0.4)
    for model in (icm, CascadeModel("icm", p=0.4), CascadeModel("ltm")):
        oracle = MonteCarloOracle(g, model, cfg)
        oracle.sigma(range(g.n))
        for ci in range(len(index.members)):
            expected = cascade._count_classes(model, index.degrees[ci], oracle._theta, index.members[ci])
            assert np.array_equal(oracle._crn_classes[ci], expected)
    assert list(index.class_tables) == [icm, CascadeModel("ltm")]


def test_class_table_cache_clears_without_changing_results():
    g = gen_gnm(40, 60, seed=12)
    cfg = OracleConfig(50, 3, INDEPENDENT)
    expected = [repr(sigma_mc(g, model, [0, 7, 13], cfg)) for model in ALL_MODELS]
    g = gen_gnm(40, 60, seed=12)
    with mock.patch.object(graph_module, "_TABLE_LIMIT", 2):
        got = []
        for model in ALL_MODELS:
            got.append(repr(sigma_mc(g, model, [0, 7, 13], cfg)))
            assert len(g._component_index().class_tables) <= 2
    assert got == expected


def test_config_rejects_non_integers():
    for reps, master_seed in ((2.5, 1), (True, 1), ("10", 1), (10, 1.5), (10, False), (10, "1"), (10.0, 1)):
        with pytest.raises(ValueError, match="not an integer"):
            OracleConfig(reps, master_seed)
    # numpy integers are accepted and stored as int, so the seed mixing works
    cfg = OracleConfig(np.int64(10), np.uint32(7))
    assert cfg == OracleConfig(10, 7) and type(cfg.master_seed) is int
    g, model = Graph(2, [(0, 1)]), CascadeModel("icm", p=0.5)
    assert sigma_mc(g, model, [0], cfg) == sigma_mc(g, model, [0], OracleConfig(10, 7))


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
