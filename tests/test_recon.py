import collections
import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from grf_tomo import (
    DegenerateProjectionError,
    Kernel,
    NoiseModel,
    ReconstructionPlan,
    density_mismatch,
    gaussian_on_bins,
    histogram_density,
    histogram_density_2d,
    load_config,
)
from grf_tomo import noise, recon
from grf_tomo.config import preset_path
from grf_tomo.recon import _BATCH, _SCALE_EXP, _default_range, streaming_moments
from conftest import (
    CENTER,
    DELTA_S,
    EPS,
    N_VIEWS,
    OFFSET_A,
    OFFSET_B,
    detector_response,
    reconstruct_point,
    reconstruct_with_field,
    with_overrides,
)


def load_preset(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # the preset's smoothness note
        return load_config(preset_path(name))


def ci_plan(seed):
    """Reconstruction plan for the ``ci.json`` points at the given seed."""
    cfg = with_overrides(load_preset("ci"), seed=seed)
    points = cfg.center + cfg.eps * cfg.offsets
    return ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise, points)


def widen_footprints(monkeypatch, margin):
    """Add ``margin`` detector indices on each side of every footprint window.

    The added sites carry zero weight and never enter the reduction, so
    plans built while this patch holds must reconstruct the same bits.
    """
    tight = recon._footprint_bounds

    def padded(coord, support):
        lo, hi = tight(coord, support)
        return lo - margin, hi + margin

    monkeypatch.setattr(recon, "_footprint_bounds", padded)


# sha256 of reconstruct(arange(1000), threads=2) for the ci.json points, taken
# from the unblocked batch kernel; a change to the kernel must keep them
GOLDEN_DIGESTS = {
    0: "744feb7dbd2d3461b80237d72d5accb1252e9a15dda8de013218f162ae483fe5",
    20240601: "ef355fe0349e5636be64ae8767e7c6af3dc56e53c63bc733fac1e94dc1104ff9",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_golden_reconstruct_digests(seed):
    out = ci_plan(seed).reconstruct(np.arange(1000), threads=2)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_DIGESTS[seed]


# sha256 of exact_covariance() for the ci.json points, taken from the per-point
# plan lists.  Margin 2 adds zero-weight sites and keeps the bytes; the matmul
# runs over every site, so margin 3 moves the last bits through its blocking
GOLDEN_COVARIANCE = "6d806221c7693129f45d994036476be088133b726f1c9d7acff30ed808dae062"


@pytest.mark.parametrize("margin", [0, 2])
def test_golden_exact_covariance_digest(monkeypatch, margin):
    widen_footprints(monkeypatch, margin)
    cov = ci_plan(20240601).exact_covariance()
    assert hashlib.sha256(cov.tobytes()).hexdigest() == GOLDEN_COVARIANCE


# sha256 of each plan table for the ci.json points, taken while the plan
# stored site_j, site_k1 and site_k2 as arrays and _term_site as int64
GOLDEN_PLAN = {
    "site_j": "01a0e2a5b63c7366d077d06d4ec104e60ab04e18e0300b72f160f2c4f5d4f0de",
    "site_k1": "cff2b0e9231d13a877491667e36f0745f7da6d686e06602f2ad3397e3774b6b1",
    "site_k2": "1f12f62d89b7f0203b121fb946f468afd89f1e1ace0b5a62e10364cda0ea49de",
    "_site_keys": "401e86c635eb683bc058a5d622464787fefdfa379b7a0ed33806ecf2d5f07461",
    "_site_amp": "0d6c26c1dd84922a70f031cc06268f95143e701fe8fcd614f356442043cf11ed",
    "_term_site": "8296f1bd7b7dd3a320095584c57b7097bb252f48ac15fcc334a55ce08bfaaa0f",
    "_term_weight": "c7dfe5a7bba0bb15cedd467e287b40f2fee3516d360518bb9471d476a849a2b1",
    "_offsets": "0b1dcbb2f9d45b5d731154905a6f063a450c8f25591470e6e61756df87ba1b51",
}


def point_terms(index, gather, segments, block, n_points):
    """Each point's sites and weights, and its term count in each block, read
    back from a gather table.

    Checks on the way that the segments tile the table block by block and,
    within a block, point by point, and that each head row holds
    ``block + l`` with weight 1.0.
    """
    sites = [[np.empty(0, np.int64)] for _ in range(n_points)]
    weights = [[np.empty(0)] for _ in range(n_points)]
    sizes = np.zeros((n_points, len(segments)), dtype=np.int64)
    row = 0
    for b, block_segments in enumerate(segments):
        for l, a, stop in block_segments:
            assert a == row and stop > a + 1 and sizes[l:, b].sum() == 0
            assert index[a] == block + l and gather[a] == 1.0
            sites[l].append(b * block + index[a + 1:stop].astype(np.int64))
            weights[l].append(gather[a + 1:stop])
            sizes[l, b] = stop - a - 1
            row = stop
    assert row == index.size == gather.size
    return list(map(np.concatenate, sites)), list(map(np.concatenate, weights)), sizes


def point_major_tables(plan):
    """``_term_site``, ``_term_weight`` and ``_offsets`` rebuilt from the gather table.

    The plan used to store its terms by point, then site: point l's terms in
    site block b were the rows ``_offsets[l, b]:_offsets[l, b + 1]``.
    """
    n_points = len(plan.points)
    sites, weights, sizes = point_terms(plan._gather_site, plan._gather_weight,
                                        plan._segments, plan._block, n_points)
    # each point's running count of terms, after those of the points before it
    offsets = np.cumsum(np.hstack([np.zeros((n_points, 1), np.int64), sizes]), axis=1)
    offsets += np.append(0, np.cumsum(sizes.sum(axis=1)))[:-1, None]
    return {"_term_site": np.concatenate(sites), "_term_weight": np.concatenate(weights),
            "_offsets": offsets}


@st.composite
def point_major_terms(draw):
    """1-5 points' ascending int32 sites (some points may have none) with
    weights, the site count, and a block size of 1, 7, the site count or one
    more than it."""
    n_sites = draw(st.integers(1, 40))
    sites = [np.array(sorted(own), dtype=np.int32) for own in draw(
        st.lists(st.sets(st.integers(0, n_sites - 1)), min_size=1, max_size=5))]
    weights = [np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=own.size, max_size=own.size)), dtype=float)
               for own in sites]
    return sites, weights, n_sites, draw(st.sampled_from([1, 7, n_sites, n_sites + 1]))


@settings(max_examples=200, deadline=None)
@given(case=point_major_terms())
def test_gather_table_gives_back_every_points_terms(case):
    # the paper plan behind GOLDEN_PLAN has no point without terms and no
    # block without segments; these tables have both
    sites, weights, n_sites, block = case
    index, gather, segments = recon._gather_table(
        np.concatenate(sites), np.concatenate(weights), [own.size for own in sites],
        n_sites, block)
    assert index.dtype == np.int32 and len(segments) == -(-n_sites // block)
    back_sites, back_weights, _ = point_terms(index, gather, segments, block, len(sites))
    for own, back in zip(sites, back_sites):
        assert back.tolist() == own.tolist()
    for own, back in zip(weights, back_weights):
        assert back.tobytes() == own.tobytes()


def test_golden_plan_tables():
    # the plan stores each site's key after the finalizer's first round and
    # its amplitude times 2^-52, both exact images of the tables digested
    plan = ci_plan(20240601)
    tables = point_major_tables(plan)
    tables["_site_keys"] = noise.site_keys(plan.site_j, plan.site_k1, plan.site_k2)
    assert plan._site_round.tobytes() == noise.first_round(tables["_site_keys"]).tobytes()
    tables["_site_amp"] = plan._site_scale * 2.0**52
    tables.update((name, getattr(plan, name)) for name in GOLDEN_PLAN if name not in tables)
    digests = {name: hashlib.sha256(table.tobytes()).hexdigest()
               for name, table in tables.items()}
    assert digests == GOLDEN_PLAN


@pytest.mark.parametrize("refine,bound", [(1, 1.40), (4, 1.35)], ids=["eps", "eps/4"])
def test_plan_build_holds_little_beyond_its_tables(refine, bound):
    # the paper points at eps / refine with 500 * refine views: 46,226 sites
    # (tables 1.99 MB) and 184,367 (7.97 MB).  This build's traced peak is at
    # most 1.36 and 1.26 times its tables.  Each bound fails a build that holds
    # its temporaries longer: every (L, views, m1, m2) window kept to the
    # end read 2.8 times at eps/4, windows built point by point 1.89 times,
    # and draw inputs made in chunks of 65,536 sites 2.72 times at eps and
    # 1.64 times at eps/4.  The kernel is built first, so that its one-time
    # numpy.polynomial import (0.7 MB) is not counted when this test runs
    # first in its process
    cfg = load_preset("paper")
    eps = cfg.eps / refine
    noise_model = NoiseModel(eps=eps, n_views=500 * refine, seed=cfg.seed)
    points = cfg.center + eps * cfg.offsets
    kernel = Kernel(cfg.kernel)
    tracemalloc.start()
    try:
        plan = ReconstructionPlan(cfg.geometry, kernel, noise_model, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = {name: a for name, a in vars(plan).items() if isinstance(a, np.ndarray)}
    # a view would keep its whole base alive: np.nonzero(mask)[0] is a
    # stride-32 column of a (terms x 4) array
    assert [name for name, a in tables.items() if a.base is not None] == []
    assert peak < bound * sum(a.nbytes for a in tables.values())


def test_site_chunk_does_not_change_bits(monkeypatch):
    # GOLDEN_PLAN pins the draw inputs of the default chunk only; 23113
    # splits the 46,226 sites into two equal chunks, n_sites + 1 makes one
    reference = ci_plan(20240601)
    for chunk in (7, 23113, reference.n_sites + 1):
        monkeypatch.setattr(recon, "_SITE_CHUNK", chunk)
        plan = ci_plan(20240601)
        assert plan._site_round.tobytes() == reference._site_round.tobytes(), chunk
        assert plan._site_scale.tobytes() == reference._site_scale.tobytes(), chunk


def test_view_count_beyond_packing_range_fails_before_projection():
    # a site packs its view index as j << 42 in an int64, which wraps at
    # j = 2^21, so 2^21 views is the most a plan takes.  A library caller's
    # NoiseModel does not pass the schema, so the plan checks it first
    class Unprojected:
        def project(self, *args):
            raise AssertionError("the plan projected the points")

    cfg = load_preset("ci")
    noise_model = NoiseModel(eps=cfg.eps, n_views=2**21 + 1, seed=cfg.seed)
    with pytest.raises(ValueError, match="n_views"):
        ReconstructionPlan(Unprojected(), cfg.kernel, noise_model, cfg.points)
    assert recon._unpack(np.int64(2**21 - 1) << 42)[0] == 2**21 - 1


def test_plan_refuses_an_inadmissible_point():
    # the plan applies the geometry's rule, as CovariancePredictor does; at
    # (9.5, 0, 0.8), beyond 0.9 R, it used to build 24,500 sites
    cfg = load_preset("ci")
    with pytest.raises(DegenerateProjectionError, match="point 1 at cylinder radius 9.5 "):
        ReconstructionPlan(cfg.geometry, cfg.kernel, cfg.noise, [cfg.center, [9.5, 0.0, 0.8]])


def test_site_block_does_not_change_bits(monkeypatch):
    # 23113 splits the 46,226 sites into two equal blocks, 46227 into one
    r = np.arange(40)
    reference = ci_plan(20240601).reconstruct(r, threads=2)
    for block in (7, 23113, 46227):
        monkeypatch.setattr(recon, "_SITE_BLOCK", block)
        out = ci_plan(20240601).reconstruct(r, threads=2)
        assert out.tobytes() == reference.tobytes(), block


def test_worker_error_reaches_the_caller(monkeypatch):
    # a batch that fails in a worker thread fails the call, and every worker
    # has ended by the time it returns
    plan = ci_plan(0)
    run_batch = ReconstructionPlan._run_batch

    def failing(self, realizations, *buffers):
        if realizations[0] == 2 * _BATCH:
            raise FloatingPointError("batch 2")
        return run_batch(self, realizations, *buffers)

    monkeypatch.setattr(ReconstructionPlan, "_run_batch", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="batch 2"):
        plan.reconstruct(np.arange(5 * _BATCH), threads=2)
    assert threading.active_count() == before


def test_interrupt_stops_every_worker_after_its_batch(monkeypatch):
    # an interrupt of the waiting caller, raised here by its first join, stops
    # each worker after the batch it is in, and the call re-raises it only
    # once every worker has ended.  Each worker holds its first batch until
    # the caller joins again, after it has recorded the interrupt
    plan = ci_plan(0)
    run_batch, join = ReconstructionPlan._run_batch, threading.Thread.join
    release = threading.Event()
    batches, interrupted = collections.Counter(), []

    def held(self, batch, *buffers):
        batches[threading.get_ident()] += 1
        release.wait(timeout=30)
        return run_batch(self, batch, *buffers)

    def interrupting_join(self, timeout=None):
        if not interrupted:
            interrupted.append(self)
            raise KeyboardInterrupt
        release.set()
        return join(self, timeout)

    monkeypatch.setattr(ReconstructionPlan, "_run_batch", held)
    monkeypatch.setattr(threading.Thread, "join", interrupting_join)
    before = threading.active_count()
    try:
        with pytest.raises(KeyboardInterrupt):
            plan.reconstruct(np.arange(8 * _BATCH), threads=2)
        assert threading.active_count() == before
    finally:
        release.set()
    # each worker has 4 batches; it ran the one it was in and no other
    assert len(batches) <= 2 and max(batches.values(), default=0) <= 1


def test_batch_working_set_is_bounded():
    # the kernel works in fixed site blocks, so its buffers do not grow with
    # the site count (46,226 here); unblocked, the peak was 69 MB
    plan = ci_plan(20240601)
    tracemalloc.start()
    try:
        plan.reconstruct(np.arange(256), threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class TestDetectorResponse:
    def test_zero_outside_row_support(self, geometry, kernel):
        u, v = geometry.project(CENTER, 0.0)
        val = detector_response(geometry, kernel, EPS, CENTER, 0.0,
                                u + 3.6 * EPS, v)
        assert val == 0.0
        assert detector_response(geometry, kernel, EPS, CENTER, 0.0,
                                 u, v + 4.0 * EPS) == 0.0

    def test_centered_value(self, geometry, kernel):
        u, v = geometry.project(CENTER, 1.0)
        val = detector_response(geometry, kernel, EPS, CENTER, 1.0, u, v)
        assert_allclose(EPS**2 * val,
                        kernel.second_derivative(0.0) * kernel.value(0.0),
                        rtol=1e-14)


class TestReconstructWithField:
    def test_zero_field_gives_zero(self, geometry, kernel):
        out = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS,
                                     CENTER, lambda j, k1, k2: np.zeros(np.broadcast_shapes(np.shape(k1), np.shape(k2))))
        assert out == 0.0

    def test_single_impulse_matches_response(self, geometry, kernel):
        ustar, vstar = geometry.project(CENTER, 17 * DELTA_S)
        kstar1 = int(np.round(ustar / EPS)) + 1
        kstar2 = int(np.round(vstar / EPS)) - 2
        strength = 0.37

        def impulse(j, k1, k2):
            return np.where((j == 17) & (k1 == kstar1) & (k2 == kstar2),
                            strength, 0.0)

        out = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS,
                                     CENTER, impulse)
        expected = DELTA_S * strength * detector_response(
            geometry, kernel, EPS, CENTER, 17 * DELTA_S,
            EPS * kstar1, EPS * kstar2)
        assert_allclose(out, expected, rtol=1e-12)

    def test_linear_in_the_field(self, geometry, kernel, noise_model):
        field_a = lambda j, k1, k2: noise_model.sample(0, j, k1, k2)
        field_b = lambda j, k1, k2: noise_model.sample(1, j, k1, k2)
        field_sum = lambda j, k1, k2: field_a(j, k1, k2) + field_b(j, k1, k2)
        ra = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, field_a)
        rb = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, field_b)
        rsum = reconstruct_with_field(geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER, field_sum)
        assert_allclose(rsum, ra + rb, rtol=1e-10)


class TestPlan:
    def test_matches_field_reconstruction(self, geometry, kernel, noise_model):
        direct = reconstruct_with_field(
            geometry, kernel, EPS, DELTA_S, N_VIEWS, CENTER,
            lambda j, k1, k2: noise_model.sample(4, j, k1, k2))
        hashed = reconstruct_point(geometry, kernel, noise_model, 4, CENTER)
        assert_allclose(hashed, direct, rtol=1e-11)

    def test_thread_count_does_not_change_bits(self, geometry, kernel, noise_model):
        plan = ReconstructionPlan(geometry, kernel, noise_model,
                                  [CENTER, CENTER + EPS * OFFSET_A])
        r = np.arange(100)
        single = plan.reconstruct(r, threads=1)
        multi = plan.reconstruct(r, threads=7)
        assert np.array_equal(single, multi)

    def test_workers_take_each_batch_once(self, geometry, kernel, noise_model):
        # more workers than cores take every sixth batch apiece while the
        # interpreter switches threads as often as it can; a batch taken
        # twice or lost leaves rows that differ from the one-thread run
        plan = ReconstructionPlan(geometry, kernel, noise_model, [CENTER])
        r = np.arange(9 * _BATCH + 5)
        reference = plan.reconstruct(r, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = plan.reconstruct(r, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert out.tobytes() == reference.tobytes()

    def test_window_margin_does_not_change_bits(self, geometry, kernel, noise_model,
                                                monkeypatch):
        points = [CENTER, CENTER + EPS * OFFSET_B]
        tight = ReconstructionPlan(geometry, kernel, noise_model, points)
        widen_footprints(monkeypatch, 3)
        padded = ReconstructionPlan(geometry, kernel, noise_model, points)
        r = np.arange(50)
        assert padded.n_sites > tight.n_sites
        assert np.array_equal(tight.reconstruct(r), padded.reconstruct(r))

    def test_batch_of_one_keeps_bits(self, geometry, kernel, noise_model):
        plan = ReconstructionPlan(geometry, kernel, noise_model,
                                  [CENTER, CENTER + EPS * OFFSET_A])
        full = plan.reconstruct(np.arange(_BATCH + 1))
        assert np.array_equal(plan.reconstruct([5]), full[5:6])
        # the last realization of this run fills a batch on its own
        assert np.array_equal(full[_BATCH], plan.reconstruct([_BATCH, 0])[0])

    def test_point_set_does_not_change_bits(self, geometry, kernel, noise_model):
        together = ReconstructionPlan(
            geometry, kernel, noise_model,
            [CENTER + EPS * OFFSET_A, CENTER + EPS * OFFSET_B, CENTER])
        alone = ReconstructionPlan(geometry, kernel, noise_model, [CENTER])
        r = np.arange(40)
        assert np.array_equal(together.reconstruct(r)[:, 2],
                              alone.reconstruct(r)[:, 0])

    def test_doubled_modulation_scales_samples(self, geometry, kernel, monkeypatch):
        model = NoiseModel(eps=EPS, n_views=N_VIEWS, seed=5)
        r = np.arange(64)
        a = ReconstructionPlan(geometry, kernel, model, [CENTER]).reconstruct(r)
        monkeypatch.setattr(noise, "modulation_field", lambda s, u, v: 2.0
                            * (1.0 + 0.5 * np.sin(2 * s))
                            * (1.0 - 0.4 * np.cos(u)) * (1.0 + 0.6 * np.sin(v)))
        b = ReconstructionPlan(geometry, kernel, model, [CENTER]).reconstruct(r)
        assert_allclose(b, 2.0 * a, rtol=1e-12)
        # covariances therefore scale by the square
        assert_allclose(np.var(b, ddof=1), 4.0 * np.var(a, ddof=1), rtol=1e-12)

    def test_site_amplitudes_are_the_noise_models(self):
        plan = ci_plan(20240601)
        amp = plan.noise_model.amplitude(plan.site_j, plan.site_k1, plan.site_k2)
        assert (amp * 2.0**-52).tobytes() == plan._site_scale.tobytes()

    def test_exact_covariance_near_limit_prediction(self, geometry, kernel,
                                                    noise_model):
        # finite-step covariance sits within a few percent of the limit value
        from grf_tomo import CovariancePredictor

        points = [CENTER + EPS * OFFSET_A, CENTER + EPS * OFFSET_B]
        plan = ReconstructionPlan(geometry, kernel, noise_model, points)
        exact = plan.exact_covariance()
        predictor = CovariancePredictor(geometry, kernel, CENTER)
        predicted = predictor.covariance_matrix([OFFSET_A, OFFSET_B])
        mismatch = np.sum(np.abs(exact - predicted)) / np.sum(np.abs(predicted))
        assert mismatch < 0.06

    def test_negative_realization_rejected(self, geometry, kernel, noise_model):
        plan = ReconstructionPlan(geometry, kernel, noise_model, [CENTER])
        with pytest.raises(IndexError):
            plan.reconstruct([-1])

    def test_sample_mean_near_zero(self, geometry, kernel, noise_model):
        plan = ReconstructionPlan(geometry, kernel, noise_model, [CENTER])
        samples = plan.reconstruct(np.arange(4000), threads=4)[:, 0]
        stderr = np.std(samples, ddof=1) / np.sqrt(samples.size)
        assert abs(np.mean(samples)) < 3.0 * stderr

    def test_sample_covariance_approaches_exact(self, geometry, kernel, noise_model):
        points = [CENTER + EPS * OFFSET_A, CENTER + EPS * OFFSET_B, CENTER]
        plan = ReconstructionPlan(geometry, kernel, noise_model, points)
        exact = plan.exact_covariance()
        assert_allclose(exact, exact.T, rtol=0, atol=1e-15)
        n = 3000
        observed = np.cov(plan.reconstruct(np.arange(n), threads=4).T, ddof=1)
        for i in range(3):
            for j in range(3):
                stderr = np.sqrt((exact[i, i] * exact[j, j] + exact[i, j] ** 2)
                                 / (n - 1))
                assert abs(observed[i, j] - exact[i, j]) < 4.5 * stderr


@pytest.fixture(scope="module")
def margin_plans(geometry, kernel, noise_model):
    points = [CENTER + EPS * OFFSET_B, CENTER]
    plans = {}
    for margin in range(4):
        with pytest.MonkeyPatch.context() as monkeypatch:
            widen_footprints(monkeypatch, margin)
            plans[margin] = ReconstructionPlan(geometry, kernel, noise_model, points)
    return plans, plans[0].reconstruct(np.arange(300))


@settings(max_examples=25, deadline=None)
@given(margin=st.integers(0, 3), threads=st.integers(1, 3),
       subset=st.lists(st.integers(0, 299), min_size=1, max_size=140))
def test_plan_invariance(margin_plans, margin, threads, subset):
    # margin, thread count and which other realizations share a batch leave
    # every bit of a realization's reconstruction unchanged
    plans, reference = margin_plans
    out = plans[margin].reconstruct(subset, threads=threads)
    assert np.array_equal(out, reference[subset])


@settings(max_examples=100, deadline=None)
@given(width=st.sampled_from([2, 3, 128]), rows=st.integers(1, 600),
       zeros=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_einsum_term_sum_is_sequential(width, rows, zeros, seed):
    # the batch kernel sums a point's terms with einsum("i,ij->j") of the
    # weights [1.0, *w] against [running sum; draws].  Its bits rest on numpy
    # rounding each product and adding the products of a column one after
    # another in row order; an einsum that fuses multiply-adds or sums in
    # partial accumulators fails here
    rng = np.random.default_rng(seed)

    def values(shape, negative_zeros=True):
        out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
        zero = rng.random(shape) < zeros
        negative = negative_zeros & (rng.random(shape) < 0.5)
        out[zero] = np.where(negative, -0.0, 0.0)[zero]
        return out

    carry = values(width, negative_zeros=False)     # a sum begun at +0.0 is never -0.0
    weight = np.concatenate([[1.0], values(rows)])
    terms = np.vstack([carry, values((rows, width))])
    out = np.empty(width)
    np.einsum("i,ij->j", weight, terms, out=out, optimize=False)
    expected = carry
    for w, row in zip(weight[1:], terms[1:]):
        expected = expected + w * row
    assert out.tobytes() == expected.tobytes()


# sha256 of the count, mean and comoment matrix of a fixed 2,500 x 3 sample,
# which the default chunk merges from three chunks; taken while the chunk size
# was an argument of streaming_moments
GOLDEN_MOMENTS = "ced5f3e6e33fb19a72ce22e7dd4affb90f70cec28dec887aa04ba63840f22425"


class TestStreamingMoments:
    def test_golden_chunk_merge(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(loc=[1.0, -2.0, 0.5], scale=[1.0, 2.0, 0.5], size=(2500, 3))
        count, mean, com = streaming_moments(samples)
        assert count == 2500 > recon._MOMENT_CHUNK
        digest = hashlib.sha256(np.int64(count).tobytes() + mean.tobytes() + com.tobytes())
        assert digest.hexdigest() == GOLDEN_MOMENTS

    def test_matches_two_pass(self, monkeypatch):
        monkeypatch.setattr(recon, "_MOMENT_CHUNK", 256)
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(5003, 3)) @ np.diag([1.0, 2.0, 0.5])
        count, mean, com = streaming_moments(samples)
        assert count == 5003
        assert_allclose(mean, samples.mean(axis=0), rtol=1e-12, atol=1e-14)
        assert_allclose(com / (count - 1), np.cov(samples.T, ddof=1),
                        rtol=1e-10, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=(1000, 2))
        a = streaming_moments(samples)
        b = streaming_moments(samples)
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


class TestHistogram:
    def test_identical_samples_single_bin(self):
        hist = histogram_density(np.full(100, 1.7), bins=21)
        occupied = hist.density > 0
        assert occupied.sum() == 1
        width = hist.edges[0][1] - hist.edges[0][0]
        assert_allclose(hist.density[occupied][0], 1.0 / width, rtol=1e-12)

    def test_density_normalization(self):
        rng = np.random.default_rng(10)
        hist = histogram_density(rng.normal(size=10000), bins=21)
        width = hist.edges[0][1] - hist.edges[0][0]
        assert abs(hist.density.sum() * width - 1.0) < 1e-12

    def test_gaussian_oracle_small_mismatch(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=10**6)
        hist = histogram_density(samples, bins=21)
        pdf = gaussian_on_bins(0.0, 1.0, hist)
        assert density_mismatch(hist.density, pdf) < 0.01

    def test_empty_and_degenerate_inputs(self):
        with pytest.raises(ValueError):
            histogram_density([], bins=21)
        with pytest.raises(ValueError):
            histogram_density([1.0, 2.0], bins=1)

    def test_2d_normalization(self):
        rng = np.random.default_rng(12)
        hist = histogram_density_2d(rng.normal(size=(20000, 2)), bins=21)
        area = (hist.edges[0][1] - hist.edges[0][0]) * (hist.edges[1][1] - hist.edges[1][0])
        assert abs(hist.density.sum() * area - 1.0) < 1e-12


def _reference_range(axis, bins):
    """One axis's range from :func:`_default_range`, mapped back to unscaled units."""
    e = max(np.frexp(np.max(np.abs(axis)))[1] - _SCALE_EXP, 0)
    return tuple(np.ldexp(_default_range(np.ldexp(axis, -e), bins, e), e))


def _reference_density(samples, bins):
    """Reference densities built with ``np.histogram`` and ``np.histogram2d`` directly,
    on the unscaled samples."""
    if samples.ndim == 1:
        counts, edges = np.histogram(samples, bins=bins, range=_reference_range(samples, bins))
        return (edges,), counts / (counts.sum() * (edges[1] - edges[0]))
    counts, ex, ey = np.histogram2d(samples[:, 0], samples[:, 1], bins=bins,
                                    range=(_reference_range(samples[:, 0], bins),
                                           _reference_range(samples[:, 1], bins)))
    area = (ex[1] - ex[0]) * (ey[1] - ey[0])
    return (ex, ey), counts / (counts.sum() * area)


@st.composite
def histogram_samples(draw):
    """Samples of shape (n,) or (n, 2) and a bin count.

    Some samples are constant; some are small integers, which often fall on
    bin edges; and some hold an outlier that the range clips to the mean
    plus or minus 4.5 standard deviations.
    """
    kind = draw(st.sampled_from(["free", "grid", "constant", "outlier"]))
    n = draw(st.integers(30 if kind == "outlier" else 1, 60))
    dims = draw(st.sampled_from([1, 2]))
    if kind == "constant":
        samples = np.full(n * dims, draw(st.sampled_from([0.0, -3.0, 1.7, 1e6])))
    else:
        element = {"grid": st.integers(-8, 8).map(float),
                   "free": st.floats(-1e3, 1e3, allow_nan=False),
                   "outlier": st.floats(-1.0, 1.0, allow_nan=False)}[kind]
        samples = np.array(draw(st.lists(element, min_size=n * dims, max_size=n * dims)))
        if kind == "outlier":
            samples[draw(st.integers(0, samples.size - 1))] = draw(st.sampled_from([-1e3, 1e3]))
    bins = draw(st.integers(2, 17))
    return (samples if dims == 1 else samples.reshape(n, 2)), bins


@settings(max_examples=200, deadline=None)
@given(case=histogram_samples())
# two samples one float apart span too little for distinct bin edges
@example(case=(np.array([-1000.0, np.nextafter(-1000.0, 0.0)]), 2))
@example(case=(np.array([1.7, np.nextafter(1.7, 2.0)]), 2))
# constant samples where 0.5 is below the float spacing, and one whose
# squared deviation from its rounded mean overflowed
@example(case=(np.full(10, 1e17), 2))
@example(case=(np.full(10, 1e17), 21))
@example(case=(np.full(10, -3e16), 5))
@example(case=(np.full(10, 1e300), 21))
# a subnormal beside 1, and a span of one subnormal step: scaled to [0.5, 1),
# the first lost its sign and the second gained bits it has no room for unscaled
@example(case=(np.array([1.0, -5e-324]), 2))
@example(case=(np.array([0.0, 5e-324]), 2))
def test_histogram_matches_numpy_reference(case):
    samples, bins = case
    hist = (histogram_density if samples.ndim == 1 else histogram_density_2d)(samples, bins)
    edges, density = _reference_density(samples, bins)
    assert len(hist.edges) == len(edges)
    for got, want in zip(hist.edges, edges):
        assert got.tobytes() == want.tobytes()
    assert hist.density.shape == density.shape
    assert hist.density.tobytes() == density.tobytes()
    # distinct edges, so every bin has a width and every density is finite
    assert all(np.all(np.diff(e) > 0) for e in hist.edges)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bins", [2, 5, 21])
@pytest.mark.parametrize("samples", [
    np.array([1e308, -1e308]), np.full(10, np.finfo(float).max),
    np.full(10, -np.finfo(float).max), np.full(10, 1e300), np.full(10, 1e17),
    np.full(10, 5e-324), np.full((10, 2), np.finfo(float).max),
    np.array([[1e308, -1e308], [-1e308, 1e308]]), np.full((10, 2), 1e-300),
], ids=["pm-1e308", "max", "minus-max", "1e300", "1e17", "subnormal", "max-2d", "pm-1e308-2d",
        "1e-300-2d"])
def test_histogram_of_extreme_samples(samples, bins):
    # each axis is binned in units of a power of two, so its span, padding,
    # edges and cell volume neither overflow nor warn near the float range
    hist = histogram_density(samples, bins)
    assert all(np.all(np.isfinite(e)) and np.all(np.diff(e) > 0) for e in hist.edges)
    assert np.all(np.isfinite(hist.density))
    # a 2-D cell near the float range has a density below the smallest float
    assert hist.density.any() or samples.ndim == 2


def test_histogram_counts_values_on_edges():
    # -8..8 on 16 bins of width 1: every value but the last lies on a left
    # edge, and the last on the closing edge, which the last bin includes
    samples = np.arange(-8.0, 9.0)
    hist = histogram_density(samples, bins=16)
    assert_allclose(hist.edges[0], np.arange(-8.0, 9.0))
    assert_allclose(hist.density * samples.size, [1.0] * 15 + [2.0], rtol=1e-12)
    edges, density = _reference_density(samples, 16)
    assert hist.density.tobytes() == density.tobytes()


class TestGaussianOnBins:
    def test_standard_normal_center(self):
        hist = histogram_density(np.linspace(-1, 1, 100), bins=21)
        pdf = gaussian_on_bins(0.0, 1.0, hist)
        idx = np.argmin(np.abs(hist.centers[0]))
        center = hist.centers[0][idx]
        assert_allclose(pdf[idx], np.exp(-0.5 * center**2) / np.sqrt(2 * np.pi),
                        rtol=1e-12)

    def test_2d_identity_covariance_origin(self):
        hist = histogram_density_2d(np.random.default_rng(13).normal(size=(1000, 2)),
                                    bins=21)
        pdf = gaussian_on_bins(np.zeros(2), np.eye(2), hist)
        i = np.argmin(np.abs(hist.centers[0]))
        j = np.argmin(np.abs(hist.centers[1]))
        c1, c2 = hist.centers[0][i], hist.centers[1][j]
        expected = np.exp(-0.5 * (c1**2 + c2**2)) / (2 * np.pi)
        assert_allclose(pdf[i, j], expected, rtol=1e-12)

    def test_riemann_sum_normalizes(self):
        hist = histogram_density(np.linspace(-6, 6, 100), bins=200)
        pdf = gaussian_on_bins(0.0, 1.0, hist)
        width = hist.edges[0][1] - hist.edges[0][0]
        assert abs(pdf.sum() * width - 1.0) < 1e-3

    def test_rejects_bad_covariance(self):
        hist = histogram_density(np.linspace(-1, 1, 10), bins=4)
        with pytest.raises(ValueError):
            gaussian_on_bins(0.0, -1.0, hist)
        hist2 = histogram_density_2d(np.random.default_rng(14).normal(size=(100, 2)), bins=4)
        with pytest.raises(ValueError):
            gaussian_on_bins(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), hist2)


class TestDensityMismatch:
    def test_identical_is_zero(self):
        grid = np.array([0.1, 0.5, 0.4])
        assert density_mismatch(grid, grid) == 0.0

    def test_doubling_gives_one(self):
        grid = np.array([0.2, 0.3, 0.5])
        assert_allclose(density_mismatch(2.0 * grid, grid), 1.0, rtol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            density_mismatch(np.zeros(3), np.zeros(4))
