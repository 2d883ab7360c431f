"""Monte Carlo harness: reproducibility, moments, scores, adjustments, estimator."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from blindcrb import simulate
from blindcrb.channel import COMPLEX, REAL, block_toeplitz, commutativity_op, symbol_hankel
from blindcrb.crb import constrained_crb
from blindcrb.fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    deterministic_fim,
    deterministic_reduced_fim,
    gaussian_fim,
)
from blindcrb.linalg import DEFAULT_RANK_TOL, min_norm_solve
from blindcrb.simulate import (
    ADJUST_LIN,
    ADJUST_LS,
    ADJUST_NO,
    DegenerateAdjustmentError,
    ExperimentConfig,
    adjust_estimate,
    alternating_ls_batch,
    draw_noise,
    experiment_symbols,
    mse_vs_crb_experiment,
    score_covariance_fim,
    simulate_burst,
    snr_to_sigma_v2,
    stream_rng,
)

from conftest import channel_with_common_roots, random_burst, random_channel
from oracles import gaussian_real_param_derivs, score_moments_tensor


def _cfg(ch, **kw):
    base = dict(channel=ch, model=DETERMINISTIC, M=6, trials=10, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


def _assert_gaussian_score_rows(S, cfg, trials):
    """Each listed row of the Gaussian score matrix ``S`` is the per-trial
    slab formula on simulate_burst: ``y^H P_a y`` minus its mean, halved when
    real, with ``P_a = C^-1 S_a C^-1`` over the dense slabs ``S_a``."""
    C, slabs = gaussian_real_param_derivs(cfg.channel, cfg.gaussian_config)
    Ci = np.linalg.inv(C)
    P = [Ci @ G @ Ci for G in slabs]
    offset = np.array([np.trace(Ci @ G).real for G in slabs])
    for t in trials:
        y = simulate_burst(cfg, t)
        quad = np.array([np.vdot(y, Pa @ y).real for Pa in P])
        want = (quad - offset) * (1.0 if cfg.field == COMPLEX else 0.5)
        scale = np.linalg.norm(quad) + np.linalg.norm(offset)
        assert np.linalg.norm(S[t] - want) <= 1e-12 * scale


def _scaled(g, scale2, complex_field):
    """The documented scaling of raw normals ``g`` (one row per part) to
    variance ``scale2``: circular when complex, half of it in each part."""
    if complex_field:
        z = g[0] + 1j * g[1]
        z *= np.sqrt(scale2 / 2.0)
        return z
    return np.sqrt(scale2) * g[0]


def _fresh_draw(seed, stream, complex_field, size, scale2=None):
    """The draw of stream ``stream``: the raw normals of a fresh stream_rng,
    one row per part, scaled by :func:`_scaled` when ``scale2`` is given."""
    g = stream_rng(seed, stream).standard_normal((2 if complex_field else 1, size))
    return g if scale2 is None else _scaled(g, scale2, complex_field)


def _check_trial_loop_streams(monkeypatch, field, seed):
    """The trial loops draw through one re-keyed generator, one block of
    trials of one stream purpose at a time; row i of a draw over the streams
    ``streams`` must be bitwise that of a fresh stream_rng for
    ``streams[i]``. The score covariance runs two blocks, and the rows on
    both sides of their edge are checked, as are the public drawers."""
    ch = random_channel(np.random.default_rng(7), 2, 2, field)
    complex_field = field == COMPLEX
    B = simulate._TRIAL_BLOCK
    det = _cfg(ch, M=4, trials=B + 2, sigma_v2=0.3, seed=seed)
    gauss = replace(det, model=GAUSSIAN)
    mse = replace(det, trials=4, ls_sweeps=20)
    nA, ny = det.M + ch.N - 1, det.M * ch.m
    drawn = []
    draws = simulate._draws

    def recording(rng, cfg, streams, size, scale2=None):
        out = draws(rng, cfg, streams, size, scale2)
        drawn.append((streams, size, scale2, out.copy()))      # the scorers add in place
        return out

    def check(run, want):
        # the draws of run(), in order, are want's (streams, size, scale2);
        # the first, second and last rows of each are the fresh streams'
        drawn.clear()
        run()
        assert [d[:3] for d in drawn] == want
        for streams, size, scale2, out in drawn:
            for i in (0, 1, -1)[:len(streams)]:
                np.testing.assert_array_equal(
                    out[i], _fresh_draw(seed, streams[i], complex_field, size, scale2))

    def trial_streams(purpose, blocks):
        return [range(1 + 4 * b.start + purpose, 1 + 4 * b.stop + purpose, 4) for b in blocks]

    monkeypatch.setattr(simulate, "_draws", recording)
    two_blocks = [range(B), range(B, B + 2)]
    check(lambda: score_covariance_fim(det), [(range(1), nA, det.sigma_a2)]
          + [(s, ny, det.sigma_v2) for s in trial_streams(0, two_blocks)])
    check(lambda: score_covariance_fim(gauss),
          [d for noise, symbols in zip(trial_streams(0, two_blocks), trial_streams(1, two_blocks))
           for d in ((noise, ny, gauss.sigma_v2), (symbols, nA, gauss.sigma_a2))])
    noise, init = trial_streams(0, [range(mse.trials)]) + trial_streams(2, [range(mse.trials)])
    check(lambda: mse_vs_crb_experiment(mse, [20.0]),
          [(range(1), nA, mse.sigma_a2), (noise, ny, None), (init, ch.h.size, 1.0)])
    edge = (0, 1, B - 1, B, B + 1)
    np.testing.assert_array_equal(experiment_symbols(det),
                                  _fresh_draw(seed, 0, complex_field, nA, det.sigma_a2))
    for t in edge:
        np.testing.assert_array_equal(draw_noise(det, t),
                                      _fresh_draw(seed, 1 + 4 * t, complex_field, ny, 0.3))
        np.testing.assert_array_equal(experiment_symbols(gauss, t), _fresh_draw(
            seed, 1 + 4 * t + 1, complex_field, nA, gauss.sigma_a2))
    _assert_gaussian_score_rows(simulate._score_matrix(gauss), gauss, edge)


class TestReproducibility:
    def test_streams_are_independent_of_order(self):
        a1 = stream_rng(7, 3).standard_normal(5)
        _ = stream_rng(7, 4).standard_normal(100)
        a2 = stream_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("seed, stream", [(7, 3), (-5, 12), (2**63 + 9, 40001)])
    def test_rekeyed_generator_matches_fresh_stream(self, seed, stream):
        rng = stream_rng(seed, stream + 1)
        for complex_field in (False, True):
            # serve another stream first: a partly used buffer and, after an
            # odd number of 32-bit draws, a cached 32-bit half
            rng.standard_normal(5)
            rng.integers(0, 2**32, 3, dtype=np.uint32)
            cfg = _cfg(random_channel(np.random.default_rng(7), 2, 2,
                                      COMPLEX if complex_field else REAL), seed=seed)
            got = simulate._draws(rng, cfg, range(stream, stream + 1), 9, 2.0)
            want = stream_rng(seed, stream)
            g = want.standard_normal((2 if complex_field else 1, 9))
            np.testing.assert_array_equal(got, [_scaled(g, 2.0, complex_field)])
            np.testing.assert_array_equal(rng.integers(0, 2**32, 5, dtype=np.uint32),
                                          want.integers(0, 2**32, 5, dtype=np.uint32))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_trial_loops_draw_the_fresh_generator_streams(self, monkeypatch, field):
        _check_trial_loop_streams(monkeypatch, field, 42)

    @pytest.mark.parametrize("seed", [-5, 2**63 + 9])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_trial_loops_key_the_low_64_seed_bits(self, monkeypatch, field, seed):
        # a seed outside the 64-bit words: the trial loops key Philox with
        # its low 64 bits, as stream_rng does
        _check_trial_loop_streams(monkeypatch, field, seed)

    def test_bursts_bit_identical(self, chan_random):
        cfg = _cfg(chan_random)
        Y1 = simulate_burst(cfg, trial=3)
        Y2 = simulate_burst(cfg, trial=3)
        np.testing.assert_array_equal(Y1, Y2)

    def test_different_seed_differs(self, chan_random):
        Y1 = simulate_burst(_cfg(chan_random), trial=0)
        Y2 = simulate_burst(_cfg(chan_random, seed=43), trial=0)
        assert not np.array_equal(Y1, Y2)

    def test_deterministic_model_fixes_symbols_across_trials(self, chan_random):
        cfg = _cfg(chan_random)
        np.testing.assert_array_equal(experiment_symbols(cfg, 0), experiment_symbols(cfg, 5))

    def test_gaussian_model_redraws_symbols(self, chan_random):
        cfg = _cfg(chan_random, model=GAUSSIAN)
        assert not np.array_equal(experiment_symbols(cfg, 0), experiment_symbols(cfg, 1))


class TestBurstMoments:
    def test_zero_noise_exact(self, chan_random):
        cfg = _cfg(chan_random, sigma_v2=0.0)
        A = experiment_symbols(cfg)
        np.testing.assert_array_equal(simulate_burst(cfg, 0), chan_random.toeplitz(6) @ A)

    def test_noise_sample_covariance(self, rng):
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = _cfg(ch, M=2, sigma_v2=0.8, trials=1)
        draws = np.array([draw_noise(cfg, t) for t in range(50_000)])
        cov = draws.conj().T @ draws / draws.shape[0]
        np.testing.assert_allclose(cov, 0.8 * np.eye(4), atol=0.02 * 0.8)

    def test_complex_noise_is_circular(self, rng):
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = _cfg(ch, M=2, sigma_v2=1.0)
        T = 20_000
        draws = np.array([draw_noise(cfg, t) for t in range(T)])
        pseudo = draws.T @ draws / T            # E[v v^T], should vanish
        se = 1.0 / np.sqrt(T)                    # per-entry scale of the estimate
        assert np.abs(pseudo).max() < 3 * se

    def test_real_noise_variance(self, chan_random):
        cfg = _cfg(chan_random, M=2, sigma_v2=0.5)
        draws = np.array([draw_noise(cfg, t) for t in range(30_000)])
        np.testing.assert_allclose(draws.var(axis=0), 0.5, rtol=0.05)


class TestScoreCovariance:
    def test_score_mean_near_zero(self, rng):
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = _cfg(ch, trials=4000, sigma_v2=0.5)
        est = score_covariance_fim(cfg)
        assert np.all(np.abs(est.score_mean) < 3 * est.score_mean_se)

    def test_deterministic_matches_analytic(self, rng):
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = _cfg(ch, trials=4000, sigma_v2=0.7)
        est = score_covariance_fim(cfg)
        A = experiment_symbols(cfg)
        J = deterministic_fim(ch, A, 0.7, cfg.M).realified().J
        tr_rel = abs(np.trace(est.J_hat) - np.trace(J)) / np.trace(J)
        assert tr_rel < 0.1
        z = np.abs(est.J_hat - J) / np.where(est.std_err > 0, est.std_err, np.inf)
        assert z.max() < 5.0

    def test_gaussian_real_matches_analytic(self, rng):
        ch = random_channel(rng, 2, 2, REAL)
        cfg = _cfg(ch, model=GAUSSIAN, M=3, trials=6000, sigma_v2=0.9)
        est = score_covariance_fim(cfg)
        J = gaussian_fim(ch, GaussianModelConfig(1.0, 0.9, 3)).J
        tr_rel = abs(np.trace(est.J_hat) - np.trace(J)) / np.trace(J)
        assert tr_rel < 0.1
        z = np.abs(est.J_hat - J) / np.where(est.std_err > 0, est.std_err, np.inf)
        assert z.max() < 5.0

    @pytest.mark.parametrize("model, field", [(DETERMINISTIC, REAL), (DETERMINISTIC, COMPLEX),
                                              (GAUSSIAN, REAL), (GAUSSIAN, COMPLEX)])
    @pytest.mark.parametrize("trials", [2, 3, 500, simulate._TRIAL_BLOCK + 1,
                                        2 * simulate._TRIAL_BLOCK + 3])
    def test_moments_match_outer_product_tensor(self, model, field, trials):
        # J_hat and the standard errors from the score moments equal the mean
        # and two-pass standard deviation of the per-trial outer products, and
        # the score mean and its standard error those of the scores, also
        # when the trials run in two or three blocks
        ch = random_channel(np.random.default_rng(17), 2, 2, field)
        cfg = _cfg(ch, model=model, M=4, trials=trials, sigma_v2=0.6)
        scores = simulate._score_matrix(cfg)
        want_J, want_se = score_moments_tensor(scores)
        est = score_covariance_fim(cfg)
        np.testing.assert_allclose(est.J_hat, want_J, rtol=0,
                                   atol=1e-12 * np.abs(want_J).max())
        np.testing.assert_allclose(est.std_err, want_se, rtol=0,
                                   atol=1e-12 * want_se.max())
        std = scores.std(axis=0, ddof=1)
        np.testing.assert_allclose(est.score_mean, scores.mean(axis=0), rtol=0,
                                   atol=1e-12 * std.max())
        np.testing.assert_allclose(est.score_mean_se, std / np.sqrt(trials), rtol=1e-12)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("past_one_block", [False, True])
    def test_gaussian_score_rows_across_gemm_blocks(self, field, past_one_block):
        # the score is one batched pass over all trials; its rows at one
        # trial, and at 513 trials (one past the 512-trial blocks of an
        # outer-product GEMM at ny = 8), each follow their own formula
        ch = random_channel(np.random.default_rng(19), 2, 2, field)
        cfg = _cfg(ch, model=GAUSSIAN, M=4, trials=1, sigma_v2=0.6)
        if past_one_block:
            ny = cfg.M * ch.m
            cfg = replace(cfg, trials=2**15 // ny**2 + 1)
        S = simulate._score_matrix(cfg)
        assert S.shape[0] == cfg.trials
        _assert_gaussian_score_rows(S, cfg, range(cfg.trials))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("M", [4, 12])
    def test_gaussian_score_rows_match_slab_formula(self, field, m, M):
        # the score is formed from T(h) and C^-1 alone; every row of it, for
        # one trial and for many, is the slab-by-slab formula of the oracle
        ch = random_channel(np.random.default_rng(19 + m), m, 3, field)
        base = _cfg(ch, model=GAUSSIAN, M=M, sigma_a2=1.3, sigma_v2=0.6)
        for trials in (1, 2, 512):
            cfg = replace(base, trials=trials)
            S = simulate._score_matrix(cfg)
            assert S.shape == (trials, (2 if field == COMPLEX else 1) * m * ch.N + 1)
            _assert_gaussian_score_rows(S, cfg, range(trials))

    def test_gaussian_score_memory_is_bounded(self):
        # the Gaussian score holds a few trial-sized arrays at a time: for
        # 10^4 trials at ny = 8 the bursts take 1.3 MB, and their per-trial
        # outer products would take 10.2 MB
        ch = random_channel(np.random.default_rng(7), 2, 2, COMPLEX)
        cfg = _cfg(ch, model=GAUSSIAN, M=4, trials=10_000, sigma_v2=0.3)
        simulate._score_matrix(replace(cfg, trials=2))      # first-call imports
        tracemalloc.start()
        try:
            simulate._score_matrix(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize("model", [DETERMINISTIC, GAUSSIAN])
    def test_score_memory_does_not_grow_with_trials(self, model):
        # the trials run in blocks: at eight blocks' worth of trials the
        # estimator's peak stays within a quarter of its peak at one block
        ch = random_channel(np.random.default_rng(7), 2, 2, COMPLEX)
        cfg = _cfg(ch, model=model, M=4, sigma_v2=0.3)
        score_covariance_fim(replace(cfg, trials=2))                 # first-call imports
        peaks = []
        for blocks in (1, 8):
            tracemalloc.start()
            try:
                score_covariance_fim(replace(cfg, trials=blocks * simulate._TRIAL_BLOCK))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_single_trial_has_infinite_std_err(self, rng):
        est = score_covariance_fim(_cfg(random_channel(rng, 2, 2, REAL), trials=1))
        assert np.all(np.isinf(est.std_err))

    def test_null_direction_has_no_information(self, rng):
        # along the scale direction the empirical quadratic form is zero to
        # statistical accuracy: v^T J_hat v below 3 combined standard errors
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = _cfg(ch, trials=3000, sigma_v2=0.5)
        est = score_covariance_fim(cfg)
        A = experiment_symbols(cfg)
        theta = np.concatenate([-A, ch.h])
        nA = A.size
        v = np.concatenate([theta[:nA].real, theta[:nA].imag,
                            theta[nA:].real, theta[nA:].imag])
        v = v / np.linalg.norm(v)
        val = v @ est.J_hat @ v
        se = np.sqrt(v**2 @ est.std_err**2 @ v**2)
        assert abs(val) < 3 * max(se, 1e-12)


class TestAdjustments:
    def test_exact_estimate_fixed_point(self, rng):
        h0 = random_burst(rng, 6, COMPLEX)
        hhat = h0 / np.linalg.norm(h0)
        for rule in (ADJUST_NO, ADJUST_LS, ADJUST_LIN):
            np.testing.assert_allclose(adjust_estimate(hhat, h0, rule), h0, atol=1e-12)

    def test_pure_phase_error_recovered(self, rng):
        h0 = random_burst(rng, 6, COMPLEX)
        hhat = np.exp(1.3j) * h0 / np.linalg.norm(h0)
        for rule in (ADJUST_NO, ADJUST_LS):
            np.testing.assert_allclose(adjust_estimate(hhat, h0, rule), h0, atol=1e-12)

    def test_real_sign_flip_recovered(self, rng):
        h0 = random_burst(rng, 6, REAL)
        hhat = -h0 / np.linalg.norm(h0)
        np.testing.assert_allclose(adjust_estimate(hhat, h0, ADJUST_NO), h0, atol=1e-12)

    def test_ls_error_is_complement_projection(self, rng):
        h0 = random_burst(rng, 6, COMPLEX)
        hhat = h0 / np.linalg.norm(h0) + 0.1 * random_burst(rng, 6, COMPLEX)
        hhat = hhat / np.linalg.norm(hhat)
        adj = adjust_estimate(hhat, h0, ADJUST_LS)
        P = np.outer(hhat, hhat.conj())
        want = np.linalg.norm((np.eye(6) - P) @ h0)
        assert np.linalg.norm(adj - h0) == pytest.approx(want, rel=1e-12)

    def test_ls_trace_identity_two_ways(self, rng):
        # E||P^perp_hhat h0||^2 computed directly and through the
        # swapped-projector chain agree (they coincide trial by trial for
        # unit-norm estimates)
        h0 = random_burst(rng, 5, COMPLEX)
        direct, chained = [], []
        for _ in range(200):
            hhat = h0 / np.linalg.norm(h0) + 0.2 * random_burst(rng, 5, COMPLEX)
            hhat = hhat / np.linalg.norm(hhat)
            adj = adjust_estimate(hhat, h0, ADJUST_LS)
            direct.append(np.linalg.norm(adj - h0) ** 2)
            P0 = np.outer(h0, h0.conj()) / np.vdot(h0, h0)
            chained.append(
                np.linalg.norm((np.eye(5) - P0) @ hhat) ** 2 * np.vdot(h0, h0).real
            )
        assert np.mean(direct) == pytest.approx(np.mean(chained), rel=1e-10)

    def test_orthogonal_estimate_degenerate(self):
        h0 = np.array([1.0 + 0j, 0.0])
        hhat = np.array([0.0, 1.0 + 0j])
        for rule in (ADJUST_NO, ADJUST_LIN):
            with pytest.raises(DegenerateAdjustmentError):
                adjust_estimate(hhat, h0, rule)


class TestAlternatingLs:
    def test_noiseless_fixed_point(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        M = 20
        A = random_burst(rng, M + ch.N - 1, COMPLEX)
        Y = ch.toeplitz(M) @ A
        init = ch.h + 1e-3 * random_burst(rng, 6, COMPLEX)
        # plain alternating LS converges linearly at a channel-dependent
        # rate; give it room and let the early-stop end the run
        h, _, history, _, _ = _als(Y, ch.m, ch.N, init, sweeps=2000)
        assert history[-1] < 1e-10
        # recovered up to scale: unit estimate aligned with unit truth
        h0 = ch.h / np.linalg.norm(ch.h)
        align = abs(np.vdot(h0, h))
        assert align == pytest.approx(1.0, abs=1e-8)

    def test_residual_monotone(self, rng, chan_random):
        cfg = _cfg(chan_random, M=20, sigma_v2=0.1)
        Y = simulate_burst(cfg, 0)
        init = chan_random.h + 0.3 * random_burst(rng, 8, REAL)
        hist = _als(Y, 2, 4, init, sweeps=25)[2]
        assert np.all(np.diff(hist) <= 1e-10 * max(1.0, hist[0]))

    def test_unit_norm_output(self, rng, chan_random):
        cfg = _cfg(chan_random, M=12, sigma_v2=0.5)
        Y = simulate_burst(cfg, 1)
        h = _als(Y, 2, 4, chan_random.h, sweeps=10)[0]
        assert np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("M", [4, 20])
    def test_rank_deficient_solve_is_minimum_norm(self, M):
        # a common root makes T(h)^H T(h) singular, yet it can still factor;
        # a solve through that factor adds an arbitrary null-space part
        rng = np.random.default_rng(3)
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], REAL)
        T = ch.toeplitz(M)
        Y = rng.standard_normal(T.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate._symbol_step(ch.coeffs[None], Y.reshape(1, M, ch.m), (T.T @ Y)[None])[0]
        np.testing.assert_allclose(got, np.linalg.lstsq(T, Y, rcond=None)[0], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("eps", [0.0, 1e-5])
    def test_rank_deficient_channel_step_is_lstsq(self, field, eps):
        # geometric symbols make the Hankel A' rank one (its Gram does not
        # factor); a 1e-5 perturbation leaves a Gram that factors with a
        # squared pivot ratio near 1e-10, below DEFAULT_RANK_TOL, where the
        # normal equations lose about 1e-6 relative. Either way the solution
        # is the lstsq one of the Kronecker system A_op h = Y
        rng = np.random.default_rng(5)
        m, N, M = 2, 4, 12
        z = 0.9 * np.exp(0.3j) if field == COMPLEX else 0.9
        A = z ** np.arange(M + N - 1) + eps * random_burst(rng, M + N - 1, field)
        Y = random_burst(rng, M * m, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = simulate._channel_step(symbol_hankel(A, N, M)[None], Y.reshape(1, M, m))[0]
        want = np.linalg.lstsq(commutativity_op(A, m, N, M), Y, rcond=None)[0]
        assert np.linalg.norm(X.ravel() - want) <= 1e-10 * np.linalg.norm(want)


def _als_trials(batch):
    """Per trial of an :class:`~blindcrb.simulate.AlternatingLsBatch`,
    ``(h, A, history, converged, sweeps)``, as the oracle returns them."""
    return [(h, A, hist[:s], c, s) for h, A, hist, c, s
            in zip(batch.h, batch.A, batch.history, batch.converged, batch.sweeps)]


def _als(Y, m, N, init, sweeps):
    """:func:`alternating_ls_batch` on the one burst ``Y``: its row 0, as the
    oracle returns it."""
    return _als_trials(alternating_ls_batch(Y[None], m, N, init[None], sweeps=sweeps))[0]


def _dense_als_oracle(Y, m, N, init, sweeps, rtol=1e-12, extrapolate=True):
    """Alternating LS with dense ``T(h)`` and ``A_op`` and the same
    normal-equation rule (Cholesky of the Gram, minimum-norm lstsq when the
    factor fails or its smallest squared pivot is at or below
    ``DEFAULT_RANK_TOL`` times its largest).

    With ``extrapolate`` it takes the estimator's start-point rule: a sweep
    from ``x`` outputs the normalized channel ``G(x)``, with ``f = G(x) - x``;
    after an accepted sweep ``k`` with at least two accepted pairs
    ``(G(x_j), f_j)`` since the last rejected sweep, before the second
    rejected sweep and with at least as many observations as unknowns up to
    scale, the next starts from ``G(x_k) - dG gamma`` renormalized, with
    ``dG``, ``dF`` the differences of the last ``_ANDERSON_DEPTH + 1`` pairs
    and ``gamma`` the lstsq solution of ``dF gamma = f_k`` with a ridge of
    ``1e-12`` times the largest ``||dF_j||^2``; otherwise from
    ``2 h_k - h_{k-1}`` renormalized (``h_0`` the start). After a
    rejected sweep the next starts from ``h_k`` and the pairs are dropped; a
    sweep is rejected when its residual exceeds the last accepted one by
    more than the stop rule's tolerance. Without ``extrapolate``, every sweep
    starts from the last and is accepted: plain alternating LS."""

    def solve(D, y):
        Dh = D.conj().T
        try:
            factor = sla.cho_factor(Dh @ D)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(D, y, rcond=None)[0]
        pivots = np.abs(np.diag(factor[0])) ** 2
        if pivots.min() <= DEFAULT_RANK_TOL * pivots.max():
            return np.linalg.lstsq(D, y, rcond=None)[0]
        return sla.cho_solve(factor, Dh @ y)

    M = Y.size // m
    start = h_acc = init / np.linalg.norm(init)
    A_acc, history = None, []
    outs, resids, rejections = [], [], 0
    for sweep in range(sweeps):
        A = solve(block_toeplitz(start.reshape(N, m).T, M), Y)
        Aop = commutativity_op(A, m, N, M)
        h = solve(Aop, Y)
        resid = np.linalg.norm(Y - Aop @ h)
        h = h / np.linalg.norm(h)
        gain = history[-1] - resid if history else np.inf
        tol = rtol * max(history[-1], 1.0) if history else 0.0
        if gain < -tol and extrapolate:
            start = h_acc                              # rejected
            outs, resids, rejections = [], [], rejections + 1
            history.append(history[-1])
            continue
        if not extrapolate:
            start = h
        else:
            outs = (outs + [h])[-simulate._ANDERSON_DEPTH - 1:]
            resids = (resids + [h - start])[-simulate._ANDERSON_DEPTH - 1:]
            if len(outs) >= 2 and rejections < 2 and M * m >= M + N - 1 + m * N - 1:
                # the ridge as rows sqrt(lam) I under dF: the lstsq solution
                # of that stack is the ridged one, with no normal equations
                dF = np.diff(resids, axis=0).T
                ridge = 1e-6 * max(np.linalg.norm(dF, axis=0))
                gamma = np.linalg.lstsq(np.vstack([dF, ridge * np.eye(dF.shape[1])]),
                                        np.concatenate([resids[-1], np.zeros(dF.shape[1])]),
                                        rcond=None)[0]
                start = h - np.diff(outs, axis=0).T @ gamma
            else:
                start = 2.0 * h - h_acc
        start = start / np.linalg.norm(start)
        h_acc, A_acc = h, A
        history.append(resid)
        if gain <= tol:
            return h_acc, A_acc, history, True, sweep + 1
    return h_acc, A_acc, history, False, sweeps


class TestStructuredAls:
    @staticmethod
    def _assert_rel(got, want, rtol=1e-12, atol=0.0):
        got, want = np.asarray(got), np.asarray(want)
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want) + atol

    @pytest.mark.parametrize("M", [4, 30, 100])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matches_dense_sweep(self, field, m, M):
        rng = np.random.default_rng(100 + 10 * m + M)
        ch = random_channel(rng, m, 3, field)
        Y = ch.toeplitz(M) @ random_burst(rng, M + 2, field) \
            + 0.1 * random_burst(rng, M * m, field)
        init = ch.h + 0.05 * random_burst(rng, ch.h.size, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _als(Y, m, 3, init, sweeps=60)
        h, A, history, converged, sweeps = _dense_als_oracle(Y, m, 3, init, 60)
        assert (got[4], got[3]) == (sweeps, converged)
        self._assert_rel(got[0], h)
        self._assert_rel(got[1], A)
        # with m = 1 the data are fitted exactly and the residuals are
        # roundoff, a few eps ||Y||; with m >= 2 they are at the noise level,
        # where this absolute term sits far below the relative bound
        self._assert_rel(got[2], history, atol=8 * np.finfo(float).eps * np.linalg.norm(Y))

    def test_common_root_channel_takes_minimum_norm_fallback(self):
        # started on the common-root channel, noiseless, the iterate keeps
        # the common root: T(h) loses column rank, every symbol step goes to
        # lstsq, and a solve through the singular factor would add a
        # null-space part the oracle's minimum-norm symbols do not have
        rng = np.random.default_rng(3)
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], REAL)
        M = 20
        Y = ch.toeplitz(M) @ rng.standard_normal(M + ch.N - 1)
        init = ch.h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _als(Y, ch.m, ch.N, init, sweeps=3)
        h, A, history, converged, sweeps = _dense_als_oracle(Y, ch.m, ch.N, init, 3)
        assert (got[4], got[3]) == (sweeps, converged)
        self._assert_rel(got[0], h, 1e-10)
        self._assert_rel(got[1], A, 1e-10)


class TestAlsBatch:
    """The lockstep ALS batch against batches of one burst each."""

    @staticmethod
    def _assert_matches(got, want, rtol=1e-12):
        assert (got[4], got[3]) == (want[4], want[3])
        for g, w in zip(got[:3], want[:3]):
            TestStructuredAls._assert_rel(g, w, rtol)

    def test_mixed_batch_matches_solo_runs_and_dense_oracle(self):
        # real and complex bursts in one complex stack; some trials converge,
        # at different sweeps, and the others use up the budget
        rng = np.random.default_rng(0)
        m, N, M, sweeps = 2, 3, 30, 50
        Ys, inits = [], []
        for noise in (0.05, 0.3, 1.0):
            for field in (REAL, COMPLEX):
                ch = random_channel(rng, m, N, field)
                Ys.append(ch.toeplitz(M) @ random_burst(rng, M + N - 1, field)
                          + noise * random_burst(rng, M * m, field))
                inits.append(ch.h + 0.05 * random_burst(rng, ch.h.size, field))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulate.alternating_ls_batch(np.array(Ys, dtype=complex), m, N,
                                                  np.array(inits, dtype=complex), sweeps=sweeps)
        for got, Y, init in zip(_als_trials(batch), Ys, inits):
            self._assert_matches(got, _als(Y, m, N, init, sweeps))
            self._assert_matches(got, _dense_als_oracle(Y, m, N, init, sweeps))
        converged = batch.sweeps[batch.converged]
        assert len(set(converged)) == len(converged) > 1
        assert not batch.converged.all()
        assert batch.converged[0::2].any() and batch.converged[1::2].any()   # real and complex

    def test_singular_burst_takes_the_fallback_alone(self, monkeypatch):
        # a noiseless common-root burst between two regular ones: its symbol
        # Grams are singular every sweep, so it alone takes the minimum-norm
        # solution, and the banded factor of its neighbours does not change
        rng = np.random.default_rng(3)
        sing, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], REAL)
        M, N = 20, sing.N
        regular = [random_channel(rng, 2, N, REAL) for _ in range(2)]
        Ys = [ch.toeplitz(M) @ rng.standard_normal(M + N - 1) + 0.1 * rng.standard_normal(2 * M)
              for ch in regular]
        inits = [ch.h + 0.05 * rng.standard_normal(ch.h.size) for ch in regular]
        Ys.insert(1, sing.toeplitz(M) @ rng.standard_normal(M + N - 1))
        inits.insert(1, sing.h)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return min_norm_solve(*args, **kwargs)

        monkeypatch.setattr(simulate, "min_norm_solve", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulate.alternating_ls_batch(np.array(Ys), 2, N, np.array(inits), sweeps=3)
            fallbacks = len(calls)
            pair = simulate.alternating_ls_batch(np.array(Ys[::2]), 2, N, np.array(inits[::2]),
                                                 sweeps=3)
            assert len(calls) == fallbacks
            solos = [_als(Y, 2, N, init, 3) for Y, init in zip(Ys, inits)]
        # one symbol-step fallback (a dense T(h)) per sweep, in the batch and
        # in the singular burst's solo run alone
        assert fallbacks == batch.sweeps[1] and len(calls) == 2 * fallbacks
        assert all(shape == (2 * M, M + N - 1) for shape in calls)
        trials = _als_trials(batch)
        for got, solo in zip(trials[::2], solos[::2]):
            self._assert_matches(got, solo)
        # the singular burst fits exactly: its residuals are roundoff, and
        # h and A carry the conditioning of the minimum-norm solves
        want = _dense_als_oracle(Ys[1], 2, N, inits[1], 3)
        for got in (trials[1], solos[1]):
            assert (got[4], got[3]) == (want[4], want[3])
            TestStructuredAls._assert_rel(got[0], want[0], 1e-10)
            TestStructuredAls._assert_rel(got[1], want[1], 1e-10)
            assert max(got[2]) <= 1e-12 * np.linalg.norm(Ys[1])
        for got, alone in zip(trials[::2], _als_trials(pair)):
            for g, a in zip(got, alone):
                np.testing.assert_array_equal(g, a)


class TestAlsInput:
    """Bad bursts and starts are refused, naming the argument and the row,
    before any sweep."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(simulate, "_symbol_step", sweep)

    def test_one_dimensional_bursts(self):
        with pytest.raises(ValueError, match="Ys must be a 2-D array"):
            alternating_ls_batch(np.ones(8), 2, 2, np.ones((1, 4)))

    @pytest.mark.parametrize("m, N", [(0, 2), (2, 0)])
    def test_empty_channel(self, m, N):
        with pytest.raises(ValueError, match="m and N must be >= 1"):
            alternating_ls_batch(np.ones((1, 8)), m, N, np.ones((1, 2 * N)))

    def test_zero_start(self):
        inits = np.ones((3, 4))
        inits[1] = 0.0
        with pytest.raises(ValueError, match="inits row 1 is zero"):
            alternating_ls_batch(np.ones((3, 8)), 2, 2, inits)

    def test_non_finite_burst(self):
        Ys = np.ones((3, 8), dtype=complex)
        Ys[2, 5] = np.nan
        with pytest.raises(ValueError, match="Ys row 2 has a non-finite entry"):
            alternating_ls_batch(Ys, 2, 2, np.ones((3, 4)))


def _experiment_burst(ch, M, snr_db, seed, trial):
    """Burst and init of trial ``trial`` of an MSE experiment at ``snr_db``."""
    cfg = _cfg(ch, M=M, seed=seed, sigma_v2=snr_to_sigma_v2(ch, 1.0, snr_db))
    pert = _fresh_draw(seed, 1 + 4 * trial + 2, ch.field == COMPLEX, ch.h.size, 1.0)
    init = ch.h + 1e-2 * np.linalg.norm(ch.h) * pert / np.linalg.norm(pert)
    return simulate_burst(cfg, trial), init


def _plain_als_at_rest(Y, m, N, init, cap):
    """Plain alternating LS run until its residual stops falling (at most
    ``cap`` sweeps): one-sweep runs of :func:`alternating_ls_batch`, each
    from the last one's channel, are plain sweeps. Returns the channel."""
    h, resid = init, np.inf
    for _ in range(cap):
        run = alternating_ls_batch(Y[None], m, N, h[None], sweeps=1)
        if run.history[0, 0] >= resid:
            break
        h, resid = run.h[0], run.history[0, 0]
    return h


class TestExtrapolatedAls:
    """The mixed and extrapolated start points against plain alternating LS."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_reaches_the_plain_fixed_point(self, chan_random, complex_field):
        # well-posed bursts at M = 100, the benchmark's real 2x4 channel and
        # a complex 3x3 one: the estimate is plain ALS run until its residual
        # stops falling, up to sign or phase
        ch = random_channel(np.random.default_rng(35), 3, 3, COMPLEX) if complex_field \
            else chan_random
        Y, init = _experiment_burst(ch, 100, 20.0, 808, 2)
        got = _als(Y, ch.m, ch.N, init, 400)
        want = _plain_als_at_rest(Y, ch.m, ch.N, init, 2000)
        assert got[3]
        c = np.vdot(want, got[0])
        assert np.linalg.norm(got[0] * (abs(c) / c) - want) <= 1e-5

    def test_converges_where_plain_als_runs_out(self):
        # a hard complex burst: plain ALS (the dense oracle without
        # extrapolation) uses up 400 sweeps, the accelerated run converges
        # within them to a residual no larger
        ch = random_channel(np.random.default_rng(1), 2, 4, COMPLEX)
        Y, init = _experiment_burst(ch, 50, 10.0, 1, 0)
        plain = _dense_als_oracle(Y, 2, 4, init, 400, extrapolate=False)
        got = _als(Y, 2, 4, init, 400)
        assert not plain[3] and plain[4] == 400
        assert got[3] and got[4] < 400
        assert got[2][-1] <= plain[2][-1]

    def test_history_and_rejected_sweeps(self):
        # history is the last accepted residual: a rejected sweep repeats it;
        # only the stopping sweep, a tie within the stop rule's tolerance, may
        # end above it by at most that tolerance
        Y, init = _experiment_burst(random_channel(np.random.default_rng(1), 2, 4, COMPLEX),
                                    50, 10.0, 1, 0)
        _, _, hist, converged, sweeps = _als(Y, 2, 4, init, 400)
        assert converged and len(hist) == sweeps and np.all(np.isfinite(hist))
        steps = np.diff(hist)
        assert np.all(steps[:-1] <= 0)
        assert steps[-1] <= 1e-12 * max(hist[-2], 1.0)
        rejected = np.count_nonzero(steps[:-1] == 0)
        assert rejected > 0
        # rejected sweeps spend the budget: with only as many sweeps as were
        # accepted, the same run stops short of convergence
        short = _als(Y, 2, 4, init, sweeps - rejected)
        assert not short[3] and short[4] == sweeps - rejected
        np.testing.assert_array_equal(short[2], hist[:sweeps - rejected])


    def test_two_rejections_leave_the_extrapolated_start(self, monkeypatch):
        # a hard burst (complex 2x4, M = 20, 5 dB) with rejected sweeps: its
        # starts mix past sweeps at first; after its second rejected sweep
        # each start is h_k after a rejected sweep and 2 h_k - h_{k-1},
        # renormalized, after an accepted one
        ch = random_channel(np.random.default_rng(1), 2, 4, COMPLEX)
        Y, init = _experiment_burst(ch, 20, 5.0, 1, 7)
        starts, outs = [], []
        symbol_step, channel_step = simulate._symbol_step, simulate._channel_step

        def hooked_symbol_step(taps, Yr, rhs):
            starts.append(taps.swapaxes(1, 2).reshape(-1).copy())     # stacked h order
            return symbol_step(taps, Yr, rhs)

        def hooked_channel_step(Ap, Yr):
            X = channel_step(Ap, Yr)
            outs.append((X.ravel() / np.linalg.norm(X),
                         np.linalg.norm(Yr - Ap @ X, axis=(1, 2))[0]))
            return X

        monkeypatch.setattr(simulate, "_symbol_step", hooked_symbol_step)
        monkeypatch.setattr(simulate, "_channel_step", hooked_channel_step)
        assert _als(Y, 2, 4, init, 400)[3]
        h_acc, best = starts[0], np.inf
        rejections, mixed, guarded = 0, 0, 0
        for k, (h, resid) in enumerate(outs[:-1]):
            accepted = k == 0 or resid - best <= 1e-12 * max(best, 1.0)
            today = 2.0 * h - h_acc if accepted else h_acc
            today = today / np.linalg.norm(today)
            if accepted:
                h_acc, best = h, resid
            else:
                rejections += 1
            if rejections >= 2:
                assert np.linalg.norm(starts[k + 1] - today) <= 1e-14
                guarded += 1
            else:
                mixed += np.linalg.norm(starts[k + 1] - today) > 1e-6
        assert mixed > 0 and guarded > 20


class TestMseExperiment:
    def test_rows_and_reproducibility(self, chan_random):
        cfg = _cfg(chan_random, M=30, trials=20, seed=9)
        rows1 = mse_vs_crb_experiment(cfg, [15.0, 25.0])
        rows2 = mse_vs_crb_experiment(cfg, [15.0, 25.0])
        assert [r.mse for r in rows1] == [r.mse for r in rows2]
        for r in rows1:
            assert set(r.mse) == {"NO", "LS", "LIN"}
            assert r.crb_trace > 0
            assert r.trials == 20

    def test_snr_conversion(self, chan_random):
        sv2 = snr_to_sigma_v2(chan_random, 1.0, 10.0)
        want = np.linalg.norm(chan_random.h) ** 2 / (2 * 10.0)
        assert sv2 == pytest.approx(want)

    def test_mse_decreases_with_snr(self, chan_random):
        cfg = _cfg(chan_random, M=40, trials=30, seed=11)
        rows = mse_vs_crb_experiment(cfg, [10.0, 30.0])
        assert rows[1].mse["NO"] < rows[0].mse["NO"]

    def test_adjustment_rules_agree_at_high_snr(self, chan_random):
        # the three scale/phase fixes are asymptotically equivalent; at 30 dB
        # their empirical MSEs coincide within combined Monte Carlo error
        cfg = _cfg(chan_random, M=50, trials=150, seed=17)
        row = mse_vs_crb_experiment(cfg, [30.0])[0]
        for a, b in (("NO", "LS"), ("NO", "LIN"), ("LS", "LIN")):
            spread = abs(row.mse[a] - row.mse[b])
            combined = np.hypot(row.std_err[a], row.std_err[b])
            assert spread < 3 * combined

    def test_rank_deficient_channel_is_flagged(self, chan_random):
        # a common root at 0.5 makes T(h) lose column rank: crb_trace is then
        # a pseudo-inverse bound of a singular FIM, and the row says so
        ch, _, _ = channel_with_common_roots(np.random.default_rng(3), 2, 3, [0.5], REAL)
        row = mse_vs_crb_experiment(_cfg(ch, M=20, trials=3, ls_sweeps=30), [20.0])[0]
        assert row.warnings == ("toeplitz-rank-deficient",)
        clean = mse_vs_crb_experiment(_cfg(chan_random, M=20, trials=3, ls_sweeps=30), [20.0])[0]
        assert clean.warnings == ()

    def test_sweeps_mean_is_the_estimator_mean(self, chan_random):
        # independent per-burst runs on the experiment's bursts and
        # initializations (stream 1 + 4 t + 2, real channel) give the sweep
        # counts behind each row's mean
        assert chan_random.field == REAL
        cfg = _cfg(chan_random, M=20, trials=4)
        snrs = [10.0, 30.0]
        rows = mse_vs_crb_experiment(cfg, snrs)
        h0 = chan_random.h
        sweeps = []
        for snr in snrs:
            point = replace(cfg, sigma_v2=snr_to_sigma_v2(chan_random, cfg.sigma_a2, snr))
            for t in range(cfg.trials):
                pert = stream_rng(cfg.seed, 1 + 4 * t + 2).standard_normal(h0.size)
                init = h0 + cfg.init_scale * np.linalg.norm(h0) * pert / np.linalg.norm(pert)
                sweeps.append(_als(simulate_burst(point, t), chan_random.m, chan_random.N,
                                   init, cfg.ls_sweeps)[4])
        assert [r.sweeps_mean for r in rows] == [np.mean(sweeps[:4]), np.mean(sweeps[4:])]
        assert len(set(sweeps)) > 1

    @pytest.mark.parametrize("common_root", [False, True])
    def test_rows_match_per_point_reduced_fim(self, chan_random, common_root):
        ch = channel_with_common_roots(np.random.default_rng(3), 2, 3, [0.5], REAL)[0] \
            if common_root else chan_random
        cfg = _cfg(ch, M=20, trials=2, ls_sweeps=5)
        snrs = [10.0, 20.0, 30.0]
        A = experiment_symbols(cfg)
        for row, snr in zip(mse_vs_crb_experiment(cfg, snrs), snrs):
            red = deterministic_reduced_fim(ch, A, snr_to_sigma_v2(ch, cfg.sigma_a2, snr), cfg.M)
            assert row.crb_trace == pytest.approx(constrained_crb(red).trace, rel=1e-12, abs=0)
            assert row.warnings == red.warnings

    def test_reduced_fim_built_once(self, monkeypatch, chan_random):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return deterministic_reduced_fim(*args, **kwargs)

        monkeypatch.setattr(simulate, "deterministic_reduced_fim", counting)
        mse_vs_crb_experiment(_cfg(chan_random, M=20, trials=2, ls_sweeps=5), [10.0, 20.0, 30.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("field, value", [
        ("M", 0), ("trials", 0), ("ls_sweeps", 0), ("sigma_a2", 0.0), ("sigma_a2", np.nan),
        ("sigma_v2", -1.0), ("init_scale", -0.1), ("init_scale", np.inf),
        ("init_scale", np.nan),
    ])
    def test_bad_config_is_rejected(self, chan_random, field, value):
        with pytest.raises(ValueError, match=repr(field)):
            _cfg(chan_random, **{field: value})

    def test_gaussian_model_rejected(self, chan_random):
        cfg = _cfg(chan_random, model=GAUSSIAN)
        with pytest.raises(ValueError):
            mse_vs_crb_experiment(cfg, [10.0])

    def test_benchmark_experiment_matches_references(self, chan_random):
        # the benchmark's mse job (random-2x4, M=100, seed 808, 20 trials,
        # 400 sweeps) against its reference mse_NO, mse_LS and mse_LIN per
        # SNR point, at the benchmark's tolerance
        want = {10.0: (0.166670779, 0.165410773, 0.170551497),
                20.0: (0.0145495489, 0.0145406425, 0.0145763255),
                30.0: (0.00145224045, 0.00145215243, 0.00145250457)}
        cfg = _cfg(chan_random, M=100, trials=20, seed=808, ls_sweeps=400)
        for row in mse_vs_crb_experiment(cfg, list(want)):
            got = [row.mse[r] for r in (ADJUST_NO, ADJUST_LS, ADJUST_LIN)]
            np.testing.assert_allclose(got, want[row.snr_db], rtol=1e-4, atol=0)
            # 46/41/41 sweeps before the starts mixed past sweeps
            assert row.nonconverged == 0 and row.sweeps_mean <= 20

    def test_blocks_match_one_lockstep_run(self, monkeypatch):
        # blocks of 7 bursts hold two trials at each of the 3 SNR points: the
        # rows equal those of one block holding every trial
        ch = random_channel(np.random.default_rng(1), 2, 3, COMPLEX)
        cfg = _cfg(ch, M=20, trials=10, seed=5, ls_sweeps=100)
        snrs = [5.0, 15.0, 30.0]
        monkeypatch.setattr(simulate, "_BURST_BLOCK", len(snrs) * cfg.trials)
        whole = mse_vs_crb_experiment(cfg, snrs)
        monkeypatch.setattr(simulate, "_BURST_BLOCK", 7)
        for got, want in zip(mse_vs_crb_experiment(cfg, snrs), whole):
            assert (got.sigma_v2, got.crb_trace, got.trials) == \
                (want.sigma_v2, want.crb_trace, want.trials)
            assert (got.nonconverged, got.sweeps_mean) == (want.nonconverged, want.sweeps_mean)
            for r in want.mse:
                assert got.mse[r] == pytest.approx(want.mse[r], rel=1e-12, abs=0)
                assert got.std_err[r] == pytest.approx(want.std_err[r], rel=1e-12, abs=0)

    @pytest.mark.parametrize("burst_block", [2, 7])
    def test_blocks_draw_the_documented_bursts(self, monkeypatch, burst_block):
        # blocks of 2 bursts (fewer than the 3 SNR points: one trial each)
        # and of 7 (two trials each): a block draws its trials' noise and
        # init normals once, its bursts and inits, point by point, are
        # simulate_burst's and the documented perturbed start, and the rows
        # equal those of one block holding every trial
        ch = random_channel(np.random.default_rng(1), 2, 3, COMPLEX)
        cfg = _cfg(ch, M=20, trials=5, seed=5, ls_sweeps=30)
        snrs = [5.0, 15.0, 30.0]
        points = [replace(cfg, sigma_v2=snr_to_sigma_v2(ch, cfg.sigma_a2, s)) for s in snrs]
        monkeypatch.setattr(simulate, "_BURST_BLOCK", len(snrs) * cfg.trials)
        whole = mse_vs_crb_experiment(cfg, snrs)
        batches, streams = [], []
        als, draws = simulate.alternating_ls_batch, simulate._draws

        def hooked_als(Ys, m, N, inits, **kwargs):
            batches.append((Ys, inits))
            return als(Ys, m, N, inits, **kwargs)

        def hooked_draws(rng, cfg, s, size, scale2=None):
            streams.append(s)
            return draws(rng, cfg, s, size, scale2)

        monkeypatch.setattr(simulate, "alternating_ls_batch", hooked_als)
        monkeypatch.setattr(simulate, "_draws", hooked_draws)
        monkeypatch.setattr(simulate, "_BURST_BLOCK", burst_block)
        rows = mse_vs_crb_experiment(cfg, snrs)
        size = max(1, burst_block // len(snrs))
        blocks = [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]
        assert streams == [range(1)] + [
            s for b in blocks
            for s in (range(1 + 4 * b.start, 1 + 4 * b.stop, 4),     # noise
                      range(3 + 4 * b.start, 3 + 4 * b.stop, 4))]    # init
        assert len(batches) == len(blocks)
        h0 = ch.h
        for (Ys, inits), block in zip(batches, blocks):
            assert len(Ys) == len(inits) == len(snrs) * len(block)
            bursts = iter(zip(Ys, inits))
            for point in points:
                for t in block:
                    y, init = next(bursts)
                    np.testing.assert_array_equal(y, simulate_burst(point, t))
                    # within roundoff: the norm of a stack of rows sums in another order
                    pert = _fresh_draw(cfg.seed, 1 + 4 * t + 2, True, h0.size, 1.0)
                    want = h0 + cfg.init_scale * np.linalg.norm(h0) * pert / np.linalg.norm(pert)
                    np.testing.assert_allclose(init, want, rtol=1e-15, atol=0)
        for got, want in zip(rows, whole):
            for r in want.mse:
                assert got.mse[r] == pytest.approx(want.mse[r], rel=1e-12, abs=0)
                assert got.std_err[r] == pytest.approx(want.std_err[r], rel=1e-12, abs=0)

    def test_memory_does_not_grow_with_trials(self, chan_random):
        # the bursts run in blocks: at eight blocks' worth of bursts the
        # experiment's peak stays within a quarter of its peak at one block
        cfg = _cfg(chan_random, M=20, ls_sweeps=3)
        snrs = [10.0, 20.0]
        mse_vs_crb_experiment(replace(cfg, trials=2), snrs)          # first-call imports
        peaks = []
        for blocks in (1, 8):
            tracemalloc.start()
            try:
                mse_vs_crb_experiment(replace(cfg, trials=blocks * simulate._BURST_BLOCK // 2),
                                      snrs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
