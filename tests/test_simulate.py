"""Monte Carlo harness: reproducibility, moments, scores, adjustments, estimator."""

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
from oracles import score_moments_tensor


def _cfg(ch, **kw):
    base = dict(channel=ch, model=DETERMINISTIC, M=6, trials=10, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


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
            got = simulate._rekey(rng, seed, stream)
            want = stream_rng(seed, stream)
            np.testing.assert_array_equal(
                simulate._draw_gaussian_vector(got, 9, 2.0, complex_field),
                simulate._draw_gaussian_vector(want, 9, 2.0, complex_field))
            np.testing.assert_array_equal(got.integers(0, 2**32, 5, dtype=np.uint32),
                                          want.integers(0, 2**32, 5, dtype=np.uint32))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_trial_loops_draw_the_fresh_generator_streams(self, monkeypatch, field):
        # the trial loops draw each stream purpose of all trials into one
        # buffer; row t must be bitwise the draw of the public per-trial
        # drawers, which build a fresh stream_rng
        ch = random_channel(np.random.default_rng(7), 2, 2, field)
        det = _cfg(ch, M=4, trials=200, sigma_v2=0.3)
        gauss = replace(det, model=GAUSSIAN)
        mse = replace(det, trials=4, ls_sweeps=20)
        complex_field = field == COMPLEX
        drawn = []
        trial_normals = simulate._trial_normals

        def recording(rng, cfg, purpose, size):
            out = trial_normals(rng, cfg, purpose, size)
            drawn.append((purpose, out))
            return out

        def draws(purpose, scale2):
            (g,) = [out for p, out in drawn if p == purpose]
            return simulate._scale_normals(g, scale2, complex_field)

        monkeypatch.setattr(simulate, "_trial_normals", recording)
        score_covariance_fim(det)
        noise = draws(0, det.sigma_v2)
        drawn.clear()
        S = simulate._gaussian_score_matrix(gauss)
        symbols, gauss_noise = draws(1, gauss.sigma_a2), draws(0, gauss.sigma_v2)
        drawn.clear()
        rows = mse_vs_crb_experiment(mse, [20.0])
        mse_noise = draws(0, rows[0].sigma_v2)
        perts = draws(2, 1.0)
        for t in (0, 1, det.trials - 1):
            np.testing.assert_array_equal(noise[t], draw_noise(det, t))
            np.testing.assert_array_equal(gauss_noise[t], draw_noise(gauss, t))
            np.testing.assert_array_equal(symbols[t], experiment_symbols(gauss, t))
        for t in (0, 1, mse.trials - 1):
            np.testing.assert_array_equal(
                mse_noise[t], draw_noise(replace(mse, sigma_v2=rows[0].sigma_v2), t))
            np.testing.assert_array_equal(perts[t], simulate._draw_gaussian_vector(
                stream_rng(mse.seed, 1 + 4 * t + 2), ch.h.size, 1.0, complex_field))
        # each Gaussian score row is the per-trial formula on simulate_burst
        C, slabs = simulate.gaussian_real_param_derivs(ch, gauss.gaussian_config)
        Ci = np.linalg.inv(C)
        P = [Ci @ G @ Ci for G in slabs]
        offset = np.array([np.trace(Ci @ G).real for G in slabs])
        for t in (0, 1, gauss.trials - 1):
            y = simulate_burst(gauss, t)
            quad = np.array([np.vdot(y, Pa @ y).real for Pa in P])
            want = (quad - offset) * (1.0 if complex_field else 0.5)
            scale = np.linalg.norm(quad) + np.linalg.norm(offset)
            assert np.linalg.norm(S[t] - want) <= 1e-12 * scale

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
    @pytest.mark.parametrize("trials", [2, 3, 500])
    def test_moments_match_outer_product_tensor(self, model, field, trials):
        # J_hat and the standard errors from the score moments equal the mean
        # and two-pass standard deviation of the per-trial outer products
        ch = random_channel(np.random.default_rng(17), 2, 2, field)
        cfg = _cfg(ch, model=model, M=4, trials=trials, sigma_v2=0.6)
        scores = (simulate._det_score_matrix if model == DETERMINISTIC
                  else simulate._gaussian_score_matrix)(cfg)
        want_J, want_se = score_moments_tensor(scores)
        est = score_covariance_fim(cfg)
        np.testing.assert_allclose(est.J_hat, want_J, rtol=0,
                                   atol=1e-12 * np.abs(want_J).max())
        np.testing.assert_allclose(est.std_err, want_se, rtol=0,
                                   atol=1e-12 * want_se.max())

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


def _dense_als_oracle(Y, m, N, init, sweeps, rtol=1e-12):
    """Alternating LS with dense ``T(h)`` and ``A_op`` and the same
    normal-equation rule (Cholesky of the Gram, minimum-norm lstsq when the
    factor fails or its smallest squared pivot is at or below
    ``DEFAULT_RANK_TOL`` times its largest)."""

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
    h = init / np.linalg.norm(init)
    history = []
    for sweep in range(sweeps):
        A = solve(block_toeplitz(h.reshape(N, m).T, M), Y)
        Aop = commutativity_op(A, m, N, M)
        h = solve(Aop, Y)
        resid = np.linalg.norm(Y - Aop @ h)
        h = h / np.linalg.norm(h)
        history.append(resid)
        if sweep > 0 and history[-2] - resid <= rtol * max(history[-2], 1.0):
            return h, A, history, True, sweep + 1
    return h, A, history, False, sweeps


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
        m, N, M, sweeps = 2, 3, 30, 200
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
