"""Monte Carlo harness: reproducibility, moments, scores, adjustments, estimator."""

import numpy as np
import pytest

from blindcrb.channel import COMPLEX, REAL
from blindcrb.fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    deterministic_fim,
    gaussian_fim,
)
from blindcrb.simulate import (
    ADJUST_LIN,
    ADJUST_LS,
    ADJUST_NO,
    DegenerateAdjustmentError,
    ExperimentConfig,
    adjust_estimate,
    alternating_ls_estimator,
    draw_noise,
    experiment_symbols,
    mse_vs_crb_experiment,
    score_covariance_fim,
    simulate_burst,
    snr_to_sigma_v2,
    stream_rng,
)

from conftest import random_burst, random_channel


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
        res = alternating_ls_estimator(Y, ch.m, ch.N, init, sweeps=2000)
        assert res.residual < 1e-10
        # recovered up to scale: unit estimate aligned with unit truth
        h0 = ch.h / np.linalg.norm(ch.h)
        align = abs(np.vdot(h0, res.h))
        assert align == pytest.approx(1.0, abs=1e-8)

    def test_residual_monotone(self, rng, chan_random):
        cfg = _cfg(chan_random, M=20, sigma_v2=0.1)
        Y = simulate_burst(cfg, 0)
        init = chan_random.h + 0.3 * random_burst(rng, 8, REAL)
        res = alternating_ls_estimator(Y, 2, 4, init, sweeps=25)
        hist = np.array(res.residual_history)
        assert np.all(np.diff(hist) <= 1e-10 * max(1.0, hist[0]))

    def test_unit_norm_output(self, rng, chan_random):
        cfg = _cfg(chan_random, M=12, sigma_v2=0.5)
        Y = simulate_burst(cfg, 1)
        res = alternating_ls_estimator(Y, 2, 4, chan_random.h, sweeps=10)
        assert np.linalg.norm(res.h) == pytest.approx(1.0, rel=1e-12)


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

    def test_gaussian_model_rejected(self, chan_random):
        cfg = _cfg(chan_random, model=GAUSSIAN)
        with pytest.raises(ValueError):
            mse_vs_crb_experiment(cfg, [10.0])
