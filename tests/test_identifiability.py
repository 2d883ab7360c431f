"""Rule-based verdicts against computed FIM ranks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindcrb.channel import COMPLEX, REAL, Channel, reducible_decompose
from blindcrb.fim import (
    GaussianModelConfig,
    analyze_singularities,
    channel_block,
    deterministic_fim,
    deterministic_reduced_fim,
    gaussian_fim,
)
from blindcrb.identifiability import (
    INDETERMINATE,
    NOT_IDENTIFIABLE,
    PHASE,
    SCALE,
    SIGN,
    deterministic_verdict,
    gaussian_verdict,
    verdict_vs_fim,
)
from blindcrb.linalg import eigenvalue_rank

from conftest import channel_with_common_roots, random_burst, random_channel


class TestDeterministicVerdict:
    def test_irreducible_long_burst_scale(self, chan_random):
        v = deterministic_verdict(reducible_decompose(chan_random), M=20)
        assert v.identifiable_up_to == SCALE
        assert v.predicted_nullity == 1
        assert v.predicted_nullity_realified == 1      # real field
        assert v.predicted_reduced_nullity == 1

    def test_complex_field_doubles_realified_count(self, chan_random):
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        v = deterministic_verdict(reducible_decompose(ch), M=20)
        assert (v.predicted_nullity, v.predicted_nullity_realified) == (1, 2)

    def test_reducible_counts(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        v = deterministic_verdict(reducible_decompose(ch), M=20)
        assert v.identifiable_up_to == NOT_IDENTIFIABLE
        assert v.predicted_nullity == 3                # 2 N_c - 1
        assert v.predicted_reduced_nullity == 2        # N_c

    def test_short_burst_refused(self, chan_random):
        v = deterministic_verdict(reducible_decompose(chan_random),
                                  M=3)    # m=2 needs M >= N = 4
        assert v.identifiable_up_to == NOT_IDENTIFIABLE
        assert v.predicted_nullity == -1

    def test_two_subchannel_relaxed_burst(self, chan_random):
        assert deterministic_verdict(reducible_decompose(chan_random),
                                     M=4).identifiable_up_to == SCALE

    def test_degenerate_burst_detected(self, chan_random):
        A = np.zeros(23)
        A[0] = 1.0  # single excitation mode is nowhere near enough
        v = deterministic_verdict(reducible_decompose(chan_random), M=20, A=A)
        assert v.identifiable_up_to == NOT_IDENTIFIABLE


class TestGaussianVerdict:
    CFG = GaussianModelConfig(M=12)

    def test_clean_complex_phase_only(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        v = gaussian_verdict(reducible_decompose(ch), self.CFG)
        assert v.identifiable_up_to == PHASE
        assert v.predicted_nullity == 1

    def test_clean_real_sign_only(self, chan_random):
        v = gaussian_verdict(reducible_decompose(chan_random), self.CFG)
        assert v.identifiable_up_to == SIGN
        assert v.predicted_nullity == 0

    def test_real_pair_one_singularity(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, 2.0], REAL)
        v = gaussian_verdict(reducible_decompose(ch), self.CFG)
        assert v.predicted_nullity == 1
        assert v.identifiable_up_to == NOT_IDENTIFIABLE

    def test_complex_pair_three_singularities(self, rng):
        z0 = 0.5 + 0.5j
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [z0, 1 / np.conj(z0)], COMPLEX)
        v = gaussian_verdict(reducible_decompose(ch), self.CFG)
        assert v.predicted_nullity == 3

    def test_unit_zero_adds_one(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], REAL)
        assert gaussian_verdict(reducible_decompose(ch), self.CFG).predicted_nullity == 1
        chc, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], COMPLEX)
        assert gaussian_verdict(reducible_decompose(chc), self.CFG).predicted_nullity == 2

    def test_monochannel_noise_variance(self):
        ch = Channel(np.poly([0.5, -0.3])[None, :], field=REAL)
        v = gaussian_verdict(reducible_decompose(ch), GaussianModelConfig(M=10))
        assert v.predicted_nullity == 1
        assert any("noise variance" in r for r in v.reasons)

    def test_monochannel_with_pair_suppresses_noise_singularity(self):
        ch = Channel(np.poly([0.5, 2.0, 0.3])[None, :], field=REAL)
        v = gaussian_verdict(reducible_decompose(ch), GaussianModelConfig(M=10))
        assert v.predicted_nullity == 1   # the pair only; no sigma_v^2 direction

    def test_short_burst_indeterminate(self, chan_random):
        v = gaussian_verdict(reducible_decompose(chan_random), GaussianModelConfig(M=2))
        assert v.identifiable_up_to == INDETERMINATE

    def test_unit_circle_zero_indeterminate(self, rng):
        # a common zero on the unit circle away from +/-1 is counted like any
        # other structure: phase plus one more direction, the FIM's count
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [np.exp(0.9j)], COMPLEX)
        cfg = GaussianModelConfig(M=12)
        v = gaussian_verdict(reducible_decompose(ch), cfg)
        assert v.identifiable_up_to == NOT_IDENTIFIABLE
        assert v.predicted_nullity == 2
        assert analyze_singularities(gaussian_fim(ch, cfg).realified()).nullity == 2

    def test_window_around_tol_is_indeterminate(self, chan_random):
        # at a tol next to the map's smallest s^2/s_max^2 the count cannot be
        # told from the FIM's, so the verdict predicts nothing; 40 times
        # below it, the window (tol/2, 20 tol) clears that value
        dec = reducible_decompose(chan_random)
        margin = gaussian_verdict(dec, self.CFG).reasons[1]
        smallest = float(margin.rsplit("smallest kept ", 1)[1])
        v = gaussian_verdict(dec, self.CFG, tol=smallest / 5)
        assert v.identifiable_up_to == INDETERMINATE and v.predicted_nullity == -1
        assert "too near tol" in v.rules
        assert gaussian_verdict(dec, self.CFG, tol=smallest / 40).predicted_nullity == 0

    @pytest.mark.parametrize("field, taps", [
        (REAL, np.poly([0.5, -0.3])[None, :]),
        (COMPLEX, np.array([[1.0, 0.3 - 0.2j, 0.5j]])),
        (REAL, np.array([np.convolve(row, np.poly([0.5, 2.0]))
                         for row in [[1.0, -0.7], [0.4, 0.9]]])),
    ], ids=["real-mono", "complex-mono", "real-pair"])
    def test_reduced_nullity_is_channel_block_count(self, field, taps):
        # the sigma_v^2 direction of a monochannel is Schur-reduced out of the
        # channel block, and a phase or pair direction is not
        ch = Channel(taps, field=field)
        cfg = GaussianModelConfig(M=20)
        v = gaussian_verdict(reducible_decompose(ch), cfg)
        rec = verdict_vs_fim(v, analyze_singularities(channel_block(gaussian_fim(ch, cfg))),
                             reduced=True)
        assert rec.passed, rec.detail


class TestVerdictVsFim:
    def test_deterministic_cells_agree(self, rng):
        for field in (REAL, COMPLEX):
            for k in range(20):
                ch = random_channel(rng, 2, 4, field)
                A = random_burst(rng, 23, field)
                v = deterministic_verdict(reducible_decompose(ch), M=20, A=A)
                fim = deterministic_fim(ch, A, 1.0, 20)
                if field == COMPLEX:
                    rep = analyze_singularities(fim.realified())
                    rec = verdict_vs_fim(v, rep, realified=True)
                else:
                    rep = analyze_singularities(fim)
                    rec = verdict_vs_fim(v, rep)
                assert rec.passed, rec.detail

    def test_gaussian_cells_agree(self, rng):
        cfg = GaussianModelConfig(M=10)
        for k in range(20):
            ch = random_channel(rng, 2, 4, REAL)
            rec = verdict_vs_fim(
                gaussian_verdict(reducible_decompose(ch), cfg),
                analyze_singularities(gaussian_fim(ch, cfg)),
            )
            assert rec.passed, rec.detail
        for k in range(20):
            ch = random_channel(rng, 2, 4, COMPLEX)
            rec = verdict_vs_fim(
                gaussian_verdict(reducible_decompose(ch), cfg),
                analyze_singularities(gaussian_fim(ch, cfg).realified()),
            )
            assert rec.passed, rec.detail

    def test_adding_pair_increments_nullity(self, rng):
        # same irreducible part, with and without a conjugate reciprocal
        # pair in the common factor: +1 (real data) and +2 (complex data)
        cfg = GaussianModelConfig(M=16)
        HI = rng.standard_normal((2, 3))
        clean = Channel(HI, field=REAL)
        paired = Channel(
            np.array([np.convolve(row, np.poly([0.5, 2.0])) for row in HI]), field=REAL)
        n0 = analyze_singularities(gaussian_fim(clean, cfg)).nullity
        n1 = analyze_singularities(gaussian_fim(paired, cfg)).nullity
        assert (n0, n1) == (0, 1)

        HIc = HI + 1j * rng.standard_normal((2, 3))
        z0 = 0.4 - 0.2j
        cleanc = Channel(HIc, field=COMPLEX)
        pairedc = Channel(
            np.array([np.convolve(row, np.poly([z0, 1 / np.conj(z0)])) for row in HIc]),
            field=COMPLEX)
        m0 = analyze_singularities(gaussian_fim(cleanc, cfg).realified()).nullity
        m1 = analyze_singularities(gaussian_fim(pairedc, cfg).realified()).nullity
        assert (m0, m1) == (1, 3)

    def test_constructed_pair_channel_agrees(self, rng):
        cfg = GaussianModelConfig(M=12)
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, 2.0], REAL)
        rec = verdict_vs_fim(
            gaussian_verdict(reducible_decompose(ch), cfg),
            analyze_singularities(gaussian_fim(ch, cfg)),
        )
        assert rec.passed, rec.detail

    def test_monochannel_agrees(self):
        cfg = GaussianModelConfig(M=10)
        ch = Channel(np.poly([0.5, -0.3])[None, :], field=REAL)
        rec = verdict_vs_fim(
            gaussian_verdict(reducible_decompose(ch), cfg),
            analyze_singularities(gaussian_fim(ch, cfg)),
        )
        assert rec.passed, rec.detail

    def test_reduced_comparison_flag(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        v = deterministic_verdict(reducible_decompose(ch), M=20)
        rep = analyze_singularities(deterministic_reduced_fim(ch, A, 1.0, 20))
        rec = verdict_vs_fim(v, rep, reduced=True)
        assert rec.passed and rec.predicted == 2

    def test_mismatch_reports_detail(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        v = deterministic_verdict(reducible_decompose(chan_random), M=20)
        rep = analyze_singularities(np.eye(5))   # nullity 0, wrong on purpose
        rec = verdict_vs_fim(v, rep)
        assert not rec.passed
        assert "predicted 1" in rec.detail


def _hard_gaussian_channel(family, field, m, d, seed):
    """A channel ``H_I(z) H_c(z)`` whose common factor ``H_c`` is at distance
    ``d`` from exact Gaussian structure: a conjugate reciprocal pair
    ``(z0, (1 + d)/conj(z0))``, a zero at radius ``1 - d`` (with its
    conjugate on a real channel), or a zero at ``+/-(1 - d)``; ``H_I`` is a
    random length-2 ``m``-channel."""
    rng = np.random.default_rng(seed)
    th, rho, sign = rng.uniform(0.3, 2.8), rng.uniform(0.3, 0.8), rng.choice([-1.0, 1.0])
    if family == "pair":
        z0 = sign * rho if field == REAL else rho * np.exp(1j * th)
        roots = [z0, (1 + d) / np.conj(z0)]
    elif family == "unit":
        z = (1 - d) * np.exp(1j * th)
        roots = [z, np.conj(z)] if field == REAL else [z]
    else:
        roots = [sign * (1 - d)]
    HI = rng.standard_normal((m, 2))
    if field == COMPLEX:
        HI = HI + 1j * rng.standard_normal((m, 2))
    H = np.array([np.convolve(row, np.poly(roots)) for row in HI])
    return Channel(H.real if field == REAL else H, field=field)


def _gaussian_counts(ch, cfg):
    """The verdict, and the FIM nullity and channel-block nullity it predicts."""
    fim = gaussian_fim(ch, cfg)
    return (gaussian_verdict(reducible_decompose(ch), cfg),
            eigenvalue_rank(fim.realified().eigenvalues)[1],
            analyze_singularities(channel_block(fim)).nullity)


class TestHardGaussianChannels:
    """Near-structured channels: the verdict is the FIM's count or says it
    cannot tell, and two symmetries of the model keep both."""

    @given(
        family=st.sampled_from(["pair", "unit", "pm1"]),
        field=st.sampled_from([REAL, COMPLEX]),
        m=st.integers(1, 3),
        M=st.sampled_from([20, 60]),
        log_d=st.floats(-9.0, -1.0),
        exact=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_verdict_is_fim_count_or_indeterminate(self, family, field, m, M, log_d,
                                                   exact, seed):
        # near pairs at 1e-9..1e-2; unit-circle and +/-1 zeros at 1 - r from
        # 1e-9 to 1e-1, or exactly on the circle
        if family == "pair":
            d = 10 ** min(log_d, -2.0)
        else:
            d = 0.0 if exact else 10 ** log_d
        ch = _hard_gaussian_channel(family, field, m, d, seed)
        cfg = GaussianModelConfig(M=M)
        v, nullity, reduced = _gaussian_counts(ch, cfg)
        if v.identifiable_up_to != INDETERMINATE:
            assert v.predicted_nullity == nullity, v.rules
            assert v.predicted_reduced_nullity == reduced, v.rules
        # subchannel permutation, and time reversal with conjugation
        # (each zero z goes to 1/conj(z)), leave S(w) congruent
        flipped = np.conj(ch.coeffs[:, ::-1])
        for H in (ch.coeffs[::-1], flipped):
            w, n, _ = _gaussian_counts(Channel(H, field=field), cfg)
            assert (w.identifiable_up_to, w.predicted_nullity, w.predicted_reduced_nullity,
                    n) == (v.identifiable_up_to, v.predicted_nullity,
                           v.predicted_reduced_nullity, nullity)
