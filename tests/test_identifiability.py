"""Rule-based verdicts against computed FIM ranks."""

import numpy as np

from blindcrb.channel import COMPLEX, REAL, Channel
from blindcrb.fim import (
    GaussianModelConfig,
    analyze_singularities,
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

from conftest import channel_with_common_roots, random_burst, random_channel


class TestDeterministicVerdict:
    def test_irreducible_long_burst_scale(self, chan_random):
        v = deterministic_verdict(chan_random, M=20)
        assert v.identifiable_up_to == SCALE
        assert v.predicted_nullity == 1
        assert v.predicted_nullity_realified == 1      # real field
        assert v.predicted_reduced_nullity == 1

    def test_complex_field_doubles_realified_count(self, chan_random):
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        v = deterministic_verdict(ch, M=20)
        assert (v.predicted_nullity, v.predicted_nullity_realified) == (1, 2)

    def test_reducible_counts(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        v = deterministic_verdict(ch, M=20)
        assert v.identifiable_up_to == NOT_IDENTIFIABLE
        assert v.predicted_nullity == 3                # 2 N_c - 1
        assert v.predicted_reduced_nullity == 2        # N_c

    def test_short_burst_refused(self, chan_random):
        v = deterministic_verdict(chan_random, M=3)    # m=2 needs M >= N = 4
        assert v.identifiable_up_to == NOT_IDENTIFIABLE
        assert v.predicted_nullity == -1

    def test_two_subchannel_relaxed_burst(self, chan_random):
        assert deterministic_verdict(chan_random, M=4).identifiable_up_to == SCALE

    def test_degenerate_burst_detected(self, chan_random):
        A = np.zeros(23)
        A[0] = 1.0  # single excitation mode is nowhere near enough
        v = deterministic_verdict(chan_random, M=20, A=A)
        assert v.identifiable_up_to == NOT_IDENTIFIABLE


class TestGaussianVerdict:
    CFG = GaussianModelConfig(M=12)

    def test_clean_complex_phase_only(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        v = gaussian_verdict(ch, self.CFG)
        assert v.identifiable_up_to == PHASE
        assert v.predicted_nullity == 1

    def test_clean_real_sign_only(self, chan_random):
        v = gaussian_verdict(chan_random, self.CFG)
        assert v.identifiable_up_to == SIGN
        assert v.predicted_nullity == 0

    def test_real_pair_one_singularity(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, 2.0], REAL)
        v = gaussian_verdict(ch, self.CFG)
        assert v.predicted_nullity == 1
        assert v.identifiable_up_to == NOT_IDENTIFIABLE

    def test_complex_pair_three_singularities(self, rng):
        z0 = 0.5 + 0.5j
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [z0, 1 / np.conj(z0)], COMPLEX)
        v = gaussian_verdict(ch, self.CFG)
        assert v.predicted_nullity == 3

    def test_unit_zero_adds_one(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], REAL)
        assert gaussian_verdict(ch, self.CFG).predicted_nullity == 1
        chc, _, _ = channel_with_common_roots(rng, 2, 3, [1.0], COMPLEX)
        assert gaussian_verdict(chc, self.CFG).predicted_nullity == 2

    def test_monochannel_noise_variance(self):
        ch = Channel(np.poly([0.5, -0.3])[None, :], field=REAL)
        v = gaussian_verdict(ch, GaussianModelConfig(M=10))
        assert v.predicted_nullity == 1
        assert any("noise variance" in r for r in v.reasons)

    def test_monochannel_with_pair_suppresses_noise_singularity(self):
        ch = Channel(np.poly([0.5, 2.0, 0.3])[None, :], field=REAL)
        v = gaussian_verdict(ch, GaussianModelConfig(M=10))
        assert v.predicted_nullity == 1   # the pair only; no sigma_v^2 direction

    def test_short_burst_indeterminate(self, chan_random):
        v = gaussian_verdict(chan_random, GaussianModelConfig(M=2))
        assert v.identifiable_up_to == INDETERMINATE

    def test_unit_circle_zero_indeterminate(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [np.exp(0.9j)], COMPLEX)
        v = gaussian_verdict(ch, GaussianModelConfig(M=12))
        assert v.identifiable_up_to == INDETERMINATE


class TestVerdictVsFim:
    def test_deterministic_cells_agree(self, rng):
        for field in (REAL, COMPLEX):
            for k in range(20):
                ch = random_channel(rng, 2, 4, field)
                A = random_burst(rng, 23, field)
                v = deterministic_verdict(ch, M=20, A=A)
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
                gaussian_verdict(ch, cfg),
                analyze_singularities(gaussian_fim(ch, cfg)),
            )
            assert rec.passed, rec.detail
        for k in range(20):
            ch = random_channel(rng, 2, 4, COMPLEX)
            rec = verdict_vs_fim(
                gaussian_verdict(ch, cfg),
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
            gaussian_verdict(ch, cfg),
            analyze_singularities(gaussian_fim(ch, cfg)),
        )
        assert rec.passed, rec.detail

    def test_monochannel_agrees(self):
        cfg = GaussianModelConfig(M=10)
        ch = Channel(np.poly([0.5, -0.3])[None, :], field=REAL)
        rec = verdict_vs_fim(
            gaussian_verdict(ch, cfg),
            analyze_singularities(gaussian_fim(ch, cfg)),
        )
        assert rec.passed, rec.detail

    def test_reduced_comparison_flag(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        v = deterministic_verdict(ch, M=20)
        rep = analyze_singularities(deterministic_reduced_fim(ch, A, 1.0, 20))
        rec = verdict_vs_fim(v, rep, reduced=True)
        assert rec.passed and rec.predicted == 2

    def test_mismatch_reports_detail(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        v = deterministic_verdict(chan_random, M=20)
        rep = analyze_singularities(np.eye(5))   # nullity 0, wrong on purpose
        rec = verdict_vs_fim(v, rep)
        assert not rec.passed
        assert "predicted 1" in rec.detail
