"""Constraint sets and constrained CRBs: formula equivalences and minimality."""

import numpy as np
import pytest

from blindcrb.channel import COMPLEX, REAL, Channel, reducible_decompose
from blindcrb.crb import (
    ConstraintSet,
    constrained_crb,
    constrained_crb_projector_form,
    gaussian_blind_crb,
    known_coeff_constraint,
    linear_constraint,
    minimal_crb,
    norm_constraint,
    parse_constraint,
    phase_constraint,
    reducible_constraints,
)
from blindcrb.fim import (
    GaussianModelConfig,
    deterministic_reduced_fim,
    gaussian_fim,
    schur_reduce,
)
from blindcrb.linalg import null_space_basis, projector, pseudo_inverse, realify_vector

from conftest import channel_with_common_roots, random_burst, random_channel


def _rank_deficient_psd(rng, n, rank):
    B = rng.standard_normal((n, rank))
    return B @ B.T


def _random_orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


class TestConstraintBuilders:
    def test_norm_real_gradient(self):
        cs = norm_constraint(np.array([1.0, 0.0]))
        np.testing.assert_allclose(cs.jacobian, [[2.0], [0.0]])
        assert cs.kind == "norm"

    def test_norm_complex_scalar_columns(self):
        cs = norm_constraint(np.array([1.0 + 0.0j]))
        np.testing.assert_allclose(cs.jacobian, [[2.0, 0.0], [0.0, 1.0]])
        assert cs.kind == "norm+phase"

    def test_norm_tangent_orthogonality(self, chan_random):
        h = chan_random.coeffs.astype(complex).ravel(order="F")
        cs = norm_constraint(h, field=COMPLEX)
        V = cs.tangent_spanning()
        assert np.linalg.norm(V.conj().T @ cs.jacobian) < 1e-10

    def test_norm_rejects_zero(self):
        with pytest.raises(ValueError):
            norm_constraint(np.zeros(3))

    def test_known_coeff_real(self):
        cs = known_coeff_constraint(np.ones(3), 0, REAL)
        np.testing.assert_allclose(cs.jacobian.ravel(), [1.0, 0.0, 0.0])

    def test_known_coeff_complex_two_columns(self):
        cs = known_coeff_constraint(np.ones(2, dtype=complex), 1, COMPLEX)
        K = np.zeros((4, 2))
        K[1, 0] = 1.0
        K[3, 1] = 1.0
        np.testing.assert_allclose(cs.jacobian, K)

    def test_known_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            known_coeff_constraint(np.ones(3), 3, REAL)

    def test_linear_full_knowledge_zero_crb(self, rng):
        J = _rank_deficient_psd(rng, 4, 2)
        res = constrained_crb(J, linear_constraint(np.eye(4)))
        assert res.trace == pytest.approx(0.0, abs=1e-12)
        assert res.bounded

    def test_linear_dependent_columns_flagged(self, rng):
        c = rng.standard_normal(4)
        cs = linear_constraint(np.column_stack([c, 2 * c]))
        assert "dependent-constraints" in cs.notes

    def test_explicit_tangent_must_be_orthogonal(self, rng):
        K = rng.standard_normal((4, 1))
        with pytest.raises(ValueError):
            ConstraintSet(K, tangent=rng.standard_normal((4, 2)) + K)


class TestConstrainedCrb:
    def test_unconstrained_limit_is_inverse(self, rng):
        X = rng.standard_normal((4, 4))
        J = X @ X.T + 4 * np.eye(4)
        cs = ConstraintSet(np.zeros((4, 0)), tangent=np.eye(4))
        res = constrained_crb(J, cs)
        np.testing.assert_allclose(res.crb, np.linalg.inv(J), atol=1e-10)
        assert res.bounded

    def test_linear_spanning_null_space_gives_pinv(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        null = null_space_basis(J)
        res = constrained_crb(J, linear_constraint(null))
        np.testing.assert_allclose(res.crb, pseudo_inverse(J),
                                   atol=1e-9 * np.linalg.norm(pseudo_inverse(J)))

    def test_jacobian_orthogonal_to_null_space_unbounded(self, rng):
        # constraints that never touch the unidentifiable directions fail to
        # regularize: V^T J V stays singular
        J = _rank_deficient_psd(rng, 6, 4)
        null = null_space_basis(J)
        rng_basis = null_space_basis(null.T)   # orthogonal complement = range(J)
        K = rng_basis[:, :2]
        res = constrained_crb(J, ConstraintSet(K, kind="bad"))
        assert not res.bounded
        assert "unbounded-directions" in res.notes

    def test_three_formula_equivalence(self, rng):
        # orthonormal-basis form == spanning-matrix form == projector form
        for _ in range(3):
            J = _rank_deficient_psd(rng, 6, 4) + 0.0
            K = rng.standard_normal((6, 2))
            cs = ConstraintSet(K)
            res = constrained_crb(J, cs)
            assert res.bounded
            V = cs.tangent_spanning()
            k = V.shape[1]
            mixed = V @ np.hstack([np.eye(k), rng.standard_normal((k, 2))])
            via_A = constrained_crb_projector_form(J, mixed)
            via_P = constrained_crb_projector_form(J, projector(V))
            scale = np.linalg.norm(res.crb)
            assert np.linalg.norm(via_A - res.crb) < 1e-9 * scale
            assert np.linalg.norm(via_P - res.crb) < 1e-9 * scale

    def test_projector_form_identity_spanning_gives_pinv(self, rng):
        J = _rank_deficient_psd(rng, 5, 3)
        out = constrained_crb_projector_form(J, np.eye(5))
        np.testing.assert_allclose(out, pseudo_inverse(J),
                                   atol=1e-10 * np.linalg.norm(out))

    def test_projector_form_reduces_to_pinv_sandwich(self, rng):
        J = _rank_deficient_psd(rng, 5, 3)
        V = null_space_basis(null_space_basis(J).T)  # orthonormal range of J
        P = projector(V)
        out = constrained_crb_projector_form(J, P)
        want = pseudo_inverse(P @ J @ P)
        np.testing.assert_allclose(out, want, atol=1e-9 * np.linalg.norm(want))

    def test_tangent_basis_invariance(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        K = rng.standard_normal((6, 2))
        base = null_space_basis(K.T)
        Q = _random_orthogonal(rng, base.shape[1])
        res1 = constrained_crb(J, ConstraintSet(K, tangent=base))
        res2 = constrained_crb(J, ConstraintSet(K, tangent=base @ Q))
        np.testing.assert_allclose(res1.crb, res2.crb, atol=1e-10 * np.linalg.norm(res1.crb))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            constrained_crb(np.eye(4), ConstraintSet(np.ones((3, 1))))


class TestMinimality:
    def test_regular_fim_gives_inverse(self, rng):
        X = rng.standard_normal((4, 4))
        J = X @ X.T + 4 * np.eye(4)
        res = minimal_crb(J)
        np.testing.assert_allclose(res.crb, np.linalg.inv(J), atol=1e-10)

    def test_diagonal_rank_deficient(self):
        res = minimal_crb(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(res.crb, np.diag([1.0, 0.0]), atol=1e-14)

    def test_trace_dominance_over_random_minimal_constraints(self):
        # 50 random minimal independent constraint sets on a 6x6 rank-4 FIM
        rng = np.random.default_rng(5050)
        J = _rank_deficient_psd(rng, 6, 4)
        base = minimal_crb(J).trace
        checked = 0
        while checked < 50:
            K = rng.standard_normal((6, 2))
            res = constrained_crb(J, ConstraintSet(K))
            if not res.bounded:
                continue
            assert res.trace >= base - 1e-9 * base
            checked += 1

    def test_equality_iff_jacobian_spans_null(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        base = minimal_crb(J).trace
        null = null_space_basis(J)
        mix = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        res_eq = constrained_crb(J, ConstraintSet(null @ mix))
        assert res_eq.trace == pytest.approx(base, rel=1e-9)
        # a generic minimal constraint set is strictly worse
        res_neq = constrained_crb(J, ConstraintSet(rng.standard_normal((6, 2))))
        assert res_neq.bounded and res_neq.trace > base * (1 + 1e-6)


class TestDeterministicBlindCrb:
    def test_real_norm_constraint_gives_pinv(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        J = deterministic_reduced_fim(chan_random, A, 1.0, 20).J
        res = constrained_crb(J, norm_constraint(chan_random.h, REAL))
        want = pseudo_inverse(J)
        np.testing.assert_allclose(res.crb, want, atol=1e-9 * np.linalg.norm(want))

    def test_complex_norm_phase_gives_pinv_of_realified(self, rng, chan_random):
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        Jr = deterministic_reduced_fim(ch, A, 1.0, 20).realified().J
        res = constrained_crb(Jr, norm_constraint(ch.h, COMPLEX))
        want = pseudo_inverse(Jr)
        np.testing.assert_allclose(res.crb, want, atol=1e-9 * np.linalg.norm(want))
        # the stacked-real trace equals the complex pseudo-inverse trace
        Jc = deterministic_reduced_fim(ch, A, 1.0, 20).J
        assert res.trace == pytest.approx(np.trace(pseudo_inverse(Jc)).real, rel=1e-9)

    def test_linear_inner_product_constraint_equivalent(self, rng, chan_random):
        # h0^H h = h0^H h0 pins the same tangent space as norm+phase
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        Jr = deterministic_reduced_fim(ch, A, 1.0, 20).realified().J
        h = ch.h
        K = np.column_stack([realify_vector(h), np.concatenate([-h.imag, h.real])])
        res_lin = constrained_crb(Jr, linear_constraint(K))
        res_np = constrained_crb(Jr, norm_constraint(h, COMPLEX))
        np.testing.assert_allclose(res_lin.crb, res_np.crb,
                                   atol=1e-9 * np.linalg.norm(res_np.crb))

    def test_known_coefficient_bounded_and_dominated(self, rng, chan_decaying):
        A = random_burst(rng, 23, REAL)
        J = deterministic_reduced_fim(chan_decaying, A, 1.0, 20).J
        base = minimal_crb(J).trace
        for i in range(8):
            res = constrained_crb(J, known_coeff_constraint(chan_decaying.h, i, REAL))
            assert res.bounded
            assert res.trace >= base - 1e-9 * base


class TestReducibleConstraints:
    def test_ti_constraint_count_is_common_factor_length(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, -0.3], COMPLEX)
        dec = reducible_decompose(ch)
        cs = reducible_constraints(dec, "ti")
        assert cs.n_constraints == dec.N_c == 3

    def test_trivial_factor_single_column_is_channel(self, chan_random):
        dec = reducible_decompose(chan_random)
        cs = reducible_constraints(dec, "ti")
        assert cs.n_constraints == 1
        np.testing.assert_allclose(cs.jacobian.ravel(), chan_random.h)

    def test_ti_constraint_gives_pinv(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        J = deterministic_reduced_fim(ch, A, 1.0, 20).J
        res = constrained_crb(J, reducible_constraints(dec, "ti"))
        want = pseudo_inverse(J)
        assert res.bounded
        np.testing.assert_allclose(res.crb, want, atol=1e-8 * np.linalg.norm(want))

    def test_projector_variant_rank_and_value(self, rng):
        from blindcrb.channel import tc_matrix

        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        J = deterministic_reduced_fim(ch, A, 1.0, 20).J
        cs = reducible_constraints(dec, "projector")
        # m (N_c - 1) + 1 independent constraints
        assert np.linalg.matrix_rank(cs.jacobian) == ch.m * (dec.N_c - 1) + 1
        res = constrained_crb(J, cs)
        assert res.bounded
        # equals the projector-sandwich pseudo-inverse, also reachable with
        # the rank-deficient spanning matrix P_{T_c} through the bound form
        P = projector(tc_matrix(dec))
        want = pseudo_inverse(P @ J @ P)
        np.testing.assert_allclose(res.crb, want, atol=1e-8 * np.linalg.norm(want))
        via_form = constrained_crb_projector_form(J, P)
        np.testing.assert_allclose(via_form, want, atol=1e-8 * np.linalg.norm(want))

    def test_projector_variant_typically_smaller_trace(self):
        # typical-case ordering (not universal: the two tangent spaces are
        # not nested, and random instances exist either way); this fixed
        # instance shows the extra prior information paying off
        rng = np.random.default_rng(0)
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        J = deterministic_reduced_fim(ch, A, 1.0, 20).J
        res_ti = constrained_crb(J, reducible_constraints(dec, "ti"))
        res_proj = constrained_crb(J, reducible_constraints(dec, "projector"))
        assert res_proj.trace <= res_ti.trace + 1e-9 * res_ti.trace


class TestGaussianBlindCrb:
    def test_complex_paths_agree(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        cfg = GaussianModelConfig(M=6)
        res = gaussian_blind_crb(ch, cfg)
        assert res.bounded and res.kind == "phase"
        fim = gaussian_fim(ch, cfg).realified()
        Jred = schur_reduce(fim, "h")
        via_constraint = constrained_crb(Jred, phase_constraint(ch.h))
        np.testing.assert_allclose(res.crb, via_constraint.crb,
                                   atol=1e-9 * np.linalg.norm(res.crb))

    def test_real_channel_unconstrained_inverse(self, rng, chan_random):
        cfg = GaussianModelConfig(M=8)
        res = gaussian_blind_crb(chan_random, cfg)
        fim = gaussian_fim(chan_random, cfg)
        Jred = schur_reduce(fim, "h")
        assert res.bounded and res.kind == "none"
        np.testing.assert_allclose(res.crb, np.linalg.inv(Jred),
                                   atol=1e-9 * np.linalg.norm(res.crb))

    def test_conjugate_reciprocal_pair_unbounded(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5 + 0.5j, 1.0 / (0.5 - 0.5j)],
                                             COMPLEX)
        res = gaussian_blind_crb(ch, GaussianModelConfig(M=12))
        assert not res.bounded
        assert any(n.startswith("extra-singular") for n in res.notes)


class TestParseConstraint:
    def test_minimal_is_none(self):
        assert parse_constraint("minimal", np.ones(3), REAL) is None

    def test_known_parses_index(self):
        cs = parse_constraint("known:2", np.ones(4), REAL)
        assert cs.kind == "known:2"

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="grammar"):
            parse_constraint("bogus", np.ones(3), REAL)

    def test_phase_on_real_field_rejected(self):
        with pytest.raises(ValueError):
            parse_constraint("phase", np.ones(3), REAL)
