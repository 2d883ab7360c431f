"""Constraint sets and constrained CRBs: formula equivalences and minimality."""

import numpy as np
import pytest

from blindcrb.channel import COMPLEX, REAL, Channel, reducible_decompose
from blindcrb.crb import (
    constrained_crb,
    known_coeff_constraint,
    linear_constraint,
    norm_constraint,
    parse_constraint,
    phase_constraint,
    reducible_constraints,
)
from blindcrb.fim import (
    GaussianModelConfig,
    channel_block,
    deterministic_reduced_fim,
    gaussian_fim,
    schur_reduce,
)
from blindcrb.linalg import (
    hermitian_nullity,
    null_space_basis,
    realify_vector,
)

from conftest import channel_with_common_roots, random_burst, random_channel
from oracles import constrained_crb_projector_form, projector, svd_pseudo_inverse


def _rank_deficient_psd(rng, n, rank):
    B = rng.standard_normal((n, rank))
    return B @ B.T


def _random_orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


class TestConstraintBuilders:
    def test_norm_real_gradient(self):
        K = norm_constraint(np.array([1.0, 0.0]))
        assert K.shape == (2, 1)
        np.testing.assert_allclose(K, [[2.0], [0.0]])

    def test_norm_complex_scalar_columns(self):
        K = norm_constraint(np.array([1.0 + 0.0j]))
        assert K.shape == (2, 2)
        np.testing.assert_allclose(K, [[2.0, 0.0], [0.0, 1.0]])

    def test_norm_tangent_orthogonality(self, chan_random):
        h = chan_random.coeffs.astype(complex).ravel(order="F")
        K = norm_constraint(h, field=COMPLEX)
        V = null_space_basis(K.conj().T)
        assert V.shape == (K.shape[0], K.shape[0] - 2)
        assert np.linalg.norm(V.conj().T @ K) < 1e-10

    def test_norm_rejects_zero(self):
        with pytest.raises(ValueError):
            norm_constraint(np.zeros(3))

    def test_known_coeff_real(self):
        K = known_coeff_constraint(np.ones(3), 0, REAL)
        np.testing.assert_allclose(K, [[1.0], [0.0], [0.0]])

    def test_known_coeff_complex_two_columns(self):
        want = np.zeros((4, 2))
        want[1, 0] = 1.0
        want[3, 1] = 1.0
        np.testing.assert_allclose(known_coeff_constraint(np.ones(2, dtype=complex), 1, COMPLEX),
                                   want)

    def test_known_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            known_coeff_constraint(np.ones(3), 3, REAL)

    def test_linear_full_knowledge_zero_crb(self, rng):
        J = _rank_deficient_psd(rng, 4, 2)
        res = constrained_crb(J, linear_constraint(np.eye(4)))
        assert res.trace == pytest.approx(0.0, abs=1e-12)
        assert res.bounded

    def test_linear_dependent_columns_ignored(self, rng):
        # a redundant column leaves the tangent space, and so the bound, as
        # the independent column alone gives it
        J = _rank_deficient_psd(rng, 4, 3)
        c = rng.standard_normal(4)
        res_dep = constrained_crb(J, linear_constraint(np.column_stack([c, 2 * c])))
        res_one = constrained_crb(J, linear_constraint(c[:, None]))
        assert res_dep.bounded and res_one.bounded
        np.testing.assert_allclose(res_dep.crb, res_one.crb,
                                   atol=1e-10 * np.linalg.norm(res_one.crb))


class TestConstrainedCrb:
    def test_unconstrained_limit_is_inverse(self, rng):
        X = rng.standard_normal((4, 4))
        J = X @ X.T + 4 * np.eye(4)
        res = constrained_crb(J, np.zeros((4, 0)))
        np.testing.assert_allclose(res.crb, np.linalg.inv(J), atol=1e-10)
        assert res.bounded

    def test_linear_spanning_null_space_gives_pinv(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        null = null_space_basis(J)
        res = constrained_crb(J, linear_constraint(null))
        np.testing.assert_allclose(res.crb, svd_pseudo_inverse(J),
                                   atol=1e-9 * np.linalg.norm(svd_pseudo_inverse(J)))

    def test_jacobian_orthogonal_to_null_space_unbounded(self, rng):
        # constraints that never touch the unidentifiable directions fail to
        # regularize: V^T J V stays singular
        J = _rank_deficient_psd(rng, 6, 4)
        null = null_space_basis(J)
        rng_basis = null_space_basis(null.T)   # orthogonal complement = range(J)
        K = rng_basis[:, :2]
        res = constrained_crb(J, K)
        assert not res.bounded

    def test_three_formula_equivalence(self, rng):
        # orthonormal-basis form == spanning-matrix form == projector form
        for _ in range(3):
            J = _rank_deficient_psd(rng, 6, 4) + 0.0
            K = rng.standard_normal((6, 2))
            res = constrained_crb(J, K)
            assert res.bounded
            V = null_space_basis(K.T)
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
        np.testing.assert_allclose(out, svd_pseudo_inverse(J),
                                   atol=1e-10 * np.linalg.norm(out))

    def test_projector_form_reduces_to_pinv_sandwich(self, rng):
        J = _rank_deficient_psd(rng, 5, 3)
        V = null_space_basis(null_space_basis(J).T)  # orthonormal range of J
        P = projector(V)
        out = constrained_crb_projector_form(J, P)
        want = svd_pseudo_inverse(P @ J @ P)
        np.testing.assert_allclose(out, want, atol=1e-9 * np.linalg.norm(want))

    def test_tangent_basis_invariance(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        K = rng.standard_normal((6, 2))
        Q = _random_orthogonal(rng, K.shape[1])
        res1 = constrained_crb(J, K)
        res2 = constrained_crb(J, K @ Q)
        np.testing.assert_allclose(res1.crb, res2.crb, atol=1e-10 * np.linalg.norm(res1.crb))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            constrained_crb(np.eye(4), np.ones((3, 1)))
        with pytest.raises(ValueError):
            constrained_crb(np.eye(4), np.ones(4))


class TestMinimality:
    def test_regular_fim_gives_inverse(self, rng):
        X = rng.standard_normal((4, 4))
        J = X @ X.T + 4 * np.eye(4)
        res = constrained_crb(J)
        np.testing.assert_allclose(res.crb, np.linalg.inv(J), atol=1e-10)

    def test_diagonal_rank_deficient(self):
        res = constrained_crb(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(res.crb, np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("nullity", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_minimal_bound_matches_svd_oracle(self, field, nullity, seed):
        # J^+ from the bound's eigendecomposition against the SVD oracle on
        # a PSD J with planted null eigenvalues and one eigenvalue on each
        # side of the SVD cutoff n eps lambda_max: 1e-3 times it is dropped,
        # 1e3 times it is kept. The forward error of J^+ is about
        # n eps cond(J^+) relative, cond(J^+) = 1 / (1e3 n eps) here.
        rng = np.random.default_rng(seed)
        n, eps = 8, np.finfo(np.float64).eps
        X = rng.standard_normal((n, n))
        if field == COMPLEX:
            X = X + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(X)[0]
        cutoff = n * eps
        lam = np.concatenate([np.zeros(nullity), [1e-3 * cutoff, 1e3 * cutoff],
                              rng.uniform(0.1, 1.0, n - nullity - 3), [1.0]])
        J = (Q * lam) @ Q.conj().T
        J = 0.5 * (J + J.conj().T)
        res = constrained_crb(J)
        want = svd_pseudo_inverse(J)
        want = 0.5 * (want + want.conj().T)
        rtol = n * eps / (1e3 * cutoff)       # n eps cond(J^+) = 1e-3
        assert res.bounded
        assert np.linalg.norm(res.crb - want) <= rtol * np.linalg.norm(want)
        assert res.trace == pytest.approx(np.trace(want).real, rel=rtol)

    def test_trace_dominance_over_random_minimal_constraints(self):
        # 50 random minimal independent constraint sets on a 6x6 rank-4 FIM
        rng = np.random.default_rng(5050)
        J = _rank_deficient_psd(rng, 6, 4)
        base = constrained_crb(J).trace
        checked = 0
        while checked < 50:
            K = rng.standard_normal((6, 2))
            res = constrained_crb(J, K)
            if not res.bounded:
                continue
            assert res.trace >= base - 1e-9 * base
            checked += 1

    def test_equality_iff_jacobian_spans_null(self, rng):
        J = _rank_deficient_psd(rng, 6, 4)
        base = constrained_crb(J).trace
        null = null_space_basis(J)
        mix = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        res_eq = constrained_crb(J, null @ mix)
        assert res_eq.trace == pytest.approx(base, rel=1e-9)
        # a generic minimal constraint set is strictly worse
        res_neq = constrained_crb(J, rng.standard_normal((6, 2)))
        assert res_neq.bounded and res_neq.trace > base * (1 + 1e-6)


class TestDeterministicBlindCrb:
    def test_real_norm_constraint_gives_pinv(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        J = deterministic_reduced_fim(chan_random, A, 1.0, 20).J
        res = constrained_crb(J, norm_constraint(chan_random.h, REAL))
        want = svd_pseudo_inverse(J)
        np.testing.assert_allclose(res.crb, want, atol=1e-9 * np.linalg.norm(want))

    def test_complex_norm_phase_gives_pinv_of_realified(self, rng, chan_random):
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        Jr = deterministic_reduced_fim(ch, A, 1.0, 20).realified().J
        res = constrained_crb(Jr, norm_constraint(ch.h, COMPLEX))
        want = svd_pseudo_inverse(Jr)
        np.testing.assert_allclose(res.crb, want, atol=1e-9 * np.linalg.norm(want))
        # the stacked-real trace equals the complex pseudo-inverse trace
        Jc = deterministic_reduced_fim(ch, A, 1.0, 20).J
        assert res.trace == pytest.approx(np.trace(svd_pseudo_inverse(Jc)).real, rel=1e-9)

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
        base = constrained_crb(J).trace
        for i in range(8):
            res = constrained_crb(J, known_coeff_constraint(chan_decaying.h, i, REAL))
            assert res.bounded
            assert res.trace >= base - 1e-9 * base


def _realified_operator(P):
    """``[[Re P, -Im P], [Im P, Re P]]``: complex-linear ``P`` acting on
    stacked real coordinates."""
    return np.block([[P.real, -P.imag], [P.imag, P.real]])


class TestReducibleConstraints:
    def test_ti_constraint_count_is_common_factor_length(self, rng):
        # one complex constraint per common-factor coefficient, two real
        # columns each
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, -0.3], COMPLEX)
        dec = reducible_decompose(ch)
        K = reducible_constraints(dec, "ti")
        assert dec.N_c == 3
        assert K.shape == (2 * ch.m * ch.N, 2 * dec.N_c)

    def test_trivial_factor_single_column_is_channel(self, chan_random):
        dec = reducible_decompose(chan_random)
        K = reducible_constraints(dec, "ti")
        assert K.shape == (chan_random.m * chan_random.N, 1)
        np.testing.assert_allclose(K.ravel(), chan_random.h)

    def test_realified_jacobian_keeps_the_complex_tangent_space(self, rng):
        # null(K_R^T) is the realified null(K^H) of the complex Jacobian
        from blindcrb.channel import ti_matrix

        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, -0.3], COMPLEX)
        dec = reducible_decompose(ch)
        V = null_space_basis(ti_matrix(dec).conj().T)
        VR = null_space_basis(reducible_constraints(dec, "ti").T)
        want = projector(_realified_operator(V))
        assert np.linalg.norm(projector(VR) - want, ord=2) < 1e-10

    def test_ti_constraint_gives_pinv(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        J = channel_block(deterministic_reduced_fim(ch, A, 1.0, 20))
        res = constrained_crb(J, reducible_constraints(dec, "ti"))
        want = svd_pseudo_inverse(J)
        assert res.bounded
        np.testing.assert_allclose(res.crb, want, atol=1e-8 * np.linalg.norm(want))

    def test_projector_variant_rank_and_value(self, rng):
        from blindcrb.channel import tc_matrix

        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        J = channel_block(deterministic_reduced_fim(ch, A, 1.0, 20))
        K = reducible_constraints(dec, "projector")
        # m (N_c - 1) + 1 independent complex constraints, two real columns each
        assert np.linalg.matrix_rank(K) == 2 * (ch.m * (dec.N_c - 1) + 1)
        res = constrained_crb(J, K)
        assert res.bounded
        # equals the projector-sandwich pseudo-inverse, also reachable with
        # the rank-deficient spanning matrix P_{T_c} through the bound form
        P = _realified_operator(projector(tc_matrix(dec)))
        want = svd_pseudo_inverse(P @ J @ P)
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
        J = channel_block(deterministic_reduced_fim(ch, A, 1.0, 20))
        res_ti = constrained_crb(J, reducible_constraints(dec, "ti"))
        res_proj = constrained_crb(J, reducible_constraints(dec, "projector"))
        assert res_proj.trace <= res_ti.trace + 1e-9 * res_ti.trace


class TestGaussianBlindCrb:
    # the Gaussian blind bound is the pseudo-inverse of the channel block of
    # the Gaussian FIM, and on a complex channel also its phase row
    def test_complex_paths_agree(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        cfg = GaussianModelConfig(M=6)
        res = constrained_crb(channel_block(gaussian_fim(ch, cfg)))
        Jred = schur_reduce(gaussian_fim(ch, cfg).realified(), "h")
        assert hermitian_nullity(Jred)[1] == 1
        via_constraint = constrained_crb(Jred, phase_constraint(ch.h))
        assert via_constraint.bounded
        np.testing.assert_allclose(res.crb, via_constraint.crb,
                                   atol=1e-9 * np.linalg.norm(res.crb))

    def test_real_channel_unconstrained_inverse(self, rng, chan_random):
        cfg = GaussianModelConfig(M=8)
        res = constrained_crb(channel_block(gaussian_fim(chan_random, cfg)))
        Jred = schur_reduce(gaussian_fim(chan_random, cfg), "h")
        assert hermitian_nullity(Jred)[1] == 0
        np.testing.assert_allclose(res.crb, np.linalg.inv(Jred),
                                   atol=1e-9 * np.linalg.norm(res.crb))

    def test_conjugate_reciprocal_pair_unbounded(self, rng):
        # the pair adds a null direction beyond the phase: the phase row is
        # unbounded
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5 + 0.5j, 1.0 / (0.5 - 0.5j)],
                                             COMPLEX)
        Jred = channel_block(gaussian_fim(ch, GaussianModelConfig(M=12)))
        assert hermitian_nullity(Jred)[1] > 1
        assert not constrained_crb(Jred, phase_constraint(ch.h)).bounded


class TestParseConstraint:
    def test_minimal_is_none(self):
        assert parse_constraint("minimal", np.ones(3), REAL) is None

    def test_known_parses_index(self):
        K = parse_constraint("known:2", np.ones(4), REAL)
        np.testing.assert_array_equal(K, known_coeff_constraint(np.ones(4), 2, REAL))
        assert K[2, 0] == 1.0

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="grammar"):
            parse_constraint("bogus", np.ones(3), REAL)

    def test_phase_on_real_field_rejected(self):
        with pytest.raises(ValueError):
            parse_constraint("phase", np.ones(3), REAL)
