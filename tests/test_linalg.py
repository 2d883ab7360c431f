"""Pseudo-inverse, projector, null-space, and realification primitives."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from blindcrb import linalg
from blindcrb.channel import block_toeplitz, toeplitz_gram_band, toeplitz_staircase_qr
from blindcrb.linalg import (
    bordered_band_rank,
    cholesky_solve,
    eigenvalue_rank,
    min_norm_solve,
    null_space_basis,
    numerical_rank,
    principal_angle,
    realify_fim,
    realify_vector,
    triangular_rank_reveal,
)

from conftest import from_upper_band, random_burst, upper_band
from oracles import (
    SingularFimError,
    complexify_vector,
    projector,
    real_complex_map,
    subspace_distance,
    svd_pseudo_inverse,
    trace_crb_complex,
)


def _random_matrix(rng, rows, cols, rank=None, complex_=False):
    r = min(rows, cols) if rank is None else rank
    A = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
    if complex_:
        A = A + 1j * (rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)))
    return A


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(svd_pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_all_zeros(self):
        P = svd_pseudo_inverse(np.zeros((2, 3)))
        assert P.shape == (3, 2)
        assert np.all(P == 0)

    def test_rank2_symmetric_reconstruction(self, rng):
        B = rng.standard_normal((5, 2))
        A = B @ B.T
        Ap = svd_pseudo_inverse(A)
        assert np.linalg.norm(A @ Ap @ A - A) / np.linalg.norm(A) < 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd_pseudo_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        complex_=st.booleans(),
    )
    @settings(max_examples=60)
    def test_moore_penrose_identities(self, rows, cols, seed, complex_):
        rng = np.random.default_rng(seed)
        rank = rng.integers(1, min(rows, cols) + 1)
        A = _random_matrix(rng, rows, cols, rank=int(rank), complex_=complex_)
        Ap = svd_pseudo_inverse(A)
        nrm = max(np.linalg.norm(A), 1e-300)
        assert np.linalg.norm(A @ Ap @ A - A) / nrm < 1e-10
        assert np.linalg.norm(Ap @ A @ Ap - Ap) / max(np.linalg.norm(Ap), 1e-300) < 1e-10
        AAp = A @ Ap
        ApA = Ap @ A
        assert np.linalg.norm(AAp - AAp.conj().T) < 1e-10 * max(1.0, np.linalg.norm(AAp))
        assert np.linalg.norm(ApA - ApA.conj().T) < 1e-10 * max(1.0, np.linalg.norm(ApA))

    def test_preserves_dtype(self, rng):
        A = rng.standard_normal((4, 3))
        assert not np.iscomplexobj(svd_pseudo_inverse(A))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_eigendecomposition_form_matches_svd(self, rng, complex_):
        # the library forms F^+ from eigh(F), applying the SVD rule to |w|:
        # an indefinite Hermitian F of rank 3 gives the SVD oracle's F^+
        B = _random_matrix(rng, 6, 3, complex_=complex_)
        F = B @ np.diag([2.0, -1.0, 0.5]) @ B.conj().T
        F = 0.5 * (F + F.conj().T)
        got = linalg.pseudo_inverse(*np.linalg.eigh(F))
        want = svd_pseudo_inverse(F)
        assert np.iscomplexobj(got) == complex_
        np.testing.assert_allclose(got, want, atol=1e-10 * np.linalg.norm(want))
        np.testing.assert_array_equal(linalg.pseudo_inverse(np.zeros(3), np.eye(3)),
                                      np.zeros((3, 3)))


class TestProjector:
    # the oracles' projector, the reference for span comparisons in the suite
    def test_unit_vector(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(projector(e1), np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_invertible_square(self, rng):
        X = rng.standard_normal((4, 4)) + np.eye(4) * 3
        np.testing.assert_allclose(projector(X), np.eye(4), atol=1e-10)

    def test_rank_deficient_algebra(self, rng):
        B = rng.standard_normal((6, 2))
        X = np.hstack([B, B @ rng.standard_normal((2, 2))])  # rank 2, 4 columns
        P = projector(X)
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P - P.conj().T) < 1e-10
        assert np.linalg.norm(P @ X - X) < 1e-10 * np.linalg.norm(X)

    def test_complement_sums_to_identity(self, rng):
        # the null space of X^H spans the orthogonal complement of range(X)
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        P = projector(X)
        Q = null_space_basis(X.conj().T)
        Pp = Q @ Q.conj().T
        np.testing.assert_allclose(P + Pp, np.eye(5), atol=1e-13)
        assert np.linalg.norm(P @ Pp) < 1e-12


class TestNullSpace:
    def test_identity_has_trivial_null(self):
        assert null_space_basis(np.eye(4)).shape == (4, 0)

    def test_zero_matrix_full_null(self):
        B = null_space_basis(np.zeros((3, 3)))
        np.testing.assert_allclose(B @ B.conj().T, np.eye(3), atol=1e-14)

    def test_rank_one_outer_product(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        B = null_space_basis(np.outer(v, v.conj()))
        assert B.shape == (4, 3)
        assert np.linalg.norm(B.conj().T @ v) < 1e-10
        np.testing.assert_allclose(B.conj().T @ B, np.eye(3), atol=1e-12)


class TestSolves:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("rows, cols, rank", [(7, 4, 4), (7, 4, 2), (3, 5, 3)])
    def test_min_norm_solve_is_pinv_solution(self, rng, rows, cols, rank, complex_):
        A = _random_matrix(rng, rows, rank, complex_=complex_) \
            @ _random_matrix(rng, rank, cols, complex_=complex_)
        B = rng.standard_normal((rows, 2))
        X, r = min_norm_solve(A, B)
        assert r == rank
        np.testing.assert_allclose(X, svd_pseudo_inverse(A) @ B, atol=1e-10)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_cholesky_solve_equals_scipy(self, rng, complex_):
        # the LAPACK routines are the ones scipy's wrappers call, so the
        # solutions are bitwise equal: a dense Gram as the full band
        # (bandwidth n - 1), and a Gram of bandwidth 2
        D = _random_matrix(rng, 9, 5, complex_=complex_)
        G, b = D.conj().T @ D, D.conj().T @ rng.standard_normal((9, 2))
        for kd in (4, 2):
            band = upper_band(G, kd)
            want = sla.cho_solve_banded((sla.cholesky_banded(band), False), b)
            X, regular = cholesky_solve(band, b[None])
            np.testing.assert_array_equal(X[0], want)
            assert list(regular) == [True]
        banded_G = np.triu(np.tril(G, 2), -2)
        np.testing.assert_allclose(banded_G @ X[0], b, atol=1e-10)

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_cholesky_solve_refuses_singular_gram(self, rng, eps):
        # a rank-deficient Gram, and one that factors but whose squared
        # pivot ratio (~1e-12) is below DEFAULT_RANK_TOL
        D = _random_matrix(rng, 8, 4, rank=3)
        D[:, 3] += eps * rng.standard_normal(8)
        _, regular = cholesky_solve(upper_band(D.T @ D), np.ones((1, 4, 1)))
        assert list(regular) == [False]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_cholesky_solve_stack_has_a_verdict_per_block(self, rng, complex_):
        # blocks end to end in one band: regular ones, ones whose factor fails
        # (a zero column leaves a zero pivot), one that factors with a squared
        # pivot ratio near 1e-10, below DEFAULT_RANK_TOL. The regular blocks
        # get exactly the solution they get alone, wherever the failures sit
        n, kd = 6, 2

        def block(kind):
            D = np.triu(np.tril(_random_matrix(rng, n, n, complex_=complex_), kd))
            if kind == "fails":
                D[:, 3] = 0.0
            elif kind == "tiny":
                D[:, 3] *= 1e-5
            return upper_band(D.conj().T @ D, kd)

        kinds = ["regular", "fails", "regular", "tiny", "regular", "fails"]
        bands = [block(k) for k in kinds]
        rhs = _random_matrix(rng, len(kinds) * n, 2, complex_=complex_).reshape(-1, n, 2)
        for order in (slice(None), slice(None, None, -1)):
            ks, bs, bs_rhs = kinds[order], bands[order], rhs[order]
            X, regular = cholesky_solve(np.hstack(bs), bs_rhs)
            assert list(regular) == [k == "regular" for k in ks]
            for k, b, r, x in zip(ks, bs, bs_rhs, X):
                alone, alone_regular = cholesky_solve(b, r[None])
                assert list(alone_regular) == [k == "regular"]
                if k == "regular":
                    np.testing.assert_array_equal(x, alone[0])


def _reveal(R, k, rows=None):
    """:func:`triangular_rank_reveal` of a dense upper-triangular ``R``."""
    return triangular_rank_reveal(upper_band(R), k, upper_band(R.conj().T @ R), rows=rows)


class TestTriangularRankReveal:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("nullity", [0, 1, 2, 3])
    def test_matches_svd(self, rng, complex_, nullity):
        # planted nullity 0 .. k - 1: the rank of the SVD rule on the factored
        # matrix, R's dropped singular values and left singular subspace, and
        # Ritz values no smaller than R's k smallest singular values
        n, k, rows = 30, 4, 33
        A = _random_matrix(rng, rows, n - nullity, complex_=complex_) \
            @ _random_matrix(rng, n - nullity, n, complex_=complex_)
        R = np.linalg.qr(A, mode="r")
        rank, s, U = _reveal(R, k, rows)
        assert rank == numerical_rank(A) == n - nullity
        P, sv, _ = np.linalg.svd(R)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(k), atol=1e-12)
        assert np.all(s[:nullity] <= 1e-13 * sv[0])
        assert np.all(s[nullity:] >= sv[::-1][nullity:k] * (1 - 1e-12))
        if nullity:
            assert subspace_distance(U[:, :nullity], P[:, n - nullity:]) < 1e-8

    @pytest.mark.parametrize("complex_", [False, True])
    def test_exact_zero_pivots(self, rng, complex_):
        # the solves run on pivots raised to eps * s_max; the rank is still
        # the SVD rule's. Column 4 lies in the span of columns 0..3, and
        # column 11 (a random vector in rows 0..10) generically not in that
        # of columns 0..10: two zero pivots, one null direction
        n = 20
        R = np.triu(_random_matrix(rng, n, n, complex_=complex_))
        R[[4, 11], [4, 11]] = 0.0
        rank, s, _ = _reveal(R, 3)
        assert rank == numerical_rank(R) == n - 1
        assert s[0] <= 1e-13 * np.linalg.norm(R, 2) < s[1]

    @pytest.mark.parametrize("taps, M, nullity", [
        ([[-2.0, 3.0, -1.0, 0.0], [-6.0, 1.0, 1.0, 0.0]], 39, 2),
        ([[6.0, -3.0, 0.0], [-2.0, 1.0, 0.0]], 31, 2),
    ])
    def test_integer_channel_with_common_root(self, taps, M, nullity):
        # integer taps sharing the root 0.5 (and 0): here the staircase QR of
        # T(h) meets exactly zero pivots
        taps = np.array(taps)
        T = block_toeplitz(taps, M)
        R, _, _ = toeplitz_staircase_qr(taps, np.zeros((T.shape[0], 1)))
        rank, s, _ = triangular_rank_reveal(R, taps.shape[1], toeplitz_gram_band(taps, M),
                                            rows=T.shape[0])
        assert rank == numerical_rank(T) == T.shape[1] - nullity

    @pytest.mark.parametrize("c, nullity", [(1.25, 0), (0.93, 1)])
    def test_cutoff_inside_the_bracket(self, monkeypatch, rng, c, nullity):
        # a singular value c times the cutoff lies between the cutoffs of the
        # s_max bracket (largest column norm, Gershgorin bound: 0.85 and 1.44
        # times s_max here), so the exact s_max decides, as in the SVD rule;
        # 330 rows put the cutoff ~1e3 eps s_max above the roundoff of the
        # small singular value
        n, rows = 30, 330
        Q1 = np.linalg.qr(rng.standard_normal((rows, n)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sv = np.linspace(3.0, 1.0, n)
        sv[-1] = c * rows * np.finfo(float).eps * sv[0]
        A = (Q1 * sv) @ Q2.T
        exact, lookup = [], linalg._lapack_funcs

        def gateway(names, dtype=None):
            # the SciPy gateway, with eigvals_banded counting its calls
            funcs = lookup(names, dtype)
            if names != ("eigvals_banded",):
                return funcs

            def eigvals_banded(*args, **kwargs):
                exact.append(True)
                return funcs[0](*args, **kwargs)
            return (eigvals_banded,)

        monkeypatch.setattr(linalg, "_lapack_funcs", gateway)
        rank, _, _ = _reveal(np.linalg.qr(A, mode="r"), 3, rows)
        assert exact == [True]
        assert rank == numerical_rank(A) == n - nullity

    def test_repeat_calls_are_bitwise_equal(self, rng):
        A = _random_matrix(rng, 12, 8, complex_=True) @ _random_matrix(rng, 8, 10, complex_=True)
        R = np.linalg.qr(A, mode="r")
        first, again = _reveal(R, 3), _reveal(R, 3)
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1], again[1])
        np.testing.assert_array_equal(first[2], again[2])


def _bordered(band, X, C):
    """The dense ``[[B, X], [X^H, C]]`` of a Hermitian ``B`` in upper band storage."""
    U = from_upper_band(band)
    B = U + U.conj().T - np.diag(U.diagonal())
    return np.block([[B, X], [X.conj().T, C]])


class TestBorderedBandRank:
    def test_zero_matrix_is_all_null(self):
        assert bordered_band_rank(np.zeros((2, 5)), np.zeros((5, 3)), np.zeros((3, 3))) == (0, 8)

    def test_eigenvalue_on_the_threshold_counts_as_null(self):
        # diag(1, 1e-8, 0.5 | 1e-8): two eigenvalues sit exactly on tol lambda_max,
        # inside the windows, so the dense rule (<= threshold) decides
        band = np.array([[1.0, 1e-8, 0.5]])
        got = bordered_band_rank(band, np.zeros((3, 1)), np.array([[1e-8]]), tol=1e-8)
        assert got == (2, 2)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4, 1e-1])
    def test_equals_the_dense_count(self, rng, complex_, tol):
        # G = D^H D with D = [T | E]: B = T^H T banded, singular when the
        # taps share a root; E's last column lies in the range of T
        field = "complex" if complex_ else "real"
        for taps in (random_burst(rng, 8, field).reshape(2, 4),
                     np.array([np.convolve(random_burst(rng, 2, field), [1.0, -0.5])
                               for _ in range(2)])):
            T = block_toeplitz(taps, 30)
            E = random_burst(rng, T.shape[0] * 4, field).reshape(-1, 4)
            E[:, -1] = T @ random_burst(rng, T.shape[1], field)
            band = toeplitz_gram_band(taps, 30)
            X, C = T.conj().T @ E, E.conj().T @ E
            want = eigenvalue_rank(np.linalg.eigvalsh(_bordered(band, X, C)), tol)
            assert bordered_band_rank(band, X, C, tol) == want


def _consistent_pair(rng, n, psd=True):
    """A (J, J_cross) pair consistent with a real symmetric representation."""
    X = rng.standard_normal((2 * n, 2 * n))
    F = X @ X.T if psd else X + X.T
    J11, J12 = F[:n, :n], F[:n, n:]
    J21, J22 = F[n:, :n], F[n:, n:]
    J = 0.25 * ((J11 + J22) + 1j * (J21 - J12))
    Jc = 0.25 * ((J11 - J22) + 1j * (J21 + J12))
    return F, J, Jc


class TestRealify:
    def test_vector_roundtrip(self, rng):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        np.testing.assert_allclose(complexify_vector(realify_vector(z)), z)

    def test_scalar_identity_example(self):
        np.testing.assert_allclose(realify_fim(np.eye(1), np.zeros((1, 1))), 2 * np.eye(2))

    def test_map_is_scaled_unitary(self):
        M = real_complex_map(4)
        np.testing.assert_allclose(M @ M.conj().T, 0.5 * np.eye(8), atol=1e-14)

    def test_roundtrip_from_real_representation(self, rng):
        F, J, Jc = _consistent_pair(rng, 4)
        np.testing.assert_allclose(realify_fim(J, Jc), F, atol=1e-12)

    def test_block_assembly_oracle(self, rng):
        # realified FIM equals the scaled congruence of the stacked
        # [[J, Jc], [Jc*, J*]] block matrix by the real/complex map
        _, J, Jc = _consistent_pair(rng, 3)
        M = real_complex_map(3)
        B = np.block([[J, Jc], [Jc.conj(), J.conj()]])
        oracle = 4.0 * (M @ B @ M.conj().T)
        assert np.linalg.norm(oracle.imag) < 1e-12 * np.linalg.norm(oracle.real)
        np.testing.assert_allclose(realify_fim(J, Jc), oracle.real, atol=1e-12)

    def test_output_symmetric_psd(self, rng):
        F, J, Jc = _consistent_pair(rng, 5)
        out = realify_fim(J, Jc)
        np.testing.assert_allclose(out, out.T, atol=1e-13)
        assert np.linalg.eigvalsh(out).min() > -1e-10 * np.linalg.norm(out)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            realify_fim(np.eye(3), np.zeros((2, 2)))


class TestTraceCrbComplex:
    def test_identity_two(self):
        assert trace_crb_complex(np.eye(2), np.zeros((2, 2))) == pytest.approx(8.0)

    def test_scalar_two(self):
        assert trace_crb_complex(np.array([[2.0]]), np.zeros((1, 1))) == pytest.approx(2.0)

    def test_zero_cross_chain(self, rng):
        # with no cross term the bound collapses to 4 tr(J^{-1})
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        J = B @ B.conj().T + np.eye(4)
        want = 4.0 * np.trace(np.linalg.inv(J)).real
        assert trace_crb_complex(J, np.zeros_like(J)) == pytest.approx(want, rel=1e-10)

    def test_matches_realified_inverse(self, rng):
        # consistency across the two computation routes: the Schur-form value
        # is exactly four times the trace of the realified FIM's inverse
        for k in range(5):
            _, J, Jc = _consistent_pair(np.random.default_rng(k), 3)
            J = J + 2 * np.eye(3)  # keep well conditioned
            got = trace_crb_complex(J, Jc)
            want = 4.0 * np.trace(np.linalg.inv(realify_fim(J, Jc)))
            assert got == pytest.approx(want, rel=1e-8)

    def test_block_inverse_identity(self, rng):
        # (M B M^H)^{-1} == 4 M B^{-1} M^H for the scaled-unitary map M
        _, J, Jc = _consistent_pair(rng, 3)
        J = J + 2 * np.eye(3)
        M = real_complex_map(3)
        B = np.block([[J, Jc], [Jc.conj(), J.conj()]])
        lhs = np.linalg.inv(M @ B @ M.conj().T)
        rhs = 4.0 * (M @ np.linalg.inv(B) @ M.conj().T)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(lhs))

    def test_singular_raises(self):
        J = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SingularFimError):
            trace_crb_complex(J, np.zeros((2, 2)))


class TestAngles:
    def test_in_span_angle_zero(self, rng):
        B = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        v = B @ rng.standard_normal(2)
        assert principal_angle(v, B) < 1e-8

    def test_orthogonal_angle_right(self, rng):
        B = np.eye(4)[:, :2]
        assert principal_angle(np.array([0.0, 0, 0, 1]), B) == pytest.approx(np.pi / 2)

    def test_subspace_distance_same_span(self, rng):
        X = rng.standard_normal((5, 2))
        Y = X @ rng.standard_normal((2, 2))  # same span, different basis
        assert subspace_distance(X, Y) < 1e-10
