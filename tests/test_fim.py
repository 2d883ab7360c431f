"""FIM constructions against finite-difference, hand-Gram, and closed-form oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings, strategies as st

from blindcrb import fim
from blindcrb.channel import (
    COMPLEX,
    REAL,
    Channel,
    block_toeplitz,
    commutativity_op,
    reducible_decompose,
    taps_from_stacked,
)
from blindcrb.crb import constrained_crb, phase_constraint
from blindcrb.fim import (
    FimResult,
    GaussianModelConfig,
    MomentStack,
    ParamBlock,
    ParamLayout,
    SingularBlockError,
    analyze_singularities,
    deterministic_fim,
    deterministic_joint_counts,
    deterministic_reduced_fim,
    channel_block,
    gaussian_fim,
    gaussian_moment_stack,
    phase_direction,
    schur_reduce,
)
from conftest import channel_with_common_roots, random_burst, random_channel
from oracles import (
    deterministic_moment_stack,
    deterministic_null_directions,
    gaussian_fim_generic,
    range_basis,
    realified_counts,
    subspace_distance,
)


# ---------------------------------------------------------------------------
# generic Gaussian FIM
# ---------------------------------------------------------------------------


class TestGenericGaussianFim:
    def test_scalar_location_model(self):
        sigma2 = 0.7
        stack = MomentStack(
            mean=np.zeros(1), cov=sigma2 * np.eye(1),
            mean_jac=np.ones((1, 1)), cov_jac=np.zeros((1, 1, 1)), field=REAL,
        )
        fim = gaussian_fim_generic(stack)
        assert fim.J[0, 0] == pytest.approx(1.0 / sigma2)

    def test_covariance_scale_model(self):
        # C = theta I_n at theta=1: information n/2 from the trace term
        n = 5
        stack = MomentStack(
            mean=np.zeros(n), cov=np.eye(n),
            mean_jac=np.zeros((n, 1)), cov_jac=np.eye(n)[None, :, :], field=REAL,
        )
        fim = gaussian_fim_generic(stack)
        assert fim.J[0, 0] == pytest.approx(n / 2)

    def test_elementwise_matches_closed_form(self, rng):
        # oracle: stacked phi-jacobian times blkdiag(C^-1, (1/2) C^-1 (x) C^-1)
        ny, p = 4, 3
        X = rng.standard_normal((ny, ny))
        C = X @ X.T + ny * np.eye(ny)
        mean_jac = rng.standard_normal((ny, p))
        slabs = rng.standard_normal((p, ny, ny))
        slabs = 0.5 * (slabs + slabs.transpose(0, 2, 1))
        stack = MomentStack(np.zeros(ny), C, mean_jac, slabs, REAL)
        fim = gaussian_fim_generic(stack)
        Ci = np.linalg.inv(C)
        phi = np.hstack([mean_jac.T, slabs.reshape(p, -1)])  # row i = d phi^T / d theta_i
        W = np.zeros((ny + ny * ny, ny + ny * ny))
        W[:ny, :ny] = Ci
        W[ny:, ny:] = 0.5 * np.kron(Ci, Ci)
        oracle = phi @ W @ phi.T
        np.testing.assert_allclose(fim.J, oracle, atol=1e-10 * np.linalg.norm(oracle))

    def test_singular_covariance_rejected(self):
        stack = MomentStack(np.zeros(2), np.diag([1.0, 0.0]), np.zeros((2, 1)),
                            np.zeros((1, 2, 2)), REAL)
        with pytest.raises(SingularBlockError):
            gaussian_fim_generic(stack)

    def test_complex_matches_deterministic_gram(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        A = random_burst(rng, 8, COMPLEX)
        sv2 = 0.6
        stack = deterministic_moment_stack(ch, A, sv2)
        via_generic = gaussian_fim_generic(stack)
        direct = deterministic_fim(ch, A, sv2)
        np.testing.assert_allclose(via_generic.J, direct.J, atol=1e-10)
        assert np.linalg.norm(via_generic.cross) < 1e-12


# ---------------------------------------------------------------------------
# deterministic model
# ---------------------------------------------------------------------------


class TestDeterministicFim:
    def test_joint_null_vector(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        fim = deterministic_fim(ch, A, 1.0)
        theta_s = np.concatenate([-A, ch.h])
        assert np.linalg.norm(fim.J @ theta_s) < 1e-10 * np.linalg.norm(fim.J)

    def test_complex_nullity_one(self, rng, chan_random):
        # a real channel driven by complex symbols is a complex model
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        fim = deterministic_fim(ch, A, 1.0, 20)
        rep = analyze_singularities(fim)
        assert rep.nullity == 1
        rep_real = analyze_singularities(fim.realified())
        assert rep_real.nullity == 2

    def test_hand_gram_single_tap(self, rng):
        # m=2, N=1, M=2: every column of the mean jacobian written by hand
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ch = Channel(h[:, None], field=COMPLEX)
        A = random_burst(rng, 2, COMPLEX)   # [a(1), a(0)] newest-first
        sv2 = 0.3
        D = np.zeros((4, 4), dtype=complex)
        D[:, 0] = [h[0], h[1], 0, 0]        # d/d a(1)
        D[:, 1] = [0, 0, h[0], h[1]]        # d/d a(0)
        D[:, 2] = [A[0], 0, A[1], 0]        # d/d h_1
        D[:, 3] = [0, A[0], 0, A[1]]        # d/d h_2
        oracle = D.conj().T @ D / sv2
        fim = deterministic_fim(ch, A, sv2, 2)
        np.testing.assert_allclose(fim.J, oracle, atol=1e-13)

    def test_layout_and_field(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        fim = deterministic_fim(chan_random, A, 1.0, 20)
        assert fim.layout.names == ("A", "h")
        assert fim.layout.block("A").length == 23
        assert fim.layout.block("h").length == 8
        assert fim.field == REAL

    def test_noise_decoupled_from_signal_parameters(self, rng):
        # extended FIM over (A, h, sigma_v^2): the cross block vanishes
        for field in (REAL, COMPLEX):
            ch = random_channel(rng, 2, 3, field)
            A = random_burst(rng, 8, field)
            stack = deterministic_moment_stack(ch, A, 0.8, include_noise=True)
            fim = gaussian_fim_generic(stack)
            cross = fim.J[:-1, -1]
            assert np.abs(cross).max() < 1e-10 * np.linalg.norm(fim.J)
            assert fim.J[-1, -1] > 0

    def test_null_direction_helpers_annihilate(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        A = random_burst(rng, 10, COMPLEX)
        fim = deterministic_fim(ch, A, 1.0)
        for name, v in deterministic_null_directions(ch, A):
            assert np.linalg.norm(fim.J @ v) < 1e-10 * np.linalg.norm(fim.J)
        real_fim = fim.realified()
        dirs = deterministic_null_directions(ch, A, realified=True)
        assert [n for n, _ in dirs] == ["scale", "phase"]
        for name, v in dirs:
            assert np.linalg.norm(real_fim.J @ v) < 1e-10 * np.linalg.norm(real_fim.J)


def _dense_reduced_oracle(ch, A, sigma_v2, M):
    """Reduced FIM ``A_op^H (I - Q Q^H) A_op / sigma_v^2`` with ``Q`` the SVD
    range basis of the dense ``T(h)``, and whether ``T(h)`` loses column
    rank: the dense projector form the structured builder replaced."""
    cplx = ch.field == COMPLEX or np.iscomplexobj(A)
    T = ch.toeplitz(M).astype(complex if cplx else float)
    Aop = commutativity_op(A, ch.m, ch.N, M).astype(T.dtype)
    Q = range_basis(T)
    Pperp = np.eye(T.shape[0], dtype=Q.dtype) - Q @ Q.conj().T
    return Aop.conj().T @ Pperp @ Aop / sigma_v2, Q.shape[1] < T.shape[1]


_HARD_KINDS = ["irreducible", "common-1", "common-2", "common-3", "near-common-1e-2",
               "near-common-1e-3", "near-common-1e-4", "near-unit", "conj-recip"]


def _hard_channel(rng, kind, m, field):
    """``m``-subchannel channel of one hard kind: irreducible; k common roots;
    a zero shared up to an offset; conjugate zero pairs at radius 1 -+ 5e-4;
    a common conjugate-reciprocal pair."""
    cplx = field == COMPLEX

    def from_zeros(zeros_per_sub):
        gains = 1.0 + 0.5 * random_burst(rng, m, field)
        H = np.array([g * np.poly(zs) for g, zs in zip(gains, zeros_per_sub)])
        return Channel(H if cplx else H.real, field=field)

    if kind == "irreducible":
        return random_channel(rng, m, 4, field)
    if kind.startswith("common-"):
        roots = [0.5, -0.7, 0.3] if not cplx else [0.5j, -0.7 + 0.2j, 0.6]
        return channel_with_common_roots(rng, m, 2, roots[:int(kind[-1])], field)[0]
    if kind.startswith("near-common-"):
        offset = float(kind[len("near-common-"):]) * (np.exp(0.7j) if cplx else 1.0)
        z0 = 0.6 * np.exp(0.9j) if cplx else 0.6
        others = rng.uniform(-1.3, 1.3, (m, 2))
        if cplx:
            others = others * np.exp(2j * np.pi * rng.uniform(size=(m, 2)))
        return from_zeros([[z0 + l * offset, *others[l]] for l in range(m)])
    if kind == "near-unit":
        zeros = []
        for l in range(m):
            p = (1 + (-1) ** l * 5e-4) * np.exp(1j * rng.uniform(0.2, np.pi - 0.2))
            zeros.append([p, np.conj(p), rng.uniform(-0.9, 0.9)])
        return from_zeros(zeros)
    z0 = 0.6 * np.exp(1.1j) if cplx else 0.6
    return channel_with_common_roots(rng, m, 2, [z0, 1 / np.conj(z0)], field)[0]


class TestDeterministicReducedFim:
    @pytest.mark.parametrize("kind", _HARD_KINDS)
    @pytest.mark.parametrize("M", [4, 20, 200])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matches_dense_oracle(self, field, m, M, kind):
        rng = np.random.default_rng([m, M, _HARD_KINDS.index(kind), field == COMPLEX])
        ch = _hard_channel(rng, kind, m, field)
        A = random_burst(rng, M + ch.N - 1, field)
        want, deficient = _dense_reduced_oracle(ch, A, 0.7, M)
        got = deterministic_reduced_fim(ch, A, 0.7, M)
        assert got.warnings == (("toeplitz-rank-deficient",) if deficient else ())
        if m == 1:
            # T(h) is wide with full row rank: P^perp = 0, and both sides are
            # roundoff, so there is no CRB to compare
            scale = np.linalg.norm(commutativity_op(A, m, ch.N, M)) ** 2 / 0.7
            assert max(np.linalg.norm(got.J), np.linalg.norm(want)) <= 1e-12 * scale
            return
        if deficient or np.linalg.cond(ch.toeplitz(M)) < 1e4:
            # where T(h) has full rank but is ill conditioned (near-common and
            # near-unit zeros at short bursts) the projector form itself loses
            # digits: against a 60-digit solve it erred by up to 1.3e-11 where
            # the residual form erred by 5e-13. There only the CRB bound below
            # is required
            assert np.linalg.norm(got.J - want) <= 1e-12 * np.linalg.norm(want)
        tr_want = constrained_crb(want).trace
        assert constrained_crb(got).trace == pytest.approx(
            tr_want, rel=max(1e-6, 1e-11 * abs(tr_want)))


    def test_channel_is_null_vector(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        red = deterministic_reduced_fim(chan_random, A, 1.0, 20)
        h = chan_random.h
        assert np.linalg.norm(red.J @ h) < 1e-10 * np.linalg.norm(red.J)
        assert red.warnings == ()

    def test_equals_schur_complement_of_joint_fim(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        A = random_burst(rng, 12, COMPLEX)
        full = deterministic_fim(ch, A, 0.5)
        red = deterministic_reduced_fim(ch, A, 0.5)
        via_schur = schur_reduce(full, "h")
        np.testing.assert_allclose(via_schur, red.J,
                                   atol=1e-9 * np.linalg.norm(red.J))

    def test_reducible_channel_nullity_and_flag(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        red = deterministic_reduced_fim(ch, A, 1.0, 20)
        assert "toeplitz-rank-deficient" in red.warnings
        assert analyze_singularities(red).nullity == 2   # N_c


# ---------------------------------------------------------------------------
# Gaussian model
# ---------------------------------------------------------------------------


def _fd_real_param_fim(ch, cfg, step=1e-6):
    """Finite-difference oracle: real-coordinate covariance slabs -> trace FIM."""
    n = ch.m * ch.N
    h0 = ch.h

    def cov_of(x):
        if ch.field == COMPLEX:
            h = x[:n] + 1j * x[n:2 * n]
            sv2 = x[2 * n]
        else:
            h = x[:n]
            sv2 = x[n]
        T = block_toeplitz(taps_from_stacked(h, ch.m), cfg.M)
        return cfg.sigma_a2 * (T @ T.conj().T) + sv2 * np.eye(T.shape[0])

    if ch.field == COMPLEX:
        x0 = np.concatenate([h0.real, h0.imag, [cfg.sigma_v2]])
    else:
        x0 = np.concatenate([h0, [cfg.sigma_v2]])
    p = x0.size
    C = cov_of(x0)
    Ci = np.linalg.inv(C)
    slabs = []
    for i in range(p):
        e = np.zeros(p)
        e[i] = step
        slabs.append((cov_of(x0 + e) - cov_of(x0 - e)) / (2 * step))
    scale = 1.0 if ch.field == COMPLEX else 0.5
    J = np.empty((p, p))
    for a in range(p):
        for b in range(p):
            J[a, b] = scale * np.trace(Ci @ slabs[a] @ Ci @ slabs[b]).real
    return J


_ORACLE_CASES = [
    pytest.param(field, m, M, (), id=f"{field}-m{m}-M{M}")
    for field in (REAL, COMPLEX) for m in (1, 2, 3) for M in (1, 5, 20)
] + [
    pytest.param(COMPLEX, 2, 12, (0.5 + 0.5j, 1.0 / (0.5 - 0.5j)),
                 id="complex-conjugate-reciprocal"),
    pytest.param(REAL, 2, 12, (-1.0,), id="real-zero-at-minus-one"),
]


class TestGaussianFim:
    def test_complex_realified_matches_finite_differences(self, rng):
        ch = random_channel(rng, 2, 2, COMPLEX)
        cfg = GaussianModelConfig(1.3, 0.7, 4)
        fim = gaussian_fim(ch, cfg).realified()
        oracle = _fd_real_param_fim(ch, cfg)
        np.testing.assert_allclose(fim.J, oracle, rtol=0, atol=1e-5 * np.linalg.norm(oracle))

    def test_real_matches_finite_differences(self, rng):
        ch = random_channel(rng, 2, 2, REAL)
        cfg = GaussianModelConfig(0.9, 1.1, 4)
        fim = gaussian_fim(ch, cfg)
        oracle = _fd_real_param_fim(ch, cfg)
        np.testing.assert_allclose(fim.J, oracle, rtol=0, atol=1e-5 * np.linalg.norm(oracle))

    def test_realified_layout_keeps_noise_scalar(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        fim = gaussian_fim(ch, GaussianModelConfig(M=6)).realified()
        assert fim.dim == 2 * 8 + 1
        assert fim.layout.block("h").length == 16
        assert fim.layout.block("sigma_v2").length == 1

    def test_phase_direction_annihilated_after_noise_reduction(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        cfg = GaussianModelConfig(M=8)
        fim = gaussian_fim(ch, cfg).realified()
        Jred = schur_reduce(fim, "h")
        hs2 = phase_direction(ch.h)
        assert np.linalg.norm(Jred @ hs2) < 1e-8 * np.linalg.norm(Jred)
        rep = analyze_singularities(Jred, [("phase", hs2)])
        assert rep.nullity == 1 and rep.matches[0][2]

    def test_full_fim_nullity_one_for_clean_complex_channel(self, rng):
        ch = random_channel(rng, 2, 4, COMPLEX)
        fim = gaussian_fim(ch, GaussianModelConfig(M=8)).realified()
        rep = analyze_singularities(fim, [("phase", np.append(phase_direction(ch.h), 0.0))])
        assert rep.nullity == 1 and rep.matches[0][2]

    def test_real_channel_regular(self, rng, chan_random):
        fim = gaussian_fim(chan_random, GaussianModelConfig(M=8))
        assert analyze_singularities(fim).nullity == 0

    def test_real_pair_zero_gains_one_singularity(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, 2.0], REAL)
        fim = gaussian_fim(ch, GaussianModelConfig(M=12))
        assert analyze_singularities(fim).nullity == 1

    def test_monochannel_noise_variance_singularity(self):
        ch = Channel(np.poly([0.5, -0.3])[None, :], field=REAL)
        fim = gaussian_fim(ch, GaussianModelConfig(M=10))
        rep = analyze_singularities(fim)
        assert rep.nullity == 1
        # the singular direction genuinely involves the noise-variance axis
        assert abs(rep.null_basis[-1, 0]) > 1e-3

    def test_null_vector_satisfies_covariance_stationarity(self, rng):
        # any reported null vector (h', s') must make the first-order
        # covariance change vanish: sa2 (T(h) T^H(h') + T(h') T^H(h)) + s' I = 0
        ch = random_channel(rng, 2, 3, COMPLEX)
        cfg = GaussianModelConfig(M=6)
        fim = gaussian_fim(ch, cfg).realified()
        rep = analyze_singularities(fim)
        n = ch.m * ch.N
        T = ch.toeplitz(cfg.M)
        scale = np.linalg.norm(cfg.sigma_a2 * (T @ T.conj().T))
        for k in range(rep.nullity):
            v = rep.null_basis[:, k]
            hp = v[:n] + 1j * v[n:2 * n]
            sp = v[2 * n]
            Tp = block_toeplitz(taps_from_stacked(hp, ch.m), cfg.M)
            R = cfg.sigma_a2 * (T @ Tp.conj().T + Tp @ T.conj().T) + sp * np.eye(T.shape[0])
            assert np.linalg.norm(R) < 1e-8 * scale

    @pytest.mark.parametrize("field, m, M, roots", _ORACLE_CASES)
    def test_generic_engine_agrees_with_model_builders(self, rng, field, m, M, roots):
        # oracle: the slab-by-slab reference engine on the moment stack
        if roots:
            ch, _, _ = channel_with_common_roots(rng, m, 3, roots, field)
        else:
            ch = random_channel(rng, m, 3, field)
        cfg = GaussianModelConfig(1.3, 0.6, M)
        model = gaussian_fim(ch, cfg)
        oracle = gaussian_fim_generic(gaussian_moment_stack(ch, cfg), layout=model.layout)
        scale = np.linalg.norm(oracle.J)
        assert np.linalg.norm(model.J - oracle.J) <= 1e-12 * scale
        if field == COMPLEX:
            assert np.linalg.norm(model.cross - oracle.cross) <= 1e-12 * scale
        else:
            assert model.cross is None
        assert np.linalg.norm(channel_block(model) - channel_block(oracle)) <= 1e-12 * scale

    def test_large_burst(self, rng):
        # M=200 is out of reach of the slab-by-slab engine; the structural
        # verdicts must still hold there
        cfg = GaussianModelConfig(M=200)
        ch = random_channel(rng, 2, 4, COMPLEX)
        assert reducible_decompose(ch).roots.size == 0
        Jred = channel_block(gaussian_fim(ch, cfg))
        rep = analyze_singularities(Jred, [("phase", phase_direction(ch.h))])
        assert rep.nullity == 1 and rep.matches[0][2]
        real = random_channel(rng, 2, 4, REAL)
        Jred_real = channel_block(gaussian_fim(real, cfg))
        assert analyze_singularities(Jred_real).nullity == 0
        for res in (constrained_crb(Jred, phase_constraint(ch.h)), constrained_crb(Jred_real)):
            assert res.bounded and np.isfinite(res.trace) and np.all(np.isfinite(res.crb))

    @pytest.mark.parametrize("m", [1, 2])
    def test_inverse_keeps_lapack_accuracy_at_low_noise(self, monkeypatch, m):
        # an m = 2 covariance (ny = 12, T of rank 9) has three eigenvalues
        # at sigma_v^2 = 1e-5; the FIM built on the NumPy Cholesky inverse
        # stays within 1e-9 of the same formulas on SciPy's
        # cho_factor/cho_solve, where an LU inverse of C misses by 1e-8 and
        # more
        cfg = GaussianModelConfig(1.0, 1e-5, 6)
        n = m * 4
        for seed in range(4):
            ch = random_channel(np.random.default_rng(seed), m, 4, COMPLEX)
            got = gaussian_fim(ch, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(fim, "_pd_inverse", lambda C: sla.cho_solve(
                    sla.cho_factor(C), np.eye(C.shape[0], dtype=C.dtype)))
                want = gaussian_fim(ch, cfg)
            for a, b in ((got.J[:n, :n], want.J[:n, :n]), (got.cross[:n, :n], want.cross[:n, :n]),
                         (got.J[:, n], want.J[:, n])):
                assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()

    def test_inverse_refuses_an_indefinite_covariance(self):
        with pytest.raises(SingularBlockError):
            fim._pd_inverse(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gathered_slabs_match_toeplitz_products(self, rng, m, field):
        # oracle: G_i = T(h) T(e_i)^H as a dense product with the unit-channel
        # convolution operator
        ch = random_channel(rng, m, 3, field)
        cfg = GaussianModelConfig(1.4, 0.6, 5)
        stack = gaussian_moment_stack(ch, cfg)
        T = ch.toeplitz(cfg.M)
        n = ch.m * ch.N
        for i in range(n):
            e = np.zeros(n, dtype=T.dtype)
            e[i] = 1.0
            G = T @ block_toeplitz(taps_from_stacked(e, m), cfg.M).conj().T
            want = cfg.sigma_a2 * (G if field == COMPLEX else G + G.T)
            np.testing.assert_array_equal(stack.cov_jac[i], want)
        noise = (0.5 if field == COMPLEX else 1.0) * np.eye(T.shape[0])
        np.testing.assert_array_equal(stack.cov_jac[n], noise)
        np.testing.assert_array_equal(
            stack.cov, cfg.sigma_a2 * (T @ T.conj().T) + cfg.sigma_v2 * np.eye(T.shape[0]))


# ---------------------------------------------------------------------------
# Schur reduction and singularity analysis
# ---------------------------------------------------------------------------


class TestChannelBlock:
    def test_single_block_fim_unchanged(self, chan_random):
        A = np.arange(1.0, 20 + chan_random.N)
        fim = deterministic_reduced_fim(chan_random, A, 0.5, 20)
        np.testing.assert_array_equal(channel_block(fim), fim.J)

    def test_complex_gaussian_reduces_noise_from_realified_fim(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        fim = gaussian_fim(ch, GaussianModelConfig(M=6))
        Jred = channel_block(fim)
        assert Jred.shape == (2 * ch.m * ch.N, 2 * ch.m * ch.N)
        np.testing.assert_array_equal(Jred, schur_reduce(fim.realified(), "h"))


class TestSchurReduce:
    def test_block_diagonal_returns_kept_block(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((2, 2))
        J = np.block([[A @ A.T, np.zeros((3, 2))], [np.zeros((2, 3)), B @ B.T + np.eye(2)]])
        layout = ParamLayout((ParamBlock("x", 3, REAL), ParamBlock("y", 2, REAL)))
        fim = FimResult(J, layout, REAL)
        np.testing.assert_allclose(schur_reduce(fim, "x"), A @ A.T, atol=1e-12)

    def test_singular_nuisance_named(self, rng):
        J = np.block([[np.eye(2), np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.diag([1.0, 0.0])]])
        layout = ParamLayout((ParamBlock("keep", 2, REAL), ParamBlock("bad", 2, REAL)))
        fim = FimResult(J, layout, REAL)
        with pytest.raises(SingularBlockError, match="bad"):
            schur_reduce(fim, "keep")

    def test_unknown_block_name(self, rng, chan_random):
        fim = gaussian_fim(chan_random, GaussianModelConfig(M=6))
        with pytest.raises(KeyError):
            schur_reduce(fim, "nope")


class TestSingularityAnalysis:
    def test_real_channel_scale_match(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        red = deterministic_reduced_fim(chan_random, A, 1.0, 20)
        rep = analyze_singularities(red, [("scale", chan_random.h)])
        assert rep.nullity == 1
        assert rep.matched_names == ("scale",)

    def test_complex_channel_two_matches(self, rng, chan_random):
        ch = Channel(chan_random.coeffs.astype(complex), field=COMPLEX)
        A = random_burst(rng, 23, COMPLEX)
        red = deterministic_reduced_fim(ch, A, 1.0, 20).realified()
        h = ch.h
        rep = analyze_singularities(
            red,
            [("scale", np.concatenate([h.real, h.imag])), ("phase", phase_direction(h))],
        )
        assert rep.nullity == 2
        assert rep.matched_names == ("scale", "phase")

    def test_reducible_null_space_is_ti_range(self, rng):
        from blindcrb.channel import reducible_decompose, ti_matrix

        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        A = random_burst(rng, ch.N + 19, COMPLEX)
        red = deterministic_reduced_fim(ch, A, 1.0, 20)
        rep = analyze_singularities(red)
        TI = ti_matrix(reducible_decompose(ch))
        assert subspace_distance(rep.null_basis, TI) < 1e-8

    @pytest.mark.parametrize("roots", [[], [0.5], [0.6j, 1 / np.conj(0.6j)]])
    @pytest.mark.parametrize("M", [4, 20])
    def test_realified_counts_match_realified_fim(self, rng, M, roots):
        ch = channel_with_common_roots(rng, 2, 3, roots, COMPLEX)[0] if roots \
            else random_channel(rng, 2, 4, COMPLEX)
        fim = deterministic_fim(ch, random_burst(rng, M + ch.N - 1, COMPLEX), 0.4, M)
        got = realified_counts(fim)
        want = analyze_singularities(fim.realified())
        assert (got.rank, got.nullity) == (want.rank, want.nullity)
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues,
                                   rtol=0, atol=1e-12 * want.eigenvalues.max())

    def test_realified_counts_refuse_a_cross_matrix(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        fim = gaussian_fim(ch, GaussianModelConfig(1.0, 0.5, 6))
        with pytest.raises(ValueError, match="cross"):
            realified_counts(fim)
        real = fim.realified()
        assert realified_counts(real).nullity == analyze_singularities(real).nullity

    def test_rank_plus_nullity(self, rng, chan_random):
        A = random_burst(rng, 23, REAL)
        fim = deterministic_fim(chan_random, A, 1.0, 20)
        rep = analyze_singularities(fim)
        assert rep.rank + rep.nullity == fim.dim


class TestDeterministicJointCounts:
    @given(
        field=st.sampled_from([REAL, COMPLEX]),
        m=st.sampled_from([1, 2, 3]),
        kind=st.sampled_from(["irreducible", "common-1", "common-2", "common-3",
                              "near-common", "near-unit", "conj-recip"]),
        log_delta=st.floats(-9.0, -3.0),
        burst=st.sampled_from(["1", "2", "N-1", "20", "200"]),
        tol=st.sampled_from([1e-12, 1e-8, 1e-4, 1e-1]),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=80)
    def test_count_equals_the_dense_count(self, field, m, kind, log_delta, burst, tol, seed):
        if kind == "near-common":
            kind = f"near-common-{10.0 ** log_delta!r}"
        ch = _hard_channel(np.random.default_rng(seed), kind, m, field)
        M = {"1": 1, "2": 2, "N-1": ch.N - 1, "20": 20, "200": 200}[burst]
        A = random_burst(np.random.default_rng(seed), M + ch.N - 1, field)
        J = deterministic_fim(ch, A, 1.0, M).realified()
        w = J.eigenvalues
        # within roundoff of its threshold a count is not a property of the
        # matrix: the dense count itself can go either way there
        assume(not np.any(np.abs(w - tol * w.max()) <= w.size * np.finfo(float).eps * w.max()))
        want = analyze_singularities(J, tol=tol)
        got = deterministic_joint_counts(ch, A, M, tol)
        assert (got.rank, got.nullity, got.tol) == (want.rank, want.nullity, tol)


class TestFimValidation:
    def test_rejects_non_hermitian(self):
        layout = ParamLayout((ParamBlock("x", 2, REAL),))
        with pytest.raises(ValueError, match="Hermitian"):
            FimResult(np.array([[1.0, 5.0], [0.0, 1.0]]), layout, REAL)

    def test_rejects_indefinite(self):
        layout = ParamLayout((ParamBlock("x", 2, REAL),))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            FimResult(np.diag([1.0, -1.0]), layout, REAL)


# ---------------------------------------------------------------------------
# local-identifiability consequence: moment curvature along null directions
# ---------------------------------------------------------------------------


def _loglog_slope(eps, vals):
    return np.polyfit(np.log(eps), np.log(vals), 1)[0]


class TestMomentPerturbation:
    EPS = np.logspace(-5, -2, 7)

    def test_deterministic_mean_flat_along_null_directions(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        nA = 12
        A = random_burst(rng, nA, COMPLEX)
        M = nA - ch.N + 1
        T0 = ch.toeplitz(M)
        mean0 = T0 @ A
        for _, v in deterministic_null_directions(ch, A):
            dA, dh = v[:nA], v[nA:]
            diffs = []
            for e in self.EPS:
                Tp = block_toeplitz(taps_from_stacked(ch.h + e * dh, ch.m), M)
                diffs.append(np.linalg.norm(Tp @ (A + e * dA) - mean0))
            assert _loglog_slope(self.EPS, diffs) >= 1.9

    def test_gaussian_covariance_flat_along_null_direction(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX)
        cfg = GaussianModelConfig(M=6)
        fim = gaussian_fim(ch, cfg).realified()
        rep = analyze_singularities(fim)
        assert rep.nullity == 1
        n = ch.m * ch.N
        v = rep.null_basis[:, 0]
        hp, sp = v[:n] + 1j * v[n:2 * n], v[2 * n]
        C0 = gaussian_moment_stack(ch, cfg).cov
        diffs = []
        for e in self.EPS:
            T = block_toeplitz(taps_from_stacked(ch.h + e * hp, ch.m), cfg.M)
            Ce = cfg.sigma_a2 * (T @ T.conj().T) + (cfg.sigma_v2 + e * sp) * np.eye(T.shape[0])
            diffs.append(np.linalg.norm(Ce - C0))
        assert _loglog_slope(self.EPS, diffs) >= 1.9

    def test_non_null_direction_moves_first_order(self, rng):
        # negative control: a generic direction changes the mean at slope ~1
        ch = random_channel(rng, 2, 3, COMPLEX)
        A = random_burst(rng, 12, COMPLEX)
        M = 12 - ch.N + 1
        mean0 = ch.toeplitz(M) @ A
        dh = random_burst(rng, ch.m * ch.N, COMPLEX)
        diffs = []
        for e in self.EPS:
            Tp = block_toeplitz(taps_from_stacked(ch.h + e * dh, ch.m), M)
            diffs.append(np.linalg.norm(Tp @ A - mean0))
        assert _loglog_slope(self.EPS, diffs) < 1.1
