"""Channel structure: convolution operators, zeros, reducible factorization."""


import numpy as np
import pytest

from blindcrb.channel import (
    COMPLEX,
    REAL,
    Channel,
    DecompositionError,
    block_toeplitz,
    channel_from_json,
    channel_to_json,
    commutativity_op,
    example_channel,
    load_channel,
    poly_roots,
    realify_channel,
    reducible_decompose,
    subchannel_zeros,
    symbol_hankel,
    taps_from_stacked,
    tc_matrix,
    ti_matrix,
    toeplitz_gram_band,
    toeplitz_staircase_qr,
)

from conftest import (
    channel_with_common_roots,
    convolve_oracle,
    from_upper_band,
    random_burst,
    random_channel,
    upper_band,
)
from oracles import projector


class TestChannelType:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Channel(np.zeros((2, 3)), field=REAL)

    def test_rejects_complex_coeffs_with_real_tag(self):
        with pytest.raises(ValueError):
            Channel(np.array([[1.0 + 1j, 2.0]]), field=REAL)

    def test_real_tag_strips_complex_dtype(self):
        ch = Channel(np.array([[1.0 + 0j, 2.0]]), field=REAL)
        assert not np.iscomplexobj(ch.coeffs)

    def test_stacking_roundtrip(self, rng):
        ch = random_channel(rng, 3, 4, COMPLEX)
        np.testing.assert_array_equal(taps_from_stacked(ch.h, ch.m), ch.coeffs)

    def test_coeffs_immutable(self, chan_random):
        with pytest.raises(ValueError):
            chan_random.coeffs[0, 0] = 7.0


class TestToeplitzOperator:
    def test_single_tap_block_structure(self):
        ch = Channel(np.array([[1.0], [2.0]]), field=REAL)
        T = ch.toeplitz(3)
        assert T.shape == (6, 3)
        A = np.array([3.0, -1.0, 5.0])
        np.testing.assert_allclose(T @ A, np.kron(A, [1.0, 2.0]))

    def test_decaying_channel_against_convolution_loop(self):
        ch = example_channel("decaying")
        M = 8
        T = ch.toeplitz(M)
        assert T.shape == (16, 11)
        A = np.random.default_rng(3).standard_normal(11)
        np.testing.assert_allclose(T @ A, convolve_oracle(ch.coeffs, A, M), atol=1e-13)

    def test_complex_channel_against_convolution_loop(self, rng):
        ch = random_channel(rng, 3, 5, COMPLEX)
        M = 7
        A = random_burst(rng, M + ch.N - 1, COMPLEX)
        np.testing.assert_allclose(
            ch.toeplitz(M) @ A, convolve_oracle(ch.coeffs, A, M), atol=1e-13
        )

    def test_first_block_row(self, chan_random):
        T = chan_random.toeplitz(5)
        np.testing.assert_array_equal(T[:2, :4], chan_random.coeffs)
        assert np.all(T[:2, 4:] == 0)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_gram_band_matches_dense_gram(self, field, m, N):
        rng = np.random.default_rng(20 + 5 * m + N)
        ch = random_channel(rng, m, N, field)
        for M in sorted({1, 2, N - 1, 20, 200} - {0}):
            T = block_toeplitz(ch.coeffs, M)
            want = upper_band(T.conj().T @ T, N - 1)
            got = toeplitz_gram_band(ch.coeffs, M)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestStaircaseQr:
    @pytest.mark.parametrize("m, N, M", [(2, 4, 20), (2, 4, 32), (2, 4, 33), (3, 3, 70),
                                         (2, 4, 65), (1, 4, 40), (2, 1, 5)])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_factors_the_augmented_matrix(self, rng, m, N, M, field):
        # [R; 0] and [C1; C2] are Q^H [T(h) | B] for one unitary Q, so R^H R,
        # R^H C1 and C1^H C1 + G2 reproduce the Grams of T(h) and B, across
        # partial and whole blocks
        ch = random_channel(rng, m, N, field)
        B = commutativity_op(random_burst(rng, M + N - 1, field), m, N, M)
        R, C1, G2 = toeplitz_staircase_qr(ch.coeffs, B)
        T = ch.toeplitz(M)
        n = M + N - 1
        assert R.shape == (min(32, M) + N - 1, n)
        Rd = from_upper_band(R)
        scale = np.linalg.norm(T) * np.linalg.norm(B)
        np.testing.assert_allclose(Rd.conj().T @ Rd, T.conj().T @ T,
                                   atol=1e-13 * np.linalg.norm(T) ** 2)
        np.testing.assert_allclose(Rd.conj().T @ C1, T.conj().T @ B, atol=1e-13 * scale)
        np.testing.assert_allclose(C1.conj().T @ C1 + G2, B.conj().T @ B,
                                   atol=1e-13 * np.linalg.norm(B) ** 2)
        assert R.dtype == C1.dtype == G2.dtype == T.dtype

    def test_residual_gram_of_full_rank_channel(self, rng):
        # with R of full rank, G2 is the least-squares residual Gram
        ch = random_channel(rng, 2, 4, COMPLEX)
        M = 45
        B = commutativity_op(random_burst(rng, M + 3, COMPLEX), 2, 4, M)
        _, _, G2 = toeplitz_staircase_qr(ch.coeffs, B)
        T = ch.toeplitz(M)
        E = B - T @ np.linalg.lstsq(T, B, rcond=None)[0]
        np.testing.assert_allclose(G2, E.conj().T @ E, atol=1e-12 * np.linalg.norm(B) ** 2)

    def test_band_layout(self, rng):
        # entry (i, j) of R sits in row kd + i - j of the band storage
        ch = random_channel(rng, 2, 3, REAL)
        M = 40
        R, _, _ = toeplitz_staircase_qr(ch.coeffs, np.zeros((2 * M, 1)))
        Rd = from_upper_band(R)
        np.testing.assert_array_equal(upper_band(Rd, R.shape[0] - 1), R)
        gram = toeplitz_gram_band(ch.coeffs, M)
        np.testing.assert_allclose(upper_band(Rd.T @ Rd, 2), gram, atol=1e-13 * np.abs(gram).max())


class TestCommutativity:
    def test_identity_random_draws(self):
        # T(h) A == A_op h over random sizes and both fields
        rng = np.random.default_rng(11)
        for trial in range(200):
            m = int(rng.integers(1, 4))
            N = int(rng.integers(1, 5))
            M = int(rng.integers(1, 7))
            field = COMPLEX if trial % 2 else REAL
            ch = random_channel(rng, m, N, field)
            A = random_burst(rng, M + N - 1, field)
            lhs = ch.toeplitz(M) @ A
            rhs = commutativity_op(A, m, N, M) @ ch.h
            assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(lhs))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.complex128])
    def test_equals_the_kronecker_form(self, rng, dtype):
        # A_op = A' (x) I_m exactly, in the dtype np.kron gives
        for m, N, M in [(1, 4, 20), (2, 4, 20), (3, 2, 7), (2, 4, 200)]:
            A = 10 * random_burst(rng, M + N - 1, COMPLEX if dtype == np.complex128 else REAL)
            A = A.astype(dtype)
            got = commutativity_op(A, m, N, M)
            want = np.kron(symbol_hankel(A, N, M), np.eye(m))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_single_tap_column(self, rng):
        m, N, M = 2, 1, 4
        ch = random_channel(rng, m, N, REAL)
        A = rng.standard_normal(M)
        Aop = commutativity_op(A, m, N, M)
        assert Aop.shape == (M * m, m)
        np.testing.assert_allclose(Aop @ ch.h, np.kron(A, ch.h))

    def test_all_ones_input(self, rng):
        # constant excitation: every output block is the tap sum
        ch = random_channel(rng, 2, 3, COMPLEX)
        M = 6
        A = np.ones(M + ch.N - 1, dtype=complex)
        out = commutativity_op(A, ch.m, ch.N, M) @ ch.h
        block = ch.coeffs.sum(axis=1)
        np.testing.assert_allclose(out, np.tile(block, M), atol=1e-13)

    def test_burst_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            commutativity_op(rng.standard_normal(5), 2, 3, 6)


class TestRealify:
    def test_complex_scalar_channel(self):
        ch = Channel(np.array([[1.0 + 1j, 2.0]]), field=COMPLEX)
        out = realify_channel(ch)
        assert out.field == REAL and out.m == 2
        np.testing.assert_array_equal(out.coeffs, [[1.0, 2.0], [1.0, 0.0]])

    def test_already_real_retags_without_doubling(self):
        ch = Channel(example_channel("random").coeffs.astype(complex), field=COMPLEX)
        out = realify_channel(ch)
        assert out.field == REAL and out.m == 2
        np.testing.assert_array_equal(out.coeffs, example_channel("random").coeffs)

    def test_purely_imaginary_scalar(self):
        out = realify_channel(Channel(np.array([[1j]]), field=COMPLEX))
        np.testing.assert_array_equal(out.coeffs, [[0.0], [1.0]])

    def test_real_field_passthrough(self, chan_random):
        assert realify_channel(chan_random) is chan_random

    def test_noise_free_output_interleaves(self, rng):
        # real-model convolution of the doubled channel reproduces the
        # interleaved Re/Im samples of the complex convolution
        ch = random_channel(rng, 2, 3, COMPLEX)
        M = 5
        A = rng.standard_normal(M + ch.N - 1)   # real symbols
        y_cplx = ch.toeplitz(M) @ A
        y_real = realify_channel(ch).toeplitz(M) @ A
        want = np.empty(2 * y_cplx.size)
        want[0::2] = y_cplx.real
        want[1::2] = y_cplx.imag
        np.testing.assert_allclose(y_real, want, atol=1e-13)


class TestZeros:
    def test_constructed_common_root(self):
        ch = Channel(np.array([[1.0, -0.5], [1.0, -0.5]]), field=REAL)
        cz = reducible_decompose(ch).roots
        assert cz.size == 1
        assert abs(cz[0] - 0.5) < 1e-10

    def test_common_root_multiplicity(self):
        # a root double in both subchannels is common twice; double in one
        # and single in the other, once
        both = Channel(np.array([np.poly([0.5, 0.5, -0.3]), np.poly([0.5, 0.5, 0.7])]),
                       field=REAL)
        np.testing.assert_allclose(np.sort(reducible_decompose(both).roots.real),
                                   [0.5, 0.5], atol=1e-6)
        one = Channel(np.array([np.poly([0.5j, 0.5j, -0.3]), np.poly([0.5j, 0.2, 0.7])]),
                      field=COMPLEX)
        np.testing.assert_allclose(reducible_decompose(one).roots, [0.5j], atol=1e-6)

    def test_distinct_roots_no_common(self):
        ch = Channel(np.array([[1.0, -0.5], [1.0, -2.0]]), field=REAL)
        assert reducible_decompose(ch).roots.size == 0

    def test_random_channel_irreducible(self, chan_random):
        assert reducible_decompose(chan_random).roots.size == 0

    def test_single_tap_gives_no_roots(self):
        ch = Channel(np.array([[1.0], [2.0]]), field=REAL)
        assert all(z.size == 0 for z in subchannel_zeros(ch))

    def test_roots_reconstruct_polynomial(self, rng):
        # leading coefficient times prod(1 - r z^-1) reproduces the taps
        for deg in range(1, 9):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots = poly_roots(c)
            rebuilt = c[0] * np.poly(roots)
            assert np.linalg.norm(rebuilt - c) < 1e-8 * np.linalg.norm(c)

    def test_degree_reduction_on_zero_taps(self):
        # trailing zero taps must not invent roots at the origin
        c = np.array([1.0, -0.5, 0.0])
        r = poly_roots(c)
        assert r.size == 1 and abs(r[0] - 0.5) < 1e-12


class TestReducibleDecomposition:
    def test_irreducible_returns_trivial_factor(self, chan_random):
        dec = reducible_decompose(chan_random)
        assert dec.N_c == 1
        np.testing.assert_array_equal(dec.monic, [1.0])
        np.testing.assert_array_equal(dec.irreducible_part.coeffs, chan_random.coeffs)

    def test_recovers_single_constructed_root(self, rng):
        ch, HI, hc = channel_with_common_roots(rng, 2, 3, [0.5], REAL)
        dec = reducible_decompose(ch)
        assert dec.N_c == 2
        np.testing.assert_allclose(dec.monic, [1.0, -0.5], atol=1e-8)
        assert dec.residual < 1e-10

    def test_recovers_two_roots_as_set(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 4, [0.5, -0.3], REAL)
        dec = reducible_decompose(ch)
        assert dec.N_c == 3
        got = sorted(np.real(dec.roots))
        np.testing.assert_allclose(got, [-0.3, 0.5], atol=1e-7)

    def test_monochannel_everything_common(self):
        ch = Channel(np.poly([0.4, -0.6])[None, :], field=REAL)
        dec = reducible_decompose(ch)
        assert dec.N_c == 3 and dec.N_I == 1

    def test_residual_gate(self, rng):
        # force an impossible factorization by clustering at a loose zero
        # tolerance: roots that only nearly agree must not pass the
        # reconvolution residual gate
        H = np.array([np.poly([0.5]), np.poly([0.5 + 1e-4])])
        ch = Channel(H, field=REAL)
        with pytest.raises(DecompositionError):
            reducible_decompose(ch, tol=1e-2)


class TestFactorMatrices:
    def test_trivial_factor_gives_identity(self, chan_random):
        dec = reducible_decompose(chan_random)
        np.testing.assert_allclose(tc_matrix(dec), np.eye(chan_random.m * chan_random.N))

    def test_both_factor_maps_reproduce_channel(self, rng):
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5], COMPLEX)
        dec = reducible_decompose(ch)
        h = ch.h
        assert np.linalg.norm(tc_matrix(dec) @ dec.irreducible_part.h - h) < 1e-12 * np.linalg.norm(h)
        assert np.linalg.norm(ti_matrix(dec) @ dec.monic - h) < 1e-12 * np.linalg.norm(h)

    def test_monochannel_tc_is_plain_toeplitz(self):
        ch = Channel(np.poly([0.4])[None, :], field=REAL)
        dec = reducible_decompose(ch)
        T = block_toeplitz(dec.monic[None, :], dec.N_I).T
        np.testing.assert_allclose(tc_matrix(dec), T)

    def test_toeplitz_factorization_and_projector(self, rng):
        # T_M(h) = T_M(h_I) T_{M+N_I-1}(h_c) and the two column spans agree
        ch, _, _ = channel_with_common_roots(rng, 2, 3, [0.5, -0.3], COMPLEX)
        dec = reducible_decompose(ch)
        M = 8
        T = ch.toeplitz(M)
        TI_op = dec.irreducible_part.toeplitz(M)
        Tc_op = block_toeplitz(dec.monic[None, :], M + dec.N_I - 1)
        np.testing.assert_allclose(T, TI_op @ Tc_op, atol=1e-10)
        assert np.linalg.norm(projector(T) - projector(TI_op)) < 1e-10


class TestJsonFormat:
    def test_roundtrip_complex(self, rng):
        ch = random_channel(rng, 2, 3, COMPLEX, name="rt")
        back = channel_from_json(channel_to_json(ch))
        assert back.field == COMPLEX and back.name == "rt"
        np.testing.assert_allclose(back.coeffs, ch.coeffs)

    def test_real_channels_accept_bare_numbers(self):
        obj = {"name": "x", "field": "real", "m": 1, "N": 2, "coeffs": [[1.0, 2.0]]}
        ch = channel_from_json(obj)
        assert ch.field == REAL and not np.iscomplexobj(ch.coeffs)

    def test_fixture_channels(self):
        ch = example_channel("random")
        assert (ch.m, ch.N, ch.field) == (2, 4, REAL)
        assert ch.coeffs[0, 0] == pytest.approx(0.9477)
        ch2 = example_channel("decaying")
        assert ch2.coeffs[1, 3] == pytest.approx(0.055)

    def test_parse_error_carries_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ValueError, match=r"bad\.json:2"):
            load_channel(str(p))

    def test_shape_mismatch_rejected(self):
        obj = {"name": "x", "field": "real", "m": 2, "N": 2, "coeffs": [[1.0, 2.0]]}
        with pytest.raises(ValueError, match="rows"):
            channel_from_json(obj)
