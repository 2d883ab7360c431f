"""FIR multichannel representation and its structural operators.

A channel is an ``m x N`` tap array: ``m`` subchannels observing the same
scalar symbol stream through length-``N`` impulse responses. The stacked
coefficient vector ``h`` concatenates the per-tap vectors,
``h = [h(0); h(1); ...; h(N-1)]`` with ``h(i)`` of length ``m``.

Polynomial convention, used everywhere in the package: subchannel ``l`` has
transfer function ``H_l(z) = sum_i coeffs[l, i] z^{-i}`` and roots are
reported in the z-plane (the roots of ``z^{N-1} H_l(z)`` after trimming
exactly-zero leading/trailing taps).

Time ordering: observation and symbol vectors are stacked newest-first, so
the block-Toeplitz channel matrix has ``[H 0]`` as its first block row and
the symbol Hankel matrix reads ``A'[r, c] = A[r + c]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import _lapack_funcs, min_norm_solve

__all__ = [
    "REAL",
    "COMPLEX",
    "Channel",
    "ReducibleDecomposition",
    "DecompositionError",
    "DEFAULT_ZERO_TOL",
    "block_toeplitz",
    "toeplitz_apply",
    "toeplitz_adjoint",
    "toeplitz_gram_band",
    "toeplitz_staircase_qr",
    "taps_from_stacked",
    "symbol_hankel",
    "commutativity_op",
    "realify_channel",
    "poly_roots",
    "poly_from_roots",
    "subchannel_zeros",
    "reducible_decompose",
    "tc_matrix",
    "ti_matrix",
    "channel_from_json",
    "channel_to_json",
    "load_channel",
    "example_channel",
]

REAL = "real"
COMPLEX = "complex"

# absolute distance at which two z-plane roots count as the same zero
DEFAULT_ZERO_TOL = 1e-6

# relative reconvolution residual above which a common-factor deconvolution fails
_RESIDUAL_TOL = 1e-8


class DecompositionError(ValueError):
    """Raised when a channel cannot be factored to the requested accuracy."""


def _validate_field(field):
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {field!r}")


@dataclass(frozen=True)
class Channel:
    """FIR multichannel impulse response.

    Parameters
    ----------
    coeffs : (m, N) array_like
        Tap matrix; row ``l`` is subchannel ``l``.
    field : {"real", "complex"}
        Scalar field tag. A real channel stores a float array; constructing
        one from coefficients with nonzero imaginary parts is an error.
    name : str
        Free-form label carried through reports and CSV output.
    """

    coeffs: np.ndarray
    field: str = COMPLEX
    name: str = "channel"

    def __post_init__(self):
        _validate_field(self.field)
        C = np.atleast_2d(np.asarray(self.coeffs))
        if C.ndim != 2 or C.shape[0] < 1 or C.shape[1] < 1:
            raise ValueError(f"coeffs must be m x N with m, N >= 1, got shape {C.shape}")
        if not np.all(np.isfinite(C)):
            raise ValueError("channel coefficients must be finite")
        if self.field == REAL:
            if np.iscomplexobj(C):
                if np.any(C.imag != 0.0):
                    raise ValueError("real-field channel has nonzero imaginary parts")
                C = C.real
            C = C.astype(np.float64)
        else:
            C = C.astype(np.complex128)
        if not np.any(C != 0.0):
            raise ValueError("channel must not be identically zero")
        C.flags.writeable = False
        object.__setattr__(self, "coeffs", C)

    @property
    def m(self):
        """Number of subchannels."""
        return self.coeffs.shape[0]

    @property
    def N(self):
        """Channel length in taps."""
        return self.coeffs.shape[1]

    @property
    def h(self):
        """Stacked coefficient vector ``[h(0); ...; h(N-1)]`` of length ``m N``."""
        return self.coeffs.T.reshape(-1)

    def toeplitz(self, M):
        """Convolution operator ``T_M(h)`` for a burst of ``M`` output samples."""
        return block_toeplitz(self.coeffs, M)


def taps_from_stacked(h, m):
    """Reshape a stacked coefficient vector back into an ``m x N`` tap matrix."""
    h = np.asarray(h)
    if h.size % m:
        raise ValueError(f"stacked length {h.size} is not a multiple of m={m}")
    return h.reshape(-1, m).T


def block_toeplitz(taps, M):
    """Block-Toeplitz convolution operator from an ``m x N`` tap matrix.

    Returns the ``M m x (M + N - 1)`` matrix with ``[H 0]`` as first block
    row and one block-column shift per block row, so that multiplying a
    newest-first symbol vector performs the multichannel convolution.
    """
    taps = np.atleast_2d(np.asarray(taps))
    m, N = taps.shape
    if M < 1:
        raise ValueError("burst length M must be >= 1")
    T = np.zeros((M * m, M + N - 1), dtype=taps.dtype)
    for r in range(M):
        T[r * m:(r + 1) * m, r:r + N] = taps
    return T


def toeplitz_apply(taps, X):
    """``T_M(h) X`` as N shifted tap sums, for ``X`` with ``M + N - 1`` rows.

    Same result as ``block_toeplitz(taps, M) @ X`` without forming the
    ``M m x (M + N - 1)`` matrix; ``X`` may have columns.
    """
    m, N = taps.shape
    M = X.shape[0] - N + 1
    win = sliding_window_view(X, N, axis=0)           # win[r, ..., i] = X[r + i]
    return np.moveaxis(win @ taps.T, -1, 1).reshape((M * m,) + X.shape[1:])


def toeplitz_adjoint(taps, Y):
    """``T_M(h)^H Y`` as N shifted tap sums, for ``Y`` with ``M m`` rows.

    Block ``r`` of ``Y`` meets taps ``H`` at symbols ``r .. r + N - 1``, so the
    result sums ``Yr @ conj(H)`` along its anti-diagonals; ``Y`` may have
    columns.
    """
    m, N = taps.shape
    M = Y.shape[0] // m
    P = np.moveaxis(Y.reshape((M, m) + Y.shape[1:]), 1, -1) @ taps.conj()
    out = np.zeros((M + N - 1,) + Y.shape[1:], dtype=P.dtype)
    for i in range(N):
        out[i:i + M] += P[..., i]
    return out


@lru_cache(maxsize=32)
def _gram_band_map(M, N):
    """Read-only 0/1 matrix ``W`` with ``band.T.ravel() = R.ravel() @ W`` for
    the band of :func:`toeplitz_gram_band`: entry ``(N - 1 - d, j)`` sums
    ``R[k, k + d]`` over ``0 <= j - d - k < M``."""
    n = M + N - 1
    W = np.zeros((N, N, n, N))
    for d in range(N):
        for k in range(N - d):
            W[k, k + d, d + k:d + k + M, N - 1 - d] = 1.0
    W = W.reshape(N * N, n * N)
    W.flags.writeable = False
    return W


def toeplitz_gram_band(taps, M):
    """``T_M(h)^H T_M(h)`` in LAPACK's upper band storage, ``(N, M + N - 1)``.

    The Gram is Hermitian banded with bandwidth N - 1: its d-th
    superdiagonal is the d-th diagonal of ``R = H^H H`` convolved with M
    ones, and sits in row ``N - 1 - d``. That linear map from ``R`` is one
    0/1 matrix per ``(M, N)``, cached, so a call is one small product
    (a complex ``R`` goes through it as its real and imaginary parts).

    A stack of ``T`` tap matrices, ``(T, m, N)``, gives the ``T`` Grams end
    to end, ``(N, T (M + N - 1))``: one block-diagonal band whose blocks do
    not couple (the unused corner of each block is zero), from one product.
    The band is in Fortran order, as LAPACK reads it.
    """
    N = taps.shape[-1]
    R = np.asarray(taps.conj().swapaxes(-1, -2) @ taps, dtype=np.result_type(taps, np.float64))
    R = R.reshape(-1, N * N)
    T = R.shape[0]
    if np.iscomplexobj(R):
        # rows 2t and 2t + 1: the real and imaginary parts of R_t
        parts = R.view(np.float64).reshape(T, N * N, 2).transpose(0, 2, 1).reshape(2 * T, -1)
        out = (parts @ _gram_band_map(M, N)).reshape(T, 2, -1)
        band = out[:, 0] + 1j * out[:, 1]
    else:
        band = R @ _gram_band_map(M, N)
    return band.reshape(-1, N).T


# time steps per staircase QR step: wide enough that the LAPACK call, not
# Python, dominates each step; the band of R grows with it
_STAIRCASE_BLOCK = 32


@lru_cache(maxsize=64)
def _upper_indices(rows, cols):
    """``np.triu_indices(rows, 0, cols)``, kept read-only across calls."""
    idx = np.triu_indices(rows, 0, cols)
    for a in idx:
        a.flags.writeable = False
    return idx


def toeplitz_staircase_qr(taps, B):
    """Triangularize ``[T_M(h) | B]`` by a staircase of small QRs.

    ``B`` has ``M m`` rows. Returns ``(R, C1, G2)``: the ``n x n``
    upper-triangular ``R`` of ``T_M(h) = Q [R; 0]`` (``n = M + N - 1``) in
    LAPACK's upper band storage, ``(kd + 1, n)`` with ``R[i, j]`` in row
    ``kd + i - j`` and ``kd = min(32, M) + N - 2``; the right-hand-side
    rows ``C1 = (Q^H B)[:n]``; and the Gram ``G2`` of the rows ``(Q^H B)[n:]``
    that fall outside every column of ``T_M(h)``, so that ``G2`` is the
    least-squares residual Gram when ``R`` has full rank.

    Block rows ``t .. t + b - 1`` (``b`` at most 32) meet columns
    ``t .. t + b + N - 2`` only, so each step takes one QR of the ``N - 1``
    carried rows on columns ``t .. t + N - 2`` stacked on the block's
    ``m b`` new rows (a copy of ``T_b(h)``), keeps its first ``b`` rows,
    carries the next ``N - 1`` and adds the Gram of the rest to ``G2``; the
    first step carries ``N - 1`` zero rows. Neither the dense ``T_M(h)``
    nor any ``M m x M m`` matrix is formed: ``O(M (m b + N) (b + N + p)^2 / b)``
    work for ``p`` right-hand sides, linear in M.
    """
    m, N = taps.shape
    M = B.shape[0] // m
    n, p = M + N - 1, B.shape[1]
    dtype = np.result_type(taps, B)
    geqrf, = _lapack_funcs(("geqrf",), dtype)
    b = min(_STAIRCASE_BLOCK, M)
    kd = b + N - 2
    Tb = np.zeros((b, m, b + N - 1), dtype=dtype)
    r = np.arange(b)
    for i in range(N):
        Tb[r, :, r + i] = taps[:, i]
    Tb = Tb.reshape(b * m, b + N - 1)                 # T_b(h)
    R = np.zeros((kd + 1, n), dtype=dtype, order="F")
    C1 = np.empty((n, p), dtype=dtype)
    G2 = np.zeros((p, p), dtype=dtype)
    carry_R = np.zeros((N - 1, N - 1), dtype=dtype)   # carried rows: their R part
    carry_C = np.zeros((N - 1, p), dtype=dtype)       # and their right-hand side
    for t in range(0, M, b):
        bt = min(b, M - t)
        L = bt + N - 1
        K = np.zeros((N - 1 + m * bt, L + p), dtype=dtype, order="F")
        K[:N - 1, :N - 1] = carry_R
        K[:N - 1, L:] = carry_C
        K[N - 1:, :L] = Tb[:m * bt, :L]
        K[N - 1:, L:] = B[t * m:(t + bt) * m]
        qr, _, _, info = geqrf(K, overwrite_a=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of geqrf")
        keep = L if t + bt == M else bt
        i, j = _upper_indices(keep, L)
        R[kd + i - j, t + j] = qr[i, j]
        C1[t:t + keep] = qr[:keep, L:]
        carry_R, carry_C = np.triu(qr[bt:L, bt:L]), qr[bt:L, L:]
        rest = np.triu(qr[L:L + p, L:])
        G2 += rest.conj().T @ rest
    return R, C1, G2


def symbol_hankel(A, N, M=None):
    """Hankel matrix ``A'`` with ``A'[r, c] = A[r + c]`` from a symbol vector.

    ``A`` has length ``M + N - 1`` (newest-first); the result is ``M x N``.
    """
    A = np.asarray(A).ravel()
    if M is None:
        M = A.size - N + 1
    if A.size != M + N - 1:
        raise ValueError(f"symbol vector length {A.size} != M+N-1 = {M + N - 1}")
    idx = np.arange(M)[:, None] + np.arange(N)[None, :]
    return A[idx]


def commutativity_op(A, m, N, M=None):
    """Operator ``A_op = A' (x) I_m`` satisfying ``T(h) A = A_op h`` for all h.

    ``A`` is a symbol vector of length ``M + N - 1``.
    """
    Ap = symbol_hankel(A, N, M)
    out = np.zeros((Ap.shape[0], m, N, m), dtype=np.result_type(Ap, np.float64))
    diag = np.arange(m)
    out[:, diag, :, diag] = Ap       # out[r, l, c, l] = A'[r, c]
    return out.reshape(Ap.shape[0] * m, N * m)


def realify_channel(ch: Channel) -> Channel:
    """Real representation of a complex channel: subchannel count doubles.

    Each complex subchannel splits into a (Re, Im) pair of real subchannels,
    interleaved in that order, so that driving the result with a real symbol
    stream reproduces the real and imaginary parts of the complex output.
    A channel whose coefficients are already real is returned unchanged up to
    the field tag (no doubling; the imaginary rows would be identically zero).
    """
    C = ch.coeffs
    if ch.field == REAL:
        return ch
    if not np.any(C.imag != 0.0):
        return Channel(C.real, field=REAL, name=ch.name)
    out = np.empty((2 * ch.m, ch.N), dtype=np.float64)
    out[0::2] = C.real
    out[1::2] = C.imag
    return Channel(out, field=REAL, name=f"{ch.name}-real")


def _trimmed(c):
    """Coefficients with exactly-zero leading/trailing taps removed."""
    c = np.asarray(c).ravel()
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return c[:0]
    return c[nz[0]:nz[-1] + 1]


def poly_roots(c):
    """z-plane roots of ``H(z) = sum_i c[i] z^{-i}`` after degree reduction."""
    c = _trimmed(c)
    if c.size <= 1:
        return np.array([], dtype=complex)
    return np.roots(c)


def poly_from_roots(roots, real_field=False):
    """Monic coefficient vector (z^{-1} convention) with the given z-plane roots."""
    c = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
    if real_field:
        if np.abs(c.imag).max(initial=0.0) > 1e-9 * max(1.0, np.abs(c).max()):
            raise ValueError("roots do not describe a real-coefficient polynomial")
        c = c.real
    return c


def subchannel_zeros(ch: Channel):
    """List of z-plane root arrays, one per subchannel."""
    return [poly_roots(ch.coeffs[l]) for l in range(ch.m)]


def _cluster_common(per, tol):
    """Roots shared by every per-subchannel root array of ``per``, clustered
    at absolute tolerance ``tol``.

    Multiplicities are respected: a double common root must appear (within
    ``tol``) twice in every subchannel. For a monochannel every root is
    common. Returned values average the matched cluster.
    """
    if len(per) == 1:
        return per[0]
    out = []
    pools = [list(r) for r in per[1:]]
    for r in per[0]:
        cluster = [r]
        ok = True
        for pool in pools:
            if not pool:
                ok = False
                break
            dist = [abs(p - r) for p in pool]
            j = int(np.argmin(dist))
            if dist[j] > tol:
                ok = False
                break
            cluster.append(pool[j])
        if ok:
            for pool in pools:
                dist = [abs(p - r) for p in pool]
                pool.pop(int(np.argmin(dist)))
            out.append(np.mean(cluster))
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class ReducibleDecomposition:
    """Factorization ``H(z) = H_I(z) H_c(z)`` with monic scalar ``H_c``.

    ``irreducible_part`` has length ``N_I = N - N_c + 1`` (the channel itself
    when ``N_c = 1``); ``monic`` holds the ``N_c`` coefficients of ``H_c``
    (first coefficient 1); ``residual`` is the relative error of reconvolving
    the factors against the original taps; ``roots`` are the common zeros
    that build ``H_c``, clustered from ``zeros``, each subchannel's z-plane
    roots (:func:`subchannel_zeros`).
    Built by :func:`reducible_decompose`, the one place that decides the
    common factor.
    """

    irreducible_part: Channel
    monic: np.ndarray
    residual: float
    roots: np.ndarray
    zeros: tuple

    @property
    def N_c(self):
        return len(self.monic)

    @property
    def N_I(self):
        return self.irreducible_part.N

    @property
    def m(self):
        return self.irreducible_part.m


def reducible_decompose(ch: Channel, tol=DEFAULT_ZERO_TOL):
    """Factor a channel into an irreducible part and a monic common factor.

    The common factor is built from the common zeros clustered at ``tol``;
    the irreducible part is recovered by least-squares deconvolution of all
    subchannels at once, which is far better conditioned than synthetic
    division when roots are clustered. Irreducible channels return
    ``H_c = [1]`` and the channel itself as the irreducible part.

    Raises
    ------
    DecompositionError
        If the relative reconvolution residual exceeds ``1e-8``.
    """
    zeros = tuple(subchannel_zeros(ch))
    roots = _cluster_common(zeros, tol)
    if roots.size == 0:
        one = np.array([1.0]) if ch.field == REAL else np.array([1.0 + 0.0j])
        return ReducibleDecomposition(ch, one, 0.0, roots, zeros)
    hc = poly_from_roots(roots, real_field=(ch.field == REAL))
    Nc = hc.size
    NI = ch.N - Nc + 1
    if NI < 1:
        raise DecompositionError("common factor longer than the channel itself")
    conv = block_toeplitz(hc[None, :], NI).T        # (N, N_I) scalar convolution map
    sol, _ = min_norm_solve(conv, ch.coeffs.T)      # (N_I, m), one column per subchannel
    residual = np.linalg.norm(conv @ sol - ch.coeffs.T) / np.linalg.norm(ch.coeffs)
    if residual > _RESIDUAL_TOL:
        raise DecompositionError(
            f"deconvolution residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e}"
        )
    part = Channel(sol.T, field=ch.field, name=f"{ch.name}-irreducible")
    return ReducibleDecomposition(part, hc, float(residual), roots, zeros)


def tc_matrix(dec: ReducibleDecomposition):
    """``T_c`` with ``h = T_c h_I``: convolution by the common factor.

    Equals the transposed scalar Toeplitz operator of ``H_c`` Kronecker the
    subchannel identity, an ``m N x m N_I`` matrix.
    """
    T = block_toeplitz(dec.monic[None, :], dec.N_I)  # (N_I, N)
    return np.kron(T.T, np.eye(dec.m))


def ti_matrix(dec: ReducibleDecomposition):
    """``T_I`` with ``h = T_I h_c``: block Toeplitz in the irreducible taps.

    First column is ``[h_I; 0]``; shape ``m N x N_c``.
    """
    m, NI, Nc = dec.m, dec.N_I, dec.N_c
    N = NI + Nc - 1
    hI = dec.irreducible_part.h
    TI = np.zeros((m * N, Nc), dtype=hI.dtype)
    for k in range(Nc):
        TI[k * m:k * m + NI * m, k] = hI
    return TI


# ---------------------------------------------------------------------------
# JSON channel format
# ---------------------------------------------------------------------------
#
# {"name": str, "field": "real"|"complex", "m": int, "N": int,
#  "coeffs": [[entry x N] x m]}   entry = number | [re, im]


def _entry_to_scalar(e):
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, (list, tuple)) and len(e) == 2:
        return complex(e[0], e[1])
    raise ValueError(f"bad coefficient entry {e!r}; expected number or [re, im]")


def channel_from_json(obj) -> Channel:
    """Build a :class:`Channel` from a parsed JSON object (see module docs)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        field = obj["field"]
        m, N = int(obj["m"]), int(obj["N"])
        rows = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"channel JSON missing required key: {exc}") from exc
    _validate_field(field)
    if len(rows) != m or any(len(r) != N for r in rows):
        raise ValueError(f"coeffs must be {m} rows of {N} entries")
    C = np.array([[_entry_to_scalar(e) for e in row] for row in rows])
    if field == REAL:
        C = C.real
    return Channel(C, field=field, name=obj.get("name", "channel"))


def channel_to_json(ch: Channel) -> dict:
    """JSON-serializable dict for a channel (inverse of :func:`channel_from_json`)."""
    if ch.field == REAL:
        rows = [[float(x) for x in row] for row in ch.coeffs]
    else:
        rows = [[[float(x.real), float(x.imag)] for x in row] for row in ch.coeffs]
    return {"name": ch.name, "field": ch.field, "m": ch.m, "N": ch.N, "coeffs": rows}


def load_channel(path) -> Channel:
    """Load a channel from a JSON file, with file/line context on parse errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    try:
        return channel_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def example_channel(name) -> Channel:
    """Bundled test channels: ``"random"`` (2x4) and ``"decaying"`` (2x4)."""
    fname = {"random": "chan_random.json", "decaying": "chan_decaying.json"}.get(name)
    if fname is None:
        raise ValueError(f"unknown example channel {name!r}; use 'random' or 'decaying'")
    ref = resources.files("blindcrb.data").joinpath(fname)
    return channel_from_json(json.loads(ref.read_text(encoding="utf-8")))
