"""Field-generic dense linear algebra primitives.

Everything in this module works on plain NumPy arrays and treats the
real/complex distinction as semantic: real inputs stay real, complex inputs
stay complex, and nothing silently promotes. The routines here back the rest
of the package: pseudo-inverses of Hermitian matrices from their
eigendecomposition, null-space bases, rank counts, and the mapping between a
complex parameter vector and its stacked real representation
``theta_R = [Re(theta); Im(theta)]``.

Two rank rules live here, each written once. An SVD rank counts the singular
values above ``max(rows, cols) * eps * sigma_max``, the usual cutoff; it has
no per-call knob, and every SVD helper below applies it, as does
:func:`pseudo_inverse` to the absolute eigenvalues. A Fisher-information
rank counts the eigenvalues above ``tol * lambda_max``
(:func:`eigenvalue_rank`), with ``tol`` defaulting to ``DEFAULT_RANK_TOL``.

This is the one module that touches SciPy, and only for its banded LAPACK
routines: ``scipy.linalg`` is imported on the first lookup of one of them,
so ``import blindcrb`` and the Gaussian-model commands run on NumPy alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "pseudo_inverse",
    "null_space_basis",
    "numerical_rank",
    "min_norm_solve",
    "cholesky_solve",
    "triangular_rank_reveal",
    "eigenvalue_rank",
    "bordered_band_rank",
    "hermitian_nullity",
    "realify_vector",
    "realify_fim",
    "principal_angle",
]

_EPS = np.finfo(np.float64).eps

# relative eigenvalue threshold for Fisher-information rank decisions
DEFAULT_RANK_TOL = 1e-8

# half-width, relative to the shift t of an inertia count, of the windows
# around t (for an eigenvalue of B) and around 0 (for one of S) inside which
# that count is ill-conditioned and the dense count decides
_INERTIA_WINDOW = 1e-2


def _as_matrix(A, name="A"):
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _svd_rank(s, shape, s_max=None):
    """Count of the singular values ``s`` of a matrix of ``shape`` above
    ``max(shape) * eps * s_max``: the one SVD rank rule of this module.
    ``s_max`` defaults to ``s[0]`` (``s`` descending). An empty or all-zero
    spectrum has rank 0."""
    if s_max is None:
        s_max = s[0] if s.size else 0.0
    if s_max == 0.0:
        return 0
    return int(np.count_nonzero(s > max(shape) * _EPS * s_max))


def pseudo_inverse(w, V):
    """Moore-Penrose pseudo-inverse of the Hermitian ``F = V diag(w) V^H``
    from its eigendecomposition (``w`` real, ``V`` unitary).

    The singular values of ``F`` are ``|w|``, so the SVD rule applies to
    them: eigenvalues with ``|w|`` at or below ``n * eps * max|w|`` count as
    zero. Returns ``V diag(1/w) V^H`` over the kept eigenvalues, which are
    the ``rank`` largest in magnitude.
    """
    s = np.abs(w)
    keep = np.argsort(s)[s.size - _svd_rank(s, V.shape, s.max(initial=0.0)):]
    return (V[:, keep] / w[keep]) @ V[:, keep].conj().T


def numerical_rank(A):
    """Rank of ``A``: singular values above ``max(m, n) * eps * sigma_max``."""
    A = _as_matrix(A)
    return _svd_rank(np.linalg.svd(A, compute_uv=False), A.shape)


def min_norm_solve(A, B):
    """Minimum-norm least-squares solution of ``A X = B`` and the rank of ``A``.

    Singular values at or below ``max(m, n) * eps * sigma_max`` count as
    zero: the rule of :func:`numerical_rank`. Returns ``(X, rank)``.
    """
    A = _as_matrix(A)
    X, _, rank, _ = np.linalg.lstsq(A, B, rcond=max(A.shape) * _EPS)
    return X, int(rank)


@lru_cache(maxsize=None)
def _lapack_funcs(names, dtype=None):
    """SciPy's handles for ``names``, looked up once per ``(names, dtype)``.

    The package's one gateway to SciPy: ``scipy.linalg`` is imported here,
    on the first call, so a run that needs no banded LAPACK (every
    Gaussian-model command) never loads it. With a ``dtype`` each name is a
    LAPACK routine of that type, or the BLAS ``tbmv``; without one it is a
    function of ``scipy.linalg`` (``eigvals_banded``).
    """
    import scipy.linalg as sla

    if dtype is None:
        return tuple(getattr(sla, name) for name in names)
    return tuple(
        (sla.get_blas_funcs if name == "tbmv" else sla.get_lapack_funcs)(
            (name,), dtype=dtype)[0]
        for name in names)


def cholesky_solve(band, rhs):
    """Solve the block-diagonal stack of Hermitian positive semidefinite
    Grams ``G_t`` in ``band`` against ``rhs`` through one Cholesky factor;
    returns ``(X, regular)``.

    ``band`` is in LAPACK's upper band storage (superdiagonal ``d`` of a
    bandwidth-``b`` matrix in row ``b - d``), ``(b + 1, T n)``: the ``T``
    Grams of order ``n`` end to end with zero couplings. A dense Gram is the
    band with ``b = n - 1``. ``rhs`` has shape ``(T, n, k)`` and ``X`` has
    the same shape. One ``pbtrf`` and one ``pbtrs`` are called directly,
    their LAPACK handles looked up once per dtype.

    ``regular[t]`` is False where ``G_t`` is numerically singular, and the
    rows of ``X[t]`` are then meaningless: the factor fails inside block
    ``t``, or its smallest squared pivot there is at or below
    ``DEFAULT_RANK_TOL`` times its largest, the relative eigenvalue rule of
    :func:`hermitian_nullity`. A numerically singular Gram can still factor,
    and a solve through that factor adds an arbitrary null-space part;
    callers then take :func:`min_norm_solve`. For ``b`` below LAPACK's block
    size ``pbtrf`` runs column by column, so the zero couplings add exact
    zeros and each block gets the factor it would get alone; a factor that
    fails inside block ``t`` is taken again from block ``t + 1`` on.
    """
    rhs = np.asarray(rhs)
    T, n, k = rhs.shape
    kd = band.shape[0] - 1
    if band.shape[1] != T * n:
        raise ValueError(f"band has {band.shape[1]} columns, not {T} blocks of {n}")
    trf, trs = _lapack_funcs(("pbtrf", "pbtrs"), np.result_type(band, rhs))
    regular = np.ones(T, dtype=bool)
    factor, info = trf(band, lower=0)
    start = 0
    while info > 0:
        # the factor stopped in block t: the columns left of it are final, an
        # identity factor stands in for t, and the factor restarts after it
        t = (start + info - 1) // n
        regular[t] = False
        factor[:, t * n:(t + 1) * n] = 0.0
        factor[kd, t * n:(t + 1) * n] = 1.0
        start, info = (t + 1) * n, 0
        if start < T * n:
            factor[:, start:], info = trf(band[:, start:], lower=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of pbtrf")
    pivots = np.abs(factor[kd].reshape(T, n)) ** 2
    regular &= pivots.min(axis=1) > DEFAULT_RANK_TOL * pivots.max(axis=1)
    x, info = trs(factor, rhs.reshape(T * n, k), lower=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of pbtrs")
    return x.reshape(T, n, k), regular


def _band_abs_row_sums(band):
    """Row sums of ``|G|`` for a Hermitian ``G`` in upper band storage whose
    unused corner entries are zero: the Gershgorin radii plus the diagonal."""
    A = np.abs(band)
    w, n = A.shape[0] - 1, A.shape[1]
    rowsum = A.sum(axis=0)                    # diagonal and the column above it
    for d in range(1, w + 1):
        rowsum[:n - d] += A[w - d, d:]        # and the row right of it
    return rowsum


def triangular_rank_reveal(R, k, gram, rows=None):
    """Numerical rank of an upper-triangular ``R`` of nullity below ``k``,
    with its ``k`` smallest singular values and left singular vectors.

    ``R`` is ``n x n`` in LAPACK's upper band storage, ``(kd + 1, n)`` with
    ``R[i, j]`` in row ``kd + i - j`` (``kd = n - 1`` holds any triangular
    matrix): the triangular factor of a matrix with ``rows`` rows (default
    n) whose Gram ``R^H R`` is ``gram``, in the same storage with its own
    bandwidth. Rank follows the SVD rule of :func:`numerical_rank` for that
    matrix: singular values at or below ``max(rows, n) eps s_max`` count as
    zero, with ``s_max^2`` the largest eigenvalue of ``gram``.

    No SVD of ``R`` is taken: two steps of block inverse iteration with
    ``(R R^H)^-1``, one banded triangular solve with ``R`` and one with
    ``R^H`` each, from a fixed ``n x k`` start block, then a Ritz SVD of the
    ``n x k`` product ``R^H U``; ``O(n kd k)`` work. ``s_max`` lies between
    the largest column norm ``s_lo`` and the Gershgorin bound of ``gram``;
    only when a Ritz value falls between the two cutoffs is it computed
    exactly (:func:`scipy.linalg.eigvals_banded`). Pivots below
    ``eps s_lo`` (exact zeros included) are raised to it first, a
    perturbation far inside the cutoff. Returns ``(rank, s, U)`` with the
    Ritz values ``s`` ascending and ``U`` their orthonormal left singular
    vectors (n x k); ``U[:, :n - rank]`` spans the dropped ones.
    """
    R = np.array(_as_matrix(R, "R"), order="F")
    kd, n = R.shape[0] - 1, R.shape[1]
    G = _as_matrix(gram, "gram")
    s_lo, s_hi = np.sqrt(np.abs(G[-1]).max()), np.sqrt(_band_abs_row_sums(G).max())
    if s_lo == 0.0:
        raise ValueError("R is zero")
    floor = _EPS * s_lo
    R[kd, np.abs(R[kd]) < floor] = floor
    tbtrs, geqrf, orgqr, tbmv = _lapack_funcs(("tbtrs", "geqrf", "orgqr", "tbmv"), R.dtype)

    def solve(U, trans):
        x, info = tbtrs(R, U, trans=trans)
        if info != 0:
            raise ValueError(f"tbtrs failed with info={info}")
        qr, tau, _, _ = geqrf(x, overwrite_a=1)
        return orgqr(qr, tau, overwrite_a=1)[0]

    # a fixed quasi-random block: deterministic, and unlike unit vectors or
    # ones not orthogonal to the structured null vectors of Toeplitz factors
    U = np.cos(np.outer(np.arange(1, n + 1), np.arange(1, k + 1)) * 0.6180339887498949)
    U = U.astype(R.dtype)
    for _ in range(2):
        U = solve(solve(U, "N"), "C")
    RhU = np.empty_like(U)
    for c in range(k):
        RhU[:, c] = tbmv(kd, R, U[:, c], trans=2)
    _, s, Wh = np.linalg.svd(RhU, full_matrices=False)
    U = U @ Wh.conj().T
    shape = (n if rows is None else rows, n)
    s_max = s_hi
    if _svd_rank(s, shape, s_lo) != _svd_rank(s, shape, s_hi):
        eigvals_banded, = _lapack_funcs(("eigvals_banded",))
        s_max = np.sqrt(eigvals_banded(gram, select="i", select_range=(n - 1, n - 1))[0])
    rank = n - k + _svd_rank(s, shape, s_max)
    return rank, s[::-1], U[:, ::-1]


def null_space_basis(A):
    """Orthonormal basis of the numerical null space of ``A``.

    The column count is ``n - rank(A)``, with the rank of
    :func:`numerical_rank`. An all-zero matrix returns the identity (any
    orthonormal basis of the full space is valid; compare spans, not
    entries).
    """
    A = _as_matrix(A)
    _, s, Vh = np.linalg.svd(A)
    r = _svd_rank(s, A.shape)
    if r == 0:
        return np.eye(A.shape[1], dtype=A.dtype)
    return Vh[r:].conj().T


def eigenvalue_rank(w, tol=DEFAULT_RANK_TOL):
    """(rank, nullity) of a Hermitian PSD matrix from its eigenvalues ``w``.

    Eigenvalues at or below ``tol * lambda_max`` count as zero; with no
    positive eigenvalue the whole space is null. Used for Fisher-information
    rank decisions where the true null eigenvalues sit many orders below the
    smallest genuine one.
    """
    w = np.asarray(w)
    wmax = float(w.max()) if w.size else 0.0
    if wmax <= 0.0:
        return 0, w.size
    nullity = int(np.count_nonzero(w <= tol * wmax))
    return w.size - nullity, nullity


def bordered_band_rank(band, X, C, tol=DEFAULT_RANK_TOL):
    """(rank, nullity) of the Hermitian PSD ``G = [[B, X], [X^H, C]]`` under
    the rule of :func:`eigenvalue_rank`, counted by inertia without forming
    ``G`` unless the count is ill-conditioned.

    ``B`` (order ``n1``, bandwidth ``kd``) is in LAPACK's upper band storage
    with zero unused corners; ``X`` is ``n1 x n2`` and ``C`` is ``n2 x n2``.
    At a shift ``t``, ``#eig(G) <= t = #eig(B) <= t + #eig(S(t)) <= 0`` with
    ``S(t) = C - t I - X^H (B - t I)^-1 X`` (Sylvester, Haynsworth). The
    count is taken at ``t = tol lo`` and ``t = tol hi``, ``lo`` the largest
    diagonal entry and ``hi`` the Gershgorin bound. When ``B - (t + w) I``
    has a banded Cholesky factor at the larger shift, ``#eig(B) <= t`` is 0
    and ``S = C - t I - Z^H Z``, ``Z = U^-H X`` from the factor ``U`` of
    ``B - t I``; otherwise :func:`scipy.linalg.eigvals_banded` counts it and
    a banded LU solve forms ``S``. The dense count of the assembled ``G``
    decides when the two counts differ, or when an eigenvalue of ``B`` lies
    within ``w`` of ``t`` or one of ``S`` within ``w`` of 0;
    ``w = 1e-2 t + (n1 + n2) eps hi``. Cost ``O(n1 kd (kd + n2) + n1 n2^2 +
    n2^3)``; ``eigvals_banded`` adds an ``O(n1^2 kd)`` band reduction.
    """
    kd, n1, n2 = band.shape[0] - 1, band.shape[1], C.shape[0]
    n = n1 + n2
    lo = max(band[kd].real.max(), C.diagonal().real.max())
    absX = np.abs(X)
    hi = max((_band_abs_row_sums(band) + absX.sum(axis=1)).max(),
             (np.abs(C).sum(axis=1) + absX.sum(axis=0)).max())
    shifts = (tol * lo, tol * hi)
    windows = [_INERTIA_WINDOW * t + n * _EPS * hi for t in shifts]
    pbtrf, tbtrs, gbsv = _lapack_funcs(("pbtrf", "tbtrs", "gbsv"), np.result_type(band, X))
    top = shifts[1] + windows[1]
    shifted = band.copy()
    shifted[kd] -= top
    ev = None                        # B > top I: no eigenvalue of B counts
    if pbtrf(shifted)[1] != 0:
        eigvals_banded, = _lapack_funcs(("eigvals_banded",))
        ev = eigvals_banded(band, select="v", select_range=(-np.inf, top))
        # B in gbsv's general band storage: kd rows of fill-in, then the
        # upper band, then the lower band by symmetry
        ab = np.zeros((3 * kd + 1, n1), dtype=band.dtype)
        ab[kd:2 * kd + 1] = band
        for d in range(1, kd + 1):
            ab[2 * kd + d, :n1 - d] = band[kd - d, d:].conj()
    counts = []
    for t, w in zip(shifts, windows):
        if ev is None:
            shifted[kd] = band[kd] - t
            U, info = pbtrf(shifted)
            if info != 0:
                break
            Z, _ = tbtrs(U, X, trans="C")
            below, S = 0, C - Z.conj().T @ Z
        else:
            if np.any(np.abs(ev - t) <= w):
                break
            ab[2 * kd] = band[kd] - t
            _, _, Y, info = gbsv(kd, kd, ab, X)
            if info != 0:
                break
            S = C - X.conj().T @ Y
            below, S = int(np.count_nonzero(ev < t)), 0.5 * (S + S.conj().T)
        S.flat[::n2 + 1] -= t
        s = np.linalg.eigvalsh(S)
        if np.any(np.abs(s) <= w):
            break
        counts.append(below + int(np.count_nonzero(s < 0)))
    if len(counts) == 2 and counts[0] == counts[1]:
        return n - counts[0], counts[0]
    G = np.zeros((n, n), dtype=np.result_type(band, X, C))
    for d in range(kd + 1):
        i = np.arange(n1 - d)
        G[i, i + d] = band[kd - d, d:]
        G[i + d, i] = band[kd - d, d:].conj()
    G[:n1, n1:], G[n1:, :n1], G[n1:, n1:] = X, X.conj().T, C
    return eigenvalue_rank(np.linalg.eigvalsh(G), tol)


def hermitian_nullity(J, tol=DEFAULT_RANK_TOL):
    """(rank, nullity, eigvals, eigvecs) of a Hermitian PSD matrix, counted
    by :func:`eigenvalue_rank`."""
    J = _as_matrix(J, "J")
    w, V = np.linalg.eigh(J)
    rank, nullity = eigenvalue_rank(w, tol)
    return rank, nullity, w, V


def realify_vector(z):
    """Stack a complex vector as ``[Re(z); Im(z)]`` (real vectors pass through)."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return np.concatenate([z.real, z.imag])
    return z.astype(np.float64, copy=True)


def _check_fim_pair(J, J_cross):
    J = _as_matrix(J, "J")
    if J.shape[0] != J.shape[1]:
        raise ValueError("J must be square")
    if J_cross is None:
        J_cross = np.zeros_like(J, dtype=complex)
    else:
        J_cross = _as_matrix(J_cross, "J_cross")
        if J_cross.shape != J.shape:
            raise ValueError(
                f"cross matrix shape {J_cross.shape} does not match J shape {J.shape}"
            )
    return np.asarray(J, dtype=complex), np.asarray(J_cross, dtype=complex)


def realify_fim(J, J_cross=None):
    """Real-representation FIM for ``theta_R = [Re(theta); Im(theta)]``.

    Given the complex information matrices ``J`` (Hermitian) and ``J_cross``
    (symmetric; zero when absent), assembles the two-block sum

    ``2 [[Re J, -Im J], [Im J, Re J]] + 2 [[Re Jc, Im Jc], [Im Jc, -Re Jc]]``

    which is the exact Fisher information of the stacked real parameters:
    it reproduces the empirical score covariance (see the simulation module's
    estimator). The output is real symmetric.
    """
    J, Jc = _check_fim_pair(J, J_cross)
    top = np.block([[J.real, -J.imag], [J.imag, J.real]])
    cross = np.block([[Jc.real, Jc.imag], [Jc.imag, -Jc.real]])
    out = 2.0 * top + 2.0 * cross
    return 0.5 * (out + out.T)


def principal_angle(v, basis):
    """Principal angle (radians) between vector ``v`` and ``span(basis)``.

    ``basis`` must have orthonormal columns. Returns ``pi/2`` when the basis
    is empty.
    """
    v = np.asarray(v).ravel()
    B = np.asarray(basis)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("cannot measure the angle of a zero vector")
    if B.ndim != 2 or B.shape[1] == 0:
        return float(np.pi / 2)
    # sine form: well conditioned near zero, where match decisions are made
    resid = v / nv - B @ (B.conj().T @ (v / nv))
    return float(np.arcsin(min(1.0, np.linalg.norm(resid))))
