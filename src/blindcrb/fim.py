"""Fisher information matrices for the blind multichannel models.

Two constructions live here:

* the deterministic-symbol model, where the FIM is the scaled Gram matrix of
  ``[T(h) A_op]`` over the joint parameter ``theta = [A; h]``
  (:func:`deterministic_fim`) and its reduction onto the channel block
  (:func:`deterministic_reduced_fim`). The reduction is the residual Gram
  ``E^H E / sigma_v^2`` with ``E = A_op - T(h) X`` and ``X`` the least-squares
  solution of ``T(h) X = A_op``, taken from a Cholesky factor of the banded
  ``T(h)^H T(h)``: linear in M, with no dense ``T(h)`` and no ``ny x ny``
  matrix. When that Gram is numerically singular, a staircase QR of
  ``[T(h) | A_op]`` and a rank reveal on its banded triangular factor under
  the SVD rule ``max(shape) eps`` give the same reduction as Grams of
  orthogonally transformed rows, also linear in M; that rank flags a
  rank-deficient ``T(h)``. The joint FIM's rank and nullity are counted by
  inertia from the same structured blocks, linear in M, without forming it
  (:func:`deterministic_joint_counts`); the dense :func:`deterministic_fim`
  is the reference;
* the Gaussian-symbol model over ``theta = [h; sigma_v^2]``
  (:func:`gaussian_fim`), in the channel's own field; a complex channel's FIM
  also carries the cross matrix ``J_cross``. Its covariance slabs are column
  gathers of ``T(h)``, so every trace ``tr(C^-1 G_a C^-1 G_b)`` is a gathered
  sum over ``C^-1``, ``C^-1 T`` and ``T^H C^-1 T``: one Cholesky of ``C`` and
  ``O(ny^3 + (mN)^2 M^2)`` work, with no ``(p, ny, ny)`` slab tensor.

Complex-model results convert to the stacked real representation with
:meth:`FimResult.realified`; blocks keep their names so Schur reductions can
be phrased representation-independently (``schur_reduce(fim, keep="h")``).
:func:`channel_block` is the one path from a model FIM to its stacked-real
channel block with the other blocks reduced out.

Every FIM here is Hermitian (or real symmetric) positive semidefinite;
builders validate this and refuse gross violations. Rank and null-space
decisions use the relative eigenvalue threshold of
:func:`~blindcrb.linalg.eigenvalue_rank` (default
``linalg.DEFAULT_RANK_TOL = 1e-8``), which for these problems sits many
decades inside the gap between true singularities (~1e-16 relative) and the
smallest genuine eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    COMPLEX,
    REAL,
    Channel,
    commutativity_op,
    toeplitz_adjoint,
    toeplitz_apply,
    toeplitz_gram_band,
    toeplitz_staircase_qr,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    bordered_band_rank,
    cholesky_solve,
    hermitian_nullity,
    principal_angle,
    realify_fim,
    triangular_rank_reveal,
)

__all__ = [
    "DETERMINISTIC",
    "GAUSSIAN",
    "SingularBlockError",
    "ParamBlock",
    "ParamLayout",
    "FimResult",
    "MomentStack",
    "GaussianModelConfig",
    "gaussian_moment_stack",
    "deterministic_fim",
    "deterministic_joint_operator",
    "deterministic_joint_counts",
    "deterministic_reduced_fim",
    "gaussian_fim",
    "gaussian_real_param_derivs",
    "schur_reduce",
    "channel_block",
    "SingularityReport",
    "analyze_singularities",
    "phase_direction",
]

DETERMINISTIC = "deterministic"
GAUSSIAN = "gaussian"

# principal angle (radians) below which a predicted null direction matches
_MATCH_TOL = 1e-6


class SingularBlockError(np.linalg.LinAlgError):
    """Raised when a nuisance block that must be inverted is singular."""


@dataclass(frozen=True)
class ParamBlock:
    name: str
    length: int
    field: str


@dataclass(frozen=True)
class ParamLayout:
    """Ordered parameter blocks; block lengths sum to the FIM dimension."""

    blocks: tuple

    @property
    def dim(self):
        return sum(b.length for b in self.blocks)

    def block_slice(self, name):
        off = 0
        for b in self.blocks:
            if b.name == name:
                return slice(off, off + b.length)
            off += b.length
        raise KeyError(f"no parameter block named {name!r}")

    def block(self, name):
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no parameter block named {name!r}")

    @property
    def names(self):
        return tuple(b.name for b in self.blocks)

    def realified(self):
        """Layout after per-block [Re; Im] stacking of complex blocks."""
        out = []
        for b in self.blocks:
            if b.field == COMPLEX:
                out.append(ParamBlock(b.name, 2 * b.length, REAL))
            else:
                out.append(b)
        return ParamLayout(tuple(out))


def _layout(*blocks):
    return ParamLayout(tuple(ParamBlock(*b) for b in blocks))


@dataclass(frozen=True)
class FimResult:
    """A Fisher information matrix with parameter-layout metadata.

    ``cross`` is the complex cross-information matrix (present only for the
    complex Gaussian model, where it is nonzero); ``warnings`` carries
    structural flags such as a rank-deficient convolution operator.
    ``eigenvalues`` (read-only, ascending) are those of ``J`` computed when
    it was validated; a rank count can read them instead of decomposing
    ``J`` again.
    """

    J: np.ndarray
    layout: ParamLayout
    field: str
    cross: np.ndarray | None = None
    warnings: tuple = ()
    eigenvalues: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J = np.asarray(self.J)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"FIM must be square, got shape {J.shape}")
        if J.shape[0] != self.layout.dim:
            raise ValueError(
                f"layout dimension {self.layout.dim} != FIM dimension {J.shape[0]}"
            )
        scale = max(1.0, float(np.linalg.norm(J)))
        if np.linalg.norm(J - J.conj().T) > 1e-10 * scale:
            raise ValueError("FIM is not Hermitian/symmetric within tolerance")
        J = 0.5 * (J + J.conj().T)
        if self.field == REAL:
            J = J.real
        w = np.linalg.eigvalsh(J)
        wmin = float(w.min())
        if wmin < -1e-8 * scale:
            raise ValueError(f"FIM has negative eigenvalue {wmin:.3e} beyond roundoff")
        J.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self):
        return self.J.shape[0]

    def realified(self) -> "FimResult":
        """Stacked-real-representation FIM with per-block [Re; Im] ordering.

        Real-field parameters (e.g. the noise variance) keep a single
        coordinate; their imaginary rows of the raw stacked representation
        vanish identically and are dropped.
        """
        if self.field == REAL:
            return self
        big = realify_fim(self.J, self.cross)
        n = self.dim
        perm, drop = [], []
        off = 0
        for b in self.layout.blocks:
            idx = np.arange(off, off + b.length)
            if b.field == COMPLEX:
                perm.extend(idx)
                perm.extend(idx + n)
            else:
                perm.extend(idx)
                drop.extend(idx + n)
            off += b.length
        if drop:
            dropped = big[np.ix_(drop, perm)]
            if np.abs(dropped).max() > 1e-9 * max(1.0, np.abs(big).max()):
                raise ValueError(
                    "imaginary rows of a real-field parameter are not zero; "
                    "the parameter is not actually real-valued in this model"
                )
        perm = np.asarray(perm)
        return FimResult(
            big[np.ix_(perm, perm)],
            self.layout.realified(),
            REAL,
            warnings=self.warnings,
        )


@dataclass(frozen=True)
class GaussianModelConfig:
    """Second-order model parameters: symbol power, noise power, burst length."""

    sigma_a2: float = 1.0
    sigma_v2: float = 1.0
    M: int = 4

    def __post_init__(self):
        if self.sigma_a2 <= 0 or self.sigma_v2 <= 0:
            raise ValueError("sigma_a2 and sigma_v2 must be positive")
        if self.M < 1:
            raise ValueError("burst length M must be >= 1")


@dataclass(frozen=True)
class MomentStack:
    """Mean/covariance of the observations and their parameter derivatives.

    ``mean_jac[:, i]`` is the derivative of the mean with respect to
    parameter ``i`` (the holomorphic derivative in the complex case);
    ``cov_jac[i]`` is the matching covariance derivative, taken with respect
    to the conjugate parameter in the complex case so that each slab
    generates a Hermitian perturbation.
    """

    mean: np.ndarray
    cov: np.ndarray
    mean_jac: np.ndarray
    cov_jac: np.ndarray
    field: str

    def __post_init__(self):
        ny = self.mean.shape[0]
        if self.cov.shape != (ny, ny):
            raise ValueError("covariance shape does not match the mean")
        if self.mean_jac.shape[0] != ny:
            raise ValueError("mean jacobian rows must match the observation size")
        if self.cov_jac.shape[1:] != (ny, ny):
            raise ValueError("covariance derivative slabs must be ny x ny")
        if self.cov_jac.shape[0] != self.mean_jac.shape[1]:
            raise ValueError("mean and covariance jacobians disagree on parameter count")

    @property
    def n_params(self):
        return self.mean_jac.shape[1]


def _chol_or_raise(C):
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("observation covariance is not positive definite") from exc


def _burst_values(A, ch: Channel, M=None):
    A = np.asarray(A).ravel()
    if M is None:
        M = A.size - ch.N + 1
    if A.size != M + ch.N - 1:
        raise ValueError(f"symbol vector length {A.size} != M+N-1 = {M + ch.N - 1}")
    return A, M


def _model_field(ch: Channel, A):
    return COMPLEX if (ch.field == COMPLEX or np.iscomplexobj(A)) else REAL


def deterministic_fim(ch: Channel, A, sigma_v2, M=None) -> FimResult:
    """Joint-symbol/channel FIM ``(1/sigma_v^2) [T(h) A_op]^H [T(h) A_op]``.

    The same Gram expression serves real and complex models; in the complex
    case the cross-information matrix vanishes (circular noise), so the
    complex FIM alone determines the real representation.

    This dense Gram is the reference: ``fim-check`` compares it with the
    Monte Carlo score covariance, and the tests check the structured
    :func:`deterministic_joint_counts` and :func:`deterministic_reduced_fim`
    against it.
    """
    if sigma_v2 <= 0:
        raise ValueError("sigma_v2 must be positive")
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    D = deterministic_joint_operator(ch, A, M)
    J = D.conj().T @ D / sigma_v2
    layout = _layout(
        ("A", M + ch.N - 1, field),
        ("h", ch.m * ch.N, field),
    )
    return FimResult(J, layout, field)


def deterministic_joint_operator(ch: Channel, A, M=None):
    """``D = [T(h) | A_op]`` in the model's dtype (complex when the channel or
    the symbols are), with ``T(h) A = A_op h``.

    ``D`` is the Jacobian of the mean ``T(h) A`` in ``(A, h)``: the joint
    FIM is ``D^H D / sigma_v^2`` (:func:`deterministic_fim`), and a trial's
    score is ``D^H v / sigma_v^2`` for its noise ``v``.
    """
    A, M = _burst_values(A, ch, M)
    dtype = np.complex128 if _model_field(ch, A) == COMPLEX else np.float64
    return np.hstack([ch.toeplitz(M), commutativity_op(A, ch.m, ch.N, M)], dtype=dtype)


def _structured_operands(ch: Channel, A, M):
    """``(field, H, A_op, band)`` of the deterministic model in one dtype:
    the taps, the symbol operator and ``T(h)^H T(h)`` in band storage."""
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    dtype = np.complex128 if field == COMPLEX else np.float64
    H = ch.coeffs.astype(dtype)
    return field, H, commutativity_op(A, ch.m, ch.N, M).astype(dtype), toeplitz_gram_band(H, M)


def deterministic_joint_counts(ch: Channel, A, M=None, tol=DEFAULT_RANK_TOL):
    """Rank and nullity of the realified joint FIM of :func:`deterministic_fim`,
    counted by inertia without forming that FIM.

    The FIM is ``G / sigma_v^2`` with ``G = D^H D`` and ``D = [T(h) | A_op]``;
    a relative count does not see ``sigma_v^2``. Its blocks come from the
    structured kernels: ``B = T(h)^H T(h)`` (:func:`toeplitz_gram_band`),
    ``X = T(h)^H A_op`` (:func:`toeplitz_adjoint`) and ``C = A_op^H A_op``.
    :func:`~blindcrb.linalg.bordered_band_rank` counts the eigenvalues of
    ``G`` at or below ``tol lambda_max`` from Sylvester's law of inertia with
    Haynsworth additivity at one shift ``t``:

    ``#eig(G) <= t  =  #eig(B) <= t  +  #eig(S(t)) <= 0``,
    ``S(t) = C - t I - X^H (B - t I)^-1 X`` (``mN x mN``).

    ``lambda_max`` is bracketed by the largest diagonal entry of ``G`` and
    its Gershgorin bound, and the count is taken at both ends. The dense
    eigenvalue count of the assembled ``G`` decides when the two counts
    differ, or when an eigenvalue of ``B`` lies near ``t`` or one of ``S``
    near 0, where ``B - t I`` or the count is ill-conditioned. Cost
    ``O(M N^2 + M m (mN)^2 + (mN)^3)``, linear in M, when ``B - t I`` has a
    banded Cholesky factor; when ``T(h)`` is rank deficient (reducible
    channels, very short bursts), counting the eigenvalues of ``B`` adds an
    ``O(M^2 N)`` band reduction.

    Returns a :class:`SingularityReport` with no null basis and no
    eigenvalues. Counts are in realified coordinates: a complex model's
    eigenvalues each appear twice there, so its rank and nullity are doubled.
    """
    field, H, Aop, band = _structured_operands(ch, A, M)
    rank, nullity = bordered_band_rank(band, toeplitz_adjoint(H, Aop), Aop.conj().T @ Aop, tol)
    k = 2 if field == COMPLEX else 1
    return SingularityReport(k * rank, k * nullity, None, None, tol=tol)


def deterministic_reduced_fim(ch: Channel, A, sigma_v2, M=None) -> FimResult:
    """Channel-block information ``(1/sigma_v^2) A_op^H P^perp_{T(h)} A_op``.

    This is the Schur complement of the joint FIM onto the channel block:
    the information left about ``h`` after treating the symbols as nuisance
    parameters. The true channel is always in its null space. For reducible
    channels ``T(h)`` loses column rank and the result carries a warning flag
    (the nullity grows to the common-factor length).

    It is formed as a residual Gram: ``E = A_op - T(h) X`` with ``X`` the
    least-squares solution of ``T(h) X = A_op``, then ``J = E^H E / sigma_v^2``.
    ``X`` solves the normal equations through a Cholesky factor of the banded
    ``T(h)^H T(h)`` (bandwidth N - 1), with ``T(h)`` and ``T(h)^H`` applied as
    N shifted tap sums: ``O(M m (mN)^2)`` work, linear in M, with neither a
    dense ``T(h)`` nor any ``ny x ny`` matrix. The subtracted Gram
    ``A_op^H A_op - X^H T(h)^H A_op`` is not used: it cancels catastrophically
    on channels with near-common zeros.

    When that Gram is numerically singular
    (:func:`~blindcrb.linalg.cholesky_solve`), a staircase QR
    ``T(h) = Q [R; 0]`` (:func:`~blindcrb.channel.toeplitz_staircase_qr`)
    gives ``C1 = (Q^H A_op)[:n]`` and the Gram ``G2`` of the rows of
    ``Q^H A_op`` below them, and :func:`~blindcrb.linalg.triangular_rank_reveal`
    finds the rank of ``R`` under the SVD rule ``max(shape) eps`` of
    ``T(h)``, with the left singular vectors ``U_d`` it drops. Then
    ``J = (G2 + (U_d^H C1)^H (U_d^H C1)) / sigma_v^2``: Grams of orthogonally
    transformed rows, so nothing cancels, and linear in M (banded triangular
    solves). A rank below ``n`` sets the ``toeplitz-rank-deficient`` flag; a rank
    equal to the row count of ``T(h)`` (one subchannel) means
    ``P^perp = 0``, and ``J`` is exactly zero.
    """
    if sigma_v2 <= 0:
        raise ValueError("sigma_v2 must be positive")
    field, H, Aop, band = _structured_operands(ch, A, M)
    X, regular = cholesky_solve(band, toeplitz_adjoint(H, Aop)[None])
    warnings = ()
    if regular[0]:
        E = Aop - toeplitz_apply(H, X[0])
        J = E.conj().T @ E / sigma_v2
    else:
        R, C1, G2 = toeplitz_staircase_qr(H, Aop)
        n, ny = R.shape[1], Aop.shape[0]
        # a nonzero subchannel's Toeplitz block has full row rank M, so the
        # nullity of T(h) is at most N - 1: N columns reveal all of it
        rank, _, U = triangular_rank_reveal(R, ch.N, band, rows=ny)
        if rank < n:
            warnings = ("toeplitz-rank-deficient",)
        if rank == ny:                       # full row rank: P^perp = 0
            J = np.zeros_like(G2)
        else:
            D = U[:, :n - rank].conj().T @ C1
            J = (G2 + D.conj().T @ D) / sigma_v2
    layout = _layout(("h", ch.m * ch.N, field))
    return FimResult(J, layout, field, warnings=warnings)


def gaussian_moment_stack(ch: Channel, cfg: GaussianModelConfig) -> MomentStack:
    """Moment stack of the Gaussian-symbol model over ``theta = [h; sigma_v^2]``.

    Zero mean and covariance ``sigma_a^2 T(h) T(h)^H + sigma_v^2 I``; the
    covariance derivatives are built analytically from the block-Toeplitz
    structure, with ``G_i = T(h) T^H(e_i)``. Stacked coefficient
    ``i = k m + l`` is tap ``k`` of subchannel ``l``, so ``G_i`` is zero except
    for its columns ``l, l + m, ...``, which are the columns ``k .. k + M - 1``
    of ``T(h)``. Complex field: conjugate-derivative slabs ``sigma_a^2 G_i``
    for the channel and ``I/2`` for the noise variance (a real parameter seen
    through complex derivatives). Real field: the symmetrized slabs
    ``sigma_a^2 (G_i + G_i^T)`` and ``I`` for the noise variance.

    The stack feeds :func:`gaussian_real_param_derivs` and the tests'
    slab-by-slab Slepian-Bangs oracle; :func:`gaussian_fim` does not build it.
    """
    m, n, M = ch.m, ch.m * ch.N, cfg.M
    T = ch.toeplitz(M)
    ny = T.shape[0]
    C = cfg.sigma_a2 * (T @ T.conj().T) + cfg.sigma_v2 * np.eye(ny, dtype=T.dtype)
    cplx = ch.field == COMPLEX
    slabs = np.empty((n + 1, ny, ny), dtype=T.dtype)
    for i in range(n):
        k, l = divmod(i, m)
        G = np.zeros((ny, ny), dtype=T.dtype)
        G[:, l::m] = T[:, k:k + M]
        slabs[i] = cfg.sigma_a2 * (G if cplx else G + G.T)
    slabs[n] = (0.5 if cplx else 1.0) * np.eye(ny, dtype=T.dtype)
    return MomentStack(np.zeros(ny, dtype=T.dtype), C, np.zeros((ny, n + 1), dtype=T.dtype),
                       slabs, ch.field)


# order at and below which _upper_triangular_inverse inverts a diagonal
# block through one LU solve; above it the block splits in two
_TRIANGULAR_LEAF = 24


def _upper_triangular_inverse(U):
    """Inverse of a nonsingular upper-triangular ``U`` by the 2 x 2 block
    recursion ``[[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]``.

    A leaf is inverted by ``np.linalg.inv``: its LU factorization finds no
    entry below the diagonal, so it pivots nowhere and its solve is the
    backward substitution of LAPACK's triangular inverse. The products of
    the off-diagonal blocks are GEMMs, which a single LU solve of the whole
    matrix would spend on its zero half.
    """
    n = U.shape[0]
    if n <= _TRIANGULAR_LEAF:
        return np.linalg.inv(U)
    k = n // 2
    Ai, Di = _upper_triangular_inverse(U[:k, :k]), _upper_triangular_inverse(U[k:, k:])
    X = np.zeros_like(U)
    X[:k, :k], X[k:, k:] = Ai, Di
    X[:k, k:] = -(Ai @ U[:k, k:]) @ Di
    return X


def _pd_inverse(C):
    """Inverse of a Hermitian positive-definite matrix from one Cholesky
    factor, in NumPy alone: ``C = L L^H``, ``Zh = L^-H`` and
    ``C^-1 = Zh Zh^H``, symmetrized once.

    Raises :class:`SingularBlockError` where the factor fails. Inverting
    the factor, not ``C``, keeps the accuracy of LAPACK's ``potri``: at
    ``sigma_v^2 = 1e-5`` the Gaussian FIMs built on an LU inverse of ``C``
    lose about four more decades.
    """
    Zh = _upper_triangular_inverse(_chol_or_raise(C).conj().T)
    Ci = Zh @ Zh.conj().T
    return 0.5 * (Ci + Ci.conj().T)


def _bordered(J_hh, col, row, corner):
    """``[[J_hh, col], [row, corner]]``: the channel block with its noise border."""
    n = J_hh.shape[0]
    out = np.empty((n + 1, n + 1), dtype=np.result_type(J_hh, col, row))
    out[:n, :n], out[:n, n], out[n, :n], out[n, n] = J_hh, col, row, corner
    return out


def gaussian_fim(ch: Channel, cfg: GaussianModelConfig) -> FimResult:
    """Gaussian-model FIM over ``[h; sigma_v^2]`` in the channel's own field.

    A complex channel gives the pair ``(J, J_cross)``; use
    :meth:`FimResult.realified` for the stacked real representation
    ``[Re h; Im h; sigma_v^2]`` (the noise variance keeps a single real
    coordinate). A real channel assumes a real symbol constellation.

    The traces are gathered from the block-Toeplitz structure instead of
    being taken slab by slab. With ``C = sigma_a^2 T T^H + sigma_v^2 I``,
    ``Ci = C^-1`` (one Cholesky, in NumPy alone: no SciPy),
    ``V = Ci T``, ``W = T^H V`` and stacked coefficient ``i = k m + l``
    (the slabs of :func:`gaussian_moment_stack` are
    ``G_i[:, l::m] = T[:, k:k+M]``):

    * ``J_hh[a, b] = sigma_a^4 sum(W[k_b:k_b+M, k_a:k_a+M] * Ci[l_a::m, l_b::m].T)``,
      which is ``sigma_a^4 tr(C^-1 G_a C^-1 G_b^H)``;
    * ``J_cross[a, b] = sigma_a^4 sum(V[l_b::m, k_a:k_a+M] * V[l_a::m, k_b:k_b+M].T)``,
      which is ``sigma_a^4 tr(C^-1 G_a C^-1 G_b)``;
    * the noise column is ``sigma_a^2 tr((Ci V)[l::m, k:k+M])`` and the
      noise diagonal ``tr(Ci^2)``, scaled by 1/2 and 1/4 for a complex
      channel (slab ``I/2``) and by 1 and 1/2 for a real one;
    * a real channel's slabs are ``sigma_a^2 (G + G^T)``, so its ``J_hh`` is
      the sum of the two gathered forms.

    Cost: ``O(ny^3)`` for the Cholesky, the inverse and ``V``, plus
    ``O((mN)^2 M^2)`` for the gathers; no ``(p, ny, ny)`` slab tensor is
    formed. The tests compute the same matrices slab by slab from
    :func:`gaussian_moment_stack` as the oracle.

    Raises
    ------
    SingularBlockError
        If the observation covariance is not positive definite.
    """
    m, N, M = ch.m, ch.N, cfg.M
    n = m * N
    T = ch.toeplitz(M)
    ny = T.shape[0]
    C = cfg.sigma_a2 * (T @ T.conj().T)
    C.flat[::ny + 1] += cfg.sigma_v2
    Ci = _pd_inverse(C)
    V = Ci @ T
    W = T.conj().T @ V
    # Wv[k_b, k_a, r, s] = W[k_b + r, k_a + s]; Vv[r, l, k, s] = V[r m + l, k + s];
    # Cg[s, l_a, r, l_b] = Ci[s m + l_a, r m + l_b]
    Wv = sliding_window_view(W, (M, M))
    Vv = sliding_window_view(V.reshape(M, m, M + N - 1), M, axis=2)
    Cg = Ci.reshape(M, m, M, m)
    s4 = cfg.sigma_a2 ** 2
    J_h = s4 * np.einsum("bars,slrt->albt", Wv, Cg, optimize=True).reshape(n, n)
    J_x = s4 * np.einsum("rtas,slbr->albt", Vv, Vv, optimize=True).reshape(n, n)
    # tr((Ci V)[l::m, k:k+M]) = sum_{r, j} Ci[r m + l, j] V[j, k + r]
    col = cfg.sigma_a2 * np.einsum(
        "rlj,jkr->kl", Ci.reshape(M, m, ny), sliding_window_view(V, M, axis=1)).ravel()
    tr_ci2 = np.vdot(Ci, Ci).real
    layout = _layout(
        ("h", n, ch.field),
        ("sigma_v2", 1, REAL),
    )
    if ch.field == COMPLEX:
        J = _bordered(J_h, 0.5 * col, 0.5 * col.conj(), 0.25 * tr_ci2)
        cross = _bordered(J_x, 0.5 * col, 0.5 * col, 0.25 * tr_ci2)
        return FimResult(J, layout, COMPLEX, cross=cross)
    return FimResult(_bordered(J_h + J_x, col, col, 0.5 * tr_ci2), layout, REAL)


def gaussian_real_param_derivs(ch: Channel, cfg: GaussianModelConfig):
    """Covariance and per-real-parameter derivative slabs of the Gaussian model.

    Real parameters follow the realified layout: ``[Re h; Im h; sigma_v^2]``
    for a complex channel, ``[h; sigma_v^2]`` for a real one. Used by the
    score-covariance estimator. The complex slabs come from the
    conjugate-derivative slabs ``G`` of :func:`gaussian_moment_stack`:
    ``G + G^H`` for ``Re h_i``, ``j (G^H - G)`` for ``Im h_i`` and twice the
    noise slab ``I/2``.
    """
    stack = gaussian_moment_stack(ch, cfg)
    if ch.field == REAL:
        return stack.cov, stack.cov_jac
    G = stack.cov_jac[:-1]
    GH = G.conj().transpose(0, 2, 1)
    return stack.cov, np.concatenate([G + GH, 1j * (GH - G), 2.0 * stack.cov_jac[-1:]])


def schur_reduce(fim: FimResult, keep):
    """Reduce a FIM onto one block: ``J11 - J12 J22^{-1} J21``, inverting
    ``J22`` through the eigendecomposition that checks it for singularity.

    Parameters
    ----------
    fim : FimResult
    keep : str
        Name of the parameter block to keep; all other blocks are nuisance.

    Raises
    ------
    SingularBlockError
        If the nuisance sub-FIM is singular (names the offending blocks).
    """
    s = fim.layout.block_slice(keep)
    idx_keep = np.arange(s.start, s.stop)
    idx_out = np.array([i for i in range(fim.dim) if not (s.start <= i < s.stop)])
    J = fim.J
    if idx_out.size == 0:
        return J.copy()
    J11 = J[np.ix_(idx_keep, idx_keep)]
    J12 = J[np.ix_(idx_keep, idx_out)]
    J22 = J[np.ix_(idx_out, idx_out)]
    _, nullity, w, V = hermitian_nullity(J22, tol=DEFAULT_RANK_TOL)
    if nullity > 0:
        others = [n for n in fim.layout.names if n != keep]
        raise SingularBlockError(
            f"nuisance block(s) {others} have a singular sub-FIM; "
            "cannot Schur-reduce onto " + repr(keep)
        )
    X = J12 @ V
    out = J11 - (X / w) @ X.conj().T
    return 0.5 * (out + out.conj().T)


def channel_block(fim: FimResult) -> np.ndarray:
    """Channel block ``h`` of a model FIM in stacked-real coordinates.

    The FIM is realified, and every other block (the Gaussian model's noise
    variance) is Schur-reduced out; a FIM over ``h`` alone comes back as its
    realified matrix.
    """
    real = fim.realified()
    return schur_reduce(real, "h") if len(real.layout.blocks) > 1 else real.J


@dataclass(frozen=True)
class SingularityReport:
    """Numerical rank structure of a FIM plus matches to predicted null vectors.

    ``null_basis`` is ``None`` in a report that only counts; ``eigenvalues``
    is ``None`` too when the count took no eigendecomposition
    (:func:`deterministic_joint_counts`).
    """

    rank: int
    nullity: int
    null_basis: np.ndarray
    eigenvalues: np.ndarray
    matches: tuple = ()
    tol: float = DEFAULT_RANK_TOL

    @property
    def matched_names(self):
        return tuple(name for name, _, ok in self.matches if ok)


def analyze_singularities(fim, predicted=(), tol=DEFAULT_RANK_TOL):
    """Rank/nullity of a FIM and principal angles to predicted null vectors.

    Parameters
    ----------
    fim : FimResult or square ndarray
    predicted : sequence of (name, vector)
        Candidate singular vectors; a match is declared when the principal
        angle to the computed null space is below ``1e-6`` radians.
    tol : float
        Relative eigenvalue threshold for counting zeros.
    """
    J = fim.J if isinstance(fim, FimResult) else np.asarray(fim)
    rank, nullity, w, V = hermitian_nullity(J, tol=tol)
    basis = V[:, :nullity] if nullity else V[:, :0]
    matches = []
    for name, vec in predicted:
        ang = principal_angle(np.asarray(vec), basis)
        matches.append((name, float(ang), bool(ang < _MATCH_TOL)))
    return SingularityReport(rank, nullity, basis, w, tuple(matches), tol)


def phase_direction(h):
    """Unit phase-rotation direction ``[-Im(h); Re(h)]`` in realified coordinates."""
    h = np.asarray(h, dtype=complex).ravel()
    v = np.concatenate([-h.imag, h.real])
    return v / np.linalg.norm(v)
