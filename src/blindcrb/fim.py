"""Fisher information matrices for the blind multichannel models.

Three constructions live here:

* a generic Gaussian-distribution FIM built from mean/covariance derivatives
  (:func:`gaussian_fim_generic`), usable for any model that supplies a
  :class:`MomentStack`;
* the deterministic-symbol model, where the FIM is the scaled Gram matrix of
  ``[T(h) A_op]`` over the joint parameter ``theta = [A; h]``
  (:func:`deterministic_fim`) and its reduction onto the channel block
  (:func:`deterministic_reduced_fim`);
* the Gaussian-symbol model over ``theta = [h; sigma_v^2]``
  (:func:`gaussian_fim`), in the channel's own field; a complex channel's FIM
  also carries the cross matrix ``J_cross``.

Complex-model results convert to the stacked real representation with
:meth:`FimResult.realified`; blocks keep their names so Schur reductions can
be phrased representation-independently (``schur_reduce(fim, keep="h")``).
:func:`channel_block` is the one path from a model FIM to its stacked-real
channel block with the other blocks reduced out.

Every FIM here is Hermitian (or real symmetric) positive semidefinite;
builders validate this and refuse gross violations. Rank and null-space
decisions use a relative eigenvalue threshold (default ``1e-8``), which for
these problems sits many decades inside the gap between true singularities
(~1e-16 relative) and the smallest genuine eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    COMPLEX,
    REAL,
    Channel,
    SymbolBurst,
    commutativity_op,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    hermitian_nullity,
    principal_angle,
    range_basis,
    realify_fim,
)

__all__ = [
    "DETERMINISTIC",
    "GAUSSIAN",
    "GENERIC",
    "SYMBOLS",
    "CHANNEL",
    "NOISE",
    "DEFAULT_RANK_TOL",
    "SingularBlockError",
    "ParamBlock",
    "ParamLayout",
    "FimResult",
    "MomentStack",
    "GaussianModelConfig",
    "gaussian_fim_generic",
    "deterministic_moment_stack",
    "gaussian_moment_stack",
    "deterministic_fim",
    "deterministic_reduced_fim",
    "gaussian_fim",
    "gaussian_real_param_derivs",
    "schur_reduce",
    "channel_block",
    "SingularityReport",
    "analyze_singularities",
    "deterministic_null_directions",
    "phase_direction",
]

DETERMINISTIC = "deterministic"
GAUSSIAN = "gaussian"
GENERIC = "generic"

SYMBOLS = "symbols"
CHANNEL = "channel"
NOISE = "noise"

_MODELS = (DETERMINISTIC, GAUSSIAN, GENERIC)


class SingularBlockError(np.linalg.LinAlgError):
    """Raised when a nuisance block that must be inverted is singular."""


@dataclass(frozen=True)
class ParamBlock:
    name: str
    kind: str
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
                out.append(ParamBlock(b.name, b.kind, 2 * b.length, REAL))
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
    """

    J: np.ndarray
    layout: ParamLayout
    field: str
    model: str
    cross: np.ndarray | None = None
    warnings: tuple = ()

    def __post_init__(self):
        J = np.asarray(self.J)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"FIM must be square, got shape {J.shape}")
        if J.shape[0] != self.layout.dim:
            raise ValueError(
                f"layout dimension {self.layout.dim} != FIM dimension {J.shape[0]}"
            )
        if self.model not in _MODELS:
            raise ValueError(f"unknown model tag {self.model!r}")
        scale = max(1.0, float(np.linalg.norm(J)))
        if np.linalg.norm(J - J.conj().T) > 1e-10 * scale:
            raise ValueError("FIM is not Hermitian/symmetric within tolerance")
        J = 0.5 * (J + J.conj().T)
        if self.field == REAL:
            J = J.real
        wmin = float(np.linalg.eigvalsh(J).min())
        if wmin < -1e-8 * scale:
            raise ValueError(f"FIM has negative eigenvalue {wmin:.3e} beyond roundoff")
        J.flags.writeable = False
        object.__setattr__(self, "J", J)

    @property
    def dim(self):
        return self.J.shape[0]

    def block(self, name):
        s = self.layout.block_slice(name)
        return self.J[s, s]

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
            self.model,
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


def gaussian_fim_generic(stack: MomentStack, layout=None, model=GENERIC) -> FimResult:
    """FIM of a Gaussian observation model from its moment derivatives.

    Real field: the Slepian-Bangs form, mean term plus half the trace term.
    Complex field (circular observations): returns the pair ``(J, J_cross)``
    where the mean contributes only to ``J`` (circularity kills its
    contribution to the cross matrix) and the covariance contributes the two
    trace forms.
    """
    _chol_or_raise(stack.cov)
    Ci = np.linalg.inv(stack.cov)
    p = stack.n_params
    Dm = stack.mean_jac
    G = stack.cov_jac
    P = np.einsum("ij,ajk,kl->ail", Ci, G, Ci)           # C^-1 G_a C^-1
    if stack.field == REAL:
        mean_term = Dm.T @ Ci @ Dm
        cov_term = 0.5 * np.einsum("aij,bji->ab", P, G)  # tr(C^-1 G_a C^-1 G_b)
        J = mean_term + cov_term
        if layout is None:
            layout = _layout(("theta", "generic", p, REAL))
        return FimResult(J.real, layout, REAL, model)
    mean_term = Dm.conj().T @ Ci @ Dm
    cov_term = np.einsum("aij,bij->ab", P, G.conj())     # tr(C^-1 G_a C^-1 G_b^H)
    J = mean_term + cov_term
    Jc = np.einsum("aij,bji->ab", P, G)                  # tr(C^-1 G_a C^-1 G_b)
    if layout is None:
        layout = _layout(("theta", "generic", p, COMPLEX))
    return FimResult(J, layout, COMPLEX, model, cross=Jc)


def _burst_values(A, ch: Channel, M=None):
    if isinstance(A, SymbolBurst):
        if A.N != ch.N:
            raise ValueError(f"burst built for N={A.N}, channel has N={ch.N}")
        return A.values, A.M
    A = np.asarray(A).ravel()
    if M is None:
        M = A.size - ch.N + 1
    if A.size != M + ch.N - 1:
        raise ValueError(f"symbol vector length {A.size} != M+N-1 = {M + ch.N - 1}")
    return A, M


def _model_field(ch: Channel, A):
    return COMPLEX if (ch.field == COMPLEX or np.iscomplexobj(A)) else REAL


def deterministic_moment_stack(ch: Channel, A, sigma_v2, M=None, include_noise=False):
    """Moment stack of the deterministic model ``Y = T(h) A + V``.

    The mean is the noise-free signal, linear in ``theta = [A; h]``; the
    covariance is ``sigma_v^2 I`` and depends only on the (optional) noise
    parameter. With ``include_noise`` the stack appends ``sigma_v^2`` as a
    final parameter, which exposes the symbol/channel vs noise decoupling.
    """
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    T = ch.toeplitz(M)
    Aop = commutativity_op(A, ch.m, ch.N, M)
    Dm = np.hstack([T, Aop])
    ny = T.shape[0]
    if field == COMPLEX:
        Dm = Dm.astype(np.complex128)
        mean = (T @ A.astype(np.complex128))
        cov = sigma_v2 * np.eye(ny, dtype=complex)
    else:
        mean = T @ A
        cov = sigma_v2 * np.eye(ny)
    p = Dm.shape[1]
    slabs = [np.zeros_like(cov) for _ in range(p)]
    if include_noise:
        Dm = np.hstack([Dm, np.zeros((ny, 1), dtype=Dm.dtype)])
        slabs.append((0.5 if field == COMPLEX else 1.0) * np.eye(ny, dtype=cov.dtype))
    return MomentStack(mean, cov, Dm, np.stack(slabs), field)


def deterministic_fim(ch: Channel, A, sigma_v2, M=None) -> FimResult:
    """Joint-symbol/channel FIM ``(1/sigma_v^2) [T(h) A_op]^H [T(h) A_op]``.

    The same Gram expression serves real and complex models; in the complex
    case the cross-information matrix vanishes (circular noise), so the
    complex FIM alone determines the real representation.
    """
    if sigma_v2 <= 0:
        raise ValueError("sigma_v2 must be positive")
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    T = ch.toeplitz(M)
    Aop = commutativity_op(A, ch.m, ch.N, M)
    D = np.hstack([T, Aop])
    if field == COMPLEX:
        D = D.astype(np.complex128)
    J = D.conj().T @ D / sigma_v2
    layout = _layout(
        ("A", SYMBOLS, M + ch.N - 1, field),
        ("h", CHANNEL, ch.m * ch.N, field),
    )
    return FimResult(J, layout, field, DETERMINISTIC)


def deterministic_reduced_fim(ch: Channel, A, sigma_v2, M=None) -> FimResult:
    """Channel-block information ``(1/sigma_v^2) A_op^H P^perp_{T(h)} A_op``.

    This is the Schur complement of the joint FIM onto the channel block:
    the information left about ``h`` after treating the symbols as nuisance
    parameters. The true channel is always in its null space. For reducible
    channels ``T(h)`` loses column rank and the result carries a warning flag
    (the nullity grows to the common-factor length).
    """
    if sigma_v2 <= 0:
        raise ValueError("sigma_v2 must be positive")
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    T = ch.toeplitz(M)
    if field == COMPLEX:
        T = T.astype(np.complex128)
    Aop = commutativity_op(A, ch.m, ch.N, M).astype(T.dtype)
    Q = range_basis(T)
    Pperp = np.eye(T.shape[0], dtype=Q.dtype) - Q @ Q.conj().T
    J = Aop.conj().T @ Pperp @ Aop / sigma_v2
    warnings = ()
    if Q.shape[1] < T.shape[1]:
        warnings = ("toeplitz-rank-deficient",)
    layout = _layout(("h", CHANNEL, ch.m * ch.N, field))
    return FimResult(J, layout, field, DETERMINISTIC, warnings=warnings)


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


def gaussian_fim(ch: Channel, cfg: GaussianModelConfig) -> FimResult:
    """Gaussian-model FIM over ``[h; sigma_v^2]`` in the channel's own field.

    A complex channel gives the pair ``(J, J_cross)``; use
    :meth:`FimResult.realified` for the stacked real representation
    ``[Re h; Im h; sigma_v^2]`` (the noise variance keeps a single real
    coordinate). A real channel assumes a real symbol constellation.
    """
    layout = _layout(
        ("h", CHANNEL, ch.m * ch.N, ch.field),
        ("sigma_v2", NOISE, 1, REAL),
    )
    return gaussian_fim_generic(gaussian_moment_stack(ch, cfg), layout=layout, model=GAUSSIAN)


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
    """Reduce a FIM onto one block: ``J11 - J12 J22^{-1} J21``.

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
    _, nullity, _, _ = hermitian_nullity(J22, tol=DEFAULT_RANK_TOL)
    if nullity > 0:
        others = [n for n in fim.layout.names if n != keep]
        raise SingularBlockError(
            f"nuisance block(s) {others} have a singular sub-FIM; "
            "cannot Schur-reduce onto " + repr(keep)
        )
    out = J11 - J12 @ np.linalg.solve(J22, J12.conj().T)
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
    """Numerical rank structure of a FIM plus matches to predicted null vectors."""

    rank: int
    nullity: int
    null_basis: np.ndarray
    eigenvalues: np.ndarray
    matches: tuple = ()
    tol: float = DEFAULT_RANK_TOL

    @property
    def matched_names(self):
        return tuple(name for name, _, ok in self.matches if ok)


def analyze_singularities(fim, predicted=(), tol=DEFAULT_RANK_TOL, match_tol=1e-6):
    """Rank/nullity of a FIM and principal angles to predicted null vectors.

    Parameters
    ----------
    fim : FimResult or square ndarray
    predicted : sequence of (name, vector)
        Candidate singular vectors; a match is declared when the principal
        angle to the computed null space is below ``match_tol`` radians.
    tol : float
        Relative eigenvalue threshold for counting zeros.
    """
    J = fim.J if isinstance(fim, FimResult) else np.asarray(fim)
    rank, nullity, w, V = hermitian_nullity(J, tol=tol)
    basis = V[:, :nullity] if nullity else V[:, :0]
    matches = []
    for name, vec in predicted:
        ang = principal_angle(np.asarray(vec), basis)
        matches.append((name, float(ang), bool(ang < match_tol)))
    return SingularityReport(rank, nullity, basis, w, tuple(matches), tol)


def deterministic_null_directions(ch: Channel, A, M=None, realified=False):
    """Known null directions of the deterministic joint FIM.

    The scale indeterminacy gives ``theta_s = [-A; h]``. In the complex case
    the stacked real representation has two independent directions,
    ``theta_s`` and ``j theta_s`` (scale and phase); the real case has one.
    Returns a list of ``(name, unit_vector)`` in the same ordering as the
    corresponding FIM (per-block [Re; Im] stacking when ``realified``).
    """
    A, M = _burst_values(A, ch, M)
    field = _model_field(ch, A)
    theta = np.concatenate([-np.asarray(A, dtype=complex), ch.h.astype(complex)])
    if not realified:
        v = theta / np.linalg.norm(theta)
        return [("scale", v if field == COMPLEX else v.real)]
    nA = A.size

    def stack(vec):
        out = np.concatenate(
            [vec[:nA].real, vec[:nA].imag, vec[nA:].real, vec[nA:].imag]
        )
        return out / np.linalg.norm(out)

    if field == REAL:
        v = theta.real / np.linalg.norm(theta.real)
        return [("scale", v)]
    return [("scale", stack(theta)), ("phase", stack(1j * theta))]


def phase_direction(h, pad_noise=False):
    """Unit phase-rotation direction ``[-Im(h); Re(h)]`` in realified coordinates.

    With ``pad_noise`` a trailing zero is appended for the noise-variance
    coordinate of the Gaussian-model parameterization.
    """
    h = np.asarray(h, dtype=complex).ravel()
    v = np.concatenate([-h.imag, h.real])
    if pad_noise:
        v = np.concatenate([v, [0.0]])
    return v / np.linalg.norm(v)
