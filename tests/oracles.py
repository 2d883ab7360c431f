"""Reference implementations that only the tests use.

Each function here is an independent oracle or an alternative formula that
the test suite checks the library against; none is called by the package
itself, so they live with the tests instead of in the shipped library.
"""

import numpy as np

from blindcrb.channel import COMPLEX, REAL, Channel, commutativity_op
from blindcrb.crb import _fim_matrix
from blindcrb.fim import (
    DEFAULT_RANK_TOL,
    FimResult,
    MomentStack,
    SingularityReport,
    _burst_values,
    _chol_or_raise,
    _layout,
    _model_field,
)
from blindcrb.linalg import (
    _check_fim_pair,
    _svd_rank,
    eigenvalue_rank,
    numerical_rank,
)

__all__ = [
    "SingularFimError",
    "svd_pseudo_inverse",
    "range_basis",
    "projector",
    "real_complex_map",
    "complexify_vector",
    "trace_crb_complex",
    "subspace_distance",
    "gaussian_fim_generic",
    "deterministic_moment_stack",
    "deterministic_null_directions",
    "constrained_crb_projector_form",
    "realified_counts",
    "score_moments_tensor",
]


class SingularFimError(np.linalg.LinAlgError):
    """Raised when a Fisher-information-like matrix that must be inverted is singular."""


def svd_pseudo_inverse(A):
    """Moore-Penrose pseudo-inverse of a real or complex ``(m, n)`` matrix
    from its SVD, the reference of the library's eigendecomposition form.

    Singular values at or below ``max(m, n) * eps * sigma_max`` count as
    zero; the cutoff is written out here rather than shared with the
    library. Returns the ``(n, m)`` matrix ``A^+``.
    """
    A = np.asarray(A)
    if A.ndim != 2 or not np.all(np.isfinite(A)):
        raise ValueError("A must be a finite 2-D matrix")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    cutoff = max(A.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    keep = s > cutoff
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (Vh.conj().T * s_inv) @ U.conj().T


def range_basis(X):
    """Orthonormal basis of ``range(X)`` (columns), from the SVD rank rule."""
    X = np.asarray(X)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    return U[:, :_svd_rank(s, X.shape)]


def projector(X):
    """Orthogonal projector ``P = X (X^H X)^+ X^H`` onto ``range(X)``.

    ``X`` may be rank deficient; the result is Hermitian and idempotent up
    to roundoff.
    """
    Q = range_basis(X)
    return Q @ Q.conj().T


def real_complex_map(n):
    """The 2n x 2n matrix ``M`` with ``theta_R = M [theta; theta^*]``.

    Block structure ``M = (1/2) [[I, I], [-jI, jI]]``; satisfies
    ``M M^H = (1/2) I``.
    """
    I = np.eye(n)
    return 0.5 * np.block([[I, I], [-1j * I, 1j * I]])


def complexify_vector(x):
    """Inverse of :func:`realify_vector` for an even-length real vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.size % 2:
        raise ValueError("length must be even to fold into a complex vector")
    n = x.size // 2
    return x[:n] + 1j * x[n:]


def trace_crb_complex(J, J_cross=None):
    """Mean-squared-error lower bound ``4 tr((J - Jc J^{-*} Jc^*)^{-1})``.

    The inner matrix is the Schur complement of the stacked
    ``[[J, Jc], [Jc^*, J^*]]`` block matrix; the returned value equals
    ``4 tr(F^{-1})`` where ``F`` is the two-block-sum real representation
    produced by :func:`realify_fim`.

    Raises
    ------
    SingularFimError
        If the Schur-complement matrix is numerically singular.
    """
    J, Jc = _check_fim_pair(J, J_cross)
    n = J.shape[0]
    if np.linalg.norm(Jc) == 0.0:
        S = J
    else:
        S = J - Jc @ np.linalg.solve(J.conj(), Jc.conj())
    if numerical_rank(S) < n:
        raise SingularFimError("Schur-complement information matrix is singular")
    return float(4.0 * np.trace(np.linalg.inv(S)).real)


def subspace_distance(B1, B2):
    """Spectral-norm distance between the projectors onto two column spans."""
    P1 = projector(np.asarray(B1))
    P2 = projector(np.asarray(B2))
    return float(np.linalg.norm(P1 - P2, ord=2))


def gaussian_fim_generic(stack: MomentStack, layout=None) -> FimResult:
    """FIM of a Gaussian observation model from its moment derivatives.

    This is the reference engine: it evaluates the Slepian-Bangs traces slab
    by slab for any :class:`~blindcrb.fim.MomentStack`, and the tests compare
    the structured model builders against it.

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
            layout = _layout(("theta", p, REAL))
        return FimResult(J.real, layout, REAL)
    mean_term = Dm.conj().T @ Ci @ Dm
    cov_term = np.einsum("aij,bij->ab", P, G.conj())     # tr(C^-1 G_a C^-1 G_b^H)
    J = mean_term + cov_term
    Jc = np.einsum("aij,bji->ab", P, G)                  # tr(C^-1 G_a C^-1 G_b)
    if layout is None:
        layout = _layout(("theta", p, COMPLEX))
    return FimResult(J, layout, COMPLEX, cross=Jc)



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


def constrained_crb_projector_form(J, A_theta):
    """Alternative bound form ``A (A^H J A)^+ A^H`` for any tangent-spanning ``A``.

    ``A_theta`` need only span the tangent space; it may be rank deficient or
    overcomplete (e.g. the projector ``P_V`` itself), and the result equals
    the orthonormal-basis form.
    """
    Jm = _fim_matrix(J)
    A = np.atleast_2d(np.asarray(A_theta))
    inner = A.conj().T @ Jm @ A
    inner = 0.5 * (inner + inner.conj().T)
    out = A @ svd_pseudo_inverse(inner) @ A.conj().T
    return 0.5 * (out + out.conj().T)


def realified_counts(fim: FimResult, tol=DEFAULT_RANK_TOL) -> SingularityReport:
    """Rank and nullity of ``fim.realified()``, counted on ``fim`` from the
    eigenvalues it kept when it was validated: no second eigendecomposition,
    and no null basis (``null_basis`` is ``None``).

    A complex FIM with no cross matrix realifies to ``2 [[Re J, -Im J],
    [Im J, Re J]]``, whose eigenvalues are those of ``2 J``, each twice (a
    complex null vector ``v`` gives the real null vectors of ``v`` and
    ``j v``), so rank and nullity come back doubled. A real FIM is counted as
    it is.
    """
    rank, nullity = eigenvalue_rank(fim.eigenvalues, tol)
    if fim.field == REAL:
        return SingularityReport(rank, nullity, None, fim.eigenvalues, tol=tol)
    if fim.cross is not None or any(b.field != COMPLEX for b in fim.layout.blocks):
        raise ValueError("only a complex FIM with complex blocks and no cross "
                         "matrix realifies to doubled eigenvalues")
    return SingularityReport(2 * rank, 2 * nullity, None,
                             np.repeat(2.0 * fim.eigenvalues, 2), tol=tol)


def score_moments_tensor(S):
    """``(J_hat, std_err)`` of a trials x p score matrix ``S`` from the
    ``(trials, p, p)`` tensor of per-trial outer products: its mean, and its
    two-pass sample standard deviation (``ddof=1``) over ``sqrt(trials)``."""
    T = S.shape[0]
    prods = np.einsum("ta,tb->tab", S, S)
    J_hat = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(T) if T > 1 else np.full_like(J_hat, np.inf)
    return J_hat, se
