"""Constraint Jacobians and constrained Cramer-Rao bounds.

A constraint is its Jacobian ``d K^T / d theta`` evaluated at the true
parameter, an ``n x k`` array with one column per scalar constraint: the
bound depends on the constraint set only through the tangent space there,
so the nonlinear constraint function itself is never stored. Every Jacobian
is in the stacked real coordinates ``[Re h; Im h]`` of a complex channel
(the channel's own coordinates for a real one), and every bound is taken on
the channel block of the realified FIM
(:func:`~blindcrb.fim.channel_block`). The tangent space is the orthogonal
complement of the Jacobian's column span; the constrained CRB restricted to
it is

    ``CRB_C = V (V^H J V)^{-1} V^H``

for any orthonormal tangent basis ``V``. Singular FIMs are the point of this
module: with a minimal number of independent constraints whose Jacobian
spans the FIM null space, the bound collapses to the pseudo-inverse of the
FIM, which minimizes the trace over all minimal constraint choices.

Unboundedness (the tangent-restricted FIM being singular) is reported as a
flag, never an exception: constraint sweeps legitimately hit unbounded cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReducibleDecomposition, ti_matrix, tc_matrix, COMPLEX, REAL
from .fim import FimResult
from .linalg import (
    DEFAULT_RANK_TOL,
    hermitian_nullity,
    null_space_basis,
    pseudo_inverse,
    realify_vector,
)

__all__ = [
    "CrbResult",
    "norm_constraint",
    "phase_constraint",
    "known_coeff_constraint",
    "linear_constraint",
    "reducible_constraints",
    "constrained_crb",
    "minimal_crb",
    "parse_constraint",
    "CONSTRAINT_GRAMMAR",
]


@dataclass(frozen=True)
class CrbResult:
    """A constrained CRB matrix, its trace, and whether it is bounded.

    ``bounded`` is False when the tangent-restricted FIM is singular, i.e.
    the constraints fail to regularize the problem; the matrix then reports
    the bound on the regularized subspace only.
    """

    crb: np.ndarray
    trace: float
    bounded: bool


def norm_constraint(h0, field=None):
    """Fixed-norm constraint ``h^H h = h0^H h0`` at the true channel ``h0``.

    Real field: single Jacobian column ``2 h0``. Complex field: the norm
    column ``2 [Re h0; Im h0]`` plus the phase column ``[-Im h0; Re h0]``
    (fixing the norm alone leaves a continuous phase ambiguity).
    """
    h0 = np.asarray(h0).ravel()
    if np.linalg.norm(h0) == 0.0:
        raise ValueError("norm constraint undefined for a zero channel")
    if field is None:
        field = COMPLEX if np.iscomplexobj(h0) else REAL
    if field == REAL:
        return (2.0 * h0.real)[:, None]
    hr = realify_vector(h0.astype(complex))
    hs2 = np.concatenate([-h0.imag, h0.real])
    return np.column_stack([2.0 * hr, hs2])


def phase_constraint(h0):
    """Phase-only constraint ``h_s2(h0)^T h_R = 0``: Jacobian ``[-Im h0; Re h0]``."""
    h0 = np.asarray(h0, dtype=complex).ravel()
    if np.linalg.norm(h0) == 0.0:
        raise ValueError("phase constraint undefined for a zero channel")
    return np.concatenate([-h0.imag, h0.real])[:, None]


def known_coeff_constraint(h0, i, field=None):
    """Constraint that stacked coefficient ``i`` of the channel is known.

    Real field: Jacobian ``e_i``. Complex field: the two real coordinate
    directions of the coefficient, ``e_i`` and ``e_{n+i}``.
    """
    h0 = np.asarray(h0).ravel()
    n = h0.size
    if not 0 <= i < n:
        raise IndexError(f"coefficient index {i} out of range for n={n}")
    if field is None:
        field = COMPLEX if np.iscomplexobj(h0) else REAL
    if field == REAL:
        K = np.zeros((n, 1))
        K[i, 0] = 1.0
        return K
    K = np.zeros((2 * n, 2))
    K[i, 0] = 1.0
    K[n + i, 1] = 1.0
    return K


def linear_constraint(C):
    """Linear constraint ``theta^T C = theta_o^T C`` with Jacobian ``C``.

    Dependent (rank-deficient) columns are allowed: the tangent space simply
    ignores the redundancy.
    """
    C = np.atleast_2d(np.asarray(C))
    if C.ndim != 2:
        raise ValueError("constraint matrix must be 2-D")
    return C


def reducible_constraints(dec: ReducibleDecomposition, variant="ti"):
    """Constraints that pin the common-factor indeterminacies of a reducible channel.

    ``variant="ti"`` uses the minimal set ``T_I^H h = T_I^H h0`` (one scalar
    constraint per common-factor coefficient, Jacobian ``T_I``).
    ``variant="projector"`` forces the estimate to stay reducible with the
    true common factor, ``P^perp_{T_c} h = 0``, plus the norm pin
    ``h0^H h = h0^H h0`` (rank ``m (N_c - 1) + 1`` in total): Jacobian
    ``[null(T_c^H), h0]``. Its tangent space is ``range(T_c)`` minus the
    channel direction, and the bound equals the pseudo-inverse of
    ``P_{T_c} J P_{T_c}``. The trace ordering between the two variants is
    instance dependent; the projector variant is typically, but not always,
    the smaller one.

    Both Jacobians are complex-linear on a complex channel: each complex
    column ``k`` pins ``Re(k^H h)`` and ``Im(k^H h)``, so the ``n x c``
    complex ``K`` is returned realified, ``[[Re K, -Im K], [Im K, Re K]]``
    (``2n x 2c``).
    """
    if variant == "ti":
        K = ti_matrix(dec)
    elif variant == "projector":
        Tc = tc_matrix(dec)
        K = np.column_stack([null_space_basis(Tc.conj().T), Tc @ dec.irreducible_part.h])
    else:
        raise ValueError(f"unknown reducible-constraint variant {variant!r}")
    if dec.irreducible_part.field == REAL:
        return K
    return np.block([[K.real, -K.imag], [K.imag, K.real]])


def _fim_matrix(J):
    return J.J if isinstance(J, FimResult) else np.asarray(J)


def constrained_crb(J, K, tol=DEFAULT_RANK_TOL) -> CrbResult:
    """Constrained CRB ``V (V^H J V)^{-1} V^H`` on the tangent space of the
    constraint Jacobian ``K`` (``n x k``).

    ``V`` is the orthonormal basis :func:`~blindcrb.linalg.null_space_basis`
    of ``K^H``. When the restricted FIM ``V^H J V`` is singular, counted at
    the relative eigenvalue threshold ``tol``, the constraints do not
    regularize the problem; the result is flagged ``bounded=False`` and the
    matrix is the pseudo-inverse form (finite on the identifiable subspace).
    """
    Jm = _fim_matrix(J)
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != Jm.shape[0]:
        raise ValueError(
            f"constraint Jacobian shape {K.shape} does not match FIM dimension {Jm.shape[0]}"
        )
    V = null_space_basis(K.conj().T)
    if V.shape[1] == 0:
        return CrbResult(np.zeros_like(Jm), 0.0, True)
    F = V.conj().T @ Jm @ V
    F = 0.5 * (F + F.conj().T)
    _, nullity, _, _ = hermitian_nullity(F, tol=tol)
    crb = V @ pseudo_inverse(F) @ V.conj().T
    crb = 0.5 * (crb + crb.conj().T)
    return CrbResult(crb, float(np.trace(crb).real), nullity == 0)


def minimal_crb(J) -> CrbResult:
    """The minimal constrained CRB: the Moore-Penrose pseudo-inverse of the FIM.

    Among all minimal sets of independent constraints this choice (Jacobian
    spanning the FIM null space) yields the lowest trace; for a regular FIM
    it is the plain inverse.
    """
    Jm = _fim_matrix(J)
    crb = pseudo_inverse(Jm)
    crb = 0.5 * (crb + crb.conj().T)
    return CrbResult(crb, float(np.trace(crb).real), True)


CONSTRAINT_GRAMMAR = (
    "norm | phase | norm+phase | known:IDX | linear:FILE | "
    "reducible-ti | reducible-proj | minimal"
)


def parse_constraint(spec, h0, field, dec=None, linear_loader=None):
    """The constraint Jacobian of a CLI mini-grammar spelling.

    ``spec`` is one of ``norm``, ``phase``, ``norm+phase``, ``known:IDX``
    (0-based stacked coefficient index), ``linear:FILE`` (JSON array of
    Jacobian columns), ``reducible-ti``, ``reducible-proj``, ``minimal``.
    ``minimal`` returns None: it is handled by the caller as the
    pseudo-inverse bound rather than an explicit constraint.
    """
    if spec == "minimal":
        return None
    if spec in ("norm", "norm+phase"):
        return norm_constraint(h0, field)
    if spec == "phase":
        if field == REAL:
            raise ValueError("phase constraint applies to complex channels only")
        return phase_constraint(h0)
    if spec.startswith("known:"):
        try:
            return known_coeff_constraint(h0, int(spec.split(":", 1)[1]), field)
        except IndexError as exc:
            raise ValueError(f"{spec}: {exc}") from None
    if spec.startswith("linear:"):
        if linear_loader is None:
            raise ValueError("linear constraint file loading not available here")
        return linear_constraint(linear_loader(spec.split(":", 1)[1]))
    if spec in ("reducible-ti", "reducible-proj"):
        if dec is None:
            raise ValueError(f"{spec} requires a reducible decomposition")
        return reducible_constraints(dec, "ti" if spec.endswith("ti") else "projector")
    raise ValueError(f"unknown constraint spec {spec!r}; grammar: {CONSTRAINT_GRAMMAR}")
