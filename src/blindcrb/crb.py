"""Constraint sets, tangent spaces, and constrained Cramer-Rao bounds.

A constraint is represented purely by its Jacobian ``d K^T / d theta``
evaluated at the true parameter: the bound depends on the constraint set
only through the tangent space there, so the nonlinear constraint function
itself is never stored. The tangent space is the orthogonal complement of
the Jacobian's column span; the constrained CRB restricted to it is

    ``CRB_C = V (V^H J V)^{-1} V^H``

for any orthonormal tangent basis ``V``. Singular FIMs are the point of this
module: with a minimal number of independent constraints whose Jacobian
spans the FIM null space, the bound collapses to the pseudo-inverse of the
FIM, which minimizes the trace over all minimal constraint choices.

Constraints on complex channels are expressed in the stacked real
coordinates ``[Re h; Im h]`` except for the reducible-channel constraints,
which act directly in the complex domain.

Unboundedness (the tangent-restricted FIM being singular) is reported as a
flag, never an exception: constraint sweeps legitimately hit unbounded cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, ReducibleDecomposition, ti_matrix, tc_matrix, COMPLEX, REAL
from .fim import FimResult, GaussianModelConfig, channel_block, gaussian_fim
from .linalg import (
    DEFAULT_RANK_TOL,
    hermitian_nullity,
    null_space_basis,
    complement_projector,
    numerical_rank,
    pseudo_inverse,
    range_basis,
    realify_vector,
)

__all__ = [
    "ConstraintSet",
    "CrbResult",
    "norm_constraint",
    "phase_constraint",
    "known_coeff_constraint",
    "linear_constraint",
    "reducible_constraints",
    "constrained_crb",
    "constrained_crb_projector_form",
    "minimal_crb",
    "gaussian_blind_crb",
    "parse_constraint",
    "CONSTRAINT_GRAMMAR",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint Jacobian at the true parameter plus its tangent space.

    ``jacobian`` is ``n x k`` (one column per scalar constraint). The tangent
    basis is derived as the orthonormal complement of the Jacobian columns
    unless an explicit spanning matrix is supplied (it may then be rank
    deficient, e.g. a projector; the bound formulas tolerate that).
    """

    jacobian: np.ndarray
    kind: str = "custom"
    tangent: np.ndarray | None = None
    notes: tuple = ()

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.jacobian))
        object.__setattr__(self, "jacobian", K)
        if self.tangent is not None:
            V = np.asarray(self.tangent)
            resid = np.linalg.norm(V.conj().T @ K)
            scale = max(1.0, np.linalg.norm(V) * np.linalg.norm(K))
            if resid > 1e-10 * scale:
                raise ValueError("explicit tangent matrix is not orthogonal to the jacobian")
            object.__setattr__(self, "tangent", V)

    @property
    def n_constraints(self):
        return self.jacobian.shape[1]

    @property
    def dim(self):
        return self.jacobian.shape[0]

    def tangent_spanning(self):
        """Matrix whose range is the tangent space (may be rank deficient)."""
        if self.tangent is not None:
            return self.tangent
        return null_space_basis(self.jacobian.conj().T)


@dataclass(frozen=True)
class CrbResult:
    """A constrained CRB matrix with provenance.

    ``bounded`` is False when the tangent-restricted FIM is singular, i.e.
    the constraints fail to regularize the problem; the matrix then reports
    the bound on the regularized subspace only.
    """

    crb: np.ndarray
    trace: float
    bounded: bool
    kind: str
    notes: tuple = ()


def norm_constraint(h0, field=None) -> ConstraintSet:
    """Fixed-norm constraint ``h^H h = h0^H h0`` at the true channel ``h0``.

    Real field: single Jacobian column ``2 h0``. Complex field: the norm
    column ``2 [Re h0; Im h0]`` plus the phase column ``[-Im h0; Re h0]``
    (fixing the norm alone leaves a continuous phase ambiguity), both in
    stacked real coordinates.
    """
    h0 = np.asarray(h0).ravel()
    if np.linalg.norm(h0) == 0.0:
        raise ValueError("norm constraint undefined for a zero channel")
    if field is None:
        field = COMPLEX if np.iscomplexobj(h0) else REAL
    if field == REAL:
        return ConstraintSet((2.0 * h0.real)[:, None], kind="norm")
    hr = realify_vector(h0.astype(complex))
    hs2 = np.concatenate([-h0.imag, h0.real])
    return ConstraintSet(np.column_stack([2.0 * hr, hs2]), kind="norm+phase")


def phase_constraint(h0) -> ConstraintSet:
    """Phase-only constraint ``h_s2(h0)^T h_R = 0`` in stacked real coordinates."""
    h0 = np.asarray(h0, dtype=complex).ravel()
    if np.linalg.norm(h0) == 0.0:
        raise ValueError("phase constraint undefined for a zero channel")
    hs2 = np.concatenate([-h0.imag, h0.real])
    return ConstraintSet(hs2[:, None], kind="phase")


def known_coeff_constraint(h0, i, field=None) -> ConstraintSet:
    """Constraint that stacked coefficient ``i`` of the channel is known.

    Real field: Jacobian ``e_i``. Complex field: the two real coordinate
    directions of the coefficient, ``e_i`` and ``e_{n+i}`` in ``[Re; Im]``
    stacking.
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
        return ConstraintSet(K, kind=f"known:{i}")
    K = np.zeros((2 * n, 2))
    K[i, 0] = 1.0
    K[n + i, 1] = 1.0
    return ConstraintSet(K, kind=f"known:{i}")


def linear_constraint(C, kind="linear") -> ConstraintSet:
    """Linear constraint ``theta^T C = theta_o^T C`` with Jacobian ``C``.

    Dependent (rank-deficient) columns are allowed; the result carries a
    note, and the tangent space simply ignores the redundancy.
    """
    C = np.atleast_2d(np.asarray(C))
    if C.ndim != 2:
        raise ValueError("constraint matrix must be 2-D")
    notes = ()
    if numerical_rank(C) < C.shape[1]:
        notes = ("dependent-constraints",)
    return ConstraintSet(C, kind=kind, notes=notes)


def reducible_constraints(dec: ReducibleDecomposition, variant="ti") -> ConstraintSet:
    """Constraints that pin the common-factor indeterminacies of a reducible channel.

    ``variant="ti"`` uses the minimal set ``T_I^H h = T_I^H h0`` (one scalar
    constraint per common-factor coefficient, Jacobian ``T_I``).
    ``variant="projector"`` forces the estimate to stay reducible with the
    true common factor, ``P^perp_{T_c} h = 0``, plus the norm pin
    ``h0^H h = h0^H h0`` (rank ``m (N_c - 1) + 1`` in total); its tangent
    space is ``range(T_c)`` minus the channel direction, and the bound equals
    the pseudo-inverse of ``P_{T_c} J P_{T_c}`` (the rank-deficient spanning
    matrix ``P_{T_c}`` gives the same value through the projector bound
    form). Both variants act in the channel's own (complex or real)
    coordinates. The trace ordering between the two is instance dependent;
    the projector variant is typically, but not always, the smaller one.
    """
    if variant == "ti":
        return ConstraintSet(ti_matrix(dec), kind="reducible-ti")
    if variant == "projector":
        Tc = tc_matrix(dec)
        h0 = Tc @ dec.irreducible_part.h
        K = np.column_stack([complement_projector(Tc), h0])
        return ConstraintSet(K, kind="reducible-proj", notes=("dependent-constraints",))
    raise ValueError(f"unknown reducible-constraint variant {variant!r}")


def _fim_matrix(J):
    return J.J if isinstance(J, FimResult) else np.asarray(J)


def constrained_crb(J, cs: ConstraintSet, tol=DEFAULT_RANK_TOL) -> CrbResult:
    """Constrained CRB ``V (V^H J V)^{-1} V^H`` on the tangent space of ``cs``.

    When the restricted FIM ``V^H J V`` is singular the constraints do not
    regularize the problem; the result is flagged ``bounded=False`` and the
    matrix is the pseudo-inverse form (finite on the identifiable subspace).
    """
    Jm = _fim_matrix(J)
    if Jm.shape[0] != cs.dim:
        raise ValueError(
            f"constraint dimension {cs.dim} does not match FIM dimension {Jm.shape[0]}"
        )
    V = range_basis(cs.tangent_spanning())
    if V.shape[1] == 0:
        crb = np.zeros_like(Jm)
        return CrbResult(crb, 0.0, True, cs.kind, cs.notes)
    F = V.conj().T @ Jm @ V
    F = 0.5 * (F + F.conj().T)
    _, nullity, _, _ = hermitian_nullity(F, tol=tol)
    bounded = nullity == 0
    crb = V @ pseudo_inverse(F) @ V.conj().T
    crb = 0.5 * (crb + crb.conj().T)
    notes = cs.notes if bounded else cs.notes + ("unbounded-directions",)
    return CrbResult(crb, float(np.trace(crb).real), bounded, cs.kind, notes)


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
    out = A @ pseudo_inverse(inner) @ A.conj().T
    return 0.5 * (out + out.conj().T)


def minimal_crb(J) -> CrbResult:
    """The minimal constrained CRB: the Moore-Penrose pseudo-inverse of the FIM.

    Among all minimal sets of independent constraints this choice (Jacobian
    spanning the FIM null space) yields the lowest trace; for a regular FIM
    it is the plain inverse.
    """
    Jm = _fim_matrix(J)
    crb = pseudo_inverse(Jm)
    crb = 0.5 * (crb + crb.conj().T)
    return CrbResult(crb, float(np.trace(crb).real), True, "minimal")


def gaussian_blind_crb(ch: Channel, cfg: GaussianModelConfig, tol=DEFAULT_RANK_TOL) -> CrbResult:
    """Blind channel CRB under the Gaussian symbol model.

    Both fields reduce the noise variance out of the (realified) FIM with
    :func:`~blindcrb.fim.channel_block` and take the pseudo-inverse.

    Complex channel: this equals the bound under the single phase constraint
    on ``h_R`` whenever the channel is identifiable (its reduced FIM is
    exactly 1-singular). Channels with extra singularities (conjugate
    reciprocal zeros) come back ``bounded=False`` with the phase-constrained
    bound and a note.

    Real channel: no regularization is needed; the bound is the inverse of
    the noise-reduced FIM (flagged unbounded if it is singular).
    """
    cplx = ch.field == COMPLEX
    Jred = channel_block(gaussian_fim(ch, cfg))
    _, nullity, _, _ = hermitian_nullity(Jred, tol=tol)
    # the phase direction is the one expected singularity of complex data
    notes = () if nullity == int(cplx) else (f"extra-singular:nullity={nullity}",)
    if cplx:
        res = constrained_crb(Jred, phase_constraint(ch.h), tol=tol)
        if notes or not res.bounded:
            return CrbResult(res.crb, res.trace, False, "phase", res.notes + notes)
    crb = pseudo_inverse(Jred)
    crb = 0.5 * (crb + crb.T)
    return CrbResult(crb, float(np.trace(crb)), not notes, "phase" if cplx else "none", notes)


CONSTRAINT_GRAMMAR = (
    "norm | phase | norm+phase | known:IDX | linear:FILE | "
    "reducible-ti | reducible-proj | minimal"
)


def parse_constraint(spec, h0, field, dec=None, linear_loader=None):
    """Build a constraint from its CLI mini-grammar spelling.

    ``spec`` is one of ``norm``, ``phase``, ``norm+phase``, ``known:IDX``
    (0-based stacked coefficient index), ``linear:FILE`` (JSON array of
    Jacobian columns), ``reducible-ti``, ``reducible-proj``, ``minimal``.
    ``minimal`` returns None: it is handled by the caller as the
    pseudo-inverse bound rather than an explicit constraint set.
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
        return known_coeff_constraint(h0, int(spec.split(":", 1)[1]), field)
    if spec.startswith("linear:"):
        if linear_loader is None:
            raise ValueError("linear constraint file loading not available here")
        return linear_constraint(linear_loader(spec.split(":", 1)[1]))
    if spec in ("reducible-ti", "reducible-proj"):
        if dec is None:
            raise ValueError(f"{spec} requires a reducible decomposition")
        return reducible_constraints(dec, "ti" if spec.endswith("ti") else "projector")
    raise ValueError(f"unknown constraint spec {spec!r}; grammar: {CONSTRAINT_GRAMMAR}")
