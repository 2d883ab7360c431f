"""Rule-based identifiability verdicts from channel structure.

These rules predict, from the zero structure of the channel and the burst
length alone, how many singular directions the corresponding FIM must have;
:func:`verdict_vs_fim` then checks the prediction against a computed
:class:`~blindcrb.fim.SingularityReport`. The census:

Deterministic model (irreducible channel, sufficient burst/excitation):
one scale singularity; in the stacked real representation of a complex
model, two (scale and phase). A reducible channel with common-factor length
``N_c`` has ``2 N_c - 1`` joint singularities and ``N_c`` in the
channel-reduced FIM.

Gaussian model: identifiability hinges on conjugate reciprocal zero pairs
``(z0, 1/z0^*)`` among the *common* zeros. Complex data carry a baseline
phase singularity; each pair adds two, each zero at +/-1 adds one. Real data
have no baseline; each pair or +/-1 zero adds one. A monochannel whose
transfer function has no conjugate reciprocal zeros additionally cannot
identify the noise variance (one more singularity); conjugate reciprocal
zeros remove that direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    COMPLEX,
    DEFAULT_ZERO_TOL,
    REAL,
    Channel,
    SymbolBurst,
    commutativity_op,
    conjugate_reciprocal_pairs,
    reducible_decompose,
)
from .fim import DETERMINISTIC, GAUSSIAN, GaussianModelConfig, SingularityReport
from .linalg import numerical_rank

__all__ = [
    "SCALE",
    "PHASE",
    "SIGN",
    "NOT_IDENTIFIABLE",
    "INDETERMINATE",
    "IdentifiabilityVerdict",
    "deterministic_verdict",
    "gaussian_verdict",
    "verdict_vs_fim",
    "ConsistencyRecord",
]

SCALE = "scale"
PHASE = "phase"
SIGN = "sign"
NOT_IDENTIFIABLE = "no"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    """Predicted identifiability class and FIM nullity for one model/field cell.

    ``predicted_nullity`` refers to the FIM in its native representation
    (complex FIM for complex deterministic models, stacked real FIM for
    Gaussian models); ``predicted_nullity_realified`` gives the stacked-real
    count where it differs. ``predicted_reduced_nullity`` refers to the
    channel-block reduced FIM.
    """

    model: str
    field: str
    identifiable_up_to: str
    predicted_nullity: int
    predicted_nullity_realified: int
    predicted_reduced_nullity: int
    reasons: tuple

    @property
    def rules(self):
        return "; ".join(self.reasons)


def _burst_rank_ok(ch: Channel, A, M):
    """Numerical full-column-rank proxy for 'enough input excitation modes'."""
    if A is None:
        return True, ()
    vals = A.values if isinstance(A, SymbolBurst) else np.asarray(A).ravel()
    Aop = commutativity_op(vals, ch.m, ch.N, M)
    if numerical_rank(Aop) < Aop.shape[1]:
        return False, ("symbol operator rank deficient: too few excitation modes",)
    return True, ()


def deterministic_verdict(ch: Channel, M, A=None, tol=DEFAULT_ZERO_TOL) -> IdentifiabilityVerdict:
    """Identifiability of (A, h) under the deterministic symbol model.

    Requires an irreducible channel and burst length ``M >= 2(N-1)``
    (``M >= N`` suffices for two subchannels); the excitation-mode condition
    is checked numerically on the symbol operator when a burst is supplied.
    Reducible channels are predicted from the common-factor length.
    """
    dec = reducible_decompose(ch, tol=tol)
    Nc = dec.N_c
    reasons = []
    if Nc > 1:
        reasons.append(f"reducible channel with common-factor length N_c={Nc}")
        reasons.append("joint nullity 2*N_c-1; channel-reduced nullity N_c")
        n_complex = 2 * Nc - 1
        real = ch.field == REAL
        return IdentifiabilityVerdict(
            DETERMINISTIC,
            ch.field,
            NOT_IDENTIFIABLE,
            n_complex,
            n_complex if real else 2 * n_complex,
            Nc,
            tuple(reasons),
        )
    burst_ok = M >= 2 * (ch.N - 1) or (ch.m == 2 and M >= ch.N)
    if not burst_ok:
        reasons.append(
            f"burst too short: M={M} < 2(N-1)={2 * (ch.N - 1)}"
            + (f" and < N={ch.N}" if ch.m == 2 else "")
        )
        return IdentifiabilityVerdict(
            DETERMINISTIC, ch.field, NOT_IDENTIFIABLE, -1, -1, -1, tuple(reasons)
        )
    modes_ok, mode_reasons = _burst_rank_ok(ch, A, M)
    reasons.extend(mode_reasons)
    if not modes_ok:
        return IdentifiabilityVerdict(
            DETERMINISTIC, ch.field, NOT_IDENTIFIABLE, -1, -1, -1, tuple(reasons)
        )
    reasons.append("irreducible channel, burst long enough: scale ambiguity only")
    real = ch.field == REAL
    return IdentifiabilityVerdict(
        DETERMINISTIC,
        ch.field,
        SCALE,
        1,
        1 if real else 2,
        1,
        tuple(reasons),
    )


def gaussian_verdict(
    ch: Channel,
    cfg: GaussianModelConfig,
    tol=DEFAULT_ZERO_TOL,
    min_irreducible_burst=None,
) -> IdentifiabilityVerdict:
    """Identifiability of (h, sigma_v^2) under the Gaussian symbol model.

    ``min_irreducible_burst`` is the minimal burst supporting the irreducible
    part (a property of the channel not derivable here); it defaults to the
    irreducible length ``N_I``, and verdicts that depended on the default are
    flagged in the reasons.
    """
    dec = reducible_decompose(ch, tol=tol)
    reasons = []
    mi = min_irreducible_burst
    if mi is None:
        mi = dec.N_I
        mi_note = f"assuming minimal irreducible burst = N_I = {dec.N_I}"
    else:
        mi_note = f"minimal irreducible burst supplied as {mi}"
    need = max(mi + 1, dec.N_c - 1)
    if cfg.M < need:
        reasons.append(f"burst too short: M={cfg.M} < {need} ({mi_note})")
        return IdentifiabilityVerdict(
            GAUSSIAN, ch.field, INDETERMINATE, -1, -1, -1, tuple(reasons)
        )
    reasons.append(f"burst condition met: M={cfg.M} >= {need} ({mi_note})")

    pairing = conjugate_reciprocal_pairs(dec.monic, field=ch.field, tol=tol)
    P = len(pairing.pairs)
    U = len(pairing.unit_selfpaired)
    if pairing.unit_circle:
        reasons.append(
            f"{len(pairing.unit_circle)} common zero(s) on the unit circle away "
            "from +/-1: census rule does not cover this case"
        )
        return IdentifiabilityVerdict(
            GAUSSIAN, ch.field, INDETERMINATE, -1, -1, -1, tuple(reasons)
        )
    clean = P == 0 and U == 0
    base = 1 if ch.field == COMPLEX else 0
    per_pair = 2 if ch.field == COMPLEX else 1
    extra = per_pair * P + U
    noise = 1 if (ch.m == 1 and clean) else 0
    nullity = base + extra + noise

    if base:
        reasons.append("complex data: baseline phase singularity")
    if P:
        reasons.append(f"{P} conjugate reciprocal pair(s): +{per_pair * P}")
    if U:
        reasons.append(f"{U} common zero(s) at +/-1: +{U}")
    if noise:
        reasons.append("monochannel without conjugate reciprocal zeros: "
                       "noise variance not identifiable (+1)")
    if ch.m == 1 and not clean:
        reasons.append("monochannel with conjugate reciprocal zeros: "
                       "no extra noise-variance singularity")

    if clean and ch.m > 1:
        up_to = PHASE if ch.field == COMPLEX else SIGN
        reasons.append(
            "no conjugate reciprocal zeros: locally identifiable"
            + (" up to phase" if ch.field == COMPLEX else " (sign only)")
        )
    else:
        up_to = NOT_IDENTIFIABLE
    # Gaussian FIMs live in the stacked real representation; the reduced FIM
    # drops the noise-variance direction but keeps all channel singularities.
    reduced = base + extra
    return IdentifiabilityVerdict(
        GAUSSIAN, ch.field, up_to, nullity, nullity, reduced, tuple(reasons)
    )


@dataclass(frozen=True)
class ConsistencyRecord:
    """Outcome of checking a rule-based verdict against a computed FIM rank."""

    passed: bool
    predicted: int
    computed: int
    detail: str

    def __bool__(self):
        return self.passed


def verdict_vs_fim(
    verdict: IdentifiabilityVerdict,
    report: SingularityReport,
    realified=False,
    reduced=False,
) -> ConsistencyRecord:
    """Compare a predicted nullity against a computed singularity report.

    Set ``realified`` when the report comes from a stacked-real FIM of a
    complex deterministic model, and ``reduced`` when it comes from the
    channel-block reduced FIM.
    """
    if reduced:
        predicted = verdict.predicted_reduced_nullity
    elif realified:
        predicted = verdict.predicted_nullity_realified
    else:
        predicted = verdict.predicted_nullity
    if predicted < 0:
        return ConsistencyRecord(
            False, predicted, report.nullity,
            f"verdict was indeterminate ({verdict.rules}); computed nullity "
            f"{report.nullity}",
        )
    passed = predicted == report.nullity
    detail = (
        f"model={verdict.model} field={verdict.field}: predicted {predicted}, "
        f"computed {report.nullity} (tol={report.tol:g}); rules: {verdict.rules}"
    )
    return ConsistencyRecord(passed, predicted, report.nullity, detail)
