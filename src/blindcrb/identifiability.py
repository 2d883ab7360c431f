"""Rule-based identifiability verdicts from channel structure.

These rules predict, from the common-factor decomposition of the channel
(:class:`~blindcrb.channel.ReducibleDecomposition`, built once by
:func:`~blindcrb.channel.reducible_decompose`) and the burst length alone,
how many singular directions the corresponding FIM must have;
:func:`verdict_vs_fim` then checks the prediction against a computed
:class:`~blindcrb.fim.SingularityReport`. The verdicts read the field, the
subchannel count and the length from the decomposition's irreducible part
(the channel itself when it is irreducible) and decide no common factor of
their own. The census:

Deterministic model (irreducible channel, sufficient burst/excitation):
one scale singularity; in the stacked real representation of a complex
model, two (scale and phase). A reducible channel with common-factor length
``N_c`` has ``2 N_c - 1`` joint singularities and ``N_c`` in the
channel-reduced FIM.

Gaussian model: the singular directions of ``(h, sigma_v^2)`` are those
that leave the spectral density ``S(w) = sigma_a^2 H(w) H(w)^H + sigma_v^2 I``
unchanged. Whitened by a factor ``W`` of ``S^-1 = W^H W``, the linear map
``(dh, dsigma_v^2) -> dS`` is a square root of the Whittle information
(Whittle 1953), so its nullity is counted at the FIM's own relative
threshold ``tol`` (``--rank-tol``), and a value within a fixed window around
``tol`` makes the verdict indeterminate. Complex data always carry the phase
direction; conjugate reciprocal common zeros, zeros on the unit circle and
the noise variance of a monochannel show up as further null directions of
the same map, with no rule of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import COMPLEX, REAL, ReducibleDecomposition, symbol_hankel
from .fim import DETERMINISTIC, GAUSSIAN, GaussianModelConfig, SingularityReport
from .linalg import DEFAULT_RANK_TOL, eigenvalue_rank, numerical_rank

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

# a Gaussian verdict is INDETERMINATE when an s^2/s_max^2 of the whitened
# spectral map lies in (tol * _WINDOW[0], tol * _WINDOW[1]): on 40
# near-structured channels the FIM's near-null relative eigenvalue was
# 0.50-1.28 times that value at M = 20..200 and 0.09-0.81 times it at M = 6,
# so only inside this window can the two counts differ
_WINDOW = (0.5, 20.0)


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


def _burst_rank_ok(A, N, M):
    """Numerical full-column-rank proxy for 'enough input excitation modes'.

    ``A_op = A' (x) I_m`` has full column rank exactly when the ``M x N``
    symbol Hankel ``A'`` does, since rank(``A' (x) I_m``) = m rank(``A'``).
    """
    if A is None:
        return True, ()
    if numerical_rank(symbol_hankel(A, N, M)) < N:
        return False, ("symbol operator rank deficient: too few excitation modes",)
    return True, ()


def deterministic_verdict(dec: ReducibleDecomposition, M, A=None) -> IdentifiabilityVerdict:
    """Identifiability of (A, h) under the deterministic symbol model.

    ``dec`` is the channel's :func:`~blindcrb.channel.reducible_decompose`.
    Reducible channels are predicted from the common-factor length. An
    irreducible channel (``dec.irreducible_part``) requires burst length
    ``M >= 2(N-1)`` (``M >= N`` suffices for two subchannels); the
    excitation-mode condition is checked numerically on the symbol operator
    when a burst ``A`` is supplied.
    """
    ch = dec.irreducible_part
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
    modes_ok, mode_reasons = _burst_rank_ok(A, ch.N, M)
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


def _whitened_spectral_map(dec: ReducibleDecomposition, cfg: GaussianModelConfig):
    """Real matrix of ``(dh, dsigma_v^2) -> W_j dS(w_j) W_j^H`` at ``L = 4N``
    frequencies ``w_j = 2 pi j / L``, with ``W_j^H W_j = S(w_j)^-1``.

    ``S(w) = sigma_a^2 H(w) H(w)^H + sigma_v^2 I`` is the spectral density of
    the observations, a trigonometric polynomial of degree ``N - 1``, so
    ``L`` samples fix its derivative and the map's null space is that of
    ``dS``. ``H(w)`` is the product of the irreducible part's and the common
    factor's spectra. Columns follow the realified FIM layout,
    ``[Re h; Im h; sigma_v^2]`` for a complex channel and ``[h; sigma_v^2]``
    for a real one; rows hold the real and imaginary parts of the ``m x m``
    whitened derivatives. Its Gram is ``L`` samples of the Whittle
    information ``tr(S^-1 dS_a S^-1 dS_b)``.
    """
    m, NI, Nc = dec.m, dec.N_I, dec.N_c
    N = NI + Nc - 1
    L = 4 * N
    E = np.exp(-2j * np.pi / L * np.outer(np.arange(L), np.arange(N)))   # e^{-j w_j k}
    H = (E[:, :NI] @ dec.irreducible_part.coeffs.T) * (E[:, :Nc] @ dec.monic)[:, None]
    S = cfg.sigma_a2 * H[:, :, None] * H[:, None, :].conj() + cfg.sigma_v2 * np.eye(m)
    W = np.linalg.inv(np.linalg.cholesky(S))                           # (L, m, m)
    g = np.einsum("jrl,jl->jr", W, H)                                  # W_j H(w_j)
    # D[j, k m + l] = sigma_a^2 (W_j dH)(W_j H)^H for dH = e^{-j w_j k} e_l
    D = cfg.sigma_a2 * np.einsum("jk,jrl,js->jklrs", E, W, g.conj()).reshape(L, N * m, m, m)
    DH = D.conj().swapaxes(-1, -2)
    cols = [D + DH] + ([1j * (D - DH)] if dec.irreducible_part.field == COMPLEX else [])
    X = np.concatenate(cols + [(W @ W.conj().swapaxes(-1, -2))[:, None]], axis=1)
    X = X.transpose(0, 2, 3, 1).reshape(L * m * m, -1)
    return np.vstack([X.real, X.imag])


def _relative_eigenvalues(G):
    """Eigenvalues of a PSD Gram over the largest, ascending."""
    w = np.linalg.eigvalsh(G)
    return w / w[-1]


def gaussian_verdict(
    dec: ReducibleDecomposition, cfg: GaussianModelConfig, tol=DEFAULT_RANK_TOL
) -> IdentifiabilityVerdict:
    """Identifiability of (h, sigma_v^2) under the Gaussian symbol model.

    ``dec`` is the channel's :func:`~blindcrb.channel.reducible_decompose`.
    The singular directions are those of ``(h, sigma_v^2)`` that leave the
    spectral density ``S(w) = sigma_a^2 H(w) H(w)^H + sigma_v^2 I``
    unchanged, counted as the nullity of :func:`_whitened_spectral_map` at
    the FIM's relative threshold ``tol``: singular values with
    ``s^2 / s_max^2 <= tol``. The channel-reduced count projects the
    ``sigma_v^2`` column out of the others, the map's Schur complement. A
    value of ``s^2 / s_max^2`` in ``(tol / 2, 20 tol)`` makes the verdict
    ``INDETERMINATE``. The minimal burst supporting the irreducible part is
    a property of the channel not derivable here; it is taken as the
    irreducible length ``N_I``, and the reasons say so.
    """
    field = dec.irreducible_part.field
    reasons = []
    mi_note = f"assuming minimal irreducible burst = N_I = {dec.N_I}"
    need = max(dec.N_I + 1, dec.N_c - 1)
    if cfg.M < need:
        reasons.append(f"burst too short: M={cfg.M} < {need} ({mi_note})")
        return IdentifiabilityVerdict(
            GAUSSIAN, field, INDETERMINATE, -1, -1, -1, tuple(reasons)
        )
    reasons.append(f"burst condition met: M={cfg.M} >= {need} ({mi_note})")

    # the Gram of the map is L samples of the Whittle information; its
    # sigma_v^2 row and column are the last
    A = _whitened_spectral_map(dec, cfg)
    G = A.T @ A
    Ghh, g = G[:-1, :-1], G[:-1, -1]
    full = _relative_eigenvalues(G)
    reduced = _relative_eigenvalues(Ghh - np.outer(g, g) / G[-1, -1])
    lo, hi = tol * _WINDOW[0], tol * _WINDOW[1]
    both = np.concatenate([full, reduced])
    near = both[(lo < both) & (both < hi)]
    if near.size:
        reasons.append(
            f"whitened spectral map: s^2/s_max^2 = {near[0]:.3g} lies in "
            f"({lo:.3g}, {hi:.3g}), too near tol={tol:g} to count"
        )
        return IdentifiabilityVerdict(
            GAUSSIAN, field, INDETERMINATE, -1, -1, -1, tuple(reasons)
        )
    nullity = eigenvalue_rank(full, tol)[1]
    reduced_nullity = eigenvalue_rank(reduced, tol)[1]
    dropped = f"{full[nullity - 1]:.3g}" if nullity else "(none)"
    reasons.append(
        f"whitened spectral map nullity {nullity} at tol={tol:g}: largest dropped "
        f"s^2/s_max^2 {dropped}, smallest kept {full[nullity]:.3g}"
    )
    if eigenvalue_rank(_relative_eigenvalues(Ghh), tol)[1] < nullity:
        reasons.append("noise variance not identifiable: a null direction moves sigma_v^2")
    reasons.append(f"channel-reduced (sigma_v^2 projected out) nullity {reduced_nullity}")
    base = 1 if field == COMPLEX else 0
    up_to = (PHASE if field == COMPLEX else SIGN) if nullity <= base else NOT_IDENTIFIABLE
    return IdentifiabilityVerdict(
        GAUSSIAN, field, up_to, nullity, nullity, reduced_nullity, tuple(reasons)
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
