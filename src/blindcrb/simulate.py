"""Monte Carlo machinery: burst synthesis, score-covariance FIM estimation,
scale/phase adjustment rules, and MSE-vs-CRB experiments.

Randomness is counter-based and fully determined by ``(seed, stream)``:
every logical draw owns a Philox stream, so trials are reproducible
bit-for-bit regardless of execution order or parallel scheduling.

Stream map (documented contract):

* stream 0 - the deterministic-model symbol burst, drawn once per experiment;
  it is also the burst of the CLI's deterministic ``analyze``, ``crb`` and
  ``sweep-known``;
* stream ``1 + 4 t + 0`` - observation noise of trial ``t``;
* stream ``1 + 4 t + 1`` - Gaussian-model symbols of trial ``t``;
* stream ``1 + 4 t + 2`` - estimator initialization of trial ``t``.

Complex noise and symbols are circular: real and imaginary parts are
independent with half the total variance each, so ``E[v v^T] = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .channel import COMPLEX, REAL, Channel, block_toeplitz, commutativity_op, taps_from_stacked
from .crb import minimal_crb
from .fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    deterministic_reduced_fim,
    gaussian_real_param_derivs,
)

__all__ = [
    "ADJUST_NO",
    "ADJUST_LS",
    "ADJUST_LIN",
    "DegenerateAdjustmentError",
    "ExperimentConfig",
    "McFimEstimate",
    "stream_rng",
    "experiment_symbols",
    "draw_noise",
    "simulate_burst",
    "score_covariance_fim",
    "adjust_estimate",
    "AlternatingLsResult",
    "alternating_ls_estimator",
    "MseRow",
    "mse_vs_crb_experiment",
    "snr_to_sigma_v2",
]

ADJUST_NO = "NO"
ADJUST_LS = "LS"
ADJUST_LIN = "LIN"
_ADJUSTMENTS = (ADJUST_NO, ADJUST_LS, ADJUST_LIN)

_STREAM_FIXED_SYMBOLS = 0
_PURPOSE_NOISE = 0
_PURPOSE_SYMBOLS = 1
_PURPOSE_INIT = 2


class DegenerateAdjustmentError(ValueError):
    """Raised when an adjustment rule is undefined for the given estimate."""


def stream_rng(seed, stream):
    """Counter-based generator for logical stream ``stream`` of ``seed``."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _trial_stream(trial, purpose):
    return 1 + 4 * trial + purpose


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a Monte Carlo run.

    ``trials`` and ``seed`` fully determine all randomness. ``init_scale``
    sets the relative size of the perturbation around the true channel used
    to initialize the alternating least-squares estimator (the experiments
    here measure local estimation error against the bound, not global
    convergence of blind algorithms).
    """

    channel: Channel
    model: str = DETERMINISTIC
    M: int = 20
    sigma_a2: float = 1.0
    sigma_v2: float = 1.0
    trials: int = 100
    seed: int = 0
    adjustment: str = ADJUST_NO
    ls_sweeps: int = 400
    init_scale: float = 1e-2

    def __post_init__(self):
        if self.model not in (DETERMINISTIC, GAUSSIAN):
            raise ValueError(f"unknown model {self.model!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sigma_a2 <= 0 or self.sigma_v2 < 0:
            raise ValueError("sigma_a2 must be positive and sigma_v2 nonnegative")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.adjustment not in _ADJUSTMENTS:
            raise ValueError(f"adjustment must be one of {_ADJUSTMENTS}")

    @property
    def field(self):
        return self.channel.field

    @property
    def gaussian_config(self):
        return GaussianModelConfig(self.sigma_a2, self.sigma_v2, self.M)


def _draw_gaussian_vector(rng, size, scale2, complex_field):
    if complex_field:
        g = rng.standard_normal((2, size))
        return np.sqrt(scale2 / 2.0) * (g[0] + 1j * g[1])
    return np.sqrt(scale2) * rng.standard_normal(size)


def experiment_symbols(cfg: ExperimentConfig, trial=0):
    """Symbol vector of length ``M + N - 1``.

    Deterministic model: one fixed draw per experiment (stream 0), shared by
    every trial. Gaussian model: a fresh draw per trial.
    """
    n = cfg.M + cfg.channel.N - 1
    if cfg.model == DETERMINISTIC:
        rng = stream_rng(cfg.seed, _STREAM_FIXED_SYMBOLS)
    else:
        rng = stream_rng(cfg.seed, _trial_stream(trial, _PURPOSE_SYMBOLS))
    return _draw_gaussian_vector(rng, n, cfg.sigma_a2, cfg.field == COMPLEX)


def draw_noise(cfg: ExperimentConfig, trial):
    """Observation noise of one trial: white, circular when complex."""
    ny = cfg.M * cfg.channel.m
    rng = stream_rng(cfg.seed, _trial_stream(trial, _PURPOSE_NOISE))
    return _draw_gaussian_vector(rng, ny, cfg.sigma_v2, cfg.field == COMPLEX)


def simulate_burst(cfg: ExperimentConfig, trial=0):
    """One observed burst ``Y = T(h) A + V`` for the given trial index."""
    A = experiment_symbols(cfg, trial)
    Y = cfg.channel.toeplitz(cfg.M) @ A + draw_noise(cfg, trial)
    return Y


@dataclass(frozen=True)
class McFimEstimate:
    """Empirical score-covariance FIM with per-entry standard errors."""

    J_hat: np.ndarray
    trials: int
    std_err: np.ndarray
    score_mean: np.ndarray
    score_mean_se: np.ndarray


def _det_score_matrix(cfg, trials):
    ch = cfg.channel
    T = ch.toeplitz(cfg.M)
    Aop = commutativity_op(experiment_symbols(cfg), ch.m, ch.N, cfg.M)
    D = np.hstack([T, Aop])
    nA = cfg.M + ch.N - 1
    V = np.empty((trials, T.shape[0]), dtype=complex if cfg.field == COMPLEX else float)
    for t in range(trials):
        V[t] = draw_noise(cfg, t)
    if cfg.field == REAL:
        return (V @ D) / cfg.sigma_v2
    U = V @ D.conj()                      # row t = (D^H v_t)^T
    blocks = [U[:, :nA].real, U[:, :nA].imag, U[:, nA:].real, U[:, nA:].imag]
    return 2.0 * np.hstack(blocks) / cfg.sigma_v2


def _gaussian_score_matrix(cfg, trials):
    ch = cfg.channel
    C, slabs = gaussian_real_param_derivs(ch, cfg.gaussian_config)
    L = np.linalg.cholesky(C)
    Ci = np.linalg.inv(C)
    P = np.einsum("ij,ajk,kl->ail", Ci, slabs, Ci)
    offset = np.einsum("ij,aji->a", Ci, slabs).real
    T = ch.toeplitz(cfg.M)
    Y = np.empty((trials, T.shape[0]), dtype=complex if cfg.field == COMPLEX else float)
    for t in range(trials):
        Y[t] = T @ experiment_symbols(cfg, t) + draw_noise(cfg, t)
    quad = np.einsum("ti,aij,tj->ta", Y.conj(), P, Y).real
    if cfg.field == COMPLEX:
        return quad - offset
    return 0.5 * (quad - offset)


def score_covariance_fim(cfg: ExperimentConfig) -> McFimEstimate:
    """Estimate the FIM as the sample covariance of per-trial scores.

    Scores are gradients of the exact log-likelihood at the true parameter,
    evaluated on simulated bursts; their outer-product average converges to
    the analytic FIM (in the stacked real representation for complex
    models). Standard errors come from the sample variance of the per-trial
    outer products.
    """
    if cfg.model == DETERMINISTIC:
        S = _det_score_matrix(cfg, cfg.trials)
    else:
        S = _gaussian_score_matrix(cfg, cfg.trials)
    T = cfg.trials
    prods = np.einsum("ta,tb->tab", S, S)
    J_hat = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(T) if T > 1 else np.full_like(J_hat, np.inf)
    mean = S.mean(axis=0)
    mean_se = S.std(axis=0, ddof=1) / np.sqrt(T) if T > 1 else np.full(S.shape[1], np.inf)
    return McFimEstimate(J_hat, T, se, mean, mean_se)


def adjust_estimate(h_hat, h0, rule):
    """Resolve the blind scale/phase ambiguity of a unit-norm estimate.

    ``NO``: rescale to ``||h0||`` and rotate the phase so the estimate is
    orthogonal to the phase direction of ``h0`` with positive inner product
    (sign resolution ``h0^H h > 0``).
    ``LS``: least-squares scale, the projection ``P_hhat h0``.
    ``LIN``: linear-constraint scale ``h0^H h = h0^H h0``.
    """
    h_hat = np.asarray(h_hat).ravel()
    h0 = np.asarray(h0).ravel()
    nh = np.linalg.norm(h_hat)
    if nh == 0.0:
        raise DegenerateAdjustmentError("zero estimate cannot be adjusted")
    c = np.vdot(h0, h_hat)          # h0^H h_hat
    if rule == ADJUST_NO:
        if abs(c) == 0.0:
            raise DegenerateAdjustmentError(
                "estimate orthogonal to the true channel: phase/sign undefined"
            )
        unit = h_hat / nh
        rot = np.conj(c) / abs(c) if np.iscomplexobj(h_hat) or np.iscomplexobj(h0) \
            else np.sign(c)
        return np.linalg.norm(h0) * rot * unit
    if rule == ADJUST_LS:
        return h_hat * (np.vdot(h_hat, h0) / np.vdot(h_hat, h_hat))
    if rule == ADJUST_LIN:
        if abs(c) == 0.0:
            raise DegenerateAdjustmentError(
                "linear adjustment undefined: h0^H h_hat = 0"
            )
        return h_hat * (np.vdot(h0, h0) / c)
    raise ValueError(f"unknown adjustment rule {rule!r}")


@dataclass(frozen=True)
class AlternatingLsResult:
    h: np.ndarray
    A: np.ndarray
    residual: float
    residual_history: tuple
    converged: bool
    sweeps: int


def alternating_ls_estimator(Y, m, N, init, sweeps=30, rtol=1e-12):
    """Alternating least squares in (A | h) and (h | A) for ``Y = T(h) A + V``.

    Each sweep solves the two linear least-squares subproblems in turn and
    renormalizes the channel iterate (the scale freedom is absorbed by the
    symbol update, so the end-of-sweep residual is monotone non-increasing).
    Stops early when the relative residual improvement drops below ``rtol``;
    if the sweep budget runs out first, the best iterate is returned with
    ``converged=False``.

    Convergence is local: the iteration settles into the cost basin selected
    by ``init``, and an initialization far from (or orthogonal to) the true
    channel may converge to a different stationary point. Experiments here
    initialize near the truth on purpose; they measure local estimation
    error against the bound, not global behavior of blind algorithms.
    """
    Y = np.asarray(Y).ravel()
    if Y.size % m:
        raise ValueError("observation length is not a multiple of m")
    M = Y.size // m
    h = np.asarray(init).ravel().astype(complex if np.iscomplexobj(Y) else float)
    if h.size != m * N:
        raise ValueError(f"init must have length m*N = {m * N}")
    h = h / np.linalg.norm(h)
    history = []
    A = None
    for sweep in range(sweeps):
        T = block_toeplitz(taps_from_stacked(h, m), M)
        A = _ls_solve(T, Y)
        Aop = commutativity_op(A, m, N, M)
        h = _ls_solve(Aop, Y)
        resid = np.linalg.norm(Y - Aop @ h)
        h = h / np.linalg.norm(h)
        history.append(float(resid))
        if sweep > 0 and history[-2] - resid <= rtol * max(history[-2], 1.0):
            return AlternatingLsResult(h, A, float(resid), tuple(history), True, sweep + 1)
    return AlternatingLsResult(h, A, float(history[-1]), tuple(history), False, sweeps)


def _ls_solve(D, Y):
    # normal equations + Cholesky: the operators here are tall and well
    # conditioned; fall back to lstsq for rank-deficient iterates
    G = D.conj().T @ D
    try:
        return sla.solve(G, D.conj().T @ Y, assume_a="pos", check_finite=False)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(D, Y, rcond=None)[0]


def snr_to_sigma_v2(ch: Channel, sigma_a2, snr_db):
    """Noise variance giving the requested per-sample SNR.

    SNR is defined as signal power per received vector sample over noise
    power per sample: ``sigma_a^2 ||h||^2 / (m sigma_v^2)``.
    """
    snr = 10.0 ** (snr_db / 10.0)
    return float(sigma_a2 * np.linalg.norm(ch.h) ** 2 / (ch.m * snr))


@dataclass(frozen=True)
class MseRow:
    """One SNR point of an MSE-vs-bound experiment (wide over adjustment rules)."""

    snr_db: float
    sigma_v2: float
    crb_trace: float
    trials: int
    mse: dict
    std_err: dict
    nonconverged: int


def mse_vs_crb_experiment(cfg: ExperimentConfig, snr_db_list, rules=_ADJUSTMENTS):
    """Empirical estimator MSE against the blind CRB trace, per SNR point.

    Deterministic model only: the symbols are drawn once, the channel bound
    is the pseudo-inverse trace of the symbol-reduced channel FIM, and the
    estimator is alternating least squares initialized near the truth. The
    per-rule MSE is ``E ||adjusted(h_hat) - h0||^2`` with the sign resolved
    by the positivity convention inside the NO rule.
    """
    if cfg.model != DETERMINISTIC:
        raise ValueError("MSE experiments are defined for the deterministic model")
    ch = cfg.channel
    h0 = ch.h
    A = experiment_symbols(cfg)
    rows = []
    for snr_db in snr_db_list:
        sv2 = snr_to_sigma_v2(ch, cfg.sigma_a2, snr_db)
        cfg_snr = replace(cfg, sigma_v2=sv2)
        reduced = deterministic_reduced_fim(ch, A, sv2, cfg.M)
        crb_trace = minimal_crb(reduced).trace
        sq = {r: np.empty(cfg.trials) for r in rules}
        nonconv = 0
        for t in range(cfg.trials):
            Y = simulate_burst(cfg_snr, t)
            rng = stream_rng(cfg.seed, _trial_stream(t, _PURPOSE_INIT))
            pert = _draw_gaussian_vector(rng, h0.size, 1.0, cfg.field == COMPLEX)
            init = h0 + cfg.init_scale * np.linalg.norm(h0) * pert / np.linalg.norm(pert)
            est = alternating_ls_estimator(Y, ch.m, ch.N, init, sweeps=cfg.ls_sweeps)
            if not est.converged:
                nonconv += 1
            for r in rules:
                adj = adjust_estimate(est.h, h0, r)
                sq[r][t] = np.linalg.norm(adj - h0) ** 2
        mse = {r: float(sq[r].mean()) for r in rules}
        se = {
            r: float(sq[r].std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else float("inf")
            for r in rules
        }
        rows.append(MseRow(float(snr_db), sv2, crb_trace, cfg.trials, mse, se, nonconv))
    return rows
