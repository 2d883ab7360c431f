"""Monte Carlo machinery: burst synthesis, score-covariance FIM estimation,
scale/phase adjustment rules, and MSE-vs-CRB experiments.

Randomness is counter-based and fully determined by ``(seed, stream)``:
every logical draw owns a Philox stream, so trials are reproducible
bit-for-bit regardless of execution order or parallel scheduling. The
trial loops (score covariance, MSE experiments) draw all trials of one
stream purpose into one ``(trials, k, size)`` buffer of raw standard
normals, through one generator whose fresh state changes only its key from
trial to trial, and scale that buffer into noise or symbols in one step;
each trial's draws are bitwise those of a fresh :func:`stream_rng`, so the
stream map below is unchanged. That fresh state is one dict of plain
Python ints (zero counter, empty buffer), and each trial swaps in only its
key tuple: the Philox state setter reads counter, key and buffer one
element at a time, and a plain int converts for about half of what a NumPy
``uint64`` array element costs. The scores of all trials are then formed
as matrix products (the Gaussian score as one GEMM of per-trial outer
products per block of trials), and an MSE experiment draws its noise and
initialization normals once for all of its SNR points and runs every
trial of every point through the one estimator, :func:`alternating_ls_batch`,
in lockstep.

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

from dataclasses import dataclass

import numpy as np

from .channel import (
    COMPLEX,
    REAL,
    Channel,
    block_toeplitz,
    toeplitz_gram_band,
)
from .crb import constrained_crb
from .fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    _pd_inverse,
    deterministic_joint_operator,
    deterministic_reduced_fim,
    gaussian_real_param_derivs,
)
from .linalg import cholesky_solve, min_norm_solve

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
    "AlternatingLsBatch",
    "alternating_ls_batch",
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
_STREAMS_PER_TRIAL = 4

# entries of the per-trial outer products that one GEMM of the Gaussian
# score takes (see _gaussian_score_matrix): 512 trials at ny = 8
_SCORE_BLOCK_ENTRIES = 2**15


class DegenerateAdjustmentError(ValueError):
    """Raised when an adjustment rule is undefined for the given estimate."""


def _stream_key(seed, stream):
    # the two 64-bit words of a stream's Philox key, as plain ints
    return (seed & 0xFFFFFFFFFFFFFFFF, stream)


def stream_rng(seed, stream):
    """Counter-based generator for logical stream ``stream`` of ``seed``."""
    key = np.array(_stream_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fresh_state(key):
    # the state of a fresh Philox with key ``key`` (counter 0, empty buffer,
    # no cached 32-bit half): set on a stream_rng generator, it makes the
    # draws that follow bitwise those of stream_rng with that key. Setting
    # it costs about a twentieth of building a Philox, which first seeds a
    # SeedSequence from the OS entropy pool. Every field is a plain int or a
    # tuple of them: the setter converts one element at a time, and a NumPy
    # uint64 element costs about twice what an int does
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _trial_stream(trial, purpose):
    return 1 + _STREAMS_PER_TRIAL * trial + purpose


def _trial_normals(rng, cfg, purpose, size):
    """Raw standard normals of one stream purpose for every trial of ``cfg``.

    ``out[t]`` is bitwise ``stream_rng(cfg.seed, 1 + 4 t + purpose)
    .standard_normal((k, size))``, with ``k = 2`` rows (real and imaginary
    parts) for a complex channel and 1 for a real one: before each trial's
    draw ``rng`` is set to one fresh state whose key alone changes.
    """
    bitgen, draw = rng.bit_generator, rng.standard_normal
    state = _fresh_state(None)
    counter_and_key = state["state"]
    seed_word = _stream_key(cfg.seed, 0)[0]
    streams = range(_trial_stream(0, purpose), _trial_stream(cfg.trials, purpose),
                    _STREAMS_PER_TRIAL)
    out = np.empty((cfg.trials, 2 if cfg.field == COMPLEX else 1, size))
    for row, stream in zip(out, streams):
        counter_and_key["key"] = (seed_word, stream)
        bitgen.state = state
        draw(out=row)
    return out


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
    ls_sweeps: int = 400
    init_scale: float = 1e-2

    def __post_init__(self):
        if self.model not in (DETERMINISTIC, GAUSSIAN):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("M", "trials", "ls_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"field {name!r} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.sigma_a2 < np.inf:
            raise ValueError(f"field 'sigma_a2' must be positive and finite, got {self.sigma_a2}")
        for name in ("sigma_v2", "init_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"field {name!r} must be nonnegative and finite, "
                                 f"got {getattr(self, name)}")

    @property
    def field(self):
        return self.channel.field

    @property
    def gaussian_config(self):
        return GaussianModelConfig(self.sigma_a2, self.sigma_v2, self.M)


def _scale_normals(g, scale2, complex_field):
    """Zero-mean Gaussian draws of variance ``scale2`` from raw normals ``g``
    of shape ``(..., k, size)``; complex draws are circular, with half the
    variance in each part."""
    if complex_field:
        z = g[..., 0, :] + 1j * g[..., 1, :]
        z *= np.sqrt(scale2 / 2.0)        # in place: one trial-sized temporary fewer
        return z
    return np.sqrt(scale2) * g[..., 0, :]


def _draw_gaussian_vector(rng, size, scale2, complex_field):
    g = rng.standard_normal((2 if complex_field else 1, size))
    return _scale_normals(g, scale2, complex_field)


def _symbol_draw(rng, cfg):
    n = cfg.M + cfg.channel.N - 1
    return _draw_gaussian_vector(rng, n, cfg.sigma_a2, cfg.field == COMPLEX)


def experiment_symbols(cfg: ExperimentConfig, trial=0):
    """Symbol vector of length ``M + N - 1``.

    Deterministic model: one fixed draw per experiment (stream 0), shared by
    every trial. Gaussian model: a fresh draw per trial.
    """
    if cfg.model == DETERMINISTIC:
        rng = stream_rng(cfg.seed, _STREAM_FIXED_SYMBOLS)
    else:
        rng = stream_rng(cfg.seed, _trial_stream(trial, _PURPOSE_SYMBOLS))
    return _symbol_draw(rng, cfg)


def draw_noise(cfg: ExperimentConfig, trial):
    """Observation noise of one trial: white, circular when complex."""
    rng = stream_rng(cfg.seed, _trial_stream(trial, _PURPOSE_NOISE))
    return _draw_gaussian_vector(rng, cfg.M * cfg.channel.m, cfg.sigma_v2, cfg.field == COMPLEX)


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


def _trial_draws(rng, cfg, purpose, size, scale2):
    """Draws of one stream purpose for every trial of ``cfg``, one row each."""
    return _scale_normals(_trial_normals(rng, cfg, purpose, size), scale2, cfg.field == COMPLEX)


def _det_score_matrix(cfg):
    ch = cfg.channel
    rng = stream_rng(cfg.seed, _STREAM_FIXED_SYMBOLS)
    A = _symbol_draw(rng, cfg)            # experiment_symbols(cfg)
    D = deterministic_joint_operator(ch, A, cfg.M)
    V = _trial_draws(rng, cfg, _PURPOSE_NOISE, D.shape[0], cfg.sigma_v2)
    if cfg.field == REAL:
        return (V @ D) / cfg.sigma_v2
    nA = cfg.M + ch.N - 1
    U = V @ D.conj()                      # row t = (D^H v_t)^T
    blocks = [U[:, :nA].real, U[:, :nA].imag, U[:, nA:].real, U[:, nA:].imag]
    return 2.0 * np.hstack(blocks) / cfg.sigma_v2


def _gaussian_score_matrix(cfg):
    ch = cfg.channel
    C, slabs = gaussian_real_param_derivs(ch, cfg.gaussian_config)
    Ci = _pd_inverse(C)
    P = Ci @ slabs @ Ci
    offset = np.einsum("ij,aji->a", Ci, slabs).real
    T = ch.toeplitz(cfg.M)
    rng = stream_rng(cfg.seed, _STREAM_FIXED_SYMBOLS)
    # row t: the burst T A_t + V_t of trial t
    Y = _trial_draws(rng, cfg, _PURPOSE_NOISE, T.shape[0], cfg.sigma_v2)
    Y += _trial_draws(rng, cfg, _PURPOSE_SYMBOLS, T.shape[1], cfg.sigma_a2) @ T.T
    # quad[t, a] = y_t^H P_a y_t: the outer products conj(y_t) y_t^T of a
    # block of trials, flattened, times the flattened P_a, one GEMM per
    # block. The blocks keep the outer products near _SCORE_BLOCK_ENTRIES
    # entries: all trials at once would hold trials x ny^2 of them, ny
    # times the size of the bursts Y
    ny = T.shape[0]
    block = max(1, _SCORE_BLOCK_ENTRIES // ny**2)
    Pt = P.reshape(-1, ny * ny).T
    quad = np.empty((cfg.trials, P.shape[0]))
    for s in range(0, cfg.trials, block):
        Yb = Y[s:s + block]
        outer = Yb.conj()[:, :, None] * Yb[:, None, :]
        quad[s:s + block] = (outer.reshape(-1, ny * ny) @ Pt).real
    if cfg.field == COMPLEX:
        return quad - offset
    return 0.5 * (quad - offset)


def score_covariance_fim(cfg: ExperimentConfig) -> McFimEstimate:
    """Estimate the FIM as the sample covariance of per-trial scores.

    Scores are gradients of the exact log-likelihood at the true parameter,
    evaluated on simulated bursts; their outer-product average converges to
    the analytic FIM (in the stacked real representation for complex
    models). Standard errors come from the sample variance of the per-trial
    outer products, taken from the moments ``S^T S`` and ``(S o S)^T (S o S)``
    of the trials x p score matrix ``S``, so no per-trial outer product is
    formed.
    """
    if cfg.model == DETERMINISTIC:
        S = _det_score_matrix(cfg)
    else:
        S = _gaussian_score_matrix(cfg)
    T = cfg.trials
    J_hat = S.T @ S / T
    if T > 1:
        S2 = S * S
        var = (S2.T @ S2 / T - J_hat * J_hat) * (T / (T - 1))
        se = np.sqrt(np.maximum(var, 0.0) / T)
    else:
        se = np.full_like(J_hat, np.inf)
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
class AlternatingLsBatch:
    """Results of :func:`alternating_ls_batch`, one row per trial: trial
    ``t`` ran ``sweeps[t]`` sweeps with residuals ``history[t, :sweeps[t]]``
    (NaN beyond), and ended on channel ``h[t]`` and symbols ``A[t]``."""

    h: np.ndarray
    A: np.ndarray
    history: np.ndarray
    converged: np.ndarray
    sweeps: np.ndarray


def _data_operator(Yr, N):
    """``Q[t]`` with ``T(h)^H y_t = Q[t] conj(h)`` for the blocks ``Yr[t]`` of
    each burst ``y_t``: ``Q[t, s, i m + l] = Yr[t, s - i, l]``."""
    T, M, m = Yr.shape
    Q = np.zeros((T, M + N - 1, N, m), dtype=Yr.dtype)
    for i in range(N):
        Q[:, i:i + M, i] = Yr
    return Q.reshape(T, M + N - 1, N * m)


def alternating_ls_batch(Ys, m, N, inits, sweeps=30, rtol=1e-12):
    """Alternating least squares in (A | h) and (h | A) for
    ``y_t = T(h_t) A_t + v_t``, on every burst ``Ys[t]`` (rows of a ``T x M m``
    array) from ``inits[t]``; returns an :class:`AlternatingLsBatch`.

    Each sweep solves the two linear least-squares subproblems in turn and
    renormalizes the channel iterate; the symbol update absorbs the scale,
    so the end-of-sweep residual never increases. A trial stops when its
    relative residual improvement drops below ``rtol``; if the budget runs
    out first, its last iterate, which by that monotonicity has the smallest
    residual, is returned with ``converged=False``. Convergence is local: the
    iteration settles into the cost basin selected by ``inits[t]``, and a
    start far from (or orthogonal to) the true channel may reach another
    stationary point. Experiments here start near the truth on purpose: they
    measure local estimation error against the bound, not the global
    behavior of blind algorithms.

    All trials run in lockstep; one burst is a batch of one. The trials still
    running share each call of a sweep, and a trial that stops leaves the
    live set (the arrays are compacted only when it shrinks). Real bursts in
    a complex stack run in complex arithmetic. Neither step forms ``T(h)`` or
    ``A_op``: each trial's data operator ``Q`` with ``T(h)^H y = Q conj(h)``
    and the index of the symbol Hankel ``A'`` are formed once per call, and
    each step solves the Grams of all live trials, end to end in one band,
    with one banded Cholesky (:func:`_symbol_step`, :func:`_channel_step`).
    """
    Ys = np.asarray(Ys)
    T, size = Ys.shape
    if size % m:
        raise ValueError("observation length is not a multiple of m")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    M = size // m
    dtype = complex if np.iscomplexobj(Ys) else float
    h = np.asarray(inits).astype(dtype)
    if h.shape != (T, m * N):
        raise ValueError(f"inits must have shape (T, m*N) = ({T}, {m * N})")
    h = h / np.linalg.norm(h, axis=1, keepdims=True)
    Yr = Ys.reshape(T, M, m)              # row r of Yr[t] = block r of Ys[t]
    Q = _data_operator(Yr, N)
    hankel = np.arange(M)[:, None] + np.arange(N)     # A'[r, c] = A[r + c]
    history = np.full((T, sweeps), np.nan)
    h_out, A_out = np.empty_like(h), np.empty((T, M + N - 1), dtype=dtype)
    stopped, converged = np.full(T, sweeps), np.zeros(T, dtype=bool)
    live = np.arange(T)
    for sweep in range(sweeps):
        if not live.size:
            break
        taps = h.reshape(-1, N, m).swapaxes(1, 2)
        A = _symbol_step(taps, Yr, (Q @ h.conj()[..., None])[..., 0])
        Ap = A[:, hankel]
        X = _channel_step(Ap, Yr)
        resid = np.linalg.norm(Yr - Ap @ X, axis=(1, 2))
        h = X.reshape(live.size, -1)
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        history[live, sweep] = resid
        done = np.zeros(live.size, dtype=bool)
        if sweep > 0:
            prev = history[live, sweep - 1]
            done = prev - resid <= rtol * np.maximum(prev, 1.0)
        stop = done | (sweep + 1 == sweeps)
        if stop.any():
            ended = live[stop]
            h_out[ended], A_out[ended] = h[stop], A[stop]
            stopped[ended], converged[ended] = sweep + 1, done[stop]
            keep = ~stop
            live, h, Yr, Q = live[keep], h[keep], Yr[keep], Q[keep]
    return AlternatingLsBatch(h_out, A_out, history, converged, stopped)


def _symbol_step(taps, Yr, rhs):
    """Least-squares symbols ``argmin_A ||y_t - T(h_t) A||`` of each trial,
    for taps ``taps[t]`` (m x N), blocks ``Yr[t]`` of ``y_t`` and
    ``rhs[t] = T(h_t)^H y_t``.

    The normal equations use the banded ``T(h_t)^H T(h_t)`` of all trials,
    end to end in one band; a trial whose Gram is numerically singular (see
    :func:`~blindcrb.linalg.cholesky_solve`) takes the minimum-norm
    solution, and only that fallback builds a dense ``T(h_t)``.
    """
    M = Yr.shape[1]
    A, regular = cholesky_solve(toeplitz_gram_band(taps, M), rhs[..., None])
    A = A[..., 0]
    for t in np.flatnonzero(~regular):
        A[t] = min_norm_solve(block_toeplitz(taps[t], M), Yr[t].ravel())[0]
    return A


def _channel_step(Ap, Yr):
    """Least-squares taps ``X_t = H_t^T`` (N x m) of each trial for its
    symbol Hankel ``Ap[t]``.

    ``A_op = A' (x) I_m`` makes ``A_op h = vec(A' X)`` row by row, so the
    channel step is one N x N Gram ``A'^H A'`` with the m columns of
    ``A'^H Yr`` as right-hand sides. ``G (x) I_m`` has the pivots of ``G``,
    each m times, so the singular-Gram rule reads the same on ``G``. The
    Grams of all trials go end to end into one band of bandwidth N - 1.
    """
    T, _, N = Ap.shape
    Aph = Ap.conj().swapaxes(1, 2)
    G = Aph @ Ap
    band = np.zeros((T, N, N), dtype=G.dtype)        # band[t, j, N - 1 - d] = G[t, j - d, j]
    for d in range(N):
        band[:, d:, N - 1 - d] = np.diagonal(G, d, axis1=1, axis2=2)
    X, regular = cholesky_solve(band.reshape(-1, N).T, Aph @ Yr)
    for t in np.flatnonzero(~regular):
        X[t] = min_norm_solve(Ap[t], Yr[t])[0]
    return X


def snr_to_sigma_v2(ch: Channel, sigma_a2, snr_db):
    """Noise variance giving the requested per-sample SNR.

    SNR is defined as signal power per received vector sample over noise
    power per sample: ``sigma_a^2 ||h||^2 / (m sigma_v^2)``.
    """
    snr = 10.0 ** (snr_db / 10.0)
    return float(sigma_a2 * np.linalg.norm(ch.h) ** 2 / (ch.m * snr))


@dataclass(frozen=True)
class MseRow:
    """One SNR point of an MSE-vs-bound experiment (wide over adjustment rules).

    ``sweeps_mean`` is the estimator's mean sweep count over the trials.
    ``warnings`` are those of the reduced FIM behind ``crb_trace``: with
    ``toeplitz-rank-deficient`` the channel is not identifiable from the
    burst and the bound is a pseudo-inverse bound of a singular FIM.
    """

    snr_db: float
    sigma_v2: float
    crb_trace: float
    trials: int
    mse: dict
    std_err: dict
    nonconverged: int
    sweeps_mean: float
    warnings: tuple = ()


def mse_vs_crb_experiment(cfg: ExperimentConfig, snr_db_list):
    """Empirical estimator MSE against the blind CRB trace, per SNR point.

    Deterministic model only: the symbols are drawn once, the channel bound
    is the pseudo-inverse trace of the symbol-reduced channel FIM, and the
    estimator is alternating least squares initialized near the truth. Each
    adjustment rule (NO, LS, LIN) gets its MSE ``E ||adjusted(h_hat) - h0||^2``,
    with the sign resolved by the positivity convention inside the NO rule.
    """
    if cfg.model != DETERMINISTIC:
        raise ValueError("MSE experiments are defined for the deterministic model")
    ch = cfg.channel
    h0 = ch.h
    rng = stream_rng(cfg.seed, _STREAM_FIXED_SYMBOLS)
    A = _symbol_draw(rng, cfg)            # experiment_symbols(cfg)
    TA = ch.toeplitz(cfg.M) @ A
    # the reduced FIM scales as 1/sigma_v^2: build it once at unit noise
    reduced = deterministic_reduced_fim(ch, A, 1.0, cfg.M)
    # the noise and init streams do not depend on the SNR: draw them once
    noise = _trial_normals(rng, cfg, _PURPOSE_NOISE, TA.size)
    perts = _trial_draws(rng, cfg, _PURPOSE_INIT, h0.size, 1.0)
    inits = h0 + cfg.init_scale * np.linalg.norm(h0) * perts \
        / np.linalg.norm(perts, axis=1, keepdims=True)
    sv2s = [snr_to_sigma_v2(ch, cfg.sigma_a2, snr_db) for snr_db in snr_db_list]
    # every trial of every SNR point in one lockstep ALS run
    Ys = np.empty((len(sv2s), cfg.trials, TA.size), dtype=TA.dtype)
    for p, sv2 in enumerate(sv2s):
        Ys[p] = TA + _scale_normals(noise, sv2, cfg.field == COMPLEX)   # simulate_burst per trial
    ests = alternating_ls_batch(Ys.reshape(-1, TA.size), ch.m, ch.N,
                                np.tile(inits, (len(sv2s), 1)), sweeps=cfg.ls_sweeps)
    rows = []
    for p, (snr_db, sv2) in enumerate(zip(snr_db_list, sv2s)):
        crb_trace = constrained_crb(reduced.J / sv2).trace
        point = slice(p * cfg.trials, (p + 1) * cfg.trials)
        sq = {r: np.array([np.linalg.norm(adjust_estimate(h, h0, r) - h0) ** 2
                           for h in ests.h[point]]) for r in _ADJUSTMENTS}
        mse = {r: float(sq[r].mean()) for r in _ADJUSTMENTS}
        se = {
            r: float(sq[r].std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else float("inf")
            for r in _ADJUSTMENTS
        }
        nonconv = int(np.count_nonzero(~ests.converged[point]))
        sweeps_mean = int(ests.sweeps[point].sum()) / cfg.trials
        rows.append(MseRow(float(snr_db), sv2, crb_trace, cfg.trials, mse, se, nonconv,
                           sweeps_mean, reduced.warnings))
    return rows
