"""Monte Carlo machinery: burst synthesis, score-covariance FIM estimation,
scale/phase adjustment rules, and MSE-vs-CRB experiments.

Randomness is counter-based and fully determined by ``(seed, stream)``:
every logical draw owns a Philox stream, so trials are reproducible
bit-for-bit regardless of execution order or parallel scheduling. Every
draw goes through one drawer, :func:`_draws`, which re-keys one generator to
each stream of a range and returns one row per stream; the public drawers
are its one-stream case. The score covariance runs its trials in blocks of
``_TRIAL_BLOCK``: each block's bursts are drawn and scored as matrix
products and added into plain moment sums, so its memory does not grow with
the trial count. The Gaussian score reads ``T(h)`` and ``C^-1`` alone, as
correlations of ``z_t = C^-1 y_t`` with ``T^H z_t`` (no covariance slab is
formed; their dense stack is the tests' oracle). An MSE experiment runs its
trials in blocks of about ``_BURST_BLOCK`` bursts over all SNR points
through the one estimator, :func:`alternating_ls_batch`, in lockstep, each
sweep from an Anderson-mixed start; a block draws the noise and
initialization normals of its trials once and uses them at every point.

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
from numpy.lib.stride_tricks import sliding_window_view

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
    _check_variance,
    _gaussian_covariance,
    _pd_inverse,
    deterministic_joint_operator,
    deterministic_reduced_fim,
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

_FIXED_SYMBOLS = range(1)               # stream 0 alone
_PURPOSE_NOISE = 0
_PURPOSE_SYMBOLS = 1
_PURPOSE_INIT = 2
_STREAMS_PER_TRIAL = 4

# trials per block of the score-covariance loop: a block's draws and scores
# take about 0.4 KB per trial, so about 1 MB whatever the trial count
_TRIAL_BLOCK = 2048
# bursts per lockstep ALS block of an MSE experiment: a sweep's cost per
# burst stops falling at about this size, and a block takes about 45 KB per
# complex burst at M = 100
_BURST_BLOCK = 128
# the ALS stop rule's relative tolerance
_ALS_RTOL = 1e-12
# past sweeps an ALS start point mixes (Anderson depth)
_ANDERSON_DEPTH = 5


class DegenerateAdjustmentError(ValueError):
    """Raised when an adjustment rule is undefined for the given estimate."""


def _stream_key(seed, stream):
    # the two 64-bit words of a stream's Philox key, as plain ints
    return (seed & 0xFFFFFFFFFFFFFFFF, stream)


def stream_rng(seed, stream):
    """Counter-based generator for logical stream ``stream`` of ``seed``."""
    key = np.array(_stream_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _trial_streams(trials, purpose):
    """The streams of one purpose for the trials in the range ``trials``."""
    return range(1 + _STREAMS_PER_TRIAL * trials.start + purpose,
                  1 + _STREAMS_PER_TRIAL * trials.stop + purpose, _STREAMS_PER_TRIAL)


def _trial_blocks(trials, size=_TRIAL_BLOCK):
    """The ranges of at most ``size`` trials that cover ``range(trials)``."""
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


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


def _draws(rng, cfg, streams, size, scale2=None):
    """The draws of the streams in the range ``streams`` of ``cfg.seed``, one
    row each: raw standard normals of shape ``(k, size)``, with ``k = 2`` rows
    (real and imaginary parts) for a complex channel and 1 for a real one,
    or, with ``scale2``, their :func:`_scale_normals` of that variance.

    Row ``i`` is bitwise ``stream_rng(cfg.seed, streams[i])
    .standard_normal((k, size))``: before each row ``rng`` is re-keyed to the
    state of a fresh Philox with that stream's key (counter 0, empty buffer,
    no cached 32-bit half), and only the key changes from row to row.
    Setting a state costs about a twentieth of building a Philox, which
    first seeds a SeedSequence from the OS entropy pool. The state is plain
    ints: the setter converts one element at a time, and a NumPy ``uint64``
    element costs about twice what an int does.
    """
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counter_and_key = state["state"]
    seed_word = _stream_key(cfg.seed, 0)[0]
    bitgen, draw = rng.bit_generator, rng.standard_normal
    complex_field = cfg.field == COMPLEX
    out = np.empty((len(streams), 2 if complex_field else 1, size))
    for row, stream in zip(out, streams):
        counter_and_key["key"] = (seed_word, stream)
        bitgen.state = state
        draw(out=row)
    return out if scale2 is None else _scale_normals(out, scale2, complex_field)


def experiment_symbols(cfg: ExperimentConfig, trial=0):
    """Symbol vector of length ``M + N - 1``.

    Deterministic model: one fixed draw per experiment (stream 0), shared by
    every trial. Gaussian model: a fresh draw per trial.
    """
    streams = _FIXED_SYMBOLS if cfg.model == DETERMINISTIC \
        else _trial_streams(range(trial, trial + 1), _PURPOSE_SYMBOLS)
    return _draws(stream_rng(cfg.seed, streams.start), cfg, streams,
                  cfg.M + cfg.channel.N - 1, cfg.sigma_a2)[0]


def draw_noise(cfg: ExperimentConfig, trial):
    """Observation noise of one trial: white, circular when complex."""
    streams = _trial_streams(range(trial, trial + 1), _PURPOSE_NOISE)
    return _draws(stream_rng(cfg.seed, streams.start), cfg, streams,
                  cfg.M * cfg.channel.m, cfg.sigma_v2)[0]


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


def _det_scorer(cfg):
    """Deterministic-model scores ``D^H v_t / sigma_v^2`` over the joint
    parameter (realified when complex): a function from a range of trials to
    their rows. The burst and ``D`` are formed once, here."""
    ch = cfg.channel
    nA = cfg.M + ch.N - 1
    rng = stream_rng(cfg.seed, _FIXED_SYMBOLS.start)
    A = _draws(rng, cfg, _FIXED_SYMBOLS, nA, cfg.sigma_a2)[0]     # experiment_symbols(cfg)
    Dc = deterministic_joint_operator(ch, A, cfg.M).conj()

    def score(trials):
        V = _draws(rng, cfg, _trial_streams(trials, _PURPOSE_NOISE), Dc.shape[0], cfg.sigma_v2)
        U = V @ Dc                        # row t = (D^H v_t)^T
        if cfg.field == REAL:
            return U / cfg.sigma_v2
        S = np.hstack([U[:, :nA].real, U[:, :nA].imag, U[:, nA:].real, U[:, nA:].imag])
        S *= 2.0
        S /= cfg.sigma_v2
        return S

    return score


def _gaussian_scorer(cfg):
    """Gaussian-model scores over ``[Re h; Im h; sigma_v^2]`` (``[h;
    sigma_v^2]`` when real): a function from a range of trials to their rows.

    With ``z_t = C^-1 y_t``, ``u_t = T^H z_t`` and stacked coefficient
    ``i = k m + l``, the conjugate-derivative slab ``G_i`` (columns
    ``G_i[:, l::m] = T[:, k:k+M]``) gives ``z_t^H G_i z_t = q_t[k, l]`` and
    ``tr(C^-1 G_i) = g[k, l]`` with
    ``q_t[k, l] = sum_r conj(u_t[k + r]) z_t[r m + l]`` and
    ``g[k, l] = sum_r (C^-1 T)[r m + l, k + r]``. A complex row is
    ``[2 sigma_a^2 Re(q - g), 2 sigma_a^2 Im(q - g), ||z||^2 - tr C^-1]``, a
    real one ``[sigma_a^2 (q - g), (||z||^2 - tr C^-1) / 2]``. ``C^-1``,
    ``g`` and ``tr C^-1`` are formed once, here.
    """
    ch = cfg.channel
    M, m = cfg.M, ch.m
    T = ch.toeplitz(M)
    Tc = T.conj()
    Ci = _pd_inverse(_gaussian_covariance(T, cfg.gaussian_config))
    g = np.einsum("rlkr->kl", sliding_window_view((Ci @ T).reshape(M, m, -1), M, axis=2)).ravel()
    trace = np.trace(Ci).real
    complex_field = cfg.field == COMPLEX
    rng = stream_rng(cfg.seed, _FIXED_SYMBOLS.start)

    def score(trials):
        # row t: the burst T A_t + V_t of trial t, then z_t = C^-1 y_t
        Z = _draws(rng, cfg, _trial_streams(trials, _PURPOSE_NOISE), T.shape[0], cfg.sigma_v2)
        Z += _draws(rng, cfg, _trial_streams(trials, _PURPOSE_SYMBOLS), T.shape[1],
                    cfg.sigma_a2) @ T.T
        Z = Z @ Ci.T
        U = Z @ Tc
        np.conjugate(U, out=U)            # row t = conj(u_t)
        q = np.matmul(sliding_window_view(U, M, axis=1), Z.reshape(-1, M, m))
        Zf = Z.view(np.float64)           # ||z_t||^2 over the real and imaginary parts
        noise = (Zf[:, None, :] @ Zf[:, :, None]).ravel() - trace
        q = q.reshape(len(trials), -1)
        q -= g
        if complex_field:
            q *= 2.0 * cfg.sigma_a2
            return np.column_stack([q.real, q.imag, noise])
        q *= cfg.sigma_a2
        return np.column_stack([q, 0.5 * noise])

    return score


def _scorer(cfg):
    """The score function of ``cfg``'s model, from a range of trials to their rows."""
    return (_det_scorer if cfg.model == DETERMINISTIC else _gaussian_scorer)(cfg)


def _score_matrix(cfg):
    """Every trial's score row, block by block, in one array."""
    score = _scorer(cfg)
    return np.concatenate([score(trials) for trials in _trial_blocks(cfg.trials)])


def score_covariance_fim(cfg: ExperimentConfig) -> McFimEstimate:
    """Estimate the FIM as the sample covariance of per-trial scores.

    Scores are gradients of the exact log-likelihood at the true parameter,
    evaluated on simulated bursts; their outer-product average converges to
    the analytic FIM (in the stacked real representation for complex
    models). Standard errors come from the sample variance of the per-trial
    outer products, taken from the moments ``S^T S`` and ``(S o S)^T (S o S)``
    of the trials x p score matrix ``S``, so no per-trial outer product is
    formed. The trials run in blocks of ``_TRIAL_BLOCK``: each block of ``S``
    is drawn, scored and added into those moments and the score sums, so
    memory does not grow with ``cfg.trials``. The score mean's standard
    error comes from ``diag(S^T S) - T mean^2``, which cancels nothing: the
    scores have mean zero at the true parameter. The scores divide by
    ``sigma_v2``, so a noiseless configuration is refused before any trial
    is drawn.
    """
    _check_variance("sigma_v2", cfg.sigma_v2)
    score = _scorer(cfg)
    total = gram = gram2 = 0.0           # scalars until the first block gives them shape
    for trials in _trial_blocks(cfg.trials):
        S = score(trials)
        total = total + S.sum(axis=0)
        gram = gram + S.T @ S
        S *= S                            # in place: S o S
        gram2 = gram2 + S.T @ S
        del S                             # a block's scores go before the next is drawn
    T = cfg.trials
    J_hat, mean = gram / T, total / T
    if T > 1:
        var = (gram2 / T - J_hat * J_hat) * (T / (T - 1))
        se = np.sqrt(np.maximum(var, 0.0) / T)
        mean_var = (np.diag(gram) - T * mean * mean) / (T - 1)
        mean_se = np.sqrt(np.maximum(mean_var, 0.0)) / np.sqrt(T)
    else:
        se = np.full_like(J_hat, np.inf)
        mean_se = np.full_like(mean, np.inf)
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
    ``t`` ran ``sweeps[t]`` sweeps, accepted and rejected (mixed and
    extrapolated starts alike), and ended on the channel ``h[t]`` and
    symbols ``A[t]`` of its last accepted sweep; ``history[t, k]`` is the
    last accepted residual after sweep ``k`` (NaN beyond ``sweeps[t]``)."""

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


def alternating_ls_batch(Ys, m, N, inits, sweeps=30):
    """Alternating least squares in (A | h) and (h | A) for
    ``y_t = T(h_t) A_t + v_t``, on every burst ``Ys[t]`` (rows of a ``T x M m``
    array) from ``inits[t]``; returns an :class:`AlternatingLsBatch`.

    Each sweep solves the two linear least-squares subproblems in turn and
    renormalizes the channel iterate; the symbol update absorbs the scale. A
    sweep maps its start ``x`` to its normalized channel ``G(x)``; plain ALS,
    ``x_{k+1} = G(x_k)``, converges linearly, so the starts are Anderson-mixed
    (Anderson 1965; Walker and Ni 2011). After an accepted sweep ``k`` the
    next starts from ``G(x_k) - dG gamma``, renormalized, with ``dG`` and
    ``dF`` the differences of the trial's last ``_ANDERSON_DEPTH + 1`` pairs
    ``(G(x_j), f_j = G(x_j) - x_j)`` since its last rejected sweep and
    ``gamma = argmin ||f_k - dF gamma||`` (normal equations, ``1e-12``
    relative ridge). With fewer than two such pairs, after the trial's second
    rejected sweep (a guard against stalls on hard bursts), or when
    ``M m < M + N + m N - 2`` (fewer observations than unknowns: the exact
    fits form a continuum, along which mixing drifts), it starts from
    ``h_k + (h_k - h_{k-1})``, renormalized (Bro 1998; Rajih, Comon and
    Harshman 2008), ``h_k`` the output of the last accepted sweep and ``h_0``
    the start. After a rejected sweep it starts from ``h_k``, a plain sweep,
    and drops the trial's pairs.
    A sweep is accepted unless its residual exceeds the last accepted one by
    more than the stop rule's tolerance ``_ALS_RTOL * max(prev, 1)``; a
    rejected sweep is discarded but counts in ``sweeps`` and in the budget,
    and the history repeats the last accepted residual. A trial stops on an
    accepted sweep whose relative residual improvement is at most
    ``_ALS_RTOL``, which includes such a tie; if the budget runs out first,
    its last accepted sweep, the smallest residual it reached, is returned
    with ``converged=False``. The fixed points are those of plain ALS, and
    there is no step-size constant. Convergence is local: the iteration
    settles into the cost basin selected by ``inits[t]``, and a start far from
    (or orthogonal to) the true channel may reach another stationary point; on
    hard bursts the accelerated run, too, can settle at another one than plain
    ALS does. Experiments here start near the truth on purpose: they measure
    local estimation error against the bound, not the global behavior of blind
    algorithms.

    All trials run in lockstep; one burst is a batch of one. The trials still
    running share each call of a sweep, and a trial that stops leaves the
    live set (the arrays are compacted only when it shrinks). Real bursts in
    a complex stack run in complex arithmetic. Neither step forms ``T(h)`` or
    ``A_op``: each trial's data operator ``Q`` with ``T(h)^H y = Q conj(h)``
    and the index of the symbol Hankel ``A'`` are formed once per call, and
    each step solves the Grams of all live trials, end to end in one band,
    with one banded Cholesky (:func:`_symbol_step`, :func:`_channel_step`).
    A burst or start with a non-finite entry, a zero start, or ``m`` or
    ``N`` below 1 is refused before any sweep.
    """
    Ys = np.asarray(Ys)
    if Ys.ndim != 2:
        raise ValueError(f"Ys must be a 2-D array of bursts, one per row; got shape {Ys.shape}")
    T, size = Ys.shape
    if m < 1 or N < 1:
        raise ValueError(f"m and N must be >= 1, got m={m}, N={N}")
    if size % m:
        raise ValueError("observation length is not a multiple of m")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    M = size // m
    dtype = complex if np.iscomplexobj(Ys) else float
    start = np.asarray(inits).astype(dtype)
    if start.shape != (T, m * N):
        raise ValueError(f"inits must have shape (T, m*N) = ({T}, {m * N})")
    for name, rows in (("Ys", Ys), ("inits", start)):
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ValueError(f"{name} row {np.argmax(bad)} has a non-finite entry")
    norms = np.linalg.norm(start, axis=1, keepdims=True)
    if not norms.all():
        raise ValueError(f"inits row {np.argmin(norms)} is zero")
    start = start / norms
    Yr = Ys.reshape(T, M, m)              # row r of Yr[t] = block r of Ys[t]
    isolated = M * m >= M + N + m * N - 2         # the exact fits are no continuum
    Q = _data_operator(Yr, N)
    hankel = np.arange(M)[:, None] + np.arange(N)     # A'[r, c] = A[r + c]
    history = np.full((T, sweeps), np.nan)
    h_out, A_out = np.empty_like(start), np.empty((T, M + N - 1), dtype=dtype)
    stopped, converged = np.full(T, sweeps), np.zeros(T, dtype=bool)
    live = np.arange(T)
    # the last accepted sweep of each live trial (h_0 is the start)
    h_acc, A_acc, best = start, np.zeros_like(A_out), np.full(T, np.inf)
    # each live trial's last pairs (G(x_j), f_j), oldest first: `pairs` of
    # them since its last rejected sweep, and its count of rejected sweeps
    outs, resids = (np.zeros((T, _ANDERSON_DEPTH + 1, m * N), dtype=dtype) for _ in range(2))
    pairs, rejections = np.zeros(T, dtype=int), np.zeros(T, dtype=int)
    for sweep in range(sweeps):
        if not live.size:
            break
        taps = start.reshape(-1, N, m).swapaxes(1, 2)
        A = _symbol_step(taps, Yr, (Q @ start.conj()[..., None])[..., 0])
        Ap = A[:, hankel]
        X = _channel_step(Ap, Yr)
        resid = np.linalg.norm(Yr - Ap @ X, axis=(1, 2))
        h = X.reshape(live.size, -1)
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        if sweep == 0:
            accepted, done = np.ones(live.size, dtype=bool), np.zeros(live.size, dtype=bool)
        else:
            # a change within the stop rule's tolerance is a tie: accepted,
            # and the trial has converged
            gain, tol = best - resid, _ALS_RTOL * np.maximum(best, 1.0)
            accepted = gain >= -tol
            done = accepted & (gain <= tol)
        outs[:, :-1], resids[:, :-1] = outs[:, 1:], resids[:, 1:]
        outs[:, -1], resids[:, -1] = h, h - start
        pairs = np.where(accepted, np.minimum(pairs + 1, _ANDERSON_DEPTH + 1), 0)
        rejections += ~accepted
        # accepted: extrapolate h_k + (h_k - h_{k-1}); rejected: restart at h_k
        start = np.where(accepted[:, None], 2.0 * h - h_acc, h_acc)
        mix = (pairs >= 2) & (rejections < 2) & isolated
        if mix.any():
            start[mix] = _anderson_point(outs[mix], resids[mix], pairs[mix])
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        h_acc = np.where(accepted[:, None], h, h_acc)
        A_acc = np.where(accepted[:, None], A, A_acc)
        best = np.where(accepted, resid, best)
        history[live, sweep] = best
        stop = done | (sweep + 1 == sweeps)
        if stop.any():
            ended = live[stop]
            h_out[ended], A_out[ended] = h_acc[stop], A_acc[stop]
            stopped[ended], converged[ended] = sweep + 1, done[stop]
            keep = ~stop
            live, start, h_acc, A_acc, best, outs, resids, pairs, rejections, Yr, Q = (
                a[keep] for a in (live, start, h_acc, A_acc, best, outs, resids, pairs,
                                  rejections, Yr, Q))
    return AlternatingLsBatch(h_out, A_out, history, converged, stopped)


def _anderson_point(outs, resids, pairs):
    """Each trial's mixed start ``G(x_k) - dG gamma`` from its pairs ``outs[t, j] = G(x_j)``,
    ``resids[t, j] = f_j``, oldest first, the last ``pairs[t]`` valid (``gamma = 0`` elsewhere)."""
    dG, dF = np.diff(outs, axis=1), np.diff(resids, axis=1)
    unfilled = np.arange(dF.shape[1]) < (dF.shape[1] + 1 - pairs)[:, None]
    dF[unfilled] = 0.0
    B = dF.conj() @ dF.swapaxes(1, 2)
    rhs = dF.conj() @ resids[:, -1, :, None]
    diag = np.einsum("tii->ti", B)
    ridge = 1e-12 * diag.real.max(axis=1, keepdims=True)
    diag += np.where(unfilled | (ridge == 0), 1.0, ridge)     # no differences: gamma = 0
    gamma = np.linalg.solve(B, rhs)
    return outs[:, -1] - (dG.swapaxes(1, 2) @ gamma)[..., 0]


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

    ``sweeps_mean`` is the estimator's mean sweep count over the trials,
    rejected sweeps included (about 13 to 16 on a well-posed M = 100 burst).
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

    The trials run in blocks of ``_BURST_BLOCK // len(snr_db_list)`` (at
    least one): a block draws the noise and init normals of its trials once,
    and its bursts at every SNR point, point by point, run through
    :func:`alternating_ls_batch` in one lockstep batch. Only their squared
    errors, convergence flags and sweep counts outlive the block, so memory
    does not grow with the trial count.
    """
    if cfg.model != DETERMINISTIC:
        raise ValueError("MSE experiments are defined for the deterministic model")
    ch = cfg.channel
    h0 = ch.h
    rng = stream_rng(cfg.seed, _FIXED_SYMBOLS.start)
    A = _draws(rng, cfg, _FIXED_SYMBOLS, cfg.M + ch.N - 1, cfg.sigma_a2)[0]  # experiment_symbols
    TA = ch.toeplitz(cfg.M) @ A
    # the reduced FIM scales as 1/sigma_v^2: build it once at unit noise
    reduced = deterministic_reduced_fim(ch, A, 1.0, cfg.M)
    sv2s = [snr_to_sigma_v2(ch, cfg.sigma_a2, snr_db) for snr_db in snr_db_list]
    n, points = cfg.trials, len(sv2s)
    if not points:
        return []
    # entry [p, t] is trial t at SNR point p
    sq = {r: np.empty((points, n)) for r in _ADJUSTMENTS}
    converged, sweeps = np.empty((points, n), dtype=bool), np.empty((points, n), dtype=int)
    for trials in _trial_blocks(n, max(1, _BURST_BLOCK // points)):
        noise = _draws(rng, cfg, _trial_streams(trials, _PURPOSE_NOISE), TA.size)
        perts = _draws(rng, cfg, _trial_streams(trials, _PURPOSE_INIT), h0.size, 1.0)
        inits = h0 + cfg.init_scale * np.linalg.norm(h0) * perts \
            / np.linalg.norm(perts, axis=1, keepdims=True)
        # burst p len(trials) + i: trial trials[i] at point p (simulate_burst)
        Ys = np.concatenate([TA + _scale_normals(noise, sv2, cfg.field == COMPLEX)
                             for sv2 in sv2s])
        ests = alternating_ls_batch(Ys, ch.m, ch.N, np.tile(inits, (points, 1)),
                                    sweeps=cfg.ls_sweeps)
        at = np.s_[:, trials.start:trials.stop]
        for r in _ADJUSTMENTS:
            sq[r][at] = np.reshape([np.linalg.norm(adjust_estimate(h, h0, r) - h0) ** 2
                                    for h in ests.h], (points, -1))
        converged[at] = ests.converged.reshape(points, -1)
        sweeps[at] = ests.sweeps.reshape(points, -1)
    rows = []
    for p, (snr_db, sv2) in enumerate(zip(snr_db_list, sv2s)):
        crb_trace = constrained_crb(reduced.J / sv2).trace
        mse = {r: float(sq[r][p].mean()) for r in _ADJUSTMENTS}
        se = {
            r: float(sq[r][p].std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
            for r in _ADJUSTMENTS
        }
        nonconv = int(np.count_nonzero(~converged[p]))
        sweeps_mean = int(sweeps[p].sum()) / n
        rows.append(MseRow(float(snr_db), sv2, crb_trace, n, mse, se, nonconv,
                           sweeps_mean, reduced.warnings))
    return rows
