"""Census of alternating LS on hard bursts: the estimator's start rule against
the extrapolation-only rule and plain ALS.

Run from the root of a checkout::

    PYTHONPATH=src python tests/als_census.py

The channel is the complex 2x4 ``random_channel(default_rng(1))``, with the
MSE experiment's bursts and starts (seed 1, init scale 1e-2): M = 20 at 5,
15 and 40 dB with 100 trials each, and M = 50 at 10, 20 and 30 dB with 30
each. Per SNR point and rule it prints the trials that use up the budget
(400 sweeps; 20,000 for plain ALS), how many trials end more than 1e-9
relative above or below plain ALS's last residual, the mean sweep count and
the milliseconds taken. The rules are ``anderson`` (the estimator,
Anderson-mixed starts), ``extrapolate`` (the estimator with
``_ANDERSON_DEPTH = 0``, which leaves only its ``2 h_k - h_{k-1}`` starts)
and ``plain`` (one-sweep runs of the estimator, each from the last one's
channel, with the estimator's stop rule). It takes about 20 s, most of it
plain ALS.
"""

import time
from dataclasses import replace

import numpy as np

from blindcrb import simulate
from blindcrb.channel import COMPLEX
from blindcrb.simulate import ExperimentConfig, simulate_burst, snr_to_sigma_v2, stream_rng

from conftest import random_channel

SETS = ((20, (5.0, 15.0, 40.0), 100), (50, (10.0, 20.0, 30.0), 30))
SEED, BUDGET, PLAIN_BUDGET, REL = 1, 400, 20_000, 1e-9


def bursts(ch, M, snr_db, trials):
    """The bursts and starts of an MSE experiment's trials at ``snr_db``."""
    cfg = ExperimentConfig(channel=ch, M=M, seed=SEED)
    cfg = replace(cfg, sigma_v2=snr_to_sigma_v2(ch, cfg.sigma_a2, snr_db))
    h0 = ch.h
    Ys, inits = [], []
    for t in range(trials):
        g = stream_rng(SEED, 1 + 4 * t + 2).standard_normal((2, h0.size))
        pert = (g[0] + 1j * g[1]) * np.sqrt(0.5)
        Ys.append(simulate_burst(cfg, t))
        inits.append(h0 + cfg.init_scale * np.linalg.norm(h0) * pert / np.linalg.norm(pert))
    return np.array(Ys), np.array(inits)


def plain_als(Ys, m, N, inits):
    """Plain ALS under the estimator's stop rule, at most ``PLAIN_BUDGET``
    sweeps: its last residuals, sweep counts and convergence flags."""
    h, best = inits.copy(), np.full(len(Ys), np.inf)
    sweeps, converged = np.zeros(len(Ys), dtype=int), np.zeros(len(Ys), dtype=bool)
    live = np.arange(len(Ys))
    for _ in range(PLAIN_BUDGET):
        run = simulate.alternating_ls_batch(Ys[live], m, N, h[live], sweeps=1)
        resid = run.history[:, 0]
        prev = best[live]
        done = np.isfinite(prev) & (prev - resid <= simulate._ALS_RTOL * np.maximum(prev, 1.0))
        h[live], best[live] = run.h, resid
        sweeps[live] += 1
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return best, sweeps, converged


def estimator(Ys, m, N, inits, depth):
    """The estimator at Anderson depth ``depth``: last accepted residuals,
    sweep counts and convergence flags."""
    saved = simulate._ANDERSON_DEPTH
    simulate._ANDERSON_DEPTH = depth
    try:
        run = simulate.alternating_ls_batch(Ys, m, N, inits, sweeps=BUDGET)
    finally:
        simulate._ANDERSON_DEPTH = saved
    last = run.history[np.arange(len(Ys)), run.sweeps - 1]
    return last, run.sweeps, run.converged


def main():
    ch = random_channel(np.random.default_rng(1), 2, 4, COMPLEX)
    rules = (("anderson", lambda *a: estimator(*a, simulate._ANDERSON_DEPTH)),
             ("extrapolate", lambda *a: estimator(*a, 0)), ("plain", plain_als))
    totals = {name: [0, 0, 0] for name, _ in rules}       # budget, above, below
    print(f"{'M':>3} {'dB':>5} {'rule':<12} {'budget':>6} {'above':>5} {'below':>5} "
          f"{'sweeps':>8} {'ms':>8}  trials that use up the budget")
    for M, snrs, trials in SETS:
        for snr_db in snrs:
            Ys, inits = bursts(ch, M, snr_db, trials)
            results = {}
            for name, run in rules:
                t0 = time.perf_counter()
                results[name] = run(Ys, ch.m, ch.N, inits)
                results[name] += ((time.perf_counter() - t0) * 1e3,)
            plain = results["plain"][0]
            for name, _ in rules:
                last, sweeps, converged, ms = results[name]
                gap = (last - plain) / plain
                out = np.flatnonzero(~converged)
                counts = (out.size, np.count_nonzero(gap > REL), np.count_nonzero(gap < -REL))
                totals[name] = [a + b for a, b in zip(totals[name], counts)]
                print(f"{M:>3} {snr_db:>5g} {name:<12} {counts[0]:>6} {counts[1]:>5} "
                      f"{counts[2]:>5} {sweeps.mean():>8.1f} {ms:>8.1f}  {out.tolist()}")
    n = sum(len(snrs) * trials for _, snrs, trials in SETS)
    for name, (out, above, below) in totals.items():
        print(f"total {name:<12} over {n} trials: {out} use up the budget, "
              f"{above} end above plain ALS, {below} below")


if __name__ == "__main__":
    main()
