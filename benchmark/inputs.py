"""Seeded input generator and job lists for the three benchmark workloads.

The benchmark seed picks one of ``VARIANTS`` input variants
(``variant = seed % VARIANTS``); every file a job reads is generated from
that variant number, so the same seed always gives the same inputs, and
``references/`` holds the reference outputs of every variant.

Every channel has ``m = 2`` subchannels and ``N = 4`` taps. Polynomials are
in ``z^-1`` (coefficient ``i`` multiplies ``z^-i``), so ``np.poly(roots)``
gives the taps of a subchannel with the given z-plane zeros.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

VARIANTS = 16

GAUSS_M = (20, 40)
DET_M = (20, 60, 200)

# criterion 8 of the acceptance suite: random-2x4, M=100, ls_sweeps=400,
# seed 808. The seed stays fixed: the symbol burst it draws moves the ALS
# sweep count of a whole experiment by about +-20% between seeds (IQR 23% of
# the median over 16 seeds at 10 trials per SNR point), far more than the
# changes this workload is meant to resolve.
MSE_EXPERIMENT = {"model": "deterministic", "M": 100, "seed": 808,
                  "ls_sweeps": 400, "snr_db": [10.0, 20.0, 30.0], "trials": 20}
FIM_CHECK_TRIALS = 10_000

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "src", "blindcrb", "data")
_BUNDLED = {"random-2x4": "chan_random.json", "decaying-2x4": "chan_decaying.json"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the work it stands for."""

    id: str
    argv: tuple
    score_trials: int = 0       # fim-check score trials
    mse_trials: int = 0         # estimator trials x SNR points

    @property
    def command(self):
        return self.argv[0]


def _rng(variant, tag):
    return np.random.default_rng([variant, tag])


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_common_factor(rng, roots, n_irr, field):
    """Random irreducible part (``2 x n_irr``) times the monic factor with
    z-plane zeros ``roots``; the result has ``N = n_irr + len(roots)`` taps."""
    hc = np.poly(np.asarray(roots, dtype=complex))
    HI = _cgauss(rng, (2, n_irr)) if field == "complex" else rng.standard_normal((2, n_irr))
    H = np.array([np.convolve(HI[l], hc) for l in range(2)])
    return H.real if field == "real" else H


def _from_zeros(rng, zeros_per_sub, field):
    """Subchannels with the given z-plane zeros and random gains."""
    rows = []
    for zs in zeros_per_sub:
        c = np.poly(np.asarray(zs, dtype=complex))
        g = complex(*rng.standard_normal(2)) if field == "complex" else rng.standard_normal()
        rows.append(g * c)
    H = np.array(rows)
    return H.real if field == "real" else H


def _polar(rho, phi):
    return rho * np.exp(1j * phi)


def _channel_json(name, H, field):
    if field == "complex":
        coeffs = [[[float(c.real), float(c.imag)] for c in row] for row in H]
    else:
        coeffs = [[float(np.real(c)) for c in row] for row in H]
    return {"name": name, "field": field, "m": int(H.shape[0]), "N": int(H.shape[1]),
            "coeffs": coeffs}


def det_ensemble(variant):
    """Channels of ``det-structure``: name -> (taps, field, reducible).

    * ``irr-real`` / ``irr-complex``: i.i.d. Gaussian taps, irreducible with
      probability one; the plain scale (and phase) singularity.
    * ``common-simple``: complex irreducible ``2 x 3`` part times
      ``(1 - r z^-1)`` with ``|r|`` in [0.4, 0.9]; one common zero, so
      ``T(h)`` loses a column and the reduced FIM has nullity ``N_c = 2``.
    * ``common-double``: real ``2 x 2`` part times ``(1 - r z^-1)^2`` with a
      real ``r``; a double common root, which root clustering must still
      group (its computed roots split by about ``sqrt(eps)``).
    * ``near-common``: complex subchannels built from their zeros, sharing
      one zero up to an offset of 1e-4 in a random direction. Not reducible,
      but one FIM eigenvalue is small; the verdict must not call it common.
    * ``near-unit``: real subchannels, each with a conjugate zero pair at
      radius ``1 -+ 5e-4`` and one real zero; zeros within 1e-3 of the unit
      circle make ``T(h)`` poorly conditioned at long bursts.
    * ``conj-recip``: complex ``2 x 2`` part times a common factor with zeros
      ``z0`` and ``1/conj(z0)``; reducible with ``N_c = 3`` (the Gaussian
      model's extra singularity comes from this pair).
    * ``random-2x4`` / ``decaying-2x4``: the bundled real fixtures.
    """
    rng = _rng(variant, 1)
    out = {}
    out["irr-real"] = (rng.standard_normal((2, 4)), "real", False)
    out["irr-complex"] = (_cgauss(rng, (2, 4)), "complex", False)
    r = _polar(rng.uniform(0.4, 0.9), rng.uniform(0, 2 * np.pi))
    out["common-simple"] = (_with_common_factor(rng, [r], 3, "complex"), "complex", True)
    r = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.8)
    out["common-double"] = (_with_common_factor(rng, [r, r], 2, "real"), "real", True)
    z0 = _polar(rng.uniform(0.3, 0.9), rng.uniform(0, 2 * np.pi))
    offset = 1e-4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    others = [_polar(rng.uniform(0.3, 1.5), rng.uniform(0, 2 * np.pi)) for _ in range(4)]
    out["near-common"] = (
        _from_zeros(rng, [[z0, others[0], others[1]], [z0 + offset, others[2], others[3]]],
                    "complex"), "complex", False)
    subs = []
    for _ in range(2):
        p = _polar(1.0 + rng.choice([-5e-4, 5e-4]), rng.uniform(0.2, np.pi - 0.2))
        subs.append([p, np.conj(p), rng.uniform(-0.9, 0.9)])
    out["near-unit"] = (_from_zeros(rng, subs, "real"), "real", False)
    z0 = _polar(rng.uniform(0.5, 0.8), rng.uniform(0, 2 * np.pi))
    out["conj-recip"] = (_with_common_factor(rng, [z0, 1 / np.conj(z0)], 2, "complex"),
                         "complex", True)
    return out


def gauss_ensemble(variant):
    """Channels of ``gauss-bounds``: a random complex 2x4 channel, the bundled
    real ``random-2x4``, and a complex channel whose common factor holds a
    conjugate-reciprocal pair (Gaussian nullity 3, so the phase-constrained
    bound is unbounded)."""
    rng = _rng(variant, 2)
    z0 = _polar(rng.uniform(0.5, 0.8), rng.uniform(0, 2 * np.pi))
    return {
        "g-complex": (_cgauss(rng, (2, 4)), "complex", False),
        "random-2x4": None,
        "g-conj-recip": (_with_common_factor(rng, [z0, 1 / np.conj(z0)], 2, "complex"),
                         "complex", True),
    }


def fim_check_channels(variant):
    """Criterion 6's settings: random 2x2 channels, Gaussian complex and real
    at M=4 (sigma_v2=0.8), deterministic real at M=6 (sigma_v2=0.5)."""
    rng = _rng(variant, 3)
    return {
        "fc-gauss-complex": (_cgauss(rng, (2, 2)), "complex", "gaussian", 4, 0.8),
        "fc-gauss-real": (rng.standard_normal((2, 2)), "real", "gaussian", 4, 0.8),
        "fc-det-real": (rng.standard_normal((2, 2)), "real", "deterministic", 6, 0.5),
    }


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _write_channel(outdir, name, spec):
    path = os.path.join(outdir, f"{name}.json")
    if spec is None:
        shutil.copyfile(os.path.join(_DATA, _BUNDLED[name]), path)
    else:
        _write_json(path, _channel_json(name, spec[0], spec[1]))
    return path


def _linear_files(outdir, variant):
    """Random two-column constraint Jacobians, one per parameter dimension
    (8 for real channels, 16 for the realified complex ones)."""
    rng = _rng(variant, 4)
    paths = {}
    for field_, dim in (("real", 8), ("complex", 16)):
        path = os.path.join(outdir, f"linear-{field_}.json")
        _write_json(path, rng.standard_normal((dim, 2)).tolist())
        paths[field_] = path
    return paths


def _field_of(spec):
    return "real" if spec is None else spec[1]


def gauss_jobs(outdir, variant):
    seed = str(100 + variant)
    jobs = []
    chans = gauss_ensemble(variant)
    paths = {name: _write_channel(outdir, name, spec) for name, spec in chans.items()}
    for M in GAUSS_M:
        for name, spec in chans.items():
            common = [paths[name], "--model", "gaussian", "--M", str(M), "--seed", seed]
            jobs.append(Job(f"analyze:{name}:M{M}", ("analyze", *common)))
            cons = ["--constraint", "minimal"]
            if _field_of(spec) == "complex":
                cons += ["--constraint", "phase"]
            jobs.append(Job(f"crb:{name}:M{M}", ("crb", *common, *cons)))
    return jobs


def det_jobs(outdir, variant):
    seed = str(200 + variant)
    chans = det_ensemble(variant)
    chans.update({"random-2x4": None, "decaying-2x4": None})
    paths = {name: _write_channel(outdir, name, spec) for name, spec in chans.items()}
    linear = _linear_files(outdir, variant)
    known = f"known:{variant % 8}"
    jobs = []
    for M in DET_M:
        for name, spec in chans.items():
            fld = _field_of(spec)
            common = [paths[name], "--M", str(M), "--seed", seed]
            jobs.append(Job(f"analyze:{name}:M{M}", ("analyze", *common)))
            cons = ["minimal", "norm", known, f"linear:{linear[fld]}"]
            if fld == "complex":
                cons.append("phase")
            if spec is not None and spec[2]:
                cons += ["reducible-ti", "reducible-proj"]
            argv = ["crb", *common]
            for c in cons:
                argv += ["--constraint", c]
            jobs.append(Job(f"crb:{name}:M{M}", tuple(argv)))
            jobs.append(Job(f"sweep-known:{name}:M{M}", ("sweep-known", *common)))
    return jobs


def monte_carlo_jobs(outdir, variant):
    jobs = []
    for name, (H, fld, model, M, sv2) in fim_check_channels(variant).items():
        path = _write_channel(outdir, name, (H, fld))
        argv = ("fim-check", path, "--model", model, "--M", str(M), "--sigma-v2", str(sv2),
                "--trials", str(FIM_CHECK_TRIALS), "--seed", str(600 + variant))
        jobs.append(Job(f"fim-check:{name}", argv, score_trials=FIM_CHECK_TRIALS))
    _write_channel(outdir, "random-2x4", None)
    exp = os.path.join(outdir, "experiment.json")
    _write_json(exp, {"channel": "random-2x4.json", **MSE_EXPERIMENT})
    work = MSE_EXPERIMENT["trials"] * len(MSE_EXPERIMENT["snr_db"])
    jobs.append(Job("mse:random-2x4:M100", ("mse", exp), mse_trials=work))
    return jobs


_BUILDERS = {"gauss-bounds": gauss_jobs, "det-structure": det_jobs,
             "monte-carlo": monte_carlo_jobs}


def make_jobs(workload, outdir, seed):
    """Write the inputs of ``workload`` for ``seed`` into ``outdir``; return
    ``(variant, jobs)``."""
    variant = seed % VARIANTS
    return variant, _BUILDERS[workload](outdir, variant)


def warmup_jobs(workload, outdir):
    """One job of each kind the workload runs, at its smallest size, so that
    lazy imports and first-call costs land in set-up, not in the first timed
    job. Their outputs are not checked."""
    path = _write_channel(outdir, "random-2x4", None)
    if workload == "gauss-bounds":
        return [("analyze", path, "--model", "gaussian", "--M", "6"),
                ("crb", path, "--model", "gaussian", "--M", "6", "--field", "complex",
                 "--constraint", "minimal", "--constraint", "phase")]
    if workload == "det-structure":
        return [("analyze", path, "--M", "6", "--field", "complex"),
                ("crb", path, "--M", "6", "--constraint", "minimal", "--constraint", "norm"),
                ("sweep-known", path, "--M", "6")]
    exp = os.path.join(outdir, "warmup-experiment.json")
    _write_json(exp, {**MSE_EXPERIMENT, "channel": "random-2x4.json", "M": 10,
                      "trials": 1, "snr_db": [20.0]})
    return [("fim-check", path, "--model", "gaussian", "--M", "4", "--trials", "50"),
            ("fim-check", path, "--M", "4", "--trials", "50"),
            ("mse", exp)]
