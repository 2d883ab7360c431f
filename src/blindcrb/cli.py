"""Batch command-line interface.

Subcommands::

    analyze     zeros, reducibility, identifiability verdicts, FIM rank
    crb         constrained CRB rows for a list of constraint specs
    sweep-known known-coefficient CRB trace sweep plus the minimal baseline
    fim-check   analytic FIM vs Monte Carlo score covariance (gated)
    mse         estimator MSE vs bound over an SNR grid (experiment JSON)

Every CSV output starts with a ``#``-prefixed manifest (tool version,
command, argument digest, input digests, seed, schema tag, timestamp).
All commands are deterministic given their flags and seed; the timestamp
line is informational and excluded from that contract. The default seed
comes from ``BLINDCRB_SEED`` when set.

:func:`main` may be called many times in one process: it builds its
argument parser on the first call and reuses it, and it reads
``BLINDCRB_SEED`` on every call.

Exit codes: 0 for successful runs (including data-level negatives such as
unbounded CRB rows), 1 for oracle-gate failures in ``fim-check``, 2 for bad
inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channel import (
    COMPLEX,
    DEFAULT_ZERO_TOL,
    REAL,
    Channel,
    load_channel,
    realify_channel,
    reducible_decompose,
)
from .crb import (
    CONSTRAINT_GRAMMAR,
    constrained_crb,
    parse_constraint,
)
from .fim import (
    DETERMINISTIC,
    GAUSSIAN,
    GaussianModelConfig,
    SingularityReport,
    analyze_singularities,
    channel_block,
    deterministic_fim,
    deterministic_joint_counts,
    deterministic_reduced_fim,
    gaussian_fim,
    phase_direction,
)
from .identifiability import (
    INDETERMINATE,
    NOT_IDENTIFIABLE,
    deterministic_verdict,
    gaussian_verdict,
    verdict_vs_fim,
)
from .linalg import DEFAULT_RANK_TOL, eigenvalue_rank, realify_vector
from .simulate import (
    ExperimentConfig,
    experiment_symbols,
    mse_vs_crb_experiment,
    score_covariance_fim,
)

_SCHEMAS = {
    "crb": "crb-v1",
    "sweep-known": "sweep-known-v1",
    "fim-check": "fim-check-v1",
    "mse": "mse-v2",
}


class _EnvSeed(str):
    """The ``--seed`` default. argparse passes a string default through the
    option's ``type`` at every parse, so :func:`_seed` reads
    ``BLINDCRB_SEED`` on every call of a parser, not when it is built."""


_ENV_SEED = _EnvSeed("$BLINDCRB_SEED")


def _seed(text):
    source = ""
    if isinstance(text, _EnvSeed):
        text, source = os.environ.get("BLINDCRB_SEED", "0"), " (from BLINDCRB_SEED)"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}{source}") from None


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return _sha256_bytes(fh.read())


def _manifest_lines(command, args_dict, inputs, schema, extra=(), warnings=()):
    # digest the computation-relevant arguments only: the output path and
    # the dispatch callable do not change what is computed
    digestable = {k: v for k, v in args_dict.items()
                  if k not in ("output", "func") and not callable(v)}
    payload = json.dumps(digestable, sort_keys=True, default=str).encode()
    lines = [
        f"# tool=blindcrb {__version__}",
        f"# command={command}",
        f"# schema={schema}",
        f"# args_sha256={_sha256_bytes(payload)}",
    ]
    for path in inputs:
        lines.append(f"# input={path} sha256={_sha256_file(path)}")
    lines.extend(f"# {line}" for line in extra)
    lines.extend(f"# warning={w}" for w in dict.fromkeys(warnings))
    lines.append(f"# timestamp={datetime.now(timezone.utc).isoformat()}")
    return lines


def _write_text(out_path, text):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_csv(out_path, manifest, header, rows):
    buf = io.StringIO()
    for line in manifest:
        buf.write(line + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(out_path, buf.getvalue())


def _resolve_field(ch: Channel, requested):
    if requested in (None, "auto"):
        return ch
    if requested == ch.field:
        return ch
    if requested == COMPLEX:
        return Channel(ch.coeffs.astype(complex), field=COMPLEX, name=ch.name)
    return realify_channel(ch)


def _fmt(x, nd=6):
    return f"{x:.{nd}g}"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _model_fim(ch, args):
    """FIM of ``args.model`` in the channel's own field, and its burst: the
    symbol-reduced FIM for the stream-0 burst of ``args.seed``, or the
    Gaussian ``[h; sigma_v^2]`` FIM with no burst."""
    if args.model == DETERMINISTIC:
        A = experiment_symbols(ExperimentConfig(channel=ch, M=args.M, seed=args.seed))
        return deterministic_reduced_fim(ch, A, args.sigma_v2, args.M), A
    return gaussian_fim(ch, GaussianModelConfig(args.sigma_a2, args.sigma_v2, args.M)), None


def cmd_analyze(args):
    ch = _resolve_field(load_channel(args.channel), args.field)
    out = [f"channel {ch.name}: m={ch.m} N={ch.N} field={ch.field}"]
    dec = reducible_decompose(ch, tol=args.zero_tol)
    for l, z in enumerate(dec.zeros):
        zs = ", ".join(_fmt(complex(r)) for r in z) if z.size else "(none)"
        out.append(f"  subchannel {l} zeros: {zs}")
    cz = dec.roots
    out.append(f"  common zeros: "
               + (", ".join(_fmt(complex(r)) for r in cz) if cz.size else "(none)"))
    out.append(f"  reducible: {'yes' if dec.N_c > 1 else 'no'} "
               f"(N_c={dec.N_c}, N_I={dec.N_I}, residual={dec.residual:.2e})")

    fim, A = _model_fim(ch, args)
    if args.model == DETERMINISTIC:
        rep_full = deterministic_joint_counts(ch, A, args.M, tol=args.rank_tol)
        predicted = [("scale", realify_vector(ch.h))]
        verdict = deterministic_verdict(dec, args.M)
    else:
        fim = fim.realified()
        rank, nullity = eigenvalue_rank(fim.eigenvalues, args.rank_tol)
        rep_full = SingularityReport(rank, nullity, None, fim.eigenvalues, tol=args.rank_tol)
        predicted = []
        verdict = gaussian_verdict(dec, GaussianModelConfig(args.sigma_a2, args.sigma_v2, args.M),
                                   tol=args.rank_tol)
    if ch.field == COMPLEX:
        predicted.append(("phase", phase_direction(ch.h)))
    rep_red = analyze_singularities(channel_block(fim), predicted, tol=args.rank_tol)
    out.append(f"model {args.model}: full FIM dim={rep_full.rank + rep_full.nullity} "
               f"rank={rep_full.rank} nullity={rep_full.nullity}")
    out.append(f"  channel-reduced FIM rank={rep_red.rank} nullity={rep_red.nullity}")
    for name, ang, ok in rep_red.matches:
        out.append(f"  predicted null direction '{name}': angle={ang:.2e} "
                   f"{'MATCH' if ok else 'NO MATCH'}")

    rec = verdict_vs_fim(verdict, rep_full,
                         realified=args.model == DETERMINISTIC and ch.field == COMPLEX)
    up_to = verdict.identifiable_up_to
    status = {NOT_IDENTIFIABLE: "not identifiable", INDETERMINATE: "indeterminate"}.get(
        up_to, f"identifiable up to {up_to}")
    out.append(f"verdict: {status}; predicted nullity {rec.predicted}")
    for reason in verdict.reasons:
        out.append(f"  - {reason}")
    outcome = "INDETERMINATE" if rec.predicted < 0 else "CONSISTENT" if rec.passed else "MISMATCH"
    out.append(f"predicted vs computed: {outcome} ({rec.detail})")
    _write_text(args.output, "\n".join(out) + "\n")
    return 0


# ---------------------------------------------------------------------------
# crb
# ---------------------------------------------------------------------------


def _per_coefficient_diag(crb, n_coeffs, field):
    d = np.real(np.diag(crb))
    return d[:n_coeffs] + d[n_coeffs:] if field == COMPLEX else d


def cmd_crb(args):
    ch = _resolve_field(load_channel(args.channel), args.field)
    fim = _model_fim(ch, args)[0]
    Jred = channel_block(fim)
    n = ch.m * ch.N
    dec = None
    if any(spec.startswith("reducible") for spec in args.constraint):
        dec = reducible_decompose(ch, tol=args.zero_tol)

    def load_linear(path):
        with open(path, "r", encoding="utf-8") as fh:
            return np.asarray(json.load(fh), dtype=float)

    rows = []
    for spec in args.constraint:
        try:
            K = parse_constraint(spec, ch.h, ch.field, dec=dec, linear_loader=load_linear)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        res = constrained_crb(Jred, K, tol=args.rank_tol)
        diag = _per_coefficient_diag(res.crb, n, ch.field)
        rows.append([spec, _fmt(res.trace, 12), int(res.bounded)]
                    + [_fmt(v, 9) for v in diag])
    header = ["constraint", "trace", "bounded"] + [f"coef{i}" for i in range(n)]
    manifest = _manifest_lines("crb", vars(args), [args.channel], _SCHEMAS["crb"],
                               extra=[f"channel={ch.name} m={ch.m} N={ch.N} "
                                      f"field={ch.field}", f"seed={args.seed}"],
                               warnings=fim.warnings)
    _emit_csv(args.output, manifest, header, rows)
    return 0


# ---------------------------------------------------------------------------
# sweep-known
# ---------------------------------------------------------------------------


def cmd_sweep_known(args):
    ch = _resolve_field(load_channel(args.channel), args.field)
    fim = _model_fim(ch, args)[0]
    Jred = channel_block(fim)
    baseline = constrained_crb(Jred).trace
    n = ch.m * ch.N
    rows = []
    for i in range(n):
        K = parse_constraint(f"known:{i}", ch.h, ch.field)
        res = constrained_crb(Jred, K, tol=args.rank_tol)
        rows.append([i, _fmt(abs(ch.h[i]), 9), _fmt(res.trace, 12),
                     int(res.bounded), _fmt(baseline, 12)])
    header = ["coef_index", "coef_abs", "trace", "bounded", "minimal_trace"]
    manifest = _manifest_lines("sweep-known", vars(args), [args.channel],
                               _SCHEMAS["sweep-known"],
                               extra=[f"channel={ch.name}", f"seed={args.seed}"],
                               warnings=fim.warnings)
    _emit_csv(args.output, manifest, header, rows)
    return 0


# ---------------------------------------------------------------------------
# fim-check
# ---------------------------------------------------------------------------


def cmd_fim_check(args):
    ch = _resolve_field(load_channel(args.channel), args.field)
    cfg = ExperimentConfig(
        channel=ch, model=args.model, M=args.M, sigma_a2=args.sigma_a2,
        sigma_v2=args.sigma_v2, trials=args.trials, seed=args.seed,
    )
    est = score_covariance_fim(cfg)
    sv2 = args.sigma_v2 * args.corrupt_sigma
    if args.model == DETERMINISTIC:
        A = experiment_symbols(cfg)
        fim = deterministic_fim(ch, A, sv2, args.M)
    else:
        fim = gaussian_fim(ch, GaussianModelConfig(args.sigma_a2, sv2, args.M))
    J = fim.realified().J
    diff = est.J_hat - J
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(est.std_err > 0, diff / est.std_err,
                     np.where(diff == 0, 0.0, np.inf))
    zmax = float(np.abs(z).max())
    tr_rel = abs(float(np.trace(est.J_hat) - np.trace(J))) / abs(float(np.trace(J)))
    ok = zmax <= args.z_gate and tr_rel <= args.trace_gate
    manifest = _manifest_lines(
        "fim-check", vars(args), [args.channel], _SCHEMAS["fim-check"],
        extra=[f"result={'pass' if ok else 'fail'}"])
    header = ["metric", "value", "gate", "pass"]
    rows = [
        ["max_abs_z", _fmt(zmax, 9), _fmt(args.z_gate), int(zmax <= args.z_gate)],
        ["trace_rel_err", _fmt(tr_rel, 9), _fmt(args.trace_gate),
         int(tr_rel <= args.trace_gate)],
        ["trials", str(est.trials), "", 1],
        ["fim_dim", str(J.shape[0]), "", 1],
    ]
    _emit_csv(args.output, manifest, header, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------


def cmd_mse(args):
    with open(args.experiment, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"{args.experiment}:{exc.lineno}: invalid JSON ({exc.msg})",
                  file=sys.stderr)
            return 2
    if not isinstance(spec, dict) or not isinstance(spec.get("channel"), str):
        raise ValueError(f"{args.experiment}: expected a JSON object with a "
                         "\"channel\" file path")

    def number(key, value, kind):
        # a count is an integer (2.7 trials are not 2), and every number is
        # finite: NaN and Infinity are valid JSON here but bad input
        try:
            x = kind(value)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is None or isinstance(value, float) and x != value \
                or isinstance(x, float) and not math.isfinite(x):
            what = "an integer" if kind is int else "a finite number"
            raise ValueError(f"{args.experiment}: field {key!r} must be {what}, "
                             f"got {value!r}")
        return x

    chan_path = spec["channel"]
    if not os.path.isabs(chan_path):
        chan_path = os.path.join(os.path.dirname(os.path.abspath(args.experiment)),
                                 chan_path)
    ch = load_channel(chan_path)
    fields = {key: number(key, spec.get(key, default), kind) for key, default, kind in (
        ("M", 100, int), ("sigma_a2", 1.0, float), ("trials", 200, int),
        ("seed", args.seed, int), ("ls_sweeps", 30, int), ("init_scale", 1e-2, float))}
    try:
        cfg = ExperimentConfig(channel=ch, model=spec.get("model", DETERMINISTIC), **fields)
    except ValueError as exc:
        raise ValueError(f"{args.experiment}: {exc}") from None
    snrs = spec.get("snr_db", [10.0, 20.0, 30.0])
    if not isinstance(snrs, list) or not snrs:
        raise ValueError(f"{args.experiment}: field 'snr_db' must be a non-empty list of numbers, "
                         f"got {snrs!r}")
    snrs = [number("snr_db", v, float) for v in snrs]
    rows_data = mse_vs_crb_experiment(cfg, snrs)
    warn = [w for r in rows_data for w in r.warnings]
    if sum(r.nonconverged for r in rows_data) > 0.5 * cfg.trials * len(snrs):
        warn.insert(0, "estimator non-convergence rate above 50%")
    manifest = _manifest_lines("mse", {**vars(args), **spec},
                               [args.experiment, chan_path], _SCHEMAS["mse"],
                               extra=[f"channel={ch.name}", f"seed={cfg.seed}"],
                               warnings=warn)
    header = ["snr_db", "sigma_v2", "crb_trace", "trials", "nonconverged",
              "mse_NO", "se_NO", "mse_LS", "se_LS", "mse_LIN", "se_LIN", "sweeps_mean"]
    rows = []
    for r in rows_data:
        rows.append([
            _fmt(r.snr_db), _fmt(r.sigma_v2, 9), _fmt(r.crb_trace, 12),
            r.trials, r.nonconverged,
            _fmt(r.mse["NO"], 9), _fmt(r.std_err["NO"], 9),
            _fmt(r.mse["LS"], 9), _fmt(r.std_err["LS"], 9),
            _fmt(r.mse["LIN"], 9), _fmt(r.std_err["LIN"], 9),
            _fmt(r.sweeps_mean),
        ])
    _emit_csv(args.output, manifest, header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--model", choices=[DETERMINISTIC, GAUSSIAN],
                   default=DETERMINISTIC)
    p.add_argument("--field", choices=["auto", REAL, COMPLEX], default="auto",
                   help="override the channel's field tag (real doubles the "
                        "subchannels of a complex channel)")
    p.add_argument("--M", type=int, default=20, help="burst length")
    p.add_argument("--sigma-a2", dest="sigma_a2", type=float, default=1.0)
    p.add_argument("--sigma-v2", dest="sigma_v2", type=float, default=1.0)
    p.add_argument("--seed", type=_seed, default=_ENV_SEED)
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=DEFAULT_ZERO_TOL,
                   help="root clustering tolerance: the common zeros and the "
                        "common-factor length N_c")
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=DEFAULT_RANK_TOL,
                   help="relative eigenvalue threshold of FIM rank decisions: the "
                        "FIM rank and the Gaussian verdict in analyze, the bounded "
                        "flag in crb and sweep-known")
    p.add_argument("--output", "-o", default=None,
                   help="output path for the CSV or the analyze report (default stdout)")


def build_parser():
    """A fresh argument parser; :func:`main` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="blindcrb",
        description="Fisher information and constrained CRBs for blind FIR "
                    "multichannel estimation",
    )
    parser.add_argument("--version", action="version",
                        version=f"blindcrb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="zero structure, verdicts, FIM rank")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("crb", help="constrained CRB per constraint spec")
    _add_common(p)
    p.add_argument("--constraint", action="append", required=True,
                   metavar="SPEC", help=f"one of: {CONSTRAINT_GRAMMAR} "
                   "(repeatable; known:IDX uses 0-based stacked indices)")
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("sweep-known",
                       help="CRB trace over the known-coefficient index")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_known)

    p = sub.add_parser("fim-check",
                       help="analytic FIM vs Monte Carlo score covariance")
    _add_common(p)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--z-gate", dest="z_gate", type=float, default=4.0,
                   help="max per-entry z-score allowed")
    p.add_argument("--trace-gate", dest="trace_gate", type=float, default=0.05,
                   help="max relative trace error allowed")
    p.add_argument("--corrupt-sigma", dest="corrupt_sigma", type=float, default=1.0,
                   help="scale the analytic-side noise variance (negative-control "
                        "knob; 1.0 = honest comparison)")
    p.set_defaults(func=cmd_fim_check)

    p = sub.add_parser("mse", help="MSE vs CRB experiment from a JSON config")
    p.add_argument("experiment", help="experiment JSON file")
    p.add_argument("--seed", type=_seed, default=_ENV_SEED)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_mse)
    return parser


_PARSER = None


def main(argv=None):
    # one parser per process: parsing leaves it unchanged (no set_defaults,
    # `append` copies its list), and the seed default is read per parse
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
