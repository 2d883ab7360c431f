"""Benchmark of blindcrb's command-line jobs.

Usage (from the root of a checkout)::

    python3 benchmark/run.py --workload det-structure --seed 3 --seconds 20 --trace 0

Each run is one process and one workload: a closed loop with one caller that
runs the workload's job list through ``blindcrb.cli.main(argv)`` in-process,
in whole passes, until ``--seconds`` have elapsed, with one BLAS thread. The
inputs are generated from ``--seed`` (see ``inputs.py``); every job's output
is checked against ``references/`` (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every public blindcrb function wrapped in a span
(see ``tracing.py``), and reports the per-layer metrics. Both print a
readable report and, as the last line, one JSON object; details go to
``.bench_out/`` in the checkout. ``NOTES.md`` maps metrics to layers and
workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
from tracing import KEY_LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references")
BLAS_THREADS = "1"
SETUP_PROBES = 6          # extra set-ups in fresh processes, for the setup_s median
WORKLOADS = ("gauss-bounds", "det-structure", "monte-carlo")

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms",
                    "job_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources or references)."""


def import_cli():
    """Import ``blindcrb.cli`` from this checkout's ``src/``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "blindcrb", "cli.py")):
        raise BenchmarkError(f"no blindcrb sources under {SRC}")
    sys.path.insert(0, SRC)
    import blindcrb.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported blindcrb from {cli.__file__}, not {SRC}")
    return cli


def load_references(workload):
    path = os.path.join(REFERENCES, f"{workload}.json")
    if not os.path.isfile(path):
        raise BenchmarkError(f"missing reference file {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_job(cli, argv):
    """Run one CLI job in-process: ``(exit_code, stdout, stderr, seconds)``.

    ``cli.main`` is looked up on every call so that a tracer installed later
    sees the job.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job, not a failed benchmark
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(workload, seed, tmpdir):
    """Import blindcrb, write the inputs, run the warm-up jobs.
    Returns ``(cli, variant, jobs, seconds)``."""
    start = time.perf_counter()
    cli = import_cli()
    import inputs

    variant, jobs = inputs.make_jobs(workload, tmpdir, seed)
    for argv in inputs.warmup_jobs(workload, tmpdir):
        run_job(cli, argv)
    return cli, variant, jobs, time.perf_counter() - start


class Runner:
    """Runs whole passes over a job list and checks every output."""

    def __init__(self, cli, jobs, references):
        self.cli = cli
        self.jobs = jobs
        self.references = references
        self.samples = []        # (job, seconds) per completed job
        self.pass_seconds = []   # wall time of each pass
        self.passes = 0
        self.failures = []       # (pass, job id, problems)
        self.verdicts = {}       # analyze job id -> recorded verdict lines
        self.mismatches = 0
        self.recorded = {}

    def run_pass(self, tracer=None):
        outputs = []
        start = time.perf_counter()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{self.passes}:{job.id}"
            outputs.append((job, run_job(self.cli, job.argv)))
        self.pass_seconds.append(time.perf_counter() - start)
        for job, (code, stdout, stderr, elapsed) in outputs:
            self.samples.append((job, elapsed))
            checked, recorded = checks.extract(job.command, code, stdout)
            problems = checks.compare(job.id, checked, self.references.get(job.id))
            if problems:
                self.failures.append((self.passes, job.id, problems + [stderr[-2000:]]))
            if job.command == "analyze":
                self.verdicts[job.id] = recorded.get("verdict")
                self.mismatches += recorded.get("mismatch", 0)
            elif recorded:
                self.recorded[job.id] = recorded
        self.passes += 1

    def run_for(self, seconds, tracer=None, between=None):
        """Whole passes until ``seconds`` have elapsed (at least one).

        ``between(fraction)``, if given, runs after each pass with the share
        of ``seconds`` used so far; its own time does not count.
        """
        start = time.perf_counter()
        first = self.passes
        paused = 0.0
        while self.passes == first or time.perf_counter() - start - paused < seconds:
            self.run_pass(tracer)
            if between is not None:
                t = time.perf_counter()
                between((t - start - paused) / seconds)
                paused += time.perf_counter() - t

    @property
    def attempted(self):
        return len(self.samples)

    @property
    def failed(self):
        return len({(p, j) for p, j, _ in self.failures})

    def jobs_per_s(self):
        """Jobs per pass over the median pass time: a burst of load from
        other tenants slows one pass, not the median."""
        return len(self.jobs) / statistics.median(self.pass_seconds)

    def job_ms(self):
        """Latency samples in ms, per job id."""
        out = {}
        for job, t in self.samples:
            out.setdefault(job.id, []).append(t * 1e3)
        return out

    def trial_rate(self, attr):
        work = sum(getattr(job, attr) for job, _ in self.samples)
        busy = sum(t for job, t in self.samples if getattr(job, attr))
        return work / busy if work else None


def harrell_davis(values, q):
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics.

    It moves continuously with every value. A nearest-rank percentile jumps
    from one job to the next when two jobs near its rank swap places, and
    job sizes come in clusters (M=20, 60, 200), so such a swap can move it
    by a whole cluster.
    """
    import numpy as np
    from scipy.special import betainc   # the Beta CDF

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def latency_percentiles(job_ms):
    """p50 and p90 over the job list, taking each job's latency as its median
    over the passes (robust to a slow pass); also the number of jobs above p90.
    """
    per_job = [statistics.median(v) for v in job_ms.values()]
    p50, p90 = harrell_davis(per_job, 0.5), harrell_davis(per_job, 0.9)
    return p50, p90, sum(t > p90 for t in per_job)


def setup_probe_seconds(workload, seed):
    """Set up in a fresh process and return its set-up time."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def _src_digest_and_lines():
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            if name.endswith(".py"):
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def metadata(seed, variant):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_sha, src_lines = _src_digest_and_lines()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "seed": seed,
        "variant": variant,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(args, runner, setup_times, peak_rss_mb, meta):
    job_ms = runner.job_ms()
    p50, p90, above = latency_percentiles(job_ms)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": runner.jobs_per_s(),
        "job_ms_p50": p50,
        "job_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    mc = runner.trial_rate("score_trials")
    mse = runner.trial_rate("mse_trials")
    n = runner.attempted
    print("\n".join([
        f"workload={args.workload} seed={args.seed} variant={meta['variant']} "
        f"passes={runner.passes} jobs={n} pass_s=" + ",".join(f"{t:.3f}" for t in runner.pass_seconds),
        f"setup_s = {metrics['setup_s']:.4f} s  (median of {len(setup_times)}: "
        + ", ".join(f"{t:.3f}" for t in setup_times) + ")",
        f"jobs_per_s = {metrics['jobs_per_s']:.4f} 1/s  ({len(runner.jobs)} jobs per pass, "
        f"median of {runner.passes} passes)",
        f"job_ms_p50 = {p50:.3f} ms  ({len(job_ms)} jobs x {runner.passes} passes = {n} samples)",
        f"job_ms_p90 = {p90:.3f} ms  ({above} of {len(job_ms)} jobs above, "
        f"{above * runner.passes} samples)",
        "mc_trials_per_s = " + (f"{mc:.1f} 1/s" if mc else "n/a (no fim-check jobs)"),
        "mse_trials_per_s = " + (f"{mse:.3f} 1/s" if mse else "n/a (no mse jobs)"),
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
        f"failed_frac = {runner.failed / n:.4f}  ({runner.failed}/{n})",
        f"analyze mismatches = {runner.mismatches} over "
        f"{sum(1 for j, _ in runner.samples if j.command == 'analyze')} analyze jobs",
        "metadata: " + json.dumps(meta, sort_keys=True),
    ]))
    extra = {"mc_trials_per_s": mc, "mse_trials_per_s": mse,
             "failed_frac": runner.failed / n, "jobs_above_p90": above,
             "setup_s_samples": setup_times, "job_ms": job_ms}
    return metrics, extra


def traced_run(args, runner, meta):
    runner.run_for(args.seconds / 2)
    untraced_jobs_per_s = runner.jobs_per_s()
    traced = Runner(runner.cli, runner.jobs, runner.references)
    tracer = Tracer()
    tracer.install()
    traced.run_for(args.seconds / 2, tracer)
    traced_ms = sum(t for _, t in traced.samples) * 1e3
    table = tracer.layer_table(traced_ms)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "self_pct": 0.0}
    metrics = {}
    for layer in KEY_LAYERS:
        row = table.get(layer, empty)
        metrics[f"{layer}.calls"] = row["calls"] / traced.passes
        metrics[f"{layer}.self_pct"] = row["self_pct"]
    for name in ("fim.slab_bytes", "identifiability.mismatch", "simulate.als_sweeps",
                 "simulate.als_nonconverged"):
        metrics[name] = tracer.counters.get(name, 0) / traced.passes
    metrics["trace.jobs_per_s_ratio"] = traced.jobs_per_s() / untraced_jobs_per_s

    sweeps = tracer.counters.get("simulate.als_sweeps", 0)
    als = table.get("simulate.alternating_ls_estimator")
    lines = [
        f"workload={args.workload} seed={args.seed} variant={meta['variant']} "
        f"untraced passes={runner.passes} traced passes={traced.passes} "
        f"traced jobs={traced.attempted} traced job time={traced_ms:.1f} ms",
        f"tracing overhead: jobs_per_s traced {traced.jobs_per_s():.4f} vs untraced "
        f"{untraced_jobs_per_s:.4f} (ratio {metrics['trace.jobs_per_s_ratio']:.4f}), "
        f"{len(tracer.spans)} spans",
        f"{'layer':44s} {'calls':>8s} {'ms':>11s} {'self_ms':>11s} {'self_%':>7s}",
    ]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(f"{layer:44s} {row['calls']:8d} {row['ms']:11.2f} "
                     f"{row['self_ms']:11.2f} {row['self_pct']:7.2f}")
    by_command = {}
    for job, t in traced.samples:
        by_command[job.command] = by_command.get(job.command, 0.0) + t * 1e3
    for command, ms in by_command.items():
        rows = tracer.layer_table(ms, command)
        top = sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"])[:5]
        lines.append(f"{command} jobs ({ms:.1f} ms), top self time: " + "; ".join(
            f"{layer} self {row['self_pct']:.1f}% incl {row['pct']:.1f}%" for layer, row in top))
    if als:
        nonconverged = tracer.counters["simulate.als_nonconverged"]
        lines.append(f"simulate.als_ms_per_sweep = {als['ms'] / sweeps:.4f} ms  "
                     f"({sweeps} sweeps, converged {1 - nonconverged / als['calls']:.3f} "
                     f"of {als['calls']} trials)")
    lines.append(f"per pass: fim.slab_bytes = {metrics['fim.slab_bytes']:.0f} (computed, "
                 f"cov_jac.nbytes); identifiability.mismatch = "
                 f"{metrics['identifiability.mismatch']:.0f} of "
                 f"{metrics['identifiability.verdict_vs_fim.calls']:.0f} records")
    print("\n".join(lines))
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv.gz")
    tracer.write_spans(spans_path)
    extra = {"layers": table, "spans": os.path.relpath(spans_path, ROOT),
             "untraced_jobs_per_s": untraced_jobs_per_s}
    return metrics, extra, traced


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once and print the set-up time (used internally "
                        "for the setup_s median)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_probe:
            print(setup(args.workload, args.seed, tmp)[3])
            return 0
        references = load_references(args.workload)
        cli, variant, jobs, setup_time = setup(args.workload, args.seed, tmp)
        meta = metadata(args.seed, variant)
        runner = Runner(cli, jobs, references["variants"][str(variant)])
        if args.trace:
            metrics, extra, traced = traced_run(args, runner, meta)
            units = dict.fromkeys(metrics, "count/pass")
            units.update({k: "%" for k in metrics if k.endswith(".self_pct")})
            units.update({"fim.slab_bytes": "B/pass", "trace.jobs_per_s_ratio": "ratio"})
            runs = (runner, traced)
        else:
            # The set-up probes are spread over the run: back to back they
            # would all see the machine in one state, and its speed drifts
            # over tens of seconds.
            setup_times = [setup_time]

            def probe_due(fraction):
                while (len(setup_times) <= SETUP_PROBES
                       and fraction >= len(setup_times) / (SETUP_PROBES + 1)):
                    setup_times.append(setup_probe_seconds(args.workload, args.seed))

            runner.run_for(args.seconds, between=probe_due)
            # read before the statistics below import anything more
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, extra = untraced_run(args, runner, setup_times, peak_rss_mb, meta)
            units = END_TO_END_UNITS
            runs = (runner,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for p, job_id, problems in r.failures[:20]:
            print(f"FAILED pass {p} {job_id}: " + "; ".join(problems[:5]))
    details = {"metadata": meta, "metrics": metrics, "extra": extra,
               "verdicts": runner.verdicts, "recorded": runner.recorded,
               "failures": [f for r in runs for f in r.failures]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
