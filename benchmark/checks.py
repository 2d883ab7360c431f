"""Extract the checked numbers from CLI output and compare them with the
references taken at the commit that defined the benchmark.

What is checked, per command:

* every job: the exit code;
* ``crb``: per constraint row, ``trace`` and the per-coefficient columns
  within tolerance, ``bounded`` exactly;
* ``sweep-known``: per index, ``coef_abs``, ``trace`` and ``minimal_trace``
  within tolerance, ``bounded`` exactly;
* ``mse``: per SNR point, ``sigma_v2``, ``crb_trace`` and ``mse_*`` within
  tolerance, ``trials`` exactly;
* ``fim-check``: the gate result in the manifest, ``trials`` and ``fim_dim``.

``analyze`` verdict text, the ``fim-check`` z-score and trace error, the
``mse`` standard errors and non-converged counts are recorded, not checked:
the verdicts are expected to change when common-factor detection improves,
and the others are statistics of the Monte Carlo draws.
"""

from __future__ import annotations

import csv
import math
import os

# Tolerances, chosen so that a re-implementation with other roundoff passes.
# A bound's relative roundoff is about eps * ||J|| / lambda_min, and
# 1/lambda_min <= trace; with ||J|| up to ~1e3 here, a row whose largest
# value is S may differ by RTOL_PER_SCALE * S relative (1e-3 at a trace of
# 1e8, as on the near-common and near-unit channels). The ALS stopping rule
# (relative improvement below 1e-12) can end an mse trial one sweep earlier
# or later under other roundoff.
RTOL = 1e-6
RTOL_PER_SCALE = 1e-11
RTOL_MSE = 1e-4
ATOL_ROW = 1e-9          # times the largest magnitude in the row

_KEY = {"crb": "constraint", "sweep-known": "coef_index", "mse": "snr_db",
        "fim-check": "metric"}
_EXACT = {"bounded", "trials", "fim_dim"}
_CLOSE = {"sweep-known": ("coef_abs", "trace", "minimal_trace"),
          "mse": ("sigma_v2", "crb_trace", "mse_NO", "mse_LS", "mse_LIN")}
_RECORDED = {"mse": ("nonconverged", "se_NO", "se_LS", "se_LIN")}


def _checked_columns(command, header):
    if command == "crb":
        return [c for c in header if c == "trace" or c.startswith("coef")], ["bounded"]
    exact = [c for c in header if c in _EXACT]
    return [c for c in _CLOSE[command] if c in header], exact


def extract(command, exit_code, stdout):
    """Reduce one job's output to ``(checked, recorded)`` dictionaries."""
    checked = {"exit": exit_code}
    recorded = {}
    if command == "analyze":
        recorded["verdict"] = [line for line in stdout.splitlines()
                               if line.startswith(("verdict:", "  - ", "predicted vs"))]
        recorded["mismatch"] = int("predicted vs computed: MISMATCH" in stdout)
        return checked, recorded
    manifest, body = {}, []
    for line in stdout.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            manifest[k] = v
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        return checked, recorded
    header, data = rows[0], rows[1:]
    key = header.index(_KEY[command])
    if command == "fim-check":
        checked["result"] = manifest.get("result")
        values = {r[key]: r[1] for r in data}
        checked["rows"] = {k: [int(values[k])] for k in ("trials", "fim_dim") if k in values}
        recorded.update({k: float(values[k]) for k in ("max_abs_z", "trace_rel_err")
                         if k in values})
        return checked, recorded
    close, exact = _checked_columns(command, header)
    checked["columns"] = close + exact
    checked["rows"] = {
        _row_key(r[key]): [float(r[header.index(c)]) for c in close]
        + [int(r[header.index(c)]) for c in exact]
        for r in data}
    for c in _RECORDED.get(command, ()):
        recorded[c] = {r[key]: float(r[header.index(c)]) for r in data}
    return checked, recorded


def _row_key(key):
    # linear:FILE names a file in a temporary directory; keep the file name
    if key.startswith("linear:"):
        return "linear:" + os.path.basename(key[len("linear:"):])
    return key


def _rtol(job_id, scale):
    if job_id.startswith("mse:"):
        return RTOL_MSE
    return max(RTOL, RTOL_PER_SCALE * scale)


def _close(x, ref, rtol, atol):
    if not (math.isfinite(x) and math.isfinite(ref)):
        return x == ref or (math.isnan(x) and math.isnan(ref))
    return abs(x - ref) <= rtol * abs(ref) + atol


def compare(job_id, checked, ref):
    """Return a list of differences between a job's checked output and its
    reference (empty when the job passes)."""
    if ref is None:
        return ["no reference for this job"]
    problems = []
    for k in ("exit", "result", "columns"):
        if checked.get(k) != ref.get(k):
            problems.append(f"{k}: got {checked.get(k)!r}, reference {ref.get(k)!r}")
    rows, ref_rows = checked.get("rows", {}), ref.get("rows", {})
    if set(rows) != set(ref_rows):
        problems.append(f"rows: got {sorted(rows)}, reference {sorted(ref_rows)}")
        return problems
    n_exact = sum(1 for c in ref.get("columns", ()) if c in _EXACT)
    for k, ref_vals in ref_rows.items():
        vals = rows[k]
        if len(vals) != len(ref_vals):
            problems.append(f"row {k}: {len(vals)} values, reference {len(ref_vals)}")
            continue
        n_close = len(ref_vals) - n_exact if "columns" in ref else 0
        scale = max((abs(v) for v in ref_vals[:n_close] if math.isfinite(v)), default=0.0)
        rtol, atol = _rtol(job_id, scale), ATOL_ROW * scale
        for i, (v, r) in enumerate(zip(vals, ref_vals)):
            ok = _close(v, r, rtol, atol) if i < n_close else v == r
            if not ok:
                col = ref["columns"][i] if "columns" in ref else i
                problems.append(f"row {k} {col}: got {v!r}, reference {r!r}")
    return problems
