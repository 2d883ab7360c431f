"""Write ``references/<workload>.json``: the checked output of every job of
every input variant, taken from the blindcrb sources in this checkout.

    python3 benchmark/make_references.py [WORKLOAD ...]

Run it only at the commit that defines the benchmark (or one whose outputs
are known to be right): every later run is checked against these numbers.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def reference_for(cli, workload, variant):
    import checks
    import inputs

    refs = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        _, jobs = inputs.make_jobs(workload, tmp, variant)
        for job in jobs:
            code, stdout, stderr, _ = run.run_job(cli, job.argv)
            if code != 0:
                print(f"warning: variant {variant} {job.id} exited {code}: {stderr[-500:]}",
                      file=sys.stderr)
            refs[job.id] = checks.extract(job.command, code, stdout)[0]
    return refs


def main(argv):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    os.makedirs(run.OUT, exist_ok=True)
    cli = run.import_cli()
    import inputs

    for workload in argv or run.WORKLOADS:
        variants = {str(v): reference_for(cli, workload, v) for v in range(inputs.VARIANTS)}
        path = os.path.join(run.REFERENCES, f"{workload}.json")
        os.makedirs(run.REFERENCES, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"variants": {\n')
            fh.write(",\n".join(f"{json.dumps(v)}: {json.dumps(r, separators=(',', ':'))}"
                                for v, r in variants.items()))
            fh.write("\n}}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
