"""Positive and negative controls for the benchmark's output checks.

    python3 -m pytest benchmark/controls.py

A wrong output must count as a failed job: ``fim-check --corrupt-sigma 2``
fails its own gate, and a reference value moved by 1e-4 relative no longer
matches. The file is not named ``test_*.py`` so that the repository's test
suite does not collect it.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402

CHEAP_DET = "crb:irr-real:M20"
CHEAP_FIM_CHECK = "fim-check:fc-det-real"


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _run_once(cli, workload, pick, references=None, edit=lambda job: job):
    """Run the jobs named in ``pick`` (variant 0) once; return the runner."""
    refs = references or run.load_references(workload)["variants"]["0"]
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        _, jobs = inputs.make_jobs(workload, tmp, 0)
        runner = run.Runner(cli, [edit(j) for j in jobs if j.id in pick], refs)
        runner.run_pass()
    return runner


def test_reference_outputs_pass(cli):
    for workload, job_id in (("det-structure", CHEAP_DET), ("monte-carlo", CHEAP_FIM_CHECK)):
        runner = _run_once(cli, workload, {job_id})
        assert runner.attempted == 1
        assert runner.failed == 0, runner.failures


def test_corrupt_sigma_counts_as_failure(cli):
    def corrupt(job):
        return dataclasses.replace(job, argv=job.argv + ("--corrupt-sigma", "2"))

    runner = _run_once(cli, "monte-carlo", {CHEAP_FIM_CHECK}, edit=corrupt)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert any("result" in p for p in runner.failures[0][2])


def test_perturbed_reference_counts_as_failure(cli):
    refs = copy.deepcopy(run.load_references("det-structure")["variants"]["0"])
    refs[CHEAP_DET]["rows"]["minimal"][0] *= 1 + 1e-4
    runner = _run_once(cli, "det-structure", {CHEAP_DET}, references=refs)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "row minimal trace" in runner.failures[0][2][0]
