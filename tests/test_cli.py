"""Command-line surface: schemas, manifests, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from blindcrb.cli import main
from blindcrb.channel import (
    Channel,
    channel_to_json,
    example_channel,
    load_channel,
    reducible_decompose,
)
from blindcrb.crb import constrained_crb, reducible_constraints
from blindcrb.fim import deterministic_reduced_fim
from blindcrb.simulate import ExperimentConfig, experiment_symbols


@pytest.fixture
def chan_file(tmp_path):
    p = tmp_path / "chan.json"
    p.write_text(json.dumps(channel_to_json(example_channel("random"))))
    return str(p)


@pytest.fixture
def decay_file(tmp_path):
    p = tmp_path / "decay.json"
    p.write_text(json.dumps(channel_to_json(example_channel("decaying"))))
    return str(p)


def _read_csv(path):
    manifest, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                manifest.append(line.strip())
            else:
                rows.append(line.strip())
    reader = csv.reader(rows)
    header = next(reader)
    return manifest, header, list(reader)


def _data_lines(path):
    """Everything except the (informational) timestamp manifest line."""
    with open(path) as fh:
        return [l for l in fh if not l.startswith("# timestamp=")]


class TestAnalyze:
    def test_deterministic_report(self, chan_file, capsys):
        assert main(["analyze", chan_file, "--model", "deterministic", "--M", "20"]) == 0
        out = capsys.readouterr().out
        assert "nullity=1" in out
        assert "identifiable up to scale" in out
        assert "CONSISTENT" in out

    def test_gaussian_complex_report(self, chan_file, capsys):
        rc = main(["analyze", chan_file, "--model", "gaussian", "--field", "complex",
                   "--M", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identifiable up to phase" in out and "CONSISTENT" in out

    def test_monochannel_noise_singularity_reported(self, tmp_path, capsys):
        mono = {"name": "mono", "field": "real", "m": 1, "N": 3,
                "coeffs": [list(np.poly([0.5, -0.3]))]}
        p = tmp_path / "mono.json"
        p.write_text(json.dumps(mono))
        assert main(["analyze", str(p), "--model", "gaussian", "--M", "10"]) == 0
        out = capsys.readouterr().out
        assert "noise variance not identifiable" in out

    def test_deterministic_complex_field_override(self, chan_file, capsys):
        rc = main(["analyze", chan_file, "--model", "deterministic",
                   "--field", "complex", "--M", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nullity=2" in out             # stacked real representation
        assert "identifiable up to scale" in out
        assert "CONSISTENT" in out

    def test_pair_zero_channel_cites_pair(self, tmp_path, capsys):
        HI = np.random.default_rng(4).standard_normal((2, 3))
        coeffs = [list(np.convolve(row, np.poly([0.5, 2.0]))) for row in HI]
        spec = {"name": "paired", "field": "real", "m": 2, "N": 5, "coeffs": coeffs}
        p = tmp_path / "paired.json"
        p.write_text(json.dumps(spec))
        assert main(["analyze", str(p), "--model", "gaussian", "--M", "16"]) == 0
        out = capsys.readouterr().out
        assert "conjugate reciprocal pair" in out
        assert "nullity=1" in out

    def test_malformed_channel_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"name": oops}')
        assert main(["analyze", str(p)]) == 2
        assert "bad.json" in capsys.readouterr().err


class TestCrb:
    def test_minimal_equals_norm_on_real_channel(self, chan_file, tmp_path):
        out = tmp_path / "crb.csv"
        rc = main(["crb", chan_file, "--constraint", "minimal", "--constraint", "norm",
                   "--M", "20", "-o", str(out)])
        assert rc == 0
        manifest, header, rows = _read_csv(out)
        assert header[:3] == ["constraint", "trace", "bounded"]
        traces = {r[0]: float(r[1]) for r in rows}
        assert traces["norm"] == pytest.approx(traces["minimal"], rel=1e-9)
        assert any(l.startswith("# schema=crb-v1") for l in manifest)

    def test_known_rows_dominate_minimal(self, decay_file, tmp_path):
        out = tmp_path / "crb.csv"
        args = ["crb", decay_file, "--M", "20", "-o", str(out)]
        for i in (0, 5):
            args += ["--constraint", f"known:{i}"]
        args += ["--constraint", "minimal"]
        assert main(args) == 0
        _, _, rows = _read_csv(out)
        traces = {r[0]: float(r[1]) for r in rows}
        assert traces["known:0"] >= traces["minimal"]
        assert traces["known:5"] >= traces["minimal"]

    def test_phase_constraint_gaussian_complex(self, chan_file, tmp_path):
        out = tmp_path / "crb.csv"
        rc = main(["crb", chan_file, "--model", "gaussian", "--field", "complex",
                   "--M", "10", "--constraint", "phase", "--constraint", "minimal",
                   "-o", str(out)])
        assert rc == 0
        _, _, rows = _read_csv(out)
        traces = {r[0]: float(r[1]) for r in rows}
        bounded = {r[0]: int(r[2]) for r in rows}
        assert bounded["phase"] == 1
        assert traces["phase"] == pytest.approx(traces["minimal"], rel=1e-9)

    def test_reducible_constraints_on_real_channel(self, tmp_path):
        HI = np.random.default_rng(7).standard_normal((2, 3))
        coeffs = [list(np.convolve(r, np.poly([0.5]))) for r in HI]
        p = tmp_path / "red.json"
        p.write_text(json.dumps({"name": "red", "field": "real", "m": 2, "N": 4,
                                 "coeffs": coeffs}))
        out = tmp_path / "crb.csv"
        rc = main(["crb", str(p), "--M", "20", "-o", str(out),
                   "--constraint", "reducible-ti", "--constraint", "minimal"])
        assert rc == 0
        _, _, rows = _read_csv(out)
        traces = {r[0]: float(r[1]) for r in rows}
        # pinning the common-factor directions is the minimal constraint set
        assert traces["reducible-ti"] == pytest.approx(traces["minimal"], rel=1e-8)

    def test_reducible_constraints_on_complex_channel(self, tmp_path):
        # reducible rows use the native complex reduced FIM of the stream-0 burst
        rng = np.random.default_rng(11)
        HI = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        coeffs = np.array([np.convolve(r, np.poly([0.5 - 0.3j])) for r in HI])
        p = tmp_path / "red.json"
        p.write_text(json.dumps(channel_to_json(Channel(coeffs, name="red"))))
        out = tmp_path / "crb.csv"
        rc = main(["crb", str(p), "--M", "20", "--seed", "3", "--sigma-v2", "0.5",
                   "-o", str(out), "--constraint", "reducible-ti",
                   "--constraint", "reducible-proj"])
        assert rc == 0
        _, _, rows = _read_csv(out)
        ch = load_channel(str(p))
        dec = reducible_decompose(ch)
        assert dec.N_c == 2
        A = experiment_symbols(ExperimentConfig(channel=ch, M=20, seed=3))
        J = deterministic_reduced_fim(ch, A, 0.5, 20).J
        assert [r[0] for r in rows] == ["reducible-ti", "reducible-proj"]
        for row, kind in zip(rows, ("ti", "projector")):
            res = constrained_crb(J, reducible_constraints(dec, kind))
            assert int(row[2]) == int(res.bounded) == 1
            assert float(row[1]) == pytest.approx(res.trace, rel=1e-10)
            # the CSV keeps 9 significant digits per coefficient
            np.testing.assert_allclose([float(x) for x in row[3:]],
                                       np.real(np.diag(res.crb)), rtol=1e-8)

    def test_reducible_decomposition_failure_reported(self, tmp_path, capsys):
        # the subchannels share a zero only up to a 3e-7 offset: it clusters as
        # common at the default zero tolerance, but deconvolution fails
        z = 0.5 + 0.2j
        coeffs = np.array([np.poly([z, -0.4 + 0.6j, 0.3 - 0.7j]),
                           1.5 * np.poly([z + 3e-7, 0.8j, -0.6 - 0.1j])])
        p = tmp_path / "near.json"
        p.write_text(json.dumps(channel_to_json(Channel(coeffs, name="near"))))
        assert main(["crb", str(p), "--constraint", "reducible-ti"]) == 2
        assert "deconvolution residual" in capsys.readouterr().err
        assert main(["crb", str(p), "--constraint", "minimal",
                     "-o", str(tmp_path / "crb.csv")]) == 0

    def test_reducible_complex_gaussian_rejected(self, chan_file):
        rc = main(["crb", chan_file, "--model", "gaussian", "--field", "complex",
                   "--M", "10", "--constraint", "reducible-ti"])
        assert rc == 2

    def test_bad_constraint_spec(self, chan_file, capsys):
        assert main(["crb", chan_file, "--constraint", "nope"]) == 2


class TestSweepKnown:
    def test_schema_and_dominance(self, decay_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-known", decay_file, "--M", "20", "-o", str(out)]) == 0
        _, header, rows = _read_csv(out)
        assert header == ["coef_index", "coef_abs", "trace", "bounded", "minimal_trace"]
        assert len(rows) == 8
        base = float(rows[0][4])
        traces = [float(r[2]) for r in rows]
        assert all(t >= base * (1 - 1e-9) for t in traces)
        # largest trace at the smallest-magnitude coefficient
        mags = [float(r[1]) for r in rows]
        assert int(np.argmax(traces)) == int(np.argmin(mags))

    def test_deterministic_output(self, chan_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-known", chan_file, "--M", "20", "--seed", "5", "-o", str(a)])
        main(["sweep-known", chan_file, "--M", "20", "--seed", "5", "-o", str(b)])
        assert _data_lines(a) == _data_lines(b)
        _, _, rows = _read_csv(a)
        base = float(rows[0][4])
        assert all(float(r[2]) >= base * (1 - 1e-9) for r in rows)


class TestGoldenValues:
    # frozen from a verified run; guards against silent numeric regressions
    GOLDEN = {
        "minimal": (2.66180544123, [0.328927869, 0.387381289, 0.416291382,
                                    0.127077652, 0.51138325, 0.259659394,
                                    0.338652699, 0.292431906]),
        "known:0": (6.13514263049, [0.0, 0.7724983, 0.441161169, 1.28403163,
                                    1.58208696, 0.171697958, 1.61501599,
                                    0.268650624]),
    }

    def test_crb_rows_match_golden(self, chan_file, tmp_path):
        out = tmp_path / "crb.csv"
        rc = main(["crb", chan_file, "--M", "20", "--seed", "0",
                   "--constraint", "minimal", "--constraint", "known:0",
                   "-o", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out)
        for row in rows:
            trace, diag = self.GOLDEN[row[0]]
            assert float(row[1]) == pytest.approx(trace, rel=1e-8)
            np.testing.assert_allclose([float(x) for x in row[3:]], diag,
                                       rtol=1e-6, atol=1e-9)


class TestFimCheck:
    def test_deterministic_passes(self, chan_file, tmp_path):
        out = tmp_path / "check.csv"
        rc = main(["fim-check", chan_file, "--model", "deterministic", "--M", "6",
                   "--trials", "3000", "--seed", "0", "-o", str(out)])
        assert rc == 0
        _, _, rows = _read_csv(out)
        metrics = {r[0]: r for r in rows}
        assert metrics["max_abs_z"][3] == "1"
        assert metrics["trace_rel_err"][3] == "1"

    def test_corrupted_noise_fails(self, chan_file, tmp_path):
        out = tmp_path / "check.csv"
        rc = main(["fim-check", chan_file, "--model", "deterministic", "--M", "6",
                   "--trials", "3000", "--seed", "0", "--corrupt-sigma", "1.5",
                   "-o", str(out)])
        assert rc == 1

    def test_gaussian_real_passes(self, chan_file, tmp_path):
        out = tmp_path / "check.csv"
        rc = main(["fim-check", chan_file, "--model", "gaussian", "--M", "4",
                   "--trials", "4000", "--seed", "0", "-o", str(out)])
        assert rc == 0


class TestMse:
    def _experiment(self, tmp_path, chan_file, **kw):
        spec = {"channel": os.path.basename(chan_file), "model": "deterministic",
                "M": 30, "trials": 15, "seed": 3, "snr_db": [20.0],
                "ls_sweeps": 150, **kw}
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(spec))
        return str(p)

    def test_runs_and_emits_rows(self, tmp_path, chan_file):
        exp = self._experiment(tmp_path, chan_file)
        out = tmp_path / "mse.csv"
        assert main(["mse", exp, "-o", str(out)]) == 0
        manifest, header, rows = _read_csv(out)
        assert header[0] == "snr_db" and "mse_NO" in header
        assert len(rows) == 1
        assert float(dict(zip(header, rows[0]))["crb_trace"]) > 0

    def test_seed_reproducibility(self, tmp_path, chan_file):
        exp = self._experiment(tmp_path, chan_file)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["mse", exp, "-o", str(a)])
        main(["mse", exp, "-o", str(b)])
        assert _data_lines(a) == _data_lines(b)

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"M": 10},
        {"channel": 5},
    ], ids=["not-an-object", "no-channel", "channel-not-a-path"])
    def test_malformed_experiment_is_bad_input(self, tmp_path, capsys, spec):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(spec))
        assert main(["mse", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    @pytest.mark.parametrize("field, value", [
        ("M", None), ("trials", "many"), ("sigma_a2", [1.0]), ("snr_db", 20.0),
        ("snr_db", [20.0, None]),
    ])
    def test_non_numeric_field_is_bad_input(self, tmp_path, chan_file, capsys,
                                            field, value):
        exp = self._experiment(tmp_path, chan_file, **{field: value})
        assert main(["mse", exp]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {exp}: ") and repr(field) in err


class TestManifest:
    def test_input_digest_present(self, chan_file, tmp_path):
        out = tmp_path / "crb.csv"
        main(["crb", chan_file, "--constraint", "minimal", "-o", str(out)])
        manifest, _, _ = _read_csv(out)
        assert any(l.startswith("# input=") and "sha256=" in l for l in manifest)
        assert any(l.startswith("# tool=blindcrb") for l in manifest)

    def test_env_seed_default(self, chan_file, tmp_path, monkeypatch):
        # BLINDCRB_SEED feeds the default --seed of freshly built parsers
        monkeypatch.setenv("BLINDCRB_SEED", "123")
        from blindcrb.cli import build_parser

        args = build_parser().parse_args(["sweep-known", chan_file])
        assert args.seed == 123
