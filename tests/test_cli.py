"""Command-line surface: schemas, manifests, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from blindcrb import cli
from blindcrb.cli import main
from blindcrb.channel import (
    COMPLEX,
    REAL,
    Channel,
    channel_to_json,
    example_channel,
    load_channel,
    reducible_decompose,
    tc_matrix,
    ti_matrix,
)
from blindcrb.crb import constrained_crb, parse_constraint, reducible_constraints
from blindcrb.fim import (
    GaussianModelConfig,
    analyze_singularities,
    channel_block,
    deterministic_fim,
    deterministic_reduced_fim,
    gaussian_fim,
)
from blindcrb.simulate import ExperimentConfig, experiment_symbols

from conftest import channel_with_common_roots
from oracles import projector


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

    def test_output_file_holds_the_report(self, chan_file, tmp_path, capsys):
        argv = ["analyze", chan_file, "--M", "20"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main(argv + ["-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == want

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

    def test_monochannel_reduced_fim_is_zero(self, tmp_path, capsys):
        # with one subchannel T(h) has full row rank, so P^perp = 0: the
        # channel-reduced FIM is exactly zero, and its nullity N_c = N
        # matches the verdict
        mono = {"name": "mono", "field": "real", "m": 1, "N": 4,
                "coeffs": [[1.0, -0.4, 0.3, 0.2]]}
        p = tmp_path / "mono.json"
        p.write_text(json.dumps(mono))
        assert main(["analyze", str(p), "--M", "20"]) == 0
        out = capsys.readouterr().out
        assert "reducible: yes (N_c=4," in out
        assert "  channel-reduced FIM rank=0 nullity=4\n" in out
        assert "channel-reduced nullity N_c" in out and "CONSISTENT" in out

    def test_short_burst_verdict_is_indeterminate(self, chan_file, capsys):
        # at M=2 the verdict predicts no nullity: the comparison with the
        # computed FIM is indeterminate, not a mismatch
        assert main(["analyze", chan_file, "--M", "2"]) == 0
        out = capsys.readouterr().out
        assert "predicted nullity -1" in out and "MISMATCH" not in out
        assert "predicted vs computed: INDETERMINATE (verdict was indeterminate " \
               "(burst too short" in out

    def test_verdict_wording(self, tmp_path, chan_file, capsys):
        # a reducible deterministic channel is not identifiable, and a
        # too-short Gaussian burst is indeterminate: neither reads
        # "identifiable up to"
        ch = channel_with_common_roots(np.random.default_rng(2), 2, 3, [0.5], REAL)[0]
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(channel_to_json(ch)))
        assert main(["analyze", str(path), "--M", "20"]) == 0
        out = capsys.readouterr().out
        assert "verdict: not identifiable; predicted nullity 3\n" in out
        assert main(["analyze", chan_file, "--model", "gaussian", "--M", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: indeterminate; predicted nullity -1\n" in out
        assert "identifiable up to" not in out

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
        assert "nullity=1" in out
        assert "verdict: not identifiable; predicted nullity 1\n" in out
        assert "predicted vs computed: CONSISTENT" in out

    @pytest.mark.parametrize("kind", ["irreducible", "common-root", "conj-recip", "near-common"])
    def test_joint_rank_equals_realified_fim(self, tmp_path, capsys, kind):
        # analyze counts the complex joint FIM in its own field; its printed
        # dim, rank and nullity are those of the realified FIM
        rng = np.random.default_rng(21)
        z0 = 0.6 * np.exp(1.1j)
        if kind == "irreducible":
            H = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        elif kind == "common-root":
            H = channel_with_common_roots(rng, 2, 3, [0.5 + 0.2j], COMPLEX)[0].coeffs
        elif kind == "conj-recip":
            H = channel_with_common_roots(rng, 2, 2, [z0, 1 / np.conj(z0)], COMPLEX)[0].coeffs
        else:
            others = 1.2 * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
            H = np.array([np.poly([z0 + l * 1e-4 * np.exp(0.7j), *others[l]])
                          for l in range(2)])
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(channel_to_json(Channel(H, field=COMPLEX, name=kind))))
        assert main(["analyze", str(path), "--M", "20", "--seed", "3"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "full FIM" in l)
        ch = load_channel(str(path))
        A = experiment_symbols(ExperimentConfig(channel=ch, M=20, seed=3))
        rep = analyze_singularities(deterministic_fim(ch, A, 1.0, 20).realified())
        assert line.endswith(f"dim={rep.rank + rep.nullity} rank={rep.rank} "
                             f"nullity={rep.nullity}")

    @pytest.mark.parametrize("zero_tol, nullity", [("1e-6", 3), ("1e-4", 3)])
    def test_zero_tol_reaches_gaussian_pairing(self, tmp_path, capsys, zero_tol, nullity):
        # the common factor (z - z0)(z - 1/conj(z0) - 1e-5) is a conjugate
        # reciprocal pair only at a clustering distance above 1e-5; the
        # Gaussian verdict counts the whitened spectral map at --rank-tol, so
        # --zero-tol does not reach it: both predict the computed nullity 3
        z0 = 0.6 * np.exp(0.7j)
        HI = np.array([[1.0, 0.4 - 0.3j], [0.5j, -0.8 + 0.2j]])
        hc = np.poly([z0, 1 / np.conj(z0) + 1e-5])
        H = np.array([np.convolve(row, hc) for row in HI])
        path = tmp_path / "near-pair.json"
        path.write_text(json.dumps(channel_to_json(Channel(H, field=COMPLEX, name="near-pair"))))
        assert main(["analyze", str(path), "--model", "gaussian", "--M", "20",
                     "--zero-tol", zero_tol]) == 0
        out = capsys.readouterr().out
        assert "full FIM dim=17 rank=14 nullity=3" in out
        assert f"predicted nullity {nullity}\n" in out
        assert "predicted vs computed: CONSISTENT" in out

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
        # oracle: the native complex bound, T_I and [P_perp(T_c), h0] as
        # complex Jacobians on the complex reduced FIM of the stream-0 burst;
        # the CLI rows take the realified Jacobians on the realified FIM.
        # Common factors of length 2 and 3, one of them a conjugate-reciprocal
        # pair, at bursts that leave the rows unbounded (M=4) and bounded.
        z0 = 0.6 * np.exp(1.1j)
        for roots in ([0.5 - 0.3j], [0.5 - 0.3j, -0.4 + 0.2j], [z0, 1 / np.conj(z0)]):
            ch, _, _ = channel_with_common_roots(np.random.default_rng(11), 2, 3, roots,
                                                 COMPLEX, name="red")
            p = tmp_path / "red.json"
            p.write_text(json.dumps(channel_to_json(ch)))
            ch = load_channel(str(p))
            dec = reducible_decompose(ch)
            assert dec.N_c == len(roots) + 1
            Tc, n = tc_matrix(dec), ch.m * ch.N
            native = {"reducible-ti": ti_matrix(dec),
                      "reducible-proj": np.column_stack([np.eye(n) - projector(Tc),
                                                         Tc @ dec.irreducible_part.h])}
            for M in (4, 20, 200):
                self._check_reducible_rows(tmp_path, p, ch, dec, native, M)

    @staticmethod
    def _check_reducible_rows(tmp_path, p, ch, dec, native, M):
        out = tmp_path / "crb.csv"
        rc = main(["crb", str(p), "--M", str(M), "--seed", "3", "--sigma-v2", "0.5",
                   "-o", str(out), "--constraint", "reducible-ti",
                   "--constraint", "reducible-proj"])
        assert rc == 0
        _, _, rows = _read_csv(out)
        assert [r[0] for r in rows] == list(native)
        fim = deterministic_reduced_fim(
            ch, experiment_symbols(ExperimentConfig(channel=ch, M=M, seed=3)), 0.5, M)
        n = ch.m * ch.N
        for row, (spec, K) in zip(rows, native.items()):
            want = constrained_crb(fim.J, K)
            want_diag = np.real(np.diag(want.crb))
            got = constrained_crb(channel_block(fim), parse_constraint(spec, ch.h, COMPLEX, dec))
            got_diag = np.real(np.diag(got.crb))
            assert int(row[2]) == int(got.bounded) == int(want.bounded)
            assert got.trace == pytest.approx(want.trace, rel=1e-10)
            np.testing.assert_allclose(got_diag[:n] + got_diag[n:], want_diag, rtol=1e-10)
            assert float(row[1]) == pytest.approx(want.trace, rel=1e-10)
            # the CSV keeps 9 significant digits per coefficient
            np.testing.assert_allclose([float(x) for x in row[3:]], want_diag, rtol=1e-8)

    @pytest.mark.parametrize("model", ["deterministic", "gaussian"])
    def test_every_row_takes_the_realified_channel_block(self, tmp_path, monkeypatch, model):
        # one bound call per row, and on a complex channel each takes the
        # real 2n x 2n channel block, reducible rows included
        ch, _, _ = channel_with_common_roots(np.random.default_rng(5), 2, 3, [0.5 - 0.3j],
                                             COMPLEX, name="red")
        n = ch.m * ch.N
        p, lin = tmp_path / "red.json", tmp_path / "lin.json"
        p.write_text(json.dumps(channel_to_json(ch)))
        lin.write_text(json.dumps(np.eye(2 * n)[:, :3].tolist()))
        specs = ["minimal", "norm", "phase", "norm+phase", "known:1", f"linear:{lin}",
                 "reducible-ti", "reducible-proj"]
        seen = []

        def recording(bound):
            def wrapped(J, *args, **kwargs):
                seen.append(J)
                return bound(J, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "constrained_crb", recording(cli.constrained_crb))
        argv = ["crb", str(p), "--model", model, "--M", "10", "-o", str(tmp_path / "crb.csv")]
        assert main(argv + [a for spec in specs for a in ("--constraint", spec)]) == 0
        assert len(seen) == len(specs)
        for J in seen:
            assert isinstance(J, np.ndarray) and J.dtype == np.float64
            assert J.shape == (2 * n, 2 * n)

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

    def test_reducible_complex_gaussian_row(self, tmp_path):
        # a reducible row on a complex channel under the Gaussian model is the
        # bound of its realified Jacobian on the Gaussian channel block
        ch, _, _ = channel_with_common_roots(np.random.default_rng(7), 2, 3, [0.5 - 0.3j],
                                             COMPLEX, name="red")
        p, out = tmp_path / "red.json", tmp_path / "crb.csv"
        p.write_text(json.dumps(channel_to_json(ch)))
        rc = main(["crb", str(p), "--model", "gaussian", "--M", "10",
                   "--constraint", "reducible-ti", "-o", str(out)])
        assert rc == 0
        _, _, rows = _read_csv(out)
        Jred = channel_block(gaussian_fim(ch, GaussianModelConfig(M=10)))
        want = constrained_crb(Jred, reducible_constraints(reducible_decompose(ch), "ti"))
        assert int(rows[0][2]) == int(want.bounded) == 1
        assert float(rows[0][1]) == pytest.approx(want.trace, rel=1e-10)
        assert np.isfinite(want.trace)

    def test_bad_constraint_spec(self, chan_file, capsys):
        assert main(["crb", chan_file, "--constraint", "nope"]) == 2

    @pytest.mark.parametrize("spec", ["known:8", "known:-1"])
    def test_known_index_out_of_range_is_bad_input(self, chan_file, capsys, spec):
        # the bundled channel has 8 coefficients: an index outside 0..7 is
        # bad input (exit 2), not a traceback
        assert main(["crb", chan_file, "--constraint", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ") and "out of range" in err


class TestRankWarning:
    # at M=2 the 4x5 T(h) of the random channel has full row rank, so the
    # reduced FIM is exactly zero and every bound is 0: the manifest says
    # why, as the mse manifest does
    @pytest.mark.parametrize("M, flagged", [(2, True), (20, False)])
    def test_crb_and_sweep_known_report_rank_deficiency(self, chan_file, tmp_path,
                                                        M, flagged):
        crb_out, sweep_out = tmp_path / "crb.csv", tmp_path / "sweep.csv"
        assert main(["crb", chan_file, "--M", str(M), "--constraint", "minimal",
                     "--constraint", "norm", "-o", str(crb_out)]) == 0
        assert main(["sweep-known", chan_file, "--M", str(M), "-o", str(sweep_out)]) == 0
        for path in (crb_out, sweep_out):
            manifest, _, rows = _read_csv(path)
            assert manifest.count("# warning=toeplitz-rank-deficient") == int(flagged)
        if flagged:
            _, _, rows = _read_csv(crb_out)
            assert [float(r[1]) for r in rows] == [0.0, 0.0]


class TestRankTol:
    # --rank-tol is the relative eigenvalue threshold of the bounded flag:
    # at 1e-1 the tangent-restricted FIMs of the random channel count as
    # singular, while the minimal (pseudo-inverse) bound stays bounded
    @pytest.mark.parametrize("rank_tol, bounded", [(None, 1), ("1e-1", 0)])
    def test_crb_and_sweep_known_honour_rank_tol(self, chan_file, tmp_path,
                                                 rank_tol, bounded):
        flag = [] if rank_tol is None else ["--rank-tol", rank_tol]
        crb_out, sweep_out = tmp_path / "crb.csv", tmp_path / "sweep.csv"
        assert main(["crb", chan_file, "--M", "20", "--constraint", "norm",
                     "--constraint", "known:0", "--constraint", "minimal",
                     "-o", str(crb_out)] + flag) == 0
        assert main(["sweep-known", chan_file, "--M", "20",
                     "-o", str(sweep_out)] + flag) == 0
        _, _, rows = _read_csv(crb_out)
        assert {r[0]: int(r[2]) for r in rows} == {"norm": bounded, "known:0": bounded,
                                                    "minimal": 1}
        _, _, rows = _read_csv(sweep_out)
        assert {int(r[3]) for r in rows} == {bounded}


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

    def test_sweeps_column_and_rank_warning(self, tmp_path, chan_file):
        # a real 2x4 channel with a common root at 0.5 is not identifiable
        # from the burst; the bundled random channel is
        ch, _, _ = channel_with_common_roots(np.random.default_rng(3), 2, 3, [0.5], REAL)
        common = tmp_path / "common.json"
        common.write_text(json.dumps(channel_to_json(ch)))
        for chan, flagged in ((str(common), True), (chan_file, False)):
            exp = self._experiment(tmp_path, chan, M=20, trials=3, ls_sweeps=30)
            out = tmp_path / "mse.csv"
            assert main(["mse", exp, "-o", str(out)]) == 0
            manifest, header, rows = _read_csv(out)
            assert "# schema=mse-v2" in manifest
            assert manifest.count("# warning=toeplitz-rank-deficient") == int(flagged)
            assert header[-1] == "sweeps_mean"
            assert 1 <= float(rows[0][-1]) <= 30

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
        # non-integral counts, non-finite numbers, and values out of range
        ("trials", 2.7), ("M", 20.5), ("seed", 1.5), ("ls_sweeps", 2.5),
        ("sigma_a2", float("nan")), ("init_scale", float("inf")),
        ("snr_db", [float("inf")]), ("ls_sweeps", 0), ("init_scale", -0.1), ("snr_db", []),
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


class TestInProcess:
    """``main`` called many times in one process: one parser, per-call state."""

    def test_env_seed_read_per_call(self, chan_file, tmp_path, monkeypatch):
        outs = {}
        for seed in ("11", "12"):
            monkeypatch.setenv("BLINDCRB_SEED", seed)
            outs[seed] = tmp_path / f"sweep{seed}.csv"
            assert main(["sweep-known", chan_file, "-o", str(outs[seed])]) == 0
        manifests = {seed: _read_csv(path)[0] for seed, path in outs.items()}
        for seed, manifest in manifests.items():
            assert f"# seed={seed}" in manifest
        digests = {seed: next(l for l in manifest if l.startswith("# args_sha256="))
                   for seed, manifest in manifests.items()}
        assert digests["11"] != digests["12"]
        # the same seed given as a flag digests like the environment default
        flag = tmp_path / "flag.csv"
        assert main(["sweep-known", chan_file, "--seed", "12", "-o", str(flag)]) == 0
        assert _data_lines(flag) == _data_lines(outs["12"])

    def test_constraint_lists_do_not_leak(self, chan_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["crb", chan_file, "--constraint", "minimal",
                     "--constraint", "norm", "-o", str(a)]) == 0
        assert main(["crb", chan_file, "--constraint", "known:0", "-o", str(b)]) == 0
        assert [r[0] for r in _read_csv(a)[2]] == ["minimal", "norm"]
        assert [r[0] for r in _read_csv(b)[2]] == ["known:0"]

    def test_rejected_call_leaves_later_calls_intact(self, chan_file, tmp_path, capsys):
        argv = ["crb", chan_file, "--constraint", "minimal", "--M", "12"]
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert main(argv + ["-o", str(before)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["crb", chan_file, "--constraint", "minimal", "--M", "twelve",
                  "--model", "nonsense"])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert main(argv + ["-o", str(after)]) == 0
        assert _data_lines(after) == _data_lines(before)

    def test_version_exits_zero(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("blindcrb ")

    def test_bad_env_seed_is_bad_input(self, chan_file, monkeypatch, capsys):
        monkeypatch.setenv("BLINDCRB_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["sweep-known", chan_file])
        assert exc.value.code == 2
        assert "BLINDCRB_SEED" in capsys.readouterr().err
        assert main(["sweep-known", chan_file, "--seed", "4", "-o", os.devnull]) == 0
