"""Public API surface: exported names resolve in the modules that export them."""

import ast
import importlib
import json
import pathlib
import pkgutil
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

import blindcrb
from blindcrb import channel, cli, crb, fim, identifiability, linalg, simulate
from blindcrb.channel import COMPLEX, REAL

from conftest import channel_with_common_roots, random_channel
from oracles import realified_counts

_MODULES = [importlib.import_module(f"blindcrb.{info.name}")
            for info in pkgutil.iter_modules(blindcrb.__path__)]
_EXPORTING = [mod for mod in _MODULES if hasattr(mod, "__all__")]


def _package_imports():
    """``{module: [names]}`` of the relative imports in ``blindcrb/__init__.py``."""
    tree = ast.parse(pathlib.Path(blindcrb.__file__).read_text(encoding="utf-8"))
    out = defaultdict(list)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out[node.module].extend(alias.name for alias in node.names)
    return dict(out)


def test_modules_found():
    assert {mod.__name__ for mod in _EXPORTING} >= {
        "blindcrb.channel", "blindcrb.crb", "blindcrb.fim",
        "blindcrb.identifiability", "blindcrb.linalg", "blindcrb.simulate",
    }


@pytest.mark.parametrize("mod", _EXPORTING, ids=lambda mod: mod.__name__)
def test_all_names_exist(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("module, names", sorted(_package_imports().items()))
def test_package_imports_are_public(module, names):
    exported = importlib.import_module(f"blindcrb.{module}").__all__
    private = [name for name in names if name not in exported]
    assert not private, f"blindcrb imports {private} from {module}, outside its __all__"


_RANK_CALLS = {"matrix_rank", "pinv", "lstsq", "svd", "finfo"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in pathlib.Path(blindcrb.__file__).parent.glob("*.py")
           if p.name != "linalg.py"),
    ids=lambda p: p.stem,
)
def test_rank_decisions_go_through_linalg(path):
    # one SVD rank rule: pseudo-inverses, rank counts, minimum-norm solves
    # and SVDs outside blindcrb.linalg call its pseudo_inverse,
    # numerical_rank, min_norm_solve and triangular_rank_reveal, and no
    # other module builds an eps cutoff of its own
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in _RANK_CALLS}
                  | {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names if alias.name in _RANK_CALLS})
    assert not used, f"{path.name} calls {used} instead of blindcrb.linalg"


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_gaussian_fim_does_not_call_its_oracle(monkeypatch, field):
    # the generic engine on the moment stack is the oracle of the structured
    # Gaussian-model builder, so the builder must not share that path
    ch = random_channel(np.random.default_rng(11), 2, 4, field)
    cfg = fim.GaussianModelConfig(1.2, 0.4, 6)
    want = fim.gaussian_fim(ch, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("the Gaussian-model builder called its oracle")

    monkeypatch.setattr(fim, "gaussian_moment_stack", refuse)
    monkeypatch.setattr(fim, "gaussian_fim_generic", refuse)
    got = fim.gaussian_fim(ch, cfg)
    np.testing.assert_array_equal(got.J, want.J)
    if field == COMPLEX:
        np.testing.assert_array_equal(got.cross, want.cross)


def test_als_builds_no_dense_operators(monkeypatch):
    # on a full-rank channel both ALS steps are structured solves: neither
    # the dense T(h) nor A_op is formed (only the singular-Gram fallback
    # builds T(h))
    ch = random_channel(np.random.default_rng(12), 2, 4, COMPLEX)
    cfg = simulate.ExperimentConfig(channel=ch, M=30, sigma_v2=0.01, seed=4)
    Y = simulate.simulate_burst(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("alternating LS formed a dense operator")

    for mod in (channel, simulate):
        monkeypatch.setattr(mod, "block_toeplitz", refuse)
        monkeypatch.setattr(mod, "commutativity_op", refuse, raising=False)
    res = simulate.alternating_ls_batch(Y[None], ch.m, ch.N, ch.h[None], sweeps=20)
    assert res.history[0, res.sweeps[0] - 1] < np.linalg.norm(Y)


def test_als_forms_its_data_operator_once(monkeypatch):
    # T(h)^H y = Q conj(h) with Q built from Y once per call: no sweep goes
    # through the tap-sum adjoint
    ch = random_channel(np.random.default_rng(12), 2, 4, COMPLEX)
    cfg = simulate.ExperimentConfig(channel=ch, M=30, sigma_v2=0.01, seed=4)
    Y = simulate.simulate_burst(cfg)
    want = simulate.alternating_ls_batch(Y[None], ch.m, ch.N, ch.h[None], sweeps=20)

    def refuse(*args, **kwargs):
        raise AssertionError("an ALS sweep applied T(h)^H by tap sums")

    for mod in (channel, simulate):
        monkeypatch.setattr(mod, "toeplitz_adjoint", refuse, raising=False)
    got = simulate.alternating_ls_batch(Y[None], ch.m, ch.N, ch.h[None], sweeps=20)
    np.testing.assert_array_equal(got.h, want.h)
    np.testing.assert_array_equal(got.sweeps, want.sweeps)


@pytest.mark.parametrize("loop", ["deterministic", "gaussian", "mse"])
def test_trial_loops_build_one_generator(monkeypatch, loop):
    # the trial loops re-key one generator for all of their draws instead
    # of building a stream_rng per trial or per SNR point
    ch = random_channel(np.random.default_rng(14), 2, 2, REAL)
    cfg = simulate.ExperimentConfig(channel=ch, M=4, trials=500, sigma_v2=0.3, seed=9)
    calls = []

    def counted(seed, stream):
        calls.append(stream)
        return stream_rng(seed, stream)

    stream_rng = simulate.stream_rng
    monkeypatch.setattr(simulate, "stream_rng", counted)
    if loop == "mse":
        simulate.mse_vs_crb_experiment(replace(cfg, trials=5, ls_sweeps=10), [10.0, 20.0])
    else:
        simulate.score_covariance_fim(replace(cfg, model=loop))
    assert len(calls) <= 1


def _refuse_dense_svd(monkeypatch, M):
    """Make ``np.linalg.svd`` refuse any matrix with both sides at least the
    burst length ``M``: the SVD range basis of a dense ``T(h)``."""
    svd = np.linalg.svd

    def guarded(a, *args, **kwargs):
        if min(np.shape(a)) >= M:
            raise AssertionError(f"an SVD of a {np.shape(a)} matrix was taken")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)


def test_reduced_fim_builds_no_dense_operators(monkeypatch):
    # on an irreducible channel the reduced FIM takes the banded fast path:
    # no dense T(h) (block_toeplitz), no SVD range basis of it and no
    # minimum-norm fallback solve
    ch = random_channel(np.random.default_rng(13), 2, 4, COMPLEX)
    A = simulate.experiment_symbols(simulate.ExperimentConfig(channel=ch, M=40, seed=5))
    want = fim.deterministic_reduced_fim(ch, A, 0.3, 40)

    def refuse(*args, **kwargs):
        raise AssertionError("the reduced FIM formed a dense operator or took the fallback")

    monkeypatch.setattr(channel, "block_toeplitz", refuse)
    monkeypatch.setattr(linalg, "min_norm_solve", refuse)
    monkeypatch.setattr(fim, "min_norm_solve", refuse, raising=False)
    _refuse_dense_svd(monkeypatch, 40)
    got = fim.deterministic_reduced_fim(ch, A, 0.3, 40)
    np.testing.assert_array_equal(got.J, want.J)
    assert got.warnings == ()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("M", [20, 60])
@pytest.mark.parametrize("kind", ["common-root", "conj-recip", "near-common"])
def test_reduced_fim_fallback_is_structured(monkeypatch, kind, M, field):
    # when the banded Cholesky refuses T(h)^H T(h) (rank-deficient T(h) from
    # a common root or conjugate-reciprocal pair, or a full-rank T(h) with a
    # zero shared up to 1e-4), the reduced FIM comes from a staircase QR and
    # a triangular rank reveal: no dense T(h), no SVD range basis and no
    # dense least-squares solve; repeat calls are bitwise equal
    rng = np.random.default_rng(23)
    z0 = 0.6 * np.exp(1.1j) if field == COMPLEX else 0.6
    if kind == "common-root":
        ch = channel_with_common_roots(rng, 2, 3, [0.5], field)[0]
    elif kind == "conj-recip":
        ch = channel_with_common_roots(rng, 2, 2, [z0, 1 / np.conj(z0)], field)[0]
    else:
        ch = _near_common(rng, field)
    A = simulate.experiment_symbols(simulate.ExperimentConfig(channel=ch, M=M, seed=4))
    want = fim.deterministic_reduced_fim(ch, A, 0.3, M)
    refused = []

    def refuse(*args, **kwargs):
        raise AssertionError("the reduced FIM took a dense path")

    def cholesky(*args, **kwargs):
        X, regular = linalg.cholesky_solve(*args, **kwargs)
        refused.append(not regular[0])
        return X, regular

    monkeypatch.setattr(channel, "block_toeplitz", refuse)
    monkeypatch.setattr(linalg, "min_norm_solve", refuse)
    _refuse_dense_svd(monkeypatch, M)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(fim, "cholesky_solve", cholesky)
    got = fim.deterministic_reduced_fim(ch, A, 0.3, M)
    assert refused == [True]
    deficient = kind != "near-common"
    assert got.warnings == (("toeplitz-rank-deficient",) if deficient else ())
    np.testing.assert_array_equal(got.J, want.J)


def test_cli_builds_one_parser(monkeypatch, tmp_path, capsys):
    # main builds its argument parser once per process and reuses it
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(channel.channel_to_json(channel.example_channel("random"))))
    argv = ["crb", str(path), "--constraint", "minimal", "--M", "8"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("cli.main rebuilt its argument parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for _ in range(2):
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        assert [l for l in got.splitlines() if not l.startswith("# timestamp=")] \
            == [l for l in want.splitlines() if not l.startswith("# timestamp=")]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_fim_keeps_its_validation_eigenvalues(field):
    ch = random_channel(np.random.default_rng(14), 2, 4, field)
    A = simulate.experiment_symbols(simulate.ExperimentConfig(channel=ch, M=12, seed=2))
    for result in (fim.deterministic_fim(ch, A, 0.5, 12),
                   fim.gaussian_fim(ch, fim.GaussianModelConfig(1.0, 0.5, 6)).realified()):
        w = result.eigenvalues
        assert not w.flags.writeable
        np.testing.assert_array_equal(w, np.linalg.eigvalsh(result.J))


def _near_common(rng, field):
    z0 = 0.6 * np.exp(1.1j) if field == COMPLEX else 0.6
    others = 1.2 * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    if field == REAL:
        return channel.Channel(np.array([np.poly([z0 + l * 1e-4, *others[l, :1],
                                                  np.conj(others[l, 0])]).real
                                         for l in range(2)]), field=REAL)
    return channel.Channel(np.array([np.poly([z0 + l * 1e-4 * np.exp(0.7j), *others[l]])
                                     for l in range(2)]), field=COMPLEX)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ["irreducible", "common-root", "near-common"])
@pytest.mark.parametrize("M", [4, 20])
def test_joint_counts_use_the_kept_eigenvalues(field, kind, M):
    # the inertia count of the joint FIM equals the count from the
    # eigenvalues the dense FIM kept at validation, and that of a fresh
    # eigendecomposition of its realified form
    rng = np.random.default_rng(15)
    if kind == "irreducible":
        ch = random_channel(rng, 2, 4, field)
    elif kind == "common-root":
        ch = channel_with_common_roots(rng, 2, 3, [0.5], field)[0]
    else:
        ch = _near_common(rng, field)
    A = simulate.experiment_symbols(simulate.ExperimentConfig(channel=ch, M=M, seed=3))
    joint = fim.deterministic_fim(ch, A, 1.0, M)
    got = fim.deterministic_joint_counts(ch, A, M)
    want = fim.analyze_singularities(joint.realified())
    kept = realified_counts(joint)
    assert (got.rank, got.nullity, got.tol) == (want.rank, want.nullity, want.tol)
    assert (kept.rank, kept.nullity) == (want.rank, want.nullity)
    assert got.null_basis is None and got.eigenvalues is None


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_deterministic_analyze_does_not_form_the_joint_fim(monkeypatch, tmp_path, capsys, field):
    # analyze counts the joint FIM by inertia: the dense deterministic_fim is
    # the reference of that count, so the count must not share its path
    ch = random_channel(np.random.default_rng(17), 2, 4, field)
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(channel.channel_to_json(ch)))
    argv = ["analyze", str(path), "--M", "200"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("analyze formed the dense joint FIM")

    monkeypatch.setattr(fim, "deterministic_fim", refuse)
    monkeypatch.setattr(cli, "deterministic_fim", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_constrained_crb_takes_one_tangent_basis(monkeypatch, field):
    # a constrained bound uses the orthonormal tangent basis of its
    # constraint set as it is: one SVD for that basis, one for the
    # pseudo-inverse of the restricted FIM, none to re-decide the basis rank
    ch = random_channel(np.random.default_rng(16), 2, 4, field)
    A = simulate.experiment_symbols(simulate.ExperimentConfig(channel=ch, M=12, seed=2))
    J = fim.channel_block(fim.deterministic_reduced_fim(ch, A, 0.5, 12))
    K = crb.norm_constraint(ch.h)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    res = crb.constrained_crb(J, K)
    assert res.bounded
    assert len(calls) == 2, calls


def test_identifiability_decides_no_common_factor():
    # the verdicts read the decomposition they are given: the module neither
    # decomposes a channel nor builds the Kronecker symbol operator
    tree = ast.parse(pathlib.Path(identifiability.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"reducible_decompose", "commutativity_op"}


@pytest.mark.parametrize("model", ["deterministic", "gaussian"])
@pytest.mark.parametrize("kind", ["irreducible", "conj-recip"])
def test_analyze_decomposes_once(monkeypatch, tmp_path, capsys, model, kind):
    # one reducible_decompose per analyze job, and each subchannel's zeros
    # are found once: the printed zeros are those the decomposition clustered
    rng = np.random.default_rng(16)
    if kind == "irreducible":
        ch = random_channel(rng, 2, 4, COMPLEX)
    else:
        z0 = 0.6 * np.exp(1.1j)
        ch = channel_with_common_roots(rng, 2, 2, [z0, 1 / np.conj(z0)], COMPLEX)[0]
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(channel.channel_to_json(ch)))
    calls = defaultdict(int)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    decompose = counted("reducible_decompose", channel.reducible_decompose)
    for mod in (channel, cli, identifiability):
        if hasattr(mod, "reducible_decompose"):
            monkeypatch.setattr(mod, "reducible_decompose", decompose)
    monkeypatch.setattr(np, "roots", counted("roots", np.roots))
    assert cli.main(["analyze", str(path), "--model", model, "--M", "20"]) == 0
    assert "predicted vs computed: CONSISTENT" in capsys.readouterr().out
    assert dict(calls) == {"reducible_decompose": 1, "roots": ch.m}
