"""Public API surface: exported names resolve in the modules that export them."""

import ast
import importlib
import pathlib
import pkgutil
from collections import defaultdict

import numpy as np
import pytest

import blindcrb
from blindcrb import channel, fim, linalg, simulate
from blindcrb.channel import COMPLEX, REAL

from conftest import random_channel

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


_RANK_CALLS = {"matrix_rank", "pinv", "lstsq"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in pathlib.Path(blindcrb.__file__).parent.glob("*.py")
           if p.name != "linalg.py"),
    ids=lambda p: p.stem,
)
def test_rank_decisions_go_through_linalg(path):
    # one SVD rank rule: pseudo-inverses, rank counts and minimum-norm
    # solves outside blindcrb.linalg call its pseudo_inverse, numerical_rank
    # and min_norm_solve
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
        monkeypatch.setattr(mod, "commutativity_op", refuse)
    res = simulate.alternating_ls_estimator(Y, ch.m, ch.N, ch.h, sweeps=20)
    assert res.residual < np.linalg.norm(Y)


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
    for name in ("range_basis", "min_norm_solve"):
        monkeypatch.setattr(linalg, name, refuse)
        monkeypatch.setattr(fim, name, refuse, raising=False)
    got = fim.deterministic_reduced_fim(ch, A, 0.3, 40)
    np.testing.assert_array_equal(got.J, want.J)
    assert got.warnings == ()
