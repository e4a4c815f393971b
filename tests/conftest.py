import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biokex
from biokex import _openssl, netsim
from biokex.features import QuantizationConfig
from biokex.minutiae import (
    MinutiaeSet,
    PerturbationProfile,
    perturb,
    synthesize_dataset,
    synthesize_subject,
)


def child_env():
    """The environment for CLI subprocesses: PYTHONPATH starts with the
    absolute directory holding the `biokex` this suite imported, so the child
    runs the same code from any working directory (a relative
    `PYTHONPATH=src` would resolve against the child's cwd)."""
    package_root = str(Path(biokex.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    return env


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "biokex.cli", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300,
    )


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line per acceptance criterion; echoed live and
    again in the terminal summary."""
    _acceptance_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture
def without_openssl(monkeypatch):
    """Hide ``_hashlib`` so the OpenSSL binding fails: ``modexp`` falls back to
    ``pow`` and the index-stream digests to ``hashlib``."""
    _openssl.libcrypto.cache_clear()
    _openssl.sha256_kdf.cache_clear()
    monkeypatch.setitem(sys.modules, "_hashlib", None)
    assert _openssl.libcrypto() is None
    yield
    _openssl.libcrypto.cache_clear()
    _openssl.sha256_kdf.cache_clear()


class _FailingLib:
    """The bound OpenSSL with the named functions replaced."""

    def __init__(self, lib, **replaced):
        self._lib = lib
        vars(self).update(replaced)

    def __getattr__(self, name):
        return getattr(self._lib, name)


@pytest.fixture
def fail_modexp(monkeypatch):
    """Call to make every later OpenSSL modular exponentiation report failure."""
    failing = _FailingLib(_openssl.libcrypto(), BN_mod_exp_mont_consttime=lambda *args: 0)
    return lambda: monkeypatch.setattr(_openssl, "libcrypto", lambda: failing)


@pytest.fixture
def fail_kronecker(monkeypatch):
    """Call to make every later OpenSSL Jacobi symbol report failure (-2)."""
    failing = _FailingLib(_openssl.libcrypto(), BN_kronecker=lambda *args: -2)
    return lambda: monkeypatch.setattr(_openssl, "libcrypto", lambda: failing)


@pytest.fixture(scope="session")
def ca_env():
    """Shared CA with two enrolled parties, built once per test session.
    Treated as read-only by tests."""
    registry = netsim.make_environment(4242)
    alice = netsim.make_enrolled_party(registry, "alice", 1001)
    bob = netsim.make_enrolled_party(registry, "bob", 1002)
    return registry, alice, bob


@pytest.fixture(scope="session")
def small_dataset():
    """8 subjects x 3 impressions with mild capture noise."""
    profile = PerturbationProfile(translation_sigma=2.0, rotation_sigma=4.0, drop_rate=0.05)
    return synthesize_dataset(8, 3, profile, n_minutiae=40, seed=99)


@pytest.fixture(scope="session")
def cfg12():
    return QuantizationConfig.for_np(12)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def pinned_galleries():
    """Impression lists whose serialized minutiae and feature strings are
    pinned by SHA-256 digests computed with the per-minutia perturbation
    loop and the per-pair trigonometry.

    * ``cli``: the ``biokex eval`` default profile (2 px, 4 deg, 5% drop,
      190 minutiae) on a 4 x 4 gallery;
    * ``harsh``: a 12 x 10 image with 3 px and 200 deg noise and 10% drop,
      so positions clip at the border, angles wrap across 0/360 and many
      pairs share a position;
    * ``collide``: a grid of equal-angle minutiae under positional noise
      only, so rounded survivors collide and are deduplicated;
    * ``edge``: two-minutia sets and a set with a coincident pair.
    """
    def flat(dataset):
        return [mset for row in dataset for mset in row]

    grid = MinutiaeSet(
        "grid", 0, 8, 8,
        np.array([(x, y, 90.0) for x in range(0, 9, 2) for y in range(0, 9, 2)]).T,
    )
    two = synthesize_subject(2, 388, 374, seed=3)
    return {
        "cli": flat(synthesize_dataset(
            4, 4, PerturbationProfile(2.0, 4.0, 0.05), n_minutiae=190, seed=2024)),
        "harsh": flat(synthesize_dataset(
            6, 4, PerturbationProfile(3.0, 200.0, 0.1),
            n_minutiae=60, width=12, height=10, seed=7)),
        "collide": [
            perturb(grid, PerturbationProfile(translation_sigma=1.5), s) for s in range(8)
        ],
        "edge": [
            two,
            perturb(two, PerturbationProfile(2.0, 4.0), 5),
            MinutiaeSet("d", 0, 10, 10, [[5, 5, 7], [5, 5, 5], [0.0, 90.0, 10.0]]),
        ],
    }
