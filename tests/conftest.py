import sys

import numpy as np
import pytest

from biokex import _openssl, netsim
from biokex.features import QuantizationConfig
from biokex.minutiae import (
    Minutia,
    MinutiaeSet,
    PerturbationProfile,
    perturb,
    synthesize_dataset,
    synthesize_subject,
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


@pytest.fixture
def fail_modexp(monkeypatch):
    """Call to make every later OpenSSL modular exponentiation report failure."""
    lib = _openssl.libcrypto()

    class FailingExp:
        def __getattr__(self, name):
            return getattr(lib, name)

        def BN_mod_exp_mont_consttime(self, *args):
            return 0

    return lambda: monkeypatch.setattr(_openssl, "libcrypto", lambda: FailingExp())


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
    * ``harsh``: a 12 x 10 image with 3 px and 200 deg noise and 30%
      spurious minutiae, so positions clip at the border, angles wrap
      across 0/360 and many pairs share a position;
    * ``collide``: a grid of equal-angle minutiae under positional noise
      only, so rounded survivors collide and are deduplicated;
    * ``edge``: two-minutia sets and a set with a coincident pair.
    """
    def flat(dataset):
        return [mset for row in dataset for mset in row]

    grid = MinutiaeSet(
        "grid", 0, 8, 8,
        tuple(Minutia(x, y, 90.0) for x in range(0, 9, 2) for y in range(0, 9, 2)),
    )
    two = synthesize_subject(2, 388, 374, seed=3)
    return {
        "cli": flat(synthesize_dataset(
            4, 4, PerturbationProfile(2.0, 4.0, 0.05), n_minutiae=190, seed=2024)),
        "harsh": flat(synthesize_dataset(
            6, 4, PerturbationProfile(3.0, 200.0, 0.1, 0.3),
            n_minutiae=60, width=12, height=10, seed=7)),
        "collide": [
            perturb(grid, PerturbationProfile(1.5, 0.0, 0.0, 0.2, rng_seed=s))
            for s in range(8)
        ],
        "edge": [
            two,
            perturb(two, PerturbationProfile(2.0, 4.0, rng_seed=5)),
            MinutiaeSet(
                "d", 0, 10, 10,
                (Minutia(5, 5, 0.0), Minutia(5, 5, 90.0), Minutia(7, 5, 10.0)),
            ),
        ],
    }
