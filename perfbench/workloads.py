"""The four benchmark workloads, driven through the public ``biokex`` API.

Each workload builds its op inputs from the run seed alone, sets up (timed,
as ``setup_s``, on fixed seeds so that set-up does the same work on every
run), runs one reference op whose output digests are frozen in
``frozen.json``, then repeats ``op`` until the run time is used up; every
op's output goes through ``check``. Outputs are compared by SHA-256 digest
only, so no key, template or plaintext bytes leave the process.

Every op uses inputs no earlier op used (a fresh session id, sample seed or
dataset seed, and a fresh ``AdversaryPolicy``), so neither the arrangement
cache in ``biokex.transform`` nor an adversary capture carries over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from biokex import cli, evaluation, netsim, transform
from biokex.features import QuantizationConfig
from biokex.minutiae import PerturbationProfile, synthesize_dataset
from biokex.protocol import SessionEndpoint

# seed of the reference op's inputs; also the default --seed
REF_SEED = 0


def setup_seed(index: int) -> int:
    """Seed of set-up ``index``, the same for every run seed. Set-up 0 feeds
    the reference op and the timed ops; the others are only timed, on seeds
    of their own so that no cache can make a repeat cheaper."""
    return REF_SEED if index == 0 else derive(REF_SEED, 100 + index)


class CheckFailed(Exception):
    """An op's output is wrong."""


def derive(*words: int) -> int:
    """A 32-bit seed derived from the run seed and a tag."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint32)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_script(seed: int, n_messages: int, max_size: int) -> tuple[tuple[str, bytes], ...]:
    """Alternating-direction printable-ASCII messages, as a scenario file
    carries them. Sizes form a fixed geometric ladder from 16 B to
    ``max_size`` (so every seed moves the same bytes); order and content
    come from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
    sizes = np.rint(np.geomspace(16, max_size, n_messages)).astype(int)
    rng.shuffle(sizes)
    return tuple(
        ("a->b" if i % 2 == 0 else "b->a",
         rng.integers(0x21, 0x7F, size=int(size), dtype=np.uint8).tobytes())
        for i, size in enumerate(sizes)
    )


def _frame_digest(script) -> str:
    h = hashlib.sha256()
    for direction, text in script:
        h.update(f"{direction} {len(text)}\n".encode())
        h.update(text)
    return h.hexdigest()


class SessionWorkload:
    """``netsim.run_session`` between two parties enrolled with a seeded CA
    (30 minutiae each, n_p=15, RFC 3526), under a passive adversary.

    ``handshake`` carries two short messages; ``messaging`` a long script.
    """

    cold_arrangement_cache = False
    setups = 3

    def __init__(self, name: str, seed: int, script, ref_script):
        self.name = name
        self.seed = seed
        self.cfg = QuantizationConfig.for_np(15)
        self.script = script
        self.ref_script = ref_script
        self.op_seed = derive(seed, 2)
        self.plaintext_bytes = sum(len(text) for _, text in script)
        # digests of both sides' session keys, for the sk_a == sk_b check
        self.agreed: list[str] = []
        self._establish = SessionEndpoint.establish
        agreed = self.agreed
        original = self._establish

        def establish(endpoint, peer_pub):
            sk = original(endpoint, peer_pub)
            agreed.append(sha256(sk.key))
            return sk

        SessionEndpoint.establish = establish

    def close(self) -> None:
        SessionEndpoint.establish = self._establish

    def setup(self, index: int):
        """CA plus two enrollments."""
        s = setup_seed(index)
        registry = netsim.make_environment(s)
        alice = netsim.make_enrolled_party(registry, "alice", s + 1)
        bob = netsim.make_enrolled_party(registry, "bob", s + 2)
        return registry, alice, bob

    def _session(self, state, seed: int, session_id: int, script):
        registry, alice, bob = state
        self.agreed.clear()
        return netsim.run_session(
            alice, bob, netsim.AdversaryPolicy(), ca_public_key=registry.public_key,
            seed=seed, session_id=session_id, cfg=self.cfg, plaintexts=script,
        )

    def op(self, state, k: int):
        return self._session(state, self.op_seed, k + 1, self.script)

    def check(self, outcome, script=None) -> dict[str, str]:
        script = self.script if script is None else script
        if not outcome.established or outcome.failure_reason is not None:
            raise CheckFailed(f"session not established ({outcome.failure_reason})")
        if len(self.agreed) != 2 or self.agreed[0] != self.agreed[1]:
            raise CheckFailed("session keys of the two sides differ")
        if sha256(outcome.record.key) != self.agreed[0]:
            raise CheckFailed("recorded session key differs from the agreed one")
        if outcome.record.plaintexts != list(script):
            raise CheckFailed("delivered plaintexts differ from the script")
        if len(outcome.transcript) != 4 + len(script):
            raise CheckFailed(f"{len(outcome.transcript)} frames for {len(script)} messages")
        if outcome.attacker_learned_key or outcome.attacker_learned_plaintext:
            raise CheckFailed("passive adversary learned key or plaintext")
        return {"session_key": self.agreed[0],
                "plaintexts": _frame_digest(outcome.record.plaintexts)}

    def reference(self, ref_state) -> dict[str, str]:
        return self.check(self._session(ref_state, REF_SEED, 1, self.ref_script), self.ref_script)

    def human(self, op_s: list[float]) -> list[tuple[str, float, str, int]]:
        total = sum(op_s)
        if self.name == "handshake":
            return [
                ("handshake_ms_p50", median(op_s) * 1e3, "ms", len(op_s)),
                ("handshake_ms_p90", percentile(op_s, 0.9) * 1e3, "ms", len(op_s)),
                ("handshakes_per_s", len(op_s) / total if total else 0.0, "1/s", len(op_s)),
            ]
        return [("messaging_mb_per_s",
                 len(op_s) * self.plaintext_bytes / total / 1e6 if total else 0.0,
                 "MB/s", len(op_s))]


# `biokex eval` sizes: the CLI defaults (100 subjects x 8 impressions, 190
# minutiae, n_p=15), and a small gallery for the reference op and smoke runs
EVAL_FULL = ((), 100, 8)
EVAL_SMALL = (("--subjects", "6", "--impressions", "3", "--minutiae", "40"), 6, 3)


class GalleryEval:
    """``biokex eval --synthetic`` in-process through ``cli.dispatch``."""

    name = "gallery_eval"
    cold_arrangement_cache = True
    setups = 9

    def __init__(self, seed: int, smoke: bool, root: Path, out_dir: Path):
        # a fresh `biokex eval` process starts with an empty arrangement
        # cache, so every op empties it; this depends on the private name
        self.clear_arrangements = getattr(
            getattr(transform, "_arrangement", None), "cache_clear", None)
        if self.clear_arrangements is None:
            raise RuntimeError(
                "gallery_eval needs biokex.transform._arrangement.cache_clear() to "
                "start each op with an empty arrangement cache, and it is gone")
        self.seed = seed
        self.root = root
        self.args, self.subjects, self.impressions = EVAL_SMALL if smoke else EVAL_FULL
        self.dir = Path(tempfile.mkdtemp(prefix="eval-", dir=out_dir))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self, index: int):
        """What a `biokex eval` process pays before its first stage: a fresh
        interpreter importing the CLI."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import biokex.cli"], env=env,
                       cwd=self.root, check=True)
        return None

    def _eval(self, seed: int, args) -> int:
        self.clear_arrangements()
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(["eval", "--synthetic", "--seed", str(seed),
                                 "--out", str(self.dir / "roc.csv"),
                                 "--summary-out", str(self.dir / "summary.txt"), *args])

    def op(self, state, k: int) -> int:
        return self._eval(derive(self.seed, 200 + k), self.args)

    def check(self, rc: int, subjects=None, impressions=None) -> dict[str, str]:
        subjects = self.subjects if subjects is None else subjects
        impressions = self.impressions if impressions is None else impressions
        if rc != 0:
            raise CheckFailed(f"biokex eval exited {rc}")
        roc = (self.dir / "roc.csv").read_bytes()
        summary = (self.dir / "summary.txt").read_bytes()
        lines = roc.decode().splitlines()
        if lines[0] != "threshold,far,frr,gar":
            raise CheckFailed("ROC CSV header")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        t, far, frr, gar = rows.T
        # the closing threshold sits one ulp above the top score, so at the
        # CSV's 9 decimals the last two thresholds can print equal
        if not (np.all(np.diff(t) >= 0) and np.all(np.diff(far) <= 0) and np.all(np.diff(frr) >= 0)):
            raise CheckFailed("ROC sweep is not monotone")
        if (far[0], frr[0], far[-1], frr[-1]) != (1.0, 0.0, 0.0, 1.0):
            raise CheckFailed("ROC sweep does not run FAR 1->0 and FRR 0->1")
        if not np.allclose(gar, 1.0 - frr, atol=2e-9):
            raise CheckFailed("GAR != 1 - FRR")
        fields = dict(line.split("=", 1) for line in summary.decode().splitlines())
        expected = {"genuine": subjects * math.comb(impressions, 2),
                    "impostor": math.comb(subjects, 2)}
        for label, count in expected.items():
            histogram = [int(c) for c in fields[f"{label}.histogram"].split(",")]
            if int(fields[f"{label}.count"]) != count or sum(histogram) != count:
                raise CheckFailed(f"{label} count is not {count}")
        return {"roc_csv": sha256(roc), "summary": sha256(summary)}

    def reference(self, ref_state) -> dict[str, str]:
        args, subjects, impressions = EVAL_SMALL
        return self.check(self._eval(REF_SEED, args), subjects, impressions)

    def human(self, op_s: list[float]) -> list[tuple[str, float, str, int]]:
        return [("gallery_eval_s", median(op_s), "s", len(op_s))]


class KeyStudy:
    """``evaluation.session_key_sample`` in acceptance criterion 3's shape:
    16-minutia one-impression subjects, n_p=12, fresh keys on both sides."""

    name = "key_study"
    subjects = 16
    cold_arrangement_cache = False
    setups = 15

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = QuantizationConfig.for_np(12)

    def close(self) -> None:
        pass

    def setup(self, index: int):
        """Dataset synthesis."""
        return synthesize_dataset(self.subjects, 1, PerturbationProfile(), n_minutiae=16,
                                  seed=setup_seed(index))

    def op(self, dataset, k: int) -> list[bytes]:
        return evaluation.session_key_sample(dataset, self.cfg, seed=derive(self.seed, 400 + k))

    def check(self, keys: list[bytes]) -> dict[str, str]:
        if len(keys) != self.subjects // 2 or any(len(key) != 32 for key in keys):
            raise CheckFailed(f"expected {self.subjects // 2} 32-byte keys")
        if len(set(keys)) != len(keys):
            raise CheckFailed("two impostor pairings agreed the same key")
        return {"session_keys": sha256(b"".join(keys))}

    def reference(self, ref_state) -> dict[str, str]:
        return self.check(evaluation.session_key_sample(ref_state, self.cfg, seed=REF_SEED))

    def human(self, op_s: list[float]) -> list[tuple[str, float, str, int]]:
        total = sum(op_s)
        keys = len(op_s) * (self.subjects // 2)
        return [("session_keys_per_s", keys / total if total else 0.0, "1/s", keys)]


def make(name: str, seed: int, smoke: bool, root: Path, out_dir: Path):
    if name == "handshake":
        return SessionWorkload(name, seed, make_script(derive(seed, 1), 2, 32),
                               make_script(REF_SEED, 2, 32))
    if name == "messaging":
        n, top = (8, 1024) if smoke else (300, 16384)
        return SessionWorkload(name, seed, make_script(derive(seed, 1), n, top),
                               make_script(REF_SEED, 8, 1024))
    if name == "gallery_eval":
        return GalleryEval(seed, smoke, root, out_dir)
    if name == "key_study":
        return KeyStudy(seed)
    raise ValueError(f"unknown workload {name!r}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]
