import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biokex
from conftest import child_env, run_cli

from biokex import netsim
from biokex.cli import EXIT_DATA, EXIT_USAGE, dispatch
from biokex.evaluation import ROC_CSV_HEADER
from biokex.features import QuantizationConfig, extract_features
from biokex.minutiae import (
    PerturbationProfile, serialize_minutiae, synthesize_dataset, synthesize_subject,
)
from biokex.pipeline import revocable_template
from biokex.transform import TransformationKey

EVAL_ARGS = [
    "eval", "--synthetic", "--subjects", "6", "--impressions", "3",
    "--minutiae", "40", "--seed", "42",
]


def test_child_imports_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import biokex; print(biokex.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(biokex.__file__).resolve()


def test_no_arguments_is_usage_error(tmp_path):
    proc = run_cli([], tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert "usage" in proc.stderr.lower()


def test_dispatch_maps_usage_exit():
    assert dispatch([]) == EXIT_USAGE
    assert dispatch(["--help"]) == 0


def test_eval_writes_csv_with_header(tmp_path):
    proc = run_cli(EVAL_ARGS + ["--out", "roc.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == ROC_CSV_HEADER
    assert len(lines) > 10
    assert "eer=" in proc.stdout


def test_eval_identical_argv_identical_bytes(tmp_path):
    """Identical argv + seed must give byte-identical output files, across
    separate processes."""
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    p1 = run_cli(EVAL_ARGS + ["--out", "roc.csv"], tmp_path / "one")
    p2 = run_cli(EVAL_ARGS + ["--out", "roc.csv"], tmp_path / "two")
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0, p2.stderr
    assert (tmp_path / "one/roc.csv").read_bytes() == (tmp_path / "two/roc.csv").read_bytes()
    assert p1.stdout == p2.stdout


def test_eval_seed_changes_output(tmp_path):
    for args in (EVAL_ARGS + ["--out", "a.csv"], EVAL_ARGS[:-1] + ["43", "--out", "b.csv"]):
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_eval_requires_synthetic_flag(tmp_path):
    proc = run_cli(["eval", "--subjects", "4", "--out", "x.csv"], tmp_path)
    assert proc.returncode == EXIT_USAGE


def test_eval_rejects_degenerate_gallery(tmp_path):
    proc = run_cli(["eval", "--synthetic", "--subjects", "1", "--out", "x.csv"], tmp_path)
    assert proc.returncode == EXIT_DATA


@pytest.mark.parametrize("argv", [
    ["eval", "--synthetic", "--subjects", "2", "--impressions", "2", "--minutiae", "10",
     "--seed", "-1", "--out", "x.csv"],
    ["keygen", "--seed", "-1"],
    ["attack", "--scenario-file", "scenario.txt"],
    ["session", "--seed", "-1"],
    ["attack", "--scenario", "passive", "--seed", "-1"],
    ["ca-init", "--out-dir", "ca", "--seed", "-1"],
    ["enroll", "--ca-dir", "ca", "--user-id", "x", "--seed", "-1"],
])
def test_negative_seed_is_data_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.txt").write_text("adversary passive\nseed -3\n")
    assert dispatch(argv) == EXIT_DATA
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_attack_mitm_record(tmp_path):
    proc = run_cli(["attack", "--scenario", "mitm", "--seed", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    assert record["failure_reason"] == "certificate-verification"
    assert record["established"] == "false"


@pytest.mark.parametrize("scenario", ["passive", "replay", "host-compromise"])
def test_attack_scenarios_exit_zero(tmp_path, scenario):
    proc = run_cli(["attack", "--scenario", scenario, "--seed", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the stolen key opens its own session's frames
    learned = "true" if scenario == "host-compromise" else "false"
    assert f"attacker_learned_plaintext={learned}" in proc.stdout


def test_attack_scenario_file(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "adversary mitm\nparty a alice\nparty b bob\n"
        "message a->b the convoy leaves at midnight\nseed 4\n"
    )
    out = tmp_path / "record.txt"
    proc = run_cli(["attack", "--scenario-file", "scenario.txt", "--out", "record.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "failure_reason=certificate-verification" in out.read_text()


def test_attack_requires_scenario(tmp_path):
    proc = run_cli(["attack"], tmp_path)
    assert proc.returncode == EXIT_USAGE


# stdout of `biokex keygen --seed 3`, pinned before Diffie-Hellman moved off
# the `cryptography` DH exchange onto the shared OpenSSL modexp binding
KEYGEN_SEED3_STDOUT = """\
minutiae=30 pairs=435 popcount=433 bits=32768
features_digest=738a5ce9f250920cb4c7159a6e8f415f782847f78f4191b346ca52dbe2993add
template_digest=69f9f9e04cf1e14ff831fe7a73a3097790c45150af5ef22b8093a08efb28d94e
private_key_fingerprint=6f615182082f365a7874376c87bdfcfec047c9f2137b11ee4c1f74822b6fb7c0
public_key_fingerprint=f0e4325560be177b16b405b127e8620e11249c00f1cd5ccf71605b4f88345f1e
"""


def test_keygen_prints_digests_only(tmp_path):
    proc = run_cli(["keygen", "--seed", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == KEYGEN_SEED3_STDOUT
    digests = re.findall(r"=([0-9a-f]{64})$", proc.stdout, flags=re.M)
    assert len(digests) == 4  # features, template, private, public
    # nothing resembling raw template material (kilobytes of hex) in output
    assert max(len(line) for line in proc.stdout.splitlines()) < 100


def test_keygen_from_minutiae_file(tmp_path):
    (tmp_path / "probe.txt").write_bytes(b"388 374\n" + b"\n".join(
        b"%d %d %d" % (10 * i, 7 * i, (29 * i) % 360) for i in range(1, 21)
    ) + b"\n")
    proc = run_cli(["keygen", "--minutiae-file", "probe.txt", "--seed", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "minutiae=20" in proc.stdout


def test_keygen_from_a_written_subject_prints_the_synthetic_bytes(tmp_path):
    # the parser's rows and the synthetic draw reach the same (3, n) points
    (tmp_path / "subject.txt").write_bytes(serialize_minutiae(synthesize_subject(30, 388, 374, 3)))
    proc = run_cli(["keygen", "--minutiae-file", "subject.txt", "--seed", "3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == KEYGEN_SEED3_STDOUT


@pytest.mark.parametrize("header, row", [(b"388 374", b"%d 5 10" % 10**400),
                                         (b"%d 374" % 10**400, b"%d 5 10" % 10**400),
                                         (b"%d 374" % 2**31, b"2147483648 5 10")])
def test_keygen_rejects_oversized_coordinates(tmp_path, header, row):
    (tmp_path / "big.txt").write_bytes(header + b"\n" + row + b"\n3 4 20\n")
    proc = run_cli(["keygen", "--minutiae-file", "big.txt", "--seed", "3"], tmp_path)
    assert proc.returncode == EXIT_DATA == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "line" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["keygen", "--minutiae", "1025", "--seed", "3"],
    ["keygen", "--minutiae-file", "many.txt", "--seed", "3"],
    ["eval", "--synthetic", "--subjects", "2", "--impressions", "2", "--minutiae", "1025",
     "--out", "roc.csv"],
])
def test_more_minutiae_than_a_set_holds_is_a_data_error(tmp_path, argv):
    (tmp_path / "many.txt").write_bytes(b"2000 10\n" + b"".join(
        b"%d 5 10\n" % k for k in range(1025)
    ))
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == EXIT_DATA == 3, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "too many minutiae" in proc.stderr and "at most 1024" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "roc.csv").exists()


@pytest.mark.parametrize("option, field", [
    ("--noise", "translation_sigma"), ("--rotation-noise", "rotation_sigma"),
])
def test_eval_refuses_a_sigma_whose_draws_could_overflow(tmp_path, option, field):
    proc = run_cli(["eval", "--synthetic", "--subjects", "3", "--impressions", "2",
                    "--minutiae", "20", option, "1e308", "--out", "roc.csv"], tmp_path)
    assert proc.returncode == EXIT_DATA == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {field} must be finite")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not (tmp_path / "roc.csv").exists()


@pytest.mark.parametrize("lmax", ["nan", "inf"])
def test_keygen_rejects_non_finite_lmax(tmp_path, lmax):
    proc = run_cli(["keygen", "--seed", "3", "--lmax", lmax], tmp_path)
    assert proc.returncode == EXIT_DATA == 3, proc.stderr
    assert proc.stderr.startswith("error:") and "l_max" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


def test_keygen_tiny_lmax_writes_nothing_to_stderr(tmp_path):
    # every distance clamps into the top L bin; the overflowing quotient
    # behind that is not a warning
    proc = run_cli(["keygen", "--seed", "3", "--lmax", "1e-305"], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_keygen_missing_file_is_data_error(tmp_path):
    proc = run_cli(["keygen", "--minutiae-file", "absent.txt"], tmp_path)
    assert proc.returncode == EXIT_DATA


# SHA-256 of `ca-init --seed 5` then `enroll --user-id alice --seed 6
# --time 1700000000`, pinned when seeded keys became Ed25519
ENROLL_SHA256 = {
    "ca/alice.cert": "0a6eb5a7794d79a8d3f91b149025a939b02283bf81649c65de67727d4d038beb",
    "ca/alice_key.pem": "2c51441e6a713510481b5d9d16ce3de36635d6e0915b8bd572a9fb208bc31e7e",
    "ca/registry.txt": "ad411108716391f5b0ed34b82ac11952a56ead450d4188c59020a593e0e99bae",
}


def test_ca_init_and_enroll_deterministic(tmp_path):
    for d in ("one", "two"):
        base = tmp_path / d
        base.mkdir()
        for args in (
            ["ca-init", "--out-dir", "ca", "--seed", "5"],
            ["enroll", "--ca-dir", "ca", "--user-id", "alice", "--seed", "6", "--time", "1700000000"],
        ):
            proc = run_cli(args, base)
            assert proc.returncode == 0, proc.stderr
    for name in ("ca/ca_key.pem", "ca/ca_pub.der", "ca/registry.txt", "ca/alice.cert"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    registry_line = (tmp_path / "one/ca/registry.txt").read_text().strip()
    assert registry_line.startswith("alice ") and registry_line.endswith(" 1700000000")
    for name, digest in ENROLL_SHA256.items():
        assert hashlib.sha256((tmp_path / "one" / name).read_bytes()).hexdigest() == digest, name


def test_enroll_duplicate_user_is_data_error(tmp_path):
    init = run_cli(["ca-init", "--out-dir", "ca", "--seed", "5"], tmp_path)
    assert init.returncode == 0, init.stderr
    first = run_cli(["enroll", "--ca-dir", "ca", "--user-id", "bob", "--seed", "6", "--time", "1"], tmp_path)
    assert first.returncode == 0, first.stderr
    second = run_cli(["enroll", "--ca-dir", "ca", "--user-id", "bob", "--seed", "7", "--time", "2"], tmp_path)
    assert second.returncode == EXIT_DATA


def _tree(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def test_enroll_id_with_space_is_refused_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dispatch(["ca-init", "--out-dir", "ca", "--seed", "5"]) == 0
    smith = ["enroll", "--ca-dir", "ca", "--user-id", "bob smith", "--time", "1"]
    assert dispatch([*smith, "--seed", "6"]) == 0
    before = _tree(tmp_path)
    assert {"ca/bob smith.cert", "ca/bob smith_key.pem"} <= set(before)
    assert dispatch([*smith, "--seed", "7"]) == EXIT_DATA
    assert _tree(tmp_path) == before
    assert dispatch(["enroll", "--ca-dir", "ca", "--user-id", "bob", "--seed", "7"]) == 0
    assert (tmp_path / "ca" / "bob.cert").exists()


@pytest.mark.parametrize("user_id", ["../outside", "two\nlines"])
def test_enroll_id_that_is_not_a_file_name_writes_nothing(tmp_path, monkeypatch, user_id):
    monkeypatch.chdir(tmp_path)
    assert dispatch(["ca-init", "--out-dir", "ca", "--seed", "5"]) == 0
    before = _tree(tmp_path)
    assert dispatch(["enroll", "--ca-dir", "ca", "--user-id", user_id, "--seed", "6"]) == EXIT_DATA
    assert _tree(tmp_path) == before


def test_ca_init_refuses_existing_ca(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dispatch(["ca-init", "--out-dir", "ca", "--seed", "5"]) == 0
    before = _tree(tmp_path)
    assert set(before) == {"ca/ca_key.pem", "ca/ca_pub.der", "ca/registry.txt"}
    assert dispatch(["ca-init", "--out-dir", "ca", "--seed", "6"]) == EXIT_DATA
    assert _tree(tmp_path) == before


def test_refusals_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert dispatch(["ca-init", "--out-dir", "ca", "--seed", "5"]) == 0
    assert dispatch(["enroll", "--ca-dir", "ca", "--user-id", "bob", "--seed", "6"]) == 0
    capsys.readouterr()
    before = _tree(tmp_path)
    cases = [
        (["enroll", "--ca-dir", "ca", "--user-id", "bob"], "error: user 'bob' already enrolled"),
        (["enroll", "--ca-dir", "ca", "--user-id", "../outside"],
         "error: user id '../outside' is not one printable file name"),
        (["ca-init", "--out-dir", "ca"],
         f"error: {Path('ca', 'ca_key.pem')} exists; a CA directory is initialized once"),
        (["enroll", "--ca-dir", "ca", "--user-id", "ca"],
         "error: user id 'ca' would overwrite a file of the CA"),
    ]
    for argv, message in cases:
        assert dispatch([*argv, "--seed", "7"]) == EXIT_DATA, argv
        assert capsys.readouterr().err.strip() == message
        assert _tree(tmp_path) == before, argv


def test_enroll_without_ca_is_data_error(tmp_path):
    proc = run_cli(["enroll", "--ca-dir", "missing", "--user-id", "x", "--seed", "1"], tmp_path)
    assert proc.returncode == EXIT_DATA


def test_session_reports_key_fingerprint_not_key(tmp_path):
    proc = run_cli(["session", "--seed", "11", "--out", "session.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "session.txt").read_text()
    assert "established=true" in text
    match = re.search(r"session_key_fingerprint=([0-9a-f]{64})", text)
    assert match

    # reproduce the run in-process: neither the session key nor its hex may
    # appear in anything the command wrote
    registry = netsim.make_environment(11)
    a = netsim.make_enrolled_party(registry, "alice", 12)
    b = netsim.make_enrolled_party(registry, "bob", 13)
    outcome = netsim.run_session(a, b, netsim.AdversaryPolicy(),
                                 ca_public_key=registry.public_key, seed=11, session_id=1)
    key = outcome.record.key
    written = (tmp_path / "session.txt").read_bytes()
    assert key not in written
    assert key.hex().encode() not in written


def test_session_transcript_export(tmp_path):
    proc = run_cli(
        ["session", "--seed", "11", "--out", "s.txt", "--transcript-out", "t.txt"], tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    transcript = (tmp_path / "t.txt").read_bytes()
    # pinned when certificates became Ed25519; only the certificate frames moved
    assert hashlib.sha256(transcript).hexdigest() == (
        "d548ef6a77a6b6cd45e4ebc4607e738fec5d2d382ae4d2d31688537729651335"
    )
    lines = transcript.decode().splitlines()
    assert len(lines) >= 6  # two certs, two pubs, two data frames
    for line in lines:
        direction, hexframe = line.split()
        assert direction in ("a->b", "b->a")
        bytes.fromhex(hexframe)


def test_eval_summary_out(tmp_path):
    proc = run_cli(EVAL_ARGS + ["--out", "roc.csv", "--summary-out", "summary.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "summary.txt").read_text()
    assert "genuine.mean=" in text and "impostor.std=" in text


def test_no_outputs_contain_template_bytes(tmp_path):
    """Scan everything the eval run writes for raw template material."""
    proc = run_cli(EVAL_ARGS + ["--out", "roc.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr

    profile = PerturbationProfile(translation_sigma=2.0, rotation_sigma=4.0, drop_rate=0.05)
    dataset = synthesize_dataset(6, 3, profile, n_minutiae=40, seed=42)
    cfg = QuantizationConfig.for_np(15, l_max=540.0)
    tkey = TransformationKey(b"shared-eval-key!")
    template = revocable_template(dataset[0][0], cfg, tkey)
    # the eval scores feature strings, so scan for the unpermuted one too
    features = extract_features(dataset[0][0], cfg)
    secret_strings = [
        np.packbits(fbs.bits, bitorder="big").tobytes() for fbs in (template, features)
    ]

    for path in tmp_path.rglob("*"):
        if path.is_file():
            blob = path.read_bytes()
            for packed in secret_strings:
                assert packed not in blob
                assert packed.hex().encode() not in blob
