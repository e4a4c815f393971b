"""Command-line entry point.

Subcommands: ca-init, enroll, session, attack, eval, keygen. All randomness
flows from --seed, so identical argument vectors produce byte-identical
output files. No subcommand ever writes biometric templates or session keys
to disk; keygen prints stage fingerprints (SHA-256 digests), never raw
material.

Exit codes: 0 success, 2 usage error, 3 data error, 4 protocol failure,
5 assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import evaluation, netsim
from .ca import USER_KEY, CaError, CaRegistry
from .features import FeatureError, QuantizationConfig, extract_features
from .keyagree import RFC3526_2048, derive_private_key, public_key
from .minutiae import (
    SENSOR_HEIGHT,
    SENSOR_WIDTH,
    MinutiaeError,
    PerturbationProfile,
    parse_minutiae_file,
    synthesize_dataset,
    synthesize_subject,
)
from .protocol import ProtocolError
from .transform import TransformationKey, permute

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PROTOCOL = 4
EXIT_ASSERTION = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed for all randomness")
    parser.add_argument("--np", dest="n_p", type=int, default=15,
                        help="feature code width in bits (default 15)")
    parser.add_argument("--lmax", type=float, default=540.0,
                        help="distance quantization range in pixels (default 540)")


def _cfg(args) -> QuantizationConfig:
    return QuantizationConfig.for_np(args.n_p, l_max=args.lmax)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biokex",
        description="Fingerprint-derived revocable session keys: CA lifecycle, "
        "simulated sessions, attack scenarios, and evaluation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ca-init", help="create a CA key pair and empty registry")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enroll", help="enroll a user and write their certificate")
    p.add_argument("--ca-dir", type=Path, required=True)
    p.add_argument("--user-id", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time", type=int, default=None,
                   help="enrollment timestamp (defaults to wall clock; pin for reproducible output)")

    p = sub.add_parser("session", help="run one simulated two-party session")
    _add_common(p)
    p.add_argument("--out", type=Path, default=None, help="write the record here instead of stdout")
    p.add_argument("--transcript-out", type=Path, default=None,
                   help="export the delivered frames as newline-delimited hex records")

    p = sub.add_parser("attack", help="run an adversary scenario")
    p.add_argument("--scenario", choices=["passive", "replay", "mitm", "host-compromise"])
    p.add_argument("--scenario-file", type=Path, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("eval", help="ROC/EER evaluation over a synthetic gallery")
    _add_common(p)
    p.add_argument("--synthetic", action="store_true",
                   help="synthesize the gallery (required; file galleries are out of scope)")
    p.add_argument("--subjects", type=int, default=100)
    p.add_argument("--impressions", type=int, default=8)
    p.add_argument("--minutiae", type=int, default=190, help="minutiae per synthetic subject")
    p.add_argument("--noise", type=float, default=2.0, help="translation sigma in pixels")
    p.add_argument("--rotation-noise", type=float, default=4.0, help="rotation sigma in degrees")
    p.add_argument("--drop-rate", type=float, default=0.05)
    p.add_argument("--out", type=Path, required=True, help="ROC CSV output path")
    p.add_argument("--summary-out", type=Path, default=None,
                   help="also write genuine/impostor distribution summaries here")

    p = sub.add_parser("keygen", help="print pipeline stage fingerprints for one subject")
    _add_common(p)
    p.add_argument("--minutiae-file", type=Path, default=None,
                   help="minutiae text file (defaults to a synthetic subject)")
    p.add_argument("--minutiae", type=int, default=30)

    return parser


def _cmd_ca_init(args) -> int:
    netsim.make_environment(args.seed, args.out_dir)
    print(f"CA initialized in {args.out_dir}")
    return EXIT_OK


def _cmd_enroll(args) -> int:
    registry = CaRegistry.open(args.ca_dir)
    party = netsim.make_enrolled_party(registry, args.user_id, args.seed, now=args.time)
    party.keypair.save_private(args.ca_dir / USER_KEY.format(args.user_id))
    print(f"enrolled {args.user_id} in {args.ca_dir}")
    return EXIT_OK


def _cmd_session(args) -> int:
    registry = netsim.make_environment(args.seed)
    a = netsim.make_enrolled_party(registry, "alice", args.seed + 1)
    b = netsim.make_enrolled_party(registry, "bob", args.seed + 2)
    outcome = netsim.run_session(
        a, b, netsim.AdversaryPolicy(), ca_public_key=registry.public_key,
        seed=args.seed, session_id=1, cfg=_cfg(args),
    )
    key_fpr = hashlib.sha256(outcome.record.key).hexdigest() if outcome.record else "-"
    lines = [
        f"established={'true' if outcome.established else 'false'}",
        f"session_id={outcome.session_id}",
        f"session_key_fingerprint={key_fpr}",
        f"frames={len(outcome.transcript)}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if args.transcript_out:
        args.transcript_out.write_text(
            netsim.format_transcript(outcome.transcript), encoding="utf-8"
        )
    return EXIT_OK if outcome.established else EXIT_PROTOCOL


def _cmd_attack(args) -> int:
    if args.scenario_file is not None:
        scenario = netsim.load_scenario(args.scenario_file.read_text(encoding="utf-8"))
    elif args.scenario is not None:
        scenario = netsim.Scenario(netsim.AdversaryMode(args.scenario), seed=args.seed)
    else:
        print("error: provide --scenario or --scenario-file", file=sys.stderr)
        return EXIT_USAGE
    record = netsim.run_scenario(scenario)
    text = "\n".join(record.to_lines()) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not args.synthetic:
        print("error: only --synthetic galleries are supported", file=sys.stderr)
        return EXIT_USAGE
    if args.subjects < 2 or args.impressions < 2:
        print("error: need at least 2 subjects and 2 impressions", file=sys.stderr)
        return EXIT_DATA
    profile = PerturbationProfile(
        translation_sigma=args.noise,
        rotation_sigma=args.rotation_noise,
        drop_rate=args.drop_rate,
    )
    dataset = synthesize_dataset(
        args.subjects, args.impressions, profile,
        n_minutiae=args.minutiae, seed=args.seed,
    )
    scores = evaluation.template_similarity_scores(dataset, _cfg(args))
    evaluation.write_roc_csv(evaluation.compute_roc(scores), args.out)
    genuine = evaluation.DistributionSummary.from_samples(scores.genuine)
    impostor = evaluation.DistributionSummary.from_samples(scores.impostor)
    if args.summary_out:
        evaluation.write_summary_records(
            {"genuine": genuine, "impostor": impostor}, args.summary_out
        )
    print(f"genuine_mean={genuine.mean:.4f} impostor_mean={impostor.mean:.4f} "
          f"separation={genuine.mean - impostor.mean:.4f} eer={evaluation.eer(scores):.4f}")
    print(f"roc written to {args.out}")
    return EXIT_OK


def _cmd_keygen(args) -> int:
    if args.minutiae_file is not None:
        mset = parse_minutiae_file(args.minutiae_file.read_bytes(),
                                   subject_id=args.minutiae_file.stem)
    else:
        mset = synthesize_subject(args.minutiae, SENSOR_WIDTH, SENSOR_HEIGHT, args.seed)
    cfg = _cfg(args)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x7E]))
    tkey = TransformationKey.random(rng)
    features = extract_features(mset, cfg)
    template = permute(features, tkey)
    prv = derive_private_key(template)
    pub = public_key(RFC3526_2048, prv)
    print(f"minutiae={len(mset)} pairs={len(mset) * (len(mset) - 1) // 2} "
          f"popcount={features.popcount} bits={1 << cfg.n_p}")
    print(f"features_digest={hashlib.sha256(features.serialize()).hexdigest()}")
    print(f"template_digest={hashlib.sha256(template.serialize()).hexdigest()}")
    print(f"private_key_fingerprint={hashlib.sha256(prv.to_bytes()).hexdigest()}")
    print(f"public_key_fingerprint={hashlib.sha256(pub.to_bytes()).hexdigest()}")
    return EXIT_OK


_COMMANDS = {
    "ca-init": _cmd_ca_init,
    "enroll": _cmd_enroll,
    "session": _cmd_session,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "keygen": _cmd_keygen,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (MinutiaeError, FeatureError, CaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
