"""biokex benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload handshake --seed 3 --seconds 15 --trace 0

Run from the repository root (the library is imported from ``src/``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the calls into each ``biokex`` module.
``--workload all`` runs the four workloads one after another, each in its
own process. ``--smoke`` shrinks sizes and set-up repeats for a quick check.
The last stdout line is the result; the full record (environment stamp,
per-op latencies, sample counts, digests) and, when tracing, the spans are
written under ``.perfbench-out/``. See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FROZEN = HERE / "frozen.json"
WORKLOADS = ("handshake", "gallery_eval", "key_study", "messaging")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes and a single set-up")
    p.add_argument("--freeze", action="store_true",
                   help="write this workload's reference digests to frozen.json instead of checking")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import cryptography
    import numpy

    git_sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or git_sha
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] \
            + (["--smoke"] if args.smoke else [])
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "biokex" / "__init__.py").is_file():
        print(f"error: no biokex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, args.seed, args.smoke, ROOT, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        record = measure(args, wl, tracer)
    finally:
        wl.close()
    record["environment"] = environment(args.seed)
    if tracer is not None:
        record["missing_wrappers"] = tracer.missing
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start_ns", "end_ns", "parent", "op", "items", "error"],
             "spans": tracer.spans}))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    if args.freeze and record["reference_digests"]:
        frozen = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}
        frozen[args.workload] = record["reference_digests"]
        FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}{' smoke' if args.smoke else ''}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    # a wrapper that no longer resolves would read as a layer off the path
    for dotted in record.get("missing_wrappers", []):
        print(f"# FAILED no function biokex.{dotted} to trace")
    for name, value, unit, samples in record["table"]:
        print(f"{name:34s} {value:>14.6g} {unit:8s} n={samples}")
    correct = record["failed"] == 0 and not record.get("missing_wrappers")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if correct else 1


def measure(args, wl, tracer) -> dict:
    import workloads

    n_setups = 1 if args.smoke else wl.setups
    failures: list[str] = []
    attempted = 0

    def record_failure(what: str, exc: Exception) -> None:
        failures.append(f"{what}: {type(exc).__name__}: {str(exc)[:200]}")

    setup_s: list[float] = []

    def setup():
        with tracer.recording("setup") if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            state = wl.setup(len(setup_s))
            setup_s.append((time.perf_counter_ns() - t0) / 1e9)
        return state

    # set-up 0 feeds the reference op and the timed ops; the other set-ups
    # are spread evenly over the timed ops, so that their median spans the
    # host's slow and fast stretches, and their time does not count as op time
    state = setup()

    # the reference op also warms lazy initialisation before timing starts
    attempted += 1
    digests: dict[str, str] = {}
    try:
        digests = wl.reference(state)
        if not args.freeze:
            frozen = json.loads(FROZEN.read_text()).get(wl.name, {})
            for key, value in digests.items():
                if frozen.get(key) != value:
                    raise workloads.CheckFailed(f"reference digest {key} differs from frozen")
    except Exception as exc:
        record_failure("reference", exc)

    op_s: list[float] = []
    traced_ns: dict[int, int] = {}
    untraced_s: list[float] = []
    k = 0
    op_elapsed = 0.0
    while op_elapsed < args.seconds:
        while len(setup_s) < n_setups and op_elapsed >= len(setup_s) / n_setups * args.seconds:
            setup()
        traced = tracer is not None and k % 2 == 1
        attempted += 1
        if traced and wl.cold_arrangement_cache:
            tracer.forget_keys()
        t_op = time.perf_counter()
        try:
            with tracer.recording(k) if traced else nullcontext():
                t0 = time.perf_counter_ns()
                result = wl.op(state, k)
                dt = time.perf_counter_ns() - t0
            if traced:
                traced_ns[k] = dt
            else:
                untraced_s.append(dt / 1e9)
            op_s.append(dt / 1e9)
            wl.check(result)
        except Exception as exc:
            record_failure(f"op {k}", exc)
        op_elapsed += time.perf_counter() - t_op
        k += 1
    while len(setup_s) < n_setups:
        setup()

    failed = len(failures)
    table = [("setup_s", statistics.median(setup_s), "s", len(setup_s))]
    if args.trace:
        metrics = tracing_metrics(tracer, traced_ns, untraced_s, n_setups)
    else:
        op_ms = [s * 1e3 for s in op_s]
        total = sum(op_s)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_ms_p90": (workloads.percentile(op_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        table += wl.human(op_s) + [
            ("op_ms_p50", workloads.median(op_ms), "ms", len(op_ms)),
            ("op_ms_p90", metrics["op_ms_p90"][0], "ms", len(op_ms)),
            ("ops_per_s", len(op_s) / total if total else 0.0, "1/s", len(op_s)),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1),
        ]
        quarter = len(op_ms) // 4
        if quarter:
            drift = statistics.median(op_ms[-quarter:]) / statistics.median(op_ms[:quarter]) - 1
            table.append(("drift_last_vs_first_quarter", drift, "ratio", quarter))
    table.append(("error_rate", failed / attempted, "ratio", attempted))
    if args.trace:
        table += [(name, value, unit, len(traced_ns)) for name, (value, unit) in metrics.items()]
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s": setup_s,
        "op_ms": [s * 1e3 for s in op_s],
        "reference_digests": digests,
        "table": table,
        "metrics": metrics,
    }


def tracing_metrics(tracer, traced_ns, untraced_s, n_setups) -> dict:
    import tracer as tracing

    metrics = tracing.layer_metrics(tracer, traced_ns, n_setups)
    if traced_ns and untraced_s:
        traced = statistics.median(traced_ns.values()) / 1e9
        overhead = traced / statistics.median(untraced_s) - 1
    else:
        overhead = 0.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
