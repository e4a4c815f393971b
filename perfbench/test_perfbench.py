"""Checks on the benchmark itself, run in smoke mode.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the named metrics each workload's table prints besides the bounded ones
NAMED = {
    "handshake": ["handshake_ms_p50", "handshake_ms_p90", "handshakes_per_s"],
    "gallery_eval": ["gallery_eval_s"],
    "key_study": ["session_keys_per_s"],
    "messaging": ["messaging_mb_per_s"],
}


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = done.stdout.splitlines()
    table = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit, samples = line.split()
            table[name] = (float(value), unit, samples)
    return done, table, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    done, table, result = run("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    names = list(declared) + ["error_rate"]
    if not trace:
        names += NAMED[workload] + ["op_ms_p50", "ops_per_s"]
    for name in names:
        assert name in table, name
        assert table[name][2].startswith("n=")
    for name, unit in declared.items():
        assert table[name][1] == unit
    assert table["error_rate"][0] == 0.0


def test_corrupted_frozen_digest_raises_error_rate(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "frozen.json"
    frozen = json.loads(path.read_text())
    frozen["key_study"]["session_keys"] = "0" * 64
    path.write_text(json.dumps(frozen))
    done, table, result = run("--workload", "key_study", cwd=tmp_path,
                              script=tmp_path / "perfbench" / "run.py")
    assert done.returncode == 1
    assert not result["correct"] and result["failed"] == 1
    assert table["error_rate"][0] > 0.0


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer
    import workloads
    return tracer, workloads


def test_every_traced_function_resolves(bench):
    tracing, _ = bench
    assert tracing.Tracer().missing == []


@pytest.mark.parametrize("repeat_session_id, share", [(False, 1.0), (True, 1 / 3)])
def test_fresh_key_share_sees_keys_reused_across_ops(bench, tmp_path, repeat_session_id, share):
    tracing, workloads = bench
    wl = workloads.make("handshake", 0, True, ROOT, tmp_path)
    try:
        state = wl.setup(0)
        tracer = tracing.Tracer()
        for k in range(3):
            with tracer.recording(k):
                session_id = 1 if repeat_session_id else k + 1
                wl.check(wl._session(state, wl.op_seed, session_id, wl.script))
    finally:
        wl.close()
    metrics = tracing.layer_metrics(tracer, {k: 1 for k in range(3)}, 1)
    assert metrics["transform.fresh_key_share"][0] == pytest.approx(share)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done, table, result = run("--workload", "handshake", cwd=tmp_path,
                              script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0 and result is None
