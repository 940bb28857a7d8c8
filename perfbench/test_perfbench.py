"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDED = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def printed_digest(stdout: str) -> str:
    return next(line.split()[1] for line in stdout.splitlines()
                if line.strip().startswith("digest "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload):
    proc, res = bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc, res = bench("--workload", "count-fermat", "--seed", "1", "--seconds", "0.2",
                      "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert res["metrics"]["counting.survivors"]["value"] > 0
    assert 0 < res["metrics"]["trace.coverage"]["value"] <= 1


def test_wrong_recorded_digest_fails_the_run(tmp_path):
    wrong = json.loads(json.dumps(RECORDED))
    wrong["tiny"]["count-dense"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(wrong), encoding="utf-8")
    proc, res = bench("--workload", "count-dense", "--seed", "1", "--seconds", "0.2",
                      "--trace", "0", "--digests", str(path))
    assert proc.returncode != 0
    assert res["correct"] is False and res["failed"] >= 1


def test_count_fermat_digest_is_the_same_for_two_seeds():
    digests = []
    for seed in (1, 2):
        proc, res = bench("--workload", "count-fermat", "--seed", str(seed), "--seconds", "0.2",
                          "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        digests.append(printed_digest(proc.stdout))
    assert digests[0] == digests[1] == RECORDED["tiny"]["count-fermat"]


def test_tracer_restores_every_rebound_name(tmp_path):
    import tracer
    import worker
    import workloads

    hooks = tracer.default_hooks()
    before = [vars(h.owner).get(h.attr) for h in hooks]
    workload = workloads.build("exact-rings", 1, "tiny", tmp_path)
    args = Namespace(workload="exact-rings", seed=1, seconds=0.1)
    out = worker.traced_run(workload, args, RECORDED["tiny"]["exact-rings"], tmp_path)
    assert out["failed"] == 0
    assert out["metrics"]["flag.reduce_calls"] > 0
    after = [vars(h.owner).get(h.attr) for h in hooks]
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, res = bench("--workload", "deform-fp", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert res is None
