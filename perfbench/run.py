"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload deform-fp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports `tangency` from ./src;
nothing needs installing).  It times set-up in fresh interpreters, runs the
workload in a fresh process (worker.py), checks every output, and prints
each metric with its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  A record with the environment is written to .perfbench/.  The exit
code is 0 only when every checked operation and digest passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _worker(argv: list[str], timeout: float) -> dict:
    # own process group, so a timeout also ends the worker's counting pool
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--digests", default=str(HERE / "digests.json"),
                    help="recorded digests (the tests substitute a wrong one)")
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if not (ROOT / "src" / "tangency" / "__init__.py").is_file():
        print(f"error: no tangency sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--digests", args.digests, "--workdir", str(workdir)]
    try:
        probes = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            probe = _worker(common + ["--setup-only"], timeout=60)
            probe["wall_s"] = time.perf_counter() - t
            probes.append(probe)
        remaining = DEADLINE_S - (time.perf_counter() - began)
        out = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      timeout=remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    measured = dict(out["metrics"])
    for name, key in (("setup_s", "wall_s"), ("setup.import_s", "import_s"),
                      ("setup.inputs_s", "inputs_s")):
        measured[name] = statistics.median(p[key] for p in probes)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = out["failed"] == 0
    env = _environment()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    tail = out["metrics"].get("_tail")
    if tail:
        print(f"  trial_tail_ms is the p{tail['pct']} of {tail['trials']} trials "
              f"({tail['beyond']} beyond it)")
    print(f"  fail_ratio {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} checked operations failed)")
    print(f"  digest {out['digest']} over {out['passes']} passes")
    if "run_wall_s" in measured:
        print(f"  raw wall median of a pass: {measured['run_wall_s']:.6g} s (see clock.py)")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "measured": measured, "setup_probes": probes, "correct": correct,
              "attempted": out["attempted"], "failed": out["failed"],
              "digest": out["digest"], "passes": out["passes"]}
    path = workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
