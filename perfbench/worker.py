"""One workload in a fresh process: the timed loop, checks and metrics.

`run.py` starts this file once per workload run, and several more times
with --setup-only to time set-up.  It prints one JSON line on stdout.

Untraced run: passes until --seconds have elapsed (and, where the
workload asks for it, enough trials for its tail percentile).  Traced run:
the same loop with the tracer installed, then half as long untraced, for
the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import clock  # noqa: E402


# deform-fp and exact-rings run until 100 trials, so that ten lie beyond the
# p90; the counters make a few calls a run, where the p90 is near the maximum
TAIL_PCT = 90


def _nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Phase:
    """Results of consecutive passes, traced or not.  Times are nominal
    seconds (see clock.py) except `pass_wall_s`."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.pass_wall_s: list[float] = []
        self.latency_s: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.last: dict[str, object] = {}
        self.facts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []


def run_phase(workload, seconds, min_trials, first_pass, recorded, rec=None) -> Phase:
    """Closed loop: each operation starts after the previous one ends."""
    ph = Phase()
    # nominal seconds only for work on this process's core: a worker pool's
    # cores are not the one the reference loop samples
    nominal = workload.workers == 1
    start = time.perf_counter()
    index = first_pass
    while True:
        items = []
        pass_s = pass_wall_s = 0.0
        ref = clock.reference()
        for op in workload.ops(index):
            ph.attempted += 1
            t0 = time.perf_counter()
            if rec is not None:
                rec.active = True
                rec.enter("bench." + op.group)
            try:
                result = op.call()
                err = None
            except Exception:
                result, err = None, traceback.format_exc()
            finally:
                if rec is not None:
                    rec.exit()
                    rec.active = False
            wall = time.perf_counter() - t0
            ref_before, ref = ref, clock.reference()
            dt = wall * clock.scale(ref_before, ref) if nominal else wall
            pass_wall_s += wall
            pass_s += dt
            if op.trial:
                ph.latency_s.append(dt)
            ph.by_label.setdefault(op.label, []).append(dt)
            if err is None:
                ph.last[op.label] = result
                try:
                    ok, item, facts = op.check(result)
                except Exception:
                    ok, item, facts, err = False, None, {}, traceback.format_exc()
            if err is not None or not ok:
                ph.failed += 1
                print(f"FAILED {workload.name} pass {index}: {op.label}\n{err or ''}",
                      file=sys.stderr)
                continue
            items.append(repr(item))
            for key, value in facts.items():
                ph.facts[key] = ph.facts.get(key, 0) + value
        digest = hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()
        ph.digests.append(digest)
        ph.attempted += 1
        if digest != recorded:
            ph.failed += 1
            print(f"FAILED {workload.name} pass {index}: digest {digest} "
                  f"!= recorded {recorded}", file=sys.stderr)
        ph.pass_s.append(pass_s)
        ph.pass_wall_s.append(pass_wall_s)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(ph.latency_s) >= min_trials or elapsed >= 2 * seconds):
            return ph


def untraced_metrics(workload, ph: Phase) -> dict:
    lat = sorted(ph.latency_s)
    tail, beyond = _nearest_rank(lat, TAIL_PCT)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "run_s": statistics.median(ph.pass_s),
        "trial_p50_ms": statistics.median(lat) * 1000,
        "trial_tail_ms": tail * 1000,
        "peak_rss_mb": (usage + children) / 1024,
        "run_wall_s": statistics.median(ph.pass_wall_s),
        "_tail": {"pct": TAIL_PCT, "trials": len(lat), "beyond": beyond},
    }


def _self(aggs, prefix):
    return sum(a.self_s for n, a in aggs.items() if n == prefix or n.startswith(prefix + "["))


def _calls(aggs, prefix):
    return sum(a.calls for n, a in aggs.items() if n == prefix or n.startswith(prefix + "["))


def layer_metrics(workload, traced: Phase, plain: Phase, aggs, scaling) -> dict:
    passes = len(traced.pass_s)
    per = 1 / passes
    m = {}
    for name in ("deformation.experiment", "deformation.sample", "deformation.sections",
                 "deformation.congruence", "deformation.contact_order", "forms.substitute",
                 "forms.pullback", "forms.partial_pullback", "fields.linalg",
                 "counting.points", "enumerative.bounds",
                 "enumerative.fano", "flag.reduce", "schubert.mult"):
        m[name + "_s"] = _self(aggs, name) * per
        m[name + "_calls"] = _calls(aggs, name) * per
    m["counting.points"] = sum(a.count for n, a in aggs.items() if n == "counting.points") * per
    m["flag.terms"] = sum(a.count for n, a in aggs.items() if n == "flag.reduce") * per
    m["dpoly.mul_calls"] = _calls(aggs, "dpoly.mul") * per
    agg = aggs.get("cli.main[count-vk]")
    m["cli.count_vk_overhead_s"] = agg.self_s * per if agg else 0.0
    for q, k in ((7, 1), (7, 2), (7, 5), (11, 1), (11, 2), (11, 5)):
        agg = aggs.get(f"counting.count_vk[q={q},k={k}]")
        m[f"counting.count_vk_s.q{q}.k{k}"] = agg.total_s / agg.calls if agg else 0.0
    for d in (4, 5):
        agg = aggs.get(f"fermat.planes[d={d}]")
        m[f"fermat.planes_s.d{d}"] = agg.total_s / agg.calls if agg else 0.0
    m["fermat.planes"] = sum(a.count for n, a in aggs.items()
                             if n.startswith("fermat.planes[")) * per
    filtering = sum(a.self_s for n, a in aggs.items()
                    if n.startswith("counting.count_vk[") and int(n.split("k=")[1][:-1]) >= 3)
    directions = traced.facts.get("counting.directions", 0)
    survivors = traced.facts.get("counting.survivors", 0)
    m["counting.directions"] = directions * per
    m["counting.survivors"] = survivors * per
    m["counting.survivor_ratio"] = survivors / directions if directions else 0.0
    m["counting.directions_per_s"] = directions / filtering if filtering else 0.0
    m["counting.scaling_eff"] = scaling
    m["counting.reps_bytes_computed"] = getattr(workload, "reps_bytes", 0)
    all_self = sum(a.self_s for a in aggs.values())
    m["bench.unattributed_s"] = sum(
        a.self_s for n, a in aggs.items() if n.startswith("bench.")) * per
    m["trace.run_s"] = statistics.median(traced.pass_s)
    m["trace.overhead_s"] = statistics.median(traced.pass_s) - statistics.median(plain.pass_s)
    m["trace.coverage"] = all_self / sum(traced.pass_wall_s)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--digests", default=str(HERE / "digests.json"))
    ap.add_argument("--workdir", default=str(ROOT / ".perfbench"))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    import tangency.cli  # noqa: F401  (the whole package, numpy included)
    t1 = time.perf_counter()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size, workdir)
    try:
        workload.ops(0)
        t2 = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
            return 0
        recorded = json.loads(Path(args.digests).read_text())[args.size].get(args.workload)
        if args.trace:
            out = traced_run(workload, args, recorded, workdir)
        else:
            ph = run_phase(workload, args.seconds, workload.min_trials, 0, recorded)
            out = {"metrics": untraced_metrics(workload, ph), "attempted": ph.attempted,
                   "failed": ph.failed, "digest": ph.digests[-1], "passes": len(ph.pass_s)}
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def traced_run(workload, args, recorded, workdir):
    from tracer import Tracer, default_hooks
    from workloads import nproc

    tracer = Tracer(default_hooks())
    with tracer:
        traced = run_phase(workload, args.seconds, workload.min_trials, 0, recorded, tracer.rec)
    plain = run_phase(workload, args.seconds / 2, 1, len(traced.pass_s), recorded)
    attempted, failed = traced.attempted + plain.attempted, traced.failed + plain.failed
    scaling = 0.0
    if workload.scaling is not None:
        # t(1 worker) / (nproc * t(nproc workers)), and the worker count
        # must not change the count
        label, one_worker = workload.scaling
        t = time.perf_counter()
        single = one_worker()
        t1 = time.perf_counter() - t
        scaling = t1 / (nproc() * statistics.median(plain.by_label[label]))
        attempted += 1
        if single.count != plain.last[label].count:
            failed += 1
            print(f"FAILED {workload.name}: {label} with 1 worker gives {single.count}, "
                  f"with {nproc()} workers {plain.last[label].count}", file=sys.stderr)
    tracer.rec.dump(workdir / f"spans-{args.workload}-seed{args.seed}.json")
    return {"metrics": layer_metrics(workload, traced, plain, tracer.rec.aggs, scaling),
            "attempted": attempted, "failed": failed, "digest": traced.digests[-1],
            "passes": len(traced.pass_s)}


if __name__ == "__main__":
    sys.exit(main())
