#!/usr/bin/env python3
"""Repository benchmark: host and simulated time of the dcs simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide_uts --seed 1 --seconds 30 --trace 0

Builds `perfbench/` (a package of its own that links the simulator crates
from source), then starts one `perfbench` process per operation until
`--seconds` have passed, checks every answer against an independent
oracle, gates every deterministic counter, and prints the metrics named in
BENCHMARK.json as the last line of stdout. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Schedules (sub-seeds seed*K .. seed*K+K-1) each end-to-end run measures.
# Simulated time varies by ~5 % (cv) between schedules on the UTS
# workloads; averaging K of them keeps the seed-to-seed spread of
# `vtime_us` inside its bound. `uts_recover` gets five because its makespan
# is bimodal (depending on when the kills land); `wide_uts` gets three
# because its operations take ~9 s each.
SUBSEEDS = {"wide_uts": 3, "lcs_pipe": 3, "uts_recover": 5}
# Every run must end within 180 s of start (after the build).
RUN_BUDGET_S = 165.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(ROOT, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return target, binary


def child(binary, args, timeout):
    """Run one perfbench process; its JSON line, or None if it failed."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench {' '.join(args)}: timed out after {timeout:.0f} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench {' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"perfbench {' '.join(args)}: unreadable result line {lines[-1][:200]!r}")
        return None


class DetGate:
    """Deterministic counters must repeat exactly: across repetitions of a
    sub-seed in this run, and against earlier runs of the same binary on the
    same sub-seed (kept beside the build output)."""

    def __init__(self, target, binary, workload):
        with open(binary, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:16]
        self.dir = os.path.join(target, "perfbench-det", digest)
        self.workload = workload
        self.seen = {}
        self.errors = []

    def check(self, subseed, det):
        if subseed not in self.seen:
            path = os.path.join(self.dir, f"{self.workload}-{subseed}.json")
            if os.path.exists(path):
                with open(path) as f:
                    self.seen[subseed] = json.load(f)
            else:
                os.makedirs(self.dir, exist_ok=True)
                tmp = f"{path}.{os.getpid()}"
                with open(tmp, "w") as f:
                    json.dump(det, f, sort_keys=True)
                os.replace(tmp, path)
                self.seen[subseed] = det
        ref = self.seen[subseed]
        if det != ref:
            diff = sorted(k for k in set(det) | set(ref) if det.get(k) != ref.get(k))
            self.errors.append(f"sub-seed {subseed}: counters changed between runs: "
                               + ", ".join(f"{k} {ref.get(k)} -> {det.get(k)}" for k in diff))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{a.workload}'")
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    target, binary = build()
    start = time.monotonic()

    calib = child(binary, ["calib"], 60)
    if calib is None:
        fail("host calibration failed")
    print(f"host: nproc={calib['nproc']} effective_cores={calib['effective_cores']:.2f} "
          f"(one spinning thread {calib['one_thread_s']:.3f} s, two {calib['two_threads_s']:.3f} s)")

    mask = (1 << 64) - 1
    k = SUBSEEDS[a.workload]
    subseeds = [(a.seed * k + i) & mask for i in range(k)]
    if a.trace:
        subseeds = subseeds[:1]
    expect = {}
    for s in subseeds:
        o = child(binary, ["oracle", "--workload", a.workload, "--seed", str(s)], 120)
        if o is None:
            fail("oracle failed")
        expect[s] = o["answer"]

    gate = DetGate(target, binary, a.workload)
    reps, attempted, failed = [], 0, 0
    t0 = time.monotonic()
    longest = 0.0
    while attempted < len(subseeds) or time.monotonic() - t0 < a.seconds:
        if time.monotonic() + 1.5 * longest - start > RUN_BUDGET_S:
            break
        s = subseeds[attempted % len(subseeds)]
        r0 = time.monotonic()
        res = child(binary, ["trace" if a.trace else "op", "--workload", a.workload,
                             "--seed", str(s), "--expect", str(expect[s])],
                    max(1.0, RUN_BUDGET_S - (r0 - start)))
        longest = max(longest, time.monotonic() - r0)
        attempted += 1
        if res is None or not res["ok"]:
            failed += 1
            if res is not None:
                log(f"operation failed (sub-seed {s}): {res['error']}")
            continue
        gate.check(s, res["det"])
        res["subseed"] = s
        reps.append(res)
        log(f"rep {attempted}: sub-seed {s} host {res['host_s']:.3f} s")

    done = {r["subseed"] for r in reps}
    if done != set(subseeds):
        fail(f"no successful operation for sub-seeds {sorted(set(subseeds) - done)}")
    values = {}
    if a.trace:
        layer_det = [r["layer_det"] for r in reps]
        if any(d != layer_det[0] for d in layer_det):
            gate.errors.append("per-layer counters differ between repetitions")
        values.update(layer_det[0])
        for k in reps[0]["layer_time"]:
            values[k] = statistics.median(r["layer_time"][k] for r in reps)
    else:
        values["host_s"] = statistics.median(r["host_s"] for r in reps)
        by_seed = {r["subseed"]: r["det"]["vtime_ns"] for r in reps}
        values["vtime_us"] = statistics.mean(by_seed.values()) / 1000.0
        values["setup_s"] = statistics.median(x for r in reps for x in r["setup_s"])
        values["host_rss_mb"] = statistics.median(r["rss_mb"] for r in reps)

    for e in gate.errors:
        log(f"determinism gate: {e}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and not gate.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
