"""crlab benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Each workload process is fresh, so `import crlab` and input generation
are set-up and the peak RSS belongs to that workload alone.  Untraced, the
set-up is sampled SETUP_SAMPLES times (the last sample goes on to run the
ops) and whole passes over the op list repeat until the next would end
after --seconds.  Traced, a traced, an untraced and a traced pass run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result (per-op latencies,
failures, per-pass stdout digests, environment, src/ line counts) is
written to perfbench/out/.  Exit code 0 when a result was printed, 2 when
no crlab source tree sits next to this directory, 1 when a workload
process failed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole run, all processes included
# reference speed: the box at which one speed sample takes this long
SPIN_REFERENCE_S = 30e-6


def _spawn(args, extra, out_path, deadline):
    """Run one worker to completion; (monotonic spawn time, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("CRLAB_ENUM_BUDGET", "CRLAB_SYND_BUDGET"):
        env.pop(var, None)  # the workloads run within the default budgets
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    with open(out_path) as fh:
        result = json.load(fh)
    os.remove(out_path)
    return spawned, result


def _environment(worker_result) -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": worker_result.get("numpy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _src_lines() -> dict:
    """Line counts of src/ per module (informational, never gated)."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            counts[os.path.relpath(path, SRC)] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def _op_latency_ms(passes) -> dict:
    """Median scaled op latency and the highest whole percentile with at
    least ten samples above it, over every op of every pass."""
    ms = sorted(1000.0 * t for p in passes for t in p["scaled_s"])
    out = {"samples": len(ms), "p50": statistics.median(ms)}
    top = int(100 * (1 - 10 / len(ms)))
    if top > 50:
        out[f"p{top}"] = statistics.quantiles(ms, n=100)[top - 1]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crlab", "__init__.py")):
        print(f"error: no crlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")

    setups = []  # (seconds, speed sample) per set-up

    def spawn(extra, path):
        spawned, res = _spawn(args, extra, path, deadline)
        setups.append((res["t_ready"] - spawned, res["setup_spin_s"]))
        return res

    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                spawn(["--setup-only"], f"{stem}.setup{i}.json")
        res = spawn([], f"{stem}.worker.json")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    passes = res["passes"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed_ops = {(i, f["op"]) for i, p in enumerate(passes)
                  for f in p["failures"]}
    for p in passes:
        if "op_spin_s" in p:
            # each op scaled by the box's speed sampled around it
            p["scaled_s"] = [SPIN_REFERENCE_S * lat / spin
                             for lat, spin in zip(p["latencies_s"],
                                                  p["op_spin_s"])]
    if args.trace:
        # stdout must not depend on tracing
        traced, plain, again = passes
        for i, p in ((0, traced), (2, again)):
            for label, a, b in zip(res["ops"], p["digests"],
                                   plain["digests"]):
                if a != b:
                    failures.append({"op": label,
                                     "problem": "stdout differs when traced"})
                    failed_ops.add((i, label))
        metrics = res["layers"]
        metrics["trace.overhead_s"] = {
            "value": sum(again["scaled_s"]) - sum(plain["scaled_s"]),
            "unit": "s"}
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(
                sum(p["scaled_s"]) for p in passes), "unit": "s"},
            "op_gmean_ref_ms": {"value": 1000.0 * statistics.median(
                statistics.geometric_mean(p["scaled_s"]) for p in passes),
                "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(
                SPIN_REFERENCE_S * t / spin for t, spin in setups),
                "unit": "s"},
        }
    failed = len(failed_ops)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": not failures, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": metrics,
        "setup_samples_s": [t for t, _ in setups],
        "setup_spin_s": [spin for _, spin in setups],
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_ops_s": [sum(p["latencies_s"]) for p in passes],
        "pass_ops_ref_s": [sum(p["scaled_s"]) for p in passes
                           if "scaled_s" in p],
        "op_latency_ref_ms": None if args.trace else _op_latency_ms(passes),
        "ops": [{"op": label,
                 "latency_s": [p["latencies_s"][i] for p in passes]}
                for i, label in enumerate(res["ops"])],
        "failures": failures,
        "stdout_sha256": [p["digests"] for p in passes],
        "environment": _environment(res),
        "src_lines": _src_lines(),
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for f in failures[:20]:
        print(f"FAILED {f['op']}: {f['problem']}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es) of {len(res['ops'])} ops, "
          f"attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if record["op_latency_ref_ms"]:
        print("  op latency (scaled, ms): " + ", ".join(
            f"{k}={v:.6g}" for k, v in record["op_latency_ref_ms"].items()))
    print(f"  full result: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
