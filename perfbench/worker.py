"""One workload in one fresh process: set-up, timed passes, result file.

Started by run.py, which puts the checkout's ``src`` first on PYTHONPATH.
Set-up is everything before the first op: interpreter start, ``import
crlab``, and generating the inputs and expected answers.  The ops then run
through ``crlab.cli.main(argv)`` in process with stdout captured, one after
another on one thread.  The result (timings, checks, stdout digests and,
when traced, per-layer metrics) is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


SAMPLE_PERIOD_S = 0.01
SAMPLE_MARGIN = 10  # samples either side of an op that also speak for it


def _spin() -> float:
    """Time a fixed, tiny, cache-resident piece of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples how fast the box runs this process while a pass runs.

    On a shared host the same work can take 1.7x longer while neighbours
    are busy.  A SIGALRM every SAMPLE_PERIOD_S of wall time times one
    fixed spin; the spin times seen during a pass say how slow the box
    was then, and run.py scales each op to a reference speed.  The spin
    touches no memory beyond a few cache lines, so its time does not
    depend on what the program under test left in the caches."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(_spin())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops, tracer=None, sampler=None) -> dict:
    """Run every op once; time each call, then check its output.

    With a running sampler, also give each op the median of the speed
    samples taken while it ran and within SAMPLE_MARGIN samples of it."""
    from crlab import cli

    latencies, failures, digests, sample_spans = [], [], [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        first_sample = len(sampler.samples) if sampler else 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        latencies.append(time.perf_counter() - t0)
        if sampler:
            sample_spans.append((first_sample, len(sampler.samples)))
        text = out.getvalue()
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if rc is None:
            problem = "raised: " + err.getvalue().strip().splitlines()[-1]
        else:
            try:
                problem = op.check(rc, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output ({exc!r})"
            if problem and err.getvalue().strip():
                problem += " | stderr: " + err.getvalue().strip()[:300]
        if problem:
            failures.append({"op": op.label, "problem": problem})
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    result = {"wall_s": wall, "latencies_s": latencies,
              "failures": failures, "digests": digests}
    if sampler:
        samples = sampler.samples
        result["op_spin_s"] = [
            statistics.median(samples[max(0, a - SAMPLE_MARGIN):
                                      b + SAMPLE_MARGIN])
            for a, b in sample_spans]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    setup_sampler = SpeedSampler().__enter__()
    import crlab
    if not os.path.abspath(crlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"crlab imported from {crlab.__file__}, "
                         f"not from {SRC}")
    import workloads

    out_dir = os.path.dirname(os.path.abspath(args.out))
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    result = {"workload": args.workload, "seed": args.seed,
              "numpy": sys.modules["numpy"].__version__}
    try:
        os.chdir(workdir)
        ops = workloads.BUILDERS[args.workload](args.seed)
        result["t_ready"] = time.monotonic()
        setup_sampler.__exit__()
        result["setup_spin_s"] = statistics.median(setup_sampler.samples
                                                   or [_spin()])
        result["ops"] = [op.label for op in ops]
        if not args.setup_only:
            if args.trace:
                spans_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
                result.update(_traced(ops, spans_path))
            else:
                result.update(_untraced(ops, args.seconds))
            result["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        os.chdir(out_dir)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _untraced(ops, seconds: float) -> dict:
    """Whole passes until the next one would end past `seconds`."""
    passes = []
    sampler = SpeedSampler()
    start = time.perf_counter()
    while True:
        with sampler:
            passes.append(run_pass(ops, sampler=sampler))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    return {"passes": passes}


def _traced(ops, spans_path) -> dict:
    """A traced pass, an untraced pass, then a second traced pass.

    The per-layer metrics and the spans written to `spans_path` come from
    the first pass, so the peak-RSS rises it charges to spans are the
    process's first climb to its peak.  The other two passes run with warm
    caches and sample the box's speed; their difference is the tracing
    overhead."""
    from tracing import Tracer

    def traced_pass(tracer, sampler=None):
        tracer.install()
        try:
            return run_pass(ops, tracer, sampler)
        finally:
            tracer.uninstall()

    tracer = Tracer()
    first = traced_pass(tracer)
    with SpeedSampler() as sampler:
        plain = run_pass(ops, sampler=sampler)
    with SpeedSampler() as sampler:
        again = traced_pass(Tracer(), sampler)
    tracer.write_spans(spans_path)
    return {"passes": [first, plain, again],
            "layers": {k: {"value": v, "unit": u} for k, (v, u)
                       in sorted(tracer.layer_metrics().items())}}


if __name__ == "__main__":
    sys.exit(main())
