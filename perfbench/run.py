"""squint benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload scan|solve|oracle|all --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the squint source tree next to
this directory (``src/squint``), imported as is.  Each pass sends the
workload's whole seeded request list, one request at a time (a closed loop
with one client), in a fresh process, so every pass pays set-up and starts
with cold caches, and its peak memory belongs to that workload alone.
The design, metric definitions and predictions are in design.json.

--trace 0  repeats passes while another one still fits in --seconds (at
           least one), sets up at least seven times, and reports the
           end-to-end metrics.  Interpreter-bound times are scaled to a
           reference CPU speed by a calibration kernel (see spawn); the
           values as measured are printed too.
--trace 1  runs one untraced and one traced pass, requires byte-identical
           outputs from both, and reports the per-layer metrics and the
           tracing overhead (traced minus untraced wall time).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  An op fails when it
raises, exits non-zero, or its output misses its reference; ``correct`` is
false when an op fails for a reason other than its recorded known defect, or
when two passes of the same requests print different outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scan", "solve", "oracle")
MIN_SETUPS = 7
RUN_LIMIT_S = 170.0   # the whole run, children included, ends before this
# Interpreter-bound times are reported at the speed where worker.kernel_once
# takes this long: set-up everywhere, and the requests of these workloads.
# The oracle's requests are large-tensor numpy work that the kernel does not
# track (scaling tripled their run-to-run spread), so they stay as measured.
REFERENCE_KERNEL_S = 0.003
SCALED_WORKLOADS = ("scan", "solve")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """Environment for a worker: this tree's squint first, one BLAS thread.

    The client is one process with no threads of its own; BLAS worker threads
    (numpy's OpenBLAS is built for 64) would compete with it for the cores.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode, trace, check, deadline) -> dict:
    """Run one worker process to completion and return its report.

    The host's CPU speed drifts by tens of percent, and flips by up to 2x
    within a second; the kernel timed in the same process tracks it.  `scale`
    (for set-up) uses the process's median kernel time; `op_scale` uses the
    median of the four kernel times around each request.
    """
    cmd = [sys.executable, WORKER, ROOT, workload, str(seed), mode, str(trace), str(check)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"{workload} {mode} pass did not finish before the run limit")
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} {mode} worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["process_s"] = end - start
    kernel = report["kernel_s"]
    report["scale"] = REFERENCE_KERNEL_S / statistics.median(kernel)
    report["op_scale"] = [
        REFERENCE_KERNEL_S / statistics.median(kernel[max(0, i - 1):i + 3])
        if workload in SCALED_WORKLOADS else 1.0
        for i in range(len(report.get("ops", ())))]
    return report


def judge(passes) -> list:
    """Per-op failure messages for every pass, against the first (checked) pass."""
    ref = passes[0]["ops"]
    judged = []
    for p in passes:
        if len(p["ops"]) != len(ref):
            raise RunError("passes sent different request lists")
        for op, first in zip(p["ops"], ref):
            error = op["error"] or first["error"]
            if not error and op["digest"] != first["digest"]:
                error = "output differs from the checked pass"
            judged.append((op, error))
    return judged


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def end_to_end(passes, setups, scaled=True) -> dict:
    """Medians over passes; an op's latency is its median over the passes.

    With `scaled`, times are multiplied by the factors spawn() attached.
    Taking each request's median first keeps op_p50_ms off the gap between
    cheap and expensive request kinds, which pooled samples straddle.
    """
    lat = [[op["s"] * (f if scaled else 1.0) for op, f in zip(p["ops"], p["op_scale"])]
           for p in passes]
    per_request = [statistics.median(column) for column in zip(*lat)]
    walls = [sum(row) for row in lat]
    values = {
        "setup_s": statistics.median(r["setup_s"] * (r["scale"] if scaled else 1.0)
                                     for r in setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(map(len, lat)) / sum(walls),
        "op_p50_ms": statistics.median(per_request) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def measure(workload, seed, seconds, deadline):
    """--trace 0: passes for about `seconds`, then extra set-ups up to MIN_SETUPS."""
    t0 = time.monotonic()
    passes = [spawn(workload, seed, "pass", 0, 1, deadline)]
    cost = [passes[0]["process_s"] - passes[0]["check_s"]]
    while time.monotonic() - t0 + statistics.median(cost) <= seconds:
        passes.append(spawn(workload, seed, "pass", 0, 0, deadline))
        cost.append(passes[-1]["process_s"])
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", 0, 0, deadline))
    judged = judge(passes)
    metrics = end_to_end(passes, setups)
    raw = end_to_end(passes, setups, scaled=False)
    latencies = [op["s"] * f for p in passes for op, f in zip(p["ops"], p["op_scale"])]
    n = len(latencies)
    kernel = statistics.median(k for r in setups for k in r["kernel_s"])
    notes = [f"passes {len(passes)}, set-ups {len(setups)}, ops {n}",
             f"{'set-up and request' if workload in SCALED_WORKLOADS else 'set-up'} times "
             f"scaled to a {REFERENCE_KERNEL_S * 1e3:g} ms calibration kernel "
             f"(median here {kernel * 1e3:.4g} ms); as measured: " +
             ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items() if u != "MB")]
    if n >= 100:   # at least ten samples beyond p90
        notes.append(f"op_p90_ms {percentile(latencies, 0.9) * 1e3:.6g} ms (n={n})")
    else:
        notes.append(f"op_p90_ms not reported: {n} ops, p90 needs at least 100")
    return passes, judged, metrics, notes


def traced(workload, seed, deadline):
    """--trace 1: an untraced and a traced pass; outputs must match."""
    plain = spawn(workload, seed, "pass", 0, 1, deadline)
    tracedp = spawn(workload, seed, "pass", 1, 0, deadline)
    passes = [plain, tracedp]
    judged = judge(passes)
    walls = [end_to_end([p], [p])["wall_s"][0] for p in passes]
    metrics = {k: tuple(v) for k, v in tracedp["layers"].items()}
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    notes = [f"untraced wall_s {walls[0]:.6g} s, traced wall_s {walls[1]:.6g} s "
             "(per-layer times are as measured, not scaled)"]
    if tracedp.get("untraced_targets"):
        notes.append("targets missing from squint: " + ", ".join(tracedp["untraced_targets"]))
    return passes, judged, metrics, notes


def run_workload(workload, seed, seconds, trace) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if trace:
            passes, judged, metrics, notes = traced(workload, seed, deadline)
        else:
            passes, judged, metrics, notes = measure(workload, seed, seconds, deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [(op, err) for op, err in judged if err]
    correct = all(op["known_defect"] for op, _ in failures)
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"nproc {len(os.sched_getaffinity(0))}  python {platform.python_version()}  "
          f"numpy {passes[0]['numpy']}  blas_threads {passes[0]['blas_threads']}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_frac':34s} {len(failures) / len(judged):.6g} ratio "
          f"({len(failures)} of {len(judged)} ops)")
    for label, err, known in sorted({(op["label"], err, op["known_defect"])
                                     for op, err in failures}, key=str):
        print(f"  FAILED {label}: {err}" + (f"  [known defect: {known}]" if known else ""))
    print(json.dumps({"correct": correct, "attempted": len(judged), "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "squint", "__init__.py")):
        print(f"perfbench: no squint source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 1
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(workload, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
