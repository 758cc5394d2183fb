"""One pass of a workload, in a fresh process started by run.py.

Set-up is importing squint, building the seeded request list and running the
workload's warm-up op.  A pass then sends every request in order, one at a
time, through squint's public surface: ``squint.cli.main(argv)`` with stdout
and stderr captured, or ``squint.fock.oracle_pipeline`` for the library op.
Outputs are checked after the timed loop, so checking never counts as work.
A fixed calibration kernel is timed before each request and after the last
(nine times after set-up in a set-up-only process).  The process prints one
JSON line: its set-up end on the system-wide monotonic clock, the kernel
times, the op records, the summed request time and its peak resident memory.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE TRACE CHECK

MODE is ``setup`` (stop after set-up) or ``pass``; TRACE and CHECK are 0 or 1.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import numpy as np

KERNEL_STEPS = 500   # a few milliseconds
SETUP_KERNELS = 9


def kernel_once() -> float:
    """Seconds for one run of a fixed computation that does not touch squint.

    4x4 rotations folded from a Python loop: the same kind of work as the
    covariance engine.  run.py scales a request's time by the kernel times
    around it, so that the host's changing CPU speed cancels.
    """
    t0 = time.perf_counter()
    acc = np.eye(4)
    for i in range(KERNEL_STEPS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        rot = np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0],
                        [0.0, 0.0, c, s], [0.0, 0.0, -s, c]])
        acc = rot @ acc @ rot.T
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def _digest(output) -> str:
    if not isinstance(output, str):
        output = ",".join(f"{v:.12g}" for v in (output.mean, output.second_moment,
                                                 output.sigma, output.mean_photons))
    return hashlib.sha256(output.encode()).hexdigest()[:16]


def run_op(squint, req):
    """Send one request; returns (seconds, output or None, error message)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req["argv"] is not None:
                rc = squint.cli.main(req["argv"])
                output = out.getvalue()
            else:
                fields, phi = req["oracle"]
                rc = 0
                output = squint.fock.oracle_pipeline(
                    squint.InterferometerConfig(**fields), phi)
    except SystemExit as exc:
        rc, output = exc.code, None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, output, f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    return elapsed, output, ""


def run_pass(squint, requests, tracer=None):
    """Send each request in order, timing the kernel before each one and after
    the last; returns ([(seconds, output, error)], [kernel seconds])."""
    results, kernel = [], []
    if tracer is not None:
        tracer.install()
    try:
        for req in requests:
            kernel.append(kernel_once())
            results.append(run_op(squint, req))
        kernel.append(kernel_once())
    finally:
        if tracer is not None:
            tracer.restore()
    return results, kernel


def main(argv) -> int:
    root, workload, seed, mode, trace, check = argv
    report = sys.stdout
    src = os.path.realpath(os.path.join(root, "src"))
    import squint
    if not os.path.realpath(squint.__file__).startswith(src + os.sep):
        print(f"squint imported from {squint.__file__}, not from {src}", file=sys.stderr)
        return 1
    import workloads
    requests = workloads.REQUESTS[workload](int(seed))
    warm = workloads.warmup_argv(workload)
    if warm is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            squint.cli.main(warm)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        kernel = [kernel_once() for _ in range(SETUP_KERNELS)]
        report.write(json.dumps({"ready": ready, "kernel_s": kernel}) + "\n")
        return 0

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
    results, kernel = run_pass(squint, requests, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    ops = []
    for req, (seconds, output, error) in zip(requests, results):
        if not error and check == "1":
            error = workloads.check(squint, req, output)
        ops.append({"label": req["label"], "s": seconds, "error": error,
                    "known_defect": req["known_defect"],
                    "digest": _digest(output) if output is not None else None})
    result = {"ready": ready, "kernel_s": kernel, "wall_s": sum(r[0] for r in results),
              "rss_mb": rss_mb,
              "ops": ops, "check_s": time.perf_counter() - t_check,
              "blas_threads": _blas_threads(), "numpy": np.__version__}
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = {k: list(v) for k, v in layer_metrics(tracer).items()}
        result["untraced_targets"] = tracer.missing
    report.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
