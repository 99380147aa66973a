"""One workload in one fresh interpreter; started by run.py, never by hand.

Modes:
  setup    import, build inputs, warm up, report ready, remove the
           warm-up artifacts, exit
  measure  setup, then closed-loop calls for --seconds with tracing off
  trace    setup, then alternate plain and traced calls for --seconds

The worker writes JSON lines to stdout: {"event": "ready"} once set-up
is done, then {"event": "result", ...} at the end.  The launcher times
set-up from process start to the ready line, so interpreter start-up and
imports are part of it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _environment(workdir: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "artifact_fs": _filesystem_type(workdir),
    }


def _filesystem_type(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def _one_call(wl, tracer=None):
    """(seconds, outcome or None, error text or None) of one workload call."""
    wl.prepare()
    if tracer is not None:
        tracer.begin_call()
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = wl.call()
        error = None
    except Exception:  # a failed call is counted, and the loop goes on
        outcome, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
    return elapsed, outcome, error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401

    import gaborstab
    from gaborstab import cheeger, cli, entire, fdiff, gabor, grids, signals, stability  # noqa: F401

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    warm_time, warm, error = _one_call(wl)
    _emit({"event": "ready", "warmup_s": warm_time})
    if args.mode == "setup":
        # Removing the artifacts here, busy, spares the next set-up process
        # the idle wait for the disk that would slow it.
        wl.cleanup()
        return 0 if error is None else 1
    if error is not None:
        _emit({"event": "result", "problems": [f"warm-up call raised:\n{error}"]})
        return 1
    reference = wl.fingerprint(warm)

    tracer = None
    if args.mode == "trace":
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    times, traced_times, failures, layer_calls = [], [], [], []
    first_counts = None
    cleanup_s = 0.0
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or not times
           or (tracer is not None and len(traced_times) < 2)):
        traced = tracer is not None and len(times) > len(traced_times)
        elapsed, outcome, error = _one_call(wl, tracer if traced else None)
        (traced_times if traced else times).append(elapsed)
        if error is None and wl.fingerprint(outcome) != reference:
            error = "outcome differs from the warm-up call's"
        if traced:
            self_s, counts = tracer.call_summary()
            layer_calls.append(self_s)
            if hasattr(wl, "artifacts"):
                files = wl.artifacts(outcome) if outcome is not None else {}
                counts["cli.artifacts"] = len(files)
                counts["cli.artifact_bytes"] = sum(size for size, _ in files.values())
            if first_counts is None:
                first_counts = counts
            elif error is None and counts != first_counts:
                error = "work counts differ between traced calls"
        if error is not None:
            failures.append(error)
        t0 = time.perf_counter()
        wl.cleanup()
        cleanup_s += time.perf_counter() - t0
    # The timed loop leaves out each call's cleanup, as the workload's
    # artifacts are deleted outside the timed region.
    loop_s = time.perf_counter() - start - cleanup_s
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The check runs after the peak RSS is read, so that the memory of its
    # closed-form transforms is not counted.
    problems = wl.check(warm, args.seed)
    problems += failures[:3]
    result = {
        "event": "result",
        "attempted": len(times) + len(traced_times),
        "failed": len(failures),
        "call_s": times,
        "loop_s": loop_s,
        "cleanup_s": cleanup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "problems": problems,
        "environment": _environment(args.workdir),
        "gaborstab_file": gaborstab.__file__,
    }
    if tracer is not None:
        metrics = layer_metrics(layer_calls, first_counts)
        metrics["trace.overhead"] = (statistics.median(traced_times)
                                     / statistics.median(times) - 1.0)
        result["layers"] = metrics
        result["traced_call_s"] = traced_times
        result["spans"] = tracer.spans
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
