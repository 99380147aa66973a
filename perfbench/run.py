"""gaborstab benchmark: three pipeline workloads, timed end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-d2 --seed 0 --seconds 36 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): report-d2,
sweep-d1, cli-chain.  Each is a single closed-loop caller: one call is
issued after the previous one returns, in one single-threaded process.

--trace 0 prints the end-to-end metrics: median and tail call time (a
fixed percentile per workload, TAIL_LEVEL), completed calls per second
of the timed loop, set-up time and peak RSS.  --trace 1 prints the
per-layer metrics from a separate run in which spans wrap every public
function of each layer.  Human-readable lines go to stderr; the last
line on stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A run record with the environment, every call time
and, when traced, every span is written to .perfbench_out/.

Every workload process is started fresh from this checkout's src/ with
the BLAS and OpenMP thread variables set to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gaborstab")
WORKLOADS = ("report-d2", "sweep-d1", "cli-chain")
MODULES = ("grids", "signals", "gabor", "fdiff", "entire", "cheeger", "stability", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is taken in this many fresh processes (the measuring one included)
# and reported as their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
# call_s.tail is this fixed percentile of each workload's call times.  Each
# level is the highest that left at least 10 calls above it in the fewest
# calls a 30 s timed loop of that workload made on a 2-core x86 VM (22
# report-d2 calls, 57 sweep-d1 calls, 12 cli-chain calls); the 36 s loops of
# BENCHMARK.json make more.  No level above p50 does that for cli-chain, so
# its tail is its median.
TAIL_LEVEL = {"report-d2": 54, "sweep-d1": 82, "cli-chain": 50}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["GGR_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode: str, seconds: float, workdir: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (set-up seconds, result record or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = time.perf_counter() - t0
            elif event["event"] == "result":
                result = event
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
        shutil.rmtree(workdir, ignore_errors=True)
    if result is not None and result["problems"] and "attempted" not in result:
        raise BenchError("; ".join(result["problems"]))
    if code != 0 or setup_s is None:
        raise BenchError(f"{mode} worker for {args.workload} exited with code {code}")
    return setup_s, result


def tail(times: list[float], level: int) -> float:
    """The nearest-rank percentile ``level`` of ``times``; the median at 50."""
    if level == 50:
        return statistics.median(times)
    ordered = sorted(times)
    return ordered[math.ceil(level / 100 * len(ordered)) - 1]


def end_to_end(args, workdir: str, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        setups.append(run_child(args, "setup", 0.0, os.path.join(workdir, f"setup-{i}"),
                                deadline)[0])
    setup_s, result = run_child(args, "measure", args.seconds,
                                os.path.join(workdir, "measure"), deadline)
    setups.append(setup_s)
    times = result["call_s"]
    level = TAIL_LEVEL[args.workload]
    tail_s = tail(times, level)
    passed = len(times) - result["failed"]
    metrics = {
        "call_s.p50": (statistics.median(times), "s"),
        "call_s.tail": (tail_s, "s"),
        "calls_per_s": (passed / result["loop_s"], "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [f"call_s.tail is p{level} of {len(times)} calls, "
             f"{sum(t > tail_s for t in times)} of them above it",
             f"timed loop {result['loop_s']:.4g} s, "
             f"cleanup outside it {result['cleanup_s']:.4g} s",
             f"fail_ratio {result['failed'] / result['attempted']:.6g} (1): "
             f"{result['failed']} of {result['attempted']} calls failed",
             "setup_s samples " + ", ".join(f"{s:.4f}" for s in setups)]
    record = dict(result, setup_s=setups, tail_level=level)
    return metrics, record, notes


def src_lines() -> dict:
    out = {}
    for mod in MODULES:
        with open(os.path.join(PACKAGE, f"{mod}.py"), encoding="utf-8") as fh:
            out[f"{mod}.src_lines"] = sum(1 for _ in fh)
    return out


def per_layer(args, workdir: str, deadline: float) -> tuple[dict, dict, list[str]]:
    _, result = run_child(args, "trace", args.seconds, os.path.join(workdir, "trace"), deadline)
    layers = dict(result["layers"])
    layers.update(src_lines())
    metrics = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}
    notes = [f"{len(result['traced_call_s'])} traced and {len(result['call_s'])} plain calls",
             f"fail_ratio {result['failed'] / result['attempted']:.6g} (1)"]
    return metrics, result, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith(("ratio", "overhead")):
        return "1"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no gaborstab package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, record, notes = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(dict(record, workload=args.workload, seed=args.seed), fh)

    correct = not record["problems"] and record["failed"] == 0
    env = record["environment"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, artifacts on {env['artifact_fs']}",
          file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:.6g} {unit}", file=sys.stderr)
    for note in notes:
        print(f"  {note}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    print(f"  correct: {str(correct).lower()}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
