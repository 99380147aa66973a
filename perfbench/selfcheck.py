"""Self-check of the benchmark's traced runs.

Runs every workload traced twice and checks that

* the work counts (every per-layer metric except times and the tracing
  overhead) are identical between the two runs;
* the layer mix is the one each workload was chosen for: no transform on
  sweep-d1, the FFT transform only on cli-chain, no grids/cli/entire
  calls outside cli-chain, and the expected layer on top of self time.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

TOP_SELF = {"report-d2": "stability.align", "sweep-d1": "cheeger.fiedler",
            "cli-chain": "gabor.transform_fft"}
CLI_ONLY = ("grids.write", "grids.read", "cli.run_config", "entire.ball_norms")
SECONDS = "4"


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", SECONDS, "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run is not correct\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def is_count(key: str) -> bool:
    return not key.endswith(".self_s") and key != "trace.overhead"


def design_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    checks = []
    if workload == "sweep-d1":
        checks.append(("no Gabor transform calls",
                       m["gabor.transform_direct.calls"] == 0
                       and m["gabor.transform_fft.calls"] == 0))
    if workload != "cli-chain":
        checks.append(("no FFT transform calls", m["gabor.transform_fft.calls"] == 0))
        checks.append(("no grids, cli or entire calls",
                       all(m[f"{name}.calls"] == 0 for name in CLI_ONLY)))
    else:
        checks.append(("FFT transform calls", m["gabor.transform_fft.calls"] > 0))
    selfs = {k[:-len(".self_s")]: v for k, v in m.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    checks.append((f"top self time is {TOP_SELF[workload]} (got {top})",
                   top == TOP_SELF[workload]))
    return checks


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced(workload), traced(workload)
        differ = sorted(k for k in first if is_count(k) and first[k] != second[k])
        checks = [(f"identical work counts in two traced runs{': ' + ', '.join(differ) if differ else ''}",
                   not differ)]
        checks += design_checks(workload, first)
        for label, passed in checks:
            ok = ok and passed
            print(f"{workload:10s} {'PASS' if passed else 'FAIL'} {label}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
