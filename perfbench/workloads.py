"""The three benchmark workloads: inputs from a seed, one call, its gate.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), issues one call through the public ``gaborstab`` API in
``call`` (the timed region), and turns the call's outcome into a
``fingerprint`` that must repeat bit for bit across calls.  ``check``
runs on the warm-up call only: it tests the invariants that hold for
every seed and, on ``DEFAULT_SEED``, the key scalars against the values
in ``references.json``.

Seeds other than ``DEFAULT_SEED`` shift separations and bump centres by
small amounts.  The shifts keep every grid extent, and with it the mix
of layers a call runs through, unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import threading

import numpy as np

DEFAULT_SEED = 0
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
# Pinned acceptance values (criteria 07 and 08) are compared at this
# relative tolerance; transforms against their closed forms use the
# 1e-8 of criterion 01.
REF_RTOL = 1e-9
TRANSFORM_TOL = 1e-8


def _offsets(seed: int, count: int, half_width: float) -> np.ndarray:
    if seed == DEFAULT_SEED:
        return np.zeros(count)
    return np.random.default_rng(seed).uniform(-half_width, half_width, count)


def _reference_problems(name: str, scalars: dict) -> list[str]:
    with open(REFERENCES, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    problems = []
    for key, want in expected.items():
        got = scalars.get(key)
        if got is None or not (math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=0.0)
                               or math.isnan(got) and math.isnan(want)):
            problems.append(f"{key} = {got!r}, reference {want!r} (rtol {REF_RTOL})")
    return problems


def _all_finite(values: dict) -> list[str]:
    return [f"{k} = {v!r} is not finite" for k, v in values.items()
            if isinstance(v, float) and not math.isfinite(v)]


class Workload:
    """One closed-loop caller: prepare, call (timed), fingerprint, cleanup."""

    name = ""

    def prepare(self) -> None:
        """Untimed work before each call."""

    def cleanup(self) -> None:
        """Untimed work after each call, whether or not it raised."""


class ReportD2(Workload):
    """stability_report on the d=2 instability pair (T=3, 128^2 -> 33^4)."""

    name = "report-d2"

    def __init__(self, seed: int, workdir: str):
        from gaborstab.grids import box_geometry
        from gaborstab.stability import make_instability_pair

        self.T = 3.0 + float(_offsets(seed, 1, 0.05)[0])
        sg = box_geometry((128, 128), -8.0, 7.875)
        self.f, self.g = make_instability_pair(2, self.T, sg)
        self.pg = box_geometry((33,) * 4, -4.0, 4.0)

    def call(self):
        from gaborstab.stability import stability_report

        return stability_report(self.f, self.g, 1.0, 5.0, phase_geometry=self.pg)

    def fingerprint(self, report) -> str:
        return json.dumps(report.to_dict(), sort_keys=True)

    def scalars(self, report) -> dict:
        out = report.to_dict()
        return {k: v for k, v in out.items() if isinstance(v, float)}

    def check(self, report, seed: int) -> list[str]:
        s = self.scalars(report)
        problems = _all_finite(s)
        # The aligned distance stays of order one while h is positive and
        # small: the instability the paper constructs (criterion 08).
        if not s["lhs"] >= 0.5:
            problems.append(f"lhs = {s['lhs']!r} < 0.5")
        if not 0.0 < s["h_upper"] < 1.0:
            problems.append(f"h_upper = {s['h_upper']!r} outside (0, 1)")
        if seed == DEFAULT_SEED:
            problems += _reference_problems(self.name, s)
        return problems


class SweepD1(Workload):
    """instability_sweep over T = 2..6 at spacing 1/32 (closed-form transforms)."""

    name = "sweep-d1"

    def __init__(self, seed: int, workdir: str):
        # Below 1/64 a shift of T leaves every sweep_phase_geometry extent put.
        shifts = _offsets(seed, 5, 1.0 / 80.0)
        self.T_values = [float(t) + float(s) for t, s in zip((2, 3, 4, 5, 6), shifts)]

    def call(self):
        from gaborstab.stability import instability_sweep

        return instability_sweep(self.T_values, p=1.0, q=3.0, spacing=1.0 / 32.0)

    def fingerprint(self, rows) -> str:
        return json.dumps([[r.T, r.h, r.lhs, r.sobolev, r.weighted, r.ratio] for r in rows])

    def scalars(self, rows) -> dict:
        out = {}
        for i, r in enumerate(rows):
            for key in ("h", "lhs", "sobolev", "weighted", "ratio"):
                out[f"T{i + 2}.{key}"] = getattr(r, key)
        return out

    def check(self, rows, seed: int) -> list[str]:
        scalars = self.scalars(rows)
        problems = _all_finite(scalars)
        hs = [r.h for r in rows]
        ratios = [r.ratio for r in rows]
        # Criterion 08: h decreases and the h-free ratio increases in T.
        if not all(b < a for a, b in zip(hs, hs[1:])):
            problems.append(f"h not strictly decreasing in T: {hs}")
        if not all(b > a for a, b in zip(ratios, ratios[1:])):
            problems.append(f"ratio not strictly increasing in T: {ratios}")
        if seed == DEFAULT_SEED:
            problems += _reference_problems(self.name, scalars)
        return problems


class CliChain(Workload):
    """In-process cli.run_config chain: gen, gabor (fft, d=1 and d=2),
    cheeger, entire and stability, with GGR1/JSON/CSV artifacts.

    Each call writes into a fresh directory under ``workdir``, created
    before and removed after the timed region.  Overwriting an existing
    artifact is far slower on some filesystems than writing a new one,
    and removing each call's files before the next call keeps write-back
    of earlier calls from piling up under later ones.
    """

    name = "cli-chain"

    def __init__(self, seed: int, workdir: str):
        shift1, shift2 = _offsets(seed, 2, 0.05)
        self.c1 = 3.0 + float(shift1)
        self.c2 = 1.5 + float(shift2)
        self.noise_seed = int(seed)
        self.workdir = workdir
        self.count = 0
        self.out = None

    def _steps(self, out: str) -> list[tuple[str, dict, int | None]]:
        def path(name):
            return os.path.join(out, name)

        def two_bump(centre, d, sign):
            zero = [0.0] * d
            return {"kind": "two-bump", "center1": [-centre] + zero[1:],
                    "frequency1": zero, "center2": [centre] + zero[1:],
                    "frequency2": zero, "sign": sign}

        sig1 = {"extents": [512], "lo": -8.0, "hi": 7.96875}
        return [
            ("gen", {"geometry": sig1, "signal": two_bump(self.c1, 1, 1),
                     "output": "f_plus.ggr"}, None),
            ("gen", {"geometry": sig1, "signal": two_bump(self.c1, 1, -1),
                     "output": "f_minus.ggr"}, None),
            ("gabor", {"input": path("f_plus.ggr"),
                       "phase_geometry": {"extents": [257, 257], "lo": -8.0, "hi": 8.0},
                       "method": "fft", "output": "F1.ggr",
                       "spectrogram_output": "S1.ggr"}, None),
            ("gabor", {"geometry": {"extents": [128, 128], "lo": -8.0, "hi": 7.875},
                       "signal": two_bump(self.c2, 2, 1),
                       "phase_geometry": {"extents": [33] * 4, "lo": -4.0, "hi": 4.0},
                       "method": "fft", "output": "F2.ggr",
                       "spectrogram_output": "S2.ggr"}, None),
            ("cheeger", {"weight": {"kind": "spectrogram-file", "input": path("S1.ggr")},
                         "coarsen": 1, "output": "cheeger.json"}, None),
            ("entire", {"function": {"kind": "lifted-gabor", "input": path("F1.ggr")},
                        "radii": [1.0, 2.0, 3.0, 4.0], "output": "ballnorms.csv",
                        "report_output": "entire.json"}, None),
            ("stability", {"pair": {"kind": "files", "f_input": path("f_plus.ggr"),
                                    "g_input": path("f_minus.ggr")},
                           "phase_geometry": {"extents": [129, 129], "lo": -8.0, "hi": 8.0},
                           "p": 1.0, "q": 3.0,
                           "partition": {"axis": 0, "threshold": 0.0},
                           "noise": {"kind": "band-limited", "amplitude": 0.001,
                                     "cutoff": 4},
                           "output": "stability.json"}, self.noise_seed),
        ]

    def prepare(self) -> None:
        """Make the fresh artifact directory of the next call (untimed)."""
        self.count += 1
        self.out = os.path.join(self.workdir, f"call-{self.count}")
        os.makedirs(self.out)
        self.steps = self._steps(self.out)

    def call(self):
        from gaborstab.cli import run_config

        lines = []
        for command, cfg, seed in self.steps:
            lines += run_config(command, cfg, self.out, seed)
        return self.out, lines

    def artifacts(self, outcome) -> dict[str, tuple[int, str]]:
        """Size and SHA-256 of every file the call left behind."""
        out, _ = outcome
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = (os.fstat(fh.fileno()).st_size,
                               hashlib.file_digest(fh, "sha256").hexdigest())
        return files

    def fingerprint(self, outcome):
        out, lines = outcome
        return ([line.replace(out, "<out>") for line in lines], self.artifacts(outcome))

    def scalars(self, outcome) -> dict:
        out, _ = outcome
        scalars = {}
        for name in ("cheeger.json", "entire.json", "stability.json"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                report = json.load(fh)
            for key, value in report.items():
                if isinstance(value, float):
                    scalars[f"{name[:-5]}.{key}"] = value
        return scalars

    def check(self, outcome, seed: int) -> list[str]:
        from gaborstab.grids import read_phase_grid
        from gaborstab.signals import analytic_gabor_transform, two_bump_spec

        out, _ = outcome
        s = self.scalars(outcome)
        # Every cell of this lift within radius 4 falls below 1e-12 of the
        # lift's maximum (|G| grows like e^{3 pi |x|} towards the box edge),
        # so all four ball norms are 0 and the log-log fit is NaN, as
        # logderiv_ball_norms documents.  The reference pins that outcome.
        problems = _all_finite({k: v for k, v in s.items() if not k.startswith("entire.")})
        # Criterion 01: the FFT transforms match their closed forms.
        for name, centre, d in (("F1.ggr", self.c1, 1), ("F2.ggr", self.c2, 2)):
            F = read_phase_grid(os.path.join(out, name))
            zero = (0.0,) * d
            spec = two_bump_spec((-centre,) + zero[1:], zero, (centre,) + zero[1:], zero)
            exact = analytic_gabor_transform(spec, F.geometry).values
            err = float(np.max(np.abs(F.values - exact)) / np.max(np.abs(exact)))
            if not err <= TRANSFORM_TOL:
                problems.append(f"{name} off its closed form by {err:.3e} of the peak")
        # Criterion 09: one phase per half-plane rescues the aligned distance.
        if not s["stability.multicomponent_residual"] <= 1e-3 * s["stability.lhs"]:
            problems.append("componentwise residual exceeds 1e-3 of the lhs")
        if seed == DEFAULT_SEED:
            problems += _reference_problems(self.name, s)
        return problems

    def cleanup(self) -> None:
        """Remove the call's artifacts and wait until the removal is on disk.

        The removal runs in a helper thread while this thread spins.  The
        disk takes a second or more, and a call that follows that long an
        idle wait ran up to 30% slower, by an amount that varied from call
        to call, than one that follows busy time, as in the back-to-back
        loops of the other workloads.
        """
        remover = threading.Thread(target=self._remove)
        remover.start()
        while remover.is_alive():
            pass
        remover.join()

    def _remove(self) -> None:
        """Removing a file waits for its write-back; the fsync of the parent
        directory then waits for the journal commit of the removal, so no
        I/O of this call is still running when the next call starts."""
        shutil.rmtree(self.out, ignore_errors=True)
        fd = os.open(self.workdir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


WORKLOADS = {w.name: w for w in (ReportD2, SweepD1, CliChain)}
