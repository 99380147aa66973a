"""Batch front end: JSON-configured runs of the package pipelines.

Subcommands mirror the library layers: `gen` samples signals to GGR1
files, `gabor` computes transforms and spectrograms, `cheeger` estimates
Cheeger constants of weight grids, `entire` runs growth checks and
log-derivative ball-norm sweeps, `stability` assembles stability reports
and instability T-sweeps.  Every run is driven by one JSON config file,
writes its artifacts atomically (temp file + rename), and prints a
one-line summary per result.

Exit codes: 0 success, 2 config parse/validation, 3 inadmissible
exponents, 4 numerical non-convergence, 5 I/O failure.

Thread control: --threads (or the GGR_THREADS environment variable) is
exported to the BLAS/OpenMP thread variables before numerical modules are
imported, which is why all heavy imports in this module are local; main
restores the caller's values of those variables when it returns.  The
default is a single thread, which keeps reductions deterministic so that
identical configs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

from .errors import AdmissibilityError, ConvergenceError, GridFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

COMMANDS = ("gen", "gabor", "cheeger", "entire", "stability")


class ConfigError(ValueError):
    """A config file that cannot be interpreted; maps to exit code 2."""


# Checked in order: AdmissibilityError and GridFormatError are ValueErrors,
# like ConfigError, so the plain ValueError comes last.
_FAILURE_CLASSES = (
    (AdmissibilityError, EXIT_ADMISSIBILITY, "inadmissible exponents"),
    (ConvergenceError, EXIT_CONVERGENCE, "non-convergence"),
    ((GridFormatError, OSError), EXIT_IO, "I/O failure"),
    (ValueError, EXIT_CONFIG, "config error"),
)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return block[key]


@contextlib.contextmanager
def _config_errors(context: str):
    """Report a library ValueError as a ConfigError prefixed with the context.

    ConfigError and GridFormatError pass through unchanged: the first
    already names its context, the second maps to the I/O exit code.
    """
    try:
        yield
    except (ConfigError, GridFormatError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, context: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, context: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(
            f"{context}: expected an integer >= {minimum}, got {value!r}")
    return value


def _as_float_list(value, context: str) -> list[float]:
    if _is_number(value):
        return [float(value)]
    if isinstance(value, list) and all(_is_number(v) for v in value):
        return [float(v) for v in value]
    raise ConfigError(f"{context}: expected a number or list of numbers")


def _as_complex(value, context: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    raise ConfigError(f"{context}: expected a real number or [re, im] pair")


def _geometry_from(block, context: str):
    from .grids import box_geometry

    if not isinstance(block, dict):
        raise ConfigError(f"{context}: geometry must be an object")
    extents = _require(block, "extents", context)
    if not (isinstance(extents, list) and extents):
        raise ConfigError(f"{context}: extents must be a list of integers")
    extents = tuple(_as_int(n, f"{context}.extents", 1) for n in extents)
    lo = _as_float_list(_require(block, "lo", context), f"{context}.lo")
    hi = _as_float_list(_require(block, "hi", context), f"{context}.hi")
    with _config_errors(context):
        return box_geometry(extents,
                            lo[0] if len(lo) == 1 else tuple(lo),
                            hi[0] if len(hi) == 1 else tuple(hi))


def _signal_from(block, geometry, context: str):
    from .signals import (hermite_gaussian, make_analytic, gaussian_spec,
                          shifted_gaussian_spec, two_bump_spec)

    if not isinstance(block, dict):
        raise ConfigError(f"{context}: signal must be an object")
    kind = _require(block, "kind", context)
    with _config_errors(context):
        if kind == "gaussian":
            return make_analytic(gaussian_spec(geometry.rank), geometry)
        if kind == "shifted-gaussian":
            center = _as_float_list(_require(block, "center", context), f"{context}.center")
            freq = _as_float_list(_require(block, "frequency", context), f"{context}.frequency")
            return make_analytic(shifted_gaussian_spec(tuple(center), tuple(freq)), geometry)
        if kind == "two-bump":
            c1 = _as_float_list(_require(block, "center1", context), f"{context}.center1")
            f1 = _as_float_list(_require(block, "frequency1", context), f"{context}.frequency1")
            c2 = _as_float_list(_require(block, "center2", context), f"{context}.center2")
            f2 = _as_float_list(_require(block, "frequency2", context), f"{context}.frequency2")
            sign = _as_int(block.get("sign", 1), f"{context}.sign", -1)
            if sign not in (1, -1):
                raise ConfigError(f"{context}: sign must be 1 or -1")
            return make_analytic(
                two_bump_spec(tuple(c1), tuple(f1), tuple(c2), tuple(f2), sign=sign),
                geometry)
        if kind == "hermite":
            return hermite_gaussian(_as_int(_require(block, "k", context), f"{context}.k", 0),
                                    geometry)
    raise ConfigError(f"{context}: unknown signal kind '{kind}'")


def _input_path(block_value, context: str) -> str:
    if not isinstance(block_value, str) or not block_value:
        raise ConfigError(f"{context}: expected a file path string")
    if not os.path.isfile(block_value):
        raise ConfigError(f"{context}: input file not found: {block_value}")
    return block_value


# ---------------------------------------------------------------------------
# Atomic artifact writers
# ---------------------------------------------------------------------------


def _out_path(out_dir: str, name, context: str) -> str:
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{context}: output path must be a nonempty string")
    path = os.path.join(out_dir, name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _atomic_write(path: str, write) -> None:
    """Run write(fh) on a temp file beside path, then rename it into place.

    The temp file is written through its mkstemp descriptor: reopening it
    with "wb" would truncate it, and some filesystems (ext4) then flush the
    whole file at close.
    """
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    payload = json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"
    _atomic_write(path, lambda fh: fh.write(payload.encode("utf-8")))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    _atomic_write(path, lambda fh: fh.write(payload))


def _write_grid_atomic(path: str, geometry, values) -> None:
    from .grids import write_grid_to

    _atomic_write(path, lambda fh: write_grid_to(fh, geometry, values))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _run_gen(cfg: dict, out_dir: str, seed) -> list[str]:
    geometry = _geometry_from(_require(cfg, "geometry", "gen"), "gen.geometry")
    sig = _signal_from(_require(cfg, "signal", "gen"), geometry, "gen.signal")
    path = _out_path(out_dir, _require(cfg, "output", "gen"), "gen.output")
    _write_grid_atomic(path, sig.geometry, sig.values)
    return [f"gen: wrote {path} ({geometry.num_cells} samples, d={geometry.rank})"]


def _signal_pair_or_input(cfg: dict, context: str):
    from .grids import read_signal

    if "input" in cfg:
        return read_signal(_input_path(cfg["input"], f"{context}.input"))
    geometry = _geometry_from(_require(cfg, "geometry", context), f"{context}.geometry")
    return _signal_from(_require(cfg, "signal", context), geometry, f"{context}.signal")


def _run_gabor(cfg: dict, out_dir: str, seed) -> list[str]:
    import numpy as np

    from .gabor import gabor_transform, gabor_transform_fft, spectrogram

    sig = _signal_pair_or_input(cfg, "gabor")
    pg = _geometry_from(_require(cfg, "phase_geometry", "gabor"), "gabor.phase_geometry")
    method = cfg.get("method", "direct")
    if method == "direct":
        F = gabor_transform(sig, pg)
    elif method == "fft":
        F = gabor_transform_fft(sig, pg)
    else:
        raise ConfigError(f"gabor.method: expected 'direct' or 'fft', got '{method}'")
    lines = []
    path = _out_path(out_dir, _require(cfg, "output", "gabor"), "gabor.output")
    _write_grid_atomic(path, pg, F.values)
    peak = float(np.abs(F.values).max())
    lines.append(f"gabor: wrote {path} (method={method}, peak={peak!r})")
    if "spectrogram_output" in cfg:
        spath = _out_path(out_dir, cfg["spectrogram_output"], "gabor.spectrogram_output")
        S = spectrogram(F)
        _write_grid_atomic(spath, pg, S.values)
        lines.append(f"gabor: wrote {spath} (spectrogram, argmax at {list(S.argmax_location)})")
    return lines


def _weight_from_config(block, context: str):
    import numpy as np

    from .cheeger import WeightGrid, weight_from_spectrogram
    from .gabor import spectrogram
    from .grids import PhaseSpaceGrid, read_grid

    if not isinstance(block, dict):
        raise ConfigError(f"{context}: weight must be an object")
    kind = _require(block, "kind", context)
    with _config_errors(context):
        if kind == "gaussian":
            geom = _geometry_from(_require(block, "geometry", context), f"{context}.geometry")
            return WeightGrid(geometry=geom, values=np.exp(-np.pi * geom.distance_sq() / 2.0))
        if kind in ("spectrogram-file", "grid-file"):
            geom, values = read_grid(_input_path(_require(block, "input", context),
                                                 f"{context}.input"))
            if np.iscomplexobj(values):
                raise ConfigError(f"{context}: {kind} input must be real")
            if kind == "grid-file":
                return WeightGrid(geometry=geom, values=values)
            S = spectrogram(PhaseSpaceGrid(geometry=geom, values=values.astype(np.complex128)))
            opts = {key: _as_float(block[key], f"{context}.{key}")
                    for key in ("power", "threshold") if key in block}
            return weight_from_spectrogram(S, **opts)
    raise ConfigError(f"{context}: unknown weight kind '{kind}'")


def _run_cheeger(cfg: dict, out_dir: str, seed) -> list[str]:
    from .cheeger import sweep_cut_cheeger

    w = _weight_from_config(_require(cfg, "weight", "cheeger"), "cheeger.weight")
    coarsen = _as_int(cfg.get("coarsen", 1), "cheeger.coarsen", 1)
    if coarsen > 1:
        w = w.coarsen(coarsen)
    est = sweep_cut_cheeger(w)
    report = {
        "h_upper": est.h_upper,
        "fiedler_value": est.fiedler_value,
        "cut_weight": est.best_cut.cut_weight,
        "cut_mass_left": est.best_cut.mass_left,
        "cut_mass_right": est.best_cut.mass_right,
        "disconnected": est.disconnected,
        "active_cells": w.active_count,
    }
    if est.h_oracle is not None:
        report["h_oracle"] = est.h_oracle
    if est.disconnected:
        report["component_masses"] = list(est.component_masses)
    path = _out_path(out_dir, _require(cfg, "output", "cheeger"), "cheeger.output")
    _write_json(path, report)
    oracle = "" if est.h_oracle is None else f" h_oracle={est.h_oracle!r}"
    return [f"cheeger: wrote {path} (h_upper={est.h_upper!r}{oracle}, "
            f"disconnected={est.disconnected})"]


def _entire_function_from(block, context: str):
    from .entire import gaussian_exponential_spec, lifted_spec, polynomial_spec

    if not isinstance(block, dict):
        raise ConfigError(f"{context}: function must be an object")
    kind = _require(block, "kind", context)
    with _config_errors(context):
        if kind == "polynomial":
            coeffs = _require(block, "coefficients", context)
            if not isinstance(coeffs, list) or not coeffs:
                raise ConfigError(f"{context}: coefficients must be a nonempty list")
            return polynomial_spec([_as_complex(c, f"{context}.coefficients") for c in coeffs])
        if kind == "gaussian-exponential":
            c = _as_complex(_require(block, "quadratic_coeff", context),
                            f"{context}.quadratic_coeff")
            return gaussian_exponential_spec(c)
        if kind == "lifted-gabor":
            from .gabor import entire_lift
            from .grids import read_phase_grid

            F = read_phase_grid(_input_path(_require(block, "input", context),
                                            f"{context}.input"))
            return lifted_spec(entire_lift(F))
    raise ConfigError(f"{context}: unknown function kind '{kind}'")


def _run_entire(cfg: dict, out_dir: str, seed) -> list[str]:
    from .entire import (GrowthClassSpec, ball_norm_bound_coefficient,
                         growth_class_check, logderiv_ball_norms)

    G = _entire_function_from(_require(cfg, "function", "entire"), "entire.function")
    radii = _as_float_list(_require(cfg, "radii", "entire"), "entire.radii")
    if any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise ConfigError("entire.radii: expected positive increasing radii")
    p = _as_float(cfg.get("p", 1.0), "entire.p")
    d = G.dimension

    geometry = None
    if "geometry" in cfg:
        geometry = _geometry_from(cfg["geometry"], "entire.geometry")
    elif G.kind != "lifted-gabor":
        # analytic kinds are sampled on a square covering the largest ball,
        # at spacing 1/64 per axis
        half = radii[-1]
        n = int(round(2 * half * 64)) + 1
        from .grids import box_geometry
        geometry = box_geometry((n,) * (2 * d), -half, half)

    growth = None
    coeff = exponent = None
    if "alpha" in cfg or "beta" in cfg:
        alpha = _as_float(_require(cfg, "alpha", "entire"), "entire.alpha")
        beta = _as_float(_require(cfg, "beta", "entire"), "entire.beta")
        with _config_errors("entire"):
            gspec = GrowthClassSpec(alpha=alpha, beta=beta)
        growth = growth_class_check(G, gspec, radii)
        coeff, exponent = ball_norm_bound_coefficient(gspec, d)

    table = logderiv_ball_norms(G, p, radii, geometry=geometry)
    path = _out_path(out_dir, _require(cfg, "output", "entire"), "entire.output")
    _write_csv(path, "r,norm,bound,slope", table.rows(coeff, exponent))
    lines = [f"entire: wrote {path} ({len(radii)} radii, "
             f"fitted slope={table.fitted_slope!r})"]
    if "report_output" in cfg:
        report = {
            "kind": G.kind, "d": d, "p": p,
            "fitted_slope": table.fitted_slope,
            "fitted_constant": table.fitted_constant,
            "radii": list(table.radii),
            "norms": list(table.norms),
        }
        if growth is not None:
            report["alpha"] = alpha
            report["beta"] = beta
            report["growth_member"] = growth.member
            report["worst_margin"] = growth.worst_margin
        rpath = _out_path(out_dir, cfg["report_output"], "entire.report_output")
        _write_json(rpath, report)
        lines.append(f"entire: wrote {rpath}")
    if growth is not None:
        lines.append(f"entire: growth membership={growth.member} "
                     f"(worst margin={growth.worst_margin!r})")
    return lines


def _noise_from(block, geometry, seed, context: str):
    from .stability import noise_band_limited, noise_gaussian_bump

    if not isinstance(block, dict):
        raise ConfigError(f"{context}: noise must be an object")
    kind = _require(block, "kind", context)
    with _config_errors(context):
        if kind == "gaussian-bump":
            amplitude = _as_float(_require(block, "amplitude", context), f"{context}.amplitude")
            width = _as_float(_require(block, "width", context), f"{context}.width")
            center = block.get("center")
            if center is not None:
                center = _as_float_list(center, f"{context}.center")
            return noise_gaussian_bump(geometry, amplitude, width, center)
        if kind == "band-limited":
            amplitude = _as_float(_require(block, "amplitude", context), f"{context}.amplitude")
            cutoff = _as_int(_require(block, "cutoff", context), f"{context}.cutoff", 1)
            use_seed = _as_int(seed if seed is not None else block.get("seed"),
                               f"{context}.seed (config 'seed' or --seed)", 0)
            return noise_band_limited(geometry, amplitude, cutoff, use_seed)
    raise ConfigError(f"{context}: unknown noise kind '{kind}'")


def _stability_pair(cfg: dict, context: str):
    from .grids import box_geometry, read_signal
    from .signals import hermite_gaussian, make_analytic, gaussian_spec
    from .stability import instability_signal_geometry, make_instability_pair

    block = _require(cfg, "pair", context)
    if not isinstance(block, dict):
        raise ConfigError(f"{context}.pair: must be an object")
    kind = _require(block, "kind", f"{context}.pair")
    if kind == "files":
        f = read_signal(_input_path(_require(block, "f_input", f"{context}.pair"),
                                    f"{context}.pair.f_input"))
        g = read_signal(_input_path(_require(block, "g_input", f"{context}.pair"),
                                    f"{context}.pair.g_input"))
        return f, g
    if kind == "instability":
        T = _as_float(_require(block, "T", f"{context}.pair"), f"{context}.pair.T")
        if _as_int(block.get("d", 1), f"{context}.pair.d", 1) != 1:
            raise ConfigError(f"{context}.pair: the instability pair is implemented for d=1")
        if "signal_geometry" in cfg:
            sg = _geometry_from(cfg["signal_geometry"], f"{context}.signal_geometry")
        else:
            with _config_errors(f"{context}.pair.T"):
                sg = instability_signal_geometry(T)
        with _config_errors(f"{context}.pair"):
            return make_instability_pair(1, T, sg)
    if kind == "gaussian-hermite":
        from .grids import SignalGrid

        k = _as_int(_require(block, "k", f"{context}.pair"), f"{context}.pair.k", 0)
        amplitude = _as_float(block.get("amplitude", 0.01), f"{context}.pair.amplitude")
        if "signal_geometry" in cfg:
            sg = _geometry_from(cfg["signal_geometry"], f"{context}.signal_geometry")
        else:
            sg = box_geometry((513,), -8.0, 8.0)
        f = make_analytic(gaussian_spec(1), sg)
        h = hermite_gaussian(k, sg)
        g = SignalGrid(geometry=sg, values=f.values + amplitude * h.values)
        return f, g
    raise ConfigError(f"{context}.pair: unknown pair kind '{kind}'")


def _run_stability(cfg: dict, out_dir: str, seed) -> list[str]:
    from .stability import (DEFAULT_CHEEGER_COARSEN, SWEEP_SPACING, instability_sweep,
                            stability_report, sweep_phase_geometry)

    coarsen = _as_int(cfg.get("coarsen", DEFAULT_CHEEGER_COARSEN), "stability.coarsen", 1)

    if "sweep" in cfg:
        sw = cfg["sweep"]
        if not isinstance(sw, dict):
            raise ConfigError("stability.sweep: must be an object")
        T_values = _as_float_list(_require(sw, "T_values", "stability.sweep"),
                                  "stability.sweep.T_values")
        # Keys left out take instability_sweep's defaults.
        opts = {key: _as_float(block[key], f"{context}.{key}")
                for block, context, key in ((cfg, "stability", "p"), (cfg, "stability", "q"),
                                            (sw, "stability.sweep", "spacing"))
                if key in block}
        # instability_sweep also sizes every grid before its first row; doing
        # it here puts the config context on a T that cannot be run.
        with _config_errors("stability.sweep"):
            for T in T_values:
                sweep_phase_geometry(T, opts.get("spacing", SWEEP_SPACING))
        rows = instability_sweep(T_values, cheeger_coarsen=coarsen, **opts)
        path = _out_path(out_dir, _require(sw, "output", "stability.sweep"),
                         "stability.sweep.output")
        _write_csv(path, "T,h,lhs,sobolev,weighted,ratio",
                   [(r.T, r.h, r.lhs, r.sobolev, r.weighted, r.ratio) for r in rows])
        return [f"stability: wrote {path} ({len(rows)} rows, "
                f"ratio {rows[0].ratio!r} -> {rows[-1].ratio!r})"]

    f, g = _stability_pair(cfg, "stability")
    p = _as_float(_require(cfg, "p", "stability"), "stability.p")
    q = _as_float(_require(cfg, "q", "stability"), "stability.q")
    if "phase_geometry" in cfg:
        pg = _geometry_from(cfg["phase_geometry"], "stability.phase_geometry")
    else:
        from .stability import default_phase_geometry
        pg = default_phase_geometry(f.geometry.rank)

    partition = None
    if "partition" in cfg:
        from .grids import DomainPartition

        pblock = cfg["partition"]
        if not isinstance(pblock, dict):
            raise ConfigError("stability.partition: must be an object")
        axis = _as_int(_require(pblock, "axis", "stability.partition"),
                       "stability.partition.axis", 0)
        if axis >= pg.rank:
            raise ConfigError("stability.partition: axis out of range")
        threshold = _as_float(_require(pblock, "threshold", "stability.partition"),
                              "stability.partition.threshold")
        partition = DomainPartition.split_along_axis(pg, axis, threshold)

    noise = None
    if "noise" in cfg:
        noise = _noise_from(cfg["noise"], pg, seed, "stability.noise")

    report = stability_report(f, g, p, q, partition=partition, noise=noise,
                              phase_geometry=pg, cheeger_coarsen=coarsen)
    path = _out_path(out_dir, _require(cfg, "output", "stability"), "stability.output")
    _write_json(path, report.to_dict())
    return [f"stability: wrote {path} (lhs={report.lhs!r}, "
            f"rhs_weighted_shape={report.rhs_weighted_shape!r}, ratio={report.ratio!r})"]


_HANDLERS = {
    "gen": _run_gen,
    "gabor": _run_gabor,
    "cheeger": _run_cheeger,
    "entire": _run_entire,
    "stability": _run_stability,
}


def run_config(command: str, cfg: dict, out_dir: str = ".", seed=None) -> list[str]:
    """Execute one config under the named subcommand; returns summary lines."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command '{command}'")
    declared = cfg.get("command")
    if declared is not None and declared != command:
        raise ConfigError(
            f"config declares command '{declared}' but was run as '{command}'")
    return _HANDLERS[command](cfg, out_dir, seed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _resolve_threads(option) -> int:
    if option is None:
        env = os.environ.get("GGR_THREADS")
        if env is None:
            return 1
        try:
            option = int(env)
        except ValueError:
            raise ConfigError(f"GGR_THREADS must be an integer, got '{env}'") from None
    if option < 1:
        raise ConfigError("thread count must be at least 1")
    return option


@contextlib.contextmanager
def _thread_env(threads: int):
    """Export the thread count to THREAD_ENV_VARS; restore the caller's values on exit.

    BLAS reads these variables when numpy loads.  A caller that runs main
    in a process where numpy is already loaded keeps its thread count, so
    asking for more than one thread there is reported on stderr.
    """
    saved = {var: os.environ.get(var) for var in THREAD_ENV_VARS}
    if threads > 1 and "numpy" in sys.modules:
        print(f"gaborstab: {threads} threads requested, but numpy is already loaded "
              "in this process; its BLAS keeps the thread count it started with",
              file=sys.stderr)
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(threads)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborstab",
        description="Desk-scale numerics for the stability of Gabor phase retrieval.")
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "gen": "sample an analytic signal onto a grid and write it as GGR1",
        "gabor": "compute a Gabor transform (and optional spectrogram)",
        "cheeger": "estimate the Cheeger constant of a weight grid",
        "entire": "growth checks and log-derivative ball-norm sweeps",
        "stability": "stability reports and instability T-sweeps",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=help_lines[name])
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS/OpenMP threads (default: GGR_THREADS or 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides any seed in the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _thread_env(_resolve_threads(args.threads)):
            if args.seed is not None and args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg = _load_config(args.config)
            os.makedirs(args.out, exist_ok=True)
            summaries = run_config(args.command, cfg, args.out, args.seed)
    except Exception as exc:  # one exit code per failure class, first match wins
        for types, code, label in _FAILURE_CLASSES:
            if isinstance(exc, types):
                print(f"gaborstab: {label}: {exc}", file=sys.stderr)
                return code
        raise
    for line in summaries:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
