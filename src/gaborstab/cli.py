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

from .errors import AdmissibilityError, ConvergenceError, GridFormatError, ResourceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5
EXIT_RESOURCE = 6

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

class ConfigError(ValueError):
    """A config file that cannot be interpreted; maps to exit code 2."""


# Checked in order: AdmissibilityError and GridFormatError are ValueErrors,
# like ConfigError, so the plain ValueError comes last.
_FAILURE_CLASSES = (
    (AdmissibilityError, EXIT_ADMISSIBILITY, "inadmissible exponents"),
    (ConvergenceError, EXIT_CONVERGENCE, "non-convergence"),
    (ResourceError, EXIT_RESOURCE, "memory budget exceeded"),
    ((GridFormatError, OSError), EXIT_IO, "I/O failure"),
    (ValueError, EXIT_CONFIG, "config error"),
)


# ---------------------------------------------------------------------------
# Config reader
# ---------------------------------------------------------------------------


def _load_config(path: str):
    """The parsed JSON of a config file; run_config checks that it is an object."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return cfg


# The default of a key that has none: the reader raises the missing-key error.
_REQUIRED = object()


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """A JSON integer (2, not 2.0), but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_complex(value) -> bool:
    """A real number or an [re, im] pair of numbers."""
    return _is_number(value) or (isinstance(value, list) and len(value) == 2
                                 and all(_is_number(v) for v in value))


def _is_list_of(value, accept) -> bool:
    """A nonempty list whose items all pass accept."""
    return isinstance(value, list) and len(value) > 0 and all(accept(v) for v in value)


class _Block:
    """One JSON object of a config, at its dotted path ("stability.noise").

    Every config value is read by one method call that names its key.  The
    call composes the key's path, raises the missing-key error for a key
    without a default, and checks the JSON type: a bool is not a number,
    counts are integers, and lists must be nonempty.  Nested objects come
    from `block` and `geometry` with their own paths, so every config error
    names the dotted path of its key or block.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: must be an object")
        self._data = value
        self.path = path

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def error(self, key: str | None, message: str) -> ConfigError:
        """A ConfigError naming path.key, or the block's path for key None."""
        where = self.path if key is None else f"{self.path}.{key}"
        return ConfigError(f"{where}: {message}")

    @contextlib.contextmanager
    def errors(self, key: str | None = None):
        """Report a library ValueError as a ConfigError naming path.key.

        ConfigError, GridFormatError and AdmissibilityError pass through
        unchanged: the first already names its key, the others keep their
        own exit codes (I/O and admissibility).
        """
        try:
            yield
        except (ConfigError, GridFormatError, AdmissibilityError):
            raise
        except ValueError as exc:
            raise self.error(key, str(exc)) from exc

    def _read(self, key: str, default, accept, expected: str):
        """The value at key, checked by accept; default (unchecked) if it is absent."""
        if key not in self._data:
            if default is _REQUIRED:
                raise self.error(key, "missing required key")
            return default
        value = self._data[key]
        if not accept(value):
            raise self.error(key, f"expected {expected}, got {value!r}")
        return value

    def block(self, key: str) -> "_Block":
        """The nested object at key (the object check is _Block's)."""
        return _Block(self._read(key, _REQUIRED, lambda v: True, "an object"),
                      f"{self.path}.{key}")

    def number(self, key: str, default=_REQUIRED) -> float:
        return float(self._read(key, default, _is_number, "a number"))

    def integer(self, key: str, minimum: int | None, default=_REQUIRED) -> int:
        return self._read(key, default,
                          lambda v: _is_int(v) and (minimum is None or v >= minimum),
                          "an integer" if minimum is None else f"an integer >= {minimum}")

    def numbers(self, key: str) -> list[float]:
        """A number or a nonempty list of numbers, as a list."""
        value = self._read(key, _REQUIRED,
                           lambda v: _is_number(v) or _is_list_of(v, _is_number),
                           "a number or a nonempty list of numbers")
        return [float(v) for v in (value if isinstance(value, list) else [value])]

    def complex_number(self, key: str) -> complex:
        return self._complex(self._read(key, _REQUIRED, _is_complex,
                                        "a real number or [re, im] pair"))

    def complex_numbers(self, key: str) -> list[complex]:
        value = self._read(key, _REQUIRED, lambda v: _is_list_of(v, _is_complex),
                           "a nonempty list of real numbers or [re, im] pairs")
        return [self._complex(v) for v in value]

    @staticmethod
    def _complex(value) -> complex:
        return complex(value) if _is_number(value) else complex(value[0], value[1])

    def text(self, key: str, default=_REQUIRED) -> str:
        return self._read(key, default, lambda v: isinstance(v, str) and v != "",
                          "a nonempty string")

    def input_file(self, key: str) -> str:
        path = self.text(key)
        if not os.path.isfile(path):
            raise self.error(key, f"input file not found: {path}")
        return path

    def output(self, key: str, out_dir: str) -> str:
        """The output path under out_dir; its parent directory is created."""
        path = os.path.join(out_dir, self.text(key))
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return path

    def geometry(self, key: str):
        """A box geometry from the object at key: extents, lo and hi."""
        from .grids import box_geometry

        block = self.block(key)
        extents = block._read("extents", _REQUIRED,
                              lambda v: _is_list_of(v, lambda n: _is_int(n) and n >= 1),
                              "a nonempty list of integers >= 1")
        lo, hi = block.numbers("lo"), block.numbers("hi")
        with block.errors():
            return box_geometry(extents, lo, hi)


def _signal_from(block: _Block, geometry):
    from .signals import (hermite_gaussian, make_analytic, gaussian_spec,
                          shifted_gaussian_spec, two_bump_spec)

    kind = block.text("kind")
    with block.errors():
        if kind == "gaussian":
            return make_analytic(gaussian_spec(geometry.rank), geometry)
        if kind == "shifted-gaussian":
            spec = shifted_gaussian_spec(tuple(block.numbers("center")),
                                         tuple(block.numbers("frequency")))
            return make_analytic(spec, geometry)
        if kind == "two-bump":
            spec = two_bump_spec(tuple(block.numbers("center1")),
                                 tuple(block.numbers("frequency1")),
                                 tuple(block.numbers("center2")),
                                 tuple(block.numbers("frequency2")),
                                 sign=block.integer("sign", None, default=1))
            return make_analytic(spec, geometry)
        if kind == "hermite":
            return hermite_gaussian(block.integer("k", 0), geometry)
    raise block.error("kind", f"unknown signal kind '{kind}'")


# ---------------------------------------------------------------------------
# Atomic artifact writers
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    from .grids import atomic_file

    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(repr(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _run_gen(cfg: _Block, out_dir: str, seed) -> list[str]:
    from .grids import write_grid

    geometry = cfg.geometry("geometry")
    sig = _signal_from(cfg.block("signal"), geometry)
    path = cfg.output("output", out_dir)
    write_grid(path, sig.geometry, sig.values)
    return [f"gen: wrote {path} ({geometry.num_cells} samples, d={geometry.rank})"]


def _signal_pair_or_input(cfg: _Block):
    from .grids import read_signal

    if "input" in cfg:
        return read_signal(cfg.input_file("input"))
    geometry = cfg.geometry("geometry")
    return _signal_from(cfg.block("signal"), geometry)


def _run_gabor(cfg: _Block, out_dir: str, seed) -> list[str]:
    import numpy as np

    from .gabor import FirstPeak, gabor_transform, gabor_transform_fft
    from .grids import GridWriter, atomic_file, write_grid

    sig = _signal_pair_or_input(cfg)
    pg = cfg.geometry("phase_geometry")
    method = cfg.text("method", default="direct")
    transforms = {"direct": gabor_transform, "fft": gabor_transform_fft}
    if method not in transforms:
        raise cfg.error("method", f"expected 'direct' or 'fft', got '{method}'")
    path = cfg.output("output", out_dir)
    spath = cfg.output("spectrogram_output", out_dir) if "spectrogram_output" in cfg else None
    peak = FirstPeak()

    def moduli_to(fh, slabs):
        """The slabs of F, passed on; their moduli go to the peak and to fh."""
        out = None if fh is None else GridWriter(fh, pg)
        for slab in slabs:
            mod = np.abs(slab)
            peak.feed(mod)
            if out is not None:
                out.write(mod)
            del mod
            yield slab
            del slab  # not held while the next slab is computed
        # Before F's rename, and so before S's: a short stream or a NaN
        # leaves both old files.
        if out is not None:
            out.finish()
        peak.cell()

    def write(slabs):
        with contextlib.nullcontext() if spath is None else atomic_file(spath) as fh:
            write_grid(path, pg, moduli_to(fh, slabs))

    # F and |F| go to their files one slab at a time, so neither field is
    # ever held whole.
    transforms[method](sig, pg, consume=write)
    index, value = peak.cell()
    lines = [f"gabor: wrote {path} (method={method}, peak={value!r})"]
    if spath is not None:
        location = pg.index_coordinates(tuple(int(i) for i in np.unravel_index(index, pg.extents)))
        lines.append(f"gabor: wrote {spath} (spectrogram, argmax at {list(location)})")
    return lines


def _weight_from(block: _Block):
    import numpy as np

    from .cheeger import WeightGrid, weight_from_spectrogram
    from .gabor import Spectrogram
    from .grids import read_grid

    kind = block.text("kind")
    with block.errors():
        if kind == "gaussian":
            geom = block.geometry("geometry")
            return WeightGrid(geometry=geom, values=np.exp(-np.pi * geom.distance_sq() / 2.0))
        if kind in ("spectrogram-file", "grid-file"):
            geom, values = read_grid(block.input_file("input"))
            if np.iscomplexobj(values):
                raise block.error("input", f"{kind} input must be real")
            if kind == "grid-file":
                return WeightGrid(geometry=geom, values=values)
            S = Spectrogram(geom, np.abs(values))
            opts = {key: block.number(key) for key in ("power", "threshold") if key in block}
            return weight_from_spectrogram(S, **opts)
    raise block.error("kind", f"unknown weight kind '{kind}'")


def _run_cheeger(cfg: _Block, out_dir: str, seed) -> list[str]:
    from .cheeger import sweep_cut_cheeger

    w = _weight_from(cfg.block("weight"))
    w = w.coarsen(cfg.integer("coarsen", 1, default=1))
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
    path = cfg.output("output", out_dir)
    _write_json(path, report)
    oracle = "" if est.h_oracle is None else f" h_oracle={est.h_oracle!r}"
    return [f"cheeger: wrote {path} (h_upper={est.h_upper!r}{oracle}, "
            f"disconnected={est.disconnected})"]


def _entire_function_from(block: _Block):
    from .entire import gaussian_exponential_spec, lifted_spec, polynomial_spec

    kind = block.text("kind")
    with block.errors():
        if kind == "polynomial":
            return polynomial_spec(block.complex_numbers("coefficients"))
        if kind == "gaussian-exponential":
            return gaussian_exponential_spec(block.complex_number("quadratic_coeff"))
        if kind == "lifted-gabor":
            from .gabor import entire_lift
            from .grids import read_phase_grid

            return lifted_spec(entire_lift(read_phase_grid(block.input_file("input"))))
    raise block.error("kind", f"unknown function kind '{kind}'")


def _run_entire(cfg: _Block, out_dir: str, seed) -> list[str]:
    from .entire import (GrowthClassSpec, ball_norm_bound_coefficient,
                         growth_class_check, logderiv_ball_norms)

    G = _entire_function_from(cfg.block("function"))
    radii = cfg.numbers("radii")
    if any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise cfg.error("radii", "expected positive increasing radii")
    p = cfg.number("p", default=1.0)
    d = G.dimension

    geometry = None
    if "geometry" in cfg:
        geometry = cfg.geometry("geometry")
    elif G.kind != "lifted-gabor":
        # analytic kinds are sampled on a square covering the largest ball,
        # at spacing 1/64 per axis
        half = radii[-1]
        from .grids import box_geometry, box_samples
        with cfg.errors("radii"):
            extents = box_samples((2 * half,) * (2 * d), 1.0 / 64.0,
                                  f"the default grid for radius {half} "
                                  "(give an explicit 'geometry' instead)")
        geometry = box_geometry(extents, -half, half)

    growth = None
    coeff = exponent = None
    if "alpha" in cfg or "beta" in cfg:
        alpha, beta = cfg.number("alpha"), cfg.number("beta")
        with cfg.errors():
            gspec = GrowthClassSpec(alpha=alpha, beta=beta)
        growth = growth_class_check(G, gspec, radii)
        coeff, exponent = ball_norm_bound_coefficient(gspec, d)

    table = logderiv_ball_norms(G, p, radii, geometry=geometry)
    path = cfg.output("output", out_dir)
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
        rpath = cfg.output("report_output", out_dir)
        _write_json(rpath, report)
        lines.append(f"entire: wrote {rpath}")
    if growth is not None:
        lines.append(f"entire: growth membership={growth.member} "
                     f"(worst margin={growth.worst_margin!r})")
    return lines


def _noise_from(block: _Block, geometry, seed):
    from .stability import noise_band_limited, noise_gaussian_bump

    kind = block.text("kind")
    with block.errors():
        if kind == "gaussian-bump":
            amplitude, width = block.number("amplitude"), block.number("width")
            center = block.numbers("center") if "center" in block else None
            return noise_gaussian_bump(geometry, amplitude, width, center)
        if kind == "band-limited":
            amplitude, cutoff = block.number("amplitude"), block.integer("cutoff", 1)
            use_seed = seed if seed is not None else block.integer("seed", 0)
            return noise_band_limited(geometry, amplitude, cutoff, use_seed)
    raise block.error("kind", f"unknown noise kind '{kind}'")


def _stability_pair(cfg: _Block):
    from .grids import box_geometry, read_signal
    from .signals import hermite_gaussian, make_analytic, gaussian_spec
    from .stability import instability_signal_geometry, make_instability_pair

    pair = cfg.block("pair")
    kind = pair.text("kind")
    if kind == "files":
        return read_signal(pair.input_file("f_input")), read_signal(pair.input_file("g_input"))
    if kind == "instability":
        T = pair.number("T")
        if pair.integer("d", 1, default=1) != 1:
            raise pair.error("d", "the instability pair is implemented for d=1")
        if "signal_geometry" in cfg:
            sg = cfg.geometry("signal_geometry")
        else:
            with pair.errors("T"):
                sg = instability_signal_geometry(T)
        with pair.errors():
            return make_instability_pair(1, T, sg)
    if kind == "gaussian-hermite":
        from .grids import SignalGrid

        k = pair.integer("k", 0)
        amplitude = pair.number("amplitude", default=0.01)
        if "signal_geometry" in cfg:
            sg = cfg.geometry("signal_geometry")
        else:
            sg = box_geometry((513,), -8.0, 8.0)
        f = make_analytic(gaussian_spec(1), sg)
        with pair.errors():
            h = hermite_gaussian(k, sg)
        g = SignalGrid(geometry=sg, values=f.values + amplitude * h.values)
        return f, g
    raise pair.error("kind", f"unknown pair kind '{kind}'")


def _run_stability(cfg: _Block, out_dir: str, seed) -> list[str]:
    from .stability import DEFAULT_CHEEGER_COARSEN, instability_sweep, stability_report

    coarsen = cfg.integer("coarsen", 1, default=DEFAULT_CHEEGER_COARSEN)

    if "sweep" in cfg:
        sw = cfg.block("sweep")
        T_values = sw.numbers("T_values")
        # Keys left out take instability_sweep's defaults.
        opts = {key: block.number(key)
                for block, key in ((cfg, "p"), (cfg, "q"), (sw, "spacing")) if key in block}
        with sw.errors():
            rows = instability_sweep(T_values, cheeger_coarsen=coarsen, **opts)
        path = sw.output("output", out_dir)
        _write_csv(path, "T,h,lhs,sobolev,weighted,ratio",
                   [(r.T, r.h, r.lhs, r.sobolev, r.weighted, r.ratio) for r in rows])
        return [f"stability: wrote {path} ({len(rows)} rows, "
                f"ratio {rows[0].ratio!r} -> {rows[-1].ratio!r})"]

    f, g = _stability_pair(cfg)
    p, q = cfg.number("p"), cfg.number("q")
    if "phase_geometry" in cfg:
        pg = cfg.geometry("phase_geometry")
    else:
        from .stability import default_phase_geometry
        pg = default_phase_geometry(f.geometry.rank)

    partition = None
    if "partition" in cfg:
        from .grids import DomainPartition

        part = cfg.block("partition")
        axis, threshold = part.integer("axis", None), part.number("threshold")
        # The library checks the axis first; past it, an empty side is
        # the threshold's fault.
        with part.errors("threshold" if 0 <= axis < pg.rank else "axis"):
            partition = DomainPartition.split_along_axis(pg, axis, threshold)

    noise = None
    if "noise" in cfg:
        noise = _noise_from(cfg.block("noise"), pg, seed)

    report = stability_report(f, g, p, q, partition=partition, noise=noise,
                              phase_geometry=pg, cheeger_coarsen=coarsen)
    path = cfg.output("output", out_dir)
    _write_json(path, report.to_dict())
    return [f"stability: wrote {path} (lhs={report.lhs!r}, "
            f"rhs_weighted_shape={report.rhs_weighted_shape!r}, ratio={report.ratio!r})"]


# Subcommand name -> (handler, help line).
COMMANDS = {
    "gen": (_run_gen, "sample an analytic signal onto a grid and write it as GGR1"),
    "gabor": (_run_gabor, "compute a Gabor transform (and optional spectrogram)"),
    "cheeger": (_run_cheeger, "estimate the Cheeger constant of a weight grid"),
    "entire": (_run_entire, "growth checks and log-derivative ball-norm sweeps"),
    "stability": (_run_stability, "stability reports and instability T-sweeps"),
}


def run_config(command: str, cfg: dict, out_dir: str = ".", seed=None) -> list[str]:
    """Execute one config under the named subcommand; returns summary lines."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    root = _Block(cfg, command)
    declared = root.text("command", default=command)
    if declared != command:
        raise ConfigError(
            f"config declares command '{declared}' but was run as '{command}'")
    return COMMANDS[command][0](root, out_dir, seed)


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
    for name, (_, help_line) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
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
