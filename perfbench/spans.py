"""Spans around the public functions of every gaborstab layer.

The wrappers are installed from outside the package, at the module
attribute each caller resolves: ``stability`` imports the functions in
``STABILITY_IMPORTS`` by name, so ``stability.<name>`` is wrapped as well
as the defining module; ``cli`` imports locally at call time, so the
defining module is enough.  The wrappers are removed after every traced
call.
Each span keeps its name, start, end, parent span id and the id of the
workload call it belongs to.  Spans stay in memory until the run ends.

Work counts are computed from arguments and results after a span closes.
The time spent counting is stored on the span, so it is charged neither
to the span nor to its parent.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import statistics
import time

import numpy as np

# e^{-pi r^2} >= 1e-16 exactly when r^2 <= 16 ln(10) / pi.
WINDOW_FLOOR_R2 = 16.0 * math.log(10.0) / math.pi


def _arg(args, kwargs, index, name):
    """An argument passed by position or name; None when left to its default."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


@functools.lru_cache(maxsize=16)
def _window_pairs(signal_geom, phase_geom) -> tuple[int, int]:
    """(pairs with window >= 1e-16, all pairs) over window positions x and samples t."""
    d = signal_geom.rank
    sq = []
    for a in range(d):
        t = signal_geom.axis_coordinates(a)
        x = phase_geom.axis_coordinates(2 * a)
        sq.append(np.sort(((t[None, :] - x[:, None]) ** 2).ravel()))
    partial = np.zeros(1)
    for s in sq[:-1]:
        partial = (partial[:, None] + s[None, :]).ravel()
        partial = partial[partial <= WINDOW_FLOOR_R2]
    kept = int(np.searchsorted(sq[-1], WINDOW_FLOOR_R2 - partial, side="right").sum())
    return kept, math.prod(s.size for s in sq)


def _count_transform(c, args, kwargs, result):
    f, pg = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "phase_geometry")
    c["gabor.transform.mults"] += f.values.size * pg.num_cells
    kept, total = _window_pairs(f.geometry, pg)
    c["gabor.window_pairs_kept"] += kept
    c["gabor.window_pairs"] += total


def _count_transform_fft(c, args, kwargs, result):
    _count_transform(c, args, kwargs, result)
    f, pg = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "phase_geometry")
    positions = math.prod(pg.extents[0::2])
    c["gabor.fft_bins_kept"] += positions * math.prod(pg.extents[1::2])
    c["gabor.fft_bins"] += positions * f.values.size


def _count_align(c, args, kwargs, result):
    mask = _arg(args, kwargs, 3, "mask")
    F1 = _arg(args, kwargs, 0, "F1")
    c["stability.align.cells"] += F1.values.size if mask is None else int(np.count_nonzero(mask))


def _count_fiedler(c, args, kwargs, result):
    n = _arg(args, kwargs, 0, "graph").num_vertices
    c["cheeger.fiedler.iterations"] += result.iterations
    c["cheeger.fiedler.vertices"] += n
    c["cheeger.fiedler.basis_bytes"] += (result.iterations + 1) * n * 8


def _count_graph(c, args, kwargs, result):
    c["cheeger.graph.edges"] += result.edge_tail.size


def _count_gradient(c, args, kwargs, result):
    c["fdiff.gradient.cells"] += np.size(_arg(args, kwargs, 0, "values"))


def _count_closed_form(c, args, kwargs, result):
    c["signals.closed_form.cells"] += result.values.size


def _count_ball_norms(c, args, kwargs, result):
    G = _arg(args, kwargs, 0, "G")
    geom = _arg(args, kwargs, 3, "geometry")
    c["entire.cells"] += (G.lift.geometry if geom is None else geom).num_cells


def _count_write(c, args, kwargs, result):
    c["grids.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(c, args, kwargs, result):
    c["grids.read.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, attribute, span name, counter).  A dotted attribute names a method.
TARGETS = (
    ("grids", "write_grid", "grids.write", _count_write),
    ("grids", "read_grid", "grids.read", _count_read),
    ("signals", "make_analytic", "signals.sample", None),
    ("signals", "hermite_gaussian", "signals.sample", None),
    ("signals", "analytic_gabor_transform", "signals.closed_form", _count_closed_form),
    ("gabor", "gabor_transform", "gabor.transform_direct", _count_transform),
    ("gabor", "gabor_transform_fft", "gabor.transform_fft", _count_transform_fft),
    ("gabor", "spectrogram", "gabor.spectrogram", None),
    ("gabor", "entire_lift", "gabor.entire_lift", None),
    ("fdiff", "gradient", "fdiff.gradient", _count_gradient),
    ("entire", "logderiv_ball_norms", "entire.ball_norms", _count_ball_norms),
    ("cheeger", "weight_from_spectrogram", "cheeger.weight", None),
    ("cheeger", "WeightGrid.coarsen", "cheeger.weight", None),
    ("cheeger", "build_weight_graph", "cheeger.graph", _count_graph),
    ("cheeger", "fiedler_vector", "cheeger.fiedler", _count_fiedler),
    ("cheeger", "sweep_cut_cheeger", "cheeger.sweep_cut", None),
    ("cheeger", "exhaustive_cheeger_oracle", "cheeger.oracle", None),
    ("stability", "align_phase_global", "stability.align", _count_align),
    ("stability", "align_phase_multicomponent", "stability.align_multi", None),
    ("stability", "sobolev_diff_pieces", "stability.norms", None),
    ("stability", "sobolev_diff_norm", "stability.norms", None),
    ("stability", "weighted_lq_diff_norm", "stability.norms", None),
    ("stability", "logderiv_term", "stability.norms", None),
    ("stability", "dnorm", "stability.norms", None),
    ("stability", "noise_band_limited", "stability.noise", None),
    ("stability", "noise_gaussian_bump", "stability.noise", None),
    ("stability", "stability_report", "stability.assembly", None),
    ("stability", "instability_sweep", "stability.assembly", None),
    ("stability", "cheeger_route_terms", "stability.assembly", None),
    ("cli", "run_config", "cli.run_config", None),
)
# Names stability imports from other layers: wrapped at stability too.
STABILITY_IMPORTS = ("gabor_transform", "spectrogram", "sweep_cut_cheeger",
                     "weight_from_spectrogram", "make_analytic")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
# Work counts summed over the spans of one call (cli.* by the worker).
COUNT_KEYS = ("gabor.transform.mults", "gabor.window_pairs_kept", "gabor.window_pairs",
              "gabor.fft_bins_kept", "gabor.fft_bins", "stability.align.cells",
              "cheeger.fiedler.iterations", "cheeger.fiedler.vertices",
              "cheeger.fiedler.basis_bytes", "cheeger.graph.edges",
              "fdiff.gradient.cells", "signals.closed_form.cells", "entire.cells",
              "grids.write.bytes", "grids.read.bytes", "cli.artifacts", "cli.artifact_bytes")
# Reported only through the two gabor ratios.
PAIR_COUNTS = ("gabor.window_pairs_kept", "gabor.window_pairs", "gabor.fft_bins_kept",
               "gabor.fft_bins")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        # span: [id, name, start, end, parent id, call id, counting time]
        self.spans: list[list] = []
        self.counts: dict[str, float] = collections.defaultdict(int)
        self.call_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = [sid, name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.call_id, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
                span[6] = time.perf_counter() - span[3]
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"gaborstab.{m}") for m, _, _, _ in TARGETS}
        stability = mods["stability"]
        for mod, attr, name, counter in TARGETS:
            owner = mods[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            self._set(owner, attr, wrapper)
            if (mod != "stability" and attr in STABILITY_IMPORTS
                    and getattr(stability, attr, None) is original):
                self._set(stability, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_call(self) -> None:
        self.call_id += 1
        self.counts = collections.defaultdict(int)

    def call_summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, counts) per layer of the current call.

        The counts are the call counts plus the work counts; they must
        repeat exactly from one call to the next.
        """
        spans = [s for s in self.spans if s[5] == self.call_id]
        covered = {s[0]: 0.0 for s in spans}
        for s in spans:
            if s[4] is not None:
                covered[s[4]] += s[3] - s[2] + s[6]
        self_s = {f"{n}.self_s": 0.0 for n in SPAN_NAMES}
        counts = {f"{n}.calls": 0 for n in SPAN_NAMES}
        for s in spans:
            counts[f"{s[1]}.calls"] += 1
            self_s[f"{s[1]}.self_s"] += s[3] - s[2] - covered[s[0]]
        counts.update(dict.fromkeys(COUNT_KEYS, 0))
        counts.update(self.counts)
        return self_s, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s_per_call: list[dict], counts: dict) -> dict[str, float]:
    """Median per-call self seconds plus the counts of one traced call.

    The caller has checked that every traced call repeated the counts.
    """
    out = {key: statistics.median(c[key] for c in self_s_per_call)
           for key in self_s_per_call[0]}
    out.update({k: v for k, v in counts.items() if k not in PAIR_COUNTS})
    out["gabor.window_support_ratio"] = _ratio(counts["gabor.window_pairs_kept"],
                                               counts["gabor.window_pairs"])
    out["gabor.fft_bins_kept_ratio"] = _ratio(counts["gabor.fft_bins_kept"],
                                              counts["gabor.fft_bins"])
    return out
