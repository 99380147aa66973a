"""The benchmark's span wrappers still fit the package.

perfbench/spans.py wraps package functions by module attribute name and
reads some of their arguments by position or keyword.  A renamed
function, a moved argument or a write path that bypasses a wrapped
function breaks it without an error: the affected spans and counts just
read 0.  This test installs the tracer around a small run and checks that
every wrapped name resolves and that the counts it reads are filled.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborstab import cli, stability
from gaborstab.grids import DomainPartition, PhaseSpaceGrid, box_geometry
from gaborstab.stability import make_instability_pair, stability_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    yield module
    sys.modules.pop("spans", None)


def test_every_wrapped_name_resolves(spans):
    for mod, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"gaborstab.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod}.{attr}"
        # stability imports these names: the tracer wraps them there only
        # while they are the defining module's own functions.
        if mod != "stability" and attr in spans.STABILITY_IMPORTS:
            assert getattr(stability, attr) is owner, attr


def test_traced_run_fills_the_work_counts(spans, tmp_path):
    originals = {name: getattr(stability, name) for name in spans.STABILITY_IMPORTS}
    tracer = spans.Tracer()
    tracer.begin_call()
    tracer.install()
    try:
        f, g = make_instability_pair(1, 2.0, box_geometry((193,), -6.0, 6.0))
        stability_report(f, g, 1.0, 3.0, phase_geometry=box_geometry((65, 65), -2.0, 2.0))
        cli.run_config("gen", {"geometry": {"extents": [129], "lo": -6.0, "hi": 6.0},
                               "signal": {"kind": "gaussian"}, "output": "f.ggr"},
                       str(tmp_path))
        cli.run_config("gabor", {"input": str(tmp_path / "f.ggr"),
                                 "phase_geometry": {"extents": [33, 33], "lo": -2.0, "hi": 2.0},
                                 "output": "F.ggr"}, str(tmp_path))
        # The FFT entry point, on a y grid with the lattice step 1/(n dt) = 1/8.
        cli.run_config("gabor", {"geometry": {"extents": [64], "lo": -4.0, "hi": 3.875},
                                 "signal": {"kind": "gaussian"},
                                 "phase_geometry": {"extents": [17, 33], "lo": -2.0, "hi": 2.0},
                                 "method": "fft", "output": "F_fft.ggr"}, str(tmp_path))
    finally:
        tracer.remove()
    assert {name: getattr(stability, name) for name in spans.STABILITY_IMPORTS} == originals
    _, counts = tracer.call_summary()
    for key in ("stability.align.cells", "cheeger.fiedler.iterations",
                "grids.write.bytes", "gabor.transform.mults"):
        assert counts[key] > 0, key
    assert counts["gabor.transform_fft.calls"] >= 1 and counts["gabor.fft_bins"] > 0
    assert (counts["grids.write.calls"], counts["grids.read.calls"]) == (3, 1)


def test_traced_multicomponent_alignment_counts_every_component_cell(spans):
    # Each component is aligned by align_phase_global on its bool mask, so
    # the traced cells sum the component sizes.  A partition passed as the
    # mask itself is refused, so it cannot be counted as a single cell.
    rng = np.random.default_rng(0)
    geom = box_geometry((12, 10), -1.0, 1.0)
    F1, F2 = (PhaseSpaceGrid(geom, rng.standard_normal(geom.extents)
                             + 1j * rng.standard_normal(geom.extents)) for _ in range(2))
    labels = rng.integers(0, 4, geom.extents)
    labels[0, :3] = [1, 2, 3]
    part = DomainPartition(geom, labels)
    tracer = spans.Tracer()
    tracer.begin_call()
    tracer.install()
    try:
        with pytest.raises(ValueError, match="mask shape"):
            stability.align_phase_global(F1, F2, 1.5, part)
        stability.align_phase_multicomponent(F1, F2, 1.5, part)
    finally:
        tracer.remove()
    _, counts = tracer.call_summary()
    sizes = [np.count_nonzero(part.component(i)) for i in range(1, 4)]
    assert counts["stability.align_multi.calls"] == 1
    assert counts["stability.align.calls"] == 1 + len(sizes)
    assert counts["stability.align.cells"] == sum(sizes) == np.count_nonzero(part.active)
