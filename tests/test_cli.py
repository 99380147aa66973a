"""End-to-end tests for the JSON-configured command line front end.

Most cases drive `cli.main` in process (fast, and monkeypatchable); a few
spawn real subprocesses to check the module entry point, the console
script, and byte-level determinism across runs. The console script is
built from `pyproject.toml`'s `[project.scripts]` into a temporary `bin`,
so the check needs no prior install and runs this checkout's code.
"""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaborstab
from gaborstab import cli
from gaborstab.cheeger import WeightGrid, sweep_cut_cheeger
from gaborstab.errors import ConvergenceError
from gaborstab.gabor import gabor_transform, gabor_transform_fft, spectrogram
from gaborstab.grids import (DomainPartition, PhaseSpaceGrid, box_geometry, read_grid,
                             read_signal, write_grid)
from gaborstab.signals import gaussian_spec, hermite_gaussian, make_analytic
from gaborstab.stability import (make_instability_pair, noise_gaussian_bump,
                                 stability_report)


def write_cfg(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_main(cmd, cfg_path, out_dir, *extra):
    return cli.main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


def run_subprocess(cmd, cfg_path, out_dir, *extra, env=None):
    argv = [sys.executable, "-m", "gaborstab.cli", cmd,
            "--config", cfg_path, "--out", str(out_dir), *extra]
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(argv, capture_output=True, text=True, env=merged)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


GEOM_1D = {"extents": [193], "lo": -6.0, "hi": 6.0}
PHASE_2D = {"extents": [65, 65], "lo": -2.0, "hi": 2.0}


class TestGen:
    def test_gaussian_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == 0
        assert capsys.readouterr().out.startswith("gen: wrote")
        sig = read_signal(str(tmp_path / "sig.ggr"))
        geom = box_geometry((193,), -6.0, 6.0)
        assert sig.geometry == geom
        expected = make_analytic(gaussian_spec(1), geom)
        assert np.array_equal(sig.values, expected.values)

    def test_hermite_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "hermite", "k": 2},
            "geometry": GEOM_1D,
            "output": "h2.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == 0
        sig = read_signal(str(tmp_path / "h2.ggr"))
        expected = hermite_gaussian(2, box_geometry((193,), -6.0, 6.0))
        assert np.array_equal(sig.values, expected.values)

    def test_nested_output_path_created(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "deep/dir/sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == 0
        assert (tmp_path / "deep" / "dir" / "sig.ggr").is_file()

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == 0
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestGridArtifacts:
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_artifact_bytes_equal_write_grid(self, tmp_path, is_complex):
        from gaborstab.grids import GridWriter

        rng = np.random.default_rng(2)
        geom = box_geometry((5, 4, 3), -1.0, 1.0)
        values = rng.standard_normal(geom.extents)
        if is_complex:
            values = values + 1j * rng.standard_normal(geom.extents)
        write_grid(str(tmp_path / "atomic.ggr"), geom, values)
        with open(tmp_path / "plain.ggr", "wb") as fh:
            out = GridWriter(fh, geom)
            out.write(values)
            out.finish()
        assert (tmp_path / "atomic.ggr").read_bytes() == (tmp_path / "plain.ggr").read_bytes()

    def test_failing_write_leaves_no_temp_file_and_keeps_the_old_artifact(
            self, tmp_path, monkeypatch):
        from gaborstab import grids

        geom = box_geometry((4, 4), -1.0, 1.0)
        path = str(tmp_path / "a.ggr")
        write_grid(path, geom, np.ones((4, 4)))
        before = (tmp_path / "a.ggr").read_bytes()

        def broken(self, values):
            self._fh.write(b"GGR1 partial")
            raise OSError("disk full")

        monkeypatch.setattr(grids.GridWriter, "write", broken)
        with pytest.raises(OSError, match="disk full"):
            write_grid(path, geom, np.zeros((4, 4)))
        assert os.listdir(tmp_path) == ["a.ggr"]
        assert (tmp_path / "a.ggr").read_bytes() == before


class TestGabor:
    def test_direct_inline_signal_matches_library(self, tmp_path):
        cfg = write_cfg(tmp_path, "gabor.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "method": "direct",
            "output": "F.ggr",
            "spectrogram_output": "S.ggr",
        })
        assert run_main("gabor", cfg, tmp_path) == 0
        geom = box_geometry((193,), -6.0, 6.0)
        pg = box_geometry((65, 65), -2.0, 2.0)
        F = gabor_transform(make_analytic(gaussian_spec(1), geom), pg)
        out_geom, out_vals = read_grid(str(tmp_path / "F.ggr"))
        assert out_geom == pg
        assert np.array_equal(out_vals, F.values)
        s_geom, s_vals = read_grid(str(tmp_path / "S.ggr"))
        assert not np.iscomplexobj(s_vals)
        assert np.array_equal(s_vals, spectrogram(F).values)

    def test_fft_from_input_file(self, tmp_path):
        # signal grid chosen so phase frequencies sit on the FFT lattice
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "shifted-gaussian", "center": [0.5], "frequency": [-0.25]},
            "geometry": {"extents": [512], "lo": -8.0, "hi": 8.0 - 1.0 / 32.0},
            "output": "sig.ggr",
        })
        assert run_main("gen", gen_cfg, tmp_path) == 0
        gabor_cfg = write_cfg(tmp_path, "gabor.json", {
            "input": str(tmp_path / "sig.ggr"),
            "phase_geometry": PHASE_2D,
            "method": "fft",
            "output": "F.ggr",
        })
        assert run_main("gabor", gabor_cfg, tmp_path) == 0
        sig = read_signal(str(tmp_path / "sig.ggr"))
        F = gabor_transform_fft(sig, box_geometry((65, 65), -2.0, 2.0))
        _, out_vals = read_grid(str(tmp_path / "F.ggr"))
        assert np.array_equal(out_vals, F.values)

    def test_unknown_method_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gabor.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "method": "magic",
            "output": "F.ggr",
        })
        assert run_main("gabor", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "method" in capsys.readouterr().err


class TestGaborStream:
    """The gabor command writes F and |F| slab by slab; with 7-row slabs,
    which divide no row count here, its files and summary lines equal
    write_grid of the whole-grid transform and its spectrogram."""

    SIGNALS = {
        # d -> (signal block, signal grid, phase grid): y on the FFT lattice.
        1: ({"kind": "two-bump", "center1": [-1.0], "frequency1": [0.0],
             "center2": [1.0], "frequency2": [0.5], "sign": -1},
            {"extents": [512], "lo": -8.0, "hi": 8.0 - 1.0 / 32.0}, PHASE_2D),
        2: ({"kind": "two-bump", "center1": [-0.75, 0.0], "frequency1": [0.0, 0.0],
             "center2": [0.75, 0.0], "frequency2": [0.0, 0.25], "sign": 1},
            {"extents": [32, 32], "lo": -4.0, "hi": 3.75},
            {"extents": [5, 9, 5, 9], "lo": [-2.0, -0.5, -1.0, -0.5],
             "hi": [2.0, 0.5, 1.0, 0.5]}),
    }

    def config(self, d, method):
        signal, geometry, phase = self.SIGNALS[d]
        return {"signal": signal, "geometry": geometry, "phase_geometry": phase,
                "method": method, "output": "F.ggr", "spectrogram_output": "S.ggr"}

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_files_and_lines_equal_the_whole_grid_transform(self, tmp_path, monkeypatch,
                                                            method, d):
        from gaborstab import gabor

        monkeypatch.setattr(gabor, "SLAB_ROWS", 7)
        cfg = self.config(d, method)
        lines = cli.run_config("gabor", cfg, str(tmp_path / "stream"))
        cli_block = cli._Block(cfg, "gabor")
        sig = cli._signal_from(cli_block.block("signal"), cli_block.geometry("geometry"))
        pg = cli_block.geometry("phase_geometry")
        F = (gabor_transform if method == "direct" else gabor_transform_fft)(sig, pg)
        S = spectrogram(F)
        whole = tmp_path / "whole"
        whole.mkdir()
        write_grid(str(whole / "F.ggr"), pg, F.values)
        write_grid(str(whole / "S.ggr"), pg, S.values)
        for name in ("F.ggr", "S.ggr"):
            assert (tmp_path / "stream" / name).read_bytes() == (whole / name).read_bytes()
        out = tmp_path / "stream"
        assert lines == [
            f"gabor: wrote {out / 'F.ggr'} (method={method}, "
            f"peak={float(S.values[S.argmax_index])!r})",
            f"gabor: wrote {out / 'S.ggr'} (spectrogram, argmax at {list(S.argmax_location)})"]

    def test_near_tie_across_a_slab_seam_picks_the_first_cell(self, tmp_path, monkeypatch):
        from gaborstab import gabor

        # Two slabs of 4 x 5 x 3 cells: the first ends on a peak of |F| = 2,
        # the second starts one ulp above it.  The first cell is the peak,
        # and the printed peak is its value, not the running maximum.
        slabs = [np.zeros((4, 5, 3), complex), np.zeros((4, 5, 3), complex)]
        slabs[0][-1, -1, -1] = 2.0j
        slabs[1][0, 0, 0] = -np.nextafter(2.0, 3.0)
        monkeypatch.setattr(gabor, "gabor_transform",
                            lambda f, pg, *, consume: consume(iter(slabs)))
        cfg = self.config(2, "direct")
        cfg["phase_geometry"] = {"extents": [2, 4, 5, 3], "lo": -1.0, "hi": 1.0}
        lines = cli.run_config("gabor", cfg, str(tmp_path))
        pg = box_geometry((2, 4, 5, 3), -1.0, 1.0)
        assert lines[0].endswith("peak=2.0)")
        assert lines[1].endswith(f"argmax at {list(pg.index_coordinates((0, 3, 4, 2)))})")
        _, S = read_grid(str(tmp_path / "S.ggr"))
        assert S[1, 0, 0, 0] > S[0, 3, 4, 2] == 2.0

    def test_failed_slab_write_keeps_the_old_files_and_exits_5(self, tmp_path, monkeypatch,
                                                               capsys):
        from gaborstab import gabor, grids

        monkeypatch.setattr(gabor, "SLAB_ROWS", 7)
        cfg = write_cfg(tmp_path, "gabor.json", self.config(2, "fft"))
        assert run_main("gabor", cfg, tmp_path) == 0
        before = {name: (tmp_path / name).read_bytes() for name in ("F.ggr", "S.ggr")}
        write = grids.GridWriter.write
        calls = []

        def failing(self, values):
            calls.append(values.shape)
            if len(calls) == 4:  # F's second slab, after S's second
                raise OSError("disk full")
            write(self, values)

        monkeypatch.setattr(grids.GridWriter, "write", failing)
        capsys.readouterr()
        assert run_main("gabor", cfg, tmp_path) == cli.EXIT_IO
        assert "I/O failure: disk full" in capsys.readouterr().err
        assert len(calls) == 4
        assert sorted(os.listdir(tmp_path)) == ["F.ggr", "S.ggr", "gabor.json"]
        for name, data in before.items():
            assert (tmp_path / name).read_bytes() == data

    def test_traced_peak_of_the_cli_chain_step_is_under_half_a_field(self, tmp_path):
        import tracemalloc

        # The d = 2 gabor step of the cli-chain benchmark: one complex field
        # on its 33^4 phase grid is 18.1 MiB.  Streamed, the step holds the
        # working array, one slab, its modulus and the window temporaries.
        two_bump = {"kind": "two-bump", "center1": [-1.5, 0.0], "frequency1": [0.0, 0.0],
                    "center2": [1.5, 0.0], "frequency2": [0.0, 0.0], "sign": 1}
        cfg = {"geometry": {"extents": [128, 128], "lo": -8.0, "hi": 7.875},
               "signal": two_bump,
               "phase_geometry": {"extents": [33] * 4, "lo": -4.0, "hi": 4.0},
               "method": "fft", "output": "F2.ggr", "spectrogram_output": "S2.ggr"}
        field = 33 ** 4 * 16
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cli.run_config("gabor", cfg, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 0.5 * field


class TestCheeger:
    def test_gaussian_weight_matches_library(self, tmp_path):
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "gaussian",
                       "geometry": {"extents": [33, 33], "lo": -4.0, "hi": 4.0}},
            "coarsen": 2,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "h.json"))
        geom = box_geometry((33, 33), -4.0, 4.0)
        r2 = sum(c ** 2 for c in geom.coordinate_arrays())
        w = WeightGrid(geometry=geom, values=np.exp(-np.pi * r2 / 2.0)).coarsen(2)
        est = sweep_cut_cheeger(w)
        assert report["h_upper"] == est.h_upper
        assert report["fiedler_value"] == est.fiedler_value
        assert report["cut_weight"] == est.best_cut.cut_weight
        assert report["disconnected"] is False
        assert report["active_cells"] == 16 * 16

    def test_required_keys_present(self, tmp_path):
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "gaussian",
                       "geometry": {"extents": [17, 17], "lo": -4.0, "hi": 4.0}},
            "coarsen": 1,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "h.json"))
        required = {"h_upper", "fiedler_value", "cut_weight", "cut_mass_left",
                    "cut_mass_right", "disconnected", "active_cells"}
        assert required <= set(report)
        assert report["cut_mass_left"] > 0 and report["cut_mass_right"] > 0

    def test_small_grid_reports_oracle(self, tmp_path):
        geom = box_geometry((4, 4), 0.0, 3.0)
        rng = np.random.default_rng(77)
        write_grid(str(tmp_path / "w.ggr"), geom, rng.uniform(0.5, 2.0, (4, 4)))
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "grid-file", "input": str(tmp_path / "w.ggr")},
            "coarsen": 1,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "h.json"))
        assert "h_oracle" in report
        assert report["h_oracle"] <= report["h_upper"] + 1e-12

    def test_disconnected_weight_reported(self, tmp_path):
        geom = box_geometry((8, 6), 0.0, (7.0, 5.0))
        vals = np.ones((8, 6))
        vals[:, 2:4] = 0.0
        write_grid(str(tmp_path / "w.ggr"), geom, vals)
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "grid-file", "input": str(tmp_path / "w.ggr")},
            "coarsen": 1,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "h.json"))
        assert report["disconnected"] is True
        assert report["h_upper"] == 0.0
        assert len(report["component_masses"]) == 2

    def test_spectrogram_file_chain(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        gabor_cfg = write_cfg(tmp_path, "gabor.json", {
            "input": str(tmp_path / "sig.ggr"),
            "phase_geometry": PHASE_2D,
            "output": "F.ggr",
            "spectrogram_output": "S.ggr",
        })
        cheeger_cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "spectrogram-file", "input": str(tmp_path / "S.ggr"),
                       "power": 1.0},
            "coarsen": 4,
            "output": "h.json",
        })
        assert run_main("gen", gen_cfg, tmp_path) == 0
        assert run_main("gabor", gabor_cfg, tmp_path) == 0
        assert run_main("cheeger", cheeger_cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "h.json"))
        assert report["h_upper"] > 0
        assert report["disconnected"] is False

    def test_spectrogram_file_reads_the_modulus(self, tmp_path):
        # A real file with negative samples: the weight is |S|, bit for bit
        # the library's spectrogram of the same samples.
        from gaborstab.cheeger import weight_from_spectrogram

        geom = box_geometry((9, 9), -2.0, 2.0)
        values = np.exp(-geom.distance_sq()) * np.cos(2.0 * geom.coordinate_arrays()[0])
        write_grid(str(tmp_path / "S.ggr"), geom, values)
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "spectrogram-file", "input": str(tmp_path / "S.ggr")},
            "coarsen": 1, "output": "h.json"})
        assert run_main("cheeger", cfg, tmp_path) == 0
        want = sweep_cut_cheeger(weight_from_spectrogram(spectrogram(PhaseSpaceGrid(geom, values))))
        assert load_json(str(tmp_path / "h.json"))["h_upper"] == want.h_upper

    def test_spectrogram_file_of_odd_rank_rejected(self, tmp_path, capsys):
        geom = box_geometry((4, 4, 4), 0.0, 3.0)
        write_grid(str(tmp_path / "S.ggr"), geom, np.ones((4, 4, 4)))
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "spectrogram-file", "input": str(tmp_path / "S.ggr")},
            "output": "h.json"})
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "even rank" in capsys.readouterr().err

    def test_complex_weight_grid_rejected(self, tmp_path, capsys):
        geom = box_geometry((4, 4), 0.0, 3.0)
        write_grid(str(tmp_path / "w.ggr"), geom, np.ones((4, 4), dtype=complex))
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "grid-file", "input": str(tmp_path / "w.ggr")},
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "real" in capsys.readouterr().err

    def test_bad_coarsen_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "gaussian",
                       "geometry": {"extents": [9, 9], "lo": -4.0, "hi": 4.0}},
            "coarsen": 0,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_CONFIG


class TestEntire:
    def test_polynomial_growth_and_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "entire.json", {
            "function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
            "alpha": 1.0,
            "beta": 2.0,
            "radii": [0.5, 1.5, 3.0],
            "output": "norms.csv",
            "report_output": "report.json",
        })
        assert run_main("entire", cfg, tmp_path) == 0
        assert "growth membership=True" in capsys.readouterr().out
        header, rows = read_csv(str(tmp_path / "norms.csv"))
        assert header == "r,norm,bound,slope"
        assert len(rows) == 3
        # d=1, alpha=1, beta=2: bound = 1 * 2^(2+4) * r^3
        r0, _, bound0, _ = rows[0]
        assert float(r0) == 0.5
        assert float(bound0) == pytest.approx(64.0 * 0.5 ** 3, rel=1e-12)
        report = load_json(str(tmp_path / "report.json"))
        assert report["kind"] == "polynomial"
        assert report["growth_member"] is True
        assert report["d"] == 1
        assert len(report["norms"]) == 3

    def test_gaussian_exponential_sharp_margin(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "entire.json", {
            "function": {"kind": "gaussian-exponential", "quadratic_coeff": np.pi / 2},
            "alpha": np.pi / 2,
            "beta": 2.0,
            "radii": [0.5, 1.0, 1.5, 2.0],
            "output": "norms.csv",
            "report_output": "report.json",
        })
        assert run_main("entire", cfg, tmp_path) == 0
        report = load_json(str(tmp_path / "report.json"))
        assert report["growth_member"] is True
        assert abs(report["worst_margin"]) < 1e-9
        assert 2.5 < report["fitted_slope"] < 3.5

    def test_no_growth_spec_blank_bound(self, tmp_path):
        cfg = write_cfg(tmp_path, "entire.json", {
            "function": {"kind": "polynomial", "coefficients": [[0, 1], 1]},
            "radii": [1.0, 2.0],
            "output": "norms.csv",
        })
        assert run_main("entire", cfg, tmp_path) == 0
        header, rows = read_csv(str(tmp_path / "norms.csv"))
        assert header == "r,norm,bound,slope"
        assert all(row[2] == "nan" for row in rows)

    def test_unsorted_radii_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "entire.json", {
            "function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
            "radii": [3.0, 1.0],
            "output": "norms.csv",
        })
        assert run_main("entire", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "radii" in capsys.readouterr().err

    def test_alpha_without_beta_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "entire.json", {
            "function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
            "alpha": 1.0,
            "radii": [1.0],
            "output": "norms.csv",
        })
        assert run_main("entire", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "beta" in capsys.readouterr().err


class TestStability:
    def stability_cfg(self, **overrides):
        cfg = {
            "pair": {"kind": "instability", "T": 2.0},
            "signal_geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "p": 1.0,
            "q": 3.0,
            "partition": {"axis": 0, "threshold": 0.0},
            "noise": {"kind": "gaussian-bump", "amplitude": 0.001, "width": 1.0},
            "output": "report.json",
        }
        cfg.update(overrides)
        return cfg

    def test_report_matches_library(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "stab.json", self.stability_cfg())
        assert run_main("stability", cfg, tmp_path) == 0
        assert "stability: wrote" in capsys.readouterr().out
        out = load_json(str(tmp_path / "report.json"))
        geom = box_geometry((193,), -6.0, 6.0)
        pg = box_geometry((65, 65), -2.0, 2.0)
        f, g = make_instability_pair(1, 2.0, geom)
        part = DomainPartition.split_along_axis(pg, axis=0, threshold=0.0)
        noise = noise_gaussian_bump(pg, 0.001, 1.0)
        report = stability_report(f, g, 1.0, 3.0, partition=part, noise=noise,
                                  phase_geometry=pg, cheeger_coarsen=2)
        assert out["lhs"] == report.lhs
        assert out["h_upper"] == report.h_upper
        assert out["ratio"] == report.ratio
        assert out["noise_bound"] == report.noise_bound

    def test_report_required_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, "stab.json", self.stability_cfg())
        assert run_main("stability", cfg, tmp_path) == 0
        out = load_json(str(tmp_path / "report.json"))
        required = {"p", "q", "d", "lhs", "h_upper", "sobolev_term",
                    "weighted_term", "logderiv_term", "ratio"}
        assert required <= set(out)
        assert out["d"] == 1
        assert out["p"] == 1.0 and out["q"] == 3.0

    def test_gaussian_hermite_pair(self, tmp_path):
        cfg = write_cfg(tmp_path, "stab.json", {
            "pair": {"kind": "gaussian-hermite", "k": 1, "amplitude": 0.01},
            "signal_geometry": {"extents": [257], "lo": -6.0, "hi": 6.0},
            "phase_geometry": PHASE_2D,
            "p": 1.5,
            "q": 8.0,
            "output": "report.json",
        })
        assert run_main("stability", cfg, tmp_path) == 0
        out = load_json(str(tmp_path / "report.json"))
        assert out["lhs"] > 0
        assert "noise_bound" not in out

    def test_files_pair(self, tmp_path):
        for name, block in (("f.ggr", {"kind": "gaussian"}),
                            ("g.ggr", {"kind": "shifted-gaussian",
                                       "center": [0.3], "frequency": [0.0]})):
            gen = write_cfg(tmp_path, f"gen_{name}.json", {
                "signal": block, "geometry": GEOM_1D, "output": name})
            assert run_main("gen", gen, tmp_path) == 0
        cfg = write_cfg(tmp_path, "stab.json", {
            "pair": {"kind": "files",
                     "f_input": str(tmp_path / "f.ggr"),
                     "g_input": str(tmp_path / "g.ggr")},
            "phase_geometry": PHASE_2D,
            "p": 1.0,
            "q": 3.0,
            "output": "report.json",
        })
        assert run_main("stability", cfg, tmp_path) == 0
        assert load_json(str(tmp_path / "report.json"))["lhs"] > 0

    def test_sweep_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep.json", {
            "p": 1.0,
            "q": 3.0,
            "sweep": {"T_values": [2.0, 3.0], "spacing": 0.125,
                      "output": "sweep.csv"},
        })
        assert run_main("stability", cfg, tmp_path) == 0
        header, rows = read_csv(str(tmp_path / "sweep.csv"))
        assert header == "T,h,lhs,sobolev,weighted,ratio"
        assert [float(r[0]) for r in rows] == [2.0, 3.0]
        h = [float(r[1]) for r in rows]
        ratio = [float(r[5]) for r in rows]
        assert h[1] < h[0]
        assert ratio[1] > ratio[0]
        # cells are repr() of floats, so parsing must round-trip exactly
        for row in rows:
            for cell in row:
                assert repr(float(cell)) == cell

    @pytest.mark.parametrize("kind", ["report", "sweep"])
    def test_inadmissible_exponents_exit_3(self, tmp_path, capsys, kind):
        # The sweep's AdmissibilityError passes through its config-error wrap.
        sweep = {"sweep": {"T_values": [2.0], "output": "sweep.csv"}, "p": 2.0, "q": 2.0}
        cfg = write_cfg(tmp_path, "stab.json",
                        self.stability_cfg(p=2.0, q=2.0) if kind == "report" else sweep)
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_ADMISSIBILITY
        assert "inadmissible" in capsys.readouterr().err

    def test_instability_pair_in_d_2_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "stab.json",
                        self.stability_cfg(pair={"kind": "instability", "T": 2.0, "d": 2}))
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "stability.pair.d: " in capsys.readouterr().err

    def test_partition_axis_out_of_range(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "stab.json",
                        self.stability_cfg(partition={"axis": 2, "threshold": 0.0}))
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold, empty", [(-5.0, 1), (5.0, 2)])
    def test_partition_with_an_empty_component_exits_2_before_any_transform(
            self, tmp_path, capsys, monkeypatch, threshold, empty):
        # Every x of the +-2 phase box lies on one side of the threshold.
        from gaborstab import stability

        calls = []
        transform = stability.gabor_transform

        def counting(*args, **kwargs):
            calls.append(args)
            return transform(*args, **kwargs)

        monkeypatch.setattr(stability, "gabor_transform", counting)
        cfg = write_cfg(tmp_path, "stab.json",
                        self.stability_cfg(partition={"axis": 0, "threshold": threshold}))
        out = tmp_path / "out"
        assert run_main("stability", cfg, out) == cli.EXIT_CONFIG
        assert f"partition component {empty} is empty" in capsys.readouterr().err
        assert calls == [] and os.listdir(out) == []

    def test_band_limited_noise_needs_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "stab.json", self.stability_cfg(
            noise={"kind": "band-limited", "amplitude": 0.001, "cutoff": 4}))
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err


class TestExitCodes:
    def gen_cfg(self, tmp_path):
        return write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert run_main("gen", str(path), tmp_path) == cli.EXIT_CONFIG
        assert "JSON" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert run_main("gen", str(path), tmp_path) == cli.EXIT_CONFIG
        assert "object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_main("gen", str(tmp_path / "absent.json"),
                        tmp_path) == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"}, "output": "sig.ggr"})
        assert run_main("gen", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "geometry" in capsys.readouterr().err

    def test_unknown_signal_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "sawtooth"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "sawtooth" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "gen.json", {
            "command": "gen",
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        assert run_main("gabor", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "declares command" in capsys.readouterr().err

    def test_matching_declared_command_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", {
            "command": "gen",
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == 0

    def test_negative_seed(self, tmp_path, capsys):
        assert run_main("gen", self.gen_cfg(tmp_path), tmp_path,
                        "--seed", "-4") == cli.EXIT_CONFIG
        assert "nonnegative" in capsys.readouterr().err

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GGR_THREADS", "many")
        assert run_main("gen", self.gen_cfg(tmp_path),
                        tmp_path) == cli.EXIT_CONFIG
        assert "GGR_THREADS" in capsys.readouterr().err

    def test_zero_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GGR_THREADS", "0")
        assert run_main("gen", self.gen_cfg(tmp_path),
                        tmp_path) == cli.EXIT_CONFIG
        assert "at least 1" in capsys.readouterr().err

    # case -> (subcommand, config reading the grid file at a path, kind of grid)
    MALFORMED_INPUTS = {
        "gabor-input": ("gabor", lambda path: {
            "input": path, "phase_geometry": PHASE_2D, "output": "F.ggr"}, "signal"),
        "cheeger-spectrogram-file": ("cheeger", lambda path: {
            "weight": {"kind": "spectrogram-file", "input": path},
            "output": "h.json"}, "real-phase"),
        "cheeger-grid-file": ("cheeger", lambda path: {
            "weight": {"kind": "grid-file", "input": path},
            "output": "h.json"}, "real-phase"),
        "entire-lifted-gabor": ("entire", lambda path: {
            "function": {"kind": "lifted-gabor", "input": path},
            "radii": [1.0], "output": "norms.csv"}, "complex-phase"),
        "stability-files": ("stability", lambda path: {
            "pair": {"kind": "files", "f_input": path, "g_input": path},
            "p": 1.0, "q": 3.0, "output": "report.json"}, "signal"),
    }

    @pytest.mark.parametrize("damage", ["bad-magic", "truncated"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_grid_file_exit_5(self, tmp_path, capsys, case, damage):
        command, config, kind = self.MALFORMED_INPUTS[case]
        if kind == "signal":
            geom, values = box_geometry((16,), -1.0, 1.0), np.zeros(16, complex)
        else:
            geom = box_geometry((8, 8), -1.0, 1.0)
            values = np.ones((8, 8), complex if kind == "complex-phase" else float)
        path = tmp_path / "grid.ggr"
        write_grid(str(path), geom, values)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:] if damage == "bad-magic" else data[:-8])
        cfg = write_cfg(tmp_path, f"{command}.json", config(str(path)))
        assert run_main(command, cfg, tmp_path) == cli.EXIT_IO
        assert "I/O failure" in capsys.readouterr().err

    def test_output_path_collision_exit_5(self, tmp_path, capsys):
        (tmp_path / "sub").write_text("a regular file", encoding="utf-8")
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sub/sig.ggr",
        })
        assert run_main("gen", cfg, tmp_path) == cli.EXIT_IO
        assert "I/O failure" in capsys.readouterr().err

    def test_convergence_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        def explode(cfg, out_dir, seed):
            raise ConvergenceError("eigensolve stalled")

        monkeypatch.setitem(cli.COMMANDS, "cheeger", (explode, "cheeger"))
        cfg = write_cfg(tmp_path, "cheeger.json", {"output": "h.json"})
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_CONVERGENCE
        assert "non-convergence" in capsys.readouterr().err

    def test_lanczos_basis_budget_exit_4(self, tmp_path, monkeypatch, capsys):
        from gaborstab import cheeger

        monkeypatch.setattr(cheeger, "LANCZOS_BASIS_BYTES", 4096)
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "gaussian",
                       "geometry": {"extents": [17, 17], "lo": -4.0, "hi": 4.0}},
            "coarsen": 1,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "non-convergence" in err and "4096-byte budget" in err
        assert not (tmp_path / "h.json").exists()

    def test_run_config_rejects_unknown_command(self):
        with pytest.raises(cli.ConfigError, match="unknown command"):
            cli.run_config("transmogrify", {})


STABILITY_REPORT_CFG = {
    "pair": {"kind": "instability", "T": 2.0},
    "signal_geometry": GEOM_1D,
    "phase_geometry": PHASE_2D,
    "p": 1.0,
    "q": 3.0,
    "coarsen": 2,
    "partition": {"axis": 0, "threshold": 0.0},
    "output": "report.json",
}
NUMBER_KEY_CASES = [
    ("stability", STABILITY_REPORT_CFG, ("p",), "stability.p"),
    ("stability", STABILITY_REPORT_CFG, ("q",), "stability.q"),
    ("stability", STABILITY_REPORT_CFG, ("coarsen",), "stability.coarsen"),
    ("stability", STABILITY_REPORT_CFG, ("pair", "T"), "stability.pair.T"),
    ("stability", STABILITY_REPORT_CFG, ("partition", "threshold"),
     "stability.partition.threshold"),
    ("stability", {"p": 1.0, "q": 3.0, "sweep": {"T_values": [2.0], "spacing": 0.25,
                                                 "output": "sweep.csv"}},
     ("sweep", "spacing"), "stability.sweep.spacing"),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "gaussian-bump", "amplitude": 0.01, "width": 1.0}},
     ("noise", "width"), "stability.noise.width"),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "band-limited", "amplitude": 0.001, "cutoff": 4,
                             "seed": 11}},
     ("noise", "amplitude"), "stability.noise.amplitude"),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "band-limited", "amplitude": 0.001, "cutoff": 4,
                             "seed": 11}},
     ("noise", "cutoff"), "stability.noise.cutoff"),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "band-limited", "amplitude": 0.001, "cutoff": 4,
                             "seed": 11}},
     ("noise", "seed"), "stability.noise.seed"),
    ("entire", {"function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
                "p": 1.0, "alpha": 1.0, "beta": 2.0, "radii": [1.0], "output": "n.csv"},
     ("p",), "entire.p"),
    ("entire", {"function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
                "alpha": 1.0, "beta": 2.0, "radii": [1.0], "output": "n.csv"},
     ("beta",), "entire.beta"),
    ("entire", {"function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
                "alpha": 1.0, "beta": 2.0, "radii": [1.0], "output": "n.csv"},
     ("alpha",), "entire.alpha"),
    ("cheeger", {"weight": {"kind": "gaussian",
                            "geometry": {"extents": [9, 9], "lo": -4.0, "hi": 4.0}},
                 "coarsen": 1, "output": "h.json"},
     ("coarsen",), "cheeger.coarsen"),
]


# Bad values per JSON type.  A number list key also takes one number, and
# an optional key may not be null: it is left out to take its default.
NUMBER = [None, [1.0], True, "1"]
INTEGER = [None, 1.5, True, "1"]
NUMBER_LIST = [True, "1", [1.0, "x"], []]
EXTENTS = [9, [9.0], [True], []]
COMPLEX = [None, [1.0], True, "1"]
COMPLEX_LIST = [1.0, [True], [[1.0, 2.0, 3.0]], []]
TEXT = [None, 3, ""]
BLOCK = [None, [], "x", 1]
GEN_CFG = {"geometry": {"extents": [33], "lo": -4.0, "hi": 4.0},
           "signal": {"kind": "gaussian"}, "output": "sig.ggr"}
SHIFTED = {"kind": "shifted-gaussian", "center": [0.5], "frequency": [0.0]}
TWO_BUMP = {"kind": "two-bump", "center1": [-1.0], "frequency1": [0.0],
            "center2": [1.0], "frequency2": [0.0], "sign": -1}
GABOR_CFG = {"input": "sig.ggr", "phase_geometry": {"extents": [17, 17], "lo": -2.0, "hi": 2.0},
             "output": "F.ggr", "spectrogram_output": "S.ggr"}
CHEEGER_CFG = {"weight": {"kind": "spectrogram-file", "input": "S.ggr", "power": 1.0,
                          "threshold": 1e-9},
               "output": "h.json"}
ENTIRE_CFG = {"function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
              "radii": [1.0], "output": "n.csv", "report_output": "n.json"}
HERMITE_PAIR_CFG = {**STABILITY_REPORT_CFG,
                    "pair": {"kind": "gaussian-hermite", "k": 1, "amplitude": 0.01}}
# (command, base config, key path, bad values); the error names
# "command.key.path".
KEY_CASES = [
    ("gen", GEN_CFG, ("geometry",), BLOCK),
    ("gen", GEN_CFG, ("geometry", "extents"), EXTENTS),
    ("gen", GEN_CFG, ("geometry", "lo"), NUMBER_LIST),
    ("gen", GEN_CFG, ("geometry", "hi"), NUMBER_LIST),
    ("gen", GEN_CFG, ("signal",), BLOCK),
    ("gen", GEN_CFG, ("signal", "kind"), TEXT),
    ("gen", {**GEN_CFG, "signal": SHIFTED}, ("signal", "center"), NUMBER_LIST),
    ("gen", {**GEN_CFG, "signal": SHIFTED}, ("signal", "frequency"), NUMBER_LIST),
    ("gen", {**GEN_CFG, "signal": TWO_BUMP}, ("signal", "center1"), NUMBER_LIST),
    ("gen", {**GEN_CFG, "signal": TWO_BUMP}, ("signal", "frequency2"), NUMBER_LIST),
    ("gen", {**GEN_CFG, "signal": TWO_BUMP}, ("signal", "sign"), INTEGER),
    ("gen", {**GEN_CFG, "signal": {"kind": "hermite", "k": 2}}, ("signal", "k"), INTEGER),
    ("gen", GEN_CFG, ("output",), TEXT),
    ("gabor", GABOR_CFG, ("input",), TEXT),
    ("gabor", GABOR_CFG, ("phase_geometry",), BLOCK),
    ("gabor", {**GABOR_CFG, "method": "direct"}, ("method",), TEXT),
    ("gabor", {"geometry": GEN_CFG["geometry"], "signal": {"kind": "gaussian"},
               "phase_geometry": GABOR_CFG["phase_geometry"], "output": "F.ggr"},
     ("geometry",), BLOCK),
    ("gabor", GABOR_CFG, ("spectrogram_output",), TEXT),
    ("cheeger", CHEEGER_CFG, ("weight",), BLOCK),
    ("cheeger", CHEEGER_CFG, ("weight", "power"), NUMBER),
    ("cheeger", CHEEGER_CFG, ("weight", "threshold"), NUMBER),
    ("cheeger", {"weight": {"kind": "gaussian", "geometry": GEN_CFG["geometry"]},
                 "output": "h.json"}, ("weight", "geometry"), BLOCK),
    ("entire", ENTIRE_CFG, ("function",), BLOCK),
    ("entire", ENTIRE_CFG, ("function", "coefficients"), COMPLEX_LIST),
    ("entire", {**ENTIRE_CFG, "function": {"kind": "gaussian-exponential",
                                           "quadratic_coeff": 1.0}},
     ("function", "quadratic_coeff"), COMPLEX),
    ("entire", ENTIRE_CFG, ("radii",), NUMBER_LIST),
    ("entire", {**ENTIRE_CFG, "geometry": {"extents": [65, 65], "lo": -2.0, "hi": 2.0}},
     ("geometry",), BLOCK),
    ("entire", ENTIRE_CFG, ("report_output",), TEXT),
    ("stability", STABILITY_REPORT_CFG, ("pair",), BLOCK),
    ("stability", STABILITY_REPORT_CFG, ("pair", "d"), INTEGER),
    ("stability", HERMITE_PAIR_CFG, ("pair", "k"), INTEGER),
    ("stability", HERMITE_PAIR_CFG, ("pair", "amplitude"), NUMBER),
    ("stability", STABILITY_REPORT_CFG, ("signal_geometry",), BLOCK),
    ("stability", STABILITY_REPORT_CFG, ("phase_geometry",), BLOCK),
    ("stability", STABILITY_REPORT_CFG, ("partition",), BLOCK),
    ("stability", STABILITY_REPORT_CFG, ("partition", "axis"), INTEGER),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "gaussian-bump", "amplitude": 0.01, "width": 1.0}},
     ("noise",), BLOCK),
    ("stability", {**STABILITY_REPORT_CFG,
                   "noise": {"kind": "gaussian-bump", "amplitude": 0.01, "width": 1.0,
                             "center": [0.0, 0.0]}},
     ("noise", "center"), NUMBER_LIST),
    ("stability", {"sweep": {"T_values": [2.0], "spacing": 0.25, "output": "sweep.csv"}},
     ("sweep",), BLOCK),
    ("stability", {"sweep": {"T_values": [2.0], "spacing": 0.25, "output": "sweep.csv"}},
     ("sweep", "T_values"), NUMBER_LIST),
]


def bad_key_cases():
    for command, base, path, bads in KEY_CASES:
        for i, bad in enumerate(bads):
            key = ".".join((command,) + path)
            yield pytest.param(command, base, path, bad, id=f"{key}-{i}")


class TestConfigNumbers:
    """A config number that is null, a list, a bool or a string exits 2."""

    @pytest.mark.parametrize("bad", [None, [1.0], True, "1"],
                             ids=["null", "list", "bool", "string"])
    @pytest.mark.parametrize("command,base,path,context", NUMBER_KEY_CASES,
                             ids=[f"{c[3]}" for c in NUMBER_KEY_CASES])
    def test_non_number_exits_2_naming_the_key(self, tmp_path, capsys, command, base,
                                               path, context, bad):
        cfg = json.loads(json.dumps(base))
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = bad
        assert run_main(command, write_cfg(tmp_path, "cfg.json", cfg),
                        tmp_path) == cli.EXIT_CONFIG
        assert context in capsys.readouterr().err

    def test_zero_sweep_spacing_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "p": 1.0, "q": 3.0,
            "sweep": {"T_values": [2.0], "spacing": 0, "output": "sweep.csv"}})
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        assert "spacing must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("T, message", [
        (1e308, "inf samples, over the limit"),
        (1e7, "320000321 samples, over the limit"),
        (float("inf"), "T = inf must be finite"),
        (float("nan"), "T = nan must be finite"),
    ])
    def test_instability_pair_T_too_large_exits_2(self, tmp_path, capsys, T, message):
        # json writes inf and nan as Infinity and NaN, which json.load reads back.
        cfg = write_cfg(tmp_path, "cfg.json", {
            "pair": {"kind": "instability", "T": T}, "p": 1.0, "q": 3.0,
            "output": "r.json"})
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "stability.pair.T: " in err and message in err

    @pytest.mark.parametrize("T, message", [
        (1e5, "1600129 x 129 samples, over the limit"),
        (1e308, "inf x 129 samples, over the limit"),
        (float("inf"), "T = inf must be finite"),
    ])
    def test_sweep_T_too_large_exits_2(self, tmp_path, capsys, T, message):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "p": 1.0, "q": 3.0,
            "sweep": {"T_values": [2.0, T], "output": "sweep.csv"}})
        assert run_main("stability", cfg, tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "stability.sweep: " in err and message in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("radius, message", [
        (1e5, "12800001 x 12800001 samples, over the limit"),
        (1e308, "inf x inf samples, over the limit"),
    ])
    def test_entire_default_grid_radius_too_large_exits_2(self, tmp_path, capsys, radius,
                                                          message):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "function": {"kind": "polynomial", "coefficients": [1, 0, -1]},
            "radii": [1.0, radius], "output": "norms.csv"})
        assert run_main("entire", cfg, tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "entire.radii: " in err and message in err and "'geometry'" in err
        assert not (tmp_path / "norms.csv").exists()

    def test_sweep_defaults_come_from_the_library(self, tmp_path):
        from gaborstab.stability import instability_sweep

        cfg = write_cfg(tmp_path, "cfg.json",
                        {"sweep": {"T_values": [2.0], "output": "sweep.csv"}})
        assert run_main("stability", cfg, tmp_path) == 0
        _, rows = read_csv(str(tmp_path / "sweep.csv"))
        (row,) = instability_sweep([2.0])
        assert rows == [[repr(v) for v in (row.T, row.h, row.lhs, row.sobolev,
                                           row.weighted, row.ratio)]]


class TestConfigKeys:
    """Every key the CLI reads: a value of the wrong JSON type, an empty list
    or a non-object block exits 2 with the key's dotted path in stderr."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        """tmp_path as working directory, holding the sig.ggr and S.ggr inputs."""
        monkeypatch.chdir(tmp_path)
        geom = box_geometry((33,), -4.0, 4.0)
        write_grid("sig.ggr", geom, make_analytic(gaussian_spec(1), geom).values)
        phase = box_geometry((17, 17), -2.0, 2.0)
        write_grid("S.ggr", phase, np.exp(-np.pi * phase.distance_sq() / 2.0))
        return tmp_path

    @pytest.mark.parametrize("command,base",
                             list({id(c[1]): c[:2] for c in KEY_CASES}.values()))
    def test_base_config_runs(self, workdir, command, base):
        assert run_main(command, write_cfg(workdir, "cfg.json", base), workdir / "out") == 0

    @pytest.mark.parametrize("command,base,path,bad", bad_key_cases())
    def test_bad_value_exits_2_naming_the_key(self, workdir, capsys, command, base,
                                              path, bad):
        cfg = json.loads(json.dumps(base))
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = bad
        assert run_main(command, write_cfg(workdir, "cfg.json", cfg),
                        workdir / "out") == cli.EXIT_CONFIG
        assert ".".join((command,) + path) + ": " in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,key", [
        ("entire", {**ENTIRE_CFG, "radii": []}, "entire.radii"),
        ("stability", {"sweep": {"T_values": [], "output": "sweep.csv"}},
         "stability.sweep.T_values"),
    ])
    def test_empty_list_exits_2_and_writes_nothing(self, tmp_path, capsys, command, cfg,
                                                  key):
        out = tmp_path / "out"
        assert run_main(command, write_cfg(tmp_path, "cfg.json", cfg), out) == cli.EXIT_CONFIG
        assert f"{key}: expected a number or a nonempty list" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_partition_axis_is_checked_by_the_library(self, tmp_path, capsys):
        cfg = {**STABILITY_REPORT_CFG, "partition": {"axis": -1, "threshold": 0.0}}
        assert run_main("stability", write_cfg(tmp_path, "cfg.json", cfg),
                        tmp_path) == cli.EXIT_CONFIG
        assert ("stability.partition.axis: axis -1 is out of range for a rank-2 grid"
                in capsys.readouterr().err)

    def test_two_bump_sign_is_checked_by_the_library(self, tmp_path, capsys):
        cfg = {**GEN_CFG, "signal": {**TWO_BUMP, "sign": 2}}
        assert run_main("gen", write_cfg(tmp_path, "cfg.json", cfg),
                        tmp_path) == cli.EXIT_CONFIG
        assert "gen.signal: two-bump sign must be +1 or -1" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [200, 300])
    def test_hermite_order_past_float64_exits_2(self, tmp_path, capsys, k):
        # On the default 513-sample +-8 grid: no grid of zeros or NaN is
        # written, and f is not compared with itself.
        pair_cfg = {key: value for key, value in HERMITE_PAIR_CFG.items()
                    if key != "signal_geometry"}
        for command, cfg, key in [
                ("gen", {**GEN_CFG, "geometry": {"extents": [513], "lo": -8.0, "hi": 8.0},
                         "signal": {"kind": "hermite", "k": k}}, "gen.signal"),
                ("stability", {**pair_cfg, "pair": {**pair_cfg["pair"], "k": k}},
                 "stability.pair")]:
            out = tmp_path / command
            assert run_main(command, write_cfg(tmp_path, "cfg.json", cfg),
                            out) == cli.EXIT_CONFIG
            assert f"{key}: order {k} overflows float64" in capsys.readouterr().err
            assert os.listdir(out) == []

    def test_grid_header_beyond_int64_exits_5(self, tmp_path, capsys):
        # 2^32 x 2^32 cells with no payload; an int64 cell count wraps to 0.
        path = tmp_path / "huge.ggr"
        path.write_bytes(struct.pack("<4sIBB", b"GGR1", 1, 2, 0)
                         + struct.pack("<Qdd", 1 << 32, 1.0, 0.0) * 2)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "weight": {"kind": "grid-file", "input": str(path)}, "output": "h.json"})
        assert run_main("cheeger", cfg, tmp_path) == cli.EXIT_IO
        assert "I/O failure: payload has 0 bytes" in capsys.readouterr().err


class TestReadmeConfigs:
    """The six JSON configs of the README's "Command line" section run, in
    order, in one working directory."""

    COMMANDS = ("gen", "gabor", "cheeger", "entire", "stability", "stability")

    def test_readme_configs_exit_0(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section,
                                                              flags=re.DOTALL)]
        assert len(configs) == len(self.COMMANDS)
        monkeypatch.chdir(tmp_path)
        for i, (command, cfg) in enumerate(zip(self.COMMANDS, configs)):
            path = write_cfg(tmp_path, f"readme-{i}.json", cfg)
            assert cli.main([command, "--config", path]) == 0, capsys.readouterr().err


class TestThreads:
    GEN = {"signal": {"kind": "gaussian"}, "geometry": GEOM_1D, "output": "sig.ggr"}

    def preset_env(self, monkeypatch):
        for var in cli.THREAD_ENV_VARS:
            monkeypatch.setenv(var, "sentinel")

    def run_recording_env(self, tmp_path, monkeypatch, *extra):
        """Run `gen` in process; return the thread variables seen during the run."""
        seen = {}
        real = cli.run_config

        def recording(*args):
            seen.update({v: os.environ.get(v) for v in cli.THREAD_ENV_VARS})
            return real(*args)

        monkeypatch.setattr(cli, "run_config", recording)
        cfg = write_cfg(tmp_path, "gen.json", self.GEN)
        assert run_main("gen", cfg, tmp_path, *extra) == 0
        return seen

    def test_default_single_thread(self, tmp_path, monkeypatch):
        self.preset_env(monkeypatch)
        monkeypatch.delenv("GGR_THREADS", raising=False)
        seen = self.run_recording_env(tmp_path, monkeypatch)
        assert all(seen[v] == "1" for v in cli.THREAD_ENV_VARS)

    def test_env_fallback(self, tmp_path, monkeypatch):
        self.preset_env(monkeypatch)
        monkeypatch.setenv("GGR_THREADS", "3")
        seen = self.run_recording_env(tmp_path, monkeypatch)
        assert all(seen[v] == "3" for v in cli.THREAD_ENV_VARS)

    def test_option_beats_env(self, tmp_path, monkeypatch):
        self.preset_env(monkeypatch)
        monkeypatch.setenv("GGR_THREADS", "5")
        seen = self.run_recording_env(tmp_path, monkeypatch, "--threads", "2")
        assert all(seen[v] == "2" for v in cli.THREAD_ENV_VARS)

    @pytest.mark.parametrize("ok", [True, False])
    def test_caller_environment_restored(self, tmp_path, monkeypatch, ok):
        self.preset_env(monkeypatch)
        unset = cli.THREAD_ENV_VARS[1]
        monkeypatch.delenv(unset)
        cfg = write_cfg(tmp_path, "gen.json", self.GEN if ok else {"geometry": GEOM_1D})
        code = run_main("gen", cfg, tmp_path, "--threads", "1")
        assert code == (0 if ok else cli.EXIT_CONFIG)
        assert unset not in os.environ
        assert all(os.environ[v] == "sentinel" for v in cli.THREAD_ENV_VARS if v != unset)

    def test_threads_after_numpy_loaded_reported_once(self, tmp_path, monkeypatch, capsys):
        self.run_recording_env(tmp_path, monkeypatch, "--threads", "4")
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "4 threads requested, but numpy is already loaded" in err

    def test_single_thread_not_reported(self, tmp_path, monkeypatch, capsys):
        self.run_recording_env(tmp_path, monkeypatch, "--threads", "1")
        assert capsys.readouterr().err == ""

    def test_fresh_process_not_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", self.GEN)
        proc = run_subprocess("gen", cfg, tmp_path, "--threads", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestDeterminism:
    def test_gen_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"}, "geometry": GEOM_1D,
            "output": "sig.ggr"})
        for out in ("a", "b"):
            assert run_main("gen", cfg, tmp_path / out) == 0
        assert (tmp_path / "a" / "sig.ggr").read_bytes() == \
               (tmp_path / "b" / "sig.ggr").read_bytes()

    def test_stability_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "stab.json", {
            "pair": {"kind": "instability", "T": 2.0},
            "signal_geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "p": 1.0,
            "q": 3.0,
            "noise": {"kind": "band-limited", "amplitude": 0.001,
                      "cutoff": 4, "seed": 11},
            "output": "report.json",
        })
        for out in ("a", "b"):
            assert run_main("stability", cfg, tmp_path / out) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
               (tmp_path / "b" / "report.json").read_bytes()

    def test_seed_option_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "stab.json", {
            "pair": {"kind": "instability", "T": 2.0},
            "signal_geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "p": 1.0,
            "q": 3.0,
            "noise": {"kind": "band-limited", "amplitude": 0.001,
                      "cutoff": 4, "seed": 11},
            "output": "report.json",
        })
        assert run_main("stability", cfg, tmp_path / "a") == 0
        assert run_main("stability", cfg, tmp_path / "b", "--seed", "7") == 0
        a = load_json(str(tmp_path / "a" / "report.json"))
        b = load_json(str(tmp_path / "b" / "report.json"))
        assert a["noise_epsilon"] != b["noise_epsilon"]
        assert a["lhs"] == b["lhs"]

    def test_json_output_sorted_and_indented(self, tmp_path):
        cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "gaussian",
                       "geometry": {"extents": [9, 9], "lo": -4.0, "hi": 4.0}},
            "coarsen": 1,
            "output": "h.json",
        })
        assert run_main("cheeger", cfg, tmp_path) == 0
        text = (tmp_path / "h.json").read_text(encoding="utf-8")
        keys = [line.split('"')[1] for line in text.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)
        assert text.endswith("\n")


class TestSubprocessEntry:
    def test_module_chain_end_to_end(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": GEOM_1D,
            "output": "sig.ggr",
        })
        gabor_cfg = write_cfg(tmp_path, "gabor.json", {
            "input": str(tmp_path / "sig.ggr"),
            "phase_geometry": PHASE_2D,
            "output": "F.ggr",
            "spectrogram_output": "S.ggr",
        })
        cheeger_cfg = write_cfg(tmp_path, "cheeger.json", {
            "weight": {"kind": "spectrogram-file", "input": str(tmp_path / "S.ggr")},
            "coarsen": 4,
            "output": "h.json",
        })
        for cmd, cfg in (("gen", gen_cfg), ("gabor", gabor_cfg),
                         ("cheeger", cheeger_cfg)):
            proc = run_subprocess(cmd, cfg, tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert f"{cmd}: wrote" in proc.stdout
        assert load_json(str(tmp_path / "h.json"))["h_upper"] > 0

    def test_console_script_installed(self, tmp_path):
        # Install the declared console script the way an installer would:
        # a wrapper in a private bin that imports `module:attr` from the
        # checkout this suite imported. No prior install is needed, and a
        # `gaborstab` installed from another checkout is never the one run.
        tomllib = pytest.importorskip("tomllib")
        pkg_dir = Path(gaborstab.__file__).resolve().parent
        pyproject = pkg_dir.parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gaborstab"]
        module, attr = target.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "gaborstab"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n", encoding="utf-8")
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            [str(bin_dir), *filter(None, [env.get("PATH")])])
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pkg_dir.parent), *filter(None, [env.get("PYTHONPATH")])])
        exe = shutil.which("gaborstab", path=env["PATH"])
        assert exe == str(script)
        cfg = write_cfg(tmp_path, "gen.json", {
            "signal": {"kind": "gaussian"},
            "geometry": {"extents": [33], "lo": -4.0, "hi": 4.0},
            "output": "sig.ggr",
        })
        proc = subprocess.run(
            [exe, "gen", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sig.ggr").is_file()

    def test_sweep_rerun_byte_identical_across_processes(self, tmp_path):
        cfg = write_cfg(tmp_path, "sweep.json", {
            "p": 1.0,
            "q": 3.0,
            "sweep": {"T_values": [2.0], "spacing": 0.25, "output": "sweep.csv"},
        })
        for out in ("a", "b"):
            proc = run_subprocess("stability", cfg, tmp_path / out)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
               (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_exit_code_visible_to_shell(self, tmp_path):
        cfg = write_cfg(tmp_path, "stab.json", {
            "pair": {"kind": "instability", "T": 2.0},
            "signal_geometry": GEOM_1D,
            "phase_geometry": PHASE_2D,
            "p": 2.0,
            "q": 2.0,
            "output": "report.json",
        })
        proc = run_subprocess("stability", cfg, tmp_path)
        assert proc.returncode == cli.EXIT_ADMISSIBILITY
        assert "inadmissible" in proc.stderr
