"""Experiment harness: small-configuration runs of every table/figure.

Full-size regeneration lives in benchmarks/; these tests run reduced
sweeps and assert the paper's *qualitative* claims hold.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import (
    fig15_16,
    fig18,
    fig21,
    fig22,
    fig23,
    fig24,
    fig25,
    fig26,
    format_table,
    params_for,
    setup_application,
    setup_kernel,
    table1,
    table2,
)
from repro.kernels import get_kernel
from repro.machine import convex_spp1000, ksr2


def _load_bench_common():
    """``benchmarks/_common.py``, the figure benchmarks' shared helpers."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py"
    spec = importlib.util.spec_from_file_location("bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_common = _load_bench_common()


class TestTables:
    def test_table1_all_match(self):
        result = table1()
        assert all(r.matches_paper for r in result.rows)
        assert "ll18" in result.format()

    def test_table2_all_match(self):
        result = table2()
        assert result.all_match()
        text = result.format()
        assert "matches paper" in text and "MISMATCH" not in text


class TestParamsFor:
    def test_square(self):
        assert params_for(get_kernel("ll18"), 4) == {"n": 130}

    def test_rect(self):
        p = params_for(get_kernel("filter"), 4)
        assert p["m"] > p["n"]

    def test_spem(self):
        p = params_for(get_kernel("spem"), 2)
        assert set(p) == {"n", "p"}


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")


class TestPaddingClaims:
    @pytest.mark.slow
    def test_fig18_claims(self):
        result = fig18(pads=(0, 1, 9, 17))
        # Padding is erratic (power-of-two extents are catastrophic at 0),
        # partitioning sits at or below the sweep minimum.
        assert result.erratic_ratio > 2
        assert result.partitioning_at_or_below_min()
        # Fusion + partitioning also beats the unfused partitioned version.
        assert result.misses_fused_partitioning < result.misses_unfused_partitioning


class TestKernelClaims:
    @pytest.mark.slow
    def test_fig22_shape(self):
        curves = {c.kernel: c for c in fig22(proc_counts=(1, 4, 16, 32, 56))}
        ll18 = curves["ll18"]
        calc = curves["calc"]
        # Fusion wins at low processor counts on the KSR2...
        assert ll18.points[0].improvement > 1.05
        assert calc.points[0].improvement > 1.1
        # ...and the benefit eventually disappears (crossover exists).
        assert ll18.crossover() is not None
        assert calc.crossover() is not None
        # calc (6 arrays) crosses over no later than LL18 (9 arrays).
        assert calc.crossover() <= ll18.crossover()

    @pytest.mark.slow
    def test_fig23_shape(self):
        curves = {c.kernel: c for c in fig23(proc_counts=(1, 8, 16))}
        # Convex improvements are larger than the KSR2's (higher miss cost).
        assert curves["ll18"].points[0].improvement > 1.2
        assert curves["calc"].points[0].improvement > 1.3
        assert curves["filter"].points[0].improvement > 1.3
        # LL18 keeps winning through 16 processors.
        assert all(p.improvement > 1.0 for p in curves["ll18"].points)

    @pytest.mark.slow
    def test_fig24_shape(self):
        result = fig24(array_dims=(64, 256), proc_counts=(8,))
        for kernel in ("ll18", "calc"):
            small = result.improvement(kernel, 64, 8)
            large = result.improvement(kernel, 256, 8)
            assert large > small  # fusion pays once data exceeds the caches
            assert large > 1.0
            assert small < 1.1


class TestAppClaims:
    @pytest.mark.slow
    def test_fig21_partitioning_matters(self):
        result = fig21(apps=("hydro2d",), proc_counts=(1, 8, 16))
        series = result.series[0]
        # Without partitioning, fusion loses (part of) its benefit: the
        # fused-contiguous curve does not beat the partitioned original.
        assert series.fused_contiguous[-1] < series.orig_partitioned[-1]

    @pytest.mark.slow
    def test_fig25_shapes(self):
        result = fig25(proc_counts=(1, 2, 8, 12, 16))
        series = {s.app: s for s in result.series}
        # tomcatv: consistent improvement at every point.
        assert all(p.improvement > 1.05 for p in series["tomcatv"].points)
        # hydro2d: clear improvement at 1 processor, limited by 16.
        assert series["hydro2d"].improvement_at(1) > 1.08
        assert series["hydro2d"].improvement_at(16) < series["hydro2d"].improvement_at(1)
        # spem: improvement through 8 procs, dip when hypernodes are crossed.
        assert series["spem"].improvement_at(1) > 1.05
        assert series["spem"].dips_at(12) or series["spem"].dips_at(16)


class TestAlignmentClaims:
    @pytest.mark.slow
    def test_fig26_peeling_wins(self):
        result = fig26(ksr2_procs=(1, 8, 32), convex_procs=(1, 8))
        for series in result.series:
            assert series.peeling_wins_everywhere()
            assert len(series.replicated_arrays) == 2
            assert series.replicated_statements == 2


class TestJacobiExperiment:
    def test_fig15_16(self):
        result = fig15_16(grids=((1, 1), (2, 2)))
        assert result.shifts == ((0, 0), (1, 1))
        assert result.peels == ((0, 0), (1, 1))
        # Serial fusion halves the misses (a and b stream once, not twice).
        g, mu, mf = result.grid_results[0]
        assert mu > 1.7 * mf
        assert "fpeel" in result.spmd_code


class TestSetupHelpers:
    def test_setup_kernel_machine_scaled(self):
        exp = setup_kernel("ll18", ksr2(), dims_div=4)
        assert exp.machine.cache.capacity_bytes == 64 * 1024
        assert exp.strip >= 2

    def test_setup_application(self):
        exp = setup_application("tomcatv", convex_spp1000(), 4)
        assert len(exp.fusions) == 1
        assert exp.machine.cache.capacity_bytes == 64 * 1024


class TestFormatResult:
    def test_uses_format_method(self):
        class Table:
            def format(self):
                return "| a | b |"

        assert bench_common.format_result(Table()) == "| a | b |"

    def test_falls_back_to_str(self):
        assert bench_common.format_result({"rows": 3}) == "{'rows': 3}"
        assert bench_common.format_result(1.5) == "1.5"
        assert bench_common.format_result("already text") == "already text"

    def test_non_callable_format_attribute(self):
        class Weird:
            format = "not a method"

            def __str__(self):
                return "weird"

        assert bench_common.format_result(Weird()) == "weird"

    def test_run_figure_archives_str_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_common, "OUT_DIR", tmp_path)

        class FakeBenchmark:
            def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
                return fn(*args, **(kwargs or {}))

        result = bench_common.run_figure(
            FakeBenchmark(), lambda x: {"value": x}, "fake_fig", 42
        )
        assert result == {"value": 42}
        assert (tmp_path / "fake_fig.txt").read_text() == "{'value': 42}\n"
