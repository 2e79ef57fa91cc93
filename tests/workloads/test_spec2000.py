"""Tests for the eleven synthetic SPEC 2000 benchmark models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.spec2000 import (
    BENCHMARK_NAMES,
    benchmark,
    build_benchmark,
    spec,
)


class TestRegistry:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 11

    def test_paper_names_present(self):
        for name in ("ammp", "bzip2/g", "bzip2/p", "galgel", "gcc/1",
                     "gcc/s", "gzip/g", "gzip/p", "mcf", "perl/d",
                     "perl/s"):
            assert name in BENCHMARK_NAMES

    def test_spec_lookup(self):
        descriptor = spec("mcf")
        assert descriptor.name == "mcf"
        assert descriptor.nominal_intervals > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            spec("sphinx")
        with pytest.raises(ConfigurationError):
            build_benchmark("sphinx")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_benchmark("mcf", scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="finite positive"):
            build_benchmark("mcf", scale=scale)


class TestBuilders:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_builds(self, name):
        generator = build_benchmark(name, scale=0.05)
        assert generator.regions
        assert generator.script.total_intervals >= 20

    def test_scale_controls_length(self):
        small = build_benchmark("gcc/1", scale=0.1)
        large = build_benchmark("gcc/1", scale=0.3)
        assert (
            small.script.total_intervals < large.script.total_intervals
        )

    def test_mcf_has_submodes(self):
        generator = build_benchmark("mcf", scale=0.05)
        assert len(generator.regions[0].submodes) == 2

    def test_galgel_has_sibling_regions(self):
        generator = build_benchmark("galgel", scale=0.05)
        solver, sibling = generator.regions[0], generator.regions[1]
        assert np.array_equal(solver.block_pcs, sibling.block_pcs)

    def test_region_code_segments_disjoint_for_gcc(self):
        generator = build_benchmark("gcc/1", scale=0.05)
        all_pcs = [set(r.block_pcs.tolist()) for r in generator.regions]
        for i in range(len(all_pcs)):
            for j in range(i + 1, len(all_pcs)):
                assert not (all_pcs[i] & all_pcs[j])


class TestGeneratedTraces:
    def test_trace_has_transitions_and_stable(self):
        trace = benchmark("bzip2/g", scale=0.1)
        mask = trace.transition_mask
        assert mask.any()
        assert (~mask).any()

    def test_determinism_across_calls(self):
        a = benchmark("gzip/p", scale=0.1)
        b = benchmark("gzip/p", scale=0.1)
        assert np.allclose(a.cpis, b.cpis)

    def test_seed_override_changes_structure(self):
        a = benchmark("gzip/p", scale=0.1)
        b = benchmark("gzip/p", scale=0.1, seed=999)
        different_length = len(a) != len(b)
        different_cpi = (
            not different_length
            and not np.allclose(a.cpis, b.cpis)
        )
        assert different_length or different_cpi

    def test_mcf_is_slowest_benchmark(self):
        mcf = benchmark("mcf", scale=0.05)
        gzip = benchmark("gzip/g", scale=0.05)
        # Pointer-chasing with 4 MB working sets must dominate CPI.
        assert max(mcf.metadata["region_cpis"]) > max(
            gzip.metadata["region_cpis"]
        )

    def test_region_cpis_positive_and_sane(self):
        for name in ("ammp", "gcc/s", "mcf"):
            cpis = benchmark(name, scale=0.05).metadata["region_cpis"]
            assert all(0.2 < cpi < 20 for cpi in cpis)


class TestAllBenchmarks:
    def test_generates_all_eleven(self):
        traces = [benchmark(name, scale=0.05) for name in BENCHMARK_NAMES]
        assert [trace.name for trace in traces] == list(BENCHMARK_NAMES)
        assert all(len(trace) >= 20 for trace in traces)
