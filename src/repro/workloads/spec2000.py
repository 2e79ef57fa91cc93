"""Synthetic models of the paper's eleven SPEC CPU2000 workloads.

Each model reproduces the phase *structure* the paper reports for its
benchmark (§3, §4.4-§4.5), not the benchmark's instruction semantics:

- ``ammp`` — FP code with a few long, very stable phases.
- ``bzip2/g``, ``bzip2/p`` — hierarchical (nested-loop) phase patterns:
  compress / reorder / output stages with inner alternation.
- ``galgel`` — periodic alternation between *related* regions (sibling
  block populations), the hardest case for code-signature similarity.
- ``gcc/1``, ``gcc/s`` — many short irregular phases, frequent
  transitions, big code footprint; the paper's hardest benchmarks
  (gcc/s spends ~30% of intervals in transitions at min-count 8).
- ``gzip/g``, ``gzip/p`` — long stable runs; gzip/g has exceptionally
  long phases and 40% of its changes lead to long stable phases.
- ``mcf`` — pointer-chasing with working sets far beyond the L2, high
  CPI, and sub-modes that reward a tightened similarity threshold.
- ``perl/d`` — few long stable phases (short program).
- ``perl/s`` — more complex phase behaviour with CPI sub-modes that
  benefit from the adaptive (dynamic-threshold) classifier.

Use :func:`build_benchmark` for a configured generator or
:func:`benchmark` for a generated trace. The ``scale`` parameter shrinks
the run length proportionally (tests use small scales for speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.simulator.machine import Machine
from repro.workloads.basic_block import CodeRegion, make_submodes
from repro.workloads.generator import TransitionConfig, WorkloadGenerator
from repro.workloads.phase_script import (
    PhaseScript,
    alternating_pattern,
    hierarchical_pattern,
    irregular_pattern,
    stable_pattern,
)
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS, IntervalTrace

#: Canonical paper names, in the paper's figure order.
BENCHMARK_NAMES: Tuple[str, ...] = (
    "ammp",
    "bzip2/g",
    "bzip2/p",
    "galgel",
    "gcc/1",
    "gcc/s",
    "gzip/g",
    "gzip/p",
    "mcf",
    "perl/d",
    "perl/s",
)

_KB = 1024
_MB = 1024 * 1024

_BuilderResult = Tuple[List[CodeRegion], PhaseScript, TransitionConfig]
_Builder = Callable[[np.random.Generator, int], _BuilderResult]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Descriptor of one synthetic benchmark model."""

    name: str
    seed: int
    description: str
    nominal_intervals: int


def _intervals(nominal: int, scale: float) -> int:
    count = max(int(round(nominal * scale)), 20)
    return count


def _region_base(index: int) -> int:
    """Give each region its own disjoint code segment."""
    return 0x0040_0000 + index * 0x0010_0000


# ---------------------------------------------------------------------------
# Benchmark builders. Each returns (regions, script, transition config).
# ---------------------------------------------------------------------------


def _build_ammp(rng: np.random.Generator, total: int) -> _BuilderResult:
    regions = [
        CodeRegion(
            "ammp.force", rng, num_blocks=40,
            code_base=_region_base(0), pattern="strided",
            working_set_bytes=96 * _KB, loads_per_instr=0.35,
            loop_fraction=0.8, data_bias=0.8, base_ipc=2.4, cpi_sigma=0.05,
        ),
        CodeRegion(
            "ammp.neighbor", rng, num_blocks=36,
            code_base=_region_base(1), pattern="random",
            working_set_bytes=512 * _KB, loads_per_instr=0.40,
            loop_fraction=0.7, data_bias=0.7, base_ipc=1.8, cpi_sigma=0.05,
        ),
        CodeRegion(
            "ammp.integrate", rng, num_blocks=32,
            code_base=_region_base(2), pattern="strided",
            working_set_bytes=48 * _KB, loads_per_instr=0.30,
            loop_fraction=0.85, data_bias=0.85, base_ipc=2.8, cpi_sigma=0.05,
        ),
    ]
    script = stable_pattern(rng, 3, total, min_length=100, max_length=350)
    return regions, script, TransitionConfig(min_length=1, max_length=2)


def _build_bzip2(
    rng: np.random.Generator, total: int, program_input: bool
) -> _BuilderResult:
    inner = (4, 18) if program_input else (5, 20)
    regions = [
        CodeRegion(
            "bzip2.read", rng, num_blocks=30,
            code_base=_region_base(0), pattern="strided",
            working_set_bytes=256 * _KB, loads_per_instr=0.30,
            loop_fraction=0.75, data_bias=0.8, base_ipc=2.2, cpi_sigma=0.07,
        ),
        CodeRegion(
            "bzip2.sort", rng, num_blocks=44,
            code_base=_region_base(1), pattern="random",
            working_set_bytes=1 * _MB, loads_per_instr=0.45,
            loop_fraction=0.5, data_bias=0.6, base_ipc=1.6, cpi_sigma=0.09,
        ),
        CodeRegion(
            "bzip2.mtf", rng, num_blocks=36,
            code_base=_region_base(2), pattern="mixed",
            working_set_bytes=128 * _KB, loads_per_instr=0.35,
            loop_fraction=0.6, data_bias=0.65, base_ipc=1.9, cpi_sigma=0.07,
        ),
        CodeRegion(
            "bzip2.huffman", rng, num_blocks=40,
            code_base=_region_base(3), pattern="strided",
            working_set_bytes=64 * _KB, loads_per_instr=0.25,
            loop_fraction=0.7, data_bias=0.75, base_ipc=2.5, cpi_sigma=0.07,
        ),
        CodeRegion(
            "bzip2.write", rng, num_blocks=28,
            code_base=_region_base(4), pattern="strided",
            working_set_bytes=32 * _KB, loads_per_instr=0.28,
            loop_fraction=0.8, data_bias=0.85, base_ipc=2.7, cpi_sigma=0.07,
        ),
    ]
    script = hierarchical_pattern(
        rng, 5, total, inner_min=inner[0], inner_max=inner[1], outer_cycle=2
    )
    return regions, script, TransitionConfig(min_length=1, max_length=3)


def _build_galgel(rng: np.random.Generator, total: int) -> _BuilderResult:
    solver = CodeRegion(
        "galgel.solver", rng, num_blocks=48,
        code_base=_region_base(0), pattern="strided",
        working_set_bytes=256 * _KB, loads_per_instr=0.4,
        loop_fraction=0.85, data_bias=0.8, base_ipc=2.2, cpi_sigma=0.09,
    )
    # Sibling regions share the solver's blocks with jittered weights:
    # signatures land near the similarity threshold, which is what makes
    # galgel hard for code-based classification.
    sibling_a = CodeRegion.sibling(
        solver, rng, "galgel.solver.varA", weight_jitter=0.45,
        cpi_scale_hint=1.25,
    )
    sibling_b = CodeRegion.sibling(
        solver, rng, "galgel.solver.varB", weight_jitter=0.45,
        cpi_scale_hint=0.85,
    )
    assembly = CodeRegion(
        "galgel.assembly", rng, num_blocks=40,
        code_base=_region_base(1), pattern="random",
        working_set_bytes=768 * _KB, loads_per_instr=0.45,
        loop_fraction=0.6, data_bias=0.7, base_ipc=1.7, cpi_sigma=0.09,
    )
    regions = [solver, sibling_a, sibling_b, assembly]
    script = alternating_pattern(rng, 4, total, period_min=8, period_max=18)
    return regions, script, TransitionConfig(min_length=1, max_length=2)


def _build_gcc(
    rng: np.random.Generator, total: int, scilab_input: bool
) -> _BuilderResult:
    num_regions = 14 if scilab_input else 12
    seg_range = (4, 10) if scilab_input else (4, 12)
    patterns = ("mixed", "random", "strided", "pointer")
    regions = []
    for index in range(num_regions):
        regions.append(
            CodeRegion(
                f"gcc.pass{index}", rng,
                num_blocks=int(rng.integers(40, 64)),
                code_base=_region_base(index),
                code_bytes=64 * _KB,  # big code footprint: I-cache misses
                pattern=patterns[index % len(patterns)],
                working_set_bytes=int(
                    rng.choice([128 * _KB, 256 * _KB, 512 * _KB, 2 * _MB])
                ),
                loads_per_instr=float(rng.uniform(0.3, 0.5)),
                hot_fraction=float(rng.uniform(0.82, 0.93)),
                loop_fraction=float(rng.uniform(0.35, 0.6)),
                data_bias=float(rng.uniform(0.55, 0.75)),
                base_ipc=float(rng.uniform(1.2, 2.6)),
                cpi_sigma=0.11,
            )
        )
    script = irregular_pattern(
        rng, num_regions, total,
        min_length=seg_range[0], max_length=seg_range[1], revisit_bias=0.35,
    )
    transitions = TransitionConfig(
        min_length=1,
        max_length=2,
        unique_fraction=0.35,
        probability=0.8,
    )
    return regions, script, transitions


def _build_gzip(
    rng: np.random.Generator, total: int, program_input: bool
) -> _BuilderResult:
    regions = [
        CodeRegion(
            "gzip.deflate", rng, num_blocks=36,
            code_base=_region_base(0), pattern="strided",
            working_set_bytes=128 * _KB, loads_per_instr=0.35,
            loop_fraction=0.75, data_bias=0.8, base_ipc=2.3, cpi_sigma=0.06,
        ),
        CodeRegion(
            "gzip.longest_match", rng, num_blocks=32,
            code_base=_region_base(1), pattern="random",
            working_set_bytes=384 * _KB, loads_per_instr=0.45,
            loop_fraction=0.65, data_bias=0.7, base_ipc=1.8, cpi_sigma=0.07,
        ),
        CodeRegion(
            "gzip.fill_window", rng, num_blocks=28,
            code_base=_region_base(2), pattern="strided",
            working_set_bytes=64 * _KB, loads_per_instr=0.30,
            loop_fraction=0.85, data_bias=0.9, base_ipc=2.8, cpi_sigma=0.06,
        ),
        CodeRegion(
            "gzip.tree", rng, num_blocks=34,
            code_base=_region_base(3), pattern="mixed",
            working_set_bytes=96 * _KB, loads_per_instr=0.33,
            loop_fraction=0.6, data_bias=0.7, base_ipc=2.1, cpi_sigma=0.07,
        ),
    ]
    if program_input:
        script = hierarchical_pattern(
            rng, 4, total, inner_min=8, inner_max=30, outer_cycle=2
        )
    else:
        # graphic input: few, exceptionally long stable runs.
        script = stable_pattern(rng, 3, total, min_length=120, max_length=300)
        regions = regions[:3]
    return regions, script, TransitionConfig(min_length=1, max_length=2)


def _build_mcf(rng: np.random.Generator, total: int) -> _BuilderResult:
    # Pointer-chasing with working sets far beyond the 128 KB L2.
    simplex = CodeRegion(
        "mcf.simplex", rng, num_blocks=38,
        code_base=_region_base(0), pattern="pointer",
        working_set_bytes=4 * _MB, loads_per_instr=0.5, hot_fraction=0.84,
        loop_fraction=0.45, data_bias=0.6, base_ipc=1.4, cpi_sigma=0.07,
    )
    # The dominant region runs in two sub-modes with distinct CPI: a
    # loose threshold lumps them (high CoV); tightening splits them —
    # mcf is the paper's showcase for the adaptive classifier (Fig. 6).
    simplex.set_submodes(
        make_submodes(
            rng, simplex.num_blocks, cpi_scales=(1.0, 1.45), intensity=0.4
        ),
        probabilities=[0.55, 0.45],
    )
    regions = [
        simplex,
        CodeRegion(
            "mcf.pricing", rng, num_blocks=34,
            code_base=_region_base(1), pattern="pointer",
            working_set_bytes=2 * _MB, loads_per_instr=0.45,
            hot_fraction=0.87,
            loop_fraction=0.5, data_bias=0.65, base_ipc=1.6, cpi_sigma=0.07,
        ),
        CodeRegion(
            "mcf.refresh", rng, num_blocks=30,
            code_base=_region_base(2), pattern="strided",
            working_set_bytes=1 * _MB, loads_per_instr=0.4,
            loop_fraction=0.7, data_bias=0.8, base_ipc=2.0, cpi_sigma=0.07,
        ),
    ]
    script = stable_pattern(rng, 3, total, min_length=30, max_length=100)
    return regions, script, TransitionConfig(min_length=1, max_length=3)


def _build_perl(
    rng: np.random.Generator, total: int, splitmail_input: bool
) -> _BuilderResult:
    if not splitmail_input:
        # diffmail: a short program with a few long stable phases.
        regions = [
            CodeRegion(
                "perl.interp", rng, num_blocks=44,
                code_base=_region_base(0), code_bytes=48 * _KB,
                pattern="mixed", working_set_bytes=256 * _KB,
                loads_per_instr=0.4, loop_fraction=0.5, data_bias=0.65,
                base_ipc=1.9, cpi_sigma=0.07,
            ),
            CodeRegion(
                "perl.regex", rng, num_blocks=36,
                code_base=_region_base(1), pattern="strided",
                working_set_bytes=64 * _KB, loads_per_instr=0.3,
                loop_fraction=0.7, data_bias=0.8, base_ipc=2.4,
                cpi_sigma=0.07,
            ),
            CodeRegion(
                "perl.io", rng, num_blocks=30,
                code_base=_region_base(2), pattern="strided",
                working_set_bytes=96 * _KB, loads_per_instr=0.35,
                loop_fraction=0.65, data_bias=0.75, base_ipc=2.1,
                cpi_sigma=0.07,
            ),
            CodeRegion(
                "perl.hash", rng, num_blocks=34,
                code_base=_region_base(3), pattern="random",
                working_set_bytes=512 * _KB, loads_per_instr=0.45,
                loop_fraction=0.55, data_bias=0.6, base_ipc=1.7,
                cpi_sigma=0.07,
            ),
        ]
        script = stable_pattern(rng, 4, total, min_length=80, max_length=300)
        return regions, script, TransitionConfig(min_length=1, max_length=2)

    # splitmail: more complex behaviour; two regions carry CPI sub-modes
    # so the dynamic-threshold classifier has something to split (Fig. 6).
    regions = []
    for index in range(6):
        region = CodeRegion(
            f"perl.split{index}", rng,
            num_blocks=int(rng.integers(32, 52)),
            code_base=_region_base(index), code_bytes=32 * _KB,
            pattern=("mixed", "random", "strided")[index % 3],
            working_set_bytes=int(
                rng.choice([96 * _KB, 256 * _KB, 768 * _KB])
            ),
            loads_per_instr=float(rng.uniform(0.3, 0.45)),
            loop_fraction=float(rng.uniform(0.45, 0.7)),
            data_bias=float(rng.uniform(0.6, 0.8)),
            base_ipc=float(rng.uniform(1.5, 2.5)),
            cpi_sigma=0.09,
        )
        if index in (0, 2):
            region.set_submodes(
                make_submodes(
                    rng, region.num_blocks, cpi_scales=(1.0, 1.4),
                    intensity=0.4,
                ),
                probabilities=[0.6, 0.4],
            )
        regions.append(region)
    script = irregular_pattern(
        rng, 6, total, min_length=8, max_length=40, revisit_bias=0.4
    )
    return regions, script, TransitionConfig(min_length=1, max_length=3)


# ---------------------------------------------------------------------------
# Registry and public API
# ---------------------------------------------------------------------------

_SPECS: Dict[str, BenchmarkSpec] = {
    "ammp": BenchmarkSpec(
        "ammp", seed=101, nominal_intervals=1200,
        description="FP molecular dynamics: few long stable phases",
    ),
    "bzip2/g": BenchmarkSpec(
        "bzip2/g", seed=102, nominal_intervals=1400,
        description="bzip2, graphic input: hierarchical phase pattern",
    ),
    "bzip2/p": BenchmarkSpec(
        "bzip2/p", seed=103, nominal_intervals=1300,
        description="bzip2, program input: hierarchical phase pattern",
    ),
    "galgel": BenchmarkSpec(
        "galgel", seed=104, nominal_intervals=1400,
        description="periodic alternation between related regions",
    ),
    "gcc/1": BenchmarkSpec(
        "gcc/1", seed=105, nominal_intervals=1500,
        description="gcc, 166 input: many short irregular phases",
    ),
    "gcc/s": BenchmarkSpec(
        "gcc/s", seed=106, nominal_intervals=1300,
        description="gcc, scilab input: very short phases, many transitions",
    ),
    "gzip/g": BenchmarkSpec(
        "gzip/g", seed=107, nominal_intervals=700,
        description="gzip, graphic input: exceptionally long stable runs",
    ),
    "gzip/p": BenchmarkSpec(
        "gzip/p", seed=108, nominal_intervals=1200,
        description="gzip, program input: hierarchical with long runs",
    ),
    "mcf": BenchmarkSpec(
        "mcf", seed=109, nominal_intervals=1300,
        description="pointer-chasing, cache-hostile, CPI sub-modes",
    ),
    "perl/d": BenchmarkSpec(
        "perl/d", seed=110, nominal_intervals=800,
        description="perl, diffmail input: few long stable phases",
    ),
    "perl/s": BenchmarkSpec(
        "perl/s", seed=111, nominal_intervals=1200,
        description="perl, splitmail input: complex phases with sub-modes",
    ),
}


def _dispatch(
    name: str, rng: np.random.Generator, total: int
) -> _BuilderResult:
    if name == "ammp":
        return _build_ammp(rng, total)
    if name == "bzip2/g":
        return _build_bzip2(rng, total, program_input=False)
    if name == "bzip2/p":
        return _build_bzip2(rng, total, program_input=True)
    if name == "galgel":
        return _build_galgel(rng, total)
    if name == "gcc/1":
        return _build_gcc(rng, total, scilab_input=False)
    if name == "gcc/s":
        return _build_gcc(rng, total, scilab_input=True)
    if name == "gzip/g":
        return _build_gzip(rng, total, program_input=False)
    if name == "gzip/p":
        return _build_gzip(rng, total, program_input=True)
    if name == "mcf":
        return _build_mcf(rng, total)
    if name == "perl/d":
        return _build_perl(rng, total, splitmail_input=False)
    if name == "perl/s":
        return _build_perl(rng, total, splitmail_input=True)
    raise ConfigurationError(
        f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}"
    )


def spec(name: str) -> BenchmarkSpec:
    """Return the descriptor for a benchmark name."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}"
        ) from None


def build_benchmark(
    name: str,
    machine: Optional[Machine] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
    interval_instructions: int = DEFAULT_INTERVAL_INSTRUCTIONS,
) -> WorkloadGenerator:
    """Construct the generator for one of the paper's benchmarks.

    Parameters
    ----------
    name:
        One of :data:`BENCHMARK_NAMES`.
    machine:
        Machine model used for region calibration (Table 1 by default).
    scale:
        Run-length multiplier; 1.0 reproduces the nominal run. Tests use
        small scales for speed.
    seed:
        Override the benchmark's fixed seed (for robustness studies).
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigurationError(
            f"scale must be a finite positive number, got {scale}"
        )
    descriptor = spec(name)
    effective_seed = descriptor.seed if seed is None else seed
    structure_rng = np.random.default_rng(
        np.random.SeedSequence(effective_seed)
    )
    total = _intervals(descriptor.nominal_intervals, scale)
    regions, script, transitions = _dispatch(name, structure_rng, total)
    return WorkloadGenerator(
        name=name,
        regions=regions,
        script=script,
        machine=machine,
        seed=effective_seed + 7919,  # decouple sampling from structure
        interval_instructions=interval_instructions,
        transitions=transitions,
    )


def benchmark(
    name: str,
    machine: Optional[Machine] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> IntervalTrace:
    """Generate the interval trace for one of the paper's benchmarks."""
    return build_benchmark(
        name, machine=machine, scale=scale, seed=seed
    ).generate()
