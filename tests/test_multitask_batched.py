"""Batched multitask simulation must be bit-identical to the scalar
round-robin simulator — every JobResult field, at every quantum shape
(per-access switching, mid-trace, multi-wrap, batch) — on both matrix
paths: the numpy closed-form schedule and the compiled in-kernel
round-robin walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.sim.engine import _compiled
from repro.sim.engine.multitask_batch import (
    simulate_multitask_batched,
    simulate_multitask_matrix,
    simulate_multitask_sweep,
)
from repro.sim.multitask import Job, MultitaskSimulator
from repro.trace.trace import TraceBuilder
from repro.utils.bitvector import ColumnMask


#: Both matrix paths, every run; the compiled leg skips (visibly) on
#: hosts without a usable C compiler.
KERNELS = [
    "numpy",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not _compiled.available(),
            reason="compiled lockstep kernel unavailable",
        ),
    ),
]


def build_trace(rng, length, span, name):
    builder = TraceBuilder(name=name)
    for _ in range(length):
        builder.add_gap(int(rng.integers(0, 4)))
        builder.append(int(rng.integers(0, span)) * 2, is_write=False)
    return builder.build()


def result_tuple(result):
    return (
        result.instructions,
        result.accesses,
        result.hits,
        result.misses,
        result.wraps,
        result.quanta,
    )


@st.composite
def multitask_case(draw):
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    sets = draw(st.sampled_from([2, 4, 8]))
    columns = draw(st.sampled_from([2, 4, 8]))
    geometry = CacheGeometry(line_size=16, sets=sets, columns=columns)
    job_count = draw(st.integers(1, 3))
    jobs = []
    for index in range(job_count):
        length = draw(st.integers(3, 100))
        mask = None
        if draw(st.booleans()) and columns >= 2:
            start = draw(st.integers(0, columns - 1))
            width = draw(st.integers(1, columns - start))
            mask = ColumnMask.contiguous(start, width, columns)
        jobs.append(
            Job(
                name=f"job{index}",
                trace=build_trace(
                    rng, length, draw(st.sampled_from([16, 64, 512])),
                    f"job{index}",
                ),
                mask=mask,
                address_offset=index << 20,
            )
        )
    quantum = draw(st.sampled_from([1, 2, 3, 7, 50, 1000, 10**6]))
    budget = draw(st.sampled_from([1, 5, 97, 1000, 20000]))
    warmup = draw(st.integers(0, 2))
    return geometry, jobs, quantum, budget, warmup


@pytest.mark.parametrize("kernel", KERNELS)
class TestBatchedMultitask:
    @given(case=multitask_case())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(self, case, kernel):
        geometry, jobs, quantum, budget, warmup = case
        simulator = MultitaskSimulator(geometry, jobs)
        simulator.warm_up(warmup)
        reference = simulator.run(quantum, budget)
        batched = simulate_multitask_batched(
            geometry, jobs, quantum, budget, warmup_passes=warmup,
            kernel=kernel,
        )
        assert set(batched) == set(reference)
        for name in reference:
            assert result_tuple(batched[name]) == result_tuple(
                reference[name]
            ), name

    def test_quantum_one_switches_every_access(self, kernel):
        rng = np.random.default_rng(0)
        geometry = CacheGeometry(line_size=16, sets=4, columns=4)
        jobs = [
            Job(
                name=f"j{index}",
                trace=build_trace(rng, 40, 64, f"j{index}"),
                address_offset=index << 20,
            )
            for index in range(3)
        ]
        simulator = MultitaskSimulator(geometry, jobs)
        reference = simulator.run(1, 500)
        batched = simulate_multitask_batched(
            geometry, jobs, 1, 500, kernel=kernel
        )
        for name in reference:
            assert result_tuple(batched[name]) == result_tuple(
                reference[name]
            )
            # quantum 1 + every-access-costs->=1 ==> one access per quantum
            assert batched[name].quanta == batched[name].accesses

    def test_sweep_matches_per_point(self, kernel):
        rng = np.random.default_rng(2)
        geometry = CacheGeometry(line_size=16, sets=4, columns=4)
        jobs = [
            Job(
                name=f"j{index}",
                trace=build_trace(rng, 80, 64, f"j{index}"),
                address_offset=index << 20,
            )
            for index in range(3)
        ]
        quanta = [1, 4, 16, 64, 100_000]
        swept = simulate_multitask_sweep(
            geometry, jobs, quanta, 3000, warmup_passes=1,
            max_batch_accesses=500,  # force several kernel flushes
            kernel=kernel,
        )
        assert len(swept) == len(quanta)
        for quantum, point in zip(quanta, swept):
            single = simulate_multitask_batched(
                geometry, jobs, quantum, 3000, warmup_passes=1,
                kernel=kernel,
            )
            for name in single:
                assert result_tuple(point[name]) == result_tuple(
                    single[name]
                ), (quantum, name)

    def test_matrix_shares_schedule_across_variants(self, kernel):
        rng = np.random.default_rng(7)
        small = CacheGeometry(line_size=16, sets=4, columns=4)
        large = CacheGeometry(line_size=16, sets=16, columns=4)
        traces = [build_trace(rng, 90, 128, f"j{index}") for index in range(3)]

        def make_jobs(mapped):
            jobs = []
            for index, trace in enumerate(traces):
                if not mapped:
                    mask = None
                elif index == 0:
                    mask = ColumnMask.contiguous(0, 3, 4)
                else:
                    mask = ColumnMask.contiguous(3, 1, 4)
                jobs.append(
                    Job(
                        name=f"j{index}",
                        trace=trace,
                        mask=mask,
                        address_offset=index << 20,
                    )
                )
            return jobs

        variants = [
            (small, make_jobs(False)),
            (small, make_jobs(True)),
            (large, make_jobs(False)),
            (large, make_jobs(True)),
        ]
        quanta = [1, 8, 300]
        matrix = simulate_multitask_matrix(
            variants, quanta, 2500, warmup_passes=1, kernel=kernel
        )
        for variant_index, (geometry, jobs) in enumerate(variants):
            for quantum_index, quantum in enumerate(quanta):
                simulator = MultitaskSimulator(geometry, jobs)
                simulator.warm_up(1)
                reference = simulator.run(quantum, 2500)
                point = matrix[variant_index][quantum_index]
                for name in reference:
                    assert result_tuple(point[name]) == result_tuple(
                        reference[name]
                    ), (variant_index, quantum, name)

    def test_matrix_rejects_mismatched_line_size(self, kernel):
        rng = np.random.default_rng(1)
        trace = build_trace(rng, 10, 32, "j0")
        jobs = [Job(name="j0", trace=trace)]
        variants = [
            (CacheGeometry(line_size=16, sets=4, columns=2), jobs),
            (CacheGeometry(line_size=32, sets=4, columns=2), jobs),
        ]
        with pytest.raises(ValueError, match="line size"):
            simulate_multitask_matrix(variants, [1], 10, kernel=kernel)

    def test_matrix_mixes_associativities(self, kernel):
        """Variants may differ in column count — including one above
        the int16 mask-palette threshold (regression: the palette
        dtype was chosen from variant 0 alone)."""
        rng = np.random.default_rng(7)
        trace = build_trace(rng, 600, 4096, "a")
        jobs = [Job(name="a", trace=trace)]
        variants = [
            (CacheGeometry(line_size=16, sets=8, columns=8), jobs),
            (CacheGeometry(line_size=16, sets=8, columns=16), jobs),
        ]
        matrix = simulate_multitask_matrix(
            variants, [32], 2_000, kernel=kernel
        )
        for (geometry, variant_jobs), points in zip(variants, matrix):
            simulator = MultitaskSimulator(geometry, variant_jobs)
            expected = simulator.run(32, 2_000)
            assert result_tuple(points[0]["a"]) == result_tuple(
                expected["a"]
            )

    def test_rejects_empty_jobs_and_bad_quanta(self, kernel):
        geometry = CacheGeometry(line_size=16, sets=4, columns=2)
        with pytest.raises(ValueError, match="at least one job"):
            simulate_multitask_batched(geometry, [], 1, 1, kernel=kernel)
        rng = np.random.default_rng(1)
        jobs = [Job(name="j0", trace=build_trace(rng, 5, 32, "j0"))]
        with pytest.raises(ValueError, match="quantum"):
            simulate_multitask_batched(
                geometry, jobs, 0, 10, kernel=kernel
            )
        with pytest.raises(ValueError, match="budget"):
            simulate_multitask_batched(
                geometry, jobs, 1, 0, kernel=kernel
            )


def unit_trace(length, name, span=64):
    """``length`` accesses, one instruction each (no gaps)."""
    builder = TraceBuilder(name=name)
    for index in range(length):
        builder.append((index * 7 % span) * 16, is_write=False)
    return builder.build()


def unit_jobs(lengths):
    return [
        Job(
            name=f"j{index}",
            trace=unit_trace(length, f"j{index}"),
            address_offset=index << 20,
        )
        for index, length in enumerate(lengths)
    ]


def checked_run(kernel, jobs, quantum, budget, warmup=0, sets=4):
    """Batched results, asserted equal to the scalar simulator's."""
    geometry = CacheGeometry(line_size=16, sets=sets, columns=2)
    simulator = MultitaskSimulator(geometry, jobs)
    simulator.warm_up(warmup)
    reference = simulator.run(quantum, budget)
    batched = simulate_multitask_batched(
        geometry, jobs, quantum, budget, warmup_passes=warmup,
        kernel=kernel,
    )
    for name in reference:
        assert result_tuple(batched[name]) == result_tuple(
            reference[name]
        ), name
    return batched


@pytest.mark.parametrize("kernel", KERNELS)
class TestPinnedScheduleEdges:
    """Schedule boundaries pinned to exact counts on both paths."""

    def test_budget_lands_on_quantum_boundary(self, kernel):
        # 4 quanta of exactly 5 instructions spend the 20-instruction
        # budget; no fifth quantum starts.
        results = checked_run(kernel, unit_jobs([9, 9]), 5, 20)
        for name in ("j0", "j1"):
            assert results[name].quanta == 2
            assert results[name].instructions == 10
            assert results[name].wraps == 1

    def test_quantum_ending_at_trace_end_counts_wrap(self, kernel):
        results = checked_run(kernel, unit_jobs([6, 6]), 6, 30)
        assert results["j0"].quanta == 3
        assert results["j1"].quanta == 2
        for result in results.values():
            assert result.wraps == result.quanta
            assert result.accesses == 6 * result.quanta

    def test_quantum_larger_than_budget(self, kernel):
        results = checked_run(kernel, unit_jobs([4, 4, 4]), 50, 10)
        first = results["j0"]
        assert (first.quanta, first.instructions, first.wraps) == (
            1, 50, 12,
        )
        for name in ("j1", "j2"):
            assert result_tuple(results[name]) == (0, 0, 0, 0, 0, 0)

    def test_single_job(self, kernel):
        results = checked_run(kernel, unit_jobs([7]), 3, 100)
        only = results["j0"]
        assert (only.quanta, only.instructions, only.accesses) == (
            34, 102, 102,
        )
        assert only.wraps == 102 // 7

    def test_two_warmup_passes(self, kernel):
        rng = np.random.default_rng(11)
        jobs = [
            Job(
                name=f"j{index}",
                trace=build_trace(rng, 30, 256, f"j{index}"),
                address_offset=index << 20,
            )
            for index in range(3)
        ]
        # 64 sets x 2 columns hold all three working sets, so two
        # warm-up passes leave fewer misses than a cold start.
        warm = checked_run(kernel, jobs, 4, 600, warmup=2, sets=64)
        cold = checked_run(kernel, jobs, 4, 600, warmup=0, sets=64)
        assert sum(r.misses for r in warm.values()) < sum(
            r.misses for r in cold.values()
        )
