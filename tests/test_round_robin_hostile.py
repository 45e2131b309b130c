"""Hostile input to the compiled round-robin walk fails typed, in Python.

``round_robin_compiled`` hands raw addresses to C with the GIL
released: a bad quantum, budget, mask table, associativity or geometry
would read or write out of bounds, and an instruction cost below 1
would spin the quantum loop forever.  Every check must raise
``ValueError`` before anything enters C — these tests replace the
kernel loader with one that fails the test, so they also run on hosts
without a C compiler.
"""

import numpy as np
import pytest

from repro.sim.engine import _compiled
from repro.sim.engine._compiled import (
    MAX_COMPILED_WAYS,
    RoundRobinJobs,
    round_robin_compiled,
)
from repro.sim.engine.batched import LockstepState


@pytest.fixture(autouse=True)
def no_kernel(monkeypatch):
    def entered_c():
        pytest.fail("validation let hostile input reach the C kernel")

    monkeypatch.setattr(_compiled, "load", entered_c)


def packed(job_count=2, length=5):
    blocks = [np.arange(length, dtype=np.int32) for _ in range(job_count)]
    costs = [np.ones(length, dtype=np.int64) for _ in range(job_count)]
    return RoundRobinJobs(blocks, costs)


def run(jobs=None, mask_table=None, state=None, **overrides):
    jobs = packed() if jobs is None else jobs
    if mask_table is None:
        mask_table = np.full(len(jobs.lengths), 0b11, dtype=np.int64)
    if state is None:
        state = LockstepState.cold(4, 2)
    arguments = dict(quantum=3, budget=20, sets_mask=3, index_bits=2)
    arguments.update(overrides)
    return round_robin_compiled(jobs, mask_table, state, **arguments)


@pytest.mark.parametrize("quantum", [0, -1, -(2**40)])
def test_quantum_below_one(quantum):
    with pytest.raises(ValueError, match="quantum must be >= 1"):
        run(quantum=quantum)


@pytest.mark.parametrize("budget", [0, -7])
def test_budget_below_one(budget):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        run(budget=budget)


@pytest.mark.parametrize("entries", [0, 1, 3])
def test_mask_table_length_differs_from_job_count(entries):
    with pytest.raises(ValueError, match="mask table has"):
        run(mask_table=np.zeros(entries, dtype=np.int64))


@pytest.mark.parametrize("ways", [0, MAX_COMPILED_WAYS + 1])
def test_ways_outside_kernel_range(ways):
    state = LockstepState(
        tags=np.full((4, ways), -1, dtype=np.int64),
        last_use=np.full((4, ways), -1, dtype=np.int64),
        clock=np.zeros(4, dtype=np.int64),
    )
    with pytest.raises(ValueError, match="ways must be in"):
        run(state=state)


@pytest.mark.parametrize("sets_mask", [-1, 1, 7])
def test_state_rows_differ_from_geometry(sets_mask):
    with pytest.raises(ValueError, match="rows"):
        run(sets_mask=sets_mask)


def test_cost_array_length_differs_from_blocks():
    blocks = [np.arange(5), np.arange(4)]
    with pytest.raises(ValueError, match="match its blocks"):
        RoundRobinJobs(blocks, [np.ones(5), np.ones(5)])
    with pytest.raises(ValueError, match="match its blocks"):
        RoundRobinJobs(blocks, [np.ones(5)])


@pytest.mark.parametrize("bad_cost", [0, -3])
def test_cost_below_one(bad_cost):
    costs = [np.ones(5, dtype=np.int64), np.ones(5, dtype=np.int64)]
    costs[1][2] = bad_cost
    with pytest.raises(ValueError, match="costs must be >= 1"):
        RoundRobinJobs([np.arange(5), np.arange(5)], costs)


@pytest.mark.parametrize("lengths", [[], [5, 0]])
def test_no_jobs_or_empty_trace(lengths):
    blocks = [np.arange(length) for length in lengths]
    costs = [np.ones(length, dtype=np.int64) for length in lengths]
    with pytest.raises(ValueError, match="non-empty"):
        RoundRobinJobs(blocks, costs)


def test_packed_costs_cannot_change_after_the_check():
    jobs = packed()
    with pytest.raises(ValueError, match="read-only"):
        jobs.costs[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        jobs.lengths[0] = 10**9


def test_packing_copies_the_callers_arrays():
    costs = np.ones(5, dtype=np.int64)
    RoundRobinJobs([np.arange(5)], [costs])
    costs[0] = 2  # the caller's own array stays writeable
    assert costs.flags.writeable
