"""The benchmark's three workloads, built from public ``repro`` APIs.

Each workload records its inputs in set-up (from the seed's input
variant) and then runs *ops*.  One call of :meth:`run_op` is the unit
the timed loop measures:

* ``fig5-dse`` — one op is the paper-size Figure-5 matrix (3 gzip
  jobs, 16 KB and 128 KB caches, shared and mapped, 11 quanta),
  through ``simulate_multitask_matrix`` directly: no result cache.
* ``layout-pipeline`` — one op records one registry workload, profiles
  it, plans its layout cold with one planner backend and replays the
  trace under the plan.  Ops cycle over every (workload, backend) pair.
* ``fleet-serve`` — one call serves the ``experiments serve`` migration
  arm at headline scale (1000 Poisson tenants, 4 shards, 25% hot-keyed
  to shard 1) on a fresh service; each admission decision is an op.

The seed picks one of :data:`INPUT_VARIANTS` input variants, and every
variant has golden digests in ``golden.json``, so every op's output is
checked exactly whatever the seed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

#: How many input variants the seed selects from (seed mod this).
INPUT_VARIANTS = 16

#: Sizes: ``full`` is what the benchmark measures; ``tiny`` is for the
#: self-test.
SIZES = ("full", "tiny")


def digest(payload: Any) -> str:
    """Short content digest of a JSON-serializable payload.

    Floats serialize with ``repr`` precision, so a digest pins every
    bit of a simulated CPI.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class OpResult:
    """What one :meth:`run_op` call produced.

    Attributes:
        key: Which golden digest the output is checked against.
        wall: Host seconds for the whole call.
        latencies: Per-op host seconds (one per op in the call).
        offered: Ops attempted in the call.
        completed: Ops that completed (fleet: admitted).
        digest: Digest of the deterministic simulated outputs.
        problems: Structural check failures (empty when all pass).
        accesses: Simulated memory accesses.
        cycles: Simulated cycles.
        instructions: Simulated instructions.
        extra: Workload-specific deterministic counts.
        factor: Host-speed normalization factor (set by the timed
            loop; see ``probe.py``).
    """

    key: str
    wall: float
    latencies: list[float]
    offered: int
    completed: int
    digest: str
    problems: list[str]
    accesses: int
    cycles: int
    instructions: int
    extra: dict[str, float] = field(default_factory=dict)
    factor: float = 1.0


class Fig5Dse:
    """The paper-size Figure-5 design-space matrix, one op per matrix."""

    name = "fig5-dse"
    #: How op time scales with the probe's slowdown (see README.md).
    elasticity = 0.65
    #: Ops per cycle; a run measures whole cycles.
    cycle = 1

    def __init__(self, variant: int, size: str) -> None:
        from repro.cache.geometry import CacheGeometry
        from repro.experiments.figure5 import Figure5Config
        from repro.sim.engine import multitask_batch
        from repro.sim.multitask import Job
        from repro.utils.bitvector import ColumnMask
        from repro.workloads.gzip_like import make_gzip_job

        self._multitask_batch = multitask_batch
        config = Figure5Config()
        if size == "tiny":
            config = config.quick()
        self.config = config
        self.paper = size == "full" and variant == 0
        runs = {}
        for index, job in enumerate(config.job_names):
            # Variant 0 keeps the paper experiment's per-job seeds.
            seed = None if variant == 0 else 1000 * variant + index
            runs[job] = make_gzip_job(
                job,
                seed=seed,
                input_bytes=config.input_bytes,
                window_bits=config.window_bits,
                hash_bits=config.hash_bits,
            ).record()
        self.labels: list[tuple[int, bool]] = []
        self.variants = []
        columns = config.columns
        for cache_kb in config.cache_sizes_kb:
            geometry = CacheGeometry(
                line_size=config.line_size,
                sets=cache_kb * 1024 // (config.line_size * columns),
                columns=columns,
            )
            for mapped in (False, True):
                jobs = []
                for index, job in enumerate(config.job_names):
                    mask = None
                    if mapped and job == config.measured_job:
                        mask = ColumnMask.contiguous(
                            0, config.a_columns, columns
                        )
                    elif mapped:
                        mask = ColumnMask.contiguous(
                            config.a_columns,
                            columns - config.a_columns,
                            columns,
                        )
                    jobs.append(
                        Job(
                            name=job,
                            trace=runs[job].trace,
                            mask=mask,
                            address_offset=index << 32,
                        )
                    )
                self.labels.append((cache_kb, mapped))
                self.variants.append((geometry, jobs))
        self.warmup_accesses = (
            len(self.variants)
            * config.warmup_passes
            * sum(len(run.trace) for run in runs.values())
        )

    def warm_up(self) -> None:
        """One untimed op: first calls pay for lazy initialisation."""
        self.run_op(0)

    def run_op(self, index: int) -> OpResult:
        config = self.config
        start = time.perf_counter()
        results = self._multitask_batch.simulate_multitask_matrix(
            self.variants,
            list(config.quanta),
            config.horizon_instructions,
            warmup_passes=config.warmup_passes,
        )
        cpis = [
            [point[config.measured_job].cpi(config.timing)
             for point in points]
            for points in results
        ]
        wall = time.perf_counter() - start
        timing = config.timing
        accesses = self.warmup_accesses
        cycles = instructions = 0
        for points in results:
            for point in points:
                for job in point.values():
                    accesses += job.accesses
                    instructions += job.instructions
                    cycles += (
                        job.instructions
                        + job.misses * timing.miss_penalty
                        + job.quanta * timing.context_switch_cycles
                    )
        problems = self._shape_problems(cpis) if self.paper else []
        return OpResult(
            key="matrix",
            wall=wall,
            latencies=[wall],
            offered=1,
            completed=1,
            digest=digest(cpis),
            problems=problems,
            accesses=accesses,
            cycles=cycles,
            instructions=instructions,
        )

    def _shape_problems(self, cpis: list[list[float]]) -> list[str]:
        """The paper's Figure-5 shape claims, on the paper's inputs."""
        from repro.experiments.figure5 import check_figure5
        from repro.experiments.report import ExperimentSeries

        series = ExperimentSeries(
            name="figure5-multitasking",
            x_label="quantum",
            x_values=list(self.config.quanta),
        )
        for (cache_kb, mapped), curve in zip(self.labels, cpis):
            suffix = " mapped" if mapped else ""
            series.add(f"gzip.{cache_kb}k{suffix}", curve)
        return [
            f"figure 5 claim failed: {check.claim} ({check.detail})"
            for check in check_figure5(series, self.config)
            if not check.passed
        ]


class LayoutPipeline:
    """Record, profile, plan and replay one (workload, backend) pair."""

    name = "layout-pipeline"
    elasticity = 1.0

    BACKENDS = ("paper", "beam", "evolutionary")
    TINY_WORKLOADS = ("dequant", "plus")
    COLUMNS = 4
    COLUMN_BYTES = 512
    LINE_SIZE = 16

    def __init__(self, variant: int, size: str) -> None:
        from repro.layout import algorithm
        from repro.layout.partition import split_for_columns
        from repro.profiling import profiler
        from repro.sim.config import EMBEDDED_TIMING
        from repro.sim.executor import TraceExecutor
        from repro.workloads.suite import available_workloads, make_workload

        self._algorithm = algorithm
        self._profiler = profiler
        self._split = split_for_columns
        self._make = make_workload
        self._executor = TraceExecutor(EMBEDDED_TIMING)
        self.variant = variant
        workloads = (
            available_workloads() if size == "full" else self.TINY_WORKLOADS
        )
        self.pairs = [
            (workload, backend)
            for workload in workloads
            for backend in self.BACKENDS
        ]
        self.cycle = len(self.pairs)

    def warm_up(self) -> None:
        """One untimed op per planner backend."""
        for index in range(len(self.BACKENDS)):
            self.run_op(index)

    def run_op(self, index: int) -> OpResult:
        position = index % len(self.pairs)
        workload, backend = self.pairs[position]
        algorithm = self._algorithm
        start = time.perf_counter()
        run = self._make(workload, seed=self.variant).record()
        units = self._split(run.memory_map.symbols, self.COLUMN_BYTES)
        profile = self._profiler.profile_trace(
            run.trace, units, by_address=True
        )
        config = algorithm.LayoutConfig(
            columns=self.COLUMNS,
            column_bytes=self.COLUMN_BYTES,
            line_size=self.LINE_SIZE,
            backend=backend,
            seed=self.variant,
        )
        assignment = algorithm.DataLayoutPlanner(config).plan_from_profile(
            profile, units
        )
        result = self._executor.run(run.trace, assignment)
        wall = time.perf_counter() - start
        outputs = [
            int(assignment.predicted_cost),
            int(result.misses),
            int(result.cycles),
        ]
        return OpResult(
            key=str(position),
            wall=wall,
            latencies=[wall],
            offered=1,
            completed=1,
            digest=digest(outputs),
            problems=[
                f"{workload}:{backend}: {problem}"
                for problem in assignment.check_valid()
            ],
            accesses=int(result.accesses),
            cycles=int(result.cycles),
            instructions=int(result.instructions),
        )


class FleetServe:
    """The ``experiments serve`` migration arm; one admission per op."""

    name = "fleet-serve"
    elasticity = 0.9
    cycle = 1

    #: Tenants in the self-test's population.
    TINY_TENANTS = 100
    #: Tenants in the untimed warm-up service.
    WARMUP_TENANTS = 40

    def __init__(self, variant: int, size: str) -> None:
        from repro.experiments.serve import ServeConfig
        from repro.fleet.service.daemon import FleetService
        from repro.fleet.service.loadgen import (
            build_arrivals,
            default_workload_pool,
            run_load,
        )
        from repro.fleet.service.router import TenantHashRouter

        config = ServeConfig()
        if size == "tiny":
            config = dataclasses.replace(
                config,
                load=dataclasses.replace(
                    config.load, tenants=self.TINY_TENANTS
                ),
            )
        self._service_type = FleetService
        self._run_load = run_load
        self.service_config = dataclasses.replace(
            config.service, migration_enabled=True
        )
        # The arrival process is the headline schedule; the seed
        # varies the recorded tenant traces (see README.md).
        pool = default_workload_pool(config.load.seed + variant)
        self.arrivals = build_arrivals(
            config.load, TenantHashRouter(config.service.shards), runs=pool
        )

    async def _serve(self, arrivals) -> tuple[Any, Any, Any]:
        service = self._service_type(self.service_config)
        async with service:
            report = await self._run_load(service, arrivals)
            snapshot = service.snapshot()
        return service, report, snapshot

    def warm_up(self) -> None:
        """Serve a small prefix of the schedule, untimed and unchecked."""
        asyncio.run(self._serve(self.arrivals[: self.WARMUP_TENANTS]))

    def run_op(self, index: int) -> OpResult:
        start = time.perf_counter()
        service, report, snapshot = asyncio.run(self._serve(self.arrivals))
        wall = time.perf_counter() - start
        tickets = report.tickets
        timed_out = sum(1 for t in tickets if t.reason == "timeout")
        vq_wait = float(report.worst_shard_p99_queue_wait())
        outputs = {
            "admitted": report.admitted,
            "timed_out": timed_out,
            "shard_cpi": [shard.cpi for shard in snapshot.shards],
            "vq_wait_p99_instr": vq_wait,
            "invariant_violations": service.invariant_violations,
        }
        accesses = cycles = instructions = 0
        for shard in service.shards:
            timing = shard.timing
            for runtime in shard.runtimes.values():
                telemetry = runtime.telemetry
                accesses += telemetry.accesses
                instructions += telemetry.instructions
                cycles += (
                    telemetry.instructions
                    + telemetry.misses * timing.miss_penalty
                    + telemetry.quanta * timing.context_switch_cycles
                    + telemetry.remap_cycles
                )
        problems = []
        if service.invariant_violations:
            problems.append(
                f"{service.invariant_violations} disjoint-column "
                "invariant violations"
            )
        if len(tickets) != len(self.arrivals):
            problems.append(
                f"{len(tickets)} tickets for {len(self.arrivals)} arrivals"
            )
        if snapshot.residents:
            problems.append(f"{snapshot.residents} tenants never drained")
        stats = service.session.stats
        return OpResult(
            key="run",
            wall=wall,
            latencies=[t.wall_latency_s for t in tickets],
            offered=len(tickets),
            completed=report.admitted,
            digest=digest(outputs),
            problems=problems,
            accesses=accesses,
            cycles=cycles,
            instructions=instructions,
            extra={
                "session_hits": stats["hits"],
                "session_misses": stats["misses"],
                "migrations": len(service.migrations),
                "invariant_violations": service.invariant_violations,
                "vq_wait_p99_instr": vq_wait,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (Fig5Dse, LayoutPipeline, FleetServe)
}
