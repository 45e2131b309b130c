"""The benchmark's measured process: set up, run ops, check, report.

``run.py`` starts this script with the pinned environment; it is not
meant to be started by hand.  It prints one ``RESULT <json>`` line.
Set-up time runs from ``--spawned-at`` (the launcher's
``time.perf_counter()`` just before it started this process; the clock
is system-wide) to the moment the first op is ready.  Modes:

* ``build`` — compile the kernel and the package bytecode, then exit;
* ``setup`` — set up one workload, report the set-up time and exit;
* ``run`` — set up, warm up, run the timed loop, check every op's
  output and print the metrics (``--trace 1``: the per-layer ones);
* ``bless`` — print the golden digests of every input variant.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from probe import HostProbe
from tracing import Tracer, layer_totals
from workloads import INPUT_VARIANTS, SIZES, WORKLOADS, OpResult

HERE = Path(__file__).resolve().parent

#: The traced run fails when per-layer self times plus untraced time
#: miss the traced ops' wall time by more than this share.
RECONCILE_TOLERANCE = 0.01

#: Per-layer metrics: (name, unit).  Every one is printed on every
#: workload; a layer a workload never calls reads 0.
PER_LAYER = (
    ("sim.engine.kernel.ms_per_op", "ms"),
    ("sim.engine.kernel.entries_per_op", "count"),
    ("sim.engine.kernel.accesses_per_entry", "count"),
    ("sim.engine.matrix.self_ms_per_op", "ms"),
    ("sim.multitask.quantum_schedule.ms_per_op", "ms"),
    ("sim.engine.fused.self_ms_per_op", "ms"),
    ("fleet.service.shard.advance.self_ms_per_op", "ms"),
    ("fleet.service.telemetry.snapshot_ms_per_op", "ms"),
    ("fleet.service.daemon.wait_until_calls_per_op", "count"),
    ("fleet.broker.demand_curves.ms_per_op", "ms"),
    ("fleet.broker.demand_curves.calls_per_op", "count"),
    ("layout.session.hit_ratio", "share"),
    ("workloads.record.ms_per_op", "ms"),
    ("workloads.record.accesses_per_s", "1/s"),
    ("profiling.profile_trace.ms_per_op", "ms"),
    ("layout.plan.ms_per_op", "ms"),
    ("layout.plan.calls_per_op", "count"),
    ("sim.executor.run.ms_per_op", "ms"),
    ("fleet.service.daemon.migrations", "count"),
    ("fleet.service.daemon.invariant_violations", "count"),
    ("vq_wait_p99_instr", "instructions"),
    ("untraced_ms_per_op", "ms"),
    ("trace_overhead_share", "share"),
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "sim_accesses_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "completed_share": "share",
    "sim_cpi": "cpi",
}


def emit(tag: str, payload: Any) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def build() -> None:
    """Compile the kernel library and the package's bytecode."""
    import compileall

    import repro

    compileall.compile_dir(
        str(Path(repro.__file__).parent), quiet=1, workers=1
    )
    from repro.sim.engine import _compiled, backends

    _compiled.load()
    emit("RESULT", {"backend": backends.active_backend()})


def timed_loop(
    bench: Any, seconds: float, traced: bool, probe: HostProbe
) -> tuple[list[OpResult], list[tuple[int, OpResult]], Optional[Tracer]]:
    """Run whole cycles of ops for about ``seconds`` of host time.

    Another cycle starts only while the run would end nearer to
    ``seconds`` than it is now, so the loop stops within half a cycle
    of the target and every run covers whole cycles.  Traced runs do
    each op twice, untraced then traced, so both see the same inputs
    and the same host speed.  Probe samples bracket the untraced ops;
    each op's ``factor`` becomes the probe's speed factor around it,
    raised to the workload's ``elasticity``.  Returns the untraced
    ops, the traced ops with their root span ids, and the tracer.
    """
    tracer = Tracer() if traced else None
    untraced: list[OpResult] = []
    traced_ops: list[tuple[int, OpResult]] = []
    intervals: list[tuple[float, float]] = []
    start = time.perf_counter()
    probe.sample()
    cycles = 0
    index = 0
    while True:
        for _ in range(bench.cycle):
            began = time.perf_counter()
            untraced.append(bench.run_op(index))
            intervals.append((began, time.perf_counter()))
            if probe.due():
                probe.sample()
            if tracer is not None:
                tracer.op = index
                tracer.install()
                root = tracer.begin("op")
                try:
                    result = bench.run_op(index)
                finally:
                    tracer.end(root)
                    tracer.remove()
                traced_ops.append((root.span_id, result))
            index += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            probe.sample()
            for op, interval in zip(untraced, intervals):
                op.factor = probe.factor(*interval) ** bench.elasticity
            return untraced, traced_ops, tracer


def check(
    ops: list[OpResult], golden: dict[str, str]
) -> tuple[list[bool], list[str]]:
    """Each op's verdict against its golden digest and checks."""
    verdicts = []
    problems: list[str] = []
    for op in ops:
        expected = golden.get(op.key)
        op_problems = list(op.problems)
        if expected is None:
            op_problems.append(f"no golden digest for op {op.key}")
        elif op.digest != expected:
            op_problems.append(
                f"op {op.key}: digest {op.digest} != golden {expected}"
            )
        verdicts.append(not op_problems)
        problems.extend(op_problems)
    return verdicts, problems


def timings(
    ops: list[OpResult], cycle: int, normalized: bool
) -> dict[str, float]:
    """Rate and latency metrics, optionally at the probe's host speed.

    ``ops`` holds whole cycles of ``cycle`` calls, and every cycle does
    the same work.  Rates use the median cycle time, so one cycle the
    probe could not correct (a fleet-serve call lasts seconds) moves
    the run less.  Latency percentiles pool every op of the run.
    """
    scale = [op.factor if normalized else 1.0 for op in ops]
    cycle_wall = statistics.median(
        sum(
            op.wall * factor
            for op, factor in zip(
                ops[start:start + cycle], scale[start:start + cycle]
            )
        )
        for start in range(0, len(ops), cycle)
    )
    latencies_ms = np.concatenate(
        [np.asarray(op.latencies) * factor for op, factor in zip(ops, scale)]
    ) * 1000.0
    first = ops[:cycle]
    return {
        "ops_per_s": sum(op.offered for op in first) / cycle_wall,
        "sim_accesses_per_s": sum(op.accesses for op in first) / cycle_wall,
        "op_p50_ms": float(np.percentile(latencies_ms, 50)),
        "op_p90_ms": float(np.percentile(latencies_ms, 90)),
    }


def end_to_end(
    ops: list[OpResult], verdicts: list[bool], cycle: int
) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced ops, and raw timings."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    offered = sum(op.offered for op in ops)
    values = {
        **timings(ops, cycle, normalized=True),
        "peak_rss_mb": rss_kb / 1024.0,
        "completed_share": sum(
            op.completed for op, ok in zip(ops, verdicts) if ok
        ) / offered,
        "sim_cpi": sum(op.cycles for op in ops)
        / sum(op.instructions for op in ops),
    }
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }
    return metrics, {
        "raw": timings(ops, cycle, normalized=False),
        "op_walls": [op.wall for op in ops],
        "op_factors": [op.factor for op in ops],
    }


def per_layer(
    untraced: list[OpResult],
    traced: list[tuple[int, OpResult]],
    tracer: Tracer,
) -> tuple[dict, dict]:
    """Per-layer metrics of the traced ops, plus reconciliation info."""
    roots = {root for root, _ in traced}
    ops = [op for _, op in traced]
    by_id = {span.span_id: span for span in tracer.spans}
    totals = layer_totals(tracer.spans, roots)
    offered = sum(op.offered for op in ops)
    traced_wall = sum(by_id[root].seconds for root in roots)
    untraced_time = traced_wall - totals.top_level
    self_sum = sum(totals.self_seconds.values())
    reconcile_error = abs(self_sum + untraced_time - traced_wall) / traced_wall

    def ms(table: dict, name: str) -> float:
        return table.get(name, 0.0) * 1000.0 / offered

    def per_op(name: str) -> float:
        return totals.calls.get(name, 0) / offered

    kernel_calls = totals.calls.get("sim.engine.kernel", 0)
    record_seconds = totals.inclusive.get("workloads.record", 0.0)
    hits = sum(op.extra.get("session_hits", 0) for op in ops)
    lookups = hits + sum(op.extra.get("session_misses", 0) for op in ops)
    runs = len(ops)
    values = {
        "sim.engine.kernel.ms_per_op": ms(
            totals.inclusive, "sim.engine.kernel"
        ),
        "sim.engine.kernel.entries_per_op": per_op("sim.engine.kernel"),
        "sim.engine.kernel.accesses_per_entry": (
            totals.accesses.get("sim.engine.kernel", 0) / kernel_calls
            if kernel_calls
            else 0.0
        ),
        "sim.engine.matrix.self_ms_per_op": ms(
            totals.self_seconds, "sim.engine.matrix"
        ),
        "sim.multitask.quantum_schedule.ms_per_op": ms(
            totals.inclusive, "sim.multitask.quantum_schedule"
        ),
        "sim.engine.fused.self_ms_per_op": ms(
            totals.self_seconds, "sim.engine.fused"
        ),
        "fleet.service.shard.advance.self_ms_per_op": ms(
            totals.self_seconds, "fleet.service.shard.advance"
        ),
        "fleet.service.telemetry.snapshot_ms_per_op": ms(
            totals.inclusive, "fleet.service.telemetry.snapshot"
        ),
        "fleet.service.daemon.wait_until_calls_per_op": (
            tracer.counts.get("fleet.service.daemon.wait_until", 0)
            / offered
        ),
        "fleet.broker.demand_curves.ms_per_op": ms(
            totals.inclusive, "fleet.broker.demand_curves"
        ),
        "fleet.broker.demand_curves.calls_per_op": per_op(
            "fleet.broker.demand_curves"
        ),
        "layout.session.hit_ratio": hits / lookups if lookups else 0.0,
        "workloads.record.ms_per_op": ms(
            totals.inclusive, "workloads.record"
        ),
        "workloads.record.accesses_per_s": (
            totals.accesses.get("workloads.record", 0) / record_seconds
            if record_seconds
            else 0.0
        ),
        "profiling.profile_trace.ms_per_op": ms(
            totals.inclusive, "profiling.profile_trace"
        ),
        "layout.plan.ms_per_op": ms(totals.inclusive, "layout.plan"),
        "layout.plan.calls_per_op": per_op("layout.plan"),
        "sim.executor.run.ms_per_op": ms(
            totals.inclusive, "sim.executor.run"
        ),
        "fleet.service.daemon.migrations": sum(
            op.extra.get("migrations", 0) for op in ops
        ) / runs,
        "fleet.service.daemon.invariant_violations": sum(
            op.extra.get("invariant_violations", 0)
            for op in untraced + ops
        ),
        "vq_wait_p99_instr": max(
            op.extra.get("vq_wait_p99_instr", 0.0) for op in ops
        ),
        "untraced_ms_per_op": untraced_time * 1000.0 / offered,
        "trace_overhead_share": traced_wall
        / sum(op.wall for op in untraced)
        - 1.0,
    }
    units = dict(PER_LAYER)
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name, _ in PER_LAYER
    }
    info = {
        "reconcile_error_share": reconcile_error,
        "reconcile_tolerance": RECONCILE_TOLERANCE,
        "self_ms_per_op": {
            name: seconds * 1000.0 / offered
            for name, seconds in sorted(totals.self_seconds.items())
        },
        "untraced_ms_per_op": untraced_time * 1000.0 / offered,
        "traced_ops": len(ops),
        "spans": len(tracer.spans),
    }
    return metrics, info


def nesting_problems(tracer: Tracer) -> list[str]:
    """Spans that stick out of their parent (a broken trace)."""
    by_id = {span.span_id: span for span in tracer.spans}
    problems = []
    for span in tracer.spans:
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        if span.start < parent.start or span.end > parent.end:
            problems.append(
                f"span {span.name} #{span.span_id} outside its parent"
            )
    return problems[:5]


def run(args: argparse.Namespace) -> None:
    bench = WORKLOADS[args.workload](args.seed % INPUT_VARIANTS, args.size)
    setup_raw = time.perf_counter() - args.spawned_at
    # Set-up is interpreter-bound (imports, recording): scale it by the
    # host's slowdown measured right after it, with elasticity 1.
    probe = HostProbe()
    probe.sample()
    setup_s = setup_raw / probe.slowdowns[-1]
    if args.mode == "setup":
        emit("RESULT", {"setup_s": setup_s, "setup_raw_s": setup_raw})
        return
    golden_all = json.loads(Path(args.golden).read_text(encoding="utf-8"))
    golden = (
        golden_all.get(args.workload, {})
        .get(args.size, {})
        .get(str(args.seed % INPUT_VARIANTS), {})
    )
    bench.warm_up()
    untraced, traced, tracer = timed_loop(
        bench, args.seconds, traced=bool(args.trace), probe=probe
    )
    all_ops = untraced + [op for _, op in traced]
    verdicts, problems = check(all_ops, golden)
    info: dict[str, Any] = {
        "variant": args.seed % INPUT_VARIANTS,
        "calls": len(untraced),
        "ops": sum(op.offered for op in untraced),
    }
    if tracer is None:
        metrics, raw = end_to_end(
            untraced, verdicts[: len(untraced)], bench.cycle
        )
        info.update(raw)
    else:
        metrics, trace_info = per_layer(untraced, traced, tracer)
        info.update(trace_info)
        problems.extend(nesting_problems(tracer))
        if trace_info["reconcile_error_share"] > RECONCILE_TOLERANCE:
            problems.append(
                "per-layer self times plus untraced time miss the op "
                f"wall by {trace_info['reconcile_error_share']:.2%}"
            )
        tracer.write(
            HERE.parent / ".bench_build" / "traces"
            / f"{args.workload}-{args.size}-seed{args.seed}.json"
        )
    from repro.sim.engine import backends

    info["backend"] = backends.active_backend()
    emit(
        "RESULT",
        {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw,
            "correct": not problems,
            "attempted": sum(op.offered for op in all_ops),
            "failed": sum(
                op.offered for op, ok in zip(all_ops, verdicts) if not ok
            ),
            "metrics": metrics,
            "problems": list(dict.fromkeys(problems))[:20],
            "info": info,
        },
    )


def bless(args: argparse.Namespace) -> None:
    """Golden digests of one cycle of ops, for every input variant."""
    table = {}
    for variant in range(INPUT_VARIANTS):
        bench = WORKLOADS[args.workload](variant, args.size)
        ops = [bench.run_op(index) for index in range(bench.cycle)]
        problems = [problem for op in ops for problem in op.problems]
        if problems:
            raise SystemExit(f"variant {variant}: {problems}")
        table[str(variant)] = {op.key: op.digest for op in ops}
    emit("RESULT", table)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode", choices=("build", "setup", "run", "bless"), required=True
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--spawned-at", type=float, default=0.0)
    args = parser.parse_args()
    if args.mode == "build":
        build()
    elif args.mode == "bless":
        bless(args)
    else:
        run(args)


if __name__ == "__main__":
    sys.exit(main())
