"""Self-test of the benchmark at tiny sizes (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload runs a few ops with and without tracing,
prints every metric BENCHMARK.json names with its declared unit and
passes its correctness gate; that a corrupted golden digest trips the
gate; and that a directory holding only the benchmark's own files
makes ``run.py`` fail without printing a result.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BUILD_DIR, HERE, ROOT, WORKLOADS

WORK_DIR = BUILD_DIR / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*arguments: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        raise AssertionError(
            f"exit {process.returncode}: {process.stderr.strip()}"
        )
    result = json.loads(process.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    for metric in declared:
        printed = result["metrics"].get(metric["name"])
        if printed is None:
            raise AssertionError(f"{label}: {metric['name']} missing")
        if printed["unit"] != metric["unit"]:
            raise AssertionError(
                f"{label}: {metric['name']} unit {printed['unit']}"
            )
    if len(result["metrics"]) != len(declared):
        raise AssertionError(f"{label}: extra metrics printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            result = result_of(
                bench(
                    "--workload", workload, "--seed", "5",
                    "--seconds", "1", "--trace", str(trace),
                    "--size", "tiny",
                )
            )
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: gate failed: {result}")
            check_metrics(result, declared[trace], label)
            print(f"ok   {label}: {result['attempted']} ops")

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    variant = golden["fig5-dse"]["tiny"]["5"]
    variant["matrix"] = "0" * len(variant["matrix"])
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    corrupt = WORK_DIR / "golden-corrupt.json"
    corrupt.write_text(json.dumps(golden), encoding="utf-8")
    result = result_of(
        bench(
            "--workload", "fig5-dse", "--seed", "5", "--seconds", "1",
            "--size", "tiny", "--golden", str(corrupt),
        )
    )
    if result["correct"] or result["failed"] != result["attempted"]:
        raise AssertionError(f"corrupted golden passed the gate: {result}")
    print("ok   a corrupted golden digest fails every op")

    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    process = bench(
        "--workload", "fig5-dse", "--seed", "1", "--seconds", "1",
        cwd=bare,
    )
    if process.returncode == 0 or process.stdout.strip():
        raise AssertionError("run.py succeeded without a source tree")
    print("ok   without a source tree run.py exits non-zero, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
