"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-dse --seed 1 --seconds 25 --trace 0

The launcher pins the environment, builds the kernel (untimed), times
set-up in three fresh processes and runs the measured process
(``worker.py``).  Its last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Earlier lines record the environment, sample counts
and any check failures.  It exits non-zero, printing no result, when
the source tree is missing or any step fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Build outputs (kernel library; span dumps, written by the worker)
#: stay inside the checkout.
BUILD_DIR = ROOT / ".bench_build"

#: Set-up is timed in this many fresh processes (the last one is the
#: measured process itself); the median is reported.
SETUP_SAMPLES = 3

#: The whole run, set-up and build included, ends within this.
DEADLINE_SECONDS = 170.0

WORKLOADS = ("fig5-dse", "layout-pipeline", "fleet-serve")


def pinned_env() -> dict[str, str]:
    """The measured processes' environment: one thread, fixed hashing."""
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "REPRO_KERNEL": "compiled",
            "REPRO_KERNEL_CACHE": str(BUILD_DIR / "kernels"),
        }
    )
    return env


class StepFailed(Exception):
    """A benchmark step exited badly or ran past the deadline."""


class Launcher:
    """Starts worker processes and reads their results."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = pinned_env()

    def worker(self, *arguments: str) -> dict:
        """Run ``worker.py`` to completion; return its RESULT payload."""
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            *arguments,
            "--spawned-at",
            repr(time.perf_counter()),
        ]
        try:
            process = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{arguments[1]} ran past the deadline")
        if process.returncode != 0:
            raise StepFailed(
                f"{arguments[1]} exited with {process.returncode}"
            )
        for line in process.stdout.splitlines():
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise StepFailed(f"{arguments[1]} printed no result")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the self-test's small inputs",
    )
    parser.add_argument(
        "--golden",
        default=str(HERE / "golden.json"),
        help="golden digest file (the self-test passes a corrupted one)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no source tree at {ROOT / 'src' / 'repro'}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2

    launcher = Launcher(time.monotonic() + DEADLINE_SECONDS)
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
    ]
    try:
        build_start = time.perf_counter()
        built = launcher.worker("--mode", "build")
        build_s = time.perf_counter() - build_start
        setups = [
            launcher.worker("--mode", "setup", *common)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = launcher.worker(
            "--mode", "run", *common,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--golden", args.golden,
        )
        setups.append(result)
    except StepFailed as error:
        print(f"benchmark step failed: {error}", file=sys.stderr)
        return 1

    env = launcher.env
    print(
        json.dumps(
            {
                "environment": {
                    "kernel_backend": result["info"].pop("backend"),
                    "built_kernel_backend": built["backend"],
                    **{
                        name: env[name]
                        for name in (
                            "REPRO_KERNEL",
                            "PYTHONHASHSEED",
                            "OMP_NUM_THREADS",
                            "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS",
                        )
                    },
                    "result_caches": "bypassed: ops call the simulator "
                    "directly, no SweepEngine or ResultCache",
                    "python": sys.version.split()[0],
                    "cpus": os.cpu_count(),
                },
                "build_s": build_s,
                "setup_samples_s": [setup["setup_s"] for setup in setups],
                "setup_raw_samples_s": [
                    setup["setup_raw_s"] for setup in setups
                ],
                **result["info"],
            }
        )
    )
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(
                setup["setup_s"] for setup in setups
            ),
            "unit": "s",
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
