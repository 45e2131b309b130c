"""Regenerate ``golden.json``: the expected digest of every op output.

Usage, from the root of a checkout::

    python3 perfbench/bless.py

Runs one cycle of ops of every workload, size and input variant in the
benchmark's pinned environment and records each op's output digest.
Only bless after a change that is *meant* to change simulated results,
and say so in CHANGES.md: a speed-only change must leave every digest
as it is.  Takes about five minutes on a 2-core host.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, Launcher

#: Blessing runs every variant; this bounds it instead of run.py's
#: per-run deadline.
BLESS_DEADLINE_SECONDS = 1800.0


def main() -> int:
    launcher = Launcher(time.monotonic() + BLESS_DEADLINE_SECONDS)
    golden: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            golden.setdefault(workload, {})[size] = launcher.worker(
                "--mode", "bless", "--workload", workload, "--size", size
            )
            print(f"blessed {workload} ({size})", file=sys.stderr)
    path = HERE / "golden.json"
    path.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
