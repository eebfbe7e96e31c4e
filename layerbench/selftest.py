#!/usr/bin/env python3
"""Self-test of the layer benchmark's exact counts and ledger.

    python3 layerbench/selftest.py [--seconds 2] [--seed 7]

Runs every workload twice, traced, with one seed and a short timed phase.
Checks that both runs are correct (no failed op, ledger reconciled), that
the structural counts listed in EXACT repeat exactly between the two runs,
and that flash-write issues the paper's request count: one request per
64 file regions, i.e. ceil(1920 / 64) = 30 per rank checkpoint. Exits
nonzero on the first violation.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flash-write", "tiledviz-read", "cyclic-rw-small")
EXACT = (
    "client.requests_per_op",
    "client.messages_per_op",
    "client.regions_per_message",
    "dist.fragments_per_op",
    "iod.store_ops_per_call",
    "transport.wire_bytes_per_payload_byte",
    "store.bytes_per_payload_byte",
)
FLASH_FILE_REGIONS_PER_RANK = 1920
MAX_LIST_REGIONS = 64


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload}: exit {out.returncode}\n{out.stderr[-4000:]}"
                 f"\n{out.stdout[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload}: incorrect run: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    for workload in WORKLOADS:
        first = run(workload, args.seed, args.seconds)
        second = run(workload, args.seed, args.seconds)
        for name in EXACT:
            if first[name] != second[name]:
                sys.exit(f"FAIL {workload}: {name} differs between runs: "
                         f"{first[name]!r} vs {second[name]!r}")
        if workload == "flash-write":
            want = math.ceil(FLASH_FILE_REGIONS_PER_RANK / MAX_LIST_REGIONS)
            got = first["client.requests_per_op"]
            if got != want:
                sys.exit(f"FAIL flash-write: {got} requests per rank, "
                         f"paper arithmetic gives {want}")
        print(f"ok {workload}: " +
              ", ".join(f"{name}={first[name]:g}" for name in EXACT))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
