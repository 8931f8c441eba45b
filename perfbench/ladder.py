#!/usr/bin/env python3
"""One checked `hsforge analyze` run on the S_d ladder, outside the workloads.

    python3 perfbench/ladder.py --degree 8 [--seed 1]

Builds the same input as the sym-ladder workload for one degree, times a
single in-process `hsforge analyze FILE --json`, checks the output with the
workload's checks and prints the seconds and the peak resident size.  This
is the reference figure for the ROADMAP target "d = 8 in under 10 s".
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.import_program()
    import oracles
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ladder-", dir=run.OUT))
    try:
        ladder = workloads.SymLadder(args.seed, workdir, degrees=(args.degree,))
        d, points, path = ladder.cases[0]
        started = time.perf_counter()
        code, out = workloads.run_cli(["analyze", path, "--json"])
        seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    oracles.check_ladder(d, points, code, json.loads(out))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"d = {d}: analyze {seconds:.2f} s, peak RSS {peak:.1f} MB, output checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
