#!/usr/bin/env python3
"""Regenerates perfbench/digests/sweep.json, the committed digest the
sweep workloads' correctness gate compares against.

    python3 perfbench/make_digests.py

A sweep run with --seed s uses master seed 1 + s % 16, so the table
holds one digest per approach and master seed 1..16. Each digest is an
FNV-1a hash over every cell's seed sets, entropy and mean influence.
Regenerate it only when a change is meant to alter sweep results (a new
stream family, a different oracle), and say so in the change; a digest
that moves otherwise is a regression. Builds first, like run.py.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    out_dir = run.build_dir()
    run.build(out_dir)
    work = out_dir.parent / "work" / "digests"
    work.mkdir(parents=True, exist_ok=True)
    table = {}
    for approach in ("oneshot", "snapshot", "ris"):
        table[approach] = {}
        for seed in range(16):
            done = run.subprocess.run(
                [str(out_dir / "perfbench_workloads"),
                 "--workload", f"sweep-{approach}", "--seed", str(seed),
                 "--seconds", "0.001", "--trace", "0",
                 "--work-dir", str(work)],
                stdout=run.subprocess.PIPE, text=True, check=True)
            info = json.loads(done.stdout.strip().splitlines()[-1])["info"]
            table[approach][str(1 + seed % 16)] = info["digest"]
            print(approach, info["master_seed"], info["digest"],
                  file=sys.stderr)
    path = run.BENCH_DIR / "digests" / "sweep.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
