#!/usr/bin/env python3
"""soldist benchmark: builds the program from source, runs one workload
and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. It builds the soldist library, the
soldist_experiment REPL and perfbench_workloads (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs perfbench_workloads. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1; a layer the workload does not run reads 0).
The full record, with the machine and build fingerprint and everything
the workload program measured, is written to perfbench/results/.
Compare two records with perfbench/diff.py.

Exit status is not 0, and no result line is printed, when the build
fails, the workload program fails, or a traced run's layer times miss its own
wall time by more than 5%.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("src", "tools", "bench", "perfbench")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def checkout_env(out_dir):
    """The environment for every child: temporary files stay inside the
    build directory, so a run writes nothing outside the checkout."""
    tmp = out_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(out_dir):
    """Configures once, then builds incrementally; output goes to stderr
    only when something fails, so stdout stays the result channel."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=checkout_env(out_dir))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail(f"build step failed: {' '.join(step)}")


def source_identity():
    """git SHA when the checkout is a repository, else a hash of every
    file that goes into the build."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if sha.returncode == 0 and sha.stdout.strip():
            return {"git_sha": sha.stdout.strip()}
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for name in SOURCE_DIRS:
        files += sorted(p for p in (ROOT / name).rglob("*")
                        if p.is_file() and "results" not in p.parts
                        and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"source_sha256": digest.hexdigest()}


def fingerprint(info):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    fp = {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "hardware_concurrency": info.get("hardware_concurrency"),
        "datasets": {k[len("dataset."):]: v for k, v in info.items()
                     if k.startswith("dataset.")},
    }
    fp.update(source_identity())
    return fp


def expected_digest(workload, seed):
    if not workload.startswith("sweep-"):
        return None
    table = json.loads((BENCH_DIR / "digests" / "sweep.json").read_text())
    approach = workload[len("sweep-"):]
    return table.get(approach, {}).get(str(1 + seed % 16), "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'", 2)
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        fail("no soldist sources next to perfbench/: run from a full "
             "checkout")

    out_dir = build_dir()
    build(out_dir)

    work_dir = out_dir.parent / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(out_dir / "perfbench_workloads"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--repl-bin", str(out_dir / "soldist_experiment"),
               "--work-dir", str(work_dir)]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=checkout_env(out_dir))
    except subprocess.TimeoutExpired:
        fail(f"perfbench_workloads exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        fail(f"perfbench_workloads exited with status {done.returncode}; nothing "
             "recorded", done.returncode if done.returncode > 0 else 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_workloads printed no result")
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(raw["metrics"]) - names)
    if extra:
        fail(f"perfbench_workloads reports metrics BENCHMARK.json does "
             f"not declare: {extra}")
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}

    record = dict(result)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured": sorted(raw["metrics"]),
        "fingerprint": fingerprint(raw.get("info", {})),
        "info": raw.get("info", {}),
    })
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
