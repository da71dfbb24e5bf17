#!/usr/bin/env python3
"""Layer-by-layer comparison of two benchmark result files.

    python3 perfbench/diff.py BASE.json NEW.json

Both files are records that perfbench/run.py writes to perfbench/results/.
Every metric of either file is printed with both values, the ratio
new/base and the base it is taken against, followed by the fingerprint
fields that differ (a comparison across machines, compilers or build
types is not a like-for-like comparison). End-to-end metrics also show
the bound from BENCHMARK.json and whether the change crosses it.
"""

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    return json.loads(Path(path).read_text())


def declared():
    if not SPEC.is_file():
        return {}
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(meta, base, new):
    if "bound" not in meta or base == 0:
        return ""
    change = (new - base) / base
    worse = change > 0 if meta["better"] == "lower" else change < 0
    if worse and abs(change) > meta["bound"]:
        return f"WORSE beyond bound {meta['bound']:.0%}"
    return f"within bound {meta['bound']:.0%}" if worse else "not worse"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    meta = declared()
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            print(f"note: {key} differs: {base.get(key)} vs {new.get(key)}")
    print(f"base: {argv[1]}  (seed {base.get('seed')}, "
          f"correct={base.get('correct')})")
    print(f"new:  {argv[2]}  (seed {new.get('seed')}, "
          f"correct={new.get('correct')})")
    measured = set(base.get("measured", [])) | set(new.get("measured", []))
    rows = []
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        b = base["metrics"].get(name, {}).get("value")
        n = new["metrics"].get(name, {}).get("value")
        unit = (base["metrics"].get(name) or new["metrics"][name])["unit"]
        if name not in measured:
            continue  # a layer neither run exercises
        if b is None or n is None:
            rows.append((name, unit, b, n, "", "only in one file"))
            continue
        ratio = f"{n / b:.3f}x of {b:.6g}" if b else "base is 0"
        rows.append((name, unit, b, n, ratio,
                     verdict(meta.get(name, {}), b, n)))
    width = max([len(r[0]) for r in rows] + [6])
    print(f"{'metric':<{width}}  {'unit':<6} {'base':>14} {'new':>14}  "
          f"ratio new/base")
    for name, unit, b, n, ratio, note in rows:
        fb = "-" if b is None else f"{b:.6g}"
        fn = "-" if n is None else f"{n:.6g}"
        print(f"{name:<{width}}  {unit:<6} {fb:>14} {fn:>14}  {ratio}"
              f"{'  ' + note if note else ''}")
    fb, fn = base.get("fingerprint", {}), new.get("fingerprint", {})
    changed = [k for k in sorted(set(fb) | set(fn)) if fb.get(k) != fn.get(k)]
    if changed:
        print("fingerprint differs:")
        for k in changed:
            print(f"  {k}: {fb.get(k)} -> {fn.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
