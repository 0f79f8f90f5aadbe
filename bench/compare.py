"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``bench/run.py --record FILE`` appends, one
run per line. Per workload and metric this prints each side's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every base run;
* ``worse`` / ``better``: the medians differ by more than the bound;
* ``within``: the medians differ by no more than the bound.

Per-layer metrics have no bound; their medians and relative change are
printed for reading, without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} plus failed_share per run."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            per = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, metric in rec["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
            per.setdefault("failed_share", []).append(rec["failed_share"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 means worse
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    if max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm)) > bound:
        if max(sign * v for v in change) < min(sign * v for v in base):
            return "better"
        return "unresolved"
    worse_by = sign * (cm - bm) / abs(bm)
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<10} {'metric':<44} {'base q1/med/q3':<34} "
          f"{'change q1/med/q3':<34} {'change':>8}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        for name in base[key]:
            if name not in change[key]:
                continue
            b, c = base[key][name], change[key][name]
            qb, qc = quartiles(b), quartiles(c)
            rel = (qc[1] - qb[1]) / abs(qb[1]) if qb[1] else float("nan")
            if name in bounds and not trace:
                word = verdict(b, c, bounds[name]["bound"], bounds[name]["better"])
            else:
                word = "-"
            print(
                f"{workload:<10} {name:<44} "
                f"{'/'.join(f'{v:.4g}' for v in qb):<34} "
                f"{'/'.join(f'{v:.4g}' for v in qc):<34} {rel:>+8.3f}  {word}"
                f"  (n={len(b)}/{len(c)})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
