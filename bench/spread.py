"""Run the benchmark once per seed and report how far each metric spreads.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-5 --workload hl_sparse --seconds 30
    python3 bench/spread.py --seeds 1-10 --baseline bench/BENCH_baseline.json

Each seed is one ``bench/run.py --trace 0`` child, run one at a time. For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound in ``BENCHMARK.json``.
``--baseline`` also takes the per-layer metrics from one ``--trace 1``
run on the first seed and writes one row per workload to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr[-3000:]}")
    return doc


def _summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread, "bound": bound}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,4,9")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--baseline", type=Path, help="write per-workload rows here")
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    rows = []
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        print(f"{workload}: {len(seeds)} runs, seeds {args.seeds}")
        docs = []
        for seed in seeds:
            docs.append(_bench(workload, seed, args.seconds, 0))
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in docs[-1]["metrics"].items())
            print(f"  seed {seed}: {values}", flush=True)
        row = {"workload": workload, "seeds": seeds, "end_to_end": {}}
        for name, bound in bounds.items():
            values = [d["metrics"][name]["value"] for d in docs]
            s = _summary(values, bound)
            row["end_to_end"][name] = {"unit": docs[0]["metrics"][name]["unit"], **s}
            flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  above a third of the bound"
            print(
                f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                f"  spread {s['spread']:.3f}  bound {bound}{flag}"
            )
        row["attempted"] = sum(d["attempted"] for d in docs)
        row["failed"] = sum(d["failed"] for d in docs)
        if args.baseline:
            traced = _bench(workload, seeds[0], args.seconds, 1)
            row["per_layer_seed"] = seeds[0]
            row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        rows.append(row)
    if args.baseline:
        args.baseline.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
