"""Benchmark of the iwnet CLI, CSV in and JSON out, one workload per call.

    python3 bench/run.py --workload cl_planted --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1         # every workload, both modes
    python3 bench/run.py --workload hl_sparse --smoke    # tiny inputs, one repetition

Run from the root of a source checkout: the program is ``src/iwnet``.
The inputs are generated from ``--seed`` before any timing starts. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs the real CLI end to end, one child at a time, on each
of the seed's inputs and then round again until ``--seconds`` have passed,
checking every output. Its metrics:

    wall_rel     median wall time of one CLI invocation (spawn to exit)
                 over the median time of a fixed reference child timed
                 next to each invocation, which cancels machine drift
    peak_rss_mb  the largest peak RSS of any invocation
    setup_s      median time of a child that only imports ``iwnet.cli``
    q_norm       median ``final.q_norm`` over the seed's inputs

The text report above the JSON line adds raw ``wall_s`` (median,
quartiles, sample count), ``wall_s_tail`` and ``fail_ratio``.

``--trace 1`` runs the CLI in process on the seed's first input with
spans around each layer and prints the per-layer metrics; the spans are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    return p.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report(harness, name: str, args: argparse.Namespace, res, trace: bool) -> dict:
    units = dict(harness.PER_LAYER if trace else harness.END_TO_END)
    mode = "per layer (traced, in process)" if trace else "end to end (CLI children)"
    print(f"{name} seed {args.seed}: {mode}, {res.attempted} attempted, {res.failed} failed")
    for metric, value in res.metrics.items():
        print(f"  {metric:<34} {_fmt(value)} {units[metric]}")
    if not trace:
        for metric, s in res.samples.items():
            q1, median, q3 = statistics.quantiles(s, n=4) if len(s) >= 2 else (s[0],) * 3
            unit = "MB" if metric.endswith("_mb") else "s"
            print(
                f"  {metric:<34} {_fmt(median)} {unit} median of {len(s)} "
                f"(q1 {_fmt(q1)}, q3 {_fmt(q3)}, max {_fmt(max(s))})"
            )
        wall = res.samples["wall_s"]
        t = harness.tail(wall)
        tail = f"p{t[0]:.0f} = {_fmt(t[1])} s" if t else "n/a, needs more than 10 samples"
        print(f"  {'wall_s_tail':<34} {tail} (n={len(wall)})")
        ratio = res.failed / res.attempted if res.attempted else 1.0
        print(f"  {'fail_ratio':<34} {_fmt(ratio)} ({res.failed}/{res.attempted})")
    return {
        "correct": res.failed == 0 and res.attempted > 0 and len(res.metrics) == len(units),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in res.metrics.items()},
    }


def _run_one(harness, name: str, args: argparse.Namespace, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = OUT / f"{name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = []
        for i in range(1 if args.smoke or trace else w.inputs):
            csv = work / f"input{i}.csv"
            generate(w, args.seed, i, csv, smoke=args.smoke)
            inputs.append(harness.Input(csv, work / f"output{i}.json", w))
        if trace:
            res = harness.measure_layers(inputs[0])
            spans = OUT / f"spans-{name}-s{args.seed}.json"
            spans.write_text(json.dumps(res.spans), encoding="utf-8")
        else:
            res = harness.measure_e2e(inputs, args.seconds, SRC, once=args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(harness, name, args, res, trace)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "iwnet" / "__init__.py").is_file():
        print(f"error: no iwnet sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports iwnet, so only once the sources are known to be there

    if args.workload != "all":
        doc = _run_one(harness, args.workload, args, bool(args.trace))
        print(json.dumps(doc))
        return 0 if doc["correct"] else 1

    docs = {}
    for name in WORKLOADS:
        for trace in (False, True):
            docs[f"{name}/{'per_layer' if trace else 'end_to_end'}"] = _run_one(harness, name, args, trace)
    ok = all(d["correct"] for d in docs.values())
    print(json.dumps({"correct": ok, "runs": docs}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
