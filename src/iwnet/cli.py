"""Command-line front end.

``iwnet run`` ingests an edge-list CSV (header ``src,dst,lo,hi``), runs
one of the three Louvain strategies and writes the membership, per-pass
summary and final aggregated interval matrix as text or as one JSON
document; ``iwnet oracle`` brute-forces the optimal partition of a small
instance.

Exit codes: 0 success, 1 malformed input (message carries the line
number where possible), 2 algorithm failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DuplicateEdge, IWNError, ParseError
from .louvain import NAMES, LouvainRun, emit_trace, run as run_louvain
from .network import IWNetwork, format_matrix, network_from_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwnet",
        description="Community detection in interval-weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Louvain strategy on an edge list")
    run_p.add_argument("--input", required=True, help="edge-list CSV (src,dst,lo,hi)")
    run_p.add_argument(
        "--undirected",
        action="store_true",
        help="records are already undirected pairs (duplicates rejected)",
    )
    run_p.add_argument(
        "--min-weight",
        type=float,
        default=0.0,
        metavar="R",
        help="drop directed records whose upper bound is below R (default 0)",
    )
    run_p.add_argument("--method", required=True, choices=NAMES)
    run_p.add_argument("--trace", action="store_true", help="include the full trace")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", help="write output to this path instead of stdout")

    oracle_p = sub.add_parser("oracle", help="exhaustive search (n <= 12)")
    oracle_p.add_argument("--input", required=True)
    oracle_p.add_argument("--undirected", action="store_true")
    oracle_p.add_argument("--min-weight", type=float, default=0.0, metavar="R")
    oracle_p.add_argument("--metric", required=True, choices=NAMES)
    return parser


def _load_network(args: argparse.Namespace) -> IWNetwork:
    net = network_from_csv(
        args.input, directed=not args.undirected, threshold=args.min_weight
    )
    if net.dropped_self_loops:
        print(
            f"warning: dropped {net.dropped_self_loops} self-loop record(s)",
            file=sys.stderr,
        )
    if net.dropped_below_threshold:
        print(
            f"warning: dropped {net.dropped_below_threshold} record(s) "
            f"below --min-weight {args.min_weight}",
            file=sys.stderr,
        )
    return net


def _membership(result: LouvainRun) -> dict[str, int]:
    labels = result.network.labels
    return {labels[v]: c for v, c in enumerate(result.final_partition.assignment)}


def _communities(result: LouvainRun) -> list[list[str]]:
    labels = result.network.labels
    return [[labels[v] for v in group] for group in result.final_partition.communities]


def _run_json(result: LouvainRun, method: str, with_trace: bool) -> str:
    doc = {
        "method": method,
        "passes": [
            {
                "pass": rec.number,
                "iterations": rec.iterations,
                "modularity": rec.modularity,
                "communities": rec.partition.n_communities,
                "changed": rec.changed,
            }
            for rec in result.passes
        ],
        "final": {
            "communities": _communities(result),
            "membership": _membership(result),
            "q": result.final_q,
            # NaN (Q_max is zero) has no JSON spelling
            "q_norm": None if math.isnan(result.final_q_norm) else result.final_q_norm,
            "q_max": result.final_q_max,
        },
        "aggregated_matrix": {
            "labels": list(result.final_network.labels),
            "weights": [
                [[w.lo, w.hi] for w in row] for row in result.final_network.weights
            ],
        },
    }
    if with_trace:
        doc["trace"] = emit_trace(result)
    return json.dumps(doc, indent=2, allow_nan=False)


def _run_text(result: LouvainRun, method: str, with_trace: bool) -> str:
    lines: list[str] = []
    if with_trace:
        lines.append(emit_trace(result).rstrip("\n"))
        lines.append("=" * 27)
    lines.append(f"method: {method}")
    lines.append(
        f"vertices: {result.network.n}, edges: {result.network.edge_count()}"
    )
    lines.append("")
    for rec in result.passes:
        if rec.changed:
            lines.append(
                f"pass {rec.number}: {rec.iterations} iterations, "
                f"modularity {rec.modularity:.3f}, "
                f"{rec.partition.n_communities} communities"
            )
        else:
            lines.append(f"pass {rec.number}: no change")
    lines.append("")
    communities = _communities(result)
    lines.append(f"final communities (n={len(communities)}):")
    for cid, group in enumerate(communities, start=1):
        lines.append(f"  C{cid}: {', '.join(group)}")
    lines.append("")
    lines.append(f"Q      = {result.final_q:.6f}")
    lines.append(f"Q_max  = {result.final_q_max:.6f}")
    lines.append(f"Q_norm = {result.final_q_norm:.6f}")
    lines.append("")
    lines.append("final aggregated interval matrix:")
    lines += format_matrix(result.final_network)
    return "\n".join(lines) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    net = _load_network(args)
    result = run_louvain(net, args.method)
    if args.format == "json":
        out = _run_json(result, args.method, args.trace) + "\n"
    else:
        out = _run_text(result, args.method, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import enumerate_best  # only this command needs the oracle

    net = _load_network(args)
    report = enumerate_best(net, args.metric)
    lines = [
        f"metric: {args.metric}",
        f"partitions evaluated: {report.partitions_evaluated}",
        f"best Q = {report.best_q:.6f}",
        f"best partition (n={report.best_partition.n_communities}):",
    ]
    for cid, group in enumerate(report.best_partition.communities, start=1):
        lines.append(f"  C{cid}: {', '.join(net.labels[v] for v in group)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if math.isnan(args.min_weight):  # `hi < nan` is never true: the filter would be off
        print("error: --min-weight must be a number, not nan", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_oracle(args)
    except (ParseError, DuplicateEdge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IWNError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
