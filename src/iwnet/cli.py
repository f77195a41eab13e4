"""Command-line front end.

``iwnet run`` ingests an edge-list CSV (header ``src,dst,lo,hi``), runs
one of the three Louvain strategies and writes the membership, per-pass
summary and final aggregated interval matrix as text or as one JSON
document (``format_version`` 2: the matrix is an edge list); every
output is O(n + m). With ``--trace`` the trace is rendered while the run
decides, into an anonymous temporary file (the spool), and copied to the
output in chunks of about 64 KiB once the run has succeeded, so phase 1
runs once and memory holds one chunk, not the trace. The output is
opened only after the run, so a failed run writes nothing. ``iwnet
oracle`` brute-forces the optimal partition of a small instance.

Exit codes: 0 success (also when the reader of stdout closes it early),
1 malformed input (message carries the line number where possible) or a
file that cannot be read or written (the spool included), 2 algorithm
failure.

The program (``main()`` with no arguments: the ``iwnet`` script and
``python -m iwnet.cli``) freezes the garbage collector at entry, so the
collections at interpreter exit do not traverse the objects start-up
created. ``main(argv)`` with a list, as a library or a test calls it,
leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from typing import Iterable

from .errors import DuplicateEdge, IWNError, ParseError
from .louvain import NAMES, LouvainRun, run as run_louvain
from .network import IWNetwork, format_matrix, network_from_csv

__all__ = ["main"]

FORMAT_VERSION = 2  # of the JSON document; 2 holds aggregated_matrix as an edge list


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwnet",
        description="Community detection in interval-weighted networks.",
    )
    net_p = argparse.ArgumentParser(add_help=False)  # the input flags of both commands
    net_p.add_argument("--input", required=True, help="edge-list CSV (src,dst,lo,hi)")
    net_p.add_argument(
        "--undirected",
        action="store_true",
        help="records are already undirected pairs (duplicates rejected)",
    )
    net_p.add_argument(
        "--min-weight",
        type=float,
        default=0.0,
        metavar="R",
        help="drop directed records whose upper bound is below R (default 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[net_p], help="run a Louvain strategy on an edge list")
    run_p.add_argument("--method", required=True, choices=NAMES)
    run_p.add_argument("--trace", action="store_true", help="include the full trace")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", help="write output to this path instead of stdout")

    oracle_p = sub.add_parser("oracle", parents=[net_p], help="exhaustive search (n <= 12)")
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


def _run_json(result: LouvainRun, method: str) -> str:
    """The JSON document without ``trace``. ``aggregated_matrix`` lists
    the present entries of the final network as ``[i, j, lo, hi]`` with
    i <= j in row order, so the document is O(n + m)."""
    net = result.final_network
    doc = {
        "format_version": FORMAT_VERSION,
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
            "labels": list(net.labels),
            "edges": [[i, j, w.lo, w.hi] for i, j, w in net.edges()],
        },
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def _run_text(result: LouvainRun, method: str) -> str:
    """The text summary."""
    from .trace import format_q

    lines = [
        f"method: {method}",
        f"vertices: {result.network.n}, edges: {result.network.edge_count()}",
        "",
    ]
    for rec in result.passes:
        if rec.changed:
            lines.append(
                f"pass {rec.number}: {rec.iterations} iterations, "
                f"modularity {format_q(rec.modularity)}, "
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
    lines.append(f"Q      = {format_q(result.final_q, 6)}")
    lines.append(f"Q_max  = {format_q(result.final_q_max, 6)}")
    lines.append(f"Q_norm = {format_q(result.final_q_norm, 6)}")
    lines.append("")
    lines.append("final aggregated interval matrix:")
    lines += format_matrix(result.final_network)
    return "\n".join(lines) + "\n"


def _write(path: str | None, chunks: Iterable[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_run(args: argparse.Namespace) -> int:
    net = _load_network(args)
    as_json = args.format == "json"
    if not args.trace:
        result = run_louvain(net, args.method)
        text = _run_json(result, args.method) + "\n" if as_json else _run_text(result, args.method)
        _write(args.out, (text,))
        return 0
    from .trace import _json_with_trace, _spool, _spooled, _Trace  # only a trace needs them

    # the trace goes to the spool while the run decides; the output is opened
    # once the run has succeeded and the rest is rendered
    with _spool() as spool:
        trace = _Trace(spool.write, net, args.method)
        result = run_louvain(net, args.method, trace.sweep)
        trace.end(result)
        if as_json:
            head = _run_json(result, args.method)
            chunks = itertools.chain(_json_with_trace(head, _spooled(spool)), ("\n",))
        else:
            summary = _run_text(result, args.method)
            chunks = itertools.chain(_spooled(spool), ("=" * 27 + "\n", summary))
        _write(args.out, chunks)
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
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    With ``argv`` None this is the program, which exits when it returns:
    the start-up objects move to the collector's permanent generation,
    which the collections at exit skip. A call with a list leaves the
    collector as it was.
    """
    if argv is None:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    if math.isnan(args.min_weight):  # `hi < nan` is never true: the filter would be off
        print("error: --min-weight must be a number, not nan", file=sys.stderr)
        return 1
    try:
        code = _cmd_run(args) if args.command == "run" else _cmd_oracle(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader left early (`iwnet run ... | head`): it has all it wanted;
        # stdout goes to devnull so the flush at exit finds nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, DuplicateEdge, OSError) as exc:  # after BrokenPipeError, an OSError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IWNError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
