"""Command-line front end.

``iwnet run`` ingests an edge-list CSV (header ``src,dst,lo,hi``), runs
one of the three Louvain strategies and writes the membership, per-pass
summary and final aggregated interval matrix as text or as one JSON
document (``format_version`` 2: the matrix is an edge list); every
output is O(n + m). With ``--trace`` the trace is rendered while the run
decides, into an anonymous temporary file (the spool) written in batches
of about 64 Ki characters, and copied to the output in chunks of 64 Ki
characters once the run has succeeded, so phase 1 runs once and memory
holds one batch or chunk, not the trace. For JSON the spool holds the
trace already spelled as the document's string member (``_spelled``),
so the chunks are spliced in without a second pass. The output
is opened only after the run, so a failed run writes nothing. ``iwnet
oracle`` brute-forces the optimal partition of a small instance: its
text comes from ``iwnet.oracle``, and a run's text summary from
``iwnet.trace``, so a JSON run compiles neither.

The JSON document is written here, by ``_dumps``, which returns the
string of ``json.dumps(doc, indent=2, allow_nan=False)``. Its strings,
and the pieces of the trace appended to it, are escaped by the C
function that ``json.encoder`` uses, imported from ``_json``, so no run
loads the ``json`` package.

The two commands and their flags are described once, in a table. An
argv made only of the documented forms (the command, full flag names,
``--flag value`` or ``--flag=value`` with a value not starting with
``-``, valid choices and floats, every required flag) is read straight
from it. Anything else (help, an abbreviation, a value starting with
``-``, a usage error) goes to argparse, built from the same table, so
help, usage errors and their exit code 2 are argparse's, and
``argparse`` loads only then.

Exit codes: 0 success (also when the reader of stdout closes it early),
1 malformed input (message carries the line number where possible), a
file that cannot be read or written (the spool included) or a stdout
whose encoding cannot hold the text (which may already hold the trace
chunks written before the one that failed), 2 algorithm failure.

The program (``main()`` with no arguments: the ``iwnet`` script and
``python -m iwnet.cli``) freezes the garbage collector at entry, so the
collections at interpreter exit do not traverse the objects start-up
created, and then disables it: a run makes no reference cycle, so the
collections its allocations would trigger (most of them during ingest)
find nothing to free. ``main(argv)`` with a list, as a library or a test
calls it, leaves the collector alone.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import sys
from types import SimpleNamespace
from typing import Iterable, Iterator

from _json import encode_basestring_ascii as _escape  # json.encoder's C escaper

from .errors import DuplicateEdge, IWNError, ParseError
from .louvain import NAMES, LouvainRun, run as run_louvain
from .network import IWNetwork, network_from_csv

__all__ = ["main"]

FORMAT_VERSION = 2  # of the JSON document; 2 holds aggregated_matrix as an edge list

# The two commands, described once: each flag with its argparse keywords,
# the input flags of both commands first. The plain parser reads the
# documented forms from this table, and argparse is built from it for the
# rest (help and usage errors)
INPUT_FLAGS = (
    ("--input", dict(required=True, help="edge-list CSV (src,dst,lo,hi)")),
    ("--undirected", dict(
        action="store_true", help="records are already undirected pairs (duplicates rejected)"
    )),
    ("--min-weight", dict(
        type=float, default=0.0, metavar="R",
        help="drop directed records whose upper bound is below R (default 0)",
    )),
)
COMMANDS = {
    "run": ("run a Louvain strategy on an edge list", (
        ("--method", dict(required=True, choices=NAMES)),
        ("--trace", dict(action="store_true", help="include the full trace")),
        ("--format", dict(choices=("text", "json"), default="text")),
        ("--out", dict(help="write output to this path instead of stdout")),
    )),
    "oracle": ("exhaustive search (n <= 12)", (
        ("--metric", dict(required=True, choices=NAMES)),
    )),
}


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of an argv made of the documented forms only: a
    command, then its flags by their full names, each value as ``--flag
    value`` or ``--flag=value``, not empty and not starting with ``-``, a
    valid choice or float, and every required flag. None for anything
    else, which ``_parse`` hands to argparse: help, an abbreviation, a
    value starting with ``-`` (a negative number among them) and every
    usage error. Where it returns arguments they are argparse's."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = dict((*INPUT_FLAGS, *COMMANDS[argv[0]][1]))
    values = {"command": argv[0]}
    for flag, spec in flags.items():  # a store_true flag (an action) defaults to False
        values[_dest(flag)] = spec.get("default", False if "action" in spec else None)
    given, tokens = set(), iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            return None
        if "action" in spec:  # store_true, which takes no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "")
            if not value or value[0] == "-" or value not in spec.get("choices", (value,)):
                return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
        given.add(flag)
        values[_dest(flag)] = value
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    return SimpleNamespace(**values)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of ``argv`` as argparse reads them, which prints help
    (and exits 0) or a usage error (and exits 2) instead where it must."""
    import argparse  # only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="iwnet", description="Community detection in interval-weighted networks."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        command_p = sub.add_parser(command, help=help_text)
        for flag, spec in (*INPUT_FLAGS, *flags):
            command_p.add_argument(flag, **spec)
    return SimpleNamespace(**vars(parser.parse_args(argv)))


def _load_network(args: SimpleNamespace) -> IWNetwork:
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


def _run_json(result: LouvainRun) -> str:
    """The JSON document without ``trace``. ``aggregated_matrix`` lists
    the present entries of the final network as ``[i, j, lo, hi]`` with
    i <= j in row order, so the document is O(n + m)."""
    net = result.final_network
    doc = {
        "format_version": FORMAT_VERSION,
        "method": result.strategy.name,
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
    return _dumps(doc, "\n")


def _dumps(value: object, nl: str) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for the values a
    document holds: ``nl`` is the newline and indent of ``value``'s line,
    and each item of a container goes on a line of its own, two spaces in.
    A non-finite float raises ``ValueError``, as there."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant")
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = nl + "  "
    if isinstance(value, dict):
        items = [f"{_escape(k)}: {_dumps(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}" if items else "{}"
    if isinstance(value, list):
        items = [_dumps(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{nl}]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_with_trace(head: str, trace: Iterable[str]) -> Iterator[str]:
    """Chunks of the JSON document ``head`` with the trace as its last
    member. The ``trace`` chunks are already in JSON's spelling (escaped,
    without the quotes: ``_spelled``), and are spliced in as they are."""
    # reopen the document before its closing "\n}" to append the member
    return itertools.chain((head[:-2], ',\n  "trace": "'), trace, ('"\n}',))


def _spelled(text: str) -> str:
    """``text`` as a JSON string spells it, without the quotes. JSON escapes
    one character at a time, so spelled pieces join to the spelled whole."""
    return _escape(text)[1:-1]


def _write(path: str | None, chunks: Iterable[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_run(args: SimpleNamespace) -> int:
    net = _load_network(args)
    as_json = args.format == "json"
    if not args.trace:
        result = run_louvain(net, args.method)
        if as_json:
            text = _run_json(result) + "\n"
        else:
            from .trace import _run_text  # only text and a trace need the renderer's module

            text = _run_text(result)
        _write(args.out, (text,))
        return 0
    from .trace import _run_text, _spool, _spooled, _Trace

    # the trace goes to the spool while the run decides; the output is opened
    # once the run has succeeded and the rest is rendered
    with _spool() as spool:
        trace = _Trace(spool.write, net, args.method, _spelled if as_json else None)
        result = run_louvain(net, args.method, trace.sweep)
        trace.end(result)
        if as_json:
            head = _run_json(result)
            chunks = itertools.chain(_json_with_trace(head, _spooled(spool)), ("\n",))
        else:
            summary = _run_text(result)
            chunks = itertools.chain(_spooled(spool), ("=" * 27 + "\n", summary))
        _write(args.out, chunks)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    With ``argv`` None this is the program, which exits when it returns:
    the start-up objects move to the collector's permanent generation,
    which the collections at exit skip, and the collector is disabled for
    the run, which leaves no cycle to collect. A call with a list leaves
    the collector as it was.
    """
    if argv is None:
        gc.freeze()
        gc.disable()
        argv = sys.argv[1:]
    args = _parse_plain(argv) or _parse(argv)
    if math.isnan(args.min_weight):  # `hi < nan` is never true: the filter would be off
        print("error: --min-weight must be a number, not nan", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            code = _cmd_run(args)
        else:
            from .oracle import _cmd_oracle  # only this command needs the oracle

            code = _cmd_oracle(_load_network(args), args.metric)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader left early (`iwnet run ... | head`): it has all it wanted;
        # stdout goes to devnull so the flush at exit finds nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    # after BrokenPipeError, an OSError too; UnicodeEncodeError: a label that
    # stdout's encoding cannot hold
    except (ParseError, DuplicateEdge, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IWNError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
