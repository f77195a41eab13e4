"""The human-readable trace of a Louvain run, and its decision log.

The trace shows the initial network, the ``Try``/``Move``/``Keep``
lines of every phase-1 decision, the Q after each sweep, each pass's
aggregate and the final values. ``_Trace`` renders it while a run
decides: its ``sweep`` is the pass loop's sweep hook (see
``louvain.run``), which steps each vertex of the live pass state and
renders its lines from the candidates and gains the step left there,
and each sweep's Q is that state's ``q()``. ``iwnet run --trace`` hands
it the run it reports, which renders into an anonymous temporary file
(the spool) that the CLI copies to its output once the run has
succeeded, so phase 1 runs once; for a JSON document the spool holds
the trace already spelled as the string member. ``emit_trace`` and
``decisions`` drive a finished run's input through the pass loop again,
``decisions`` with a hook that records a ``Decision`` per step.
``midpoint``'s input prints as it is priced, ``network._midpoint_projection``
of the midpoints its first pass read. A matrix is dense up to
``network.DENSE_LIMIT`` vertices and an edge list above (``format_matrix``).

The text summary of ``iwnet run`` (``_run_text``) is here too. The JSON
document, and the escape that spells a trace as its last member, are
``iwnet.cli``'s, so this module imports no JSON code. An untraced
JSON run never loads this module: the CLI imports it for a trace or a
text summary, ``iwnet oracle`` for ``format_q``, and
``iwnet.emit_trace`` resolves on first use.
"""

from __future__ import annotations

import bisect
from collections import namedtuple
from typing import IO, Callable, Iterator

from . import louvain
from .louvain import LouvainRun, _PassState
from .network import IWNetwork, _midpoint_projection

__all__ = ["emit_trace", "format_q", "Decision", "decisions"]

# a trace is written to its spool in batches of about this many characters,
# and read back in runs of exactly as many
BATCH_CHARS = 1 << 16


Decision = namedtuple("Decision", ["vertex", "own", "candidates", "gains", "target"])
Decision.__doc__ = """One phase-1 evaluation of a vertex, in the ids of its pass's
network: the ``vertex``, its community before the evaluation (``own``), the
candidate communities in scan order, the gain of each, and the ``target``
community moved to, None for a keep."""


def _rerun(result: LouvainRun, sweep: louvain.Sweep) -> None:
    """Run ``result``'s input again with ``sweep`` making each sweep. A
    pass that does not end on its recorded partition raises
    ``RuntimeError``."""
    derived = louvain.run(result.network, result.strategy, sweep).passes
    for rec in result.passes:
        if rec.number > len(derived) or derived[rec.number - 1].partition != rec.partition:
            raise RuntimeError(f"pass {rec.number} did not derive its recorded partition")


def decisions(run: LouvainRun) -> Iterator[Decision]:
    """The ``Decision`` of every phase-1 evaluation of ``run``, in sweep
    order (``iterations x n`` per pass, in the ids of the pass's network),
    derived again by driving ``run.network`` through the pass loop, and
    held until they are yielded. A pass that does not end on its recorded
    partition raises ``RuntimeError``.
    """
    log: list[Decision] = []

    def record(state: _PassState, iteration: int) -> bool:
        step, comm_of, n = state.step, state.comm_of, state.net.n
        for v in range(n):
            own = comm_of[v]
            target = comm_of[v] if step(v) else None
            log.append(Decision(v, own, tuple(state.links), tuple(state.gains), target))
        return any(d.target is not None for d in log[-n:])

    _rerun(run, record)
    yield from log


class _Trace:
    """Renders the trace of one run by ``method`` into ``write``
    (newline-ended text) in the spelling ``escape`` gives, the text as it
    is by default (the CLI passes JSON's, without the quotes). ``escape``
    must work one character at a time, as JSON's does, so that each piece
    is spelled on its own: the fixed parts of a pass's lines once per pass,
    a community's label and ``Try`` cell once per change. ``sweep`` is the
    run's sweep hook, and ``end`` closes the trace with the finished run.

    Pieces (a vertex's lines, a matrix line, a header line) are queued and
    written in batches: once the queue holds ``BATCH_CHARS`` characters,
    and at the end of each sweep and of the trace, so the queue holds at
    most one batch and one piece.

    A pass's rendering state is the member list of each community, from
    singletons of its input, and per community its label and the
    ``"<label:<15> | gain="`` cell of its ``Try`` lines (padded on the
    label as it is, then spelled), each ``None`` until it is asked for,
    and again after a move changes the community.
    """

    def __init__(
        self, write: Callable[[str], object], method: str, escape: Callable[[str], str] | None = None
    ):
        self.write, self.method = write, method
        self.escape = esc = escape or str
        self.passes = 0
        self.pending: list[str] = []
        self.size = 0  # characters in pending
        self.nl = esc("\n")
        self.plus, self.zero, self.minus = esc(" (+)\n"), esc("+0.000 (0)\n"), esc(" (-)\n")

    def _put(self, piece: str) -> None:
        """Queue ``piece`` (already spelled), writing the queue once it holds
        ``BATCH_CHARS`` characters."""
        self.pending.append(piece)
        self.size += len(piece)
        if self.size >= BATCH_CHARS:
            self._flush()

    def _flush(self) -> None:
        self.write("".join(self.pending))
        self.pending.clear()
        self.size = 0

    def _text(self, text: str) -> None:
        self._put(self.escape(text))

    def _matrix(self, net: IWNetwork) -> None:
        put, esc = self._put, self.escape
        # looked up on ``louvain`` at each call, not bound at import (see there)
        for line in louvain.format_matrix(net):
            put(esc(f"{line}\n"))

    def _begin(self, state: _PassState) -> None:
        """The lines before a pass's first sweep: the initial network, or
        the end of the previous pass, whose aggregate ``state`` is on."""
        net, text, q = state.net, self._text, format_q(state.q())
        if self.passes:
            text("\nNew network: ---------------\n")
            self._matrix(net)
            communities = " / ".join(net.labels)
            text(f"* End Pass number {self.passes} Modularity={q} Communities={communities}\n")
            text("---------------------------\n")
        else:
            text("Initial Interval-Weighted Network:\n")
            mid = self.method == "midpoint"  # priced on the midpoints its first pass reads
            self._matrix(_midpoint_projection(net, state.neigh) if mid else net)
            text(f"\n* Initial Modularity={q}\n")
        self.passes += 1
        text(f"* Begin Pass number {self.passes}\n")
        esc = self.escape
        self.names = names = net.labels
        self.tries = [esc(f"\tTry {name} -> ") for name in names]
        self.moves = [esc(f"\tMove {name} -> ") for name in names]
        self.keeps = [esc(f"\tKeep vertex {name} at community ") for name in names]
        self.members = [[v] for v in range(net.n)]
        self.labels: list[str | None] = [None] * net.n
        self.cells: list[str | None] = [None] * net.n

    def _label(self, c: int) -> str:
        """Community ``c``'s spelled label, made with its ``Try`` cell."""
        label = self.labels[c]
        if label is None:
            raw = ",".join([self.names[u] for u in self.members[c]])
            label = self.labels[c] = self.escape(raw)
            self.cells[c] = self.escape(f"{raw:<15} | gain=")
        return label

    def sweep(self, state: _PassState, iteration: int) -> bool:
        """Step every vertex of ``state``, rendering its lines, then the
        sweep's Q, and write them; True if a vertex moved. Labels name the
        communities as they were before v left (only its own contains it).
        A gain prints as ``gain=<sign><|gain|:.3f> (<mark>)``, the mark
        ``0`` for a zero gain (-0.0 too, which prints ``gain=+0.000 (0)``)."""
        if iteration == 1:
            self._begin(state)
        put, tries, moves, keeps, members, labels, cells = (
            self._put, self.tries, self.moves, self.keeps, self.members, self.labels, self.cells
        )
        nl, plus, zero, minus = self.nl, self.plus, self.zero, self.minus
        step, comm_of, moved_any = state.step, state.comm_of, False
        for v in range(state.net.n):
            own = comm_of[v]
            moved = step(v)
            try_v, lines = tries[v], []
            for c, g in zip(state.links, state.gains):
                cell = cells[c]
                if cell is None:
                    self._label(c)
                    cell = cells[c]
                if g > 0.0:
                    lines.append(f"{try_v}{cell}+{g:.3f}{plus}")
                elif g == 0.0:
                    lines.append(f"{try_v}{cell}{zero}")
                else:
                    lines.append(f"{try_v}{cell}{g:+.3f}{minus}")
            if moved:
                target = comm_of[v]
                lines.append(f"{moves[v]}{self._label(target)}{nl}")
                members[own].remove(v)
                bisect.insort(members[target], v)
                labels[own] = labels[target] = cells[own] = cells[target] = None
                moved_any = True
            else:
                lines.append(f"{keeps[v]}{self._label(own)}{nl}")
            put("".join(lines))
        self._text(f"Iteration {iteration} Modularity={format_q(state.q())}\n")
        self._flush()
        return moved_any

    def end(self, run: LouvainRun) -> None:
        """The lines after the run's last sweep (its last pass moved
        nothing), and the last write."""
        text, final = self._text, run.final_network
        text(f"* End Pass number {self.passes} -- no change\n")
        prefix = "Hybrid - Before Normalized" if self.method == "hl" else "Before Normalized"
        text(f"\n* Final communities: {' / '.join(final.labels)} (n={final.n})\n")
        text(f"* {prefix}: {format_q(run.final_q)}\n")
        q_norm, q_max = format_q(run.final_q_norm), format_q(run.final_q_max, 6)
        text(f"* Normalized modularity: {q_norm} (Qmax={q_max})\n")
        text("---------------------------\n")
        text("Final Interval-weighted network:\n\n")
        if final is run.network and self.method == "midpoint":  # nothing moved: the input again
            final = _midpoint_projection(final, final.midpoint_rows())
        self._matrix(final)
        self._flush()


def emit_trace(run: LouvainRun) -> str:
    """Human-readable log of the whole run (one string, newline-joined),
    rendered as ``run.network`` is driven through the pass loop again."""
    parts: list[str] = []
    trace = _Trace(parts.append, run.strategy.name)
    _rerun(run, trace.sweep)
    trace.end(run)
    return "".join(parts)


def _spool() -> IO[str]:
    """An anonymous temporary file for a trace, gone once closed. Its text
    reads back as written (``newline="\\n"``: no newline is translated, and
    a line ends at ``\\n`` only), though a label may hold a carriage return."""
    import tempfile  # only a traced CLI run needs it

    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _spooled(spool: IO[str]) -> Iterator[str]:
    """The text of ``spool`` from its start, in runs of ``BATCH_CHARS``
    characters (the last run may hold fewer)."""
    spool.seek(0)
    while chunk := spool.read(BATCH_CHARS):
        yield chunk


def format_q(q: float, digits: int = 3) -> str:
    """q to ``digits`` decimals, a value that rounds to zero as ``0.000``:
    rounding residues of either sign print alike."""
    text = f"{q:.{digits}f}"
    return text[1:] if text == f"-{0.0:.{digits}f}" else text


def _run_text(result: LouvainRun) -> str:
    """The text summary of ``iwnet run``."""
    labels = result.network.labels
    lines = [
        f"method: {result.strategy.name}",
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
    communities = result.final_partition.communities
    lines.append(f"final communities (n={len(communities)}):")
    for cid, group in enumerate(communities, start=1):
        lines.append(f"  C{cid}: {', '.join(labels[v] for v in group)}")
    lines.append("")
    lines.append(f"Q      = {format_q(result.final_q, 6)}")
    lines.append(f"Q_max  = {format_q(result.final_q_max, 6)}")
    lines.append(f"Q_norm = {format_q(result.final_q_norm, 6)}")
    lines.append("")
    lines.append("final aggregated interval matrix:")
    lines += louvain.format_matrix(result.final_network)
    return "\n".join(lines) + "\n"
