"""The human-readable trace of a Louvain run.

``emit_trace`` renders the initial network, the ``Try``/``Move``/``Keep``
lines of every phase-1 decision, the Q after each sweep, each pass's
aggregate and the final values. The decisions are derived as
``louvain.decisions`` derives them, by sweeping each pass's input network
again on a new pass state, so rendering runs phase 1 again; each sweep's
Q is that state's ``q()``. ``midpoint``'s input prints as the degenerate
projection it is priced on, which only the trace builds, by aggregating
its singletons. The text comes in newline-ended chunks of about
``BATCH_CHARS`` characters, which the CLI writes as they come; a matrix
is dense up to ``network.DENSE_LIMIT`` vertices and an edge list above
(``format_matrix``).

An untraced run never loads this module: the CLI imports it for a trace
or a text summary, and ``iwnet.emit_trace`` resolves on first use.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from . import louvain
from .louvain import Decision, LouvainRun, _pass_states, _sweep
from .network import IWNetwork, _aggregate_midpoints
from .partition import Partition

__all__ = ["emit_trace", "format_q"]

BATCH_CHARS = 1 << 16  # the trace is rendered in runs of about this size


class _Replay:
    """Members and labels of the communities of one pass, from singletons
    of its input network. ``label[c]`` is that of community id c, or
    ``None`` from a move that changes c until it is next asked for."""

    def __init__(self, net: IWNetwork):
        self.names, self.label = net.labels, list(net.labels)
        self.members = [[v] for v in range(net.n)]

    def render(self, d: Decision) -> str:
        """The newline-ended Try/Move/Keep lines of d; then d's move is
        applied. Labels name the communities as they were before v left
        (only its own contains it). A gain prints as
        ``gain=<sign><|gain|:.3f> (<mark>)``, the mark ``0`` for a zero
        gain (-0.0 too, which prints ``gain=+0.000 (0)``).
        """
        names, members, label = self.names, self.members, self.label
        v, own, target = d.vertex, d.own, d.target
        vlabel = names[v]
        own_label = label[own]
        if own_label is None:
            own_label = label[own] = ",".join([names[u] for u in members[own]])
        try_v = f"\tTry {vlabel} -> "
        lines = []
        for c, g in zip(d.candidates, d.gains):
            clabel = label[c]
            if clabel is None:
                clabel = label[c] = ",".join([names[u] for u in members[c]])
            lines.append(
                f"{try_v}{clabel:<15} | gain={'-' if g < 0.0 else '+'}{abs(g):.3f} "
                f"({'0' if g == 0.0 else '+' if g > 0.0 else '-'})\n"
            )
        if target is None:
            lines.append(f"\tKeep vertex {vlabel} at community {own_label}\n")
        else:  # the target is a candidate, so its label is set
            lines.append(f"\tMove {vlabel} -> {label[target]}\n")
            members[own].remove(v)
            bisect.insort(members[target], v)
            label[own] = label[target] = None
        return "".join(lines)


def emit_trace(run: LouvainRun) -> str:
    """Human-readable log of the whole run (one string, newline-joined)."""
    return "".join(_trace_text(run))


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """Newline-terminated pieces joined into runs of about ``BATCH_CHARS``
    characters; a longer piece is a run of its own."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        if size + len(piece) > BATCH_CHARS and batch:
            yield "".join(batch)
            batch, size = [], 0
        batch.append(piece)
        size += len(piece)
    if batch:
        yield "".join(batch)


def format_q(q: float, digits: int = 3) -> str:
    """q to ``digits`` decimals, a value that rounds to zero as ``0.000``:
    rounding residues of either sign print alike."""
    text = f"{q:.{digits}f}"
    return text[1:] if text == f"-{0.0:.{digits}f}" else text


def _matrix_lines(run: LouvainRun, net: IWNetwork) -> Iterator[str]:
    if net is run.network and run.strategy.name == "midpoint":  # the input as midpoint prices it
        net = _aggregate_midpoints(net, Partition.singletons(net.n))
    # looked up on ``louvain`` at each call, not bound at import (see there)
    return map("{}\n".format, louvain.format_matrix(net))


def _trace_text(run: LouvainRun) -> Iterator[str]:
    """The text of ``emit_trace`` in newline-ended pieces: a line, or the
    lines of one decision, rendered as ``decisions`` derives it. The initial
    and each sweep's Q are the pass state's ``q()``; every Q prints through
    ``format_q``.
    """
    for rec, state in _pass_states(run):
        net, replay = state.net, _Replay(state.net)
        if rec.number == 1:
            yield "Initial Interval-Weighted Network:\n"
            yield from _matrix_lines(run, net)
            yield f"\n* Initial Modularity={format_q(state.q())}\n"
        yield f"* Begin Pass number {rec.number}\n"
        for sweep in range(1, rec.iterations + 1):
            yield from map(replay.render, _sweep(state))
            yield f"Iteration {sweep} Modularity={format_q(state.q())}\n"
        if not rec.changed:
            yield f"* End Pass number {rec.number} -- no change\n"
            continue
        yield "\nNew network: ---------------\n"
        yield from _matrix_lines(run, rec.aggregated)
        q, communities = format_q(rec.modularity), " / ".join(rec.aggregated.labels)
        yield f"* End Pass number {rec.number} Modularity={q} Communities={communities}\n"
        yield "---------------------------\n"
    final = run.final_network
    prefix = "Hybrid - Before Normalized" if run.strategy.name == "hl" else "Before Normalized"
    yield f"\n* Final communities: {' / '.join(final.labels)} (n={final.n})\n"
    yield f"* {prefix}: {format_q(run.final_q)}\n"
    q_norm, q_max = format_q(run.final_q_norm), format_q(run.final_q_max, 6)
    yield f"* Normalized modularity: {q_norm} (Qmax={q_max})\n"
    yield "---------------------------\n"
    yield "Final Interval-weighted network:\n\n"
    yield from _matrix_lines(run, final)
