"""Seeded input generators for the benchmark workloads.

A workload is a graph family plus the ``iwnet run`` flags it is run
with. For each ``--seed`` it yields ``inputs`` edge-list CSVs (header
``src,dst,lo,hi``): graphs from ``networkx``, every interval drawn as
lo ~ U(0, 5), width ~ U(0, 5) from a ``random.Random`` seeded by the
seed and the input's index, so one seed always gives byte-identical
files. Several inputs per seed let a run average over graphs, which
keeps seed-to-seed spread down. The CLI only ever sees the files.

Known defects are not steered around: a generated input that makes the
program fail counts as a failed invocation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx

Record = tuple[str, str, float, float]


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    flags: tuple[str, ...]  # extra ``iwnet run`` flags
    min_weight: float  # threshold the flags pass (0 when absent)
    directed: bool  # records are directed flows (no --undirected)
    inputs: int  # inputs per seed; one CLI run on each takes 20-30 s here
    why: str
    make: Callable[[random.Random, bool], list[Record]]

    def cli_args(self, csv_path: str, out_path: str) -> list[str]:
        return [
            "run", "--input", csv_path, "--method", self.method,
            *self.flags, "--format", "json", "--out", out_path,
        ]


def _interval(rng: random.Random) -> tuple[float, float]:
    lo = round(rng.uniform(0.0, 5.0), 3)
    return lo, round(lo + rng.uniform(0.0, 5.0), 3)


def _label(v: int) -> str:
    return f"v{v}"


def _cl_planted(rng: random.Random, smoke: bool) -> list[Record]:
    groups, size = (2, 5) if smoke else (4, 8)
    g = nx.planted_partition_graph(groups, size, 0.4, 0.05, seed=rng.getrandbits(32))
    records = []
    for u, v in sorted(g.edges()):
        records.append((_label(u), _label(v), *_interval(rng)))
        records.append((_label(v), _label(u), *_interval(rng)))
    rng.shuffle(records)
    return records


def _hl_sparse(rng: random.Random, smoke: bool) -> list[Record]:
    n = 24 if smoke else 384
    g = nx.fast_gnp_random_graph(n, 6.0 / n, seed=rng.getrandbits(32))
    records = [(_label(u), _label(v), *_interval(rng)) for u, v in sorted(g.edges())]
    rng.shuffle(records)
    return records


# uneven community sizes, 256 vertices in all
_FLOW_GROUPS = (64, 56, 48, 40, 28, 20)


def _midpoint_flows(rng: random.Random, smoke: bool) -> list[Record]:
    sizes = (8, 6, 4) if smoke else _FLOW_GROUPS
    g = nx.random_partition_graph(list(sizes), 0.1, 0.005, seed=rng.getrandbits(32))
    records = []
    for u, v in sorted(g.edges()):
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        records.append((_label(a), _label(b), *_interval(rng)))
        if rng.random() < 0.8:  # most pairs flow both ways
            records.append((_label(b), _label(a), *_interval(rng)))
    for v in rng.sample(sorted(g.nodes()), max(1, len(g) // 100)):
        records.append((_label(v), _label(v), *_interval(rng)))
    rng.shuffle(records)
    return records


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cl_planted", "cl", (), 0.0, True, 22,
            "cl on 4x8 planted partitions: interval gain evaluation "
            "(q_interval_communities) is nearly all of the run; gain cost is the point, "
            "so no --min-weight",
            _cl_planted,
        ),
        Workload(
            "hl_sparse", "hl", ("--undirected",), 0.0, False, 20,
            "hl on sparse G(384, 6/n): gains are cheap; the dense n*n Interval matrix "
            "(build, total_weight, neighbors, aggregation, always-built trace) dominates",
            _hl_sparse,
        ),
        Workload(
            "midpoint_flows_trace", "midpoint", ("--min-weight", "2", "--trace"), 2.0,
            True, 20,
            "midpoint on 256-vertex directed flows, self-loops, ~1/10 of records under "
            "--min-weight 2, trace written: ingest folding, sum aggregation, trace rendering",
            _midpoint_flows,
        ),
    )
}


def write_csv(records: list[Record], path: Path) -> None:
    lines = ["src,dst,lo,hi"]
    lines += [f"{s},{d},{lo!r},{hi!r}" for s, d, lo, hi in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(
    workload: Workload, seed: int, index: int, path: Path, smoke: bool = False
) -> None:
    """Write input number ``index`` of the workload for ``seed`` to ``path``."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    write_csv(workload.make(rng, smoke), path)
