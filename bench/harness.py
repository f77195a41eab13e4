"""Measurement and output checks for the iwnet benchmark.

End to end (tracer off): the real CLI runs as one child process at a
time, closed loop, cycling over the workload's generated inputs; every
output is checked against ``iwnet.q_definitional`` outside the timed
region. Per layer: ``iwnet.cli.main`` runs in process with spans around
the calls into ``network``, ``modularity`` and ``louvain``, and further
passes count ``Interval`` constructions and take ``tracemalloc`` peaks.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import iwnet
import iwnet.cli
import iwnet.louvain
import iwnet.network
from iwnet import Partition, emit_trace, network_from_csv, q_definitional

from tracer import Tracer, patched
from workloads import Workload

# (name, unit) of every metric, in the order BENCHMARK.json lists them
END_TO_END = [
    ("wall_rel", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("q_norm", "ratio"),
]
PER_LAYER = [
    ("network.read_flow_csv_s", "s"),
    ("network.records", "count"),
    ("network.symmetrize_s", "s"),
    ("network.vertices", "count"),
    ("network.edges", "count"),
    ("network.self_loops_dropped", "count"),
    ("network.records_below_threshold", "count"),
    ("network.aggregate_s", "s"),
    ("network.aggregate_calls", "count"),
    ("network.format_matrix_s", "s"),
    ("network.format_matrix_calls", "count"),
    ("modularity.q_interval_s", "s"),
    ("modularity.q_interval_calls", "count"),
    ("modularity.q_scalar_s", "s"),
    ("modularity.q_scalar_calls", "count"),
    ("modularity.q_max_s", "s"),
    ("louvain.run_s", "s"),
    ("louvain.self_s", "s"),
    ("louvain.passes", "count"),
    ("louvain.sweeps", "count"),
    ("louvain.gain_evals", "count"),
    ("louvain.moves", "count"),
    ("louvain.move_ratio", "ratio"),
    ("louvain.trace_bytes", "bytes"),
    ("interval.constructed", "count"),
    ("network.ingest_peak_mb", "MB"),
    ("louvain.run_peak_mb", "MB"),
    ("cli.main_s", "s"),
    ("cli.render_s", "s"),
    ("bench.trace_overhead", "ratio"),
]
# counts a repeated traced run must reproduce exactly
EXACT = [name for name, unit in PER_LAYER if unit in ("count", "bytes")]

Q_REL_TOL = 1e-9

# The CLI as the ``iwnet`` console script starts it, plus one line of
# stderr with the process's own peak RSS. ``os.wait4`` cannot give that:
# a child spawned by this (larger) process starts out with this process's
# peak as its maxrss.
CLI_ENTRY = """
import sys
from iwnet.cli import main
code = main()
with open("/proc/self/status", encoding="ascii") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
# A fixed pure-Python child timed next to every CLI invocation. This
# machine's speed drifts by 10-25% over minutes, which moves raw wall time
# from run to run; the CLI's time divided by this child's time mostly
# cancels the drift.
REF_ENTRY = "sorted(str(i * 7919 % 100003) for i in range(75000))"


@dataclass
class Input:
    """One generated CSV with what its output is checked against."""

    csv: Path
    out: Path
    workload: Workload
    vertices: frozenset[str] = field(init=False)
    net: iwnet.IWNetwork = field(init=False)

    def __post_init__(self):
        with open(self.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        self.vertices = frozenset(r[0] for r in rows) | frozenset(r[1] for r in rows)
        self.net = network_from_csv(
            str(self.csv),
            directed=self.workload.directed,
            threshold=self.workload.min_weight,
        )

    def argv(self) -> list[str]:
        return self.workload.cli_args(str(self.csv), str(self.out))


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# output check


def check_doc(doc: dict, inp: Input) -> str | None:
    """Reason the CLI's JSON document is wrong for ``inp``, or None."""
    if doc.get("method") != inp.workload.method:
        return f"method {doc.get('method')!r}"
    final = doc["final"]
    membership = final["membership"]
    if set(membership) != inp.vertices:
        missing = sorted(inp.vertices - set(membership))[:3]
        extra = sorted(set(membership) - inp.vertices)[:3]
        return f"membership misses {missing} / has extra {extra}"
    members = [v for group in final["communities"] for v in group]
    if len(members) != len(set(members)) or set(members) != inp.vertices:
        return "communities do not cover every vertex exactly once"
    p = Partition(tuple(membership[label] for label in inp.net.labels))
    ref = q_definitional(inp.net, p, inp.workload.method)
    tol = Q_REL_TOL * max(abs(ref), abs(final["q_max"]))
    if not math.isclose(final["q"], ref, rel_tol=Q_REL_TOL, abs_tol=tol):
        return f"q {final['q']!r} but q_definitional gives {ref!r}"
    return None


def check_file(inp: Input) -> tuple[str | None, dict | None]:
    try:
        doc = json.loads(inp.out.read_text(encoding="utf-8"))
        return check_doc(doc, inp), doc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None


# ---------------------------------------------------------------------------
# end to end


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], stderr: Path) -> tuple[int, float]:
    """Run one child to completion: (exit code, seconds from spawn to exit)."""
    with open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return code, time.perf_counter() - t0


def reported_peak_mb(stderr: Path) -> float | None:
    """The ``VmHWM`` line CLI_ENTRY writes last to stderr, in MB."""
    lines = stderr.read_text(errors="replace").splitlines()
    if not lines or not lines[-1].startswith("VmHWM:"):
        return None
    return int(lines[-1].split()[1]) / 1024.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure_e2e(inputs: list[Input], seconds: float, src: Path, once: bool) -> Result:
    """Time the CLI on every input once, then keep cycling over them until
    ``seconds`` have passed (unless ``once``)."""
    env = child_env(src)
    py = sys.executable
    stderr = inputs[0].out.with_suffix(".stderr")
    res = Result()

    setup, ref, wall, rss = [], [], [], []
    q_norm: dict[int, float] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(inputs) or (not once and time.perf_counter() < deadline):
        # set-up and the reference are sampled across the whole run
        for entry, samples in (("import iwnet.cli", setup), (REF_ENTRY, ref)):
            code, secs = spawn([py, "-c", entry], env, stderr)
            if code != 0:
                raise RuntimeError(f"{entry!r} failed: {stderr.read_text()}")
            samples.append(secs)
        inp = inputs[i % len(inputs)]
        inp.out.unlink(missing_ok=True)
        code, secs = spawn([py, "-c", CLI_ENTRY, *inp.argv()], env, stderr)
        res.attempted += 1
        wall.append(secs)
        peak = reported_peak_mb(stderr)
        if peak is not None:
            rss.append(peak)
        problem, doc = check_file(inp) if code == 0 else (f"exit code {code}", None)
        if problem:
            res.failed += 1
            print(f"FAILED {inp.csv.name}: {problem}", file=sys.stderr)
            print(stderr.read_text(errors="replace")[-2000:], file=sys.stderr)
        else:
            q_norm[i % len(inputs)] = doc["final"]["q_norm"]
        i += 1

    res.samples = {"wall_s": wall, "ref_s": ref, "peak_rss_mb": rss, "setup_s": setup}
    res.metrics = {
        "wall_rel": statistics.median(wall) / statistics.median(ref),
        # the peak over the run: per input it repeats exactly but falls in modes
        "peak_rss_mb": max(rss, default=math.nan),
        "setup_s": statistics.median(setup),
        # deterministic per input; the median over inputs keeps one odd graph from moving it
        "q_norm": statistics.median(q_norm.values()) if q_norm else math.nan,
    }
    return res


# ---------------------------------------------------------------------------
# per layer


def _targets() -> list[tuple[object, str, str]]:
    """The calls each span wraps, named as their callers look them up."""
    net, lv, cli = iwnet.network, iwnet.louvain, iwnet.cli
    return [
        (net, "read_flow_csv", "network.read_flow_csv"),
        (net, "symmetrize", "network.symmetrize"),
        (cli, "run_louvain", "louvain.run"),
        (lv, "aggregate_sum", "network.aggregate"),
        (lv, "aggregate_minmax", "network.aggregate"),
        (lv, "format_matrix", "network.format_matrix"),
        (lv, "q_interval_communities", "modularity.q_interval"),
        (lv, "q_scalar_communities", "modularity.q_scalar"),
        (lv, "q_max_interval_adjusted", "modularity.q_max"),
        (lv, "q_max_scalar", "modularity.q_max"),
    ]


def traced_main(inp: Input) -> tuple[int, Tracer]:
    tracer = Tracer()
    with patched(tracer, _targets()):
        code = tracer.wrap("cli.main", iwnet.cli.main)(inp.argv())
    return code, tracer


def layer_metrics(tracer: Tracer, inp: Input) -> dict[str, float]:
    records = tracer.returned["network.read_flow_csv"]
    net = tracer.returned["network.symmetrize"]
    trace = emit_trace(tracer.returned["louvain.run"])
    lines = trace.splitlines()
    gain_evals = sum(line.startswith("\tTry ") for line in lines)
    moves = sum(line.startswith("\tMove ") for line in lines)
    main_s = tracer.total("cli.main")
    read_s = tracer.total("network.read_flow_csv")
    sym_s = tracer.total("network.symmetrize")
    run_s = tracer.total("louvain.run")
    return {
        "network.read_flow_csv_s": read_s,
        "network.records": len(records),
        "network.symmetrize_s": sym_s,
        "network.vertices": net.n,
        "network.edges": net.edge_count(),
        "network.self_loops_dropped": net.dropped_self_loops,
        "network.records_below_threshold": sum(
            r.src != r.dst and r.hi < inp.workload.min_weight for r in records
        ),
        "network.aggregate_s": tracer.total("network.aggregate"),
        "network.aggregate_calls": tracer.calls["network.aggregate"],
        "network.format_matrix_s": tracer.total("network.format_matrix"),
        "network.format_matrix_calls": tracer.calls["network.format_matrix"],
        "modularity.q_interval_s": tracer.total("modularity.q_interval"),
        "modularity.q_interval_calls": tracer.calls["modularity.q_interval"],
        "modularity.q_scalar_s": tracer.total("modularity.q_scalar"),
        "modularity.q_scalar_calls": tracer.calls["modularity.q_scalar"],
        "modularity.q_max_s": tracer.total("modularity.q_max"),
        "louvain.run_s": run_s,
        "louvain.self_s": tracer.self_time("louvain.run"),
        "louvain.passes": sum(line.startswith("* Begin Pass number") for line in lines),
        "louvain.sweeps": sum(line.startswith("Iteration ") for line in lines),
        "louvain.gain_evals": gain_evals,
        "louvain.moves": moves,
        "louvain.move_ratio": moves / gain_evals if gain_evals else 0.0,
        "louvain.trace_bytes": len(trace.encode("utf-8")),
        "cli.main_s": main_s,
        "cli.render_s": main_s - read_s - sym_s - run_s,
    }


def count_intervals(inp: Input) -> int:
    """``Interval`` objects constructed during one ``run()`` on the input."""
    cls = iwnet.Interval
    original = cls.__init__
    count = 0

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        original(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        iwnet.louvain.run(inp.net, inp.workload.method)
    finally:
        cls.__init__ = original
    return count


def memory_peaks(inp: Input) -> tuple[float, float]:
    """tracemalloc peaks in MB: (ingest from CSV, run() above the network it is given)."""
    w = inp.workload
    tracemalloc.start()
    try:
        net = network_from_csv(str(inp.csv), directed=w.directed, threshold=w.min_weight)
        _, ingest_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        iwnet.louvain.run(net, w.method)
        _, run_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ingest_peak / 2**20, (run_peak - base) / 2**20


def measure_layers(inp: Input) -> Result:
    """Per-layer metrics of the CLI on one input; raises if a count does not repeat."""
    res = Result()

    def cli_ok(code: int) -> bool:
        res.attempted += 1
        problem = check_file(inp)[0] if code == 0 else f"exit code {code}"
        if problem:
            res.failed += 1
            print(f"FAILED {inp.csv.name}: {problem}", file=sys.stderr)
        return not problem

    def untraced_main() -> float:
        inp.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = iwnet.cli.main(inp.argv())
        seconds = time.perf_counter() - t0
        cli_ok(code)
        return seconds

    def traced() -> tuple[dict[str, float], Tracer] | None:
        inp.out.unlink(missing_ok=True)
        code, tracer = traced_main(inp)
        return (layer_metrics(tracer, inp), tracer) if cli_ok(code) else None

    first_run = traced()
    untraced_s = untraced_main()  # between the traced runs: warm-up favours neither side
    second_run = traced()
    if first_run is None or second_run is None:
        return res
    (first, tracer), (second, _) = first_run, second_run
    first["interval.constructed"] = count_intervals(inp)
    second["interval.constructed"] = count_intervals(inp)
    differ = [k for k in EXACT if first[k] != second[k]]
    if differ:
        raise RuntimeError(
            "counts differ between two traced runs: "
            + ", ".join(f"{k} {first[k]} vs {second[k]}" for k in differ)
        )
    first["network.ingest_peak_mb"], first["louvain.run_peak_mb"] = memory_peaks(inp)
    traced_s = (first["cli.main_s"] + second["cli.main_s"]) / 2
    first["bench.trace_overhead"] = traced_s / untraced_s
    res.metrics = {name: first[name] for name, _ in PER_LAYER}
    res.spans = tracer.as_json()
    return res
