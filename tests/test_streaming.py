"""``iwnet run --trace`` renders the trace into a spool while the run
decides, and writes its output once the run has succeeded.

The spool is read back in chunks of ``iwnet.trace.BATCH_CHARS``
characters. The bytes must be those of rendering the whole document at
once, writing the trace must add less memory than the trace's size,
phase 1 runs once, a reader that closes stdout early is not an error,
and a failed run writes nothing and leaves no spool behind.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import iwnet
from iwnet import emit_trace, louvain, network_from_csv, run
from iwnet import trace as renderer
from iwnet.modularity import _IntervalPass
from iwnet.scalar import _ScalarPass
from iwnet.cli import _escape, _spelled, main

# NUTS 3 regions of the paper's Portuguese commuting network (non-ASCII
# letters), a quoted label holding `"` and `\`, and a character outside the
# BMP, which JSON escapes as a \uXXXX surrogate pair
LABELS = [
    "Área Metropolitana de Lisboa",
    "Região de Aveiro",
    'Alto "Minho" \\ Cávado',
    "Douro \U0001F347",
    "Beiras e Serra da Estrela",
    "Alentejo Litoral",
]

SRC = str(Path(iwnet.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

# labels JSON spells with escapes: a quote, a backslash, a tab, a newline, a
# carriage return, DEL and a character outside the BMP; a label of 10
# characters that its escapes take past 15, and one of 15 or more
SPELLED_LABELS = [
    'say "hi"', "back\\slash", "tab\there", "new\nline", "cr\rhere", "del\x7f",
    "grape \U0001F347", "\u00e9" * 10, "fifteen characters or more",
]


def _quote(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


@pytest.fixture
def labelled_csv(tmp_path):
    """Two triangles of the labels joined by one weak edge."""
    edges = [(0, 1, 3, 5), (1, 2, 2, 4), (0, 2, 1, 3),
             (3, 4, 3, 4), (4, 5, 2, 6), (3, 5, 1, 2), (2, 3, 0, 1)]
    lines = ["src,dst,lo,hi"]
    lines += [f"{_quote(LABELS[i])},{_quote(LABELS[j])},{lo},{hi}" for i, j, lo, hi in edges]
    path = tmp_path / "labelled.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _flows_csv(path: Path, n: int = 250, seed: int = 11) -> None:
    """Seeded directed flows on n vertices, three out-records each, one self-loop."""
    rng = random.Random(seed)
    lines = ["src,dst,lo,hi", "r0,r0,1,2"]
    for u in range(n):
        for v in rng.sample(range(n), 3):
            if v != u:
                lo = round(rng.uniform(0, 5), 3)
                lines.append(f"r{u},r{v},{lo},{round(lo + rng.uniform(0, 5), 3)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _main_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _main_out(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_streamed_bytes_match_one_shot_rendering(capsys, tmp_path, labelled_csv, method, fmt):
    """The chunks join to the document rendered as one string: for JSON,
    ``json.dumps`` of the document with the whole trace as its last member;
    for text, the trace, a rule of 27 ``=`` and the summary."""
    argv = ["run", "--input", labelled_csv, "--method", method, "--format", fmt]
    trace = emit_trace(run(network_from_csv(labelled_csv), method))
    summary = _main_stdout(capsys, argv)
    if fmt == "json":
        doc = json.loads(summary)
        assert summary == json.dumps(doc, indent=2, allow_nan=False) + "\n"
        expected = json.dumps({**doc, "trace": trace}, indent=2, allow_nan=False) + "\n"
        assert "\\ud83c\\udf47" in expected and '\\"Minho\\" \\\\' in expected
    else:
        expected = trace + "=" * 27 + "\n" + summary
        assert LABELS[3] in expected
    assert LABELS[0] in trace
    assert _main_stdout(capsys, [*argv, "--trace"]) == expected
    assert _main_out(tmp_path, [*argv, "--trace"]) == expected.encode("utf-8")
    assert _main_out(tmp_path, argv) == summary.encode("utf-8")


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_small_batches_give_the_same_bytes(capsys, monkeypatch, labelled_csv, method, fmt):
    """Cut into many batches, each escaped on its own for JSON, the output
    has the bytes of one batch: JSON escapes one character at a time."""
    argv = ["run", "--input", labelled_csv, "--method", method, "--format", fmt, "--trace"]
    whole = _main_stdout(capsys, argv)
    monkeypatch.setattr(renderer, "BATCH_CHARS", 40)
    assert _main_stdout(capsys, argv) == whole


def _spelled_network():
    """Two clusters of ``SPELLED_LABELS`` joined by a weak edge: phase 1
    moves, so the aggregates' labels join the labels."""
    a, b, c, d, e, f, g, h, i = SPELLED_LABELS
    edges = [(a, b, 3, 5), (b, c, 2, 4), (a, c, 1, 3), (c, d, 2, 3), (e, f, 3, 4),
             (f, g, 2, 6), (e, g, 1, 2), (g, h, 3, 3), (h, i, 2, 5), (d, e, 0, 1)]
    return iwnet.IWNetwork.from_edges(SPELLED_LABELS, edges)


def _render(result, escape):
    """The writes of ``result``'s trace rendered in the spelling of ``escape``."""
    writes = []
    trace = renderer._Trace(writes.append, result.strategy.name, escape)
    renderer._rerun(result, trace.sweep)
    trace.end(result)
    return writes


@pytest.mark.parametrize("batch", [None, 40])
@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_trace_rendered_in_json_spelling_is_the_escaped_trace(monkeypatch, method, batch):
    """Rendered in JSON's spelling, piece by piece, the trace is the text
    trace escaped as a whole, in batches of any size: a ``Try`` cell is
    padded to 15 characters on the label as it is, not as it is spelled."""
    if batch:
        monkeypatch.setattr(renderer, "BATCH_CHARS", batch)
    result = run(_spelled_network(), method)
    assert result.passes[0].changed
    text = emit_trace(result)
    writes = _render(result, _spelled)
    assert "".join(writes) == _escape(text)[1:-1]
    assert "".join(_render(result, None)) == text
    assert len(writes) > 40 if batch else len(writes) >= len(result.passes)
    for label in SPELLED_LABELS:
        assert f"\tTry {label} -> " in text
    assert f" -> {'é' * 10}      | gain=" in text
    assert f" -> {SPELLED_LABELS[-1]} | gain=" in text
    assert any("," in label for label in result.passes[0].aggregated.labels)


def _bench_input(tmp_path, name, seed, index):
    """Input ``index`` of the benchmark's workload ``name`` for ``seed``,
    generated as the benchmark does, and the workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    workload, path = workloads.WORKLOADS[name], tmp_path / f"{name}.csv"
    workloads.generate(workload, seed, index, path)
    return workload, path


def _pieces(trace):
    """The pieces the renderer queues, at their smallest: a vertex's ``Try``
    lines with its ``Move`` or ``Keep`` line, and each other line."""
    pieces, vertex = [], []
    for line in trace.splitlines(keepends=True):
        if line.startswith("\t"):
            vertex.append(line)
            if line.startswith(("\tMove ", "\tKeep ")):
                pieces.append("".join(vertex))
                vertex = []
        else:
            pieces.append(line)
    return pieces


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_spool_is_written_in_batches(monkeypatch, tmp_path, fmt):
    """A traced run writes its spool in batches, not a vertex at a time: no
    write holds more than ``BATCH_CHARS`` characters plus the largest piece
    queued, and the benchmark's ``midpoint_flows_trace`` seed 1 input 0
    takes at most 40 writes (one write per vertex took 2,840)."""
    workload, path = _bench_input(tmp_path, "midpoint_flows_trace", 1, 0)
    writes = []
    make = renderer._spool

    def recording_spool():
        spool = make()
        write = spool.write
        spool.write = lambda text: writes.append(len(text)) or write(text)
        return spool

    monkeypatch.setattr(renderer, "_spool", recording_spool)
    out = tmp_path / "out"
    argv = [*workload.cli_args(str(path), str(out)), "--format", fmt]
    assert "--trace" in argv
    assert main(argv) == 0
    monkeypatch.undo()
    trace = emit_trace(run(network_from_csv(str(path), threshold=workload.min_weight), "midpoint"))
    spell = _spelled if fmt == "json" else str
    assert sum(writes) == len(spell(trace)) > 1_000_000
    assert 10 < len(writes) <= 40, len(writes)
    assert max(writes) <= renderer.BATCH_CHARS + max(len(spell(p)) for p in _pieces(trace))


def _spool(text):
    spool = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
    spool.write(text)
    return spool


def test_spooled_runs_hold_batch_chars_each(monkeypatch):
    """A spool reads back, unchanged (a carriage return and a letter of
    two UTF-8 bytes included), in runs of exactly ``BATCH_CHARS``
    characters, the last run of at most as many."""
    monkeypatch.setattr(renderer, "BATCH_CHARS", 100)
    lines = ["x" * (i % 37) for i in range(200)]
    lines[50] = "y" * 250
    lines[90] = "carriage\rreturn\r"
    lines[120] = "Região " * 20
    text = "".join(line + "\n" for line in lines)
    with _spool(text) as spool:
        batches = list(renderer._spooled(spool))
    assert "".join(batches) == text
    assert all(len(b) == 100 for b in batches[:-1])
    assert 0 < len(batches[-1]) <= 100
    assert len(batches) > 30


def test_trace_chunks_are_bounded_also_across_a_dense_matrix(monkeypatch):
    """A 200-vertex matrix is rendered densely, about 800 KB: it is read
    back from the spool like any other text, in chunks of exactly
    ``BATCH_CHARS`` characters but the last."""
    rng = random.Random(12)
    labels = [f"v{i}" for i in range(200)]
    edges = [(labels[i], labels[(i + 1) % 200], 1, 2) for i in range(200)]
    edges += [(labels[rng.randrange(200)], labels[rng.randrange(200)], 1.25, 3.5) for _ in range(100)]
    result = run(iwnet.IWNetwork.from_edges(labels, edges), "midpoint")
    monkeypatch.setattr(renderer, "BATCH_CHARS", 1 << 14)
    trace = emit_trace(result)
    with _spool(trace) as spool:
        chunks = list(renderer._spooled(spool))
    assert "".join(chunks) == trace
    assert len(trace) > 800_000
    assert len(chunks) > 50
    assert all(len(c) == 1 << 14 for c in chunks[:-1])
    assert 0 < len(chunks[-1]) <= 1 << 14


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_traced_run_runs_phase_1_once(monkeypatch, tmp_path, method, fmt):
    """A traced run renders the trace while phase 1 decides: it steps each
    vertex once per sweep of each pass, iterations x n per pass, as an
    untraced run does (rendering after the run stepped every vertex twice)."""
    csv = tmp_path / "flows.csv"
    _flows_csv(csv, n=60)
    steps = [0]
    for kind in (_IntervalPass, _ScalarPass):
        def counting(state, v, step=kind.step):
            steps[0] += 1
            return step(state, v)

        monkeypatch.setattr(kind, "step", counting)
    argv = ["run", "--input", str(csv), "--method", method, "--format", fmt,
            "--out", str(tmp_path / "out")]
    counts = []
    for flags in ([], ["--trace"]):
        steps[0] = 0
        assert main([*argv, *flags]) == 0
        counts.append(steps[0])
    monkeypatch.undo()
    result = run(network_from_csv(str(csv)), method)
    assert len(result.passes) >= 3
    expected = sum(rec.iterations * len(rec.partition.assignment) for rec in result.passes)
    assert counts == [expected, expected]


def test_trace_run_memory_stays_below_output_size(tmp_path):
    """``iwnet run --trace --format json --out`` on 250 vertices peaks (under
    tracemalloc) at 0.7x the size of the 1.15 MB file it writes, and writing
    the trace raises the peak over the same run without ``--trace`` by about
    0.3x the trace's size (0.9x and 0.5x when the trace was rendered after
    the run, in chunks); rendering the trace as one string first raises it
    by 2.8x."""
    csv, out = tmp_path / "flows.csv", tmp_path / "out.json"
    _flows_csv(csv)
    argv = ["run", "--input", str(csv), "--method", "midpoint", "--format", "json",
            "--out", str(out)]

    def peak(extra):
        tracemalloc.start()
        try:
            code = main(argv + extra)
            return code, tracemalloc.get_traced_memory()[1], out.stat().st_size
        finally:
            tracemalloc.stop()

    code, first, size = peak(["--trace"])
    assert code == 0
    assert size > 1_000_000
    assert first < 1.5 * size, f"peak {first} B for {size} B written"
    # the run above was the first: its first-call allocations count against neither below
    code, base, summary = peak([])
    assert code == 0
    code, traced, size = peak(["--trace"])
    assert code == 0
    trace = size - summary
    assert traced - base < 0.75 * trace, f"peak {base} B -> {traced} B for a {trace} B trace"


@pytest.mark.parametrize("method", ["cl", "midpoint"])
def test_reader_closing_stdout_early_is_not_an_error(tmp_path, method):
    """``iwnet run --trace | head -n 1`` under ``-X dev -W error``: the run
    exits 0 and stderr holds nothing but the ingest warnings (no warning,
    an unclosed file's among them, and no "Exception ignored" line)."""
    csv = tmp_path / "flows.csv"
    _flows_csv(csv)
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "iwnet.cli", "run",
         "--input", str(csv), "--method", method, "--trace"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    assert first == b"Initial Interval-Weighted Network:\n"
    assert code == 0
    assert err == "warning: dropped 1 self-loop record(s)\n"


@pytest.mark.parametrize(
    "csv_text, code",
    [
        ("src,dst,lo,hi\na,b,1\n", 1),  # malformed: a field is missing
        ("src,dst,lo,hi\na,b,0,0\nb,c,0,0\n", 2),  # ZeroTotalWeight
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_run_leaves_existing_out_file_untouched(tmp_path, capsys, csv_text, code, fmt):
    csv, out = tmp_path / "in.csv", tmp_path / "out"
    csv.write_text(csv_text, encoding="utf-8")
    out.write_bytes(b"earlier results\n")
    argv = ["run", "--input", str(csv), "--method", "cl", "--trace",
            "--format", fmt, "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"earlier results\n"


@pytest.fixture
def spool_dir(monkeypatch, tmp_path):
    """An empty TMPDIR, which ``tempfile`` reads again, and the spools the
    CLI makes."""
    path = tmp_path / "tmp"
    path.mkdir()
    monkeypatch.setenv("TMPDIR", str(path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    spools = []
    make = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        spools.append(make(*args, **kwargs))
        return spools[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return path, spools


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_traced_run_that_fails_midway_leaves_nothing(tmp_path, capsys, monkeypatch, spool_dir, fmt):
    """A traced run that raises after its trace has begun (the sweep limit
    ends pass 1) exits 2, writes nothing to stdout, leaves an existing
    ``--out`` file as it was, and closes its spool, which leaves nothing in
    TMPDIR."""
    path, spools = spool_dir
    csv, out = tmp_path / "flows.csv", tmp_path / "out"
    _flows_csv(csv, n=60)
    out.write_bytes(b"earlier results\n")
    monkeypatch.setattr(louvain, "SWEEP_LIMIT", 1)
    argv = ["run", "--input", str(csv), "--method", "cl", "--trace", "--format", fmt]
    for target in ([], ["--out", str(out)]):
        assert main([*argv, *target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: IterationLimit: no convergence after 1 sweeps\n")
        assert out.read_bytes() == b"earlier results\n"
        assert len(spools) == 1 and spools.pop().closed
        assert list(path.iterdir()) == []


def test_spool_that_cannot_be_made_is_an_input_error(tmp_path, capsys, monkeypatch, spool_dir):
    """A traced run whose spool cannot be made exits 1 with one error line
    and no traceback, and writes nothing; an untraced run needs no spool."""
    csv, out = tmp_path / "toy.csv", tmp_path / "out"
    csv.write_text("src,dst,lo,hi\nv1,v2,1,3\nv1,v3,1,1\nv2,v3,1,1\nv3,v4,2,4\n", encoding="utf-8")
    out.write_bytes(b"earlier results\n")

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    argv = ["run", "--input", str(csv), "--method", "hl", "--format", "json"]
    for target in ([], ["--out", str(out)]):
        assert main([*argv, "--trace", *target]) == 1
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert out.read_bytes() == b"earlier results\n"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["method"] == "hl"
