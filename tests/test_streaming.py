"""``iwnet run`` writes its output in chunks as it renders them.

The trace is rendered in chunks of about ``iwnet.trace.BATCH_CHARS``
characters. The bytes must be those of rendering the whole document at
once, writing the trace must add less memory than the trace's size, a
reader that closes stdout early is not an error, and a failed run writes
nothing.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import iwnet
from iwnet import emit_trace, network_from_csv, run
from iwnet import trace as renderer
from iwnet.cli import main

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


def test_batches_are_bounded_and_a_long_line_goes_alone(monkeypatch):
    monkeypatch.setattr(renderer, "BATCH_CHARS", 100)
    lines = ["x" * (i % 37) for i in range(200)]
    lines[50] = "y" * 250
    batches = list(renderer._chunks(line + "\n" for line in lines))
    assert "".join(batches) == "".join(line + "\n" for line in lines)
    assert "y" * 250 + "\n" in batches
    assert all(len(b) <= 100 for b in batches if "y" not in b)
    assert len(batches) > 30


def test_trace_chunks_are_bounded_also_across_a_dense_matrix(monkeypatch):
    """A 200-vertex matrix is rendered densely, about 800 KB: its lines
    count toward the chunk size one by one, and every chunk ends a line."""
    rng = random.Random(12)
    labels = [f"v{i}" for i in range(200)]
    edges = [(labels[i], labels[(i + 1) % 200], 1, 2) for i in range(200)]
    edges += [(labels[rng.randrange(200)], labels[rng.randrange(200)], 1.25, 3.5) for _ in range(100)]
    result = run(iwnet.IWNetwork.from_edges(labels, edges), "midpoint")
    monkeypatch.setattr(renderer, "BATCH_CHARS", 1 << 14)
    chunks = list(renderer._chunks(renderer._trace_text(result)))
    trace = emit_trace(result)
    assert "".join(chunks) == trace
    assert len(trace) > 800_000
    assert len(chunks) > 50
    assert all(c.endswith("\n") and len(c) <= 1 << 14 for c in chunks)


def test_trace_run_memory_stays_below_output_size(tmp_path):
    """``iwnet run --trace --format json --out`` on 250 vertices peaks (under
    tracemalloc) at 1.2x the size of the 1.15 MB file it writes, and writing
    the trace raises the peak over the same run without ``--trace`` by about
    0.4x the trace's size; rendering the trace as one string first raises it
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


def test_reader_closing_stdout_early_is_not_an_error(tmp_path):
    """``iwnet run --trace | head -n 1``: the run exits 0 and stderr holds
    nothing but the ingest warnings."""
    csv = tmp_path / "flows.csv"
    _flows_csv(csv)
    proc = subprocess.Popen(
        [sys.executable, "-m", "iwnet.cli", "run", "--input", str(csv),
         "--method", "midpoint", "--trace"],
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
