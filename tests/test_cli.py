import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwnet
from iwnet import cli, louvain, network
from iwnet.cli import main

from helpers import CYCLING_CSV, normalize_lines, random_network

TOY_CSV = """src,dst,lo,hi
v1,v2,1,3
v1,v3,1,1
v2,v3,1,1
v3,v4,2,4
"""

DEGENERATE_CSV = """src,dst,lo,hi
v1,v2,2,2
v1,v3,1,1
v2,v3,1,1
v3,v4,3,3
"""

# a header and 1,000 records, 13,794 bytes: beyond the 8 KiB the reader decodes ahead
HEAD = b"src,dst,lo,hi\n" + b"".join(b"v%d,w%d,1,2\n" % (i, i) for i in range(1000))

ZERO_LOWER_CSV = """src,dst,lo,hi
a,b,0,5
b,c,0,4
c,d,0,1
"""


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_json_document(self, capsys, toy_csv):
        code, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "cl", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "cl"
        assert doc["final"]["communities"] == [["v1", "v2"], ["v3", "v4"]]
        assert doc["final"]["q"] == pytest.approx(20 / 7, abs=1e-9)
        assert doc["final"]["q_norm"] == pytest.approx(5 / 11, abs=1e-9)
        assert doc["final"]["q_max"] == pytest.approx(44 / 7, abs=1e-9)
        assert doc["format_version"] == 2
        assert doc["aggregated_matrix"]["labels"] == ["v1,v2", "v3,v4"]
        assert doc["aggregated_matrix"]["edges"] == [
            [0, 0, 2.0, 6.0], [0, 1, 2.0, 2.0], [1, 1, 4.0, 8.0],
        ]
        assert [p["iterations"] for p in doc["passes"]] == [2, 1]
        assert [p["changed"] for p in doc["passes"]] == [True, False]

    def test_json_roundtrip_exact(self, capsys, toy_csv):
        _, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "hl", "--format", "json"
        )
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        assert again["aggregated_matrix"]["edges"] == doc["aggregated_matrix"]["edges"]
        assert again["final"]["membership"] == doc["final"]["membership"]

    def test_hl_final_matrix(self, capsys, toy_csv):
        code, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "hl", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aggregated_matrix"]["edges"] == [
            [0, 0, 1.0, 3.0], [0, 1, 1.0, 1.0], [1, 1, 2.0, 4.0],
        ]

    def test_midpoint_equals_cl_membership_on_degenerate(self, capsys, tmp_path):
        path = tmp_path / "deg.csv"
        path.write_text(DEGENERATE_CSV, encoding="utf-8")
        _, out_cl, _ = run_cli(
            capsys, "run", "--input", str(path), "--method", "cl", "--format", "json"
        )
        _, out_mid, _ = run_cli(
            capsys, "run", "--input", str(path), "--method", "midpoint", "--format", "json"
        )
        assert (
            json.loads(out_cl)["final"]["membership"]
            == json.loads(out_mid)["final"]["membership"]
        )

    def test_text_output_sections(self, capsys, toy_csv):
        code, out, _ = run_cli(capsys, "run", "--input", toy_csv, "--method", "cl")
        assert code == 0
        assert "pass 1: 2 iterations, modularity 2.857, 2 communities" in out
        assert "pass 2: no change" in out
        assert "C1: v1, v2" in out
        assert "C2: v3, v4" in out
        assert "Q_norm = 0.454545" in out
        lines = normalize_lines(out)
        assert "v1,v2 [2,6] [2,2]" in lines
        assert "v3,v4 [2,2] [4,8]" in lines

    def test_trace_flag(self, capsys, toy_csv):
        from goldens import CL_REFERENCE_TRACE

        _, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "cl", "--trace"
        )
        golden = normalize_lines(CL_REFERENCE_TRACE)
        assert normalize_lines(out)[: len(golden)] == golden

    def test_output_bytes_deterministic(self, capsys, toy_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out_path in (out1, out2):
            code, _, _ = run_cli(
                capsys,
                "run",
                "--input",
                toy_csv,
                "--method",
                "cl",
                "--format",
                "json",
                "--trace",
                "--out",
                str(out_path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_min_weight_threshold(self, capsys, tmp_path):
        path = tmp_path / "thr.csv"
        path.write_text(
            "src,dst,lo,hi\na,b,10,40\nb,c,60,80\na,c,55,90\n", encoding="utf-8"
        )
        _, out, _ = run_cli(
            capsys,
            "run",
            "--input",
            str(path),
            "--min-weight",
            "50",
            "--method",
            "midpoint",
            "--format",
            "json",
        )
        doc = json.loads(out)
        # the a-b record is discarded; a,b,c all remain as vertices
        assert sorted(doc["final"]["membership"]) == ["a", "b", "c"]

    def test_undirected_flag(self, capsys, tmp_path):
        path = tmp_path / "undir.csv"
        path.write_text("src,dst,lo,hi\na,b,1,2\nb,a,3,4\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "run", "--input", str(path), "--undirected", "--method", "cl"
        )
        assert (code, out, err) == (1, "", "error: line 3: duplicate record b->a\n")

    def test_duplicate_from_a_pipe_has_no_line(self, capsys):
        """A path that is not a regular file is read once, so a repeat read
        from it carries no line (a second read of the pipe finds no records)."""
        read, write = os.pipe()
        os.write(write, b"src,dst,lo,hi\na,b,1,2\na,b,1,2\n")
        os.close(write)
        try:
            code, out, err = run_cli(capsys, "run", "--input", f"/dev/fd/{read}", "--method", "cl")
        finally:
            os.close(read)
        assert (code, out, err) == (1, "", "error: duplicate record a->b\n")

    def test_duplicate_from_a_fifo_has_no_line(self, tmp_path):
        """A FIFO is opened once: a second open() waited for a writer that
        never came. The timeout turns such a wait into a failure."""
        fifo = tmp_path / "in.csv"
        os.mkfifo(fifo)

        def feed():  # open() returns once the run opens the FIFO to read it
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write("src,dst,lo,hi\na,b,1,2\na,b,1,2\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        src = str(Path(iwnet.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "iwnet.cli", "run", "--input", str(fifo), "--method", "cl"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: duplicate record a->b\n")
        writer.join(timeout=5)
        assert not writer.is_alive()

    @pytest.mark.parametrize("rewritten", ["a,b,1,2\n", "b,c,1,2\na,b,1,2\nc,d,1,2\n"])
    def test_duplicate_in_a_file_changed_after_the_parse_has_no_line(
        self, capsys, tmp_path, monkeypatch, rewritten
    ):
        """The second read names a line only where it finds the repeated
        record again: a file rewritten after the parse (shorter, or
        reordered) is reported as a pipe is, without a line."""
        path = tmp_path / "dup.csv"
        path.write_text("src,dst,lo,hi\na,b,1,2\nb,c,1,2\na,b,1,2\n", encoding="utf-8")
        parse = network.read_flow_csv

        def parse_then_rewrite(source):
            records = parse(source)
            path.write_text("src,dst,lo,hi\n" + rewritten, encoding="utf-8")
            return records

        monkeypatch.setattr(network, "read_flow_csv", parse_then_rewrite)
        code, out, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert (code, out, err) == (1, "", "error: duplicate record a->b\n")

    def test_self_loop_warning(self, capsys, tmp_path):
        path = tmp_path / "loop.csv"
        path.write_text("src,dst,lo,hi\na,a,5,6\na,b,1,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 0
        assert "dropped 1 self-loop" in err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_min_weight_warning(self, capsys, tmp_path, command):
        # a-b falls below in one direction only, a-c in both; the self-loop
        # is reported as one and not counted again
        path = tmp_path / "thr.csv"
        path.write_text(
            "src,dst,lo,hi\na,b,10,40\nb,a,60,80\nb,c,60,80\na,c,1,2\nc,a,3,4\nc,c,0,1\n",
            encoding="utf-8",
        )
        method = "--method" if command == "run" else "--metric"
        argv = [command, "--input", str(path), method, "cl"]
        code, _, err = run_cli(capsys, *argv, "--min-weight", "50")
        assert code == 0
        assert err == (
            "warning: dropped 1 self-loop record(s)\n"
            "warning: dropped 3 record(s) below --min-weight 50.0\n"
        )
        code, _, err = run_cli(capsys, *argv, "--min-weight", "1.5")
        assert code == 0
        assert err == "warning: dropped 1 self-loop record(s)\n"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_nan_min_weight_exit_1(self, capsys, tmp_path, command):
        # `hi < nan` is never true, so nan would turn the filter off unseen
        path = tmp_path / "thr.csv"
        path.write_text("src,dst,lo,hi\na,b,10,40\nb,c,60,80\n", encoding="utf-8")
        method = "--method" if command == "run" else "--metric"
        code, out, err = run_cli(
            capsys, command, "--input", str(path), method, "cl", "--min-weight", "nan"
        )
        assert code == 1
        assert out == ""
        assert err == "error: --min-weight must be a number, not nan\n"

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,lo,hi\na,b,oops,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["lo", "hi"])
    def test_non_finite_weight_exit_1(self, capsys, tmp_path, bad, column):
        lo, hi = (bad, "5") if column == "lo" else ("1", bad)
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"src,dst,lo,hi\nx,y,1,2\na,b,{lo},{hi}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 1
        assert "line 3" in err

    def test_bad_header_exit_1(self, capsys, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("from,to,lo,hi\na,b,1,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty file, expected header src,dst,lo,hi"),
            ("src,dst,lo,hi\na,b,1,2\nb,c,1,1\na,b,1\n", "line 4: expected 4 fields, got 3"),
            ("src,dst,lo,hi\na,b,1,2\n , c,1,2\n", "line 3: empty vertex label"),
            # a quoted label spans lines 2-3: the bad weight is on physical line 4
            ('src,dst,lo,hi\n"a\nb",c,1,2\nx,y,oops,2\n', "line 4: non-numeric weight in 'oops','2'"),
            # the first malformed line wins over a byte that is not UTF-8 after it,
            # whether or not the reader has decoded that far ahead
            pytest.param(b"src,dst,lo,hi\na,b,oops,2\n\xff,b,1,2\n",
                         "line 2: non-numeric weight in 'oops','2'", id="bad-weight-then-latin-1"),
            pytest.param(HEAD.replace(b"\n", b"\na,b,oops,2\n", 1) + b"\xff,b,1,2\n",
                         "line 2: non-numeric weight in 'oops','2'",
                         id="bad-weight-then-latin-1-past-8k"),
        ],
    )
    def test_malformed_csv_exit_1(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, out, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            # a Latin-1 export: the byte is reported at its own line, however
            # far ahead of the csv reader the file is decoded
            (b"src,dst,lo,hi\na,b,1,2\n\xff\xfe,b,1,2\n", "line 3: not UTF-8: byte 0xff"),
            (HEAD + b"caf\xe9,b,1,2\nc,d,1,2\n", "line 1002: not UTF-8: byte 0xe9"),
            (HEAD.replace(b"\n", b"\r") + b"caf\xe9,b,1,2\r", "line 1002: not UTF-8: byte 0xe9"),
            (b"src,dst,lo,hi\na,b,1,2\nc,\xc3", "line 3: not UTF-8: byte 0xc3"),  # cut short
            # a UTF-16 header holds a byte that is not UTF-8 and NULs: the byte is named
            ("src,dst,lo,hi\na,b,1,2\n".encode("utf-16"), "line 1: not UTF-8: byte 0xff"),
            (b"src,dst,lo,hi\na,b,1,2\n" + b"x" * 131_073 + b",b,1,2\n",
             "line 3: field larger than field limit (131072)"),
            (b"src,dst,lo,hi\na,b,1,2\na\x00,b,1,2\n", "line 3: line contains NUL"),
            (b"src,dst,lo,hi\na,b,1,2\na\x00,b,1\n", "line 3: line contains NUL"),
            (b"src,dst\x00,lo,hi\na,b,1,2\n", "line 1: line contains NUL"),
            (HEAD + b"a,b,1,\x002\n", "line 1002: line contains NUL"),
            # a quoted label spans lines 2-3: the byte is reported at the line that holds it
            (b'src,dst,lo,hi\n"a\x00\nb",c,1,2\n', "line 2: line contains NUL"),
            (b'src,dst,lo,hi\n"a\xff\nb",c,1,2\n', "line 2: not UTF-8: byte 0xff"),
        ],
        ids=["latin-1", "latin-1-past-8k", "cr-past-8k", "cut-short", "utf-16", "long-field",
             "nul-label", "nul-short-row", "nul-header", "nul-weight-past-8k",
             "nul-in-multiline-record", "latin-1-in-multiline-record"],
    )
    def test_undecodable_or_unreadable_csv_exit_1(self, tmp_path, data, message):
        """Bytes that are not UTF-8, a field over the csv module's size limit
        and a NUL byte are malformed input on every Python version: exit 1
        with the line, and no traceback or warning under ``-X dev -W error``."""
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        src = str(Path(iwnet.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "iwnet.cli", "run",
             "--input", str(path), "--method", "cl"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    def test_blank_line_skipped(self, capsys, tmp_path):
        with_blank = TOY_CSV.replace("\nv1,v3", "\n\nv1,v3")  # between the first two records
        outs = []
        for name, text in (("plain", TOY_CSV), ("blank", with_blank)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding="utf-8")
            code, out, _ = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
    def test_byte_order_mark_skipped(self, capsys, tmp_path, method):
        # a "CSV UTF-8" spreadsheet export starts with U+FEFF before the header
        outs = []
        for name, text in (("plain", TOY_CSV), ("bom", "\ufeff" + TOY_CSV)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding="utf-8")
            outs.append(run_cli(capsys, "run", "--input", str(path), "--method", method, "--trace"))
        assert outs[0][0] == 0
        assert outs[0] == outs[1]
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbfsrc,")

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--input", str(tmp_path / "nope.csv"), "--method", "cl"
        )
        assert code == 1

    def test_algorithm_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "allbelow.csv"
        path.write_text("src,dst,lo,hi\na,b,1,2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "run",
            "--input",
            str(path),
            "--min-weight",
            "10",
            "--method",
            "cl",
        )
        assert code == 2
        assert "ZeroTotalWeight" in err

    @pytest.mark.parametrize(
        "min_weight, communities",
        [("0", [["a", "b", "c", "d"]]), ("2", [["a", "b", "c"], ["d"]])],
    )
    def test_zero_lower_bounds_and_isolated_vertex(
        self, capsys, tmp_path, min_weight, communities
    ):
        # every lower bound is 0, and --min-weight 2 leaves d without an edge:
        # the adjusted totals that vanish give expected endpoints of 0
        path = tmp_path / "zero.csv"
        path.write_text(ZERO_LOWER_CSV, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "run", "--input", str(path), "--method", "cl",
            "--min-weight", min_weight, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final"]["communities"] == communities
        assert doc["final"]["q"] == 0.0

    def test_zero_q_max_gives_null_q_norm(self, capsys, tmp_path):
        # the run merges everything into one community, whose Q_max is 0
        path = tmp_path / "qmax0.csv"
        path.write_text("src,dst,lo,hi\na,b,1,5\nb,c,1,4\nc,d,0.5,1\nd,a,1,3\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "run", "--input", str(path), "--method", "cl", "--min-weight", "2",
            "--format", "json", "--trace",
        )
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["final"]["q_max"] == 0.0
        assert doc["final"]["q_norm"] is None

    @pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
    @pytest.mark.parametrize(
        "records",
        [
            ["a,b,{w}"],  # one edge
            ["a,b,{w}", "b,c,{w}", "c,d,{w}", "d,a,{w}", "a,c,{w}"],  # a 4-cycle with one chord
        ],
    )
    @pytest.mark.parametrize(
        "w", ["0.1844793926425332,1.4280981177310619", "0.1,0.1", "1e-160,1e-160"]
    )
    def test_one_weighted_row_has_no_q_norm(self, capsys, tmp_path, method, records, w):
        # each run ends as one community: Q_max is exactly 0, not the rounding
        # residue that made Q_norm 1.0, and a Q near 0 prints unsigned, as
        # the oracle's best Q of the same partition does. At
        # [1e-160,1e-160] the square of the total weight is below the normal
        # float range, where the products of strengths lose their precision:
        # every method refuses it
        path = tmp_path / "one.csv"
        path.write_text("\n".join(["src,dst,lo,hi", *records]).format(w=w) + "\n", encoding="utf-8")
        argv = ["run", "--input", str(path), "--method", method]
        if w.startswith("1e-160"):
            for fmt in ("text", "json"):
                code, out, err = run_cli(capsys, *argv, "--format", fmt)
                assert (code, out) == (2, "")
                assert err.startswith("error: InvalidInterval: total weight ")
                assert err.endswith(" underflows when squared\n")
            return
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        final = json.loads(out)["final"]
        assert len(final["communities"]) == 1
        assert (final["q_max"], final["q_norm"]) == (0.0, None)
        code, out, _ = run_cli(capsys, *argv, "--trace")
        assert code == 0
        assert "Q_max  = 0.000000\nQ_norm = nan\n" in out
        assert "(Qmax=0.000000)" in out
        q_lines = [line for line in out.splitlines() if "odularity" in line or line.startswith("Q")]
        assert not [line for line in q_lines if "-0.000" in line]
        code, out, _ = run_cli(capsys, "oracle", "--input", str(path), "--metric", method)
        assert code == 0
        assert "\nbest Q = 0.000000\nbest partition (n=1):\n" in out

    @pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_total_exit_2(self, capsys, tmp_path, method, fmt):
        # every weight is finite, but the total weight overflows to inf:
        # an error, never a silent inf or nan in the output; the oracle
        # refuses it alike, where it printed best Q = -inf or nan
        path = tmp_path / "overflow.csv"
        path.write_text(
            "src,dst,lo,hi\na,b,1e308,1.5e308\nb,c,1e308,1.5e308\nc,d,1,1\n", encoding="utf-8"
        )
        for argv in (
            ["run", "--input", str(path), "--method", method, "--format", fmt],
            ["oracle", "--input", str(path), "--metric", method],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: InvalidInterval: non-finite endpoint in [inf, inf]\n"

    @pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_squared_total_exit_2(self, capsys, tmp_path, method, fmt):
        # the total weight is finite but its square is not, which every
        # track's products of strengths would reach: no Q = -inf or gain=-inf
        # in the text, no traceback from the JSON encoder; nor a best Q = -inf
        # from the oracle
        path = tmp_path / "overflow.csv"
        path.write_text("src,dst,lo,hi\na,b,1e155,2e155\nb,c,1,1\n", encoding="utf-8")
        for argv in (
            ["run", "--input", str(path), "--method", method, "--format", fmt],
            ["oracle", "--input", str(path), "--metric", method],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == (
                "error: InvalidInterval: total weight 4e+155 overflows when squared\n"
            )

    def test_aggregate_total_squared_past_the_largest_float_exit_2(self, capsys, tmp_path):
        # from a seeded search: the input's total 1.3407807929942594e+154
        # squares to a finite value, but cl's first aggregate sums it in
        # another order, to a total whose square overflows. Its pass state
        # refuses it with the input check's message. hl and midpoint sum
        # smaller totals and keep their output
        weights = [
            (0, 1, 9.04479902653535e152), (0, 3, 1.1279179124960882e153),
            (0, 4, 1.2520255869425055e152), (0, 5, 2.3085633414916643e152),
            (1, 2, 6.786310729726847e152), (1, 4, 2.176404445225176e152),
            (1, 5, 3.1422836394930374e152), (2, 3, 2.7367420349524968e152),
            (2, 4, 1.5291558749785731e153), (3, 5, 8.256822130754916e152),
            (4, 5, 4.7643508398443655e152),
        ]
        path = tmp_path / "level.csv"
        rows = [f"v{s},v{d},0.0,{hi!r}" for s, d, hi in weights]
        path.write_text("\n".join(["src,dst,lo,hi", *rows]) + "\n", encoding="utf-8")
        argv = ["run", "--input", str(path), "--undirected", "--method"]
        assert run_cli(capsys, *argv, "cl") == (2, "", (
            "error: InvalidInterval: total weight 1.3407807929942597e+154 overflows when squared\n"
        ))
        for method, digest in (
            ("hl", "0d512cd6019e77601f60907657a59b27430fec93f9b5e17e9e9d3b7f0b326697"),
            ("midpoint", "155905cfda836c03f149d814cb7bb42549691d0d9a3c6c293899799e9b2de484"),
        ):
            code, out, err = run_cli(capsys, *argv, method)
            assert (code, err, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, "", digest)

    @pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
    def test_subnormal_weights_exit_2(self, capsys, tmp_path, method):
        # every midpoint (0 + 5e-324) / 2 rounds to 0.0, so the scalar tracks
        # have no weight, and cl's upper bounds are a total that squares to 0:
        # every method refuses the total before it prices a move
        path = tmp_path / "subnormal.csv"
        path.write_text("src,dst,lo,hi\na,b,0,5e-324\nb,c,0,5e-324\n", encoding="utf-8")
        got, out, err = run_cli(capsys, "run", "--input", str(path), "--method", method)
        assert (got, out) == (2, "")
        assert err == "error: InvalidInterval: total weight 2e-323 underflows when squared\n"

    def test_iteration_limit_exit_2(self, capsys, toy_csv, monkeypatch):
        # pass 1 on the reference network needs two sweeps
        monkeypatch.setattr(louvain, "SWEEP_LIMIT", 1)
        code, _, err = run_cli(capsys, "run", "--input", toy_csv, "--method", "cl")
        assert code == 2
        assert "IterationLimit" in err

    def test_empty_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst,lo,hi\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 2
        assert "EmptyNetwork" in err


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_rounding_ties_do_not_stop_phase_1_from_ending(capsys, tmp_path, method):
    path = tmp_path / "cycling.csv"
    path.write_text(CYCLING_CSV, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--input", str(path), "--method", method, "--trace")
    assert (code, err) == (0, "")
    assert "final communities" in out


def _pairs_csv(path, pairs, triple=False):
    """``pairs`` disjoint edges (a community each), and with ``triple`` one
    path of three vertices more (one community)."""
    lines = ["src,dst,lo,hi", *(f"a{i},b{i},1,2" for i in range(pairs))]
    if triple:
        lines += ["p0,p1,1,2", "p1,p2,1,2"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestOutputSize:
    """Every output is O(n + m): matrices above ``DENSE_LIMIT`` vertices are
    edge lists, in the trace, the text summary and the JSON document."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_thousand_disjoint_edges_write_under_2_mb(self, tmp_path, fmt, trace):
        # 2,000 vertices end as 1,000 communities: a dense matrix of either
        # size wrote 10.8 MB (text) to 100.2 MB (JSON with the trace)
        csv, out = _pairs_csv(tmp_path / "pairs.csv", 1000), tmp_path / "out"
        argv = ["run", "--input", csv, "--method", "cl", "--format", fmt, "--out", str(out)]
        assert main(argv + ["--trace"] * trace) == 0
        assert out.stat().st_size < 2_000_000
        if fmt == "json":
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert len(doc["aggregated_matrix"]["edges"]) == 1000

    @pytest.mark.parametrize(
        "pairs, triple, initial, final",
        [(100, False, 200, 100), (99, True, 201, 100), (200, False, 400, 200), (201, False, 402, 201)],
    )
    def test_matrices_are_dense_up_to_200_vertices(self, capsys, tmp_path, pairs, triple, initial, final):
        csv = _pairs_csv(tmp_path / "pairs.csv", pairs, triple)
        code, out, _ = run_cli(capsys, "run", "--input", csv, "--method", "cl", "--trace")
        assert code == 0
        lines = out.splitlines()

        def matrix_head(title, n, skip=0):
            head = lines[lines.index(title) + 1 + skip]
            if n <= network.DENSE_LIMIT:  # the dense header row: every column label
                assert head.startswith("  ") and len(head.split()) == n
            else:
                assert head.endswith(" edges (i <= j):") and head.startswith(f"{n} vertices, ")

        matrix_head("Initial Interval-Weighted Network:", initial)
        matrix_head("Final Interval-weighted network:", final, skip=1)
        matrix_head("final aggregated interval matrix:", final)


class TestOracleCommand:
    def test_reference_optimum(self, capsys, toy_csv):
        code, out, _ = run_cli(
            capsys, "oracle", "--input", toy_csv, "--metric", "cl"
        )
        assert code == 0
        assert "partitions evaluated: 15" in out
        assert "C1: v1, v2" in out
        assert "C2: v3, v4" in out

    def test_zero_lower_bounds(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(ZERO_LOWER_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "oracle", "--input", str(path), "--metric", "cl")
        assert code == 0
        assert "C1: a, b, c, d" in out

    def test_single_vertex(self, capsys, tmp_path):
        # ingest drops the self-loop, so the one vertex has no weight: the
        # oracle refuses it as run does
        path = tmp_path / "one.csv"
        path.write_text("src,dst,lo,hi\na,a,1,2\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "oracle", "--input", str(path), "--metric", "midpoint"
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: ZeroTotalWeight: network has no weight\n")

    def test_bell_five(self, capsys, tmp_path):
        path = tmp_path / "five.csv"
        rows = ["src,dst,lo,hi"] + [f"n{i},n{i+1},1,2" for i in range(4)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "oracle", "--input", str(path), "--metric", "hl"
        )
        assert code == 0
        assert "partitions evaluated: 52" in out

    def test_too_large_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        rows = ["src,dst,lo,hi"] + [f"m{i},m{i+1},1,2" for i in range(12)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "oracle", "--input", str(path), "--metric", "cl"
        )
        assert code == 2
        assert "TooLarge" in err


# Run in a child without ``site`` (-S), so that nothing but the import
# itself can load a module; PYTHONPATH still applies. Each line printed
# is the set of watched modules loaded so far, or, after the import and
# each run, how many typing.ForwardRef objects have been made (each one
# compiles its annotation string; typing.NamedTuple makes one per field).
COLD_START = """
import contextlib
import io
import os
import sys
import typing

forward_refs = 0
make_forward_ref = typing.ForwardRef.__init__

def counting(self, *args, **kwargs):
    global forward_refs
    forward_refs += 1
    make_forward_ref(self, *args, **kwargs)

typing.ForwardRef.__init__ = counting
import iwnet.cli

WATCHED = {"argparse", "gettext", "dataclasses", "iwnet.oracle", "iwnet.trace", "tempfile",
           "iwnet.modularity", "iwnet.scalar", "json", "csv"}
path, method, *last = sys.argv[1:]
argv = ["run", "--input", path, "--method", method, "--format", "json", "--out", os.devnull]

def loaded():
    print(sorted(WATCHED & set(sys.modules)), flush=True)
    print(f"ForwardRefs: {forward_refs}", flush=True)

loaded()
assert iwnet.cli.main(argv) == 0
loaded()
assert iwnet.cli.main([*argv, "--trace"]) == 0
loaded()
assert iwnet.cli.main(["oracle", f"--input={path}", "--metric", method]) == 0
loaded()
try:  # help or a usage error: argparse answers and exits
    with contextlib.redirect_stdout(io.StringIO()):
        iwnet.cli.main([*argv, *last])
except SystemExit as exc:
    loaded()
    print(exc.code)
"""


def test_cold_start_loads_only_what_run_needs(tmp_path):
    """``import iwnet.cli`` loads neither ``argparse`` nor ``gettext``, nor
    ``dataclasses``, the reference module, the trace renderer,
    ``tempfile``, ``json`` or ``csv``; no run and no oracle loads ``json``
    or ``csv`` either (ingest reads through ``_csv``, the C reader).
    In a fresh process, an untraced JSON run of each strategy
    loads only its own gain kind's module (``iwnet.modularity`` for ``cl``,
    ``iwnet.scalar`` for ``hl`` and ``midpoint``), and a traced run adds the
    renderer and ``tempfile``, for its spool, only (a stray lookup of a
    reference name on the run path would load the reference module,
    silently). The oracle loads the reference module, and a usage error
    argparse. None of them makes a ``typing.ForwardRef``. Every name in the
    ``__all__`` of the package and of each of its modules resolves, the
    ones the package resolves on first use too, and the decision log is
    ``iwnet.trace``'s alone."""
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    src = str(Path(iwnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        ("cl", "iwnet.modularity", ["--help"], 0),
        ("hl", "iwnet.scalar", ["--min-weight", "-1e3"], 2),
        ("midpoint", "iwnet.scalar", ["--format", "xml"], 2),
    ]
    for method, kind, last, code in runs:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", COLD_START, str(path), method, *last],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (loaded, refs, by_run, run_refs, by_traced_run, traced_refs, *report,
         by_oracle, oracle_refs, by_argparse, _, exit_code) = proc.stdout.splitlines()
        # the package's records are plain named tuples: no annotation is compiled
        assert refs == run_refs == traced_refs == oracle_refs == "ForwardRefs: 0"
        assert loaded == "[]"
        assert by_run == str([kind])
        assert by_traced_run == str(sorted([kind, "iwnet.trace", "tempfile"]))
        assert report[-3:] == ["best partition (n=2):", "  C1: v1, v2", "  C2: v3, v4"]
        oracle_loaded, argparse_loaded = map(ast.literal_eval, (by_oracle, by_argparse))
        assert "iwnet.oracle" in oracle_loaded
        assert not {"argparse", "json", "csv"} & set(oracle_loaded)
        assert {"argparse", "gettext"} <= set(argparse_loaded)
        assert not {"json", "csv"} & set(argparse_loaded)
        assert int(exit_code) == code
    # every exported name resolves, the package's and each module's: a stale
    # export fails here
    names = [m.name for m in pkgutil.iter_modules(iwnet.__path__)]
    for module in [iwnet, *(importlib.import_module(f"iwnet.{name}") for name in names)]:
        for name in getattr(module, "__all__", ()):
            getattr(module, name)
    with pytest.raises(AttributeError):
        iwnet.no_such_name
    # the decision log has one home, iwnet.trace
    assert not hasattr(louvain, "decisions") and not hasattr(louvain, "Decision")


@pytest.mark.parametrize("method", ["cl", "hl", "midpoint"])
def test_traced_run_renders_through_module_names(monkeypatch, tmp_path, method):
    """The benchmark's spans wrap ``louvain.format_matrix`` and
    ``cli.run_louvain``: a traced run calls the run once through the CLI
    module and renders each matrix of its trace (the input, each changed
    pass's aggregate and the final network) once through the louvain
    module, both looked up at call time, also with the renderer imported
    before the wrappers are set. ``midpoint``'s input renders as its
    degenerate projection, the weights its first pass prices."""
    import iwnet.trace  # loaded first: a name it bound at import would miss the wrappers

    path = tmp_path / "net.csv"
    net = random_network(random.Random(63), 30, density=0.15)
    lines = ["src,dst,lo,hi"]
    lines += [f"{net.labels[i]},{net.labels[j]},{w.lo!r},{w.hi!r}" for i, j, w in net.edges()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fmt, run_louvain = louvain.format_matrix, iwnet.cli.run_louvain
    rendered, runs = [], []
    monkeypatch.setattr(louvain, "format_matrix", lambda m: rendered.append(m) or fmt(m))
    monkeypatch.setattr(
        iwnet.cli, "run_louvain", lambda *a: runs.append(run_louvain(*a)) or runs[-1]
    )
    out = tmp_path / "out.json"
    argv = ["run", "--input", str(path), "--method", method, "--trace", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 0
    monkeypatch.undo()
    (result,) = runs
    changed = [rec.aggregated for rec in result.passes if rec.changed]
    assert len(changed) >= 2
    first = result.network
    if method == "midpoint":
        labels = first.labels
        first = iwnet.IWNetwork.from_edges(
            labels, [(labels[i], labels[j], w.midpoint, w.midpoint) for i, j, w in first.edges()]
        )
    assert rendered == [first, *changed, result.final_network]
    assert json.loads(out.read_text(encoding="utf-8"))["trace"] == iwnet.emit_trace(result)


# The program entry in a child: sys.argv holds an untraced JSON run. The
# lines printed say whether main() froze more objects than were frozen
# before (some Python versions start with a few frozen), and whether the
# collector is still enabled after it.
PROGRAM_ENTRY = """
import gc
import os
import sys
from iwnet.cli import main

before = gc.get_freeze_count()
sys.argv = ["iwnet", "run", "--input", sys.argv[1], "--method", "cl", "--format", "json",
            "--out", os.devnull]
code = main()
print(gc.get_freeze_count() > before)
print(gc.isenabled())
sys.exit(code)
"""

# ingest drops one self-loop and one record below --min-weight 1: two warnings
WARNED_CSV = TOY_CSV + "v1,v1,1,2\nv2,v4,0,0.5\n"
WARNINGS = (
    "warning: dropped 1 self-loop record(s)\n"
    "warning: dropped 1 record(s) below --min-weight 1.0\n"
)
# an edge [0, 5e-324] has the midpoint 0.0, which the scalar track leaves out
ZERO_MIDPOINT_CSV = "src,dst,lo,hi\nv1,v2,1,3\nv2,v3,0,5e-324\nv1,v3,1,1\nv3,v4,2,4\n"


def _entry_runs():
    """The runs of ``test_nothing_written_at_exit_is_lost``: the CSV, the
    command and its flags but ``--input``, whether the output goes to
    ``--out``, the exit code and stderr."""
    traced = ["--trace", "--format", "json"]
    for method in louvain.NAMES:
        for pairs in ([], ["--undirected"]):
            for to_file in (False, True):
                argv = ["run", "--method", method, *pairs, "--min-weight", "1", *traced]
                name = "-".join([method, *(p[2:] for p in pairs), *["out"] * to_file])
                yield pytest.param(WARNED_CSV, argv, to_file, 0, WARNINGS, id=name)
        argv = ["run", "--method", method, *traced]
        yield pytest.param(ZERO_MIDPOINT_CSV, argv, False, 0, "", id=f"{method}-zero-midpoint")
    # 2,000 vertices: the matrices of the trace are edge lists (see TestOutputSize)
    pairs = "src,dst,lo,hi\n" + "".join(f"a{i},b{i},1,2\n" for i in range(1000))
    yield pytest.param(pairs, ["run", "--method", "cl", *traced], False, 0, "", id="cl-edge-list")
    yield pytest.param(TOY_CSV, ["oracle", "--metric", "cl"], False, 0, "", id="oracle")
    # with --undirected, a pair given in both directions is malformed input
    reversed_pair = "src,dst,lo,hi\nv1,v2,1,3\nv2,v1,1,1\n"
    yield pytest.param(reversed_pair, ["run", "--method", "cl", "--undirected"], False, 1,
                       "error: line 3: duplicate record v2->v1\n", id="reversed-pair")


class TestProgramEntry:
    """``main()`` with no arguments is the program, which exits when it
    returns: it freezes the garbage collector at entry, so the collections
    at exit skip the start-up objects, and disables it for the run.
    ``main(argv)`` leaves the collector as it was."""

    def test_program_freezes_the_collector(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV, encoding="utf-8")
        src = str(Path(iwnet.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", PROGRAM_ENTRY, str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\nFalse\n", "")

    def test_call_with_argv_leaves_the_collector(self, capsys, toy_csv):
        before = gc.get_freeze_count(), gc.isenabled()
        argv = ["run", "--input", toy_csv, "--method", "cl", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, (gc.get_freeze_count(), gc.isenabled())) == (0, before)
        assert json.loads(out)["method"] == "cl"

    @pytest.mark.parametrize("csv, argv, to_file, code, err", _entry_runs())
    def test_nothing_written_at_exit_is_lost(self, tmp_path, csv, argv, to_file, code, err):
        """Under ``-X dev -W error`` each run through the program entry exits
        with its code, and stderr holds its own lines only: no warning, the
        package's or one at exit, and no "Exception ignored" line. A traced
        JSON run writes whole JSON, to stdout or to ``--out``."""
        path, out = tmp_path / "in.csv", tmp_path / "out.json"
        path.write_text(csv, encoding="utf-8")
        command, *flags = argv
        src = str(Path(iwnet.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "iwnet.cli", command,
             "--input", str(path), *flags, *["--out", str(out)] * to_file],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, err)
        if to_file:
            assert proc.stdout == ""
        text = out.read_text(encoding="utf-8") if to_file else proc.stdout
        if "--trace" in flags:
            doc = json.loads(text)
            labels = {label for line in csv.splitlines()[1:] for label in line.split(",")[:2]}
            assert doc["method"] == flags[1]
            assert doc["trace"] and doc["final"]["membership"].keys() == labels
        elif command == "oracle":
            assert text.endswith("best partition (n=2):\n  C1: v1, v2\n  C2: v3, v4\n")
        else:
            assert text == ""


def test_output_independent_of_hash_seed(tmp_path):
    """``iwnet run --trace --format json`` prints the same bytes under two
    string-hash seeds: no output order comes from iterating a set or a
    hash-ordered container."""
    net = random_network(random.Random(62), 60, density=0.08)
    lines = ["src,dst,lo,hi"]
    for i, row in enumerate(net.rows):
        for j, w in row.items():
            if i < j:  # both directions, the reverse with a narrower interval
                lines += [f"{net.labels[i]},{net.labels[j]},{w.lo!r},{w.hi!r}",
                          f"{net.labels[j]},{net.labels[i]},{w.lo!r},{(w.lo + w.hi) / 2!r}"]
    path = tmp_path / "net.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(iwnet.__file__).resolve().parent.parent)
    for method in ("cl", "hl", "midpoint"):
        outs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "iwnet.cli", "run", "--input", str(path),
                 "--method", method, "--trace", "--format", "json"],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        doc = json.loads(outs[0])
        assert len(doc["final"]["membership"]) >= 50 and doc["passes"][0]["changed"]
        assert outs[0] == outs[1], method


# a label that an ASCII stdout cannot hold
UNENCODABLE_CSV = TOY_CSV.replace("v2", "\u00e9")


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--method", "cl"], id="text"),
    pytest.param(["run", "--method", "cl", "--trace"], id="trace"),
    pytest.param(["oracle", "--metric", "cl"], id="oracle"),
])
def test_unencodable_stdout_exit_1(tmp_path, argv):
    """Under ``-X dev -W error``, a stdout whose encoding cannot hold a
    label ends the program with exit code 1 and one ``error:`` line, no
    traceback. The JSON document is ASCII, so the same run with
    ``--format json`` writes it to that stdout."""
    path = tmp_path / "in.csv"
    path.write_text(UNENCODABLE_CSV, encoding="utf-8")
    src = str(Path(iwnet.__file__).resolve().parent.parent)
    command, *flags = argv

    def child(*more):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "iwnet.cli", command,
             "--input", str(path), *flags, *more],
            env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"),
            capture_output=True, text=True, encoding="ascii", timeout=60,
        )

    proc = child()
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: 'ascii' codec can't encode character '\\xe9'")
    assert "Traceback" not in proc.stderr
    if command == "run":
        proc = child("--format", "json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "\u00e9" in json.loads(proc.stdout)["final"]["membership"]


# strings with the characters JSON escapes or spells as they are
_texts = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x7f", "\x00", "\x1f", "\n", "\u2028", "\ud800", "\U0001f600"]),
))
_documents = st.recursive(
    st.one_of(
        _texts,
        st.integers(),
        st.integers(min_value=-(2**200), max_value=2**200),
        st.booleans(),
        st.none(),
        st.floats(),
        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    ),
    lambda items: st.one_of(
        st.lists(items),
        st.dictionaries(_texts, items),
    ),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_documents)
@example(float("inf"))
@example([{"q": -math.inf}])
@example({"a": [[], {}, [[]], float("nan")]})
def test_writer_is_json_dumps(value):
    """``cli._dumps(value, "\\n")`` is ``json.dumps(value, indent=2,
    allow_nan=False)``, and both raise ``ValueError`` on a non-finite float."""
    try:
        expected = json.dumps(value, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            cli._dumps(value, "\n")
    else:
        assert cli._dumps(value, "\n") == expected


def _reference_parser():
    """The argparse parser ``iwnet`` had before it read plain argvs itself,
    built as it was then: the reference for both of today's parsers."""
    parser = argparse.ArgumentParser(
        prog="iwnet",
        description="Community detection in interval-weighted networks.",
    )
    net_p = argparse.ArgumentParser(add_help=False)
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
    run_p.add_argument("--method", required=True, choices=louvain.NAMES)
    run_p.add_argument("--trace", action="store_true", help="include the full trace")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", help="write output to this path instead of stdout")
    oracle_p = sub.add_parser("oracle", parents=[net_p], help="exhaustive search (n <= 12)")
    oracle_p.add_argument("--metric", required=True, choices=louvain.NAMES)
    return parser


def _answer(parse, argv):
    """(exit code or None, stdout, stderr, result) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


def _values(args):
    """The arguments of a namespace, each value as its repr: nan equals nan,
    and 1 differs from 1.0."""
    return None if args is None else {key: repr(value) for key, value in vars(args).items()}


FLAG_NAMES = [flag for flag, _ in cli.INPUT_FLAGS]
FLAG_NAMES += [flag for _, flags in cli.COMMANDS.values() for flag, _ in flags]
# abbreviations (one of them ambiguous under run), help, the end of options, unknown flags
ODD_FLAGS = ["--inp", "--meth", "--m", "--f", "--tr", "--u", "-h", "--help", "--", "--nope", "-x"]
# a bad choice, nan, negatives, an empty value, and values that equal a flag or a command
ODD_VALUES = ["CL", "xml", "nan", "-5", "-1e3", "-.5", "", "--input", "--trace", "-h", "oracle"]
FORMS = ["alone", "next", "="]  # no value, the value as the next token, or after "="


def _good_values(spec):
    if "action" in spec:
        return [None]
    if "choices" in spec:
        return list(spec["choices"])
    if "type" in spec:
        return ["0", "2.5", "1e3", " 1", "1_0", "inf"]
    return ["in.csv", "out.json", "a=b", "run"]


def _tokens(flag, form, value):
    if value is None or form == "alone":
        return [flag]
    return [flag, value] if form == "next" else [f"{flag}={value}"]


def _command_argvs(command):
    """Argvs of ``command``: its required flags first in three argvs of
    four, then items that are one of its flags with a good value (one in
    two), one of its flags with an awkward value or none, or an awkward
    flag."""
    specs = dict((*cli.INPUT_FLAGS, *cli.COMMANDS[command][1]))
    flags = list(specs)

    def good(flag):
        values = _good_values(specs[flag])
        return st.tuples(st.just(flag), st.sampled_from(FORMS[1:]), st.sampled_from(values))

    item = st.one_of(
        st.sampled_from(flags).flatmap(good),
        st.sampled_from(flags).flatmap(good),
        st.tuples(st.sampled_from(flags), st.sampled_from(FORMS), st.sampled_from(ODD_VALUES)),
        st.tuples(
            st.sampled_from(FLAG_NAMES + ODD_FLAGS),
            st.sampled_from(FORMS),
            st.sampled_from(ODD_VALUES + _good_values(specs["--input"])),
        ),
    )
    required = [flag for flag in flags if specs[flag].get("required")]
    start = st.permutations(required).flatmap(lambda order: st.tuples(*map(good, order)))
    return st.tuples(st.one_of(st.just(()), start, start, start), st.lists(item, max_size=5)).map(
        lambda t: [command, *(token for item in (*t[0], *t[1]) for token in _tokens(*item))]
    )


_argvs = st.one_of(
    _command_argvs("run"),
    _command_argvs("oracle"),
    st.sampled_from([[], ["bogus"], ["-h"], ["ru"], ["--input", "in.csv"]]),
)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(_argvs)
def test_plain_argv_parser_agrees_with_argparse(argv):
    """The plain parser reads an argv exactly as argparse does, or leaves it
    to argparse (None); and the argparse built from the flag table answers
    every argv, help and usage errors included, as the reference does."""
    code, out, err, args = _answer(_reference_parser().parse_args, argv)
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert code is None
        assert _values(plain) == _values(args)
    got_code, got_out, got_err, got_args = _answer(cli._parse, argv)
    assert (got_code, got_out, got_err, _values(got_args)) == (code, out, err, _values(args))


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["run", "-h"],
        ["oracle", "-h"],
        ["run", "--input", "flows.csv", "--method", "cl", "--min-weight", "-1e3"],
    ],
)
def test_help_and_usage_errors_are_argparse_output(argv):
    """``main`` answers help and the README's unattached negative value with
    the reference parser's exit code, stdout and stderr."""
    expected = _answer(_reference_parser().parse_args, argv)
    assert expected[0] == (2 if "-1e3" in argv else 0)
    assert _answer(main, argv)[:3] == expected[:3]
    if "-1e3" in argv:
        assert expected[2].endswith("error: argument --min-weight: expected one argument\n")
