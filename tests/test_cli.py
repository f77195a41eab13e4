import json

import pytest

from iwnet import louvain
from iwnet.cli import main

from helpers import normalize_lines

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
        assert doc["aggregated_matrix"]["labels"] == ["v1,v2", "v3,v4"]
        assert doc["aggregated_matrix"]["weights"] == [
            [[2.0, 6.0], [2.0, 2.0]],
            [[2.0, 2.0], [4.0, 8.0]],
        ]
        assert [p["iterations"] for p in doc["passes"]] == [2, 1]
        assert [p["changed"] for p in doc["passes"]] == [True, False]

    def test_json_roundtrip_exact(self, capsys, toy_csv):
        _, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "hl", "--format", "json"
        )
        doc = json.loads(out)
        again = json.loads(json.dumps(doc))
        assert again["aggregated_matrix"]["weights"] == doc["aggregated_matrix"]["weights"]
        assert again["final"]["membership"] == doc["final"]["membership"]

    def test_hl_final_matrix(self, capsys, toy_csv):
        code, out, _ = run_cli(
            capsys, "run", "--input", toy_csv, "--method", "hl", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["aggregated_matrix"]["weights"] == [
            [[1.0, 3.0], [1.0, 1.0]],
            [[1.0, 1.0], [2.0, 4.0]],
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
        code, _, err = run_cli(
            capsys, "run", "--input", str(path), "--undirected", "--method", "cl"
        )
        assert code == 1
        assert "duplicate" in err.lower()

    def test_self_loop_warning(self, capsys, tmp_path):
        path = tmp_path / "loop.csv"
        path.write_text("src,dst,lo,hi\na,a,5,6\na,b,1,2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--method", "cl")
        assert code == 0
        assert "dropped 1 self-loop" in err

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
        path = tmp_path / "one.csv"
        path.write_text("src,dst,lo,hi\na,a,1,2\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "oracle", "--input", str(path), "--metric", "midpoint"
        )
        assert code == 0
        assert "partitions evaluated: 1" in out

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
