"""Command line interface behaviour."""

import json

import pytest

from hypart.cli import main


MATRIX = """%%MatrixMarket matrix coordinate pattern general
12 12 24
1 1
2 1
2 2
3 2
3 3
4 3
4 4
5 4
5 5
6 5
6 6
7 6
7 7
8 7
8 8
9 8
9 9
10 9
10 10
11 10
11 11
12 11
12 12
1 12
"""


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "ring.mtx"
    path.write_text(MATRIX)
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestCli:
    def test_success_writes_partition_and_stats(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "ring.part"
        stats = tmp_path / "ring.stats.json"
        code = run_cli(["--input", matrix_file, "--k", 2, "--epsilon", 0.1,
                        "--seed", 7, "--runs", 1, "--out", out, "--stats", stats])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert set(lines) <= {"0", "1"}
        document = json.loads(stats.read_text())
        for key in ("overall", "build", "recursion", "projection", "hcg",
                    "matching", "coarsening", "initpart", "refinement",
                    "cost", "imbalance", "runs"):
            assert key in document
        assert document["overall"] >= document["build"]
        assert len(document["runs"]) == 1
        assert document["runs"][0]["seed"] == 7
        summary = capsys.readouterr().out
        assert "cost=" in summary

    def test_quiet_suppresses_summary(self, matrix_file, tmp_path, capsys):
        code = run_cli(["--input", matrix_file, "--quiet",
                        "--out", tmp_path / "p", "--stats", tmp_path / "s"])
        assert code == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [
        ["--k", 1], ["--epsilon", 0], ["--epsilon", 1], ["--runs", 0],
    ], ids=["k-1", "epsilon-0", "epsilon-1", "runs-0"])
    def test_bad_config_is_usage_error(self, matrix_file, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--input", matrix_file, *flags,
                     "--out", tmp_path / "p", "--stats", tmp_path / "s"])
        assert excinfo.value.code == 1

    def test_config_is_checked_before_input(self, tmp_path):
        # A bad option wins over a missing input file: exit 1, not 2.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--input", tmp_path / "absent.mtx", "--epsilon", 0])
        assert excinfo.value.code == 1

    # The similarity and clustering thresholds come from the input, so no
    # flag sets them.
    @pytest.mark.parametrize("flags", [
        ["--frobnicate"], ["--sim-threshold", 0.5], ["--clus-threshold", 0.5],
    ], ids=["frobnicate", "sim-threshold", "clus-threshold"])
    def test_unknown_flag_rejected(self, matrix_file, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--input", matrix_file, *flags])
        assert excinfo.value.code == 1

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(["--input", tmp_path / "absent.mtx"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_input_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not a matrix\n")
        code = run_cli(["--input", bad, "--out", tmp_path / "p",
                        "--stats", tmp_path / "s"])
        assert code == 2

    @pytest.mark.parametrize("header, message", [
        ("%%MatrixMarket matrix coordinate pattern", "malformed header"),
        ("%%MatrixMarket matrix coordinate double general",
         "unsupported field type 'double'"),
        ("%%MatrixMarket matrix coordinate pattern upper", "unsupported symmetry 'upper'"),
    ], ids=["header", "field", "symmetry"])
    def test_unsupported_header_is_runtime_error(self, tmp_path, capsys, header, message):
        bad = tmp_path / "bad.mtx"
        bad.write_text(header + "\n2 2 1\n1 1\n")
        code = run_cli(["--input", bad, "--out", tmp_path / "p",
                        "--stats", tmp_path / "s"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hypart: {bad}: {message}")
        assert not (tmp_path / "p").exists()

    def test_unwritable_output_is_runtime_error(self, matrix_file, tmp_path, capsys):
        code = run_cli(["--input", matrix_file, "--out", tmp_path / "missing" / "p",
                        "--stats", tmp_path / "s"])
        assert code == 2
        assert capsys.readouterr().err.startswith("hypart: cannot write output: ")

    @pytest.mark.parametrize("text", [
        b"%%MatrixMarket matrix coordinate pattern gen\xffral\n3 2 4\n1 1\n2 1\n2 2\n3 2\n",
        b"%%MatrixMarket matrix coordinate pattern general\n3 2 4\n1 1\n2 1\n2 2\n3 \xff2\n",
    ], ids=["header", "entry"])
    def test_undecodable_input_is_runtime_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(text)
        code = run_cli(["--input", bad, "--out", tmp_path / "p",
                        "--stats", tmp_path / "s"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"hypart: {bad}: ")
        assert err.count("\n") == 1

    def test_infeasible_balance_is_runtime_error(self, tmp_path, capsys):
        # Three unit rows cannot split into two parts of weight 1.47-1.53.
        path = tmp_path / "three.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "3 2 4\n1 1\n2 1\n2 2\n3 2\n")
        code = run_cli(["--input", path, "--k", 2, "--epsilon", 0.02,
                        "--out", tmp_path / "p", "--stats", tmp_path / "s"])
        assert code == 2
        assert "cannot split into 2 parts" in capsys.readouterr().err

    def test_deterministic_partition_bytes(self, matrix_file, tmp_path):
        out1 = tmp_path / "a.part"
        out2 = tmp_path / "b.part"
        for out in (out1, out2):
            code = run_cli(["--input", matrix_file, "--k", 2, "--seed", 3,
                            "--quiet", "--out", out, "--stats", tmp_path / "s.json"])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_runs_and_weights_flags(self, matrix_file, tmp_path):
        stats = tmp_path / "s.json"
        code = run_cli(["--input", matrix_file, "--k", 2, "--runs", 3,
                        "--edge-weights", "size", "--quiet",
                        "--out", tmp_path / "p", "--stats", stats])
        assert code == 0
        document = json.loads(stats.read_text())
        assert len(document["runs"]) == 3
        assert document["mean_cost"] >= document["cost"]

    def test_stats_list_the_bisections(self, matrix_file, tmp_path):
        stats = tmp_path / "s.json"
        code = run_cli(["--input", matrix_file, "--k", 4, "--quiet",
                        "--out", tmp_path / "p", "--stats", stats])
        assert code == 0
        document = json.loads(stats.read_text())
        records = document["bisections"]
        assert len(records) == 3   # k=4 needs three bisections
        for record in records:
            assert set(record) == {"levels", "window", "r", "s", "clusters", "cost",
                                   "coarsest", "dense_fm", "fallback"}
            assert len(record["r"]) == len(record["s"]) == len(record["clusters"]) \
                == record["levels"]
            assert set(record["coarsest"]) == {"vertices", "hyperedges", "pins"}
            assert 0 <= record["dense_fm"] <= record["levels"] + 1
            assert record["fallback"] in (True, False)
        assert sum(record["cost"] for record in records) == document["cost"]

    def test_default_output_paths(self, matrix_file):
        code = run_cli(["--input", matrix_file, "--quiet"])
        assert code == 0
        assert matrix_file.with_name("ring.mtx.part").exists()
        assert matrix_file.with_name("ring.mtx.stats.json").exists()
