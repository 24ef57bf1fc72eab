"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_database, main


@pytest.fixture
def db_file(tmp_path):
    spec = {
        "relations": {
            "R": {"arity": 2, "tuples": [[1, 2], [2, 3], [3, 3]]},
        }
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestLoadDatabase:
    def test_basic(self, db_file):
        db = load_database(db_file)
        assert len(db) == 3
        assert db.relation("R").arity == 2

    def test_exogenous_flag(self, tmp_path):
        spec = {"relations": {"H": {"arity": 1, "exogenous": True, "tuples": [[7]]}}}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(spec))
        db = load_database(str(path))
        assert db.relation("H").exogenous

    def test_arity_mismatch(self, tmp_path):
        spec = {"relations": {"R": {"arity": 2, "tuples": [[1]]}}}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError):
            load_database(str(path))

    def test_scalar_rows_for_unary(self, tmp_path):
        spec = {"relations": {"A": {"arity": 1, "tuples": [1, 2]}}}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(spec))
        assert len(load_database(str(path))) == 2


class TestCommands:
    def test_classify_hard(self, capsys):
        assert main(["classify", "R(x,y), R(y,z)"]) == 0
        out = capsys.readouterr().out
        assert "NP-complete" in out and "chain" in out

    def test_classify_easy(self, capsys):
        assert main(["classify", "A(x), R(x,y), R(z,y), C(z)"]) == 0
        out = capsys.readouterr().out
        assert "is P" in out

    def test_solve(self, capsys, db_file):
        assert main(["solve", "R(x,y), R(y,z)", db_file]) == 0
        out = capsys.readouterr().out
        assert "rho = 2" in out

    def test_solve_unbreakable_is_an_input_error(self, capsys, tmp_path):
        # Every witness is exogenous, so no deletion falsifies the query.
        spec = {"relations": {"R": {
            "arity": 2, "exogenous": True, "tuples": [[1, 2], [2, 3]],
        }}}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "R(x,y), R(y,z)", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert "exogenous" in lines[0]

    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "q_chain" in out and "q_AC3conf" in out

    def test_ijp_found(self, capsys):
        assert main(["ijp", "R(x), S(x,y), R(y)", "--max-joins", "1"]) == 0
        assert "IJP found" in capsys.readouterr().out

    def test_ijp_not_found(self, capsys):
        assert main(["ijp", "R(x,y), R(y,x)", "--budget", "3000"]) == 1
        assert "no IJP" in capsys.readouterr().out

    def test_ijp_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert main(
            [
                "ijp", "sweep",
                "--queries", "q_z7,q_S3cc",
                "--copies", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "q_S3cc" in out and "q_z7" in out
        assert "shards resumed" in out
        payload = json.loads(out_path.read_text())
        assert payload["sweep_schema"] >= 1
        table = {row["query"]: row for row in payload["table"]}
        assert table["q_S3cc"]["first_certificate_k"] == 1
        assert table["q_z7"]["first_certificate_k"] is None
        # Rerun resumes every shard from the checkpoint directory.
        assert main(
            [
                "ijp", "sweep",
                "--queries", "q_z7,q_S3cc",
                "--copies", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        assert "0 shards resumed" not in capsys.readouterr().out

    def test_ijp_sweep_unknown_query(self, capsys):
        assert main(["ijp", "sweep", "--queries", "q_nonsense"]) == 2
        assert "unknown zoo queries" in capsys.readouterr().err

    def test_ijp_sweep_random_queries(self, capsys):
        assert main(
            ["ijp", "sweep", "--queries", "q_z7", "--copies", "1",
             "--random", "2", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "rand_3occ_3_0" in out and "rand_3occ_3_1" in out

    def test_bench(self, capsys):
        assert main(
            [
                "bench",
                "--databases", "2",
                "--domain-size", "4",
                "--repeat", "2",
                "--compare",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "pairs:" in out
        assert "methods:" in out
        assert "witness structures built" in out
        assert "speedup" in out

    def test_bench_unknown_query(self, capsys):
        assert main(["bench", "--queries", "q_nonsense"]) == 2
        assert "unknown zoo queries" in capsys.readouterr().err

    def test_bench_incompatible_vocabulary(self, capsys):
        # q_chain's binary R clashes with q_vc's unary R.
        assert main(["bench", "--queries", "q_chain,q_vc"]) == 2
        assert "incompatible query set" in capsys.readouterr().err

    def test_bench_custom_queries(self, capsys):
        assert main(
            ["bench", "--queries", "q_chain,q_perm", "--databases", "2",
             "--domain-size", "4"]
        ) == 0
        assert "2 queries" in capsys.readouterr().out

    def test_serve_check(self, capsys):
        """`repro serve --check` binds an ephemeral port, round-trips
        /health over a real socket, and exits cleanly (the CI smoke)."""
        assert main(["serve", "--check", "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving resilience on http://127.0.0.1:" in out
        assert '"status": "ok"' in out
