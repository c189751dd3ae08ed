"""Command-line interface: reports, exit codes, determinism."""
import io
import json
from decimal import Decimal
from math import comb

from deltaforest.cli import main
from conftest import EXAMPLE9_TEXT, KEEL_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_keel_report(self, capsys):
        code, out, err = run(capsys, "eval", KEEL_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "ZeroByKeel"
        assert report["value"] == "0"
        assert report["sign"] is None
        assert list(report) == ["input", "classification", "value", "sign"]

    def test_nine_label_report(self, capsys):
        code, out, err = run(capsys, "eval", EXAMPLE9_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "TreeMonomial"
        assert report["value"] == "2"
        assert report["sign"] == 1

    def test_empty_monomial(self, capsys):
        code, out, _ = run(capsys, "eval", "n=3; 1")
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "eval", "--plain", EXAMPLE9_TEXT)
        assert code == 0
        assert out == "2\n"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "eval", "--trace", EXAMPLE9_TEXT)
        assert code == 0
        report = json.loads(out)
        assert [r["stage"] for r in report["stages"]][:2] == [
            "loaded_tree",
            "weighted_tree",
        ]

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "n=5; d(1|2,3,4,5)")
        assert code == 2
        assert "position" in err

    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "eval", "--oracle", EXAMPLE9_TEXT)
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_stdin_batch(self, capsys, monkeypatch):
        lines = f"{KEEL_TEXT}\n\nn=3; 1\n{EXAMPLE9_TEXT}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "eval", "--stdin")
        assert code == 0
        values = [json.loads(line)["value"] for line in out.splitlines()]
        assert values == ["0", "1", "2"]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(EXAMPLE9_TEXT + "\n")
        code, out, _ = run(capsys, "eval", "--plain", "--file", str(path))
        assert code == 0
        assert out == "2\n"

    def test_value_beyond_int_str_digit_limit(self, capsys):
        # comb(19996, 9998) has over 6000 digits
        low = ",".join(map(str, range(1, 10001)))
        high = ",".join(map(str, range(10001, 20001)))
        text = f"n=20000; d({low}|{high})^19997"
        for command in ("eval", "oracle"):
            code, out, err = run(capsys, command, text)
            assert code == 0, err
            value = json.loads(out)["value"]
            assert len(value) > 4300
            assert Decimal(value) == Decimal(comb(19996, 9998))

    def test_deterministic_output(self, capsys):
        first = run(capsys, "eval", "--trace", EXAMPLE9_TEXT)
        second = run(capsys, "eval", "--trace", EXAMPLE9_TEXT)
        assert first == second


class TestSubprocess:
    def test_real_process_round_trip(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "deltaforest.cli", "eval", EXAMPLE9_TEXT]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-identical across runs
        assert json.loads(first.stdout)["value"] == "2"


class TestDisagreement:
    def test_forced_disagreement_exits_3(self, capsys, monkeypatch):
        import deltaforest.cli as cli

        monkeypatch.setattr(cli, "oracle_eval", lambda t, **kw: 999)
        code, out, err = run(capsys, "eval", "--oracle", EXAMPLE9_TEXT)
        assert code == 3
        assert "disagreement" in err


class TestOracleCommand:
    def test_same_report_shape(self, capsys):
        code, out, _ = run(capsys, "oracle", EXAMPLE9_TEXT)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "2"
        assert report["sign"] == 1

    def test_keel_zero(self, capsys):
        code, out, _ = run(capsys, "oracle", KEEL_TEXT)
        assert code == 0
        assert json.loads(out)["value"] == "0"


class TestTree:
    def test_json_matches_structure(self, capsys):
        code, out, _ = run(capsys, "tree", EXAMPLE9_TEXT)
        assert code == 0
        data = json.loads(out)
        label_sets = sorted(tuple(v["labels"]) for v in data["vertices"])
        assert label_sets == [(), (1, 2, 3), (4, 5), (6, 7), (8, 9)]
        assert sorted(e["multiplicity"] for e in data["edges"]) == [1, 1, 1, 3]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "--format", "dot", "n=3; 1")
        assert code == 0
        assert out.startswith("graph G {")
        assert '"{1,2,3}"' in out

    def test_crossing_exits_2(self, capsys):
        code, out, err = run(capsys, "tree", KEEL_TEXT)
        assert code == 2
        assert "cross" in err

    def test_empty_nontrivial_exits_2(self, capsys):
        code, _, err = run(capsys, "tree", "n=5; 1")
        assert code == 2


class TestRandom:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "random", "3", "--count", "1", "--seed", "0")
        assert code == 0
        assert out == "n=3; 1\n"

    def test_batch_parses_and_classifies(self, capsys):
        from deltaforest import Classification, classify, parse_monomial

        code, out, _ = run(capsys, "random", "12", "--count", "100", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 100
        for line in lines:
            kind = classify(parse_monomial(line))
            assert kind in (Classification.TREE_MONOMIAL, Classification.CLEVER)

    def test_deterministic(self, capsys):
        a = run(capsys, "random", "9", "--count", "20", "--seed", "3")
        b = run(capsys, "random", "9", "--count", "20", "--seed", "3")
        assert a == b

    def test_small_n_exits_2(self, capsys):
        code, _, err = run(capsys, "random", "2")
        assert code == 2

    def test_negative_count_exits_2(self, capsys):
        code, out, err = run(capsys, "random", "5", "--count", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_random_feeds_oracle_check(self, capsys):
        code, out, _ = run(capsys, "random", "10", "--count", "25", "--seed", "11")
        assert code == 0
        for line in out.splitlines():
            code2, out2, _ = run(capsys, "eval", "--oracle", "--plain", line)
            assert code2 == 0
