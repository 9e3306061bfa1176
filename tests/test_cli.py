import argparse
import hashlib
import json

import pytest

import compedge.ideals
from compedge.cli import build_parser, main
from compedge.graphs import cycle_graph, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


C4_EDGES = "4 4;1 2;2 3;3 4;4 1"
PAW_EDGES = "4 4;1 2;1 3;2 3;3 4"


class TestAnalyze:
    def test_cycle_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--edges", C4_EDGES, "--kmax", "3")
        assert code == 0
        assert "Analysis of Cl" in out
        assert "[[1, 3], [2, 4]]" in out  # stable Ass
        assert "class predicate True, I^2 == I^(2) True" in out
        assert "FAIL" not in out

    def test_graph6_input_equivalent(self, capsys):
        code_a, out_a, _ = run(capsys, "analyze", "--edges", C4_EDGES, "--kmax", "2")
        code_b, out_b, _ = run(
            capsys, "analyze", "--graph6", to_graph6(cycle_graph(4)), "--kmax", "2"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_paw_embedded_prime_and_v(self, capsys):
        code, out, _ = run(capsys, "analyze", "--edges", PAW_EDGES, "--kmax", "2")
        assert code == 0
        assert "P_[1, 2, 3, 4]: observed 2" in out
        assert "| 2 |" in out and "3/3" in out  # v(I^2) = 3

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--edges", C4_EDGES, "--kmax", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["graph"]["graph6"] == "Cl"
        assert data["summary"]["ass"] is True

    # SHA-256 of the markdown report and of the JSON report without
    # timings_ms; both print each vertex set as a list
    PINNED = {
        ("--graph6", "DQc"): (
            1,
            "1887932cff86fa251bb51116d0c477040cce10687accbc61cdb2c5c82daddd53",
            "b511f771443225aa11580ed615dee80633455a386958e1da3d8d6bf955e392aa",
        ),
        ("--edges", PAW_EDGES): (
            0,
            "f0a6c80d1012b127d4dc8f4957b437040c1983a247ef9c57a5e1e1df1976b4f0",
            "0e4b0c498064632208b35e264d0d5b4e6af991ef0e31da07bc08d2e507680d82",
        ),
        ("--graph6", to_graph6(cycle_graph(5))): (
            0,
            "6c84d89a365529ad16f4e5480947819702256ec160d7a0e55556a94e3b1db43f",
            "6d9207e24eef235e66fc3bd79c42dfb5d45ada568166fb887378f4644144dd7d",
        ),
    }

    @pytest.mark.parametrize("flag, value", list(PINNED), ids=["DQc", "paw", "C5"])
    def test_reports_are_pinned(self, capsys, flag, value):
        # every check at k <= 3, entry-bound rows included
        code, markdown, _ = run(capsys, "analyze", flag, value)
        code_json, text, _ = run(capsys, "analyze", flag, value, "--format", "json")
        data = json.loads(text)
        del data["timings_ms"]
        text = json.dumps(data, sort_keys=True, indent=2)

        def sha256(s):
            return hashlib.sha256(s.encode()).hexdigest()

        assert (code, sha256(markdown), sha256(text)) == self.PINNED[flag, value]
        assert code_json == code
        if value == "DQc":
            # P5, labeled so that no vertex set reads as in its canonical form
            assert "| 2 | [[1, 2], [1, 4], [2, 3], [2, 5], [3, 4], [3, 5], [2, 3, 5]] | None |" in markdown
            assert "    - P_[2, 3, 5]: observed 2, bound 1\n" in markdown

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--edges", "4 1;1 1")
        assert code == 2 and "error:" in err

    def test_kmax_below_one_is_usage_error(self, capsys):
        for command in (["analyze", "--edges", C4_EDGES], ["sweep", "--nmax", "3"]):
            code, out, err = run(capsys, *command, "--kmax", "0")
            assert code == 2 and out == "" and "k_max" in err

    def test_graph_outside_the_hypotheses_is_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--edges", "3 0")
        assert code == 2 and out == "" and "at least one edge" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--edges", C4_EDGES, "--graph6", "Cl"
        )
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--edges", C4_EDGES, "--budget-ms", "0"
        )
        assert code == 3

    def test_limit_skips_exit_code(self, capsys, monkeypatch):
        # every box-scanning check skips on the one box limit, even for a
        # class whose results earlier tests memoized; the skip reasons of
        # depth-stable and strong-persistence do not count
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 1)
        code, out, _ = run(capsys, "analyze", "--edges", C4_EDGES, "--kmax", "2")
        assert code == 3
        assert "ass: SKIPPED (limit: divisor box has 16 cells, limit 1)" in out
        assert "reg: SKIPPED (limit: divisor box has 16 cells, limit 1)" in out
        assert "FAIL" not in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--kmax", "1")
        assert code == 0 and "Analysis of Cl" in out


class TestSweep:
    def test_small_sweep_passes(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "sweep",
            "--nmax",
            "4",
            "--kmax",
            "2",
            "--checks",
            "ass,localization,v,symbolic",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "Graphs checked: 63" in out
        lines = (tmp_path / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 63
        assert (tmp_path / "summary.md").read_text() == out

    def test_characteristic_that_is_not_a_prime_is_usage_error(self, capsys):
        for checks, primes in (("ass", "4"), ("reg", "2,4")):
            code, out, err = run(
                capsys, "sweep", "--nmax", "3", "--kmax", "1", "--checks", checks, "--primes", primes
            )
            assert code == 2 and out == "" and "characteristic must be a small prime" in err

    def test_repeated_characteristic_is_usage_error(self, capsys):
        # analyze and betti build the same config, so they refuse it too
        for command in (
            ["sweep", "--nmax", "3", "--checks", "betti-field-independence"],
            ["analyze", "--edges", C4_EDGES],
            ["betti", "--graph6", "Cl"],
        ):
            code, out, err = run(capsys, *command, "--kmax", "1", "--primes", "2,2")
            assert code == 2 and out == "" and "repeat a characteristic" in err

    def test_failing_check_nonzero_exit(self, capsys):
        # the entry-bound corollary fails on the stars, so exit is 1
        code, out, _ = run(
            capsys, "sweep", "--nmax", "4", "--kmax", "3", "--checks", "entry-bound"
        )
        assert code == 1
        assert "## Failures" in out

    def test_limit_defaults_are_the_library_constants(self):
        from compedge.resolution import DEFAULT_QUOTIENTS_LIMIT
        from compedge.verify import SweepConfig

        args = build_parser().parse_args(["sweep", "--nmax", "3"])
        assert args.lq_limit == SweepConfig().lq_limit == DEFAULT_QUOTIENTS_LIMIT

    def test_census_beyond_limit_is_parse_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--nmax", "7", "--checks", "ass")
        assert code == 2
        assert "census limited to n <= 6" in err
        assert out == ""

    def test_nmin_above_nmax_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--nmax", "4", "--nmin", "5")
        assert code == 2 and out == "" and "n_min" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--graph6", "Cl", "--budget-ms", "-1"],
            ["analyze", "--graph6", "Cl", "--budget-ms", "nan"],
            ["analyze", "--graph6", "Cl", "--lq-limit", "0"],
            ["analyze", "--graph6", "Cl", "--lq-limit", "-1"],
        ],
    )
    def test_out_of_range_run_setting_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--kmax", "1")
        setting = argv[-2].lstrip("-").replace("-", "_")
        assert code == 2 and out == "" and f"{setting} must be at least" in err

    def test_unknown_check_is_parse_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--nmax", "3", "--checks", "bogus")
        assert code == 2

    def test_replaying_reports_reproduces_exit_semantics(self, capsys, tmp_path):
        run(
            capsys,
            "sweep",
            "--nmax",
            "3",
            "--checks",
            "ass,v",
            "--out",
            str(tmp_path),
        )
        rows = [
            json.loads(line)
            for line in (tmp_path / "reports.jsonl").read_text().splitlines()
        ]
        replay_ok = all(
            outcome is not False
            for row in rows
            for outcome in row["summary"].values()
        )
        assert replay_ok


class TestBetti:
    def test_matching_regularity(self, capsys):
        code, out, _ = run(
            capsys,
            "betti",
            "--edges",
            "4 2;1 2;3 4",
            "--kmax",
            "1",
            "--primes",
            "2",
        )
        assert code == 0
        assert "reg = 3" in out and "total:" in out

    def test_triangle_power_regularity(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--edges", "3 3;1 2;1 3;2 3", "--kmax", "2", "--primes", "2"
        )
        assert code == 0
        assert "reg = 1" in out and "reg = 2" in out

    def test_ideal_json_input(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(
            json.dumps(
                {"ambient": 4, "generators": [[1, 1, 0, 0], [1, 0, 1, 1]]}
            )
        )
        code, out, _ = run(
            capsys, "betti", "--ideal-json", str(path), "--kmax", "1", "--primes", "2"
        )
        assert code == 0
        assert "reg = 3" in out  # mixed-degree ideal: reg I = (n-1)k = 3

    # SHA-256 of the printed tables and invariants
    PINNED = {
        "Cl": "c5a4da138429c43490462737c4c504009869ca18dbe09625d2624337f60c2bf9",
        "ideal-json": "16cfca302efe087787144fba5acfb3d98e92429877c577ca558557c3ad549fb3",
    }

    def test_output_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        gens = [[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [1, 0, 1, 0, 1], [0, 1, 1, 1, 1], [1, 1, 0, 1, 1]]
        path.write_text(json.dumps({"ambient": 5, "generators": gens}))
        runs = {
            "Cl": ("--graph6", "Cl", "--kmax", "3", "--primes", "2,3"),
            "ideal-json": ("--ideal-json", str(path), "--kmax", "2", "--primes", "2,3"),
        }
        for name, argv in runs.items():
            code, out, _ = run(capsys, "betti", *argv)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, self.PINNED[name]), name

    def test_requires_exactly_one_input(self, capsys, tmp_path):
        # an ideal file with a graph beside it printed the file's tables
        # and dropped the graph without a word
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"ambient": 2, "generators": [[1, 1]]}))
        for inputs in (
            [],
            ["--ideal-json", str(path), "--graph6", "Cl"],
            ["--ideal-json", str(path), "--graph6", "Cl", "--edges", "3 1;1 2"],
            ["--graph6", "Cl", "--edges", "3 1;1 2"],
        ):
            code, out, err = run(capsys, "betti", *inputs, "--kmax", "1")
            assert code == 2 and out == "", inputs
            assert "provide exactly one of --edges, --graph6, --file, --ideal-json" in err, inputs

    def test_over_limit_box_is_budget_exit(self, capsys, tmp_path):
        # (x1^9, ..., x7^9): a divisor box of 10^7 cells, over the Betti limit
        path = tmp_path / "ideal.json"
        gens = [[9 if j == i else 0 for j in range(7)] for i in range(7)]
        path.write_text(json.dumps({"ambient": 7, "generators": gens}))
        code, out, err = run(capsys, "betti", "--ideal-json", str(path))
        assert code == 3
        assert err == "error: divisor box has 10000000 cells, limit 5000000\n"
        assert out == ""

    def test_kmax_below_one_is_usage_error(self, capsys):
        for kmax in ("0", "-2"):
            code, out, err = run(capsys, "betti", "--graph6", "Cl", "--kmax", kmax)
            assert code == 2 and out == "" and "k_max" in err

    def test_non_integer_exponent_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        for bad in (1.5, True, "1"):
            path.write_text(json.dumps({"ambient": 2, "generators": [[bad, 1], [0, 2]]}))
            code, out, err = run(capsys, "betti", "--ideal-json", str(path), "--kmax", "1")
            assert code == 2 and out == "" and "must be integers" in err, bad

    @pytest.mark.parametrize(
        "data",
        [{}, {"ambient": 2}, {"generators": [[1, 0]]}, [1, 2], {"ambient": 2, "generators": 5}, {"ambient": 2, "generators": [5]}],
    )
    def test_ideal_json_of_the_wrong_shape_is_parse_error(self, capsys, tmp_path, data):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "betti", "--ideal-json", str(path), "--kmax", "1")
        assert code == 2 and out == "" and err.startswith("error: ideal JSON"), data

    def test_bad_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "betti", "--ideal-json", str(path))
        assert code == 2


class TestOptionSurface:
    """Each subcommand registers exactly the flags it reads."""

    FLAGS = {
        "analyze": {
            "--edges", "--graph6", "--file", "--kmax", "--primes", "--out",
            "--format", "--budget-ms", "--lq-limit",
        },
        "sweep": {
            "--nmax", "--nmin", "--checks", "--kmax", "--primes",
            "--out", "--budget-ms", "--lq-limit",
        },
        "betti": {"--edges", "--graph6", "--file", "--ideal-json", "--kmax", "--primes", "--out"},
    }

    def test_each_subcommand_has_exactly_its_flags(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(self.FLAGS)
        for name, sub in subs.choices.items():
            flags = {s for action in sub._actions for s in action.option_strings}
            assert flags - {"-h", "--help"} == self.FLAGS[name], name
        assert {name: len(flags) for name, flags in self.FLAGS.items()} == {
            "analyze": 9,
            "sweep": 8,
            "betti": 7,
        }

    def test_unread_flags_are_usage_errors(self, capsys, tmp_path):
        cache = tmp_path / "D"
        for argv in (
            ["betti", "--graph6", "Cl", "--kmax", "1", "--format", "json"],
            ["betti", "--graph6", "Cl", "--kmax", "1", "--budget-ms", "0"],
            ["betti", "--graph6", "Cl", "--kmax", "1", "--cache-dir", str(cache)],
            ["analyze", "--graph6", "Cl", "--cache-dir", str(cache)],
            ["sweep", "--nmax", "3", "--cache-dir", str(cache)],
            ["sweep", "--nmax", "3", "--format", "json"],
            ["sweep", "--nmax", "3", "--workers", "2"],
            ["analyze", "--graph6", "Cl", "--divisor-limit", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "", argv
            assert "unrecognized arguments" in out.err, argv
        assert not cache.exists()
