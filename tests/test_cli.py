import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelfiber import cli, fiber, toric, verify
from borelfiber.cli import main
from borelfiber.instances import suite_tables
from borelfiber.toric import SPairFailure

from helpers import cli_by_objects, mono
from test_bench_contract import load_bench
from test_readme import readme_cli_argvs

FIG = "{a^2c^3,b^4c}"
# The full parser's usage line, whitespace collapsed.
FULL_USAGE = "usage: borelfiber [-h] {gens,fiber,sink,toric-gb,rees-gb,verify-unique-sinks,"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGens:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "--ideal", FIG)
        assert code == 0
        data = json.loads(out)
        assert data["variables"] == ["a", "b", "c"]
        assert len(data["generators"]) == 14
        assert data["generators"][0] == {"monomial": "b^4c", "tag": "G_N"}

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "--ideal", FIG, "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "Y_0\tb^4c\tG_N"
        assert out.splitlines()[13] == "Y_13\ta^2c^3\tG_M"

    def test_json_descriptor_input(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(
            json.dumps({"variables": ["a", "b", "c"], "borel_generators": ["a^2c^3", "b^4c"]})
        )
        code, out, _ = run_cli(capsys, "gens", "--input", str(path))
        assert code == 0
        assert len(json.loads(out)["generators"]) == 14

    def test_vector_syntax_in_descriptor(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(
            json.dumps({"variables": ["a", "b", "c"], "borel_generators": ["[2,0,3]", "[0,4,1]"]})
        )
        code, out, _ = run_cli(capsys, "gens", "--input", str(path))
        assert code == 0
        assert json.loads(out)["borel_generators"] == ["a^2c^3", "b^4c"]

    def test_nvars_extends_inferred_context(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "--ideal", "{a^2,ab}", "--nvars", "3")
        assert code == 0
        assert json.loads(out)["variables"] == ["a", "b", "c"]


class TestFiber:
    def test_dot_figure(self, capsys):
        code, out, _ = run_cli(
            capsys, "fiber", "--ideal", FIG, "--mu", "a^3b^9c^3", "--format", "dot"
        )
        assert code == 0
        assert out.count("label=") == 7
        assert out.count(" -> ") == 12

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "--ideal", FIG, "--mu", "a^3b^9c^3")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 7
        assert len(data["edges"]) == 12
        assert len(data["sinks"]) == 1

    def test_bound_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "fiber", "--ideal", FIG, "--mu", "a^6b^18c^6", "--bound", "3"
        )
        assert code == 2
        assert "t-degree" in err

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "fiber", "--ideal", FIG, "--mu", "a^3b^9c^3")
        _, second, _ = run_cli(capsys, "fiber", "--ideal", FIG, "--mu", "a^3b^9c^3")
        assert first == second


class TestSink:
    def test_generator_fiber(self, capsys):
        code, out, _ = run_cli(capsys, "sink", "--ideal", FIG, "--mu", "a^2c^3", "--format", "text")
        assert code == 0
        assert out.strip() == "Y_{a^2c^3}"

    def test_figure_sink_json(self, capsys):
        code, out, _ = run_cli(capsys, "sink", "--ideal", FIG, "--mu", "a^3b^9c^3")
        assert code == 0
        data = json.loads(out)
        assert data["sink"] == ["b^5", "ab^4", "a^2c^3"]
        assert data["agrees_with_graph"] is True

    def test_empty_fiber(self, capsys):
        code, out, _ = run_cli(capsys, "sink", "--ideal", FIG, "--mu", "c^7")
        assert code == 0
        assert json.loads(out)["sink"] is None

    def test_deep_sink(self, capsys):
        code, out, _ = run_cli(capsys, "sink", "--ideal", FIG, "--mu", "[1500,4500,1500]")
        assert code == 0
        factors = [mono(f) for f in json.loads(out)["sink"]]
        assert len(factors) == 1500
        assert tuple(map(sum, zip(*factors))) == (1500, 4500, 1500)


class TestBases:
    def test_toric_gb(self, capsys):
        code, out, _ = run_cli(capsys, "toric-gb", "--ideal", "{b^2}", "--nvars", "2")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 1
        assert data["elements"][0]["lead"] == ["ab", "ab"]

    def test_rees_gb(self, capsys):
        code, out, _ = run_cli(capsys, "rees-gb", "--ideal", "{b^2}", "--nvars", "2")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3

    def test_oracle_gb(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "3")
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == 3
        assert data["leads_outside_quadric_leads"] == []

    def test_oracle_gb_lists_only_normal_words_above_degree_2(self, capsys):
        # 115 generators make 190,578,023 words of 1..5 of them; the oracle
        # builds only the normal ones above degree 2, one per fiber here.
        start = time.perf_counter()
        argv = ("oracle-gb", "--ideal", "{ac^2e^3,b^3d^3}", "--bound", "5", "--format", "text")
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out == "5698 basis elements at bound 5; 0 leads outside the quadric leads\n"

    def test_oracle_gb_with_a_cubic_lead(self, capsys):
        # The three-Borel example's completion gains a cubic lead partway
        # through its walk, so the rest of it reduces by the general path.
        argv = ("oracle-gb", "--ideal", "{a^3c^3,b^6,a^2b^2c^2}", "--bound", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 73
        assert data["leads_outside_quadric_leads"] == [["a^2b^2c^2"] * 3]


class TestVerify:
    def test_unique_sinks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-unique-sinks", "--ideal", FIG, "--bound", "3")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "PASS"
        assert data["violations"] == []
        assert data["multidegrees_checked"] > 100

    def test_unique_sinks_at_bound_4_on_five_variables(self, capsys):
        # 115 generators: the scan meets each of the 15813 fibers once.
        code, out, _ = run_cli(
            capsys, "verify-unique-sinks", "--ideal", "{ac^2e^3,b^3d^3}", "--bound", "4"
        )
        assert code == 0
        assert json.loads(out) == {
            "status": "PASS",
            "multidegrees_checked": 15813,
            "violations": [],
        }

    @pytest.mark.parametrize(
        "ideal, bound, checked",
        [("{a^2e^14,d^16}", "2", 49318), ("{ac^3e^2f^4,b^2d^4e^4}", "3", 232826)],
    )
    def test_unique_sinks_on_a_large_table(self, capsys, ideal, bound, checked):
        # 3,349 and 1,731 generators: the lead masks come from the unit
        # moves, with no degree-2 pair listed, so each sweep takes seconds.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify-unique-sinks", "--ideal", ideal, "--bound", bound)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out) == {
            "status": "PASS",
            "multidegrees_checked": checked,
            "violations": [],
        }

    def test_buchberger_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-buchberger", "--ideal", FIG)
        assert code == 0
        assert json.loads(out)["toric"]["status"] == "PASS"

    def test_buchberger_with_rees(self, capsys):
        code, out, _ = run_cli(capsys, "verify-buchberger", "--ideal", "{ac,b^2}", "--rees")
        assert code == 0
        data = json.loads(out)
        assert data["toric"]["status"] == "PASS"
        assert data["rees"]["status"] == "PASS"


def contract_calls(table) -> list[list[str]]:
    """Every command but ``counterexample`` on ``table``, in every format it takes."""
    roots, g, n = table.to_json()["borel_generators"], table.generators, table.context.n
    ideal = ["--ideal", "{%s}" % ",".join(roots), "--nvars", str(n)]
    # Two products of generators, and one outside the semigroup: an empty fiber.
    mus = [(g[0], g[-1]), (g[0], g[len(g) // 2], g[-1]), (g[0], (1,) + (0,) * (n - 1))]
    mus = ["[%s]" % ",".join(map(str, map(sum, zip(*factors)))) for factors in mus]
    calls = [["fiber", *ideal, "--mu", mu, "--format", "dot"] for mu in mus]
    for fmt in ("json", "text"):
        calls += [
            [*argv, *ideal, "--format", fmt]
            for argv in (
                ["gens"],
                ["toric-gb"],
                ["toric-gb", "--interreduce"],
                ["rees-gb"],
                ["verify-unique-sinks", "--bound", "2"],
                ["verify-buchberger", "--rees"],
                ["oracle-gb", "--bound", "3"],
                *(["fiber", "--mu", mu] for mu in mus),
                *(["sink", "--mu", mu] for mu in mus),
            )
        ]
    return calls


class TestOutputContract:
    """Each command's stdout and exit code equal the reference ``helpers.cli_by_objects``.

    The reference lays out the JSON and the text apart from the library's
    objects; the commands read their text off the JSON payload.
    """

    def assert_matches_the_reference(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (*cli_by_objects(argv), ""), argv

    @pytest.mark.parametrize(
        "table", [suite_tables(200)[i] for i in range(0, 200, 20)], ids=lambda t: str(t.roots)
    )
    def test_every_command_and_format(self, capsys, table):
        for argv in contract_calls(table):
            self.assert_matches_the_reference(capsys, argv)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_counterexample(self, capsys, fmt):
        for r in (3, 4):
            argv = ["counterexample", "--r", str(r), "--format", fmt]
            self.assert_matches_the_reference(capsys, argv)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_violations_exit_one(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(verify, "_lead_masks", lambda table: [0] * len(table.generators))
        failure = SPairFailure(0, 1, (1, 1, 2))
        monkeypatch.setattr(toric, "_check_overlaps", lambda rules, n: (1, [failure]))
        for command in (["verify-unique-sinks", "--bound", "2"], ["verify-buchberger", "--rees"]):
            argv = [*command, "--ideal", "{ac,b^2}", "--format", fmt]
            assert run_cli(capsys, *argv)[0] == cli.EXIT_VIOLATION
            self.assert_matches_the_reference(capsys, argv)

    def test_a_json_call_builds_no_text(self, capsys, monkeypatch):
        calls = [
            ["toric-gb", "--ideal", FIG],
            ["rees-gb", "--ideal", FIG],
            ["fiber", "--ideal", FIG, "--mu", "a^3b^9c^3"],
        ]
        expected = [run_cli(capsys, *argv) for argv in calls]

        def refuse(names):
            raise AssertionError("a JSON call labelled a point")

        monkeypatch.setattr(cli, "factors_label", refuse)
        assert [run_cli(capsys, *argv, "--format", "json") for argv in calls] == expected
        assert all(code == cli.EXIT_OK for code, _, _ in expected)
        # The text view reads the patched label, so the patch is live.
        assert run_cli(capsys, *calls[0], "--format", "text")[0] == cli.EXIT_INTERNAL


class TestCounterexample:
    def test_r3_reports_the_cubic_generator(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--r", "3")
        assert code == 0
        data = json.loads(out)
        assert data["borel_generators"] == ["a^3c^3", "b^6", "a^2b^2c^2"]
        assert data["multidegree"] == "a^6b^6c^6"
        assert data["separated"] is True
        assert data["relation_reduces_modulo_quadrics"] is False
        assert data["finding"] == "cubic minimal toric generator at a^6b^6c^6"

    # The harness checks the reduced quadric basis, whose critical monomials
    # these are; the full list has 402, 26,588 and 592,058.
    @pytest.mark.parametrize("r, pairs", [(3, 365), (4, 25446), (5, 581477)])
    def test_quadrics_pass_the_overlap_check(self, capsys, r, pairs):
        code, out, _ = run_cli(capsys, "counterexample", "--r", str(r))
        assert code == 0
        data = json.loads(out)
        assert data["quadric_buchberger"] == {
            "status": "PASS",
            "pairs_checked": pairs,
            "failures": [],
        }
        assert (data["components"], data["separated"]) == (2, True)
        assert data["relation_reduces_modulo_quadrics"] is False

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_the_full_quadric_list_gives_the_same_answer(self, capsys, monkeypatch, r):
        # Same ideal and leads: the full list is Groebner exactly when the
        # reduced basis is, and both give the same normal forms then.
        _, reduced, _ = run_cli(capsys, "counterexample", "--r", str(r))
        build = cli.quadric_generators
        monkeypatch.setattr(cli, "quadric_generators", lambda table, interreduce=False: build(table))
        _, full, _ = run_cli(capsys, "counterexample", "--r", str(r))
        reduced, full = json.loads(reduced), json.loads(full)
        assert full["quadric_buchberger"]["pairs_checked"] > reduced["quadric_buchberger"]["pairs_checked"]
        for data in (reduced, full):
            del data["quadric_buchberger"]["pairs_checked"]
        assert full == reduced
        assert (full["components"], full["quadric_buchberger"]["status"]) == (2, "PASS")

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--r", "3"],
            ["counterexample", "--r", "4"],
            ["verify-buchberger", "--ideal", FIG],
            ["verify-buchberger", "--ideal", "{ac,b^2}", "--rees"],
        ],
    )
    def test_verifiers_take_the_reduced_basis(self, capsys, monkeypatch, argv):
        # The full quadric list has the same ideal and leads, so it is Groebner
        # exactly when the reduced basis is; the verifiers check the smaller one.
        build = cli.quadric_generators

        def reduced_only(table, interreduce=False):
            if not interreduce:
                raise AssertionError("the full quadric list was built")
            return build(table, interreduce)

        monkeypatch.setattr(cli, "quadric_generators", reduced_only)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")

    def test_r3_text(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--r", "3", "--format", "text")
        assert code == 0
        assert out.strip() == "cubic minimal toric generator at a^6b^6c^6"

    def test_r_validation(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--r", "2")
        assert code == 2
        assert "at least 3" in err


class TestErrors:
    def test_missing_ideal(self, capsys):
        code, _, err = run_cli(capsys, "gens")
        assert code == 2
        assert "exactly one" in err

    def test_both_ideal_sources(self, capsys):
        code, _, _ = run_cli(capsys, "gens", "--ideal", FIG, "--input", "x.json")
        assert code == 2

    def test_bad_monomial(self, capsys):
        code, _, err = run_cli(capsys, "gens", "--ideal", "{a^2c^3,zz}")
        assert code == 2

    def test_non_ascii_exponent(self, capsys):
        code, _, err = run_cli(capsys, "gens", "--ideal", "{a^\u00b2c^3,b^4c}")
        assert code == 2
        assert "missing exponent after '^'" in err

    def test_degree_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "gens", "--ideal", "{a^2,b^3}")
        assert code == 2
        assert "degree" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, code, usage",
        [
            ([], 2, FULL_USAGE),
            (["-h"], 0, FULL_USAGE),
            (["nosuch"], 2, FULL_USAGE),
            (["sink", "-h"], 0, "usage: borelfiber sink [-h] [--ideal IDEAL]"),
            (["gens", "--bound", "3", "--ideal", FIG], 2, FULL_USAGE),
            (["sink", "--ideal=" + FIG], 2, "usage: borelfiber sink [-h] [--ideal IDEAL]"),
            (["sink", "--id", FIG, "--mu"], 2, "usage: borelfiber sink [-h] [--ideal IDEAL]"),
            (["gens", "--i", FIG], 2, "usage: borelfiber gens [-h] [--ideal IDEAL]"),
            (
                ["gens", "--ideal", FIG, "--format", "text", "--format", "DOT"],
                2,
                "usage: borelfiber gens [-h] [--ideal IDEAL]",
            ),
        ],
    )
    def test_usage_output_matches_the_full_parser(self, capsys, argv, code, usage):
        # main reads only canonical lines off the command table; help and
        # every other line, abbreviations, ``--option=value`` and repeats
        # included, go to the full parser, which prints every message.
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (exc.value.code or 0) == code
        assert run_cli(capsys, *argv) == (code, full.out, full.err)
        assert " ".join((full.out + full.err).split()).startswith(usage)

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "gens", "--input", "/nonexistent.json")
        assert code == 2

    def test_non_string_variables(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": [1, 2, 3], "borel_generators": ["a^2c^3", "b^4c"]}))
        code, _, err = run_cli(capsys, "gens", "--input", str(path))
        assert code == 2
        assert "'variables' must be a list of strings" in err

    def test_string_borel_generators(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["a", "b", "c"], "borel_generators": "a^2c^3"}))
        code, _, err = run_cli(capsys, "gens", "--input", str(path))
        assert code == 2
        assert "'borel_generators' list of strings" in err
        assert "got" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gens", "--ideal", FIG],
            ["sink", "--ideal", FIG, "--mu", "a^2c^3"],
            ["toric-gb", "--ideal", FIG],
            ["rees-gb", "--ideal", FIG],
            ["verify-unique-sinks", "--ideal", FIG],
            ["verify-buchberger", "--ideal", FIG],
            ["oracle-gb", "--ideal", FIG],
            ["counterexample"],
        ],
    )
    def test_dot_only_for_fiber(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "dot")
        assert code == 2
        assert out == ""
        assert f"--format dot is only for 'fiber', not '{argv[0]}'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--r", "3", "--bound", "5"],
            ["gens", "--ideal", FIG, "--jobs", "2"],
            ["gens", "--ideal", FIG, "--bound", "5"],
            ["toric-gb", "--ideal", FIG, "--bound", "5"],
            ["rees-gb", "--ideal", FIG, "--jobs", "2"],
            ["verify-buchberger", "--ideal", FIG, "--bound", "5"],
            ["sink", "--ideal", FIG, "--mu", "a^2c^3", "--jobs", "2"],
            ["oracle-gb", "--ideal", FIG, "--jobs", "2"],
            ["verify-unique-sinks", "--ideal", FIG, "--jobs", "2"],
        ],
    )
    def test_options_a_command_does_not_read_are_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("names", [["y", "yy"], ["a", "b", "ab"], ["a", "b c"]])
    def test_ambiguous_or_invalid_alphabet_in_descriptor(self, capsys, tmp_path, names):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": names, "borel_generators": ["a^2", "b^2"]}))
        code, out, err = run_cli(capsys, "gens", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: variable name")

    def test_oversized_block_is_counted_not_listed(self, capsys):
        # Borel(h^40) on 8 variables is every degree-40 monomial: C(47, 7) of them.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gens", "--ideal", "{h^40}", "--nvars", "8")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "62,891,499 minimal generators" in err

    @pytest.mark.parametrize(
        "argv, at_least",
        [
            (("gens", "--ideal", "c^100000000000"), "100,000,000,001"),
            (("counterexample", "--r", "1000000"), "999,998,000,001"),
        ],
        ids=["gens", "counterexample"],
    )
    def test_huge_degree_is_refused_before_any_list(self, capsys, argv, at_least):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.endswith(
            f" has at least {at_least} minimal generators, more than the cap of 1,000,000\n"
        )

    def test_sink_longer_than_the_cap_exits_2(self, capsys, monkeypatch):
        # The figure fiber a^3b^9c^3 has a sink of 3 factors.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 2)
        argv = ("sink", "--ideal", FIG, "--mu", "a^3b^9c^3", "--bound", "0")
        message = "error: the sink of 3 factors is longer than the cap of 2\n"
        assert run_cli(capsys, *argv) == (2, "", message)
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 3)
        assert run_cli(capsys, *argv)[0] == 0

    def test_oversized_fiber_listing_is_counted_not_listed(self, capsys):
        # Borel(b^6400) on two variables has 6,401 generators: 20,496,002 words
        # of one or two of them, which the oracle lists before any normal word.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle-gb", "--ideal", "b^6400", "--bound", "3")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "20,496,002 fiber points" in err

    def test_normal_word_cap_exits_2(self, capsys, monkeypatch):
        # The figure ideal lists 119 words of degree 1..2, and its normal words
        # of degree 2 extend to 187 candidate words of degree 3.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 186)
        code, out, err = run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "3")
        assert (code, out) == (2, "")
        assert err == (
            "error: the normal words of degree 2 extend to 187 words of degree 3,"
            " more than the cap of 186\n"
        )
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 187)
        assert run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "3")[0] == 0

    def test_fiber_point_cap_exits_2(self, capsys, monkeypatch):
        # The figure ideal's 14 generators make 119 words of 1..2 of them.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 118)
        code, out, err = run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "2")
        assert (code, out) == (2, "")
        assert err == "error: 14 codes make 119 fiber points of degree 1..2, more than the cap of 118\n"
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 119)
        assert run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "2")[0] == 0

    def test_one_fiber_cap_exits_2(self, capsys, monkeypatch):
        # The figure fiber a^3b^9c^3 has 7 points; the graph and the sink's
        # check both enumerate it.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 6)
        message = "error: the fiber of a^3b^9c^3 holds more than the cap of 6 points\n"
        for command in ("fiber", "sink"):
            argv = (command, "--ideal", FIG, "--mu", "a^3b^9c^3")
            assert run_cli(capsys, *argv) == (2, "", message)
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 7)
        for command in ("fiber", "sink"):
            assert run_cli(capsys, command, "--ideal", FIG, "--mu", "a^3b^9c^3")[0] == 0

    def test_standard_word_cap_exits_2(self, capsys, monkeypatch):
        # The figure ideal's 44 standard pairs extend to 91 standard words of length 3.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 90)
        argv = ("verify-unique-sinks", "--ideal", FIG, "--bound", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: the standard words of length 2 extend to 91 words of length 3,"
            " more than the cap of 90\n"
        )
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 91)
        assert run_cli(capsys, *argv)[0] == 0

    def test_lead_mask_cap_exits_2(self, capsys, monkeypatch):
        # The figure ideal's 14 generators make lead masks of 24 bytes.
        monkeypatch.setattr(fiber, "MAX_LEAD_MASK_BYTES", 23)
        argv = ("verify-unique-sinks", "--ideal", FIG, "--bound", "3")
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "error: the lead masks of 14 generators take 24 bytes, more than the cap of 23\n",
        )
        monkeypatch.setattr(fiber, "MAX_LEAD_MASK_BYTES", 24)
        assert run_cli(capsys, *argv)[0] == 0

    def test_basis_element_cap_exits_2(self, capsys, monkeypatch):
        # The figure ideal's full quadric list has 105 elements and its Rees basis 131.
        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 104)
        for command, count in [("toric-gb", 105), ("rees-gb", 131)]:
            code, out, err = run_cli(capsys, command, "--ideal", FIG)
            assert (code, out) == (2, "")
            assert err == (
                f"error: the pairs within the degree-2 fibers make {count} basis elements,"
                " more than the cap of 104\n"
            )
        # The reduced list is not capped, and oracle-gb reads its leads off it.
        assert run_cli(capsys, "toric-gb", "--ideal", FIG, "--interreduce")[0] == 0
        assert run_cli(capsys, "oracle-gb", "--ideal", FIG, "--bound", "3")[0] == 0
        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 131)
        assert run_cli(capsys, "toric-gb", "--ideal", FIG)[0] == 0
        assert run_cli(capsys, "rees-gb", "--ideal", FIG)[0] == 0

    def test_first_variable_power_is_its_own_block(self, capsys):
        code, out, _ = run_cli(capsys, "gens", "--ideal", "{a^40}", "--nvars", "8")
        assert code == 0
        assert [g["monomial"] for g in json.loads(out)["generators"]] == ["a^40"]

    def test_crash_exits_3(self, capsys, monkeypatch):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_sink", crash)
        code, out, err = run_cli(capsys, "sink", "--ideal", FIG, "--mu", "a^2c^3")
        assert code == 3
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


# Values of each option, repeated for weight: the first list's parse, the
# second's do not (or, like the Arabic-Indic three, parse by an unusual
# spelling).  All are cheap to run.
VALUES = {
    "--ideal": ([FIG, FIG, "{ac,b^2}", "{a^2,ab}", "{a^", ""], ["-x"]),
    "--input": (["missing.json"], ["-"]),
    "--nvars": (["3", "4", "2"], ["\u0663", "0x3", "-1", "", "x"]),
    "--bound": (["1", "2", "3"], ["\u0663", "0x3", "-1", "", " 2"]),
    "--format": (["json", "text"] * 3 + ["dot"], ["DOT", ""]),
    "--mu": (["a^2c^3", "a^3b^9c^3", "[1,1,0]", "ab", ""], ["-1"]),
    "--r": (["3", "3", "2"], ["\u0663", "0x3", "-1", ""]),
}
# How many times a canonical line gives an option that is not required.
PRESENCE = {"--ideal": [1, 1, 1, 1, 0], "--input": [0, 0, 0, 0, 0, 1], "--nvars": [0, 0, 0, 1]}
# Tokens that no canonical line holds, or holds only as a value.
ODD_TOKENS = ["-h", "--help", "--", "", "--id", "--i", "--ideal=" + FIG, "--format=text", "--rees", "x"]


@st.composite
def command_lines(draw, canonical: bool):
    """A command, then its options from the command table in any order.

    A canonical line spells each option as the table does, at most once,
    every required one included, with a value of the first list.  Any other
    line may also drop a required option, repeat an option, abbreviate it,
    write ``--option=value``, give a ``store_true`` option a value, take a
    value of the second list or add an odd token, and may not name a command.
    """
    commands = cli._commands()

    def pick(usual, unusual):
        """One of ``usual``, or on a line that need not be canonical, of either list."""
        return draw(st.sampled_from(list(usual) + ([] if canonical else list(unusual))))

    command = pick(commands, ["-h", "nosuch", "", "--format"])
    chunks = []
    for flag, kwargs in commands.get(command, commands["gens"])[2]:
        counts = [1] if kwargs.get("required") else PRESENCE.get(flag, [0, 1, 1])
        for _ in range(pick(counts, [0, 2])):
            if kwargs.get("action") == "store_true":
                chunks.append([flag] + pick([[]], [[], ["yes"], [""]]))
                continue
            value = pick(*VALUES[flag])
            odd_spellings = [[flag, value]] * 3 + [[flag[:4], value], [f"{flag}={value}"], [flag]]
            chunks.append(pick([[flag, value]], odd_spellings))
    if not canonical:
        chunks += [[token] for token in draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=2))]
    return [command] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


def run_main(argv, read=None):
    """(exit code, stdout, stderr) of one ``main`` call, with ``read`` in place of the reader."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_read", read or cli._read):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def full_parse(argv):
    """The full parser's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


class TestReader:
    """A command line read off the command table runs as the full parser would run it."""

    @given(argv=command_lines(canonical=True))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_a_canonical_line_is_read_as_the_full_parser_reads_it(self, argv):
        read = cli._read(argv)
        assert read is not None
        assert read == full_parse(argv)
        assert run_main(argv) == run_main(argv, read=lambda argv: None)

    @given(argv=command_lines(canonical=False))
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    def test_any_line_gets_the_full_parsers_answer(self, argv):
        read = cli._read(argv)
        if read is not None:
            assert read == full_parse(argv)
        assert run_main(argv) == run_main(argv, read=lambda argv: None)

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--r", "-1"],
            ["sink", "--ideal", FIG, "--mu", "a^2c^3", "--bound", "0x3"],
            ["gens", "--ideal", FIG, "--format", "DOT"],
            ["gens", "--id", FIG],
            ["gens", "--ideal=" + FIG],
            ["gens", "--ideal", FIG, "--format", "text", "--format", "text"],
            ["toric-gb", "--ideal", FIG, "--interreduce", "yes"],
            ["sink", "--ideal", FIG],
            ["sink", "--ideal", FIG, "--mu", "a^2c^3", "--"],
            ["gens", "--ideal", FIG, "-h"],
            [],
        ],
    )
    def test_other_lines_go_to_the_full_parser(self, argv):
        assert cli._read(argv) is None

    def test_an_unusual_digit_is_read_as_int_reads_it(self):
        argv = ["sink", "--ideal", FIG, "--mu", "a^2c^3", "--bound", "\u0663"]
        assert cli._read(argv).bound == 3
        assert cli._read(argv) == full_parse(argv)

    def test_common_lines_build_no_parser(self, monkeypatch):
        # The bench's ``scale`` calls and the README lines are canonical, so
        # they run with argparse's parser unable to start.
        argvs = load_bench(monkeypatch).SCALE_ARGVS + readme_cli_argvs()
        assert len(argvs) == 25

        def refuse(self, *args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        for argv in argvs:
            code, _, err = run_main(argv)
            assert (code, err) == (0, ""), argv
        with pytest.raises(AssertionError, match="parser was built"):
            run_main(["gens", "-h"])


class TestFuzz:
    """Seeded small inputs across every command exit 0, 1 or 2, never 3.

    Each call has at most three variables, Borel roots of one degree up to
    6, ``--bound`` up to 3 and ``--r`` up to 4, and some carry a hostile
    monomial, too many roots, a small ``--nvars``, a bound or ``--r`` out of
    range, or ``--format dot``.  The ``--mu`` of a fiber or sink call is a
    product of up to three roots, sometimes moved off by one.
    """

    COMMANDS = [
        "gens",
        "fiber",
        "sink",
        "toric-gb",
        "rees-gb",
        "verify-unique-sinks",
        "verify-buchberger",
        "oracle-gb",
        "counterexample",
    ]
    HOSTILE = ["", "1", "a^", "^2", "a^-1", "a^2^3", "x", "a b", "a^02b", "{", "[1,2]", "[-1,2,0]"]

    @staticmethod
    def monomial(rng, exponents, vector=False):
        if vector and rng.random() < 0.3:
            return "[" + ",".join(map(str, exponents)) + "]"
        return "".join(v + ("" if e == 1 else f"^{e}") for v, e in zip("abc", exponents) if e)

    @staticmethod
    def roots(rng):
        """One to three exponent vectors of one degree, 1 to 6, in one to three variables."""
        k, d = rng.randint(1, 3), rng.randint(1, 6)
        out = []
        for _ in range(rng.randint(1, 3)):
            cuts = sorted(rng.randint(0, d) for _ in range(k - 1))
            out.append([b - a for a, b in zip([0, *cuts], [*cuts, d])])
        return out

    def argv(self, rng):
        command = rng.choice(self.COMMANDS)
        if command == "counterexample":
            argv = [command, "--r", str(rng.choice([3, 3, 4, 2, -1]))]
        else:
            vectors = self.roots(rng)
            gens = [self.monomial(rng, v) for v in vectors]
            if rng.random() < 0.15:
                gens[rng.randrange(len(gens))] = rng.choice(self.HOSTILE)
            if rng.random() < 0.05:
                gens *= 3
            argv = [command, "--ideal", "{" + ",".join(gens) + "}"]
            if rng.random() < 0.15:
                argv += ["--nvars", str(rng.randint(0, 3))]
            if command in ("fiber", "sink", "verify-unique-sinks", "oracle-gb"):
                argv += ["--bound", str(rng.choice([1, 2, 2, 3, 3, 3, 0]))]
            if command in ("fiber", "sink"):
                mu = [sum(column) for column in zip(*rng.choices(vectors, k=rng.randint(1, 3)))]
                if rng.random() < 0.2:
                    mu[rng.randrange(len(mu))] += rng.choice([-1, 1])
                hostile = rng.random() < 0.1
                argv += ["--mu", rng.choice(self.HOSTILE) if hostile else self.monomial(rng, mu, True)]
            if command == "toric-gb" and rng.random() < 0.5:
                argv.append("--interreduce")
            if command == "verify-buchberger" and rng.random() < 0.5:
                argv.append("--rees")
        if rng.random() < 0.4:
            argv += ["--format", rng.choice(["json", "text", "text", "dot"])]
        return argv

    def test_every_exit_is_0_1_or_2(self, capsys):
        rng = random.Random(20251019)
        exits, crashes = {}, []
        for _ in range(150):
            argv = self.argv(rng)
            code, _, err = run_cli(capsys, *argv)
            exits.setdefault(argv[0], set()).add(code)
            if code not in (0, 1, 2):
                crashes.append((argv, code, err))
        assert crashes == []
        # Every command does real work at least once, and refuses at least once.
        assert {command: {0, 2} <= codes for command, codes in exits.items()} == dict.fromkeys(
            self.COMMANDS, True
        )


def checkout_env() -> dict:
    """The environment with the checkout's src first, so modules run without the package installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "borelfiber.cli", "sink", "--ideal", FIG, "--mu", "a^2c^3", "--format", "text"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Y_{a^2c^3}"


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "borelfiber", "gens", "--ideal", "{ac,b^2}"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["borel_generators"] == ["ac", "b^2"]
