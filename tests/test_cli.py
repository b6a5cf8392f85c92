import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borelfiber import cli
from borelfiber.cli import main

from helpers import mono

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
        ],
    )
    def test_usage_output_matches_the_full_parser(self, capsys, argv, code, usage):
        # main builds only the named command's parser; help and usage errors
        # read as the full parser's, whose usage lists every command.
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
