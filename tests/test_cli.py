"""End-to-end tests for the command-line front end.

Each test drives ``bqo.cli.main`` in-process and checks the exit-code
contract: 0 on success, 1 when a checked precondition fails, 2 on usage
errors.  JSON output must be byte-identical across repeated runs.
"""
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bqo.fronts
import bqo.qo
import bqo.ramsey
import bqo.shifts
from bqo import cli
from bqo.cli import CliUsageError, build_parser, main
from bqo.hset import MAX_SEXPR_DEPTH


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _digit_limit_line(limit):
    """What main prints for a result with an int past the int-to-str limit."""
    return (f"DomainError: the result has an int of more than {limit} "
            "decimal digits, past Python's int-to-str limit; try a smaller "
            "--window or smaller numbers")


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == 0, f"exit {code}: {err}"
    return json.loads(out)


USAGE_ERROR_ARGV = [
    [],
    ["bogus"],
    ["front"],
    ["front", "bogus"],
    ["qo", "validate"],                      # missing positional
    ["front", "rank"],                       # no schema and no file
    ["front", "rank", "--schema", "pentagon"],
    ["front", "rank", "--schema", "uniform"],  # uniform without --k
    ["front", "rank", "--schema", "schreier", "--window", "1"],
    ["front", "step", "--schema", "schreier", "--at", "nonsense"],
    ["seq", "eval", "--fixture", "no-at-sign"],
    ["seq", "eval", "--fixture", "bogusrule@u2"],
    ["seq", "eval"],                         # neither fixture nor file
    ["game", "solve", "(set", "(atom"],      # malformed s-expression
    ["shift", "critical", "warp:9"],
    ["extract", "ramsey", "8", "--rule", "mystery"],
    ["qo", "validate", "/no/such/file.json"],
    # rules that read entries, on the trivial front's only member ()
    *[["seq", "eval", "--fixture", f"{rule}@{front}"]
      for rule in ("min", "span", "minmod2")
      for front in ("trivial", "u0", "uniform:0")],
    ["seq", "spare", "--fixture", "span@trivial"],
    ["seq", "sparsify", "--fixture", "minmod2@u0"],
    ["seq", "bad", "--fixture", "min@uniform:0"],
    ["seq", "perfect", "--fixture", "span@u0"],
    ["extract", "dichotomy", "--fixture", "min@trivial"],
    ["game", "tilde", "--fixture", "minmod2@trivial"],
    ["shift", "perfect", "--fixture", "min@trivial"],
    # embedding extraction needs the pair front
    ["extract", "laver", "--fixture", "min@schreier"],
    ["extract", "laver", "--fixture", "identity@u3"],
    ["extract", "laver", "--fixture", "min@trivial"],
    # malformed front tokens
    ["seq", "bad", "--fixture", "identity@uniform:-1"],
    ["seq", "bad", "--fixture", "identity@uniform:x"],
]

# a descriptor entry below 0 is refused when its set is built
NEGATIVE_DESCRIPTOR_ARGV = [
    "front step --schema uniform --k 2 --base omega/-5",
    "front step --schema uniform --k 2 --at arith:-4,2",
    "front restrict --schema uniform --k 2 --to prefix:-1+arith:3,1",
    "front verify --schema uniform --k 2 --samples arith:-2,1",
    "seq eval --fixture min@u2 --at arith:-1,1",
    "shift orbit enum-of-set:arith:-3,1",
    "shift rho affine:1,0 table:-2,5+tail:affine:1,9",
    "front rank --schema uniform --k 2 --base arith:-5,1",
]

DOMAIN_ERROR_ARGV = [
    ["rado", "witness", "3", "3"],           # needs m < n
    ["front", "ray", "--schema", "trivial", "0"],
    ["front", "ray", "--schema", "schreier", "-1"],
    ["front", "restrict", "--schema", "uniform", "--k", "2",
     "--base", "evens", "--to", "odds"],
    ["shift", "critical", "id"],             # no critical point
    ["game", "string", "--window", "8", "--at", "5,2"],
]

JSON_ARGV = [
    ["rado", "witness", "2", "7"],
    ["extract", "nw", "--schema", "uniform", "--k", "2",
     "--rule", "sum-parity", "--target", "3", "--window", "8"],
    ["game", "solve", '(set (atom "1") (atom "2"))', '(set (atom "3"))'],
    ["shift", "sigma", "affine:1,5", "affine:1,2", "--window", "8"],
]


# --- headline contract examples --------------------------------------------

class TestContractExamples:
    def test_rado_witness_json_exits_zero(self):
        code, out, err = run_cli(["rado", "witness", "0", "1",
                                  "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["pair"] == [0, 1]
        assert data["generator_witness"] == [0, 1]
        assert data["in_lower_downset"] is True
        assert data["in_upper_downset"] is False

    def test_front_rank_schreier_prints_omega(self):
        code, out, err = run_cli(["front", "rank", "--schema", "schreier"])
        assert code == 0
        assert out.strip() == "omega"

    def test_qo_validate_reports_violating_triple(self, tmp_path):
        path = tmp_path / "missing-transitive.json"
        path.write_text(json.dumps({
            "elements": [0, 1, 2],
            "pairs": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]],
        }))
        code, out, err = run_cli(["qo", "validate", str(path)])
        assert code == 1
        assert "0 <= 1 <= 2" in err
        assert "not 0 <= 2" in err

    def test_qo_validate_accepts_valid_order(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "elements": [0, 1, 2],
            "pairs": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2], [0, 2]],
        }))
        code, out, err = run_cli(["qo", "validate", str(path)])
        assert code == 0
        assert "valid: true" in out


# --- exit-code discipline ---------------------------------------------------

class TestExitCodes:
    @pytest.mark.parametrize("argv", USAGE_ERROR_ARGV)
    def test_usage_errors_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2, f"{argv} gave exit {code}"
        assert out == "" and "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("argv", NEGATIVE_DESCRIPTOR_ARGV)
    def test_a_negative_descriptor_entry_is_a_usage_error(self, argv):
        code, out, err = run_cli(argv.split())
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error:") and "left the naturals" in err

    @pytest.mark.parametrize("argv, content, message", [
        (["front", "rank", "--front-file"], {"schema": "uniform"},
         "malformed front file: 'k'"),
        (["front", "rank", "--front-file"], {"schema": "bogus"},
         "malformed front file: unknown front schema {'schema': 'bogus'}"),
        (["front", "rank", "--front-file"],
         {"schema": "uniform", "k": 2, "base": "bogus"},
         "malformed front file: unknown base descriptor 'bogus'"),
        (["front", "rank", "--front-file"], [1, 2], "must hold a JSON object"),
        (["extract", "nw", "--target", "2", "--front-file"], [1, 2],
         "must hold a JSON object"),
        (["front", "verify", "--family"], {"members": [[1, "a"]]},
         "malformed family file: front element entries must be naturals: "
         "(1, 'a')"),
        (["front", "verify", "--family"], {"members": [[2, 1]]},
         "malformed family file: front element not strictly increasing: "
         "(2, 1)"),
        (["qo", "validate"], {"elements": [{"a": 1}], "pairs": []},
         "malformed order file: unhashable type: 'dict'"),
        (["qo", "validate"], {"elements": [0, 0], "pairs": []},
         "malformed order file: carrier has duplicate elements"),
        (["qo", "relations", "0", "0", "--file"],
         {"elements": [{"a": 1}], "pairs": []}, "malformed order file"),
        (["qo", "product", "{ok}"], {"elements": [{"a": 1}], "pairs": []},
         "malformed order file"),
        (["qo", "sum"], {"index": {"elements": [[0, {"a": 1}]], "pairs": []},
                         "parts": {}}, "malformed order file"),
        (["qo", "sum"], [1, 2], "sum file needs 'index' and 'parts' keys"),
        # nested values of the wrong JSON type name their field
        (["front", "rank", "--front-file"],
         {"schema": "seq", "default": [1], "rank": [1]},
         "malformed front file: front 'default' must be a JSON object, "
         "got [1]"),
        (["front", "rank", "--front-file"],
         {"schema": "seq", "default": {"schema": "trivial"}, "rank": [1],
          "rays": []},
         "malformed front file: front 'rays' must be a JSON object"),
        (["front", "rank", "--front-file"],
         {"schema": "seq", "default": {"schema": "trivial"}, "rank": [1],
          "rays": {"1": 5}},
         "malformed front file: front ray '1' must be a JSON object, got 5"),
        (["front", "rank", "--front-file"],
         {"schema": "seq", "default": {"schema": "trivial"}, "rank": [1.5]},
         "malformed front file: front 'rank' entry must be a JSON integer"),
        (["front", "rank", "--front-file"],
         {"schema": "uniform", "k": 2, "base": 5},
         "malformed front file: front 'base' must be a string, got 5"),
        (["front", "rank", "--front-file"],
         {"schema": "uniform", "k": 2, "base": ["omega"]},
         "malformed front file: front 'base' must be a string"),
        (["front", "rank", "--front-file"], {"schema": "uniform", "k": 2.5},
         "malformed front file: front 'k' must be a JSON integer, got 2.5"),
        (["front", "rank", "--front-file"], {"schema": "uniform", "k": True},
         "malformed front file: front 'k' must be a JSON integer, got True"),
        (["seq", "eval", "--file"], {"front": [1]},
         "malformed sequence file: front must be a JSON object, got [1]"),
        (["seq", "eval", "--file"],
         {"front": {"schema": "uniform", "k": 2}, "valuation": []},
         "malformed sequence file: 'valuation' must be a JSON object"),
        (["seq", "eval", "--file"],
         {"front": {"schema": "uniform", "k": 2}, "valuation": {"rule": 5}},
         "malformed sequence file: valuation 'rule' must be a string"),
        (["seq", "eval", "--file"],
         {"front": {"schema": "uniform", "k": 2},
          "valuation": {"table": []}},
         "malformed sequence file: valuation 'table' must be a JSON object"),
        (["seq", "bad", "--file"],
         {"front": {"schema": "uniform", "k": 2},
          "valuation": {"table": {"1,2": 5, "01,2": 7}}},
         "malformed sequence file: valuation table key '01,2' is not "
         "canonical"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": []},
         "malformed coloring file: 'table' must be a JSON object"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "rule": 5},
         "malformed coloring file: 'rule' must be a string"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": {},
          "default": [1]}, "malformed coloring file"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": {"0,,1": 2}},
         "malformed coloring file: coloring table key '0,,1' is not "
         "canonical"),
        # two spellings of (0, 1), which int() would read alike
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "default": 0,
          "table": {"0,1": 0, "00,1": 1, "+0,2": 1, " 1,2": 0}},
         "malformed coloring file: coloring table key '00,1' is not "
         "canonical: write \"\" or naturals without leading zeros joined "
         "by commas"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "default": 0,
          "table": {"0,1": 0, "-1,3": 1}},
         "malformed coloring file: coloring table key '-1,3' is not "
         "canonical"),
        # keys that name no member of the front
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2},
          "table": {"1,0": 1, "0,1,2": 1, "5": 1}, "default": 0},
         "malformed coloring file: coloring table key '1,0' names no member "
         "of the front"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": {"0,1": 2.7}},
         "malformed coloring file: color of '0,1' must be a JSON integer, "
         "got 2.7"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": {"0,2": True}},
         "malformed coloring file: color of '0,2' must be a JSON integer, "
         "got True"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "table": {},
          "default": 1.0},
         "malformed coloring file: 'default' must be a JSON integer, got 1.0"),
        (["extract", "nw", "--target", "2", "--coloring"],
         {"front": {"schema": "uniform", "k": 2}, "rule": "sum-parity",
          "r": "2"},
         "malformed coloring file: 'r' must be a JSON integer, got '2'"),
        (["qo", "sum"], {"index": {"elements": [0], "pairs": [[0, 0]]},
                         "parts": 5},
         "sum file 'parts' must be a JSON object"),
    ])
    def test_malformed_input_file_is_a_one_line_usage_error(
            self, tmp_path, argv, content, message):
        path, ok = tmp_path / "input.json", tmp_path / "ok.json"
        path.write_text(json.dumps(content))
        ok.write_text(json.dumps({"elements": [0], "pairs": [[0, 0]]}))
        code, out, err = run_cli(
            [a.replace("{ok}", str(ok)) for a in argv] + [str(path)])
        assert code == 2 and out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], err

    # JSON keeps the last of two equal keys, so a repeated key would drop
    # a value; the error names the key, at any depth of the file
    @pytest.mark.parametrize("argv,text,key", [
        (["seq", "bad", "--file"],
         '{"front": {"schema": "uniform", "k": 2}, "valuation": {"table": '
         '{"1,2": [0, 1], "0,1": [0, 2], "1,2": [0, 3]}}}', "1,2"),
        (["front", "rank", "--front-file"],
         '{"schema": "uniform", "k": 2, "k": 3}', "k"),
    ])
    def test_a_repeated_key_is_a_one_line_usage_error(self, tmp_path, argv,
                                                      text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(argv + [str(path)])
        assert code == 2 and out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {path} repeats the key {key!r} in one "
                          "object"], err

    def test_usage_errors_list_subcommands(self):
        code, out, err = run_cli(["bogus"])
        assert code == 2
        assert "valid subcommands" in err
        for group in ("qo", "rado", "front", "seq", "game", "extract",
                      "shift"):
            assert group in err

    def test_unreadable_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run_cli(["qo", "validate", str(path)])
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("past_the_digit_limit", [True, False],
                             ids=["long-int", "not-utf-8"])
    def test_an_unreadable_int_or_byte_is_a_one_line_usage_error(
            self, tmp_path, past_the_digit_limit, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if past_the_digit_limit and not limit:
            pytest.skip("this Python reads ints of any size")
        path = tmp_path / "order.json"
        path.write_bytes(
            b'{"elements": [%s], "pairs": []}' % (b"9" * (limit + 700))
            if past_the_digit_limit
            else b'\xff{"elements": [0], "pairs": [[0, 0]]}')
        code, out, err = run_cli(["qo", "validate", str(path), "--format",
                                  fmt])
        assert code == 2 and out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1, err
        assert errors[0].startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("argv", DOMAIN_ERROR_ARGV)
    def test_domain_errors_exit_one(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1, f"{argv} gave exit {code} ({err})"
        assert err.strip(), "domain errors must explain themselves on stderr"

    def test_running_out_of_memory_is_one_line_and_exit_one(
            self, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli.HANDLERS, ("seq", "bad"), exhausted)
        code, out, err = run_cli(["seq", "bad", "--fixture", "min@schreier",
                                  "--codomain", "omega-leq"])
        assert (code, out) == (1, "")
        assert err == "MemoryError: out of memory; try a smaller --window\n"


# --- JSON report envelope ---------------------------------------------------

class TestJsonEnvelope:
    def test_reports_carry_version_command_window_seed(self):
        data = run_json(["seq", "bad", "--fixture", "identity@u2",
                         "--window", "9", "--seed", "5"])
        assert data["report_version"] == 1
        assert data["command"] == "seq bad"
        assert data["window"] == 9
        assert data["seed"] == 5

    def test_default_window_and_seed_echoed(self):
        data = run_json(["front", "rank", "--schema", "schreier"])
        assert data["window"] == 16
        assert data["seed"] == 0
        assert data["rank"] == "omega"

    @pytest.mark.parametrize("argv", JSON_ARGV)
    def test_json_output_is_byte_identical_across_runs(self, argv):
        runs = []
        for _ in range(2):
            code, out, err = run_cli(argv + ["--format", "json"])
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
        json.loads(runs[0])  # and it parses

    def test_json_keys_are_sorted(self):
        code, out, err = run_cli(["rado", "witness", "0", "1",
                                  "--format", "json"])
        data = json.loads(out)
        assert list(data) == sorted(data)


# --- qo group ---------------------------------------------------------------

class TestQoCommands:
    def test_relations_on_omega(self):
        data = run_json(["qo", "relations", "3", "5"])
        assert data["leq"] is True and data["geq"] is False
        assert data["strict"] is True and data["incomparable"] is False

    def test_relations_on_rado_incomparable_generators(self):
        data = run_json(["qo", "relations", "0,1", "1,2", "--qo", "rado"])
        assert data["incomparable"] is True

    def test_relations_from_file(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"elements": ["x", "y"],
                                    "pairs": [["x", "x"], ["y", "y"]]}))
        data = run_json(["qo", "relations", "x", "y", "--file", str(path)])
        assert data["incomparable"] is True

    def test_product_of_chains(self, tmp_path):
        path = tmp_path / "chain2.json"
        path.write_text(json.dumps({
            "elements": [0, 1],
            "pairs": [[0, 0], [1, 1], [0, 1]]}))
        data = run_json(["qo", "product", str(path), str(path)])
        assert data["elements"] == 4
        assert data["leq_pairs"] == 9  # (2 comparable pairs + ...)^2 = 3*3

    def test_sum_along_two_point_chain(self, tmp_path):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({
            "index": {"elements": ["a", "b"],
                      "pairs": [["a", "a"], ["b", "b"], ["a", "b"]]},
            "parts": {"a": {"elements": [0], "pairs": [[0, 0]]},
                      "b": {"elements": [1], "pairs": [[1, 1]]}},
        }))
        data = run_json(["qo", "sum", str(path)])
        assert data["elements"] == 2
        assert data["leq_pairs"] == 3  # both loops plus the cross pair

    def test_sum_missing_part_is_usage_error(self, tmp_path):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({
            "index": {"elements": ["a"], "pairs": [["a", "a"]]},
            "parts": {},
        }))
        code, out, err = run_cli(["qo", "sum", str(path)])
        assert code == 2
        assert "no part for index element" in err


# --- rado group -------------------------------------------------------------

class TestRadoCommands:
    def test_demo_confirms_all_pairs_in_window(self):
        data = run_json(["rado", "demo", "--window", "8"])
        assert data["pairs_checked"] == 28  # C(8, 2)
        assert data["confirmed"] == 28
        assert data["all_confirmed"] is True

    def test_witness_scan_bound_reported(self):
        data = run_json(["rado", "witness", "1", "4"])
        assert data["pair"] == [1, 4]
        assert data["scan_bound"] >= 4


# --- front group ------------------------------------------------------------

class TestFrontCommands:
    def test_member_accepts_and_rejects(self):
        data = run_json(["front", "member", "--schema", "uniform", "--k", "2",
                         "0,5"])
        assert data["member"] is True
        data = run_json(["front", "member", "--schema", "uniform", "--k", "2",
                         "0,1,2"])
        assert data["member"] is False

    def test_member_empty_tuple_spelled_dash(self):
        data = run_json(["front", "member", "--schema", "trivial", "-"])
        assert data["member"] is True and data["entries"] == []

    def test_step_returns_least_member_and_modulus(self):
        data = run_json(["front", "step", "--schema", "schreier",
                         "--at", "arith:3,2"])
        assert data["member"] == [3, 5, 7, 9]
        assert data["modulus"] == 4

    def test_step_along_a_far_tail(self):
        # the member walks 1001 nested tails of the base
        data = run_json(["front", "step", "--schema", "schreier",
                         "--at", "omega/1000"])
        assert data["member"] == list(range(1001, 2003))
        assert data["modulus"] == 1002

    def test_ray_of_schreier_is_uniform(self):
        data = run_json(["front", "ray", "--schema", "schreier", "4"])
        assert data["ray"]["schema"] == "uniform"
        assert data["ray"]["k"] == 4
        assert data["ray_rank"] == "4"

    def test_restrict_reports_new_base(self):
        data = run_json(["front", "restrict", "--schema", "uniform",
                         "--k", "2", "--to", "evens"])
        assert data["restricted"]["base"] == "arith:0,2"

    def test_rank_uniform_is_its_arity(self):
        for k in (1, 2, 5):
            code, out, err = run_cli(["front", "rank", "--schema", "uniform",
                                      "--k", str(k)])
            assert code == 0 and out.strip() == str(k)

    def test_verify_passes_on_builtin_front(self):
        data = run_json(["front", "verify", "--schema", "uniform", "--k", "2",
                         "--samples", "omega;evens;arith:1,3"])
        assert data["passed"] is True
        assert {p["sample"] for p in data["density"]} == \
            {"omega", "arith:0,2", "arith:1,3"}

    def test_verify_reports_the_empty_member_as_null(self):
        argv = ["front", "verify", "--schema", "trivial", "--samples", "omega"]
        data = run_json(argv)
        assert data["density"] == [{"sample": "omega", "member": None,
                                    "modulus": 0, "error": None}]
        code, out, err = run_cli(argv)
        assert code == 0 and "  omega: member [] at modulus 0\n" in out

    def test_verify_flags_segment_in_raw_family(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {"members": [[0], [0, 1], [2], [3], [4], [5]]}))
        data = run_json(["front", "verify", "--family", str(path),
                         "--window", "6"])
        assert data["segment_free"] is False
        assert data["passed"] is False

    def test_front_file_round_trip(self, tmp_path):
        path = tmp_path / "front.json"
        path.write_text(json.dumps(
            {"schema": "uniform", "k": 3, "base": "arith:1,2"}))
        code, out, err = run_cli(["front", "rank", "--front-file", str(path)])
        assert code == 0 and out.strip() == "3"

    def test_member_entries_not_increasing_is_a_usage_error(self):
        code, out, err = run_cli(["front", "member", "--schema", "uniform",
                                  "--k", "2", "1,1"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.splitlines()[0] == (
            "error: front element not strictly increasing: (1, 1)")
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1

    def test_negative_uniform_arity_is_a_usage_error(self):
        code, out, err = run_cli(["front", "step", "--schema", "uniform",
                                  "--k", "-1"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.splitlines()[0] == (
            "error: bad --k -1: uniform schema needs k >= 0")
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1


# --- seq group --------------------------------------------------------------

class TestSeqCommands:
    def test_eval_identity_on_evens(self):
        data = run_json(["seq", "eval", "--fixture", "identity@u2",
                         "--at", "evens"])
        assert data["value"] == [0, 2]
        assert data["member"] == [0, 2]
        assert data["modulus"] == 2

    def test_spare_holds_for_uniform_fixture(self):
        data = run_json(["seq", "spare", "--fixture", "identity@u2"])
        assert data["holds"] is True and data["failure"] is None

    def test_sparsify_min_drops_the_unread_coordinate(self):
        data = run_json(["seq", "sparsify", "--fixture", "min@u2",
                         "--window", "5"])
        # min only reads the first index, so the sparsified sequence
        # lives on singletons
        assert data["front"] == {"schema": "uniform", "k": 1, "base": "omega"}
        assert data["values"] == {str(n): n for n in range(5)}

    def test_sparsify_identity_is_already_sparse(self):
        data = run_json(["seq", "sparsify", "--fixture", "identity@u2",
                         "--window", "4"])
        assert data["front"]["k"] == 2
        assert data["values"]["0,1"] == [0, 1]

    def test_bad_identity_pair_sequence(self):
        data = run_json(["seq", "bad", "--fixture", "identity@u2",
                         "--window", "12"])
        assert data["bad_on_window"] is True
        assert data["good_witness"] is None

    def test_bad_min_sequence_finds_good_pair(self):
        data = run_json(["seq", "bad", "--fixture", "min@u2",
                         "--window", "10"])
        assert data["bad_on_window"] is False
        assert data["good_witness"] is not None

    def test_perfect_min_under_leq(self):
        data = run_json(["seq", "perfect", "--fixture", "min@u2",
                         "--relation", "leq", "--window", "10"])
        assert data["holds"] is True

    def test_codomain_override(self):
        data = run_json(["seq", "perfect", "--fixture", "minmod2@u2",
                         "--codomain", "chain:2", "--relation", "leq",
                         "--window", "8"])
        assert data["holds"] is False

    def test_schreier_probe_reads_its_witness_far_out(self):
        # the scan stops at top 2, and the count is stepped in closed form
        tracemalloc.start()
        try:
            start = time.perf_counter()
            data = run_json(["seq", "bad", "--fixture", "min@schreier",
                             "--window", "20000"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data["good_witness"] == [[0], [1, 2]]
        assert data["pairs_scanned"] == bqo.fronts.count_shift_pairs(
            bqo.fronts.schreier_front(), 20000)
        assert peak < 20_000_000 and elapsed < 2

    # the Schreier pair count passes Python's 4,300-digit int-to-str limit
    # just past window 20,000; --relation eq fails at the first pair
    @pytest.mark.parametrize("cmd", [["bad"], ["perfect", "--relation", "eq"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_past_the_digit_limit_is_one_line(self, cmd, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python prints ints of any length")
        code, out, err = run_cli(["seq", *cmd, "--fixture", "min@schreier",
                                  "--window", "21000", "--format", fmt])
        assert (code, out) == (1, "")
        assert err.startswith(_digit_limit_line(limit))
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_seq_file_with_table_valuation(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({
            "front": {"schema": "uniform", "k": 1, "base": "omega"},
            "valuation": {"table": {"0": 7, "1": 7, "2": 7, "3": 7}},
        }))
        data = run_json(["seq", "eval", "--file", str(path),
                         "--codomain", "omega-leq"])
        assert data["value"] == 7


# --- game group -------------------------------------------------------------

SINGLETON_12 = '(set (atom "1") (atom "2"))'
SINGLETON_3 = '(set (atom "3"))'


class TestGameCommands:
    def test_solve_singleton_domination(self):
        data = run_json(["game", "solve", SINGLETON_12, SINGLETON_3])
        assert data["winner"] == "II" and data["ii_wins"] is True

    def test_solve_reverse_direction_fails(self):
        data = run_json(["game", "solve", SINGLETON_3, SINGLETON_12])
        assert data["winner"] == "I" and data["ii_wins"] is False

    def test_solve_reads_two_sexprs_from_stdin(self):
        code, out, err = run_cli(
            ["game", "solve", "-", "--qo", "rado", "--format", "json"],
            stdin='(set (atom "{0,1}"))\n(set (atom "{1,2}"))\n')
        assert code == 0
        assert json.loads(out)["winner"] == "I"

    def test_stdin_with_too_few_sexprs_is_usage_error(self):
        code, out, err = run_cli(["game", "solve", "-"],
                                 stdin='(set (atom "1"))')
        assert code == 2

    @pytest.mark.parametrize("cmd", ["solve", "play"])
    def test_stdin_solves_the_first_two_of_more_sexprs(self, cmd):
        code, out, err = run_cli(
            ["game", cmd, "-", "--format", "json"],
            stdin='(set (atom "1"))(set (atom "2"))\n(atom "0") (atom "3")')
        assert code == 0, err
        data = json.loads(out)
        assert (data["x"], data["y"]) == ('(set (atom "1"))',
                                          '(set (atom "2"))')

    @pytest.mark.parametrize("cmd", ["solve", "play"])
    def test_malformed_third_sexpr_on_stdin_is_a_usage_error(self, cmd):
        code, out, err = run_cli(
            ["game", cmd, "-"],
            stdin='(set (atom "1")) (set (atom "2")) (set')
        assert code == 2 and out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert errors == [
            "error: cannot parse s-expression: expected ')' at token 16"]

    def test_play_transcript_matches_solved_winner(self):
        data = run_json(["game", "play", SINGLETON_12, SINGLETON_3])
        assert data["solved_winner"] == "II"
        assert data["play_winner"] == "II"
        assert data["comparison"] is True
        assert len(data["rounds"]) >= 1

    def test_play_winner_I_keeps_win_against_fallback(self):
        data = run_json(["game", "play", SINGLETON_3, SINGLETON_12])
        assert data["solved_winner"] == "I"
        assert data["play_winner"] == "I"

    def test_supp_depth_and_atoms(self):
        data = run_json(["game", "supp",
                         '(set (atom "1") (set (atom "2") (atom "5")))'])
        assert data["depth"] == 2
        assert data["support"] == ["1", "2", "5"]

    @pytest.mark.parametrize("qo", ["chain:3", "antichain:2"])
    @pytest.mark.parametrize("argv", [
        ["game", "solve", '(set (atom "0") (atom "1"))', '(set (atom "1"))'],
        ["game", "play", '(set (atom "0") (atom "1"))', '(set (atom "1"))'],
        ["game", "supp", '(set (atom "1") (set (atom "0")))'],
    ])
    def test_finite_base_order_echoes_descriptor(self, argv, qo):
        # finite orders carry no name; the payload echoes the --qo text
        code, out, err = run_cli(argv + ["--qo", qo, "--format", "json"])
        assert code == 0, err
        data = json.loads(out)
        assert data["qo"] == qo
        assert data["command"] == " ".join(argv[:2])

    def test_string_consumes_prefix_of_indices(self):
        data = run_json(["game", "string", "--window", "10",
                         "--at", "0,1,2,3"])
        assert data["modulus"] >= 2
        assert len(data["value"]) == 2  # a generator pair

    def test_string_rejects_unsorted_indices(self):
        code, out, err = run_cli(["game", "string", "--window", "8",
                                  "--at", "4,1"])
        assert code == 1

    @pytest.mark.parametrize("value", [{"a": 1}, [[0, 1], 2]])
    def test_tilde_unhashable_table_value_is_a_usage_error(self, tmp_path,
                                                          value):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({
            "front": {"schema": "uniform", "k": 1},
            "valuation": {"table": {"0": value}, "rule": "min"}}))
        code, out, err = run_cli(["game", "tilde", "--file", str(path),
                                  "--window", "4"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.splitlines()[0].startswith(
            "error: malformed sequence file: valuation table value for '0' "
            "is not hashable")

    @pytest.mark.parametrize("cmd", ["solve", "play", "supp"])
    def test_nesting_past_the_parse_limit_is_a_usage_error(self, cmd):
        def nested(levels):
            return "(set " * levels + '(atom "1")' + ")" * levels
        operands = [] if cmd == "supp" else ['(atom "1")']
        code, out, err = run_cli(["game", cmd, nested(MAX_SEXPR_DEPTH)]
                                 + operands)
        assert code == 0, err
        code, out, err = run_cli(["game", cmd, nested(MAX_SEXPR_DEPTH + 1)]
                                 + operands)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.splitlines()[0] == (
            "error: cannot parse s-expression: sets nested deeper than "
            f"{MAX_SEXPR_DEPTH} at token {2 * MAX_SEXPR_DEPTH}")

    def test_tilde_file_without_codomain_formats_values_with_str(
            self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({
            "front": {"schema": "uniform", "k": 1},
            "valuation": {"table": {"0": "a", "1": [0, 1], "2": 5},
                          "rule": "min"}}))
        code, out, err = run_cli(["game", "tilde", "--file", str(path),
                                  "--window", "3"])
        assert code == 0, err
        assert out == ('window: 3\ntable_size: 4\n'
                       '  level-1 at 0: (atom "a")\n'
                       '  level-1 at 1: (atom "(0, 1)")\n'
                       '  level-1 at 2: (atom "5")\n')

    def test_tilde_first_level_present(self):
        data = run_json(["game", "tilde", "--fixture", "identity@u1",
                         "--window", "6"])
        assert data["table_size"] > 0
        assert data["first_level"], "expected at least one level-1 set"


# --- extract group ----------------------------------------------------------

class TestExtractCommands:
    def test_ramsey_sum_parity(self):
        data = run_json(["extract", "ramsey", "10", "--rule", "sum-parity"])
        assert data["homogeneous_set"] == [0, 2, 4, 6, 8]
        assert data["size"] == 5
        assert data["exhaustive"] is True

    def test_ramsey_with_target_stops_early(self):
        data = run_json(["extract", "ramsey", "12", "--rule", "sum-parity",
                         "--target", "3"])
        assert data["size"] == 3

    def test_nw_with_named_rule(self):
        data = run_json(["extract", "nw", "--schema", "uniform", "--k", "2",
                         "--rule", "sum-parity", "--target", "3",
                         "--window", "8"])
        assert len(data["homogeneous_set"]) >= 3
        assert data["side"] in (0, 1)
        for member, color in data["witnesses"]:
            assert color == data["side"]

    def test_nw_with_coloring_file(self, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({
            "front": {"schema": "uniform", "k": 2, "base": "omega"},
            "rule": "min-parity",
        }))
        data = run_json(["extract", "nw", "--coloring", str(path),
                         "--target", "3", "--window", "8"])
        assert len(data["homogeneous_set"]) >= 3

    def test_nw_unattainable_target_is_domain_error(self):
        code, out, err = run_cli(["extract", "nw", "--schema", "uniform",
                                  "--k", "2", "--rule", "sum-parity",
                                  "--target", "9", "--window", "8"])
        assert code == 1

    def test_dichotomy_min_lands_on_relation_side(self):
        data = run_json(["extract", "dichotomy", "--fixture", "min@u2",
                         "--relation", "leq", "--window", "8"])
        assert data["side"] == "leq"
        assert data["pairs_verified"] > 0

    def test_dichotomy_goldens_enter_few_search_nodes(self, monkeypatch):
        # one search over both sides finds the 16-point set; under leq a
        # second search looks for a complement-side set of that size and
        # dies at the first join node (two full searches entered 1,390)
        searches = []

        class Counted(bqo.ramsey.Homogeneous):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        monkeypatch.setattr(bqo.ramsey, "Homogeneous", Counted)
        for relation in ([], ["--relation", "eq"]):
            run_json(["extract", "dichotomy", "--fixture", "min@u2",
                      *relation])
        assert sum(search.explored for search in searches) <= 40

    @pytest.mark.parametrize("cmd", [["extract", "dichotomy"],
                                     ["seq", "perfect"]])
    def test_leq_checks_each_value_once(self, cmd, monkeypatch):
        # the window's 66 members are each checked on their first read, and
        # every comparison after that is raw
        checks = []
        check = bqo.qo._check_rado_pair
        monkeypatch.setattr(bqo.qo, "_check_rado_pair",
                            lambda s: checks.append(s) or check(s))
        run_json([*cmd, "--fixture", "identity@u2", "--relation", "leq",
                  "--window", "12"])
        assert 0 < len(checks) <= 66
        assert len(checks) == len(set(checks))

    def test_laver_identity_pairs(self):
        data = run_json(["extract", "laver", "--fixture", "identity@u2",
                         "--window", "12"])
        assert len(data["set"]) >= 4
        assert data["pairs_checked"] > 0

    def test_laver_good_sequence_is_domain_error(self):
        code, out, err = run_cli(["extract", "laver", "--fixture", "min@u2",
                                  "--window", "12"])
        assert code == 1
        assert "NotBadOnWindow" in err

    @pytest.mark.parametrize("argv", [
        ["extract", "ramsey", "6", "--exhaustive"],
        ["extract", "ramsey", "5", "--k", "0"],
        ["extract", "ramsey", "5", "--r", "0"],
        ["extract", "ramsey", "-1"],
        ["extract", "ramsey", "6", "--target", "-1"],
        ["extract", "nw", "--schema", "uniform", "--k", "2", "--target", "-1",
         "--window", "8"],
        ["extract", "laver", "--fixture", "identity@u3"],   # not a pair front
    ])
    def test_bad_extract_arguments_are_one_line_usage_errors(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.splitlines()[0]]

    def test_coloring_table_without_default_is_a_domain_error(self, tmp_path):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps({"front": {"schema": "uniform", "k": 1},
                                    "table": {"0": 1}}))
        code, out, err = run_cli(["extract", "nw", "--coloring", str(path),
                                  "--target", "2", "--window", "4"])
        assert code == 1 and out == ""
        assert err == "MissingColor: no color for member (1,)\n"

    def test_valuation_table_without_rule_is_a_domain_error(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"front": {"schema": "uniform", "k": 1},
                                    "valuation": {"table": {"0": 1}}}))
        code, out, err = run_cli(["seq", "eval", "--file", str(path),
                                  "--at", "odds"])
        assert code == 1 and out == ""
        assert err == "MissingValue: valuation table has no entry for (1,)\n"


# --- shift group ------------------------------------------------------------

class TestShiftCommands:
    def test_two_shift_perfect_resolves_each_battery_value_once(
            self, monkeypatch):
        # the one candidate meets 13 battery injections f; each resolves
        # h o f once and h o f o g once per shift (resolving h o f again
        # for each shift made 52 calls)
        calls = []
        resolve = bqo.shifts._resolve_value
        monkeypatch.setattr(bqo.shifts, "_resolve_value",
                            lambda *args: calls.append(args) or
                            resolve(*args))
        data = run_json(["shift", "perfect", "--fixture", "min@u2",
                         "--shift", "succ", "--shift", "affine:1,2",
                         "--window", "12"])
        assert data["candidates_tried"] == 1
        assert len(calls) <= 39

    def test_critical_point_of_translation(self):
        data = run_json(["shift", "critical", "affine:1,3"])
        assert data["critical_point"] == 0

    def test_orbit_of_doubling(self):
        data = run_json(["shift", "orbit", "affine:2,0", "--window", "5"])
        assert data["values"] == [1, 2, 4, 8, 16]

    def test_rho_translation_identity_verified(self):
        data = run_json(["shift", "rho", "affine:1,5", "affine:1,2",
                         "--window", "12"])
        assert data["translation_identity"] is True

    def test_sigma_strictly_increasing(self):
        data = run_json(["shift", "sigma", "affine:1,5", "affine:1,2",
                         "--window", "12"])
        assert data["strictly_increasing"] is True
        assert data["values"] == sorted(set(data["values"]))

    def test_sigma_values_just_under_the_digit_limit_print(self):
        data = run_json(["shift", "sigma", "affine:1,14000", "affine:2,1",
                         "--window", "4"])
        assert [len(str(v)) for v in data["values"]] == [4215] * 3 + [4216]

    def test_sigma_of_identity_under_successor_collapses(self):
        data = run_json(["shift", "sigma", "id", "succ", "--window", "8"])
        assert data["values"] == list(range(8))

    def test_perfect_min_keeps_whole_window(self):
        data = run_json(["shift", "perfect", "--fixture", "min@u2",
                         "--shift", "succ", "--window", "10"])
        assert data["h_values"] == list(range(10))
        assert data["checks_passed"] > 0

    def test_perfect_table_shift_descriptor(self):
        data = run_json(["shift", "perfect", "--fixture", "min@u2",
                         "--shift", "table:0,2+tail:affine:1,3",
                         "--window", "10"])
        assert data["shifts"] == ["table:0,2+tail:affine:1,3"]
        assert data["checks_passed"] > 0

    def test_perfect_identity_shift_is_domain_error(self):
        code, out, err = run_cli(["shift", "perfect", "--fixture", "min@u2",
                                  "--shift", "id", "--window", "8"])
        assert code == 1
        assert "LooksLikeIdentity" in err

    def test_perfect_checks_each_value_once(self, monkeypatch):
        # the 103 values read are each checked on their first read, and
        # every comparison after that is raw
        checks = []
        check = bqo.qo._check_rado_pair
        monkeypatch.setattr(bqo.qo, "_check_rado_pair",
                            lambda s: checks.append(s) or check(s))
        code, out, err = run_cli([
            "shift", "perfect", "--fixture", "identity@u2", "--shift", "succ",
            "--shift", "affine:1,2", "--window", "12"])
        assert code == 1
        assert "NotBQOEvidence: comparison fails homogeneously" in err
        assert 0 < len(checks) <= 103
        assert len(checks) == len(set(checks))


# --- whole-surface coverage -------------------------------------------------

ALL_SUBCOMMANDS = [
    ("qo", "validate"), ("qo", "relations"), ("qo", "product"), ("qo", "sum"),
    ("rado", "witness"), ("rado", "demo"),
    ("front", "member"), ("front", "step"), ("front", "ray"),
    ("front", "restrict"), ("front", "rank"), ("front", "verify"),
    ("seq", "eval"), ("seq", "spare"), ("seq", "sparsify"), ("seq", "bad"),
    ("seq", "perfect"),
    ("game", "solve"), ("game", "play"), ("game", "supp"), ("game", "string"),
    ("game", "tilde"),
    ("extract", "ramsey"), ("extract", "nw"), ("extract", "dichotomy"),
    ("extract", "laver"),
    ("shift", "rho"), ("shift", "sigma"), ("shift", "critical"),
    ("shift", "orbit"), ("shift", "perfect"),
]


def test_every_advertised_subcommand_is_wired():
    from bqo.cli import HANDLERS, SUBCOMMANDS
    advertised = [(g, c) for g, cmds in SUBCOMMANDS.items() for c in cmds]
    assert sorted(advertised) == sorted(ALL_SUBCOMMANDS)
    assert sorted(HANDLERS) == sorted(ALL_SUBCOMMANDS)


def test_help_text_mentions_every_group():
    code, out, err = run_cli(["bogus-group-name"])
    assert code == 2
    for group, cmds in [("qo", "validate"), ("extract", "laver"),
                        ("shift", "perfect")]:
        assert group in err and cmds in err


def test_rule_reading_entries_on_the_trivial_front_is_a_usage_error():
    code, out, err = run_cli(["seq", "eval", "--fixture", "span@u0"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [
        "error: valuation rule 'span' needs nonempty members; the trivial "
        "front's only member is ()"]


def test_trivial_front_keeps_rules_that_read_no_entry():
    code, out, err = run_cli(["seq", "bad", "--fixture", "identity@trivial"])
    assert code == 1
    assert err == "NotAPair: () is not an increasing pair of naturals\n"
    data = run_json(["seq", "bad", "--fixture", "constant:3@trivial"])
    assert data["good_witness"] == [[], []] and data["pairs_scanned"] == 1


@pytest.mark.parametrize("rule,table,message", [
    ("min", {}, "valuation rule 'min' needs nonempty members; the trivial "
     "front's only member is ()"),
    ("min", {"": 4}, None),   # the table entry for () is read instead
    ("medium", {}, "unknown valuation rule 'medium'"),
])
def test_file_rule_on_the_trivial_front(tmp_path, rule, table, message):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"front": {"schema": "trivial"},
                                "valuation": {"rule": rule,
                                              "table": table}}))
    code, out, err = run_cli(["seq", "eval", "--file", str(path)])
    assert "Traceback" not in err
    if message is None:
        assert code == 0 and out.startswith("value: 4")
    else:
        assert code == 2 and out == ""
        assert err.splitlines()[0] == (
            f"error: malformed sequence file: {message}")


ORDERED_SEQUENCE_COMMANDS = [
    ["seq", "bad"], ["seq", "perfect"], ["extract", "dichotomy"],
    ["extract", "laver"], ["shift", "perfect"],
]


@pytest.mark.parametrize("argv", ORDERED_SEQUENCE_COMMANDS)
def test_file_sequence_without_codomain_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"front": {"schema": "uniform", "k": 2},
                                "valuation": {"rule": "min"}}))
    code, out, err = run_cli(argv + ["--file", str(path), "--window", "6"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[0] == (
        f"error: {argv[1]} needs a codomain order; pass --codomain")
    code, out, err = run_cli(argv + ["--file", str(path), "--window", "6",
                                     "--codomain", "omega-leq"])
    assert code in (0, 1) and "Traceback" not in err


@pytest.mark.parametrize("value", ["x", [], "", None, True, -1])
@pytest.mark.parametrize("argv", ORDERED_SEQUENCE_COMMANDS)
def test_file_value_outside_omega_leq_is_one_domain_error_line(
        tmp_path, argv, value):
    # the member (0, 1) is read by every command on the window
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"front": {"schema": "uniform", "k": 2},
                                "valuation": {"rule": "min",
                                              "table": {"0,1": value}}}))
    code, out, err = run_cli(argv + ["--codomain", "omega-leq", "--window",
                                     "4", "--file", str(path)])
    assert (code, out) == (1, ""), err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("NotInCarrier:"), err


# --- parsers built from argv ------------------------------------------------

# one valid invocation per subcommand, using every argument kind
COMMAND_ARGV = [
    ["qo", "validate", "order.json"],
    ["qo", "relations", "0,1", "1,2", "--qo", "rado", "--file", "o.json"],
    ["qo", "product", "left.json", "right.json", "--format", "json"],
    ["qo", "sum", "sum.json", "--seed", "7"],
    ["rado", "witness", "0", "1"],
    ["rado", "demo", "--window", "8"],
    ["front", "member", "--schema", "uniform", "--k", "2", "0,5"],
    ["front", "step", "--schema", "schreier", "--at", "arith:3,2"],
    ["front", "ray", "--base", "evens", "--schema", "schreier", "4"],
    ["front", "restrict", "--front-file", "f.json", "--to", "evens"],
    ["front", "rank", "--schema", "trivial"],
    ["front", "verify", "--family", "fam.json", "--samples", "omega;evens"],
    ["seq", "eval", "--fixture", "identity@u2", "--at", "evens"],
    ["seq", "spare", "--file", "seq.json", "--codomain", "rado"],
    ["seq", "sparsify", "--fixture", "min@u2", "--window", "5"],
    ["seq", "bad", "--fixture", "identity@u2", "--window", "12"],
    ["seq", "perfect", "--fixture", "minmod2@u2", "--relation", "eq"],
    ["game", "solve", "-", "--qo", "rado"],
    ["game", "play", '(set (atom "3"))', '(set (atom "1"))'],
    ["game", "supp", '(set (atom "1"))', "--qo", "chain:3"],
    ["game", "string", "--window", "10", "--at", "0,1,2,3"],
    ["game", "tilde", "--fixture", "identity@u1", "--window", "6"],
    ["extract", "ramsey", "12", "--k", "3", "--r", "3", "--rule",
     "min-parity", "--target", "3", "--budget", "99"],
    ["extract", "nw", "--coloring", "c.json", "--target", "3"],
    ["extract", "dichotomy", "--fixture", "min@u2", "--relation", "eq"],
    ["extract", "laver", "--fixture", "identity@u2", "--min-size", "5"],
    ["shift", "rho", "affine:1,5", "affine:1,2"],
    ["shift", "sigma", "id", "succ", "--window", "8"],
    ["shift", "critical", "affine:1,3"],
    ["shift", "orbit", "affine:2,0", "--window", "5"],
    ["shift", "perfect", "--fixture", "min@u2", "--shift", "succ",
     "--shift", "affine:1,2"],
]

BAD_PARSE_ARGV = [
    ["bogus"],                                   # unknown group
    ["qo", "bogus"],                             # unknown command
    ["qo"],                                      # missing command
    [],                                          # missing group
    ["qo", "validate", "x", "--bogus"],          # bad flag after a command
    ["front", "rank", "--schema", "pentagon"],   # bad choice
    ["extract", "nw", "--schema", "trivial"],    # missing required flag
    ["rado", "witness", "0", "one"],             # bad int
    ["--window", "4", "rado", "demo"],           # common flag before group
    ["qo", "--window", "4", "validate", "x"],    # common flag before command
]


def _parse_outcome(parser, argv):
    """The parsed namespace as a dict, or the usage error's message."""
    try:
        return vars(parser.parse_args(argv))
    except CliUsageError as exc:
        return f"CliUsageError: {exc}"


def test_command_corpus_covers_every_subcommand():
    assert sorted({tuple(argv[:2]) for argv in COMMAND_ARGV}) == \
        sorted(ALL_SUBCOMMANDS)


# wherever the reader gives a namespace, the full tree parses argv into the
# same one; every usage error is left to the tree
@pytest.mark.parametrize("argv", COMMAND_ARGV + USAGE_ERROR_ARGV
                         + DOMAIN_ERROR_ARGV + JSON_ARGV + BAD_PARSE_ARGV)
def test_the_reader_parses_like_the_full_parser(argv):
    read = cli._read_command(argv)
    if read is not None:
        assert vars(read) == _parse_outcome(build_parser(), argv)


@pytest.mark.parametrize("group, cmd", ALL_SUBCOMMANDS)
def test_command_help_names_the_command(group, cmd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([group, cmd, "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith(f"usage: bqo {group} {cmd} ")


def _command_tokens(group, cmd):
    """Words a drawn argv for one command is made of: its option strings,
    their prefixes, ``--opt=value`` forms and a few stray values."""
    specs = cli._COMMANDS[group][1][cmd][2]
    options = ["-h", "--help"] + [
        name for names, _ in cli._COMMON_FLAGS + specs for name in names
        if name.startswith("-")]
    longs = [o for o in options if o.startswith("--")]
    prefixes = [o[:k] for o in longs for k in range(3, len(o))]
    forms = [f"{o}={v}" for o in longs for v in ("0", "x")]
    return sorted(set(options + prefixes + forms
                      + ["--", "-1", "0", "x", "1,2", "--bogus"]))


@st.composite
def _command_argv(draw):
    group, cmd = draw(st.sampled_from(ALL_SUBCOMMANDS))
    tokens = _command_tokens(group, cmd)
    return [group, cmd] + draw(st.lists(st.sampled_from(tokens), max_size=6))


@settings(max_examples=200, deadline=None)
@given(_command_argv())
def test_drawn_argv_reads_like_the_full_parser(argv):
    read = cli._read_command(argv)
    if read is not None:
        assert vars(read) == _parse_outcome(build_parser(), argv)


# values that do not start with "-": argparse takes any of them as a value
_WORDS = st.text(alphabet="ab01,:@() -", max_size=6).filter(
    lambda word: not word.startswith("-"))


def _spec_value(kw):
    """A value the spec's ``type`` and ``choices`` accept."""
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if kw.get("type") is int:
        return st.integers(0, 10**6).map(str)
    return _WORDS


@st.composite
def _valid_argv(draw):
    """An argv the reader's grammar accepts, drawn from the spec table:
    each option absent, given or repeated, in any order, and one run of
    positionals among them; an untyped positional may be a lone ``-``."""
    group, cmd = draw(st.sampled_from(ALL_SUBCOMMANDS))
    specs = cli._COMMON_FLAGS + cli._COMMANDS[group][1][cmd][2]
    options = [(names[0], kw) for names, kw in specs
               if names[0].startswith("-")]
    positionals = [kw for names, kw in specs if not names[0].startswith("-")]
    chunks = []
    for name, kw in options:
        most = 3 if kw.get("action") == "append" else 2
        for _ in range(draw(st.integers(int(bool(kw.get("required"))),
                                        most))):
            chunks.append([name, draw(_spec_value(kw))])
    chunks = draw(st.permutations(chunks))
    least = sum(kw.get("nargs") != "?" for kw in positionals)
    run = [draw(st.just("-") | _spec_value(kw) if "type" not in kw
                else _spec_value(kw))
           for kw in positionals[:draw(st.integers(least, len(positionals)))]]
    at = draw(st.integers(0, len(chunks)))
    return [group, cmd, *sum(chunks[:at], []), *run, *sum(chunks[at:], [])]


@settings(max_examples=300, deadline=None)
@given(_valid_argv())
def test_the_reader_accepts_valid_argv_as_the_full_parser_parses_them(argv):
    read = cli._read_command(argv)
    assert read is not None
    assert vars(read) == vars(build_parser().parse_args(argv))


def test_a_dash_dash_right_after_the_command_reaches_the_command():
    argv = ["rado", "demo", "--"]
    assert cli._read_command(argv) is None
    assert _parse_outcome(build_parser(), argv) == \
        "CliUsageError: unrecognized arguments: --"
    argv = ["qo", "validate", "--", "-x"]
    assert cli._read_command(argv) is None
    assert build_parser().parse_args(argv).path == "-x"


# argparse matches an optional positional after an option in a way that
# has changed between Python versions; the reader reads one run of them
def test_the_reader_leaves_split_positionals_to_argparse():
    assert cli._read_command(["game", "solve", "a", "--qo", "rado", "b"]) \
        is None


def _parsers_built(monkeypatch, call):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    call()
    monkeypatch.undo()
    return len(built)


@pytest.mark.parametrize("argv", COMMAND_ARGV)
def test_main_builds_no_parser_for_an_argv_the_reader_accepts(
        argv, monkeypatch):
    assert _parsers_built(monkeypatch, lambda: run_cli(argv, stdin="")) == 0


def _main_outcome(argv):
    """main's exit code, or the code that help exits with, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# argv that the reader leaves to argparse, each with its exit code and the
# start of its one error line ("" where help prints or the command runs)
FULL_TREE_ARGV = [
    ([], 2, "error: missing subcommand"),
    (["--help"], 0, ""),
    (["qo"], 2, "error: missing subcommand"),
    (["qo", "-h"], 0, ""),
    (["bogus", "validate"], 2, "error: argument GROUP: invalid choice: "
                               "'bogus'"),
    (["qo", "bogus"], 2, "error: argument CMD: invalid choice: 'bogus'"),
    # named commands outside the reader's grammar
    (["rado", "witness", "--help"], 0, ""),
    (["rado", "demo", "--win", "4"], 0, ""),
    (["rado", "demo", "--window=4"], 0, ""),
    (["rado", "demo", "--"], 2, "error: unrecognized arguments: --"),
    (["front", "rank", "--schema", "trivial", "--base", "-x"], 2,
     "error: argument --base: expected one argument"),
    (["rado", "witness", "0", "one"], 2,
     "error: argument n: invalid int value: 'one'"),
    (["extract", "nw", "--schema", "trivial"], 2,
     "error: the following arguments are required: --target"),
    (["shift", "rho", "affine:1,5", "--window", "8", "affine:1,2"], 0, ""),
]


@pytest.mark.parametrize("argv, code, error", FULL_TREE_ARGV,
                         ids=[" ".join(argv) for argv, _, _ in FULL_TREE_ARGV])
def test_other_argv_builds_every_parser(argv, code, error, monkeypatch):
    every = 2 + len(cli.SUBCOMMANDS) + len(ALL_SUBCOMMANDS)
    assert cli._read_command(argv) is None
    outcome = []
    assert _parsers_built(
        monkeypatch, lambda: outcome.extend(_main_outcome(argv))) == every
    got, err = outcome
    lines = err.splitlines()
    assert got == code
    if error:
        assert lines[0].startswith(error)
        assert lines[1:] == cli._subcommand_listing().splitlines()
    else:
        assert err == ""


# --- golden replay ----------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads(
    (ROOT / "perfbench" / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_golden_invocation_replays_byte_for_byte(entry, monkeypatch):
    monkeypatch.chdir(ROOT)      # the goldens name data files from the root
    code, out, err = run_cli(entry["argv"], stdin=entry["stdin"] or "")
    assert (code, out) == (entry["exit"], entry["stdout"]), err


def test_the_reader_accepts_every_golden_argv():
    assert [entry["argv"] for entry in GOLDEN
            if cli._read_command(entry["argv"]) is None] == []


# --- fresh interpreters -----------------------------------------------------

# Every test above runs in this process, after other tests have imported the
# whole library; these start a new interpreter, so a handler that leans on a
# module some other path loaded, or an import that creeps back to the top of
# cli.py, shows here.

LIBRARY = {f"bqo.{m}" for m in ("fronts", "games", "hset", "ordinal", "qo",
                                "ramsey", "shifts", "streams", "superseq")}


def _fresh_python(*args, stdin=""):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], input=stdin, cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)


_LOADED_AFTER_EACH_STEP = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("bqo."))

import bqo.cli
bqo.cli.build_parser()
steps = [loaded()]
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
    bqo.cli.main(["--version"])
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert bqo.cli.main(["rado", "witness", "0", "1"]) == 0
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert bqo.cli.main(["game", "solve", '(set (atom "1") (atom "2"))',
                         '(set (atom "3"))']) == 0
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert bqo.cli.main(["shift", "sigma", "affine:1,5", "affine:1,2",
                         "--window", "12"]) == 0
steps.append(loaded())
print(json.dumps(steps))
"""


def test_a_command_loads_only_the_library_modules_it_uses():
    proc = _fresh_python("-c", _LOADED_AFTER_EACH_STEP)
    assert proc.returncode == 0, proc.stderr
    parser, version, witness, solve, sigma = (
        set(step) & LIBRARY for step in json.loads(proc.stdout))
    assert parser == set(), "import bqo.cli; build_parser()"
    assert version == set(), "main(['--version'])"
    assert witness == {"bqo.qo"}, "main(['rado', 'witness', '0', '1'])"
    assert solve == {"bqo.games", "bqo.hset", "bqo.qo"}, \
        "main(['game', 'solve', ...])"
    assert sigma - solve == {"bqo.shifts", "bqo.streams"}, \
        "main(['shift', 'sigma', ...])"


FIRST_GOLDEN_PER_GROUP = {e["argv"][0]: e for e in reversed(GOLDEN)}


# each group's first golden, replayed as is and under -O (the checks must
# still run there: none of them is an assert); ids "qo", "qo-O", ...
@pytest.mark.parametrize("group, flags", [
    pytest.param(group, flags, id=group + "".join(flags))
    for flags in ([], ["-O"]) for group in cli.SUBCOMMANDS])
def test_golden_invocation_replays_in_a_fresh_interpreter(group, flags):
    entry = FIRST_GOLDEN_PER_GROUP[group]
    proc = _fresh_python(*flags, "-m", "bqo.cli", *entry["argv"],
                         stdin=entry["stdin"] or "")
    got = (proc.returncode, proc.stdout)
    assert got == (entry["exit"], entry["stdout"]), proc.stderr


def test_a_negative_schreier_ray_is_one_line_in_a_fresh_interpreter():
    proc = _fresh_python("-m", "bqo.cli", "front", "ray", "--schema",
                         "schreier", "-1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["NotInBase: -1 is not in the base"]


# 2 ** 14300 has 4,305 decimal digits: the orbit values, rho's, and sigma's
# of affine:1,14300 under affine:2,1, pass the int-to-str limit before any
# text line is formatted
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["shift", "orbit", "affine:2,1", "--window", "14300"],
    ["shift", "rho", "succ", "affine:2,1", "--window", "14300"],
    ["shift", "sigma", "affine:1,14300", "affine:2,1", "--window", "4"]],
    ids=["orbit", "rho", "sigma"])
def test_values_past_the_digit_limit_are_one_line_in_a_fresh_interpreter(
        argv, fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python prints ints of any length")
    proc = _fresh_python("-m", "bqo.cli", *argv, "--format", fmt)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.splitlines() == [_digit_limit_line(limit)]


# --- Python's int-to-str and recursion limits --------------------------------

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python prints ints of any length")


def _recursion_limit_line():
    return ("RecursionError: input nested deeper than Python's recursion "
            f"limit ({sys.getrecursionlimit()}) allows")


def _deep_json(tmp_path):
    """A file of 100,000 nested JSON arrays."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return str(path)


def _deep_front(tmp_path):
    """A seq front file whose defaults nest 450 seq fronts around u1; at
    300 deep its rank check ends inside the limit, at a declared rank."""
    front = {"schema": "uniform", "k": 1}
    for _ in range(450):
        front = {"schema": "seq", "rays": {}, "default": front, "rank": [1]}
    path = tmp_path / "front.json"
    path.write_text(json.dumps(front), encoding="utf-8")
    return str(path)


# D, the longest int argv reads, is DIGIT_LIMIT nines; each argv computes an
# int with one more digit, which main reports before printing anything
_PAST_THE_DIGIT_LIMIT = {
    "seq-eval-span": lambda d: ["seq", "eval", "--fixture", "span@u3",
                                "--at", f"arith:0,{d}"],
    "seq-eval-identity": lambda d: ["seq", "eval", "--fixture", "identity@u2",
                                    "--at", f"arith:{d},{d}"],
    "front-step": lambda d: ["front", "step", "--schema", "uniform", "--k",
                             "3", "--at", f"arith:{d},{d}"],
    "front-verify": lambda d: ["front", "verify", "--schema", "uniform",
                               "--k", "2", "--samples", f"arith:{d},1"],
}

_PAST_THE_RECURSION_LIMIT = {
    "qo-validate": lambda tmp: ["qo", "validate", _deep_json(tmp)],
    "seq-bad": lambda tmp: ["seq", "bad", "--file", _deep_json(tmp),
                            "--codomain", "omega-leq"],
    "front-rank": lambda tmp: ["front", "rank", "--front-file",
                               _deep_front(tmp)],
}


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", _PAST_THE_DIGIT_LIMIT)
def test_an_int_past_the_digit_limit_is_one_line(name, fmt):
    argv = _PAST_THE_DIGIT_LIMIT[name]("9" * DIGIT_LIMIT)
    assert run_cli(argv + ["--format", fmt]) == (
        1, "", _digit_limit_line(DIGIT_LIMIT) + "\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", _PAST_THE_RECURSION_LIMIT)
def test_input_past_the_recursion_limit_is_one_line(name, fmt, tmp_path):
    argv = _PAST_THE_RECURSION_LIMIT[name](tmp_path)
    assert run_cli(argv + ["--format", fmt]) == (
        1, "", _recursion_limit_line() + "\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_both_limits_are_one_line_in_a_fresh_interpreter(fmt, tmp_path):
    argv = ["qo", "validate", _deep_json(tmp_path), "--format", fmt]
    proc = _fresh_python("-m", "bqo.cli", *argv)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.splitlines() == [_recursion_limit_line()]
    if not DIGIT_LIMIT:
        pytest.skip("this Python prints ints of any length")
    argv = _PAST_THE_DIGIT_LIMIT["seq-eval-span"]("9" * DIGIT_LIMIT)
    proc = _fresh_python("-m", "bqo.cli", *argv, "--format", fmt)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.splitlines() == [_digit_limit_line(DIGIT_LIMIT)]


# numbers that argv reads, and the one digit more that it refuses (exit 2)
_DIGITS = DIGIT_LIMIT or 4300
_NUMBERS = st.integers(-2, 40).map(str) | st.builds(
    lambda digit, n: str(digit) * n, st.integers(1, 9),
    st.sampled_from([_DIGITS - 1, _DIGITS, _DIGITS + 1]))
_UNIFORM = st.sampled_from([["--schema", "uniform", "--k", str(k)]
                            for k in range(1, 5)])


@st.composite
def _numeric_argv(draw):
    """A command that computes with drawn numbers."""
    a, b = draw(_NUMBERS), draw(_NUMBERS)
    window = str(draw(st.integers(2, 24)))
    argv = draw(st.sampled_from([
        ["seq", "eval", "--fixture",
         draw(st.sampled_from(["span", "identity", "min"])) + "@"
         + draw(st.sampled_from(["u1", "u2", "u3", "schreier"])),
         "--at", f"arith:{a},{b}"],
        ["front", "step", "--schema", "uniform", "--k",
         str(draw(st.integers(1, 4))), "--at", f"arith:{a},{b}"],
        ["front", "member", "--schema", "uniform", "--k", "2", f"{a},{b}"],
        ["front", "restrict", *draw(_UNIFORM | st.just(["--schema",
                                                         "schreier"])),
         "--to", f"arith:{a},{b}"],
        ["front", "verify", *draw(_UNIFORM), "--samples", f"arith:{a},{b}"],
        ["front", "ray", "--schema", "schreier", a],
        ["shift", "critical", f"affine:1,{a}"],
        ["shift", "orbit", f"affine:{a},{b}", "--window", window],
        ["shift", "rho", f"affine:{a},{b}", "affine:2,1", "--window",
         window],
        ["shift", "sigma", f"affine:{a},{b}", "affine:2,1", "--window",
         window]]))
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


# a Schreier front read from a far start consumes its 100,000-element
# bound, about a second; front verify keeps to uniform fronts for that
@settings(max_examples=150, deadline=None)
@given(_numeric_argv())
@example(["seq", "eval", "--fixture", "span@u3", "--at",
          f"arith:0,{'9' * _DIGITS}"])
@example(["shift", "sigma", f"affine:1,{'9' * _DIGITS}", "affine:2,1",
          "--window", "4"])
def test_no_drawn_number_ends_in_a_traceback(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert out == "" and len(err.splitlines()) == 1
    else:
        assert err.startswith("error: ")


def test_the_installed_script_probes_pass_on_the_source_tree():
    # CI runs the same probes on the installed console script
    proc = _fresh_python(str(ROOT / "tests" / "installed_probes.py"),
                         sys.executable, "-m", "bqo.cli")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(proc.stdout.splitlines()) == 6


def test_a_refused_argv_is_one_usage_error_in_a_fresh_interpreter():
    proc = _fresh_python("-m", "bqo.cli", "rado", "witness", "0", "one")
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert lines[0].startswith("error: ")
    assert lines[1:] == cli._subcommand_listing().splitlines()


def test_command_help_in_a_fresh_interpreter():
    proc = _fresh_python("-m", "bqo.cli", "game", "solve", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bqo game solve ")
