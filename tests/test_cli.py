"""End-to-end tests for the command-line front end.

Each test drives ``bqo.cli.main`` in-process and checks the exit-code
contract: 0 on success, 1 when a checked precondition fails, 2 on usage
errors.  JSON output must be byte-identical across repeated runs.
"""
import contextlib
import io
import json
import sys

import pytest

from bqo.cli import main


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


def run_json(argv):
    code, out, err = run_cli(argv + ["--format", "json"])
    assert code == 0, f"exit {code}: {err}"
    return json.loads(out)


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
    @pytest.mark.parametrize("argv", [
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
    ])
    def test_usage_errors_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2, f"{argv} gave exit {code}"

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

    @pytest.mark.parametrize("argv", [
        ["rado", "witness", "3", "3"],           # needs m < n
        ["front", "ray", "--schema", "trivial", "0"],
        ["front", "restrict", "--schema", "uniform", "--k", "2",
         "--base", "evens", "--to", "odds"],
        ["shift", "critical", "id"],             # no critical point
        ["game", "string", "--window", "8", "--at", "5,2"],
    ])
    def test_domain_errors_exit_one(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1, f"{argv} gave exit {code} ({err})"
        assert err.strip(), "domain errors must explain themselves on stderr"


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

    @pytest.mark.parametrize("argv", [
        ["rado", "witness", "2", "7"],
        ["extract", "nw", "--schema", "uniform", "--k", "2",
         "--rule", "sum-parity", "--target", "3", "--window", "8"],
        ["game", "solve", '(set (atom "1") (atom "2"))', '(set (atom "3"))'],
        ["shift", "sigma", "affine:1,5", "affine:1,2", "--window", "8"],
    ])
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


# --- shift group ------------------------------------------------------------

class TestShiftCommands:
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
