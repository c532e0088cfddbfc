from __future__ import annotations

import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqo.ramsey
from bqo.errors import (
    DomainError,
    EmbeddingCheckFailed,
    InvariantViolated,
    MissingColor,
    NotAPair,
    NotBadOnWindow,
    NotBadPowersetSeq,
    RamseyStageFailed,
    WindowExhausted,
)
from bqo.fronts import (
    Front,
    front_member,
    front_to_dict,
    members_within,
    schreier_front,
    trivial_front,
    uniform_front,
)
from bqo.qo import OMEGA, RADO, CodedQO, antichain, rado_leq
from bqo.ramsey import (
    Coloring,
    Homogeneous,
    coloring_from_dict,
    dichotomy_extract,
    f2_to_powerset_badseq,
    finite_ramsey,
    join_nodes,
    laver_embed,
    member_colours,
    named_coloring,
    nw_extract,
    powerset_badseq_to_f2,
    _pair_order_violations,
)
from bqo.shifts import parse_inj
from bqo.streams import InfSet, odds, parse_base
from bqo.superseq import SuperSeq, badness_check, named_valuation, perfect_check

from _helpers import (SHIFT_PAIR_FRONTS, dichotomy_extract_reference,
                      join_nodes_reference, nw_extract_reference,
                      pair_order_violations_reference)

OMEGA_EQ = CodedQO(
    name="omega-eq",
    check=OMEGA.check,
    leq=lambda a, b: OMEGA.check(a) == OMEGA.check(b),
    raw_leq=lambda a, b: a == b,
    key=lambda x: x,
    fmt=str,
    parse=int,
)


def identity_u2() -> SuperSeq:
    return SuperSeq(front=uniform_front(2), valuation=named_valuation("identity"),
                    codomain=RADO, name="identity")


def pentagon(s) -> int:
    i, j = s
    return 1 if abs(i - j) in (1, 4) else 0


def brute_max_homogeneous(n: int, k: int, color):
    """All-subsets reference: largest (lex-least) homogeneous subset."""
    for size in range(n, -1, -1):
        for cand in itertools.combinations(range(n), size):
            colors = {color(tuple(sub)) for sub in itertools.combinations(cand, k)}
            if len(colors) <= 1:
                return cand, (colors.pop() if colors else None)
    return (), None


class TestFiniteRamsey:
    def test_pigeonhole_parity(self):
        rep = finite_ramsey(10, 1, 2, lambda s: s[0] % 2)
        assert rep.Z == (0, 2, 4, 6, 8)
        assert rep.color == 0
        assert rep.exhaustive

    def test_pigeonhole_prefers_lex_least_class_on_ties(self):
        # both classes have five elements; the even class is lex-least,
        # whatever its color
        rep = finite_ramsey(10, 1, 2, lambda s: (s[0] + 1) % 2)
        assert rep.Z == (0, 2, 4, 6, 8)
        assert rep.color == 1

    def test_pentagon_max_homogeneous_is_two(self):
        rep = finite_ramsey(5, 2, 2, pentagon)
        assert rep.Z == (0, 1)
        assert rep.color == 1
        assert rep.exhaustive

    def test_degenerate_single_color(self):
        for n, target, want in [(9, 4, 4), (9, None, 9), (3, 7, 3)]:
            rep = finite_ramsey(n, 2, 1, lambda s: 0, target=target)
            assert rep.Z == tuple(range(want))
            assert rep.exhaustive

    def test_target_returns_lex_least_of_that_size(self):
        rep = finite_ramsey(6, 2, 2, lambda s: (s[0] + s[1]) % 2, target=3)
        assert rep.Z == (0, 2, 4)
        assert rep.color == 0

    def test_target_larger_than_best_returns_best_found(self):
        rep = finite_ramsey(5, 2, 2, pentagon, target=4)
        assert len(rep.Z) == 2
        assert rep.exhaustive

    def test_budget_cutoff_clears_exhaustive_flag(self):
        rep = finite_ramsey(12, 2, 2, lambda s: (s[0] * s[1]) % 2, budget=5)
        assert not rep.exhaustive

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            finite_ramsey(-1, 2, 2, lambda s: 0)
        with pytest.raises(ValueError):
            finite_ramsey(4, 0, 2, lambda s: 0)
        with pytest.raises(ValueError):
            finite_ramsey(4, 2, 0, lambda s: 0)

    @given(st.integers(0, 2 ** 15 - 1), st.integers(4, 6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, bits, n):
        pairs = list(itertools.combinations(range(n), 2))
        table = {p: (bits >> i) & 1 for i, p in enumerate(pairs)}
        color = lambda s: table[s]
        rep = finite_ramsey(n, 2, 2, color)
        want_Z, want_color = brute_max_homogeneous(n, 2, color)
        assert rep.Z == want_Z
        assert rep.exhaustive
        if len(rep.Z) >= 2:
            assert rep.color == want_color

    @given(st.integers(0, 2 ** 15 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ramsey_number_guarantee_at_six(self, bits):
        # every 2-coloring of pairs from six points has a one-colored triple
        pairs = list(itertools.combinations(range(6), 2))
        table = {p: (bits >> i) & 1 for i, p in enumerate(pairs)}
        rep = finite_ramsey(6, 2, 2, lambda s: table[s], target=3)
        assert len(rep.Z) == 3
        colors = {table[p] for p in itertools.combinations(rep.Z, 2)}
        assert colors == {rep.color}


class TestColoring:
    def test_named_rules(self):
        assert named_coloring("sum-parity")((1, 2)) == 1
        assert named_coloring("size-parity")((1, 2)) == 0
        assert named_coloring("min-parity")((3, 6)) == 1
        assert named_coloring("max-parity")((3, 6)) == 0
        assert named_coloring("constant:1")((0, 9)) == 1

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            named_coloring("zigzag")

    def test_from_dict_with_rule(self):
        col = coloring_from_dict({"front": {"schema": "uniform", "k": 2},
                                  "rule": "sum-parity"})
        assert isinstance(col.front, Front)
        assert col.color((0, 3)) == 1
        assert col.r == 2

    def test_from_dict_with_table(self):
        col = coloring_from_dict({
            "front": {"schema": "uniform", "k": 1},
            "table": {"0": 1, "1": 0},
            "default": 1,
        })
        assert col.color((0,)) == 1
        assert col.color((1,)) == 0
        assert col.color((7,)) == 1

    def test_from_dict_table_without_default_is_partial(self):
        col = coloring_from_dict({"front": {"schema": "uniform", "k": 1},
                                  "table": {"0": 1}})
        with pytest.raises(KeyError):
            col.color((5,))

    @pytest.mark.parametrize("extra, message", [
        ({"table": {"0,,1": 2}}, "coloring table key '0,,1' is not canonical"),
        ({"table": {"0,": 2}}, "coloring table key '0,' is not canonical"),
        # int() reads "00,1" as (0, 1), a second key for one member
        ({"table": {"0,1": 0, "00,1": 1, "+0,2": 1, " 1,2": 0}},
         "coloring table key '00,1' is not canonical: write \"\" or "
         "naturals without leading zeros joined by commas"),
        ({"table": {"0,1": 0, "0,1,2": 1}},
         "coloring table key '0,1,2' names no member of the front"),
        ({"table": {"0,1": 0, "5": 1}},
         "coloring table key '5' names no member of the front"),
        ({"table": {"2,1": 0}},
         "coloring table key '2,1' names no member of the front"),
        ({"table": {"0,1": 2.7}}, "color of '0,1' must be a JSON integer"),
        ({"table": {"0,2": True}}, "color of '0,2' must be a JSON integer"),
        ({"table": {}, "default": 1.0}, "'default' must be a JSON integer"),
        ({"table": {}, "default": "1"}, "'default' must be a JSON integer"),
        ({"rule": "sum-parity", "r": 2.0}, "'r' must be a JSON integer"),
        ({"table": {}, "r": True}, "'r' must be a JSON integer"),
    ])
    def test_from_dict_refuses_loose_keys_and_non_integer_colors(
            self, extra, message):
        error = ValueError if "key" in message else TypeError
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            coloring_from_dict({"front": {"schema": "uniform", "k": 2},
                                **extra})

    def test_missing_table_color_is_a_domain_error_naming_the_member(self):
        col = coloring_from_dict({"front": {"schema": "uniform", "k": 1},
                                  "table": {"0": 1}})
        with pytest.raises(MissingColor) as info:
            nw_extract(col, 4, 2)
        assert isinstance(info.value, DomainError)
        assert str(info.value) == "no color for member (1,)"


class TestNWExtract:
    def test_point_parity(self):
        rep = nw_extract(Coloring(uniform_front(1), named_coloring("min-parity")),
                         8, 4)
        assert rep.Z == (0, 2, 4, 6)
        assert rep.side == 0
        assert rep.witnesses == (((0,), 0), ((2,), 0), ((4,), 0), ((6,), 0))
        assert rep.exhaustive

    def test_pair_sum_parity(self):
        rep = nw_extract(Coloring(uniform_front(2), named_coloring("sum-parity")),
                         8, 3)
        assert rep.Z == (0, 2, 4)
        assert rep.side == 0
        assert {s for s, _ in rep.witnesses} == {(0, 2), (0, 4), (2, 4)}

    def test_variable_size_parity(self):
        rep = nw_extract(Coloring(schreier_front(), named_coloring("size-parity")),
                         12, 3)
        # any set containing 0 realises the singleton member {0} of odd size,
        # so the even side starts at 1
        assert rep.Z == (1, 2, 3)
        assert rep.side == 0
        assert {s for s, _ in rep.witnesses} == {(1, 2), (1, 3)}

    def test_side_one_when_side_zero_impossible(self):
        rep = nw_extract(Coloring(uniform_front(1), named_coloring("constant:1")),
                         6, 4)
        assert rep.side == 1
        assert rep.Z == (0, 1, 2, 3)

    def test_pentagon_admits_no_homogeneous_triple(self):
        family = tuple(itertools.combinations(range(5), 2))
        with pytest.raises(WindowExhausted):
            nw_extract(Coloring(family, pentagon), 5, 3)

    def test_target_beyond_window_raises(self):
        with pytest.raises(WindowExhausted):
            nw_extract(Coloring(uniform_front(1), named_coloring("min-parity")),
                       6, 5)

    def test_requires_two_colors(self):
        with pytest.raises(ValueError):
            nw_extract(Coloring(uniform_front(1), lambda s: 0, r=3), 6, 2)

    def test_color_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nw_extract(Coloring(uniform_front(1), lambda s: 2), 6, 2)

    def test_raw_family_restricted_to_window(self):
        family = ((0, 9), (0, 1), (1, 2))
        rep = nw_extract(Coloring(family, lambda s: 0), 5, 3)
        # the member reaching 9 lies beyond the window and is ignored
        assert rep.Z == (0, 1, 2)
        assert {s for s, _ in rep.witnesses} == {(0, 1), (1, 2)}

    @given(st.integers(0, 2 ** 15 - 1))
    @settings(max_examples=60, deadline=None)
    def test_six_point_pair_colorings_always_yield_triples(self, bits):
        pairs = list(itertools.combinations(range(6), 2))
        table = {p: (bits >> i) & 1 for i, p in enumerate(pairs)}
        rep = nw_extract(Coloring(tuple(pairs), lambda s: table[s]), 6, 3)
        assert len(rep.Z) == 3
        for s in itertools.combinations(rep.Z, 2):
            assert table[s] == rep.side

    @given(st.integers(0, 2 ** 10 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_recoloring_members_inside_Z_gives_declared_side(self, bits, target):
        front = schreier_front()
        window = 10
        from bqo.fronts import members_within
        members = members_within(front, window)
        table = {s: (bits >> (i % 10)) & 1 for i, s in enumerate(members)}
        col = Coloring(front, lambda s: table[s])
        try:
            rep = nw_extract(col, window, target)
        except WindowExhausted:
            return
        inside = set(rep.Z)
        for s in members:
            if set(s) <= inside:
                assert table[s] == rep.side


def nw_outcome(extract, col, window: int, target: int):
    """What a window extraction reports, or the error it raises."""
    try:
        rep = extract(col, window, target)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return (rep.Z, rep.side, rep.window, rep.target, rep.exhaustive,
            rep.members_checked, rep.witnesses)


def nw_colorings(front, rng: random.Random) -> list:
    """The named rules, a rule that leaves the colour range, and random
    tables over the members below 7, with a default and without."""
    cols = [Coloring(front, named_coloring(rule)) for rule in
            ("sum-parity", "size-parity", "min-parity", "max-parity",
             "constant:0", "constant:1", "constant:2")]
    for default in (0, None):
        rows = {",".join(map(str, s)): rng.randrange(2)
                for s in members_within(front, 7) if rng.random() < 0.7}
        data = {"front": front_to_dict(front), "table": rows}
        if default is not None:
            data["default"] = default
        cols.append(coloring_from_dict(data))
    return cols


class TestNWExtractClosedForm:
    """nw_extract against the member_colours path on every front."""

    @pytest.mark.parametrize("front", [
        "trivial", "u1", "u2", "u3", "u2-evens", "u3-prefix", "schreier",
        "seq"])
    def test_matches_the_member_colours_path(self, front):
        front = SHIFT_PAIR_FRONTS[front][0]
        rng = random.Random(f"nw {front}")
        for col in nw_colorings(front, rng):
            for window in (0, 1, 3, 5, 8, 10, 12):
                for target in range(6):
                    assert nw_outcome(nw_extract, col, window, target) == \
                        nw_outcome(nw_extract_reference, col, window,
                                   target), (col.color, window, target)


def one_sided(Z, family: dict, side: int) -> bool:
    """Every member of the family inside Z has colour side."""
    return all(c == side for s, c in family.items() if set(s) <= set(Z))


def random_family(seed: int):
    """Seven ascending points below 12 and a random 2-colouring of a random
    family of their 1-, 2- and 3-subsets."""
    rng = random.Random(seed)
    points = tuple(sorted(rng.sample(range(12), 7)))
    family = {s: rng.randrange(2) for k in (1, 2, 3)
              for s in itertools.combinations(points, k) if rng.random() < 0.5}
    return points, family


class TestHomogeneous:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_exact_size_is_filtered_combinations_in_order(self, seed):
        points, family = random_family(seed)
        colours = member_colours(family)
        for side in (0, 1):
            for size in range(len(points) + 2):
                want = [Z for Z in itertools.combinations(points, size)
                        if one_sided(Z, family, side)]
                assert list(Homogeneous(points, colours, side, size)) == want

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_max_search_yields_least_set_of_each_size(self, seed):
        points, family = random_family(seed)
        colours = member_colours(family)
        for side in (0, 1):
            want = []
            for size in range(1, len(points) + 1):
                least = next((Z for Z in itertools.combinations(points, size)
                              if one_sided(Z, family, side)), None)
                if least is None:
                    break
                want.append(least)
            assert list(Homogeneous(points, colours, side)) == want


JOIN_FRONTS = {name: front for name, (front, _) in SHIFT_PAIR_FRONTS.items()}
JOIN_FRONTS["schreier-odds"] = schreier_front(odds())


class TestJoinNodes:
    def test_pair_front_joins_are_triples(self):
        joins = join_nodes(uniform_front(2), 5)
        assert len(joins) == 10
        for u, s, t in joins:
            a, b, c = u
            assert s == (a, b) and t == (b, c)

    def test_point_front_joins_are_pairs(self):
        joins = join_nodes(uniform_front(1), 4)
        assert [(u, s, t) for u, s, t in joins] == [
            ((a, b), (a,), (b,))
            for a, b in itertools.combinations(range(4), 2)]

    def test_trivial_front_joins_are_single_points(self):
        joins = join_nodes(trivial_front(), 3)
        assert joins == [((0,), (), ()), ((1,), (), ()), ((2,), (), ())]

    def test_minimality_length_law(self):
        for front in (uniform_front(2), uniform_front(3), schreier_front()):
            for u, s, t in join_nodes(front, 7):
                assert len(u) == max(len(s), len(t) + 1)
                assert tuple(sorted(set(s) | set(t))) == u
                assert front_member(front, s)
                assert front_member(front, t)

    def test_variable_front_join_count(self):
        # members sized by least entry: joins group by their two least points
        joins = join_nodes(schreier_front(), 6)
        assert len(joins) == 10

    @pytest.mark.parametrize("shift", ["succ", "affine:1,2", "affine:2,0",
                                       "affine:2,1"])
    @pytest.mark.parametrize("name", sorted(JOIN_FRONTS))
    def test_matches_the_unpruned_reference_walk(self, name, shift):
        front = JOIN_FRONTS[name]
        for window in range(13):
            g = parse_inj(shift)
            assert join_nodes(front, window, g) == \
                join_nodes_reference(front, window, g), window

    @pytest.mark.parametrize("g", [lambda i: 0, lambda i: -1,
                                   lambda i: i - 1, lambda i: 3 - i,
                                   lambda i: min(i, 2)])
    def test_g_not_increasing_and_non_negative_is_refused(self, g):
        with pytest.raises(ValueError, match="increasing and non-negative"):
            join_nodes(uniform_front(2), 8, g)

    # windows holding 0, 3, 7 and 10 points of each base
    @pytest.mark.parametrize("shift", ["succ", "affine:1,2", "affine:2,0",
                                       "affine:2,1", "past"])
    @pytest.mark.parametrize("base, windows", [
        ("omega", (0, 3, 7, 10)), ("evens", (0, 6, 14, 20)),
        ("prefix:0,2+arith:5,3", (0, 6, 18, 27))])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_uniform_closed_form_matches_the_reference_walk(
            self, k, base, windows, shift):
        front = uniform_front(k, parse_base(base))
        g = (lambda i: 5 + i) if shift == "past" else parse_inj(shift)
        for window in windows:
            joins = join_nodes(front, window, g)
            assert joins == join_nodes_reference(front, window, g), window
            if joins:
                assert {len(u) for u, _, _ in joins} == \
                    {max(k, g(k - 1) + 1)}

    def test_g_beyond_the_window_gives_no_g_subsequence(self):
        # no pick below the window: t is never resolved on a nonempty front
        assert join_nodes(uniform_front(2), 5, lambda i: 5 + i) == []
        assert join_nodes(trivial_front(), 3, lambda i: 5 + i) == [
            ((0,), (), ()), ((1,), (), ()), ((2,), (), ())]


def brute_colours(family: dict, cur) -> list:
    return sorted(c for s, c in family.items()
                  if s and s[-1] == cur[-1] and set(s) <= set(cur))


class TestMemberColours:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        # up to 90 distinct points, some far above 64: masks span several
        # machine words; the empty member is in every family
        rng = random.Random(seed)
        spread = rng.choice([1, 3, 7, 50])
        points = sorted(rng.sample(range(0, 100 * spread, spread),
                                   rng.randint(5, 90)))
        family = {(): rng.randrange(2)}
        for _ in range(rng.randint(1, 200)):
            s = tuple(sorted(rng.sample(points, rng.randint(1, 4))))
            family[s] = rng.randrange(3)
        colours = member_colours(family)
        members = [s for s in family if s]
        for _ in range(300):
            picked = set(rng.choice(members))
            picked.update(rng.sample(points, rng.randint(0, 6)))
            cur = sorted(picked)
            assert sorted(colours(cur)) == brute_colours(family, cur), cur
            cur = cur[:rng.randint(1, len(cur))]
            assert sorted(colours(cur)) == brute_colours(family, cur), cur

    def test_points_outside_every_member_and_sparse_bases(self):
        family = {(): 1, (2,): 0, (2, 100): 1, (64, 100): 0, (100,): 1,
                  (1000, 10 ** 6): 0}
        colours = member_colours(family)
        assert sorted(colours([2, 64, 100])) == [0, 1, 1]
        assert sorted(colours([2, 5, 100])) == [1, 1]
        assert list(colours([5])) == []
        assert list(colours([1000, 10 ** 6])) == [0]
        assert list(colours([10 ** 6])) == []


def listed_base(points):
    points = tuple(points)

    def value(i: int) -> int:
        if i < len(points):
            return points[i]
        return points[-1] + 1 + (i - len(points))

    return InfSet(value, name="listed")


class TestDichotomy:
    def test_increasing_minima_land_on_strict_order(self):
        phi = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                       name="min")
        rep = dichotomy_extract(phi, lambda a, b: a < b, 8, relation_name="lt")
        assert rep.side == "lt"
        assert rep.side_index == 1
        assert rep.Z == tuple(range(8))
        assert rep.pairs_verified == rep.joins_colored == 56

    def test_pair_identity_lands_on_complement(self):
        rep = dichotomy_extract(identity_u2(), rado_leq, 8,
                                relation_name="rado-leq")
        assert rep.side == "rado-leq-complement"
        assert rep.side_index == 0
        assert rep.Z == tuple(range(8))

    def test_constant_valuation_lands_on_relation(self):
        phi = SuperSeq(front=uniform_front(2),
                       valuation=named_valuation("constant:5"), codomain=OMEGA,
                       name="c5")
        rep = dichotomy_extract(phi, OMEGA.leq, 8)
        assert rep.side == "R"
        assert rep.Z == tuple(range(8))

    def test_mixed_relation_returns_largest_one_sided_set(self):
        # minimum modulo 2, compared by equality: one shift ahead the
        # minimum moves from a to b, so the relation holds exactly on
        # same-parity neighbours
        phi = SuperSeq(front=uniform_front(2),
                       valuation=named_valuation("minmod2"), name="m2")
        rep = dichotomy_extract(phi, lambda a, b: a == b, 8, relation_name="eq")
        assert rep.side == "eq"
        # a join compares minima, so only the two least entries matter and
        # trailing points with no room for a completion ride along free
        assert rep.Z == (0, 2, 4, 6, 7)
        for a, b in itertools.combinations(rep.Z[:-1], 2):
            assert a % 2 == b % 2 or b == rep.Z[-1]

    def test_output_passes_perfect_check_on_restricted_base(self):
        phi = SuperSeq(front=uniform_front(2),
                       valuation=named_valuation("minmod2"), name="m2")
        R = lambda a, b: a == b
        rep = dichotomy_extract(phi, R, 8, relation_name="eq")
        restricted = SuperSeq(front=uniform_front(2, listed_base(rep.Z)),
                              valuation=phi.valuation, name="m2|Z")
        side_R = R if rep.side_index == 1 else (lambda a, b: not R(a, b))
        assert perfect_check(restricted, side_R, max(rep.Z) + 1).holds

    def test_schreier_front_dichotomy(self):
        phi = SuperSeq(front=schreier_front(),
                       valuation=lambda s: len(s), name="size")
        rep = dichotomy_extract(phi, lambda a, b: a <= b, 7, relation_name="le")
        inside = set(rep.Z)
        for u, s, t in join_nodes(schreier_front(), 7):
            if set(u) <= inside:
                assert (len(s) <= len(t)) == (rep.side_index == 1)


    def test_relation_answering_differently_again_is_caught(self):
        answers = iter([True] * len(join_nodes(uniform_front(2), 6)))
        phi = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                       name="min")
        with pytest.raises(InvariantViolated):
            dichotomy_extract(phi, lambda a, b: next(answers, False), 6)

    @pytest.mark.parametrize("window", [6, 7, 8, 9])
    @pytest.mark.parametrize("relation", ["leq", "eq"])
    @pytest.mark.parametrize("fixture", ["span@u3", "min@schreier"])
    def test_agrees_with_all_subsets_brute_force(self, fixture, relation,
                                                 window):
        rule, front = fixture.split("@")
        front = uniform_front(3) if front == "u3" else schreier_front()
        phi = SuperSeq(front=front, valuation=named_valuation(rule),
                       codomain=OMEGA, name=fixture)
        R = OMEGA.leq if relation == "leq" else (lambda a, b: a == b)
        rep = dichotomy_extract(phi, R, window)
        assert (rep.Z, rep.side_index, rep.pairs_verified) == \
            brute_dichotomy(phi, R, window)


    @pytest.mark.parametrize("front", ["u1", "u2", "u3", "schreier"])
    def test_matches_the_two_search_reference_on_random_valuations(
            self, front):
        front = SHIFT_PAIR_FRONTS[front][0]
        rng = random.Random(f"dichotomy {front}")
        for window in range(12):
            for colours in (2, 3, 3):
                table = {m: rng.randrange(colours)
                         for m in members_within(front, window)}
                for R in (operator.le, operator.eq, operator.lt):
                    phi = SuperSeq(front=front, valuation=table.__getitem__,
                                   name="random")
                    assert dichotomy_outcome(dichotomy_extract, phi, R,
                                             window) == \
                        dichotomy_outcome(dichotomy_extract_reference, phi,
                                          R, window)

    # the fixture sweep: u3 and schreier at windows 8 and 12 only
    @pytest.mark.parametrize("front", ["u1", "u2", "u3", "schreier",
                                       "u2-evens", "u3-prefix", "u4"])
    @pytest.mark.parametrize("rule", ["min", "span", "minmod2", "identity"])
    def test_matches_the_two_search_reference_on_fixtures(self, rule, front):
        windows = (8, 12, 16) if front in ("u1", "u2") else (8, 12)
        codomain = {"identity": RADO, "minmod2": antichain(2)}.get(rule,
                                                                   OMEGA)
        outcomes = []
        for window in windows:
            for relation in ("leq", "eq"):
                for extract in (dichotomy_extract,
                                dichotomy_extract_reference):
                    # as the CLI reads a fixture and its --relation
                    phi = SuperSeq(front=SHIFT_PAIR_FRONTS[front][0],
                                   valuation=named_valuation(rule),
                                   codomain=codomain, name=rule)
                    R = operator.eq
                    if relation == "leq":
                        phi, R = phi.checked(), codomain.raw_leq
                    outcomes.append(dichotomy_outcome(
                        extract, phi, R, window, relation))
        assert outcomes[::2] == outcomes[1::2]


def dichotomy_outcome(extract, phi, R, window: int, name: str = "R"):
    """What a dichotomy extraction reports, or the error it raises."""
    try:
        rep = extract(phi, R, window, name)
    except DomainError as exc:
        return type(exc), str(exc)
    return (rep.Z, rep.side, rep.side_index, rep.joins_colored,
            rep.pairs_verified)


def brute_dichotomy(phi, R, window: int):
    """Largest one-sided set over all subsets of the join nodes' points:
    side 0 on ties, lexicographically least; with its side and the number
    of join nodes inside it."""
    joins = {u: 1 if R(phi.value(s), phi.value(t)) else 0
             for u, s, t in join_nodes(phi.front, window)}
    points = sorted({x for u in joins for x in u})
    for size in range(len(points), 0, -1):
        for side in (0, 1):
            for Z in itertools.combinations(points, size):
                if one_sided(Z, joins, side):
                    return Z, side, sum(1 for u in joins if set(u) <= set(Z))
    raise AssertionError("no one-sided point")


class TestLaverEmbed:
    def test_identity_embeds_at_twelve(self):
        rep = laver_embed(identity_u2(), 12)
        assert rep.X == tuple(range(1, 12))
        assert rep.pairs_checked == 3025
        assert rep.triples.homogeneous == tuple(range(12))
        assert rep.quadruples.homogeneous == tuple(range(12))
        assert rep.triples.side == 1 and rep.quadruples.side == 1

    def test_identity_embedding_holds_both_directions(self):
        rep = laver_embed(identity_u2(), 9)
        f = identity_u2()
        pairs = list(itertools.combinations(rep.X, 2))
        for p in pairs:
            for q in pairs:
                assert rado_leq(p, q) == RADO.leq(f.value(p), f.value(q))

    def test_small_window_still_succeeds(self):
        rep = laver_embed(identity_u2(), 5)
        assert rep.X == (1, 2, 3, 4)

    def test_window_four_fails_at_triple_stage(self):
        with pytest.raises(RamseyStageFailed):
            laver_embed(identity_u2(), 4)

    def test_min_size_is_honoured(self):
        with pytest.raises(RamseyStageFailed):
            laver_embed(identity_u2(), 5, min_size=5)
        rep = laver_embed(identity_u2(), 6, min_size=5)
        assert len(rep.X) == 5

    def test_good_sequence_rejected(self):
        const = SuperSeq(front=uniform_front(2), valuation=lambda s: (0, 1),
                         codomain=RADO, name="cpair")
        with pytest.raises(NotBadOnWindow):
            laver_embed(const, 8)

    def test_injective_equality_values_fail_the_triple_stage(self):
        # distinct values under equality: bad, but no comparison ever holds,
        # so no usable homogeneous set exists on the embedding side
        inj = SuperSeq(front=uniform_front(2), valuation=lambda s: s[0] * 100 + s[1],
                       codomain=OMEGA_EQ, name="inj")
        with pytest.raises(RamseyStageFailed):
            laver_embed(inj, 8)

    def test_embedding_verification_catches_disagreement(self):
        # comparisons hold everywhere except across equal shift boundaries,
        # so both stages pass and badness holds, but the reverse direction
        # of the same-first-entry comparisons disagrees with the pair order
        loose = CodedQO(
            name="loose",
            check=lambda x: x,
            leq=lambda a, b: a[1] != b[0],
            raw_leq=lambda a, b: a[1] != b[0],
            key=lambda x: x,
            fmt=str,
            parse=lambda s: s,
        )
        f = SuperSeq(front=uniform_front(2), valuation=lambda s: tuple(s),
                     codomain=loose, name="id-loose")
        with pytest.raises(EmbeddingCheckFailed) as exc:
            laver_embed(f, 5)
        assert exc.value.pairs
        p, q, left, right = exc.value.pairs[0]
        assert rado_leq(p, q) == left
        assert loose.leq(tuple(p), tuple(q)) == right
        assert left != right

    def test_each_value_is_checked_once(self):
        checked = []

        def check(v):
            checked.append(v)
            return RADO.check(v)

        def leq(a, b):
            check(a)
            check(b)
            return RADO.raw_leq(a, b)

        counted = CodedQO(name="rado-counted", leq=leq, key=RADO.key,
                          fmt=RADO.fmt, check=check, raw_leq=RADO.raw_leq)

        def seq():
            return SuperSeq(front=uniform_front(2),
                            valuation=named_valuation("identity"),
                            codomain=counted, name="identity")

        badness_check(seq(), 12)
        scanned = list(checked)
        checked.clear()
        rep = laver_embed(seq(), 12)
        assert rep.X == tuple(range(1, 12))
        assert checked[:len(scanned)] == scanned
        after_scan = checked[len(scanned):]
        assert after_scan
        assert len(after_scan) == len(set(after_scan))

    @pytest.mark.parametrize("seed", range(40))
    def test_pair_order_check_matches_the_reference_on_seeded_tables(
            self, seed):
        # a random relation on five values, logged call by call
        rng = random.Random(seed)
        X = tuple(sorted(rng.sample(range(20), rng.randrange(8))))
        relation = {(a, b): rng.random() < 0.5
                    for a in range(5) for b in range(5)}
        pairs = list(itertools.combinations(X, 2))
        vals = [rng.randrange(5) for _ in pairs]
        logs: list = [[], []]

        def logged(log):
            return lambda a, b: log.append((a, b)) or relation[a, b]

        got = _pair_order_violations(X, vals, logged(logs[0]))
        assert got == pair_order_violations_reference(X, vals,
                                                      logged(logs[1]))
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("seed", range(12))
    def test_violations_match_the_reference_end_to_end(self, seed,
                                                       monkeypatch):
        # rado with seeded flips of same-first-entry comparisons, and the
        # loose order: both pass the stages, and the check lists where
        # they disagree with the pair order
        rng = random.Random(seed)
        flips = {(a, b, c) for a in range(12) for b in range(a + 1, 12)
                 for c in range(a + 1, 12) if rng.random() < 0.05}

        def flipped(x, y):
            return rado_leq(x, y) != ((x[0] == y[0]) and (x[0], x[1], y[1])
                                      in flips)

        orders = [CodedQO(name="flipped", check=RADO.check, leq=flipped,
                          raw_leq=flipped, key=RADO.key, fmt=RADO.fmt),
                  CodedQO(name="loose", check=lambda x: x,
                          leq=lambda a, b: a[1] != b[0],
                          raw_leq=lambda a, b: a[1] != b[0],
                          key=lambda x: x, fmt=str, parse=lambda s: s)]
        outcomes = []
        for check in (bqo.ramsey._pair_order_violations,
                      pair_order_violations_reference):
            monkeypatch.setattr(bqo.ramsey, "_pair_order_violations", check)
            for order in orders:
                f = SuperSeq(front=uniform_front(2),
                             valuation=lambda s: tuple(s), codomain=order,
                             name="seeded")
                try:
                    rep = laver_embed(f, 12)
                    outcomes.append((rep.X, rep.pairs_checked))
                except EmbeddingCheckFailed as exc:
                    outcomes.append((str(exc), exc.pairs))
                except DomainError as exc:
                    outcomes.append((type(exc), str(exc)))
        assert outcomes[:2] == outcomes[2:]

    def test_violations_match_a_reference_loop(self):
        # the perturbation makes some same-first-entry pairs comparable
        # downwards; stage and shift-pair comparisons never meet it, so
        # X is still 1..11 and only the verification disagrees
        def perturbed_leq(a, b):
            flip = a[0] == b[0] and a[1] > b[1] and (a[0] + b[1]) % 3 == 0
            return rado_leq(a, b) != flip

        pert = CodedQO(name="rado-perturbed", check=RADO.check,
                       leq=perturbed_leq, raw_leq=perturbed_leq, key=RADO.key,
                       fmt=RADO.fmt)
        f = SuperSeq(front=uniform_front(2),
                     valuation=named_valuation("identity"), codomain=pert,
                     name="identity-perturbed")
        with pytest.raises(EmbeddingCheckFailed) as exc:
            laver_embed(f, 12)
        pairs = list(itertools.combinations(range(1, 12), 2))
        want = [(p, q, rado_leq(p, q), perturbed_leq(p, q))
                for p in pairs for q in pairs
                if rado_leq(p, q) != perturbed_leq(p, q)]
        assert want
        assert exc.value.pairs == want

    @pytest.mark.parametrize("pair", [(1, 2), (3, 9), (10, 11)])
    def test_malformed_value_inside_X_raises_not_a_pair(self, pair):
        f = SuperSeq(front=uniform_front(2),
                     valuation=lambda s: (9, 3) if s == pair else tuple(s),
                     codomain=RADO, name="one-malformed")
        with pytest.raises(NotAPair, match=re.escape(
                "(9, 3) is not an increasing pair of naturals")):
            laver_embed(f, 12)

    def test_malformed_value_raises_the_carrier_error(self):
        # (0, 7) is in no shift pair below 8, so the badness scan never
        # reads it and the first stage is the first to compare it
        f = SuperSeq(front=uniform_front(2),
                     valuation=lambda s: (5, 3) if s == (0, 7) else tuple(s),
                     codomain=RADO, name="one-malformed")
        with pytest.raises(NotAPair, match=re.escape(
                "(5, 3) is not an increasing pair of naturals")):
            laver_embed(f, 8)

    def test_requires_pair_front_and_codomain(self):
        with pytest.raises(ValueError):
            laver_embed(SuperSeq(front=uniform_front(1),
                                 valuation=lambda s: s[0], codomain=OMEGA), 6)
        with pytest.raises(ValueError):
            laver_embed(SuperSeq(front=uniform_front(2),
                                 valuation=lambda s: tuple(s)), 6)


class TestRowsToSets:
    def test_identity_rows(self):
        rep = f2_to_powerset_badseq(identity_u2(), 6)
        assert rep.points == (0, 1, 2, 3, 4)
        assert rep.sets[0] == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
        assert rep.sets[4] == ((4, 5),)
        assert len(rep.witnesses) == 10
        assert rep.truncated
        assert rep.all_confirmed
        for m, n, w in rep.witnesses:
            assert w == (m, n)

    def test_constant_rejected(self):
        const = SuperSeq(front=uniform_front(2), valuation=lambda s: (0, 1),
                         codomain=RADO, name="cpair")
        with pytest.raises(NotBadOnWindow):
            f2_to_powerset_badseq(const, 6)

    def test_distinct_constants_under_equality(self):
        f = SuperSeq(front=uniform_front(2), valuation=lambda s: s[0],
                     codomain=OMEGA_EQ, name="first")
        rep = f2_to_powerset_badseq(f, 5)
        assert rep.sets == ((0, 0, 0, 0), (1, 1, 1), (2, 2), (3,))
        assert rep.all_confirmed

    def test_requires_pair_front_and_codomain(self):
        with pytest.raises(ValueError):
            f2_to_powerset_badseq(
                SuperSeq(front=schreier_front(), valuation=lambda s: len(s),
                         codomain=OMEGA), 6)
        with pytest.raises(ValueError):
            f2_to_powerset_badseq(
                SuperSeq(front=uniform_front(2), valuation=lambda s: tuple(s)), 6)


class TestSetsToPairs:
    def test_generator_family_recovers_identity(self):
        K = 8
        Ds = [tuple((m, n) for n in range(m + 1, K)) for m in range(5)]
        g = powerset_badseq_to_f2(Ds, RADO)
        for m in range(5):
            for n in range(m + 1, 5):
                assert g.value((m, n)) == (m, n)
        assert badness_check(g, 5).bad_on_window

    def test_round_trip_on_identity(self):
        rows = f2_to_powerset_badseq(identity_u2(), 6)
        g = powerset_badseq_to_f2(rows.sets, RADO)
        for m in range(5):
            for n in range(m + 1, 5):
                assert g.value((m, n)) == (m, n)

    def test_nested_increasing_rejected(self):
        with pytest.raises(NotBadPowersetSeq):
            powerset_badseq_to_f2([(0,), (1,), (2,)], OMEGA)

    def test_alternating_antichain_works_only_at_window_two(self):
        A2 = antichain(2)
        g = powerset_badseq_to_f2([(0,), (1,)], A2)
        assert g.value((0, 1)) == 0
        with pytest.raises(NotBadPowersetSeq):
            powerset_badseq_to_f2([(0,), (1,), (0,)], A2)

    def test_least_witness_by_canonical_key(self):
        rows = [(5, 3), (7,)]
        g = powerset_badseq_to_f2(rows, OMEGA_EQ)
        assert g.value((0, 1)) == 3

    def test_window_parameter_truncates(self):
        rows = [(0,), (1,), (0,)]
        g = powerset_badseq_to_f2(rows, antichain(2), window=2)
        assert g.value((0, 1)) == 0

    def test_beyond_window_pairs_raise(self):
        g = powerset_badseq_to_f2([(0,), (1,)], antichain(2))
        with pytest.raises(WindowExhausted):
            g.value((0, 5))

    @given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3),
                    min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_bad_or_rejection_is_witnessed(self, rows):
        rows = [tuple(r) for r in rows]
        try:
            g = powerset_badseq_to_f2(rows, OMEGA)
        except NotBadPowersetSeq:
            # some earlier row must indeed be dominated by a later one
            assert any(
                all(any(q <= p for p in rows[n]) for q in rows[m])
                for m in range(len(rows)) for n in range(m + 1, len(rows)))
            return
        assert badness_check(g, len(rows)).bad_on_window
