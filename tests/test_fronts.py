from __future__ import annotations

import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqo.errors import (
    DomainError,
    EmptyTruncation,
    NoMemberWithinBound,
    NotInBase,
    NotSubsetOfBase,
    RankInconsistent,
    TrivialHasNoRays,
)
import bqo.fronts
from bqo.fronts import (
    Front,
    SchreierSchema,
    SeqSchema,
    TrivialSchema,
    UniformSchema,
    count_shift_pairs,
    front_from_dict,
    front_member,
    front_step,
    front_to_dict,
    front_verify,
    members_within,
    rank,
    ray,
    residual_front,
    restrict,
    schreier_front,
    seq_front,
    shift_pair_buckets,
    shift_pairs_within,
    shift_rel,
    tree_of_front,
    trivial_front,
    uniform_front,
)
from bqo.games import tilde_build
from bqo.hset import Atom, node
from bqo.ordinal import OMEGA_ORD, OrdinalCNF
from bqo.streams import (InfSet, arithmetic, evens, odds, omega, parse_base,
                         prefix_then_arithmetic)
from bqo.superseq import SuperSeq, named_valuation

from _helpers import (
    FRONT_BASES,
    FRONT_KINDS,
    SHIFT_PAIR_FRONTS,
    front_step_reference,
    segment_violation_reference,
    shift_pairs_reference,
    shift_witness_oracle,
    witness_key,
)


def pow2() -> InfSet:
    return InfSet(lambda i: 2 ** i, name="pow2")


class TestInfSet:
    def test_upto_prefix_contains(self):
        e = evens()
        assert e.upto(9) == (0, 2, 4, 6, 8)
        assert e.prefix(3) == (0, 2, 4)
        assert e.contains(6) and not e.contains(7)

    def test_after(self):
        t = omega().after(3)
        assert t.prefix(3) == (4, 5, 6)
        assert evens().after(3).prefix(2) == (4, 6)
        assert evens().shift().after(3).shift().prefix(2) == (6, 8)

    def test_deep_chain_of_tails(self):
        t = omega()
        for n in range(5000):
            t = t.after(n)
        assert t.nth(0) == 5000
        assert t.contains(5001) and not t.contains(4999)
        assert t.upto(5003) == (5000, 5001, 5002)

    def test_strictness_enforced(self):
        bad = InfSet(lambda i: 5, name="bad")
        bad.nth(0)
        with pytest.raises(ValueError):
            bad.nth(1)

    def test_parse_base(self):
        assert parse_base("omega").prefix(3) == (0, 1, 2)
        assert parse_base("evens").prefix(3) == (0, 2, 4)
        assert parse_base("omega/3").prefix(3) == (4, 5, 6)
        assert parse_base("arith:5,3").prefix(3) == (5, 8, 11)
        assert parse_base("prefix:1,2,4+arith:10,5").prefix(5) == \
            (1, 2, 4, 10, 15)
        with pytest.raises(ValueError):
            parse_base("galaxy")

    def test_descriptor_roundtrip(self):
        for desc in ["omega", "evens", "arith:5,3", "omega/3",
                     "prefix:1,2,4+arith:10,5"]:
            s = parse_base(desc)
            assert parse_base(s.name).prefix(8) == s.prefix(8)


class TestMembership:
    def test_schreier_examples(self):
        S = schreier_front()
        assert not front_member(S, (0, 5))
        assert front_member(S, (2, 3, 5))
        assert front_member(S, (0,))
        assert not front_member(S, ())

    def test_trivial(self):
        assert front_member(trivial_front(), ())
        assert not front_member(trivial_front(), (0,))

    def test_uniform(self):
        U = uniform_front(2)
        assert front_member(U, (3, 7))
        assert not front_member(U, (3,))
        assert not front_member(uniform_front(2, evens()), (2, 5))

    def test_seq_node(self):
        F = seq_front(
            {0: UniformSchema(1)}, UniformSchema(2), OrdinalCNF.natural(3))
        assert front_member(F, (0, 4))
        assert not front_member(F, (0, 4, 5))
        assert front_member(F, (1, 4, 5))
        assert not front_member(F, (1, 4))

    @pytest.mark.parametrize("s, member", [
        ((40,), False), ((3, 7, 40), False), ((3, 40), True)])
    def test_enumerates_the_base_only_for_a_tuple_of_the_right_shape(
            self, s, member):
        asked = []
        base = InfSet(lambda i: asked.append(i) or i, name="counted")
        assert front_member(uniform_front(2, base), s) is member
        assert bool(asked) is member

    def test_element_validation(self):
        with pytest.raises(ValueError):
            front_member(uniform_front(2), (3, 3))
        with pytest.raises(ValueError):
            front_member(uniform_front(2), (5, 2))


class TestStep:
    def test_uniform(self):
        Y = InfSet(lambda i: [1, 3, 4][i] if i < 3 else 2 + i, name="y")
        res = front_step(uniform_front(2), Y)
        assert res.member == (1, 3) and res.modulus == 2

    def test_schreier(self):
        primes = InfSet(lambda i: [2, 3, 5, 7, 11, 13][i], name="p")
        res = front_step(schreier_front(), primes)
        assert res.member == (2, 3, 5) and res.modulus == 3

    def test_trivial(self):
        res = front_step(trivial_front(), omega())
        assert res.member == () and res.modulus == 0

    def test_not_in_base(self):
        with pytest.raises(NotInBase):
            front_step(uniform_front(2, evens()), omega().after(0))

    def test_step_returns_member(self):
        for F in [uniform_front(3), schreier_front(),
                  uniform_front(2, evens())]:
            Y = F.base.after(1) if F.base.contains(2) else F.base
            res = front_step(F, Y)
            assert front_member(F, res.member)
            assert Y.prefix(len(res.member)) == res.member


STEP_BASES = ("omega", "evens", "prefix:0,2+arith:5,3")


def step_fronts(base: InfSet) -> list:
    """Uniform fronts k = 0 to 4, the Schreier front and a sequence front
    mixing member lengths 2 to 4, on one base."""
    seq = SHIFT_PAIR_FRONTS["seq"][0].schema
    return [*(uniform_front(k, base) for k in range(5)),
            schreier_front(base), Front(seq, base)]


def step_arguments(base: InfSet) -> list:
    """Sets inside the base (the base, a tail, every other element), and
    for each position 0 to 5 one that follows the base up to it and leaves
    it there; then one whose enumeration stops increasing at index 2."""
    ys = [base, base.after(base.nth(2)),
          InfSet(lambda i: base.nth(2 * i), name="alternate")]
    for i in range(6):
        head = base.prefix(i)
        out = next(x for x in range(head[-1] + 1 if head else 0, 10**6)
                   if not base.contains(x)) if base.name != "omega" else None
        if out is not None:
            ys.append(prefix_then_arithmetic(head + (out,), out + 1, 1))
    ys.append(InfSet(lambda i: (base.nth(0), base.nth(2), base.nth(1))[i]
                     if i < 3 else base.nth(i), name="broken"))
    return ys


def step_outcome(step, F, Y):
    try:
        res = step(F, Y)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return res.member, res.modulus


class TestStepClosedForm:
    """front_step against the one-ray-per-entry reference walk."""

    @pytest.mark.parametrize("ceiling", [None, 0, 1, 3])
    @pytest.mark.parametrize("base", STEP_BASES)
    def test_matches_the_ray_walk(self, base, ceiling, monkeypatch):
        if ceiling is not None:
            monkeypatch.setattr(bqo.fronts, "_STEP_CEILING", ceiling)
        for F in step_fronts(parse_base(base)):
            for Y in step_arguments(parse_base(base)):
                want = step_outcome(front_step_reference, F, Y)
                assert step_outcome(front_step, F, Y) == want, (F, Y.name)

    def test_every_kind_of_outcome_is_covered(self, monkeypatch):
        monkeypatch.setattr(bqo.fronts, "_STEP_CEILING", 3)
        kinds = {step_outcome(front_step, F, Y)[0]
                 for base in STEP_BASES
                 for F in step_fronts(parse_base(base))
                 for Y in step_arguments(parse_base(base))}
        assert {NotInBase, NoMemberWithinBound, ValueError} <= kinds
        assert any(isinstance(kind, tuple) for kind in kinds)


class TestRays:
    def test_schreier_ray(self):
        R = ray(schreier_front(), 3)
        assert R.schema == UniformSchema(3)
        assert R.base.prefix(3) == (4, 5, 6)

    def test_uniform_ray(self):
        R = ray(uniform_front(2), 5)
        assert R.schema == UniformSchema(1)
        assert R.base.prefix(2) == (6, 7)

    def test_trivial_has_no_rays(self):
        with pytest.raises(TrivialHasNoRays):
            ray(trivial_front(), 0)
        with pytest.raises(TrivialHasNoRays):
            ray(uniform_front(0), 0)

    def test_ray_not_in_base(self):
        with pytest.raises(NotInBase):
            ray(uniform_front(2, evens()), 3)
        # the Schreier ray at -1 would be [X]^-1; the base is read first,
        # save on the trivial front
        for F in (uniform_front(2), schreier_front(),
                  SHIFT_PAIR_FRONTS["seq"][0]):
            with pytest.raises(NotInBase, match=r"^-1 is not in the base$"):
                ray(F, -1)
        with pytest.raises(TrivialHasNoRays):
            ray(trivial_front(), -1)

    def test_seq_ray_roundtrip(self):
        table = {0: UniformSchema(1), 1: UniformSchema(2)}
        F = seq_front(table, UniformSchema(1), OrdinalCNF.natural(3))
        for n in (0, 1, 2):
            R = ray(F, n)
            want = members_within(
                Front(table.get(n, UniformSchema(1)), omega().after(n)), 8)
            assert members_within(R, 8) == want

    def test_rays_rebuild_membership(self):
        F = schreier_front()
        for n in range(4):
            R = ray(F, n)
            for t in members_within(R, 8):
                assert front_member(F, (n,) + t)


class TestRestrict:
    def test_uniform_evens(self):
        F = restrict(uniform_front(2), evens())
        assert front_member(F, (2, 6))
        assert not front_member(F, (2, 5))
        assert members_within(F, 7) == [(0, 2), (0, 4), (0, 6), (2, 4),
                                        (2, 6), (4, 6)]

    def test_schreier_powers(self):
        F = restrict(schreier_front(), pow2())
        assert front_member(F, (1, 2))
        assert front_member(F, (2, 4, 8))
        assert not front_member(F, (1, 3))

    def test_not_subset(self):
        with pytest.raises(NotSubsetOfBase):
            restrict(uniform_front(2, evens()), omega())

    def test_rays_commute_with_restrict(self):
        F = schreier_front()
        Z = evens()
        for n in (2, 4):
            a = members_within(ray(restrict(F, Z), n), 12)
            b = members_within(restrict(ray(F, n), Z.after(n)), 12)
            assert a == b

    def test_rank_monotone_under_restrict(self):
        assert rank(restrict(uniform_front(3), evens())) <= \
            rank(uniform_front(3))
        assert rank(restrict(schreier_front(), pow2())) <= \
            rank(schreier_front())


class TestRank:
    def test_fixed_points(self):
        assert rank(uniform_front(4)) == OrdinalCNF.natural(4)
        assert rank(schreier_front()) == OMEGA_ORD
        assert rank(trivial_front()) == OrdinalCNF.natural(0)

    def test_seq_successor(self):
        F = seq_front(
            {1: UniformSchema(2)}, UniformSchema(1), OrdinalCNF.natural(3))
        assert rank(F) == OrdinalCNF.natural(3)

    def test_seq_limit(self):
        table = {n: UniformSchema(n + 1) for n in range(8)}
        F = seq_front(table, UniformSchema(1), OMEGA_ORD)
        assert rank(F) == OMEGA_ORD

    def test_ray_rank_strictly_below(self):
        for F in [uniform_front(3), schreier_front()]:
            for n in range(3):
                assert rank(ray(F, n)) < rank(F)

    def test_declared_too_small(self):
        F = seq_front({0: UniformSchema(3)}, UniformSchema(1),
                      OrdinalCNF.natural(2))
        with pytest.raises(RankInconsistent):
            rank(F)

    def test_declared_not_attained(self):
        F = seq_front({}, UniformSchema(1), OrdinalCNF.natural(5))
        with pytest.raises(RankInconsistent):
            rank(F)

    def test_limit_needs_growth(self):
        F = seq_front({}, UniformSchema(2), OMEGA_ORD)
        with pytest.raises(RankInconsistent):
            rank(F)


class TestTree:
    def test_uniform_tree(self):
        rep = tree_of_front(uniform_front(2), 4)
        assert rep.nodes[(0,)].rank == OrdinalCNF.natural(1)
        assert rep.root.rank == OrdinalCNF.natural(2)
        assert rep.nodes[(0, 1)].is_member
        assert rep.nodes[(0, 1)].rank == OrdinalCNF.natural(0)

    def test_trivial_tree(self):
        rep = tree_of_front(trivial_front(), 4)
        assert set(rep.nodes) == {()}
        assert rep.root.is_member and rep.root.rank == OrdinalCNF.natural(0)

    def test_schreier_truncation_ranks(self):
        rep = tree_of_front(schreier_front(), 4)
        assert rep.nodes[(2,)].rank == OrdinalCNF.natural(2)
        assert rep.root.rank == OMEGA_ORD
        assert rep.nodes[(0,)].is_member

    def test_truncated_branches_complete_to_members(self):
        # leaves cut off by the entry bound still extend to members once the
        # bound is lifted: the residual front steps to completion
        for F in [uniform_front(2), schreier_front()]:
            rep = tree_of_front(F, 4)
            for node, data in rep.nodes.items():
                if data.is_member or data.children:
                    continue
                res = residual_front(F, node)
                assert res is not None
                step = front_step(res, res.base)
                assert front_member(F, node + step.member)

    def test_ranks_decrease_along_edges(self):
        rep = tree_of_front(schreier_front(), 5)
        for node, data in rep.nodes.items():
            for child in data.children:
                assert rep.nodes[child].rank < data.rank


class TestVerify:
    def test_uniform_passes(self):
        rep = front_verify(
            uniform_front(2), [omega(), omega().after(2)], 8)
        assert rep.passed and rep.base_ok and rep.segment_free
        assert all(p.member is not None for p in rep.density)

    def test_raw_family_segment_violation(self):
        rep = front_verify([(0,), (0, 1)], [omega()], 8)
        assert not rep.passed
        assert rep.segment_violation == ((0,), (0, 1))

    def test_segment_violation_matches_the_slicing_scan(self):
        rng = random.Random(11)
        for _ in range(2000):
            family = [tuple(sorted(rng.sample(range(7), rng.randint(0, 4))))
                      for _ in range(rng.randint(0, 9))]
            family += rng.sample(family, min(len(family), rng.randint(0, 2)))
            rep = front_verify(family, [], 8)
            assert rep.segment_violation == \
                segment_violation_reference(family), family

    def test_trivial_passes(self):
        rep = front_verify(trivial_front(), [omega()], 8)
        assert rep.passed

    def test_schreier_passes(self):
        rep = front_verify(schreier_front(), [omega(), evens()], 8)
        assert rep.passed

    def test_density_failure_is_reported(self):
        rep = front_verify([(5, 6)], [omega()], 8)
        assert not rep.passed
        assert rep.density[0].member is None

    def test_probe_outside_the_base_is_reported(self):
        front = uniform_front(2, evens())
        with pytest.raises(NotInBase) as raised:
            front_step(front, parse_base("odds"))
        rep = front_verify(front, [evens(), parse_base("odds")], 8)
        assert rep.density[0].error is None
        assert rep.density[1].member is None
        assert rep.density[1].error == str(raised.value)
        assert not rep.passed

    def test_probe_past_the_step_ceiling_is_reported(self, monkeypatch):
        def exhausted(F, Y):
            raise NoMemberWithinBound("consumed too many elements")
        monkeypatch.setattr(bqo.fronts, "front_step", exhausted)
        rep = front_verify(uniform_front(2), [omega()], 8)
        assert rep.density[0].error == "consumed too many elements"
        assert not rep.passed

    def test_other_errors_of_a_probe_propagate(self, monkeypatch):
        def broken_step(F, Y):
            raise TypeError("a bug in front_step")
        monkeypatch.setattr(bqo.fronts, "front_step", broken_step)
        with pytest.raises(TypeError, match="a bug in front_step"):
            front_verify(uniform_front(2), [omega()], 8)


class TestShiftRel:
    def test_singletons(self):
        assert shift_rel((0,), (1,))
        assert not shift_rel((1,), (1,))
        assert not shift_rel((2,), (1,))

    def test_pairs(self):
        assert shift_rel((0, 2), (2, 5))
        assert not shift_rel((1, 3), (2, 4))

    def test_empty_cases(self):
        assert shift_rel((), ())
        assert shift_rel((), (1, 2))
        assert not shift_rel((), (0, 2))
        assert shift_rel((3, 4), ())

    def test_oracle_agreement_small(self):
        universe = list(range(6))
        elems = []
        for r in range(4):
            elems.extend(itertools.combinations(universe, r))
        for s in elems:
            for t in elems:
                assert shift_rel(s, t) == shift_witness_oracle(s, t, bound=7), \
                    (s, t)

    def test_singleton_law(self):
        for m in range(5):
            for n in range(5):
                assert shift_rel((m,), (n,)) == (m < n)

    def test_uniform_pair_law(self):
        for s in itertools.combinations(range(5), 2):
            for t in itertools.combinations(range(5), 2):
                assert shift_rel(s, t) == (s[1] == t[0])

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
    def test_oracle_agreement_random(self, a, b):
        s, t = tuple(sorted(a)), tuple(sorted(b))
        assert shift_rel(s, t) == shift_witness_oracle(s, t, bound=9)


_INNER_SEQ = SeqSchema(((1, UniformSchema(2)), (4, TrivialSchema())),
                       UniformSchema(1), OrdinalCNF.natural(3))
NESTED_SEQ_FRONTS = {
    "trivial-ray": SeqSchema(((2, TrivialSchema()),), UniformSchema(2),
                             OrdinalCNF.natural(3)),
    "schreier-ray": SeqSchema(((1, SchreierSchema()),), UniformSchema(2),
                              OrdinalCNF.omega()),
    "seq-rays": SeqSchema(((0, _INNER_SEQ), (2, TrivialSchema()),
                           (5, SchreierSchema())), _INNER_SEQ,
                          OrdinalCNF.omega()),
    "schreier-default": SeqSchema(((3, _INNER_SEQ),), SchreierSchema(),
                                  OrdinalCNF.omega()),
}


class TestShiftPairs:
    @pytest.mark.parametrize("F,bound", [
        (uniform_front(2), 10),
        (uniform_front(3), 8),
        (schreier_front(), 8),
        (trivial_front(), 4),
        (uniform_front(2, evens()), 12),
    ])
    def test_matches_all_pairs_scan(self, F, bound):
        members = members_within(F, bound)
        fast = set(shift_pairs_within(members))
        slow = {(s, t) for s in members for t in members if shift_rel(s, t)}
        assert fast == slow

    @pytest.mark.parametrize("name", SHIFT_PAIR_FRONTS)
    def test_lazy_order_is_sorted_reference(self, name):
        F, bound = SHIFT_PAIR_FRONTS[name]
        members = members_within(F, bound)
        ref = sorted(shift_pairs_reference(members), key=witness_key)
        assert set(ref) == {(s, t) for s in members for t in members
                            if shift_rel(s, t)}
        assert [pair for bucket in shift_pair_buckets(F, bound)
                for pair in bucket] == ref
        assert shift_pairs_within(members) == ref

    @pytest.mark.parametrize("name", SHIFT_PAIR_FRONTS)
    def test_count_is_reference_length(self, name):
        F, bound = SHIFT_PAIR_FRONTS[name]
        for window in range(bound + 1):
            members = members_within(F, window)
            assert count_shift_pairs(F, window) == len(
                shift_pairs_reference(members)), window

    def test_walked_count_builds_no_bucket(self, monkeypatch):
        # the seq front has no closed form; its count sums over rays and
        # neither lists the buckets nor walks the members ending at a top
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} called")
            return refused
        for name in ("shift_pair_buckets", "_ending_at"):
            monkeypatch.setattr(bqo.fronts, name, refuse(name))
        F = SHIFT_PAIR_FRONTS["seq"][0]
        assert count_shift_pairs(F, 40) == 110920
        start = time.perf_counter()
        assert count_shift_pairs(F, 20000) == 6668663251004910
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", NESTED_SEQ_FRONTS)
    def test_ray_sum_count_on_nested_rays(self, name):
        # trivial, Schreier and seq rays inside a seq front, as a ray and
        # as the default
        for base in ("omega", "prefix:0,2,3+arith:5,3"):
            F = Front(NESTED_SEQ_FRONTS[name], parse_base(base))
            for window in range(15):
                pairs = shift_pairs_reference(members_within(F, window))
                assert count_shift_pairs(F, window) == len(pairs), window

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 8), max_size=4, unique=True)
                    .map(lambda entries: tuple(sorted(entries))),
                    max_size=25))
    def test_any_family_of_increasing_tuples(self, members):
        # mixed lengths put tails of several lengths in one index, and ()
        # pairs with every nonempty member as its initial segment
        ref = sorted(set(shift_pairs_reference(set(members))),
                     key=witness_key)
        assert shift_pairs_within(members) == ref

    def test_segment_partners_covered(self):
        # the sequence front has pairs whose t is an initial segment of s
        # minus its least entry, the kind uniform fronts never produce
        F, bound = SHIFT_PAIR_FRONTS["seq"]
        assert any(t == s[1:1 + len(t)]
                   for s, t in shift_pairs_within(members_within(F, bound)))

    def test_buckets_are_built_as_the_scan_reaches_them(self, monkeypatch):
        walked = []
        ending_at = bqo.fronts._ending_at
        monkeypatch.setattr(bqo.fronts, "_ending_at", lambda F, x: (
            walked.append(x) or ending_at(F, x)))
        buckets = shift_pair_buckets(uniform_front(2), 40)
        assert next(filter(None, buckets)) == [((0, 1), (1, 2))]
        assert walked == [0, 1, 2]

    @pytest.mark.parametrize("base", FRONT_BASES)
    @pytest.mark.parametrize("front", FRONT_KINDS)
    def test_count_matches_the_listed_pairs(self, front, base):
        F = FRONT_KINDS[front](parse_base(base))
        for window in range(23):
            pairs = shift_pairs_reference(members_within(F, window))
            assert count_shift_pairs(F, window) == len(pairs), window

    def test_schreier_counts_at_the_golden_windows(self):
        assert [count_shift_pairs(schreier_front(), w)
                for w in (8, 12, 16, 20, 24)] == [38, 420, 3970, 34690,
                                                  289032]
        assert [count_shift_pairs(schreier_front(evens()), w)
                for w in (8, 12, 16)] == [1, 6, 25]

    def test_schreier_count_far_out_is_stepped(self):
        # each binomial is stepped from the one before; math.comb on every
        # term takes tens of seconds at window 20,000
        points = range(2000)
        assert count_shift_pairs(schreier_front(), 2000) == sum(
            i * math.comb(1999 - i, p) for i, p in enumerate(points))
        start = time.perf_counter()
        count = count_shift_pairs(schreier_front(), 20000)
        assert time.perf_counter() - start < 1
        assert count.bit_length() > 13000


# a front of every schema class, the sequence node with trivial and
# Schreier rays among its table entries
SERIALIZED_FRONTS = {
    "trivial": trivial_front(),
    "u0": uniform_front(0),
    "u2": uniform_front(2),
    "schreier-evens": schreier_front(evens()),
    "seq": seq_front({0: UniformSchema(1)}, UniformSchema(2),
                     OrdinalCNF.natural(3)),
    "seq-trivial-schreier": seq_front(
        {1: TrivialSchema(), 3: SchreierSchema(), 5: UniformSchema(0)},
        UniformSchema(1), OMEGA_ORD.succ(), odds()),
}


class TestSerialization:
    def test_roundtrip(self):
        for F in SERIALIZED_FRONTS.values():
            d = front_to_dict(F)
            G = front_from_dict(json.loads(json.dumps(d)))
            assert G.schema == F.schema and type(G.schema) is type(F.schema)
            assert G.base.prefix(6) == F.base.prefix(6)
            assert front_to_dict(G) == d and rank(G) == rank(F)
        covered = {type(F.schema) for F in SERIALIZED_FRONTS.values()}
        assert covered == {TrivialSchema, UniformSchema, SchreierSchema,
                           SeqSchema}

    def test_trivial_keeps_its_name_beside_uniform_zero(self):
        assert TrivialSchema() != UniformSchema(0)
        assert TrivialSchema().k == 0 and TrivialSchema().trivial
        assert front_to_dict(trivial_front()) == {"schema": "trivial",
                                                  "base": "omega"}
        assert front_to_dict(uniform_front(0)) == {"schema": "uniform",
                                                   "k": 0, "base": "omega"}
        # a ray that steps down to [X]^0 is a uniform schema, not trivial
        R = ray(uniform_front(1), 3)
        assert type(R.schema) is UniformSchema and R.schema.trivial
        assert front_to_dict(R) == {"schema": "uniform", "k": 0,
                                    "base": "omega/3"}
        seq = front_to_dict(SERIALIZED_FRONTS["seq-trivial-schreier"])
        assert seq["rays"] == {"1": {"schema": "trivial"},
                               "3": {"schema": "schreier"},
                               "5": {"schema": "uniform", "k": 0}}

    def test_from_dict_examples(self):
        F = front_from_dict({"schema": "uniform", "k": 2, "base": "omega"})
        assert F.schema == UniformSchema(2)
        S = front_from_dict({"schema": "schreier"})
        assert front_member(S, (2, 3, 5))
        Q = front_from_dict({
            "schema": "seq",
            "rays": {"0": {"schema": "uniform", "k": 1}},
            "default": {"schema": "uniform", "k": 2},
            "rank": [3],
        })
        assert front_member(Q, (0, 5))
        assert front_member(Q, (2, 5, 9))


# --- one walk over rays: differential checks --------------------------------

# each front with a window small enough to try every increasing tuple below it
WALKED_FRONTS = {
    "trivial": (trivial_front(), 6),
    "u1": (uniform_front(1), 10),
    "u2": (uniform_front(2), 10),
    "u3": (uniform_front(3), 10),
    "u2-evens": (uniform_front(2, evens()), 12),
    "u3-odds": (uniform_front(3, odds()), 12),
    "schreier": (schreier_front(), 11),
    "schreier-evens": (schreier_front(evens()), 12),
    "seq": SHIFT_PAIR_FRONTS["seq"],
    "seq-u1-u2": (seq_front({0: UniformSchema(1)}, UniformSchema(2),
                            OrdinalCNF.natural(3)), 10),
    "seq-odds": (seq_front({1: SchreierSchema(), 5: UniformSchema(1)},
                           UniformSchema(2), OMEGA_ORD.succ(), odds()), 12),
}


def _member_oracle(schema, base: InfSet, s: tuple) -> bool:
    """Schema-directed membership, one closed form per schema."""
    if isinstance(schema, TrivialSchema) or schema == UniformSchema(0):
        return s == ()
    if not s or not all(base.contains(v) for v in s):
        return False
    if isinstance(schema, UniformSchema):
        return len(s) == schema.k
    if isinstance(schema, SchreierSchema):
        return 1 + s[0] == len(s)
    return _member_oracle(schema.ray(s[0]), base.after(s[0]), s[1:])


def _increasing_below(window: int):
    for r in range(window + 1):
        yield from itertools.combinations(range(window), r)


class TestOneWalk:
    @pytest.mark.parametrize("name", WALKED_FRONTS)
    def test_membership_matches_listing_and_oracle(self, name):
        F, w = WALKED_FRONTS[name]
        listed = set(members_within(F, w))
        for s in _increasing_below(w):
            member = front_member(F, s)
            assert member == (s in listed), s
            assert member == _member_oracle(F.schema, F.base, s), s

    @pytest.mark.parametrize("name", WALKED_FRONTS)
    def test_listing_is_sorted_and_matches_closed_forms(self, name):
        F, w = WALKED_FRONTS[name]
        members = members_within(F, w)
        assert members == sorted(set(members))
        pool = F.base.upto(w)
        if isinstance(F.schema, UniformSchema):
            assert members == list(itertools.combinations(pool, F.schema.k))
        if isinstance(F.schema, SchreierSchema):
            assert members == sorted(
                s for r in range(1, len(pool) + 1)
                for s in itertools.combinations(pool, r) if 1 + s[0] == len(s))

    @pytest.mark.parametrize("name", WALKED_FRONTS)
    def test_step_member_is_listed_prefix(self, name):
        F, w = WALKED_FRONTS[name]
        samples = [F.base, F.base.shift(), F.base.after(2),
                   F.base.after(3).shift()]
        for Y in samples:
            res = front_step(F, Y)
            assert res.modulus == len(res.member)
            assert Y.prefix(res.modulus) == res.member
            top = res.member[-1] + 1 if res.member else 1
            assert res.member in members_within(F, max(top, w))


def _tilde_fold_oracle(f, window: int) -> dict:
    """The tree fold tilde_build is checked against: every tree node below
    the window is tried by membership and residual front, depth first."""
    F = f.front
    table: dict = {}

    def build(s: tuple):
        if front_member(F, s):
            table[s] = Atom(f.value(s))
            return table[s]
        kids = []
        for nv in F.base.upto(window):
            if s and nv <= s[-1]:
                continue
            t = s + (nv,)
            if residual_front(F, t) is None:
                continue
            built = build(t)
            if built is not None:
                kids.append(built)
        if not kids:
            return None
        table[s] = node(kids)
        return table[s]

    if build(()) is None:
        raise EmptyTruncation("no member completes")
    return table


class TestTildeFold:
    def test_min_on_schreier_matches_tree_walk(self):
        f = SuperSeq(front=schreier_front(), valuation=named_valuation("min"),
                     name="min@schreier")
        got = tilde_build(f, 12).table
        want = _tilde_fold_oracle(f, 12)
        assert list(got) == list(want)
        assert got == want

    @pytest.mark.parametrize("name", WALKED_FRONTS)
    def test_fold_matches_tree_walk(self, name):
        F, window = WALKED_FRONTS[name]
        f = SuperSeq(front=F, valuation=tuple, name="identity")
        got = tilde_build(f, window).table
        want = _tilde_fold_oracle(f, window)
        assert list(got) == list(want)
        assert got == want
