from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqo.errors import (
    NotInBase,
    NotSubsetOfBase,
    RankInconsistent,
    TrivialHasNoRays,
)
from bqo.fronts import (
    Front,
    SeqSchema,
    ShiftPairs,
    UniformSchema,
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
    shift_pairs_within,
    shift_rel,
    tree_of_front,
    trivial_front,
    uniform_front,
)
from bqo.ordinal import OMEGA_ORD, OrdinalCNF
from bqo.streams import InfSet, arithmetic, evens, omega, parse_base

from _helpers import (
    SHIFT_PAIR_FRONTS,
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
        assert list(ShiftPairs(members)) == ref
        assert shift_pairs_within(members) == ref

    @pytest.mark.parametrize("name", SHIFT_PAIR_FRONTS)
    def test_count_is_reference_length(self, name):
        F, bound = SHIFT_PAIR_FRONTS[name]
        members = members_within(F, bound)
        assert len(ShiftPairs(members)) == len(shift_pairs_reference(members))

    def test_segment_partners_covered(self):
        # the sequence front has pairs whose t is an initial segment of s
        # minus its least entry, the kind uniform fronts never produce
        F, bound = SHIFT_PAIR_FRONTS["seq"]
        assert any(t == s[1:1 + len(t)]
                   for s, t in ShiftPairs(members_within(F, bound)))

    def test_buckets_are_built_as_the_scan_reaches_them(self, monkeypatch):
        pairs = ShiftPairs(members_within(uniform_front(2), 40))
        built = []
        bucket = pairs.bucket
        monkeypatch.setattr(pairs, "bucket",
                            lambda top: built.append(top) or bucket(top))
        assert next(iter(pairs)) == ((0, 1), (1, 2))
        assert built == [1, 2]


class TestSerialization:
    def test_roundtrip(self):
        fronts = [
            uniform_front(2),
            schreier_front(evens()),
            trivial_front(),
            seq_front({0: UniformSchema(1)}, UniformSchema(2),
                      OrdinalCNF.natural(3)),
        ]
        for F in fronts:
            d = front_to_dict(F)
            G = front_from_dict(d)
            assert G.schema == F.schema
            assert G.base.prefix(6) == F.base.prefix(6)

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
