from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqo.errors import DifferentBase, NotAPair
from bqo.fronts import (
    Front,
    TrivialSchema,
    UniformSchema,
    front_member,
    members_within,
    schreier_front,
    shift_rel,
    trivial_front,
    uniform_front,
)
from bqo.qo import OMEGA, RADO, chain, rado_leq
from bqo.streams import InfSet, arithmetic, evens, omega
from bqo.superseq import (
    SuperSeq,
    badness_check,
    eval_up,
    named_valuation,
    perfect_check,
    seg_order,
    spare_check,
    sparsify,
    superseq_from_dict,
)

from _helpers import SHIFT_PAIR_FRONTS, shift_pairs_reference, witness_key


def identity_u2(bound_qo=RADO) -> SuperSeq:
    return SuperSeq(front=uniform_front(2), valuation=lambda s: tuple(s),
                    codomain=bound_qo, name="identity")


def constant(front, c, qo=OMEGA) -> SuperSeq:
    return SuperSeq(front=front, valuation=lambda s: c, codomain=qo,
                    name=f"constant:{c}")


def min_u2() -> SuperSeq:
    return SuperSeq(front=uniform_front(2), valuation=lambda s: s[0],
                    codomain=OMEGA, name="min")


def span_u2() -> SuperSeq:
    return SuperSeq(front=uniform_front(2), valuation=lambda s: s[1] - s[0],
                    codomain=OMEGA, name="span")


def listy(i, items, cont):
    return items[i] if i < len(items) else cont(i)


class TestEval:
    def test_identity(self):
        Y = InfSet(lambda i: listy(i, [1, 3, 4], lambda j: j + 2), name="y")
        res = eval_up(identity_u2(), Y)
        assert res.value == (1, 3) and res.modulus == 2

    def test_constant_on_schreier(self):
        res = eval_up(constant(schreier_front(), 9), omega().after(4))
        assert res.value == 9
        assert res.modulus == 6  # {5} plus five more elements

    def test_min(self):
        Y = InfSet(lambda i: listy(i, [2, 5], lambda j: j + 4), name="y")
        assert eval_up(min_u2(), Y).value == 2


class TestSegOrder:
    def test_reflexive(self):
        f = identity_u2()
        assert seg_order(f, f, 8).holds

    def test_point_below_constant(self):
        point = constant(trivial_front(), "c")
        wide = constant(uniform_front(2), "c")
        assert seg_order(point, wide, 8).holds

    def test_point_not_below_identity(self):
        point = constant(trivial_front(), "c")
        rep = seg_order(point, identity_u2(), 8)
        assert not rep.holds and rep.clause2_failure is not None

    def test_different_base(self):
        f = constant(uniform_front(2), 0)
        g = constant(uniform_front(2, evens()), 0)
        with pytest.raises(DifferentBase):
            seg_order(f, g, 8)

    def test_mutual_order_means_equal_values(self):
        f = min_u2()
        g = SuperSeq(front=uniform_front(2), valuation=lambda s: min(s),
                     codomain=OMEGA, name="min2")
        assert seg_order(f, g, 8).holds and seg_order(g, f, 8).holds
        for s in members_within(f.front, 8):
            assert f.value(s) == g.value(s)


class TestSpare:
    def test_identity_spare(self):
        assert spare_check(identity_u2(), 8).holds

    def test_constant_not_spare(self):
        rep = spare_check(constant(uniform_front(2), 7), 8)
        assert not rep.holds
        assert rep.failure is not None

    def test_trivial_always_spare(self):
        assert spare_check(constant(trivial_front(), 7), 8).holds

    def test_min_not_spare(self):
        # the value is forced after the first entry
        rep = spare_check(min_u2(), 8)
        assert not rep.holds
        t, s = rep.failure
        assert len(s) == 1


class TestSparsify:
    def test_constant_collapses_to_point(self):
        out = sparsify(constant(uniform_front(2), "c"), 8)
        assert isinstance(out.front.schema, TrivialSchema)
        assert out.value(()) == "c"

    def test_identity_unchanged(self):
        f = identity_u2()
        out = sparsify(f, 8)
        assert out is f

    def test_min_collapses_to_singletons(self):
        out = sparsify(min_u2(), 8)
        assert out.front.schema == UniformSchema(1)
        for m in range(8):
            assert out.value((m,)) == m
        # beyond the window the completion fallback keeps it total
        assert out.value((11,)) == 11

    def test_output_below_input_and_spare(self):
        for f in [constant(uniform_front(2), 3), min_u2(), identity_u2(),
                  span_u2()]:
            out = sparsify(f, 8)
            assert seg_order(out, f, 8).holds
            assert spare_check(out, 8).holds

    def test_idempotent_on_window(self):
        for f in [constant(uniform_front(2), 3), min_u2(), span_u2()]:
            once = sparsify(f, 8)
            twice = sparsify(once, 8)
            assert twice.front.schema == once.front.schema
            for s in members_within(once.front, 8):
                assert once.value(s) == twice.value(s)

    def test_eval_preserved(self):
        samples = [omega(), omega().after(2), evens(),
                   InfSet(lambda i: listy(i, [1, 4, 6], lambda j: j + 5),
                          name="y")]
        for f in [constant(uniform_front(2), 3), min_u2(), identity_u2()]:
            out = sparsify(f, 8)
            for Y in samples:
                assert eval_up(out, Y).value == eval_up(f, Y).value

    def test_mixed_collapse_on_schreier(self):
        # value depends only on min: every ray collapses, ranks vary
        f = SuperSeq(front=schreier_front(), valuation=lambda s: s[0],
                     codomain=OMEGA, name="min")
        out = sparsify(f, 6)
        assert out.front.schema == UniformSchema(1)
        assert out.value((3,)) == 3

    def test_partial_collapse(self):
        # constant on even-min members, identity elsewhere
        def v(s):
            return -1 if s[0] % 2 == 0 else tuple(s)
        f = SuperSeq(front=uniform_front(2), valuation=v, codomain=None,
                     name="mixed")
        out = sparsify(f, 8)
        assert seg_order(out, f, 8).holds
        assert spare_check(out, 8).holds
        assert front_member(out.front, (0,))
        assert front_member(out.front, (1, 5))
        assert not front_member(out.front, (1,))


class TestBadness:
    def test_rado_identity_bad(self):
        rep = badness_check(identity_u2(RADO), 8)
        assert rep.bad_on_window and rep.good_witness is None
        assert rep.pairs_scanned == len(
            [1 for m in range(8) for n in range(m + 1, 8)
             for l in range(n + 1, 8)])

    def test_constant_good_at_first_pair(self):
        rep = badness_check(constant(uniform_front(2), 0), 8)
        assert rep.good_witness == ((0, 1), (1, 2))

    def test_span_witness(self):
        rep = badness_check(span_u2(), 6)
        assert rep.good_witness == ((0, 1), (1, 2))

    def test_needs_codomain(self):
        with pytest.raises(ValueError):
            badness_check(SuperSeq(uniform_front(2), lambda s: s), 6)


class TestPerfect:
    def test_constant_reflexive(self):
        f = constant(uniform_front(2), 0)
        assert perfect_check(f, OMEGA.leq, 6).holds

    def test_identity_u1_monotone(self):
        f = SuperSeq(front=uniform_front(1), valuation=lambda s: s[0],
                     codomain=OMEGA, name="identity")
        assert perfect_check(f, OMEGA.leq, 8).holds

    def test_rado_identity_not_perfect(self):
        rep = perfect_check(identity_u2(), RADO.leq, 8)
        assert not rep.holds and rep.violation is not None

    def test_partition_with_badness(self):
        # badness == perfection for the complemented order, whenever the
        # window has shift pairs at all
        cases = [identity_u2(RADO), constant(uniform_front(2), 0), span_u2(),
                 min_u2()]
        for f in cases:
            rep = badness_check(f, 7)
            comp = perfect_check(
                f, lambda a, b, q=f.codomain: not q.leq(a, b), 7)
            assert rep.pairs_scanned == comp.pairs_scanned > 0
            assert rep.bad_on_window == comp.holds


@functools.lru_cache(maxsize=None)
def brute_force_pairs(front: str) -> list:
    """Every shift_rel-related member pair, in witness order."""
    F, bound = SHIFT_PAIR_FRONTS[front]
    members = members_within(F, bound)
    return sorted(((s, t) for s in members for t in members
                   if shift_rel(s, t)), key=witness_key)


def _seeded_rado(s) -> tuple:
    r = random.Random(repr(s))
    m = r.randrange(6)
    return (m, m + 1 + r.randrange(3))


# codomain and valuation by name: the rado ones take the checked-once raw
# path, chain:3 (a finite order) compares through its leq on every pair
SCAN_VALUATIONS = {
    "rado-seeded": (RADO, _seeded_rado),
    "rado-ends": (RADO, lambda s: (s[0], s[-1]) if len(s) > 1
                  else (0, 1 + sum(s))),
    "chain3-seeded": (chain(3), lambda s: random.Random(repr(s)).randrange(3)),
    "omega-falling": (OMEGA, lambda s: 100 - sum(s)),
}


@pytest.mark.parametrize("valuation", SCAN_VALUATIONS)
@pytest.mark.parametrize("front", SHIFT_PAIR_FRONTS)
class TestScansMatchBruteForce:
    def superseq(self, front, valuation) -> SuperSeq:
        qo, v = SCAN_VALUATIONS[valuation]
        return SuperSeq(SHIFT_PAIR_FRONTS[front][0], v, qo, valuation)

    def test_badness(self, front, valuation):
        f = self.superseq(front, valuation)
        bound = SHIFT_PAIR_FRONTS[front][1]
        pairs = brute_force_pairs(front)
        good = [p for p in pairs if f.codomain.leq(f.value(p[0]),
                                                   f.value(p[1]))]
        rep = badness_check(f, bound)
        assert rep.good_witness == (good[0] if good else None)
        assert rep.bad_on_window == (not good)
        assert rep.pairs_scanned == len(pairs)
        assert rep.window == bound

    @pytest.mark.parametrize("relation", ["leq", "eq"])
    def test_perfect(self, front, valuation, relation):
        f = self.superseq(front, valuation)
        bound = SHIFT_PAIR_FRONTS[front][1]
        R = f.codomain.leq if relation == "leq" else (lambda a, b: a == b)
        pairs = brute_force_pairs(front)
        bad = [p for p in pairs if not R(f.value(p[0]), f.value(p[1]))]
        rep = perfect_check(f, R, bound)
        assert rep.violation == (bad[0] if bad else None)
        assert rep.holds == (not bad)
        assert rep.pairs_scanned == len(pairs)


class TestScanErrors:
    """A malformed rado value raises where a checked comparison of every
    pair in witness order would, and only if the scan gets there."""

    @staticmethod
    def identity_except(table: dict, log: list) -> SuperSeq:
        def v(s):
            log.append(s)
            return table.get(s, s)
        return SuperSeq(uniform_front(2), v, RADO, "identity")

    # (2, 5) is first met as t; (0, 5) as s, next to an unread t
    @pytest.mark.parametrize("member", [(2, 5), (0, 5)])
    def test_malformed_value_raises_at_its_first_pair(self, member):
        table = {member: (5, 3)}
        ref_log = []
        ref = self.identity_except(table, ref_log)
        pairs = sorted(shift_pairs_reference(
            members_within(uniform_front(2), 8)), key=witness_key)
        with pytest.raises(NotAPair) as ref_err:
            for s, t in pairs:
                rado_leq(ref.value(s), ref.value(t))
        log = []
        with pytest.raises(NotAPair) as err:
            badness_check(self.identity_except(table, log), 8)
        assert str(err.value) == str(ref_err.value) == (
            "(5, 3) is not an increasing pair of naturals")
        assert log == ref_log and member in log

    def test_good_pair_before_malformed_value(self):
        # f(1, 2) = f(0, 1) makes the first pair good; (5, 7) tops out at 7
        table = {(1, 2): (0, 1), (5, 7): (5, 3)}
        rep = badness_check(self.identity_except(table, []), 8)
        assert rep.good_witness == ((0, 1), (1, 2))
        assert rep.pairs_scanned == 56


class TestFiles:
    def test_named_rules(self):
        assert named_valuation("identity")((1, 2)) == (1, 2)
        assert named_valuation("min")((3, 5)) == 3
        assert named_valuation("span")((3, 9)) == 6
        assert named_valuation("minmod2")((3, 9)) == 1
        assert named_valuation("constant:4")((0, 1)) == 4
        with pytest.raises(ValueError):
            named_valuation("medium")

    def test_from_dict_rule(self):
        f = superseq_from_dict({
            "front": {"schema": "uniform", "k": 2, "base": "omega"},
            "valuation": {"rule": "span"},
        }, codomain=OMEGA)
        assert f.value((2, 7)) == 5

    def test_from_dict_table_with_fallback(self):
        f = superseq_from_dict({
            "front": {"schema": "uniform", "k": 1, "base": "omega"},
            "valuation": {"rule": "min", "table": {"0": 99}},
        }, codomain=OMEGA)
        assert f.value((0,)) == 99
        assert f.value((3,)) == 3

    def test_from_dict_table_only_raises_off_table(self):
        f = superseq_from_dict({
            "front": {"schema": "uniform", "k": 1, "base": "omega"},
            "valuation": {"table": {"0": 1, "1": 0}},
        })
        assert f.value((1,)) == 0
        with pytest.raises(KeyError):
            f.value((5,))


class TestValueCache:
    def test_valuation_called_once_per_member(self):
        calls = []

        def v(s):
            calls.append(s)
            return 0

        f = SuperSeq(front=uniform_front(2), valuation=v, codomain=OMEGA)
        badness_check(f, 6)
        assert len(calls) == len(set(calls))
