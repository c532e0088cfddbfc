from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bqo.fronts
import bqo.superseq
from bqo.errors import DifferentBase, MissingValue, NotAPair
from bqo.fronts import (
    Front,
    TrivialSchema,
    UniformSchema,
    count_shift_pairs,
    front_member,
    front_to_dict,
    members_within,
    schreier_front,
    shift_rel,
    trivial_front,
    uniform_front,
)
from bqo.qo import OMEGA, RADO, chain, rado_leq
from bqo.ramsey import coloring_from_dict
from bqo.streams import InfSet, arithmetic, evens, omega, parse_base
from bqo.superseq import (
    SuperSeq,
    _decode_table,
    _search_bound,
    badness_check,
    eval_up,
    named_valuation,
    perfect_check,
    seg_order,
    spare_check,
    sparsify,
    superseq_from_dict,
)

from _helpers import (
    FRONT_BASES,
    FRONT_KINDS,
    SHIFT_PAIR_FRONTS,
    decode_table_reference,
    shift_pairs_reference,
    spare_check_reference,
    witness_key,
)


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


class TestValue:
    def test_a_table_member_calls_no_valuation(self):
        def unread(s):
            raise AssertionError(f"valuation called at {s}")
        f = SuperSeq(uniform_front(2), unread, _cache={(0, 1): None})
        assert f.value((0, 1)) is None and f.value([0, 1]) is None

    def test_a_list_reads_the_tuple_value(self):
        calls = []
        f = SuperSeq(uniform_front(2),
                     lambda s: calls.append(s) or s[1] - s[0])
        assert f.value([2, 7]) == 5 and f.value((2, 7)) == 5
        assert f.value(iter((2, 7))) == 5
        assert calls == [(2, 7)] * 3 and all(type(s) is tuple for s in calls)

    def test_reading_a_file_sequence_leaves_its_table_as_given(self):
        # every member but the two on the table falls back to the rule
        f = superseq_from_dict({"front": {"schema": "uniform", "k": 2},
                                "valuation": {"rule": "span", "table": {
                                    "0,1": 9, "2,5": 0}}}, codomain=OMEGA)
        members = members_within(f.front, 8)
        assert [f.value(s) for s in members] == [
            {(0, 1): 9, (2, 5): 0}.get(s, s[1] - s[0]) for s in members]
        assert perfect_check(f, lambda a, b: True, 8).holds
        assert f.checked().value((3, 7)) == 4
        assert f._cache == {(0, 1): 9, (2, 5): 0}

    def test_a_checked_view_reads_and_checks_each_member_once(self):
        reads, checks = [], []
        codomain = types.SimpleNamespace(
            check=lambda v: checks.append(v) or RADO.check(v))
        f = SuperSeq(uniform_front(2), lambda s: reads.append(s) or s,
                     codomain, _cache={(0, 1): (0, 5)})
        g = f.checked()
        members = members_within(f.front, 6)
        values = [(0, 5), *members[1:]]
        for _ in range(3):
            assert [g.value(s) for s in members] == values
        # the given value is read, not computed, and checked like the rest
        assert reads == members[1:] and checks == values
        assert g._cache == dict(zip(members, values))
        assert f._cache == {(0, 1): (0, 5)}
        # a failed check stores nothing, so the next read raises again
        bad_reads = []
        bad = SuperSeq(uniform_front(2),
                       lambda s: bad_reads.append(s) or (5, 3), RADO).checked()
        for _ in range(2):
            with pytest.raises(NotAPair):
                bad.value((0, 1))
        assert bad_reads == [(0, 1)] * 2 and bad._cache == {}


def test_a_rule_valued_scan_leaves_the_sequence_holding_no_values():
    # min holds <= on every shift pair of the Schreier front, so the scan
    # reads every window member; afterwards, with f alive, nothing that
    # superseq allocated for the scan is held
    f = SuperSeq(schreier_front(), named_valuation("min"), OMEGA, "min")
    tracemalloc.start()
    try:
        rep = perfect_check(f, operator.le, 22)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, bqo.superseq.__file__)]).statistics(
            "filename"))
    assert rep.holds and rep.pairs_scanned > 10 ** 5
    assert held < 16_000, held
    assert f._cache == {}


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


@dataclass(frozen=True)
class LoggedSeq(SuperSeq):
    """A super-sequence that logs every value read, given or computed."""

    log: list = field(default_factory=list, compare=False, repr=False)

    def value(self, s: tuple):
        self.log.append(tuple(s))
        return super().value(s)


def spare_outcome(check, f: SuperSeq, bound: int):
    """The report of check, or the MissingValue it raises, with the log of
    every value it read, on a copy of f with a copy of its given values."""
    seq = LoggedSeq(f.front, f.valuation, f.codomain, f.name, dict(f._cache))
    try:
        result = check(seq, bound)
    except MissingValue as exc:
        result = str(exc)
    return result, seq.log


def spare_pool(front, bound: int) -> list:
    return members_within(front, _search_bound(members_within(front, bound),
                                               bound))


class TestSpareRuns:
    """spare_check reads the run of the sorted pool that extends each
    prefix: the same values, in the same order, as a whole-pool scan."""

    @pytest.mark.parametrize("name", sorted(SHIFT_PAIR_FRONTS))
    def test_reads_what_the_whole_pool_scan_reads(self, name):
        front = SHIFT_PAIR_FRONTS[name][0]
        rng = random.Random(f"spare {name}")
        for bound in range(0, 13, 3):
            pool = spare_pool(front, bound)
            assert pool == sorted(pool)
            valuations = [{m: rng.randrange(k) for m in pool}.__getitem__
                          for k in (1, 2, 3, 3)]
            if not front.schema.trivial:
                valuations += [named_valuation(rule)
                               for rule in ("min", "span", "identity")]
            for valuation in valuations:
                f = SuperSeq(front=front, valuation=valuation)
                assert spare_outcome(spare_check, f, bound) == \
                    spare_outcome(spare_check_reference, f, bound)

    @pytest.mark.parametrize("name", ["u1", "u2", "u3", "schreier", "seq"])
    def test_a_missing_table_entry_raises_at_the_same_read(self, name):
        front = SHIFT_PAIR_FRONTS[name][0]
        rng = random.Random(f"spare table {name}")
        pool = spare_pool(front, 9)
        raised = 0
        for missing in (0.0, 0.01, 0.05, 0.2, 0.6):
            table = {",".join(map(str, m)): rng.randrange(3) for m in pool
                     if rng.random() >= missing}
            f = superseq_from_dict({"front": front_to_dict(front),
                                    "valuation": {"table": table}})
            new = spare_outcome(spare_check, f, 9)
            assert new == spare_outcome(spare_check_reference, f, 9)
            raised += isinstance(new[0], str)
        assert raised >= 2


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


def test_a_window_without_shift_pairs_is_bad():
    F, bound = SHIFT_PAIR_FRONTS["u3-lone"]
    rep = badness_check(constant(F, 0), bound)
    assert rep.pairs_scanned == 0 and rep.bad_on_window
    assert rep.good_witness is None


class TestScanErrors:
    """A malformed rado value raises where a checked comparison of every
    pair in witness order would, and only if the scan gets there."""

    @staticmethod
    def identity_except(table: dict, log: list) -> SuperSeq:
        def v(s):
            log.append(s)
            return table.get(s, s)
        return SuperSeq(uniform_front(2), v, RADO, "identity")

    @staticmethod
    def bad_except(front, table: dict, log: list) -> SuperSeq:
        """(s[0], 100) into rado, bad on every shift pair of nonempty
        members (t[0] sits above s[0] and below 100), except at table."""
        def v(s):
            log.append(s)
            return table.get(s, (s[0], 100) if s else (0, 1))
        return SuperSeq(front, v, RADO, "bad")

    @staticmethod
    def checked_reference(f: SuperSeq, pairs: list):
        """The first good pair of a checked rado_leq in witness order, each
        member's value read once."""
        return first_pair_reference(f.value, pairs, rado_leq)

    # (2, 5) is first met as t; (0, 5) as s, next to an unread t
    @pytest.mark.parametrize("member", [(2, 5), (0, 5)])
    def test_malformed_value_raises_at_its_first_pair(self, member):
        table = {member: (5, 3)}
        ref_log = []
        ref = self.identity_except(table, ref_log)
        pairs = sorted(shift_pairs_reference(
            members_within(uniform_front(2), 8)), key=witness_key)
        # identity is bad on every shift pair, so the reference reads on
        # until the malformed value raises
        with pytest.raises(NotAPair) as ref_err:
            self.checked_reference(ref, pairs)
        log = []
        with pytest.raises(NotAPair) as err:
            badness_check(self.identity_except(table, log), 8)
        assert str(err.value) == str(ref_err.value) == (
            "(5, 3) is not an increasing pair of naturals")
        assert log == ref_log and member in log

    # singletons (u1, Schreier), segment partners (seq), the lone ((), ())
    # pair (trivial) and the plain extension buckets of the uniform fronts
    @pytest.mark.parametrize("front", SHIFT_PAIR_FRONTS)
    def test_malformed_value_raises_at_every_member(self, front):
        F, bound = SHIFT_PAIR_FRONTS[front]
        members = members_within(F, bound)
        pairs = sorted(shift_pairs_reference(members), key=witness_key)
        paired = {m for pair in pairs for m in pair}
        for member in members:
            table = {member: (5, 3)}
            outcomes = []
            for scan in (lambda f: self.checked_reference(f, pairs),
                         lambda f: badness_check(f, bound).good_witness):
                log = []
                try:
                    outcomes.append((scan(self.bad_except(F, table, log)),
                                     log))
                except NotAPair as exc:
                    outcomes.append((str(exc), log))
            assert outcomes[0] == outcomes[1], member
            result, log = outcomes[1]
            if member in paired:
                assert result == "(5, 3) is not an increasing pair of naturals"
                assert member in log
            else:
                assert result is None and member not in log

    @pytest.mark.parametrize("front", SHIFT_PAIR_FRONTS)
    def test_every_value_malformed_raises_at_the_first_read(self, front):
        # each value names its member, so the error tells which check ran
        # first where both values of a pair are read fresh
        F, bound = SHIFT_PAIR_FRONTS[front]
        pairs = sorted(shift_pairs_reference(members_within(F, bound)),
                       key=witness_key)
        outcomes = []
        for scan in (lambda f: self.checked_reference(f, pairs),
                     lambda f: badness_check(f, bound).good_witness):
            log = []
            f = SuperSeq(F, lambda s: log.append(s) or (s, 3), RADO)
            try:
                outcomes.append((scan(f), log))
            except NotAPair as exc:
                outcomes.append((str(exc), log))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][0] == (
            f"({pairs[0][0]!r}, 3) is not an increasing pair of naturals"
            if pairs else None)

    def test_good_pair_before_malformed_value(self):
        # f(1, 2) = f(0, 1) makes the first pair good; (5, 7) tops out at 7
        table = {(1, 2): (0, 1), (5, 7): (5, 3)}

        def v(s):
            return table.get(s, s)
        rep = badness_check(SuperSeq(uniform_front(2), v, RADO), 8)
        assert rep.good_witness == ((0, 1), (1, 2))
        assert rep.pairs_scanned == 56


class TestScanLaziness:
    def test_scan_builds_buckets_up_to_its_witness(self, monkeypatch):
        walked = []
        ending_at = bqo.fronts._ending_at
        monkeypatch.setattr(bqo.fronts, "_ending_at", lambda F, x: (
            walked.append(x) or ending_at(F, x)))
        # the Schreier front takes the bucket walk; no member ends in 1,
        # and ((0,), (1, 2)) is good
        members = members_within(schreier_front(), 12)
        rep = badness_check(constant(schreier_front(), 0), 12)
        assert rep.good_witness == ((0,), (1, 2))
        assert rep.pairs_scanned == len(shift_pairs_reference(members))
        assert walked == [0, 1, 2]

    def test_uniform_scan_reads_no_member_past_its_witness(self,
                                                           monkeypatch):
        count = len(shift_pairs_reference(members_within(uniform_front(2),
                                                         40)))

        def refuse(*args):
            raise AssertionError("the uniform scan indexes no members")
        monkeypatch.setattr(bqo.superseq, "shift_pair_buckets", refuse)
        monkeypatch.setattr(bqo.superseq, "members_within", refuse)
        monkeypatch.setattr(bqo.fronts, "shift_pair_buckets", refuse)
        log = []
        f = SuperSeq(uniform_front(2), lambda s: log.append(s) or 0, OMEGA)
        rep = badness_check(f, 40)
        assert rep.good_witness == ((0, 1), (1, 2))
        assert rep.pairs_scanned == count == math.comb(40, 3)
        assert log == [(0, 1), (1, 2)]

    def test_schreier_scan_lists_no_member_far_out(self, monkeypatch):
        # the witness sits at top 2; the count is stepped in closed form
        def refuse(*args):
            raise AssertionError("members_within called")
        monkeypatch.setattr(bqo.superseq, "members_within", refuse)
        monkeypatch.setattr(bqo.fronts, "members_within", refuse)
        rep = badness_check(SuperSeq(schreier_front(), named_valuation(
            "min"), OMEGA), 20000)
        assert rep.good_witness == ((0,), (1, 2))
        assert rep.pairs_scanned == count_shift_pairs(schreier_front(),
                                                      20000)

    def test_singleton_scan_lists_no_member_far_out(self, monkeypatch):
        # [X]^1 takes the bucket walk, which stops at top 1; the count is
        # C(n, 2) in closed form
        def refuse(*args):
            raise AssertionError("members_within called")
        monkeypatch.setattr(bqo.superseq, "members_within", refuse)
        monkeypatch.setattr(bqo.fronts, "members_within", refuse)
        rep = badness_check(SuperSeq(uniform_front(1), named_valuation(
            "min"), OMEGA), 20000)
        assert rep.good_witness == ((0,), (1,))
        assert rep.pairs_scanned == math.comb(20000, 2)


def first_pair_reference(value, pairs: list, hit, check=None):
    """The first of pairs with hit(f(s), f(t)), read pair by pair: the
    values a pair reads fresh are read s then t, then checked s then t,
    and then compared."""
    read = {}
    for s, t in pairs:
        fresh = [m for m in dict.fromkeys((s, t)) if m not in read]
        for m in fresh:
            read[m] = value(m)
        if check is not None:
            for m in fresh:
                check(read[m])
        if hit(read[s], read[t]):
            return s, t
    return None


def _logged(v, log: list):
    return lambda m: log.append(m) or v(m)


def _scan_valuation(seed: int, style: str, log: list):
    """Rado values by member, logged on each read. "mixed": small seeded
    pairs, so good pairs come early; "bad": (s[0], 100), bad on every
    shift pair, but for rare values (0, 1), good below each t with t[0] at
    least 2 (() reads as 0); "malformed": "bad" with rare values outside
    the carrier; "both": "mixed" with rare values outside the carrier."""
    def v(s):
        log.append(s)
        r = random.Random(repr((seed, s)))
        if style in ("malformed", "both") and r.random() < 0.03:
            return (5, 3)
        if style in ("bad", "malformed"):
            return (0, 1) if r.random() < 0.05 else (s[0] if s else 0, 100)
        m = r.randrange(6)
        return (m, m + 1 + r.randrange(3))
    return v


def _scan_relation(seed: int, raising: bool, calls: list):
    """A seeded relation on values, false on about one pair in twenty;
    when raising, it raises on about one pair in thirty instead."""
    def R(a, b):
        calls.append((a, b))
        x = random.Random(repr((seed, a, b))).random()
        if raising and x < 0.03:
            raise ValueError(f"R refuses {a}, {b}")
        return x >= 0.05
    return R


_SCAN_BASES = (omega, evens, lambda: parse_base("prefix:0,2+arith:5,3"))
_SCAN_STYLES = ("mixed", "bad", "malformed", "both")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("scan", ["badness", "perfect", "perfect-raising"])
def test_uniform_scan_matches_the_per_pair_scan(k, scan):
    """The uniform scans, the closed form for k >= 2 and the bucket walk
    for k = 1, against a per-pair scan of the listed shift pairs on
    windows 0 to 12 and three bases: same witness, pair count, first
    error and read log, and, for perfect_check, the same calls of R."""
    for window in range(13):
        for seed in range(12):
            F = uniform_front(k, _SCAN_BASES[seed // 4]())
            pairs = sorted(shift_pairs_reference(members_within(F, window)),
                           key=witness_key)
            outcomes = []
            for run in (_reference_scan, _library_scan):
                log, calls = [], []
                f = SuperSeq(F, _scan_valuation(seed, _SCAN_STYLES[seed % 4],
                                                log), RADO)
                R = _scan_relation(seed, scan == "perfect-raising", calls)
                try:
                    out = run(f, None if scan == "badness" else R, window,
                              pairs)
                except (NotAPair, ValueError) as exc:
                    out = type(exc), str(exc)
                outcomes.append((out, log, calls))
            assert outcomes[0] == outcomes[1], (window, seed)


@pytest.mark.parametrize("front", FRONT_KINDS)
@pytest.mark.parametrize("scan", ["badness", "perfect", "perfect-raising"])
def test_every_front_scan_matches_the_per_pair_scan(front, scan):
    """badness_check and perfect_check on every front kind against a
    per-pair scan of the listed shift pairs, on windows 0 to 20 and four
    bases: same witness, pair count, first error and read log, and, for
    perfect_check, the same calls of R. The uniform fronts with k >= 2
    take the closed form, the others, [X]^1 included, the bucket walk."""
    for window in range(21):
        for b, base in enumerate(FRONT_BASES):
            F = FRONT_KINDS[front](parse_base(base))
            pairs = sorted(shift_pairs_reference(members_within(F, window)),
                           key=witness_key)
            for seed in range(4 * b, 4 * b + 4):
                outcomes = []
                for run in (_reference_scan, _library_scan):
                    log, calls = [], []
                    f = SuperSeq(F, _scan_valuation(
                        seed, _SCAN_STYLES[seed % 4], log), RADO)
                    R = _scan_relation(seed, scan == "perfect-raising", calls)
                    try:
                        out = run(f, None if scan == "badness" else R,
                                  window, pairs)
                    except (NotAPair, ValueError) as exc:
                        out = type(exc), str(exc)
                    outcomes.append((out, log, calls))
                assert outcomes[0] == outcomes[1], (window, base, seed)


def _reference_scan(f: SuperSeq, R, window: int, pairs: list) -> tuple:
    if R is None:
        return first_pair_reference(f.value, pairs, RADO.raw_leq,
                                    RADO.check), len(pairs)
    return first_pair_reference(f.value, pairs,
                                lambda a, b: not R(a, b)), len(pairs)


def _library_scan(f: SuperSeq, R, window: int, pairs: list) -> tuple:
    if R is None:
        rep = badness_check(f, window)
        return rep.good_witness, rep.pairs_scanned
    rep = perfect_check(f, R, window)
    return rep.violation, rep.pairs_scanned


class TestUniformScanBlocks:
    """Each bucket of a uniform scan reads its fresh values in its
    least-point block, the s starting at the window's least point, and
    compares the rest of the bucket in one pass. On [omega]^2 at window 8,
    (s[0], 100) into rado is bad on every shift pair, so one override
    f(t) = f(s) places the witness."""

    @staticmethod
    def scan(witness):
        s, t = witness
        log = []

        def v(m):
            log.append(m)
            return (s[0], 100) if m == t else (m[0], 100)
        f = SuperSeq(uniform_front(2), v, RADO)
        return badness_check(f, 8), log

    def test_witness_inside_the_least_point_block(self):
        # the block of x = 5 would read (1, 5), (2, 5), (3, 5), then (0, 4)
        # and (4, 5); it stops at (2, 5)
        rep, log = self.scan(((0, 2), (2, 5)))
        assert rep.good_witness == ((0, 2), (2, 5))
        pairs = sorted(shift_pairs_reference(members_within(
            uniform_front(2), 8)), key=witness_key)
        ref_log = []
        first_pair_reference(
            _logged(lambda m: (0, 100) if m == (2, 5) else (m[0], 100),
                    ref_log), pairs, RADO.raw_leq)
        assert log == ref_log
        assert log[-2:] == [(1, 5), (2, 5)]
        assert (3, 5) not in log and (0, 4) not in log

    def test_witness_in_the_rest_of_a_bucket(self):
        # ((2, 3), (3, 5)) lies past the block of x = 5, which reads every
        # value the bucket needs and nothing of a later bucket
        rep, log = self.scan(((2, 3), (3, 5)))
        assert rep.good_witness == ((2, 3), (3, 5))
        assert log[-5:] == [(1, 5), (2, 5), (3, 5), (0, 4), (4, 5)]
        # (0, 5) is first read as an s, in the bucket of x = 6
        assert sorted(log) == sorted(
            set(itertools.combinations(range(6), 2)) - {(0, 5)})


class TestWindowProbe:
    """min@u2 into omega-leq at window 20000 has C(20000, 3), about 1.3e12,
    shift pairs and about 2e8 members; its first pair is good."""

    ARGV = ["seq", "bad", "--fixture", "min@u2", "--codomain", "omega-leq",
            "--window", "20000"]

    def test_uniform_scan_lists_no_member(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("members_within called")
        monkeypatch.setattr(bqo.superseq, "members_within", refuse)
        monkeypatch.setattr(bqo.fronts, "members_within", refuse)
        f = SuperSeq(uniform_front(2), named_valuation("min"), OMEGA)
        rep = badness_check(f, 20000)
        assert rep.good_witness == ((0, 1), (1, 2))
        assert rep.pairs_scanned == math.comb(20000, 3)
        assert not rep.bad_on_window

    def test_cli_exits_0_under_an_address_space_cap(self):
        resource = pytest.importorskip("resource")
        cap = 1_500_000_000

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(pathlib.Path(bqo.superseq.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + path if path else src)
        proc = subprocess.run(
            [sys.executable, "-m", "bqo.cli", *self.ARGV, "--format", "json"],
            env=env, preexec_fn=limit, capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["pairs_scanned"] == math.comb(20000, 3)


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

    @pytest.mark.parametrize("value", [{"a": 1}, [[0, 1], 2], [{"a": 1}]])
    def test_unhashable_table_value_names_its_key(self, value):
        with pytest.raises(TypeError, match="value for '1' is not hashable"):
            superseq_from_dict({
                "front": {"schema": "uniform", "k": 1},
                "valuation": {"table": {"0": 3, "1": value}},
            })

    @pytest.mark.parametrize("rule", ["min", "span", "minmod2"])
    @pytest.mark.parametrize("front", [trivial_front(), uniform_front(0)])
    def test_rules_reading_entries_refuse_the_trivial_front(self, rule,
                                                            front):
        message = (f"valuation rule '{rule}' needs nonempty members; the "
                   "trivial front's only member is ()")
        with pytest.raises(ValueError, match=re.escape(message)):
            named_valuation(rule, front)
        with pytest.raises(ValueError, match=re.escape(message)):
            superseq_from_dict({"front": front_to_dict(front),
                                "valuation": {"rule": rule}})
        # a table entry for () is read instead of the rule
        f = superseq_from_dict({"front": front_to_dict(front),
                                "valuation": {"rule": rule,
                                              "table": {"": 7}}})
        assert f.value(()) == 7
        assert named_valuation(rule, uniform_front(1))((4,)) in (0, 4)

    def test_rules_reading_no_entry_take_the_trivial_front(self):
        assert named_valuation("identity", trivial_front())(()) == ()
        assert named_valuation("constant:3", trivial_front())(()) == 3

    def test_table_lists_become_tuples(self):
        f = superseq_from_dict({
            "front": {"schema": "uniform", "k": 1},
            "valuation": {"table": {"0": [0, 1], "1": "x"}},
        })
        assert f.value((0,)) == (0, 1) and f.value((1,)) == "x"


class _Row(list):
    pass


# keys JSON reads as lists of ints; keys of ASCII digits and commas that
# JSON may refuse (an empty part, a leading zero); keys with anything int()
# might accept or refuse
_JSON_KEYS = st.lists(st.integers(0, 10 ** 6).map(str), max_size=4).map(
    ",".join)
_DECIMAL_KEYS = st.text("0123456789,", max_size=8)
_ANY_KEYS = st.one_of(_JSON_KEYS, _DECIMAL_KEYS,
                      st.text("0123456789,-+_ \n[]\"'.e\u0663\u00b2",
                              max_size=8))
_ATOMS = st.one_of(st.integers(-5, 99), st.text(max_size=3))
_LISTS = st.lists(_ATOMS, max_size=3)
_VALUES = st.one_of(_ATOMS, _LISTS, st.lists(_LISTS, max_size=2),
                    st.dictionaries(st.text(max_size=2), _ATOMS, max_size=2),
                    _LISTS.map(_Row))
_TABLES = st.one_of(st.dictionaries(_JSON_KEYS, _LISTS, max_size=8),
                    st.dictionaries(_JSON_KEYS, _VALUES, max_size=8),
                    st.dictionaries(_ANY_KEYS, _VALUES, max_size=8))


def _decoded(decode, table_raw):
    """Members with the exact types of their entries, and typed values, in
    table order; or the exception type and message."""
    try:
        table = decode(table_raw)
    except Exception as e:
        return type(e), str(e)
    return [(s, tuple(map(type, s)), v, type(v)) for s, v in table.items()]


class TestTableDecode:
    @settings(max_examples=400, deadline=None)
    @given(_TABLES)
    @example({"1" * 5000: 1})
    @example({"9" * 400: 1, "0": 2})
    @example({"0": {"a": 1}, "x": 1})
    @example({"x": 1, "0": {"a": 1}})
    @example({"01,2": [1], "1,2": [2]})
    def test_bulk_decode_matches_the_per_entry_decode(self, table_raw):
        assert _decoded(_decode_table, table_raw) == \
            _decoded(decode_table_reference, table_raw)

    def test_a_table_entry_is_read_without_the_valuation(self):
        f = superseq_from_dict({
            "front": {"schema": "uniform", "k": 2},
            "valuation": {"rule": "span", "table": {"0,1": [4, 5]}},
        })

        def unread(s):
            raise AssertionError(f"valuation called at {s}")

        object.__setattr__(f, "valuation", unread)
        assert f.value((0, 1)) == (4, 5)
        with pytest.raises(AssertionError, match=re.escape("(2, 7)")):
            f.value((2, 7))

    def test_off_table_members_take_the_rule_or_raise(self):
        table = {"0,1": 9}
        with_rule = superseq_from_dict({
            "front": {"schema": "uniform", "k": 2},
            "valuation": {"rule": "span", "table": table}})
        assert with_rule.value((0, 1)) == 9 and with_rule.value((2, 7)) == 5
        table_only = superseq_from_dict({
            "front": {"schema": "uniform", "k": 2},
            "valuation": {"table": table}})
        with pytest.raises(MissingValue, match=re.escape("(2, 7)")):
            table_only.value((2, 7))

    # two spellings of one member, and keys int() would take: a leading
    # zero, a sign, a space, an underscore, a non-ASCII digit
    @pytest.mark.parametrize("table,key", [
        ({"1,2": 5, "01,2": 7}, "01,2"), ({"01,2": 7, "1,2": 5}, "01,2"),
        ({"0,1": 1, "+1,2": 2}, "+1,2"), ({"-0": 1}, "-0"),
        ({"1, 2": 1}, "1, 2"), ({"1_0": 1}, "1_0"),
        ({"\u0663": 1}, "\u0663"), ({"1,": 1}, "1,"), ({",": 1}, ","),
        ({1: 1}, 1)])
    def test_a_key_that_is_not_canonical_is_refused(self, table, key):
        with pytest.raises(ValueError) as err:
            superseq_from_dict({"front": {"schema": "uniform", "k": 2},
                                "valuation": {"table": table}})
        assert str(err.value) == (
            f"valuation table key {key!r} is not canonical: write \"\" or "
            f"naturals without leading zeros joined by commas")

    def test_canonical_keys_name_their_members(self):
        f = superseq_from_dict({"front": {"schema": "uniform", "k": 2},
                                "valuation": {"table": {
                                    "0,10": 1, "1,2": 2, "": 3,
                                    "120,3000": 4}}})
        assert [f.value(s) for s in [(0, 10), (1, 2), (), (120, 3000)]] \
            == [1, 2, 3, 4]

    def test_the_empty_key_is_the_empty_member(self):
        f = superseq_from_dict({"front": {"schema": "trivial"},
                                "valuation": {"table": {"": [1, 2]}}})
        assert f.value(()) == (1, 2)

    def test_checked_reads_the_table_through_the_check(self):
        f = superseq_from_dict({"front": {"schema": "uniform", "k": 1},
                                "valuation": {"table": {"0": [0, 1],
                                                        "1": "x"}}},
                               codomain=RADO)
        g = f.checked()
        assert g.value((0,)) == (0, 1)
        with pytest.raises(NotAPair, match="'x' is not an increasing pair"):
            g.value((1,))

    def test_checked_without_a_codomain_is_a_value_error(self):
        with pytest.raises(ValueError,
                           match=r"^checked\(\) needs a quasi-order codomain$"):
            identity_u2(None).checked()


class TestKeyParity:
    """Colouring and valuation tables share one key grammar."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ANY_KEYS, max_size=8, unique=True))
    @example(["0,1", "00,1", "+0,2", " 1,2"])
    @example(["-1,3"])
    def test_a_key_set_decodes_alike_as_either_table(self, keys):
        rows = {key: i for i, key in enumerate(keys)}
        front = {"schema": "uniform", "k": 2}
        try:
            valuation = _decode_table(rows)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                coloring_from_dict({"front": front, "table": rows})
            assert str(err.value) == str(e).replace("valuation", "coloring",
                                                     1)
            return
        # a colouring table also refuses its first key that names no
        # member of its front; a valuation table does not check this
        strays = [key for key, s in zip(rows, valuation)
                  if not (len(s) == 2 and s[0] < s[1])]
        if strays:
            with pytest.raises(ValueError, match=re.escape(
                    f"coloring table key {strays[0]!r} names no member")):
                coloring_from_dict({"front": front, "table": rows})
            return
        col = coloring_from_dict({"front": front, "table": rows})
        # distinct keys name distinct members, so each table has them all
        assert len(valuation) == len(keys)
        assert all(col.color(s) == i for s, i in valuation.items())


class TestValueCache:
    def test_valuation_called_once_per_member(self):
        calls = []

        def v(s):
            calls.append(s)
            return 0

        f = SuperSeq(front=uniform_front(2), valuation=v, codomain=OMEGA)
        badness_check(f, 6)
        assert len(calls) == len(set(calls))
