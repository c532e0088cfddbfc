from __future__ import annotations

import enum
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqo.qo
from bqo.errors import (
    BadIndices,
    InvariantViolated,
    MissingReflexive,
    MissingTransitive,
    MixedBaseQO,
    NotAPair,
    NotAPartialOrder,
    NotInCarrier,
    WindowTooSmall,
)
from bqo.qo import (
    OMEGA,
    RADO,
    CodedQO,
    Downset,
    FiniteQO,
    SeqWindow,
    antichain,
    chain,
    derived_relations,
    domination_leq,
    downset_closure,
    downset_limits,
    product_qo,
    qo_validate,
    rado_antichain_witness,
    rado_leq,
    rado_trick_extract,
    rado_window_qo,
    regularity_check,
    resolve_qo,
    sequence_diagnose,
    sum_along_poset,
)

from _helpers import enumerate_preorders, subsets


def identity_pairs(elements):
    return [(e, e) for e in elements]


class TestValidate:
    def test_identity_relation_is_antichain(self):
        qo = qo_validate(["a", "b", "c"], identity_pairs("abc"))
        assert not qo.leq("a", "b")
        assert qo.leq("b", "b")

    def test_missing_transitive_pair(self):
        pairs = identity_pairs("abc") + [("a", "b"), ("b", "c")]
        with pytest.raises(MissingTransitive) as ei:
            qo_validate(["a", "b", "c"], pairs)
        assert ei.value.triple == ("a", "b", "c")

    def test_missing_reflexive(self):
        with pytest.raises(MissingReflexive) as ei:
            qo_validate(["a", "b"], [("a", "a"), ("a", "b")])
        assert ei.value.p == "b"

    def test_rado_window_validates(self):
        win = rado_window_qo(6)
        qo = qo_validate(
            win.elements,
            [(a, b) for a in win.elements for b in win.elements
             if rado_leq(a, b)])
        assert qo == win

    def test_malformed_pair(self):
        with pytest.raises(NotAPair):
            qo_validate(["a"], [("a",)])

    def test_unknown_element(self):
        with pytest.raises(NotInCarrier):
            qo_validate(["a"], [("a", "z")])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1 << 6 - 1))
    def test_validated_preorders_recheck(self, seed):
        qos = enumerate_preorders(3)
        qo = qos[seed % len(qos)]
        pairs = [(a, b) for a in qo.elements for b in qo.elements
                 if qo.leq(a, b)]
        again = qo_validate(qo.elements, pairs)
        assert again == qo


class _PairTuple(tuple):
    def __new__(cls, m, n):
        return super().__new__(cls, (m, n))


class TestRado:
    def test_first_clause(self):
        assert rado_leq((0, 1), (0, 5))

    def test_second_clause(self):
        assert rado_leq((1, 3), (4, 9))

    def test_incomparable_pair(self):
        assert not rado_leq((0, 2), (1, 3))
        assert not rado_leq((1, 3), (0, 2))

    def test_not_a_pair(self):
        with pytest.raises(NotAPair):
            rado_leq((3, 3), (0, 1))
        with pytest.raises(NotAPair):
            rado_leq((0, 1), (2, 1))
        with pytest.raises(NotAPair):
            rado_leq("01", (0, 1))

    @pytest.mark.parametrize("s", [
        (False, True), (0, True), (True, 2), (0.0, 1), [0, 1], (0, 1, 2),
        (-1, 2), (-1, 0), (1, 1), (3, 3), (2, 1), "01", (), None,
        _PairTuple(True, 2), _PairTuple(1, 1)])
    def test_carrier_check_rejects(self, s):
        message = f"{s!r} is not an increasing pair of naturals"
        for check in (bqo.qo._check_rado_pair, RADO.check):
            with pytest.raises(NotAPair) as err:
                check(s)
            assert str(err.value) == message
        with pytest.raises(NotAPair) as err:
            rado_leq((0, 1), s)
        assert str(err.value) == message

    def test_carrier_check_accepts_int_subclasses(self):
        class Point(enum.IntEnum):
            LOW = 2
            HIGH = 5
        s = (Point.LOW, Point.HIGH)
        assert bqo.qo._check_rado_pair(s) is s
        assert RADO.check(s) is s
        assert rado_leq(s, (2, 7)) and not rado_leq((2, 7), s)

    @pytest.mark.parametrize("s", [
        (0, 1), (3, 10 ** 30), _PairTuple(0, 1), _PairTuple(2, 5)])
    def test_carrier_check_returns_the_pair_itself(self, s):
        # plain pairs take the exact-type path, a tuple subclass the
        # isinstance one; both hand back the very object
        assert bqo.qo._check_rado_pair(s) is s
        assert RADO.check(s) is s
        assert rado_leq(s, (s[0], s[1] + 1))

    @pytest.mark.parametrize("x", ["x", (), "", None, True, -1, 1.5])
    def test_omega_checks_naturals_where_it_compares(self, x):
        message = f"{x!r} is not a natural number"
        for call in (lambda: OMEGA.check(x), lambda: OMEGA.leq(x, 3),
                     lambda: OMEGA.leq(3, x)):
            with pytest.raises(NotInCarrier) as err:
                call()
            assert str(err.value) == message
        assert OMEGA.check(7) == 7 and OMEGA.leq(2, 7) and OMEGA.raw_leq(2, 7)

    def test_finite_check_raises_the_index_error(self):
        c3 = chain(3)
        assert c3.check(2) == 2
        with pytest.raises(NotInCarrier, match="^7 is not in the carrier$"):
            c3.check(7)

    def test_coded_carrier(self):
        assert RADO.check((2, 9)) == (2, 9)
        with pytest.raises(NotAPair):
            RADO.check((4, 4))
        report = RADO.validate_window(
            [(m, n) for m in range(5) for n in range(m + 1, 5)])
        assert report["ok"] and report["sample_size"] == 10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
           st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_transitive_property(self, a, b, c, d, e, f):
        def mk(x, y):
            return (min(x, y), max(x, y) + 1 + (x == y))
        s, t, u = mk(a, b), mk(c, d), mk(e, f)
        if rado_leq(s, t) and rado_leq(t, u):
            assert rado_leq(s, u)


class TestDerivedRelations:
    def test_chain_strict(self):
        rec = derived_relations(chain(2), 0, 1)
        assert rec.strict and not rec.equiv and not rec.incomparable

    def test_reflexive_equiv(self):
        rec = derived_relations(antichain(3), 2, 2)
        assert rec.equiv and not rec.strict

    def test_rado_incomparable(self):
        rec = derived_relations(RADO, (0, 2), (1, 3))
        assert rec.incomparable

    def test_two_cycle_equiv(self):
        qo = qo_validate(
            ["a", "b"], identity_pairs("ab") + [("a", "b"), ("b", "a")])
        rec = derived_relations(qo, "a", "b")
        assert rec.equiv and not rec.strict and not rec.incomparable

    def test_not_in_carrier(self):
        with pytest.raises(NotInCarrier):
            derived_relations(chain(2), 0, 7)


def order_iso(P: FiniteQO, Q: FiniteQO) -> bool:
    """Crude isomorphism check by brute force; fine at test sizes."""
    if len(P) != len(Q):
        return False
    for perm in itertools.permutations(range(len(Q))):
        if all(
            P.leq(P.elements[i], P.elements[j])
            == Q.leq(Q.elements[perm[i]], Q.elements[perm[j]])
            for i in range(len(P)) for j in range(len(P))
        ):
            return True
    return False


class TestProductSum:
    def test_chain_times_chain_is_diamond(self):
        prod = product_qo(chain(2), chain(2))
        assert len(prod) == 4
        bot, mid1, mid2, top = (0, 0), (0, 1), (1, 0), (1, 1)
        assert prod.leq(bot, mid1) and prod.leq(bot, mid2)
        assert prod.leq(mid1, top) and prod.leq(mid2, top)
        assert not prod.leq(mid1, mid2) and not prod.leq(mid2, mid1)
        assert prod.leq(bot, top)

    def test_unit_factor_iso(self):
        P = chain(3)
        prod = product_qo(P, chain(1))
        assert order_iso(prod, P)

    def test_antichain_product(self):
        prod = product_qo(antichain(2), antichain(2))
        assert order_iso(prod, antichain(4))

    def test_sum_along_antichain(self):
        s = sum_along_poset(antichain(2), {0: chain(1), 1: chain(1)})
        assert order_iso(s, antichain(2))

    def test_sum_along_chain_of_units(self):
        s = sum_along_poset(chain(2), {0: chain(1), 1: chain(1)})
        assert order_iso(s, chain(2))

    def test_sum_along_chain_of_antichains(self):
        s = sum_along_poset(chain(2), {0: antichain(2), 1: antichain(2)})
        for q in antichain(2).elements:
            for qq in antichain(2).elements:
                assert s.leq((0, q), (1, qq))
                assert not s.leq((1, q), (0, qq))
                assert s.leq((0, q), (0, qq)) == (q == qq)

    def test_sum_needs_partial_order(self):
        qo = qo_validate(
            ["a", "b"], identity_pairs("ab") + [("a", "b"), ("b", "a")])
        with pytest.raises(NotAPartialOrder):
            sum_along_poset(qo, {"a": chain(1), "b": chain(1)})

    def test_products_preserve_validation(self):
        prod = product_qo(chain(2), antichain(2))
        pairs = [(a, b) for a in prod.elements for b in prod.elements
                 if prod.leq(a, b)]
        assert qo_validate(prod.elements, pairs) == prod


class TestDownsets:
    def test_empty_closure(self):
        assert downset_closure(chain(3), []).members == frozenset()

    def test_chain_closure(self):
        assert downset_closure(chain(2), [1]).members == {0, 1}

    def test_rado_window_closure(self):
        qo = rado_window_qo(4)
        assert downset_closure(qo, [(1, 2)]).members == {(1, 2)}

    def test_downset_invariant_enforced(self):
        with pytest.raises(ValueError):
            Downset(over=chain(2), members=frozenset({1}))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_idempotent(self, data):
        qos = enumerate_preorders(3)
        qo = qos[data.draw(st.integers(0, len(qos) - 1))]
        small = data.draw(st.sets(st.sampled_from(qo.elements)))
        big = small | data.draw(st.sets(st.sampled_from(qo.elements)))
        d_small = downset_closure(qo, small)
        d_big = downset_closure(qo, big)
        assert d_small.members <= d_big.members
        assert downset_closure(qo, d_small.members).members == d_small.members

    def test_domination_examples(self):
        assert domination_leq(antichain(2), [], [1])
        assert not domination_leq(antichain(2), [0], [1])
        assert domination_leq(chain(2), [0, 1], [1])

    def test_domination_is_closure_inclusion_exhaustive(self):
        for qo in [chain(4), antichain(4),
                   product_qo(chain(2), chain(2)),
                   qo_validate(
                       list("abcd"),
                       identity_pairs("abcd")
                       + [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")])]:
            for X in subsets(qo.elements):
                for Y in subsets(qo.elements):
                    dom = domination_leq(qo, X, Y)
                    incl = (downset_closure(qo, X).members
                            <= downset_closure(qo, Y).members)
                    assert dom == incl


class TestSequenceDiagnostics:
    def test_constant_good(self):
        w = SeqWindow(chain(2), (1, 1, 1))
        assert sequence_diagnose(w).good_witness == (0, 1)

    def test_rado_spread_is_bad(self):
        w = SeqWindow(RADO, tuple((n, 10 + n) for n in range(5)))
        rep = sequence_diagnose(w)
        assert rep.bad_on_window and rep.good_witness is None

    def test_rado_consecutive_good(self):
        w = SeqWindow(RADO, tuple((n, n + 1) for n in range(3)))
        assert sequence_diagnose(w).good_witness == (0, 2)

    def test_flags(self):
        rep = sequence_diagnose(SeqWindow(chain(3), (0, 1, 2)))
        assert rep.perfect_on_window and not rep.antichain_on_window
        rep = sequence_diagnose(SeqWindow(chain(3), (2, 1, 0)))
        assert rep.descending_on_window and rep.bad_on_window
        rep = sequence_diagnose(SeqWindow(antichain(3), (0, 1, 2)))
        assert rep.antichain_on_window and rep.bad_on_window

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            sequence_diagnose(SeqWindow(chain(2), (0,)))

    def test_carrier_checked(self):
        with pytest.raises(NotInCarrier):
            SeqWindow(chain(2), (0, 5))

    def test_chain_pigeonhole_property(self):
        # over a k-chain any window longer than k is good
        for k in (2, 3):
            for vs in itertools.product(range(k), repeat=k + 1):
                rep = sequence_diagnose(SeqWindow(chain(k), vs))
                assert rep.good_witness is not None

    def test_rado_unbounded_first_coordinates_good(self):
        w = SeqWindow(RADO, tuple((n, n + 1) for n in range(4)))
        assert sequence_diagnose(w).good_witness is not None


class TestRegularity:
    def test_constant(self):
        rep = regularity_check(SeqWindow(chain(2), (1, 1, 1, 1)))
        assert rep.regular_on_window and rep.regular_tail == 0

    def test_descending(self):
        rep = regularity_check(SeqWindow(chain(3), (2, 1, 0)))
        assert not rep.regular_on_window and rep.regular_tail is None

    def test_alternating(self):
        rep = regularity_check(SeqWindow(OMEGA, (0, 1, 0, 1, 0, 1)))
        assert rep.regular_on_window

    def test_irregular_head_regular_tail(self):
        rep = regularity_check(SeqWindow(OMEGA, (9, 0, 1, 2, 3)))
        assert not rep.regular_on_window and rep.regular_tail == 0


class TestDownsetLimits:
    def test_constant(self):
        qo = chain(2)
        d = downset_closure(qo, [1])
        rep = downset_limits([d, d, d])
        assert rep.liminf == rep.limsup == {0, 1}
        assert rep.converged_on_window

    def test_alternating(self):
        qo = chain(2)
        d0 = downset_closure(qo, [0])
        d1 = downset_closure(qo, [1])
        rep = downset_limits([d0, d1, d0, d1])
        assert rep.liminf == {0}
        assert rep.limsup == {0, 1}
        assert not rep.converged_on_window

    def test_increasing_then_constant(self):
        qo = chain(2)
        seq = [downset_closure(qo, []), downset_closure(qo, [0]),
               downset_closure(qo, [1]), downset_closure(qo, [1])]
        rep = downset_limits(seq)
        assert rep.converged_on_window
        assert rep.liminf == rep.limsup == {0, 1}

    def test_mixed_base_rejected(self):
        with pytest.raises(MixedBaseQO):
            downset_limits([downset_closure(chain(2), [0]),
                            downset_closure(chain(3), [0])])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_inclusion_chain(self, data):
        qos = enumerate_preorders(3)
        qo = qos[data.draw(st.integers(0, len(qos) - 1))]
        seqs = data.draw(st.lists(
            st.sets(st.sampled_from(qo.elements)), min_size=2, max_size=6))
        ds = [downset_closure(qo, s) for s in seqs]
        rep = downset_limits(ds)
        assert rep.intersection <= rep.liminf <= rep.limsup <= rep.union


class TestRadoTrick:
    def test_constant(self):
        d = downset_closure(chain(2), [1])
        rep = rado_trick_extract([d] * 4, 4)
        assert rep.indices == (0, 1, 2, 3)

    def test_alternating_tiebreak(self):
        # equal counts: the documented tie-break picks the value seen first
        qo = chain(2)
        d0 = downset_closure(qo, [0])
        d1 = downset_closure(qo, [1])
        rep = rado_trick_extract([d0, d1, d0, d1, d0, d1], 3)
        assert rep.indices == (0, 2, 4)
        assert rep.value == {0}

    def test_strict_majority(self):
        qo = chain(2)
        d0 = downset_closure(qo, [0])
        d1 = downset_closure(qo, [1])
        rep = rado_trick_extract([d0, d1, d0, d1, d1, d1], 3)
        assert rep.indices == (1, 3, 4, 5)
        assert rep.value == {0, 1}

    def test_extraction_constant_law(self):
        # on the extracted indices the sequence is constant, so its limit
        # equals its union on the window
        qo = chain(3)
        seq = [downset_closure(qo, [v]) for v in (0, 2, 0, 2, 0)]
        rep = rado_trick_extract(seq, 3)
        picked = [seq[i] for i in rep.indices]
        lim = downset_limits(picked)
        assert lim.converged_on_window
        assert lim.liminf == lim.union == rep.value

    def test_window_too_small(self):
        qo = antichain(4)
        seq = [downset_closure(qo, [v]) for v in range(4)]
        with pytest.raises(WindowTooSmall):
            rado_trick_extract(seq, 2)


class TestRadoAntichainWitness:
    def test_base_case(self):
        rep = rado_antichain_witness(0, 1)
        assert rep.pair == (0, 1)
        assert rep.in_lower_downset and not rep.in_upper_downset

    def test_larger_case(self):
        rep = rado_antichain_witness(2, 7)
        assert rep.pair == (2, 7)
        assert rep.generator_witness == (2, 7)

    def test_bad_indices(self):
        with pytest.raises(BadIndices):
            rado_antichain_witness(3, 3)
        with pytest.raises(BadIndices):
            rado_antichain_witness(5, 2)

    def test_broken_relation_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(bqo.qo, "_rado_leq_raw", lambda s, t: True)
        with pytest.raises(InvariantViolated):
            rado_antichain_witness(0, 1)

    @pytest.mark.parametrize("m, n", [(True, 2), (False, 1), (0, True)])
    def test_bool_index_is_not_a_pair(self, m, n):
        with pytest.raises(NotAPair, match=r"is not an increasing pair"):
            rado_antichain_witness(m, n)

    def test_the_pair_is_checked_once(self, monkeypatch):
        checked = []
        check = bqo.qo._check_rado_pair
        monkeypatch.setattr(bqo.qo, "_check_rado_pair",
                            lambda s: checked.append(s) or check(s))
        rado_antichain_witness(2, 7)
        assert checked == [(2, 7)]

    def test_separation_against_brute_downsets(self):
        # membership via explicit generator enumeration with a generous bound
        def in_downset(pair, k, bound=40):
            return any(rado_leq(pair, (k, l)) for l in range(k + 1, bound))
        for m in range(5):
            for n in range(m + 1, 6):
                rado_antichain_witness(m, n)
                assert in_downset((m, n), m)
                assert not in_downset((m, n), n)


class TestResolve:
    def test_builtins(self):
        assert resolve_qo("rado") is RADO
        assert resolve_qo("omega-leq") is OMEGA
        assert order_iso(resolve_qo("chain:3"), chain(3))
        assert order_iso(resolve_qo("antichain:2"), antichain(2))
        with pytest.raises(ValueError):
            resolve_qo("mystery")

    def test_omega_window_is_lawful(self):
        report = OMEGA.validate_window(range(8))
        assert report["ok"]
