from __future__ import annotations

import ast
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqo
import bqo.shifts
from bqo.errors import (DomainError, InvariantViolated, LooksLikeIdentity,
                        NotBQOEvidence, WindowExhausted)
from bqo.fronts import schreier_front, uniform_front
from bqo.qo import OMEGA, RADO, antichain
from bqo.ramsey import join_nodes
from bqo.shifts import (
    IncInj,
    _closed_power,
    affine,
    agrees_upto,
    compose,
    critical_point,
    enum_of_set,
    factor_enumeration,
    g_perfect_extract,
    identity_inj,
    orbit_map,
    parse_inj,
    rho,
    sigma,
    successor,
    table_then_affine,
)
from bqo.streams import InfSet, arithmetic, evens, omega, prefix_then_arithmetic
from bqo.superseq import SuperSeq, named_valuation

from _helpers import SHIFT_PAIR_FRONTS, member_colours_path


def random_inj(rng: random.Random, allow_identity: bool = True) -> IncInj:
    kind = rng.choice(["succ", "affine", "table"])
    if kind == "succ":
        return successor()
    if kind == "affine":
        while True:
            a, b = rng.randint(1, 3), rng.randint(0, 5)
            if allow_identity or (a, b) != (1, 0):
                return affine(a, b)
    while True:
        length = rng.randint(1, 4)
        vals = sorted(rng.sample(range(12), length))
        a = rng.randint(1, 2)
        b = rng.randint(0, 4)
        while a * length + b <= vals[-1]:
            b += 1
        # the table 0..length-1 with tail n -> n is the identity
        if allow_identity or (vals, a, b) != (list(range(length)), 1, 0):
            return table_then_affine(vals, a, b)


@pytest.mark.parametrize("seeds", [[29086], range(3000)])
def test_random_inj_without_identity_never_returns_identity(seeds):
    # drawn as the randomised transport tests draw g: after an f
    for seed in seeds:
        rng = random.Random(seed)
        random_inj(rng)
        g = random_inj(rng, allow_identity=False)
        assert not agrees_upto(g, identity_inj(), 16), (seed, g.name)


class TestIncInj:
    def test_values_and_cache(self):
        f = affine(2, 1)
        assert f.values(5) == (1, 3, 5, 7, 9)
        assert f(3) == 7

    def test_monotonicity_violation_detected(self):
        broken = IncInj(lambda n: 5 - n, name="broken")
        broken(0)
        with pytest.raises(ValueError):
            broken(1)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            IncInj(lambda n: n - 3)(0)
        with pytest.raises(ValueError):
            affine(1, 0)(-1)

    def test_parse_descriptors(self):
        assert parse_inj("id").values(4) == (0, 1, 2, 3)
        assert parse_inj("succ").values(4) == (1, 2, 3, 4)
        assert parse_inj("affine:2,1").values(4) == (1, 3, 5, 7)
        f = parse_inj("table:0,2,5+tail:affine:1,6")
        assert f.values(6) == (0, 2, 5, 9, 10, 11)
        assert parse_inj("enum-of-set:arith:3,2").values(4) == (3, 5, 7, 9)
        assert parse_inj("enum-of-set:evens").values(3) == (0, 2, 4)

    def test_parse_rejects_malformed(self):
        for bad in ["zig", "affine:0,1", "table:3,1+tail:affine:1,0",
                    "table:0,2", "enum-of-set:widgets"]:
            with pytest.raises(ValueError):
                parse_inj(bad)

    def test_table_junction_must_continue_upward(self):
        with pytest.raises(ValueError):
            table_then_affine((0, 9), 1, 0)
        f = table_then_affine((0, 9), 1, 8)
        assert f.values(4) == (0, 9, 10, 11)


class TestCompose:
    def test_identity_neutral(self):
        f = affine(3, 2)
        assert agrees_upto(compose(identity_inj(), f), f, 32)
        assert agrees_upto(compose(f, identity_inj()), f, 32)

    def test_double_successor(self):
        assert compose(successor(), successor()).values(4) == (2, 3, 4, 5)

    def test_enumeration_after_shift(self):
        # composing the evens enumeration with the successor enumerates
        # the evens with the least element dropped
        lhs = compose(enum_of_set(evens()), successor())
        rhs = enum_of_set(evens().shift())
        assert agrees_upto(lhs, rhs, 32)
        assert lhs.values(3) == (2, 4, 6)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_associative(self, seed):
        rng = random.Random(seed)
        f, g, h = (random_inj(rng) for _ in range(3))
        assert agrees_upto(compose(compose(f, g), h),
                           compose(f, compose(g, h)), 24)


class TestCriticalPoint:
    def test_successor(self):
        assert critical_point(successor()) == 0

    def test_identity_raises_with_bound(self):
        with pytest.raises(LooksLikeIdentity) as exc:
            critical_point(identity_inj(), bound=17)
        assert exc.value.bound == 17

    def test_first_strictly_moved_point(self):
        g = table_then_affine((0, 1), 1, 3)
        assert g(2) == 5
        assert critical_point(g) == 2

    def test_probe_bound_is_honoured(self):
        g = table_then_affine(tuple(range(10)), 1, 5)
        with pytest.raises(LooksLikeIdentity):
            critical_point(g, bound=9)
        assert critical_point(g, bound=20) == 10


class TestOrbitMap:
    def test_successor_orbit_is_identity(self):
        assert orbit_map(successor()).values(6) == (0, 1, 2, 3, 4, 5)

    def test_stride_two_orbit(self):
        assert orbit_map(affine(1, 2)).values(6) == (0, 2, 4, 6, 8, 10)

    def test_doubling_orbit(self):
        assert orbit_map(affine(2, 1)).values(5) == (0, 1, 3, 7, 15)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_strictly_increasing(self, seed):
        rng = random.Random(seed)
        g = random_inj(rng, allow_identity=False)
        vals = orbit_map(g).values(12)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRho:
    def test_orbit_translation(self):
        assert rho(identity_inj(), affine(1, 2))(3) == 6

    def test_successor_is_neutral(self):
        f = affine(3, 1)
        assert agrees_upto(rho(f, successor()), f, 32)

    def test_transport_identity_pointwise(self):
        f, g = identity_inj(), affine(1, 2)
        lhs = rho(compose(f, g), g)
        rhs = rho(f, g)
        assert lhs.values(8) == (2, 4, 6, 8, 10, 12, 14, 16)
        assert all(lhs(n) == rhs(n + 1) for n in range(64))

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_transport_identity_randomised(self, seed):
        rng = random.Random(seed)
        f = random_inj(rng)
        g = random_inj(rng, allow_identity=False)
        lhs = rho(compose(f, g), g)
        rhs = rho(f, g)
        assert all(lhs(n) == rhs(n + 1) for n in range(48))


class TestSigma:
    def test_successor_collapses_to_f(self):
        f = affine(2, 3)
        assert agrees_upto(sigma(f, successor()), f, 32)

    def test_identity_valued_f_gives_identity(self):
        assert agrees_upto(sigma(identity_inj(), affine(1, 2)),
                           identity_inj(), 32)

    def test_stride_two_successor(self):
        g = affine(1, 2)
        sf = sigma(successor(), g)
        assert sf.values(6) == (2, 3, 4, 5, 6, 7)
        sfs = sigma(compose(successor(), successor()), g)
        assert sfs.values(6) == (4, 5, 6, 7, 8, 9)
        assert all(sfs(l) == sf(g(l)) for l in range(64))

    def test_values_strictly_increase_across_pieces(self):
        # exponential orbit: pieces widen quickly and every boundary chain
        # is replayed as the window is filled
        for f in (successor(), affine(2, 3), identity_inj()):
            vals = sigma(f, affine(2, 1)).values(40)
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_transport_identity_randomised(self, seed):
        rng = random.Random(seed)
        f = random_inj(rng)
        g = random_inj(rng, allow_identity=False)
        lhs = sigma(compose(f, successor()), g)
        rhs = sigma(f, g)
        assert all(lhs(l) == rhs(g(l)) for l in range(48))
        vals = lhs.values(48)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_injection_below_the_identity_is_an_invariant_violation(self):
        # f(1) = 0 < 1 goes unnoticed by IncInj while f(0) and f(2) are
        # unevaluated, so sigma's own f(n) >= n check is what catches it
        dip = IncInj(lambda n: 0 if n == 1 else n, name="dip")
        with pytest.raises(InvariantViolated):
            sigma(dip, successor())(1)


# descriptor injections whose closed iterate is checked against stepping:
# affine ones, a table with a fixed point and a table above the identity,
# a prefix set, and a tail of a set, read at an offset into its root
_DESCRIPTOR_SHIFTS = ("succ", "affine:1,3", "affine:2,0", "affine:2,5",
                      "affine:3,1", "table:0,2,5+tail:affine:2,1",
                      "table:1,3,4,9+tail:affine:1,7",
                      "enum-of-set:prefix:0,2,3+arith:5,3")


def _stepped(g: IncInj) -> IncInj:
    """g behind an opaque evaluator, so that shifts steps it."""
    return IncInj(lambda n: g(n), name=g.name)


class TestClosedIterate:
    @pytest.mark.parametrize("desc", _DESCRIPTOR_SHIFTS)
    def test_iterate_matches_stepping(self, desc):
        g = parse_inj(desc)
        power = _closed_power(g)
        for x in range(41):
            y = x
            for e in range(41):
                assert power(e, x) == y, (e, x)
                y = g(y)

    def test_a_tail_set_iterates_from_its_offset(self):
        g = enum_of_set(evens().after(5))       # n -> 2n + 6
        assert [_closed_power(g)(e, 1) for e in range(4)] == [1, 8, 22, 50]

    def test_generic_injections_are_stepped(self):
        assert _closed_power(_stepped(successor())) is None
        assert _closed_power(compose(successor(), successor())) is None

    @pytest.mark.parametrize("g", _DESCRIPTOR_SHIFTS)
    @pytest.mark.parametrize("f", ["succ", "affine:1,9", "affine:2,3",
                                   "table:2,3,7+tail:affine:1,5"])
    def test_sigma_and_orbit_match_the_stepped_shift(self, f, g):
        f, g = parse_inj(f), parse_inj(g)
        assert orbit_map(g).values(12) == orbit_map(_stepped(g)).values(12)
        assert sigma(f, g).values(40) == sigma(f, _stepped(g)).values(40)

    def test_every_chain_check_still_runs(self, monkeypatch):
        # the closed iterate replaces stepping, not the chain checks
        calls = []
        require = bqo.shifts._require
        monkeypatch.setattr(bqo.shifts, "_require", lambda holds, what: (
            calls.append((holds, what)) or require(holds, what)))
        runs = []
        for g in (affine(1, 2), _stepped(affine(1, 2))):
            calls.clear()
            sigma(affine(2, 3), g).values(20)
            runs.append(list(calls))
        assert runs[0] == runs[1]
        assert sum("exit chain" in what for _, what in runs[0]) >= 20

    def test_a_far_offset_runs_in_closed_form(self):
        start = time.perf_counter()
        values = sigma(affine(1, 1000000), successor()).values(4)
        assert values == (1000000, 1000001, 1000002, 1000003)
        assert time.perf_counter() - start < 1


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # invariants must be checks that survive python -O, and a failed one is
    # a DomainError (InvariantViolated), which the CLI reports in one line
    src = Path(bqo.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


class TestFactorEnumeration:
    def test_evens_inside_omega(self):
        h = factor_enumeration(evens(), omega(), 16)
        assert h.values(5) == (0, 2, 4, 6, 8)
        assert agrees_upto(compose(enum_of_set(omega()), h),
                           enum_of_set(evens()), 16)

    def test_nested_arithmetic(self):
        X, Y = arithmetic(4, 6), arithmetic(0, 2)
        h = factor_enumeration(X, Y, 8)
        assert h.values(4) == (2, 5, 8, 11)
        assert agrees_upto(compose(enum_of_set(Y), h), enum_of_set(X), 8)

    def test_non_subset_returns_none(self):
        assert factor_enumeration(arithmetic(1, 2), evens(), 8) is None

    def test_duality_both_directions(self):
        # any h yields a subset; any prefix-verified subset yields an h
        Y = arithmetic(1, 3)
        h = affine(2, 1)
        X_vals = compose(enum_of_set(Y), h).values(8)
        X = enum_of_set(Y)  # not used beyond values; rebuild the set
        from bqo.streams import InfSet
        Xset = InfSet(lambda i: X_vals[i] if i < 8
                      else X_vals[-1] + 3 * (i - 7), name="img")
        assert Xset.subset_prefix_of(Y, count=8)
        back = factor_enumeration(Xset, Y, 8)
        assert back is not None
        assert back.values(8) == h.values(8)


# descriptor, name, reference evaluator
INJECTIONS = [
    ("id", "id", lambda n: n),
    ("succ", "succ", lambda n: n + 1),
    ("affine:1,0", "affine:1,0", lambda n: n),
    ("affine:3,2", "affine:3,2", lambda n: 3 * n + 2),
    ("table:0,2,5+tail:affine:1,6", "table:0,2,5+tail:affine:1,6",
     lambda n: (0, 2, 5)[n] if n < 3 else n + 6),
    ("table:4+tail:affine:2,3", "table:4+tail:affine:2,3",
     lambda n: 4 if n == 0 else 2 * n + 3),
    ("table:+tail:affine:2,1", "affine:2,1", lambda n: 2 * n + 1),
    ("enum-of-set:evens", "enum-of-set:arith:0,2", lambda n: 2 * n),
    ("enum-of-set:omega/3", "enum-of-set:omega/3", lambda n: n + 4),
    ("enum-of-set:prefix:1,2,4+arith:10,5",
     "enum-of-set:prefix:1,2,4+arith:10,5",
     lambda n: (1, 2, 4)[n] if n < 3 else 10 + 5 * (n - 3)),
]


@pytest.mark.parametrize("desc, name, ev", INJECTIONS,
                         ids=[i[0] for i in INJECTIONS])
def test_descriptor_injection_matches_its_evaluator(desc, name, ev):
    f, ref = parse_inj(desc), IncInj(ev, name=name)
    assert f.name == ref.name and f.values(64) == ref.values(64)
    assert f(10 ** 8) == ev(10 ** 8)
    assert f._cache is None           # read from its set, with no dict
    with pytest.raises(ValueError, match="defined on naturals"):
        f(-1)


def test_enum_of_a_generator_set_reads_its_checked_enumeration():
    X = InfSet(lambda i: i * i + 1, name="sq")
    f = enum_of_set(X)
    assert f._cache is None and f.values(64) == X.prefix(64)
    with pytest.raises(ValueError, match="not strictly increasing"):
        enum_of_set(InfSet(lambda i: 3 - i, name="down"))(1)


def _generator(X):
    return InfSet(X.nth, name=X.name)


@pytest.mark.parametrize("make_x", [lambda X: X, _generator],
                         ids=["closed-x", "generator-x"])
@pytest.mark.parametrize("make_y", [lambda Y: Y, _generator],
                         ids=["closed-y", "generator-y"])
class TestFactorEnumerationClosedAndGenerator:
    def test_inside(self, make_x, make_y):
        X = make_x(prefix_then_arithmetic((1, 4), 10, 6))
        Y = make_y(prefix_then_arithmetic((1, 2), 4, 3))
        h = factor_enumeration(X, Y, 8)
        ys = Y.prefix(200)
        assert h.values(24) == tuple(ys.index(X.nth(n)) for n in range(24))

    def test_not_inside(self, make_x, make_y):
        assert factor_enumeration(make_x(arithmetic(1, 2)),
                                  make_y(evens()), 8) is None
        assert factor_enumeration(
            make_x(prefix_then_arithmetic((0, 2, 4), 7, 2)),
            make_y(evens()), 4) is None

    def test_past_the_window(self, make_x, make_y):
        X = make_x(prefix_then_arithmetic((0, 2, 4), 7, 2))
        h = factor_enumeration(X, make_y(evens()), 3)
        assert h.values(3) == (0, 1, 2)
        with pytest.raises(ValueError, match="is not inside .* at position 3"):
            h(3)


class TestGJoinNodes:
    def test_successor_reduces_to_plain_joins(self):
        front = uniform_front(2)
        plain = join_nodes(front, 6)
        viag = join_nodes(front, 6, successor())
        assert viag == plain

    def test_stride_two_needs_four_points(self):
        front = uniform_front(2)
        joins = join_nodes(front, 6, affine(1, 2))
        for u, s, t in joins:
            a, b, c, d = u
            assert s == (a, b) and t == (c, d)
        assert len(joins) == 15

    def test_variable_front_resolution(self):
        joins = join_nodes(schreier_front(), 6, affine(1, 2))
        for u, s, t in joins:
            assert s == u[:len(s)]
            gsub = tuple(u[2 + i] for i in range(len(u) - 2))
            assert t == gsub[:len(t)]


class TestGPerfectExtract:
    def test_constant_valuation_keeps_everything(self):
        const = SuperSeq(front=uniform_front(2),
                         valuation=named_valuation("constant:5"),
                         codomain=OMEGA, name="c5")
        rep = g_perfect_extract(const, [successor()], 8)
        assert rep.Z == tuple(range(8))
        assert rep.h.values(10) == tuple(range(10))
        assert rep.checks_passed > 0

    def test_minimum_is_monotone_along_the_shift(self):
        mn = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                      codomain=OMEGA, name="min")
        rep = g_perfect_extract(mn, [successor()], 8)
        assert rep.Z == tuple(range(8))
        assert rep.h.values(8) == tuple(range(8))

    def test_parity_restricts_to_evens(self):
        for k in (1, 2):
            phi = SuperSeq(front=uniform_front(k),
                           valuation=named_valuation("minmod2"),
                           codomain=antichain(2), name="m2")
            rep = g_perfect_extract(phi, [successor(), affine(1, 2)], 8)
            assert rep.Z == (0, 2, 4, 6)
            assert rep.h.values(6) == (0, 2, 4, 6, 8, 10)

    def test_verification_rejects_free_riders(self):
        # on pairs, a trailing point is unconstrained by realized joins but
        # fails the sampled law; the candidate counter shows the backtrack
        phi = SuperSeq(front=uniform_front(2),
                       valuation=named_valuation("minmod2"),
                       codomain=antichain(2), name="m2")
        rep = g_perfect_extract(phi, [successor(), affine(1, 2)], 8)
        assert rep.candidates_tried > 1

    def test_bad_valuation_raises_evidence(self):
        ident = SuperSeq(front=uniform_front(2),
                         valuation=named_valuation("identity"),
                         codomain=RADO, name="id")
        with pytest.raises(NotBQOEvidence):
            g_perfect_extract(ident, [successor()], 8)

    def test_tiny_window_exhausts_for_bad_valuation(self):
        ident = SuperSeq(front=uniform_front(2),
                         valuation=named_valuation("identity"),
                         codomain=RADO, name="id")
        with pytest.raises(WindowExhausted):
            g_perfect_extract(ident, [successor()], 2)

    def test_identity_shift_rejected(self):
        mn = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                      codomain=OMEGA, name="min")
        with pytest.raises(LooksLikeIdentity):
            g_perfect_extract(mn, [identity_inj()], 8)

    def test_requires_codomain_and_shifts(self):
        bare = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                        name="bare")
        with pytest.raises(ValueError):
            g_perfect_extract(bare, [successor()], 8)
        mn = SuperSeq(front=uniform_front(2), valuation=named_valuation("min"),
                      codomain=OMEGA, name="min")
        with pytest.raises(ValueError):
            g_perfect_extract(mn, [], 8)


def perfect_outcome(phi, shifts, window: int):
    """What g_perfect_extract reports for the shift descriptors, or the
    error it raises."""
    try:
        rep = g_perfect_extract(phi, map(parse_inj, shifts), window)
    except DomainError as exc:
        return type(exc), str(exc)
    return (rep.Z, rep.h_set.name, rep.h.values(12), rep.joins_colored,
            rep.checks_passed, rep.candidates_tried)


PERFECT_CODOMAIN = {"identity": RADO, "minmod2": antichain(2)}
PERFECT_SHIFTS = [["succ"], ["affine:1,2"], ["affine:2,0"],
                  ["succ", "affine:1,2"], ["affine:1,2", "affine:2,1"],
                  ["affine:2,0", "affine:1,3"]]


def perfect_fixture(rule: str, front: str) -> SuperSeq:
    return SuperSeq(front=SHIFT_PAIR_FRONTS[front][0],
                    valuation=named_valuation(rule),
                    codomain=PERFECT_CODOMAIN.get(rule, OMEGA), name=rule)


class TestGPerfectClosedForm:
    @pytest.mark.parametrize("front", ["u1", "u2", "u3", "u2-evens",
                                       "schreier"])
    @pytest.mark.parametrize("rule", ["min", "span", "minmod2", "identity"])
    def test_matches_the_member_colours_path(self, rule, front, monkeypatch):
        cases = [(shifts, window) for shifts in PERFECT_SHIFTS
                 for window in (6, 9)]
        got = [perfect_outcome(perfect_fixture(rule, front), *case)
               for case in cases]
        member_colours_path(monkeypatch)
        want = [perfect_outcome(perfect_fixture(rule, front), *case)
                for case in cases]
        assert got == want

    @pytest.mark.parametrize("front", ["u2", "u3", "schreier"])
    @pytest.mark.parametrize("rule", ["min", "span", "minmod2", "identity"])
    def test_either_order_of_two_shifts_gives_one_report(self, rule, front):
        for a, b in (("affine:1,2", "affine:2,1"), ("succ", "affine:1,2"),
                     ("affine:2,0", "affine:2,1")):
            for window in (8, 10):
                phi = perfect_fixture(rule, front)
                assert perfect_outcome(phi, [a, b], window) == \
                    perfect_outcome(perfect_fixture(rule, front), [b, a],
                                    window), (a, b, window)

    def test_a_shared_join_node_holds_every_shift_comparison(self):
        # affine:1,2 and affine:2,1 both resolve pair-front join nodes at
        # length 4; the node's colour holds only where both comparisons do
        phi = perfect_fixture("identity", "u2")
        for shifts in (["affine:1,2", "affine:2,1"],
                       ["affine:2,1", "affine:1,2"]):
            with pytest.raises(NotBQOEvidence, match="210 witnesses"):
                g_perfect_extract(phi, map(parse_inj, shifts), 10)
