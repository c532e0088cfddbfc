"""Descriptor sets read in closed form: a finite head, then an arithmetic
tail.

Each descriptor kind is compared with a generator-built InfSet of the same
values and name, read through its checked prefix cache; and every read far
out (contains, after, nth at 10^8) stays within a small traced peak,
because nothing below the element asked for is listed.
"""
from __future__ import annotations

import tracemalloc

import pytest

from bqo.fronts import front_member, uniform_front
from bqo.ramsey import coloring_from_dict
from bqo.streams import InfSet, arithmetic, parse_base, prefix_then_arithmetic

# descriptor, head, tail start, tail step
DESCRIPTORS = [
    ("omega", (), 0, 1),
    ("evens", (), 0, 2),
    ("odds", (), 1, 2),
    ("omega/3", (), 4, 1),
    ("omega/-1", (), 0, 1),
    ("arith:5,3", (), 5, 3),
    ("prefix:1,2,4+arith:10,5", (1, 2, 4), 10, 5),
    ("prefix:0,7+arith:8,1", (0, 7), 8, 1),
    ("prefix:+arith:2,3", (), 2, 3),
]
NAMES = {"omega": "omega", "evens": "arith:0,2", "odds": "arith:1,2"}
RANGE = range(61)
BIG = 10 ** 8
PEAK = 1 << 20      # bytes


def reference(head: tuple, start: int, step: int, name: str) -> InfSet:
    return InfSet(lambda i: head[i] if i < len(head)
                  else start + step * (i - len(head)), name=name)


def assert_same(closed: InfSet, ref: InfSet) -> None:
    assert closed.name == ref.name
    assert [closed.nth(i) for i in RANGE] == [ref.nth(i) for i in RANGE]
    assert closed.prefix(len(RANGE)) == ref.prefix(len(RANGE))
    for b in RANGE:
        got = closed.upto(b)
        assert type(got) is tuple and got == ref.upto(b), b
    assert [closed.contains(x) for x in range(-2, 61)] == \
        [ref.contains(x) for x in range(-2, 61)]


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("desc, head, start, step", DESCRIPTORS,
                         ids=[d[0] for d in DESCRIPTORS])
class TestClosedAgainstGenerator:
    def test_reads(self, desc, head, start, step):
        closed = parse_base(desc)
        assert_same(closed, reference(head, start, step, closed.name))
        assert closed._cache == head      # the head only, never appended to

    def test_tails(self, desc, head, start, step):
        closed = parse_base(desc)
        ref = reference(head, start, step, closed.name)
        assert_same(closed.shift(), ref.shift())
        for n in range(-1, 61, 3):
            assert_same(closed.after(n), ref.after(n))
            assert_same(closed.after(n).shift().after(n + 4),
                        ref.after(n).shift().after(n + 4))
            assert_same(closed.shift().shift().after(n),
                        ref.shift().shift().after(n))

    def test_names_round_trip(self, desc, head, start, step):
        closed = parse_base(desc)
        assert closed.name == NAMES.get(desc, desc)
        assert parse_base(closed.name).prefix(12) == closed.prefix(12)

    def test_far_reads_stay_small(self, desc, head, start, step):
        closed = parse_base(desc)
        x = start + step * BIG

        def reads():
            return (closed.contains(x), closed.contains(x + 1),
                    closed.after(x - 1).nth(0), closed.nth(BIG + len(head)),
                    closed.after(BIG).nth(0) > BIG)

        got, peak = _traced_peak(reads)
        assert got == (True, step == 1, x, x, True) and peak < PEAK


def test_library_constructors_match_their_descriptors():
    assert_same(arithmetic(5, 3), parse_base("arith:5,3"))
    assert_same(prefix_then_arithmetic([1, 2, 4], 10, 5),
                parse_base("prefix:1,2,4+arith:10,5"))


@pytest.mark.parametrize("desc", [
    "omega/-2", "arith:-4,2", "prefix:-1+arith:3,1", "prefix:-3,-1+arith:0,1",
    "prefix:+arith:-1,1"])
def test_a_negative_entry_is_refused_when_the_set_is_built(desc):
    with pytest.raises(ValueError, match="enumeration left the naturals"):
        parse_base(desc)


def test_a_generator_set_still_checks_its_enumeration():
    bad = InfSet(lambda i: 5 - i, name="down")
    assert bad.nth(0) == 5
    with pytest.raises(ValueError, match="not strictly increasing"):
        bad.contains(9)


def test_front_member_far_out_stays_small():
    F = uniform_front(2)
    member, peak = _traced_peak(lambda: front_member(F, (0, BIG)))
    assert member is True and peak < PEAK


def test_a_far_colouring_key_loads_small():
    data = {"front": {"schema": "uniform", "k": 2, "base": "evens"},
            "table": {"0,100000000": 1}, "default": 0}
    col, peak = _traced_peak(lambda: coloring_from_dict(data))
    assert peak < PEAK
    assert col.color((0, BIG)) == 1 and col.color((0, 2)) == 0
    assert front_member(col.front, (0, 2 * BIG))
