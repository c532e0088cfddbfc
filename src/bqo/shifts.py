"""Increasing injections of the naturals and shift transport.

An increasing injection n -> f(n) is the enumeration of its image, so
IncInj is an InfSet read as a function: a descriptor injection, or the
composite of two, in closed form, and any other one generator-backed,
each value checked against the one before it, so f(n) >= n throughout.
The module provides the composition monoid, critical points and orbit
maps of non-identity members, and the two transport constructions rho
and sigma that exchange the plain shift with an arbitrary
right-composition shift:

    rho(f o g) = rho(f) o successor        (rho(f) = f o orbit(g))
    sigma(f o successor) = sigma(f) o g    (piecewise orbit exponents)

sigma's strict monotonicity is checked at run time across every piece
boundary it evaluates, by replaying the two inequality chains that prove
it; a failed link raises InvariantViolated.  g_perfect_extract searches a
window for a restriction h making a valuation monotone along every
requested shift at once: its join nodes and candidate sets come from
bqo.ramsey, and each candidate must pass a deterministic battery of
sampled injections.  It imports the front and extraction modules where
it needs them, so the injection code alone loads only bqo.streams and
bqo.errors.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

from .errors import (InvariantViolated, LooksLikeIdentity, NoMemberWithinBound,
                     NotBQOEvidence, NotInBase, WindowExhausted,
                     past_digit_limit)
from .streams import InfSet, _closed, parse_base, prefix_then_arithmetic

if TYPE_CHECKING:
    from .superseq import SuperSeq


class IncInj(InfSet):
    """A strictly increasing injection of the naturals: an InfSet read as
    n -> f(n). IncInj(evaluator, name) is generator-backed."""

    __slots__ = ()

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("increasing injections are defined on naturals")
        return self.nth(n)

    values = InfSet.prefix


def _closed_inj(head: tuple, a: int, b: int, name: str) -> IncInj:
    """n -> head[n] below len(head), then a * n + b."""
    return IncInj._view(_closed(head, a, b, name), 0, name)


def identity_inj() -> IncInj:
    return _closed_inj((), 1, 0, "id")


def successor() -> IncInj:
    return _closed_inj((), 1, 1, "succ")


def affine(a: int, b: int) -> IncInj:
    if a < 1:
        raise ValueError("affine slope must be at least 1")
    if b < 0:
        raise ValueError("affine offset must be a natural")
    return _closed_inj((), a, b, f"affine:{a},{b}")


def table_then_affine(table: Sequence[int], a: int, b: int) -> IncInj:
    """Explicit initial values followed by an affine tail n -> a*n + b."""
    table = tuple(int(x) for x in table)
    if not table:
        return affine(a, b)
    for x, y in zip(table, table[1:]):
        if y <= x:
            raise ValueError("table values must be strictly increasing")
    if a < 1:
        raise ValueError("tail slope must be at least 1")
    if a * len(table) + b <= table[-1]:
        raise ValueError("tail must continue above the table")
    return _closed_inj(table, a, b,
                       f"table:{','.join(map(str, table))}+tail:affine:{a},{b}")


def enum_of_set(X: InfSet) -> IncInj:
    """The injection enumerating an infinite set in increasing order."""
    return IncInj._view(X, 0, f"enum-of-set:{X.name}")


def parse_inj(descriptor: str) -> IncInj:
    """Parse an injection descriptor.

    Grammar: "id" | "succ" | "affine:a,b" | "table:v1,...+tail:affine:a,b"
    | "enum-of-set:<base descriptor>".
    """
    d = descriptor.strip()
    if d == "id":
        return identity_inj()
    if d == "succ":
        return successor()
    if d.startswith("affine:"):
        a, b = (int(x) for x in d.split(":", 1)[1].split(","))
        return affine(a, b)
    if d.startswith("table:"):
        body = d[len("table:"):]
        if "+tail:affine:" not in body:
            raise ValueError(f"table descriptor needs an affine tail: {d!r}")
        head, tail = body.split("+tail:affine:", 1)
        table = tuple(int(x) for x in head.split(",") if x != "")
        a, b = (int(x) for x in tail.split(","))
        return table_then_affine(table, a, b)
    if d.startswith("enum-of-set:"):
        return enum_of_set(parse_base(d.split(":", 1)[1]))
    raise ValueError(f"unknown injection descriptor {descriptor!r}")


def compose(f: IncInj, g: IncInj) -> IncInj:
    """Pointwise composition n -> f(g(n)). Two closed forms compose in
    closed form: g(n) >= n, so past both heads f(g(n)) is
    a_f * (a_g * n + b_g) + b_f."""
    name = f"({f.name} o {g.name})"
    ff, fg = f.closed_form(), g.closed_form()
    if ff is None or fg is None:
        return IncInj(lambda n: f(g(n)), name)
    (hf, af, bf), (hg, ag, bg) = ff, fg
    head = tuple(f(g(n)) for n in range(max(len(hf), len(hg))))
    return _closed_inj(head, af * ag, af * bg + bf, name)


def agrees_upto(f: IncInj, g: IncInj, window: int) -> bool:
    """Windowed equality: pointwise agreement on [0, window)."""
    return f.values(window) == g.values(window)


def critical_point(g: IncInj, bound: int = 64) -> int:
    """Least k below the probe bound with k < g(k)."""
    for k in range(bound):
        v = g(k)
        if v < k:
            raise ValueError(f"{g.name}: g({k}) = {v} < {k}, not increasing")
        if v > k:
            return k
    raise LooksLikeIdentity(bound)


def _closed_power(g: IncInj) -> Optional[Callable[[int, int], int]]:
    """(e, x) -> g^e(x) in closed form when g reads a head and then
    n -> a * n + c; None for a generator-backed g.

    x walks the head, where a fixed point stays put, and past it the e-th
    iterate is a^e * n + c * (a^e - 1) / (a - 1) (n + e * c when a = 1). An
    increasing injection has g(n) >= n, so the iterates of a point past the
    head stay past it. An a^e past Python's int-to-str digit limit raises
    DomainError before it is computed."""
    form = g.closed_form()
    if form is None:
        return None
    head, a, c = form
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def power(e: int, x: int) -> int:
        while e and x < len(head) and head[x] != x:
            x = head[x]
            e -= 1
        if not e or x < len(head):
            return x
        if a == 1:
            return x + e * c
        if limit and e >= limit / math.log10(a):
            raise past_digit_limit(limit)
        ae = a ** e
        return ae * x + c * (ae - 1) // (a - 1)

    return power


def orbit_map(g: IncInj, probe: int = 64) -> IncInj:
    """G(n) = n-th iterate of g at its critical point; strictly increasing.
    Where g reads a head and then n -> n + c, G walks the head and then
    steps by c, in closed form; any other G steps g from its last value."""
    kg = critical_point(g, probe)
    name = f"orbit({g.name})"
    form = g.closed_form()
    if form is not None and form[1] == 1:
        head, _, c = form
        orbit = [kg]
        while orbit[-1] < len(head):
            orbit.append(head[orbit[-1]])
        return _closed_inj(tuple(orbit), c, orbit[-1] - c * (len(orbit) - 1),
                           name)
    G = IncInj(lambda n: g(G(n - 1)) if n else kg, name)
    return G


def rho(f: IncInj, g: IncInj, probe: int = 64) -> IncInj:
    """Transport along the orbit: rho(f) = f o orbit(g), which turns
    right-composition by g into right-composition by the successor."""
    return IncInj._view(compose(f, orbit_map(g, probe)), 0,
                        f"rho({f.name};{g.name})")


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantViolated(f"sigma: {what} fails")


def sigma(f: IncInj, g: IncInj, probe: int = 64) -> IncInj:
    """Piecewise transport turning the successor shift into the g shift.

    sigma(f)(l) = l below the orbit, and the (f(n) - n)-th iterate of g on
    the n-th orbit gap; f(n) >= n, since f's values are checked increasing.
    Strict monotonicity across each piece boundary is checked as the
    piece is entered, by replaying the two inequality chains that establish
    it; a failed link raises InvariantViolated. A closed-form g is iterated
    in closed form (see _closed_power), so the cost does not grow with f's
    offset; any other g is stepped.
    """
    G = orbit_map(g, probe)
    kg = G(0)

    def gpow(e: int, x: int) -> int:
        for _ in range(e):
            x = g(x)
        return x

    gpow = _closed_power(g) or gpow

    def check_boundary(n: int) -> None:
        if n == 0:
            # entry chain: every l < G(0) sits below the first piece value
            _require(G(0) <= gpow(f(0), G(0)), "entry chain: G(0) <= base")
            _require(gpow(f(0), G(0)) == G(f(0)), "entry chain: base on orbit")
        # exit chain at the top of piece n
        e = f(n) - n
        top = gpow(e, G(n + 1) - 1)
        at_next = gpow(e, G(n + 1))
        _require(top < at_next, f"exit chain {n}: top < next")
        _require(at_next == gpow(f(n) + 1, kg), f"exit chain {n}: next")
        nxt_base = gpow(f(n + 1), kg)
        _require(at_next <= nxt_base, f"exit chain {n}: next <= base")
        _require(nxt_base == G(f(n + 1)), f"exit chain {n}: base on orbit")
        _require(nxt_base == gpow(f(n + 1) - (n + 1), G(n + 1)),
                 f"exit chain {n}: base in piece {n + 1}")

    entered = 0     # pieces entered; values are read in increasing order

    def ev(l: int) -> int:
        nonlocal entered
        while G(entered) <= l:
            check_boundary(entered)
            entered += 1
        n = entered - 1             # l's piece, or -1 below the orbit
        return l if n < 0 else gpow(f(n) - n, l)

    return IncInj(ev, name=f"sigma({f.name};{g.name})")


def factor_enumeration(X: InfSet, Y: InfSet, window: int) -> Optional[IncInj]:
    """The injection h with enum(X) = enum(Y) o h, when X sits inside Y.

    h(n) is the position in Y of X's n-th element. Containment is checked
    on X's first `window` elements, and None returned at the first one Y
    misses; past the window, a missed element raises ValueError.
    """
    if not all(Y.contains(X.nth(i)) for i in range(window)):
        return None

    def ev(n: int) -> int:
        if not Y.contains(X.nth(n)):
            raise ValueError(
                f"{X.name} is not inside {Y.name} at position {n}")
        return Y._position(X.nth(n))

    return IncInj(ev, name=f"factor({X.name}<={Y.name})")


# --- windowed perfection along several shifts -------------------------------

def _sample_battery(window: int) -> List[IncInj]:
    """Deterministic injections used to verify candidate restrictions."""
    battery = [affine(1, k) for k in range(min(window, 8))]
    battery += [affine(2, b) for b in (0, 1, 2)]
    battery += [affine(3, b) for b in (0, 1)]
    return battery


def _resolve_value(phi: SuperSeq, h: IncInj, limit: int):
    """Value of the valuation at the set enumerated by h, if the member
    beginning that set lies in the base and resolves within the limit."""
    from .fronts import front_step
    try:
        step = front_step(phi.front, h)
    except (NotInBase, NoMemberWithinBound):
        return None
    return phi.value(step.member) if step.modulus <= limit else None


@dataclass(frozen=True)
class GPerfectReport:
    """A verified restriction: along h, the valuation is monotone under
    every requested shift on the sampled battery."""

    h: IncInj
    h_set: InfSet
    Z: tuple
    window: int
    joins_colored: int
    checks_passed: int
    candidates_tried: int


def g_perfect_extract(phi: SuperSeq, gs: Iterable[IncInj],
                      window: int) -> GPerfectReport:
    """Find h with value(h o f) <= value(h o f o g) for each requested g.

    Candidate sets are homogeneous windows for the conjunction of the
    per-shift comparison colorings (largest first, lexicographically
    least first), extended to infinite sets by their final stride, and
    accepted only after the monotonicity law passes on a deterministic
    battery of composed injections.  When no candidate survives but the
    complement coloring owns a homogeneous window, the failure is evidence
    of badness in the codomain and raises NotBQOEvidence.

    Verifying one candidate h resolves, for each battery injection f, the
    value at h o f once and the value at h o f o g once per shift g, up to
    the first comparison that fails.
    """
    from .ramsey import Homogeneous, family_colours, join_nodes, largest
    if phi.codomain is None:
        raise ValueError("perfection extraction needs a quasi-order codomain")
    gs = list(gs)
    if not gs:
        raise ValueError("at least one shift is required")
    for g in gs:
        critical_point(g)  # rejects identity-looking shifts
    phi = phi.checked()    # each value is checked once, so compare raw
    leq = phi.codomain.raw_leq
    points = list(phi.front.base.upto(window))
    joins = []
    for g in gs:
        joins.extend(join_nodes(phi.front, window, g))
    holds = [leq(phi.value(s), phi.value(t)) for _, s, t in joins]
    # a join node of several shifts is coloured by all their comparisons
    colors = dict.fromkeys((u for u, _, _ in joins), 1)
    colors.update((u, 0) for (u, _, _), h in zip(joins, holds) if not h)
    colours = family_colours(phi.front, colors)
    battery = _sample_battery(window)

    def verify(h: IncInj) -> int:
        checks = 0
        for f in battery:
            hf = compose(h, f)
            a = _resolve_value(phi, hf, window)
            for g in gs:
                b = _resolve_value(phi, compose(hf, g), window)
                if a is None or b is None:
                    continue
                if not leq(a, b):
                    return 0
                checks += 1
        return checks

    tried = 0
    for size in range(len(largest(points, colours, 1)), 0, -1):
        # at most 256 candidates of each size are extended and verified
        for Z in itertools.islice(Homogeneous(points, colours, 1, size), 256):
            tried += 1
            step = Z[-1] - Z[-2] if len(Z) >= 2 else 1
            h_set = prefix_then_arithmetic(Z, Z[-1] + step, step)
            h = enum_of_set(h_set)
            checks = verify(h)
            if checks:
                return GPerfectReport(h, h_set, Z, window, len(colors),
                                      checks, tried)
    for Z in reversed(list(Homogeneous(points, colours, 0))):
        realized = [u for u in colors if frozenset(Z).issuperset(u)]
        if realized:
            raise NotBQOEvidence(
                f"comparison fails homogeneously on {Z} "
                f"({len(realized)} witnesses); the codomain restricted "
                f"to this valuation is not well-behaved")
    raise WindowExhausted(
        f"no verifiable restriction below {window} for {len(gs)} shifts")
