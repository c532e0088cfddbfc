"""Increasing injections of the naturals and shift transport.

IncInj is a strictly increasing injection n -> f(n): a descriptor
injection reads a set's enumeration in closed form, and any other
evaluator is checked on every window it evaluates.  The module provides
the composition monoid, critical points and orbit maps of non-identity
members, and the two transport constructions rho and sigma that exchange
the plain shift with an arbitrary right-composition shift:

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
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Iterable, List, Optional,
                    Sequence)

from .errors import (InvariantViolated, LooksLikeIdentity, NoMemberWithinBound,
                     NotBQOEvidence, NotInBase, WindowExhausted)
from .streams import InfSet, _closed, parse_base, prefix_then_arithmetic

if TYPE_CHECKING:
    from .superseq import SuperSeq


@dataclass(frozen=True)
class IncInj:
    """A strictly increasing injection of the naturals, given by evaluator.

    Descriptor injections and enum_of_set read a set's enumeration as it
    stands (_cache=None), which is checked or closed-form already. Other
    values are cached, unbounded and sparse: each evaluation is checked
    against its evaluated neighbours only, so a lone value below the
    identity passes, and sigma's own f(n) >= n check catches it.
    """

    evaluator: Callable[[int], int]
    name: str = "f"
    _cache: Optional[dict] = field(default_factory=dict, compare=False,
                                   repr=False)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("increasing injections are defined on naturals")
        if self._cache is None:
            return self.evaluator(n)
        v = self._cache.get(n)
        if v is None:
            v = int(self.evaluator(n))
            if v < 0:
                raise ValueError(f"{self.name}: value {v} at {n} leaves omega")
            prev = self._cache.get(n - 1)
            if prev is not None and prev >= v:
                raise ValueError(
                    f"{self.name}: not increasing at {n} ({prev} then {v})")
            nxt = self._cache.get(n + 1)
            if nxt is not None and v >= nxt:
                raise ValueError(
                    f"{self.name}: not increasing at {n} ({v} then {nxt})")
            self._cache[n] = v
        return v

    def values(self, bound: int) -> tuple:
        return tuple(self(n) for n in range(bound))

    def __repr__(self) -> str:
        return f"IncInj({self.name})"


def identity_inj() -> IncInj:
    return IncInj(_closed((), 0, 1, "id").nth, "id", _cache=None)


def successor() -> IncInj:
    return IncInj(_closed((), 1, 1, "succ").nth, "succ", _cache=None)


def affine(a: int, b: int) -> IncInj:
    if a < 1:
        raise ValueError("affine slope must be at least 1")
    if b < 0:
        raise ValueError("affine offset must be a natural")
    name = f"affine:{a},{b}"
    return IncInj(_closed((), b, a, name).nth, name, _cache=None)


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
    name = f"table:{','.join(map(str, table))}+tail:affine:{a},{b}"
    return IncInj(_closed(table, a * len(table) + b, a, name).nth, name,
                  _cache=None)


def enum_of_set(X: InfSet) -> IncInj:
    """The injection enumerating an infinite set in increasing order."""
    return IncInj(X.nth, name=f"enum-of-set:{X.name}", _cache=None)


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
    """Pointwise composition n -> f(g(n))."""
    return IncInj(lambda n: f(g(n)), name=f"({f.name} o {g.name})")


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
    """(e, x) -> g^e(x) in closed form when g reads a descriptor set, a
    head and then start + step * i; None for any other injection.

    x walks the head, where a fixed point stays put, and past it g is
    n -> a * n + c, whose e-th iterate is a^e * n + c * (a^e - 1) / (a - 1)
    (n + e * c when a = 1). An increasing injection has g(n) >= n, so the
    iterates of a point past the head stay past it."""
    s = getattr(g.evaluator, "__self__", None)   # the set g enumerates
    if not isinstance(s, InfSet) or s._root._gen is not None:
        return None
    root = s._root
    head = root._cache[s._offset:]      # g(n) = head[n] below len(head)
    a = root._step
    c = root._start + a * (s._offset - len(root._cache))

    def power(e: int, x: int) -> int:
        while e and x < len(head) and head[x] != x:
            x = head[x]
            e -= 1
        if not e or x < len(head):
            return x
        if a == 1:
            return x + e * c
        ae = a ** e
        return ae * x + c * (ae - 1) // (a - 1)

    return power


def orbit_map(g: IncInj, probe: int = 64) -> IncInj:
    """G(n) = n-th iterate of g at its critical point; strictly increasing.
    A descriptor g is iterated in closed form, any other g step by step."""
    kg = critical_point(g, probe)
    power = _closed_power(g)
    if power is not None:
        return IncInj(lambda n: power(n, kg), name=f"orbit({g.name})")
    orbit: List[int] = [kg]

    def ev(n: int) -> int:
        while len(orbit) <= n:
            orbit.append(g(orbit[-1]))
        return orbit[n]

    return IncInj(ev, name=f"orbit({g.name})")


def rho(f: IncInj, g: IncInj, probe: int = 64) -> IncInj:
    """Transport along the orbit: rho(f) = f o orbit(g), which turns
    right-composition by g into right-composition by the successor."""
    G = orbit_map(g, probe)
    return IncInj(lambda n: f(G(n)), name=f"rho({f.name};{g.name})")


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantViolated(f"sigma: {what} fails")


def sigma(f: IncInj, g: IncInj, probe: int = 64) -> IncInj:
    """Piecewise transport turning the successor shift into the g shift.

    sigma(f)(l) = l below the orbit, and the (f(n) - n)-th iterate of g on
    the n-th orbit gap.  Strict monotonicity across each evaluated piece
    boundary is checked by replaying the two inequality chains that
    establish it, and the exponent is checked non-negative (any increasing
    injection satisfies f(n) >= n); a failed link raises InvariantViolated.
    A descriptor g is iterated in closed form (see _closed_power), so the
    cost does not grow with f's offset; any other g is stepped.
    """
    G = orbit_map(g, probe)
    kg = G(0)

    def gpow(e: int, x: int) -> int:
        for _ in range(e):
            x = g(x)
        return x

    gpow = _closed_power(g) or gpow

    checked = set()

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

    def ev(l: int) -> int:
        if l < G(0):
            return l
        n = 0
        while not (G(n) <= l < G(n + 1)):
            n += 1
        e = f(n) - n
        _require(e >= 0, f"f({n}) >= {n}")
        if n not in checked:
            checked.add(n)
            check_boundary(n)
        return gpow(e, l)

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
        step = front_step(phi.front, InfSet(h, name=h.name))
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
