"""Finite and coded quasi-orders with window diagnostics.

A quasi-order is a reflexive, transitive relation. Carriers come in two
flavours: fully materialised finite ones (FiniteQO, relation stored as bitset
rows) and coded ones given by predicates (CodedQO), which is how the two
infinite work-horses, (omega, <=) and Rado's partial order on increasing
pairs, are exposed. Window diagnostics inspect finite prefixes of infinite
sequences; every report echoes the window it inspected.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
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

__all__ = [
    "FiniteQO", "CodedQO", "Downset", "SeqWindow",
    "qo_validate", "rado_leq", "derived_relations", "product_qo",
    "sum_along_poset", "downset_closure", "domination_leq",
    "sequence_diagnose", "regularity_check", "downset_limits",
    "rado_trick_extract", "rado_antichain_witness",
    "chain", "antichain", "rado_window_qo", "RADO", "OMEGA",
    "resolve_qo",
]


class FiniteQO:
    """Quasi-order on an explicit finite carrier.

    The relation is stored row-major as int bitsets: bit j of rows[i] is set
    iff elements[i] <= elements[j]. Construction does not validate the laws;
    qo_validate does and is the only sanctioned entry point for raw data.
    """

    __slots__ = ("elements", "rows", "_index")
    parse = None    # no text syntax of its own, as a CodedQO without parse

    def __init__(self, elements: Sequence[Any], rows: Sequence[int]):
        self.elements = tuple(elements)
        self.rows = tuple(rows)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("carrier has duplicate elements")
        if len(self.rows) != len(self.elements):
            raise ValueError("relation rows do not match carrier size")

    @classmethod
    def from_pairs(cls, elements: Sequence[Any], pairs: Iterable) -> "FiniteQO":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        rows = [0] * len(elements)
        for pr in pairs:
            try:
                a, b = pr
            except (TypeError, ValueError):
                raise NotAPair(f"relation entry {pr!r} is not a pair")
            if a not in index:
                raise NotInCarrier(f"{a!r} is not in the carrier")
            if b not in index:
                raise NotInCarrier(f"{b!r} is not in the carrier")
            rows[index[a]] |= 1 << index[b]
        return cls(elements, rows)

    @classmethod
    def from_relation(cls, elements: Sequence[Any],
                      leq: Callable[[Any, Any], bool]) -> "FiniteQO":
        elements = tuple(elements)
        rows = []
        for a in elements:
            r = 0
            for j, b in enumerate(elements):
                if leq(a, b):
                    r |= 1 << j
            rows.append(r)
        return cls(elements, rows)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise NotInCarrier(f"{x!r} is not in the carrier")

    def check(self, x):
        self.index(x)
        return x

    def leq(self, a, b) -> bool:
        return bool(self.rows[self.index(a)] >> self.index(b) & 1)

    raw_leq = leq

    def key(self, x):
        """Canonical tie-break key: position in the carrier listing."""
        return self.index(x)

    def fmt(self, x) -> str:
        return _fmt_element(x)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteQO)
                and self.elements == other.elements
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.elements, self.rows))

    def __repr__(self) -> str:
        return f"FiniteQO({len(self.elements)} elements)"


@dataclass(frozen=True)
class CodedQO:
    """Quasi-order on a coded (possibly infinite) carrier.

    Laws are not decidable in general here; validate_window spot-checks them
    on a finite sample and reports the bound used.
    """

    name: str
    # Every order has check and raw_leq (FiniteQO too). check is the
    # membership test: it returns a carrier member unchanged and raises the
    # carrier's error for anything else. leq validates both arguments that
    # way, and raw_leq compares without validation, for values that were
    # checked once.
    check: Callable[[Any], Any]
    leq: Callable[[Any, Any], bool]
    raw_leq: Callable[[Any, Any], bool]
    key: Callable[[Any], Any]
    fmt: Callable[[Any], str] = field(default=lambda x: _fmt_element(x))
    parse: Optional[Callable[[str], Any]] = None

    def validate_window(self, sample: Sequence[Any]) -> dict:
        sample = list(sample)
        for x in sample:
            self.check(x)
            if not self.leq(x, x):
                raise MissingReflexive(x)
        for a, b, c in itertools.product(sample, repeat=3):
            if self.leq(a, b) and self.leq(b, c) and not self.leq(a, c):
                raise MissingTransitive(a, b, c)
        return {"name": self.name, "sample_size": len(sample), "ok": True}

    def __repr__(self) -> str:
        return f"CodedQO({self.name})"


def _fmt_element(x) -> str:
    if isinstance(x, tuple):
        return "{" + ",".join(str(v) for v in x) + "}"
    return str(x)


def qo_validate(elements: Sequence[Any], pairs: Iterable) -> FiniteQO:
    """Validate a finite relation as a quasi-order.

    Parameters
    ----------
    elements : carrier listing; order fixes canonical element keys.
    pairs : iterable of (a, b) meaning a <= b. The relation is taken as
        given, including reflexive pairs; nothing is closed off implicitly.

    Returns
    -------
    FiniteQO on success.

    Raises
    ------
    NotAPair, NotInCarrier for malformed input; MissingReflexive(p) for the
    first element in carrier order without (p, p); MissingTransitive(p, q, r)
    for the first composable pair (in carrier order) whose composite is
    absent.
    """
    qo = FiniteQO.from_pairs(elements, pairs)
    n = len(qo.elements)
    for i in range(n):
        if not qo.rows[i] >> i & 1:
            raise MissingReflexive(qo.elements[i])
    for i in range(n):
        ri = qo.rows[i]
        for j in range(n):
            if not ri >> j & 1:
                continue
            missing = qo.rows[j] & ~ri
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise MissingTransitive(
                    qo.elements[i], qo.elements[j], qo.elements[k])
    return qo


# --- the two coded work-horses -------------------------------------------

def _check_rado_pair(s) -> tuple:
    """s itself if it is an increasing pair of naturals, else NotAPair.

    A plain tuple of two plain ints is accepted on exact-type tests alone,
    the case of every pair a scan reads; any other value takes the
    isinstance tests, which accept tuple and int subclasses but no bool."""
    if type(s) is tuple and len(s) == 2:
        m, n = s
        if type(m) is int and type(n) is int and 0 <= m < n:
            return s
    if isinstance(s, tuple) and len(s) == 2:
        m, n = s
        if (isinstance(m, int) and isinstance(n, int)
                and not isinstance(m, bool) and not isinstance(n, bool)
                and 0 <= m < n):
            return s
    raise NotAPair(f"{s!r} is not an increasing pair of naturals")


def rado_leq(s, t) -> bool:
    """Rado's partial order on increasing pairs.

    {m,n} <= {m',n'} iff the pairs share their first entry and n <= n', or
    the whole left pair sits below the right first entry (n < m'). This is
    the canonical order that is well-quasi but whose powerset is not.
    Both arguments are validated; NotAPair names the first bad one.
    """
    return _rado_leq_raw(_check_rado_pair(s), _check_rado_pair(t))


def _rado_leq_raw(s, t) -> bool:
    """rado_leq on two pairs already known to be increasing pairs."""
    m, n = s
    mp, np_ = t
    return (m == mp and n <= np_) or n < mp


def _parse_int_pair(text: str) -> tuple:
    parts = text.replace("{", "").replace("}", "").split(",")
    if len(parts) != 2:
        raise NotAPair(f"cannot parse {text!r} as a pair")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise NotAPair(f"cannot parse {text!r} as a pair")


RADO = CodedQO(
    name="rado",
    leq=rado_leq,
    key=lambda s: s,
    fmt=_fmt_element,
    parse=_parse_int_pair,
    # looked up at call time, so a rebinding of _check_rado_pair (the traced
    # benchmark counts carrier checks that way) sees these checks too; the
    # function's exact-type path makes each check a few bytecodes
    check=lambda s: _check_rado_pair(s),
    raw_leq=_rado_leq_raw,
)


def _check_natural(x):
    if isinstance(x, int) and not isinstance(x, bool) and x >= 0:
        return x
    raise NotInCarrier(f"{x!r} is not a natural number")


OMEGA = CodedQO(
    name="omega-leq",
    leq=lambda a, b: _check_natural(a) <= _check_natural(b),
    key=lambda x: x,
    fmt=str,
    parse=int,
    check=_check_natural,
    raw_leq=lambda a, b: a <= b,
)


def chain(k: int) -> FiniteQO:
    """Total order 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValueError("chain needs at least one element")
    return FiniteQO.from_relation(range(k), lambda a, b: a <= b)


def antichain(k: int) -> FiniteQO:
    """k pairwise incomparable elements 0 .. k-1."""
    if k < 1:
        raise ValueError("antichain needs at least one element")
    return FiniteQO.from_relation(range(k), lambda a, b: a == b)


def rado_window_qo(bound: int) -> FiniteQO:
    """Rado's order restricted to pairs with entries below the bound."""
    elems = [(m, n) for m in range(bound) for n in range(m + 1, bound)]
    return FiniteQO.from_relation(elems, rado_leq)


def resolve_qo(name: str):
    """Resolve a built-in carrier name: rado, omega-leq, chain:k, antichain:k."""
    if name == "rado":
        return RADO
    if name == "omega-leq":
        return OMEGA
    if name.startswith("chain:"):
        return chain(int(name.split(":", 1)[1]))
    if name.startswith("antichain:"):
        return antichain(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown quasi-order name {name!r}")


# --- derived relations and constructions ---------------------------------

@dataclass(frozen=True)
class RelationRecord:
    a: Any
    b: Any
    leq: bool
    geq: bool
    equiv: bool
    strict: bool
    incomparable: bool


def derived_relations(qo, a, b) -> RelationRecord:
    """Equivalence, strict and incomparability relations derived from <=,
    whose leq checks a, then b, against the carrier."""
    le = qo.leq(a, b)
    ge = qo.leq(b, a)
    return RelationRecord(
        a=a, b=b, leq=le, geq=ge,
        equiv=le and ge,
        strict=le and not ge,
        incomparable=not le and not ge,
    )


def product_qo(P: FiniteQO, Q: FiniteQO) -> FiniteQO:
    """Componentwise order on the cartesian product of two finite carriers."""
    elems = [(p, q) for p in P.elements for q in Q.elements]
    return FiniteQO.from_relation(
        elems,
        lambda x, y: P.leq(x[0], y[0]) and Q.leq(x[1], y[1]))


def sum_along_poset(P: FiniteQO, family: Mapping[Any, FiniteQO]) -> FiniteQO:
    """Disjoint sum of a family of quasi-orders indexed by a partial order.

    (p, q) <= (p', q') iff p = p' and q <= q' inside the p-component, or
    p < p' strictly in the index. The index must be a genuine partial order:
    equivalent-but-distinct indices would break transitivity of the sum.
    """
    for p, q in itertools.combinations(P.elements, 2):
        if P.leq(p, q) and P.leq(q, p):
            raise NotAPartialOrder(p, q)
    for p in P.elements:
        if p not in family:
            raise NotInCarrier(f"no summand given for index {p!r}")
    elems = [(p, q) for p in P.elements for q in family[p].elements]

    def le(x, y):
        p, q = x
        pp, qq = y
        if p == pp:
            return family[p].leq(q, qq)
        return P.leq(p, pp) and not P.leq(pp, p)

    return FiniteQO.from_relation(elems, le)


# --- downsets -------------------------------------------------------------

@dataclass(frozen=True)
class Downset:
    """Downward-closed subset of a finite carrier."""

    over: FiniteQO
    members: frozenset

    def __post_init__(self):
        for x in self.members:
            self.over.check(x)
        for y in self.over.elements:
            for x in self.members:
                if self.over.leq(y, x) and y not in self.members:
                    raise ValueError(
                        f"not downward closed: {y!r} <= {x!r} but absent")


def downset_closure(qo: FiniteQO, seed: Iterable) -> Downset:
    """Downward closure of a seed set inside a finite carrier."""
    seed = list(seed)
    for x in seed:
        qo.check(x)
    members = frozenset(
        y for y in qo.elements if any(qo.leq(y, x) for x in seed))
    return Downset(over=qo, members=members)


def domination_leq(qo: FiniteQO, X: Iterable, Y: Iterable) -> bool:
    """Domination order on subsets: every point of X sits below some point
    of Y. Equivalent to inclusion of the downward closures."""
    X, Y = list(X), list(Y)
    for x in X + Y:
        qo.check(x)
    return all(any(qo.leq(x, y) for y in Y) for x in X)


# --- window diagnostics ---------------------------------------------------

@dataclass(frozen=True)
class SeqWindow:
    """Finite prefix of an infinite sequence into a carrier."""

    qo: Any
    values: tuple

    def __post_init__(self):
        for v in self.values:
            self.qo.check(v)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SequenceReport:
    window: int
    good_witness: Optional[tuple]
    bad_on_window: bool
    perfect_on_window: bool
    antichain_on_window: bool
    descending_on_window: bool


def sequence_diagnose(win: SeqWindow) -> SequenceReport:
    """Classify a window: good, bad, perfect, antichain, descending.

    The good witness is the lexicographically least index pair (m, n) with
    m < n and f(m) <= f(n). Badness on the window is its absence; the rest
    are the universal variants. All verdicts are about the window only.
    """
    vs = win.values
    n = len(vs)
    if n < 2:
        raise WindowTooSmall(f"need at least 2 values, got {n}")
    # SeqWindow checked every value into the carrier: compare raw
    leq = win.qo.raw_leq
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            if leq(vs[i], vs[j]):
                witness = (i, j)
                break
        if witness:
            break
    perfect = all(leq(vs[i], vs[j])
                  for i in range(n) for j in range(i + 1, n))
    anti = all(not leq(vs[i], vs[j]) and not leq(vs[j], vs[i])
               for i in range(n) for j in range(i + 1, n))
    desc = all(leq(vs[j], vs[i]) and not leq(vs[i], vs[j])
               for i in range(n) for j in range(i + 1, n))
    return SequenceReport(
        window=n,
        good_witness=witness,
        bad_on_window=witness is None,
        perfect_on_window=perfect,
        antichain_on_window=anti,
        descending_on_window=desc,
    )


@dataclass(frozen=True)
class RegularityReport:
    window: int
    regular_on_window: bool
    regular_tail: Optional[int]


def regularity_check(win: SeqWindow) -> RegularityReport:
    """Window surrogate for regularity: every index with a successor in the
    window sits below some later value. regular_tail is the least n whose
    strict tail (length at least 2, so the check is not vacuous) is regular;
    None when no tail qualifies."""
    vs = win.values
    if len(vs) < 2:
        raise WindowTooSmall(f"need at least 2 values, got {len(vs)}")
    leq = win.qo.raw_leq

    def regular(seq) -> bool:
        return all(
            any(leq(seq[i], seq[k]) for k in range(i + 1, len(seq)))
            for i in range(len(seq) - 1))

    tail = None
    for n in range(len(vs) - 2 + 1):
        rest = vs[n + 1:]
        if len(rest) >= 2 and regular(rest):
            tail = n
            break
    return RegularityReport(
        window=len(vs),
        regular_on_window=regular(vs),
        regular_tail=tail,
    )


@dataclass(frozen=True)
class LimitReport:
    window: int
    liminf: frozenset
    limsup: frozenset
    intersection: frozenset
    union: frozenset
    converged_on_window: bool


def downset_limits(downsets: Sequence[Downset]) -> LimitReport:
    """liminf/limsup of a window of downsets.

    The union/intersection stages range over window indices i <= len-2: the
    last index's degenerate one-term stage is truncation noise and would
    collapse both limits onto the final value. Convergence on the window
    means the two limits agree and the window is constant on its last two
    entries. The inclusion chain intersection <= liminf <= limsup <= union
    holds by construction.
    """
    ds = list(downsets)
    if len(ds) < 2:
        raise WindowTooSmall(f"need at least 2 downsets, got {len(ds)}")
    base = ds[0].over
    for d in ds[1:]:
        if d.over != base:
            raise MixedBaseQO("downsets live over different carriers")
    sets = [d.members for d in ds]
    liminf = frozenset().union(
        *[frozenset.intersection(*sets[i:]) for i in range(len(sets) - 1)])
    limsup = frozenset.intersection(
        *[frozenset().union(*sets[i:]) for i in range(len(sets) - 1)])
    tail_constant = sets[-1] == sets[-2]
    return LimitReport(
        window=len(ds),
        liminf=liminf,
        limsup=limsup,
        intersection=frozenset.intersection(*sets),
        union=frozenset().union(*sets),
        converged_on_window=liminf == limsup and tail_constant,
    )


@dataclass(frozen=True)
class TrickReport:
    window: int
    indices: tuple
    value: frozenset


def rado_trick_extract(downsets: Sequence[Downset], m: int) -> TrickReport:
    """Pigeonhole a window of downsets over a finite carrier: pick the most
    frequent value (ties broken by earliest first occurrence) and return all
    its indices. The subsequence on those indices is constant, so its
    windowed limits agree with its union trivially."""
    ds = list(downsets)
    if m < 1:
        raise BadIndices(f"requested size {m} must be positive")
    if ds and any(d.over != ds[0].over for d in ds[1:]):
        raise MixedBaseQO("downsets live over different carriers")
    counts: dict = {}           # in order of first occurrence
    for d in ds:
        counts[d.members] = counts.get(d.members, 0) + 1
    best = max(counts, key=counts.get, default=None)   # earliest of ties
    if best is None or counts[best] < m:
        have = 0 if best is None else counts[best]
        raise WindowTooSmall(
            f"most frequent value occurs {have} < {m} times in window "
            f"of {len(ds)}")
    idx = tuple(i for i, d in enumerate(ds) if d.members == best)
    return TrickReport(window=len(ds), indices=idx, value=best)


@dataclass(frozen=True)
class RadoWitnessReport:
    pair: tuple
    generator_witness: tuple
    scan_bound: int
    in_lower_downset: bool
    in_upper_downset: bool


def rado_antichain_witness(m: int, n: int) -> RadoWitnessReport:
    """Certify {m,n} as separating the m-th and n-th Rado downsets.

    D_k is the downward closure of the pairs {k,l}, l > k. For m < n the
    pair {m,n} lies in D_m (it is itself a generator) but not in D_n. The
    non-membership scan over generators {n,l} is finite yet complete: for
    fixed k, {m,n} <= {k,l} can only hold via m = k (then l = n already
    witnesses) or via n < k (independent of l), so scanning l up to
    max(n, k) + 1 decides membership for every l.
    """
    if not (isinstance(m, int) and isinstance(n, int)) or not 0 <= m < n:
        raise BadIndices(f"need naturals m < n, got {m!r}, {n!r}")
    _check_rado_pair((m, n))    # a bool index is not a pair entry

    def in_downset(pair, k, bound) -> bool:
        # every generator (k, l) is an increasing pair of naturals
        return any(_rado_leq_raw(pair, (k, l))
                   for l in range(k + 1, bound + 1))

    bound = max(n, m) + 2
    member = in_downset((m, n), m, bound)
    non_member = not in_downset((m, n), n, max(n, n) + 2)
    if not member or not non_member:
        raise InvariantViolated("Rado separation failed; relation is broken")
    return RadoWitnessReport(
        pair=(m, n),
        generator_witness=(m, n),
        scan_bound=bound,
        in_lower_downset=True,
        in_upper_downset=False,
    )
