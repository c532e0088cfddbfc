"""Super-sequences: valuations on fronts, their order, and diagnostics.

A super-sequence is a front together with a total valuation on its members;
it presents a locally constant map on infinite sets through eval_up (read a
prefix until the unique member appears, then evaluate). Locally constant
maps are only ever handled in this presented form: constancy on cylinders is
not decidable for black-box functions, while the presented pair makes every
diagnostic below a finite window computation. Each report echoes its window.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import DifferentBase
from .fronts import (
    Front,
    SeqSchema,
    ShiftPairs,
    TrivialSchema,
    UniformSchema,
    _is_trivial,
    front_step,
    members_within,
    ray,
    rank,
    residual_front,
    trivial_front,
)
from .ordinal import OrdinalCNF
from .streams import InfSet

__all__ = [
    "SuperSeq", "EvalResult", "eval_up", "seg_order", "spare_check",
    "sparsify", "badness_check", "perfect_check", "named_valuation",
    "superseq_from_dict",
]


@dataclass(frozen=True)
class SuperSeq:
    """A front with a total valuation on its members."""

    front: Front
    valuation: Callable[[tuple], Any]
    codomain: Any = None
    name: str = "f"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def value(self, s: tuple):
        s = tuple(s)
        if s not in self._cache:
            self._cache[s] = self.valuation(s)
        return self._cache[s]


@dataclass(frozen=True)
class EvalResult:
    value: Any
    member: tuple
    modulus: int


def eval_up(f: SuperSeq, Y: InfSet) -> EvalResult:
    """Evaluate the presented locally constant map at an infinite set:
    step to the unique member beginning Y, then apply the valuation."""
    step = front_step(f.front, Y)
    return EvalResult(
        value=f.value(step.member), member=step.member,
        modulus=step.modulus)


# --- the order between super-sequences ------------------------------------

def _search_bound(members, bound: int) -> int:
    """Window for existential witness searches: a little past the declared
    bound, so the exclusive truncation cannot manufacture failures for
    members touching the window edge (their extensions live just beyond)."""
    longest = max((len(m) for m in members), default=1)
    return bound + longest + 1


@dataclass(frozen=True)
class SegReport:
    window: int
    search_bound: int
    holds: bool
    clause1_failure: Optional[tuple]
    clause2_failure: Optional[tuple]

    def __bool__(self) -> bool:
        return self.holds


def seg_order(f: SuperSeq, g: SuperSeq, bound: int) -> SegReport:
    """Initial-segment order between super-sequences on one base.

    Clause 1: every member of f's front extends to (or equals) a member of
    g's front. Clause 2: whenever a member s of f is an initial segment of a
    member t of g, the values agree. Universal quantifiers range over
    members with entries below the bound; the existential witness in clause
    1 may reach slightly beyond (see the echoed search bound), so edge
    members are not spuriously orphaned. Window-sound either way.
    """
    if not f.front.base.agrees_upto(g.front.base, bound):
        raise DifferentBase(
            f"fronts live on different bases within [0,{bound})")
    fs = members_within(f.front, bound)
    gs = members_within(g.front, bound)
    search = _search_bound(fs, bound)
    gs_wide = members_within(g.front, search)
    c1 = None
    for s in fs:
        if not any(t[:len(s)] == s for t in gs_wide):
            c1 = s
            break
    c2 = None
    for s in fs:
        for t in gs:
            if t[:len(s)] == s and f.value(s) != g.value(t):
                c2 = (s, t)
                break
        if c2:
            break
    return SegReport(
        window=bound, search_bound=search,
        holds=c1 is None and c2 is None,
        clause1_failure=c1, clause2_failure=c2)


@dataclass(frozen=True)
class SpareReport:
    window: int
    search_bound: int
    holds: bool
    failure: Optional[tuple]

    def __bool__(self) -> bool:
        return self.holds


def spare_check(f: SuperSeq, bound: int) -> SpareReport:
    """A super-sequence is spare when no value is forced before the member
    is complete: for every member t and proper prefix s of t some other
    member extending s takes a different value. The witness search reaches
    slightly past the window (echoed search bound) so that edge members
    still see their alternative extensions. Window-sound."""
    members = members_within(f.front, bound)
    search = _search_bound(members, bound)
    pool = members_within(f.front, search)
    for t in members:
        vt = f.value(t)
        for cut in range(len(t)):
            s = t[:cut]
            found = any(
                len(tp) > cut and tp[:cut] == s and f.value(tp) != vt
                for tp in pool)
            if not found:
                return SpareReport(window=bound, search_bound=search,
                                   holds=False, failure=(t, s))
    return SpareReport(window=bound, search_bound=search, holds=True,
                       failure=None)


# --- sparsification -------------------------------------------------------

def _canon(schema):
    """Uniform(0) and Trivial present the same front; fold them together."""
    return TrivialSchema() if _is_trivial(schema) else schema


def _completion_valuation(f: SuperSeq, s: tuple):
    """Value of f at the least member extending the node s."""
    res = residual_front(f.front, s)
    if res is None:
        raise ValueError(f"{s!r} is not a node of the front")
    step = front_step(res, res.base)
    return f.value(tuple(s) + step.member)


def _sparsify(f: SuperSeq, bound: int):
    F = f.front
    members = members_within(F, bound)
    if not members:
        return f, False
    if _is_trivial(F.schema):
        return f, False
    # constancy evidence comes from the slack-extended pool: a lone member
    # at the window edge is no proof of a collapsed value
    pool = members_within(F, _search_bound(members, bound))
    first = f.value(pool[0])
    if all(f.value(m) == first for m in pool[1:]):
        out = SuperSeq(
            front=trivial_front(F.base),
            valuation=lambda s, v=first: v,
            codomain=f.codomain,
            name=f"sparsify({f.name})")
        return out, True

    subs = {}
    changed = False
    for n in F.base.upto(bound):
        sub_front = ray(F, n)
        if not members_within(sub_front, bound):
            continue  # this ray is invisible at the window; leave it alone
        fn = SuperSeq(
            front=sub_front,
            valuation=lambda t, n=n: f.value((n,) + tuple(t)),
            codomain=f.codomain,
            name=f"{f.name}@{n}")
        sub, sub_changed = _sparsify(fn, bound)
        subs[n] = sub
        changed = changed or sub_changed
    if not changed:
        return f, False

    heads = sorted(subs)
    table = {n: _canon(subs[n].front.schema) for n in heads}
    schemas = set(table.values())
    if len(schemas) == 1:
        default = next(iter(schemas))
    elif isinstance(F.schema, UniformSchema):
        default = UniformSchema(F.schema.k - 1)
    elif isinstance(F.schema, SeqSchema):
        default = F.schema.default
    else:
        # heterogeneous collapse of a value-dependent schema: extrapolate
        # with the first beyond-window ray; window-sound by contract
        default = table[heads[-1]]

    if len(schemas) == 1 and isinstance(default, TrivialSchema):
        new_front: Front = Front(UniformSchema(1), F.base)
    elif len(schemas) == 1 and isinstance(default, UniformSchema) \
            and all(isinstance(s, UniformSchema) for s in schemas):
        new_front = Front(UniformSchema(default.k + 1), F.base)
    else:
        ranks = [rank(Front(sch, F.base.after(n)))
                 for n, sch in table.items()]
        ranks.append(rank(Front(default, F.base)))
        declared = max(r.succ() for r in ranks)
        new_front = Front(
            SeqSchema(tuple(sorted(table.items(), key=lambda kv: kv[0])),
                      default, declared),
            F.base)

    def val(s, subs=subs, f=f):
        s = tuple(s)
        n = s[0]
        if n in subs:
            return subs[n].value(s[1:])
        return _completion_valuation(f, s)

    out = SuperSeq(front=new_front, valuation=val, codomain=f.codomain,
                   name=f"sparsify({f.name})")
    return out, True


def sparsify(f: SuperSeq, bound: int) -> SuperSeq:
    """Collapse each member to its shortest prefix that already determines
    the value on the window.

    The result sits below f in the initial-segment order and is spare on the
    same window. Collapses are window-sound: a larger window may split nodes
    that looked constant. Nodes beyond the window keep their value through
    least-member completion against the original valuation, so the result
    stays total.
    """
    out, _ = _sparsify(f, bound)
    return out


# --- shift diagnostics ----------------------------------------------------

_UNREAD = object()


def _first_pair(f: SuperSeq, bound: int, hit: Callable[[Any, Any], bool],
                check: Optional[Callable[[Any], Any]] = None):
    """The first shift pair (s, t) in witness order with hit(f(s), f(t)),
    or None, and the number of shift pairs in the window.

    Pairs are generated lazily and the scan stops at the first hit. Each
    member's value is read once, and passed through check (when given) the
    first time it is read; values read at the same pair are read s then t
    and then checked s then t, as evaluating a checked leq(f(s), f(t))
    would, so the first error raised is the same.
    """
    pairs = ShiftPairs(members_within(f.front, bound))
    members = pairs.members
    read = [_UNREAD] * len(members)   # values by member rank
    for i, j in pairs.ranked():
        vs, vt = read[i], read[j]
        if vs is _UNREAD or vt is _UNREAD:
            fresh = [r for r in dict.fromkeys((i, j)) if read[r] is _UNREAD]
            values = [f.value(members[r]) for r in fresh]
            for r, v in zip(fresh, values):
                if check is not None:
                    check(v)
                read[r] = v
            vs, vt = read[i], read[j]
        if hit(vs, vt):
            return (members[i], members[j]), len(pairs)
    return None, len(pairs)


@dataclass(frozen=True)
class BadnessReport:
    """good_witness is the least good pair in witness order, where the scan
    stopped; pairs_scanned counts the window's shift pairs, not the
    comparisons made before the stop."""

    window: int
    good_witness: Optional[tuple]
    bad_on_window: bool
    pairs_scanned: int


def badness_check(f: SuperSeq, bound: int) -> BadnessReport:
    """Look for a good pair f(s) <= f(t) among the shift-related member
    pairs within the window; its absence is badness on the window.

    Pairs are scanned in witness order (largest entry, then s, then t) and
    the scan stops at the first good pair, the reported witness.
    pairs_scanned is the number of shift pairs in the window either way.
    A codomain with check and raw_leq (see CodedQO) has each value checked
    once and then compared raw; an invalid value raises the error its leq
    would raise, at the same pair.
    """
    codomain = f.codomain
    if codomain is None:
        raise ValueError("badness needs a quasi-order codomain")
    raw_leq = getattr(codomain, "raw_leq", None)
    if raw_leq is not None:
        witness, count = _first_pair(f, bound, raw_leq, codomain.check)
    else:
        witness, count = _first_pair(f, bound, codomain.leq)
    return BadnessReport(
        window=bound, good_witness=witness,
        bad_on_window=witness is None, pairs_scanned=count)


@dataclass(frozen=True)
class PerfectReport:
    """violation is the least violating pair in witness order, where the
    scan stopped; pairs_scanned counts the window's shift pairs, not the
    pairs tested before the stop."""

    window: int
    holds: bool
    violation: Optional[tuple]
    pairs_scanned: int

    def __bool__(self) -> bool:
        return self.holds


def perfect_check(f: SuperSeq, R: Callable[[Any, Any], bool],
                  bound: int) -> PerfectReport:
    """True when every shift-related member pair within the window satisfies
    R between its values. Pairs are scanned in witness order (largest entry,
    then s, then t) and the scan stops at the first violation;
    pairs_scanned is the number of shift pairs in the window either way."""
    violation, count = _first_pair(f, bound, lambda a, b: not R(a, b))
    return PerfectReport(window=bound, holds=violation is None,
                         violation=violation, pairs_scanned=count)


# --- named valuations and files -------------------------------------------

def named_valuation(rule: str) -> Callable[[tuple], Any]:
    """Valuation rules usable in files and on the command line: "identity",
    "min", "span", "minmod2", "constant:c"."""
    if rule == "identity":
        return lambda s: tuple(s)
    if rule == "min":
        return lambda s: s[0]
    if rule == "span":
        return lambda s: s[-1] - s[0]
    if rule == "minmod2":
        return lambda s: s[0] % 2
    if rule.startswith("constant:"):
        raw = rule.split(":", 1)[1]
        try:
            c: Any = int(raw)
        except ValueError:
            c = raw
        return lambda s, c=c: c
    raise ValueError(f"unknown valuation rule {rule!r}")


def superseq_from_dict(d: dict, codomain=None) -> SuperSeq:
    """Build a SuperSeq from file data: a front reference plus a valuation
    given as a named rule, a finite member table, or both (table with rule
    fallback). Table keys are comma-joined entries."""
    from .fronts import front_from_dict
    front = front_from_dict(d["front"])
    vdata = d.get("valuation", {})
    rule = vdata.get("rule")
    table_raw = vdata.get("table", {})
    table = {}
    for key, v in table_raw.items():
        s = tuple(int(x) for x in key.split(",")) if key else ()
        table[s] = tuple(v) if isinstance(v, list) else v
    fallback = named_valuation(rule) if rule else None

    def val(s):
        s = tuple(s)
        if s in table:
            return table[s]
        if fallback is None:
            raise KeyError(f"valuation table has no entry for {s!r}")
        return fallback(s)

    name = rule or "table"
    return SuperSeq(front=front, valuation=val, codomain=codomain, name=name)
