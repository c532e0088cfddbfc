"""Super-sequences: valuations on fronts, their order, and diagnostics.

A super-sequence is a front together with a total valuation on its members;
it presents a locally constant map on infinite sets through eval_up (read a
prefix until the unique member appears, then evaluate). Locally constant
maps are only ever handled in this presented form: constancy on cylinders is
not decidable for black-box functions, while the presented pair makes every
diagnostic below a finite window computation. Each report echoes its window.
The shift-pair scans walk the window top by top and stop at their witness:
a uniform front [X]^k, k >= 2, in closed form, and every other front, [X]^1
included, through fronts.shift_pair_buckets. Their pair counts come from
count_shift_pairs, which builds no pair.

A super-sequence keeps only the values it was given, such as a file's
table: value stores nothing it computes. checked() is the one view that
keeps values, each checked once; the scans keep theirs for one call.
"""
from __future__ import annotations

import itertools
import operator
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import DifferentBase, MissingValue
from .fronts import (
    Front,
    SeqSchema,
    TrivialSchema,
    UniformSchema,
    _json_field,
    count_shift_pairs,
    front_step,
    members_within,
    ray,
    rank,
    residual_front,
    shift_pair_buckets,
    trivial_front,
)
from .streams import InfSet

__all__ = [
    "SuperSeq", "EvalResult", "eval_up", "seg_order", "spare_check",
    "sparsify", "badness_check", "perfect_check", "named_valuation",
    "superseq_from_dict",
]

# a value not yet read: the sentinel of value's table probe and the scans'
_UNREAD = object()


@dataclass(frozen=True)
class SuperSeq:
    """A front with a total valuation on its members."""

    front: Front
    valuation: Callable[[tuple], Any]
    codomain: Any = None
    name: str = "f"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def value(self, s: tuple):
        """The value of member s: its entry in _cache, the values given up
        front, read in one probe, or else the valuation's result, which is
        not stored."""
        if type(s) is not tuple:
            s = tuple(s)
        v = self._cache.get(s, _UNREAD)
        return self.valuation(s) if v is _UNREAD else v

    def checked(self) -> "SuperSeq":
        """This sequence with each value passed through the codomain's
        check on its first read, so that its values compare with raw_leq.
        The view keeps each value that passed in its _cache, so a member is
        checked once; a failed check stores nothing and raises again."""
        if self.codomain is None:
            raise ValueError("checked() needs a quasi-order codomain")
        check, value, memo = self.codomain.check, self.value, {}
        return SuperSeq(self.front,
                        lambda s: memo.setdefault(s, check(value(s))),
                        self.codomain, self.name, memo)


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
    still see their alternative extensions. Window-sound.

    One call reads the value of each window member t in lexicographic
    order and, for each proper prefix s of t, the values of the pool
    members that extend s, in lexicographic order up to the first that
    differs from t's. The pool is sorted, so these members are one run of
    it, found by bisection (the whole pool for s = ())."""
    members = members_within(f.front, bound)
    search = _search_bound(members, bound)
    pool = members_within(f.front, search)
    for t in members:
        vt = f.value(t)
        for cut in range(len(t)):
            s = t[:cut]
            # pool[lo:hi] is the members extending s; none equals s, as
            # no member is a proper prefix of another
            lo = bisect_left(pool, s)
            hi = bisect_left(pool, s[:-1] + (s[-1] + 1,), lo) if s \
                else len(pool)
            found = any(f.value(pool[i]) != vt for i in range(lo, hi))
            if not found:
                return SpareReport(window=bound, search_bound=search,
                                   holds=False, failure=(t, s))
    return SpareReport(window=bound, search_bound=search, holds=True,
                       failure=None)


# --- sparsification -------------------------------------------------------

def _canon(schema):
    """Uniform(0) and Trivial present the same front; fold them together."""
    return TrivialSchema() if schema.trivial else schema


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
    if not members or F.schema.trivial:
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

    if len(schemas) == 1 and isinstance(default, UniformSchema):
        new_front: Front = Front(UniformSchema(default.k + 1), F.base)
    else:
        ranks = [rank(Front(sch, F.base.after(n)))
                 for n, sch in table.items()]
        ranks.append(rank(Front(default, F.base)))
        declared = max(r.succ() for r in ranks)
        # table is keyed by the sorted heads, as SeqSchema wants it
        new_front = Front(SeqSchema(tuple(table.items()), default, declared),
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

_TAIL = operator.itemgetter(slice(1, None))


def _first_pair(f: SuperSeq, bound: int, hit: Callable[[Any, Any], bool],
                check: Optional[Callable[[Any], Any]] = None):
    """The first shift pair (s, t) in witness order with hit(f(s), f(t)),
    or None, and count_shift_pairs' count of the window's pairs.

    A uniform front [X]^k, k >= 2, is scanned in closed form (see
    _first_uniform_pair); any other front, [X]^1 included, walks
    shift_pair_buckets in a flat loop, which lists no member past the
    witness (the count of a seq front sums over its rays, building no
    pair). Either way hit is called pair by pair in witness order, up to
    the first hit. Each member's value is read once, into the walk's read
    dict (or the kernel's rows), the scan's only value store, and checked
    then when check is given; values read at one pair are read s then t,
    then checked s then t, as a checked leq(f(s), f(t)) would, so the first
    error raised is the same.
    """
    count = count_shift_pairs(f.front, bound)
    schema = f.front.schema
    if isinstance(schema, UniformSchema) and schema.k >= 2:
        return _first_uniform_pair(f, schema.k, bound, hit, check), count
    value = f.value
    read: dict = {}     # values by member
    for bucket in shift_pair_buckets(f.front, bound):
        for s, t in bucket:
            vs = read.get(s, _UNREAD)
            vt = read.get(t, _UNREAD)
            if vs is _UNREAD or vt is _UNREAD:
                fresh_s = vs is _UNREAD
                fresh_t = vt is _UNREAD and s != t
                if fresh_s:
                    read[s] = vs = value(s)
                if fresh_t:
                    read[t] = vt = value(t)
                elif s == t:
                    vt = vs
                if check is not None:
                    if fresh_s:
                        check(vs)
                    if fresh_t:
                        check(vt)
            if hit(vs, vt):
                return (s, t), count
    return None, count


def _first_uniform_pair(f: SuperSeq, k: int, bound: int,
                        hit: Callable[[Any, Any], bool],
                        check: Optional[Callable[[Any], Any]]):
    """_first_pair's witness on [X]^k, k >= 2, listing no members.

    The shift partners of a k-subset s are s[1:] + (x,) for the points x
    above s[-1], so the pairs whose largest entry is x are the k-subsets s
    of the points below x, in lexicographic order, each with that partner:
    witness order is a walk of combinations, and the n window points give
    C(n, k + 1) pairs, one per (k + 1)-subset.

    Each such bucket splits in two. Its least-point block, the s that start
    at the window's least point p0, holds every value the bucket reads
    fresh: each t = s[1:] + (x,) there, and s itself when it ends at the
    point just below x. It is walked pair by pair, reading and checking in
    the same order as the general path. The rest of the bucket reads
    nothing new, since its t lie in the block's t and its s in earlier
    buckets, so it is compared in one lazy map of hit over values held by
    position, in witness order, and stops at its first hit.

    Values are held in rows: rows[h] lists the values of h + (p,) for the
    points p above h[-1], in order, up to the last finished bucket. The
    block's t values, grouped by t[:-2] in col, join the rows once the
    bucket is done.
    """
    points = list(f.front.base.upto(bound))
    value = f.value
    head = tuple(points[:1])   # (p0,)
    rows: defaultdict = defaultdict(list)
    for i in range(k, len(points)):
        x = points[i]
        below = points[1:i - 1]   # the points of the rest's prefixes h
        col: dict = {}
        # least-point block: s = (p0,) + w + (p,), t = w + (p, x), one run
        # of p per w; the row's values end just below the fresh s
        for w in itertools.combinations(below, k - 2):
            h = head + w
            row = rows[h]
            c = col[w] = []
            ends = points[i - 1 - len(row):i]
            for vs, p in zip(row, ends):
                t = w + (p, x)
                vt = value(t)
                if check is not None:
                    check(vt)
                c.append(vt)
                if hit(vs, vt):
                    return h + (p,), t
            s = h + (ends[-1],)
            t = w + (ends[-1], x)
            vs = value(s)
            vt = value(t)
            if check is not None:
                check(vs)
                check(vt)
            row.append(vs)
            c.append(vt)
            if hit(vs, vt):
                return s, t
        # the rest: s = h + (p,) for h within the points p1 .. below x
        vs_runs = map(rows.__getitem__, itertools.combinations(below, k - 1))
        if k == 2:   # every t = (p, x) sits in one column, from p on
            c = col[()]
            vt_runs = (c[a:] for a in range(1, i - 1))
        else:        # the t of s = h + (p,) are the column of h[1:]
            vt_runs = map(col.__getitem__, map(
                _TAIL, itertools.combinations(below, k - 1)))
        found = next(itertools.compress(itertools.count(), map(
            hit, itertools.chain.from_iterable(vs_runs),
            itertools.chain.from_iterable(vt_runs))), None)
        if found is not None:
            s = next(itertools.islice(
                itertools.combinations(points[1:i], k), found, None))
            return s, s[1:] + (x,)
        # t = u + (x,) joins the row of u, for u in the block's order (any
        # runs the appends, as each returns None)
        any(map(list.append,
                map(rows.__getitem__, itertools.combinations(points[1:i],
                                                             k - 1)),
                itertools.chain.from_iterable(col.values())))
    return None


@dataclass(frozen=True)
class BadnessReport:
    """good_witness is the least good pair in witness order, where the scan
    stopped; pairs_scanned counts all the window's shift pairs, not the
    comparisons made before the stop (see count_shift_pairs)."""

    window: int
    good_witness: Optional[tuple]
    bad_on_window: bool
    pairs_scanned: int


def badness_check(f: SuperSeq, bound: int) -> BadnessReport:
    """Look for a good pair f(s) <= f(t) among the shift-related member
    pairs within the window; its absence is badness on the window.

    Pairs are scanned in witness order (largest entry, then s, then t),
    one largest entry at a time, and the scan stops at the first good
    pair, the reported witness, listing no member past it. A uniform front
    [X]^k, k >= 2, is scanned in closed form (see _first_uniform_pair),
    any other front, [X]^1 included, through shift_pair_buckets.
    pairs_scanned counts every shift pair in the window, in closed form on
    uniform and Schreier fronts and by a sum over rays on seq fronts,
    building no pair, so the window may be large when the witness comes
    early.
    Each value is checked against the codomain once and then compared raw
    (see CodedQO); an invalid value raises the error the codomain's leq
    would raise, at the same pair.
    """
    codomain = f.codomain
    if codomain is None:
        raise ValueError("badness needs a quasi-order codomain")
    witness, count = _first_pair(f, bound, codomain.raw_leq, codomain.check)
    return BadnessReport(
        window=bound, good_witness=witness,
        bad_on_window=witness is None, pairs_scanned=count)


@dataclass(frozen=True)
class PerfectReport:
    """violation is the least violating pair in witness order, where the
    scan stopped; pairs_scanned counts all the window's shift pairs, not
    the pairs tested before the stop (see count_shift_pairs)."""

    window: int
    holds: bool
    violation: Optional[tuple]
    pairs_scanned: int

    def __bool__(self) -> bool:
        return self.holds


def perfect_check(f: SuperSeq, R: Callable[[Any, Any], bool],
                  bound: int) -> PerfectReport:
    """True when every shift-related member pair within the window satisfies
    R between its values. Pairs are scanned as badness_check scans them,
    and the scan stops at the first violation; pairs_scanned counts every
    shift pair in the window."""
    violation, count = _first_pair(f, bound, lambda a, b: not R(a, b))
    return PerfectReport(window=bound, holds=violation is None,
                         violation=violation, pairs_scanned=count)


# --- named valuations and files -------------------------------------------

# rules that read an entry of the member, so the trivial front's only
# member () has no value under them
_NONEMPTY_RULES = ("min", "span", "minmod2")


def named_valuation(rule: str,
                    front: Optional[Front] = None) -> Callable[[tuple], Any]:
    """Valuation rules usable in files and on the command line: "identity",
    "min", "span", "minmod2", "constant:c". Given the front, a rule that
    reads entries is refused on a trivial front, here rather than at the
    first value read."""
    if front is not None and rule in _NONEMPTY_RULES \
            and front.schema.trivial:
        raise ValueError(
            f"valuation rule {rule!r} needs nonempty members; the trivial "
            f"front's only member is ()")
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


# deletes ASCII digits and commas, the only characters of a key that the
# bulk decode sends to JSON
_NOT_DECIMAL = str.maketrans("", "", "0123456789,")

# the key of a valuation or colouring table: "" or naturals in canonical
# decimal (ASCII digits, no leading zero) joined by commas, so each member
# has one key; re compiles it on first use, not on import
_TABLE_KEY = r"(?:(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*)?"


def _table_key(key, table: str) -> tuple:
    """The member that one key of a member table names; a key outside the
    _TABLE_KEY grammar is a ValueError that names it and the table."""
    if not (isinstance(key, str) and re.fullmatch(_TABLE_KEY, key)):
        raise ValueError(
            f"{table} table key {key!r} is not canonical: write \"\" "
            f"or naturals without leading zeros joined by commas")
    return tuple(map(int, key.split(","))) if key else ()


def _decode_table(table_raw: dict) -> dict:
    """The table's members, each key read as _table_key reads it, mapped to
    its value, a list made a tuple; the one decoder of valuation tables.

    When every key holds only ASCII digits and commas (tested on the keys'
    own characters, so no key brings a bracket into the JSON text), all
    keys parse in one json.loads, each key as one list; JSON reads exactly
    the canonical keys this way. Values must be hashable, and are hashed
    in one tuple. When this bulk read refuses the table (a key JSON
    refuses, such as 01, 1,,2 or a digit string over the int limit, any
    other key, or an unhashable value), the entries are walked in table
    order only to raise the first bad one: its key through _table_key,
    then its value.
    """
    import json   # here, so that importing this module does not load json
    keys = list(table_raw)
    values = [tuple(v) if isinstance(v, list) else v
              for v in table_raw.values()]
    try:
        members = None if "".join(keys).translate(_NOT_DECIMAL) else \
            json.loads("[[" + "],[".join(keys) + "]]")
        hash(tuple(values))   # values become HSet atoms and memo keys
    except (TypeError, ValueError):   # a key not a string, 01, or a dict value
        members = None
    if members is None:     # one entry is bad, and the walk raises it
        for key, v in zip(keys, values):
            _table_key(key, "valuation")
            try:
                hash(v)
            except TypeError:
                raise TypeError(f"valuation table value for {key!r} is not "
                                f"hashable: {v!r}") from None
    return dict(zip(map(tuple, members), values))


def superseq_from_dict(d: dict, codomain=None) -> SuperSeq:
    """Build a SuperSeq from file data: a front reference plus a valuation
    given as a named rule, a finite member table, or both (table with rule
    fallback). A table key is "" or the member's entries in canonical
    decimal joined by commas, such as "0,12"; any other key, such as "01,2"
    or "1, 2", is a ValueError that names it, so no two keys name one
    member. Table values must be hashable, and a list value becomes a tuple.

    Keys and list values are decoded once, here, for the whole table, which
    is kept as the given values and never added to, so reading a table
    member does not call the valuation. Values are checked against the
    codomain only where they are read (see badness_check and checked)."""
    from .fronts import front_from_dict
    front = front_from_dict(d["front"])
    vdata = _json_field(d.get("valuation", {}), dict, "'valuation'")
    rule = vdata.get("rule")
    if rule is not None:
        _json_field(rule, str, "valuation 'rule'")
    table = _decode_table(
        _json_field(vdata.get("table", {}), dict, "valuation 'table'"))
    # a table entry for () spares the rule the trivial front's member
    fallback = named_valuation(
        rule, None if () in table else front) if rule else None

    def val(s):
        s = tuple(s)
        if s in table:
            return table[s]
        if fallback is None:
            raise MissingValue(f"valuation table has no entry for {s!r}")
        return fallback(s)

    name = rule or "table"
    return SuperSeq(front=front, valuation=val, codomain=codomain, name=name,
                    _cache=table)
