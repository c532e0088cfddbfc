"""Fronts on infinite subsets of omega: schemas, rays, ranks, shifts.

A front on an infinite set X is a family of finite subsets of X such that no
member is a proper initial segment of another and every infinite subset of X
begins with a member. Four schemas cover the desk-scale zoo: the trivial
front {[]}, the uniform fronts [X]^k, the Schreier front {s | 1 + min s =
|s|}, and sequence nodes assembling one front from a family of rays. Every
windowed report names its entry bound.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .errors import (
    NoMemberWithinBound,
    NotInBase,
    NotSubsetOfBase,
    RankInconsistent,
    TrivialHasNoRays,
)
from .ordinal import OrdinalCNF, ZERO
from .streams import InfSet, omega

__all__ = [
    "TrivialSchema", "UniformSchema", "SchreierSchema", "SeqSchema",
    "Front", "StepResult", "trivial_front", "uniform_front",
    "schreier_front", "seq_front", "front_member", "front_step", "ray",
    "restrict", "rank", "members_within", "residual_front", "tree_of_front",
    "front_verify", "shift_rel", "ShiftPairs", "shift_pairs_within",
    "front_from_dict", "front_to_dict", "check_front_element",
]


# --- schemas --------------------------------------------------------------

@dataclass(frozen=True)
class TrivialSchema:
    pass


@dataclass(frozen=True)
class UniformSchema:
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("uniform schema needs k >= 0")


@dataclass(frozen=True)
class SchreierSchema:
    pass


@dataclass(frozen=True)
class SeqSchema:
    """Front assembled from rays: members are {n} + (member of the ray at n).

    The ray table is keyed by the value of the adjoined base element (not by
    its position in the enumeration), so restriction to a smaller base needs
    no table surgery. Unlisted elements fall back to the default schema. The
    rank is declared, not computed, and is sample-validated by rank().
    """

    table: tuple  # sorted tuple of (n, schema)
    default: Any
    declared_rank: OrdinalCNF

    def ray_schema(self, n: int):
        for key, schema in self.table:
            if key == n:
                return schema
        return self.default


@dataclass(frozen=True)
class Front:
    schema: Any
    base: InfSet = field(default_factory=omega)


def trivial_front(base: Optional[InfSet] = None) -> Front:
    return Front(TrivialSchema(), base or omega())


def uniform_front(k: int, base: Optional[InfSet] = None) -> Front:
    return Front(UniformSchema(k), base or omega())


def schreier_front(base: Optional[InfSet] = None) -> Front:
    return Front(SchreierSchema(), base or omega())


def seq_front(table: dict, default, declared_rank: OrdinalCNF,
              base: Optional[InfSet] = None) -> Front:
    tbl = tuple(sorted(table.items()))
    return Front(SeqSchema(tbl, default, declared_rank), base or omega())


def _is_trivial(schema) -> bool:
    return isinstance(schema, TrivialSchema) or (
        isinstance(schema, UniformSchema) and schema.k == 0)


def check_front_element(s) -> tuple:
    s = tuple(s)
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"front element entries must be naturals: {s!r}")
    for a, b in zip(s, s[1:]):
        if b <= a:
            raise ValueError(f"front element not strictly increasing: {s!r}")
    return s


# --- membership, stepping, rays ------------------------------------------

def front_member(F: Front, s) -> bool:
    """Schema-directed membership test."""
    s = check_front_element(s)
    schema, base = F.schema, F.base
    if _is_trivial(schema):
        return s == ()
    if not s:
        return False
    if isinstance(schema, UniformSchema):
        return len(s) == schema.k and all(base.contains(v) for v in s)
    if isinstance(schema, SchreierSchema):
        return 1 + s[0] == len(s) and all(base.contains(v) for v in s)
    if isinstance(schema, SeqSchema):
        n = s[0]
        if not base.contains(n):
            return False
        return front_member(
            Front(schema.ray_schema(n), base.after(n)), s[1:])
    raise TypeError(f"unknown schema {schema!r}")


@dataclass(frozen=True)
class StepResult:
    member: tuple
    modulus: int


# hard ceiling on a single consumed prefix; the per-schema bounds below are
# the real guard, this one only catches broken schema data
_STEP_CEILING = 100_000


def front_step(F: Front, Y: InfSet) -> StepResult:
    """The unique member of the front that begins the enumeration Y.

    Consumption is bounded by the schema (k for uniform, 1 + first element
    for Schreier, and recursively for sequence nodes); exceeding the bound
    means the front data is broken and raises NoMemberWithinBound.
    """
    def take(i: int, base: InfSet) -> int:
        if i >= _STEP_CEILING:
            raise NoMemberWithinBound(
                f"consumed {i} elements without completing a member")
        v = Y.nth(i)
        if not base.contains(v):
            raise NotInBase(f"element {v} of the argument is outside the base")
        return v

    def rec(schema, base: InfSet, pos: int) -> tuple:
        if _is_trivial(schema):
            return (), pos
        if isinstance(schema, UniformSchema):
            out = []
            for _ in range(schema.k):
                out.append(take(pos, base))
                base = base.after(out[-1])
                pos += 1
            return tuple(out), pos
        if isinstance(schema, SchreierSchema):
            n = take(pos, base)
            out = [n]
            sub = base.after(n)
            pos += 1
            for _ in range(n):
                out.append(take(pos, sub))
                sub = sub.after(out[-1])
                pos += 1
            return tuple(out), pos
        if isinstance(schema, SeqSchema):
            n = take(pos, base)
            tail, end = rec(schema.ray_schema(n), base.after(n), pos + 1)
            return (n,) + tail, end
        raise TypeError(f"unknown schema {schema!r}")

    member, end = rec(F.schema, F.base, 0)
    return StepResult(member=member, modulus=end)


def ray(F: Front, n: int) -> Front:
    """The ray at n: {s | {n} + s is a member}, a front on base/n."""
    schema, base = F.schema, F.base
    if _is_trivial(schema):
        raise TrivialHasNoRays("the trivial front has no rays")
    if not base.contains(n):
        raise NotInBase(f"{n} is not in the base")
    sub = base.after(n)
    if isinstance(schema, UniformSchema):
        return Front(UniformSchema(schema.k - 1), sub)
    if isinstance(schema, SchreierSchema):
        return Front(UniformSchema(n), sub)
    if isinstance(schema, SeqSchema):
        return Front(schema.ray_schema(n), sub)
    raise TypeError(f"unknown schema {schema!r}")


def restrict(F: Front, Z: InfSet, prefix_check: int = 16) -> Front:
    """The sub-front F|Z of members contained in Z, as a front on Z.

    Z must be an infinite subset of the base; containment is prefix-checked.
    Rays commute with restriction because schemas are keyed by element value.
    """
    if not Z.subset_prefix_of(F.base, prefix_check):
        raise NotSubsetOfBase(
            f"{Z.name} is not contained in {F.base.name} "
            f"(checked {prefix_check} elements)")
    return Front(F.schema, Z)


def rank(F: Front, sample: int = 6) -> OrdinalCNF:
    """Ordinal rank of the front's tree.

    Trivial -> 0, Uniform(k) -> k, Schreier -> omega. Sequence nodes carry a
    declared rank which is validated on a sample of rays: each sampled ray
    must rank strictly below the declaration, successor declarations must be
    attained by some sampled ray + 1, and limit declarations must see
    strictly growing ray ranks along the base.
    """
    schema = F.schema
    if isinstance(schema, TrivialSchema):
        return ZERO
    if isinstance(schema, UniformSchema):
        return OrdinalCNF.natural(schema.k)
    if isinstance(schema, SchreierSchema):
        return OrdinalCNF.omega()
    if isinstance(schema, SeqSchema):
        declared = schema.declared_rank
        probes = list(F.base.prefix(sample))
        for key, _ in schema.table:
            if F.base.contains(key) and key not in probes:
                probes.append(key)
        probes.sort()
        ranks = [rank(ray(F, n), sample) for n in probes]
        for n, r in zip(probes, ranks):
            if not r < declared:
                raise RankInconsistent(
                    f"ray at {n} has rank {r}, not below declared {declared}")
        if declared.is_limit:
            base_probe_ranks = ranks[:sample]
            grows = all(a < b for a, b in
                        zip(base_probe_ranks, base_probe_ranks[1:]))
            if not grows:
                raise RankInconsistent(
                    f"declared limit rank {declared} but sampled ray ranks "
                    f"{[str(r) for r in base_probe_ranks]} do not grow")
        else:
            if all(r.succ() != declared for r in ranks):
                raise RankInconsistent(
                    f"declared rank {declared} not attained by any sampled "
                    f"ray + 1")
        return declared
    raise TypeError(f"unknown schema {schema!r}")


# --- window enumeration ---------------------------------------------------

def members_within(F: Front, bound: int) -> list:
    """All members with every entry below the bound, in lexicographic order.

    Desk-scale only: the count explodes with the bound for high-rank fronts
    (Schreier growth is Fibonacci-like), so keep windows modest there.
    """
    out: list = []

    def rec(schema, base: InfSet, prefix: tuple):
        if _is_trivial(schema):
            out.append(prefix)
            return
        if isinstance(schema, UniformSchema):
            pool = base.upto(bound)
            for combo in itertools.combinations(pool, schema.k):
                out.append(prefix + combo)
            return
        if isinstance(schema, SchreierSchema):
            for n in base.upto(bound):
                pool = base.after(n).upto(bound)
                for combo in itertools.combinations(pool, n):
                    out.append(prefix + (n,) + combo)
            return
        if isinstance(schema, SeqSchema):
            for n in base.upto(bound):
                rec(schema.ray_schema(n), base.after(n), prefix + (n,))
            return
        raise TypeError(f"unknown schema {schema!r}")

    rec(F.schema, F.base, ())
    out.sort()
    return out


def residual_front(F: Front, s) -> Optional[Front]:
    """The front left after consuming the node s: iterated rays along s.

    Returns None when s is not a node of the front's tree (it walks past a
    member or leaves the base). A TrivialSchema result means s is a member.
    """
    s = check_front_element(s)
    cur = F
    for x in s:
        if _is_trivial(cur.schema):
            return None
        if not cur.base.contains(x):
            return None
        cur = ray(cur, x)
    return cur


# --- truncated trees ------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    children: tuple
    rank: OrdinalCNF
    is_member: bool


@dataclass(frozen=True)
class TreeReport:
    window: int
    nodes: dict

    @property
    def root(self) -> TreeNode:
        return self.nodes[()]


def tree_of_front(F: Front, bound: int) -> TreeReport:
    """Truncation of the front's tree to entries below the bound.

    Nodes are the prefixes of members (members themselves may extend past
    the truncation). Each node carries the rank of its residual front: that
    is the tree-rank of the node in the untruncated tree, so the annotation
    is exact even where the window cuts branches short. Members are the
    nodes of rank 0.
    """
    nodes: dict = {}

    def rec(front: Front, prefix: tuple):
        leaf = _is_trivial(front.schema)
        kids: tuple = ()
        if not leaf:
            kids = tuple(prefix + (n,) for n in front.base.upto(bound))
        nodes[prefix] = TreeNode(
            children=kids, rank=rank(front), is_member=leaf)
        if not leaf:
            for n in front.base.upto(bound):
                rec(ray(front, n), prefix + (n,))

    rec(F, ())
    return TreeReport(window=bound, nodes=nodes)


# --- verification ---------------------------------------------------------

@dataclass(frozen=True)
class DensityProbe:
    sample: str
    member: Optional[tuple]
    modulus: Optional[int]
    error: Optional[str]


@dataclass(frozen=True)
class VerifyReport:
    window: int
    base_ok: bool
    segment_free: bool
    segment_violation: Optional[tuple]
    density: tuple
    passed: bool


def front_verify(F, samples: Sequence[InfSet], bound: int) -> VerifyReport:
    """Check the explicit front conditions on a window.

    Accepts a schema Front or a raw finite family of elements (negative
    testing); for the latter density is a prefix scan of each sample.
    Violations are report entries, never exceptions.
    """
    raw = not isinstance(F, Front)
    if raw:
        members = sorted(check_front_element(s) for s in F)
        entries = set(itertools.chain.from_iterable(members))
        base_ok = True
    else:
        members = members_within(F, bound)
        entries = set(itertools.chain.from_iterable(members))
        if _is_trivial(F.schema):
            base_ok = True
        else:
            base_ok = entries == set(F.base.upto(bound))

    member_set = set(members)
    seg_violation = None
    for t in members:
        for cut in range(len(t)):
            if t[:cut] in member_set and t[:cut] != t:
                seg_violation = (t[:cut], t)
                break
        if seg_violation:
            break

    probes = []
    for Y in samples:
        if raw:
            hit = None
            for m in sorted(member_set, key=len):
                if Y.prefix(len(m)) == m:
                    hit = m
                    break
            probes.append(DensityProbe(
                sample=Y.name, member=hit,
                modulus=None if hit is None else len(hit),
                error=None if hit is not None else "no member starts this set"))
        else:
            try:
                res = front_step(F, Y)
                probes.append(DensityProbe(
                    sample=Y.name, member=res.member, modulus=res.modulus,
                    error=None))
            except Exception as exc:  # report, never raise
                probes.append(DensityProbe(
                    sample=Y.name, member=None, modulus=None, error=str(exc)))

    dense = all(p.member is not None for p in probes)
    return VerifyReport(
        window=bound,
        base_ok=base_ok,
        segment_free=seg_violation is None,
        segment_violation=seg_violation,
        density=tuple(probes),
        passed=base_ok and seg_violation is None and dense,
    )


# --- the shift relation ---------------------------------------------------

def shift_rel(s, t) -> bool:
    """Whether t is a shift of s: some infinite X begins with s while the
    tail of X (least element dropped) begins with t.

    Decided by the derived characterization: with s2 = s minus its least
    element, either t is an initial segment of s2, or s2 is an initial
    segment of t and everything t adds lies above max s. An empty s relates
    to t exactly when t is empty or min t > 0 (the dropped least element of
    the witness must fit below t).
    """
    s = check_front_element(s)
    t = check_front_element(t)
    if not s:
        return not t or t[0] > 0
    s2 = s[1:]
    if t == s2[:len(t)]:
        return True
    if s2 == t[:len(s2)]:
        return all(v > s[-1] for v in t[len(s2):])
    return False


class ShiftPairs:
    """The shift-related ordered pairs (s, t) among a set of front members,
    walked in witness order and counted without being built.

    Witness order sorts pairs by (largest entry of s + t, s, t), the pair
    ((), ()) first. Partners of s come in two kinds (see shift_rel): members
    that are initial segments of s minus its least entry, whose pairs top
    out at s[-1], and members t extending that tail by entries above s[-1],
    whose pairs top out at t[-1]. So iteration builds and sorts one
    largest-entry bucket at a time from the by_last and by_tail indexes, and
    a caller that stops at a witness never holds the full pair list. len()
    counts every pair without listing the second kind: each s with a
    nonempty tail s[1:] pairs with every member properly extending that
    tail, a run of the sorted members found by bisection, and a singleton
    (a,) pairs with every member t with t[0] > a.

    Members are front elements: strictly increasing tuples of naturals.
    Indexes hold members by their rank in lexicographic order.
    """

    def __init__(self, members: Iterable):
        self.members = members = sorted({tuple(m) for m in members})
        self.rank = {m: i for i, m in enumerate(members)}
        self.lengths = sorted({len(m) for m in members})
        self.by_last: dict = {}   # t[-1] -> ranks of the members t
        self.by_tail: dict = {}   # s[1:] -> ranks of the members s
        for i, t in enumerate(members):
            if t:
                self.by_last.setdefault(t[-1], []).append(i)
                self.by_tail.setdefault(t[1:], []).append(i)
        # singletons leave by_tail: (a, rank) of each member (a,), ascending
        self.singles = [(members[i][0], i) for i in self.by_tail.pop((), [])]

    def _segment_partners(self, s: tuple) -> list:
        """Ranks of the members that are initial segments of s minus its
        least entry."""
        tail, rank = s[1:], self.rank
        return [rank[tail[:n]] for n in self.lengths
                if n < len(s) and tail[:n] in rank]

    def bucket(self, top: int) -> list:
        """The pairs whose largest entry is top, sorted by (s, t), as rank
        pairs (i, j) for (members[i], members[j])."""
        members, by_tail, singles = self.members, self.by_tail, self.singles
        n = len(members)
        tops = self.by_last.get(top, ())
        # the rank pair (i, j) is coded i * n + j: int order is (s, t) order
        codes = [i * n + j for i in tops
                 for j in self._segment_partners(members[i])]
        for j in tops:
            t = members[j]
            below = bisect.bisect_left(singles, (t[0],))
            codes.extend(i * n + j for _, i in singles[:below])
            for cut in range(1, len(t)):
                codes.extend(i * n + j for i in by_tail.get(t[:cut], ()))
        codes.sort()
        return list(map(divmod, codes, itertools.repeat(n)))

    def ranked(self):
        """The pairs in witness order, as rank pairs (see bucket)."""
        if () in self.rank:
            yield 0, 0   # () sorts first
        for top in sorted(self.by_last):
            yield from self.bucket(top)

    def __iter__(self):
        members = self.members
        for i, j in self.ranked():
            yield members[i], members[j]

    def __len__(self) -> int:
        members = self.members
        count = int(() in self.rank)
        count += sum(len(self._segment_partners(m)) for m in members
                     if len(m) > self.lengths[0])
        count += sum(len(members) - bisect.bisect_left(members, (a + 1,))
                     for a, _ in self.singles)
        for tail, ranks in self.by_tail.items():
            # the members properly extending tail are a run of members
            lo = bisect.bisect_right(members, tail)
            hi = bisect.bisect_left(members, tail[:-1] + (tail[-1] + 1,))
            count += len(ranks) * (hi - lo)
        return count


def shift_pairs_within(members: Iterable) -> list:
    """All shift-related ordered pairs among the given front members, in
    witness order: by largest entry, then s, then t (see ShiftPairs).

    Cost grows with the number of related pairs, not with the square of
    the member count.
    """
    return list(ShiftPairs(members))


# --- serialization --------------------------------------------------------

def _schema_to_dict(schema) -> dict:
    if isinstance(schema, TrivialSchema):
        return {"schema": "trivial"}
    if isinstance(schema, UniformSchema):
        return {"schema": "uniform", "k": schema.k}
    if isinstance(schema, SchreierSchema):
        return {"schema": "schreier"}
    if isinstance(schema, SeqSchema):
        return {
            "schema": "seq",
            "rays": {str(n): _schema_to_dict(sub) for n, sub in schema.table},
            "default": _schema_to_dict(schema.default),
            "rank": list(schema.declared_rank.coefficients),
        }
    raise TypeError(f"unknown schema {schema!r}")


def front_to_dict(F: Front) -> dict:
    d = _schema_to_dict(F.schema)
    d["base"] = F.base.name
    return d


def _schema_from_dict(d: dict):
    kind = d.get("schema")
    if kind == "trivial":
        return TrivialSchema()
    if kind == "uniform":
        return UniformSchema(int(d["k"]))
    if kind == "schreier":
        return SchreierSchema()
    if kind == "seq":
        table = tuple(sorted(
            (int(n), _schema_from_dict(sub))
            for n, sub in d.get("rays", {}).items()))
        default = _schema_from_dict(d["default"])
        return SeqSchema(table, default, OrdinalCNF(tuple(d["rank"])))
    raise ValueError(f"unknown front schema {d!r}")


def front_from_dict(d: dict) -> Front:
    from .streams import parse_base
    schema = _schema_from_dict(d)
    base = parse_base(d.get("base", "omega"))
    return Front(schema, base)
