"""Fronts on infinite subsets of omega: schemas, rays, ranks, shifts.

A front on an infinite set X is a family of finite subsets of X such that no
member is a proper initial segment of another and every infinite subset of X
begins with a member. Four schemas cover the desk-scale zoo: the uniform
fronts [X]^k, the trivial front {[]} = [X]^0 under its own name, the
Schreier front {s | 1 + min s = |s|}, and sequence nodes assembling one
front from a family of rays. Every windowed report names its entry bound.

A front is walked as a tree, one ray at a time (Nash-Williams' barrier
view). Each schema's ray(n) says how it steps, and carries its own rank and
file form; ray(F, n) is the one entry point for walkers, so membership,
stepping, window enumeration, the truncated tree and the shift-pair walk
all go through it; shift pairs are walked top by top, so a scan that stops
early lists no member past its stop. The shortcuts are closed forms: a
residual [X]^k lists its window members as the k-subsets, front_step reads
its member as the next k entries, and count_shift_pairs counts the pairs of
uniform and Schreier fronts; it counts those of any other front by a sum
over rays, building no pair.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .errors import (
    DomainError,
    NoMemberWithinBound,
    NotInBase,
    NotSubsetOfBase,
    RankInconsistent,
    TrivialHasNoRays,
)
from .ordinal import OrdinalCNF
from .streams import InfSet, omega

__all__ = [
    "TrivialSchema", "UniformSchema", "SchreierSchema", "SeqSchema",
    "Front", "StepResult", "trivial_front", "uniform_front",
    "schreier_front", "seq_front", "front_member", "front_step", "ray",
    "restrict", "rank", "members_within", "residual_front", "tree_of_front",
    "front_verify", "shift_rel", "shift_pair_buckets", "shift_pairs_within",
    "count_shift_pairs", "front_from_dict", "front_to_dict",
    "check_front_element",
]


# --- schemas --------------------------------------------------------------

@dataclass(frozen=True)
class UniformSchema:
    """[X]^k, the k-subsets: the ray at any n is [X/n]^(k-1), and [X]^0 is
    the trivial front {()}, which has no rays."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("uniform schema needs k >= 0")

    @property
    def trivial(self) -> bool:
        return self.k == 0

    def ray(self, n: int):
        if self.k == 0:
            raise TrivialHasNoRays("the trivial front has no rays")
        return UniformSchema(self.k - 1)

    def rank(self, base: InfSet) -> OrdinalCNF:
        return OrdinalCNF.natural(self.k)

    def to_dict(self) -> dict:
        return {"schema": "uniform", "k": self.k}

    @classmethod
    def from_dict(cls, d: dict, field: str):
        return cls(_json_field(d["k"], int, f"{field} 'k'"))


@dataclass(frozen=True)
class TrivialSchema(UniformSchema):
    """The trivial front {()} under its own name: [X]^0, with k fixed."""

    k: int = field(default=0, init=False, repr=False)

    def to_dict(self) -> dict:
        return {"schema": "trivial"}

    @classmethod
    def from_dict(cls, d: dict, field: str):
        return cls()


@dataclass(frozen=True)
class SchreierSchema:
    """{s | 1 + min s = |s|}: the ray at n is [X/n]^n."""

    trivial = False

    def ray(self, n: int):
        return UniformSchema(n)

    def rank(self, base: InfSet) -> OrdinalCNF:
        return OrdinalCNF.omega()

    def to_dict(self) -> dict:
        return {"schema": "schreier"}

    @classmethod
    def from_dict(cls, d: dict, field: str):
        return cls()


@dataclass(frozen=True)
class SeqSchema:
    """Front assembled from rays: members are {n} + (member of the ray at n).

    The ray table is keyed by the value of the adjoined base element (not by
    its position in the enumeration), so restriction to a smaller base needs
    no table surgery. Unlisted elements fall back to the default schema. The
    rank is declared, not computed, and rank() validates it on a sample of
    rays: each sampled ray must rank strictly below the declaration,
    successor declarations must be attained by some sampled ray + 1, and
    limit declarations must see strictly growing ray ranks along the base.
    """

    table: tuple  # sorted tuple of (n, schema)
    default: Any
    declared_rank: OrdinalCNF
    trivial = False

    def ray(self, n: int):
        for key, schema in self.table:
            if key == n:
                return schema
        return self.default

    def rank(self, base: InfSet) -> OrdinalCNF:
        declared = self.declared_rank
        F = Front(self, base)
        probes = list(base.prefix(_RANK_SAMPLE))
        for key, _ in self.table:
            if base.contains(key) and key not in probes:
                probes.append(key)
        probes.sort()
        ranks = [rank(ray(F, n)) for n in probes]
        for n, r in zip(probes, ranks):
            if not r < declared:
                raise RankInconsistent(
                    f"ray at {n} has rank {r}, not below declared {declared}")
        if declared.is_limit:
            base_probe_ranks = ranks[:_RANK_SAMPLE]
            grows = all(a < b for a, b in
                        zip(base_probe_ranks, base_probe_ranks[1:]))
            if not grows:
                raise RankInconsistent(
                    f"declared limit rank {declared} but sampled ray ranks "
                    f"{[str(r) for r in base_probe_ranks]} do not grow")
        elif all(r.succ() != declared for r in ranks):
            raise RankInconsistent(
                f"declared rank {declared} not attained by any sampled ray "
                f"+ 1")
        return declared

    def to_dict(self) -> dict:
        return {
            "schema": "seq",
            "rays": {str(n): sub.to_dict() for n, sub in self.table},
            "default": self.default.to_dict(),
            "rank": list(self.declared_rank.coefficients),
        }

    @classmethod
    def from_dict(cls, d: dict, field: str):
        rays = _json_field(d.get("rays", {}), dict, f"{field} 'rays'")
        table = tuple(sorted(
            (int(n), _schema_from_dict(sub, f"{field} ray {n!r}"))
            for n, sub in rays.items()))
        default = _schema_from_dict(d["default"], f"{field} 'default'")
        rank = tuple(_json_field(c, int, f"{field} 'rank' entry")
                     for c in d["rank"])
        return cls(table, default, OrdinalCNF(rank))


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
    """Whether s walks the front's rays to a trivial front.

    The schema's rays are walked first, so a tuple of the wrong shape is
    refused without reading the base. A tuple of the right shape reads a
    descriptor base in closed form, and enumerates a generator base up to
    its largest entry."""
    schema = F.schema
    for x in check_front_element(s):
        if schema.trivial:
            return False
        schema = schema.ray(x)
    return schema.trivial and residual_front(F, s) is not None


@dataclass(frozen=True)
class StepResult:
    member: tuple
    modulus: int


# hard ceiling on a single consumed prefix; the per-schema bounds below are
# the real guard, this one only catches broken schema data
_STEP_CEILING = 100_000


def front_step(F: Front, Y: InfSet) -> StepResult:
    """The unique member of the front that begins the enumeration Y.

    Walks the rays along Y until the residual front is uniform, [X]^k;
    the member then ends with Y's next k entries, each checked against X
    (Y increases, so X's tails need not be built). Consumption is bounded
    by the schema (k for uniform, 1 + first element for Schreier, and
    through the rays for sequence nodes); exceeding the ceiling means the
    front data is broken and raises NoMemberWithinBound.
    """
    member: list = []
    cur = F
    while not isinstance(cur.schema, UniformSchema):
        cur = ray(cur, _step_entry(Y, member, cur.base))
    for _ in range(cur.schema.k):
        _step_entry(Y, member, cur.base)
    return StepResult(member=tuple(member), modulus=len(member))


def _step_entry(Y: InfSet, member: list, base: InfSet) -> int:
    """Y's next entry after member, appended once it is found in the base."""
    if len(member) >= _STEP_CEILING:
        raise NoMemberWithinBound(
            f"consumed {len(member)} elements without completing a member")
    v = Y.nth(len(member))
    if not base.contains(v):
        raise NotInBase(f"element {v} of the argument is outside the base")
    member.append(v)
    return v


def ray(F: Front, n: int) -> Front:
    """The ray at n: {s | {n} + s is a member}, a front on base/n; n is
    checked against the base before the schema steps, save on the
    trivial front, which has no rays."""
    if not (F.schema.trivial or F.base.contains(n)):
        raise NotInBase(f"{n} is not in the base")
    return Front(F.schema.ray(n), F.base.after(n))


_PREFIX_CHECK = 16
_RANK_SAMPLE = 6


def restrict(F: Front, Z: InfSet) -> Front:
    """The sub-front F|Z of members contained in Z, as a front on Z.

    Z must be an infinite subset of the base; containment is prefix-checked.
    Rays commute with restriction because schemas are keyed by element value.
    """
    if not Z.subset_prefix_of(F.base, _PREFIX_CHECK):
        raise NotSubsetOfBase(
            f"{Z.name} is not contained in {F.base.name} "
            f"(checked {_PREFIX_CHECK} elements)")
    return Front(F.schema, Z)


def rank(F: Front) -> OrdinalCNF:
    """Ordinal rank of the front's tree (see each schema's rank)."""
    return F.schema.rank(F.base)


# --- window enumeration ---------------------------------------------------

def members_within(F: Front, bound: int) -> list:
    """All members with every entry below the bound, in lexicographic order.

    Walks the rays depth first in ascending order, which lists a
    prefix-free family lexicographically; a residual uniform front [X]^k
    contributes its k-subsets of the window in closed form. Desk-scale only:
    the count explodes with the bound for high-rank fronts (Schreier growth
    is Fibonacci-like), so keep windows modest there.
    """
    out: list = []

    def rec(front: Front, prefix: tuple):
        if isinstance(front.schema, UniformSchema):
            pool = front.base.upto(bound)
            out.extend(prefix + combo for combo in
                       itertools.combinations(pool, front.schema.k))
        else:
            for n in front.base.upto(bound):
                rec(ray(front, n), prefix + (n,))

    rec(F, ())
    return out


def residual_front(F: Front, s) -> Optional[Front]:
    """The front left after consuming the node s: iterated rays along s.

    Returns None when s is not a node of the front's tree (it walks past a
    member or leaves the base). A TrivialSchema result means s is a member.
    """
    s = check_front_element(s)
    cur = F
    for x in s:
        if cur.schema.trivial or not cur.base.contains(x):
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
        leaf = front.schema.trivial
        points = () if leaf else front.base.upto(bound)
        nodes[prefix] = TreeNode(
            children=tuple(prefix + (n,) for n in points),
            rank=rank(front), is_member=leaf)
        for n in points:
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
    Violations are report entries: a density probe that fails with a
    DomainError (NoMemberWithinBound, NotInBase) records its message, and
    any other exception is a bug and propagates.
    """
    raw = not isinstance(F, Front)
    if raw:
        members = sorted(check_front_element(s) for s in F)
        base_ok = True
    else:
        members = members_within(F, bound)
        entries = set(itertools.chain.from_iterable(members))
        base_ok = F.schema.trivial or entries == set(F.base.upto(bound))

    # members is sorted, so the first member t with a proper initial
    # segment p in the family sits right after p (only extensions of p lie
    # between them, and none of those can come before t)
    seg_violation = next(
        ((p, t) for p, t in zip(members, members[1:])
         if len(p) < len(t) and t[:len(p)] == p), None)

    probes = []
    for Y in samples:
        if raw:
            hit = None
            for m in sorted(members, key=len):
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
            except DomainError as exc:
                probes.append(DensityProbe(
                    sample=Y.name, member=None, modulus=None, error=str(exc)))
            else:
                probes.append(DensityProbe(
                    sample=Y.name, member=res.member, modulus=res.modulus,
                    error=None))

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


def _ending_at(F: Front, x: int) -> list:
    """The members of F whose last entry is x, in lexicographic order: a
    ray walk through the entries below x, where a residual [X]^k, k >= 1,
    adds k - 1 points below x and then x, and a trivial ray at x adds x."""
    out: list = []

    def rec(front: Front, prefix: tuple):
        schema = front.schema
        if isinstance(schema, UniformSchema):
            if schema.k and front.base.contains(x):
                out.extend(prefix + combo + (x,) for combo in
                           itertools.combinations(front.base.upto(x),
                                                  schema.k - 1))
            return
        for n in front.base.upto(x):
            rec(ray(front, n), prefix + (n,))
        if front.base.contains(x) and schema.ray(x).trivial:
            out.append(prefix + (x,))

    rec(F, ())
    return out


def _pair_buckets(empty: bool, tops: Iterable):
    """Witness-order buckets of shift pairs: ((), ()) alone when () is a
    member, then the sorted pairs whose largest entry is x, for each list
    of tops, the members ending at x, x ascending.

    Partners of s come in two kinds (see shift_rel). Initial segments t
    of s minus its least entry top out at s[-1] and are looked up among
    the members walked so far, this bucket's included. Members t that
    extend that tail by entries above s[-1] top out at t[-1]: by_tail
    lists the members s of earlier buckets by s[1:], looked up at each
    proper prefix of t, and the singletons (a,) with a < t[0] are a
    bisected slice of their heads."""
    walked: set = set()
    if empty:
        walked.add(())
        yield [((), ())]
    by_tail = defaultdict(list)
    heads: list = []
    for ending in tops:
        walked.update(ending)
        bucket = []
        for m in ending:
            bucket += [(m, m[1:1 + k]) for k in range(len(m))
                       if m[1:1 + k] in walked]
            bucket += [((a,), m) for a in
                       heads[:bisect.bisect_left(heads, m[0])]]
            bucket += [(s, m) for c in range(1, len(m))
                       for s in by_tail.get(m[:c], ())]
        yield sorted(bucket)
        for m in ending:
            if len(m) == 1:
                heads.append(m[0])
            else:
                by_tail[m[1:]].append(m)


def shift_pair_buckets(F: Front, bound: int):
    """The shift-related pairs (s, t) of members of F within the bound in
    witness order, by (largest entry, s, t), one sorted list per window
    point x, built when the caller reaches it: a caller that stops at a
    witness lists no member past it."""
    tops = (_ending_at(F, x) for x in F.base.upto(bound))
    return _pair_buckets(F.schema.trivial, tops)


def shift_pairs_within(members: Iterable) -> list:
    """All shift-related ordered pairs among the given front elements, in
    witness order, walked top by top as shift_pair_buckets walks a front:
    the cost grows with the related pairs, not the square of the family."""
    members = set(map(tuple, members))
    ordered = sorted(members - {()}, key=lambda m: (m[-1], m))
    tops = itertools.groupby(ordered, key=operator.itemgetter(-1))
    return [pair for bucket in _pair_buckets(
        () in members, (list(run) for _, run in tops)) for pair in bucket]


def count_shift_pairs(F: Front, bound: int) -> int:
    """The number of pairs shift_pair_buckets lists, in closed form on
    uniform and Schreier fronts, and by a sum over rays on any other
    front, building no pair.

    [X]^k, k >= 1, on n window points has C(n, k + 1) pairs, one per
    (k + 1)-subset, and the trivial front one, ((), ()). A Schreier front
    on window points p_0 < ... < p_(n-1) has the sum of
    i * C(n - 1 - i, p_i). For b = p_i and each window point a below it,
    the members (a, b, ...) with a >= 1 have C(n - 1 - i, b) partners in
    all (Vandermonde's identity), as (0,) has among the members starting
    at b: one term per point below b. Each binomial is stepped from the
    last by small factors, and the terms vanish once p_i passes
    n - 1 - i. Any other front is counted by _ray_pair_count."""
    schema = F.schema
    if isinstance(schema, UniformSchema):
        return math.comb(len(F.base.upto(bound)), schema.k + 1) \
            if schema.k else 1
    if not isinstance(schema, SchreierSchema):
        return _ray_pair_count(schema, F.base.upto(bound))
    points = F.base.upto(bound)
    n = len(points)
    total, term, r = 0, 1, 0
    for i, p in enumerate(points):
        m = n - 1 - i
        term = term * (m + 1 - r) // (m + 1)    # C(m + 1, r) -> C(m, r)
        while r < p and term:
            term = term * (m - r) // (r + 1)
            r += 1
        if not term:
            break
        total += i * term
    return total


def _ray_pair_count(schema, points: Sequence) -> int:
    """count_shift_pairs on a front that is not trivial, over the window
    points P = points, n of them, as a sum over rays.

    A pair (s, t) is s = (P[i],) + a with t a member on P[i + 1:] that is
    comparable with a: t is an initial segment of a, or a is one of t,
    whose further entries then lie above s[-1] (see shift_rel). So the count is
    the sum over i of pairs(S.ray(P[i]), S, i + 1), where pairs(A, T, i)
    counts the comparable a in A and t in T on P[i:]: members(T, i) when A
    is trivial, members(A, i) when T is, C(n - i, max(j, k)) on [X]^j and
    [X]^k, and otherwise the sum over j >= i of pairs(A.ray(P[j]),
    T.ray(P[j]), j + 1), both stepping by P[j]. members(S, i) counts the
    members on P[i:]: C(n - i, k) on [X]^k, and otherwise the sum over
    j >= i of members(S.ray(P[j]), j + 1).

    Each sum over j is a list of suffix sums per schema or schema pair,
    built once from the end, so Python's recursion follows the nesting of
    the schemas, not the window."""
    n = len(points)
    sums: dict = {}

    def suffix(key, term) -> list:
        out = sums.get(key)
        if out is None:
            out = [0] * (n + 1)
            for j in range(n - 1, -1, -1):
                out[j] = out[j + 1] + term(j)
            sums[key] = out
        return out

    def members(S, i: int) -> int:
        if isinstance(S, UniformSchema):
            return math.comb(n - i, S.k)
        return suffix(S, lambda j: members(S.ray(points[j]), j + 1))[i]

    def pairs(A, T, i: int) -> int:
        if A.trivial:
            return members(T, i)
        if T.trivial:
            return members(A, i)
        if isinstance(A, UniformSchema) and isinstance(T, UniformSchema):
            return math.comb(n - i, max(A.k, T.k))
        return suffix((A, T), lambda j: pairs(
            A.ray(points[j]), T.ray(points[j]), j + 1))[i]

    return sum(pairs(schema.ray(p), schema, i + 1)
               for i, p in enumerate(points))


# --- serialization --------------------------------------------------------

def front_to_dict(F: Front) -> dict:
    d = F.schema.to_dict()
    d["base"] = F.base.name
    return d


_JSON_KINDS = {dict: "a JSON object", int: "a JSON integer", str: "a string"}


def _json_field(value, kind: type, field: str):
    """`value` read from an input file if it is of `kind` (an int is not a
    float or a boolean), else a TypeError that names `field`."""
    if (not isinstance(value, kind)
            or kind is int and isinstance(value, bool)):
        raise TypeError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


_SCHEMAS = {"trivial": TrivialSchema, "uniform": UniformSchema,
            "schreier": SchreierSchema, "seq": SeqSchema}


def _schema_from_dict(d: dict, field: str = "front"):
    kind = _json_field(d, dict, field).get("schema")
    cls = _SCHEMAS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown front schema {d!r}")
    return cls.from_dict(d, field)


def front_from_dict(d: dict) -> Front:
    from .streams import parse_base
    schema = _schema_from_dict(d)
    base = parse_base(_json_field(d.get("base", "omega"), str, "front 'base'"))
    return Front(schema, base)
