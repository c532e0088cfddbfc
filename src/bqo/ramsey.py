"""Finite Ramsey search and windowed partition extraction.

Every search here is one kernel, Homogeneous: an ascending depth-first
search for a set Z of points on which every completed constraint has one
colour, the finite shadow of the Nash-Williams / Galvin-Prikry partition
argument.  Z grows in ascending order, so a constraint is completed exactly
when its largest point is added; the kernel asks only for the colours of
the constraints the newest point completes.  For k-subsets these are
generated lazily.  A coloured family of front members or join nodes is
read the same way on a uniform front [X]^k, k >= 1, where the family of
each length L is every L-subset of the window points; on other fronts it
comes from an index of member bitmasks keyed by each member's largest
point.  Points are tried in ascending order, so the first set of any size
found is the lexicographically least of that size.

finite_ramsey finds a largest (or target-sized) subset of [0, N) all of
whose k-subsets share one color.  nw_extract specializes to 2-colorings of
a front's members: it returns the lexicographically least Z of a given size
such that every member realized inside Z has one color side (side 0 tried
before side 1).

join_nodes lists the minimal prefixes that determine a member and its
shift member, for the plain shift or any generalized shift g: on a
uniform front, in closed form as the L-subsets of the window points; on
other fronts, in one pruned walk over the window members.
dichotomy_extract colors each join node by whether a decidable relation R
holds between the value at the member and at its shift member, extracts a
largest one-sided Z, and reports whether the valuation is a homomorphism
into R or into its complement on Z.

laver_embed runs the two-stage Ramsey filtering that turns a bad
pair-indexed sequence into an order embedding of the two-clause pair order
into the codomain, then verifies both directions of the embedding on the
output.  f2_to_powerset_badseq and powerset_badseq_to_f2 convert between
bad pair-indexed sequences and bad sequences of sets under domination,
choosing least witnesses so every construction is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .errors import (EmbeddingCheckFailed, InvariantViolated, MissingColor,
                     NotBadOnWindow, NotBadPowersetSeq, RamseyStageFailed,
                     WindowExhausted)
from .fronts import Front, UniformSchema, members_within, uniform_front
from .streams import omega
from .superseq import SuperSeq, _table_key, badness_check


# --- the homogeneous-set search ---------------------------------------------

class Homogeneous:
    """Ascending depth-first search for one-sided sets of points.

    points is an ascending sequence.  colours(cur) yields the colours of the
    constraints completed by cur[-1] inside the ascending list cur.  A set
    is one-sided when every constraint it completes has colour side; with
    side None the first completed constraint fixes it.

    With a size, iterating yields every one-sided set of that size in
    lexicographic order.  Without one, it yields each set larger than all
    sets before it: the lexicographically least one-sided set of each size
    from 1 up to the largest.  Branches that cannot reach the size, or
    without one cannot beat the best set so far, are pruned.  best and
    best_side are the largest set entered and its side, explored counts
    the nodes entered, and complete turns False once explored reaches the
    budget.
    """

    def __init__(self, points: Sequence[int],
                 colours: Callable[[list], Iterator[int]],
                 side: Optional[int] = None, size: Optional[int] = None,
                 budget: float = math.inf):
        self.points = tuple(points)
        self.colours = colours
        self.side = side
        self.size = size
        self.budget = budget
        self.best: tuple = ()
        self.best_side = side
        self.explored = 0
        self.complete = True

    def __iter__(self) -> Iterator[tuple]:
        points, colours, size = self.points, self.colours, self.size
        n = len(points)
        cur: list = []

        def grow(start: int, fixed: Optional[int]):
            if len(cur) > len(self.best):
                self.best, self.best_side = tuple(cur), fixed
                if size is None:
                    yield self.best
            if len(cur) == size:
                yield tuple(cur)
                return
            for i in range(start, n):
                if self.explored >= self.budget:
                    self.complete = False
                    return
                if size is None:
                    if len(cur) + (n - i) <= len(self.best):
                        break
                elif len(cur) + (n - i) < size:
                    break
                self.explored += 1
                cur.append(points[i])
                side = fixed
                for c in colours(cur):
                    if side is None:
                        side = c
                    elif c != side:
                        break
                else:
                    yield from grow(i + 1, side)
                cur.pop()

        return grow(0, self.side)


def _subset_colours(k: int, color: Callable[[tuple], int]):
    """Colours of the k-subsets of cur that end at cur[-1]."""
    def colours(cur: list):
        last = (cur[-1],)
        for rest in itertools.combinations(cur[:-1], k - 1):
            yield color(rest + last)
    return colours


def member_colours(colour_of: dict):
    """Colours of the members inside cur whose largest point is cur[-1]:
    each member is an int bitmask (a bit per distinct point), tested as
    mask & inside == mask against cur's mask.  The empty member is never
    yielded."""
    bit = {x: 1 << i for i, x in enumerate(
        dict.fromkeys(itertools.chain.from_iterable(colour_of)))}
    by_max: dict = {}
    for s, c in colour_of.items():
        if s:
            mask = 0
            for x in s:
                mask |= bit[x]
            by_max.setdefault(max(s), []).append((mask, c))

    def colours(cur: list):
        group = by_max.get(cur[-1])
        if group:
            inside = 0
            for x in cur:
                inside |= bit.get(x, 0)
            for mask, c in group:
                if mask & inside == mask:
                    yield c
    return colours


def _uniform(front) -> bool:
    """Whether front is a uniform [X]^k with k >= 1, whose members, join
    nodes and colours have closed forms."""
    return (isinstance(front, Front) and isinstance(front.schema, UniformSchema)
            and front.schema.k > 0)


def family_colours(front, colour_of: dict):
    """Colours of a coloured family of front's members or join nodes, for
    Homogeneous over the window points.  On a uniform front the family
    holds, for each of its lengths L, every L-subset of the points, so
    _subset_colours looks them up; elsewhere member_colours indexes them."""
    if not _uniform(front):
        return member_colours(colour_of)
    parts = [_subset_colours(n, colour_of.__getitem__)
             for n in sorted(set(map(len, colour_of)))]
    if len(parts) == 1:
        return parts[0]
    return lambda cur: itertools.chain.from_iterable(p(cur) for p in parts)


def largest(points: Sequence[int], colours, side: Optional[int]) -> tuple:
    """The lexicographically least of the largest sets one-sided for side."""
    return max(Homogeneous(points, colours, side), key=len, default=())


# --- finite Ramsey search ---------------------------------------------------

@dataclass(frozen=True)
class RamseyReport:
    """Best homogeneous set found: all k-subsets of Z share `color`."""

    Z: tuple
    color: Optional[int]
    window: int
    k: int
    r: int
    target: Optional[int]
    exhaustive: bool
    explored: int


def finite_ramsey(N: int, k: int, r: int, coloring: Callable[[tuple], int],
                  target: Optional[int] = None,
                  budget: int = 500_000) -> RamseyReport:
    """Search [0, N) for a set all of whose k-subsets share one color.

    coloring must be total on ascending k-tuples from [0, N) with values
    below r.  Without a target the largest homogeneous set found is
    returned (lexicographically least among those of maximal size); with a
    target the search stops at the first, lexicographically least, set of
    size min(N, target).  The search itself never fails: the report
    carries the best set found and an exhaustiveness flag, cleared when the
    node budget runs out.
    """
    if N < 0 or k < 1 or r < 1 or (target is not None and target < 0):
        raise ValueError("need N >= 0, k >= 1, r >= 1 and target >= 0")
    if r == 1:
        size = N if target is None else min(N, target)
        return RamseyReport(tuple(range(size)), 0 if size >= k else None,
                            N, k, r, target, True, 0)
    search = Homogeneous(range(N), _subset_colours(k, coloring),
                         size=None if target is None else min(N, target),
                         budget=budget)
    for _ in search:
        if target is not None:
            break
    Z = search.best
    col = search.best_side if len(Z) >= k else None
    return RamseyReport(Z, col, N, k, r, target, search.complete,
                        search.explored)


# --- colorings of front members --------------------------------------------

@dataclass(frozen=True)
class Coloring:
    """A color for every member of a front (or of a raw finite family)."""

    front: object               # Front, or an iterable of member tuples
    color: Callable[[tuple], int]
    r: int = 2
    name: str = "c"


def named_coloring(name: str) -> Callable[[tuple], int]:
    """Color rules by name: sum-parity, size-parity, min-parity,
    max-parity, or constant:c."""
    if name == "sum-parity":
        return lambda s: sum(s) % 2
    if name == "size-parity":
        return lambda s: len(s) % 2
    if name == "min-parity":
        return lambda s: (min(s) if s else 0) % 2
    if name == "max-parity":
        return lambda s: (max(s) if s else 0) % 2
    if name.startswith("constant:"):
        value = int(name.split(":", 1)[1])
        return lambda s: value
    raise ValueError(f"unknown coloring rule {name!r}")


def coloring_from_dict(data: dict) -> Coloring:
    """Build a Coloring from a file payload: a front reference plus either
    a rule name or a finite member table {"m,n": color}, whose keys follow
    the valuation table grammar: a key that is not "" or canonical decimals
    joined by commas is a ValueError, so no two keys name one member, and
    so is a key that names no member of the front."""
    from .fronts import _json_field, front_from_dict, front_member

    front = front_from_dict(data["front"])
    r = _json_field(data.get("r", 2), int, "'r'")
    if "rule" in data:
        rule = _json_field(data["rule"], str, "'rule'")
        return Coloring(front, named_coloring(rule), r,
                        data.get("name", rule))
    rows = _json_field(data["table"], dict, "'table'")
    table = {_table_key(key, "coloring"): _json_field(v, int,
                                                     f"color of {key!r}")
             for key, v in rows.items()}
    # canonical keys name distinct members, so rows and table align; an
    # unsorted key is refused before front_member raises its own error
    for key, s in zip(rows, table):
        if s != tuple(sorted(set(s))) or not front_member(front, s):
            raise ValueError(
                f"coloring table key {key!r} names no member of the front")
    default = data.get("default")
    if default is not None:
        default = _json_field(default, int, "'default'")

    def color(s: tuple) -> int:
        s = tuple(s)
        if s in table:
            return table[s]
        if default is None:
            raise MissingColor(f"no color for member {s}")
        return default

    return Coloring(front, color, r, data.get("name", "table"))


def _points_and_members(front, window: int):
    if isinstance(front, Front):
        return list(front.base.upto(window)), members_within(front, window)
    members = sorted(tuple(s) for s in front if not s or s[-1] < window)
    points = sorted({x for s in members for x in s})
    return points, members


@dataclass(frozen=True)
class ExtractReport:
    """Homogeneous window extraction: every member of the family realized
    inside Z carries the color `side`."""

    Z: tuple
    side: int
    window: int
    target: int
    exhaustive: bool
    members_checked: int
    witnesses: tuple          # ((member, color), ...) for members inside Z


def nw_extract(col: Coloring, window: int, target: int) -> ExtractReport:
    """Find the lexicographically least Z of the target size on which the
    2-coloring is one-sided; side 0 is preferred over side 1.

    A partial set is abandoned as soon as it contains a member of the
    wrong color.  Raises WindowExhausted when neither side admits a
    qualifying set within the window.

    One call lists every member below the window and colours each, in
    listing order, before it searches, so the first bad colour raises
    first.  On a uniform front [X]^k the search looks colours up by
    k-subset and the witnesses are the k-subsets of Z; on other fronts
    and raw families it indexes the members as bitmasks and filters them.
    """
    if col.r != 2:
        raise ValueError("extraction needs a 2-coloring")
    if target < 0:
        raise ValueError("extraction needs a target size >= 0")
    points, members = _points_and_members(col.front, window)
    colors = {}
    for s in members:
        c = int(col.color(s))
        if not 0 <= c < 2:
            raise ValueError(f"color {c} of member {s} out of range")
        colors[s] = c
    colours = family_colours(col.front, colors)
    for side in (0, 1):
        Z = next(iter(Homogeneous(points, colours, side, target)), None)
        if Z is not None:
            inside = (itertools.combinations(Z, col.front.schema.k)
                      if _uniform(col.front)
                      else filter(frozenset(Z).issuperset, members))
            witnesses = tuple((s, colors[s]) for s in inside)
            return ExtractReport(Z, side, window, target, True,
                                 len(members), witnesses)
    raise WindowExhausted(
        f"no one-sided set of size {target} below {window}")


# --- join nodes and the relation dichotomy ----------------------------------

def _successor(i: int) -> int:
    return i + 1


def join_nodes(front: Front, window: int,
               g: Callable[[int], int] = _successor) -> list:
    """Minimal witness prefixes determining a member and its g-shift member.

    Each returned triple (u, s, t) has s the unique member beginning u and
    t the unique member beginning the g-subsequence (u[g(0)], u[g(1)], ...)
    of u, at the first u where both resolve.  For the successor (the plain
    shift), t begins u minus its least entry and u is exactly the union of
    s and t, of length max(|s|, |t| + 1).  One depth-first walk over
    increasing tuples u carries for u and its g-subsequence the member
    resolved, or None while it is a proper prefix of a member, and drops a
    branch where either is neither.  g must be increasing and non-negative
    below the window, else ValueError.

    On a uniform [X]^k with k >= 1 one call lists, without a walk, every
    L-subset u of the window points in lexicographic order, L = max(k,
    g(k-1) + 1), with s = u[:k] and t = (u[g(0)], ..., u[g(k-1)]); it is
    empty when g(k-1) falls past the window.  On other fronts one call
    lists the window members and walks the tuples u that are prefixes of
    a member and whose g-subsequence is a prefix of one.
    """
    points = list(front.base.upto(window))
    picks: list = []            # g(0) < g(1) < ... below len(points)
    while (j := g(len(picks))) < len(points):
        if j < 0 or (picks and j <= picks[-1]):
            raise ValueError(f"g must be increasing and non-negative, but "
                             f"g({len(picks)}) = {j}")
        picks.append(j)
    if _uniform(front):
        # s is u[:k] and t is u at the first k picks, for every u of the
        # least length that holds both
        k = front.schema.k
        if len(picks) < k:
            return []
        us = list(itertools.combinations(points, max(k, picks[k - 1] + 1)))
        ts = zip(*(map(itemgetter(j), us) for j in picks[:k]))
        return list(zip(us, map(itemgetter(slice(k)), us), ts))
    # u and its g-subsequence hold window points only, so their member
    # prefixes are window members; state maps proper prefixes to None
    members = members_within(front, window)
    state = dict.fromkeys(s[:i] for s in members for i in range(len(s)))
    state.update((s, s) for s in members)
    pickset, last_pick = set(picks), picks[-1] if picks else -1
    out: list = []

    def rec(u: tuple, s, t, tu: tuple, start: int) -> None:
        grow = t is None and len(u) in pickset
        for i in range(start, len(points)):
            v = u + (points[i],)
            tv = tu + (points[i],) if grow else tu
            s2 = state.get(v, False) if s is None else s
            t2 = state.get(tv, False) if grow else t
            if s2 is False or t2 is False:
                continue
            if s2 is not None and t2 is not None:
                out.append((v, s2, t2))
            elif t2 is not None or len(v) <= last_pick:
                rec(v, s2, t2, tv, i + 1)

    if members:
        rec((), state[()], state[()], (), 0)
    return out


@dataclass(frozen=True)
class DichotomyReport:
    """On Z, the valuation is a homomorphism into the returned side: every
    shift-related member pair inside Z satisfies it."""

    Z: tuple
    side: str                  # relation name or name + "-complement"
    side_index: int            # 1 = relation holds, 0 = complement
    window: int
    joins_colored: int
    pairs_verified: int
    exhaustive: bool


def dichotomy_extract(phi: SuperSeq, R: Callable, window: int,
                      relation_name: str = "R") -> DichotomyReport:
    """Split the window by whether R holds one shift ahead, and return the
    largest Z on which one side is uniform: the lexicographically least
    such set, on the complement side (index 0) when both sides reach the
    largest size.

    One search over both sides finds the largest one-sided size L and the
    lexicographically least L-set with its side.  When that set is on the
    relation side, a second search asks only for an L-set on the
    complement side, and returns the first one it enters.  Every join node
    inside Z is then compared again; a relation that answers differently
    the second time raises InvariantViolated.
    """
    joins = join_nodes(phi.front, window)
    if not joins:
        raise WindowExhausted("no shift pair is determined within the window")
    cmap = {u: (1 if R(phi.value(s), phi.value(t)) else 0)
            for (u, s, t) in joins}
    points = sorted({x for u in cmap for x in u})
    colours = family_colours(phi.front, cmap)
    both = Homogeneous(points, colours)
    for _ in both:
        pass
    Z, side_index = both.best, 0
    if both.best_side == 1:
        Z0 = next(iter(Homogeneous(points, colours, 0, len(Z))), None)
        Z, side_index = (Z, 1) if Z0 is None else (Z0, 0)
    side = relation_name if side_index == 1 else f"{relation_name}-complement"
    inside = frozenset(Z)
    verified = 0
    for (u, s, t) in joins:
        if inside.issuperset(u):
            if (1 if R(phi.value(s), phi.value(t)) else 0) != side_index:
                raise InvariantViolated(
                    f"join node {u} is off side {side!r} when compared again")
            verified += 1
    return DichotomyReport(Z, side, side_index, window, len(joins), verified,
                           True)


# --- the pair-order embedding extraction ------------------------------------

@dataclass(frozen=True)
class StageReport:
    """One Ramsey filtering stage: the homogeneous set and its side."""

    ground: tuple
    homogeneous: tuple
    side: Optional[int]
    explored: int


@dataclass(frozen=True)
class LaverReport:
    """Successful two-stage extraction: on X, pair order and codomain order
    agree in both directions through the valuation."""

    X: tuple
    window: int
    triples: StageReport
    quadruples: StageReport
    pairs_checked: int


def _require_bad_pairs(f: SuperSeq, window: int, what: str) -> None:
    """Refuse f unless it is a pair-front sequence into a quasi-order and
    bad on the window."""
    if f.front.schema != UniformSchema(2):
        raise ValueError(f"{what} needs a pair front")
    if f.codomain is None:
        raise ValueError(f"{what} needs a quasi-order codomain")
    rep = badness_check(f, window)
    if not rep.bad_on_window:
        raise NotBadOnWindow(
            f"good pair {rep.good_witness} within {window}")


def laver_embed(f: SuperSeq, window: int, min_size: int = 4) -> LaverReport:
    """Extract X on which f embeds the two-clause pair order.

    Stage one makes comparisons f({i,j}) <= f({i,k}) uniform over triples;
    stage two makes f({i,j}) <= f({k,l}) uniform over quadruples; both must
    land on the holds-side (their failure to do so at adequate size is
    evidence of a bad sequence in the codomain and raises
    RamseyStageFailed).  The minimum of the surviving set is dropped and
    both directions of the embedding are verified on every pair over X.
    Each value is read once, through f.checked(), checked against the
    codomain then and compared raw after (see CodedQO).

    One call compares values along the badness scan and the two stages'
    searches, then every ordered pair of pairs over X, p-major, one row of
    codomain comparisons at a time against the pair order's row, which is
    built in closed form (see _pair_order_violations).
    """
    _require_bad_pairs(f, window, "embedding extraction")
    leq, value = f.codomain.raw_leq, f.checked().value

    def c3(tr: tuple) -> int:
        i, j, k = tr
        return 1 if leq(value((i, j)), value((i, k))) else 0

    def c4(qd: tuple) -> int:
        i, j, k, l = qd
        return 1 if leq(value((i, j)), value((k, l))) else 0

    def stage(ground: tuple, k: int, color) -> StageReport:
        search = Homogeneous(ground, _subset_colours(k, color), side=1,
                             budget=500_000)
        for _ in search:
            pass
        N = search.best
        return StageReport(ground, N, 1 if len(N) >= k else None,
                           search.explored)

    need = min_size + 1
    stage1 = stage(tuple(f.front.base.upto(window)), 3, c3)
    N1 = stage1.homogeneous
    if len(N1) < need:
        raise RamseyStageFailed(
            f"triple stage keeps only {len(N1)} points below {window}; "
            f"need {need} (comparisons refuse to hold along a large set)")
    stage2 = stage(N1, 4, c4)
    N2 = stage2.homogeneous
    if len(N2) < need:
        raise RamseyStageFailed(
            f"quadruple stage keeps only {len(N2)} points below {window}; "
            f"need {need}")
    X = tuple(N2[1:])
    pairs = list(itertools.combinations(X, 2))
    violations = _pair_order_violations(X, [value(p) for p in pairs], leq)
    if violations:
        raise EmbeddingCheckFailed(
            f"{len(violations)} pair comparisons disagree with the pair "
            f"order, first at {violations[0][:2]}", pairs=violations)
    return LaverReport(X, window, stage1, stage2, len(pairs) ** 2)


def _pair_order_violations(X: Sequence[int], vals: list, leq) -> list:
    """(p, q, p <= q in the pair order, leq(vals of p, q)) wherever the
    two disagree, over the pairs of X in lexicographic order with their
    values vals, p-major.  The row of p = (X[i], X[j]) in the pair order
    is two runs of the pair list, (X[i], X[j:]) and every pair past X[j];
    it is compared whole with the row of leq, called p-major, q-minor."""
    pairs = list(itertools.combinations(X, 2))
    # starts[i]: where the pairs beginning at X[i] start in pairs
    starts = list(itertools.accumulate(range(len(X) - 1, -1, -1), initial=0))
    violations: list = []
    ij = itertools.combinations(range(len(X)), 2)
    for (i, j), p, vp in zip(ij, pairs, vals):
        at, end, past = starts[i] + j - i - 1, starts[i + 1], starts[j + 1]
        left = ([False] * at + [True] * (end - at) + [False] * (past - end)
                + [True] * (len(pairs) - past))
        right = list(map(leq, itertools.repeat(vp), vals))
        if left != right:
            violations.extend((p, q, a, b) for q, a, b
                              in zip(pairs, left, right) if a != b)
    return violations


# --- witness conversions ----------------------------------------------------

@dataclass(frozen=True)
class PowersetSeqReport:
    """Window truncation of the set sequence P_m = values of the m-th row,
    with the per-pair witnesses that defeat domination."""

    window: int
    points: tuple
    sets: tuple                # sets[i] = values of the row at points[i]
    witnesses: tuple           # ((m, n, value), ...) for point pairs m < n
    truncated: bool
    all_confirmed: bool


def f2_to_powerset_badseq(f: SuperSeq, window: int) -> PowersetSeqReport:
    """Rows of a bad pair-indexed sequence as a domination-bad set sequence.

    P_m collects f({m, n}) over the window; for m < n the value f({m, n})
    lies in P_m but below nothing in P_n, defeating domination.  Sets are
    window truncations and flagged as such.
    """
    _require_bad_pairs(f, window, "row extraction")
    leq = f.codomain.leq
    points = list(f.front.base.upto(window))
    rows = [tuple(f.value((m, n)) for n in points[i + 1:])
            for i, m in enumerate(points[:-1])]
    witnesses = []
    confirmed = True
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            m, n = points[i], points[j]
            w = f.value((m, n))
            if any(leq(w, q) for q in rows[j]):
                confirmed = False
            else:
                witnesses.append((m, n, w))
    return PowersetSeqReport(window, tuple(points[:-1]), tuple(rows),
                             tuple(witnesses), True, confirmed)


def powerset_badseq_to_f2(Ps: Sequence, qo, window: Optional[int] = None
                          ) -> SuperSeq:
    """Choose least witnesses against domination and index them by pairs.

    Requires every P_m to contain, for each later P_n, an element below
    nothing in P_n (else NotBadPowersetSeq).  Witnesses are least under the
    carrier's canonical key, and the resulting pair-indexed law
    (m < n < l implies no comparison between the (m,n) and (n,l) picks) is
    re-verified on the window.
    """
    rows = [tuple(P) for P in Ps]
    n_rows = len(rows)
    bound = n_rows if window is None else min(window, n_rows)
    table: dict = {}
    for m in range(bound):
        for n in range(m + 1, bound):
            candidates = [q for q in rows[m]
                          if not any(qo.leq(q, p) for p in rows[n])]
            if not candidates:
                raise NotBadPowersetSeq(
                    f"row {m} is dominated by row {n}: no witness survives")
            table[(m, n)] = min(candidates, key=qo.key)
    for m in range(bound):
        for n in range(m + 1, bound):
            for l in range(n + 1, bound):
                if qo.leq(table[(m, n)], table[(n, l)]):
                    raise NotBadPowersetSeq(
                        f"witness law fails at {(m, n, l)}")

    def valuation(s: tuple):
        s = tuple(s)
        if s not in table:
            raise WindowExhausted(
                f"pair {s} lies beyond the verified window {bound}")
        return table[s]

    return SuperSeq(front=uniform_front(2, omega()), valuation=valuation,
                    codomain=qo, name="least-witnesses")
