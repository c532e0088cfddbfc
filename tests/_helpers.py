"""Shared fixtures and little oracles for the test suite."""
from __future__ import annotations

import bisect
import functools
import itertools

import bqo.fronts
import bqo.ramsey
from bqo.errors import (InsufficientPrefix, InvariantViolated,
                        NoMemberWithinBound, NotInBase, WindowExhausted)
from bqo.fronts import (
    StepResult,
    UniformSchema,
    members_within,
    ray,
    schreier_front,
    seq_front,
    trivial_front,
    uniform_front,
)
from bqo.games import _moves
from bqo.hset import Atom, HSet, Node, node
from bqo.ordinal import OrdinalCNF
from bqo.qo import RADO, FiniteQO
from bqo.ramsey import (DichotomyReport, ExtractReport, Homogeneous,
                        _points_and_members, largest,
                        member_colours)
from bqo.streams import evens, parse_base
from bqo.superseq import SpareReport, _search_bound


def enumerate_preorders(n: int) -> list[FiniteQO]:
    """All preorders on the labelled carrier 0..n-1, by brute filtering of
    the 2^(n*(n-1)) reflexive relations for transitivity."""
    out = []
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(off_diag)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(off_diag):
            if mask >> b & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(n):
            ri = rows[i]
            r = ri
            for j in range(n):
                if ri >> j & 1:
                    r |= rows[j]
            if r != ri:
                ok = False
                break
        if ok:
            out.append(FiniteQO(range(n), rows))
    return out


def subsets(iterable):
    xs = list(iterable)
    for r in range(len(xs) + 1):
        yield from itertools.combinations(xs, r)


def shift_witness_oracle(s, t, bound: int = 9) -> bool:
    """Brute-force witness semantics for the shift relation: some infinite X
    has s as an initial segment while t begins X minus its least element.
    Only the first max(|s|, |t|+1, 1) entries of X are constrained, so
    enumerating increasing prefixes below the bound decides it."""
    s, t = tuple(s), tuple(t)
    length = max(len(s), len(t) + 1, 1)
    for u in itertools.combinations(range(bound), length):
        if u[:len(s)] == s and u[1:1 + len(t)] == t:
            return True
    return False


def shift_pairs_reference(members) -> list:
    """Shift pairs listed per member by an index scan, independently of
    witness-order generation: for each s, the members that are initial
    segments of s2 = s minus min, then the members extending s2 with all
    new entries above max s."""
    members = [tuple(m) for m in members]
    member_set = set(members)
    by_prefix: dict = {}
    for t in members:
        for cut in range(len(t) + 1):
            by_prefix.setdefault(t[:cut], []).append(t)
    pairs = []
    for s in members:
        if not s:
            if () in member_set:
                pairs.append(((), ()))
            continue
        s2 = s[1:]
        seen = set()
        for cut in range(len(s2) + 1):
            t = s2[:cut]
            if t in member_set and t not in seen:
                seen.add(t)
                pairs.append((s, t))
        for t in by_prefix.get(s2, ()):
            if t in seen:
                continue
            if all(v > s[-1] for v in t[len(s2):]):
                seen.add(t)
                pairs.append((s, t))
    return pairs


def segment_violation_reference(members):
    """The first member in sorted order that has a proper initial segment
    in the family, with that segment, by slicing every prefix of every
    member; None for a segment-free family."""
    members = sorted(tuple(m) for m in members)
    member_set = set(members)
    for t in members:
        for cut in range(len(t)):
            if t[:cut] in member_set:
                return t[:cut], t
    return None


def front_step_reference(F, Y) -> StepResult:
    """front_step by one ray per entry of Y until the residual front is
    trivial, each entry checked against the residual base first; kept as
    the reference for the closed form on a residual uniform front. The
    ceiling is read from bqo.fronts at each call."""
    member: list = []
    cur = F
    while not cur.schema.trivial:
        if len(member) >= bqo.fronts._STEP_CEILING:
            raise NoMemberWithinBound(
                f"consumed {len(member)} elements without completing a member")
        v = Y.nth(len(member))
        if not cur.base.contains(v):
            raise NotInBase(f"element {v} of the argument is outside the base")
        member.append(v)
        cur = ray(cur, v)
    return StepResult(member=tuple(member), modulus=len(member))


def join_nodes_reference(front, window: int, g=lambda i: i + 1) -> list:
    """Join nodes by an unpruned walk over every increasing tuple u of
    window points, slicing each prefix of u and of its g-subsequence and
    looking it up in the member set; kept as the reference for join_nodes.
    g must be increasing, or the walk never starts."""
    points = list(front.base.upto(window))
    picks: list = []
    while (j := g(len(picks))) < len(points):
        picks.append(j)
    out: list = []
    members = set(members_within(front, window))

    def member_prefix(u: tuple):
        for i in range(len(u) + 1):
            if u[:i] in members:
                return u[:i]
        return None

    def g_sub(u: tuple) -> tuple:
        return tuple(map(u.__getitem__,
                         picks[:bisect.bisect_left(picks, len(u))]))

    def rec(u: tuple, start: int) -> None:
        if u:
            s = member_prefix(u)
            t = member_prefix(g_sub(u))
            if s is not None and t is not None:
                out.append((u, s, t))
                return
        for i in range(start, len(points)):
            rec(u + (points[i],), i + 1)

    rec((), 0)
    return out


def nw_extract_reference(col, window: int, target: int) -> ExtractReport:
    """nw_extract with the colours of every family, uniform or not, read
    from member_colours' bitmask index, and the witnesses filtered from
    the members; kept as the reference for the closed form on uniform
    fronts."""
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
    colours = member_colours(colors)
    for side in (0, 1):
        Z = next(iter(Homogeneous(points, colours, side, target)), None)
        if Z is not None:
            inside = frozenset(Z)
            witnesses = tuple((s, colors[s]) for s in members
                              if frozenset(s) <= inside)
            return ExtractReport(Z, side, window, target, True,
                                 len(members), witnesses)
    raise WindowExhausted(
        f"no one-sided set of size {target} below {window}")


def member_colours_path(monkeypatch) -> None:
    """Send bqo.ramsey's join nodes through join_nodes_reference and its
    family colourings through member_colours' bitmask index, on every
    front: the path a uniform front took before its closed forms, for
    the extractions that look both up in bqo.ramsey at call time."""
    monkeypatch.setattr(bqo.ramsey, "join_nodes", join_nodes_reference)
    monkeypatch.setattr(bqo.ramsey, "family_colours",
                        lambda front, colour_of: member_colours(colour_of))


def pair_order_violations_reference(X, vals, leq) -> list:
    """The pair-order check of laver_embed by one RADO.raw_leq and one leq
    per ordered pair of pairs over X, p-major; kept as the reference for
    the rows built in closed form."""
    pairs = list(itertools.combinations(X, 2))
    return [(p, q, left, right)
            for p, vp in zip(pairs, vals) for q, vq in zip(pairs, vals)
            if (left := RADO.raw_leq(p, q)) != (right := leq(vp, vq))]


def dichotomy_extract_reference(phi, R, window: int,
                                relation_name: str = "R"):
    """dichotomy_extract by two full largest-set searches, one per side,
    the relation side taken only when strictly larger; kept as the
    reference for the one search over both sides. Join nodes come from
    the unpruned walk and colours from member_colours on every front."""
    joins = join_nodes_reference(phi.front, window)
    if not joins:
        raise WindowExhausted("no shift pair is determined within the window")
    cmap = {u: (1 if R(phi.value(s), phi.value(t)) else 0)
            for (u, s, t) in joins}
    points = sorted({x for u in cmap for x in u})
    colours = member_colours(cmap)
    Z, side_index = largest(points, colours, 0), 0
    Z1 = largest(points, colours, 1)
    if len(Z1) > len(Z):
        Z, side_index = Z1, 1
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


def spare_check_reference(f, bound: int):
    """spare_check scanning the whole search pool for every member and
    proper prefix; kept as the reference for the scan over sorted runs."""
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


def witness_key(pair) -> tuple:
    """Witness order on shift pairs: largest entry, then s, then t."""
    s, t = pair
    both = s + t
    return (max(both) if both else -1, s, t)


# (front, bound) by name, for differential tests of shift-pair scans. The
# sequence front mixes member lengths 2 to 4, so some partners t are
# initial segments of s minus its least entry. The uniform fronts cover
# k = 1 to 4 on three bases; u3-lone has one member and no shift pair.
SHIFT_PAIR_FRONTS = {
    "u1": (uniform_front(1), 10),
    "u2": (uniform_front(2), 10),
    "u3": (uniform_front(3), 8),
    "schreier": (schreier_front(), 8),
    "seq": (seq_front({0: UniformSchema(1), 3: UniformSchema(3)},
                      UniformSchema(2), OrdinalCNF.natural(4)), 9),
    "trivial": (trivial_front(), 4),
    "u2-evens": (uniform_front(2, evens()), 12),
    "u4": (uniform_front(4), 8),
    "u3-prefix": (uniform_front(3, parse_base("prefix:0,2+arith:5,3")), 20),
    "u3-lone": (uniform_front(3), 3),
}


# the front kinds and bases of the shift-pair differential tests: each kind
# by name, built on a given base; the sequence node is SHIFT_PAIR_FRONTS'
# "seq" front
FRONT_KINDS = {
    "u0": functools.partial(uniform_front, 0),
    "u1": functools.partial(uniform_front, 1),
    "u2": functools.partial(uniform_front, 2),
    "u3": functools.partial(uniform_front, 3),
    "trivial": trivial_front,
    "schreier": schreier_front,
    "seq": functools.partial(seq_front, {0: UniformSchema(1),
                                         3: UniformSchema(3)},
                             UniformSchema(2), OrdinalCNF.natural(4)),
}
FRONT_BASES = ("omega", "evens", "odds", "prefix:0,2,3+arith:5,3")


def _tokenize_reference(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ValueError("unterminated string literal")
            tokens.append(('str', "".join(buf)))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(('sym', text[i:j]))
            i = j
    return tokens


def parse_sexpr_reference(text: str, parse_atom=lambda s: s):
    """The s-expression parser as a character-by-character tokenizer and a
    recursive descent, kept as the reference for parse_sexpr: same trees,
    same ValueError messages."""
    return _parse_reference(text, parse_atom, many=False)


def parse_sexprs_reference(text: str, parse_atom=lambda s: s) -> list:
    """parse_sexpr_reference on every expression of text, in order: the
    reference for parse_sexprs."""
    return _parse_reference(text, parse_atom, many=True)


def _parse_reference(text: str, parse_atom, many: bool):
    tokens = _tokenize_reference(text)
    pos = 0

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise ValueError(f"expected {tok!r} at token {pos}")
        pos += 1

    def parse_one():
        nonlocal pos
        expect("(")
        if pos >= len(tokens) or not isinstance(tokens[pos], tuple):
            raise ValueError("expected 'atom' or 'set' head")
        kind, word = tokens[pos]
        if kind != 'sym' or word not in ("atom", "set"):
            raise ValueError(f"expected 'atom' or 'set', got {word!r}")
        pos += 1
        if word == "atom":
            if pos >= len(tokens) or not isinstance(tokens[pos], tuple):
                raise ValueError("atom requires a label")
            label = tokens[pos][1]
            pos += 1
            expect(")")
            return Atom(parse_atom(label))
        children = []
        while pos < len(tokens) and tokens[pos] == "(":
            children.append(parse_one())
        expect(")")
        if not children:
            raise ValueError("set requires at least one element")
        return node(children)

    out = [parse_one()]
    while many and pos < len(tokens):
        out.append(parse_one())
    if pos != len(tokens):
        raise ValueError("trailing input after s-expression")
    return out if many else out[0]


# --- the recursive game solver, kept as the reference for bqo.games --------

def _ii_wins(x: HSet, y: HSet, leq, memo: dict) -> bool:
    key = (x, y)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(x, Atom) and isinstance(y, Atom):
        res = bool(leq(x.value, y.value))
    elif isinstance(x, Atom):
        res = any(_ii_wins(x, yc, leq, memo) for yc in y.children)
    elif isinstance(y, Atom):
        res = all(_ii_wins(xc, y, leq, memo) for xc in x.children)
    else:
        res = all(any(_ii_wins(xc, yc, leq, memo) for yc in y.children)
                  for xc in x.children)
    memo[key] = res
    return res


def _build_ii_strategy(x: HSet, y: HSet, leq, memo, strat, visited) -> None:
    if (x, y) in visited:
        return
    visited.add((x, y))
    for xm in _moves(x):
        if isinstance(y, Node):
            ym = next(yc for yc in y.children if _ii_wins(xm, yc, leq, memo))
            strat[(xm, y)] = ym
        else:
            ym = y
        if not (isinstance(xm, Atom) and isinstance(ym, Atom)):
            _build_ii_strategy(xm, ym, leq, memo, strat, visited)


def _build_i_strategy(x: HSet, y: HSet, leq, memo, strat, visited) -> None:
    if (x, y) in visited:
        return
    visited.add((x, y))
    replies = _moves(y)
    xm = next(xc for xc in _moves(x)
              if all(not _ii_wins(xc, ym, leq, memo) for ym in replies))
    if isinstance(x, Node):
        strat[(x, y)] = xm
    for ym in replies:
        if not (isinstance(xm, Atom) and isinstance(ym, Atom)):
            _build_i_strategy(xm, ym, leq, memo, strat, visited)


def solve_reference(x: HSet, y: HSet, leq, memo: dict) -> tuple:
    """(winner, strategy) by the recursive solver and strategy walks that
    bqo.games replaced with explicit stacks; fills memo as they did."""
    strat: dict = {}
    if _ii_wins(x, y, leq, memo):
        _build_ii_strategy(x, y, leq, memo, strat, set())
        return "II", strat
    _build_i_strategy(x, y, leq, memo, strat, set())
    return "I", strat


def strung_call_reference(strung, prefix) -> tuple:
    """StrungMultiSeq.__call__ on a valid index tuple, by the chained
    generators (one per game, each pulling the next) that bqo.games
    replaced with an explicit loop: (value, modulus), raising whatever
    the chain raises."""
    prefix = tuple(prefix)
    consumed = 0

    def x_at(j: int) -> HSet:
        nonlocal consumed
        if j >= len(prefix):
            raise InsufficientPrefix(
                f"chained play needs index position {j}, but only "
                f"{len(prefix)} indices were supplied")
        consumed = max(consumed, j + 1)
        return strung.xs[prefix[j]]

    def i_move_stream(j: int):
        A, B = x_at(j), x_at(j + 1)
        child = None
        while True:
            if isinstance(A, Atom):
                a = A
            else:
                a = strung._strategies[(prefix[j], prefix[j + 1])][(A, B)]
            yield a
            if isinstance(B, Atom):
                b = B
            else:
                if child is None:
                    child = i_move_stream(j + 1)
                b = next(child)
            if j == 0 and isinstance(a, Atom) and isinstance(b, Atom):
                return a, b
            A, B = a, b

    first = i_move_stream(0)
    try:
        while True:
            next(first)
    except StopIteration as end:
        a, b = end.value
    return a.value, consumed


def tilde_table_reference(f, window: int) -> dict:
    """tilde_build's table by the recursive fold that bqo.games replaced
    with an explicit stack: same entries, same insertion order."""
    table: dict = {}

    def fold(group: list, depth: int) -> HSet:
        s = group[0][:depth]
        if len(group[0]) == depth:
            h: HSet = Atom(f.value(s))
        else:
            h = node([fold(list(kids), depth + 1) for _, kids in
                      itertools.groupby(group, key=lambda m: m[depth])])
        table[s] = h
        return h

    fold(members_within(f.front, window), 0)
    return table


def decode_table_reference(table_raw: dict) -> dict:
    """A valuation table decoded entry by entry: same members, values, and
    first error. A key is "" or naturals written without leading zeros in
    ASCII digits, joined by commas; any other key is refused."""
    table = {}
    for key, v in table_raw.items():
        parts = key.split(",") if isinstance(key, str) and key else []
        if not (key == "" or parts and all(
                p == "0" or p[:1] in "123456789" and p.isascii()
                and p.isdigit() for p in parts)):
            raise ValueError(
                f"valuation table key {key!r} is not canonical: write \"\" "
                f"or naturals without leading zeros joined by commas")
        s = tuple(map(int, parts))
        if isinstance(v, list):
            v = tuple(v)
        try:
            hash(v)
        except TypeError:
            raise TypeError(f"valuation table value for {key!r} is not "
                            f"hashable: {v!r}") from None
        table[s] = v
    return table
