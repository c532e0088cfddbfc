"""The lifted powerset order as a two-player perfect-information game.

On hereditarily finite sets over a base quasi-order, position (X, Y) is
played as follows: Player I picks X' in X when X is a Node (X' = X when X
is an Atom), then Player II picks Y' in Y likewise.  When both picks are
atoms the game ends and II wins exactly when the base order puts X' below
Y'; otherwise play continues at (X', Y').  The lifted order sets X <= Y iff
II has a winning strategy.  Every game here is finite, hence determined,
and the solver returns the winner together with a winning strategy.

Unfolded, the order satisfies four clauses: atom/atom defers to the base
order; atom/node asks for some child of the node above the atom; node/atom
asks for every child below the atom; node/node asks that every child on
the left sit below some child on the right.  The node/atom clause is the
one most easily lost when the order is defined by formula rather than by
game, so an independent explicit game-tree search (game_leq_oracle) is
kept solely as a cross-check.  It alone recurses: the solver, its strategy
walks, strategy stringing and tilde_build keep explicit stacks, so sets
of any depth are played.

Strategy stringing chains the winning strategies of Player I along a bad
sequence: II's moves in each game are copied from I's moves in the next
game over, and the value produced is I's final move in the first game.
The converse construction (tilde_build) turns a map on a front into a
hereditarily finite set per start index by folding the front's tree.

Memo tables map positions to already-solved winners; entries are
idempotent, so concurrent queries that race on an entry recompute the same
value (dict writes are atomic).  All other operations are pure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (BadIndices, DomainError, EmptyTruncation, IllegalMove,
                     InsufficientPrefix, InvariantViolated, MixedBaseQO,
                     NotBad)
from .hset import Atom, HSet, Node, distinct_atoms, node


def _check_base(qo, *hs: HSet, seen: Optional[set] = None) -> None:
    """Check each distinct atom of hs against the carrier of qo once, set
    by set in canonical order, so an atom that hs share is checked once.
    Each distinct set is walked once; the sets in seen were walked by an
    earlier call, and their atoms are skipped."""
    for a in distinct_atoms(*hs, seen=seen):
        try:
            qo.check(a.value)
        except DomainError:
            raise MixedBaseQO(f"atom {a.value!r} is not in the carrier of "
                              "the base order") from None


def _moves(h: HSet) -> tuple:
    """Legal picks from one side: the children of a Node, or the atom itself."""
    return h.children if isinstance(h, Node) else (h,)


# --- solving ---------------------------------------------------------------

@dataclass(frozen=True)
class GameResult:
    """Outcome of solving one position: the winner and a winning strategy.

    The strategy maps each position where the winner is to move (pairs of
    HSets) to the chosen child; forced moves from an Atom side are omitted.
    """

    winner: str                 # "I" or "II"
    strategy: dict = field(compare=False)

    @property
    def ii_wins(self) -> bool:
        return self.winner == "II"


def _ii_wins(x: HSet, y: HSet, leq, memo: dict) -> bool:
    """Whether II wins at (x, y), with every position solved on the way
    recorded in memo.

    One loop over an explicit stack, so the depth of the sets is not bound
    by Python's recursion limit.  A position (X, Y) is decided as
    all(any(...)) over I's moves X' and II's replies Y' in canonical order,
    where an Atom side moves to itself and two atoms compare in the base
    order: the probe of (X', Y') reads memo first and is solved below on a
    miss; II's replies to one X' stop at the first win, and I's moves stop
    at the first X' that no reply answers.  A position is stored in memo
    once all its probes are done, so entries are added children first.
    """
    key = (x, y)
    res = memo.get(key)
    if res is not None:
        return res
    if x.__class__ is Atom and y.__class__ is Atom:
        res = memo[key] = bool(leq(x.value, y.value))
        return res
    stack = []      # (position, I's moves, II's moves, i, j) of open probes
    xs, ys = _moves(x), _moves(y)
    i = j = 0
    while True:
        xm, ym = probe = (xs[i], ys[j])
        res = memo.get(probe)
        if res is None:
            if xm.__class__ is Atom and ym.__class__ is Atom:
                res = memo[probe] = bool(leq(xm.value, ym.value))
            else:
                stack.append((key, xs, ys, i, j))
                key = probe
                xs = xm.children if xm.__class__ is Node else (xm,)
                ys = ym.children if ym.__class__ is Node else (ym,)
                i = j = 0
                continue
        # res answers probe (xs[i], ys[j]); close every position it decides
        while True:
            if res:             # II answers xs[i]: on to I's next move
                i += 1
                j = 0
                if i < len(xs):
                    break
            else:               # ys[j] loses: on to II's next reply
                j += 1
                if j < len(ys):
                    break
            memo[key] = res
            if not stack:
                return res
            key, xs, ys, i, j = stack.pop()


def _build_ii_strategy(x: HSet, y: HSet, leq, memo) -> dict:
    """II's winning strategy from (x, y): at each position reached under
    it, the first reply that wins against each move of I.  Positions are
    walked in preorder with an explicit stack; each probe reads memo,
    which the solve at (x, y) filled, and solves only on a miss.  One call
    walks each distinct position reached once, not each path to it."""
    strat: dict = {}
    visited = {(x, y)}
    stack = [(y, iter(_moves(x)))]
    while stack:
        y, xms = stack[-1]
        for xm in xms:
            if isinstance(y, Node):
                for ym in y.children:
                    win = memo.get((xm, ym))
                    if win is None:
                        win = _ii_wins(xm, ym, leq, memo)
                    if win:
                        break
                strat[(xm, y)] = ym
            else:
                ym = y
            if (not (isinstance(xm, Atom) and isinstance(ym, Atom))
                    and (xm, ym) not in visited):
                visited.add((xm, ym))
                stack.append((ym, iter(_moves(xm))))
                break
        else:
            stack.pop()
    return strat


def _build_i_strategy(x: HSet, y: HSet, leq, memo) -> dict:
    """I's winning strategy from (x, y): at each position reached under
    it, the first move that no reply of II answers.  Positions are walked
    in preorder with an explicit stack; each probe reads memo, which the
    solve at (x, y) filled, and solves only on a miss.  One call walks
    each distinct position reached once, not each path to it."""
    strat: dict = {}
    visited: set = set()
    stack: list = []

    def enter(x: HSet, y: HSet) -> None:
        visited.add((x, y))
        replies = _moves(y)
        for xm in _moves(x):
            for ym in replies:
                win = memo.get((xm, ym))
                if win is None:
                    win = _ii_wins(xm, ym, leq, memo)
                if win:
                    break
            else:
                break           # no reply answers xm
        if isinstance(x, Node):
            strat[(x, y)] = xm
        stack.append((xm, iter(replies)))

    enter(x, y)
    while stack:
        xm, yms = stack[-1]
        for ym in yms:
            if (not (isinstance(xm, Atom) and isinstance(ym, Atom))
                    and (xm, ym) not in visited):
                enter(xm, ym)
                break
        else:
            stack.pop()
    return strat


def game_leq(x: HSet, y: HSet, qo, memo: Optional[dict] = None) -> GameResult:
    """Solve the position (x, y) over the base order qo.

    Winner II means x <= y in the lifted order.  The optional memo dict may
    be shared across calls that use the same base order.  Each distinct
    atom of x and y is checked against the carrier once, up front, also
    when it occurs in both, and the atoms are then compared with the
    order's raw_leq.
    """
    _check_base(qo, x, y)
    memo = {} if memo is None else memo
    leq = qo.raw_leq
    if _ii_wins(x, y, leq, memo):
        return GameResult("II", _build_ii_strategy(x, y, leq, memo))
    return GameResult("I", _build_i_strategy(x, y, leq, memo))


def game_leq_oracle(x: HSet, y: HSet, qo) -> str:
    """Winner by literal game-tree search: no clause shortcuts, no memo.

    Exists solely as an independent cross-check of game_leq.
    """
    _check_base(qo, x, y)

    def i_wins(a: HSet, b: HSet) -> bool:
        for am in _moves(a):
            survives = True
            for bm in _moves(b):
                if isinstance(am, Atom) and isinstance(bm, Atom):
                    if qo.leq(am.value, bm.value):
                        survives = False
                        break
                elif not i_wins(am, bm):
                    survives = False
                    break
            if survives:
                return True
        return False

    return "I" if i_wins(x, y) else "II"


# --- replay ----------------------------------------------------------------

@dataclass(frozen=True)
class PlayTranscript:
    """One complete play: the move pairs per round, ending at a base
    comparison that decides the winner."""

    rounds: tuple               # ((x_move, y_move), ...)
    winner: str
    final: tuple                # (x atom value, y atom value)
    comparison: bool            # base order holds between the final values


def _consult(strategy, position, side: Node, who: str) -> HSet:
    if callable(strategy):
        mv = strategy(position)
    else:
        try:
            mv = strategy[position]
        except KeyError:
            raise IllegalMove(
                f"player {who} has no move recorded at {position!r}") from None
    if mv not in side.children:
        raise IllegalMove(
            f"player {who} chose {mv!r}, not a child of {side!r}")
    return mv


def game_play(x: HSet, y: HSet, strat_I, strat_II, qo) -> PlayTranscript:
    """Replay one play of the game with the given strategies.

    Strategies are dicts or callables from positions to moves; they are
    consulted only when the mover's side is a Node (atom moves are forced).
    Player I sees positions (X, Y); Player II sees (X', Y) after I's move.
    """
    _check_base(qo, x, y)
    rounds = []
    A, B = x, y
    while True:
        a = A if isinstance(A, Atom) else _consult(strat_I, (A, B), A, "I")
        b = B if isinstance(B, Atom) else _consult(strat_II, (a, B), B, "II")
        rounds.append((a, b))
        if isinstance(a, Atom) and isinstance(b, Atom):
            comparison = bool(qo.leq(a.value, b.value))
            return PlayTranscript(tuple(rounds),
                                  "II" if comparison else "I",
                                  (a.value, b.value), comparison)
        A, B = a, b


# --- strategy stringing -----------------------------------------------------

@dataclass
class StrungMultiSeq:
    """Multi-sequence built by chaining Player I's winning strategies.

    Calling it on a strictly increasing index tuple (a prefix of an
    imagined infinite index set) returns (value, modulus): the base-order
    value of I's last move in the first chained game, and how many leading
    indices were consumed.  The value depends only on that many indices.
    """

    xs: tuple
    qo: object
    window: int
    _strategies: dict = field(repr=False)

    def __call__(self, prefix) -> tuple:
        """(value, modulus) at prefix.  One call plays a single line of
        moves in each chained game it opens, and I's side drops a level
        with each move, so the game over x ends within depth(x) + 1 moves:
        the cost follows the depths of the sets played, not their number
        of positions."""
        prefix = tuple(prefix)
        for i, v in enumerate(prefix):
            if (not isinstance(v, int) or isinstance(v, bool)
                    or not 0 <= v < self.window):
                raise BadIndices(
                    f"index {v!r} outside [0, {self.window})")
            if i and prefix[i - 1] >= v:
                raise BadIndices("index tuple must be strictly increasing")
        consumed = 0

        def x_at(j: int) -> HSet:
            nonlocal consumed
            if j >= len(prefix):
                raise InsufficientPrefix(
                    f"chained play needs index position {j}, but only "
                    f"{len(prefix)} indices were supplied")
            consumed = max(consumed, j + 1)
            return self.xs[prefix[j]]

        def move(j: int, A: HSet, B: HSet) -> HSet:
            """Player I's move at (A, B) in the j-th chained game."""
            if isinstance(A, Atom):
                return A
            return self._strategies[(prefix[j], prefix[j + 1])][(A, B)]

        def advance(j: int, b: HSet) -> HSet:
            """Play II's reply b in the j-th game; I's next move there."""
            _, _, a = games[j]
            games[j] = (a, b, move(j, a, b))
            return games[j][2]

        # games[j] is the j-th chained game's position and I's last move
        # there, which doubles as II's next reply in game j - 1.  Game j
        # starts when game j - 1 first needs a reply from it; the first
        # game ends at a pair of atoms.
        A, B = x_at(0), x_at(1)
        games = [(A, B, move(0, A, B))]
        while True:
            j = 0       # the deepest game whose reply is not settled yet
            while isinstance(games[j][1], Node) and j + 1 < len(games):
                j += 1
            if isinstance(games[j][1], Atom):
                reply = games[j][1]
            else:
                A, B = x_at(j + 1), x_at(j + 2)
                reply = move(j + 1, A, B)
                games.append((A, B, reply))
            for i in range(j, 0, -1):
                reply = advance(i, reply)
            a, b = games[0][2], reply
            if isinstance(a, Atom) and isinstance(b, Atom):
                break
            advance(0, b)
        if self.qo.leq(a.value, b.value):
            raise InvariantViolated(
                "a winning strategy for I reached a comparison favorable "
                "to II")
        return a.value, consumed


class _Strategies(dict):
    """I's winning strategies by index pair (m, k), each built from the
    shared solver memo the first time a call plays the pair."""

    def __init__(self, xs: tuple, leq, memo: dict):
        super().__init__()
        self.xs, self.leq, self.memo = xs, leq, memo

    def __missing__(self, pair: tuple) -> dict:
        m, k = pair
        strat = self[pair] = _build_i_strategy(self.xs[m], self.xs[k],
                                                self.leq, self.memo)
        return strat


def string_strategies(xs, qo, window: Optional[int] = None) -> StrungMultiSeq:
    """Verify badness of xs below the window and chain I's strategies.

    Solves every pair m < n < window up front (raising NotBad on any
    II-win) and returns the multi-sequence function.  Each set is checked
    against the carrier when a pair first uses it, as game_leq would check
    it, and each distinct atom once.  I's strategy for a pair is built
    from the shared memo when a call first plays that pair, so one call
    builds at most len(prefix) - 1 of them.
    """
    xs = tuple(xs)
    n = len(xs) if window is None else min(window, len(xs))
    leq = qo.raw_leq
    memo: dict = {}
    seen: set = set()
    checked = 0                 # xs[:checked] lie in the carrier
    for m in range(n):
        for k in range(m + 1, n):
            while checked <= k:
                _check_base(qo, xs[checked], seen=seen)
                checked += 1
            if _ii_wins(xs[m], xs[k], leq, memo):
                raise NotBad(
                    f"position ({m}, {k}) is a II-win; stringing requires "
                    "a bad sequence")
    return StrungMultiSeq(xs, qo, n, _Strategies(xs, leq, memo))


# --- folding a front map into hereditarily finite sets ----------------------

@dataclass(frozen=True, eq=False)
class TildeResult:
    """Windowed fold of a front valuation into hereditarily finite sets.

    table maps each surviving tree node to its HSet: members become atoms
    wrapping their value, interior nodes become the set of their surviving
    children.  Branches whose members do not complete within the window
    are pruned, so the fold is a window approximation: a larger window can
    only add children.  first_level lists (m, HSet) for the surviving
    singleton nodes in ascending order.
    """

    window: int
    table: dict
    first_level: tuple


def tilde_build(f, window: int) -> TildeResult:
    """Fold the valuation f on its front into one HSet per tree node.

    One call walks each member within the window once and each distinct
    prefix of one once, building one node() per prefix that is not a
    member; it never walks the sets it builds, so equal subtrees, which
    interning shares, cost nothing more.  Raises EmptyTruncation when not
    a single member completes within the window (entries are drawn below
    the exclusive bound).
    """
    from .fronts import members_within
    F = f.front
    members = members_within(F, window)
    if not members:
        raise EmptyTruncation(
            f"no member of the front completes with entries below {window}")
    table: dict = {}
    stack: list = []    # (prefix, its depth, its groups left, children so far)

    def start(group: list, depth: int) -> Optional[HSet]:
        """The HSet of the node that the members in group (sorted,
        nonempty) share as their prefix of length depth, when that node is
        a member; otherwise open the node on the stack and return None."""
        s = group[0][:depth]
        if len(group[0]) == depth:   # prefix-free: s is the group's member
            table[s] = h = Atom(f.value(s))
            return h
        stack.append((s, depth, itertools.groupby(
            group, key=operator.itemgetter(depth)), []))
        return None

    start(members, 0)
    while stack:
        s, depth, groups, kids = stack[-1]
        for _, group in groups:
            h = start(list(group), depth + 1)
            if h is None:       # a child opened: it closes before the next
                break
            kids.append(h)
        else:
            stack.pop()
            table[s] = h = node(kids)
            if stack:
                stack[-1][3].append(h)
    first = tuple((m, table[(m,)])
                  for m in F.base.upto(window) if (m,) in table)
    return TildeResult(window, table, first)
