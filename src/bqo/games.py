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
kept solely as a cross-check.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (BadIndices, DomainError, EmptyTruncation, IllegalMove,
                     InsufficientPrefix, InvariantViolated, MixedBaseQO,
                     NotBad)
from .fronts import members_within
from .hset import Atom, HSet, Node, iter_atoms, node


def _check_base(h: HSet, qo, seen: Optional[set] = None) -> None:
    atoms = dict.fromkeys(iter_atoms(h))
    if seen is not None:        # atoms checked before are skipped
        atoms = [a for a in atoms if a not in seen]
        seen.update(atoms)
    for a in atoms:
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


def game_leq(x: HSet, y: HSet, qo, memo: Optional[dict] = None) -> GameResult:
    """Solve the position (x, y) over the base order qo.

    Winner II means x <= y in the lifted order.  The optional memo dict may
    be shared across calls that use the same base order.  Each distinct
    atom is checked against the carrier once, up front, and the atoms are
    then compared with the order's raw_leq.
    """
    _check_base(x, qo)
    _check_base(y, qo)
    return _solve(x, y, qo, {} if memo is None else memo)


def _solve(x: HSet, y: HSet, qo, memo: dict) -> GameResult:
    """game_leq on a position whose atoms are known to be in the carrier."""
    leq = qo.raw_leq
    strat: dict = {}
    visited: set = set()
    if _ii_wins(x, y, leq, memo):
        _build_ii_strategy(x, y, leq, memo, strat, visited)
        return GameResult("II", strat)
    _build_i_strategy(x, y, leq, memo, strat, visited)
    return GameResult("I", strat)


def game_leq_oracle(x: HSet, y: HSet, qo) -> str:
    """Winner by literal game-tree search: no clause shortcuts, no memo.

    Exists solely as an independent cross-check of game_leq.
    """
    _check_base(x, qo)
    _check_base(y, qo)

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
    _check_base(x, qo)
    _check_base(y, qo)
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
        prefix = tuple(prefix)
        for i, v in enumerate(prefix):
            if not isinstance(v, int) or not 0 <= v < self.window:
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

        def i_move_stream(j: int):
            # Successive moves of Player I in the j-th chained game; they
            # double as Player II's moves in the (j-1)-th game.  The first
            # game returns its final pair of atoms.
            A, B = x_at(j), x_at(j + 1)
            child = None
            while True:
                if isinstance(A, Atom):
                    a = A
                else:
                    a = self._strategies[(prefix[j], prefix[j + 1])][(A, B)]
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
        if self.qo.leq(a.value, b.value):
            raise InvariantViolated(
                "a winning strategy for I reached a comparison favorable "
                "to II")
        return a.value, consumed


def string_strategies(xs, qo, window: Optional[int] = None) -> StrungMultiSeq:
    """Verify badness of xs below the window and chain I's strategies.

    Solves every pair m < n < window up front (raising NotBad on any
    II-win) and returns the multi-sequence function.  Each set is checked
    against the carrier when a pair first uses it, as game_leq would check
    it, and each distinct atom once.
    """
    xs = tuple(xs)
    n = len(xs) if window is None else min(window, len(xs))
    strategies = {}
    memo: dict = {}
    seen: set = set()
    checked = 0                 # xs[:checked] lie in the carrier
    for m in range(n):
        for k in range(m + 1, n):
            while checked <= k:
                _check_base(xs[checked], qo, seen)
                checked += 1
            res = _solve(xs[m], xs[k], qo, memo)
            if res.winner != "I":
                raise NotBad(
                    f"position ({m}, {k}) is a II-win; stringing requires "
                    "a bad sequence")
            strategies[(m, k)] = res.strategy
    return StrungMultiSeq(xs, qo, n, strategies)


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

    Raises EmptyTruncation when not a single member completes within the
    window (entries are drawn below the exclusive bound).
    """
    F = f.front
    members = members_within(F, window)
    if not members:
        raise EmptyTruncation(
            f"no member of the front completes with entries below {window}")
    table: dict = {}

    def fold(group: list, depth: int) -> HSet:
        """HSet of the node that the members in group (sorted, nonempty)
        share as their prefix of length depth."""
        s = group[0][:depth]
        if len(group[0]) == depth:   # prefix-free: s is the group's member
            h: HSet = Atom(f.value(s))
        else:
            h = node([fold(list(kids), depth + 1) for _, kids in
                      itertools.groupby(group, key=lambda m: m[depth])])
        table[s] = h
        return h

    fold(members, 0)
    first = tuple((m, table[(m,)])
                  for m in F.base.upto(window) if (m,) in table)
    return TildeResult(window, table, first)
