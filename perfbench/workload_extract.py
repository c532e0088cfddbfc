"""extract: window searches with no rado codomain anywhere.

The cheap ops are homogeneous-set searches over seeded coloring tables
(finite_ramsey, nw_extract with targets at or one above the threshold, so
some end in WindowExhausted). The dear ops walk fronts: dichotomy_extract
and g_perfect_extract build join nodes through front_member and InfSet
contains/after chains, and tilde_build folds a Schreier front's tree. The
checks recompute every claim from the coloring table or valuation rule with
code of their own.
"""
from __future__ import annotations

import itertools
from math import comb

from bqo.errors import WindowExhausted
from bqo.games import tilde_build
from bqo.hset import Atom
from bqo.qo import OMEGA
from bqo.ramsey import (coloring_from_dict, dichotomy_extract, finite_ramsey,
                        nw_extract)
from bqo.shifts import g_perfect_extract, parse_inj
from bqo.superseq import superseq_from_dict

from common import OK, RAISED, grid, key_of

MODULES = ("bqo.ramsey", "bqo.shifts", "bqo.games", "bqo.superseq", "bqo.qo")
BUILDS_PARSER = False

# Shifts by the length of their join nodes on the pair front, max(2, g(1)+1),
# which sets the cost of g_perfect_extract; ops cycle through the profiles
# and the seed picks one shift of each length. Length 5 (affine:1,3) is left
# out: it costs three to eight times the others and would make the top of
# the latency distribution sparse.
_SHIFTS = {3: ("succ", "affine:2,0"), 4: ("affine:1,2", "affine:2,1")}
_SHIFT_PROFILES = ((3,), (4,), (3, 4))
_FIXTURES = {
    "dichotomy_span_u3": ({"schema": "uniform", "k": 3}, "span"),
    "dichotomy_min_schreier": ({"schema": "schreier"}, "min"),
    "gperfect_min_u2": ({"schema": "uniform", "k": 2}, "min"),
    "tilde_min_schreier": ({"schema": "schreier"}, "min"),
}


def _eq(a, b) -> bool:
    return a == b


_RELATIONS = {"leq": OMEGA.leq, "eq": _eq}


# --- brute force over subsets, shared by generation and checks -------------

def _sides(combo, k: int, colors: dict) -> set:
    """Colours a subset may be one-sided for: every colour when it holds no
    member, else the single colour all its members share, if any."""
    seen = {colors[s] for s in itertools.combinations(combo, k)}
    if not seen:
        return {0, 1}
    return seen if len(seen) == 1 else set()


def _first_one_sided(points, size: int, k: int, colors: dict, side: int):
    for combo in itertools.combinations(points, size):
        if side in _sides(combo, k, colors):
            return combo
    return None


def _threshold(points, k: int, colors: dict) -> int:
    """Largest size of a one-sided subset; subsets of a one-sided set are
    one-sided, so sizes are tried upwards until none qualifies."""
    size = 0
    while size < len(points) and any(
            _first_one_sided(points, size + 1, k, colors, side) is not None
            for side in (0, 1)):
        size += 1
    return size


# --- the pool ----------------------------------------------------------------

def _coloring_op(rng, kind: str, k: int, window: int) -> dict:
    colors = {s: rng.randint(0, 1)
              for s in itertools.combinations(range(window), k)}
    payload = {"front": {"schema": "uniform", "k": k, "base": "omega"},
               "table": {key_of(s): c for s, c in colors.items()}}
    op = {"kind": kind, "k": k, "window": window, "payload": payload,
          "colors": colors}
    if kind != "ramsey":
        top = _threshold(range(window), k, colors)
        op["target"] = min(window, top + rng.randint(0, 1))
    return op


def make_pool(rng, kinds: dict) -> list:
    ops = []
    for kind, spec in kinds.items():
        for i, window in enumerate(grid(spec["count"], *spec["windows"])):
            if kind in ("ramsey", "nw_u2", "nw_u3"):
                ops.append(_coloring_op(rng, kind, 3 if kind == "nw_u3" else 2,
                                        window))
                continue
            front, rule = _FIXTURES[kind]
            op = {"kind": kind, "window": window, "rule": rule,
                  "payload": {"front": dict(front, base="omega"),
                              "valuation": {"rule": rule}}}
            if kind.startswith("dichotomy"):
                op["relation"] = rng.choice(sorted(_RELATIONS))
            elif kind.startswith("gperfect"):
                op["shifts"] = [
                    rng.choice(_SHIFTS[length])
                    for length in _SHIFT_PROFILES[i % len(_SHIFT_PROFILES)]]
            ops.append(op)
    rng.shuffle(ops)
    return ops


def run(op):
    kind, window = op["kind"], op["window"]
    if kind == "ramsey":
        col = coloring_from_dict(op["payload"])
        return finite_ramsey(window, 2, 2, col.color)
    if kind.startswith("nw"):
        return nw_extract(coloring_from_dict(op["payload"]), window,
                          op["target"])
    f = superseq_from_dict(op["payload"], OMEGA)
    if kind.startswith("dichotomy"):
        name = op["relation"]
        return dichotomy_extract(f, _RELATIONS[name], window, name)
    if kind.startswith("gperfect"):
        return g_perfect_extract(f, [parse_inj(d) for d in op["shifts"]],
                                 window)
    return tilde_build(f, window)


def fingerprint(rep):
    if hasattr(rep, "table"):
        return len(rep.table), tuple(m for m, _ in rep.first_level)
    if hasattr(rep, "h_set"):
        return rep.Z, rep.checks_passed, rep.candidates_tried, rep.joins_colored
    if hasattr(rep, "side_index"):
        return rep.Z, rep.side, rep.joins_colored, rep.pairs_verified
    if hasattr(rep, "members_checked"):
        return rep.Z, rep.side, rep.witnesses
    return rep.Z, rep.color, rep.explored


# --- checks ------------------------------------------------------------------

def _check_ramsey(op, rep):
    n, colors = op["window"], op["colors"]
    Z = tuple(rep.Z)
    if len(Z) >= 2 and len(_sides(Z, 2, colors)) != 1:
        return f"{Z} is not homogeneous"
    if len(Z) >= 2 and rep.color not in _sides(Z, 2, colors):
        return f"{Z} is homogeneous in the other colour, not {rep.color}"
    bigger = any(_first_one_sided(range(n), len(Z) + 1, 2, colors, side)
                 for side in (0, 1))
    if bigger or not rep.exhaustive:
        return f"{Z} is not a largest homogeneous set below {n}"
    least = min(c for c in (_first_one_sided(range(n), len(Z), 2, colors, side)
                            for side in (0, 1)) if c is not None)
    if Z != least:
        return f"{Z} is not the least largest homogeneous set {least}"
    return None


def _check_nw(op, outcome):
    k, window, target, colors = op["k"], op["window"], op["target"], op["colors"]
    points = range(window)
    found = [_first_one_sided(points, target, k, colors, side)
             for side in (0, 1)]
    if outcome[0] == RAISED:
        if not isinstance(outcome[1], WindowExhausted):
            return f"nw_extract raised {outcome[1]!r}"
        if any(found):
            return f"WindowExhausted, yet {found} are one-sided"
        return None
    rep = outcome[1]
    side = 0 if found[0] is not None else 1
    if rep.Z != found[side] or rep.side != side:
        return f"Z {rep.Z} on side {rep.side}, expected {found[side]} on {side}"
    inside = tuple((s, colors[s]) for s in itertools.combinations(rep.Z, k))
    if sorted(rep.witnesses) != sorted(inside):
        return "witness list disagrees with the coloring table"
    return None


def _value(rule: str, s: tuple) -> int:
    return s[0] if rule == "min" else s[-1] - s[0]


def _shift_joins(kind: str, points) -> list:
    """Every (u, s, t): s the member beginning u, t the member beginning u
    minus its least entry, u their union."""
    points = tuple(points)
    if kind == "dichotomy_span_u3":
        return [(u, u[:3], u[1:]) for u in itertools.combinations(points, 4)]
    out = []  # Schreier: |s| = 1 + u0 and |t| = 1 + u1, so |u| = 2 + u1
    for a, b in itertools.combinations(points, 2):
        for rest in itertools.combinations([p for p in points if p > b], b):
            u = (a, b) + rest
            out.append((u, u[:1 + a], u[1:]))
    return out


def _check_dichotomy(op, rep):
    rule, name = op["rule"], op["relation"]
    joins = _shift_joins(op["kind"], range(op["window"]))
    if rep.joins_colored != len(joins):
        return f"{rep.joins_colored} joins coloured, expected {len(joins)}"
    inside = set(rep.Z)
    verified = 0
    for u, s, t in joins:
        if inside.issuperset(u):
            verified += 1
            holds = _RELATIONS[name](_value(rule, s), _value(rule, t))
            if int(holds) != rep.side_index:
                return f"join {u} inside {rep.Z} is on the other side"
    expected_side = name if rep.side_index == 1 else f"{name}-complement"
    if verified != rep.pairs_verified or rep.side != expected_side:
        return f"{rep.pairs_verified} pairs verified on {rep.side!r}, " \
               f"expected {verified} on {expected_side!r}"
    return None


def _affine(descriptor: str) -> tuple:
    if descriptor == "succ":
        return 1, 1
    a, b = descriptor.split(":", 1)[1].split(",")
    return int(a), int(b)


def _check_gperfect(op, rep):
    window, Z = op["window"], tuple(rep.Z)
    if not Z or list(Z) != sorted(set(Z)) or Z[-1] >= window:
        return f"{Z} is not an ascending subset of the window"
    if tuple(rep.h.values(len(Z))) != Z:
        return "h does not enumerate the witness set"
    # on the pair front a g-join is any ascending u of length
    # max(2, g(1) + 1): s = u[:2], t = (u[g(0)], u[g(1)])
    lengths = set()
    for d in op["shifts"]:
        a, b = _affine(d)
        length = max(2, a + b + 1)
        lengths.add(length)
        for u in itertools.combinations(Z, length):
            if not _value("min", u[:2]) <= _value("min", (u[b], u[a + b])):
                return f"g-join {u} inside {Z} is not monotone"
    joins = sum(comb(window, length) for length in lengths)
    if rep.joins_colored != joins or rep.checks_passed < 1:
        return f"{rep.joins_colored} joins coloured, expected {joins}"
    return None


def _fold(window: int, s: tuple = ()):
    """Schreier tree below the window folded into nested frozensets, with
    min as the member value; None when no member completes."""
    if s and len(s) == 1 + s[0]:
        return "atom", s[0]
    kids = frozenset(k for k in (_fold(window, s + (n,))
                                 for n in range(s[-1] + 1 if s else 0, window))
                     if k is not None)
    return ("set", kids) if kids else None


def _as_tree(h):
    if isinstance(h, Atom):
        return "atom", h.value
    return "set", frozenset(_as_tree(c) for c in h.children)


def _check_tilde(op, res):
    window = op["window"]
    levels = [(m, _fold(window, (m,))) for m in range(window)]
    levels = [(m, tree) for m, tree in levels if tree is not None]
    got = [(m, _as_tree(h)) for m, h in res.first_level]
    if got != levels:
        return "first-level sets disagree with the folded Schreier tree"
    if _as_tree(res.table[()]) != _fold(window):
        return "root set disagrees with the folded Schreier tree"
    return None


def check(op, outcome):
    kind = op["kind"]
    if kind.startswith("nw"):
        return _check_nw(op, outcome)
    status, rep = outcome
    if status != OK:
        return f"{kind} raised {rep!r}"
    if kind == "ramsey":
        return _check_ramsey(op, rep)
    if kind.startswith("dichotomy"):
        return _check_dichotomy(op, rep)
    if kind.startswith("gperfect"):
        return _check_gperfect(op, rep)
    return _check_tilde(op, rep)
