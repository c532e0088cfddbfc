"""scan: shift-pair badness diagnostics on pair and triple fronts.

Each op builds a super-sequence from a valuation dict and runs
badness_check on it. The bad half carries identity-style rado values
relabelled through a seeded increasing map, so every shift pair is compared
and rado_leq re-validates both pairs on each comparison. The good half stops
at a witness, so its cost is building and sorting every shift pair before
the scan.
"""
from __future__ import annotations

import itertools

from bqo.fronts import members_within, shift_rel, uniform_front
from bqo.qo import OMEGA, RADO, rado_leq
from bqo.superseq import badness_check, superseq_from_dict

from common import OK, grid, key_of

MODULES = ("bqo.superseq", "bqo.qo")
BUILDS_PARSER = False

_FRONT_K = {"bad_u2": 2, "good_u2": 2, "bad_u3": 3, "good_u3": 3, "span_u3": 3}
_PROJECTIONS = ((0, 1), (0, 2), (1, 2))
_GOLDEN = (5 ** 0.5 - 1) / 2


def _increasing_map(rng, size: int) -> list:
    out, x = [], rng.randint(0, 3)
    for _ in range(size):
        out.append(x)
        x += rng.randint(1, 4)
    return out


def _front(k: int) -> dict:
    return {"schema": "uniform", "k": k, "base": "omega"}


def _table_op(rng, kind: str, k: int, window: int, first: bool,
              depth: float) -> dict:
    phi = _increasing_map(rng, window)
    i, j = (0, 1) if k == 2 else rng.choice(_PROJECTIONS)
    values = {s: (phi[s[i]], phi[s[j]])
              for s in itertools.combinations(range(window), k)}
    if kind.startswith("good"):
        # t is a shift of s whose largest entry is `top`; f(t) = f(s). The
        # scan stops at t, so `top` sets the op's cost and comes from the
        # op's place in the pool, not from the seed
        top = k + int(depth * (window - k))
        s = tuple(sorted(rng.sample(range(top), k)))
        t = s[1:] + (top,)
        values[t] = values[s]
    payload = {"front": _front(k),
               "valuation": {"table": {key_of(s): list(v)
                                       for s, v in values.items()}}}
    return {"kind": kind, "k": k, "window": window, "payload": payload,
            "codomain": RADO, "values": values,
            "brute_force": kind.startswith("bad") and first}


def make_pool(rng, kinds: dict) -> list:
    ops = []
    for kind, spec in kinds.items():
        k = _FRONT_K[kind]
        for i, window in enumerate(grid(spec["count"], *spec["windows"])):
            if kind == "span_u3":
                ops.append({"kind": kind, "k": k, "window": window,
                            "payload": {"front": _front(k),
                                        "valuation": {"rule": "span"}},
                            "codomain": OMEGA, "values": None,
                            "brute_force": False})
            else:
                # depths spread over [0, 1) apart from the window grid
                depth = i * _GOLDEN % 1.0
                ops.append(_table_op(rng, kind, k, window, i == 0, depth))
    rng.shuffle(ops)
    return ops


def run(op):
    f = superseq_from_dict(op["payload"], op["codomain"])
    return badness_check(f, op["window"])


def fingerprint(rep):
    return rep.good_witness, rep.bad_on_window, rep.pairs_scanned


def _related_pairs(k: int, window: int) -> list:
    """Shift-related pairs of the uniform front [omega]^k below the window:
    t drops the least entry of s and adds one entry above max s."""
    return [(s, s[1:] + (x,))
            for s in itertools.combinations(range(window), k)
            for x in range(s[-1] + 1, window)]


def _brute_force_pairs(k: int, window: int) -> set:
    """Every ordered member pair that shift_rel relates: a full square."""
    members = members_within(uniform_front(k), window)
    return {(s, t) for s in members for t in members if shift_rel(s, t)}


def _rado(p, q) -> bool:
    return (p[0] == q[0] and p[1] <= q[1]) or p[1] < q[0]


def check(op, outcome):
    """Verdict, least witness and pair count against the shift pairs listed
    in closed form; the listing itself is checked against a brute-force
    shift_rel scan at each front's smallest window."""
    status, rep = outcome
    if status != OK:
        return f"badness_check raised {rep!r}"
    k, window, values = op["k"], op["window"], op["values"]
    pairs = _related_pairs(k, window)
    if op["brute_force"] and set(pairs) != _brute_force_pairs(k, window):
        return f"closed-form shift pairs disagree with shift_rel at {window}"
    if values is None:
        good = [(s, t) for s, t in pairs if s[-1] - s[0] <= t[-1] - t[0]]
    else:
        good = [(s, t) for s, t in pairs if _rado(values[s], values[t])]
    least = min(good, key=lambda st: (st[1][-1], st[0], st[1]), default=None)
    if rep.window != window or rep.pairs_scanned != len(pairs):
        return (f"scanned {rep.pairs_scanned} pairs at window {rep.window}, "
                f"expected {len(pairs)} at {window}")
    if rep.good_witness != least or rep.bad_on_window != (least is None):
        return f"witness {rep.good_witness}, expected {least}"
    if least is not None and values is not None:
        s, t = least
        if not rado_leq(values[s], values[t]):
            return f"checked rado_leq rejects the witness {least}"
    return None
