"""games: independent comparison-game queries.

Each op parses two s-expressions and solves the position with game_leq and
a fresh memo, as `bqo game solve` does, so node construction and
canonical-key sorting (the writes) sit in the same timed op as hashing and
memo reads (the solve). The s-expression texts are generated here, not by
the program, so every commit sees the same inputs.
"""
from __future__ import annotations

from bqo.games import game_leq, game_leq_oracle
from bqo.hset import parse_sexpr
from bqo.qo import RADO, resolve_qo

from common import OK

MODULES = ("bqo.games", "bqo.hset", "bqo.qo")
BUILDS_PARSER = False

_CHAIN = resolve_qo("chain:3")


def _atom(label) -> str:
    return f'(atom "{label}")'


def _node(children) -> str:
    return "(set " + " ".join(children) + ")"


def _chain_sets(atoms: int, depth: int) -> list:
    """Every hereditary set of depth <= `depth` over atoms 0..atoms-1, as
    text; depth 2 over three atoms gives 1026 sets."""
    layer = [_atom(a) for a in range(atoms)]
    for _ in range(depth):
        n = len(layer)
        layer = [_atom(a) for a in range(atoms)] + [
            _node(layer[i] for i in range(n) if mask >> i & 1)
            for mask in range(1, 1 << n)]
    # the last layer lists each set once: nodes over distinct subsets of the
    # previous layer, which itself lists each set once
    return layer


def _random_rado_set(rng, pairs, depth: int, branch: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        m, n = rng.choice(pairs)
        return _atom(f"{{{m},{n}}}")
    return _node(_random_rado_set(rng, pairs, depth - 1, branch)
                 for _ in range(rng.randint(1, branch)))


def make_pool(rng, kinds: dict) -> list:
    spec = kinds["chain_d2"]
    sets = _chain_sets(spec["atoms"], spec["depth"])
    ops = [("chain", rng.choice(sets), rng.choice(sets))
           for _ in range(spec["count"])]
    spec = kinds["rado_d3"]
    below = spec["below"]
    pairs = [(m, n) for m in range(below) for n in range(m + 1, below)]
    for _ in range(spec["count"]):
        x, y = (_random_rado_set(rng, pairs, spec["depth"], spec["branch"])
                for _ in range(2))
        ops.append(("rado", x, y))
    rng.shuffle(ops)
    return ops


def _order(kind: str):
    return (_CHAIN, int) if kind == "chain" else (RADO, RADO.parse)


def run(op):
    kind, x_text, y_text = op
    qo, parse_atom = _order(kind)
    x = parse_sexpr(x_text, parse_atom)
    y = parse_sexpr(y_text, parse_atom)
    res = game_leq(x, y, qo, {})
    return x, y, res.winner, len(res.strategy)


def fingerprint(result):
    return result[2:]


def check(op, outcome):
    """The winner against the memo-free game-tree oracle."""
    status, result = outcome
    if status != OK:
        return f"game raised {result!r}"
    x, y, winner, _ = result
    qo, _ = _order(op[0])
    expected = game_leq_oracle(x, y, qo)
    if winner != expected:
        return f"game_leq says {winner}, the oracle says {expected}"
    return None
