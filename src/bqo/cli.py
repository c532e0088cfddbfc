"""Command-line front end: one subcommand per library entry point.

Exit codes: 0 on success, 1 when a checked mathematical precondition fails
(any :class:`~bqo.errors.DomainError`), 2 on usage errors (unknown
subcommands, malformed flags or descriptors, unreadable input files).

Output is either human-readable ``key: value`` lines (``--format text``,
the default) or a canonical JSON report (``--format json``).  JSON output
is byte-identical across runs for the same invocation: keys are sorted and
every report carries ``report_version``, the subcommand, and the window
and seed it was produced under.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional

from . import __version__
from .errors import DomainError
from .fronts import (Front, front_from_dict, front_member, front_step,
                     front_to_dict, front_verify, members_within, rank, ray,
                     restrict, schreier_front, trivial_front, uniform_front)
from .games import (game_leq, game_play, string_strategies, tilde_build)
from .hset import (Atom, Node, canon_key, depth, hset_to_sexpr, node,
                   parse_sexpr, supp)
from .qo import (CodedQO, FiniteQO, RADO, derived_relations, product_qo,
                 qo_validate, rado_antichain_witness, resolve_qo,
                 sum_along_poset)
from .ramsey import (Coloring, coloring_from_dict, dichotomy_extract,
                     finite_ramsey, laver_embed, named_coloring, nw_extract)
from .shifts import (compose, critical_point, g_perfect_extract, orbit_map,
                     parse_inj, rho, sigma)
from .streams import parse_base
from .superseq import (SuperSeq, badness_check, eval_up, named_valuation,
                       perfect_check, spare_check, sparsify,
                       superseq_from_dict)

REPORT_VERSION = 1

SUBCOMMANDS = {
    "qo": ("validate", "relations", "product", "sum"),
    "rado": ("witness", "demo"),
    "front": ("member", "step", "ray", "restrict", "rank", "verify"),
    "seq": ("eval", "spare", "sparsify", "bad", "perfect"),
    "game": ("solve", "play", "supp", "string", "tilde"),
    "extract": ("ramsey", "nw", "dichotomy", "laver"),
    "shift": ("rho", "sigma", "critical", "orbit", "perfect"),
}


class CliUsageError(Exception):
    """Bad flags, unknown subcommands, unreadable or malformed inputs."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit."""

    def error(self, message):  # noqa: A003 - argparse API
        raise CliUsageError(message)


def _subcommand_listing() -> str:
    lines = ["valid subcommands:"]
    for group, cmds in SUBCOMMANDS.items():
        lines.append(f"  {group}: {', '.join(cmds)}")
    return "\n".join(lines)


# --- serialization ----------------------------------------------------------

def _plain(x: Any) -> Any:
    """Render report values with only JSON-native types, deterministically."""
    if isinstance(x, (Atom, Node)):
        return hset_to_sexpr(x)
    if isinstance(x, dict):
        return {str(k) if not isinstance(k, str) else k: _plain(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_plain(v) for v in x), key=repr)
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    return str(x)


def _text_value(v: Any) -> str:
    v = _plain(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _emit(args, command: str, payload: dict, text_lines: Optional[list] = None):
    if args.format == "json":
        envelope = {"report_version": REPORT_VERSION, "command": command,
                    "window": args.window, "seed": args.seed}
        envelope.update({k: _plain(v) for k, v in payload.items()})
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        if text_lines is None:
            text_lines = [f"{k}: {_text_value(v)}" for k, v in payload.items()]
        for line in text_lines:
            print(line)


# --- shared input helpers ---------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path} is not valid JSON: {exc}") from exc


def _qo_from_data(data: dict) -> FiniteQO:
    try:
        elements = data["elements"]
        pairs = [tuple(p) for p in data["pairs"]]
    except (KeyError, TypeError) as exc:
        raise CliUsageError(
            "order file needs 'elements' and 'pairs' keys") from exc
    elements = [tuple(e) if isinstance(e, list) else e for e in elements]
    pairs = [tuple(tuple(x) if isinstance(x, list) else x for x in p)
             for p in pairs]
    return qo_validate(elements, pairs)


def _resolve_order(name: str):
    try:
        return resolve_qo(name)
    except (ValueError, KeyError) as exc:
        raise CliUsageError(f"unknown base order {name!r}: {exc}") from exc


def _parse_element(q, text: str):
    """Parse one carrier element from the command line."""
    if isinstance(q, CodedQO) and q.parse is not None:
        try:
            return q.parse(text)
        except (ValueError, TypeError) as exc:
            raise CliUsageError(
                f"cannot parse {text!r} as a {q.name} element") from exc
    try:
        return int(text)
    except ValueError:
        return text


def _parse_base_arg(descriptor: str):
    try:
        return parse_base(descriptor)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliUsageError(
            f"bad infinite-set descriptor {descriptor!r}: {exc}") from exc


def _front_from_args(args) -> Front:
    if getattr(args, "front_file", None):
        return front_from_dict(_load_json(args.front_file))
    schema = getattr(args, "schema", None)
    if schema is None:
        raise CliUsageError("need --schema or --front-file")
    base = _parse_base_arg(getattr(args, "base", None) or "omega")
    if schema == "trivial":
        return trivial_front(base)
    if schema == "schreier":
        return schreier_front(base)
    if schema == "uniform":
        k = getattr(args, "k", None)
        if k is None:
            raise CliUsageError("--schema uniform needs --k")
        return uniform_front(k, base)
    raise CliUsageError(
        f"unknown schema {schema!r}: expected trivial, uniform, or schreier")


# Named super-sequence fixtures: "<rule>@<front>" with a default codomain
# per rule, overridable with --codomain.
_FIXTURE_CODOMAIN = {"identity": "rado", "min": "omega-leq",
                     "span": "omega-leq", "minmod2": "antichain:2"}


def _front_from_token(token: str) -> Front:
    token = token.strip()
    if token == "schreier":
        return schreier_front()
    if token == "trivial":
        return trivial_front()
    if token.startswith("u") and token[1:].isdigit():
        return uniform_front(int(token[1:]))
    if token.startswith("uniform:"):
        return uniform_front(int(token.split(":", 1)[1]))
    raise CliUsageError(
        f"unknown front token {token!r}: expected uN, uniform:N, "
        "schreier, or trivial")


def _superseq_from_args(args) -> SuperSeq:
    codomain_name = getattr(args, "codomain", None)
    if getattr(args, "file", None):
        data = _load_json(args.file)
        codomain = _resolve_order(codomain_name) if codomain_name else None
        try:
            return superseq_from_dict(data, codomain)
        except (KeyError, TypeError) as exc:
            raise CliUsageError(f"malformed sequence file: {exc}") from exc
    fixture = getattr(args, "fixture", None)
    if not fixture:
        raise CliUsageError("need --fixture RULE@FRONT or --file PATH")
    if "@" not in fixture:
        raise CliUsageError(
            f"fixture {fixture!r} must look like RULE@FRONT, e.g. identity@u2")
    rule, front_token = fixture.split("@", 1)
    front = _front_from_token(front_token)
    try:
        val = named_valuation(rule)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    default = _FIXTURE_CODOMAIN.get(rule.split(":", 1)[0], "omega-leq")
    codomain = _resolve_order(codomain_name or default)
    return SuperSeq(front=front, valuation=val, codomain=codomain,
                    name=fixture)


def _parse_prefix(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-", "()"):
        return ()
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError as exc:
        raise CliUsageError(
            f"expected comma-separated integers, got {text!r}") from exc


def _atom_parser(q) -> Callable[[str], Any]:
    if isinstance(q, CodedQO) and q.parse is not None:
        return q.parse
    return lambda t: int(t)


def _atom_fmt(q) -> Callable[[Any], str]:
    if isinstance(q, CodedQO) and q.fmt is not None:
        return q.fmt
    return str


def _split_sexprs(text: str) -> list:
    """Split concatenated s-expressions at top-level parenthesis depth."""
    out, buf, level = [], [], 0
    for ch in text:
        if ch.isspace() and level == 0:
            if buf:
                out.append("".join(buf))
                buf = []
            continue
        buf.append(ch)
        if ch == "(":
            level += 1
        elif ch == ")":
            level -= 1
            if level == 0:
                out.append("".join(buf))
                buf = []
    if buf:
        out.append("".join(buf))
    return out


def _read_hsets(args, count: int) -> list:
    """Read `count` hereditary sets from argv or, when 'x' is '-', stdin."""
    q = _resolve_order(args.qo)
    parse_atom = _atom_parser(q)
    if args.x == "-":
        texts = _split_sexprs(sys.stdin.read())
        if len(texts) < count:
            raise CliUsageError(
                f"expected {count} s-expressions on stdin, got {len(texts)}")
        texts = texts[:count]
    else:
        texts = [args.x, args.y][:count]
        if any(t is None for t in texts):
            raise CliUsageError(f"expected {count} s-expression arguments")
    try:
        return [parse_sexpr(t, parse_atom) for t in texts], q
    except (ValueError, TypeError) as exc:
        raise CliUsageError(f"cannot parse s-expression: {exc}") from exc


def _coloring_from_args(args) -> Coloring:
    if getattr(args, "coloring", None):
        data = _load_json(args.coloring)
        try:
            return coloring_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliUsageError(f"malformed coloring file: {exc}") from exc
    front = _front_from_args(args)
    rule = getattr(args, "rule", None) or "sum-parity"
    try:
        color = named_coloring(rule)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    return Coloring(front=front, color=color, name=rule)


# --- qo group ---------------------------------------------------------------

def _cmd_qo_validate(args):
    data = _load_json(args.path)
    q = _qo_from_data(data)
    n_pairs = sum(1 for a in q.elements for b in q.elements if q.leq(a, b))
    payload = {"valid": True, "elements": len(q.elements),
               "leq_pairs": n_pairs}
    return payload, [f"valid: true ({len(q.elements)} elements, "
                     f"{n_pairs} related pairs)"]


def _cmd_qo_relations(args):
    q = (_qo_from_data(_load_json(args.file)) if args.file
         else _resolve_order(args.qo))
    a = _parse_element(q, args.a)
    b = _parse_element(q, args.b)
    rec = derived_relations(q, a, b)
    payload = {"a": a, "b": b, "leq": rec.leq, "geq": rec.geq,
               "equiv": rec.equiv, "strict": rec.strict,
               "incomparable": rec.incomparable}
    return payload, None


def _cmd_qo_product(args):
    P = _qo_from_data(_load_json(args.left))
    Q = _qo_from_data(_load_json(args.right))
    R = product_qo(P, Q)
    n_pairs = sum(1 for a in R.elements for b in R.elements if R.leq(a, b))
    payload = {"elements": len(R.elements), "leq_pairs": n_pairs,
               "carrier": list(R.elements)}
    return payload, [f"product: {len(R.elements)} elements, "
                     f"{n_pairs} related pairs"]


def _cmd_qo_sum(args):
    data = _load_json(args.path)
    try:
        index = _qo_from_data(data["index"])
        parts = data["parts"]
    except KeyError as exc:
        raise CliUsageError(
            "sum file needs 'index' and 'parts' keys") from exc
    family = {}
    for e in index.elements:
        key = str(e)
        if key not in parts:
            raise CliUsageError(f"no part for index element {key!r}")
        family[e] = _qo_from_data(parts[key])
    R = sum_along_poset(index, family)
    n_pairs = sum(1 for a in R.elements for b in R.elements if R.leq(a, b))
    payload = {"elements": len(R.elements), "leq_pairs": n_pairs,
               "carrier": list(R.elements)}
    return payload, [f"sum: {len(R.elements)} elements, "
                     f"{n_pairs} related pairs"]


# --- rado group -------------------------------------------------------------

def _cmd_rado_witness(args):
    rep = rado_antichain_witness(args.m, args.n)
    payload = {"pair": list(rep.pair), "generator_witness":
               list(rep.generator_witness), "scan_bound": rep.scan_bound,
               "in_lower_downset": rep.in_lower_downset,
               "in_upper_downset": rep.in_upper_downset}
    m, n = rep.pair
    w = rep.generator_witness
    return payload, [
        f"pair ({m},{n}) vs ({n},?): witness {w} lies below ({m},{n}) "
        f"but below no ({n},k) with k <= {rep.scan_bound}",
        f"in_lower_downset: {_text_value(rep.in_lower_downset)}",
        f"in_upper_downset: {_text_value(rep.in_upper_downset)}",
    ]


def _cmd_rado_demo(args):
    bound = args.window
    pairs = [(m, n) for m in range(bound) for n in range(m + 1, bound)]
    confirmed = 0
    sample = None
    for m, n in pairs:
        rep = rado_antichain_witness(m, n)
        if rep.in_lower_downset and not rep.in_upper_downset:
            confirmed += 1
            if sample is None:
                sample = rep
    payload = {"pairs_checked": len(pairs), "confirmed": confirmed,
               "all_confirmed": confirmed == len(pairs),
               "sample_witness": list(sample.generator_witness)
               if sample else None}
    return payload, [
        f"window: {bound}",
        f"checked {len(pairs)} generator pairs, {confirmed} antichain "
        "witnesses confirmed",
        f"all_confirmed: {_text_value(confirmed == len(pairs))}"]


# --- front group ------------------------------------------------------------

def _front_payload(F: Front) -> dict:
    return front_to_dict(F)


def _cmd_front_member(args):
    F = _front_from_args(args)
    s = _parse_prefix(args.entries)
    ok = front_member(F, s)
    payload = {"front": _front_payload(F), "entries": list(s), "member": ok}
    return payload, [f"member: {_text_value(ok)}"]


def _cmd_front_step(args):
    F = _front_from_args(args)
    Y = _parse_base_arg(args.at)
    res = front_step(F, Y)
    payload = {"front": _front_payload(F), "at": args.at,
               "member": list(res.member), "modulus": res.modulus}
    return payload, [f"member: {list(res.member)}",
                     f"modulus: {res.modulus}"]


def _cmd_front_ray(args):
    F = _front_from_args(args)
    R = ray(F, args.n)
    payload = {"front": _front_payload(F), "n": args.n,
               "ray": _front_payload(R), "ray_rank": str(rank(R))}
    return payload, [f"ray: {json.dumps(_front_payload(R), sort_keys=True)}",
                     f"ray_rank: {rank(R)}"]


def _cmd_front_restrict(args):
    F = _front_from_args(args)
    Z = _parse_base_arg(args.to)
    R = restrict(F, Z)
    payload = {"front": _front_payload(F), "to": args.to,
               "restricted": _front_payload(R)}
    return payload, [
        f"restricted: {json.dumps(_front_payload(R), sort_keys=True)}"]


def _cmd_front_rank(args):
    F = _front_from_args(args)
    r = rank(F)
    payload = {"front": _front_payload(F), "rank": str(r)}
    return payload, [str(r)]


def _cmd_front_verify(args):
    if getattr(args, "family", None):
        data = _load_json(args.family)
        try:
            F = [tuple(m) for m in data["members"]]
        except (KeyError, TypeError) as exc:
            raise CliUsageError(
                "family file needs a 'members' list") from exc
    else:
        F = _front_from_args(args)
    descriptors = [d for d in (args.samples or "omega;evens;odds").split(";")
                   if d.strip()]
    try:
        samples = [parse_base(d.strip()) for d in descriptors]
    except (ValueError, KeyError) as exc:
        raise CliUsageError(f"bad sample descriptor: {exc}") from exc
    rep = front_verify(F, samples, args.window)
    payload = {"base_ok": rep.base_ok, "segment_free": rep.segment_free,
               "segment_violation": rep.segment_violation,
               "density": [{"sample": p.sample,
                            "member": list(p.member) if p.member else None,
                            "modulus": p.modulus, "error": p.error}
                           for p in rep.density],
               "passed": rep.passed}
    lines = [f"window: {rep.window}",
             f"base_ok: {_text_value(rep.base_ok)}",
             f"segment_free: {_text_value(rep.segment_free)}"]
    for p in rep.density:
        if p.error:
            lines.append(f"  {p.sample}: {p.error}")
        else:
            lines.append(f"  {p.sample}: member {list(p.member)} "
                         f"at modulus {p.modulus}")
    lines.append(f"passed: {_text_value(rep.passed)}")
    return payload, lines


# --- seq group --------------------------------------------------------------

def _cmd_seq_eval(args):
    f = _superseq_from_args(args)
    Y = _parse_base_arg(args.at)
    res = eval_up(f, Y)
    payload = {"sequence": f.name, "at": args.at, "value": res.value,
               "member": list(res.member), "modulus": res.modulus}
    return payload, [f"value: {_text_value(res.value)}",
                     f"member: {list(res.member)}",
                     f"modulus: {res.modulus}"]


def _cmd_seq_spare(args):
    f = _superseq_from_args(args)
    rep = spare_check(f, args.window)
    payload = {"sequence": f.name, "search_bound": rep.search_bound,
               "holds": rep.holds,
               "failure": list(rep.failure) if rep.failure else None}
    return payload, [f"window: {rep.window}",
                     f"holds: {_text_value(rep.holds)}",
                     f"failure: {_text_value(payload['failure'])}"]


def _cmd_seq_sparsify(args):
    f = _superseq_from_args(args)
    out = sparsify(f, args.window)
    values = {",".join(map(str, s)): out.value(s)
              for s in members_within(out.front, args.window)}
    payload = {"sequence": f.name, "result": out.name,
               "front": _front_payload(out.front), "values": values}
    lines = [f"result: {out.name}",
             f"front: {json.dumps(_front_payload(out.front), sort_keys=True)}"]
    for k in sorted(values, key=lambda t: tuple(map(int, t.split(",")))):
        lines.append(f"  f({k}) = {_text_value(values[k])}")
    return payload, lines


def _cmd_seq_bad(args):
    f = _superseq_from_args(args)
    rep = badness_check(f, args.window)
    payload = {"sequence": f.name,
               "good_witness": [list(rep.good_witness[0]),
                                list(rep.good_witness[1])]
               if rep.good_witness else None,
               "bad_on_window": rep.bad_on_window,
               "pairs_scanned": rep.pairs_scanned}
    return payload, [f"window: {rep.window}",
                     f"bad_on_window: {_text_value(rep.bad_on_window)}",
                     f"good_witness: {_text_value(payload['good_witness'])}",
                     f"pairs_scanned: {rep.pairs_scanned}"]


def _cmd_seq_perfect(args):
    f = _superseq_from_args(args)
    if f.codomain is None:
        raise CliUsageError("perfect needs a codomain order; pass --codomain")
    if args.relation == "eq":
        R = lambda a, b: a == b  # noqa: E731
    else:
        R = f.codomain.leq
    rep = perfect_check(f, R, args.window)
    payload = {"sequence": f.name, "relation": args.relation,
               "holds": rep.holds,
               "violation": [list(rep.violation[0]), list(rep.violation[1])]
               if rep.violation else None,
               "pairs_scanned": rep.pairs_scanned}
    return payload, [f"window: {rep.window}",
                     f"holds: {_text_value(rep.holds)}",
                     f"violation: {_text_value(payload['violation'])}",
                     f"pairs_scanned: {rep.pairs_scanned}"]


# --- game group -------------------------------------------------------------

def _cmd_game_solve(args):
    (x, y), q = _read_hsets(args, 2)
    fmt = _atom_fmt(q)
    res = game_leq(x, y, q)
    payload = {"x": hset_to_sexpr(x, fmt), "y": hset_to_sexpr(y, fmt),
               "qo": args.qo, "winner": res.winner, "ii_wins": res.ii_wins,
               "strategy_size": len(res.strategy)}
    return payload, [f"winner: {res.winner}",
                     f"ii_wins: {_text_value(res.ii_wins)}"]


def _least_child_I(position):
    return min(position[0].children, key=canon_key)


def _least_child_II(position):
    return min(position[1].children, key=canon_key)


def _cmd_game_play(args):
    (x, y), q = _read_hsets(args, 2)
    fmt = _atom_fmt(q)
    res = game_leq(x, y, q)
    if res.winner == "II":
        strat_I, strat_II = _least_child_I, res.strategy
    else:
        strat_I, strat_II = res.strategy, _least_child_II
    t = game_play(x, y, strat_I, strat_II, q)
    payload = {"x": hset_to_sexpr(x, fmt), "y": hset_to_sexpr(y, fmt),
               "qo": args.qo, "solved_winner": res.winner,
               "play_winner": t.winner,
               "rounds": [[hset_to_sexpr(a, fmt), hset_to_sexpr(b, fmt)]
                          for a, b in t.rounds],
               "final": [fmt(v) for v in t.final], "comparison": t.comparison}
    lines = []
    for i, (a, b) in enumerate(t.rounds):
        lines.append(f"round {i}: I plays {hset_to_sexpr(a, fmt)}, "
                     f"II plays {hset_to_sexpr(b, fmt)}")
    lines.append(f"final atoms: {fmt(t.final[0])} vs {fmt(t.final[1])} "
                 f"(comparison: {_text_value(t.comparison)})")
    lines.append(f"winner: {t.winner}")
    return payload, lines


def _cmd_game_supp(args):
    q = _resolve_order(args.qo)
    fmt = _atom_fmt(q)
    try:
        x = parse_sexpr(args.x, _atom_parser(q))
    except (ValueError, TypeError) as exc:
        raise CliUsageError(f"cannot parse s-expression: {exc}") from exc
    atoms = sorted(supp(x), key=repr)
    payload = {"x": hset_to_sexpr(x, fmt), "qo": args.qo, "depth": depth(x),
               "support": [fmt(v) for v in atoms]}
    return payload, [f"depth: {depth(x)}",
                     f"support: {', '.join(fmt(v) for v in atoms)}"]


def _rado_powerset_sequence(window: int) -> list:
    """X_m = the set of pairs (m, n) for m < n <= window."""
    return [node(Atom((m, n)) for n in range(m + 1, window + 1))
            for m in range(window)]


def _cmd_game_string(args):
    xs = _rado_powerset_sequence(args.window)
    g = string_strategies(xs, RADO, args.window)
    prefix = _parse_prefix(args.at) if args.at else tuple(
        range(min(args.window, 8)))
    value, modulus = g(prefix)
    payload = {"prefix": list(prefix), "value": value, "modulus": modulus}
    return payload, [f"prefix: {list(prefix)}",
                     f"value: {RADO.fmt(value)}",
                     f"modulus: {modulus}"]


def _cmd_game_tilde(args):
    f = _superseq_from_args(args)
    fmt = _atom_fmt(f.codomain) if f.codomain is not None else str
    res = tilde_build(f, args.window)
    payload = {"sequence": f.name, "table_size": len(res.table),
               "first_level": [[m, hset_to_sexpr(h, fmt)]
                               for m, h in res.first_level]}
    lines = [f"window: {res.window}", f"table_size: {len(res.table)}"]
    for m, h in res.first_level:
        lines.append(f"  level-1 at {m}: {hset_to_sexpr(h, fmt)}")
    return payload, lines


# --- extract group ----------------------------------------------------------

def _cmd_extract_ramsey(args):
    try:
        color = named_coloring(args.rule)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    rep = finite_ramsey(args.n, args.k, args.r, color, target=args.target,
                        exhaustive=args.exhaustive, budget=args.budget)
    payload = {"ground": rep.window, "k": rep.k, "colors": rep.r,
               "rule": args.rule, "target": rep.target,
               "homogeneous_set": list(rep.Z), "color": rep.color,
               "size": len(rep.Z), "exhaustive": rep.exhaustive,
               "explored": rep.explored}
    return payload, [
        f"homogeneous set of size {len(rep.Z)} in color {rep.color}: "
        f"{list(rep.Z)}",
        f"exhaustive: {_text_value(rep.exhaustive)} "
        f"(explored {rep.explored} nodes)"]


def _cmd_extract_nw(args):
    col = _coloring_from_args(args)
    rep = nw_extract(col, args.window, args.target)
    payload = {"coloring": col.name, "target": rep.target,
               "homogeneous_set": list(rep.Z), "side": rep.side,
               "members_checked": rep.members_checked,
               "exhaustive": rep.exhaustive,
               "witnesses": [[list(m), c] for m, c in rep.witnesses]}
    lines = [f"window: {rep.window}",
             f"homogeneous set: {list(rep.Z)} (side {rep.side})",
             f"members checked: {rep.members_checked}"]
    for m, c in rep.witnesses:
        lines.append(f"  member {list(m)} -> color {c}")
    return payload, lines


def _cmd_extract_dichotomy(args):
    f = _superseq_from_args(args)
    if f.codomain is None:
        raise CliUsageError(
            "dichotomy needs a codomain order; pass --codomain")
    if args.relation == "eq":
        R, name = (lambda a, b: a == b), "eq"
    else:
        R, name = f.codomain.leq, "leq"
    rep = dichotomy_extract(f, R, args.window, relation_name=name)
    payload = {"sequence": f.name, "relation": name,
               "set": list(rep.Z), "side": rep.side,
               "side_index": rep.side_index,
               "joins_colored": rep.joins_colored,
               "pairs_verified": rep.pairs_verified,
               "exhaustive": rep.exhaustive}
    return payload, [
        f"window: {rep.window}",
        f"set: {list(rep.Z)} lands on side {rep.side!r}",
        f"joins colored: {rep.joins_colored}, pairs verified: "
        f"{rep.pairs_verified}"]


def _cmd_extract_laver(args):
    f = _superseq_from_args(args)
    rep = laver_embed(f, args.window, min_size=args.min_size)
    payload = {"sequence": f.name, "set": list(rep.X),
               "triples": {"ground": len(rep.triples.ground),
                           "homogeneous": list(rep.triples.homogeneous),
                           "side": rep.triples.side},
               "quadruples": {"ground": len(rep.quadruples.ground),
                              "homogeneous": list(rep.quadruples.homogeneous),
                              "side": rep.quadruples.side},
               "pairs_checked": rep.pairs_checked}
    return payload, [
        f"window: {rep.window}",
        f"monotone set: {list(rep.X)}",
        f"triple stage: {len(rep.triples.homogeneous)} of "
        f"{len(rep.triples.ground)} points on side {rep.triples.side}",
        f"quadruple stage: {len(rep.quadruples.homogeneous)} of "
        f"{len(rep.quadruples.ground)} points on side {rep.quadruples.side}",
        f"pairs checked both directions: {rep.pairs_checked}"]


# --- shift group ------------------------------------------------------------

def _parse_inj_arg(text: str):
    try:
        return parse_inj(text)
    except (ValueError, KeyError) as exc:
        raise CliUsageError(f"bad injection descriptor {text!r}: {exc}") from exc


def _cmd_shift_rho(args):
    f = _parse_inj_arg(args.f)
    g = _parse_inj_arg(args.g)
    r = rho(f, g, probe=max(args.window, 64))
    n = args.window
    values = r.values(n)
    composed = rho(compose(f, g), g, probe=max(args.window, 64))
    translated = all(composed(i) == r(i + 1) for i in range(n))
    payload = {"f": args.f, "g": args.g, "values": values,
               "translation_identity": translated}
    return payload, [f"rho(f): {list(values)}",
                     f"translation identity rho(f.g)(n) == rho(f)(n+1): "
                     f"{_text_value(translated)}"]


def _cmd_shift_sigma(args):
    f = _parse_inj_arg(args.f)
    g = _parse_inj_arg(args.g)
    s = sigma(f, g, probe=max(args.window, 64))
    n = args.window
    values = s.values(n)
    increasing = all(values[i] < values[i + 1] for i in range(n - 1))
    payload = {"f": args.f, "g": args.g, "values": values,
               "strictly_increasing": increasing}
    return payload, [f"sigma(f): {list(values)}",
                     f"strictly_increasing: {_text_value(increasing)}"]


def _cmd_shift_critical(args):
    g = _parse_inj_arg(args.g)
    k = critical_point(g, bound=max(args.window, 64))
    payload = {"g": args.g, "critical_point": k}
    return payload, [f"critical_point: {k}"]


def _cmd_shift_orbit(args):
    g = _parse_inj_arg(args.g)
    G = orbit_map(g, probe=max(args.window, 64))
    values = G.values(args.window)
    payload = {"g": args.g, "values": values}
    return payload, [f"orbit map: {list(values)}"]


def _cmd_shift_perfect(args):
    f = _superseq_from_args(args)
    shift_descs = args.shift or ["succ"]
    gs = [_parse_inj_arg(d) for d in shift_descs]
    rep = g_perfect_extract(f, gs, args.window)
    payload = {"sequence": f.name, "shifts": list(shift_descs),
               "h_values": rep.h.values(min(args.window, 12)),
               "h_set": rep.h_set.name, "set": list(rep.Z),
               "joins_colored": rep.joins_colored,
               "checks_passed": rep.checks_passed,
               "candidates_tried": rep.candidates_tried}
    return payload, [
        f"window: {rep.window}",
        f"monotone image set: {rep.h_set.name} "
        f"(first values {list(rep.h.values(min(args.window, 12)))})",
        f"witness set: {list(rep.Z)}",
        f"joins colored: {rep.joins_colored}, checks passed: "
        f"{rep.checks_passed}, candidates tried: {rep.candidates_tried}"]


# --- parser -----------------------------------------------------------------

HANDLERS = {
    ("qo", "validate"): _cmd_qo_validate,
    ("qo", "relations"): _cmd_qo_relations,
    ("qo", "product"): _cmd_qo_product,
    ("qo", "sum"): _cmd_qo_sum,
    ("rado", "witness"): _cmd_rado_witness,
    ("rado", "demo"): _cmd_rado_demo,
    ("front", "member"): _cmd_front_member,
    ("front", "step"): _cmd_front_step,
    ("front", "ray"): _cmd_front_ray,
    ("front", "restrict"): _cmd_front_restrict,
    ("front", "rank"): _cmd_front_rank,
    ("front", "verify"): _cmd_front_verify,
    ("seq", "eval"): _cmd_seq_eval,
    ("seq", "spare"): _cmd_seq_spare,
    ("seq", "sparsify"): _cmd_seq_sparsify,
    ("seq", "bad"): _cmd_seq_bad,
    ("seq", "perfect"): _cmd_seq_perfect,
    ("game", "solve"): _cmd_game_solve,
    ("game", "play"): _cmd_game_play,
    ("game", "supp"): _cmd_game_supp,
    ("game", "string"): _cmd_game_string,
    ("game", "tilde"): _cmd_game_tilde,
    ("extract", "ramsey"): _cmd_extract_ramsey,
    ("extract", "nw"): _cmd_extract_nw,
    ("extract", "dichotomy"): _cmd_extract_dichotomy,
    ("extract", "laver"): _cmd_extract_laver,
    ("shift", "rho"): _cmd_shift_rho,
    ("shift", "sigma"): _cmd_shift_sigma,
    ("shift", "critical"): _cmd_shift_critical,
    ("shift", "orbit"): _cmd_shift_orbit,
    ("shift", "perfect"): _cmd_shift_perfect,
}


def _add_front_flags(p, with_file=True):
    p.add_argument("--schema", choices=["trivial", "uniform", "schreier"],
                   help="built-in front family")
    p.add_argument("--k", type=int, help="arity for --schema uniform")
    p.add_argument("--base", help="base set descriptor (default omega)")
    if with_file:
        p.add_argument("--front-file", help="JSON file describing the front")


def _add_seq_flags(p):
    p.add_argument("--fixture", help="built-in sequence RULE@FRONT, "
                   "e.g. identity@u2, min@schreier, constant:3@u1")
    p.add_argument("--file", help="JSON file describing the sequence")
    p.add_argument("--codomain",
                   help="value order: rado, omega-leq, chain:K, antichain:K")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--window", type=int, default=16,
                        help="finite horizon for searches (default 16)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into reports (default 0)")
    common.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default text)")
    common.add_argument("--exhaustive", action="store_true",
                        help="insist on exhaustive search where supported")

    parser = _Parser(prog="bqo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"bqo {__version__}")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")

    def sub(group_parser, name, **kw):
        return group_parser.add_parser(name, parents=[common], **kw)

    # qo
    g = groups.add_parser("qo", help="quasi-order algebra")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "validate", help="check a finite order file")
    p.add_argument("path", help="JSON file with 'elements' and 'pairs'")
    p = sub(gs, "relations", help="derived relations between two elements")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--qo", default="omega-leq", help="named base order")
    p.add_argument("--file", help="finite order JSON file instead of --qo")
    p = sub(gs, "product", help="componentwise product of two finite orders")
    p.add_argument("left")
    p.add_argument("right")
    p = sub(gs, "sum", help="disjoint sum of orders along a poset index")
    p.add_argument("path", help="JSON file with 'index' and 'parts'")

    # rado
    g = groups.add_parser("rado", help="the incomparable-pairs base order")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "witness", help="antichain witness for generators m < n")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p = sub(gs, "demo", help="confirm witnesses for all pairs below --window")

    # front
    g = groups.add_parser("front", help="fronts and their ranks")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "member", help="test membership of an index tuple")
    _add_front_flags(p)
    p.add_argument("entries", help="comma-separated indices, or - for empty")
    p = sub(gs, "step", help="least member along an infinite subset")
    _add_front_flags(p)
    p.add_argument("--at", default="omega", help="infinite-set descriptor")
    p = sub(gs, "ray", help="derived front past a base point")
    _add_front_flags(p)
    p.add_argument("n", type=int)
    p = sub(gs, "restrict", help="restrict to an infinite subset of the base")
    _add_front_flags(p)
    p.add_argument("--to", required=True, help="infinite-set descriptor")
    p = sub(gs, "rank", help="ordinal rank in Cantor normal form")
    _add_front_flags(p)
    p = sub(gs, "verify", help="check the front laws on sampled subsets")
    _add_front_flags(p)
    p.add_argument("--family", help="raw JSON family with a 'members' list")
    p.add_argument("--samples",
                   help="semicolon-separated set descriptors "
                        "(default omega;evens;odds)")

    # seq
    g = groups.add_parser("seq", help="super-sequences on fronts")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "eval", help="evaluate along an infinite subset")
    _add_seq_flags(p)
    p.add_argument("--at", default="omega", help="infinite-set descriptor")
    p = sub(gs, "spare", help="check the two-clause segment condition")
    _add_seq_flags(p)
    p = sub(gs, "sparsify", help="restrict to a segment-free sub-front")
    _add_seq_flags(p)
    p = sub(gs, "bad", help="search the window for a good pair")
    _add_seq_flags(p)
    p = sub(gs, "perfect", help="check monotone transfer along extensions")
    _add_seq_flags(p)
    p.add_argument("--relation", choices=["leq", "eq"], default="leq")

    # game
    g = groups.add_parser("game", help="comparison games on hereditary sets")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "solve", help="decide the lifted comparison x <= y")
    p.add_argument("x", help="s-expression, or - to read two from stdin")
    p.add_argument("y", nargs="?", help="s-expression")
    p.add_argument("--qo", default="omega-leq", help="base order name")
    p = sub(gs, "play", help="replay one play with the solved strategy")
    p.add_argument("x", help="s-expression, or - to read two from stdin")
    p.add_argument("y", nargs="?", help="s-expression")
    p.add_argument("--qo", default="omega-leq", help="base order name")
    p = sub(gs, "supp", help="atom support and depth of a hereditary set")
    p.add_argument("x", help="s-expression")
    p.add_argument("--qo", default="omega-leq", help="base order name")
    p = sub(gs, "string", help="chain winning strategies into a multi-"
            "sequence over the incomparable-pairs sets")
    p.add_argument("--at", help="comma-separated strictly increasing indices")
    p = sub(gs, "tilde", help="build the level-one lifted sets of a sequence")
    _add_seq_flags(p)

    # extract
    g = groups.add_parser("extract", help="partition and embedding extraction")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "ramsey", help="largest homogeneous set for a finite coloring")
    p.add_argument("n", type=int, help="ground set is [0, n)")
    p.add_argument("--k", type=int, default=2, help="tuple size (default 2)")
    p.add_argument("--r", type=int, default=2, help="color count (default 2)")
    p.add_argument("--rule", default="sum-parity",
                   help="named coloring rule (default sum-parity)")
    p.add_argument("--target", type=int, help="stop at this size")
    p.add_argument("--budget", type=int, default=500000,
                   help="node budget before giving up exhaustiveness")
    p = sub(gs, "nw", help="front-homogeneous subset for a two-coloring")
    _add_front_flags(p)
    p.add_argument("--rule", help="named coloring rule (default sum-parity)")
    p.add_argument("--coloring", help="coloring JSON file")
    p.add_argument("--target", type=int, required=True,
                   help="required homogeneous set size")
    p = sub(gs, "dichotomy", help="subset where a relation holds on all "
            "joined pairs, or its complement")
    _add_seq_flags(p)
    p.add_argument("--relation", choices=["leq", "eq"], default="leq")
    p = sub(gs, "laver", help="two-stage monotone subset extraction")
    _add_seq_flags(p)
    p.add_argument("--min-size", type=int, default=4,
                   help="required monotone set size (default 4)")

    # shift
    g = groups.add_parser("shift", help="strictly increasing injections")
    gs = g.add_subparsers(dest="cmd", metavar="CMD")
    p = sub(gs, "rho", help="orbit-composition transport of f along g")
    p.add_argument("f", help="injection descriptor")
    p.add_argument("g", help="injection descriptor")
    p = sub(gs, "sigma", help="piecewise transport of f along the g-orbit")
    p.add_argument("f", help="injection descriptor")
    p.add_argument("g", help="injection descriptor")
    p = sub(gs, "critical", help="least point moved by g")
    p.add_argument("g", help="injection descriptor")
    p = sub(gs, "orbit", help="iterates of g from its critical point")
    p.add_argument("g", help="injection descriptor")
    p = sub(gs, "perfect", help="monotone-image extraction over several "
            "generalized shifts")
    _add_seq_flags(p)
    p.add_argument("--shift", action="append",
                   help="injection descriptor (repeatable; default succ)")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_subcommand_listing(), file=sys.stderr)
        return 2
    group = getattr(args, "group", None)
    cmd = getattr(args, "cmd", None)
    if group is None or cmd is None:
        print("error: missing subcommand", file=sys.stderr)
        print(_subcommand_listing(), file=sys.stderr)
        return 2
    if args.window < 2:
        print("error: --window must be at least 2", file=sys.stderr)
        print(_subcommand_listing(), file=sys.stderr)
        return 2
    handler = HANDLERS[(group, cmd)]
    try:
        payload, lines = handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_subcommand_listing(), file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(args, f"{group} {cmd}", payload, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
