"""Command-line front end: one subcommand per library entry point.

Exit codes: 0 on success, 1 when a checked mathematical precondition fails
(any :class:`~bqo.errors.DomainError`), 2 on usage errors (unknown
subcommands, malformed flags or descriptors, unreadable input files).
Exit 1 also reports, in one line, running out of memory, a result with an
int past Python's int-to-str digit limit, and input nested past Python's
recursion limit.

Output is either human-readable ``key: value`` lines (``--format text``,
the default) or a canonical JSON report (``--format json``).  JSON output
is byte-identical across runs for the same invocation: keys are sorted and
every report carries ``report_version``, the subcommand, and the window
and seed it was produced under.

An invocation that names a group and one of its commands, then gives only
that command's exact long options, each with a value, and one run of its
positionals, is read straight from the command table.  Any other argv
goes through argparse's full tree of parsers, so help, version,
abbreviations, ``--opt=value``, ``--`` and usage errors keep argparse's
wording and list every choice.

Each handler returns its report payload and the text lines that show it
(None for plain ``key: value`` lines in payload order), and routes every
input error through ``_usage`` so that it exits 2 with one message.

Handlers and input helpers import the library names they call when they
run, and nothing above them imports a library module but ``bqo.errors``:
a ``bqo`` process then loads only its own command's modules.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import __version__
from .errors import DomainError

if TYPE_CHECKING:
    from .fronts import Front
    from .qo import FiniteQO
    from .ramsey import Coloring
    from .superseq import SuperSeq

REPORT_VERSION = 1

class CliUsageError(Exception):
    """Bad flags, unknown subcommands, unreadable or malformed inputs."""


def _usage(fn, *args, what: str = "", errors=(ValueError,)):
    """fn(*args), reporting one of `errors` as a usage error, after `what`."""
    try:
        return fn(*args)
    except errors as exc:
        raise CliUsageError(f"{what}: {exc}" if what else str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of calling sys.exit."""

    def error(self, message):  # noqa: A003 - argparse API
        raise CliUsageError(message)


def _subcommand_listing() -> str:
    return "\n".join(["valid subcommands:"] + [
        f"  {g}: {', '.join(cmds)}" for g, cmds in SUBCOMMANDS.items()])


# --- serialization ----------------------------------------------------------

def _plain(x: Any) -> Any:
    """Render report values with only JSON-native types, deterministically."""
    if x is None or isinstance(x, (int, float, str)):    # bool is an int
        return x
    if isinstance(x, dict):
        return {str(k) if not isinstance(k, str) else k: _plain(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_plain(v) for v in x), key=repr)
    from .hset import Atom, Node, hset_to_sexpr
    if isinstance(x, (Atom, Node)):
        return hset_to_sexpr(x)
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


def _fields(report, *names) -> dict:
    """Payload entries copied from a report's fields of the same names."""
    return {name: getattr(report, name) for name in names}


def _lines(args, payload: dict, *keys) -> list:
    """``key: value`` text lines for payload keys; 'window' reads --window."""
    return [f"{k}: {_text_value(args.window if k == 'window' else payload[k])}"
            for k in keys]


# --- shared input helpers ---------------------------------------------------

def _load_json(path: str) -> dict:
    def unique(pairs: list) -> dict:
        # JSON keeps the last of two equal keys; a file that repeats a key
        # would lose a value without a word
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise CliUsageError(f"{path} repeats the key {key!r} in one "
                                "object")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path} is not valid JSON: {exc}") from exc


def _qo_from_data(data: dict) -> FiniteQO:
    from .qo import qo_validate
    try:
        elements = data["elements"]
        pairs = [tuple(p) for p in data["pairs"]]
    except (KeyError, TypeError) as exc:
        raise CliUsageError(
            "order file needs 'elements' and 'pairs' keys") from exc
    return _usage(lambda: qo_validate(
        [_hashable(e) for e in elements],
        [tuple(map(_hashable, p)) for p in pairs]),
        what="malformed order file", errors=(TypeError, ValueError))


def _hashable(x):
    """A JSON list as a tuple, so that it can be a carrier element."""
    return tuple(x) if isinstance(x, list) else x


def _related_pairs(q: FiniteQO) -> int:
    return sum(r.bit_count() for r in q.rows)


def _resolve_order(name: str):
    from .qo import resolve_qo
    return _usage(resolve_qo, name, what=f"unknown base order {name!r}",
                  errors=(ValueError, KeyError))


def _parse_element(q, text: str):
    """Parse one carrier element from the command line."""
    if q.parse is not None:
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
    from .streams import parse_base
    return _usage(parse_base, descriptor,
                  what=f"bad infinite-set descriptor {descriptor!r}",
                  errors=(ValueError, KeyError, TypeError))


def _front_from_args(args) -> Front:
    from .fronts import (front_from_dict, schreier_front, trivial_front,
                         uniform_front)
    if args.front_file:
        data = _load_json(args.front_file)
        if not isinstance(data, dict):
            raise CliUsageError(
                f"front file {args.front_file} must hold a JSON object")
        return _usage(front_from_dict, data, what="malformed front file",
                      errors=(KeyError, TypeError, ValueError))
    if args.schema is None:
        raise CliUsageError("need --schema or --front-file")
    base = _parse_base_arg(args.base or "omega")
    if args.schema == "trivial":
        return trivial_front(base)
    if args.schema == "schreier":
        return schreier_front(base)
    if args.k is None:      # argparse limits --schema to its three choices
        raise CliUsageError("--schema uniform needs --k")
    return _usage(uniform_front, args.k, base, what=f"bad --k {args.k}")


# Named super-sequence fixtures: "<rule>@<front>" with a default codomain
# per rule, overridable with --codomain.
_FIXTURE_CODOMAIN = {"identity": "rado", "min": "omega-leq",
                     "span": "omega-leq", "minmod2": "antichain:2"}


def _front_from_token(token: str) -> Front:
    from .fronts import schreier_front, trivial_front, uniform_front
    token = token.strip()
    if token == "schreier":
        return schreier_front()
    if token == "trivial":
        return trivial_front()
    arity = token[8:] if token.startswith("uniform:") else token[1:]
    if token.startswith("uniform:") or (token[:1] == "u" and arity.isdigit()):
        return _usage(lambda: uniform_front(int(arity)),
                      what=f"bad front token {token!r}")
    raise CliUsageError(
        f"unknown front token {token!r}: expected uN, uniform:N, "
        "schreier, or trivial")


def _superseq_from_args(args) -> SuperSeq:
    from .superseq import SuperSeq, named_valuation, superseq_from_dict
    if args.file:
        data = _load_json(args.file)
        codomain = _resolve_order(args.codomain) if args.codomain else None
        return _usage(superseq_from_dict, data, codomain,
                      what="malformed sequence file",
                      errors=(KeyError, TypeError, ValueError))
    fixture = args.fixture
    if not fixture:
        raise CliUsageError("need --fixture RULE@FRONT or --file PATH")
    if "@" not in fixture:
        raise CliUsageError(
            f"fixture {fixture!r} must look like RULE@FRONT, e.g. identity@u2")
    rule, front_token = fixture.split("@", 1)
    front = _front_from_token(front_token)
    val = _usage(named_valuation, rule, front)
    default = _FIXTURE_CODOMAIN.get(rule.split(":", 1)[0], "omega-leq")
    codomain = _resolve_order(args.codomain or default)
    return SuperSeq(front=front, valuation=val, codomain=codomain,
                    name=fixture)


def _ordered_superseq(args) -> SuperSeq:
    """A super-sequence for a command that compares its values, which needs
    a codomain order (a --file sequence has one only with --codomain)."""
    f = _superseq_from_args(args)
    if f.codomain is None:
        raise CliUsageError(
            f"{args.cmd} needs a codomain order; pass --codomain")
    return f


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
    return q.parse if q.parse is not None else int


def _parse_hset(q, text: str):
    from .hset import parse_sexpr
    return _usage(parse_sexpr, text, _atom_parser(q),
                  what="cannot parse s-expression",
                  errors=(ValueError, TypeError))


def _read_hset_pair(args) -> tuple:
    """Read two hereditary sets from argv or, when 'x' is '-', stdin."""
    q = _resolve_order(args.qo)
    if args.x == "-":
        from .hset import parse_sexprs
        text = sys.stdin.read()
        hs = _usage(parse_sexprs, text, _atom_parser(q),
                    what="cannot parse s-expression",
                    errors=(ValueError, TypeError)) if text.strip() else []
        if len(hs) < 2:
            raise CliUsageError(
                f"expected 2 s-expressions on stdin, got {len(hs)}")
        return hs[:2], q
    if args.y is None:
        raise CliUsageError("expected 2 s-expression arguments")
    return [_parse_hset(q, args.x), _parse_hset(q, args.y)], q


def _coloring_from_args(args) -> Coloring:
    from .ramsey import Coloring, coloring_from_dict, named_coloring
    if args.coloring:
        return _usage(coloring_from_dict, _load_json(args.coloring),
                      what="malformed coloring file",
                      errors=(KeyError, TypeError, ValueError))
    front = _front_from_args(args)
    rule = args.rule or "sum-parity"
    return Coloring(front=front, color=_usage(named_coloring, rule),
                    name=rule)


# --- qo group ---------------------------------------------------------------

def _cmd_qo_validate(args):
    q = _qo_from_data(_load_json(args.path))
    n_pairs = _related_pairs(q)
    payload = {"valid": True, "elements": len(q.elements),
               "leq_pairs": n_pairs}
    return payload, [f"valid: true ({len(q.elements)} elements, "
                     f"{n_pairs} related pairs)"]


def _cmd_qo_relations(args):
    from .qo import derived_relations
    q = (_qo_from_data(_load_json(args.file)) if args.file
         else _resolve_order(args.qo))
    a = _parse_element(q, args.a)
    b = _parse_element(q, args.b)
    rec = derived_relations(q, a, b)
    payload = {"a": a, "b": b, **_fields(
        rec, "leq", "geq", "equiv", "strict", "incomparable")}
    return payload, None


def _qo_result(word: str, R: FiniteQO):
    """The report of a constructed order: its size and related pairs."""
    n_pairs = _related_pairs(R)
    payload = {"elements": len(R.elements), "leq_pairs": n_pairs,
               "carrier": R.elements}
    return payload, [f"{word}: {len(R.elements)} elements, "
                     f"{n_pairs} related pairs"]


def _cmd_qo_product(args):
    from .qo import product_qo
    P = _qo_from_data(_load_json(args.left))
    Q = _qo_from_data(_load_json(args.right))
    return _qo_result("product", product_qo(P, Q))


def _cmd_qo_sum(args):
    from .qo import sum_along_poset
    data = _load_json(args.path)
    try:
        index = _qo_from_data(data["index"])
        parts = data["parts"]
    except (KeyError, TypeError) as exc:
        raise CliUsageError(
            "sum file needs 'index' and 'parts' keys") from exc
    if not isinstance(parts, dict):
        raise CliUsageError("sum file 'parts' must be a JSON object")
    family = {}
    for e in index.elements:
        key = str(e)
        if key not in parts:
            raise CliUsageError(f"no part for index element {key!r}")
        family[e] = _qo_from_data(parts[key])
    return _qo_result("sum", sum_along_poset(index, family))


# --- rado group -------------------------------------------------------------

def _cmd_rado_witness(args):
    from .qo import rado_antichain_witness
    rep = rado_antichain_witness(args.m, args.n)
    payload = _fields(rep, "pair", "generator_witness", "scan_bound",
                      "in_lower_downset", "in_upper_downset")
    m, n = rep.pair
    return payload, [
        f"pair ({m},{n}) vs ({n},?): witness {rep.generator_witness} lies "
        f"below ({m},{n}) but below no ({n},k) with k <= {rep.scan_bound}",
        *_lines(args, payload, "in_lower_downset", "in_upper_downset")]


def _cmd_rado_demo(args):
    from .qo import rado_antichain_witness
    bound = args.window
    reps = [rado_antichain_witness(m, n)
            for m in range(bound) for n in range(m + 1, bound)]
    good = [r for r in reps if r.in_lower_downset and not r.in_upper_downset]
    payload = {"pairs_checked": len(reps), "confirmed": len(good),
               "all_confirmed": len(good) == len(reps),
               "sample_witness": good[0].generator_witness if good else None}
    return payload, [
        *_lines(args, payload, "window"),
        f"checked {len(reps)} generator pairs, {len(good)} antichain "
        "witnesses confirmed",
        *_lines(args, payload, "all_confirmed")]


# --- front group ------------------------------------------------------------

def _cmd_front_member(args):
    from .fronts import front_member, front_to_dict
    F = _front_from_args(args)
    s = _parse_prefix(args.entries)
    payload = {"front": front_to_dict(F), "entries": s,
               "member": _usage(front_member, F, s)}
    return payload, _lines(args, payload, "member")


def _cmd_front_step(args):
    from .fronts import front_step, front_to_dict
    F = _front_from_args(args)
    res = front_step(F, _parse_base_arg(args.at))
    payload = {"front": front_to_dict(F), "at": args.at,
               **_fields(res, "member", "modulus")}
    return payload, _lines(args, payload, "member", "modulus")


def _cmd_front_ray(args):
    from .fronts import front_to_dict, rank, ray
    F = _front_from_args(args)
    R = ray(F, args.n)
    payload = {"front": front_to_dict(F), "n": args.n,
               "ray": front_to_dict(R), "ray_rank": str(rank(R))}
    return payload, _lines(args, payload, "ray", "ray_rank")


def _cmd_front_restrict(args):
    from .fronts import front_to_dict, restrict
    F = _front_from_args(args)
    R = restrict(F, _parse_base_arg(args.to))
    payload = {"front": front_to_dict(F), "to": args.to,
               "restricted": front_to_dict(R)}
    return payload, _lines(args, payload, "restricted")


def _cmd_front_rank(args):
    from .fronts import front_to_dict, rank
    F = _front_from_args(args)
    payload = {"front": front_to_dict(F), "rank": str(rank(F))}
    return payload, [payload["rank"]]


def _cmd_front_verify(args):
    from .fronts import check_front_element, front_verify
    from .streams import parse_base
    if args.family:
        data = _load_json(args.family)
        try:
            F = [tuple(m) for m in data["members"]]
        except (KeyError, TypeError) as exc:
            raise CliUsageError(
                "family file needs a 'members' list") from exc
        for m in F:
            _usage(check_front_element, m, what="malformed family file")
    else:
        F = _front_from_args(args)
    descriptors = [d for d in (args.samples or "omega;evens;odds").split(";")
                   if d.strip()]
    samples = [_usage(parse_base, d.strip(), what="bad sample descriptor",
                      errors=(ValueError, KeyError)) for d in descriptors]
    rep = front_verify(F, samples, args.window)
    payload = {**_fields(rep, "base_ok", "segment_free", "segment_violation",
                         "passed"),
               "density": [{"sample": p.sample, "member": p.member or None,
                            "modulus": p.modulus, "error": p.error}
                           for p in rep.density]}
    lines = _lines(args, payload, "window", "base_ok", "segment_free")
    for p in rep.density:
        if p.error:
            lines.append(f"  {p.sample}: {p.error}")
        else:
            lines.append(f"  {p.sample}: member {list(p.member)} "
                         f"at modulus {p.modulus}")
    return payload, lines + _lines(args, payload, "passed")


# --- seq group --------------------------------------------------------------

def _relation(args, f: SuperSeq) -> tuple:
    """The --relation flag as a predicate on values, with the sequence to
    read them from.  Under leq that sequence checks each value against the
    codomain on its first read, so the predicate compares raw."""
    if args.relation == "eq":
        return f, (lambda a, b: a == b)
    return f.checked(), f.codomain.raw_leq


def _cmd_seq_eval(args):
    from .superseq import eval_up
    f = _superseq_from_args(args)
    res = eval_up(f, _parse_base_arg(args.at))
    payload = {"sequence": f.name, "at": args.at,
               **_fields(res, "value", "member", "modulus")}
    return payload, _lines(args, payload, "value", "member", "modulus")


def _cmd_seq_spare(args):
    from .superseq import spare_check
    f = _superseq_from_args(args)
    rep = spare_check(f, args.window)
    payload = {"sequence": f.name, "failure": rep.failure or None,
               **_fields(rep, "search_bound", "holds")}
    return payload, _lines(args, payload, "window", "holds", "failure")


def _cmd_seq_sparsify(args):
    from .fronts import front_to_dict, members_within
    from .superseq import sparsify
    f = _superseq_from_args(args)
    out = sparsify(f, args.window)
    values = {",".join(map(str, s)): out.value(s)
              for s in members_within(out.front, args.window)}
    payload = {"sequence": f.name, "result": out.name,
               "front": front_to_dict(out.front), "values": values}
    lines = _lines(args, payload, "result", "front")
    lines += [f"  f({k}) = {_text_value(v)}" for k, v in values.items()]
    return payload, lines


def _cmd_seq_bad(args):
    from .superseq import badness_check
    f = _ordered_superseq(args)
    rep = badness_check(f, args.window)
    payload = {"sequence": f.name, **_fields(
        rep, "good_witness", "bad_on_window", "pairs_scanned")}
    return payload, _lines(args, payload, "window", "bad_on_window",
                           "good_witness", "pairs_scanned")


def _cmd_seq_perfect(args):
    from .superseq import perfect_check
    f, relation = _relation(args, _ordered_superseq(args))
    rep = perfect_check(f, relation, args.window)
    payload = {"sequence": f.name, "relation": args.relation,
               **_fields(rep, "holds", "violation", "pairs_scanned")}
    return payload, _lines(args, payload, "window", "holds", "violation",
                           "pairs_scanned")


# --- game group -------------------------------------------------------------

def _cmd_game_solve(args):
    from .games import game_leq
    from .hset import hset_to_sexpr
    (x, y), q = _read_hset_pair(args)
    res = game_leq(x, y, q)
    payload = {"x": hset_to_sexpr(x, q.fmt), "y": hset_to_sexpr(y, q.fmt),
               "qo": args.qo, "strategy_size": len(res.strategy),
               **_fields(res, "winner", "ii_wins")}
    return payload, _lines(args, payload, "winner", "ii_wins")


def _cmd_game_play(args):
    from .games import game_leq, game_play
    from .hset import hset_to_sexpr
    (x, y), q = _read_hset_pair(args)
    fmt = q.fmt
    res = game_leq(x, y, q)

    def least(side: int):   # the loser plays its least child, the first one
        return lambda pos: pos[side].children[0]

    if res.winner == "II":
        strat_I, strat_II = least(0), res.strategy
    else:
        strat_I, strat_II = res.strategy, least(1)
    t = game_play(x, y, strat_I, strat_II, q)
    rounds = [[hset_to_sexpr(a, fmt), hset_to_sexpr(b, fmt)]
              for a, b in t.rounds]
    payload = {"x": hset_to_sexpr(x, fmt), "y": hset_to_sexpr(y, fmt),
               "qo": args.qo, "solved_winner": res.winner,
               "play_winner": t.winner, "rounds": rounds,
               "final": [fmt(v) for v in t.final], "comparison": t.comparison}
    lines = [f"round {i}: I plays {a}, II plays {b}"
             for i, (a, b) in enumerate(rounds)]
    lines.append(f"final atoms: {fmt(t.final[0])} vs {fmt(t.final[1])} "
                 f"(comparison: {_text_value(t.comparison)})")
    lines.append(f"winner: {t.winner}")
    return payload, lines


def _cmd_game_supp(args):
    from .hset import depth, hset_to_sexpr, supp
    q = _resolve_order(args.qo)
    x = _parse_hset(q, args.x)
    support = [q.fmt(v) for v in sorted(supp(x), key=repr)]
    payload = {"x": hset_to_sexpr(x, q.fmt), "qo": args.qo, "depth": depth(x),
               "support": support}
    return payload, [*_lines(args, payload, "depth"),
                     f"support: {', '.join(support)}"]


def _rado_powerset_sequence(window: int) -> list:
    """X_m = the set of pairs (m, n) for m < n <= window."""
    from .hset import Atom, node
    return [node(Atom((m, n)) for n in range(m + 1, window + 1))
            for m in range(window)]


def _cmd_game_string(args):
    from .games import string_strategies
    from .qo import RADO
    xs = _rado_powerset_sequence(args.window)
    g = string_strategies(xs, RADO, args.window)
    prefix = _parse_prefix(args.at) if args.at else tuple(
        range(min(args.window, 8)))
    value, modulus = g(prefix)
    payload = {"prefix": prefix, "value": value, "modulus": modulus}
    return payload, [*_lines(args, payload, "prefix"),
                     f"value: {RADO.fmt(value)}",
                     *_lines(args, payload, "modulus")]


def _cmd_game_tilde(args):
    from .games import tilde_build
    from .hset import hset_to_sexpr
    f = _superseq_from_args(args)
    fmt = str if f.codomain is None else f.codomain.fmt
    res = tilde_build(f, args.window)
    payload = {"sequence": f.name, "table_size": len(res.table),
               "first_level": [[m, hset_to_sexpr(h, fmt)]
                               for m, h in res.first_level]}
    return payload, _lines(args, payload, "window", "table_size") + [
        f"  level-1 at {m}: {h}" for m, h in payload["first_level"]]


# --- extract group ----------------------------------------------------------

def _cmd_extract_ramsey(args):
    from .ramsey import finite_ramsey, named_coloring
    rep = _usage(lambda: finite_ramsey(
        args.n, args.k, args.r, named_coloring(args.rule),
        target=args.target, budget=args.budget))
    payload = {"ground": rep.window, "colors": rep.r, "rule": args.rule,
               "homogeneous_set": rep.Z, "size": len(rep.Z), **_fields(
                   rep, "k", "target", "color", "exhaustive", "explored")}
    return payload, [
        f"homogeneous set of size {len(rep.Z)} in color {rep.color}: "
        f"{list(rep.Z)}",
        f"exhaustive: {_text_value(rep.exhaustive)} "
        f"(explored {rep.explored} nodes)"]


def _cmd_extract_nw(args):
    from .ramsey import nw_extract
    col = _coloring_from_args(args)
    rep = _usage(nw_extract, col, args.window, args.target)
    payload = {"coloring": col.name, "homogeneous_set": rep.Z, **_fields(
        rep, "target", "side", "members_checked", "exhaustive", "witnesses")}
    return payload, [
        *_lines(args, payload, "window"),
        f"homogeneous set: {list(rep.Z)} (side {rep.side})",
        f"members checked: {rep.members_checked}",
        *(f"  member {list(m)} -> color {c}" for m, c in rep.witnesses)]


def _cmd_extract_dichotomy(args):
    from .ramsey import dichotomy_extract
    f, relation = _relation(args, _ordered_superseq(args))
    rep = dichotomy_extract(f, relation, args.window,
                            relation_name=args.relation)
    payload = {"sequence": f.name, "relation": args.relation, "set": rep.Z,
               **_fields(rep, "side", "side_index", "joins_colored",
                         "pairs_verified", "exhaustive")}
    return payload, [
        *_lines(args, payload, "window"),
        f"set: {list(rep.Z)} lands on side {rep.side!r}",
        f"joins colored: {rep.joins_colored}, pairs verified: "
        f"{rep.pairs_verified}"]


def _cmd_extract_laver(args):
    from .ramsey import laver_embed
    f = _ordered_superseq(args)
    rep = _usage(lambda: laver_embed(f, args.window, min_size=args.min_size))
    stages = (("triple", rep.triples), ("quadruple", rep.quadruples))
    payload = {"sequence": f.name, "set": rep.X,
               "pairs_checked": rep.pairs_checked,
               **{f"{word}s": {"ground": len(st.ground), "side": st.side,
                               "homogeneous": st.homogeneous}
                  for word, st in stages}}
    return payload, [
        *_lines(args, payload, "window"),
        f"monotone set: {list(rep.X)}",
        *(f"{word} stage: {len(st.homogeneous)} of {len(st.ground)} points "
          f"on side {st.side}" for word, st in stages),
        f"pairs checked both directions: {rep.pairs_checked}"]


# --- shift group ------------------------------------------------------------

def _parse_inj_arg(text: str):
    from .shifts import parse_inj
    return _usage(parse_inj, text, what=f"bad injection descriptor {text!r}",
                  errors=(ValueError, KeyError))


def _probe(args) -> int:
    """How far the shift commands evaluate an injection: past the window."""
    return max(args.window, 64)


def _cmd_shift_rho(args):
    from .shifts import compose, rho
    f, g = _parse_inj_arg(args.f), _parse_inj_arg(args.g)
    r = rho(f, g, probe=_probe(args))
    values = r.values(args.window)
    composed = rho(compose(f, g), g, probe=_probe(args))
    translated = all(composed(i) == r(i + 1) for i in range(args.window))
    payload = {"f": args.f, "g": args.g, "values": values,
               "translation_identity": translated}
    return payload, [f"rho(f): {list(values)}",
                     f"translation identity rho(f.g)(n) == rho(f)(n+1): "
                     f"{_text_value(translated)}"]


def _cmd_shift_sigma(args):
    from .shifts import sigma
    f, g = _parse_inj_arg(args.f), _parse_inj_arg(args.g)
    values = sigma(f, g, probe=_probe(args)).values(args.window)
    payload = {"f": args.f, "g": args.g, "values": values,
               "strictly_increasing": all(
                   a < b for a, b in zip(values, values[1:]))}
    return payload, [f"sigma(f): {list(values)}",
                     *_lines(args, payload, "strictly_increasing")]


def _cmd_shift_critical(args):
    from .shifts import critical_point
    g = _parse_inj_arg(args.g)
    payload = {"g": args.g, "critical_point": critical_point(
        g, bound=_probe(args))}
    return payload, _lines(args, payload, "critical_point")


def _cmd_shift_orbit(args):
    from .shifts import orbit_map
    g = _parse_inj_arg(args.g)
    values = orbit_map(g, probe=_probe(args)).values(args.window)
    payload = {"g": args.g, "values": values}
    return payload, [f"orbit map: {list(values)}"]


def _cmd_shift_perfect(args):
    from .shifts import g_perfect_extract
    f = _ordered_superseq(args)
    shift_descs = args.shift or ["succ"]
    gs = [_parse_inj_arg(d) for d in shift_descs]
    rep = g_perfect_extract(f, gs, args.window)
    h_values = rep.h.values(min(args.window, 12))
    payload = {"sequence": f.name, "shifts": shift_descs,
               "h_values": h_values, "h_set": rep.h_set.name, "set": rep.Z,
               **_fields(rep, "joins_colored", "checks_passed",
                         "candidates_tried")}
    return payload, [
        *_lines(args, payload, "window"),
        f"monotone image set: {rep.h_set.name} "
        f"(first values {list(h_values)})",
        f"witness set: {list(rep.Z)}",
        f"joins colored: {rep.joins_colored}, checks passed: "
        f"{rep.checks_passed}, candidates tried: {rep.candidates_tried}"]


# --- command table ----------------------------------------------------------

def _arg(*names, **kw) -> tuple:
    """One ``add_argument`` call kept as data: (names, keywords)."""
    return names, kw


_COMMON_FLAGS = (
    _arg("--window", type=int, default=16,
         help="finite horizon for searches (default 16)"),
    _arg("--seed", type=int, default=0,
         help="seed echoed into reports (default 0)"),
    _arg("--format", choices=("text", "json"), default="text",
         help="output format (default text)"),
)

_FRONT_FLAGS = (
    _arg("--schema", choices=("trivial", "uniform", "schreier"),
         help="built-in front family"),
    _arg("--k", type=int, help="arity for --schema uniform"),
    _arg("--base", help="base set descriptor (default omega)"),
    _arg("--front-file", help="JSON file describing the front"),
)

_SEQ_FLAGS = (
    _arg("--fixture", help="built-in sequence RULE@FRONT, "
         "e.g. identity@u2, min@schreier, constant:3@u1"),
    _arg("--file", help="JSON file describing the sequence"),
    _arg("--codomain",
         help="value order: rado, omega-leq, chain:K, antichain:K"),
)

_GAME_PAIR_ARGS = (
    _arg("x", help="s-expression, or - to read two from stdin"),
    _arg("y", nargs="?", help="s-expression"),
    _arg("--qo", default="omega-leq", help="base order name"),
)

_INJ_F, _INJ_G = (_arg(name, help="injection descriptor") for name in "fg")
_RELATION = _arg("--relation", choices=("leq", "eq"), default="leq")

# group -> (help, {command: (handler, help, argument specs)}), in the order
# help and the subcommand listing show them.  Each command parser gets the
# common flags first, then its specs in order.
_COMMANDS = {
    "qo": ("quasi-order algebra", {
        "validate": (
            _cmd_qo_validate, "check a finite order file",
            (_arg("path", help="JSON file with 'elements' and 'pairs'"),)),
        "relations": (
            _cmd_qo_relations, "derived relations between two elements",
            (_arg("a"), _arg("b"),
             _arg("--qo", default="omega-leq", help="named base order"),
             _arg("--file", help="finite order JSON file instead of --qo"))),
        "product": (
            _cmd_qo_product, "componentwise product of two finite orders",
            (_arg("left"), _arg("right"))),
        "sum": (
            _cmd_qo_sum, "disjoint sum of orders along a poset index",
            (_arg("path", help="JSON file with 'index' and 'parts'"),)),
    }),
    "rado": ("the incomparable-pairs base order", {
        "witness": (
            _cmd_rado_witness, "antichain witness for generators m < n",
            (_arg("m", type=int), _arg("n", type=int))),
        "demo": (
            _cmd_rado_demo, "confirm witnesses for all pairs below --window",
            ()),
    }),
    "front": ("fronts and their ranks", {
        "member": (
            _cmd_front_member, "test membership of an index tuple",
            _FRONT_FLAGS + (
                _arg("entries",
                     help="comma-separated indices, or - for empty"),)),
        "step": (
            _cmd_front_step, "least member along an infinite subset",
            _FRONT_FLAGS + (_arg("--at", default="omega",
                                 help="infinite-set descriptor"),)),
        "ray": (
            _cmd_front_ray, "derived front past a base point",
            _FRONT_FLAGS + (_arg("n", type=int),)),
        "restrict": (
            _cmd_front_restrict, "restrict to an infinite subset of the base",
            _FRONT_FLAGS + (_arg("--to", required=True,
                                 help="infinite-set descriptor"),)),
        "rank": (
            _cmd_front_rank, "ordinal rank in Cantor normal form",
            _FRONT_FLAGS),
        "verify": (
            _cmd_front_verify, "check the front laws on sampled subsets",
            _FRONT_FLAGS + (
                _arg("--family", help="raw JSON family with a 'members' list"),
                _arg("--samples", help="semicolon-separated set descriptors "
                                       "(default omega;evens;odds)"))),
    }),
    "seq": ("super-sequences on fronts", {
        "eval": (
            _cmd_seq_eval, "evaluate along an infinite subset",
            _SEQ_FLAGS + (_arg("--at", default="omega",
                               help="infinite-set descriptor"),)),
        "spare": (
            _cmd_seq_spare, "check the two-clause segment condition",
            _SEQ_FLAGS),
        "sparsify": (
            _cmd_seq_sparsify, "restrict to a segment-free sub-front",
            _SEQ_FLAGS),
        "bad": (
            _cmd_seq_bad, "search the window for a good pair",
            _SEQ_FLAGS),
        "perfect": (
            _cmd_seq_perfect, "check monotone transfer along extensions",
            _SEQ_FLAGS + (_RELATION,)),
    }),
    "game": ("comparison games on hereditary sets", {
        "solve": (
            _cmd_game_solve, "decide the lifted comparison x <= y",
            _GAME_PAIR_ARGS),
        "play": (
            _cmd_game_play, "replay one play with the solved strategy",
            _GAME_PAIR_ARGS),
        "supp": (
            _cmd_game_supp, "atom support and depth of a hereditary set",
            (_arg("x", help="s-expression"),
             _arg("--qo", default="omega-leq", help="base order name"))),
        "string": (
            _cmd_game_string, "chain winning strategies into a multi-"
            "sequence over the incomparable-pairs sets",
            (_arg("--at",
                  help="comma-separated strictly increasing indices"),)),
        "tilde": (
            _cmd_game_tilde, "build the level-one lifted sets of a sequence",
            _SEQ_FLAGS),
    }),
    "extract": ("partition and embedding extraction", {
        "ramsey": (
            _cmd_extract_ramsey,
            "largest homogeneous set for a finite coloring",
            (_arg("n", type=int, help="ground set is [0, n)"),
             _arg("--k", type=int, default=2, help="tuple size (default 2)"),
             _arg("--r", type=int, default=2, help="color count (default 2)"),
             _arg("--rule", default="sum-parity",
                  help="named coloring rule (default sum-parity)"),
             _arg("--target", type=int, help="stop at this size"),
             _arg("--budget", type=int, default=500000,
                  help="node budget before giving up exhaustiveness"))),
        "nw": (
            _cmd_extract_nw, "front-homogeneous subset for a two-coloring",
            _FRONT_FLAGS + (
                _arg("--rule",
                     help="named coloring rule (default sum-parity)"),
                _arg("--coloring", help="coloring JSON file"),
                _arg("--target", type=int, required=True,
                     help="required homogeneous set size"))),
        "dichotomy": (
            _cmd_extract_dichotomy, "subset where a relation holds on all "
            "joined pairs, or its complement",
            _SEQ_FLAGS + (_RELATION,)),
        "laver": (
            _cmd_extract_laver, "two-stage monotone subset extraction",
            _SEQ_FLAGS + (_arg("--min-size", type=int, default=4,
                               help="required monotone set size "
                                    "(default 4)"),)),
    }),
    "shift": ("strictly increasing injections", {
        "rho": (
            _cmd_shift_rho, "orbit-composition transport of f along g",
            (_INJ_F, _INJ_G)),
        "sigma": (
            _cmd_shift_sigma, "piecewise transport of f along the g-orbit",
            (_INJ_F, _INJ_G)),
        "critical": (
            _cmd_shift_critical, "least point moved by g",
            (_INJ_G,)),
        "orbit": (
            _cmd_shift_orbit, "iterates of g from its critical point",
            (_INJ_G,)),
        "perfect": (
            _cmd_shift_perfect, "monotone-image extraction over several "
            "generalized shifts",
            _SEQ_FLAGS + (_arg("--shift", action="append",
                               help="injection descriptor "
                                    "(repeatable; default succ)"),)),
    }),
}

SUBCOMMANDS = {group: tuple(cmds) for group, (_, cmds) in _COMMANDS.items()}
HANDLERS = {(group, cmd): spec[0] for group, (_, cmds) in _COMMANDS.items()
            for cmd, spec in cmds.items()}


# --- parser -----------------------------------------------------------------

def build_parser() -> _Parser:
    """The ``bqo`` argument parser: the root, every group's and every
    command's parser, so help, version and usage errors list every choice.

    ``main`` builds it only for an argv that ``_read_command`` leaves to it.
    """
    common = _Parser(add_help=False)
    for names, kw in _COMMON_FLAGS:
        common.add_argument(*names, **kw)
    parser = _Parser(prog="bqo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"bqo {__version__}")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")
    for group, (group_help, commands) in _COMMANDS.items():
        cmds = groups.add_parser(group, help=group_help).add_subparsers(
            dest="cmd", metavar="CMD")
        for cmd, (_, cmd_help, specs) in commands.items():
            p = cmds.add_parser(cmd, parents=[common], help=cmd_help)
            for names, kw in specs:
                p.add_argument(*names, **kw)
    return parser


def _command_reading(specs) -> tuple:
    """One command's specs, the common flags first, as ``_read_command``
    reads them: each dest's default, each long option string's ``(dest,
    keywords)``, the positionals' ``(dest, keywords)`` in order, and the
    dests of the required options.  Dests are named as argparse names them.
    """
    defaults, options, positionals, required = {}, {}, [], set()
    for names, kw in _COMMON_FLAGS + specs:
        if not names[0].startswith("-"):
            defaults[names[0]] = kw.get("default")
            positionals.append((names[0], kw))
            continue
        longs = [name for name in names if name.startswith("--")]
        dest = longs[0][2:].replace("-", "_")
        defaults[dest] = kw.get("default")
        options.update(dict.fromkeys(longs, (dest, kw)))
        if kw.get("required"):
            required.add(dest)
    return defaults, options, positionals, required


_READINGS = {(group, cmd): _command_reading(spec[2])
             for group, (_, cmds) in _COMMANDS.items()
             for cmd, spec in cmds.items()}


def _read_command(argv: list) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` gives, read from
    the command table, or None for an argv outside this grammar:

    - ``argv[0]`` is a group and ``argv[1]`` one of its commands;
    - each later token is an exact long option string of that command
      followed by a value that does not start with ``-``, or a positional
      that does not start with ``-`` or is exactly ``-``;
    - the positionals form one run, no shorter than the required
      positionals and no longer than all of them;
    - each value passes the spec's ``type`` and then its ``choices``;
    - every required option is given.

    A stored option keeps its last value and an appended one collects its
    values in a fresh list; what is not given takes its spec default.
    Keeping the positionals in one run leaves aside how argparse matches
    optional positionals across options.
    """
    reading = _READINGS.get(tuple(argv[:2]))
    if reading is None:
        return None
    defaults, options, positionals, required = reading
    given, run, run_ended = [], [], False
    i = 2
    while i < len(argv):
        token = argv[i]
        if token == "-" or not token.startswith("-"):
            if run_ended:
                return None
            run.append(token)
            i += 1
        elif (token in options and i + 1 < len(argv)
              and not argv[i + 1].startswith("-")):
            given.append((*options[token], argv[i + 1]))
            run_ended = bool(run)
            i += 2
        else:
            return None
    optional = sum(kw.get("nargs") == "?" for _, kw in positionals)
    if not (len(positionals) - optional <= len(run) <= len(positionals)
            and required <= {dest for dest, _, _ in given}):
        return None
    values = dict(defaults, group=argv[0], cmd=argv[1])
    for dest, kw, text in given + [(dest, kw, text) for (dest, kw), text
                                   in zip(positionals, run)]:
        try:
            value = kw["type"](text) if "type" in kw else text
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[dest] = ([*(values[dest] or ()), value]
                        if kw.get("action") == "append" else value)
    return argparse.Namespace(**values)


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_command(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        # a missing group leaves no 'cmd' attribute; a bare group leaves None
        if getattr(args, "cmd", None) is None:
            raise CliUsageError("missing subcommand")
        if args.window < 2:
            raise CliUsageError("--window must be at least 2")
        payload, lines = HANDLERS[(args.group, args.cmd)](args)
        _emit(args, f"{args.group} {args.cmd}", payload, lines)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_subcommand_listing(), file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("MemoryError: out of memory; try a smaller --window",
              file=sys.stderr)
        return 1
    except RecursionError:
        print("RecursionError: input nested deeper than Python's recursion "
              f"limit ({sys.getrecursionlimit()}) allows", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Python 3.11 and the 3.10 security releases refuse to print an int
        # of more than sys.get_int_max_str_digits() digits (4,300 by default)
        if "integer string conversion" not in str(exc):
            raise
        print("DomainError: the result has an int of more than "
              f"{sys.get_int_max_str_digits()} decimal digits, past Python's "
              "int-to-str limit; try a smaller --window or smaller numbers",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
