"""cli: in-process `bqo` invocations, checked byte for byte.

Each op is one bqo.cli.main(argv) call with stdout captured. The invocation
set is every README invocation plus two invocations per subcommand, mostly
at the default window, each in json and text format. Their stdout and exit codes
were captured on the commit that introduced this benchmark
(perfbench/capture_golden.py) and are compared byte for byte on every op, so
this workload is also the byte-identical canonical-output gate.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from bqo.cli import main

from common import OK

MODULES = ("bqo.cli",)
BUILDS_PARSER = True

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
_DATA = "perfbench/data/"  # argv paths are relative to the repository root

README = [
    (["rado", "witness", "0", "1"], None),
    (["front", "rank", "--schema", "schreier"], None),
    (["front", "step", "--schema", "schreier", "--at", "arith:3,2"], None),
    (["seq", "bad", "--fixture", "identity@u2", "--window", "12"], None),
    (["game", "solve", '(set (atom "1") (atom "2"))', '(set (atom "3"))'],
     None),
    (["game", "solve", "-", "--qo", "rado"],
     '(set (atom "{0,1}")) (set (atom "{1,2}"))\n'),
    (["extract", "nw", "--schema", "uniform", "--k", "2", "--rule",
      "sum-parity", "--target", "3", "--window", "8"], None),
    (["shift", "sigma", "affine:1,5", "affine:1,2", "--window", "12"], None),
    (["shift", "perfect", "--fixture", "min@u2", "--shift", "succ",
      "--shift", "affine:1,2", "--window", "12"], None),
]

SUBCOMMANDS = [
    (["qo", "validate", _DATA + "order.json"], None),
    (["qo", "relations", "3", "5"], None),
    (["qo", "product", _DATA + "order.json", _DATA + "chain2.json"], None),
    (["qo", "sum", _DATA + "sum.json"], None),
    (["rado", "witness", "2", "5"], None),
    (["rado", "demo"], None),
    (["front", "member", "--schema", "uniform", "--k", "2", "1,4"], None),
    (["front", "step", "--schema", "uniform", "--k", "3", "--at", "evens"],
     None),
    (["front", "ray", "--schema", "schreier", "2"], None),
    (["front", "restrict", "--schema", "uniform", "--k", "2", "--to", "odds"],
     None),
    (["front", "rank", "--schema", "uniform", "--k", "3"], None),
    (["front", "verify", "--schema", "schreier"], None),
    (["seq", "eval", "--fixture", "span@u3", "--at", "arith:1,3"], None),
    (["seq", "spare", "--fixture", "min@u2"], None),
    (["seq", "sparsify", "--fixture", "minmod2@u2"], None),
    (["seq", "bad", "--fixture", "span@u3"], None),
    (["seq", "perfect", "--fixture", "min@u2"], None),
    (["game", "solve", '(set (atom "{0,1}") (atom "{2,5}"))',
      '(set (atom "{1,4}"))', "--qo", "rado"], None),
    (["game", "play", '(set (atom "0") (set (atom "1")))', '(set (atom "2"))'],
     None),
    (["game", "supp", '(set (atom "{0,1}") (set (atom "{1,3}")))', "--qo",
      "rado"], None),
    (["game", "string"], None),
    (["game", "tilde", "--fixture", "min@u2"], None),
    (["extract", "ramsey", "6"], None),
    (["extract", "nw", "--schema", "uniform", "--k", "2", "--target", "4"],
     None),
    (["extract", "dichotomy", "--fixture", "min@u2"], None),
    (["extract", "laver", "--fixture", "identity@u2"], None),
    (["shift", "rho", "succ", "affine:1,2"], None),
    (["shift", "sigma", "affine:2,1", "succ"], None),
    (["shift", "critical", "affine:1,3"], None),
    (["shift", "orbit", "affine:1,2"], None),
    (["shift", "perfect", "--fixture", "min@u2"], None),
]

# a second invocation per subcommand, so that the pool holds more than 100
# distinct ops and its 90th percentile has ten ops beyond it
SUBCOMMANDS_2 = [
    (["qo", "validate", _DATA + "chain2.json"], None),
    (["qo", "relations", "{0,1}", "{1,2}", "--qo", "rado"], None),
    (["qo", "product", _DATA + "chain2.json", _DATA + "chain2.json"], None),
    (["qo", "sum", _DATA + "sum2.json"], None),
    (["rado", "witness", "3", "7"], None),
    (["rado", "demo", "--window", "6"], None),
    (["front", "member", "--schema", "schreier", "2,5,7"], None),
    (["front", "step", "--schema", "schreier", "--at", "odds"], None),
    (["front", "ray", "--schema", "uniform", "--k", "3", "4"], None),
    (["front", "restrict", "--schema", "schreier", "--to", "evens"], None),
    (["front", "rank", "--schema", "trivial"], None),
    (["front", "verify", "--schema", "uniform", "--k", "2"], None),
    (["seq", "eval", "--fixture", "min@schreier", "--at", "evens"], None),
    (["seq", "spare", "--fixture", "span@u2"], None),
    (["seq", "sparsify", "--fixture", "min@u3"], None),
    (["seq", "bad", "--fixture", "identity@u2"], None),
    (["seq", "perfect", "--fixture", "span@u2", "--relation", "eq"], None),
    (["game", "solve", '(set (atom "2"))', '(set (atom "1") (set (atom "3")))'],
     None),
    (["game", "play", '(set (atom "{0,2}"))',
      '(set (atom "{1,3}") (atom "{0,4}"))', "--qo", "rado"], None),
    (["game", "supp", '(set (set (atom "1") (atom "2")) (atom "3"))'], None),
    (["game", "string", "--at", "0,2,4"], None),
    (["game", "tilde", "--fixture", "min@u1"], None),
    (["extract", "ramsey", "7", "--rule", "min-parity"], None),
    (["extract", "nw", "--schema", "uniform", "--k", "3", "--target", "4",
      "--rule", "max-parity"], None),
    (["extract", "dichotomy", "--fixture", "min@u2", "--relation", "eq"], None),
    (["extract", "laver", "--fixture", "min@u2"], None),  # exits 1: not bad
    (["shift", "rho", "affine:2,1", "succ"], None),
    (["shift", "sigma", "affine:1,2", "affine:2,0"], None),
    (["shift", "critical", "succ"], None),
    (["shift", "orbit", "affine:2,1"], None),
    (["shift", "perfect", "--fixture", "min@u2", "--shift", "affine:2,0"], None),
]

FORMATS = ("json", "text")


def invocations(kinds: dict) -> list:
    """(argv, stdin) for the first `count` entries of each group, in both
    formats; the counts in workloads.json are per group and format pair."""
    groups = {"readme": README, "subcommand": SUBCOMMANDS,
              "subcommand_2": SUBCOMMANDS_2}
    out = []
    for group, spec in kinds.items():
        for argv, stdin in groups[group][:spec["count"] // len(FORMATS)]:
            out.extend((argv + ["--format", fmt], stdin) for fmt in FORMATS)
    return out


def call(argv, stdin):
    """bqo.cli.main(argv) with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def make_pool(rng, kinds: dict) -> list:
    golden = {json.dumps(entry["argv"]): entry
              for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    ops = []
    for argv, stdin in invocations(kinds):
        entry = golden.get(json.dumps(argv))
        if entry is None or entry["stdin"] != stdin:
            raise SystemExit(f"no golden output for {argv}; see {GOLDEN}")
        ops.append((argv, stdin, entry["exit"], entry["stdout"]))
    rng.shuffle(ops)
    return ops


def run(op):
    return call(op[0], op[1])


def fingerprint(result):
    return result


def check(op, outcome):
    """Exit code and stdout byte for byte against the golden capture."""
    status, result = outcome
    if status != OK:
        return f"bqo {' '.join(op[0])} raised {result!r}"
    if result != (op[2], op[3]):
        return f"bqo {' '.join(op[0])} differs from its golden output"
    return None
