"""Probes of a bqo command, such as the installed console script.

The probes: the README's nine invocations (one reads stdin `-`) in both
formats against the cli goldens; a help and a usage-error argv, which
argparse parses; a front member read far out in closed form; a descriptor
with a negative entry; the far Schreier scan; the sigma probes, one far out
in closed form and one past the int-to-str digit limit; a seq eval value
past that limit and an order file nested past the recursion limit; and a
seq front's pair count at windows 120 and 20,000.

Give the command to probe as the arguments:

    python tests/installed_probes.py bqo
    PYTHONPATH=src python tests/installed_probes.py python -m bqo.cli

It prints one line per group of probes, and exits with a message naming the
argv at the first probe that fails.
"""
from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "golden" / "cli.json"

README = [["rado", "witness", "0", "1"],
          ["front", "rank", "--schema", "schreier"],
          ["front", "step", "--schema", "schreier", "--at", "arith:3,2"],
          ["seq", "bad", "--fixture", "identity@u2", "--window", "12"],
          ["game", "solve", '(set (atom "1") (atom "2"))',
           '(set (atom "3"))'],
          ["game", "solve", "-", "--qo", "rado"],
          ["extract", "nw", "--schema", "uniform", "--k", "2", "--rule",
           "sum-parity", "--target", "3", "--window", "8"],
          ["shift", "sigma", "affine:1,5", "affine:1,2", "--window", "12"],
          ["shift", "perfect", "--fixture", "min@u2", "--shift", "succ",
           "--shift", "affine:1,2", "--window", "12"]]

# a seq front has no closed-form count: it sums its pairs over rays,
# building none, while the scan stops at top 3
SEQ = {"front": {"schema": "seq",
                 "rays": {"0": {"schema": "uniform", "k": 1},
                          "3": {"schema": "uniform", "k": 3}},
                 "default": {"schema": "uniform", "k": 2},
                 "rank": [4]},
       "valuation": {"rule": "constant:0"}}


def probe(cmd: list, argv: list, ok, stdin: str = ""):
    """Run the command on argv; exit naming argv unless ok(proc) holds."""
    proc = subprocess.run([*cmd, *argv], input=stdin, capture_output=True,
                          text=True, timeout=60)
    if not ok(proc):
        sys.exit(f"bqo {' '.join(argv)}: exit {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")


def main(cmd: list) -> None:
    name = " ".join(cmd)
    with open(GOLDEN, encoding="utf-8") as f:
        cases = [c for c in json.load(f) if c["argv"][:-2] in README]
    if not shutil.which(cmd[0]) or len(cases) != 2 * len(README):
        sys.exit(f"{name}: command not found, or {len(cases)} golden "
                 f"cases, not {2 * len(README)}")
    for case in cases:
        probe(cmd, case["argv"], lambda p, c=case: (p.returncode, p.stdout)
              == (c["exit"], c["stdout"]), stdin=case["stdin"])
    print(f"{name}: {len(cases)} README cases match")

    probe(cmd, ["game", "solve", "--help"], lambda p: p.returncode == 0
          and p.stdout.startswith("usage: bqo game solve"))
    probe(cmd, ["rado", "witness", "0", "one"], lambda p: p.returncode == 2
          and p.stderr.startswith("error:"))
    print(f"{name}: help and a usage error go through argparse")

    probe(cmd, ["front", "member", "--schema", "uniform", "--k", "2",
                "0,100000000"],
          lambda p: p.returncode == 0 and "member: true" in p.stdout)
    probe(cmd, ["front", "step", "--schema", "uniform", "--k", "2", "--at",
                "arith:-4,2"],
          lambda p: p.returncode == 2 and p.stderr.startswith("error:")
          and "Traceback" not in p.stderr)
    print(f"{name}: a far front member and a negative entry")

    # the Schreier scan stops at its witness, whose largest entry is 2, and
    # counts its pairs in closed form; sigma iterates a descriptor shift in
    # closed form, whatever f's offset
    probe(cmd, ["seq", "bad", "--fixture", "min@schreier", "--window",
                "20000", "--format", "json"],
          lambda p: p.returncode == 0
          and json.loads(p.stdout)["good_witness"] == [[0], [1, 2]])
    probe(cmd, ["shift", "sigma", "affine:1,1000000", "succ", "--window",
                "4"], lambda p: p.returncode == 0)
    # sigma's values of affine:1,14300 under affine:2,1 have 4,305 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    past_the_digit_limit = [
        f"DomainError: the result has an int of more than {limit} decimal "
        "digits, past Python's int-to-str limit; try a smaller --window or "
        "smaller numbers"]
    if limit:
        for fmt in ("text", "json"):
            probe(cmd, ["shift", "sigma", "affine:1,14300", "affine:2,1",
                        "--window", "4", "--format", fmt],
                  lambda p: (p.returncode, p.stdout) == (1, "")
                  and p.stderr.splitlines() == past_the_digit_limit)
    print(f"{name}: the Schreier and sigma probes")

    # span's value at arith:0,D, D the longest int argv reads, has one digit
    # more; the order file nests its arrays past the recursion limit
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        for fmt in ("text", "json"):
            if limit:
                probe(cmd, ["seq", "eval", "--fixture", "span@u3", "--at",
                            f"arith:0,{'9' * limit}", "--format", fmt],
                      lambda p: (p.returncode, p.stdout) == (1, "")
                      and p.stderr.splitlines() == past_the_digit_limit)
            probe(cmd, ["qo", "validate", str(path), "--format", fmt],
                  lambda p: (p.returncode, p.stdout) == (1, "")
                  and p.stderr.splitlines() == [
                      "RecursionError: input nested deeper than Python's "
                      f"recursion limit ({sys.getrecursionlimit()}) allows"])
    print(f"{name}: an int past the digit limit and input past the "
          "recursion limit")

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "seq.json"
        path.write_text(json.dumps(SEQ), encoding="utf-8")
        for window, count in (("120", 8954940),
                              ("20000", 6668663251004910)):
            probe(cmd, ["seq", "bad", "--file", str(path), "--codomain",
                        "omega-leq", "--window", window, "--format", "json"],
                  lambda p, count=count: p.returncode == 0
                  and [json.loads(p.stdout)[key] for key in
                       ("good_witness", "pairs_scanned")]
                  == [[[0, 1], [1, 2, 3]], count])
    print(f"{name}: the seq front's ray-sum count")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: installed_probes.py COMMAND [ARG ...]")
    main(sys.argv[1:])
