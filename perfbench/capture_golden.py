"""Capture the cli workload's golden outputs: exit code and stdout of every
invocation. Run it from the repository root, on the commit whose output is
the reference, never on a change under test:

    python3 perfbench/capture_golden.py

Every invocation runs in its own fresh interpreter, twice with different
hash seeds; an invocation whose output differs between the two is reported
and the capture fails.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from workload_cli import call
argv, stdin = json.loads(sys.stdin.read())
code, out = call(argv, stdin)
print(json.dumps([code, out]))
"""


def _capture(argv, stdin, hash_seed: str):
    code = _CHILD.format(src=str(ROOT / "src"), here=str(HERE))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          input=json.dumps([argv, stdin]), text=True,
                          capture_output=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workload_cli import invocations

    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    entries, unstable = [], []
    for argv, stdin in invocations(spec["workloads"]["cli"]["ops"]):
        first = _capture(argv, stdin, "1")
        if _capture(argv, stdin, "2") != first:
            unstable.append(argv)
        entries.append({"argv": argv, "stdin": stdin, "exit": first[0],
                        "stdout": first[1]})
    if unstable:
        for argv in unstable:
            print(f"output depends on the hash seed: {argv}", file=sys.stderr)
        return 1
    target = HERE / "golden" / "cli.json"
    target.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} golden outputs to {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
