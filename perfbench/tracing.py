"""Per-layer tracing for the traced run, installed from the benchmark only.

Tracer.install() rebinds every public function of each layer module at
every bqo.* module binding and in the benchmark's workload modules, plus
the quasi-order comparisons (RADO.leq, OMEGA.leq, FiniteQO.leq), the InfSet
methods, SuperSeq.value, IncInj calls and Node construction. InfSet.nth is
left unwrapped: it runs millions of times inside the other InfSet methods,
and wrapping it multiplied the extract workload's traced time by five.
Elements materialised are counted instead from the caches of every InfSet
created while the tracer is installed. A call that enters a layer from
another layer (or from the benchmark) opens a span; a call inside its own
layer only counts.
A layer's self time is its span time minus the time covered by its child
spans, which always belong to other layers. Spans stay in memory, in
arrays, until write_spans() at the end. uninstall() restores every binding,
so timed runs never see a wrapper.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import bqo.cli
import bqo.fronts
import bqo.games
import bqo.hset
import bqo.qo
import bqo.ramsey
import bqo.shifts
import bqo.streams
import bqo.superseq

LAYERS = ("streams", "fronts", "qo", "superseq", "hset", "games", "ramsey",
          "shifts", "cli")

# (metric, unit, better) in report order; BENCHMARK.json lists the same
PER_LAYER = [
    ("qo.calls", "count", "lower"), ("qo.self_s", "s", "lower"),
    ("qo.comparisons", "count", "lower"),
    ("qo.rado_comparisons", "count", "lower"),
    ("qo.carrier_checks", "count", "lower"),
    ("superseq.calls", "count", "lower"), ("superseq.self_s", "s", "lower"),
    ("superseq.value_calls", "count", "lower"),
    ("superseq.value_misses", "count", "lower"),
    ("superseq.pairs_built", "count", "lower"),
    ("superseq.pairs_compared", "count", "lower"),
    ("superseq.pair_use_ratio", "ratio", "higher"),
    ("fronts.calls", "count", "lower"), ("fronts.self_s", "s", "lower"),
    ("fronts.members_enumerated", "count", "lower"),
    ("fronts.shift_pairs", "count", "lower"),
    ("fronts.member_tests", "count", "lower"),
    ("fronts.rays", "count", "lower"),
    ("streams.calls", "count", "lower"), ("streams.self_s", "s", "lower"),
    ("streams.contains_calls", "count", "lower"),
    ("streams.after_calls", "count", "lower"),
    ("streams.materialised", "count", "lower"),
    ("hset.calls", "count", "lower"), ("hset.self_s", "s", "lower"),
    ("hset.parse_s", "s", "lower"), ("hset.nodes_built", "count", "lower"),
    ("hset.canon_key_hits", "count", "higher"),
    ("hset.canon_key_misses", "count", "lower"),
    ("games.calls", "count", "lower"), ("games.self_s", "s", "lower"),
    ("games.solves", "count", "lower"), ("games.positions", "count", "lower"),
    ("games.memo_hits", "count", "higher"),
    ("games.strategy_entries", "count", "lower"),
    ("ramsey.calls", "count", "lower"), ("ramsey.self_s", "s", "lower"),
    ("ramsey.explored", "count", "lower"),
    ("ramsey.color_calls", "count", "lower"),
    ("ramsey.join_nodes", "count", "lower"),
    ("shifts.calls", "count", "lower"), ("shifts.self_s", "s", "lower"),
    ("shifts.inj_evals", "count", "lower"),
    ("shifts.join_nodes", "count", "lower"),
    ("shifts.candidates_tried", "count", "lower"),
    ("cli.calls", "count", "lower"), ("cli.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"), ("cli.render_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.traced_ops_s", "ops/s", "higher"),
    ("trace.overhead_ops_s", "ops/s", "lower"),
]

# spans beyond this many are aggregated but not kept one by one
SPAN_LIMIT = 500_000


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.phase_s = Counter()
        self.stack = []          # open spans: [layer, covered seconds, id]
        self.op = -1             # index of the op being run, set by the caller
        self.names = []
        self.spans = {col: array(code) for col, code in (
            ("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("op", "q"))}
        self.span_count = 0
        self._undo = []
        self._canon_before = None
        self._infsets = []

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, layer: str, name: str, fn):
        stack, self_s, spans = self.stack, self.self_s, self.spans
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")

        def spanned(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = stack[-1][2] if stack else -1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span_id < SPAN_LIMIT:
                    for col, v in (("id", span_id), ("name", name_id),
                                   ("start", start), ("end", end),
                                   ("parent", parent), ("op", self.op)):
                        spans[col].append(v)
        return spanned

    def _wrap(self, layer: str, name: str, fn, around=None, public=True):
        """`around(caller_layer, call, args, kwargs)` makes the call itself,
        so it can count arguments, results or state around it."""
        counts, stack = self.counts, self.stack
        calls = f"{layer}.calls"
        spanned = self._spanned(layer, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if public:
                counts[calls] += 1
            caller = stack[-1][0] if stack else None
            call = fn if caller == layer else spanned
            if around is None:
                return call(*args, **kwargs)
            return around(caller, call, args, kwargs)
        return wrapper

    def _phase(self, key: str, fn):
        phase_s = self.phase_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phase_s[key] += perf_counter() - start
        return timed

    # --- counters ---------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def sized(key):
            def around(caller, call, args, kwargs):
                out = call(*args, **kwargs)
                c[key] += len(out)
                return out
            return around

        def shift_pairs(caller, call, args, kwargs):
            out = call(*args, **kwargs)
            c["fronts.shift_pairs"] += len(out)
            if caller == "superseq":
                c["superseq.pairs_built"] += len(out)
            return out

        def counted(key, then=None):
            def around(caller, call, args, kwargs):
                if key:
                    c[key] += 1
                out = call(*args, **kwargs)
                if then is not None:
                    then(out)
                return out
            return around

        def comparison(rado: bool):
            def around(caller, call, args, kwargs):
                c["qo.comparisons"] += 1
                if rado:
                    c["qo.rado_comparisons"] += 1
                if caller == "superseq":
                    c["superseq.pairs_compared"] += 1
                return call(*args, **kwargs)
            return around

        def counting_color(color):
            def counted_color(s):
                c["ramsey.color_calls"] += 1
                return color(s)
            return counted_color

        def finite_ramsey(caller, call, args, kwargs):
            args = args[:3] + (counting_color(args[3]),) + args[4:]
            out = call(*args, **kwargs)
            c["ramsey.explored"] += out.explored
            return out

        def nw_extract(caller, call, args, kwargs):
            col = args[0]
            if dataclasses.is_dataclass(col):
                col = dataclasses.replace(col, color=counting_color(col.color))
            return call(col, *args[1:], **kwargs)

        def laver_embed(caller, call, args, kwargs):
            out = call(*args, **kwargs)
            c["ramsey.explored"] += out.triples.explored + out.quadruples.explored
            return out

        def value(caller, call, args, kwargs):
            cache = getattr(args[0], "_cache", None)
            before = len(cache) if cache is not None else 0
            out = call(*args, **kwargs)
            c["superseq.value_calls"] += 1
            if cache is not None:
                c["superseq.value_misses"] += len(cache) - before
            return out

        def ii_wins(caller, call, args, kwargs):
            x, y, _, memo = args
            c["games.memo_hits" if (x, y) in memo else "games.positions"] += 1
            return call(*args, **kwargs)

        def main(caller, call, args, kwargs):
            out = sys.stdout
            before = out.tell() if hasattr(out, "tell") else 0
            try:
                return call(*args, **kwargs)
            finally:
                if hasattr(out, "tell"):
                    c["cli.bytes_out"] += out.tell() - before

        def add_strategy(res):
            c["games.strategy_entries"] += len(res.strategy)

        def add_candidates(rep):
            c["shifts.candidates_tried"] += rep.candidates_tried

        return {
            "fronts.members_within": sized("fronts.members_enumerated"),
            "fronts.shift_pairs_within": shift_pairs,
            "fronts.front_member": counted("fronts.member_tests"),
            "fronts.ray": counted("fronts.rays"),
            "qo.rado_leq": comparison(rado=True),
            "qo.RADO.leq": comparison(rado=True),
            "qo.OMEGA.leq": comparison(rado=False),
            "qo.FiniteQO.leq": comparison(rado=False),
            "qo._check_rado_pair": counted("qo.carrier_checks"),
            "streams.InfSet.contains": counted("streams.contains_calls"),
            "streams.InfSet.after": counted("streams.after_calls"),
            "superseq.SuperSeq.value": value,
            "hset.Node.__post_init__": counted("hset.nodes_built"),
            "games.game_leq": counted("games.solves", add_strategy),
            "games._ii_wins": ii_wins,
            "ramsey.finite_ramsey": finite_ramsey,
            "ramsey.nw_extract": nw_extract,
            "ramsey.laver_embed": laver_embed,
            "ramsey.join_nodes": sized("ramsey.join_nodes"),
            "shifts.g_join_nodes": sized("shifts.join_nodes"),
            "shifts.g_perfect_extract": counted(None, add_candidates),
            "shifts.IncInj.__call__": counted("shifts.inj_evals"),
            "cli.main": main,
        }

    # --- install / uninstall ----------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        old = vars(owner).get(name)
        if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
            object.__setattr__(owner, name, value)   # frozen RADO / OMEGA
        else:
            setattr(owner, name, value)
        self._undo.append((owner, name, had, old))

    def install(self) -> None:
        hooks = self._hooks()
        phases = {"hset.parse_sexpr": "hset.parse_s",
                  "cli.build_parser": "cli.parse_s", "cli._emit": "cli.render_s"}

        def wrap(layer, name, fn, public=True):
            key = f"{layer}.{name}"
            if key in phases:
                fn = self._phase(phases[key], fn)
            return self._wrap(layer, name, fn, hooks.get(key), public)

        replaced = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"bqo.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replaced[id(obj)] = obj, wrap(layer, name, obj)
        for layer, name in (("qo", "_check_rado_pair"), ("games", "_ii_wins"),
                            ("cli", "_emit")):
            obj = getattr(sys.modules[f"bqo.{layer}"], name, None)
            if inspect.isfunction(obj):
                replaced[id(obj)] = obj, wrap(layer, name, obj, public=False)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith(("bqo.", "workload_")):
                for name, obj in list(vars(mod).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._set(mod, name, hit[1])

        for name in ("prefix", "upto", "contains", "after", "shift",
                     "agrees_upto", "subset_prefix_of"):
            self._method("streams", bqo.streams.InfSet, name, wrap)
        init, created = bqo.streams.InfSet.__init__, self._infsets

        def registering_init(infset, *args, **kwargs):
            init(infset, *args, **kwargs)
            created.append(infset)
        self._set(bqo.streams.InfSet, "__init__", registering_init)
        self._method("superseq", bqo.superseq.SuperSeq, "value", wrap)
        self._method("shifts", bqo.shifts.IncInj, "__call__", wrap)
        self._method("shifts", bqo.shifts.IncInj, "values", wrap)
        self._method("qo", bqo.qo.FiniteQO, "leq", wrap)
        self._method("hset", bqo.hset.Node, "__post_init__", wrap, public=False)
        for label, order in (("RADO", bqo.qo.RADO), ("OMEGA", bqo.qo.OMEGA)):
            self._set(order, "leq", wrap("qo", f"{label}.leq", order.leq))
        parser_cls = getattr(bqo.cli, "_Parser", None)
        if parser_cls is not None:
            self._set(parser_cls, "parse_args",
                      self._phase("cli.parse_s", parser_cls.parse_args))
        info = getattr(bqo.hset.canon_key, "cache_info", None)
        self._canon_before = info() if info else None

    def _method(self, layer, cls, name, wrap, public=True) -> None:
        fn = vars(cls).get(name)
        if fn is not None:
            self._set(cls, name,
                      wrap(layer, f"{cls.__name__}.{name}", fn, public))

    def uninstall(self) -> None:
        info = getattr(bqo.hset.canon_key, "cache_info", None)
        if info and self._canon_before is not None:
            after = info()
            self.counts["hset.canon_key_hits"] += after.hits - self._canon_before.hits
            self.counts["hset.canon_key_misses"] += (
                after.misses - self._canon_before.misses)
        self.counts["streams.materialised"] += sum(
            len(getattr(infset, "_cache", ())) for infset in self._infsets)
        self._infsets.clear()
        for owner, name, had, old in reversed(self._undo):
            if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
                object.__setattr__(owner, name, old)
            elif had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._undo.clear()

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except the trace.* throughput pair."""
        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, what = name.partition(".")
            if layer == "trace":
                continue
            if what == "self_s":
                out[name] = self.self_s[layer]
            elif what.endswith("_s"):
                out[name] = self.phase_s[name]
            else:
                out[name] = self.counts[name]
        built = self.counts["superseq.pairs_built"]
        out["superseq.pair_use_ratio"] = (
            self.counts["superseq.pairs_compared"] / built if built else 0.0)
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped tab-separated rows; returns how
        many were kept."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.spans
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f"# spans {self.span_count}, kept {len(cols['id'])}\n")
            fh.write("id\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(cols["id"])):
                fh.write(f"{cols['id'][i]}\t{names[cols['name'][i]]}\t"
                         f"{cols['start'][i]:.9f}\t{cols['end'][i]:.9f}\t"
                         f"{cols['parent'][i]}\t{cols['op'][i]}\n")
        return len(cols["id"])
