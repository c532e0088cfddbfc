"""Hereditarily finite sets, the lifted-order game, stringing, and folding."""
from __future__ import annotations

import ast
import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqo.hset
import bqo.qo
from bqo.errors import (BadIndices, EmptyTruncation, IllegalMove,
                        InsufficientPrefix, InvariantViolated, MixedBaseQO,
                        NotBad)
from bqo.fronts import schreier_front, uniform_front
from bqo.games import (GameResult, game_leq, game_leq_oracle, game_play,
                       string_strategies, tilde_build)
from bqo.hset import (_READ, MAX_SEXPR_DEPTH, Atom, Node, _compare_keys,
                      all_hsets, canon_key, depth, distinct_atoms,
                      hset_to_sexpr, iter_atoms, node,
                      parse_sexpr, parse_sexprs, random_hset, supp)
from bqo.qo import (RADO, CodedQO, antichain, chain, domination_leq, rado_leq,
                    rado_window_qo, resolve_qo)
from bqo.streams import omega
from bqo.superseq import SuperSeq, named_valuation

from _helpers import (_tokenize_reference, enumerate_preorders,
                      parse_sexpr_reference,
                      parse_sexprs_reference, solve_reference,
                      strung_call_reference, subsets, tilde_table_reference)

AC2 = antichain(2)
A0, A1 = AC2.elements


def nested_sexpr(levels: int, label: str = "1") -> str:
    """An atom inside `levels` singleton sets."""
    return "(set " * levels + f'(atom "{label}")' + ")" * levels


def rado_powerset_sequence(window: int) -> list:
    """X_m = the set of pairs {m, n} for m < n <= window: the canonical
    bad sequence in the lifted powerset over the two-clause pair order."""
    return [node(Atom((m, n)) for n in range(m + 1, window + 1))
            for m in range(window)]


class TestHSetBasics:
    def test_children_canonical_and_deduped(self):
        x = node([Atom(A1), Atom(A0), Atom(A0)])
        assert x == node([Atom(A0), Atom(A1)])
        assert x.children == (Atom(A0), Atom(A1))

    def test_nested_equality_ignores_order(self):
        x = node([node([Atom(A0)]), Atom(A1)])
        y = node([Atom(A1), node([Atom(A0)])])
        assert x == y and hash(x) == hash(y)

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            node([])

    def test_supp_of_atom_is_singleton(self):
        assert supp(Atom("a")) == {"a"}

    def test_supp_recursive_union(self):
        assert supp(node([Atom("a"), node([Atom("b")])])) == {"a", "b"}

    def test_supp_of_flat_set_is_itself(self):
        assert supp(node([Atom("a"), Atom("b"), Atom("c")])) == {"a", "b", "c"}

    def test_depth(self):
        assert depth(Atom(A0)) == 0
        assert depth(node([Atom(A0)])) == 1
        assert depth(node([Atom(A0), node([Atom(A1)])])) == 2

    def test_iter_atoms_counts_positions(self):
        x = node([node([Atom(A0)]), node([Atom(A0), Atom(A1)])])
        assert sorted(a.value for a in iter_atoms(x)) == [A0, A0, A1]

    def test_enumeration_counts(self):
        assert len(all_hsets(AC2.elements, 0)) == 2
        assert len(all_hsets(AC2.elements, 1)) == 5
        assert len(all_hsets(AC2.elements, 2)) == 33

    def test_canon_key_total_order(self):
        hs = all_hsets(AC2.elements, 2)
        keys = [canon_key(h) for h in hs]
        assert len(set(keys)) == len(hs)
        assert sorted(keys) == sorted(keys)  # comparable without TypeError

    def test_flat_keys_order_as_nested_keys(self):
        # a node's stored key (1, *child keys) sorts every pair of sets as
        # the nested key (1, tuple(child keys)) does
        def nested(h):
            if isinstance(h, Atom):
                return canon_key(h)
            return (1, tuple(nested(c) for c in h.children))

        hs = list(all_hsets((0, "a", (1, 2)), 2)[:400])
        rng = random.Random(3)
        hs += [random_hset(rng, (0, 1, "a", (1, 2)), 4, branch=4)
               for _ in range(200)]
        for x, y in itertools.product(hs[::7], repeat=2):
            assert (canon_key(x) < canon_key(y)) == (nested(x) < nested(y))
        assert sorted(hs, key=canon_key) == sorted(hs, key=nested)


class TestSExpr:
    def test_atom_format(self):
        assert hset_to_sexpr(Atom("a")) == '(atom "a")'

    def test_node_format_canonical(self):
        x = node([Atom("b"), Atom("a")])
        assert hset_to_sexpr(x) == '(set (atom "a") (atom "b"))'

    def test_round_trip_string_atoms(self):
        x = node([Atom("a"), node([Atom("b"), Atom("c")])])
        assert parse_sexpr(hset_to_sexpr(x)) == x

    def test_round_trip_int_atoms(self):
        x = node([Atom(0), node([Atom(1)])])
        assert parse_sexpr(hset_to_sexpr(x), parse_atom=int) == x

    def test_parse_recanonicalizes(self):
        got = parse_sexpr('(set (atom "b") (atom "a") (atom "a"))')
        assert got == node([Atom("a"), Atom("b")])

    def test_format_parse_format_is_stable(self):
        text = '(set (atom "b") (set (atom "a") (atom "c")) (atom "a"))'
        once = hset_to_sexpr(parse_sexpr(text))
        assert hset_to_sexpr(parse_sexpr(once)) == once

    @pytest.mark.parametrize("bad", [
        '(atom "a"',          # unbalanced
        '(set)',              # empty set
        '(atom "a") extra',   # trailing tokens
        '(pair "a")',         # unknown head
        '(atom "a',           # unterminated label
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_sexpr(bad)

    def test_nesting_up_to_the_limit_parses_and_plays(self):
        deep = parse_sexpr(nested_sexpr(MAX_SEXPR_DEPTH, "1"), int)
        assert depth(deep) == MAX_SEXPR_DEPTH
        assert parse_sexpr(hset_to_sexpr(deep), int) == deep
        # both operands at the limit; deeper sets built in code are played
        # in TestDeepSets
        other = parse_sexpr(nested_sexpr(MAX_SEXPR_DEPTH, "2"), int)
        assert game_leq(deep, other, chain(3)).winner == "II"
        assert game_leq(other, deep, chain(3)).winner == "I"

    @pytest.mark.parametrize("extra", [1, 2, 1000])
    def test_nesting_past_the_limit_names_the_token(self, extra):
        text = nested_sexpr(MAX_SEXPR_DEPTH + extra)
        # token 2 * MAX_SEXPR_DEPTH opens the first set past the limit
        with pytest.raises(ValueError, match=(
                f"^sets nested deeper than {MAX_SEXPR_DEPTH} "
                f"at token {2 * MAX_SEXPR_DEPTH}$")):
            parse_sexpr(text)


def _outcome(parse, text, parse_atom=lambda s: s):
    """The tree a parser returns, or the type and message it raises."""
    try:
        return parse(text, parse_atom)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


MALFORMED = [
    '(atom "a"', '(set)', '(atom "a") extra', '(pair "a")', '(atom "a',
    '(set (atom a) x)', '(atom)', '(atom "a\\")', '(atom "a") "',
    '(set) (atom "a', '(pair "a") "', '', '   ', ')', '(', 'x', '"',
    '(set (atom "a")', '(atom "a" "b")', '("atom" "a")', '("set" (atom a))',
    '(set (atom "a") ())', '(atom ()', '(atom ))', '(set (atom "a")) (',
    '((atom "a"))', '(atom "a"))', '(set "a")', '(set (atom "a") (set))',
    '(atom "x" (set', '(set (atom a) (atom', '(atom a\\', '(atom \\")',
]

# parses to a tree, with escapes, odd whitespace, symbol and empty labels
WELL_FORMED = [
    '(atom "a\\"b")', '(atom "a\\\\")', '(atom "")', '(atom a)',
    '(atom atom)', '(atom set)', '(set (atom "x\\\ny") (atom x))',
    '(set\n\t(atom "b")\r(atom b) (atom "a"))',
    '(set (set (atom "a") (atom "a")) (set (atom a)))',
    '(set\u00a0(atom\u2003"a")\u3000)', '(set (atom "a")\x0b)',
]

_PIECES = ['(', ')', '(', ')', 'set', 'atom', '"a"', '"b c"', '"', 'x',
           ' ', ' ', '\\', '"\\""', '\n']


class TestParserMatchesReference:
    """parse_sexpr against the recursive-descent reference parser."""

    def test_depth_two_round_trips(self):
        for h in all_hsets(('a"b', "c\\ d)"), 2):
            text = hset_to_sexpr(h)
            got = parse_sexpr(text)
            assert got == parse_sexpr_reference(text) == h
            assert hset_to_sexpr(got) == text

    def test_seeded_random_round_trips(self):
        rng = random.Random(4)
        pairs = [(m, n) for m in range(6) for n in range(m + 1, 6)]
        for _ in range(300):
            h = random_hset(rng, pairs, 4, branch=4)
            text = hset_to_sexpr(h, RADO.fmt)
            got = parse_sexpr(text, RADO.parse)
            assert got == parse_sexpr_reference(text, RADO.parse) == h

    @pytest.mark.parametrize("text", MALFORMED + WELL_FORMED)
    def test_corpus(self, text):
        assert _outcome(parse_sexpr, text) == _outcome(parse_sexpr_reference,
                                                       text)

    def test_malformed_corpus_raises(self):
        for text in MALFORMED:
            for parse in (parse_sexpr, parse_sexprs):
                with pytest.raises(ValueError):
                    parse(text)

    def test_well_formed_corpus_parses(self):
        for text in WELL_FORMED:
            assert isinstance(parse_sexpr(text), (Atom, Node))
            assert parse_sexprs(text) == [parse_sexpr(text)]

    def test_unterminated_literal_wins_over_every_other_error(self):
        for text in MALFORMED:
            if text.count('"') % 2 == 0 and "\\" not in text:
                assert _outcome(parse_sexpr, text + ' "') == (
                    "ValueError", "unterminated string literal")

    def test_seeded_token_soup(self):
        rng = random.Random(11)
        for _ in range(3000):
            text = "".join(rng.choice(_PIECES)
                           for _ in range(rng.randint(0, 14)))
            assert _outcome(parse_sexpr, text) == _outcome(
                parse_sexpr_reference, text), text

    def test_atom_errors_come_in_token_order(self):
        # parse_atom raises on "x"; a syntax error before it wins, and an
        # unterminated literal anywhere wins over both
        for text in ['(set (atom "{0,1}") (atom "x"))',
                     '(set (atom "x") (pair "a"))',
                     '(set (pair "a") (atom "x"))',
                     '(set (atom "x"',
                     '(set (atom "{0,1}") (atom "{0,1}") (set (atom "x")))',
                     '(set (atom "x") (atom "{0,1}")) (atom "',
                     '(set (atom "x") (set) (atom "{0,1}" "b"))',
                     '(set (set) (atom "x"))',
                     '(set (atom "{0,1}" "b") (atom "x"))']:
            expected = _outcome(parse_sexpr_reference, text, RADO.parse)
            assert isinstance(expected, tuple), text
            for parse in (parse_sexpr, parse_sexprs):
                assert _outcome(parse, text, RADO.parse) == expected, text

    def test_the_reader_matches_are_the_tokens(self):
        # each match expanded: a whole atom is "(", atom, its label and
        # ")", a set opening is "(" and set, any other match is one token;
        # where the reference raises, the last match is the unterminated
        # quote and the matches before it are the tokens before it
        rng = random.Random(11)
        soup = ["".join(rng.choice(_PIECES)
                        for _ in range(rng.randint(0, 14)))
                for _ in range(3000)]
        unterminated = 0
        for text in MALFORMED + WELL_FORMED + soup:
            matches = list(_READ.finditer(text))
            try:
                expected = _tokenize_reference(text)
            except ValueError:
                unterminated += 1
                last = matches.pop()
                assert last.group(3)[0] == '"' and \
                    last.end() == len(text), text
                with pytest.raises(ValueError,
                                   match="^unterminated string literal$"):
                    _tokenize_reference(last.group(3))
                expected = _tokenize_reference(text[:last.start()])
            tokens = []
            for label, opened, other in (m.groups() for m in matches):
                if label:
                    tokens += ["(", ("sym", "atom"),
                               *_tokenize_reference(label), ")"]
                elif opened:
                    tokens += ["(", ("sym", "set")]
                else:
                    tokens += _tokenize_reference(other)
            assert tokens == expected, text
        assert 0 < unterminated < len(soup)

    def test_one_atom_and_one_parse_atom_call_per_label(self):
        labels = []

        def parse_atom(label):
            labels.append(label)
            return int(label)

        h = parse_sexpr('(set (atom 1) (set (atom "1") (atom 2)) '
                        '(set (set (atom 2))))', parse_atom)
        assert labels == ["1", "2"]
        atoms = list(iter_atoms(h))
        assert len(atoms) == 4
        assert len({id(a) for a in atoms}) == 2


# labels that a paren-counting splitter or a naive quoting would break
_TRICKY_LABELS = st.text(alphabet='ab()"\\ ', max_size=4)

# whitespace the tokenizer skips, Unicode included, and the empty gap
_GAPS = st.sampled_from(["", " ", "\n", "\t ", "\r\n", "\u00a0", "\u2003",
                         "\u3000", "\x0b"])
_SYMBOL_LABELS = st.one_of(
    st.sampled_from(["atom", "set", "\\", "{0,1}"]),
    st.text(alphabet="ab{},01\\", min_size=1, max_size=4))


def _well_formed(draw, levels: int) -> tuple:
    """One well-formed expression drawn in any form the tokenizer accepts,
    with its atom labels left to right."""
    def gap():
        return draw(_GAPS)

    if levels == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            label = draw(st.text(alphabet='ab()"\\ \n\u3000', max_size=4))
            every = draw(st.booleans())     # escape every character
            body = "".join("\\" + c if every or c in '"\\' else c
                           for c in label)
            head = f'atom{gap()}"{body}"'   # (atom"a") has no gap
        else:
            label = draw(_SYMBOL_LABELS)
            head = f"atom{draw(_GAPS.filter(bool))}{label}"
        return f"({gap()}{head}{gap()})", [label]
    parts, labels = [f"({gap()}set"], []
    for _ in range(draw(st.integers(1, 3))):
        text, more = _well_formed(draw, levels - 1)
        parts += (gap(), text)
        labels += more
    parts += (gap(), ")")
    return "".join(parts), labels


def _labelled_hsets():
    return st.recursive(
        _TRICKY_LABELS.map(Atom),
        lambda ch: st.lists(ch, min_size=1, max_size=3).map(node),
        max_leaves=8)


class TestParseSexprs:
    """parse_sexprs reads every expression of a text with one Atom per
    label."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_labelled_hsets(), min_size=1, max_size=4),
           st.sampled_from(["", " ", "\n\t"]))
    def test_concatenated_texts_round_trip_with_shared_atoms(self, hs, sep):
        got = parse_sexprs(sep.join(hset_to_sexpr(h) for h in hs))
        assert got == hs
        shared: dict = {}
        for a in (a for h in got for a in iter_atoms(h)):
            assert shared.setdefault(a.value, a) is a

    def test_parse_atom_runs_once_per_label_across_expressions(self):
        labels = []

        def parse_atom(label):
            labels.append(label)
            return int(label)

        x, y, z = parse_sexprs('(set (atom 1) (atom 2))(atom "1") '
                               '(set (atom 2) (atom 3))', parse_atom)
        assert labels == ["1", "2", "3"]
        assert y is x.children[0] and z.children[0] is x.children[1]

    def test_seeded_token_soup(self):
        rng = random.Random(11)
        for _ in range(3000):
            text = "".join(rng.choice(_PIECES)
                           for _ in range(rng.randint(0, 14)))
            assert _outcome(parse_sexprs, text) == _outcome(
                parse_sexprs_reference, text), text

    @pytest.mark.parametrize("text, error", [
        ('(atom "{0,1}") (set (atom "x") (pair "a"))',
         ("NotAPair", "cannot parse 'x' as a pair")),
        ('(atom "{0,1}") (set (pair "a") (atom "x"))',
         ("ValueError", "expected 'atom' or 'set', got 'pair'")),
        ('(atom "{0,1}") (atom "x") (atom "', (
            "ValueError", "unterminated string literal")),
    ])
    def test_atom_errors_in_a_later_expression_come_in_token_order(
            self, text, error):
        assert _outcome(parse_sexprs, text, RADO.parse) == error

    @pytest.mark.parametrize("text, message", [
        ("", "expected '(' at token 0"),
        (" \n", "expected '(' at token 0"),
        ('(set (atom "1")) (set (atom "2")', "expected ')' at token 13"),
        ('(atom "1") (atom "2") (set', "expected ')' at token 10"),
        ('(atom "1") (atom "2") x', "expected '(' at token 8"),
        ('(atom "1") (atom "2', "unterminated string literal"),
    ])
    def test_empty_or_cut_off_text_raises(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sexprs(text)


class TestReader:
    """The one-match-per-atom reader gives the reference trees on every
    well-formed form."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_well_formed_texts_read_as_the_reference_parses(self, data):
        exprs, labels = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            text, more = _well_formed(data.draw, 3)
            exprs.append(text)
            labels += more
        gaps = [data.draw(_GAPS) for _ in exprs]
        text = "".join(g + e for g, e in zip(gaps, exprs)) + data.draw(_GAPS)
        expected = [parse_sexpr_reference(e) for e in exprs]
        log = []

        def parse_atom(label):
            log.append(label)
            return label

        assert parse_sexprs(text, parse_atom) == expected
        assert log == list(dict.fromkeys(labels))
        assert parse_sexpr(exprs[0], parse_atom) == expected[0]
        if len(exprs) > 1:
            assert _outcome(parse_sexpr, text) == _outcome(
                parse_sexpr_reference, text)

    def test_parse_atom_runs_once_per_label_on_text_that_raises(self):
        # labels RADO.parse takes and refuses, and the syntax around them
        pieces = ['(set', '(atom "{0,1}")', '(atom "{1,2}")', '(atom "x")',
                  '(atom {0,1})', '(atom', ')', ')', '"', ' ', '(', 'x']
        rng = random.Random(12)
        raised = 0
        for _ in range(3000):
            text = " ".join(rng.choice(pieces)
                            for _ in range(rng.randint(1, 10)))
            for parse in (parse_sexpr, parse_sexprs):
                labels = []

                def parse_atom(label):
                    labels.append(label)
                    return RADO.parse(label)

                outcome = _outcome(parse, text, parse_atom)
                raised += isinstance(outcome, tuple)
                assert len(labels) == len(set(labels)), (text, labels)
                assert outcome == _outcome(
                    parse_sexpr_reference if parse is parse_sexpr
                    else parse_sexprs_reference, text, RADO.parse), text
        assert raised > 3000

    def test_one_expression_decodes_no_label_after_it(self):
        labels = []

        def parse_atom(label):
            labels.append(label)
            return RADO.parse(label)

        assert _outcome(parse_sexpr, '(atom "{0,1}") (atom "x")',
                        parse_atom) == (
            "ValueError", "trailing input after s-expression")
        assert "x" not in labels

    def test_well_formed_and_benchmark_texts_parse_without_the_token_parser(
            self, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import workload_games
        spec = json.loads((root / "perfbench" / "workloads.json").read_text(
            encoding="utf-8"))["workloads"]["games"]["smoke"]
        texts = [(text, lambda s: s) for text in WELL_FORMED]
        for kind, x, y in workload_games.make_pool(random.Random("games-0"),
                                                   spec):
            parse_atom = int if kind == "chain" else RADO.parse
            texts += [(x, parse_atom), (y, parse_atom)]
        for text, parse_atom in texts:
            tree = parse_sexpr_reference(text, parse_atom)
            assert parse_sexpr(text, parse_atom) is tree
            assert parse_sexprs(text, parse_atom) == [tree]


def _rebuilt(rng, h):
    """An equal HSet built bottom-up from fresh objects, children shuffled."""
    if isinstance(h, Atom):
        return Atom(h.value)
    kids = [_rebuilt(rng, c) for c in h.children]
    kids += [_rebuilt(rng, c) for c in rng.sample(h.children,
                                                   len(h.children) // 2)]
    rng.shuffle(kids)
    return node(kids)


def _chain_of_singletons(leaf, levels: int) -> Node:
    """{{...{leaf}...}}, levels deep, built one node() at a time."""
    h = Atom(leaf)
    for _ in range(levels):
        h = node([h])
    return h


class TestCachedHash:
    def test_equal_sets_in_any_child_order_hash_equal(self):
        rng = random.Random(5)
        hs = all_hsets(("a", "b"), 2)
        for h in hs:
            for _ in range(3):
                other = _rebuilt(rng, h)
                assert other == h and hash(other) == hash(h)
                assert hset_to_sexpr(other) == hset_to_sexpr(h)
        assert len({hash(h) for h in hs}) == len(hs)

    def test_repr_and_equality_ignore_the_cached_hash(self):
        assert repr(node([Atom(1), Atom(0)])) == (
            "Node(children=(Atom(value=0), Atom(value=1)))")
        assert Atom(3) != Atom(4) and node([Atom(3)]) != Atom(3)

    def test_repr_is_the_tuple_repr_cut_off_at_the_limit(self):
        def reference(h):
            if isinstance(h, Atom):
                return repr(h)
            kids = ", ".join(map(reference, h.children))
            comma = "," if len(h.children) == 1 else ""
            return f"Node(children=({kids}{comma}))"

        limit = bqo.hset._REPR_LIMIT
        rng = random.Random(6)
        cut = 0
        for _ in range(300):
            h = random_hset(rng, ["a", 1, (2, 3), "x" * 40], 5, branch=4)
            full = reference(h)
            cut += len(full) > limit
            assert repr(h) == (full if len(full) <= limit
                               else full[:limit] + "..."), full
        assert 30 < cut < 270
        deep = _chain_of_singletons(0, 3000)
        assert repr(deep) == ("Node(children=(" * 3000)[:limit] + "..."

    @pytest.mark.parametrize("levels", [300, 3000])
    def test_a_deep_set_built_twice_compares_without_recursion(self, levels):
        # each level of the second build finds the first build's node
        first = _chain_of_singletons(0, levels)
        second = _chain_of_singletons(0, levels)
        assert first is second
        assert first == second and hash(first) == hash(second)
        assert _chain_of_singletons(1, levels) != first

    def test_a_second_deep_build_compares_no_sets(self, monkeypatch):
        # a node is looked up by its children's identities, so building
        # an equal chain again never compares it with the first
        calls = []
        compare = Node.__eq__
        monkeypatch.setattr(Node, "__eq__", lambda self, other: (
            calls.append(1) or compare(self, other)))
        first = _chain_of_singletons(0, 3000)
        second = _chain_of_singletons(0, 3000)
        assert calls == []
        assert first == second and len(calls) == 1

    def test_deep_sets_with_equal_hashes_differ_at_the_bottom(self):
        # the atom values hash alike (hash(-1) == hash(-2) in CPython), and
        # the chains differ only at the bottom
        low, high = (_chain_of_singletons(v, 300) for v in (-1, -2))
        assert low != high and low is not high
        assert _chain_of_singletons(-1, 300) is low

    def test_hsets_are_immutable(self):
        h = node([Atom(0)])
        with pytest.raises(AttributeError):
            h.children = ()
        with pytest.raises(AttributeError):
            Atom(0).value = 1

    def test_pickled_hsets_rehash_in_a_new_process(self):
        make = "node([Atom('a'), node([Atom('b'), Atom(('c', 1))])])"
        head = "import pickle, sys\nfrom bqo.hset import Atom, node\n"
        dump = head + f"sys.stdout.buffer.write(pickle.dumps({make}))"
        load = head + ("h = pickle.loads(sys.stdin.buffer.read())\n"
                       f"f = {make}\n"
                       "print(h is f, h == f, hash(h) == hash(f), h in {f})")
        src = str(Path(bqo.hset.__file__).parents[1])

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-c", code], input=data,
                                  env=env, capture_output=True,
                                  check=True).stdout

        assert run(load, "2", run(dump, "1")).split() == [b"True"] * 4


class TestInterning:
    def test_atoms_of_equal_value_and_different_type_differ(self):
        assert Atom(1) is not Atom(True) and Atom(1) != Atom(True)
        assert Atom(1) is Atom(1) and Atom(True) is Atom(True)

    def test_sets_over_such_atoms_differ(self):
        assert node([Atom(1), Atom(0.5)]) != node([Atom(True), Atom(0.5)])

    def test_such_atoms_are_two_children_in_either_order(self):
        one, other = node([Atom(1), Atom(True)]), node([Atom(True), Atom(1)])
        assert one is other and len(one.children) == 2
        assert hset_to_sexpr(one) == '(set (atom "True") (atom "1"))'

    def test_tables_keep_only_live_sets(self):
        before = len(bqo.hset._ATOMS), len(bqo.hset._NODES)
        for i in range(70_000):
            node([Atom(("unheld", i))])
        assert len(bqo.hset._ATOMS) <= before[0] + 1
        assert len(bqo.hset._NODES) <= before[1] + 1

    def test_order_after_the_table_drops_entries_matches_a_fresh_build(self):
        values = ("a-dropped", "b-dropped", 0)  # sets no other test holds
        hs = all_hsets(values, 1)
        keys = [canon_key(h) for h in hs]
        texts = [hset_to_sexpr(h) for h in hs]
        dropped = weakref.ref(hs[-1])
        del hs
        assert dropped() is None
        fresh = all_hsets(values, 1)
        assert [canon_key(h) for h in fresh] == keys
        assert [hset_to_sexpr(h) for h in fresh] == texts

    def test_atoms_of_one_value_share_a_key_by_type(self):
        assert canon_key(Atom(5)) is canon_key(Atom(5))
        assert canon_key(Atom(1)) == (0, "int:1")
        assert canon_key(Atom(True)) == (0, "bool:True")

    def test_sets_built_in_eight_threads_are_one_object_each(self):
        values = ("threaded", -7, (8, 9))   # atoms no other test holds
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(all_hsets, values, 2)
                           for _ in range(8)]
                builds = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        first = builds[0]
        assert len(first) == 1026
        for other in builds[1:]:
            assert len(other) == len(first)
            assert all(a is b for a, b in zip(first, other))

    def test_sets_rebuilt_while_others_die_are_one_object_each(self):
        # each round, eight threads build the same sets at once and hold
        # them until all have built, then drop them.  In even rounds all
        # sets die before the next round, so its lookups miss together; in
        # odd rounds threads rebuild while others still drop theirs.
        values = ("rebuilt", -9, (10, 11), 12.5, b"13")   # held nowhere else
        text = '(set (atom "rebuilt") (set (atom "rebuilt") (atom "anew")))'
        workers = 8
        barrier = threading.Barrier(workers)
        held: list = [None] * workers
        split = []  # (round, index) of each set alive as two objects

        def work(i):
            for r in range(200):
                held[i] = (*all_hsets(values, 1), parse_sexpr(text))
                barrier.wait(timeout=60)
                if i == 0:
                    split.extend((r, k) for k, h in enumerate(held[0])
                                 if any(o[k] is not h for o in held))
                barrier.wait(timeout=60)
                held[i] = None
                if r % 2 == 0:
                    barrier.wait(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for f in [pool.submit(work, i) for i in range(workers)]:
                    f.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert split == []

    @pytest.mark.parametrize("table", ["_ATOMS", "_NODES"])
    def test_a_set_rebuilt_while_its_entry_is_dead_stays(self, table):
        # a set dies, and before its own callback drops its table entry,
        # a newer reference's callback (CPython runs those first) looks the
        # set up, finds the dead entry and builds the set again; the old
        # set's callback must then leave the new entry in place
        leaf = Atom(("held", table))
        build = ((lambda: Atom(("dying", table))) if table == "_ATOMS"
                 else (lambda: node([leaf])))
        found_dead, rebuilt = [], []

        def rebuild(_):
            found_dead.append(key in getattr(bqo.hset, table))
            rebuilt.append(build())

        h = build()
        key = h._key if table == "_ATOMS" else h.children
        probe = weakref.ref(h, rebuild)
        del h
        assert probe() is None and found_dead == [True]
        assert build() is rebuilt[0]

    @pytest.mark.parametrize("alive", [False, True])
    def test_repeated_children_count_once(self, alive):
        a, b = Atom("1"), Atom("2")
        held = node([a, b]) if alive else None
        assert (bqo.hset._NODES.get((a, b)) is None) is not alive
        builds = (lambda: parse_sexpr('(set (atom "1") (atom "1") '
                                      '(atom "2"))'),
                  lambda: node([a, a, b]),
                  lambda: node([b, a, b, a]))
        for build in builds:
            h = build()
            assert h.children == (a, b) and h is node([a, b])
            assert held is None or h is held
            del h   # so that, when not alive, the next build misses too

    def test_atoms_are_keyed_by_type_name_and_repr(self):
        # equal values whose reprs differ are two atoms
        assert 0.0 == -0.0 and Atom(0.0) is not Atom(-0.0)
        one, other = frozenset([1, 9]), frozenset([9, 1])
        assert one == other and repr(one) != repr(other)
        assert Atom(one) is not Atom(other)
        assert Atom(frozenset([1, 9])) is Atom(one)


def _rado_sets_sharing_atoms(rng):
    """Two rado sets over few pairs, parsed together so that they share
    Atom objects, and the second also shares whole children of the first."""
    pairs = [(m, n) for m in range(4) for n in range(m + 1, 4)]
    x = random_hset(rng, pairs, 3, branch=4)
    y = random_hset(rng, pairs, 3, branch=4)
    text = f"(set {hset_to_sexpr(x, RADO.fmt)} {hset_to_sexpr(y, RADO.fmt)})"
    both = parse_sexpr(text, RADO.parse)
    if isinstance(both, Atom) or len(both.children) < 2:
        return both, both
    x, y = both.children[:2]
    if isinstance(x, Node) and isinstance(y, Node):
        y = node(y.children + x.children[:1])
    return x, y


class TestCheckedOnceComparedRaw:
    def test_rado_games_with_shared_atoms_agree_with_the_oracle(self):
        rng = random.Random(9)
        checked = dataclasses.replace(RADO, raw_leq=RADO.leq)
        for _ in range(300):
            x, y = _rado_sets_sharing_atoms(rng)
            for p, q in ((x, y), (y, x)):
                res = game_leq(p, q, RADO)
                assert res.winner == game_leq_oracle(p, q, RADO)
                slow = game_leq(p, q, checked)
                assert (slow.winner, slow.strategy) == (res.winner,
                                                        res.strategy)

    def test_each_distinct_atom_is_checked_once_and_compared_raw(self):
        checks, compared = [], []
        order = dataclasses.replace(
            RADO,
            check=lambda v: checks.append(v) or RADO.check(v),
            leq=lambda a, b: pytest.fail("checked leq called"),
            raw_leq=lambda a, b: compared.append(1) or RADO.raw_leq(a, b))
        x = parse_sexpr('(set (atom "{0,1}") (set (atom "{0,1}") '
                        '(atom "{2,3}")) (atom "{1,2}"))', RADO.parse)
        game_leq(x, x, order)
        # in canonical order, atoms before sets; an atom of both sides once
        assert checks == [(0, 1), (1, 2), (2, 3)]
        assert compared

    def test_an_atom_of_both_sides_is_checked_once(self, monkeypatch):
        x = parse_sexpr('(set (atom "{0,1}") (atom "{2,5}"))', RADO.parse)
        y = parse_sexpr('(set (atom "{0,1}") (atom "{1,4}"))', RADO.parse)
        pairs = []
        check = bqo.qo._check_rado_pair
        monkeypatch.setattr(bqo.qo, "_check_rado_pair",
                            lambda s: pairs.append(s) or check(s))
        game_leq(x, y, RADO)
        assert pairs == [(0, 1), (2, 5), (1, 4)]

        # the oracle and the replay compare through the checked leq, so
        # count the carrier checks made up front through check alone
        checks = []
        order = dataclasses.replace(
            RADO, check=lambda v: checks.append(v) or RADO.check(v))
        res = game_leq(x, y, order)
        for play in (lambda: game_leq_oracle(x, y, order),
                     lambda: game_play(x, y, res.strategy, _least_move_II,
                                       order)):
            checks.clear()
            play()
            assert checks == [(0, 1), (2, 5), (1, 4)]

    def test_the_first_bad_atom_in_x_then_y_order_raises(self):
        x = node([Atom((0, 1)), Atom((3, 1))])
        y = node([Atom((0, 1)), Atom((5, 4)), node([Atom((3, 1))])])
        for p, q, bad in ((x, y, "(3, 1)"), (y, x, "(5, 4)"),
                          (node([Atom((1, 2))]), y, "(5, 4)")):
            for play in (lambda: game_leq(p, q, RADO),
                         lambda: game_leq_oracle(p, q, RADO),
                         lambda: game_play(p, q, {}, {}, RADO)):
                with pytest.raises(MixedBaseQO, match=re.escape(bad)):
                    play()

    def test_every_order_has_check_and_raw_leq(self):
        # a finite order's raw_leq is its leq
        c3 = chain(3)
        assert c3.raw_leq == c3.leq
        assert game_leq(node([Atom(0), Atom(2)]), Atom(2), c3).winner == "II"
        with pytest.raises(TypeError, match="check.*raw_leq"):
            CodedQO(name="bare", leq=RADO.leq, key=RADO.key)
        # every order formats its members, finite ones included
        for order, member, text in (
                (c3, 2, "2"), (rado_window_qo(3), (0, 2), "{0,2}"),
                (resolve_qo("rado"), (1, 4), "{1,4}"),
                (resolve_qo("omega-leq"), 7, "7"),
                (resolve_qo("chain:3"), 1, "1"),
                (resolve_qo("antichain:2"), 0, "0")):
            assert order.check(member) == member
            assert order.raw_leq(member, member)
            assert order.fmt(member) == text
            # a text syntax, or None when elements are read as integers
            assert order.parse is None or order.parse(text) == member

    def test_distinct_atoms_keep_the_first_occurrence_order(self):
        rng = random.Random(11)
        for _ in range(300):
            x, y = _rado_sets_sharing_atoms(rng)
            for hs in ((x,), (x, y), (y, x), (x, node([x, y]))):
                assert list(distinct_atoms(*hs)) == list(dict.fromkeys(
                    a for h in hs for a in iter_atoms(h)))
            # sets walked by an earlier call, and their atoms, are skipped
            seen = set()
            first = list(distinct_atoms(x, seen=seen))
            assert list(distinct_atoms(y, seen=seen)) == [
                a for a in dict.fromkeys(iter_atoms(y)) if a not in first]

    def test_shared_subtrees_are_walked_once(self):
        # h = {h, {h}} forty times over has 2^40 atom positions and 81
        # distinct sets; the check and supp walk each distinct set once
        h = Atom(0)
        for _ in range(40):
            h = node([h, node([h])])
        omega_leq = resolve_qo("omega-leq")
        checks = []
        order = dataclasses.replace(
            omega_leq, check=lambda v: checks.append(v) or omega_leq.check(v))
        assert game_leq(h, h, order).winner == "II"
        assert game_leq(h, h, chain(1)).winner == "II"
        assert checks == [0]
        assert supp(h) == frozenset({0})

    def test_depth_and_repr_of_shared_subtrees_finish_at_once(self):
        # with 2^40 atom positions, a walk over positions would not finish
        h = Atom(0)
        for _ in range(40):
            h = node([h, node([h])])
        assert depth(h) == 80
        text = repr(h)
        assert len(text) == bqo.hset._REPR_LIMIT + 3 and str(h) == text
        assert text.startswith("Node(children=(Node(children=(") and \
            text.endswith("...")
        result = repr(game_leq(h, h, chain(1)))
        assert result.startswith("GameResult(winner='II', strategy={")

    def test_non_carrier_atom_raises_before_any_comparison(self):
        compared = []
        order = dataclasses.replace(
            RADO,
            leq=lambda a, b: compared.append(1) or RADO.leq(a, b),
            raw_leq=lambda a, b: compared.append(1) or RADO.raw_leq(a, b))
        good = node([Atom((0, 1)), node([Atom((1, 2))])])
        bad = node([Atom((0, 1)), node([Atom((1, 2)), Atom((3, 1)),
                                        Atom((5, 4))])])
        for x, y in ((good, bad), (bad, good), (bad, bad)):
            with pytest.raises(MixedBaseQO) as info:
                game_leq(x, y, order)
            assert "(3, 1)" in str(info.value)
        assert compared == []


class TestGameLeq:
    def test_atom_reflexive(self):
        res = game_leq(Atom(A0), Atom(A0), AC2)
        assert res.winner == "II" and res.ii_wins

    def test_singleton_node_vs_other_atom(self):
        res = game_leq(node([Atom(A0)]), Atom(A1), AC2)
        assert res.winner == "I"

    def test_pair_node_identity(self):
        x = node([Atom(A0), Atom(A1)])
        assert game_leq(x, x, AC2).winner == "II"

    def test_atom_vs_node_needs_some_child_above(self):
        c3 = chain(3)
        y = node([Atom(0), Atom(2)])
        assert game_leq(Atom(1), y, c3).winner == "II"
        assert game_leq(Atom(1), node([Atom(0)]), c3).winner == "I"

    def test_node_vs_atom_needs_every_child_below(self):
        c3 = chain(3)
        assert game_leq(node([Atom(0), Atom(1)]), Atom(1), c3).winner == "II"
        assert game_leq(node([Atom(0), Atom(2)]), Atom(1), c3).winner == "I"

    def test_mixed_base_rejected(self):
        with pytest.raises(MixedBaseQO):
            game_leq(Atom("zebra"), Atom(A0), AC2)

    def test_shared_memo_consistent(self):
        memo: dict = {}
        hs = all_hsets(AC2.elements, 1)
        first = [(game_leq(p, q, AC2, memo=memo).winner)
                 for p, q in itertools.product(hs, repeat=2)]
        second = [(game_leq(p, q, AC2, memo=memo).winner)
                  for p, q in itertools.product(hs, repeat=2)]
        assert first == second

    def test_memo_safe_under_concurrent_queries(self):
        memo: dict = {}
        hs = all_hsets(AC2.elements, 2)
        pairs = list(itertools.product(hs[:12], repeat=2))
        expected = [game_leq(p, q, AC2).winner for p, q in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(
                lambda pq: game_leq(pq[0], pq[1], AC2, memo=memo).winner,
                pairs))
        assert got == expected


def _hset_strategy(values, max_depth=3, max_leaves=8):
    return st.recursive(
        st.sampled_from([Atom(v) for v in values]),
        lambda ch: st.lists(ch, min_size=1, max_size=3).map(node),
        max_leaves=max_leaves,
    ).filter(lambda h: depth(h) <= max_depth)


class TestGameOrderLaws:
    @given(_hset_strategy([0, 1]))
    def test_reflexive_over_antichain(self, x):
        assert game_leq(x, x, AC2).winner == "II"

    @given(_hset_strategy([0, 1, 2]))
    def test_reflexive_over_chain(self, x):
        assert game_leq(x, x, chain(3)).winner == "II"

    @settings(max_examples=60)
    @given(_hset_strategy([0, 1, 2]), _hset_strategy([0, 1, 2]),
           _hset_strategy([0, 1, 2]))
    def test_transitive_when_premises_hold(self, x, y, z):
        c3 = chain(3)
        memo: dict = {}
        if (game_leq(x, y, c3, memo=memo).ii_wins
                and game_leq(y, z, c3, memo=memo).ii_wins):
            assert game_leq(x, z, c3, memo=memo).ii_wins

    @settings(max_examples=60)
    @given(_hset_strategy([0, 1]), _hset_strategy([0, 1]),
           _hset_strategy([0, 1]))
    def test_adding_children_on_the_right_helps_ii(self, x, y, extra):
        if not isinstance(y, Node):
            y = node([y])
        if game_leq(x, y, AC2).ii_wins:
            bigger = node(y.children + (extra,))
            assert game_leq(x, bigger, AC2).ii_wins

    def test_domination_degeneration_small_preorders(self):
        for n in (1, 2, 3):
            for qo in enumerate_preorders(n):
                memo: dict = {}
                for xs in subsets(qo.elements):
                    if not xs:
                        continue
                    for ys in subsets(qo.elements):
                        if not ys:
                            continue
                        lifted = game_leq(node(Atom(v) for v in xs),
                                          node(Atom(v) for v in ys),
                                          qo, memo=memo).ii_wins
                        assert lifted == domination_leq(qo, xs, ys)


class TestOracleAgreement:
    def test_atom_pair(self):
        assert game_leq_oracle(Atom(A0), Atom(A0), AC2) == "II"

    def test_exhaustive_depth_two_antichain(self):
        hs = all_hsets(AC2.elements, 2)
        memo: dict = {}
        for p, q in itertools.product(hs, repeat=2):
            assert (game_leq(p, q, AC2, memo=memo).winner
                    == game_leq_oracle(p, q, AC2))

    def test_random_depth_three(self):
        rng = random.Random(20260823)
        c3 = chain(3)
        memo: dict = {}
        for _ in range(200):
            qo = rng.choice([AC2, c3])
            vals = qo.elements
            p = random_hset(rng, vals, 3)
            q = random_hset(rng, vals, 3)
            table = memo if qo is AC2 else {}
            assert (game_leq(p, q, qo, memo=table).winner
                    == game_leq_oracle(p, q, qo))


_RADO_PAIRS_BELOW_8 = tuple((m, n) for m in range(8) for n in range(m + 1, 8))


class TestExplicitStackSolver:
    @pytest.mark.parametrize("qo, values", [
        (chain(3), (0, 1, 2)), (RADO, _RADO_PAIRS_BELOW_8)],
        ids=["chain3", "rado8"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_the_recursive_solver(self, qo, values, data):
        # same winner, strategy and memo, entries in the same order, with a
        # fresh memo per solve and with one memo shared by a run of solves
        sets = _hset_strategy(values, max_leaves=20)
        pairs = data.draw(st.lists(st.tuples(sets, sets), min_size=1,
                                   max_size=4))
        shared_reference: dict = {}
        shared: dict = {}
        for x, y in pairs:
            for reference_memo, memo in (({}, {}),
                                         (shared_reference, shared)):
                winner, strategy = solve_reference(x, y, qo.raw_leq,
                                                   reference_memo)
                res = game_leq(x, y, qo, memo)
                assert res.winner == winner
                assert list(res.strategy.items()) == list(strategy.items())
                assert list(memo.items()) == list(reference_memo.items())
            assert res.winner == game_leq_oracle(x, y, qo)


class TestDeepSets:
    LEVELS = 3000

    def test_game_leq_on_deep_chains(self):
        low = _chain_of_singletons(1, self.LEVELS)
        high = _chain_of_singletons(2, self.LEVELS)
        up = game_leq(low, high, chain(3))
        down = game_leq(high, low, chain(3))
        assert up.winner == "II" and len(up.strategy) == self.LEVELS
        assert down.winner == "I" and len(down.strategy) == self.LEVELS

    def test_sibling_chains_that_differ_at_the_bottom_sort(self):
        # their keys first differ 20,000 levels down, past the recursion
        # limit of the C tuple comparison
        low, high = (_chain_of_singletons(v, 20_000) for v in (0, 1))
        assert node([high, low]).children == (low, high)

    def test_the_deep_key_retry_finds_the_same_node(self, monkeypatch):
        low, high = (_chain_of_singletons(v, 20_000) for v in (0, 1))
        deep_key, retries = bqo.hset._deep_key, []
        monkeypatch.setattr(bqo.hset, "_deep_key",
                            lambda h: retries.append(1) or deep_key(h))
        both = node([high, low])
        assert retries   # the C tuple comparison overflowed
        assert node([low, high]) is both
        assert node([high, low, high, low]) is both
        assert both.children == (low, high)

    def test_the_deep_key_comparison_is_the_tuple_order(self):
        keys = [canon_key(h) for h in all_hsets([0, 1, "a"], 2)]
        assert all(_compare_keys(a, b) == (a > b) - (a < b)
                   for a in keys for b in keys)
        # keys rebuilt apart are equal without being one object
        copies = [ast.literal_eval(repr(k)) for k in keys]
        assert all(_compare_keys(a, b) == 0 for a, b in zip(keys, copies))
        assert all(_compare_keys(a, b) == (a > b) - (a < b)
                   for a, b in zip(keys, copies[1:] + copies[:1]))

    def test_walkers_on_a_deep_chain(self):
        deep = _chain_of_singletons(1, self.LEVELS)
        assert depth(deep) == self.LEVELS
        assert list(iter_atoms(deep)) == [Atom(1)]
        assert supp(deep) == frozenset({1})
        assert hset_to_sexpr(deep) == nested_sexpr(self.LEVELS)

    def test_walkers_on_a_deep_set_with_many_atoms(self):
        # level i holds the atom i beside the set below it; atoms sort
        # before sets, and the bottom set is {0, 1}
        deep = Atom(0)
        for i in range(1, self.LEVELS + 1):
            deep = node([Atom(i), deep])
        assert depth(deep) == self.LEVELS
        assert [a.value for a in iter_atoms(deep)] == [
            *range(self.LEVELS, 1, -1), 0, 1]
        assert hset_to_sexpr(deep) == (
            "".join(f'(set (atom "{i}") ' for i in range(self.LEVELS, 1, -1))
            + '(set (atom "0") (atom "1"))' + ")" * (self.LEVELS - 1))


def _least_move_I(position):
    x, _ = position
    return x.children[0]


def _least_move_II(position):
    _, y = position
    return y.children[0]


class TestGamePlay:
    def test_following_solver_strategies_matches_winner(self):
        hs = all_hsets(AC2.elements, 2)
        rng = random.Random(7)
        for _ in range(40):
            x, y = rng.choice(hs), rng.choice(hs)
            res = game_leq(x, y, AC2)
            if res.winner == "II":
                play = game_play(x, y, _least_move_I, res.strategy, AC2)
            else:
                play = game_play(x, y, res.strategy, _least_move_II, AC2)
            assert play.winner == res.winner

    def test_winning_strategy_beats_all_sampled_opponents(self):
        x = node([Atom(A0), node([Atom(A1)])])
        y = node([Atom(A1)])
        res = game_leq(x, y, AC2)
        assert res.winner == "I"
        rng = random.Random(11)

        def random_ii(position):
            _, side = position
            return rng.choice(side.children)

        for _ in range(25):
            play = game_play(x, y, res.strategy, random_ii, AC2)
            assert play.winner == "I"

    def test_transcript_ends_in_atom_comparison(self):
        x = node([Atom(0), Atom(1)])
        res = game_leq(x, x, chain(2))
        play = game_play(x, x, _least_move_I, res.strategy, chain(2))
        a, b = play.rounds[-1]
        assert isinstance(a, Atom) and isinstance(b, Atom)
        assert play.final == (a.value, b.value)
        assert play.comparison == chain(2).leq(a.value, b.value)
        assert play.winner == ("II" if play.comparison else "I")

    def test_illegal_choice_raises(self):
        x = node([Atom(A0)])
        y = node([Atom(A1)])
        bad_table = {(x, y): Atom(A1)}  # not a child of x
        with pytest.raises(IllegalMove):
            game_play(x, y, bad_table, _least_move_II, AC2)

    def test_missing_entry_raises(self):
        x = node([Atom(A0)])
        y = node([Atom(A1)])
        with pytest.raises(IllegalMove):
            game_play(x, y, {}, _least_move_II, AC2)


class TestStringStrategies:
    def test_atom_sequence_value_and_modulus(self):
        ac4 = antichain(4)
        xs = [Atom(n) for n in ac4.elements]
        g = string_strategies(xs, ac4)
        assert g((0, 1, 2, 3)) == (0, 2)
        assert g((1, 3)) == (1, 2)

    def test_singleton_nodes_unwrap_once_each_side(self):
        ac4 = antichain(4)
        xs = [node([Atom(n)]) for n in ac4.elements]
        g = string_strategies(xs, ac4)
        value, modulus = g((0, 1, 2, 3))
        assert value == 0
        assert modulus == 3

    def test_not_bad_rejected(self):
        c3 = chain(3)
        with pytest.raises(NotBad):
            string_strategies([Atom(0), Atom(1)], c3)

    def test_insufficient_prefix(self):
        ac4 = antichain(4)
        xs = [node([Atom(n)]) for n in ac4.elements]
        g = string_strategies(xs, ac4)
        with pytest.raises(InsufficientPrefix):
            g((0, 1))

    def test_bad_indices(self):
        ac4 = antichain(4)
        g = string_strategies([Atom(n) for n in ac4.elements], ac4)
        with pytest.raises(BadIndices):
            g((2, 1))
        with pytest.raises(BadIndices):
            g((0, 9))

    def test_rado_powerset_chained_plays(self):
        window = 8
        xs = rado_powerset_sequence(window)
        g = string_strategies(xs, RADO, window)
        rng = random.Random(3)
        pool = list(range(window))
        for _ in range(30):
            size = rng.randint(4, window)
            prefix = tuple(sorted(rng.sample(pool, size)))
            if len(prefix) < 2:
                continue
            value, modulus = g(prefix)
            assert value in supp(xs[prefix[0]])
            shifted_value, _ = g(prefix[1:]) if len(prefix) >= 3 else (None, 0)
            if shifted_value is not None:
                assert not rado_leq(value, shifted_value)
            assert modulus <= len(prefix)

    def test_base_order_changed_after_stringing_is_an_invariant_violation(
            self):
        xs = rado_powerset_sequence(4)
        g = string_strategies(xs, RADO, 4)
        g.qo = dataclasses.replace(RADO, leq=lambda a, b: True)
        with pytest.raises(InvariantViolated):
            g((0, 1, 2, 3))

    def test_each_distinct_atom_is_checked_once(self):
        # every set also holds the shared atom {0,1}; the sequence stays bad
        window = 6
        xs = [node(list(x.children) + [Atom((0, 1))])
              for x in rado_powerset_sequence(window)]
        counts: dict = {}

        def check(v):
            counts[v] = counts.get(v, 0) + 1
            return RADO.check(v)

        counted = dataclasses.replace(RADO, check=check)
        g = string_strategies(xs, counted, window)
        assert counts == {a.value: 1 for x in xs for a in iter_atoms(x)}
        assert g(tuple(range(window))) == string_strategies(
            xs, RADO, window)(tuple(range(window)))

    def test_off_carrier_atom_in_a_later_set_raises_mixed_base(self):
        xs = rado_powerset_sequence(5)
        xs[2] = node([Atom((5, 3))])
        with pytest.raises(MixedBaseQO, match=r"\(5, 3\)"):
            string_strategies(xs, RADO)

    def test_ii_win_before_an_off_carrier_set_raises_not_bad(self):
        xs = rado_powerset_sequence(5)
        xs[1] = xs[0]
        xs[3] = node([Atom("x")])
        with pytest.raises(NotBad, match=r"\(0, 1\)"):
            string_strategies(xs, RADO)

    def test_sets_beyond_the_window_or_without_a_pair_are_not_checked(self):
        xs = rado_powerset_sequence(4) + [node([Atom("x")])]
        assert string_strategies(xs, RADO, 4).window == 4
        assert string_strategies([node([Atom("x")])], RADO).window == 1

    def test_matches_the_chained_generator_reference(self):
        rng = random.Random(11)
        calls = 0
        for _ in range(12):
            qo = rng.choice([antichain(3), antichain(4)])
            xs: list = []
            for _ in range(300):
                h = random_hset(rng, qo.elements, rng.randint(0, 4), branch=3)
                if all(game_leq(x, h, qo).winner == "I" for x in xs):
                    xs.append(h)
                    if len(xs) == 6:
                        break
            g = string_strategies(xs, qo)
            for size in range(2, len(xs) + 1):
                for prefix in itertools.combinations(range(len(xs)), size):
                    try:
                        expected = strung_call_reference(g, prefix)
                    except InsufficientPrefix as exc:
                        with pytest.raises(InsufficientPrefix,
                                           match=re.escape(str(exc))):
                            g(prefix)
                    else:
                        assert g(prefix) == expected
                        calls += 1
        assert calls > 100

    def test_local_constancy(self):
        window = 8
        xs = rado_powerset_sequence(window)
        g = string_strategies(xs, RADO, window)
        value, modulus = g((0, 1, 2, 3, 4, 5, 6, 7))
        head = (0, 1, 2, 3, 4, 5, 6, 7)[:modulus]
        for tail in [(), tuple(range(modulus, window)),
                     tuple(range(modulus + 1, window))]:
            again, mod2 = g(head + tail)
            assert again == value and mod2 == modulus


def rado_identity():
    return SuperSeq(front=uniform_front(2, omega()),
                    valuation=named_valuation("identity"),
                    codomain=RADO, name="id")


class TestTildeBuild:
    def test_singleton_front_gives_atoms(self):
        f = SuperSeq(front=uniform_front(1, omega()),
                     valuation=named_valuation("min"), name="m")
        out = tilde_build(f, 5)
        assert out.first_level == tuple(
            (m, Atom(m)) for m in range(5))

    def test_pair_front_unrolls_one_level(self):
        out = tilde_build(rado_identity(), 4)
        assert out.table[(0,)] == node(
            [Atom((0, 1)), Atom((0, 2)), Atom((0, 3))])

    def test_members_become_atoms_interiors_become_nodes(self):
        out = tilde_build(rado_identity(), 5)
        assert out.table[(1, 3)] == Atom((1, 3))
        assert isinstance(out.table[()], Node)
        assert len(out.table[()].children) == len(out.first_level)

    def test_first_level_badness_within_window(self):
        out = tilde_build(rado_identity(), 8)
        memo: dict = {}
        pairs = 0
        for (m, hm), (n, hn) in itertools.combinations(out.first_level, 2):
            assert m < n
            assert game_leq(hm, hn, RADO, memo=memo).winner == "I"
            pairs += 1
        assert pairs == len(out.first_level) * (len(out.first_level) - 1) // 2

    def test_window_nine_keeps_eight_start_indices(self):
        out = tilde_build(rado_identity(), 9)
        assert [m for m, _ in out.first_level] == list(range(8))

    def test_edge_branches_pruned(self):
        out = tilde_build(rado_identity(), 4)
        assert (3,) not in out.table  # no pair (3, n) fits below 4
        assert [m for m, _ in out.first_level] == [0, 1, 2]

    def test_empty_truncation(self):
        with pytest.raises(EmptyTruncation):
            tilde_build(rado_identity(), 1)

    def test_growing_fronts_survive_where_members_fit(self):
        f = SuperSeq(front=schreier_front(omega()),
                     valuation=named_valuation("min"), name="m")
        out = tilde_build(f, 2)
        assert out.first_level == ((0, Atom(0)),)

    @pytest.mark.parametrize("front", [
        uniform_front(1), uniform_front(2), uniform_front(3),
        schreier_front()], ids=["u1", "u2", "u3", "schreier"])
    def test_table_matches_the_recursive_fold(self, front):
        # same entries in the same order, and the values read in order
        def logged(rule, log):
            value = named_valuation(rule)
            return SuperSeq(front=front, name="f",
                            valuation=lambda s: log.append(s) or value(s))

        for rule in ("identity", "min", "span"):
            for window in range(3, 10):
                reads, reference_reads = [], []
                table = tilde_build(logged(rule, reads), window).table
                reference = tilde_table_reference(
                    logged(rule, reference_reads), window)
                assert list(table.items()) == list(reference.items())
                assert reads == reference_reads

    def test_larger_window_only_adds_tree_nodes(self):
        small = tilde_build(rado_identity(), 5)
        large = tilde_build(rado_identity(), 7)
        assert set(small.table) <= set(large.table)
        for s, h in small.table.items():
            if isinstance(h, Node):
                small_kids = {t for t in small.table if t[:-1] == s}
                large_kids = {t for t in large.table if t[:-1] == s}
                assert small_kids <= large_kids
