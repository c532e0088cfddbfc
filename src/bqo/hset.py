"""Hereditarily finite nonempty sets over a base carrier.

An HSet is either an Atom wrapping a carrier element or a Node holding a
nonempty, duplicate-free, canonically ordered tuple of child HSets.  Atoms
are leaves: they contain no elements yet are distinct from the empty set,
which is excluded altogether.  Each HSet fixes its sort key ``canon_key``
when it is built: ``(0, "type:repr")`` for an atom, so atoms of equal value
but different type differ, and ``(1, *child keys)`` for a node, whose
children are sorted by key.

HSets are hash-consed: construction returns the one live object for its
key, so equality and hashing are identity and agree with ``canon_key``,
and equal sets built apart, at any depth, are the same object.  An Atom is
looked up by its key, a Node by its canonical child tuple.  Both tables
hold weak references, so they keep only sets that are still in use.  A
lookup that finds a live set is one dict lookup and one reference call,
with no lock; only a miss takes the lock, looks again and inserts, so
construction is thread-safe: sets built in several threads are still one
object each.  HSets are immutable, and unpickling interns again.

The s-expression wire format is ``(atom "a")`` for atoms and
``(set e1 e2 ...)`` for nodes; parsing re-canonicalizes, so formatting then
parsing is the identity on canonical trees.  ``parse_sexpr`` reads one
expression and ``parse_sexprs`` every expression of a text, in order.  One
reader serves both, and one regular expression is its only lexer: a match
is a whole atom, a set opening or any other single token, and the reader
builds each tree from these with an explicit stack of the open sets'
children, sharing one Atom per distinct label, so ``parse_atom`` runs once
per label.  Where the reader meets a match it does not expect or a set
nested too deep, it raises the first error in token order itself, from the
matches it already holds; the text is never scanned a second time.
Parsing refuses sets nested more than ``MAX_SEXPR_DEPTH`` deep.  That
limit bounds input only: the functions here that walk a given set, and the
solver in ``games``, use explicit stacks, so sets built in code may be
nested deeper.  So does the sort of a node's children when their keys nest
too deep for the C tuple comparison.
"""

from __future__ import annotations

import functools
import operator
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Iterable, Optional, Union


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Atom:
    """Leaf wrapping one element of the base carrier: one object per key.
    The key is the value's type name and repr, so equal values that differ
    in either are other atoms: ``Atom(1)`` and ``Atom(True)``, ``Atom(0.0)``
    and ``Atom(-0.0)``, or equal frozensets whose reprs differ in order."""

    __slots__ = ("value", "_key", "__weakref__")
    _depth = 0
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, value):
        key = (0, f"{type(value).__name__}:{value!r}")
        self = _ATOMS.get(key, _NO_REF)()
        if self is None:
            hash(value)     # an unhashable value raises TypeError
            with _LOCK:
                self = _ATOMS.get(key, _NO_REF)()
                if self is None:
                    self = object.__new__(cls)
                    object.__setattr__(self, "value", value)
                    object.__setattr__(self, "_key", key)
                    _ATOMS[key] = weakref.KeyedRef(self, _DROP_ATOM, key)
        return self

    def __repr__(self):
        return f"Atom(value={self.value!r})"

    def __reduce__(self):
        # unpickling and copying build through the table, so they intern
        return Atom, (self.value,)


class Node:
    """Nonempty finite set of distinct HSets, children canonically ordered.

    Construction normalizes: children are deduplicated and sorted by the
    canonical key, so Nodes built from the same children in any order are
    one object.
    """

    __slots__ = ("children", "_key", "_depth", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, children):
        children = list(children)
        for c in children:
            if not isinstance(c, (Atom, Node)):
                raise TypeError(f"HSet child expected, got {c!r}")
        if not children:
            raise ValueError("Node requires at least one child")
        return _interned_node(children)

    def __repr__(self):
        # with a stack, so deep sets repr, and cut off at _REPR_LIMIT
        # characters, so sets that share subtrees repr at once
        out, size = [], 0
        stack: list = [self]    # sets still to write, and text between them
        while stack and size <= _REPR_LIMIT:
            h = stack.pop()
            if isinstance(h, Node):
                h, kids = "Node(children=(", h.children
                stack.append(",))" if len(kids) == 1 else "))")
                for c in reversed(kids):
                    stack += (c, ", ")
                stack.pop()     # no separator before the first child
            elif isinstance(h, Atom):
                h = repr(h)
            out.append(h)
            size += len(h)
        text = "".join(out)
        return text if size <= _REPR_LIMIT else text[:_REPR_LIMIT] + "..."

    def __reduce__(self):
        return Node, (self.children,)


HSet = Union[Atom, Node]

# the longest Node repr written out in full; a longer one ends in "..."
_REPR_LIMIT = 1000

# The live HSets by atom key and by canonical child tuple, as weak
# references.  Children are interned, so a child tuple hashes and compares
# by identity in C.  Lookups take no lock, so a set is stored once complete;
# a dying set's callback drops its entry only while the entry is dead.
_ATOMS: dict = {}
_NODES: dict = {}
_LOCK = threading.Lock()
_NO_REF = type(None)    # called in place of a missing reference: None


def _dropper(table: dict, remove=_remove_dead_weakref):
    return lambda ref: remove(table, ref.key)


_DROP_ATOM, _DROP_NODE = _dropper(_ATOMS), _dropper(_NODES)
_stored_key = operator.attrgetter("_key")
_stored_depth = operator.attrgetter("_depth")


def atom(value) -> Atom:
    return Atom(value)


def node(children: Iterable) -> Node:
    return Node(children)


def _interned_node(children: list) -> Node:
    """The one Node over ``children``, a nonempty list of HSets it sorts by
    key in place.  A hit is the sort, one dict lookup and one reference
    call, with no lock; a repeated child always misses.  A miss drops
    repeats, then under _LOCK looks again and inserts with key and depth."""
    try:
        children.sort(key=_stored_key)
    except RecursionError:
        # keys that first differ deep down overflow the recursive C tuple
        # comparison (past about 1,000 levels on Python 3.10-3.12)
        children.sort(key=_deep_key)
    ordered = tuple(children)
    self = _NODES.get(ordered, _NO_REF)()
    if self is None:
        ordered = tuple(dict.fromkeys(ordered))
        with _LOCK:
            self = _NODES.get(ordered, _NO_REF)()
            if self is None:
                self = object.__new__(Node)
                object.__setattr__(self, "children", ordered)
                object.__setattr__(self, "_key",
                                   (1, *map(_stored_key, ordered)))
                object.__setattr__(self, "_depth",
                                   1 + max(map(_stored_depth, ordered)))
                _NODES[ordered] = weakref.KeyedRef(self, _DROP_NODE, ordered)
    return self


def _compare_keys(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as key ``a`` sorts before, with or after key ``b``.

    This is Python's tuple order, found with an explicit stack of
    (tuple, tuple, index) frames instead of recursion, so keys nested any
    depth compare.  Interned sets share their keys, so equal subkeys are
    usually one object and are skipped without a descent.
    """
    stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        n = min(len(x), len(y))
        while i < n and x[i] is y[i]:
            i += 1
        if i == n:
            if len(x) != len(y):
                return -1 if len(x) < len(y) else 1
            continue
        u, v = x[i], y[i]
        stack.append((x, y, i + 1))
        if type(u) is tuple and type(v) is tuple:
            stack.append((u, v, 0))
        elif u != v:
            return -1 if u < v else 1
    return 0


_deep_key = functools.cmp_to_key(lambda g, h: _compare_keys(g._key, h._key))


def canon_key(h: HSet) -> tuple:
    """Total deterministic structural sort key, fixed at construction: atoms
    first; a node's (1, *child keys) orders as (1, tuple(child keys))."""
    return h._key


def depth(h: HSet) -> int:
    """Nesting depth: 0 for atoms, 1 + max child depth for nodes, fixed
    when the set is interned."""
    return h._depth


def supp(h: HSet) -> frozenset:
    """Support: the set of carrier elements occurring as atom leaves."""
    return frozenset(a.value for a in distinct_atoms(h))


def iter_atoms(h: HSet):
    """Yield every Atom leaf (with multiplicity of distinct positions),
    left to right in canonical order."""
    stack = [h]
    while stack:
        h = stack.pop()
        if isinstance(h, Atom):
            yield h
        else:
            stack.extend(reversed(h.children))


def distinct_atoms(*hs: HSet, seen: Optional[set] = None):
    """Yield each distinct Atom leaf of hs once, in the order iter_atoms
    first meets it, set by set. Each distinct set is walked once, so a set
    that shares subtrees costs its number of distinct sets, not of
    positions. Sets in seen, and so every set below them, are skipped, and
    each set walked is added to seen."""
    if seen is None:
        seen = set()
    stack = list(reversed(hs))
    while stack:
        h = stack.pop()
        if h in seen:   # its atoms all came before, from its first walk
            continue
        seen.add(h)
        if isinstance(h, Atom):
            yield h
        else:
            stack.extend(reversed(h.children))


# --- s-expression wire format ---------------------------------------------

def hset_to_sexpr(h: HSet, fmt: Callable[[object], str] = str) -> str:
    """Format as ``(atom "a")`` / ``(set e1 e2 ...)`` in canonical order."""
    out = []
    stack: list = [h]   # sets still to format, and text to emit between them
    while stack:
        h = stack.pop()
        if isinstance(h, str):
            out.append(h)
        elif isinstance(h, Atom):
            label = fmt(h.value).replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'(atom "{label}")')
        else:
            out.append("(set")
            stack.append(")")
            for c in reversed(h.children):
                stack += (c, " ")
    return "".join(out)


_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_ESCAPE = re.compile(r'\\(.)', re.DOTALL)

# The one lexer of the wire format.  A match is a whole atom, with its label
# token in group 1 (4 tokens), a set opening "(set", with "set" in group 2
# (2 tokens), or any other single token, in group 3: "(", ")", a string
# literal, a symbol run, or a quote that opens no terminated literal, which
# swallows the rest of the text, so an unterminated literal is always the
# last match.  Only whitespace is left between matches.  "set" run straight
# on into a symbol, as in "(setx", is no set opening but "(" and "setx".
_READ = re.compile(
    rf'\(\s*(?:atom(?:\s+|(?="))({_STRING.pattern}|[^\s()"]+)\s*\)'
    rf'|(set)(?![^\s()"]))|([()]|{_STRING.pattern}|".*|[^\s()"]+)',
    re.DOTALL)

# The deepest set nesting parse_sexpr accepts: a bound on the size of
# input, not a guard for the code that walks sets, which uses explicit
# stacks and takes sets of any depth.
MAX_SEXPR_DEPTH = 128


def _word(token: str) -> str:
    """The text of a symbol, or the unescaped body of a string literal."""
    if token[0] != '"':
        return token
    body = token[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def parse_sexpr(text: str,
                parse_atom: Callable[[str], object] = lambda s: s) -> HSet:
    """Parse the s-expression format back into an HSet.

    ``parse_atom`` decodes atom labels into carrier elements (default: keep
    the label string).  It runs once per distinct label, in order of first
    occurrence, up to the first error or the end of the first expression,
    and every occurrence of a label shares one Atom.  The result is
    re-canonicalized.  Sets nested more than ``MAX_SEXPR_DEPTH`` deep raise
    ValueError.
    """
    return _read(text, parse_atom, many=False)[0]


def parse_sexprs(text: str,
                 parse_atom: Callable[[str], object] = lambda s: s) -> list:
    """Parse one or more concatenated s-expressions, in order.

    As parse_sexpr, but the text may hold further expressions after the
    first, with or without whitespace between them, and all of them share
    one Atom per distinct label, so ``parse_atom`` runs once per distinct
    label of the whole text.  Empty text raises ValueError, and so does any
    expression that does not parse.
    """
    return _read(text, parse_atom, many=True)


def _read(text: str, parse_atom, many: bool) -> list:
    """The expressions of text, one unless many, read one _READ match at a
    time with a stack of the open sets' children.  At a match it does not
    expect, a set nested past MAX_SEXPR_DEPTH or, unless many, a new label
    after the first expression, _fail raises the first error in token
    order from the match list; an unterminated string literal wins over
    parse_atom's error."""
    out: list = []
    kids = out      # the innermost open set's children, or out
    stack: list = []    # the enclosing children lists, out first
    atoms: dict = {}    # label -> Atom
    matches = _READ.findall(text)
    it = iter(matches)  # after a break, its length hint locates the match
    for token, opened, other in it:
        if token:
            label = _word(token)
            h = atoms.get(label)
            if h is None:
                if out and not many:
                    break
                try:
                    h = atoms[label] = Atom(parse_atom(label))
                except Exception:
                    _check_terminated(matches)
                    raise
            kids.append(h)
        elif opened:
            if len(stack) == MAX_SEXPR_DEPTH:
                break
            stack.append(kids)
            kids = []
        elif other == ")" and kids and stack:
            h = _interned_node(kids)
            kids = stack.pop()
            kids.append(h)
        else:
            break
    else:
        if out and not stack and (many or len(out) == 1):
            return out
        _fail(matches, len(matches), stack, bool(out) and not many)
    _fail(matches, len(matches) - operator.length_hint(it) - 1, stack,
          bool(out) and not many)


def _check_terminated(matches: list) -> None:
    """ValueError if the last _READ match is an unterminated string
    literal, an error that wins over every other."""
    last = matches[-1][2] if matches else ""
    if last[:1] == '"' and not _STRING.fullmatch(last):
        raise ValueError("unterminated string literal")


def _token(matches: list, i: int) -> Optional[str]:
    """The first token of the i-th _READ match, or None past the last."""
    return matches[i][2] or "(" if i < len(matches) else None


def _fail(matches: list, at: int, stack: list, trailing: bool):
    """Raise the first error in token order, where the reader gave up at
    its at-th _READ match (or at the end: at its match count) with the open
    sets in stack; trailing once parse_sexpr's one expression is read.  It
    reads only the reader's matches: their widths in tokens give the token
    index, and the matches after the at-th give the head and the label."""
    _check_terminated(matches)
    if trailing:
        raise ValueError("trailing input after s-expression")
    t = sum(4 if label else 2 if opened else 1
            for label, opened, _ in matches[:at])   # tokens before the match
    char = _token(matches, at)
    if char == ")" and stack:
        raise ValueError("set requires at least one element")
    if char != "(":
        raise ValueError(f"expected {')' if stack else '('!r} at token {t}")
    # an expression opens at token t and the error is in its head
    if matches[at][1]:
        raise ValueError(f"sets nested deeper than {MAX_SEXPR_DEPTH} "
                         f"at token {t}")
    head = _token(matches, at + 1)
    if head in (None, "(", ")"):
        raise ValueError("expected 'atom' or 'set' head")
    if head != "atom":
        raise ValueError(f"expected 'atom' or 'set', got {_word(head)!r}")
    if _token(matches, at + 2) in (None, "(", ")"):
        raise ValueError("atom requires a label")
    raise ValueError(f"expected ')' at token {t + 3}")


# --- enumeration and sampling ---------------------------------------------

def all_hsets(atom_values, max_depth: int) -> tuple:
    """Every HSet of depth <= max_depth over the given atom values.

    Counts grow doubly exponentially (2 atoms: 2, 5, 33, ... elements), so
    keep max_depth at 2 for exhaustive sweeps.
    """
    atoms = tuple(Atom(v) for v in atom_values)
    sets = atoms
    for _ in range(max_depth):
        n = len(sets)
        nodes = (node(sets[i] for i in range(n) if mask >> i & 1)
                 for mask in range(1, 1 << n))
        sets = tuple(dict.fromkeys((*atoms, *nodes)))
    return sets


def random_hset(rng, atom_values, max_depth: int,
                branch: int = 3) -> HSet:
    """Sample a random HSet of depth <= max_depth (atoms get likelier as
    the depth budget shrinks); branch bounds the children drawn per node.
    It recurses max_depth deep."""
    values = list(atom_values)
    if max_depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(values))
    kids = [random_hset(rng, values, max_depth - 1, branch)
            for _ in range(rng.randint(1, branch))]
    return node(kids)
