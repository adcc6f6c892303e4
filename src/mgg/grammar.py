"""Grammar files: the universe, named rules, sequences and hosts.

The format is line oriented UTF-8 text.  A ``nodes`` line declares the
universe (its order fixes matrix layout and the encoding bit order),
``production`` and ``host`` open indented blocks, ``sequence`` lists rule
names in application order.  A ``#`` at the start of a token starts a
comment; a ``#`` inside a token is an error.  Labels must not contain ``->``,
and no line may list a label or an edge twice.  Example::

    nodes a b c

    production retire
      lhs nodes a b c
      lhs edges a->a a->b c->a c->b
      rhs nodes a b
      rhs edges a->a b->a

    sequence handover retire recruit

    host start
      nodes a b c
      edges a->a a->b b->b c->a c->b

Every label must be declared in the universe; rules and hosts are completed
to it at parse time.  Each line is lexed once (split at ``#`` only when it
holds one), and every error is a ``GrammarError`` carrying the offending
line (0 for a file with no ``nodes`` line).  Edge tokens go to cells through
a memo that lives for one parse.  In most files each distinct token is split
and looked up once, when first read.  A token-dense file (at least n² ``->``
in its text, n nodes, counted only when the text is long enough to hold that
many tokens at the labels' mean length) instead fills the memo with all n²
tokens of its universe's ``cell_names`` before its first edge line, and
reads each line with one C-level ``map``.  The gate is where the table
starts to pay on coherent files, which repeat more tokens than random ones
(see ``_TABLE_TOKENS``).  A token missing from a full memo is malformed or
names an unknown label, and is worded as when a lookup fails, so both routes
give the same errors in the same order.

Bits first, objects once.  The checks run in a fixed order:

1. A block is read whole first: a repeated field is reported before any
   line of the block is checked, even a line above it.
2. The lhs is checked before the rhs, wherever their lines stand.
3. Within a side (or a host), its node labels and edge cells are packed
   into two ints (``boolmat.label_bits``, ``boolmat.cell_bits``) and every
   check runs on those ints: an unknown label or malformed edge (a nodes
   line's before an edges line's, whichever comes first in the file), then a
   repeated node label, then a repeated edge (fewer set bits than tokens),
   then an edge touching an absent node (``edges & ~block_bits(u, nodes)``).
   A declaration with no edges skips the two edge checks and builds no
   block; its labels are still counted for repeats.
4. Last, the block's unknown fields, the first of them by line.

A check words its error only once its count falls short (or fields remain),
so a passing declaration pays for no wording.  Only a declaration that passes
them all builds its ``BoolMatrix``, ``BoolVector`` and ``Digraph``, each
once, and a rule is built from its two sides through
``Production.from_static``.  Parsing and serialization are mutually inverse
on the model (serialization canonicalizes label order).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .boolmat import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    block_bits,
    cell_bits,
    label_bits,
)
from .production import Production


class GrammarError(ValueError):
    """Parse or validation failure, carrying the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GrammarFile:
    universe: NodeUniverse
    productions: dict[str, Production]
    sequences: dict[str, tuple[str, ...]]
    hosts: dict[str, Digraph]


# A file fills its token memo from its universe's ``cell_names`` when its text
# holds at least this many ``->`` per universe cell: where the table starts to
# pay on coherent files.  The table is a build of all n² tokens, which saves a
# split and a lookup for each distinct token read; coherent files repeat more
# of their tokens than random ones, so they need more tokens to repay it.  A
# report that names its witnesses reuses the names.  Counting the arrows is a
# pass over the text, so a file is counted only if it is long enough to hold
# that many tokens (measured in CHANGES.md, "One cell table per universe").
_TABLE_TOKENS = 1


def _lex(text: str) -> Iterator[tuple[int, bool, list[str]]]:
    """Each line that is not blank or a comment, lexed once: (number, indented, tokens)."""
    for number, raw in enumerate(text.splitlines(), 1):
        code = raw
        if "#" in raw:
            code = raw.partition("#")[0]
            if code and not code[-1].isspace():
                raise GrammarError(number, "'#' inside a token; comments start at a token boundary")
        tokens = code.split()
        if tokens:
            yield number, raw[0].isspace(), tokens


def _bad_token(universe: NodeUniverse, nodes, node_line: int, edges, edge_line: int):
    """Word the first unknown label or malformed edge after a lookup failed.

    The nodes line's labels are searched first, then the edges line's tokens,
    each in line order, wherever the two lines stand in the block.

    Labels are non-empty and never contain ``->``, so a malformed edge token
    always fails the lookup of one of its two halves.
    """
    for label in nodes:
        if label not in universe:
            return GrammarError(node_line, f"unknown node label {label!r}")
    for token in edges:
        src, _, dst = token.partition("->")
        if not src or not dst or "->" in dst:
            return GrammarError(edge_line, f"malformed edge {token!r}; expected src->dst")
        for label in (src, dst):
            if label not in universe:
                return GrammarError(edge_line, f"unknown node label {label!r}")


def _repeat(tokens: list[str], what: str, line: int) -> GrammarError:
    """Word the first repeated token, once its bits have counted fewer cells than tokens."""
    seen = set()
    for token in tokens:
        if token in seen:
            return GrammarError(line, f"duplicate {what} {token!r}")
        seen.add(token)


def _unknown_fields(fields: dict[str, tuple[int, list[str]]], block: str) -> GrammarError:
    """Fields left after the known ones are popped are unknown: word the first."""
    line = min(line for line, _ in fields.values())
    return GrammarError(line, f"unknown fields in {block} block: {sorted(fields)}")


# The two field keys of each side a declaration has, and the side's name in errors.
_LHS = ("lhs nodes", "lhs edges", "lhs")
_RHS = ("rhs nodes", "rhs edges", "rhs")
_HOST = ("nodes", "edges", "host")
# An absent field holds no token, so no error ever names its line.
_ABSENT = (0, ())


class _Parser:
    """Takes each lexed line from ``_lex`` only when it has to look at it."""

    def __init__(self, text: str):
        self.text = text
        self.lines = _lex(text)
        self.universe: NodeUniverse | None = None
        self.cells: dict[str, int] = {}  # each well-formed edge token read so far -> its cell
        self.productions: dict[str, Production] = {}
        self.sequences: dict[str, tuple[str, ...]] = {}
        self.hosts: dict[str, Digraph] = {}

    def check_fresh(self, name: str, line: int) -> None:
        if name in self.productions or name in self.sequences or name in self.hosts:
            raise GrammarError(line, f"duplicate name {name!r}")

    def parse_block(self):
        """Indented key/value lines, and the top-level line that ends them (None at the end)."""
        fields: dict[str, tuple[int, list[str]]] = {}
        for line in self.lines:
            number, indented, tokens = line
            if not indented:
                return fields, line
            if tokens[0] in ("lhs", "rhs") and len(tokens) >= 2:
                key = f"{tokens[0]} {tokens[1]}"
                values = tokens[2:]
            else:
                key = tokens[0]
                values = tokens[1:]
            if key in fields:
                raise GrammarError(number, f"duplicate field {key!r} in block")
            fields[key] = (number, values)
        return fields, None

    def digraph_from(
        self, fields: dict[str, tuple[int, list[str]]], side: tuple[str, str, str], block_line: int
    ) -> Digraph:
        u = self.universe
        if u is None:
            raise GrammarError(block_line, "the nodes line must come before this declaration")
        nodes_key, edges_key, name = side
        node_line, nodes = fields.pop(nodes_key, _ABSENT)
        edge_line, edges = fields.pop(edges_key, _ABSENT)
        memo, index, n = self.cells, u._index, u.size
        try:
            if len(memo) == n * n:  # every well-formed token: a miss is an error
                cells = list(map(memo.__getitem__, edges))
            else:
                cells = []
                for token in edges:
                    at = memo.get(token)
                    if at is None:
                        src, _, dst = token.partition("->")
                        at = memo[token] = index[src] * n + index[dst]  # u.cell(src, dst)
                    cells.append(at)
            node_bits = label_bits(u, nodes)
        except KeyError:
            raise _bad_token(u, nodes, node_line, edges, edge_line) from None
        if node_bits.bit_count() < len(nodes):
            raise _repeat(nodes, "node label", node_line)
        edge_bits = 0
        if cells:
            edge_bits = cell_bits(u, cells)
            if edge_bits.bit_count() < len(edges):
                raise _repeat(edges, "edge", edge_line)
            if edge_bits & ~block_bits(u, node_bits):
                raise GrammarError(edge_line, f"{name} has an edge touching an absent node")
        return Digraph(BoolMatrix(u, edge_bits), BoolVector(u, node_bits))

    def declaration(self, number: int, indented: bool, tokens: list[str]):
        """Parse one top-level declaration; return the line after it (None at the end)."""
        if indented:
            raise GrammarError(number, "unexpected indented line outside a block")
        keyword = tokens[0]
        if keyword in ("production", "host"):
            if len(tokens) != 2:
                raise GrammarError(number, f"expected: {keyword} <name>")
            name = tokens[1]
            self.check_fresh(name, number)
            fields, after = self.parse_block()
            if keyword == "production":
                lhs = self.digraph_from(fields, _LHS, number)
                rhs = self.digraph_from(fields, _RHS, number)
                if fields:
                    raise _unknown_fields(fields, keyword)
                self.productions[name] = Production.from_static(name, lhs, rhs)
            else:
                g = self.digraph_from(fields, _HOST, number)
                if fields:
                    raise _unknown_fields(fields, keyword)
                self.hosts[name] = g
            return after
        rest = tokens[1:]
        if keyword == "nodes":
            if self.universe is not None:
                raise GrammarError(number, "the universe is already declared")
            if not rest:
                raise GrammarError(number, "the nodes line needs at least one label")
            for label in rest:
                if "->" in label:
                    raise GrammarError(number, f"node label {label!r} contains '->'")
            try:
                self.universe = u = NodeUniverse(tuple(rest))
            except ValueError as exc:
                raise GrammarError(number, str(exc)) from None
            n, cells = u.size, u.size * u.size
            dense = _TABLE_TOKENS * cells
            # A token is two labels, the arrow and a separator: a text too short
            # for ``dense`` tokens at the labels' mean length is not counted.
            if len(self.text) * n >= dense * (2 * sum(map(len, rest)) + 3 * n):
                if self.text.count("->") >= dense:
                    self.cells = dict(zip(u.cell_names, range(cells)))
        elif keyword == "sequence":
            if len(rest) < 2:
                raise GrammarError(number, "expected: sequence <name> <rule> [<rule> ...]")
            name = rest[0]
            self.check_fresh(name, number)
            for rule_name in rest[1:]:
                if rule_name not in self.productions:
                    raise GrammarError(number, f"unknown production {rule_name!r}")
            self.sequences[name] = tuple(rest[1:])
        else:
            raise GrammarError(number, f"unknown declaration {keyword!r}")
        return next(self.lines, None)

    def run(self) -> GrammarFile:
        line = next(self.lines, None)
        while line is not None:
            line = self.declaration(*line)
        if self.universe is None:
            raise GrammarError(0, "missing nodes line")
        return GrammarFile(self.universe, self.productions, self.sequences, self.hosts)


def parse_grammar(text: str) -> GrammarFile:
    return _Parser(text).run()


def _digraph_lines(prefix: str, g: Digraph) -> Iterator[str]:
    """g's nodes line, and its edges line if it has an edge, each key after ``prefix``."""
    yield f"  {prefix}nodes " + " ".join(g.nodes.labels())
    if not g.edges.is_zero():
        yield f"  {prefix}edges " + " ".join(f"{a}->{b}" for a, b in g.edges.edges())


def serialize_grammar(gf: GrammarFile) -> str:
    """Canonical text form; parsing it back reproduces the model."""
    out = ["nodes " + " ".join(gf.universe.labels), ""]
    for name, p in gf.productions.items():
        out.append(f"production {name}")
        out.extend(_digraph_lines("lhs ", p.lhs))
        out.extend(_digraph_lines("rhs ", p.rhs))
        out.append("")
    for name, rules in gf.sequences.items():
        out.append(f"sequence {name} " + " ".join(rules))
        out.append("")
    for name, g in gf.hosts.items():
        out.append(f"host {name}")
        out.extend(_digraph_lines("", g))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
