"""Grammar files: the universe, named rules, sequences and hosts.

The format is line oriented.  A ``nodes`` line declares the universe (its
order fixes matrix layout and the encoding bit order), ``production`` and
``host`` open indented blocks, ``sequence`` lists rule names in application
order.  A ``#`` at the start of a token starts a comment; a ``#`` inside a
token is an error.  Labels must not contain ``->``, and no line may list a
label or an edge twice.  Example::

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
to it at parse time.  Parsing and serialization are mutually inverse on the
model (serialization canonicalizes label order).
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import Digraph, NodeUniverse, is_compatible
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


def _split_edge(token: str, line: int) -> tuple[str, str]:
    if token.count("->") != 1:
        raise GrammarError(line, f"malformed edge {token!r}; expected src->dst")
    src, dst = token.split("->")
    if not src or not dst:
        raise GrammarError(line, f"malformed edge {token!r}; expected src->dst")
    return src, dst


def _check_labels(universe: NodeUniverse, labels, line: int) -> None:
    for l in labels:
        if l not in universe:
            raise GrammarError(line, f"unknown node label {l!r}")


def _check_unique(tokens: list[str], distinct: int, what: str, line: int) -> None:
    """``distinct`` counts the cells the tokens set: fewer cells than tokens is a repeat."""
    if distinct < len(tokens):
        repeated = next(t for i, t in enumerate(tokens) if t in tokens[:i])
        raise GrammarError(line, f"duplicate {what} {repeated!r}")


def _check_no_fields(fields: dict[str, tuple[int, list[str]]], block: str) -> None:
    """Fields left after the known ones are popped are unknown: report the first."""
    if fields:
        line = min(line for line, _ in fields.values())
        raise GrammarError(line, f"unknown fields in {block} block: {sorted(fields)}")


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.universe: NodeUniverse | None = None
        self.productions: dict[str, Production] = {}
        self.sequences: dict[str, tuple[str, ...]] = {}
        self.hosts: dict[str, Digraph] = {}

    def error(self, msg: str) -> GrammarError:
        return GrammarError(self.pos, msg)

    def next_line(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1]
            hash_at = raw.find("#")
            if hash_at > 0 and not raw[hash_at - 1].isspace():
                raise self.error("'#' inside a token; comments start at a token boundary")
            stripped = raw.split("#", 1)[0].rstrip()
            if stripped.strip():
                return (len(raw) - len(raw.lstrip()), stripped.strip())
        return None

    def peek_indent(self) -> int | None:
        save = self.pos
        nxt = self.next_line()
        self.pos = save
        return None if nxt is None else nxt[0]

    def need_universe(self) -> NodeUniverse:
        if self.universe is None:
            raise self.error("the nodes line must come before this declaration")
        return self.universe

    def check_fresh(self, name: str) -> None:
        if name in self.productions or name in self.sequences or name in self.hosts:
            raise self.error(f"duplicate name {name!r}")

    def parse_block(self) -> dict[str, tuple[int, list[str]]]:
        """Indented key/value lines until the next top-level declaration."""
        fields: dict[str, tuple[int, list[str]]] = {}
        while True:
            indent = self.peek_indent()
            if indent is None or indent == 0:
                return fields
            _, line = self.next_line()
            tokens = line.split()
            if tokens[0] in ("lhs", "rhs") and len(tokens) >= 2:
                key = f"{tokens[0]} {tokens[1]}"
                values = tokens[2:]
            else:
                key = tokens[0]
                values = tokens[1:]
            if key in fields:
                raise self.error(f"duplicate field {key!r} in block")
            fields[key] = (self.pos, values)

    def digraph_from(
        self, fields: dict[str, tuple[int, list[str]]], prefix: str, block_line: int
    ) -> Digraph:
        u = self.need_universe()
        node_key = f"{prefix} nodes" if prefix else "nodes"
        edge_key = f"{prefix} edges" if prefix else "edges"
        node_line, nodes = fields.pop(node_key, (block_line, []))
        edge_line, edges = fields.pop(edge_key, (block_line, []))
        _check_labels(u, nodes, node_line)
        pairs = []
        for token in edges:
            src, dst = _split_edge(token, edge_line)
            _check_labels(u, (src, dst), edge_line)
            pairs.append((src, dst))
        g = Digraph.of(u, nodes, pairs)
        _check_unique(nodes, g.nodes.count(), "node label", node_line)
        _check_unique(edges, g.edges.count(), "edge", edge_line)
        if not is_compatible(g):
            raise GrammarError(
                edge_line, f"{prefix or 'host'} has an edge touching an absent node"
            )
        return g

    def run(self) -> GrammarFile:
        while True:
            nxt = self.next_line()
            if nxt is None:
                break
            indent, line = nxt
            if indent != 0:
                raise self.error("unexpected indented line outside a block")
            tokens = line.split()
            keyword, rest = tokens[0], tokens[1:]
            if keyword == "nodes":
                if self.universe is not None:
                    raise self.error("the universe is already declared")
                if not rest:
                    raise self.error("the nodes line needs at least one label")
                for label in rest:
                    if "->" in label:
                        raise self.error(f"node label {label!r} contains '->'")
                try:
                    self.universe = NodeUniverse(tuple(rest))
                except ValueError as exc:
                    raise self.error(str(exc)) from None
            elif keyword == "production":
                if len(rest) != 1:
                    raise self.error("expected: production <name>")
                name = rest[0]
                self.check_fresh(name)
                block_line = self.pos
                fields = self.parse_block()
                lhs = self.digraph_from(fields, "lhs", block_line)
                rhs = self.digraph_from(fields, "rhs", block_line)
                _check_no_fields(fields, "production")
                self.productions[name] = Production.from_static(name, lhs, rhs)
            elif keyword == "sequence":
                if len(rest) < 2:
                    raise self.error("expected: sequence <name> <rule> [<rule> ...]")
                name = rest[0]
                self.check_fresh(name)
                for rule_name in rest[1:]:
                    if rule_name not in self.productions:
                        raise self.error(f"unknown production {rule_name!r}")
                self.sequences[name] = tuple(rest[1:])
            elif keyword == "host":
                if len(rest) != 1:
                    raise self.error("expected: host <name>")
                name = rest[0]
                self.check_fresh(name)
                block_line = self.pos
                fields = self.parse_block()
                g = self.digraph_from(fields, "", block_line)
                _check_no_fields(fields, "host")
                self.hosts[name] = g
            else:
                raise self.error(f"unknown declaration {keyword!r}")
        if self.universe is None:
            raise GrammarError(0, "missing nodes line")
        return GrammarFile(self.universe, self.productions, self.sequences, self.hosts)


def parse_grammar(text: str) -> GrammarFile:
    return _Parser(text).run()


def _edge_tokens(g: Digraph) -> str:
    return " ".join(f"{a}->{b}" for a, b in g.edges.edges())


def serialize_grammar(gf: GrammarFile) -> str:
    """Canonical text form; parsing it back reproduces the model."""
    out = ["nodes " + " ".join(gf.universe.labels), ""]
    for name, p in gf.productions.items():
        out.append(f"production {name}")
        out.append("  lhs nodes " + " ".join(p.lhs.nodes.labels()))
        if not p.lhs.edges.is_zero():
            out.append("  lhs edges " + _edge_tokens(p.lhs))
        out.append("  rhs nodes " + " ".join(p.rhs.nodes.labels()))
        if not p.rhs.edges.is_zero():
            out.append("  rhs edges " + _edge_tokens(p.rhs))
        out.append("")
    for name, rules in gf.sequences.items():
        out.append(f"sequence {name} " + " ".join(rules))
        out.append("")
    for name, g in gf.hosts.items():
        out.append(f"host {name}")
        out.append("  nodes " + " ".join(g.nodes.labels()))
        if not g.edges.is_zero():
            out.append("  edges " + _edge_tokens(g))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
