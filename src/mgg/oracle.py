"""Independent brute-force validators for the main engine.

Every oracle here recomputes its answer from first principles, on a code
path separate from the module it audits, so the fast implementations can
be checked against exhaustive enumeration at small sizes.  Randomized
audits are reproducible from an explicit seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .boolmat import BoolMatrix, BoolVector, Digraph, NodeUniverse, is_compatible
from .derivation import Match
from .encoding import Bitmap
from .production import CensusTable, Production, _census_from_groups
from .sequence import RuleSequence


@dataclass(frozen=True)
class OracleReport:
    """Outcome of an audit run: pass iff no recorded violations."""

    name: str
    seed: int | None
    checked: int
    violations: tuple[tuple[str, str, str], ...]  # (input digest, expected, got)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_lines(self) -> list[str]:
        lines = [
            f"oracle {self.name}",
            f"seed {self.seed if self.seed is not None else '-'}",
            f"checked {self.checked}",
            f"violations {len(self.violations)}",
        ]
        for digest, expected, got in self.violations:
            lines.append(f"violation {digest} expected {expected} got {got}")
        return lines


def delta(t0: int, t1: int, family, zero):
    """OR over y in [t0, t1] of the AND over x in [y, t1] of family(x, y).

    An empty outer range yields ``zero``; the inner range is never empty
    when the outer one is not.
    """
    acc = zero
    for y in range(t0, t1 + 1):
        term = None
        for x in range(y, t1 + 1):
            value = family(x, y)
            term = value if term is None else term & value
        acc = acc | term
    return acc


def nabla(t0: int, t1: int, family, zero):
    """OR over y in [t0, t1] of the AND over x in [t0, y] of family(x, y)."""
    acc = zero
    for y in range(t0, t1 + 1):
        term = None
        for x in range(t0, y + 1):
            value = family(x, y)
            term = value if term is None else term & value
        acc = acc | term
    return acc


def brute_matches(p: Production, g: Digraph) -> list[Match]:
    """Every injective lhs embedding, by filtering all candidate maps.

    Enumerates all injective maps from lhs nodes to present host nodes and
    keeps those realizing every lhs edge in the host and every forbidden
    edge between mapped nodes in the host's complement.
    """
    host_nodes = [j for j in range(len(g.universe)) if g.nodes[j]]
    if len(host_nodes) > 7:
        raise ValueError("brute-force matching is limited to 7 host nodes")
    lhs_idx = [i for i in range(len(p.universe)) if p.lhs.nodes[i]]
    if (p.lhs.edges.bits & ~_block_bits(p.lhs.nodes)) != 0:
        return []

    rule_labels = p.universe.labels
    host_labels = g.universe.labels
    n_rule = len(p.universe)
    found = []
    for image in itertools.permutations(host_nodes, len(lhs_idx)):
        assign = dict(zip(lhs_idx, image))
        ok = True
        for a in range(n_rule):
            for b in range(n_rule):
                if a in assign and b in assign:
                    if p.lhs.edges[a, b] and not g.edges[assign[a], assign[b]]:
                        ok = False
                    if p.nihilation[a, b] and g.edges[assign[a], assign[b]]:
                        ok = False
                elif p.lhs.edges[a, b]:
                    ok = False  # lhs edge touching an unmapped node
            if not ok:
                break
        if ok:
            found.append(
                Match(tuple((rule_labels[i], host_labels[assign[i]]) for i in lhs_idx))
            )
    found.sort(key=lambda m: m.pairs)
    return found


def _block_bits(nodes: BoolVector) -> int:
    n = len(nodes.universe)
    bits = 0
    for i in range(n):
        if nodes[i]:
            for j in range(n):
                if nodes[j]:
                    bits |= 1 << (i * n + j)
    return bits


def applies_at_identity(s: RuleSequence, host: Digraph) -> bool:
    """Stepwise applicability of a completed sequence at the identity match.

    Each rule needs its lhs contained in the current graph, its forbidden
    edges absent, and its added nodes not yet present; the graph is then
    rewritten in place over the shared universe.
    """
    if host.universe != s.universe:
        raise ValueError("host must live on the sequence universe")
    if not is_compatible(host):
        return False
    edges, nodes = host.edges.bits, host.nodes.bits
    n = len(s.universe)
    for p in s.rules:
        if p.lhs.edges.bits & ~edges:
            return False
        if p.lhs.nodes.bits & ~nodes:
            return False
        if p.nihilation.bits & edges:
            return False
        if p.added_nodes.bits & nodes:
            return False
        edges = p.added_edges.bits | (edges & ~p.deleted_edges.bits)
        nodes = p.added_nodes.bits | (nodes & ~p.deleted_nodes.bits)
    return True


def minimal_hosts(s: RuleSequence, bound: int = 4) -> list[Digraph]:
    """Componentwise-minimal hosts firing s at the identity completion.

    Enumerates every compatible digraph over the sequence universe and
    keeps the hosts no other applicable host sits strictly below (fewer
    edges, or equal edges and fewer nodes).
    """
    n = len(s.universe)
    if n > bound or bound > 4:
        raise ValueError("host enumeration is limited to 4 nodes")
    if len(s) > 3:
        raise ValueError("host enumeration is limited to 3 rules")
    candidates: list[tuple[int, int]] = []
    for node_bits in range(1 << n):
        nodes = BoolVector(s.universe, node_bits)
        block = _block_bits(nodes)
        inside = []
        for i in range(n * n):
            if block & (1 << i):
                inside.append(i)
        for picks in range(1 << len(inside)):
            edge_bits = 0
            for k, cell in enumerate(inside):
                if picks & (1 << k):
                    edge_bits |= 1 << cell
            host = Digraph(BoolMatrix(s.universe, edge_bits), nodes)
            if applies_at_identity(s, host):
                candidates.append((edge_bits, node_bits))

    def below(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return (
            a != b
            and a[0] & b[0] == a[0]
            and a[1] & b[1] == a[1]
        )

    minimal = [
        c for c in candidates if not any(below(other, c) for other in candidates)
    ]
    minimal.sort()
    return [
        Digraph(BoolMatrix(s.universe, e), BoolVector(s.universe, v))
        for e, v in minimal
    ]


def pascal_mod2(bits: int) -> Bitmap:
    """Parity of binomial(x + y, x) via the additive triangle recurrence."""
    if not 1 <= bits <= 12:
        raise ValueError("bits must be between 1 and 12")
    size = 1 << bits
    rows = []
    prev: list[int] = []
    for y in range(size):
        row = [1] * size
        for x in range(1, size):
            row[x] = (row[x - 1] + prev[x]) % 2 if y else 1
        rows.append(row)
        prev = row
    masks = []
    for row in rows:
        mask = 0
        for x, v in enumerate(row):
            if v:
                mask |= 1 << x
        masks.append(mask)
    return Bitmap(size, size, tuple(masks))


def census_bruteforce(node_count: int) -> CensusTable:
    """Swap classes regrouped from raw (lhs, deletions, additions) triples.

    Walks every lhs edge set, every deletion subset of it and every
    addition set disjoint from it, grouping by the touched-cell mask
    computed directly, without the swap-operator code path.
    """
    if node_count > 2:
        raise ValueError("census enumeration is limited to 2 nodes")
    cells = node_count * node_count
    full = (1 << cells) - 1
    groups: dict[int, int] = {}
    total = 0
    for lhs_bits in range(1 << cells):
        del_candidates = _subsets(lhs_bits)
        add_candidates = _subsets(full & ~lhs_bits)
        for del_bits in del_candidates:
            for add_bits in add_candidates:
                touched = del_bits | add_bits
                groups[touched] = groups.get(touched, 0) + 1
                total += 1
    return _census_from_groups(node_count, groups, total)


def _subsets(mask: int) -> list[int]:
    subs = []
    sub = mask
    while True:
        subs.append(sub)
        if sub == 0:
            return subs
        sub = (sub - 1) & mask


def random_digraph(
    rng: random.Random,
    universe: NodeUniverse,
    node_density: float = 0.8,
    edge_density: float = 0.5,
) -> Digraph:
    n = len(universe)
    node_bits = 0
    for i in range(n):
        if rng.random() < node_density:
            node_bits |= 1 << i
    nodes = BoolVector(universe, node_bits)
    edge_bits = 0
    for i in range(n):
        for j in range(n):
            if nodes[i] and nodes[j] and rng.random() < edge_density:
                edge_bits |= 1 << (i * n + j)
    return Digraph(BoolMatrix(universe, edge_bits), nodes)


def random_production(
    rng: random.Random,
    universe: NodeUniverse,
    name: str = "p",
    edge_density: float = 0.5,
    node_delete_prob: float = 0.25,
    node_add_prob: float = 0.25,
) -> Production:
    """Random rule: random lhs, then changes partitioned into delete/add.

    The rhs is kept a proper digraph: deleting a node forces its incident
    edges out, and added edges only appear between surviving or added
    nodes, so the generated rules are compatible.
    """
    n = len(universe)
    lhs = random_digraph(rng, universe, 0.75, edge_density)
    rhs_node_bits = 0
    for i in range(n):
        if lhs.nodes[i]:
            if rng.random() >= node_delete_prob:
                rhs_node_bits |= 1 << i  # kept
        elif rng.random() < node_add_prob:
            rhs_node_bits |= 1 << i  # added
    rhs_nodes = BoolVector(universe, rhs_node_bits)
    rhs_edge_bits = 0
    for i in range(n):
        for j in range(n):
            if not (rhs_nodes[i] and rhs_nodes[j]):
                continue
            if lhs.edges[i, j]:
                if rng.random() >= 0.5:
                    rhs_edge_bits |= 1 << (i * n + j)  # kept
            elif rng.random() < 0.25:
                rhs_edge_bits |= 1 << (i * n + j)  # added
    rhs = Digraph(BoolMatrix(universe, rhs_edge_bits), rhs_nodes)
    return Production.from_static(name, lhs, rhs)


def random_sequence(
    rng: random.Random,
    universe: NodeUniverse,
    length: int,
    name: str = "p",
    node_add_prob: float = 0.25,
) -> RuleSequence:
    return RuleSequence(
        tuple(
            random_production(rng, universe, f"{name}{k + 1}", node_add_prob=node_add_prob)
            for k in range(length)
        )
    )
