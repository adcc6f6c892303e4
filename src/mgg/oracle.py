"""Independent brute-force validators for the main engine.

Every oracle here recomputes its answer from first principles, on a code
path separate from the module it audits, so the fast implementations can
be checked against exhaustive enumeration at small sizes.  Randomized
audits are reproducible from an explicit seed.  The per-cell builders and
readers (``matrix_of``, ``vector_of``, ``rows_of``, ``values_of``) set or
read one cell at a time, independently of the row and column masks the
library reads the packed layout through.
"""

from __future__ import annotations

import itertools
import random

from .boolmat import BoolMatrix, BoolVector, Digraph, NodeUniverse, is_compatible
from .derivation import Match, fresh_label
from .encoding import Bitmap
from .production import CensusTable, Production, _census_from_groups
from .sequence import RuleSequence


def matrix_of(universe: NodeUniverse, rows) -> BoolMatrix:
    """The matrix with cell (i, j) set iff ``rows[i][j]``, one cell at a time."""
    n = len(universe)
    rows = [tuple(r) for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("wrong matrix shape for universe")
    cells = (i * n + j for i, row in enumerate(rows) for j, v in enumerate(row) if v)
    return BoolMatrix(universe, sum(1 << cell for cell in cells))


def vector_of(universe: NodeUniverse, values) -> BoolVector:
    """The vector with node i set iff ``values[i]``."""
    values = tuple(values)
    if len(values) != len(universe):
        raise ValueError("wrong vector length for universe")
    return BoolVector(universe, sum(1 << i for i, v in enumerate(values) if v))


def rows_of(m: BoolMatrix) -> list[list[int]]:
    """Every cell of m, row by row, each read by index."""
    n = len(m.universe)
    return [[m[i, j] for j in range(n)] for i in range(n)]


def values_of(v: BoolVector) -> list[int]:
    """Every cell of v, each read by index."""
    return [v[i] for i in range(len(v.universe))]


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


def rewrite_at(p: Production, g: Digraph, m: Match, step: int = 1) -> Digraph:
    """Reference rewrite of g at a valid match m, one host cell at a time.

    Added rule nodes get fresh labels appended to the host universe.  A cell
    is set iff the rule adds it, or the host has it, the rule does not delete
    it and neither end is a node the rule deletes.
    """
    rule, old = p.universe.labels, len(g.universe)
    at = {p.universe.index(a): g.universe.index(b) for a, b in m.pairs}
    labels = list(g.universe.labels)
    for i in range(len(rule)):
        if p.added_nodes[i]:
            at[i] = len(labels)
            labels.append(fresh_label(p, rule[i], step, labels))
    cells = {}  # host cell -> 0 where the rule deletes an edge, 1 where it adds one
    for edges, value in ((p.deleted_edges, 0), (p.added_edges, 1)):
        for i, j in itertools.product(range(len(rule)), repeat=2):
            if edges[i, j] and not (i in at and j in at):
                raise ValueError(f"unmapped label carries content: edge {rule[i]!r}->{rule[j]!r}")
            if edges[i, j]:
                cells[at[i], at[j]] = value
    gone = {at[i] for i in range(len(rule)) if p.deleted_nodes[i]}
    kept = [h < old and h not in gone for h in range(len(labels))]
    u, n = NodeUniverse(tuple(labels)), len(labels)
    rows = [[cells.get((h, k), kept[h] and kept[k] and g.edges[h, k]) for k in range(n)]
            for h in range(n)]
    # Every node past the host's own is an added one.
    nodes = [h >= old or kept[h] and g.nodes[h] for h in range(n)]
    return Digraph(matrix_of(u, rows), vector_of(u, nodes))


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


def minimal_hosts(s: RuleSequence) -> list[Digraph]:
    """Componentwise-minimal hosts firing s at the identity completion.

    Enumerates every compatible digraph over the sequence universe and
    keeps the hosts no other applicable host sits strictly below (fewer
    edges, or equal edges and fewer nodes).
    """
    n = len(s.universe)
    if n > 4:
        raise ValueError("host enumeration is limited to 4 nodes")
    if len(s) > 3:
        raise ValueError("host enumeration is limited to 3 rules")
    candidates: list[tuple[int, int]] = []
    for node_bits in range(1 << n):
        nodes = BoolVector(s.universe, node_bits)
        block = _block_bits(nodes)
        inside = [i for i in range(n * n) if block >> i & 1]
        for picks in range(1 << len(inside)):
            edge_bits = sum(1 << cell for k, cell in enumerate(inside) if picks >> k & 1)
            host = Digraph(BoolMatrix(s.universe, edge_bits), nodes)
            if applies_at_identity(s, host):
                candidates.append((edge_bits, node_bits))

    def below(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a != b and a[0] & b[0] == a[0] and a[1] & b[1] == a[1]

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
    if node_count < 0:
        raise ValueError(f"census needs a node count of at least 0, not {node_count}")
    if node_count > 2:
        raise ValueError("census enumeration is limited to 2 nodes")
    cells = node_count * node_count
    full = (1 << cells) - 1
    groups: dict[int, int] = {}
    for lhs_bits in range(1 << cells):
        del_candidates = _subsets(lhs_bits)
        add_candidates = _subsets(full & ~lhs_bits)
        for del_bits in del_candidates:
            for add_bits in add_candidates:
                touched = del_bits | add_bits
                groups[touched] = groups.get(touched, 0) + 1
    return _census_from_groups(node_count, groups)


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
