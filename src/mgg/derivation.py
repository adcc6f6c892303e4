"""Injective matching and direct derivations.

A match embeds a rule's left hand side into a host graph: every lhs node
maps to a distinct present host node, every lhs edge to a present host
edge, and every forbidden (nihilation) edge between mapped nodes to an
absent host cell.  Forbidden edges with an unmapped endpoint constrain
nothing, consistent with zero-filled completion.

Applying a rule at a match completes its action matrices into the host
universe (added rule nodes get fresh host labels), then rewrites.  Deleting
a node removes its whole row and column, so derivation steps preserve
dangling-edge freedom whenever the rule itself does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import (
    BoolMatrix,
    Digraph,
    bounded_one,
    complement,
    complete_to,
    is_compatible,
    tensor,
)
from .production import Production


class MatchError(ValueError):
    """A proposed match violates the lhs or forbidden-edge conditions."""


class DerivationError(RuntimeError):
    """A derivation step could not proceed; names the step and the failure."""

    def __init__(self, step: int, production: str, failed: str, message: str):
        super().__init__(f"step {step} ({production}): {message}")
        self.step = step
        self.production = production
        self.failed = failed  # "m_L", "m_K" or "selector"


@dataclass(frozen=True)
class Match:
    """Injective node map from a rule's lhs nodes into host labels.

    Pairs are listed in rule-universe order, so matches compare and sort
    deterministically.
    """

    pairs: tuple[tuple[str, str], ...]

    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def render(self) -> str:
        return " ".join(f"{a}->{b}" for a, b in self.pairs) or "(empty)"


def host_complement(g: Digraph) -> BoolMatrix:
    """Absent edges of a host, bounded by its present-node block."""
    return complement(g.edges, bounded_one(g.nodes))


def _lhs_node_indices(p: Production) -> list[int]:
    return [i for i in range(len(p.universe)) if p.lhs.nodes[i]]


def find_matches(p: Production, g: Digraph, check_nihil: bool = True) -> list[Match]:
    """All injective matches of p's lhs into g, in lexicographic host order.

    Backtracks over lhs nodes in decreasing degree order, pruning host
    candidates whose in/out degree is too small; the returned list is
    sorted by the tuple of host indices taken in rule-universe order.
    """
    if not is_compatible(g):
        raise ValueError("host graph has dangling edges")
    # An lhs edge touching an absent lhs node can never be realized.
    if (p.lhs.edges.bits & ~bounded_one(p.lhs.nodes).bits) != 0:
        return []

    n_rule = len(p.universe)
    n_host = len(g.universe)
    lhs_idx = _lhs_node_indices(p)
    host_nodes = [j for j in range(n_host) if g.nodes[j]]

    lhs_out = {i: sum(p.lhs.edges[i, j] for j in range(n_rule)) for i in lhs_idx}
    lhs_in = {i: sum(p.lhs.edges[j, i] for j in range(n_rule)) for i in lhs_idx}
    order = sorted(lhs_idx, key=lambda i: (-(lhs_out[i] + lhs_in[i]), i))
    host_out = {j: sum(g.edges[j, k] for k in range(n_host)) for j in host_nodes}
    host_in = {j: sum(g.edges[k, j] for k in range(n_host)) for j in host_nodes}

    nihil = p.nihilation
    results: list[tuple[int, ...]] = []
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def consistent(u: int, c: int) -> bool:
        for v, d in assigned.items():
            for a, b, x, y in ((u, v, c, d), (v, u, d, c)):
                if p.lhs.edges[a, b] and not g.edges[x, y]:
                    return False
                if check_nihil and nihil[a, b] and g.edges[x, y]:
                    return False
        if p.lhs.edges[u, u] and not g.edges[c, c]:
            return False
        if check_nihil and nihil[u, u] and g.edges[c, c]:
            return False
        return True

    def backtrack(depth: int) -> None:
        if depth == len(order):
            results.append(tuple(assigned[i] for i in lhs_idx))
            return
        u = order[depth]
        for c in host_nodes:
            if c in used:
                continue
            if host_out[c] < lhs_out[u] or host_in[c] < lhs_in[u]:
                continue
            if not consistent(u, c):
                continue
            assigned[u] = c
            used.add(c)
            backtrack(depth + 1)
            used.discard(c)
            del assigned[u]

    backtrack(0)
    results.sort()
    rule_labels = p.universe.labels
    host_labels = g.universe.labels
    return [
        Match(tuple((rule_labels[i], host_labels[c]) for i, c in zip(lhs_idx, hosts)))
        for hosts in results
    ]


def _validate_match(p: Production, g: Digraph, m: Match) -> dict[str, str]:
    mapping = m.mapping()
    lhs_labels = [p.universe.labels[i] for i in _lhs_node_indices(p)]
    if sorted(mapping) != sorted(lhs_labels):
        raise MatchError("match must cover exactly the lhs nodes")
    if len(set(mapping.values())) != len(mapping):
        raise MatchError("match must be injective")
    for label, host in mapping.items():
        if host not in g.universe or not g.nodes.get(host):
            raise MatchError(f"host node {host!r} is not present")
    for a in lhs_labels:
        for b in lhs_labels:
            ia, ib = p.universe.index(a), p.universe.index(b)
            ha, hb = g.universe.index(mapping[a]), g.universe.index(mapping[b])
            if p.lhs.edges[ia, ib] and not g.edges[ha, hb]:
                raise MatchError(f"missing lhs edge {a}->{b} at {mapping[a]}->{mapping[b]}")
            if p.nihilation[ia, ib] and g.edges[ha, hb]:
                raise MatchError(
                    f"forbidden edge {a}->{b} present at {mapping[a]}->{mapping[b]}"
                )
    return mapping


def fresh_label(p: Production, node: str, step: int, taken) -> str:
    label = f"{p.name}.{node}#{step}"
    bump = step
    while label in taken:
        bump += 1
        label = f"{p.name}.{node}#{bump}"
    return label


def apply_at(p: Production, g: Digraph, m: Match, step: int = 1) -> Digraph:
    """One direct derivation: rewrite g at the given match.

    Added rule nodes receive fresh host labels ``<rule>.<node>#<step>``.
    The deletion of a node erases its entire row and column in the host,
    keeping the result dangling-free.
    """
    mapping = _validate_match(p, g, m)
    added_labels = [
        p.universe.labels[i]
        for i in range(len(p.universe))
        if p.added_nodes[i]
    ]
    fresh = {}
    taken = set(g.universe.labels)
    for node in added_labels:
        label = fresh_label(p, node, step, taken)
        fresh[node] = label
        taken.add(label)

    target = g.universe.extended(fresh[n] for n in added_labels)
    full_map = dict(mapping)
    full_map.update(fresh)

    host_edges = complete_to(g.edges, target)
    host_nodes = complete_to(g.nodes, target)
    del_edges = complete_to(p.deleted_edges, target, full_map)
    add_edges = complete_to(p.added_edges, target, full_map)
    del_nodes = complete_to(p.deleted_nodes, target, full_map)
    add_nodes = complete_to(p.added_nodes, target, full_map)

    kept_nodes = ~del_nodes
    # Row/column wipe-out for deleted nodes.
    kept_block = tensor(kept_nodes, kept_nodes)
    new_edges = add_edges | (host_edges & kept_block & ~del_edges)
    new_nodes = add_nodes | (host_nodes & kept_nodes)
    return Digraph(new_edges, new_nodes)


@dataclass(frozen=True)
class DerivationStep:
    production: str
    match: Match
    input_id: str
    output_id: str


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[DerivationStep, ...]
    graphs: tuple[Digraph, ...]

    @property
    def result(self) -> Digraph:
        return self.graphs[-1]


def _select(matches: list[Match], selector, step: int, name: str) -> Match:
    if selector == "first":
        return matches[0]
    if isinstance(selector, int):
        if not 0 <= selector < len(matches):
            raise DerivationError(
                step, name, "selector",
                f"match index {selector} out of range ({len(matches)} matches)",
            )
        return matches[selector]
    if isinstance(selector, Match):
        candidate = selector
    elif isinstance(selector, dict):
        candidate = Match(tuple(sorted(selector.items())))
    else:
        raise DerivationError(step, name, "selector", f"bad selector {selector!r}")
    wanted = dict(candidate.pairs)
    for m in matches:
        if dict(m.pairs) == wanted:
            return m
    raise DerivationError(step, name, "selector", "requested map is not a valid match")


def derive(g: Digraph, steps, graph_prefix: str = "g") -> DerivationTrace:
    """Fold direct derivations left to right.

    ``steps`` is a list of (production, selector) with selector one of
    "first", an integer index into the deterministic match list, an explicit
    Match, or a plain rule-label -> host-label dict.  The first step without
    a match aborts with the failed morphism named: "m_L" when the lhs cannot
    be embedded at all, "m_K" when every embedding hits a forbidden edge.
    """
    graphs = [g]
    trace: list[DerivationStep] = []
    current = g
    for k, (p, selector) in enumerate(steps, start=1):
        matches = find_matches(p, current)
        if not matches:
            lhs_only = find_matches(p, current, check_nihil=False)
            failed = "m_K" if lhs_only else "m_L"
            raise DerivationError(
                k, p.name, failed,
                "no match: " + (
                    "every lhs embedding hits a forbidden edge"
                    if lhs_only
                    else "lhs cannot be embedded"
                ),
            )
        chosen = _select(matches, selector, k, p.name)
        current = apply_at(p, current, chosen, step=k)
        graphs.append(current)
        trace.append(
            DerivationStep(p.name, chosen, f"{graph_prefix}{k-1}", f"{graph_prefix}{k}")
        )
    return DerivationTrace(tuple(trace), tuple(graphs))


def derive_all(g: Digraph, productions, graph_prefix: str = "g") -> list[DerivationTrace]:
    """Every complete derivation trace over all per-step match choices."""
    traces: list[DerivationTrace] = []

    def walk(current: Digraph, k: int, steps, graphs) -> None:
        if k == len(productions):
            traces.append(DerivationTrace(tuple(steps), tuple(graphs)))
            return
        p = productions[k]
        for m in find_matches(p, current):
            nxt = apply_at(p, current, m, step=k + 1)
            walk(
                nxt,
                k + 1,
                steps + [DerivationStep(p.name, m, f"{graph_prefix}{k}", f"{graph_prefix}{k+1}")],
                graphs + [nxt],
            )

    walk(g, 0, [], [g])
    return traces
