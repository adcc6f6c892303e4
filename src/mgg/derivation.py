"""Injective matching and direct derivations.

A match embeds a rule's left hand side into a host graph: every lhs node
maps to a distinct present host node, every lhs edge to a present host
edge, and every forbidden (nihilation) edge between mapped nodes to an
absent host cell.  Forbidden edges with an unmapped endpoint constrain
nothing, consistent with zero-filled completion.

Both conditions are AND / AND-NOT tests on packed neighbour masks
(``_Masks.candidates``): ``find_matches`` prunes with this one predicate and
``apply_at`` checks a given match with it.  ``derive`` and ``derive_all``
share one depth-first walker.

Applying a rule at a match completes its action matrices into the host
universe (added rule nodes get fresh host labels), then rewrites.  Deleting
a node removes its whole row and column, so derivation steps preserve
dangling-edge freedom whenever the rule itself does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boolmat import (
    BoolMatrix,
    Digraph,
    bounded_one,
    complement,
    complete_to,
    is_compatible,
    set_bits,
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


def _neighbours(m: BoolMatrix) -> tuple[list[int], list[int], int]:
    """Out- and in-neighbour masks of every node of m, and the mask of its self-loops."""
    n = len(m.universe)
    out, inn, loops = [0] * n, [0] * n, 0
    for cell in set_bits(m.bits):
        i, j = divmod(cell, n)
        out[i] |= 1 << j
        inn[j] |= 1 << i
        if i == j:
            loops |= 1 << i
    return out, inn, loops


class _Masks:
    """Neighbour masks of a rule's lhs, its nihilation and a host graph."""

    def __init__(self, p: Production, g: Digraph, check_nihil: bool = True):
        self.lhs_out, self.lhs_in, self.lhs_loops = _neighbours(p.lhs.edges)
        nihil = p.nihilation if check_nihil else BoolMatrix.zeros(p.universe)
        self.nihil_out, self.nihil_in, self.nihil_loops = _neighbours(nihil)
        self.host_out, self.host_in, self.host_loops = _neighbours(g.edges)

    def candidates(self, u: int, placed: dict[int, int], free: int) -> int:
        """The host nodes in mask ``free`` that lhs node u may map to.

        ``placed`` maps the lhs nodes matched so far to host nodes.  A
        candidate has every lhs edge between u and them, and u's lhs
        self-loop, in the host (m_L), and none of the forbidden ones (m_K).
        """
        if self.lhs_loops >> u & 1:
            free &= self.host_loops
        if self.nihil_loops >> u & 1:
            free &= ~self.host_loops
        for v, d in placed.items():
            if self.lhs_out[u] >> v & 1:
                free &= self.host_in[d]
            if self.lhs_in[u] >> v & 1:
                free &= self.host_out[d]
            if self.nihil_out[u] >> v & 1:
                free &= ~self.host_in[d]
            if self.nihil_in[u] >> v & 1:
                free &= ~self.host_out[d]
        return free


def find_matches(p: Production, g: Digraph, check_nihil: bool = True) -> list[Match]:
    """All injective matches of p's lhs into g, in lexicographic host order.

    Backtracks over lhs nodes in decreasing degree order.  An lhs node's
    candidates are one mask of present, unused host nodes of at least its
    in/out degree, narrowed by ``_Masks.candidates``; the returned list is
    sorted by the tuple of host indices taken in rule-universe order.
    """
    if not is_compatible(g):
        raise ValueError("host graph has dangling edges")
    # An lhs edge touching an absent lhs node can never be realized.
    if not is_compatible(p.lhs):
        return []

    masks = _Masks(p, g, check_nihil)
    lhs_idx = list(set_bits(p.lhs.nodes.bits))
    degree = {u: (masks.lhs_out[u].bit_count(), masks.lhs_in[u].bit_count()) for u in lhs_idx}
    order = sorted(lhs_idx, key=lambda u: (-sum(degree[u]), u))
    host_degree = [(o.bit_count(), i.bit_count()) for o, i in zip(masks.host_out, masks.host_in)]
    room = [
        sum(
            1 << c
            for c in set_bits(g.nodes.bits)
            if host_degree[c][0] >= degree[u][0] and host_degree[c][1] >= degree[u][1]
        )
        for u in order
    ]
    results: list[tuple[int, ...]] = []
    placed: dict[int, int] = {}

    def backtrack(depth: int, used: int) -> None:
        if depth == len(order):
            results.append(tuple(placed[i] for i in lhs_idx))
            return
        u = order[depth]
        for c in set_bits(masks.candidates(u, placed, room[depth] & ~used)):
            placed[u] = c
            backtrack(depth + 1, used | 1 << c)
            del placed[u]

    backtrack(0, 0)
    results.sort()
    rule_labels = p.universe.labels
    host_labels = g.universe.labels
    return [
        Match(tuple((rule_labels[i], host_labels[c]) for i, c in zip(lhs_idx, hosts)))
        for hosts in results
    ]


def _validate_match(p: Production, g: Digraph, m: Match) -> dict[str, str]:
    mapping = m.mapping()
    if sorted(mapping) != sorted(p.lhs.nodes.labels()):
        raise MatchError("match must cover exactly the lhs nodes")
    if len(set(mapping.values())) != len(mapping):
        raise MatchError("match must be injective")
    for target in mapping.values():
        if target not in g.universe or not g.nodes.get(target):
            raise MatchError(f"host node {target!r} is not present")
    image = sorted((p.universe.index(a), g.universe.index(b)) for a, b in mapping.items())
    masks = _Masks(p, g)
    placed: dict[int, int] = {}
    for u, c in image:
        if not masks.candidates(u, placed, 1 << c):
            raise MatchError(next(_violations(p, g, image, masks)))
        placed[u] = c
    return mapping


def _violations(
    p: Production, g: Digraph, image: list[tuple[int, int]], masks: _Masks
) -> Iterator[str]:
    """The violated lhs and forbidden cells of a match, row by row, as error messages."""
    rule_labels, host_labels = p.universe.labels, g.universe.labels
    for a, ha in image:
        for b, hb in image:
            edge = masks.host_out[ha] >> hb & 1
            cell = f"{rule_labels[a]}->{rule_labels[b]}"
            at = f"{host_labels[ha]}->{host_labels[hb]}"
            if masks.lhs_out[a] >> b & 1 and not edge:
                yield f"missing lhs edge {cell} at {at}"
            elif masks.nihil_out[a] >> b & 1 and edge:
                yield f"forbidden edge {cell} present at {at}"


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
    fresh = {}
    taken = set(g.universe.labels)
    for node in p.added_nodes.labels():
        fresh[node] = fresh_label(p, node, step, taken)
        taken.add(fresh[node])

    # A rule that adds no node leaves the host's universe, and so its bits, as they are.
    host = complete_to(g, g.universe.extended(fresh.values())) if fresh else g
    target = host.universe
    full_map = {**mapping, **fresh}

    del_edges = complete_to(p.deleted_edges, target, full_map)
    add_edges = complete_to(p.added_edges, target, full_map)
    del_nodes = complete_to(p.deleted_nodes, target, full_map)
    add_nodes = complete_to(p.added_nodes, target, full_map)

    kept_nodes = ~del_nodes
    # Row/column wipe-out for deleted nodes.
    kept_block = tensor(kept_nodes, kept_nodes)
    new_edges = add_edges | (host.edges & kept_block & ~del_edges)
    new_nodes = add_nodes | (host.nodes & kept_nodes)
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


# Selector of a derive_all step: every match, in match order.
_EVERY = object()


def _select(matches: list[Match], selector, step: int, p: Production, g: Digraph) -> Match:
    if not matches:
        if find_matches(p, g, check_nihil=False):
            raise DerivationError(
                step, p.name, "m_K", "no match: every lhs embedding hits a forbidden edge"
            )
        raise DerivationError(step, p.name, "m_L", "no match: lhs cannot be embedded")
    if selector == "first":
        return matches[0]
    if isinstance(selector, int):
        if not 0 <= selector < len(matches):
            raise DerivationError(
                step, p.name, "selector",
                f"match index {selector} out of range ({len(matches)} matches)",
            )
        return matches[selector]
    wanted = selector.mapping() if isinstance(selector, Match) else selector
    if not isinstance(wanted, dict):
        raise DerivationError(step, p.name, "selector", f"bad selector {selector!r}")
    for m in matches:
        if m.mapping() == wanted:
            return m
    raise DerivationError(step, p.name, "selector", "requested map is not a valid match")


def _walk(g: Digraph, steps, graph_prefix: str) -> Iterator[DerivationTrace]:
    """Every derivation along (production, selector) steps, in match order.

    A selector picks one match (see ``_select``); ``_EVERY`` branches on each.
    The walk is depth first on a stack, so long sequences need no recursion.
    """
    stack = [((), (g,))]
    while stack:
        trail, graphs = stack.pop()
        k = len(trail)
        if k == len(steps):
            yield DerivationTrace(trail, graphs)
            continue
        p, selector = steps[k]
        matches = find_matches(p, graphs[-1])
        if selector is not _EVERY:
            matches = [_select(matches, selector, k + 1, p, graphs[-1])]
        for m in reversed(matches):
            step = DerivationStep(p.name, m, f"{graph_prefix}{k}", f"{graph_prefix}{k + 1}")
            stack.append((trail + (step,), graphs + (apply_at(p, graphs[-1], m, step=k + 1),)))


def derive(g: Digraph, steps, graph_prefix: str = "g") -> DerivationTrace:
    """Fold direct derivations left to right.

    ``steps`` is a list of (production, selector) with selector one of
    "first", an integer index into the deterministic match list, an explicit
    Match, or a plain rule-label -> host-label dict.  The first step without
    a match aborts with the failed morphism named: "m_L" when the lhs cannot
    be embedded at all, "m_K" when every embedding hits a forbidden edge.
    """
    return next(_walk(g, list(steps), graph_prefix))


def derive_all(g: Digraph, productions, graph_prefix: str = "g") -> list[DerivationTrace]:
    """Every complete derivation trace over all per-step match choices."""
    return list(_walk(g, [(p, _EVERY) for p in productions], graph_prefix))
