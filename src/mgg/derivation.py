"""Injective matching and direct derivations.

A match embeds a rule's left hand side into a host graph: every lhs node
maps to a distinct present host node, every lhs edge to a present host
edge, and every forbidden (nihilation) edge between mapped nodes to an
absent host cell.  Forbidden edges with an unmapped endpoint constrain
nothing, consistent with zero-filled completion.

Match order is the lexicographic order of a match's host indices, taken
in rule-universe order.  One depth-first search (``_embeddings``) places
the lhs nodes in rule-universe order and tries each node's candidates in
ascending host index, so it yields matches in match order and nothing is
sorted.  A node's candidates are one packed mask of present, unused host
nodes, ANDed and AND-NOTed with the host's rows, columns and self-loops at
the nodes placed before it.  A look-ahead narrows the mask further, all on
AND / OR: for each later lhs neighbour whose candidates the placed nodes
already narrow, the node must be adjacent to one of them.  It removes only
hosts no match can use, and it stands in for the pruning a degree-ordered
search would give on path-shaped rules.  An lhs node that no present host
node can take, by its self-loop alone, ends the search before any placement.

The search is a generator, so ``derive`` stops as soon as the selector has
its match: "first" takes one match and index K takes K + 1 (an index out
of range enumerates the rest, to count them); a map or Match selector
takes the first, which rules out m_L and m_K, and is then checked cell by
cell as ``apply_at`` checks a given match.  ``find_matches``,
``derivations`` and ``derive_all`` take every match.

A step rewrites through a plan (``_plan``) built once per rule and host
universe, when a host over it first has a match: the fresh labels and their
universe, one object that every rewrite of the plan shares, the new nodes'
bits, and the rule's deleted nodes and edited cells named by slot (lhs
nodes, then added nodes).  Every host a walk reaches at one depth is over
the universe of the plan one step before, so the walk builds at most one
plan per step.  A host's edge bits are re-strided to the new width once (new
nodes get zero rows); a match, given by host indices that the walker takes from
its own search unchecked, fills in the slots: the edge bits lose each
deleted node's row and column and each deleted edge in one AND-NOT, then
gain the added edges in one OR.  The wipe keeps derivation steps
dangling-free whenever the rule is.  A rule that deletes no node gives every
host one rewrite builds the same nodes, so they share one node vector
object.  ``derivations`` yields the traces as the walk finds them, and
``derive_all`` lists them.  The walk keeps a stack of the hosts it has yet
to search; at the last step it yields each trace as its leaf is rewritten,
in match order, without pushing it.

The search reads a host's neighbour masks (``_cut``).  A walk cuts them
from the bits once, for its starting host; every host a later step searches
gets its parent's masks with the step's edits made at the match's slots: a
deleted node's row and column are cleared at its neighbours, the cut cells
cleared, the put cells set, and new nodes get zero masks.  The last hosts
of a walk get none.  ``find_matches`` cuts the masks of the host it is
given, and ``apply_at`` that host's rows where the universe widens.  The
host check (no edge at an absent node) runs on every host cut from its
bits, and on a walker-built host only where the step's rule adds an edge at
a node it deletes, the one way a rewrite of a dangling-free host can leave
an edge dangling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .boolmat import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    bounded_one,
    complement,
    is_compatible,
    set_bits,
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


@dataclass(frozen=True, slots=True, init=False)
class Match:
    """Injective node map from a rule's lhs nodes into host labels.

    Pairs are listed in rule-universe order, so matches compare and sort
    deterministically.
    """

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: tuple[tuple[str, str], ...]) -> None:
        _set_pairs(self, pairs)

    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def render(self) -> str:
        return " ".join(f"{a}->{b}" for a, b in self.pairs) or "(empty)"


_set_pairs = Match.pairs.__set__


def host_complement(g: Digraph) -> BoolMatrix:
    """Absent edges of a host, bounded by its present-node block."""
    return complement(g.edges, bounded_one(g.nodes))


def _cut(g: Digraph) -> tuple[list[int], list[int], int, bool]:
    """g's neighbour masks, cut from its bits, for a host not yet checked.

    Out-neighbours (row i: bit j for edge i->j), in-neighbours (column j: bit
    i), self-loops (bit i for edge i->i), and whether the host check is due.
    """
    out = g.edges.row_masks()
    return out, g.edges.column_masks(), sum(row & 1 << i for i, row in enumerate(out)), True


def _embeddings(
    p: Production, g: Digraph, masks=None, check_nihil: bool = True
) -> Iterator[tuple[int, ...]]:
    """The host indices of p's lhs nodes, in rule-universe order, of each match in match order.

    ``masks`` are g's neighbour masks (see ``_cut``), cut from its bits when
    not given.  Without ``check_nihil`` forbidden edges are ignored, which
    gives every embedding of the lhs alone.
    """
    out, inn, loops, unchecked = masks or _cut(g)
    # An edge touching an absent node sets an absent bit in its row or its column.
    absent = ~g.nodes.bits
    if unchecked and any(mask & absent for mask in chain(out, inn)):
        raise ValueError("host graph has dangling edges")
    # An lhs edge touching an absent lhs node can never be realized.
    if not is_compatible(p.lhs):
        return
    lhs = list(set_bits(p.lhs.nodes.bits))
    edges, nihil = p.lhs.edges, p.nihilation

    def links(m: BoolMatrix, k: int) -> list[tuple[int, list[int]]]:
        """(j, masks) for each lhs node j < k linked to k in m: k's host is in masks[j's host]."""
        u = lhs[k]
        return [(j, inn) for j in range(k) if m[u, lhs[j]]] + [
            (j, out) for j in range(k) if m[lhs[j], u]
        ]

    room, must, mustnt = [], [], []
    for k, u in enumerate(lhs):
        free = g.nodes.bits
        if edges[u, u]:
            free &= loops
        if check_nihil and nihil[u, u]:
            free &= ~loops
        if not free:
            # No host node can take u (say, an lhs self-loop on a loop-free host).
            return
        room.append(free)
        must.append(links(edges, k))
        mustnt.append(links(nihil, k) if check_nihil else [])
    # The look-ahead of node k: for each later node w linked to k whose candidates
    # the nodes before k narrow, (w's room, those links, reach), where k's host
    # must lie in reach[c] for some candidate c of w.
    ahead = [[] for _ in lhs]
    for w, links_w in enumerate(must):
        for k, masks in links_w:
            placed = [(j, other) for j, other in links_w if j < k]
            if placed:
                ahead[k].append((room[w], placed, out if masks is inn else inn))

    def candidates(k: int, hosts: list[int], used: int) -> int:
        free = room[k] & ~used
        for j, masks in must[k]:
            free &= masks[hosts[j]]
        for j, masks in mustnt[k]:
            free &= ~masks[hosts[j]]
        for w_room, placed, reach in ahead[k]:
            if not free:
                break
            later = w_room & ~used
            for j, masks in placed:
                later &= masks[hosts[j]]
            near = 0
            for c in set_bits(later):
                near |= reach[c]
            free &= near
        return free

    if not lhs:
        yield ()
        return
    # Depth-first on explicit state: todo[k] holds node k's untried candidates.
    last = len(lhs) - 1
    hosts, todo = [0] * len(lhs), [0] * len(lhs)
    k, used = 0, 0
    todo[0] = candidates(0, hosts, used)
    while True:
        rest = todo[k]
        if rest:
            low = rest & -rest
            todo[k] = rest ^ low
            hosts[k] = low.bit_length() - 1
            if k == last:
                yield tuple(hosts)
            else:
                used |= low
                k += 1
                todo[k] = candidates(k, hosts, used)
        elif k:
            k -= 1
            used ^= 1 << hosts[k]
        else:
            return


def _matches(p: Production, g: Digraph, found: Iterable[tuple[int, ...]]) -> Iterator[Match]:
    """The Match of each tuple of host indices in ``found``."""
    rule_labels, host_labels = p.lhs.nodes.labels(), g.universe.labels
    for hosts in found:
        yield Match(tuple(zip(rule_labels, map(host_labels.__getitem__, hosts))))


def find_matches(p: Production, g: Digraph) -> list[Match]:
    """All injective matches of p's lhs into g, in match order.

    Match order is lexicographic in the host indices taken in rule-universe
    order; the search yields matches in it (see the module docstring).
    """
    return list(_matches(p, g, _embeddings(p, g)))


def _validate_match(p: Production, g: Digraph, m: Match) -> tuple[int, ...]:
    """The host indices of a valid match's lhs nodes, in rule-universe order."""
    mapping = m.mapping()
    # The rule labels of the pairs, not of the mapping, which keeps one pair per label.
    if sorted(a for a, _ in m.pairs) != sorted(p.lhs.nodes.labels()):
        raise MatchError("match must cover exactly the lhs nodes")
    if len(set(mapping.values())) != len(mapping):
        raise MatchError("match must be injective")
    for target in mapping.values():
        if target not in g.universe or not g.nodes.get(target):
            raise MatchError(f"host node {target!r} is not present")
    image = sorted((p.universe.index(a), g.universe.index(b)) for a, b in mapping.items())
    # The first violated lhs or forbidden cell, row by row, is named.
    for a, ha in image:
        for b, hb in image:
            edge = g.edges[ha, hb]
            missing = p.lhs.edges[a, b] and not edge
            if missing or p.nihilation[a, b] and edge:
                cell = f"{p.universe.labels[a]}->{p.universe.labels[b]}"
                at = f"{g.universe.labels[ha]}->{g.universe.labels[hb]}"
                raise MatchError(f"missing lhs edge {cell} at {at}" if missing
                                 else f"forbidden edge {cell} present at {at}")
    return tuple(h for _, h in image)


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
    hosts = _validate_match(p, g, m)
    return _plan(p, g.universe, step)(g)(hosts)[0]


def _plan(p: Production, u: NodeUniverse, step: int):
    """p's rewrite at step ``step`` of any host over ``u``, as ``plan(g, masks)(hosts, carry)``.

    Built once for every host over ``u``: the fresh labels and their universe,
    and the rule's edits, each end of an edited cell named by its slot in the
    lhs nodes followed by the added nodes.  ``plan`` re-strides a host g's
    edge bits to the new width, from its neighbour masks (see ``_cut``) if
    given.  ``rewrite`` maps a match's lhs host indices, in rule-universe
    order, to the new host and, if ``carry``, its masks edited from ``masks``.
    """
    n, rule = p.universe.size, p.universe.labels
    added = list(set_bits(p.added_nodes.bits))
    slot = {i: s for s, i in enumerate(chain(set_bits(p.lhs.nodes.bits), added))}
    cuts, puts = [], []  # (slot, slot) of each cell the rule deletes, and of each it adds
    for edges, listed in ((p.deleted_edges, cuts), (p.added_edges, puts)):
        for cell in set_bits(edges.bits):
            i, j = divmod(cell, n)
            if i not in slot or j not in slot:
                raise ValueError(f"unmapped label carries content: edge {rule[i]!r}->{rule[j]!r}")
            listed.append((slot[i], slot[j]))
    deleted = [slot[i] for i in set_bits(p.deleted_nodes.bits)]
    # The host the walker searches is dangling-free, so a new host can dangle
    # only where the rule adds an edge at a node it deletes.
    may_dangle = any(s in deleted or t in deleted for s, t in puts)
    # Labels of distinct rule nodes differ before the last "#", so only host labels clash.
    fresh = [fresh_label(p, rule[i], step, u) for i in added]
    # A rule that adds no node keeps the host's universe and bits; each new node gets a zero row.
    universe = u.extended(fresh) if fresh else u
    w = universe.size
    born_at = tuple(range(u.size, w))
    born = universe.vector_full ^ u.vector_full
    # A deleted node h loses row h (row << h * w) and column h (column << h), where
    # column has bit i·w for each row i, built once per universe.
    row = universe.vector_full
    column = universe.row_starts if deleted else 0
    pad = [0] * len(born_at)

    def plan(g: Digraph, masks=None):
        if fresh:
            rows = masks[0] if masks else g.edges.row_masks()
            bits = BoolMatrix.from_row_masks(universe, rows).bits
        else:
            bits = g.edges.bits
        nodes = g.nodes.bits
        # Without a deleted node, every host this rewrite builds has the same nodes.
        kept = None if deleted else BoolVector(universe, nodes | born)

        def rewrite(hosts: tuple[int, ...], carry: bool = False):
            at = hosts + born_at
            gone = cut = put = 0
            for s in deleted:
                h = at[s]
                gone |= 1 << h
                cut |= row << h * w | column << h
            for s, t in cuts:
                cut |= 1 << at[s] * w + at[t]
            for s, t in puts:
                put |= 1 << at[s] * w + at[t]
            child = Digraph(
                BoolMatrix(universe, bits & ~cut | put),
                BoolVector(universe, nodes & ~gone | born) if kept is None else kept,
            )
            if not carry:
                return child, None
            # The same edits on the masks: a deleted node leaves its neighbours' masks.  Its
            # self-loop is forbidden unless the rule deletes it, so the cuts clear it.
            out, inn, loops = masks[0] + pad, masks[1] + pad, masks[2]
            for s in deleted:
                h = at[s]
                keep = ~(1 << h)
                for j in set_bits(out[h]):
                    inn[j] &= keep
                for i in set_bits(inn[h]):
                    out[i] &= keep
                out[h] = inn[h] = 0
            for s, t in cuts:
                i, j = at[s], at[t]
                out[i] &= ~(1 << j)
                inn[j] &= ~(1 << i)
                if i == j:
                    loops &= ~(1 << i)
            for s, t in puts:
                i, j = at[s], at[t]
                out[i] |= 1 << j
                inn[j] |= 1 << i
                if i == j:
                    loops |= 1 << i
            return child, (out, inn, loops, may_dangle)

        return rewrite

    return plan


@dataclass(frozen=True, slots=True, init=False)
class DerivationStep:
    production: str
    match: Match
    input_id: str
    output_id: str

    def __init__(self, production: str, match: Match, input_id: str, output_id: str) -> None:
        _set_production(self, production)
        _set_match(self, match)
        _set_input_id(self, input_id)
        _set_output_id(self, output_id)


_set_production, _set_match = DerivationStep.production.__set__, DerivationStep.match.__set__
_set_input_id, _set_output_id = DerivationStep.input_id.__set__, DerivationStep.output_id.__set__


@dataclass(frozen=True, slots=True, init=False)
class DerivationTrace:
    steps: tuple[DerivationStep, ...]
    graphs: tuple[Digraph, ...]

    def __init__(self, steps: tuple[DerivationStep, ...], graphs: tuple[Digraph, ...]) -> None:
        _set_steps(self, steps)
        _set_graphs(self, graphs)

    @property
    def result(self) -> Digraph:
        return self.graphs[-1]


_set_steps, _set_graphs = DerivationTrace.steps.__set__, DerivationTrace.graphs.__set__


# Selector of a derive_all step: every match, in match order.
_EVERY = object()


def _select(p: Production, g: Digraph, masks, selector, step: int) -> tuple[int, ...]:
    """The host indices of the match that ``selector`` picks, searched no further than needed.

    ``masks`` are g's neighbour masks (see ``_cut``).
    """
    found = _embeddings(p, g, masks)
    first = next(found, None)
    if first is None:
        if next(_embeddings(p, g, masks, check_nihil=False), None) is not None:
            raise DerivationError(
                step, p.name, "m_K", "no match: every lhs embedding hits a forbidden edge"
            )
        raise DerivationError(step, p.name, "m_L", "no match: lhs cannot be embedded")
    if selector == "first":
        return first
    if isinstance(selector, int):
        for index, hosts in enumerate(chain([first], found)):
            if index == selector:
                return hosts
        raise DerivationError(
            step, p.name, "selector",
            f"match index {selector} out of range ({index + 1} matches)",
        )
    if isinstance(selector, dict):
        selector = Match(tuple(selector.items()))
    if not isinstance(selector, Match):
        raise DerivationError(step, p.name, "selector", f"bad selector {selector!r}")
    try:
        return _validate_match(p, g, selector)
    except (MatchError, TypeError):  # TypeError: a label that is not a string
        raise DerivationError(step, p.name, "selector", "requested map is not a valid match")


def _walk(g: Digraph, steps) -> Iterator[DerivationTrace]:
    """Every derivation along (production, selector) steps, in match order.

    A selector picks one match (see ``_select``) and ``_EVERY`` each; the
    host is rewritten at the host indices the search found, unchecked.
    The walk is depth first on a stack, so long sequences need no recursion;
    the last step's traces are yielded as they are built, not pushed.  Each
    entry carries the neighbour masks of its last graph: g's are cut from
    its bits, every other host's are its parent's, edited by the step that
    built it.
    """
    if not steps:
        yield DerivationTrace((), (g,))
        return
    stack = [((), (g,), None)]
    plans = [(None, None)] * len(steps)  # the (host universe, plan) of each step
    last = len(steps) - 1
    while stack:
        trail, graphs, masks = stack.pop()
        k = len(trail)
        (p, selector), host = steps[k], graphs[-1]
        masks = masks or _cut(host)
        if selector is _EVERY:
            found = list(_embeddings(p, host, masks))
        else:
            found = [_select(p, host, masks, selector, k + 1)]
        # A host without a match builds no plan, so its rule's errors do not show.
        if not found:
            continue
        if plans[k][0] is not host.universe:
            plans[k] = host.universe, _plan(p, host.universe, k + 1)
        rewrite = plans[k][1](host, masks)
        carry = k < last
        if carry:
            found.reverse()  # popped in match order
        ids = f"g{k}", f"g{k + 1}"
        for hosts, m in zip(found, _matches(p, host, found)):
            step = DerivationStep(p.name, m, *ids)
            child, child_masks = rewrite(hosts, carry)
            if carry:
                stack.append((trail + (step,), graphs + (child,), child_masks))
            else:
                yield DerivationTrace(trail + (step,), graphs + (child,))


def derive(g: Digraph, steps) -> DerivationTrace:
    """Fold direct derivations left to right.

    ``steps`` is a list of (production, selector) with selector one of
    "first", an integer index into the deterministic match list, an explicit
    Match, or a plain rule-label -> host-label dict.  The first step without
    a match aborts with the failed morphism named: "m_L" when the lhs cannot
    be embedded at all, "m_K" when every embedding hits a forbidden edge.
    """
    return next(_walk(g, list(steps)))


def derivations(g: Digraph, productions) -> Iterator[DerivationTrace]:
    """Every complete derivation trace over all per-step match choices, in match order, lazily.

    Consecutive traces share the steps and graphs of their common prefix, as objects.
    """
    return _walk(g, [(p, _EVERY) for p in productions])


def derive_all(g: Digraph, productions) -> list[DerivationTrace]:
    """Every complete derivation trace over all per-step match choices."""
    return list(derivations(g, productions))
