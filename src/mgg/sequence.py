"""Sequential analysis of completed rule sequences.

Sequences are stored in application order (index 0 applies first); the
closed-form analyses index rules by 1-based position, so position 1 is the
first rule applied.  All rules must already be completed to one shared
universe, i.e. node identifications across rules have been decided.

The analyses: coherence (no rule disturbs a later one), the initial digraph
(smallest host firing the sequence, plus the forbidden edges), the image of
the sequence, sequence compatibility, and G-congruence against the
advance/delay permutations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, or_

from .boolmat import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    UniverseMismatchError,
    block_bits,
    is_compatible,
)
from .mcl import ComplexTerm
from .production import Production


class IncoherentSequenceWarning(UserWarning):
    """Initial digraph requested for a sequence that is not coherent."""


@dataclass(frozen=True)
class RuleSequence:
    """Rules over one universe, stored in application order."""

    rules: tuple[Production, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("a sequence needs at least one rule")
        u = self.rules[0].universe
        if any(p.universe != u for p in self.rules):
            raise UniverseMismatchError("sequence rules must share one universe")

    @classmethod
    def of(cls, *rules: Production) -> "RuleSequence":
        return cls(tuple(rules))

    @property
    def universe(self) -> NodeUniverse:
        return self.rules[0].universe

    def __len__(self) -> int:
        return len(self.rules)

    def rule(self, position: int) -> Production:
        """Rule at 1-based application position."""
        return self.rules[position - 1]

    def prefix(self, length: int) -> "RuleSequence":
        return RuleSequence(self.rules[:length])

    def composition_order(self) -> str:
        """Right-to-left rendering, last-applied first (composition style)."""
        return ";".join(p.name for p in reversed(self.rules))

    def advanced(self) -> "RuleSequence":
        """Permutation applying the last rule first."""
        return RuleSequence((self.rules[-1],) + self.rules[:-1])

    def delayed(self) -> "RuleSequence":
        """Permutation applying the first rule last."""
        return RuleSequence(self.rules[1:] + (self.rules[0],))


def _scan(a: list, b: list, start):
    """Every Δ(1, t) of a separable family f(x, y) = A(x) & B(y).

    ``a`` and ``b`` hold A and B per 1-based rule position: A(x) = a[x - 1].

    Entry t of the result, for t = 0..len(a), is Δ(1, t) with Δ(1, 0) =
    ``start``, by the recurrence Δ(1, t) = A(t) & (B(t) | Δ(1, t - 1)).
    A ``start`` other than zero adds the AND of every A(x) with it.

    Like ``_rscan`` and ``_lscan``, it runs on the packed bits and wraps once
    per entry; every factor must be in ``start``'s universe.
    """
    out = [start.bits]
    for ax, by in zip(a, b):
        out.append(ax.bits & (by.bits | out[-1]))
    return [type(start)(start.universe, bits) for bits in out]


def _rscan(a: list, b: list, zero):
    """Every ∇(t, n) of the same family: entry i is ∇(i + 1, n), entry n zero.

    ∇(t, n) = A(t) & (B(t) | ∇(t + 1, n)) is the recurrence of ``_scan``
    run over the reversed factor lists.
    """
    return _scan(a[::-1], b[::-1], zero)[::-1]


def _lscan(a: list, b: list, zero):
    """Every ∇(1, m) of the same family: entry m is ∇(1, m), entry 0 zero.

    ∇(1, m) = ∇(1, m - 1) | (A(1) & ... & A(m)) & B(m): one forward pass with a
    running AND of the A(x).
    """
    a_bits = accumulate([x.bits for x in a], and_)
    nabla_bits = accumulate(map(and_, a_bits, [y.bits for y in b]), or_, initial=zero.bits)
    return [type(zero)(zero.universe, bits) for bits in nabla_bits]


@dataclass(frozen=True)
class AnalysisReport:
    """An analysis's verdict, its defect term and the cells behind it.

    ``witnesses`` holds ``(part, position, cells)`` entries: ``cells`` is the
    ``BoolMatrix`` of edges (or ``BoolVector`` of nodes) that rule position
    ``position`` flags in the term's certainty (``"+"``) or nihil (``"-"``)
    part.  Only nonzero masks are kept, ordered by position, then ``+`` edges,
    ``-`` edges, ``+`` nodes.
    """

    kind: str
    ok: bool
    term: ComplexTerm
    witnesses: tuple[tuple[str, int, BoolMatrix | BoolVector], ...] = ()
    notes: tuple[str, ...] = ()
    extras: tuple[tuple[str, BoolMatrix], ...] = ()


def _flagged(entries) -> tuple[tuple[str, int, BoolMatrix | BoolVector], ...]:
    """The witness entries whose mask flags at least one cell."""
    return tuple(entry for entry in entries if not entry[2].is_zero())


def coherence(s: RuleSequence) -> AnalysisReport:
    """Coherence defect term of a sequence; zero means coherent.

    The certainty part collects double additions and uses of deleted
    elements, for edges and for nodes alike; the nihil part collects
    double deletions and additions of forbidden edges (the nihilation
    carries no nodes).  Witnesses name the rule position whose needs are
    disturbed, with the cells it flags in each part.
    """
    u = s.universe
    zero = BoolMatrix.zeros(u)
    zero_v = BoolVector.zeros(u)
    del_e = [p.deleted_edges for p in s.rules]
    add_e = [p.added_edges for p in s.rules]
    del_v = [p.deleted_nodes for p in s.rules]
    add_v = [p.added_nodes for p in s.rules]
    kept_e = [~m for m in del_e]
    unadded_e = [~m for m in add_e]
    # Entry j of a ∇ scan is ∇(j + 1, n); entry j - 1 of a Δ scan is Δ(1, j - 1).
    later_plus = _rscan(kept_e, add_e, zero)
    earlier_plus = _scan(unadded_e, del_e, zero)
    later_minus = _rscan(unadded_e, del_e, zero)
    earlier_minus = _scan(kept_e, add_e, zero)
    later_nodes = _rscan([~v for v in del_v], add_v, zero_v)
    earlier_nodes = _scan([~v for v in add_v], del_v, zero_v)
    c_plus = zero
    c_minus = zero
    c_plus_nodes = zero_v
    witnesses = []
    for j, pj in enumerate(s.rules, start=1):
        plus_j = (pj.rhs.edges & later_plus[j]) | (pj.lhs.edges & earlier_plus[j - 1])
        minus_j = (pj.rhs_nihilation & later_minus[j]) | (pj.nihilation & earlier_minus[j - 1])
        plus_nodes_j = (pj.rhs.nodes & later_nodes[j]) | (pj.lhs.nodes & earlier_nodes[j - 1])
        witnesses += [("+", j, plus_j), ("-", j, minus_j), ("+", j, plus_nodes_j)]
        c_plus = c_plus | plus_j
        c_minus = c_minus | minus_j
        c_plus_nodes = c_plus_nodes | plus_nodes_j
    term = ComplexTerm.of(c_plus, c_minus, c_plus_nodes)
    return AnalysisReport("coherence", term.is_zero(), term, _flagged(witnesses))


def t_matrix(p: Production) -> BoolMatrix:
    """Edges made newly available by a rule's node additions.

    Cells incident to an added node, minus cells incident to a deleted one.
    """
    u = p.universe
    unadded = block_bits(u.size, u.vector_full ^ p.added_nodes.bits)
    undeleted = block_bits(u.size, u.vector_full ^ p.deleted_nodes.bits)
    return BoolMatrix(u, undeleted & ~unadded)


def initial_digraph(s: RuleSequence, check: bool = True) -> ComplexTerm:
    """Smallest host (certainty) and forbidden edges (nihil) firing s.

    Meaningful for coherent sequences; an IncoherentSequenceWarning is
    emitted otherwise and the closed form is still returned.  ``check=False``
    skips the coherence pass for callers that already ran it.
    """
    if check and not coherence(s).ok:
        warnings.warn(
            f"initial digraph of an incoherent sequence [{s.composition_order()}]",
            IncoherentSequenceWarning,
            stacklevel=2,
        )
    return ComplexTerm.of(*_prefix_digraphs(s)[-1])


def _prefix_digraphs(s: RuleSequence) -> list[tuple[BoolMatrix, BoolMatrix, BoolVector]]:
    """Certainty edges, nihil edges and certainty nodes of the initial digraph
    of every prefix of s, from one pass: entry m is prefix m's."""
    u = s.universe
    zero_e = BoolMatrix.zeros(u)
    zero_v = BoolVector.zeros(u)
    rules = s.rules
    cert_edges = _lscan([~p.added_edges for p in rules], [p.lhs.edges for p in rules], zero_e)
    cert_nodes = _lscan([~p.added_nodes for p in rules], [p.lhs.nodes for p in rules], zero_v)
    full = u.matrix_full
    nihil_edges = _lscan(
        [BoolMatrix(u, full ^ (p.deleted_edges.bits | t_matrix(p).bits)) for p in rules],
        [p.nihilation for p in rules],
        zero_e,
    )
    return list(zip(cert_edges, nihil_edges, cert_nodes))


def rewrite_term(p: Production, z: ComplexTerm) -> ComplexTerm:
    """Action of a rule on a host term: rewrite certainty, evolve nihil."""
    return ComplexTerm(
        p.added_edges | (~p.deleted_edges & z.cert_edges),
        p.added_nodes | (~p.deleted_nodes & z.cert_nodes),
        p.deleted_edges | (~p.added_edges & z.nihil_edges),
        z.nihil_nodes,
        z.ambient,
    )


def stepwise_image(s: RuleSequence, start: ComplexTerm) -> ComplexTerm:
    """Fold the rules of s over the host term ``start``."""
    for p in s.rules:
        start = rewrite_term(p, start)
    return start


def _images(s: RuleSequence, m: ComplexTerm) -> list[tuple[BoolMatrix, BoolMatrix, BoolVector]]:
    """Certainty edges, nihil edges and certainty nodes of m rewritten by each
    prefix of s, from three Δ scans seeded with m: entry t is after rule t.

    Entry t is A(t) & B(t) | A(t) & entry t - 1.  A rule's added and deleted
    cells are disjoint, so A(t) & B(t) is added(t) for the certainty parts
    (A = ¬deleted, B = added) and deleted(t) for the nihil edges (A = ¬added,
    B = deleted): entry t is ``rewrite_term`` of rule t on entry t - 1.
    """
    rules = s.rules
    deleted, added = [p.deleted_edges for p in rules], [p.added_edges for p in rules]
    cert_edges = _scan([~x for x in deleted], added, m.cert_edges)
    nihil_edges = _scan([~x for x in added], deleted, m.nihil_edges)
    cert_nodes = _scan(
        [~p.deleted_nodes for p in rules], [p.added_nodes for p in rules], m.cert_nodes
    )
    return list(zip(cert_edges, nihil_edges, cert_nodes))


def image_of_sequence(s: RuleSequence) -> ComplexTerm:
    """Closed form of the sequence applied to its own initial digraph."""
    return ComplexTerm.of(*_images(s, initial_digraph(s, check=False))[-1])


def sequence_compatibility(s: RuleSequence) -> AnalysisReport:
    """The sequence only ever manipulates simple digraphs.

    Two families of defects are collected.  First, for every prefix length
    m, cells simultaneously required and forbidden by the prefix's initial
    digraph and untouched by rule m; these are ORed into the violation
    matrix (the literal one-term reading of that check, whose summand
    depends only on its first index, is reported as an extra).  Second,
    dangling edges: every prefix's smallest host and every intermediate
    image of the full initial digraph must be a proper digraph.  The analysis is
    O(L): one forward pass over per-rule factor lists gives every prefix's
    initial digraph, and the image's Δ scans (``_images``) every image.
    """
    notes: list[str] = []
    incompatible_rules = [p.name for p in s.rules if not p.compatible]
    if incompatible_rules:
        notes.append("incompatible rules: " + " ".join(incompatible_rules))

    prefixes = _prefix_digraphs(s)
    clashes = [
        ~p.deleted_edges & ~p.added_edges & cert_edges & nihil_edges
        for p, (cert_edges, nihil_edges, _) in zip(s.rules, prefixes[1:])
    ]
    witnesses = _flagged(("+", m, clash) for m, clash in enumerate(clashes, start=1))
    violations = reduce(or_, clashes)
    # Each AND term of the literal ∇(1, n) over the clashes has the first clash as
    # a factor, and its y = 1 term is that clash alone, so the OR is the first clash.
    literal = clashes[0]

    for m, (cert_edges, _, cert_nodes) in enumerate(prefixes[1:], start=1):
        if not is_compatible(Digraph(cert_edges, cert_nodes)):
            notes.append(f"prefix {m} smallest host has dangling edges")
    images = _images(s, ComplexTerm.of(*prefixes[-1]))
    for m, (cert_edges, _, cert_nodes) in enumerate(images[1:], start=1):
        if not is_compatible(Digraph(cert_edges, cert_nodes)):
            notes.append(f"image after rule {m} has dangling edges")

    # Every note is an incompatible rule or a dangling edge.
    ok = violations.is_zero() and not notes
    term = ComplexTerm.of(violations)
    return AnalysisReport(
        "compatibility", ok, term, witnesses, tuple(notes), (("literal", literal),)
    )


def g_congruence(s: RuleSequence, mode: str = "advance") -> AnalysisReport:
    """Sufficient condition for s and its permutation to share initial digraphs.

    ``advance`` compares s with the permutation applying the last rule
    first; ``delay`` with the one applying the first rule last.  A zero
    term certifies equal initial digraphs (certainty and nihil); a nonzero
    term names the obstructing cells.
    """
    n = len(s)
    if n < 2:
        raise ValueError("congruence needs at least two rules")
    u = s.universe
    zero = BoolMatrix.zeros(u)

    if mode == "advance":
        pivot_pos = n
        rest = s.rules[:-1]
    elif mode == "delay":
        pivot_pos = 1
        rest = s.rules[1:]
    else:
        raise ValueError(f"unknown mode {mode!r}; expected advance or delay")
    pivot = s.rule(pivot_pos)

    plus = pivot.lhs.edges & _rscan(
        [~p.deleted_edges for p in rest],
        [p.nihilation & (p.added_edges | pivot.deleted_edges) for p in rest],
        zero,
    )[0]
    minus = pivot.nihilation & _rscan(
        [~p.added_edges for p in rest],
        [p.lhs.edges & (p.deleted_edges | pivot.added_edges) for p in rest],
        zero,
    )[0]
    term = ComplexTerm.of(plus, minus)
    witnesses = _flagged([("+", pivot_pos, plus), ("-", pivot_pos, minus)])
    return AnalysisReport(f"congruence-{mode}", term.is_zero(), term, witnesses)


def sequential_independence(s: RuleSequence, perm: str = "advance") -> bool:
    """True iff s and its permutation are interchangeable.

    Requires both orders coherent and compatible and the congruence term
    zero, then verifies (rather than assumes) that both orders rewrite the
    initial digraph to the same image.
    """
    if perm == "advance":
        permuted = s.advanced()
    elif perm == "delay":
        permuted = s.delayed()
    else:
        raise ValueError(f"unsupported permutation {perm!r}; expected advance or delay")

    if not (coherence(s).ok and coherence(permuted).ok):
        return False
    if not (sequence_compatibility(s).ok and sequence_compatibility(permuted).ok):
        return False
    if not g_congruence(s, perm).ok:
        return False
    m = initial_digraph(s, check=False)
    return stepwise_image(s, m).same_parts(stepwise_image(permuted, m))
