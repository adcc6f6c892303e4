"""Sequential analysis of completed rule sequences.

Sequences are stored in application order (index 0 applies first); the
closed-form analyses index rules by 1-based position, so position 1 is the
first rule applied.  All rules must already be completed to one shared
universe, i.e. node identifications across rules have been decided.

The analyses: coherence (no rule disturbs a later one), the initial digraph
(smallest host firing the sequence, plus the forbidden edges), the image of
the sequence, sequence compatibility, and G-congruence against the
advance/delay permutations.

Ints inside, wrappers on return: an analysis reads each rule part's ``.bits``
once, complements against the universe's full masks and combines ints only;
it wraps the term, witness masks and extras it returns.  A digraph dangles
where its edges leave the ``block_bits`` of its nodes.  ``stepwise_image``
folds on wrappers, as a reference.
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
    NodeUniverse,
    UniverseMismatchError,
    block_bits,
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


def _scan(a: list[int], b: list[int], start: int) -> list[int]:
    """Every Δ(1, t) of a separable family f(x, y) = A(x) & B(y).

    ``a`` and ``b`` hold A and B per 1-based rule position: A(x) = a[x - 1].

    Entry t of the result, for t = 0..len(a), is Δ(1, t) with Δ(1, 0) =
    ``start``, by the recurrence Δ(1, t) = A(t) & (B(t) | Δ(1, t - 1)).
    A ``start`` other than zero adds the AND of every A(x) with it.
    """
    out = [start]
    for ax, by in zip(a, b):
        out.append(ax & (by | out[-1]))
    return out


def _rscan(a: list[int], b: list[int]) -> list[int]:
    """Every ∇(t, n) of the same family: entry i is ∇(i + 1, n), entry n zero.

    ∇(t, n) = A(t) & (B(t) | ∇(t + 1, n)) is the recurrence of ``_scan``
    run over the reversed factor lists.
    """
    return _scan(a[::-1], b[::-1], 0)[::-1]


def _lscan(a: list[int], b: list[int]) -> list[int]:
    """Every ∇(1, m) of the same family: entry m is ∇(1, m), entry 0 zero.

    ∇(1, m) = ∇(1, m - 1) | (A(1) & ... & A(m)) & B(m): one forward pass with a
    running AND of the A(x).
    """
    return list(accumulate(map(and_, accumulate(a, and_), b), or_, initial=0))


@dataclass(frozen=True)
class AnalysisReport:
    """An analysis's verdict, its defect term and the cells behind it.

    ``witnesses`` holds ``(part, position, cells)`` entries: ``cells`` is the
    ``BoolMatrix`` of edges (or ``BoolVector`` of nodes) that rule position
    ``position`` flags in the term's certainty (``"+"``) or nihil (``"-"``)
    part.  Only nonzero masks are kept, ordered by position, then ``+`` edges,
    ``-`` edges, ``+`` nodes.
    """

    ok: bool
    term: ComplexTerm
    witnesses: tuple[tuple[str, int, BoolMatrix | BoolVector], ...] = ()
    notes: tuple[str, ...] = ()
    extras: tuple[tuple[str, BoolMatrix], ...] = ()


def _flagged(u: NodeUniverse, entries) -> tuple[tuple[str, int, BoolMatrix | BoolVector], ...]:
    """Each ``(part, position, kind, bits)`` entry that flags a cell, wrapped as ``kind``."""
    return tuple((part, position, kind(u, bits)) for part, position, kind, bits in entries if bits)


def _term(u: NodeUniverse, edges: int, nihil: int, nodes: int) -> ComplexTerm:
    """The term of packed certainty ``edges``, ``nihil`` edges and certainty ``nodes``."""
    return ComplexTerm.of(BoolMatrix(u, edges), BoolMatrix(u, nihil), BoolVector(u, nodes))


def coherence(s: RuleSequence) -> AnalysisReport:
    """Coherence defect term of a sequence; zero means coherent.

    The certainty part collects double additions and uses of deleted
    elements, for edges and for nodes alike; the nihil part collects
    double deletions and additions of forbidden edges (the nihilation
    carries no nodes).  Witnesses name the rule position whose needs are
    disturbed, with the cells it flags in each part.
    """
    u = s.universe
    full, full_v = u.matrix_full, u.vector_full
    del_e = [p.deleted_edges.bits for p in s.rules]
    add_e = [p.added_edges.bits for p in s.rules]
    del_v = [p.deleted_nodes.bits for p in s.rules]
    add_v = [p.added_nodes.bits for p in s.rules]
    kept_e = [full ^ m for m in del_e]
    unadded_e = [full ^ m for m in add_e]
    # Entry j of a ∇ scan is ∇(j + 1, n); entry j - 1 of a Δ scan is Δ(1, j - 1).
    later_plus = _rscan(kept_e, add_e)
    earlier_plus = _scan(unadded_e, del_e, 0)
    later_minus = _rscan(unadded_e, del_e)
    earlier_minus = _scan(kept_e, add_e, 0)
    later_nodes = _rscan([full_v ^ v for v in del_v], add_v)
    earlier_nodes = _scan([full_v ^ v for v in add_v], del_v, 0)
    c_plus = c_minus = c_plus_nodes = 0
    witnesses = []
    for j, p in enumerate(s.rules, start=1):
        plus_j = p.rhs.edges.bits & later_plus[j] | p.lhs.edges.bits & earlier_plus[j - 1]
        minus_j = p.rhs_nihilation.bits & later_minus[j] | p.nihilation.bits & earlier_minus[j - 1]
        plus_nodes_j = p.rhs.nodes.bits & later_nodes[j] | p.lhs.nodes.bits & earlier_nodes[j - 1]
        witnesses += [
            ("+", j, BoolMatrix, plus_j),
            ("-", j, BoolMatrix, minus_j),
            ("+", j, BoolVector, plus_nodes_j),
        ]
        c_plus |= plus_j
        c_minus |= minus_j
        c_plus_nodes |= plus_nodes_j
    term = _term(u, c_plus, c_minus, c_plus_nodes)
    return AnalysisReport(term.is_zero(), term, _flagged(u, witnesses))


def t_matrix(p: Production) -> BoolMatrix:
    """Edges made newly available by a rule's node additions.

    Cells incident to an added node, minus cells incident to a deleted one.
    """
    u = p.universe
    unadded = block_bits(u, u.vector_full ^ p.added_nodes.bits)
    undeleted = block_bits(u, u.vector_full ^ p.deleted_nodes.bits)
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
    return _term(s.universe, *_prefix_digraphs(s)[-1])


def _prefix_digraphs(s: RuleSequence) -> list[tuple[int, int, int]]:
    """Packed certainty edges, nihil edges and certainty nodes of the initial
    digraph of every prefix of s, from one pass: entry m is prefix m's."""
    full, full_v = s.universe.matrix_full, s.universe.vector_full
    rules = s.rules
    added, added_v = [p.added_edges.bits for p in rules], [p.added_nodes.bits for p in rules]
    cert_edges = _lscan([full ^ x for x in added], [p.lhs.edges.bits for p in rules])
    cert_nodes = _lscan([full_v ^ x for x in added_v], [p.lhs.nodes.bits for p in rules])
    nihil_edges = _lscan(
        [full ^ (p.deleted_edges.bits | t_matrix(p).bits) for p in rules],
        [p.nihilation.bits for p in rules],
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


def _images(s: RuleSequence, edges: int, nihil: int, nodes: int) -> list[tuple[int, int, int]]:
    """The start's packed certainty ``edges``, ``nihil`` edges and certainty ``nodes``
    rewritten by each prefix of s, from three Δ scans: entry t is after rule t.

    Entry t is A(t) & B(t) | A(t) & entry t - 1.  A rule's added and deleted
    cells are disjoint, so A(t) & B(t) is added(t) for the certainty parts
    (A = ¬deleted, B = added) and deleted(t) for the nihil edges (A = ¬added,
    B = deleted): entry t is ``rewrite_term`` of rule t on entry t - 1.
    """
    full, full_v = s.universe.matrix_full, s.universe.vector_full
    rules = s.rules
    deleted, added = [p.deleted_edges.bits for p in rules], [p.added_edges.bits for p in rules]
    deleted_v, added_v = [p.deleted_nodes.bits for p in rules], [p.added_nodes.bits for p in rules]
    cert_edges = _scan([full ^ x for x in deleted], added, edges)
    nihil_edges = _scan([full ^ x for x in added], deleted, nihil)
    cert_nodes = _scan([full_v ^ x for x in deleted_v], added_v, nodes)
    return list(zip(cert_edges, nihil_edges, cert_nodes))


def image_of_sequence(s: RuleSequence) -> ComplexTerm:
    """Closed form of the sequence applied to its own initial digraph."""
    return _term(s.universe, *_images(s, *_prefix_digraphs(s)[-1])[-1])


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

    u = s.universe
    prefixes = _prefix_digraphs(s)
    clashes = [
        (u.matrix_full ^ (p.deleted_edges.bits | p.added_edges.bits)) & cert_edges & nihil_edges
        for p, (cert_edges, nihil_edges, _) in zip(s.rules, prefixes[1:])
    ]
    witnesses = _flagged(u, (("+", m, BoolMatrix, c) for m, c in enumerate(clashes, start=1)))
    violations = reduce(or_, clashes)
    # Each AND term of the literal ∇(1, n) over the clashes has the first clash as
    # a factor, and its y = 1 term is that clash alone, so the OR is the first clash.
    literal = BoolMatrix(u, clashes[0])

    for m, (cert_edges, _, cert_nodes) in enumerate(prefixes[1:], start=1):
        if cert_edges & ~block_bits(u, cert_nodes):  # an edge touching an absent node
            notes.append(f"prefix {m} smallest host has dangling edges")
    for m, (cert_edges, _, cert_nodes) in enumerate(_images(s, *prefixes[-1])[1:], start=1):
        if cert_edges & ~block_bits(u, cert_nodes):
            notes.append(f"image after rule {m} has dangling edges")

    # Every note is an incompatible rule or a dangling edge.
    ok = not violations and not notes
    term = _term(u, violations, 0, 0)
    return AnalysisReport(ok, term, witnesses, tuple(notes), (("literal", literal),))


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
    full = u.matrix_full

    if mode == "advance":
        pivot_pos = n
        rest = s.rules[:-1]
    elif mode == "delay":
        pivot_pos = 1
        rest = s.rules[1:]
    else:
        raise ValueError(f"unknown mode {mode!r}; expected advance or delay")
    pivot = s.rule(pivot_pos)

    plus = pivot.lhs.edges.bits & _rscan(
        [full ^ p.deleted_edges.bits for p in rest],
        [p.nihilation.bits & (p.added_edges.bits | pivot.deleted_edges.bits) for p in rest],
    )[0]
    minus = pivot.nihilation.bits & _rscan(
        [full ^ p.added_edges.bits for p in rest],
        [p.lhs.edges.bits & (p.deleted_edges.bits | pivot.added_edges.bits) for p in rest],
    )[0]
    witnesses = [("+", pivot_pos, BoolMatrix, plus), ("-", pivot_pos, BoolMatrix, minus)]
    return AnalysisReport(not (plus or minus), _term(u, plus, minus, 0), _flagged(u, witnesses))


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
