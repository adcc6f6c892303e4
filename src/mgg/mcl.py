"""Monotone complex terms over Boolean matrices and their algebra.

A complex term pairs a *certainty* part (elements that must exist) with a
*nihil* part (elements that must not), each split into an edge matrix and a
node vector.  Addition and multiplication are monotone (no negation of whole
terms); conjugation complements both parts inside an explicit ambient node
set, and the dot product ``<z1, z2> = z1 * conj(z2)`` drives production
application.

Terms whose certainty and nihil parts overlap are identified with their
reduction: stripping the common part yields the canonical representative
with disjoint parts (the matrix-algebra members).
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import (
    BoolMatrix,
    BoolVector,
    NodeUniverse,
    UniverseMismatchError,
    bounded_one,
    complement,
    complete_to,
)


@dataclass(frozen=True)
class ComplexTerm:
    cert_edges: BoolMatrix
    cert_nodes: BoolVector
    nihil_edges: BoolMatrix
    nihil_nodes: BoolVector
    ambient: BoolVector

    def __post_init__(self) -> None:
        u = self.cert_edges.universe
        for part in (self.cert_nodes, self.nihil_edges, self.nihil_nodes, self.ambient):
            if part.universe != u:
                raise UniverseMismatchError("term components must share one universe")

    @property
    def universe(self) -> NodeUniverse:
        return self.cert_edges.universe

    @classmethod
    def zero(cls, universe: NodeUniverse) -> "ComplexTerm":
        return cls.of(BoolMatrix.zeros(universe))

    @classmethod
    def of(
        cls,
        cert_edges: BoolMatrix,
        nihil_edges: BoolMatrix | None = None,
        cert_nodes: BoolVector | None = None,
    ) -> "ComplexTerm":
        """Build a term from edge matrices; unset node parts are empty, the ambient every node."""
        u = cert_edges.universe
        if nihil_edges is None:
            nihil_edges = BoolMatrix.zeros(u)
        if cert_nodes is None:
            cert_nodes = BoolVector.zeros(u)
        return cls(cert_edges, cert_nodes, nihil_edges, BoolVector.zeros(u), BoolVector.ones(u))

    def ambient_edges(self) -> BoolMatrix:
        """The all-ones edge block 1_z determined by the ambient node set."""
        return bounded_one(self.ambient)

    def is_zero(self) -> bool:
        return (
            self.cert_edges.is_zero()
            and self.cert_nodes.is_zero()
            and self.nihil_edges.is_zero()
            and self.nihil_nodes.is_zero()
        )

    def in_matrix_algebra(self) -> bool:
        """True iff certainty and nihil parts are disjoint (edges and nodes)."""
        return (self.cert_edges & self.nihil_edges).is_zero() and (
            self.cert_nodes & self.nihil_nodes
        ).is_zero()

    def same_parts(self, other: "ComplexTerm") -> bool:
        """Componentwise equality, ignoring the ambient."""
        return (
            self.cert_edges == other.cert_edges
            and self.cert_nodes == other.cert_nodes
            and self.nihil_edges == other.nihil_edges
            and self.nihil_nodes == other.nihil_nodes
        )


def nil_term(universe: NodeUniverse) -> ComplexTerm:
    """The pure-nihil unit: certainty empty, nihil every edge and node of the universe."""
    every = BoolVector.ones(universe)
    return ComplexTerm(
        BoolMatrix.zeros(universe), BoolVector.zeros(universe), BoolMatrix.ones(universe),
        every, every,
    )


def cadd(z1: ComplexTerm, z2: ComplexTerm) -> ComplexTerm:
    """Componentwise OR of two terms."""
    return ComplexTerm(
        z1.cert_edges | z2.cert_edges,
        z1.cert_nodes | z2.cert_nodes,
        z1.nihil_edges | z2.nihil_edges,
        z1.nihil_nodes | z2.nihil_nodes,
        z1.ambient | z2.ambient,
    )


def cmul(z1: ComplexTerm, z2: ComplexTerm) -> ComplexTerm:
    """Product (a1 a2 v b1 b2) + i (a1 b2 v a2 b1), cell by cell.

    With empty nihil parts this reduces to the plain AND of the certainty
    parts.
    """
    return ComplexTerm(
        (z1.cert_edges & z2.cert_edges) | (z1.nihil_edges & z2.nihil_edges),
        (z1.cert_nodes & z2.cert_nodes) | (z1.nihil_nodes & z2.nihil_nodes),
        (z1.cert_edges & z2.nihil_edges) | (z2.cert_edges & z1.nihil_edges),
        (z1.cert_nodes & z2.nihil_nodes) | (z2.cert_nodes & z1.nihil_nodes),
        z1.ambient | z2.ambient,
    )


def conj(z: ComplexTerm) -> ComplexTerm:
    """Conjugate: parts swapped and complemented inside z's ambient."""
    one_e = z.ambient_edges()
    one_v = z.ambient
    return ComplexTerm(
        complement(z.nihil_edges, one_e),
        complement(z.nihil_nodes, one_v),
        complement(z.cert_edges, one_e),
        complement(z.cert_nodes, one_v),
        z.ambient,
    )


def dot(z1: ComplexTerm, z2: ComplexTerm) -> ComplexTerm:
    """Dot product z1 * conj(z2)."""
    return cmul(z1, conj(z2))


def pmma_normalize(z: ComplexTerm) -> ComplexTerm:
    """Canonical class representative: drop cells set in both parts."""
    common_e = z.cert_edges & z.nihil_edges
    common_v = z.cert_nodes & z.nihil_nodes
    return ComplexTerm(
        z.cert_edges & ~common_e,
        z.cert_nodes & ~common_v,
        z.nihil_edges & ~common_e,
        z.nihil_nodes & ~common_v,
        z.ambient,
    )


def equivalent(z1: ComplexTerm, z2: ComplexTerm) -> bool:
    """Equality modulo a common part in both components."""
    return pmma_normalize(z1).same_parts(pmma_normalize(z2))


def is_orthogonal(z1: ComplexTerm, z2: ComplexTerm) -> bool:
    """True iff the dot product vanishes.

    Equivalently, every cell of z1 (either part) is set in both parts of z2.
    """
    return dot(z1, z2).is_zero()


def is_self_adjoint(z: ComplexTerm) -> bool:
    """True iff the certainty and nihil edges exactly partition the ambient block.

    Equivalent to the norm being the encoding of the full ambient block; the
    fixed points of conjugation read as raw edge terms.
    """
    return (z.cert_edges ^ z.nihil_edges) == z.ambient_edges()


def align_terms(z1: ComplexTerm, z2: ComplexTerm) -> tuple[ComplexTerm, ComplexTerm]:
    """Complete two terms over different universes to their union universe.

    Labels are identified by name; the union keeps z1's order and appends
    z2's new labels.  This is the house convention for mixing terms built
    over different node sets.
    """
    if z1.universe == z2.universe:
        return z1, z2
    merged = z1.universe.extended(
        l for l in z2.universe.labels if l not in z1.universe
    )

    def lift(z: ComplexTerm) -> ComplexTerm:
        return ComplexTerm(
            complete_to(z.cert_edges, merged),
            complete_to(z.cert_nodes, merged),
            complete_to(z.nihil_edges, merged),
            complete_to(z.nihil_nodes, merged),
            complete_to(z.ambient, merged),
        )

    return lift(z1), lift(z2)
