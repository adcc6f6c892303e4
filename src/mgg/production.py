"""Grammar productions in static and dynamic form, and their swap encoding.

A production is stored statically as a left and right hand side and
dynamically as deletion/addition matrices and vectors derived from them.
The nihilation matrix collects the edges whose presence in a host disables
the rule: edges incident to deleted nodes plus edges the rule adds.

The swap operator folds a rule's actions into a self-adjoint complex term:
applying it via the dot product exchanges certainty and nihil entries at
the cells the rule touches and keeps the rest, which reproduces rewriting
``lhs -> rhs`` together with the nihilation evolution in one expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    UniverseMismatchError,
    _Frozen,
    block_bits,
    is_compatible,
)
from .mcl import ComplexTerm, dot


@dataclass(init=False, unsafe_hash=True)
class Production(_Frozen):
    """A rewriting rule: a name and two sides, and the dynamic form they define.

    ``deleted_*``/``added_*`` are the rule's actions; ``nihilation`` is the
    forbidden-edge matrix of the left hand side and ``rhs_nihilation`` its
    evolution to the right hand side.  These six are slots but not fields:
    the constructor derives them from the sides, so equality, hashing,
    ``repr``, ``replace``, copies and pickles go by the name and the sides
    alone, and no rule carries actions its sides contradict.  All components
    live on one universe, and ``~`` complements within it.
    """

    __slots__ = (
        "name", "lhs", "rhs", "deleted_edges", "added_edges", "deleted_nodes", "added_nodes",
        "nihilation", "rhs_nihilation",
    )
    name: str
    lhs: Digraph
    rhs: Digraph

    def __init__(self, name: str, lhs: Digraph, rhs: Digraph) -> None:
        """Derive the dynamic form from the static pair (lhs, rhs).

        The deletion part is whatever the left side has and the right side
        lacks; the addition part the converse.  Any pair of digraphs over a
        shared universe defines a rule; ``compatible`` tells whether its
        application preserves dangling-edge freedom.
        """
        u, rhs_universe = lhs.edges.universe, rhs.edges.universe
        if rhs_universe is not u and rhs_universe != u:
            raise UniverseMismatchError("lhs and rhs must share a universe")
        lhs_edges, rhs_edges = lhs.edges.bits, rhs.edges.bits
        lhs_nodes, rhs_nodes = lhs.nodes.bits, rhs.nodes.bits
        deleted_edges = lhs_edges & ~rhs_edges
        added_edges = rhs_edges & ~lhs_edges
        deleted_nodes = lhs_nodes & ~rhs_nodes
        # Forbidden: edges incident to a deleted node (outside the block of
        # kept nodes) that the rule does not itself delete, plus every edge
        # the rule adds (parallel edges are not allowed in simple digraphs).
        kept_block = block_bits(u, u.vector_full ^ deleted_nodes)
        nihil = added_edges | (u.matrix_full ^ kept_block) & ~deleted_edges
        _set_name(self, name)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_deleted_edges(self, BoolMatrix(u, deleted_edges))
        _set_added_edges(self, BoolMatrix(u, added_edges))
        _set_deleted_nodes(self, BoolVector(u, deleted_nodes))
        _set_added_nodes(self, BoolVector(u, rhs_nodes & ~lhs_nodes))
        _set_nihilation(self, BoolMatrix(u, nihil))
        _set_rhs_nihilation(self, BoolMatrix(u, deleted_edges | nihil & ~added_edges))

    @property
    def universe(self) -> NodeUniverse:
        return self.lhs.universe

    @property
    def compatible(self) -> bool:
        """True iff applying the rule preserves dangling-edge freedom.

        That is no rhs edge in ``rhs_nihilation`` and the rhs a proper digraph; the
        second implies the first: a deleted edge is not in the rhs, and an rhs edge the
        rule does not add is an lhs edge, so it meets ``rhs_nihilation`` only at a
        deleted node, which the rhs lacks.
        """
        return is_compatible(self.rhs)

    @classmethod
    def from_static(cls, name: str, lhs: Digraph, rhs: Digraph) -> "Production":
        """The rule of a static (lhs, rhs) pair: the constructor under the paper's name."""
        return cls(name, lhs, rhs)

    @classmethod
    def identity(cls, name: str, graph: Digraph) -> "Production":
        return cls(name, graph, graph)

    def lhs_term(self) -> ComplexTerm:
        """Left hand side as a complex term: lhs certain, nihilation forbidden.

        The nihil node component stays empty; node bookkeeping is carried by
        the certainty part alone.
        """
        return ComplexTerm.of(self.lhs.edges, self.nihilation, self.lhs.nodes)


_set_name = Production.name.__set__
_set_lhs = Production.lhs.__set__
_set_rhs = Production.rhs.__set__
_set_deleted_edges = Production.deleted_edges.__set__
_set_added_edges = Production.added_edges.__set__
_set_deleted_nodes = Production.deleted_nodes.__set__
_set_added_nodes = Production.added_nodes.__set__
_set_nihilation = Production.nihilation.__set__
_set_rhs_nihilation = Production.rhs_nihilation.__set__


def apply_production(p: Production, x: Digraph) -> Digraph:
    """Pure rewriting formula: added v (not-deleted ^ x), edges and nodes."""
    if x.universe != p.universe:
        raise UniverseMismatchError("operand must be completed to the rule universe")
    return Digraph(
        p.added_edges | (~p.deleted_edges & x.edges),
        p.added_nodes | (~p.deleted_nodes & x.nodes),
    )


@dataclass(frozen=True)
class Swap:
    """Dynamics of a rule up to its left hand side.

    Self-adjoint by construction, so only the nihil part (the touched
    cells) is stored; the certainty part is its complement, and the
    ambient every node.
    """

    nihil_edges: BoolMatrix
    nihil_nodes: BoolVector

    @property
    def universe(self) -> NodeUniverse:
        return self.nihil_edges.universe

    @property
    def term(self) -> ComplexTerm:
        return ComplexTerm(
            ~self.nihil_edges,
            ~self.nihil_nodes,
            self.nihil_edges,
            self.nihil_nodes,
            BoolVector.ones(self.universe),
        )

    def touched_edge_count(self) -> int:
        return self.nihil_edges.count()


def p_operator(p: Production) -> Swap:
    """Collapse a rule to its swap: nihil part = every cell the rule touches."""
    return Swap(p.deleted_edges | p.added_edges, p.deleted_nodes | p.added_nodes)


def apply_swap(w: Swap, z: ComplexTerm) -> ComplexTerm:
    """Dot product of z with the swap term.

    Cells in the swap's nihil part trade places between z's certainty and
    nihil components; cells in its certainty part are kept as they are.
    """
    if w.universe != z.universe:
        raise UniverseMismatchError("swap and term must share a universe")
    return dot(z, w.term)


@dataclass(frozen=True)
class CensusTable:
    """Swap classes of every production over a small universe, each with its rule count."""

    node_count: int
    class_sizes: tuple[tuple[Swap, int], ...]

    @property
    def production_count(self) -> int:
        return sum(size for _, size in self.class_sizes)

    @property
    def histogram(self) -> tuple[int, ...]:
        """Entry k: the number of swaps that touch k edge cells, for k = 0..n²."""
        counts = [0] * (self.node_count * self.node_count + 1)
        for swap, _ in self.class_sizes:
            counts[swap.touched_edge_count()] += 1
        return tuple(counts)

    def swap_count(self) -> int:
        return len(self.class_sizes)


def _census_from_groups(node_count: int, groups: dict[int, int]) -> CensusTable:
    u = NodeUniverse(tuple(str(i + 1) for i in range(node_count)))
    zeros = BoolVector.zeros(u)
    classes = tuple((Swap(BoolMatrix(u, bits), zeros), groups[bits]) for bits in sorted(groups))
    return CensusTable(node_count, classes)


def swap_census(node_count: int) -> CensusTable:
    """Group every (lhs, rhs) edge-set pair over n nodes by its swap.

    All nodes are taken as present on both sides, so the enumeration ranges
    over the 2^(n*n) x 2^(n*n) static pairs.
    """
    if node_count < 0:
        raise ValueError(f"census needs a node count of at least 0, not {node_count}")
    if node_count > 2:
        raise ValueError("census enumeration is limited to 2 nodes")
    u = NodeUniverse(tuple(str(i + 1) for i in range(node_count)))
    cells = node_count * node_count
    all_nodes = BoolVector.ones(u)
    groups: dict[int, int] = {}
    for lhs_bits in range(1 << cells):
        lhs = Digraph(BoolMatrix(u, lhs_bits), all_nodes)
        for rhs_bits in range(1 << cells):
            rhs = Digraph(BoolMatrix(u, rhs_bits), all_nodes)
            p = Production.from_static("census", lhs, rhs)
            w = p_operator(p)
            groups[w.nihil_edges.bits] = groups.get(w.nihil_edges.bits, 0) + 1
    return _census_from_groups(node_count, groups)
