"""Boolean matrices and vectors over an ordered node universe.

Graphs are simple digraphs stored as a square Boolean edge matrix plus a
Boolean node-presence vector.  Every "product" in the rewriting formulas is
the cell-by-cell AND; there is no row-by-column matrix product anywhere in
this package.  Matrices are packed row-major into a single int (cell (i, j)
is bit ``i * n + j``), vectors into an int with bit ``i`` for node ``i``.

Both kinds share one packed type with ``& | ^`` and a bounded ``~``: the
complement inside the value's universe (every node for a vector, every
ordered node pair for a matrix).  ``complement(x, ambient)`` complements
inside any other ambient, such as the block of a digraph's node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Mapping


class UniverseMismatchError(ValueError):
    """Raised when two operands do not share a node universe."""


@dataclass(frozen=True)
class NodeUniverse:
    """Ordered set of node labels; the order fixes matrix row/column order."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate node labels: {self.labels}")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    @classmethod
    def of(cls, *labels: str) -> "NodeUniverse":
        return cls(tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def extended(self, new_labels: Iterable[str]) -> "NodeUniverse":
        """New universe with extra labels appended after the existing ones."""
        return NodeUniverse(self.labels + tuple(new_labels))


def set_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending; one step per set bit, not per cell.

    A packed matrix's cell (i, j) comes out as ``i * n + j``, row by row.
    """
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _check_universe(a, b) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError(
            f"universe mismatch: {a.universe.labels} vs {b.universe.labels}"
        )


def _check_operand(a, b) -> None:
    if type(a) is not type(b):
        raise TypeError(
            f"operands must be the same kind, not {type(a).__name__} and {type(b).__name__}"
        )
    _check_universe(a, b)


@dataclass(frozen=True)
class _Packed:
    """Cells of a vector (``_rank`` 1) or matrix (``_rank`` 2), packed into an int.

    A value has ``len(universe) ** _rank`` cells.
    """

    universe: NodeUniverse
    bits: int
    _rank: ClassVar[int]
    _kind: ClassVar[str]

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> len(self.universe) ** self._rank:
            raise ValueError(f"{self._kind} bits out of range for universe")

    @classmethod
    def _full(cls, universe: NodeUniverse) -> int:
        return (1 << len(universe) ** cls._rank) - 1

    @classmethod
    def zeros(cls, universe: NodeUniverse):
        return cls(universe, 0)

    @classmethod
    def ones(cls, universe: NodeUniverse):
        return cls(universe, cls._full(universe))

    def count(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __and__(self, other):
        _check_operand(self, other)
        return type(self)(self.universe, self.bits & other.bits)

    def __or__(self, other):
        _check_operand(self, other)
        return type(self)(self.universe, self.bits | other.bits)

    def __xor__(self, other):
        _check_operand(self, other)
        return type(self)(self.universe, self.bits ^ other.bits)

    def __invert__(self):
        """Complement inside the universe: every cell not set in self."""
        return type(self)(self.universe, self.bits ^ self._full(self.universe))


class BoolVector(_Packed):
    _rank = 1
    _kind = "vector"

    @classmethod
    def from_labels(cls, universe: NodeUniverse, labels: Iterable[str]) -> "BoolVector":
        bits = 0
        for l in labels:
            bits |= 1 << universe.index(l)
        return cls(universe, bits)

    @classmethod
    def from_bits(cls, universe: NodeUniverse, values: Iterable[int]) -> "BoolVector":
        values = tuple(values)
        if len(values) != len(universe):
            raise ValueError("wrong vector length for universe")
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return cls(universe, bits)

    def __getitem__(self, i: int) -> int:
        return (self.bits >> i) & 1

    def get(self, label: str) -> int:
        return self[self.universe.index(label)]

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in set_bits(self.bits))

    def tolist(self) -> list[int]:
        return [self.bits >> i & 1 for i in range(len(self.universe))]


class BoolMatrix(_Packed):
    """Square Boolean edge matrix; row = source node, column = target node."""

    _rank = 2
    _kind = "matrix"

    @classmethod
    def from_edges(
        cls, universe: NodeUniverse, edges: Iterable[tuple[str, str]]
    ) -> "BoolMatrix":
        n = len(universe)
        bits = 0
        for src, dst in edges:
            bits |= 1 << (universe.index(src) * n + universe.index(dst))
        return cls(universe, bits)

    @classmethod
    def from_rows(cls, universe: NodeUniverse, rows: Iterable[Iterable[int]]) -> "BoolMatrix":
        n = len(universe)
        rows = [tuple(r) for r in rows]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("wrong matrix shape for universe")
        bits = 0
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    bits |= 1 << (i * n + j)
        return cls(universe, bits)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return (self.bits >> (i * len(self.universe) + j)) & 1

    def edges(self) -> tuple[tuple[str, str], ...]:
        n = len(self.universe)
        labels = self.universe.labels
        return tuple(
            (labels[cell // n], labels[cell % n]) for cell in set_bits(self.bits)
        )

    def rows(self) -> list[list[int]]:
        n = len(self.universe)
        row = (1 << n) - 1
        return [BoolVector(self.universe, self.bits >> i * n & row).tolist() for i in range(n)]


@dataclass(frozen=True)
class Digraph:
    """Simple digraph: edge matrix plus node-presence vector."""

    edges: BoolMatrix
    nodes: BoolVector

    def __post_init__(self) -> None:
        _check_universe(self.edges, self.nodes)

    @property
    def universe(self) -> NodeUniverse:
        return self.edges.universe

    @classmethod
    def empty(cls, universe: NodeUniverse) -> "Digraph":
        return cls(BoolMatrix.zeros(universe), BoolVector.zeros(universe))

    @classmethod
    def of(
        cls,
        universe: NodeUniverse,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
    ) -> "Digraph":
        return cls(
            BoolMatrix.from_edges(universe, edges),
            BoolVector.from_labels(universe, nodes),
        )


def complement(a, ambient):
    """Bounded complement: every cell of ``ambient`` not set in ``a``.

    For the complement inside the whole universe use ``~a``; this form is
    for a smaller ambient, such as the block of a digraph's node set.
    """
    return ambient & ~a


def tensor(u: BoolVector, v: BoolVector) -> BoolMatrix:
    """Outer product of node vectors: cell (i, j) = u[i] AND v[j]."""
    _check_operand(u, v)
    n = len(u.universe)
    bits = 0
    for i in set_bits(u.bits):
        bits |= v.bits << (i * n)
    return BoolMatrix(u.universe, bits)


def bounded_one(v: BoolVector) -> BoolMatrix:
    """The all-ones block over a node set: every edge between present nodes."""
    return tensor(v, v)


def contains(a, b) -> bool:
    """True iff a is contained in b (every set cell of a is set in b)."""
    _check_operand(a, b)
    return a.bits & b.bits == a.bits


def is_compatible(g: Digraph) -> bool:
    """True iff g has no dangling edges (edges touching absent nodes)."""
    return g.edges.bits & ~bounded_one(g.nodes).bits == 0


def _build_mapping(
    source: NodeUniverse, target: NodeUniverse, mapping: Mapping[str, str] | None
) -> dict[str, str]:
    if mapping is None:
        mapping = {l: l for l in source.labels}
    images = list(mapping.values())
    if len(set(images)) != len(images):
        raise ValueError("completion mapping must be injective")
    for src, dst in mapping.items():
        if src not in source:
            raise KeyError(f"unknown source label {src!r}")
        if dst not in target:
            raise KeyError(f"unknown target label {dst!r}")
    return dict(mapping)


def complete_to(x, target: NodeUniverse, mapping: Mapping[str, str] | None = None):
    """Embed x into a (usually larger) universe, zero-filling elsewhere.

    ``mapping`` sends labels of x's universe to labels of ``target`` and must
    be injective; labels it omits must carry no content in x.  Omitted target
    positions stay zero, which for nihil matrices means "unconstrained".
    """
    if isinstance(x, Digraph):
        return Digraph(
            complete_to(x.edges, target, mapping),
            complete_to(x.nodes, target, mapping),
        )
    m = _build_mapping(x.universe, target, mapping)
    src_u = x.universe
    pos = {src_u.index(s): target.index(d) for s, d in m.items()}
    if isinstance(x, BoolVector):
        bits = 0
        for i in set_bits(x.bits):
            if i not in pos:
                raise ValueError(f"unmapped label {src_u.labels[i]!r} carries content")
            bits |= 1 << pos[i]
        return BoolVector(target, bits)
    if isinstance(x, BoolMatrix):
        n_s, n_t = len(src_u), len(target)
        bits = 0
        for cell in set_bits(x.bits):
            i, j = divmod(cell, n_s)
            if i not in pos or j not in pos:
                raise ValueError(
                    "unmapped label carries content: edge "
                    f"{src_u.labels[i]!r}->{src_u.labels[j]!r}"
                )
            bits |= 1 << (pos[i] * n_t + pos[j])
        return BoolMatrix(target, bits)
    raise TypeError(f"cannot complete value of type {type(x).__name__}")
