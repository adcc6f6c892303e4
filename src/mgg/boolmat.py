"""Boolean matrices and vectors over an ordered node universe.

Graphs are simple digraphs stored as a square Boolean edge matrix plus a
Boolean node-presence vector.  Every "product" in the rewriting formulas is
the cell-by-cell AND; there is no row-by-column matrix product anywhere in
this package.  Matrices are packed row-major into a single int (cell (i, j)
is bit ``i * n + j``, ``NodeUniverse.cell``), vectors into an int with bit
``i`` for node ``i``; other modules read cells as text only through
``cells``, rows and columns for matching and rewriting only as ints
(``row_masks``, ``column_masks``), and write a matrix only from its rows
(``from_row_masks``) or from its set cells (``from_cells``).  Set cells
and node labels are packed into bits by one packer each, ``cell_bits`` and
``label_bits``, which the grammar reader calls too.  ``cell_bits`` packs by
density: fewer than 2n + 16 cells (384 at most) are ORed in one at a time,
since each OR costs the width of the int; more go through one buffer of n²
digits and one ``int(digits, 2)``, a fixed cost of O(n²).
Edge tokens ``src->dst`` are listed in one place, ``NodeUniverse.cell_names``:
all n² of them in cell order, for callers that name many cells at once.  The
table lives with its universe, built on first use, so the grammar reader's
token memo and the witness lines of the same command's report share one
list.  The one matrix built from a node vector is the all-ones block over a
node set, ``bounded_one``, whose bits ``block_bits`` gives to modules that
compute on ints, in the same few int operations for every node set; the
per-cell builders and readers the tests use live in ``oracle``.

A universe carries its size and its all-ones vector and matrix masks,
computed once; every vector and matrix construction, ``~`` and ``ones``
read them, and every construction is still range-checked against them.
Its edge tokens, its row starts (bit i·n of each row i) and its diagonal
(bit i·(n + 1) of each node i), which ``block_bits`` builds blocks from,
are built on first use and kept.

Both kinds share one packed type with ``& | ^`` and a bounded ``~``: the
complement inside the value's universe (every node for a vector, every
ordered node pair for a matrix).  ``complement(x, ambient)`` complements
inside any other ambient, such as the block of a digraph's node set.

The value types built in hot loops (the packed type and ``Digraph`` here;
``Production``, ``Match``, ``DerivationStep`` and ``DerivationTrace``
elsewhere) are dataclasses with slots on one frozen base, ``_Frozen``, and
a hand-written ``__init__``, in one idiom: the constructor first runs every
check the type makes (the range check, ``_check_universe``), then sets each
slot through the field's member descriptor, ``Cls.field.__set__``, bound
once at module level.  Equality, hashing, ``repr`` and ``__match_args__``
stay generated.  ``_Frozen`` refuses every assignment and deletion, of a
field or of any other name, with ``FrozenInstanceError``: the
``__setattr__`` that ``frozen=True`` generates raises a ``TypeError`` for a
name that is no field once ``slots=True`` has rebuilt the class.  No
``exec``, and no second constructor that skips a check.  The rule is to set
slots through their descriptors: a frozen dataclass's own ``__init__`` pays
an ``object.__setattr__`` per field and a ``__post_init__`` call, which
measured slower (CHANGES.md, "Value objects at slot speed").
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from operator import attrgetter
from typing import Callable, ClassVar, Collection, Iterable, Iterator


class UniverseMismatchError(ValueError):
    """Raised when two operands do not share a node universe."""


class _Index(dict):
    """Label -> position; looking up an unknown label raises a worded ``KeyError``."""

    def __missing__(self, label: str):
        raise KeyError(f"unknown node label {label!r}")


@dataclass(frozen=True)
class NodeUniverse:
    """Ordered set of node labels; the order fixes matrix row/column order."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    vector_full: int = field(init=False, repr=False, compare=False)
    matrix_full: int = field(init=False, repr=False, compare=False)
    # The three below are built on first use (``cell_names``, ``row_starts``,
    # ``diagonal``).  Every attribute is set in ``__init__``, in one order, so that
    # no universe materializes an instance ``__dict__`` as ``cached_property``
    # would: every attribute read on a universe with one is slower (measured in
    # CHANGES.md, "One cell table per universe").
    _cell_names: list[str] | None = field(default=None, init=False, repr=False, compare=False)
    _row_starts: int | None = field(default=None, init=False, repr=False, compare=False)
    _diagonal: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError(f"duplicate node labels: {self.labels}")
        object.__setattr__(self, "_index", _Index({l: i for i, l in enumerate(self.labels)}))
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "vector_full", (1 << n) - 1)
        object.__setattr__(self, "matrix_full", (1 << n * n) - 1)

    @classmethod
    def of(cls, *labels: str) -> "NodeUniverse":
        return cls(tuple(labels))

    def __len__(self) -> int:
        return self.size

    def index(self, label: str) -> int:
        return self._index[label]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def cell(self, src: str, dst: str) -> int:
        """The packed position ``i * n + j`` of the edge from node i, ``src``, to node j, ``dst``."""
        index = self._index
        return index[src] * self.size + index[dst]

    def extended(self, new_labels: Iterable[str]) -> "NodeUniverse":
        """New universe with extra labels appended after the existing ones."""
        return NodeUniverse(self.labels + tuple(new_labels))

    @property
    def cell_names(self) -> list[str]:
        """Every edge token ``src->dst`` in cell order: entry ``cell(src, dst)`` names that cell.

        Built on first use, in one comprehension, and kept with the universe;
        every caller gets the same list, to read and never to change.
        """
        if self._cell_names is None:
            labels = self.labels
            names = [head + dst for head in [f"{src}->" for src in labels] for dst in labels]
            object.__setattr__(self, "_cell_names", names)
        return self._cell_names

    @property
    def row_starts(self) -> int:
        """Bit i·n of each row i: a packed matrix's column 0, which ``<< j`` moves to column j.

        Built on first use by doubling the rows, not by dividing the full
        matrix mask by the full vector mask, and kept.
        """
        if self._row_starts is None:
            object.__setattr__(self, "_row_starts", self._bit_per_row(self.size))
        return self._row_starts

    @property
    def diagonal(self) -> int:
        """Bit i·(n + 1) of each node i: cell (i, i).  Built on first use, like ``row_starts``."""
        if self._diagonal is None:
            object.__setattr__(self, "_diagonal", self._bit_per_row(self.size + 1))
        return self._diagonal

    def _bit_per_row(self, step: int) -> int:
        """Bit i·step for each row i, by doubling the rows; bits past the last cell are dropped."""
        n, bits, rows = self.size, 1, 1
        while rows < n:
            bits |= bits << rows * step
            rows *= 2
        return bits & self.matrix_full


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


class _Frozen:
    """Base of the slotted value types: every assignment and deletion is refused.

    Copies and pickles rebuild a value through its constructor, from its fields.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


@dataclass(slots=True, init=False, unsafe_hash=True)
class _Packed(_Frozen):
    """Cells of a vector or matrix, packed into an int.

    ``_full`` reads the universe's all-ones mask of the kind; every
    construction checks that the bits lie inside it.
    """

    universe: NodeUniverse
    bits: int
    _full: ClassVar[Callable[[NodeUniverse], int]]
    _kind: ClassVar[str]

    def __init__(self, universe: NodeUniverse, bits: int) -> None:
        if bits < 0 or bits > self._full(universe):
            raise ValueError(f"{self._kind} bits out of range for universe")
        _set_universe(self, universe)
        _set_bits(self, bits)

    @classmethod
    def zeros(cls, universe: NodeUniverse):
        return cls(universe, 0)

    @classmethod
    def ones(cls, universe: NodeUniverse):
        return cls(universe, cls._full(universe))

    def cells(self) -> str:
        """Every cell as "1" or "0", lowest bit first: a matrix row by row, (i, j) at i * n + j."""
        width = self._full(self.universe).bit_length()  # the cell count
        return format(self.bits, f"0{width}b")[::-1] if width else ""  # format(0, "00b") is "0"

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


_set_universe, _set_bits = _Packed.universe.__set__, _Packed.bits.__set__


class BoolVector(_Packed):
    __slots__ = ()
    _full = attrgetter("vector_full")
    _kind = "vector"

    @classmethod
    def from_labels(cls, universe: NodeUniverse, labels: Iterable[str]) -> "BoolVector":
        return cls(universe, label_bits(universe, labels))

    def __getitem__(self, i: int) -> int:
        return (self.bits >> i) & 1

    def get(self, label: str) -> int:
        return self[self.universe.index(label)]

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in set_bits(self.bits))


def label_bits(universe: NodeUniverse, labels: Iterable[str]) -> int:
    """The packed bits of the nodes named by ``labels`` (labels may repeat)."""
    index = universe._index
    bits = 0
    for l in labels:
        bits |= 1 << index[l]
    return bits


def _digits_from(n: int) -> int:
    """The fewest cells ``cell_bits`` packs through the digit buffer at n nodes.

    The two packers' times cross near 2n + 16 cells up to n = 128, and
    before 384 cells above it (measured at n = 8 to 512).
    """
    return min(2 * n + 16, 384)


def cell_bits(universe: NodeUniverse, cells: Collection[int]) -> int:
    """The packed bits of ``cells``, each in ``range(n * n)`` (cells may repeat), by density."""
    n = universe.size
    if len(cells) < _digits_from(n):
        bits = 0
        for cell in cells:
            bits |= 1 << cell
        return bits
    digits = bytearray(b"0") * (n * n)  # highest cell first, as int() reads it
    for cell in cells:
        digits[~cell] = 49  # "1"
    return int(digits, 2)


class BoolMatrix(_Packed):
    """Square Boolean edge matrix; row = source node, column = target node."""

    __slots__ = ()
    _full = attrgetter("matrix_full")
    _kind = "matrix"

    @classmethod
    def from_edges(
        cls, universe: NodeUniverse, edges: Iterable[tuple[str, str]]
    ) -> "BoolMatrix":
        cell = universe.cell
        return cls.from_cells(universe, [cell(src, dst) for src, dst in edges])

    @classmethod
    def from_cells(cls, universe: NodeUniverse, cells: Collection[int]) -> "BoolMatrix":
        """The matrix with each of ``cells`` set, a cell in ``range(n * n)`` (cells may repeat)."""
        return cls(universe, cell_bits(universe, cells))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return (self.bits >> (i * self.universe.size + j)) & 1

    def edges(self) -> tuple[tuple[str, str], ...]:
        n = self.universe.size
        labels = self.universe.labels
        return tuple(
            (labels[cell // n], labels[cell % n]) for cell in set_bits(self.bits)
        )

    @classmethod
    def from_row_masks(cls, universe: NodeUniverse, rows: Iterable[int]) -> "BoolMatrix":
        """The matrix whose row i is ``rows[i]`` (not checked to fit): ``row_masks`` inverted."""
        n = universe.size
        return cls(universe, sum(row << i * n for i, row in enumerate(rows)))

    def row_masks(self) -> list[int]:
        """Row i as an int with bit j for cell (i, j), for each row i."""
        n = self.universe.size
        row = (1 << n) - 1
        return [self.bits >> i * n & row for i in range(n)]

    def column_masks(self) -> list[int]:
        """Column j as an int with bit i for cell (i, j), for each column j."""
        # Cell (i, j) is digit n * n - 1 - (i * n + j) of the bits, so a column
        # reads highest row first, as int() wants it.
        n = self.universe.size
        digits = format(self.bits, f"0{n * n}b")
        return [int(digits[n - 1 - j :: n], 2) for j in range(n)]


@dataclass(slots=True, init=False, unsafe_hash=True)
class Digraph(_Frozen):
    """Simple digraph: edge matrix plus node-presence vector."""

    edges: BoolMatrix
    nodes: BoolVector

    def __init__(self, edges: BoolMatrix, nodes: BoolVector) -> None:
        _check_universe(edges, nodes)
        _set_edges(self, edges)
        _set_nodes(self, nodes)

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


_set_edges, _set_nodes = Digraph.edges.__set__, Digraph.nodes.__set__


def complement(a, ambient):
    """Bounded complement: every cell of ``ambient`` not set in ``a``.

    For the complement inside the whole universe use ``~a``; this form is
    for a smaller ambient, such as the block of a digraph's node set.
    """
    return ambient & ~a


def block_bits(u: NodeUniverse, nodes: int) -> int:
    """The packed bits of every cell (i, j) with i and j in ``nodes`` (bit i = node i) of ``u``.

    One route for every node set, from the universe's ``row_starts`` and
    ``diagonal``.  ``cols = row_starts * nodes`` sets every cell in a
    present node's column (rows are n bits apart, so no two terms overlap),
    and its diagonal cells mark the present nodes.  ``(v << n) - v`` sets
    each set bit of ``v`` and the n - 1 bits above it: from cell (i, i),
    row i from column i on, spilling into row i + 1, so that cell (i, n - 1)
    is set for present nodes i only and ``>> n - 1`` moves it to bit i·n;
    from bit i·n, all of row i.  The present rows, cut to ``cols``, are the
    block.
    """
    if nodes == u.vector_full:  # the full set, and every set of the empty universe
        return u.matrix_full
    n, row_starts = u.size, u.row_starts
    cols = row_starts * nodes
    corners = cols & u.diagonal
    rows = ((corners << n) - corners) >> n - 1 & row_starts
    return ((rows << n) - rows) & cols


def bounded_one(v: BoolVector) -> BoolMatrix:
    """The all-ones block over a node set: every edge between present nodes.

    ``~bounded_one(kept)`` is every edge incident to a node outside ``kept``.
    """
    return BoolMatrix(v.universe, block_bits(v.universe, v.bits))


def contains(a, b) -> bool:
    """True iff a is contained in b (every set cell of a is set in b)."""
    _check_operand(a, b)
    return a.bits & b.bits == a.bits


def is_compatible(g: Digraph) -> bool:
    """True iff g has no dangling edges (edges touching absent nodes)."""
    return g.edges.bits & ~block_bits(g.universe, g.nodes.bits) == 0


def complete_to(x, target: NodeUniverse):
    """Embed x into a universe that holds each of its labels, zero-filling elsewhere.

    Each node of x goes to the node of the same label in ``target``; the
    target cells x does not name stay zero, which for nihil matrices means
    "unconstrained".  Each set bit goes through one index list.
    """
    if isinstance(x, Digraph):
        return Digraph(complete_to(x.edges, target), complete_to(x.nodes, target))
    at = []
    for label in x.universe.labels:
        if label not in target:
            raise KeyError(f"unknown target label {label!r}")
        at.append(target.index(label))
    if isinstance(x, BoolVector):
        return BoolVector(target, sum(1 << at[i] for i in set_bits(x.bits)))
    if isinstance(x, BoolMatrix):
        n, width = x.universe.size, target.size
        cells = [at[cell // n] * width + at[cell % n] for cell in set_bits(x.bits)]
        return BoolMatrix.from_cells(target, cells)
    raise TypeError(f"cannot complete value of type {type(x).__name__}")
