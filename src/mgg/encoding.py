"""Rational encoding of Boolean matrices into exact dyadic numbers.

A matrix over n nodes becomes the dyadic rational whose k-th binary digit is
the k-th cell in column-major order, so an n-node edge matrix lands in
[0, 1) with denominator 2^(n*n).  Complex terms land in the unit complex
square (certainty part real, nihil part imaginary).  All arithmetic is
bit-string exact; no floating point is used anywhere.

The image of the disjoint-part terms is a finite stage of the Sierpinski
gasket: exactly the points whose coordinate bit strings never share a 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .boolmat import BoolMatrix
from .mcl import ComplexTerm, cmul


@dataclass(frozen=True)
class Dyadic:
    """Finite binary fraction 0.b1b2...bm, canonical with no trailing zeros."""

    num: int
    width: int

    def __post_init__(self) -> None:
        num, width = self.num, self.width
        if num < 0 or width < 0 or (width == 0 and num != 0) or num >> width:
            raise ValueError(f"not a value in [0,1): {num}/2^{width}")
        if num:
            shift = (num & -num).bit_length() - 1
            num >>= shift
            width -= shift
        else:
            width = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "width", width)

    @classmethod
    def zero(cls) -> "Dyadic":
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: str) -> "Dyadic":
        return cls(int(bits, 2) if bits else 0, len(bits))

    def is_zero(self) -> bool:
        return self.num == 0

    def bit_string(self) -> str:
        if self.num == 0:
            return "0"
        return format(self.num, f"0{self.width}b")

    def to_binary(self) -> str:
        """Render as e.g. ``0.011b``; zero renders as ``0.0b``."""
        return f"0.{self.bit_string()}b"

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.width)

    def fraction_str(self) -> str:
        """The value as ``str(self.as_fraction())`` prints it, at any width.

        The canonical numerator is odd, so ``num/2^width`` is reduced.  The
        digits come from Decimal, which is exact for ints and, unlike
        ``str(int)``, has no digit limit.
        """
        if self.num == 0:
            return "0"
        return f"{Decimal(self.num)}/{Decimal(1 << self.width)}"

    def _padded(self, width: int) -> int:
        return self.num << (width - self.width)

    def _combine(self, other: "Dyadic", f) -> "Dyadic":
        w = max(self.width, other.width)
        return Dyadic(f(self._padded(w), other._padded(w)), w)

    def __xor__(self, other: "Dyadic") -> "Dyadic":
        return self._combine(other, lambda a, b: a ^ b)

    def __and__(self, other: "Dyadic") -> "Dyadic":
        return self._combine(other, lambda a, b: a & b)

    def __or__(self, other: "Dyadic") -> "Dyadic":
        return self._combine(other, lambda a, b: a | b)

    def __lt__(self, other: "Dyadic") -> bool:
        w = max(self.width, other.width)
        return self._padded(w) < other._padded(w)

    def __le__(self, other: "Dyadic") -> bool:
        return self == other or self < other


@dataclass(frozen=True)
class DyadicComplex:
    re: Dyadic
    im: Dyadic

    def render(self) -> str:
        return (
            f"re={self.re.to_binary()} ({self.re.fraction_str()}), "
            f"im={self.im.to_binary()} ({self.im.fraction_str()})"
        )


def ell(m: BoolMatrix) -> Dyadic:
    """Column-major dyadic encoding of an edge matrix.

    Binary digit k (1-based) is the cell in row ((k-1) mod n), column
    (k-1) // n, both 0-based: columns are visited one after another, top to
    bottom.
    """
    n, cells = m.universe.size, m.cells()
    return Dyadic.from_bits("".join(cells[j::n] for j in range(n)))


def ell_complex(z: ComplexTerm) -> DyadicComplex:
    """Encode a complex term: certainty edges real, nihil edges imaginary."""
    return DyadicComplex(ell(z.cert_edges), ell(z.nihil_edges))


def norm(z: ComplexTerm) -> Dyadic:
    """Self dot-product encoding: the XOR of certainty and nihil edges."""
    return ell(z.cert_edges ^ z.nihil_edges)


def conditional_norm(z: ComplexTerm, y: ComplexTerm) -> Fraction:
    """Norm of z relative to y: norm(z * y) / norm(y), as an exact ratio."""
    denom = norm(y).as_fraction()
    if denom == 0:
        raise ZeroDivisionError("conditional norm relative to a norm-zero term")
    return norm(cmul(z, y)).as_fraction() / denom


def distance(z1: ComplexTerm, z2: ComplexTerm) -> Dyadic:
    """XOR metric between two terms.

    The norms of the certainty pairing (a1 + i a2) and the nihil pairing
    (b1 + i b2) are XOR-ed bitwise, which places the certainty and nihil
    symmetric differences on the same bit grid.  Separation can fail when
    both parts differ by the same pattern; on pure-certainty terms this is
    a genuine metric.
    """
    w1 = ell(z1.cert_edges ^ z2.cert_edges)
    w2 = ell(z1.nihil_edges ^ z2.nihil_edges)
    return w1 ^ w2


@dataclass(frozen=True)
class Bitmap:
    """Row-major bitmap; row y is an int with bit x for pixel (x, y)."""

    width: int
    height: int
    rows: tuple[int, ...]

    def pixel(self, x: int, y: int) -> int:
        return (self.rows[y] >> x) & 1

    def to_p1(self) -> str:
        """Portable bitmap text: header line pair, then one row per line."""
        lines = ["P1", f"{self.width} {self.height}"]
        lines += [format(row, f"0{self.width}b")[::-1] for row in self.rows]
        return "\n".join(lines) + "\n"


def gasket_raster(bits: int) -> Bitmap:
    """Sierpinski gasket stage: pixel (x, y) set iff x AND y = 0 bitwise.

    These are exactly the coordinate pairs whose binary digits never
    collide, i.e. the encodable disjoint certainty/nihil pairs.  Each step
    doubles a stage of h rows: a row y < h lacks bit h, so it gains a copy
    shifted to x + h; row h + y has bit h, which x must lack, so it is row y.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be between 1 and 16")
    rows = [1]
    for _ in range(bits):
        h = len(rows)
        rows = [r | r << h for r in rows] + rows
    return Bitmap(len(rows), len(rows), tuple(rows))


def h_points(node_count: int) -> list[DyadicComplex]:
    """Encodings of every disjoint-part edge term over the given node count.

    Each of the n*n cells independently is absent, certain or nihil, giving
    3^(n*n) points; all land on the gasket.
    """
    if node_count < 0:
        raise ValueError(f"h_points needs a node count of at least 0, not {node_count}")
    if node_count > 3:
        raise ValueError("node_count must be at most 3")
    cells = node_count * node_count
    points = []
    for idx in range(3**cells):
        re = im = 0
        rest = idx
        for k in range(1, cells + 1):
            digit = rest % 3
            rest //= 3
            if digit == 1:
                re |= 1 << (cells - k)
            elif digit == 2:
                im |= 1 << (cells - k)
        points.append(DyadicComplex(Dyadic(re, cells), Dyadic(im, cells)))
    return points
