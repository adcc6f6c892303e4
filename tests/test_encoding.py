"""Dyadic encoding, norms, conditional norms, distance, gasket rasters."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mgg import (
    Bitmap,
    BoolMatrix,
    ComplexTerm,
    Dyadic,
    NodeUniverse,
    conditional_norm,
    conj,
    contains,
    distance,
    ell,
    ell_complex,
    gasket_raster,
    h_points,
    nil_term,
    norm,
    pascal_mod2,
)
from mgg.oracle import matrix_of

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")


def term(universe, cert_bits, nihil_bits=0):
    return ComplexTerm.of(
        BoolMatrix(universe, cert_bits), BoolMatrix(universe, nihil_bits)
    )


def random_term(rng, universe):
    cells = len(universe) ** 2
    return term(universe, rng.getrandbits(cells), rng.getrandbits(cells))


class TestDyadic:
    def test_canonical_drops_trailing_zeros(self):
        assert Dyadic.from_bits("0110") == Dyadic.from_bits("011")
        assert Dyadic.from_bits("011").to_binary() == "0.011b"
        assert Dyadic(1 << 4095, 4096) == Dyadic.from_bits("1")

    def test_zero(self):
        assert Dyadic.from_bits("000") == Dyadic.zero()
        assert Dyadic.zero().to_binary() == "0.0b"
        assert Dyadic.zero().as_fraction() == 0

    def test_fraction(self):
        assert Dyadic.from_bits("011").as_fraction() == Fraction(3, 8)

    def test_xor_pads_on_the_right(self):
        a = Dyadic.from_bits("1")     # 0.1
        b = Dyadic.from_bits("011")   # 0.011
        assert (a ^ b) == Dyadic.from_bits("111")

    def test_ordering(self):
        assert Dyadic.from_bits("011") < Dyadic.from_bits("1")
        assert Dyadic.from_bits("1") <= Dyadic.from_bits("1")

    def test_rejects_one_or_more(self):
        with pytest.raises(ValueError):
            Dyadic(1, 0)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_bitwise_ops_match_fractions(self, a, b):
        da, db = Dyadic(a, 8), Dyadic(b, 8)
        assert (da ^ db).as_fraction() == Fraction(a ^ b, 256)
        assert (da & db).as_fraction() == Fraction(a & b, 256)
        assert (da | db).as_fraction() == Fraction(a | b, 256)

    @given(st.integers(0, 12).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))))
    def test_fraction_str_prints_as_fraction(self, num_width):
        d = Dyadic(*num_width)
        assert d.fraction_str() == str(d.as_fraction())


class TestEll:
    def test_worked_example_pair(self):
        assert ell(matrix_of(U2, [[0, 1], [1, 0]])).as_fraction() == Fraction(3, 8)
        assert ell(matrix_of(U2, [[1, 0], [0, 0]])).as_fraction() == Fraction(1, 2)

    def test_zero(self):
        assert ell(BoolMatrix.zeros(U3)).is_zero()

    def test_column_major_bit_order(self):
        # the second bit is row b, column a
        m = BoolMatrix.from_edges(U2, [("b", "a")])
        assert ell(m) == Dyadic.from_bits("01")
        # Digit k (0-based) is cell (k mod n, k div n), read cell by cell.
        rng = random.Random(83)
        for n in range(71):
            u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for _ in range(2):
                m = BoolMatrix(u, rng.getrandbits(n * n))
                digits = "".join(str(m[k % n, k // n]) for k in range(n * n))
                assert ell(m) == Dyadic.from_bits(digits)

    def test_complex_worked_example(self):
        z = term(U2, matrix_of(U2, [[0, 1], [1, 0]]).bits,
                 matrix_of(U2, [[1, 0], [0, 0]]).bits)
        got = ell_complex(z)
        assert got.re.as_fraction() == Fraction(3, 8)
        assert got.im.as_fraction() == Fraction(1, 2)
        assert got.render() == "re=0.011b (3/8), im=0.1b (1/2)"

    def test_injective_on_fixed_universe(self):
        seen = {}
        for bits in range(1 << 4):
            d = ell(BoolMatrix(U2, bits))
            assert d not in seen
            seen[d] = bits

    def test_complex_injective_at_two_nodes(self):
        seen = set()
        count = 0
        for a in range(16):
            for b in range(16):
                point = ell_complex(term(U2, a, b))
                assert point not in seen
                seen.add(point)
                count += 1
        assert count == 256


class TestNorm:
    def test_zero(self):
        assert norm(ComplexTerm.zero(U2)).is_zero()

    def test_overlap_vanishes(self):
        assert norm(term(U2, 0b1010, 0b1010)).is_zero()

    def test_nil_term_value(self):
        got = norm(nil_term(U3))
        assert got.as_fraction() == 1 - Fraction(1, 2**9)

    def test_norm_zero_iff_zero_in_matrix_algebra(self):
        for a in range(16):
            for b in range(16):
                z = term(U2, a, b)
                if z.in_matrix_algebra():
                    assert norm(z).is_zero() == z.is_zero()

    def test_product_norm_is_bitwise_and(self):
        from mgg import cmul

        disjoint = [
            term(U2, a, b) for a in range(16) for b in range(16) if a & b == 0
        ]
        for y in disjoint:
            for z in disjoint:
                assert norm(cmul(y, z)) == (norm(y) & norm(z))

    def test_sum_norm_bounded_by_bitwise_or(self):
        from mgg import cadd

        for a1 in range(16):
            for b1 in range(16):
                z1 = term(U2, a1, b1)
                for a2 in range(0, 16, 3):
                    for b2 in range(0, 16, 5):
                        z2 = term(U2, a2, b2)
                        assert norm(cadd(z1, z2)) <= (norm(z1) | norm(z2))

    def test_conjugation_preserves_norm(self):
        for a in range(16):
            for b in range(16):
                z = term(U2, a, b)
                assert norm(conj(z)) == norm(z)


class TestConditionalNorm:
    def test_self_is_one(self):
        z = term(U2, 0b0110, 0b1001)
        assert conditional_norm(z, z) == 1

    def test_zero_numerator(self):
        y = term(U2, 0b0110, 0)
        assert conditional_norm(ComplexTerm.zero(U2), y) == 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            conditional_norm(term(U2, 1, 0), ComplexTerm.zero(U2))

    def test_one_iff_subgraph_exhaustive(self):
        disjoint = [
            term(U2, a, b) for a in range(16) for b in range(16) if a & b == 0
        ]
        for z in disjoint:
            z_support = z.cert_edges | z.nihil_edges
            for y in disjoint:
                if norm(y).is_zero():
                    continue
                y_support = y.cert_edges | y.nihil_edges
                expected = contains(y_support, z_support)
                assert (conditional_norm(z, y) == 1) == expected

    def test_denominator_need_not_be_a_power_of_two(self):
        z = term(U2, 0b1000, 0)          # one shared cell
        y = term(U2, 0b1010, 0)          # support of two cells
        value = conditional_norm(z, y)
        assert value == Fraction(1, 3)


class TestDistance:
    def test_identity_of_equal_terms(self):
        z = term(U3, 0b101, 0b010)
        assert distance(z, z).is_zero()

    def test_worked_pair(self):
        z1 = term(U2, matrix_of(U2, [[1, 0], [0, 0]]).bits, 0)
        z2 = term(U2, matrix_of(U2, [[0, 0], [0, 1]]).bits, 0)
        assert distance(z1, z2).as_fraction() == Fraction(9, 16)

    def test_symmetry_random(self):
        rng = random.Random(20240811)
        for _ in range(200):
            z1, z2 = random_term(rng, U3), random_term(rng, U3)
            assert distance(z1, z2) == distance(z2, z1)

    def test_triangle_equality_chain(self):
        rng = random.Random(20240812)
        for _ in range(200):
            x, y, z = (random_term(rng, U3) for _ in range(3))
            # the xor chain telescopes, which implies the triangle inequality
            assert distance(x, z) == (distance(x, y) ^ distance(y, z))
            lhs = distance(x, z).as_fraction()
            assert lhs <= distance(x, y).as_fraction() + distance(y, z).as_fraction()

    def test_separation_on_pure_certainty_terms(self):
        for a1 in range(16):
            for a2 in range(16):
                z1, z2 = term(U2, a1, 0), term(U2, a2, 0)
                assert distance(z1, z2).is_zero() == (a1 == a2)

    def test_separation_fails_on_mixed_terms(self):
        # equal certainty/nihil differences cancel: a known pseudometric gap
        z1 = term(U2, 0b1000, 0)
        z2 = term(U2, 0, 0b1000)
        assert not z1.same_parts(z2)
        assert distance(z1, z2).is_zero()


class TestGasket:
    def test_two_by_two(self):
        bitmap = gasket_raster(1)
        assert bitmap.pixel(0, 0) == 1
        assert bitmap.pixel(1, 0) == 1
        assert bitmap.pixel(0, 1) == 1
        assert bitmap.pixel(1, 1) == 0

    def test_border_rows_full(self):
        for bits in (1, 3, 5):
            bitmap = gasket_raster(bits)
            assert all(bitmap.pixel(x, 0) for x in range(bitmap.width))
            assert all(bitmap.pixel(0, y) for y in range(bitmap.height))

    def test_matches_pascal_parity(self):
        for bits in range(1, 7):
            assert gasket_raster(bits).to_p1() == pascal_mod2(bits).to_p1()

    def test_bounds(self):
        with pytest.raises(ValueError):
            gasket_raster(0)
        with pytest.raises(ValueError):
            gasket_raster(17)

    def test_p1_of_asymmetric_bitmap(self):
        # Pixel (x, y) is bit x of row y; a P1 row lists x = 0 first.
        bitmap = Bitmap(3, 2, (0b001, 0b110))
        assert bitmap.to_p1() == "P1\n3 2\n100\n011\n"

    def test_p1_shape(self):
        text = gasket_raster(2).to_p1()
        lines = text.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "4 4"
        assert len(lines) == 6
        assert lines[2] == "1111"


class TestHPoints:
    def test_single_node(self):
        pts = h_points(1)
        values = {(p.re.as_fraction(), p.im.as_fraction()) for p in pts}
        assert values == {(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))}

    def test_count_and_distinct(self):
        pts = h_points(2)
        assert len(pts) == 3**4
        assert len(set(pts)) == 3**4

    def test_all_points_on_gasket(self):
        for p in h_points(2):
            width = max(p.re.width, p.im.width)
            assert (p.re._padded(width) & p.im._padded(width)) == 0

    def test_size_limit(self):
        with pytest.raises(ValueError):
            h_points(4)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="^h_points needs a node count of at least 0, not -2$"):
            h_points(-2)
