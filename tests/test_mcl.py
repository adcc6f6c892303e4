"""Complex-term algebra: componentwise ops, conjugation, dot product,
normalization, orthogonality, self-adjointness."""

import itertools

import pytest
from hypothesis import given, strategies as st

from mgg import (
    BoolMatrix,
    BoolVector,
    ComplexTerm,
    NodeUniverse,
    UniverseMismatchError,
    align_terms,
    bounded_one,
    cadd,
    cmul,
    complement,
    conj,
    dot,
    ell,
    equivalent,
    is_orthogonal,
    is_self_adjoint,
    nil_term,
    norm,
    pmma_normalize,
)

U1 = NodeUniverse.of("a")
U2 = NodeUniverse.of("a", "b")


def term(universe, cert_bits, nihil_bits):
    return ComplexTerm.of(
        BoolMatrix(universe, cert_bits), BoolMatrix(universe, nihil_bits)
    )


def all_terms(universe):
    """Every edge term over the universe (certainty and nihil independent)."""
    cells = len(universe) ** 2
    return [
        term(universe, a, b)
        for a in range(1 << cells)
        for b in range(1 << cells)
    ]


def all_disjoint_terms(universe):
    """Every matrix-algebra member: per cell absent, certain or nihil."""
    return [z for z in all_terms(universe) if z.in_matrix_algebra()]


def terms(universe=U2):
    cells = len(universe) ** 2
    bits = st.integers(0, (1 << cells) - 1)
    return st.builds(lambda a, b: term(universe, a, b), bits, bits)


class TestCadd:
    @given(terms())
    def test_zero_is_neutral(self, z):
        assert cadd(z, ComplexTerm.zero(U2)).same_parts(z)

    @given(terms())
    def test_idempotent(self, z):
        assert cadd(z, z).same_parts(z)

    @given(terms(), terms())
    def test_componentwise_or(self, z1, z2):
        got = cadd(z1, z2)
        assert got.cert_edges == (z1.cert_edges | z2.cert_edges)
        assert got.nihil_edges == (z1.nihil_edges | z2.nihil_edges)
        assert got.cert_nodes == (z1.cert_nodes | z2.cert_nodes)
        assert got.nihil_nodes == (z1.nihil_nodes | z2.nihil_nodes)


class TestCmul:
    def test_pure_certainty_reduces_to_and(self):
        z1 = term(U2, 0b0110, 0)
        z2 = term(U2, 0b0011, 0)
        got = cmul(z1, z2)
        assert got.cert_edges == (z1.cert_edges & z2.cert_edges)
        assert got.nihil_edges.is_zero()

    @given(terms())
    def test_nil_unit_swaps_parts(self, z):
        swapped = cmul(z, nil_term(U2))
        assert swapped.cert_edges == z.nihil_edges
        assert swapped.nihil_edges == z.cert_edges

    @given(terms())
    def test_zero_absorbs(self, z):
        assert cmul(z, ComplexTerm.zero(U2)).is_zero()


class TestConj:
    def test_pure_certainty_invariant_in_matrix_algebra(self):
        z = term(U2, 0b0110, 0)
        assert equivalent(conj(z), z)

    def test_pure_nihil_invariant_in_matrix_algebra(self):
        z = term(U2, 0, 0b0101)
        assert equivalent(conj(z), z)

    def test_involution_on_normalized_terms(self):
        for z in all_disjoint_terms(U2):
            assert pmma_normalize(conj(conj(z))).same_parts(pmma_normalize(z))


class TestDot:
    @given(terms())
    def test_self_dot_of_certainty(self, z):
        pure = term(U2, z.cert_edges.bits, 0)
        assert dot(pure, pure).cert_edges == pure.cert_edges
        assert dot(pure, pure).nihil_edges.is_zero()

    @given(terms())
    def test_self_dot_of_nihil(self, z):
        pure = term(U2, 0, z.nihil_edges.bits)
        got = dot(pure, pure)
        assert got.cert_edges == pure.nihil_edges
        assert got.nihil_edges.is_zero()

    def test_self_dot_of_overlap_vanishes(self):
        z = term(U2, 0b1010, 0b1010)
        assert dot(z, z).is_zero()

    @given(terms(), terms())
    def test_self_dot_is_xor(self, z1, z2):
        got = dot(z1, z1)
        assert got.cert_edges == (z1.cert_edges ^ z1.nihil_edges)
        assert got.nihil_edges.is_zero()

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            dot(term(U1, 0, 0), term(U2, 0, 0))


class TestNormalize:
    def test_full_overlap_vanishes(self):
        z = term(U2, 0b0110, 0b0110)
        assert pmma_normalize(z).is_zero()

    @given(terms())
    def test_disjoint_terms_unchanged(self, z):
        fixed = pmma_normalize(z)
        assert pmma_normalize(fixed).same_parts(fixed)

    @given(terms())
    def test_output_disjoint_and_equivalent(self, z):
        fixed = pmma_normalize(z)
        assert fixed.in_matrix_algebra()
        # the input is the output plus its common part in both components
        common_e = z.cert_edges & z.nihil_edges
        common_v = z.cert_nodes & z.nihil_nodes
        assert (fixed.cert_edges | common_e) == z.cert_edges
        assert (fixed.nihil_edges | common_e) == z.nihil_edges
        assert (fixed.cert_nodes | common_v) == z.cert_nodes
        assert (fixed.nihil_nodes | common_v) == z.nihil_nodes


class TestOrthogonality:
    @given(terms())
    def test_zero_orthogonal_to_all(self, z):
        assert is_orthogonal(ComplexTerm.zero(U2), z)

    def test_self_orthogonal_only_at_zero_in_matrix_algebra(self):
        for z in all_disjoint_terms(U1):
            assert is_orthogonal(z, z) == z.is_zero()

    def test_dot_zero_equals_containment_form(self):
        # over full 1-node terms the two characterizations coincide
        for z1 in all_terms(U1):
            for z2 in all_terms(U1):
                containment = (
                    (z1.cert_edges | z1.nihil_edges)
                    & (z2.cert_edges & z2.nihil_edges)
                ) == (z1.cert_edges | z1.nihil_edges)
                assert is_orthogonal(z1, z2) == containment


class TestSelfAdjoint:
    def test_complementary_parts(self):
        cert = BoolMatrix(U2, 0b0110)
        z = ComplexTerm.of(cert, complement(cert, BoolMatrix.ones(U2)))
        assert is_self_adjoint(z)

    def test_zero_is_not(self):
        assert not is_self_adjoint(ComplexTerm.zero(U2))

    def test_norm_characterization(self):
        # exhaustive at 2 nodes: self-adjoint iff the norm is the full block
        full = ell(bounded_one(BoolVector.ones(U2)))
        for z in all_terms(U2):
            assert is_self_adjoint(z) == (norm(z) == full)


class TestAlgebraicLaws:
    @given(terms(), terms(), terms())
    def test_dot_distributes_on_the_left(self, x, y, z):
        left = dot(cadd(x, y), z)
        right = cadd(dot(x, z), dot(y, z))
        assert left.same_parts(right)

    def test_dot_conjugate_symmetry_in_matrix_algebra(self):
        for z1 in all_disjoint_terms(U1):
            for z2 in all_disjoint_terms(U1):
                assert equivalent(dot(z1, z2), conj(dot(z2, z1)))

    def test_conj_multiplicative_in_matrix_algebra(self):
        for z1 in all_disjoint_terms(U1):
            for z2 in all_disjoint_terms(U1):
                assert equivalent(conj(cmul(z1, z2)), cmul(conj(z1), conj(z2)))

    def test_dot_conjugate_symmetry_two_nodes_sample(self):
        zs = all_disjoint_terms(U2)[::7]
        for z1 in zs:
            for z2 in zs:
                assert equivalent(dot(z1, z2), conj(dot(z2, z1)))

    def test_right_linearity_holds_exactly_when_equal(self):
        # the dot product is not linear in its second slot: for unequal
        # terms some z witnesses the failure, for equal terms none can
        for z1, z2 in itertools.product(all_terms(U1), repeat=2):
            broken = any(
                not dot(z, cadd(z1, z2)).same_parts(cadd(dot(z, z1), dot(z, z2)))
                for z in all_terms(U1)
            )
            assert broken == (not z1.same_parts(z2))


class TestAlignTerms:
    def test_union_universe(self):
        za = term(U1, 1, 0)
        zb = term(NodeUniverse.of("b"), 1, 0)
        a2, b2 = align_terms(za, zb)
        assert a2.universe == b2.universe == U2
        assert a2.cert_edges.edges() == (("a", "a"),)
        assert b2.cert_edges.edges() == (("b", "b"),)

    def test_interleaved_labels_placed_by_name(self):
        u1, u2 = NodeUniverse.of("a", "c", "e"), NodeUniverse.of("d", "c", "b", "a")
        z1 = ComplexTerm.of(BoolMatrix.from_edges(u1, [("e", "a"), ("c", "c")]))
        z2 = ComplexTerm.of(
            BoolMatrix.from_edges(u2, [("a", "d")]), BoolMatrix.from_edges(u2, [("b", "c")])
        )
        a2, b2 = align_terms(z1, z2)
        merged = NodeUniverse.of("a", "c", "e", "d", "b")
        assert a2.universe == b2.universe == merged
        assert a2.cert_edges.edges() == (("c", "c"), ("e", "a"))
        assert b2.cert_edges.edges() == (("a", "d"),)
        assert b2.nihil_edges.edges() == (("b", "c"),)
        assert a2.ambient.labels() == ("a", "c", "e")
        assert b2.ambient.labels() == ("a", "c", "d", "b")
        assert a2.nihil_edges.is_zero() and b2.cert_nodes.is_zero()

    def test_same_universe_untouched(self):
        z = term(U2, 0b1000, 0)
        a2, b2 = align_terms(z, z)
        assert a2 is z and b2 is z
