"""Elementwise algebra, tensor product, completion, compatibility."""

import operator

import pytest
from hypothesis import given, strategies as st

from mgg import (
    BoolMatrix,
    BoolVector,
    Digraph,
    NodeUniverse,
    UniverseMismatchError,
    bounded_one,
    complement,
    complete_to,
    contains,
    is_compatible,
    tensor,
)

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")
OPS = (operator.and_, operator.or_, operator.xor)


def mat(universe, rows):
    return BoolMatrix.from_rows(universe, rows)


def vec(universe, bits):
    return BoolVector.from_bits(universe, bits)


def matrices(universe=U2):
    n = len(universe)
    return st.integers(0, (1 << (n * n)) - 1).map(lambda b: BoolMatrix(universe, b))


def vectors(universe=U2):
    n = len(universe)
    return st.integers(0, (1 << n) - 1).map(lambda b: BoolVector(universe, b))


class TestElementwise:
    def test_and_annihilator(self):
        a = mat(U2, [[1, 0], [0, 0]])
        zero = BoolMatrix.zeros(U2)
        assert a & zero == zero

    def test_and_worked_pair(self):
        forbidden = mat(U3, [[1, 0, 1], [1, 0, 1], [1, 0, 0]])
        added = mat(U3, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert (forbidden & added).rows() == [[0, 0, 1], [0, 0, 1], [0, 0, 0]]

    @given(matrices())
    def test_xor_self_inverse(self, a):
        assert (a ^ a).is_zero()

    def test_universe_mismatch(self):
        for kind in (BoolMatrix, BoolVector):
            for op in OPS:
                with pytest.raises(UniverseMismatchError):
                    op(kind.zeros(U2), kind.zeros(U3))

    def test_mixed_kinds_rejected(self):
        m, v = BoolMatrix(U2, 0b1000), BoolVector(U2, 0b11)
        for op in OPS:
            with pytest.raises(TypeError):
                op(m, v)
            with pytest.raises(TypeError):
                op(v, m)


class TestComplement:
    def test_of_zero_is_ambient(self):
        ambient = mat(U2, [[1, 1], [0, 1]])
        assert complement(BoolMatrix.zeros(U2), ambient) == ambient

    def test_of_ambient_is_zero(self):
        ambient = mat(U2, [[1, 1], [0, 1]])
        assert complement(ambient, ambient).is_zero()

    def test_per_cell(self):
        a = mat(U2, [[1, 0], [0, 0]])
        assert complement(a, BoolMatrix.ones(U2)).rows() == [[0, 1], [1, 1]]

    @given(matrices())
    def test_involution_inside_ambient(self, a):
        ambient = BoolMatrix.ones(U2)
        assert complement(complement(a, ambient), ambient) == a

    @given(st.data())
    def test_invert_is_complement_in_universe(self, data):
        for kind, values in ((BoolMatrix, matrices), (BoolVector, vectors)):
            for u in (U2, U3):
                x = data.draw(values(u))
                assert ~x == complement(x, kind.ones(u))
                assert ~~x == x


class TestTensor:
    def test_oracle_all_cells(self):
        # exhaustive against the per-cell definition at n <= 4
        for n in range(1, 5):
            u = NodeUniverse(tuple(str(i) for i in range(n)))
            for ub in range(1 << n):
                for vb in range(1 << n):
                    uu, vv = BoolVector(u, ub), BoolVector(u, vb)
                    t = tensor(uu, vv)
                    for i in range(n):
                        for j in range(n):
                            assert t[i, j] == (uu[i] & vv[j])

    def test_kept_block(self):
        kept = vec(U3, [0, 1, 1])
        assert tensor(kept, kept).rows() == [[0, 0, 0], [0, 1, 1], [0, 1, 1]]

    def test_zero_absorbs(self):
        v = vec(U3, [1, 0, 1])
        assert tensor(BoolVector.zeros(U3), v).is_zero()

    def test_ones(self):
        assert tensor(BoolVector.ones(U2), BoolVector.ones(U2)) == BoolMatrix.ones(U2)


class TestBoundedOne:
    def test_full(self):
        assert bounded_one(BoolVector.ones(U2)) == BoolMatrix.ones(U2)

    def test_empty(self):
        assert bounded_one(BoolVector.zeros(U2)).is_zero()

    def test_partial(self):
        got = bounded_one(vec(U3, [1, 0, 1]))
        assert got.rows() == [[1, 0, 1], [0, 0, 0], [1, 0, 1]]


class TestContains:
    @given(matrices())
    def test_zero_in_anything(self, b):
        assert contains(BoolMatrix.zeros(U2), b)

    @given(matrices())
    def test_reflexive(self, b):
        assert contains(b, b)

    def test_not_contained(self):
        assert not contains(mat(U2, [[1, 1], [0, 0]]), mat(U2, [[1, 0], [0, 0]]))


class TestCompleteTo:
    def test_identity(self):
        a = mat(U2, [[0, 1], [1, 0]])
        assert complete_to(a, U2) == a

    def test_zero_fill(self):
        a = mat(U2, [[0, 1], [0, 0]])
        assert complete_to(a, U3).rows() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_rhs_gains_zero_row_and_column(self):
        rhs = Digraph.of(U2, "ab", [("b", "a")])
        lifted = complete_to(rhs, U3)
        assert lifted.edges.rows() == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
        assert lifted.nodes.tolist() == [1, 1, 0]

    def test_permuting_mapping(self):
        a = mat(U2, [[0, 1], [0, 0]])
        got = complete_to(a, U3, {"a": "c", "b": "a"})
        assert got.rows() == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]

    def test_non_injective_rejected(self):
        a = mat(U2, [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            complete_to(a, U3, {"a": "c", "b": "c"})

    def test_unknown_label_rejected(self):
        a = mat(U2, [[0, 0], [0, 0]])
        with pytest.raises(KeyError):
            complete_to(a, U3, {"a": "z", "b": "a"})

    def test_unmapped_content_rejected(self):
        a = mat(U2, [[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="^unmapped label carries content: edge 'a'->'b'$"):
            complete_to(a, U3, {"a": "a"})

    def test_unmapped_vector_content_rejected(self):
        v = vec(U3, [1, 0, 1])
        with pytest.raises(ValueError, match="^unmapped label 'c' carries content$"):
            complete_to(v, U3, {"a": "b", "b": "c"})

    @given(matrices())
    def test_preserves_cell_count(self, a):
        assert complete_to(a, U3).count() == a.count()


class TestCompatibility:
    def test_empty_graph(self):
        assert is_compatible(Digraph.empty(U2))

    def test_proper_edge(self):
        assert is_compatible(Digraph.of(U2, "ab", [("a", "b")]))

    def test_dangling_edge(self):
        g = Digraph(mat(U2, [[0, 1], [0, 0]]), vec(U2, [1, 0]))
        assert not is_compatible(g)


class TestBooleanLaws:
    @given(matrices(), matrices(), matrices())
    def test_lattice_laws(self, a, b, c):
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        assert ((a & b) & c) == (a & (b & c))
        assert (a & a) == a
        assert (a | a) == a


class TestCellReads:
    """Row slices and set-bit walks agree with reading each cell by index."""

    @given(st.data())
    def test_agree_with_getitem(self, data):
        n = data.draw(st.integers(0, 70))
        u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
        m = BoolMatrix(u, data.draw(st.integers(0, (1 << n * n) - 1)))
        v = BoolVector(u, data.draw(st.integers(0, (1 << n) - 1)))
        cells = [(i, j) for i in range(n) for j in range(n)]
        assert m.rows() == [[m[i, j] for j in range(n)] for i in range(n)]
        assert v.tolist() == [v[i] for i in range(n)]
        assert m.edges() == tuple((u.labels[i], u.labels[j]) for i, j in cells if m[i, j])
        assert v.labels() == tuple(l for i, l in enumerate(u.labels) if v[i])
