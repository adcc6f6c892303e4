"""Elementwise algebra, the all-ones block, completion, compatibility."""

import dataclasses
import operator
import random

import pytest
from hypothesis import given, strategies as st

from mgg import (
    BoolMatrix,
    BoolVector,
    ComplexTerm,
    Digraph,
    NodeUniverse,
    UniverseMismatchError,
    bounded_one,
    complement,
    complete_to,
    contains,
    is_compatible,
)
from mgg import oracle
from mgg.boolmat import _digits_from, block_bits
from mgg.oracle import matrix_of, rows_of, values_of, vector_of

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")
OPS = (operator.and_, operator.or_, operator.xor)


def all_vectors(max_n):
    """Every vector over the universes of 0..max_n nodes."""
    for n in range(max_n + 1):
        u = NodeUniverse(tuple(str(i) for i in range(n)))
        for bits in range(1 << n):
            yield BoolVector(u, bits)


def matrices(universe=U2):
    n = len(universe)
    return st.integers(0, (1 << (n * n)) - 1).map(lambda b: BoolMatrix(universe, b))


def vectors(universe=U2):
    n = len(universe)
    return st.integers(0, (1 << n) - 1).map(lambda b: BoolVector(universe, b))


def universe_of(n):
    return NodeUniverse(tuple(f"v{i}" for i in range(n)))


class TestRangeCheck:
    """Every construction checks its bits against the universe's cached masks."""

    SIZES = (0, 1, 8, 64)

    @pytest.mark.parametrize("n", SIZES)
    def test_out_of_range_bits_rejected(self, n):
        u = universe_of(n)
        for kind, cells, name in ((BoolMatrix, n * n, "matrix"), (BoolVector, n, "vector")):
            for bits in (1 << cells, -1):
                with pytest.raises(ValueError, match=f"^{name} bits out of range for universe$"):
                    kind(u, bits)
            assert kind(u, (1 << cells) - 1) == kind.ones(u)

    @pytest.mark.parametrize("n", SIZES)
    def test_built_values_stay_inside(self, n):
        u = universe_of(n)
        assert u.size == len(u) == n
        assert (u.vector_full, u.matrix_full) == ((1 << n) - 1, (1 << n * n) - 1)
        assert BoolMatrix.ones(u).bits == u.matrix_full
        assert BoolVector.ones(u).bits == u.vector_full
        assert (~BoolMatrix.zeros(u)).bits == u.matrix_full
        assert (~BoolVector.ones(u)).bits == 0
        assert bounded_one(BoolVector.ones(u)) == BoolMatrix.ones(u)
        if n:
            v = BoolVector(u, 1 | 1 << (n - 1))
            assert bounded_one(v).bits == oracle._block_bits(v)
            assert (~bounded_one(v)).count() == n * n - v.count() ** 2

    @pytest.mark.parametrize("n", SIZES)
    def test_cached_fields_leave_identity_alone(self, n):
        a, b = universe_of(n), universe_of(n)
        assert a == b and hash(a) == hash(b)
        assert a != universe_of(n + 1)
        assert BoolMatrix(a, 0) == BoolMatrix(b, 0)
        grown = a.extended(["x", "y"])
        assert (grown.size, grown.vector_full) == (n + 2, (1 << n + 2) - 1)
        assert grown.matrix_full == (1 << (n + 2) ** 2) - 1

    def test_repr(self):
        assert repr(NodeUniverse.of("a")) == "NodeUniverse(labels=('a',))"
        assert repr(BoolVector(NodeUniverse.of("a"), 1)) == (
            "BoolVector(universe=NodeUniverse(labels=('a',)), bits=1)"
        )


class TestConstruction:
    """Packed values and digraphs set their slots only after the checks they always made."""

    def test_value_contract(self, value_contract):
        m, v = BoolMatrix(universe=U2, bits=0b1001), BoolVector(universe=U2, bits=0b01)
        assert (m.universe, m.bits, v.bits) == (U2, 0b1001, 0b01)
        g = Digraph(edges=m, nodes=v)
        assert (g.edges, g.nodes) == (m, v)
        for x in (m, v, g, BoolMatrix(universe_of(0), 0), Digraph.empty(U3)):
            value_contract(x)

    @pytest.mark.parametrize("kind, name", [(BoolMatrix, "matrix"), (BoolVector, "vector")])
    def test_every_construction_checks_the_range(self, kind, name):
        full = kind.ones(U2).bits
        builds = (
            lambda bits: kind(U2, bits),
            lambda bits: kind(universe=U2, bits=bits),
            lambda bits: dataclasses.replace(kind.zeros(U2), bits=bits),
        )
        for bits in (-1, full + 1, -(1 << 100), 1 << 100):
            for build in builds:
                with pytest.raises(ValueError, match=f"^{name} bits out of range for universe$"):
                    build(bits)
        assert [build(full) for build in builds] == [kind.ones(U2)] * 3

    def test_digraph_checks_its_universes(self):
        edges, nodes = BoolMatrix(U2, 0b0001), BoolVector(U3, 0b001)
        message = r"^universe mismatch: \('a', 'b'\) vs \('a', 'b', 'c'\)$"
        with pytest.raises(UniverseMismatchError, match=message):
            Digraph(edges, nodes)
        with pytest.raises(UniverseMismatchError, match=message):
            Digraph(edges=edges, nodes=nodes)
        g = Digraph(edges, BoolVector(U2, 0b01))
        with pytest.raises(UniverseMismatchError, match=message):
            dataclasses.replace(g, nodes=nodes)
        # An equal universe in another object is the same universe.
        same = Digraph(edges, BoolVector(NodeUniverse.of("a", "b"), 0b01))
        assert same == g and same.universe is U2


class TestElementwise:
    def test_and_annihilator(self):
        a = matrix_of(U2, [[1, 0], [0, 0]])
        zero = BoolMatrix.zeros(U2)
        assert a & zero == zero

    def test_and_worked_pair(self):
        forbidden = matrix_of(U3, [[1, 0, 1], [1, 0, 1], [1, 0, 0]])
        added = matrix_of(U3, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert rows_of(forbidden & added) == [[0, 0, 1], [0, 0, 1], [0, 0, 0]]

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
        ambient = matrix_of(U2, [[1, 1], [0, 1]])
        assert complement(BoolMatrix.zeros(U2), ambient) == ambient

    def test_of_ambient_is_zero(self):
        ambient = matrix_of(U2, [[1, 1], [0, 1]])
        assert complement(ambient, ambient).is_zero()

    def test_per_cell(self):
        a = matrix_of(U2, [[1, 0], [0, 0]])
        assert rows_of(complement(a, BoolMatrix.ones(U2))) == [[0, 1], [1, 1]]

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


class TestBoundedOne:
    def test_full(self):
        assert bounded_one(BoolVector.ones(U2)) == BoolMatrix.ones(U2)

    def test_empty(self):
        assert bounded_one(BoolVector.zeros(U2)).is_zero()

    def test_partial(self):
        got = bounded_one(vector_of(U3, [1, 0, 1]))
        assert rows_of(got) == [[1, 0, 1], [0, 0, 0], [1, 0, 1]]

    def test_oracle_all_cells(self):
        # Every node set of up to 6 nodes.
        for v in all_vectors(6):
            assert bounded_one(v).bits == oracle._block_bits(v)

    @pytest.mark.parametrize("n", [0, 1, 2, 13, 31, 32, 33, 64, 127, 128, 129, 256])
    def test_block_bits_empty_partial_and_full(self, n):
        # Empty, one node, n/4 ± 1, half, all but one and every node, each set
        # at seeded positions; plus every other node and the last node alone.
        u, rng = universe_of(n), random.Random(n)
        counts = {c for c in (0, 1, n // 4 - 1, n // 4 + 1, n // 2, n - 1, n) if 0 <= c <= n}
        sets = [sum(1 << i for i in rng.sample(range(n), k)) for k in sorted(counts)]
        for nodes in sets + [u.vector_full // 3, u.vector_full >> 1 ^ u.vector_full]:
            assert block_bits(u, nodes) == oracle._block_bits(BoolVector(u, nodes)), (n, nodes)
        assert block_bits(u, u.vector_full) == u.matrix_full

    @given(st.data())
    def test_block_bits_at_every_size_and_popcount(self, data):
        # The popcount's ends (empty, one present, one absent, full) come up often.
        n = data.draw(st.integers(0, 70) | st.just(128))
        k = data.draw(st.sampled_from(sorted({0, min(1, n), max(n - 1, 0), n})) | st.integers(0, n))
        order = data.draw(st.permutations(range(n)))
        nodes = sum(1 << i for i in order[:k])
        u = universe_of(n)
        assert block_bits(u, nodes) == oracle._block_bits(BoolVector(u, nodes))

    def test_complement_is_incident_to_the_node_set(self):
        # ~bounded_one(~d): every edge with an end in d, as the kept-block sites read it
        for d in all_vectors(4):
            block = ~bounded_one(~d)
            n = len(d.universe)
            assert rows_of(block) == [[d[i] | d[j] for j in range(n)] for i in range(n)]


class TestContains:
    @given(matrices())
    def test_zero_in_anything(self, b):
        assert contains(BoolMatrix.zeros(U2), b)

    @given(matrices())
    def test_reflexive(self, b):
        assert contains(b, b)

    def test_not_contained(self):
        assert not contains(matrix_of(U2, [[1, 1], [0, 0]]), matrix_of(U2, [[1, 0], [0, 0]]))


class TestCompleteTo:
    def test_identity(self):
        a = matrix_of(U2, [[0, 1], [1, 0]])
        assert complete_to(a, U2) == a

    def test_zero_fill(self):
        a = matrix_of(U2, [[0, 1], [0, 0]])
        assert rows_of(complete_to(a, U3)) == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_rhs_gains_zero_row_and_column(self):
        rhs = Digraph.of(U2, "ab", [("b", "a")])
        lifted = complete_to(rhs, U3)
        assert rows_of(lifted.edges) == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
        assert values_of(lifted.nodes) == [1, 1, 0]

    def test_permuting_mapping(self):
        # The target orders the labels differently: each cell goes by label.
        a = matrix_of(U2, [[0, 1], [0, 0]])
        got = complete_to(a, NodeUniverse.of("b", "c", "a"))
        assert rows_of(got) == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]

    def test_unknown_label_rejected(self):
        g = Digraph.of(U3, "c", [("a", "c")])
        for x in (g.edges, g.nodes, g):
            with pytest.raises(KeyError) as err:
                complete_to(x, NodeUniverse.of("b", "a"))
            assert err.value.args == ("unknown target label 'c'",)
        with pytest.raises(TypeError, match="^cannot complete value of type ComplexTerm$"):
            complete_to(ComplexTerm.zero(U2), U3)

    def test_agrees_with_per_cell_placement(self):
        # Targets are shuffled supersets, so the source is not a prefix of them.
        rng = random.Random(36)
        for n in list(range(0, 71, 5)) + [1, 2, 3, 63, 64, 65]:
            source = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            labels = list(source.labels) + [f"w{i}" for i in range(rng.randint(1, 9))]
            rng.shuffle(labels)
            target = NodeUniverse(tuple(labels))
            g = oracle.random_digraph(rng, source, 0.8, rng.choice([0.02, 0.3]))
            at = [target.index(label) for label in source.labels]
            rows, values = [[0] * len(target) for _ in labels], [0] * len(target)
            for i, row in enumerate(rows_of(g.edges)):
                values[at[i]] = g.nodes[i]
                for j, value in enumerate(row):
                    rows[at[i]][at[j]] = value
            want = Digraph(matrix_of(target, rows), vector_of(target, values))
            assert complete_to(g.edges, target) == want.edges
            assert complete_to(g.nodes, target) == want.nodes
            assert complete_to(g, target) == want

    @given(matrices())
    def test_preserves_cell_count(self, a):
        assert complete_to(a, U3).count() == a.count()


class TestCompatibility:
    def test_empty_graph(self):
        assert is_compatible(Digraph.empty(U2))

    def test_proper_edge(self):
        assert is_compatible(Digraph.of(U2, "ab", [("a", "b")]))

    def test_dangling_edge(self):
        g = Digraph(matrix_of(U2, [[0, 1], [0, 0]]), vector_of(U2, [1, 0]))
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
    """Row slices, cell strings and set-bit walks agree with reading each cell by index."""

    @given(st.data())
    def test_agree_with_getitem(self, data):
        n = data.draw(st.integers(0, 70))
        u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
        m = BoolMatrix(u, data.draw(st.integers(0, (1 << n * n) - 1)))
        v = BoolVector(u, data.draw(st.integers(0, (1 << n) - 1)))
        cells = [(i, j) for i in range(n) for j in range(n)]
        assert m.row_masks() == [sum(m[i, j] << j for j in range(n)) for i in range(n)]
        assert BoolMatrix.from_row_masks(u, m.row_masks()) == m
        assert m.column_masks() == [sum(m[i, j] << i for i in range(n)) for j in range(n)]
        assert m.edges() == tuple((u.labels[i], u.labels[j]) for i, j in cells if m[i, j])
        assert v.labels() == tuple(l for i, l in enumerate(u.labels) if v[i])
        assert m.cells() == "".join(str(m[i, j]) for i, j in cells)
        assert v.cells() == "".join(str(v[i]) for i in range(n))


class TestCellNames:
    @pytest.mark.parametrize("n", (0, 1, 2, 7, 8, 9, 64, 65))
    def test_each_entry_names_its_cell(self, n):
        # '-' and '>' next to the arrow: a token is read back by its first "->".
        u = NodeUniverse(tuple(("v{}", "v{}-", ">v{}")[i % 3].format(i) for i in range(n)))
        names = u.cell_names
        assert len(names) == n * n
        for a in u.labels:
            for b in u.labels:
                assert names[u.cell(a, b)] == f"{a}->{b}"
        assert u.cell_names is names  # built once, kept with the universe

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 8, 9, 64, 65, 129))
    def test_row_starts_are_column_zero(self, n):
        u = universe_of(n)
        assert u.row_starts == sum(1 << i * n for i in range(n))
        assert u.row_starts is u.row_starts

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 8, 9, 64, 65, 129))
    def test_diagonal_is_cell_i_i(self, n):
        u = universe_of(n)
        assert u.diagonal == sum(1 << i * (n + 1) for i in range(n))
        assert u.diagonal is u.diagonal


class TestPackers:
    """Both ways ``from_cells`` packs, each side of the density rule, against per-cell building."""

    @pytest.mark.parametrize("n", (0, 1, 8, 63, 64, 65, 128, 512))
    def test_from_edges_matches_the_oracle(self, n):
        rng = random.Random(n)
        u = universe_of(n)
        at = _digits_from(n)
        counts = sorted({c for c in (0, 1, at - 1, at, at + 1, n * n // 2) if c <= n * n})
        for count in counts:
            cells = rng.sample(range(n * n), count)
            rows = [[0] * n for _ in range(n)]
            for cell in cells:
                rows[cell // n][cell % n] = 1
            expected = matrix_of(u, rows)
            edges = [(u.labels[cell // n], u.labels[cell % n]) for cell in cells]
            assert [u.cell(src, dst) for src, dst in edges] == cells
            assert BoolMatrix.from_edges(u, edges) == expected, (n, count)
            # A repeated cell sets it once, on either path.
            assert BoolMatrix.from_cells(u, cells + cells[:1]) == expected, (n, count)
