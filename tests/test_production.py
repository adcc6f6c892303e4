"""Static/dynamic rules, nihilation, the swap operator and its census."""

import random

import pytest

from mgg import (
    BoolMatrix,
    BoolVector,
    ComplexTerm,
    Digraph,
    NodeUniverse,
    Production,
    apply_production,
    apply_swap,
    bounded_one,
    census_bruteforce,
    complement,
    contains,
    ell,
    is_self_adjoint,
    norm,
    p_operator,
    pmma_normalize,
    random_production,
    swap_census,
)
from mgg.oracle import rows_of, values_of

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")


def rule(universe, name, lhs_nodes, lhs_edges, rhs_nodes, rhs_edges):
    return Production.from_static(
        name,
        Digraph.of(universe, lhs_nodes, lhs_edges),
        Digraph.of(universe, rhs_nodes, rhs_edges),
    )


@pytest.fixture(scope="module")
def renew():
    """Deletes node a and the a->b edge, adds node c and the b->c edge."""
    return rule(U3, "renew", "ab", [("a", "b")], "bc", [("b", "c")])


class TestFromStatic:
    def test_identity_rule(self):
        g = Digraph.of(U2, "ab", [("a", "b")])
        p = Production.identity("noop", g)
        actions = (p.deleted_edges, p.added_edges, p.deleted_nodes, p.added_nodes)
        assert all(x.is_zero() for x in actions)
        assert p.nihilation.is_zero()
        assert p.rhs_nihilation.is_zero()
        assert p.compatible

    def test_worked_swap_pair_actions(self):
        p2 = rule(U2, "p2", "ab", [("a", "a"), ("b", "b")], "ab", [("a", "b")])
        p3 = rule(U2, "p3", "ab", [("a", "a"), ("a", "b")], "ab", [("b", "b")])
        assert rows_of(p2.deleted_edges) == [[1, 0], [0, 1]]
        assert rows_of(p3.deleted_edges) == [[1, 1], [0, 0]]
        assert rows_of(p2.added_edges) == [[0, 1], [0, 0]]
        assert rows_of(p3.added_edges) == [[0, 0], [0, 1]]

    def test_round_trip_reconstructs_rhs(self):
        rng = random.Random(11)
        for _ in range(300):
            p = random_production(rng, U3)
            assert apply_production(p, p.lhs) == p.rhs

    def test_action_invariants(self):
        rng = random.Random(12)
        for _ in range(300):
            p = random_production(rng, U3)
            assert (p.deleted_edges & p.added_edges).is_zero()
            assert (p.added_edges & p.lhs.edges).is_zero()
            assert contains(p.deleted_edges, p.lhs.edges)
            assert (p.lhs.edges & p.nihilation).is_zero()


class TestNihilation:
    def test_no_actions_no_forbidden_edges(self):
        p = Production.identity("noop", Digraph.of(U2, "ab", [("a", "b")]))
        assert p.nihilation.is_zero()

    def test_deleted_node_row_and_column(self):
        p = rule(U2, "drop", "ab", [("a", "b")], "b", [])
        assert rows_of(p.nihilation) == [[1, 0], [1, 0]]

    def test_worked_example(self, renew):
        assert rows_of(renew.nihilation) == [[1, 0, 1], [1, 0, 1], [1, 0, 0]]

    def test_per_edge_oracle(self):
        # The whole dynamic form, cell by cell, from its definitions.  Each
        # random rule also runs with one rhs cell or node flipped, so that
        # some pairs are not compatible.
        rng = random.Random(13)
        for n, count in ((1, 40), (2, 100), (3, 300), (8, 60), (64, 2)):
            universe = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for _ in range(count):
                p = random_production(rng, universe)
                edges, nodes = p.rhs.edges, p.rhs.nodes
                flip_edge = BoolMatrix(universe, edges.bits ^ 1 << rng.randrange(n * n))
                flip_node = BoolVector(universe, nodes.bits ^ 1 << rng.randrange(n))
                for rhs in (p.rhs, Digraph(flip_edge, nodes), Digraph(edges, flip_node)):
                    check_dynamic_form(Production.from_static("q", p.lhs, rhs))


def check_dynamic_form(p):
    n = len(p.universe)
    lhs_e, rhs_e = rows_of(p.lhs.edges), rows_of(p.rhs.edges)
    lhs_v, rhs_v = values_of(p.lhs.nodes), values_of(p.rhs.nodes)
    deleted, added = rows_of(p.deleted_edges), rows_of(p.added_edges)
    nihil, rhs_nihil = rows_of(p.nihilation), rows_of(p.rhs_nihilation)
    assert values_of(p.deleted_nodes) == [a & (not b) for a, b in zip(lhs_v, rhs_v)]
    assert values_of(p.added_nodes) == [b & (not a) for a, b in zip(lhs_v, rhs_v)]
    gone = values_of(p.deleted_nodes)
    compatible = True
    for i in range(n):
        for j in range(n):
            assert deleted[i][j] == (lhs_e[i][j] and not rhs_e[i][j])
            assert added[i][j] == (rhs_e[i][j] and not lhs_e[i][j])
            incident_deleted = gone[i] or gone[j]
            assert nihil[i][j] == ((incident_deleted and not deleted[i][j]) or added[i][j])
            assert rhs_nihil[i][j] == (deleted[i][j] or (not added[i][j] and nihil[i][j]))
            if rhs_e[i][j] and (rhs_nihil[i][j] or not (rhs_v[i] and rhs_v[j])):
                compatible = False
    assert p.compatible == compatible


class TestEvolveNihil:
    def test_identity(self):
        p = Production.identity("noop", Digraph.of(U2, "ab", []))
        assert p.rhs_nihilation.is_zero()

    def test_worked_example(self, renew):
        assert rows_of(renew.rhs_nihilation) == [[1, 1, 1], [1, 0, 0], [1, 0, 0]]

    def test_deleted_block_stays_forbidden(self):
        # edges around deleted nodes remain forbidden on the right side
        rng = random.Random(14)
        for universe in (U2, U3, NodeUniverse.of("a", "b", "c", "d")):
            for _ in range(150):
                p = random_production(rng, universe)
                kept = complement(p.deleted_nodes, BoolVector.ones(universe))
                dangling = complement(bounded_one(kept), BoolMatrix.ones(universe))
                assert contains(dangling, p.rhs_nihilation)


class TestApplyProduction:
    def test_identity_leaves_host(self):
        g = Digraph.of(U2, "ab", [("a", "b"), ("b", "a")])
        p = Production.identity("noop", g)
        x = Digraph.of(U2, "ab", [("b", "a")])
        assert apply_production(p, x) == x

    def test_per_cell_oracle(self):
        rng = random.Random(15)
        n = len(U3)
        for _ in range(300):
            p = random_production(rng, U3)
            bits = rng.getrandbits(n * n)
            x = Digraph(BoolMatrix(U3, bits), BoolVector.ones(U3))
            got = apply_production(p, x)
            for i in range(n):
                for j in range(n):
                    expected = p.added_edges[i, j] or (
                        not p.deleted_edges[i, j] and x.edges[i, j]
                    )
                    assert bool(got.edges[i, j]) == bool(expected)


class TestPOperator:
    def test_worked_swap_pair(self):
        p2 = rule(U2, "p2", "ab", [("a", "a"), ("b", "b")], "ab", [("a", "b")])
        p3 = rule(U2, "p3", "ab", [("a", "a"), ("a", "b")], "ab", [("b", "b")])
        w2, w3 = p_operator(p2), p_operator(p3)
        assert w2 == w3
        assert rows_of(w2.term.cert_edges) == [[0, 0], [1, 0]]
        assert rows_of(w2.term.nihil_edges) == [[1, 1], [0, 1]]

    def test_identity_rule_is_all_certainty(self):
        p = Production.identity("noop", Digraph.of(U2, "ab", [("a", "b")]))
        w = p_operator(p)
        assert w.term.cert_edges == BoolMatrix.ones(U2)
        assert w.term.nihil_edges.is_zero()

    def test_swap_term_self_adjoint_with_full_norm(self):
        rng = random.Random(16)
        full = ell(bounded_one(BoolVector.ones(U3)))
        for _ in range(300):
            w = p_operator(random_production(rng, U3))
            assert is_self_adjoint(w.term)
            assert norm(w.term) == full

    def test_self_dot_is_unit_block(self):
        from mgg import dot

        rng = random.Random(17)
        for _ in range(200):
            w = p_operator(random_production(rng, U3))
            d = pmma_normalize(dot(w.term, w.term))
            assert d.cert_edges == bounded_one(BoolVector.ones(U3))
            assert d.nihil_edges.is_zero()


class TestApplySwap:
    def test_all_certainty_swap_keeps_term(self):
        p = Production.identity("noop", Digraph.of(U3, "abc", [("a", "b")]))
        w = p_operator(p)
        z = ComplexTerm.of(BoolMatrix(U3, 0b101), BoolMatrix(U3, 0b010))
        assert apply_swap(w, z).same_parts(z)

    def test_central_identity_randomized(self):
        rng = random.Random(18)
        for universe in (U2, U3):
            ones_e = BoolMatrix.ones(universe)
            for _ in range(500):
                p = random_production(rng, universe)
                got = apply_swap(p_operator(p), p.lhs_term())
                expect_cert = p.added_edges | (
                    complement(p.deleted_edges, ones_e) & p.lhs.edges
                )
                expect_nihil = p.deleted_edges | (
                    complement(p.added_edges, ones_e) & p.nihilation
                )
                assert got.cert_edges == expect_cert == p.rhs.edges
                assert got.nihil_edges == expect_nihil == p.rhs_nihilation

    def test_node_components_follow_kept_and_deleted(self):
        rng = random.Random(19)
        ones_v = BoolVector.ones(U3)
        for _ in range(300):
            p = random_production(rng, U3)
            got = apply_swap(p_operator(p), p.lhs_term())
            kept = complement(p.deleted_nodes, ones_v) & complement(p.added_nodes, ones_v)
            assert got.cert_nodes == (p.lhs.nodes & kept)
            assert got.nihil_nodes == p.deleted_nodes

    def test_complementary_terms_xor_rule(self):
        # when the nihil part is the complement of the certainty part, the
        # swapped certainty is the complement of (kept-cells xor certainty)
        rng = random.Random(20)
        ones_e = BoolMatrix.ones(U2)
        for _ in range(200):
            p = random_production(rng, U2)
            cert = BoolMatrix(U2, rng.getrandbits(4))
            z = ComplexTerm.of(cert, complement(cert, ones_e))
            got = apply_swap(p_operator(p), z)
            w = p_operator(p)
            assert got.cert_edges == complement(w.term.cert_edges ^ cert, ones_e)
            assert got.cert_edges == (w.nihil_edges ^ cert)

    def test_swap_restrictions(self):
        # a cell in both parts stays in both; a cell in neither stays out
        rng = random.Random(21)
        ones = BoolMatrix.ones(U3)
        for _ in range(200):
            p = random_production(rng, U3)
            a = BoolMatrix(U3, rng.getrandbits(9))
            b = BoolMatrix(U3, rng.getrandbits(9))
            got = apply_swap(p_operator(p), ComplexTerm.of(a, b))
            both = a & b
            neither = complement(a | b, ones)
            assert contains(both, got.cert_edges & got.nihil_edges)
            assert ((got.cert_edges | got.nihil_edges) & neither).is_zero()


class TestCompatibility:
    def test_identity_rule(self):
        p = Production.identity("noop", Digraph.of(U2, "ab", [("a", "b")]))
        assert p.compatible

    def test_worked_example(self, renew):
        assert (renew.rhs.edges & renew.rhs_nihilation).is_zero()
        assert renew.compatible

    def test_edge_added_at_deleted_node(self):
        # delete node b while adding an edge into it: the rhs dangles
        bad = Production.from_static(
            "bad",
            Digraph.of(U2, "ab", []),
            Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a")),
        )
        assert not bad.compatible


class TestCensus:
    def test_two_node_counts(self):
        table = swap_census(2)
        assert table.production_count == 256
        assert table.swap_count() == 16
        assert all(size == 16 for _, size in table.class_sizes)
        assert table.histogram == (1, 4, 6, 4, 1)

    def test_single_node_classes(self):
        table = swap_census(1)
        assert table.production_count == 4
        assert table.swap_count() == 2
        assert table.histogram == (1, 1)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            swap_census(3)

    def test_agrees_with_bruteforce(self):
        for n in (1, 2):
            assert swap_census(n) == census_bruteforce(n)

    def test_surjective_onto_self_adjoint_terms(self):
        # every self-adjoint edge term over 2 nodes is hit by some rule
        table = swap_census(2)
        hit = {swap.nihil_edges.bits for swap, _ in table.class_sizes}
        ones = BoolMatrix.ones(U2)
        for cert_bits in range(16):
            z = ComplexTerm.of(
                BoolMatrix(U2, cert_bits), complement(BoolMatrix(U2, cert_bits), ones)
            )
            assert is_self_adjoint(z)
            assert z.nihil_edges.bits in hit
