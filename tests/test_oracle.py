"""Brute-force validators: matching, minimal hosts, parity raster, census."""

import random

import pytest

from mgg import (
    BoolMatrix,
    BoolVector,
    Digraph,
    Match,
    NodeUniverse,
    RuleSequence,
    applies_at_identity,
    brute_matches,
    census_bruteforce,
    coherence,
    find_matches,
    gasket_raster,
    initial_digraph,
    minimal_hosts,
    pascal_mod2,
    random_digraph,
    random_production,
    random_sequence,
    sequence_compatibility,
    swap_census,
)
from conftest import rule

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")


class TestBruteMatches:
    def test_empty_lhs(self):
        p = rule(U2, "free", "", [], "", [])
        g = Digraph.of(U2, "ab", [("a", "b")])
        assert brute_matches(p, g) == [Match(())]

    def test_rejects_missing_lhs_edge(self):
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        g = Digraph.of(U2, "ab", [])
        assert brute_matches(p, g) == []

    def test_size_limit(self):
        u8 = NodeUniverse(tuple("12345678"))
        p = rule(U2, "free", "", [], "", [])
        with pytest.raises(ValueError):
            brute_matches(p, Digraph(BoolMatrix.zeros(u8), BoolVector.ones(u8)))

    def test_agreement_on_random_pairs(self):
        rng = random.Random(61)
        host_u = NodeUniverse.of("1", "2", "3", "4", "5")
        for _ in range(300):
            p = random_production(rng, U3)
            g = random_digraph(rng, host_u, node_density=0.7, edge_density=0.4)
            assert brute_matches(p, g) == find_matches(p, g)


class TestMinimalHosts:
    def test_single_rule_is_its_lhs(self):
        rng = random.Random(62)
        found = 0
        for _ in range(60):
            p = random_production(rng, U3, node_add_prob=0.0)
            if not p.compatible:
                continue
            s = RuleSequence.of(p)
            hosts = minimal_hosts(s)
            assert hosts == [Digraph(p.lhs.edges, p.lhs.nodes)]
            found += 1
        assert found > 20

    def test_worked_sequence_unique_minimal_host(self, handover):
        m = initial_digraph(handover)
        hosts = minimal_hosts(handover)
        assert hosts == [Digraph(m.cert_edges, m.cert_nodes)]

    def test_removing_any_required_edge_fails(self, handover):
        m = initial_digraph(handover)
        for src, dst in m.cert_edges.edges():
            smaller = BoolMatrix.from_edges(
                U3, [e for e in m.cert_edges.edges() if e != (src, dst)]
            )
            assert not applies_at_identity(handover, Digraph(smaller, m.cert_nodes))

    def test_each_forbidden_edge_blocks(self, handover):
        m = initial_digraph(handover)
        for src, dst in m.nihil_edges.edges():
            bigger = m.cert_edges | BoolMatrix.from_edges(U3, [(src, dst)])
            host = Digraph(bigger, m.cert_nodes)
            assert not applies_at_identity(handover, host)

    def test_bounds(self):
        u5 = NodeUniverse(tuple("12345"))
        p = rule(u5, "big", "1", [], "1", [])
        with pytest.raises(ValueError):
            minimal_hosts(RuleSequence.of(p))
        p3 = rule(U2, "small", "a", [], "a", [])
        with pytest.raises(ValueError):
            minimal_hosts(RuleSequence.of(p3, p3, p3, p3))


class TestPascal:
    def test_row_and_column_zero_full(self):
        bitmap = pascal_mod2(4)
        assert all(bitmap.pixel(x, 0) for x in range(16))
        assert all(bitmap.pixel(0, y) for y in range(16))

    def test_center_of_two(self):
        assert pascal_mod2(1).pixel(1, 1) == 0

    def test_equals_gasket(self):
        for bits in range(1, 8):
            assert pascal_mod2(bits).to_p1() == gasket_raster(bits).to_p1()

    def test_size_limit(self):
        with pytest.raises(ValueError):
            pascal_mod2(13)


class TestCensusBruteforce:
    def test_two_nodes(self):
        table = census_bruteforce(2)
        assert table.production_count == 256
        assert table.swap_count() == 16
        assert all(size == 16 for _, size in table.class_sizes)
        assert table.histogram == (1, 4, 6, 4, 1)

    def test_agrees_with_main_census(self):
        for n in (1, 2):
            assert census_bruteforce(n) == swap_census(n)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            census_bruteforce(3)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="^census needs a node count of at least 0, not -1$"):
            census_bruteforce(-1)


class TestGenerators:
    def test_reproducible_from_seed(self):
        a = random_sequence(random.Random(99), U3, 2)
        b = random_sequence(random.Random(99), U3, 2)
        for p, q in zip(a.rules, b.rules):
            assert p.lhs == q.lhs and p.rhs == q.rhs

    def test_generated_rules_lhs_is_digraph(self):
        from mgg import is_compatible

        rng = random.Random(63)
        for _ in range(200):
            p = random_production(rng, U3)
            assert is_compatible(p.lhs)
            assert is_compatible(p.rhs)

    def test_stepwise_run_of_coherent_compatible_sequences(self):
        # the smallest host really fires the whole sequence step by step
        rng = random.Random(64)
        exercised = 0
        for _ in range(2000):
            s = random_sequence(rng, U3, 2)
            if not all(p.compatible for p in s.rules):
                continue
            if not (coherence(s).ok and sequence_compatibility(s).ok):
                continue
            m = initial_digraph(s)
            assert applies_at_identity(s, Digraph(m.cert_edges, m.cert_nodes))
            exercised += 1
            if exercised >= 150:
                break
        assert exercised >= 150
