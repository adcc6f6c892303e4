"""Coherence, initial digraph, image, compatibility, G-congruence."""

import random
import warnings

import pytest

from mgg import (
    BoolMatrix,
    BoolVector,
    ComplexTerm,
    Digraph,
    IncoherentSequenceWarning,
    NodeUniverse,
    Production,
    RuleSequence,
    applies_at_identity,
    coherence,
    complement,
    delta,
    g_congruence,
    image_of_sequence,
    initial_digraph,
    is_compatible,
    nabla,
    random_production,
    random_sequence,
    sequence_compatibility,
    sequential_independence,
    stepwise_image,
    t_matrix,
)
from mgg import sequence
from mgg.oracle import rows_of, values_of
from mgg.sequence import _lscan, _rscan, _scan

U3 = NodeUniverse.of("a", "b", "c")


def rule(universe, name, lhs_nodes, lhs_edges, rhs_nodes, rhs_edges):
    return Production.from_static(
        name,
        Digraph.of(universe, lhs_nodes, lhs_edges),
        Digraph.of(universe, rhs_nodes, rhs_edges),
    )


def coherent_compatible_pairs(rng, universe, count, tries=5000, node_add_prob=0.25):
    """Random two-rule sequences passing both checks, up to ``count``."""
    found = []
    for _ in range(tries):
        s = random_sequence(rng, universe, 2, node_add_prob=node_add_prob)
        if not all(p.compatible for p in s.rules):
            continue
        if coherence(s).ok and sequence_compatibility(s).ok:
            found.append(s)
            if len(found) == count:
                break
    return found


class TestDeltaNabla:
    def setup_method(self):
        self.mats = {
            (x, y): BoolMatrix(U3, (x * 7 + y * 13) % 512)
            for x in range(1, 4)
            for y in range(1, 4)
        }
        self.zero = BoolMatrix.zeros(U3)

    def fam(self, x, y):
        return self.mats[(x, y)]

    def test_empty_range_is_zero(self):
        assert delta(2, 1, self.fam, self.zero) == self.zero
        assert nabla(3, 1, self.fam, self.zero) == self.zero

    def test_single_index(self):
        assert delta(2, 2, self.fam, self.zero) == self.mats[(2, 2)]
        assert nabla(2, 2, self.fam, self.zero) == self.mats[(2, 2)]

    def test_two_step_expansions(self):
        got = nabla(1, 2, self.fam, self.zero)
        expect = self.mats[(1, 1)] | (self.mats[(1, 2)] & self.mats[(2, 2)])
        assert got == expect
        got = delta(1, 2, self.fam, self.zero)
        expect = (self.mats[(1, 1)] & self.mats[(2, 1)]) | self.mats[(2, 2)]
        assert got == expect

    def test_delta_tracks_surviving_additions(self):
        # added by some rule and not deleted later == simulation of the edges
        rng = random.Random(41)
        for _ in range(200):
            s = random_sequence(rng, U3, 2)
            added = delta(
                1,
                2,
                lambda x, y: complement(s.rule(x).deleted_edges, BoolMatrix.ones(U3))
                & s.rule(y).added_edges,
                self.zero,
            )
            sim = BoolMatrix.zeros(U3)
            for p in s.rules:
                sim = p.added_edges | (
                    complement(p.deleted_edges, BoolMatrix.ones(U3)) & sim
                )
            assert added == sim


class TestScans:
    """The separable scans against the generic double-loop reference."""

    @staticmethod
    def factor_lists(rng):
        universe = NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(2, 4))))
        kind = rng.choice((BoolMatrix, BoolVector))
        width = len(universe) ** 2 if kind is BoolMatrix else len(universe)
        length = rng.randint(0, 12)

        def draw():
            return [kind(universe, rng.getrandbits(width)) for _ in range(length)]

        return draw(), draw(), kind.zeros(universe), kind(universe, rng.getrandbits(width))

    @staticmethod
    def separable(a, b):
        return lambda x, y: a[x - 1] & b[y - 1]

    def test_scans_equal_reference_on_every_range(self):
        rng = random.Random(53)
        for _ in range(150):
            a, b, zero, _ = self.factor_lists(rng)
            n = len(a)
            family = self.separable(a, b)
            assert _scan(a, b, zero) == [delta(1, t, family, zero) for t in range(n + 1)]
            assert _rscan(a, b, zero) == [nabla(t, n, family, zero) for t in range(1, n + 2)]
            for t0 in range(1, n + 2):
                for t1 in range(t0 - 1, n + 1):
                    part_a, part_b = a[t0 - 1 : t1], b[t0 - 1 : t1]
                    assert _scan(part_a, part_b, zero)[-1] == delta(t0, t1, family, zero)
                    assert _rscan(part_a, part_b, zero)[0] == nabla(t0, t1, family, zero)

    def test_seeded_scan_adds_kept_start(self):
        # The image's reading: a scan from m is Δ(1, n) | (AND of every A(x)) & m.
        rng = random.Random(59)
        for _ in range(150):
            a, b, zero, m = self.factor_lists(rng)
            kept = m
            for ax in a:
                kept = kept & ax
            family = self.separable(a, b)
            assert _scan(a, b, m)[-1] == delta(1, len(a), family, zero) | kept

    def test_prefix_scan_equals_reference_on_every_prefix(self):
        # Entry m of the forward pass is ∇(1, m): every prefix's initial digraph part.
        rng = random.Random(61)
        for _ in range(150):
            a, b, zero, _ = self.factor_lists(rng)
            family = self.separable(a, b)
            assert _lscan(a, b, zero) == [nabla(1, m, family, zero) for m in range(len(a) + 1)]


class TestWitnessMasks:
    """Witness masks against the per-position closed forms on the generic Δ/∇."""

    @staticmethod
    def sequences():
        rng = random.Random(71)
        for _ in range(200):
            universe = NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(2, 6))))
            yield random_sequence(
                rng, universe, rng.randint(1, 12), node_add_prob=rng.choice((0, 0.25, 0.6))
            )

    @staticmethod
    def flagged(entries):
        return tuple(entry for entry in entries if not entry[2].is_zero())

    def test_coherence_masks_per_position(self):
        for s in self.sequences():
            n, r = len(s), s.rule
            zero, zero_v = BoolMatrix.zeros(s.universe), BoolVector.zeros(s.universe)
            expected = []
            for j in range(1, n + 1):
                pj = r(j)
                plus = (
                    pj.rhs.edges
                    & nabla(j + 1, n, lambda x, y: ~r(x).deleted_edges & r(y).added_edges, zero)
                ) | (
                    pj.lhs.edges
                    & delta(1, j - 1, lambda x, y: r(y).deleted_edges & ~r(x).added_edges, zero)
                )
                minus = (
                    pj.rhs_nihilation
                    & nabla(j + 1, n, lambda x, y: r(y).deleted_edges & ~r(x).added_edges, zero)
                ) | (
                    pj.nihilation
                    & delta(1, j - 1, lambda x, y: r(y).added_edges & ~r(x).deleted_edges, zero)
                )
                plus_nodes = (
                    pj.rhs.nodes
                    & nabla(j + 1, n, lambda x, y: ~r(x).deleted_nodes & r(y).added_nodes, zero_v)
                ) | (
                    pj.lhs.nodes
                    & delta(1, j - 1, lambda x, y: r(y).deleted_nodes & ~r(x).added_nodes, zero_v)
                )
                expected += [("+", j, plus), ("-", j, minus), ("+", j, plus_nodes)]
            assert coherence(s).witnesses == self.flagged(expected)

    def test_compatibility_masks_per_prefix(self):
        for s in self.sequences():
            r = s.rule
            zero = BoolMatrix.zeros(s.universe)
            expected = []
            for m in range(1, len(s) + 1):
                cert = nabla(1, m, lambda x, y: ~r(x).added_edges & r(y).lhs.edges, zero)
                nihil = nabla(
                    1,
                    m,
                    lambda x, y: ~r(x).deleted_edges & ~t_matrix(r(x)) & r(y).nihilation,
                    zero,
                )
                clash = ~r(m).deleted_edges & ~r(m).added_edges & cert & nihil
                expected.append(("+", m, clash))
            assert sequence_compatibility(s).witnesses == self.flagged(expected)


class TestCoherence:
    def test_worked_defect_pair(self, clash):
        report = coherence(clash)
        assert not report.ok
        assert rows_of(report.term.cert_edges) == [[0, 0, 0], [0, 0, 1], [0, 0, 1]]
        assert rows_of(report.term.nihil_edges) == [[0, 0, 1], [0, 0, 1], [0, 0, 0]]

    def test_witnesses_cover_exactly_the_defects(self, clash):
        report = coherence(clash)
        u = clash.universe
        covered = {
            ("+", BoolMatrix): BoolMatrix.zeros(u),
            ("-", BoolMatrix): BoolMatrix.zeros(u),
            ("+", BoolVector): BoolVector.zeros(u),
        }
        for part, _, cells in report.witnesses:
            assert not cells.is_zero()
            covered[part, type(cells)] = covered[part, type(cells)] | cells
        assert covered == {
            ("+", BoolMatrix): report.term.cert_edges,
            ("-", BoolMatrix): report.term.nihil_edges,
            ("+", BoolVector): report.term.cert_nodes,
        }

    def test_single_rule_always_coherent(self):
        rng = random.Random(42)
        for _ in range(100):
            s = RuleSequence.of(random_production(rng, U3))
            assert coherence(s).ok

    def test_disjoint_rules_coherent(self):
        u = NodeUniverse.of("a", "b", "c", "d")
        left = rule(u, "left", "ab", [("a", "b")], "ab", [("b", "a")])
        right = rule(u, "right", "cd", [("c", "d")], "cd", [("d", "c")])
        assert coherence(RuleSequence.of(left, right)).ok

    def test_worked_two_step_sequence_coherent(self, handover):
        assert coherence(handover).ok

    def test_prefixes_of_coherent_sequence(self, handover):
        for length in range(1, len(handover) + 1):
            assert coherence(handover.prefix(length)).ok


class TestTMatrix:
    def test_no_node_actions(self):
        p = rule(U3, "still", "ab", [("a", "b")], "ab", [])
        assert t_matrix(p).is_zero()

    def test_delete_one_add_another(self):
        p = rule(U3, "renew", "ab", [("a", "b")], "bc", [("b", "c")])
        assert rows_of(t_matrix(p)) == [[0, 0, 0], [0, 0, 1], [0, 1, 1]]

    def test_per_edge_oracle(self):
        rng = random.Random(43)
        u4 = NodeUniverse.of("a", "b", "c", "d")
        for _ in range(200):
            p = random_production(rng, u4)
            t = t_matrix(p)
            for i in range(4):
                for j in range(4):
                    incident_added = p.added_nodes[i] or p.added_nodes[j]
                    incident_deleted = p.deleted_nodes[i] or p.deleted_nodes[j]
                    assert bool(t[i, j]) == (incident_added and not incident_deleted)


class TestInitialDigraph:
    def test_worked_example(self, handover):
        m = initial_digraph(handover)
        assert rows_of(m.cert_edges) == [[1, 1, 0], [0, 1, 0], [1, 1, 0]]
        assert rows_of(m.nihil_edges) == [[0, 0, 1], [1, 0, 1], [0, 0, 1]]
        assert values_of(m.cert_nodes) == [1, 1, 1]

    def test_single_rule_is_lhs_with_nihilation(self):
        # forbidden edges at the rule's own added nodes are vacuous (the
        # nodes do not exist yet) and drop out of the requirement
        rng = random.Random(44)
        for _ in range(100):
            p = random_production(rng, U3)
            m = initial_digraph(RuleSequence.of(p))
            assert m.cert_edges == p.lhs.edges
            assert m.cert_nodes == p.lhs.nodes
            fresh = complement(t_matrix(p), BoolMatrix.ones(U3))
            assert m.nihil_edges == (p.nihilation & fresh)
            if p.added_nodes.is_zero():
                assert m.nihil_edges == p.nihilation

    def test_warns_when_incoherent(self, clash):
        with pytest.warns(IncoherentSequenceWarning):
            initial_digraph(clash)

    def test_fires_at_identity_and_is_minimal(self):
        rng = random.Random(45)
        sequences = coherent_compatible_pairs(rng, U3, 40)
        assert len(sequences) == 40
        for s in sequences:
            m = initial_digraph(s)
            host = Digraph(m.cert_edges, m.cert_nodes)
            assert applies_at_identity(s, host)
            # dropping any single required edge must break the sequence
            for src, dst in m.cert_edges.edges():
                smaller = BoolMatrix.from_edges(
                    U3, [e for e in m.cert_edges.edges() if e != (src, dst)]
                )
                assert not applies_at_identity(s, Digraph(smaller, m.cert_nodes))


class TestImage:
    def test_single_rule_is_rhs_with_evolved_nihilation(self):
        rng = random.Random(46)
        for _ in range(100):
            p = random_production(rng, U3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IncoherentSequenceWarning)
                img = image_of_sequence(RuleSequence.of(p))
            assert img.cert_edges == p.rhs.edges
            assert img.cert_nodes == p.rhs.nodes
            assert img.nihil_edges == p.rhs_nihilation

    def test_identity_rules_leave_initial_digraph(self):
        g = Digraph.of(U3, "abc", [("a", "b"), ("c", "c")])
        noop = Production.identity("noop", g)
        s = RuleSequence.of(noop, noop)
        m = initial_digraph(s)
        img = image_of_sequence(s)
        assert img.same_parts(m)

    def test_closed_form_matches_stepwise_fold(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(400):
            s = random_sequence(rng, U3, 2)
            if not coherence(s).ok:
                continue
            img = image_of_sequence(s)
            assert img.same_parts(stepwise_image(s))
            checked += 1
        assert checked > 100
        # Every entry t of the image scans is the fold of the first t rules
        # over the seed, on coherent and incoherent sequences alike.
        dangling = 0
        for n in range(1, 9):
            u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for length in range(1, 9):
                for _ in range(20):
                    s = random_sequence(rng, u, length)
                    m = initial_digraph(s, check=False)
                    images = sequence._images(s, m)
                    assert len(images) == length + 1
                    assert ComplexTerm.of(*images[0]).same_parts(m)
                    for t in range(1, length + 1):
                        z = stepwise_image(s.prefix(t), m)
                        assert ComplexTerm.of(*images[t]).same_parts(z)
                        dangling += not is_compatible(Digraph(z.cert_edges, z.cert_nodes))
        assert dangling > 1000

    def test_worked_example_evolution(self, handover):
        img = image_of_sequence(handover)
        assert rows_of(img.cert_edges) == [[1, 1, 1], [1, 1, 1], [0, 0, 0]]
        assert rows_of(img.nihil_edges) == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]
        assert values_of(img.cert_nodes) == [1, 1, 1]
        assert img.same_parts(stepwise_image(handover))


class TestSequenceCompatibility:
    def test_single_compatible_rule(self):
        rng = random.Random(48)
        for _ in range(100):
            p = random_production(rng, U3)
            report = sequence_compatibility(RuleSequence.of(p))
            assert report.ok

    def test_worked_sequence_is_compatible(self, handover):
        report = sequence_compatibility(handover)
        assert report.ok
        m = initial_digraph(handover)
        assert (m.cert_edges & m.nihil_edges).is_zero()

    def test_second_rule_dangles_at_deleted_node(self):
        # the first rule deletes node c; the second adds an edge into c
        # without restoring it, so its own right side dangles and the
        # stepwise image cannot stay a digraph
        first = rule(U3, "dropc", "abc", [], "ab", [])
        second = Production.from_static(
            "wire",
            Digraph.of(U3, "ab", []),
            Digraph(BoolMatrix.from_edges(U3, [("b", "c")]), BoolVector.from_labels(U3, "ab")),
        )
        s = RuleSequence.of(first, second)
        report = sequence_compatibility(s)
        assert not report.ok
        assert any("incompatible rules" in note for note in report.notes)
        assert report.extras[0][0] == "literal"

    def test_literal_form_is_first_prefix(self):
        rng = random.Random(49)
        for _ in range(100):
            s = random_sequence(rng, U3, 2)
            report = sequence_compatibility(s)
            p1 = s.rule(1)
            expected = (
                complement(p1.deleted_edges, BoolMatrix.ones(U3))
                & complement(p1.added_edges, BoolMatrix.ones(U3))
                & p1.lhs.edges
                & p1.nihilation
            )
            assert dict(report.extras)["literal"] == expected

    def test_prefixes_take_one_pass(self, monkeypatch):
        # Rebuilding each prefix's initial digraph afresh costs L(L + 1) / 2 t_matrix calls.
        universe = NodeUniverse(tuple(f"v{i}" for i in range(8)))
        s = random_sequence(random.Random(67), universe, 32)
        expected = sequence_compatibility(s)
        t_calls = []
        initial_calls = []
        monkeypatch.setattr(sequence, "t_matrix", lambda p: t_calls.append(p) or t_matrix(p))
        monkeypatch.setattr(
            sequence,
            "initial_digraph",
            lambda *a, **kw: initial_calls.append(a) or initial_digraph(*a, **kw),
        )
        assert sequence_compatibility(s) == expected
        assert [p.name for p in t_calls] == [p.name for p in s.rules]
        assert initial_calls == []


class TestGCongruence:
    def test_disjoint_rules_congruent(self):
        u = NodeUniverse.of("a", "b", "c", "d")
        left = rule(u, "left", "ab", [("a", "b")], "ab", [("b", "a")])
        right = rule(u, "right", "cd", [("c", "d")], "cd", [("d", "c")])
        s = RuleSequence.of(left, right)
        assert g_congruence(s, "advance").ok
        assert g_congruence(s, "delay").ok

    def test_single_rule_rejected(self):
        p = rule(U3, "only", "ab", [("a", "b")], "ab", [("a", "b")])
        with pytest.raises(ValueError):
            g_congruence(RuleSequence.of(p))

    def test_added_edge_forbidden_by_next_rule(self):
        # erase needs a->b and deletes it; add re-creates it, so it forbids
        # a->b up front; advancing add in front of erase changes the
        # smallest host from {a->b} to the empty one
        erase = rule(U3, "erase", "ab", [("a", "b")], "ab", [])
        add = rule(U3, "add", "ab", [], "ab", [("a", "b")])
        s = RuleSequence.of(erase, add)
        assert coherence(s).ok
        report = g_congruence(s, "advance")
        assert not report.ok
        assert report.term.nihil_edges.edges() == (("a", "b"),)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncoherentSequenceWarning)
            assert not initial_digraph(s).same_parts(initial_digraph(s.advanced()))

    def test_zero_term_implies_equal_initial_digraphs(self):
        # node-preserving-addition corpus: added nodes shift both the node
        # needs and the available forbidden edges with the order, which the
        # edge-level congruence term cannot see (pinned below)
        rng = random.Random(50)
        sequences = coherent_compatible_pairs(rng, U3, 60, node_add_prob=0.0)
        exercised = 0
        for s in sequences:
            permuted = s.advanced()
            if not (coherence(permuted).ok and sequence_compatibility(permuted).ok):
                continue
            if not g_congruence(s, "advance").ok:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IncoherentSequenceWarning)
                assert initial_digraph(s).same_parts(initial_digraph(permuted))
            exercised += 1
        assert exercised > 10

    def test_node_addition_escapes_the_congruence_term(self):
        # the zero term is not a reliable certificate once rules add nodes:
        # reorder a node-consuming rule behind the rule creating the node
        consume = rule(U3, "consume", "bc", [("b", "b")], "b", [])
        create = rule(U3, "create", "ab", [("b", "a")], "abc", [("a", "a"), ("a", "b")])
        s = RuleSequence.of(consume, create)
        assert coherence(s).ok and coherence(s.advanced()).ok
        assert sequence_compatibility(s).ok and sequence_compatibility(s.advanced()).ok
        assert g_congruence(s, "advance").ok
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncoherentSequenceWarning)
            m1, m2 = initial_digraph(s), initial_digraph(s.advanced())
        assert not m1.same_parts(m2)


class TestSequentialIndependence:
    def test_disjoint_rules_swap(self):
        u = NodeUniverse.of("a", "b", "c", "d")
        left = rule(u, "left", "ab", [("a", "b")], "ab", [("b", "a")])
        right = rule(u, "right", "cd", [("c", "d")], "cd", [("d", "c")])
        s = RuleSequence.of(left, right)
        assert sequential_independence(s, "advance")
        assert sequential_independence(s, "delay")

    def test_incoherent_pair_rejected(self, clash):
        assert not sequential_independence(clash, "advance")

    def test_unsupported_permutation(self, handover):
        with pytest.raises(ValueError):
            sequential_independence(handover, "reverse")

    def test_independent_pairs_rewrite_identically(self):
        rng = random.Random(51)
        sequences = coherent_compatible_pairs(rng, U3, 60)
        exercised = 0
        for s in sequences:
            if not sequential_independence(s, "advance"):
                continue
            m = initial_digraph(s)
            one = stepwise_image(s, m)
            other = stepwise_image(s.advanced(), m)
            assert one.same_parts(other)
            exercised += 1
        assert exercised > 5
