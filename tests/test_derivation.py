"""Matching, direct derivations and multi-step traces."""

import random

import pytest

from mgg import (
    BoolMatrix,
    BoolVector,
    Digraph,
    DerivationError,
    Match,
    MatchError,
    NodeUniverse,
    Production,
    apply_at,
    apply_production,
    bounded_one,
    brute_matches,
    complete_to,
    derive,
    derive_all,
    find_matches,
    host_complement,
    initial_digraph,
    is_compatible,
    random_digraph,
    random_production,
)

U2 = NodeUniverse.of("a", "b")
U3 = NodeUniverse.of("a", "b", "c")


def rule(universe, name, lhs_nodes, lhs_edges, rhs_nodes, rhs_edges):
    return Production.from_static(
        name,
        Digraph.of(universe, lhs_nodes, lhs_edges),
        Digraph.of(universe, rhs_nodes, rhs_edges),
    )


class TestHostComplement:
    def test_full_graph_has_empty_complement(self):
        g = Digraph(BoolMatrix.ones(U2), BoolVector.ones(U2))
        assert host_complement(g).is_zero()

    def test_empty_edges_full_block(self):
        g = Digraph.of(U2, "ab", [])
        assert host_complement(g) == BoolMatrix.ones(U2)

    def test_partition_of_the_block(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_digraph(rng, U3)
            comp = host_complement(g)
            assert (comp | g.edges) == bounded_one(g.nodes)
            assert (comp & g.edges).is_zero()


class TestFindMatches:
    def test_empty_lhs_one_empty_match(self):
        p = rule(U3, "free", "", [], "", [])
        g = Digraph.of(U3, "abc", [("a", "b")])
        assert find_matches(p, g) == [Match(())]

    def test_single_edge_in_three_cycle(self):
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        p3 = Production.from_static(
            "edge", complete_to(p.lhs, U3), complete_to(p.rhs, U3)
        )
        g = Digraph.of(U3, "abc", [("a", "b"), ("b", "c"), ("c", "a")])
        got = find_matches(p3, g)
        assert [m.render() for m in got] == ["a->a b->b", "a->b b->c", "a->c b->a"]

    def test_forbidden_incident_edge_blocks(self):
        # the rule deletes node a; any image with an incident host edge fails
        p = rule(U2, "drop", "ab", [], "b", [])
        g = Digraph.of(U2, "ab", [("a", "b")])
        assert find_matches(p, g) == []
        assert brute_matches(p, g) == []

    def test_requires_compatible_host(self):
        bad = Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a"))
        p = rule(U2, "free", "", [], "", [])
        with pytest.raises(ValueError):
            find_matches(p, bad)

    def test_dangling_lhs_never_matches(self):
        p = Production.from_static(
            "ill",
            Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a")),
            Digraph.of(U2, "a", []),
        )
        g = Digraph(BoolMatrix.ones(U2), BoolVector.ones(U2))
        assert find_matches(p, g) == []
        assert brute_matches(p, g) == []

    def test_agrees_with_bruteforce_randomized(self):
        rng = random.Random(32)
        universes = [U2, U3, NodeUniverse.of("a", "b", "c", "d")]
        host_u = NodeUniverse.of("1", "2", "3", "4", "5")
        for k in range(600):
            p = random_production(rng, universes[k % 3])
            g = random_digraph(rng, host_u, node_density=0.7, edge_density=0.4)
            fast = find_matches(p, g)
            slow = brute_matches(p, g)
            assert fast == slow

    def test_agrees_with_networkx_vf2_on_larger_hosts(self):
        # VF2 monomorphisms of the lhs into the host, minus those that hit
        # a forbidden cell, in host-index order; brute_matches stops at 7
        # host nodes, these hosts have 16 to 32.
        pytest.importorskip("networkx")
        from networkx import DiGraph
        from networkx.algorithms.isomorphism import DiGraphMatcher

        def nx_graph(g):
            n = len(g.universe)
            d = DiGraph()
            d.add_nodes_from(i for i in range(n) if g.nodes[i])
            d.add_edges_from((i, j) for i in range(n) for j in range(n) if g.edges[i, j])
            return d

        rng = random.Random(35)
        universes = [U3, NodeUniverse.of("a", "b", "c", "d")]
        matches = 0
        for k in range(150):
            host_u = NodeUniverse(tuple(f"h{i}" for i in range(rng.randint(16, 32))))
            g = random_digraph(rng, host_u, node_density=0.9, edge_density=0.2)
            p = random_production(rng, universes[k % 2], edge_density=0.5)
            lhs_idx = [i for i in range(len(p.universe)) if p.lhs.nodes[i]]
            images = []
            for found in DiGraphMatcher(nx_graph(g), nx_graph(p.lhs)).subgraph_monomorphisms_iter():
                image = {r: h for h, r in found.items()}
                if not any(
                    p.nihilation[a, b] and g.edges[image[a], image[b]]
                    for a in lhs_idx
                    for b in lhs_idx
                ):
                    images.append(tuple(image[i] for i in lhs_idx))
            expected = [
                Match(tuple((p.universe.labels[i], host_u.labels[c]) for i, c in zip(lhs_idx, hosts)))
                for hosts in sorted(images)
            ]
            assert find_matches(p, g) == expected
            matches += len(expected)
        assert matches > 4000


class TestApplyAt:
    def test_identity_rule_keeps_host(self):
        g = Digraph.of(U3, "abc", [("a", "b"), ("c", "c")])
        p = rule(U2, "noop", "ab", [("a", "b")], "ab", [("a", "b")])
        p3 = Production.from_static("noop", complete_to(p.lhs, U3), complete_to(p.rhs, U3))
        for m in find_matches(p3, g):
            assert apply_at(p3, g, m) == g

    def test_invalid_match_rejected_with_reason(self):
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        g = Digraph.of(U2, "ab", [("b", "a")])
        with pytest.raises(MatchError, match="missing lhs edge"):
            apply_at(p, g, Match((("a", "a"), ("b", "b"))))
        q = rule(U2, "add", "ab", [], "ab", [("a", "b")])
        h = Digraph.of(U2, "ab", [("a", "b")])
        with pytest.raises(MatchError, match="forbidden edge"):
            apply_at(q, h, Match((("a", "a"), ("b", "b"))))

    @pytest.mark.parametrize(
        "lhs_edges, rhs_edges, host_nodes, host_edges, pairs, message",
        [
            ([("a", "b")], [("a", "b")], "ab", [("a", "b")], [("a", "a")],
             "match must cover exactly the lhs nodes"),
            ([("a", "b")], [("a", "b")], "ab", [("a", "b")], [("a", "a"), ("b", "a")],
             "match must be injective"),
            ([], [], "a", [], [("a", "a"), ("b", "b")], "host node 'b' is not present"),
            ([], [], "abc", [], [("a", "a"), ("b", "z")], "host node 'z' is not present"),
            ([("a", "b")], [("a", "b")], "ab", [("b", "a")], [("a", "a"), ("b", "b")],
             "missing lhs edge a->b at a->b"),
            ([("b", "b")], [("b", "b")], "ab", [("b", "b")], [("a", "b"), ("b", "a")],
             "missing lhs edge b->b at a->a"),
            ([], [("a", "b")], "ab", [("b", "a")], [("a", "b"), ("b", "a")],
             "forbidden edge a->b present at b->a"),
            ([], [("a", "a")], "ab", [("b", "b")], [("a", "b"), ("b", "a")],
             "forbidden edge a->a present at b->b"),
            # Several violations: the first cell row by row is named.
            ([("b", "a"), ("b", "b"), ("a", "b")], [], "ab", [], [("a", "a"), ("b", "b")],
             "missing lhs edge a->b at a->b"),
        ],
    )
    def test_every_match_error_reason(
        self, lhs_edges, rhs_edges, host_nodes, host_edges, pairs, message
    ):
        p = rule(U2, "r", "ab", lhs_edges, "ab", rhs_edges)
        g = Digraph.of(U3, host_nodes, host_edges)
        with pytest.raises(MatchError) as err:
            apply_at(p, g, Match(tuple(pairs)))
        assert str(err.value) == message

    def test_node_deletion_wipes_row_and_column(self):
        # host edges at the deleted image from outside the mapped block are
        # not nihilation-checked, so the wipe must remove them
        p = rule(U2, "drop", "a", [], "", [])
        g = Digraph.of(U3, "abc", [("b", "c"), ("c", "b"), ("a", "b")])
        got = apply_at(p, g, Match((("a", "c"),)))
        assert got.nodes.labels() == ("a", "b")
        assert got.edges.edges() == (("a", "b"),)
        assert is_compatible(got)

    def test_fresh_labels_for_added_nodes(self):
        p = rule(U2, "grow", "a", [], "ab", [("a", "b")])
        g = Digraph.of(U2, "a", [])
        got = apply_at(p, g, Match((("a", "a"),)), step=3)
        assert got.universe.labels == ("a", "b", "grow.b#3")
        assert got.nodes.labels() == ("a", "grow.b#3")
        assert got.edges.edges() == (("a", "grow.b#3"),)

    def test_output_compatible_for_compatible_inputs(self):
        rng = random.Random(33)
        host_u = NodeUniverse.of("1", "2", "3", "4")
        checked = 0
        for _ in range(400):
            p = random_production(rng, U3)
            if not p.compatible:
                continue
            g = random_digraph(rng, host_u)
            for m in find_matches(p, g)[:3]:
                got = apply_at(p, g, m)
                assert is_compatible(got)
                checked += 1
        assert checked > 100

    def test_derivation_square_commutes(self):
        # the matched block of the result equals the rewritten matched block
        # of the host, pulled back to rule coordinates
        rng = random.Random(34)
        host_u = NodeUniverse.of("1", "2", "3", "4")
        checked = 0
        for _ in range(300):
            p = random_production(rng, U3)
            if not p.compatible or not p.added_nodes.is_zero():
                continue
            g = random_digraph(rng, host_u)
            matches = find_matches(p, g)
            if not matches:
                continue
            m = matches[0]
            h = apply_at(p, g, m)
            mapping = m.mapping()
            block_edges = BoolMatrix.from_edges(
                U3,
                [
                    (a, b)
                    for a in mapping
                    for b in mapping
                    if g.edges[g.universe.index(mapping[a]), g.universe.index(mapping[b])]
                ],
            )
            block = Digraph(block_edges, p.lhs.nodes)
            rewritten = apply_production(p, block)
            for a in mapping:
                for b in mapping:
                    ia, ib = p.universe.index(a), p.universe.index(b)
                    ha, hb = h.universe.index(mapping[a]), h.universe.index(mapping[b])
                    assert rewritten.edges[ia, ib] == h.edges[ha, hb]
            checked += 1
        assert checked > 50


class TestDerive:
    def test_empty_step_list(self):
        g = Digraph.of(U2, "ab", [("a", "b")])
        trace = derive(g, [])
        assert trace.steps == ()
        assert trace.result == g

    def test_worked_pipeline_matches_closed_form(self, handover, retire, recruit):
        term = initial_digraph(handover)
        host = Digraph(term.cert_edges, term.cert_nodes)
        ident = {l: l for l in "abc" if term.cert_nodes.get(l)}
        trace = derive(host, [(retire, {"a": "a", "b": "b", "c": "c"}), (recruit, "first")])
        final = trace.result
        # the added node came back under a fresh label in c's old place
        assert final.universe.labels == ("a", "b", "c", "recruit.c#2")
        rename = {"a": "a", "b": "b", "recruit.c#2": "c"}
        folded = complete_to(
            Digraph(final.edges, final.nodes), U3, rename
        )
        from mgg import image_of_sequence

        image = image_of_sequence(handover)
        assert folded.edges == image.cert_edges
        assert folded.nodes == image.cert_nodes
        assert ident  # the identity completion covered the initial nodes

    def test_selector_index_out_of_range(self):
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        g = Digraph.of(U2, "ab", [("a", "b")])
        with pytest.raises(DerivationError) as err:
            derive(g, [(p, 5)])
        assert err.value.failed == "selector"

    def test_failure_names_the_morphism(self):
        lhs_fail = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        empty = Digraph.of(U2, "ab", [])
        with pytest.raises(DerivationError) as err:
            derive(empty, [(lhs_fail, "first")])
        assert err.value.failed == "m_L"
        assert err.value.step == 1

        nihil_fail = rule(U2, "add", "ab", [], "ab", [("a", "b")])
        full = Digraph(BoolMatrix.ones(U2), BoolVector.ones(U2))
        with pytest.raises(DerivationError) as err:
            derive(full, [(nihil_fail, "first")])
        assert err.value.failed == "m_K"

    def test_derive_all_enumerates_traces(self):
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        p3 = Production.from_static("edge", complete_to(p.lhs, U3), complete_to(p.rhs, U3))
        g = Digraph.of(U3, "abc", [("a", "b"), ("b", "c"), ("c", "a")])
        traces = derive_all(g, [p3, p3])
        assert len(traces) == 9
        assert all(t.result == g for t in traces)

    def test_derive_all_in_match_order(self):
        # traces come out depth first, each step's matches in match order
        p = rule(U2, "turn", "ab", [("a", "b")], "ab", [("b", "a")])
        p3 = Production.from_static("turn", complete_to(p.lhs, U3), complete_to(p.rhs, U3))
        g = Digraph.of(U3, "abc", [("a", "b"), ("b", "c"), ("a", "c")])
        expected = [
            (m1, m2)
            for m1 in find_matches(p3, g)
            for m2 in find_matches(p3, apply_at(p3, g, m1, step=1))
        ]
        got = [tuple(step.match for step in t.steps) for t in derive_all(g, [p3, p3])]
        assert got == expected
        assert len(got) == 9
