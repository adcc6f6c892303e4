"""Matching, direct derivations and multi-step traces."""

import random
import sys

import pytest

from mgg import derivation
from mgg.oracle import rewrite_at
from mgg import (
    BoolMatrix,
    BoolVector,
    Digraph,
    DerivationError,
    Match,
    MatchError,
    NodeUniverse,
    Production,
    UniverseMismatchError,
    apply_at,
    apply_production,
    bounded_one,
    brute_matches,
    complete_to,
    derive,
    derive_all,
    derivations,
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


class TestConstruction:
    """Rules, matches, steps and traces keep the value contract of a frozen dataclass."""

    def test_value_contract(self, value_contract):
        p = rule(U3, "grow", "ab", [("a", "b")], "abc", [("a", "b"), ("b", "c")])
        assert (p.name, p.added_nodes, p.added_edges.edges()) == (
            "grow", BoolVector.from_labels(U3, "c"), (("b", "c"),)
        )
        trace = derive(Digraph.of(U3, "ab", [("a", "b")]), [(p, "first")])
        step = trace.steps[0]
        assert (step.production, step.input_id, step.output_id) == ("grow", "g0", "g1")
        assert step.match == Match(pairs=(("a", "a"), ("b", "b")))
        for x in (p, step.match, step, trace, Match(()), derivation.DerivationTrace((), ())):
            value_contract(x)

    def test_rule_sides_share_a_universe(self):
        lhs, rhs = Digraph.of(U2, "a"), Digraph.of(U3, "a")
        with pytest.raises(UniverseMismatchError, match="^lhs and rhs must share a universe$"):
            Production.from_static("split", lhs, rhs)
        # An equal universe in another object is the same universe.
        p = Production.from_static("kept", lhs, Digraph.of(NodeUniverse.of("a", "b"), "a"))
        assert p.universe is U2 and p == Production.identity("kept", lhs)


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
        p = rule(U2, "free", "", [], "", [])
        # An edge to, from and on the absent node b.
        for edge in [("a", "b"), ("b", "a"), ("b", "b")]:
            bad = Digraph(BoolMatrix.from_edges(U2, [edge]), BoolVector.from_labels(U2, "a"))
            with pytest.raises(ValueError, match="^host graph has dangling edges$"):
                find_matches(p, bad)
            with pytest.raises(ValueError, match="^host graph has dangling edges$"):
                derive(bad, [(p, "first")])

    def test_host_left_dangling_by_a_step_is_refused(self):
        # Built through the API, this rule deletes b and adds an edge into it,
        # so step 1 leaves a dangling edge that the search of step 2 refuses.
        p = Production.from_static(
            "bad",
            Digraph.of(U2, "ab"),
            Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a")),
        )
        free = rule(U2, "free", "", [], "", [])
        assert not p.compatible
        with pytest.raises(ValueError, match="^host graph has dangling edges$"):
            derive(Digraph.of(U2, "ab"), [(p, "first"), (free, "first")])

    def test_host_left_dangling_after_a_widening_step_is_refused(self):
        # Step 1 adds a node, so the host widens; step 2 deletes that node and
        # adds an edge into it; the search of step 3 refuses the dangling edge.
        grow = rule(U2, "grow", "a", [], "ab", [("b", "a")])
        bad = Production.from_static(
            "bad",
            Digraph.of(U2, "ab", [("a", "b")]),
            Digraph(BoolMatrix.from_edges(U2, [("b", "a")]), BoolVector.from_labels(U2, "b")),
        )
        free = rule(U2, "free", "", [], "", [])
        assert grow.compatible and not bad.compatible
        g = Digraph.of(NodeUniverse.of("x", "y"), "xy")
        left = derive(g, [(grow, "first"), (bad, "first")])
        assert [s.match.render() for s in left.steps] == ["a->x", "a->grow.b#1 b->x"]
        assert left.result.edges.edges() == (("x", "grow.b#1"),)
        assert not is_compatible(left.result)
        for walk in (
            lambda: derive(g, [(grow, "first"), (bad, "first"), (free, "first")]),
            lambda: derive(g, [(grow, 0), (bad, {"a": "grow.b#1", "b": "x"}), (free, "first")]),
            lambda: derive_all(g, [grow, bad, free]),
        ):
            with pytest.raises(ValueError, match="^host graph has dangling edges$"):
                walk()

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

    def test_search_yields_match_order_prefix_by_prefix(self):
        # The lazy search is what derive stops early on: each match it yields
        # must be the next one of the full lists, with nothing sorted after.
        rng = random.Random(36)
        universes = [U2, U3, NodeUniverse.of("a", "b", "c", "d")]
        seen = 0
        for k in range(600):
            host_u = NodeUniverse(tuple(str(i) for i in range(rng.randint(1, 7))))
            p = random_production(rng, universes[k % 3], edge_density=0.2, node_delete_prob=0.0)
            g = random_digraph(rng, host_u, node_density=0.9, edge_density=rng.choice([0.2, 0.5]))
            listed, slow = find_matches(p, g), brute_matches(p, g)
            found = derivation._embeddings(p, g)
            index = -1
            for index, m in enumerate(derivation._matches(p, g, found)):
                assert m == listed[index] == slow[index]
            assert index + 1 == len(listed) == len(slow)
            seen += len(listed)
        assert seen > 2000

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


def dangling(rng, g):
    """g plus one edge into a node absent from g, when g has one."""
    absent = [i for i in range(len(g.universe)) if not g.nodes[i]]
    if not absent:
        return g
    n = len(g.universe)
    cell = rng.randrange(n) * n + rng.choice(absent)
    return Digraph(BoolMatrix(g.universe, g.edges.bits | 1 << cell), g.nodes)


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
            # A rule node named twice: the mapping alone would keep a->b and look valid.
            ([], [], "abc", [], [("a", "a"), ("a", "b"), ("b", "c")],
             "match must cover exactly the lhs nodes"),
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

    def test_rule_adding_nodes_on_an_empty_host_universe(self):
        p = rule(NodeUniverse.of("a"), "p", "", [], "a", [("a", "a")])
        result = derive(Digraph.empty(NodeUniverse(())), [(p, "first")]).result
        assert result.universe.labels == ("p.a#1",)
        assert (result.edges.bits, result.nodes.bits) == (1, 1)

    def test_dangling_lhs_edge_is_unmapped_content(self):
        # A valid match covers the lhs nodes only, so an lhs edge into an absent
        # node has no host image; the rewrite refuses to drop it silently.
        p = Production.from_static(
            "r",
            Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a")),
            Digraph.of(U2, "a"),
        )
        g = Digraph.of(U3, "abc", [("a", "b")])
        with pytest.raises(ValueError) as err:
            apply_at(p, g, Match((("a", "c"),)))
        assert type(err.value) is ValueError
        assert str(err.value) == "unmapped label carries content: edge 'a'->'b'"

    def test_unmapped_content_shows_only_at_a_match(self):
        # The rhs edge a->b has no host image: b is neither an lhs nor an added node.
        # The walker plans a rewrite only on a host the rule matches.
        p = Production.from_static(
            "r",
            Digraph.of(U2, "a"),
            Digraph(BoolMatrix.from_edges(U2, [("a", "b")]), BoolVector.from_labels(U2, "a")),
        )
        assert derive_all(Digraph.of(U3, ""), [p]) == []
        with pytest.raises(ValueError, match="^unmapped label carries content: edge 'a'->'b'$"):
            derive_all(Digraph.of(U3, "c"), [p])

    def test_agrees_with_rewrite_at_reference(self):
        rng = random.Random(35)
        tally = {(wide, kind): 0 for wide in (False, True)
                 for kind in ("compared", "grown", "shrunk", "refused")}

        def rule_for_case(case):
            u = NodeUniverse(tuple("abcd"[: rng.randint(2, 4)]))
            p = random_production(rng, u, "r", node_delete_prob=0.4, node_add_prob=0.5)
            if case % 4 == 0:
                p = Production.from_static("r", dangling(rng, p.lhs), dangling(rng, p.rhs))
            return p

        def compare(p, g, m, wide):
            try:
                derivation._validate_match(p, g, m)
            except MatchError:
                return
            step = rng.randint(1, 3)
            try:
                expected = rewrite_at(p, g, m, step)
            except ValueError as reference_error:
                with pytest.raises(ValueError) as err:
                    apply_at(p, g, m, step)
                assert str(err.value) == str(reference_error)
                tally[wide, "refused"] += 1
                return
            assert apply_at(p, g, m, step) == expected
            tally[wide, "compared"] += 1
            tally[wide, "grown"] += not p.added_nodes.is_zero()
            tally[wide, "shrunk"] += not p.deleted_nodes.is_zero()

        for case in range(1200):
            p = rule_for_case(case)
            host_u = NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(4, 16))))
            g = random_digraph(rng, host_u, 0.8, 0.3)
            matches = find_matches(p, g)
            lhs, present = p.lhs.nodes.labels(), g.nodes.labels()
            if matches:
                m = rng.choice(matches)
            elif len(present) >= len(lhs):
                m = Match(tuple(zip(lhs, rng.sample(present, len(lhs)))))
            else:
                continue
            compare(p, g, m, wide=False)
        # Sparse hosts wider than one 64-bit word: the lhs is planted at random
        # present nodes rather than enumerated, so rows far apart are rewritten.
        for case in range(300):
            p = rule_for_case(case)
            host_u = NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(65, 100))))
            g = random_digraph(rng, host_u, 0.8, 0.03)
            lhs = p.lhs.nodes.labels()
            image = dict(zip(lhs, rng.sample(g.nodes.labels(), len(lhs))))
            edges = set(g.edges.edges())
            for cells, planted in ((p.nihilation, edges.discard), (p.lhs.edges, edges.add)):
                for a, b in cells.edges():
                    if a in image and b in image:
                        planted((image[a], image[b]))
            g = Digraph.of(host_u, g.nodes.labels(), edges)
            compare(p, g, Match(tuple(image.items())), wide=True)
        assert tally[False, "compared"] >= 500 and tally[False, "grown"] > 100, tally
        assert tally[False, "shrunk"] > 100 and tally[False, "refused"] > 10, tally
        assert tally[True, "compared"] >= 200 and tally[True, "grown"] > 50, tally
        assert tally[True, "shrunk"] > 100 and tally[True, "refused"] > 10, tally

    def test_node_deletion_wipes_row_and_column(self):
        # host edges at the deleted image from outside the mapped block are
        # not nihilation-checked, so the wipe must remove them
        p = rule(U2, "drop", "a", [], "", [])
        g = Digraph.of(U3, "abc", [("b", "c"), ("c", "b"), ("a", "b")])
        got = apply_at(p, g, Match((("a", "c"),)))
        # A rule that adds no node shares the host's universe.
        assert got.universe is g.universe
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
        # A label the host already has is bumped; labels of distinct rule nodes never clash.
        u = NodeUniverse.of("a", "b", "b#3")
        both = rule(u, "grow", "a", [], ["a", "b", "b#3"], [("a", "b"), ("a", "b#3")])
        host = complete_to(got, got.universe.extended(["b#3"]))
        again = apply_at(both, host, Match((("a", "a"),)), step=3)
        assert again.universe.labels[4:] == ("grow.b#4", "grow.b#3#3")

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
        trace = derive(host, [(retire, {"a": "a", "b": "b", "c": "c"}), (recruit, "first")])
        final = trace.result
        # the added node came back under a fresh label in c's old place
        assert final.universe.labels == ("a", "b", "c", "recruit.c#2")
        rename = {"a": "a", "b": "b", "recruit.c#2": "c"}
        folded = Digraph.of(
            U3,
            [rename[l] for l in final.nodes.labels()],
            [(rename[a], rename[b]) for a, b in final.edges.edges()],
        )
        from mgg import image_of_sequence

        image = image_of_sequence(handover)
        assert folded.edges == image.cert_edges
        assert folded.nodes == image.cert_nodes

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

    def test_a_node_without_room_ends_the_search_before_any_placement(self):
        # A later lhs node that no host node can take (a self-loop on a loop-free
        # host, a forbidden self-loop on a fully looped one) ends the search before
        # any candidates are drawn for the nodes before it; the verdict is unchanged.
        u = NodeUniverse(tuple("abcdefgh"))
        labels = u.labels
        loop_free = Digraph.of(u, labels, [(x, y) for x in labels for y in labels if x != y])
        looped = Digraph.of(u, labels, [(x, y) for x in labels for y in labels])
        loop = rule(u, "loop", "abc", [("a", "b"), ("c", "c")], "abc", [("a", "b"), ("c", "c")])
        tie = rule(u, "tie", "abc", [("a", "b")], "abc", [("a", "b"), ("c", "c")])

        def first_with_calls(search):
            """The search's first match (or None) and the calls to ``candidates`` it made."""
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_name == "candidates":
                    calls.append(frame.f_globals["__name__"])

            sys.setprofile(profile)
            try:
                return next(search, None), calls
            finally:
                sys.setprofile(None)

        for p, g, failed in ((loop, loop_free, "m_L"), (tie, looped, "m_K")):
            assert first_with_calls(derivation._embeddings(p, g)) == (None, [])
            with pytest.raises(DerivationError) as err:
                derive(g, [(p, "first")])
            assert err.value.failed == failed
        # Without the forbidden loop the same search draws candidates and matches.
        found, calls = first_with_calls(derivation._embeddings(tie, looped, check_nihil=False))
        assert found == (0, 1, 2) and calls and set(calls) == {"mgg.derivation"}

    def test_failure_messages(self):
        p = rule(U2, "add", "ab", [], "ab", [("a", "b")])
        cases = [
            (Digraph.of(U2, "a", []), "first", "m_L", "no match: lhs cannot be embedded"),
            (
                Digraph.of(U2, "ab", [("a", "b"), ("b", "a")]),
                "first",
                "m_K",
                "no match: every lhs embedding hits a forbidden edge",
            ),
            (
                Digraph.of(U2, "ab", []),
                {"a": "b", "b": "b"},
                "selector",
                "requested map is not a valid match",
            ),
            # Labels that are not strings: no match has them.
            (Digraph.of(U2, "ab", []), {"a": "a", 0: "b"}, "selector",
             "requested map is not a valid match"),
            (Digraph.of(U2, "ab", []), {"a": "a", "b": ["x"]}, "selector",
             "requested map is not a valid match"),
            (Digraph.of(U2, "ab", []), -1, "selector", "match index -1 out of range (2 matches)"),
            (Digraph.of(U2, "ab", []), 2, "selector", "match index 2 out of range (2 matches)"),
            (Digraph.of(U2, "ab", []), "last", "selector", "bad selector 'last'"),
        ]
        for g, selector, failed, message in cases:
            with pytest.raises(DerivationError) as err:
                derive(g, [(p, selector)])
            assert (err.value.failed, str(err.value)) == (failed, f"step 1 (add): {message}")

    def test_map_and_match_selectors_pick_the_equal_match(self):
        p = rule(U2, "add", "ab", [], "ab", [("a", "b")])
        g = Digraph.of(U2, "ab", [])
        second = find_matches(p, g)[1]
        for selector in (second, second.mapping(), 1):
            assert derive(g, [(p, selector)]).steps[0].match == second

    def test_match_selector_naming_a_rule_node_twice(self):
        # Its mapping keeps the last pair only, which is a valid match on its own.
        p = rule(U2, "r", "a", [], "ab", [("a", "b")])
        g = Digraph.of(NodeUniverse.of("x", "y"), "xy", [])
        with pytest.raises(DerivationError) as err:
            derive(g, [(p, Match((("a", "x"), ("a", "y"))))])
        assert (err.value.failed, str(err.value)) == (
            "selector", "step 1 (r): requested map is not a valid match"
        )

    @pytest.mark.parametrize("selector", ["first", 2])
    def test_first_and_index_stop_early(self, selector, monkeypatch):
        # 3540 matches of an edge in a complete 60-node digraph; first and K
        # may search and build no more than K + 1 of them.
        host_u = NodeUniverse(tuple(f"h{i}" for i in range(60)))
        g = Digraph(BoolMatrix.ones(host_u), BoolVector.ones(host_u))
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        listed = find_matches(p, g)
        assert len(listed) == 3540
        wanted = listed[0 if selector == "first" else selector]

        built, searched = [], []
        embeddings = derivation._embeddings

        class Counted(Match):
            def __new__(cls, *args):
                built.append(cls)
                return super().__new__(cls)

        def counted_embeddings(*args, **kwargs):
            for hosts in embeddings(*args, **kwargs):
                searched.append(hosts)
                yield hosts

        def refuse(*args, **kwargs):
            raise AssertionError("find_matches enumerates every match")

        monkeypatch.setattr(derivation, "find_matches", refuse)
        monkeypatch.setattr(derivation, "Match", Counted)
        monkeypatch.setattr(derivation, "_embeddings", counted_embeddings)
        trace = derive(g, [(p, selector)])
        assert trace.steps[0].match.pairs == wanted.pairs
        assert trace.result == apply_at(p, g, wanted)
        limit = 1 if selector == "first" else selector + 1
        assert 0 < len(built) <= limit and 0 < len(searched) <= limit

    @pytest.mark.parametrize(
        "pick",
        [lambda m: m, Match.mapping, lambda m: Match(m.pairs[::-1])],
        ids=["match", "map", "reordered-match"],
    )
    def test_map_and_match_selectors_are_checked_not_searched(self, pick, monkeypatch):
        # A late match of an edge in a complete 60-node digraph: the search
        # stops at its first match, which rules out m_L and m_K.
        host_u = NodeUniverse(tuple(f"h{i}" for i in range(60)))
        g = Digraph(BoolMatrix.ones(host_u), BoolVector.ones(host_u))
        p = rule(U2, "edge", "ab", [("a", "b")], "ab", [("a", "b")])
        wanted = find_matches(p, g)[2000]
        searched = []
        embeddings = derivation._embeddings

        def counted_embeddings(*args, **kwargs):
            for hosts in embeddings(*args, **kwargs):
                searched.append(hosts)
                yield hosts

        monkeypatch.setattr(derivation, "_embeddings", counted_embeddings)
        trace = derive(g, [(p, pick(wanted))])
        assert trace.steps[0].match == wanted
        assert trace.result == apply_at(p, g, wanted)
        assert len(searched) == 1

    def test_derive_all_equals_apply_at_over_find_matches(self):
        # derive_all rewrites at its own search's host indices, unchecked; the
        # checked apply_at over find_matches, step by step, must agree.
        rng = random.Random(37)

        def fold(rules, trail, graphs):
            """Every trace that extends ``trail``, in match order."""
            k, g = len(trail), graphs[-1]
            if k == len(rules):
                return [derivation.DerivationTrace(trail, graphs)]
            p, traces = rules[k], []
            for m in find_matches(p, g):
                step = derivation.DerivationStep(p.name, m, f"g{k}", f"g{k + 1}")
                traces += fold(rules, trail + (step,), graphs + (apply_at(p, g, m, step=k + 1),))
            return traces

        traces = grown = shrunk = 0
        for _ in range(300):
            u = NodeUniverse(tuple("abc"[: rng.randint(1, 3)]))
            rules = [
                random_production(rng, u, f"r{i}", 0.3, node_delete_prob=0.4, node_add_prob=0.5)
                for i in range(rng.randint(1, 3))
            ]
            host_u = NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(2, 6))))
            g = random_digraph(rng, host_u, 0.8, 0.2)
            got = derive_all(g, rules)
            assert got == fold(rules, (), (g,))
            traces += len(got)
            grown += sum(len(t.result.universe) > len(host_u) for t in got)
            shrunk += sum(t.result.nodes.count() < g.nodes.count() for t in got)
        assert traces > 1500 and grown > 1000 and shrunk > 250, (traces, grown, shrunk)

    def test_derive_all_equals_reference_fold(self):
        # The independent reference: oracle.rewrite_at folded over oracle.brute_matches.
        # Host labels such as "r0.a#1" make fresh_label bump.
        rng = random.Random(38)

        def fold(rules, trail, graphs):
            k, g = len(trail), graphs[-1]
            if k == len(rules):
                return [derivation.DerivationTrace(trail, graphs)]
            p, traces = rules[k], []
            # Match order is by host index; brute_matches sorts by label.
            order = sorted(brute_matches(p, g), key=lambda m: [g.universe.index(h) for _, h in m.pairs])
            for m in order:
                step = derivation.DerivationStep(p.name, m, f"g{k}", f"g{k + 1}")
                traces += fold(rules, trail + (step,), graphs + (rewrite_at(p, g, m, k + 1),))
            return traces

        tally = dict.fromkeys(("traces", "grown", "shrunk", "bumped", "shared"), 0)
        for _ in range(300):
            u = NodeUniverse(tuple("abc"[: rng.randint(1, 3)]))
            rules = [
                random_production(rng, u, f"r{i}", 0.3, node_delete_prob=0.4, node_add_prob=0.5)
                for i in range(rng.randint(1, 3))
            ]
            taken = [f"r{rng.randint(0, 2)}.{rng.choice('abc')}#{rng.randint(1, 3)}"
                     for _ in range(rng.randint(1, 3))]
            labels = [f"v{i}" for i in range(rng.randint(2, 5))] + list(dict.fromkeys(taken))
            g = random_digraph(rng, NodeUniverse(tuple(rng.sample(labels, len(labels)))), 0.8, 0.2)
            try:
                expected = fold(rules, (), (g,))
            except ValueError:  # a host grew past brute_matches' 7 present nodes
                continue
            got = derive_all(g, rules)
            assert got == expected
            # Siblings, the results of one step on one host, share one universe object.
            siblings = {}
            for t in got:
                for parent, child in zip(t.graphs, t.graphs[1:]):
                    siblings.setdefault(id(parent), (parent, {}))[1][id(child)] = child
            for parent, children in siblings.values():
                assert len({id(child.universe) for child in children.values()}) == 1
                grew = len(next(iter(children.values())).universe) > len(parent.universe)
                tally["shared"] += grew and len(children) > 1
            tally["traces"] += len(got)
            tally["grown"] += sum(len(t.result.universe) > len(g.universe) for t in got)
            tally["shrunk"] += sum(t.result.nodes.count() < g.nodes.count() for t in got)
            tally["bumped"] += sum(
                label.rpartition("#")[2] != str(k)
                for t in got
                for k, (before, after) in enumerate(zip(t.graphs, t.graphs[1:]), start=1)
                for label in after.universe.labels[len(before.universe):]
            )
        assert tally["traces"] > 1000 and tally["grown"] > 500, tally
        assert tally["shrunk"] > 150 and tally["bumped"] > 100 and tally["shared"] > 100, tally

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


def match_order(p, g):
    """brute_matches in match order: by host index, not by label."""
    return sorted(brute_matches(p, g), key=lambda m: [g.universe.index(h) for _, h in m.pairs])


def reference_fold(rules, trail, graphs):
    """Every trace that extends ``trail``: oracle.rewrite_at over brute_matches, in match order."""
    k, g = len(trail), graphs[-1]
    if k == len(rules):
        return [derivation.DerivationTrace(trail, graphs)]
    p, traces = rules[k], []
    for m in match_order(p, g):
        step = derivation.DerivationStep(p.name, m, f"g{k}", f"g{k + 1}")
        traces += reference_fold(rules, trail + (step,), graphs + (rewrite_at(p, g, m, k + 1),))
    return traces


def kind_of(p):
    """What a rule does to the node set: "deletes" a node, else "adds" one, else "keeps" it."""
    if not p.deleted_nodes.is_zero():
        return "deletes"
    return "keeps" if p.added_nodes.is_zero() else "adds"


class TestLeafPath:
    # The walk yields each trace of its last step as the leaf is rewritten, in
    # match order; the siblings of a rule that deletes no node share one node vector.

    def test_walks_equal_the_reference_fold_whatever_the_last_rule_does(self):
        rng = random.Random(40)
        traces = dict.fromkeys(("adds", "keeps", "deletes"), 0)
        shared = dict.fromkeys(("adds", "keeps", "deletes"), 0)  # parents of 2+ siblings
        for case in range(300):
            kind = ("adds", "keeps", "deletes")[case % 3]
            u = NodeUniverse(tuple("abc"[: rng.randint(1, 3)]))
            rules = [
                random_production(rng, u, f"r{i}", 0.3, node_delete_prob=0.3, node_add_prob=0.4)
                for i in range(rng.randint(0, 2))
            ]
            while True:  # the last rule, drawn again until it does what this case wants
                last = random_production(
                    rng, u, f"r{len(rules)}", 0.3, node_delete_prob=0.4, node_add_prob=0.5
                )
                if kind_of(last) == kind:
                    break
            rules.append(last)
            g = random_digraph(rng, NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(2, 5)))))
            try:
                expected = reference_fold(rules, (), (g,))
            except ValueError:  # a host grew past brute_matches' 7 present nodes
                continue
            assert list(derivations(g, rules)) == expected
            got = derive_all(g, rules)
            assert got == expected
            traces[kind] += len(got)
            # Siblings: the results of one step on one host object.
            children = {}
            for t in got:
                for k, (parent, child) in enumerate(zip(t.graphs, t.graphs[1:])):
                    children.setdefault((k, id(parent)), {})[id(child)] = child
            for (k, _), siblings in children.items():
                vectors = {id(child.nodes) for child in siblings.values()}
                keeps_nodes = rules[k].deleted_nodes.is_zero()
                assert len(vectors) == (1 if keeps_nodes else len(siblings)), (k, kind_of(rules[k]))
                if k == len(rules) - 1 and len(siblings) > 1:
                    shared[kind] += 1
        assert min(traces.values()) > 150 and min(shared.values()) > 25, (traces, shared)

    @pytest.mark.parametrize("pick", ["first", "index", "map"])
    def test_derive_takes_the_walks_first_trace(self, pick):
        # Each step's selector picks one match; derive is the first (and only)
        # trace of that walk, and equals the reference fold along those matches.
        rng = random.Random(41)
        tally = dict.fromkeys(("traces", "failed"), 0)
        for _ in range(300):
            u = NodeUniverse(tuple("abc"[: rng.randint(1, 3)]))
            rules = [
                random_production(rng, u, f"r{i}", 0.3, node_delete_prob=0.4, node_add_prob=0.5)
                for i in range(rng.randint(1, 3))
            ]
            g = random_digraph(rng, NodeUniverse(tuple(f"v{i}" for i in range(rng.randint(2, 5)))))
            steps, trail, graphs = [], (), (g,)
            try:
                for k, p in enumerate(rules):
                    order = match_order(p, graphs[-1])
                    if not order:
                        steps.append((p, "first"))
                        break
                    i = 0 if pick == "first" else rng.randrange(len(order))
                    steps.append((p, {"first": "first", "index": i, "map": order[i].mapping()}[pick]))
                    trail += (derivation.DerivationStep(p.name, order[i], f"g{k}", f"g{k + 1}"),)
                    graphs += (rewrite_at(p, graphs[-1], order[i], k + 1),)
            except ValueError:  # a host grew past brute_matches' 7 present nodes
                continue
            if len(trail) < len(steps):
                with pytest.raises(DerivationError) as err:
                    derive(g, steps)
                assert err.value.step == len(steps)
                tally["failed"] += 1
                continue
            trace = derive(g, steps)
            assert trace == derivation.DerivationTrace(trail, graphs)
            if pick == "first":
                assert trace == next(derivations(g, rules))
            tally["traces"] += 1
        assert tally["traces"] > 100 and tally["failed"] > 20, tally


class TestCarriedMasks:
    def test_carried_masks_equal_the_built_hosts_masks(self, monkeypatch):
        # Every rewrite the walker plans also derives the new host's neighbour
        # masks from its parent's; they must equal the masks cut from its bits,
        # and a host they leave unchecked must be dangling-free.  A walk builds
        # at most one rule plan per depth, and every host at that depth uses it.
        rng = random.Random(39)
        plan = derivation._plan
        tally = dict.fromkeys(("hosts", "deleted", "widened", "loops", "wide", "checked"), 0)
        # Plans whose rule adds nodes, adds none, or deletes nodes, used by more than one host.
        shared = dict.fromkeys(("adding", "keeping", "deleting"), 0)
        built = []  # the step of each plan the current walk builds

        def checked_plan(p, u, step):
            on_host = plan(p, u, step)
            built.append(step)
            used = []

            def checked_host(g, masks=None):
                assert g.universe is u
                rewrite = on_host(g, masks)
                used.append(g)
                if len(used) == 2:
                    shared["adding" if not p.added_nodes.is_zero() else "keeping"] += 1
                    shared["deleting"] += not p.deleted_nodes.is_zero()

                def checked(hosts, carry=False):
                    child, carried = rewrite(hosts, True)
                    out, inn, loops, unchecked = carried
                    assert out == child.edges.row_masks()
                    assert inn == child.edges.column_masks()
                    assert loops == sum(row & 1 << i for i, row in enumerate(out))
                    assert unchecked or is_compatible(child)
                    if p.compatible:
                        assert is_compatible(child)
                    tally["hosts"] += 1
                    tally["deleted"] += not p.deleted_nodes.is_zero()
                    tally["widened"] += len(child.universe) > len(g.universe)
                    tally["loops"] += loops != masks[2]
                    tally["wide"] += len(child.universe) > 64
                    tally["checked"] += unchecked
                    return child, carried if carry else None

                return checked

            return checked_host

        monkeypatch.setattr(derivation, "_plan", checked_plan)
        for case in range(1000):
            u = NodeUniverse(tuple("abcd"[: rng.randint(1, 4)]))
            rules = []
            for i in range(rng.randint(2, 4)):
                p = random_production(rng, u, f"r{i}", 0.4, node_delete_prob=0.4, node_add_prob=0.6)
                if case % 5 == 0:  # an API-built rule that may leave an edge dangling
                    p = Production.from_static(p.name, p.lhs, dangling(rng, p.rhs))
                rules.append(p)
            wide = case % 4 == 0  # a host that fresh nodes widen past one 64-bit word
            n = rng.randint(59, 64) if wide else rng.randint(2, 6)
            host_u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            g = random_digraph(rng, host_u, 0.8, 0.05 if wide else 0.3)
            walks = [lambda: derive(g, [(p, rng.choice(["first", 0, 1])) for p in rules])]
            if not wide:
                walks.append(lambda: derive_all(g, rules[:3]))
            for walk in walks:
                built.clear()
                try:
                    walk()
                except (DerivationError, ValueError):
                    pass
                assert len(built) == len(set(built)), built
        assert tally["hosts"] > 4000 and tally["deleted"] > 1500 and tally["widened"] > 1200, tally
        assert tally["loops"] > 1500 and tally["wide"] > 30 and tally["checked"] > 100, tally
        assert min(shared.values()) > 40, shared
