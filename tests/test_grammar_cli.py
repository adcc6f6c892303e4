"""Grammar parsing, serialization round trips, and the CLI surface."""

import io
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mgg import (
    AnalysisReport,
    BoolMatrix,
    BoolVector,
    ComplexTerm,
    Digraph,
    GrammarError,
    GrammarFile,
    NodeUniverse,
    Production,
    RuleSequence,
    coherence,
    derive_all,
    gasket_raster,
    parse_grammar,
    random_digraph,
    random_production,
    random_sequence,
    serialize_grammar,
)
from mgg import grammar
from mgg.cli import (
    _EMIT_LINES,
    _TABLE_WITNESSES,
    Report,
    _Rows,
    _add_analysis,
    _add_graph,
    _load_grammar,
    build_parser,
    run,
)
from mgg.oracle import rows_of, values_of

REPO = Path(__file__).resolve().parent.parent
DEMO = str(REPO / "grammars" / "demo.mgg")
PAIR = str(REPO / "grammars" / "pair.mgg")
WIDE = str(REPO / "grammars" / "wide.mgg")

MINIMAL = "nodes n\n"

SMALL = """\
nodes a b

production flip
  lhs nodes a b
  lhs edges a->b
  rhs nodes a b
  rhs edges b->a

sequence twice flip flip

host line
  nodes a b
  edges a->b
"""


# Every cell of a 128-node universe as one host edge line, in row order.
LABELS_128 = " ".join(f"v{i}" for i in range(128))
EVERY_EDGE_128 = " ".join(f"{a}->{b}" for a in LABELS_128.split() for b in LABELS_128.split())

# At least one row per ``GrammarError`` wording: (case, grammar text, exact stdout of
# a command that loads it).  Every row exits 2.
PARSE_ERRORS = [
    ("missing-nodes", "# only a comment\n\n", "line 0: missing nodes line"),
    (
        "hash-in-token",
        "nodes a b#c\n",
        "line 1: '#' inside a token; comments start at a token boundary",
    ),
    ("indented-outside-block", "  nodes a\n", "line 1: unexpected indented line outside a block"),
    ("tab-indented-outside-block", "\tnodes a\n", "line 1: unexpected indented line outside a block"),
    ("universe-twice", "nodes a\nnodes b\n", "line 2: the universe is already declared"),
    ("empty-universe", "nodes\n", "line 1: the nodes line needs at least one label"),
    ("arrow-in-label", "nodes a b->c\n", "line 1: node label 'b->c' contains '->'"),
    (
        "universe-repeats-label",
        "nodes a b a\n",
        "line 1: duplicate node labels: ('a', 'b', 'a')",
    ),
    ("production-name", "nodes a\nproduction\n", "line 2: expected: production <name>"),
    (
        "sequence-form",
        "nodes a\nsequence s\n",
        "line 2: expected: sequence <name> <rule> [<rule> ...]",
    ),
    ("sequence-unknown-rule", "nodes a\nsequence s ghost\n", "line 2: unknown production 'ghost'"),
    ("host-name", "nodes a\nhost a b\n", "line 2: expected: host <name>"),
    ("unknown-declaration", "nodes a\nrule r\n", "line 2: unknown declaration 'rule'"),
    # Only one leading byte order mark is skipped.
    ("second-bom", "\ufeff\ufeffnodes a\n", "line 1: unknown declaration '\\ufeffnodes'"),
    ("duplicate-name", "nodes a\nhost h\n  nodes a\nhost h\n", "line 4: duplicate name 'h'"),
    (
        "duplicate-field",
        "nodes a\nhost h\n  nodes a\n  nodes a\n",
        "line 4: duplicate field 'nodes' in block",
    ),
    (
        "unknown-field",
        "nodes a\nhost h\n  colour red\n  nodes a\n",
        "line 3: unknown fields in host block: ['colour']",
    ),
    ("unknown-label-nodes", "nodes a\nhost h\n  nodes a z\n", "line 3: unknown node label 'z'"),
    (
        "unknown-label-edges",
        "nodes a\nhost h\n  nodes a\n  edges a->a a->z\n",
        "line 4: unknown node label 'z'",
    ),
    (
        "malformed-edge-no-arrow",
        "nodes a\nhost h\n  nodes a\n  edges a->a aa\n",
        "line 4: malformed edge 'aa'; expected src->dst",
    ),
    (
        "malformed-edge-two-arrows",
        "nodes a\nhost h\n  nodes a\n  edges a->a->a\n",
        "line 4: malformed edge 'a->a->a'; expected src->dst",
    ),
    (
        "malformed-edge-empty-end",
        "nodes a\nhost h\n  nodes a\n  edges a->\n",
        "line 4: malformed edge 'a->'; expected src->dst",
    ),
    (
        "unknown-before-malformed",
        "nodes a\nhost h\n  nodes a\n  edges z->a ->a\n",
        "line 4: unknown node label 'z'",
    ),
    (
        "malformed-before-unknown",
        "nodes a\nhost h\n  nodes a\n  edges ->a z->a\n",
        "line 4: malformed edge '->a'; expected src->dst",
    ),
    (
        "duplicate-node-label",
        "nodes a b\nproduction p\n  lhs nodes a b a\n  rhs nodes a\n",
        "line 3: duplicate node label 'a'",
    ),
    (
        "duplicate-edge",
        "nodes a b\nhost h\n  nodes a b\n  edges a->b b->a a->b\n",
        "line 4: duplicate edge 'a->b'",
    ),
    (
        "duplicate-edge-after-every-cell",
        f"nodes {LABELS_128}\n\nhost h\n  nodes {LABELS_128}\n"
        f"  edges {EVERY_EDGE_128} v127->v127\n",
        "line 5: duplicate edge 'v127->v127'",
    ),
    # An edge token read in an earlier block words its errors as if read for the first time.
    (
        "repeat-of-earlier-token",
        "nodes a b\nhost g\n  nodes a b\n  edges a->b\nhost h\n  nodes a b\n"
        "  edges b->a a->b a->b\n",
        "line 7: duplicate edge 'a->b'",
    ),
    (
        "two-arrows-after-earlier-token",
        "nodes a b c\nhost g\n  nodes a b\n  edges a->b\nhost h\n  nodes a b c\n"
        "  edges a->b a->b->c\n",
        "line 7: malformed edge 'a->b->c'; expected src->dst",
    ),
    (
        "empty-end-after-earlier-token",
        "nodes a b\nhost g\n  nodes a b\n  edges a->b\nhost h\n  nodes a b\n"
        "  edges a->b a->\n",
        "line 7: malformed edge 'a->'; expected src->dst",
    ),
    (
        "empty-start-after-earlier-token",
        "nodes a b\nhost g\n  nodes a b\n  edges a->b\nhost h\n  nodes a b\n"
        "  edges a->b ->b\n",
        "line 7: malformed edge '->b'; expected src->dst",
    ),
    (
        "unknown-among-earlier-tokens",
        "nodes a b\nproduction p\n  lhs nodes a b\n  lhs edges a->b b->a\n  rhs nodes a b\n"
        "  rhs edges b->a a->z ->a a->b\n",
        "line 6: unknown node label 'z'",
    ),
    (
        "malformed-among-earlier-tokens",
        "nodes a b\nproduction p\n  lhs nodes a b\n  lhs edges a->b b->a\n  rhs nodes a b\n"
        "  rhs edges b->a ->a a->z a->b\n",
        "line 6: malformed edge '->a'; expected src->dst",
    ),
    (
        "dangling-lhs",
        "nodes a b\nproduction p\n  lhs nodes a\n  lhs edges a->b\n  rhs nodes a\n",
        "line 4: lhs has an edge touching an absent node",
    ),
    (
        "dangling-rhs",
        "nodes a b\nproduction p\n  lhs nodes a b\n  rhs nodes b\n  rhs edges a->b\n",
        "line 5: rhs has an edge touching an absent node",
    ),
    (
        "dangling-host",
        "nodes a b\nhost h\n  nodes b\n  edges b->a\n",
        "line 4: host has an edge touching an absent node",
    ),
    (
        "nodes-after-production",
        "production p\n  lhs nodes a\n  rhs nodes a\n\nnodes a\n",
        "line 1: the nodes line must come before this declaration",
    ),
    (
        "nodes-after-host",
        "host h\n\n  nodes a\n  edges a->a\nnodes a\n",
        "line 1: the nodes line must come before this declaration",
    ),
    # A bad top-level line is reported before the next line is read ...
    (
        "order-top-level-before-hash",
        "nodes a\nsequence s ghost\nnodes b#c\n",
        "line 2: unknown production 'ghost'",
    ),
    # ... but a block ends only at the next top-level line, which is read first.
    (
        "order-block-end-hash-first",
        "nodes a\nhost h\n  nodes z\nhost#2\n",
        "line 4: '#' inside a token; comments start at a token boundary",
    ),
    # A block with several faults reports the first of: an unknown label or malformed
    # edge, a duplicate node label, a duplicate edge, a dangling edge.
    (
        "order-unknown-before-duplicate",
        "nodes a b\nhost h\n  nodes a b a\n  edges a->z\n",
        "line 4: unknown node label 'z'",
    ),
    (
        "order-duplicate-node-before-duplicate-edge",
        "nodes a b\nhost h\n  nodes a b a\n  edges a->b a->b\n",
        "line 3: duplicate node label 'a'",
    ),
    (
        "order-duplicate-edge-before-dangling",
        "nodes a b\nhost h\n  nodes a\n  edges a->a a->b a->a\n",
        "line 4: duplicate edge 'a->a'",
    ),
]


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestParse:
    def test_minimal_file(self):
        gf = parse_grammar(MINIMAL)
        assert gf.universe.labels == ("n",)
        assert not gf.productions and not gf.sequences and not gf.hosts

    def test_small_file(self):
        gf = parse_grammar(SMALL)
        assert list(gf.productions) == ["flip"]
        assert gf.sequences["twice"] == ("flip", "flip")
        assert gf.hosts["line"].edges.edges() == (("a", "b"),)

    def test_undeclared_node_is_positioned_error(self):
        text = "nodes a b\n\nhost h\n  nodes a z\n"
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert err.value.line == 4
        assert "unknown node label 'z'" in str(err.value)

    def test_malformed_edge(self):
        text = "nodes a b\n\nhost h\n  nodes a b\n  edges ab\n"
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert err.value.line == 5

    def test_duplicate_name(self):
        text = SMALL + "\nhost flip\n  nodes a\n"
        with pytest.raises(GrammarError, match="duplicate name"):
            parse_grammar(text)

    def test_unknown_sequence_rule(self):
        text = "nodes a\n\nsequence s ghost\n"
        with pytest.raises(GrammarError, match="unknown production"):
            parse_grammar(text)

    def test_dangling_lhs_rejected(self):
        text = "nodes a b\n\nproduction bad\n  lhs nodes a\n  lhs edges a->b\n  rhs nodes a\n"
        with pytest.raises(GrammarError, match="absent node"):
            parse_grammar(text)

    def test_round_trip_is_identity_on_the_model(self):
        for text in (MINIMAL, SMALL, Path(DEMO).read_text(), Path(PAIR).read_text()):
            gf = parse_grammar(text)
            canon = serialize_grammar(gf)
            gf2 = parse_grammar(canon)
            assert serialize_grammar(gf2) == canon
            assert gf2.universe == gf.universe
            assert list(gf2.productions) == list(gf.productions)
            for name in gf.productions:
                assert gf2.productions[name].lhs == gf.productions[name].lhs
                assert gf2.productions[name].rhs == gf.productions[name].rhs
            assert gf2.sequences == gf.sequences
            assert gf2.hosts == gf.hosts

    def test_hash_inside_a_token_rejected(self):
        # A derived fresh label such as p.b#1 must not reparse as p.b.
        text = "nodes a p.b#1\n"
        with pytest.raises(GrammarError, match="'#' inside a token") as err:
            parse_grammar(text)
        assert err.value.line == 1
        text = "nodes a b\n\nhost h\n  nodes a b # both\n  edges a->b#comment\n"
        with pytest.raises(GrammarError, match="'#' inside a token") as err:
            parse_grammar(text)
        assert err.value.line == 5

    def test_hash_at_a_token_boundary_is_a_comment(self):
        gf = parse_grammar("# header\nnodes a b #c\n\nhost h\t# note\n  nodes a\n")
        assert gf.universe.labels == ("a", "b")
        assert gf.hosts["h"].nodes.labels() == ("a",)

    def test_arrow_in_node_label_rejected(self):
        text = "# universe\n\nnodes a b->c\n"
        with pytest.raises(GrammarError, match="contains '->'") as err:
            parse_grammar(text)
        assert err.value.line == 3

    def test_unknown_field_reported_at_its_line(self):
        text = "nodes a\nproduction p\n  lhs\n  lhs nodes a\n  rhs nodes a\n"
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert str(err.value) == "line 3: unknown fields in production block: ['lhs']"
        text = "nodes a b\nhost h\n  nodes a b\n  size 3\n  edges a->b\n  colour red\n"
        with pytest.raises(GrammarError) as err:
            parse_grammar(text)
        assert str(err.value) == "line 4: unknown fields in host block: ['colour', 'size']"

    def test_cli_exit_2_on_repeated_node_label(self, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_text("nodes a b\n\nproduction p\n  lhs nodes a a\n  rhs nodes a\n")
        code, text = cli("encode", str(path), "--production", "p")
        assert code == 2
        assert text == "error line 4: duplicate node label 'a'\n"

    def test_cli_exit_2_on_repeated_edge(self, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_text("nodes a b\n\nhost h\n  nodes a b\n  edges a->b b->a a->b\n")
        code, text = cli("encode", str(path), "--graph", "h")
        assert code == 2
        assert text == "error line 5: duplicate edge 'a->b'\n"

    def test_cli_exit_2_on_truncating_input(self, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_text("nodes a recruit.c#2\n")
        code, text = cli("encode", str(path), "--graph", "h")
        assert code == 2
        assert text == "error line 1: '#' inside a token; comments start at a token boundary\n"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, message", [row[1:] for row in PARSE_ERRORS], ids=[row[0] for row in PARSE_ERRORS]
    )
    def test_every_wording_exits_2_at_its_line(self, text, message, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_text(text, encoding="utf-8")
        assert cli("encode", str(path), "--graph", "h") == (2, f"error {message}\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"nodes a\xff b\n", "line 1: byte 0xff is not UTF-8"),
            (b"nodes a b\n\nhost h\n  nodes a\xc3\n", "line 4: byte 0xc3 is not UTF-8"),
            (b"nodes a\r\xfe\n", "line 2: byte 0xfe is not UTF-8"),
            (b"# caf\xc3\xa9\nnodes a\n\x80", "line 3: byte 0x80 is not UTF-8"),
            (b"\xef\xbb\xbfnodes a\n\nhost h\xff\n", "line 3: byte 0xff is not UTF-8"),
        ],
    )
    def test_non_utf8_file_exits_2_at_the_bad_byte(self, data, message, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_bytes(data)
        assert cli("encode", str(path), "--graph", "h") == (2, f"error {message}\n")


    @pytest.mark.parametrize("edge", ["v40->v7", "v7->v40"], ids=["leaves", "enters"])
    def test_the_one_absent_node_of_64_with_its_only_edge(self, edge):
        # The edge lies in the absent node's row, or in its column, of the
        # present-node block; every other edge joins two present nodes.
        labels = [f"v{i}" for i in range(64)]
        present = [label for label in labels if label != "v40"]
        edges = [f"{a}->{present[i * 7 % 63]}" for i, a in enumerate(present)]
        head = f"nodes {' '.join(labels)}\n\nhost h\n  nodes {' '.join(present)}\n  edges "
        assert parse_grammar(head + " ".join(edges) + "\n").hosts["h"].edges.count() == 63
        text = head + " ".join(edges[:30] + [edge] + edges[30:]) + "\n"
        message = "^line 5: host has an edge touching an absent node$"
        with pytest.raises(GrammarError, match=message):
            parse_grammar(text)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.mgg", tmp_path / "marked.mgg"
        plain.write_text(SMALL, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + SMALL.encode())
        assert _load_grammar(str(marked)) == _load_grammar(str(plain))
        reports = [cli("encode", str(path), "--graph", "line") for path in (marked, plain)]
        assert reports[0] == (0, reports[1][1].replace("plain.mgg", "marked.mgg"))


class TestRoundTripAtScale:
    def test_random_grammars_round_trip_on_1_to_130_nodes(self):
        rng = random.Random(97)
        for n in range(1, 131):
            # '-' and '>' next to an edge token's arrow check where the token is split.
            labels = tuple(("v{}", "v{}-", ">v{}")[i % 3].format(i) for i in range(n))
            u = NodeUniverse(labels)
            productions = {
                f"p{k}": random_production(rng, u, f"p{k}", edge_density=rng.random())
                for k in range(2)
            }
            hosts = {
                f"h{k}": random_digraph(rng, u, rng.random(), rng.random()) for k in range(2)
            }
            gf = GrammarFile(u, productions, {"s": ("p1", "p0", "p1")}, hosts)
            back = parse_grammar(serialize_grammar(gf))
            assert back == gf, n
            assert list(back.productions) == list(gf.productions)
            assert list(back.hosts) == list(gf.hosts)


def dense_grammar(rng: random.Random, labels, rules: int) -> GrammarFile:
    """Incoherent rules over the whole universe: ~0.4 n² edge tokens each, and a host."""
    u = NodeUniverse(tuple(labels))
    productions = {p.name: p for p in random_sequence(rng, u, rules, name="r").rules}
    return GrammarFile(
        u, productions, {"s": tuple(productions)}, {"h": random_digraph(rng, u, 0.7, 0.3)}
    )


def coherent_grammar(rng: random.Random, labels, rules: int) -> GrammarFile:
    """A coherent sequence: each rule fires at the identity on the graph the ones before leave.

    Each rule reads most of the edges among ~80 % of the nodes and keeps most
    of them, so the file repeats its tokens: ~0.4 n² for the host and ~0.35 n²
    per rule.
    """
    u = NodeUniverse(tuple(labels))
    g = host = random_digraph(rng, u, 0.9, 0.5)
    productions = {}
    for k in range(rules):
        nodes = [a for a in g.nodes.labels() if rng.random() < 0.8]
        inside = {(a, b) for a, b in g.edges.edges() if a in nodes and b in nodes}
        lhs = [e for e in sorted(inside) if rng.random() < 0.8]
        rhs = [e for e in lhs if rng.random() < 0.8]
        rhs += [
            (a, b) for a in nodes for b in nodes if (a, b) not in inside and rng.random() < 0.05
        ]
        p = Production.from_static(
            f"r{k + 1}", Digraph.of(u, nodes, lhs), Digraph.of(u, nodes, rhs)
        )
        productions[p.name] = p
        edges = g.edges.bits & ~p.deleted_edges.bits | p.added_edges.bits
        g = Digraph(BoolMatrix(u, edges), g.nodes)
    return GrammarFile(u, productions, {"s": tuple(productions)}, {"h": host})


@pytest.fixture
def tables(monkeypatch):
    """The universes that build their table of edge tokens (``cell_names``), in order."""
    built, read = [], NodeUniverse.cell_names.fget

    def counted(u: NodeUniverse) -> list[str]:
        if u._cell_names is None:
            built.append(u)
        return read(u)

    monkeypatch.setattr(NodeUniverse, "cell_names", property(counted))
    return built


# A bad token after a good one on an edge line, and the error it gives.
BAD_TOKENS = [
    ("a->", "malformed edge 'a->'; expected src->dst"),
    ("->b", "malformed edge '->b'; expected src->dst"),
    ("a->b->c", "malformed edge 'a->b->c'; expected src->dst"),
    ("ab", "malformed edge 'ab'; expected src->dst"),
    ("a-->b", "unknown node label 'a-'"),
    ("a->z", "unknown node label 'z'"),
    ("repeat", "duplicate edge '{first}'"),
    ("dangling", "{where} has an edge touching an absent node"),
]


class TestTokenDenseFiles:
    """Files naming n² edge tokens or more read them through a table of all n² tokens."""

    def test_random_sequences_parse_to_the_plain_memo_model(self, tables, monkeypatch):
        rng = random.Random(98)
        texts, models = [], []
        for n, rules in ((1, 8), (2, 8), (8, 6), (17, 6), (64, 6)):
            # '-' and '>' next to the arrow: a token is read back by its first "->".
            labels = [("v{}", "v{}-", ">v{}")[i % 3].format(i) for i in range(n)]
            gf = dense_grammar(rng, labels, rules)
            texts.append(serialize_grammar(gf))
            assert texts[-1].count("->") >= 2 * n * n
            models.append(parse_grammar(texts[-1]))
            assert models[-1] == gf, n
        assert [len(u) for u in tables] == [1, 2, 8, 17, 64]
        # The same texts read token by token through the memo alone.
        monkeypatch.setattr(grammar, "_TABLE_TOKENS", float("inf"))
        assert [parse_grammar(text) for text in texts] == models
        assert len(tables) == 5

    def test_coherent_sequences_between_n2_and_2n2_tokens_read_through_the_table(
        self, tables, monkeypatch
    ):
        rng = random.Random(96)
        texts, models = [], []
        for n, rules in ((8, 2), (17, 3), (40, 2), (64, 3)):
            labels = [("v{}", "v{}-", ">v{}")[i % 3].format(i) for i in range(n)]
            gf = coherent_grammar(rng, labels, rules)
            assert coherence(RuleSequence(tuple(gf.productions.values()))).ok
            texts.append(serialize_grammar(gf))
            assert n * n <= texts[-1].count("->") < 2 * n * n, n
            models.append(parse_grammar(texts[-1]))
            assert models[-1] == gf, n
        assert [len(u) for u in tables] == [8, 17, 40, 64]
        monkeypatch.setattr(grammar, "_TABLE_TOKENS", float("inf"))
        assert [parse_grammar(text) for text in texts] == models
        assert len(tables) == 4

    @pytest.mark.parametrize("where", ["lhs", "host"])
    @pytest.mark.parametrize("edit, message", BAD_TOKENS)
    def test_bad_tokens_are_worded_at_their_line(self, tables, where, edit, message):
        gf = dense_grammar(random.Random(99), "abcdefgh", 4)
        assert_worded_at_their_line(gf, where, edit, message)
        assert [len(u) for u in tables] == [8]

    @pytest.mark.parametrize("where", ["lhs", "host"])
    @pytest.mark.parametrize("edit, message", BAD_TOKENS)
    def test_bad_tokens_in_a_coherent_file(self, tables, where, edit, message):
        gf = coherent_grammar(random.Random(96), "abcdefgh", 2)
        text = serialize_grammar(gf)
        assert 64 <= text.count("->") < 128
        assert_worded_at_their_line(gf, where, edit, message)
        assert [len(u) for u in tables] == [8]

    def test_parser_and_report_of_one_command_share_the_table(self, tables, tmp_path):
        gf = dense_grammar(random.Random(97), [f"v{i}" for i in range(64)], 6)
        path = tmp_path / "dense.mgg"
        path.write_text(serialize_grammar(gf), encoding="utf-8")
        code, text = cli("analyze", str(path), "--sequence", "s", "--check", "coherence")
        named = [line for line in text.splitlines() if line.startswith("witness ") and "->" in line]
        assert code == 1 and _TABLE_WITNESSES * len(named) >= 64 * 64  # the report's table route
        assert [len(u) for u in tables] == [64]

    def test_derive_on_a_sparse_host_builds_no_table(self, tables, tmp_path):
        labels = " ".join(f"v{i}" for i in range(64))
        path = tmp_path / "sparse.mgg"
        path.write_text(
            f"nodes {labels}\n\nproduction turn\n  lhs nodes v0 v1\n  lhs edges v0->v1\n"
            "  rhs nodes v0 v1\n  rhs edges v1->v0\n\nsequence s turn turn\n\n"
            f"host h\n  nodes {labels}\n  edges " + " ".join(f"v{i}->v{i + 1}" for i in range(63)),
            encoding="utf-8",
        )
        code, text = cli("derive", str(path), "--host", "h", "--sequence", "s", "--select", "first")
        assert code == 0 and "ok yes" in text.splitlines()
        assert tables == []


def assert_worded_at_their_line(gf: GrammarFile, where: str, edit: str, message: str) -> None:
    """The file of ``gf`` with ``edit`` after the first token of the first lhs edge line or of
    the host's edge line, both read after the table is built, fails with ``message``."""
    if edit == "dangling":  # a node absent from that digraph
        g = gf.productions["r1"].lhs if where == "lhs" else gf.hosts["h"]
        absent = next(l for l in gf.universe.labels if l not in g.nodes.labels())
        edit = f"{absent}->{absent}"
    lines = serialize_grammar(gf).splitlines()
    at = next(
        k for k, line in enumerate(lines)
        if line.startswith("  lhs edges " if where == "lhs" else "  edges ")
    )
    first = lines[at].split()[2 if where == "lhs" else 1]
    edit = first if edit == "repeat" else edit
    head, _, rest = lines[at].partition(first)
    lines[at] = f"{head}{first} {edit}{rest}"
    with pytest.raises(GrammarError) as caught:
        parse_grammar("\n".join(lines) + "\n")
    expected = f"line {at + 1}: " + message.format(first=first, where=where)
    assert str(caught.value) == expected


class TestAnalyzeCommand:
    def test_coherence_failure_reports_defects(self):
        code, text = cli("analyze", DEMO, "--sequence", "clash", "--check", "coherence")
        assert code == 1
        lines = text.splitlines()
        assert "c_plus [[0,0,0],[0,0,1],[0,0,1]]" in lines
        assert "c_minus [[0,0,1],[0,0,1],[0,0,0]]" in lines
        assert "ok no" in lines
        assert "witness + 1 b->c" in lines

    def test_coherence_pass(self):
        code, text = cli("analyze", DEMO, "--sequence", "handover", "--check", "coherence")
        assert code == 0
        assert "ok yes" in text.splitlines()

    def test_initial_digraph(self):
        code, text = cli("analyze", DEMO, "--sequence", "handover", "--check", "initial")
        assert code == 0
        lines = text.splitlines()
        assert "initial_cert_edges [[1,1,0],[0,1,0],[1,1,0]]" in lines
        assert "initial_nihil_edges [[0,0,1],[1,0,1],[0,0,1]]" in lines
        assert "initial_cert_nodes [1,1,1]" in lines

    def test_image(self):
        code, text = cli("analyze", DEMO, "--sequence", "handover", "--check", "image")
        assert code == 0
        assert "image_cert_edges [[1,1,1],[1,1,1],[0,0,0]]" in text.splitlines()

    def test_compatibility(self):
        code, text = cli(
            "analyze", DEMO, "--sequence", "handover", "--check", "compatibility"
        )
        assert code == 0
        lines = text.splitlines()
        assert "violations [[0,0,0],[0,0,0],[0,0,0]]" in lines
        assert any(l.startswith("literal ") for l in lines)

    def test_congruence_modes(self):
        for mode in ("advance", "delay"):
            code, text = cli(
                "analyze", DEMO, "--sequence", "handover",
                "--check", "congruence", "--mode", mode,
            )
            assert f"mode {mode}" in text.splitlines()

    def test_unknown_sequence_exit_2(self):
        code, text = cli("analyze", DEMO, "--sequence", "ghost", "--check", "coherence")
        assert code == 2
        assert text.startswith("error ")

    def test_report_is_deterministic(self):
        first = cli("analyze", DEMO, "--sequence", "clash", "--check", "coherence")
        second = cli("analyze", DEMO, "--sequence", "clash", "--check", "coherence")
        assert first == second


class TestDeriveCommand:
    def test_full_run(self):
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover",
            "--select", "first",
        )
        assert code == 0
        lines = text.splitlines()
        assert "ok yes" in lines
        assert "result g2" in lines
        assert any("recruit.c#2" in l for l in lines)

    def test_failing_run_names_morphism(self, tmp_path):
        code, text = cli(
            "derive", PAIR, "--host", "mutual", "--sequence", "only", "--select", "first",
        )
        assert code == 2  # no such sequence in pair.mgg
        text2 = (
            "nodes a b\n\nproduction need\n  lhs nodes a b\n  lhs edges a->a\n"
            "  rhs nodes a b\n\nsequence s need\n\nhost empty\n  nodes a b\n"
        )
        path = tmp_path / "fail.mgg"
        path.write_text(text2)
        code, text = cli(
            "derive", str(path), "--host", "empty", "--sequence", "s",
            "--select", "first",
        )
        assert code == 1
        lines = text.splitlines()
        assert "failed_morphism m_L" in lines
        assert "failed_step 1" in lines

    def test_index_out_of_range_counts_the_matches(self):
        code, text = cli(
            "derive", WIDE, "--host", "field", "--sequence", "trek", "--select", "99",
        )
        assert (code, text) == (
            1,
            f"report derive\ngrammar {WIDE}\nhost field\nsequence trek\nselect 99\nok no\n"
            "failed_step 1\nfailed_production hop\nfailed_morphism selector\n"
            "error step 1 (hop): match index 99 out of range (98 matches)\n",
        )

    @pytest.mark.parametrize(
        "host, morphism, reason",
        [
            ("  nodes a\n", "m_L", "lhs cannot be embedded"),
            # Both embeddings put the forbidden edge a->b on a host edge.
            (
                "  nodes a b\n  edges a->b b->a\n",
                "m_K",
                "every lhs embedding hits a forbidden edge",
            ),
        ],
    )
    def test_failed_morphism_report(self, host, morphism, reason, tmp_path):
        path = tmp_path / "add.mgg"
        path.write_text(
            "nodes a b\n\nproduction add\n  lhs nodes a b\n  rhs nodes a b\n  rhs edges a->b\n\n"
            "sequence s add\n\nhost h\n" + host
        )
        assert cli("derive", str(path), "--host", "h", "--sequence", "s") == (
            1,
            f"report derive\ngrammar {path}\nhost h\nsequence s\nselect first\nok no\n"
            f"failed_step 1\nfailed_production add\nfailed_morphism {morphism}\n"
            f"error step 1 (add): no match: {reason}\n",
        )

    def test_select_all_counts_traces(self):
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover",
            "--select", "all",
        )
        assert code == 0
        assert any(l.startswith("traces ") for l in text.splitlines())

    def test_select_all_renders_each_step_once(self, tmp_path):
        # Traces share the steps of a common prefix: 3 first steps and 9 second
        # ones make 9 traces of 2 steps, each trace listing both of its steps.
        path = tmp_path / "touch.mgg"
        path.write_text(
            "nodes a b c\n\nproduction touch\n  lhs nodes a\n  rhs nodes a\n\n"
            "sequence twice touch touch\n\nhost trio\n  nodes a b c\n",
            encoding="utf-8",
        )
        code, text = cli(
            "derive", str(path), "--host", "trio", "--sequence", "twice", "--select", "all"
        )
        assert (code, text.count(" step ")) == (0, 18)
        assert "trace 8 step touch match a->c\ntrace 8 step touch match a->c\n" in text

    def test_select_index(self):
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover",
            "--select", "0",
        )
        assert code == 0

    @pytest.mark.parametrize("host", ["trio", "pair", "none"])
    def test_select_all_report_equals_one_rendered_from_the_trace_list(self, host, tmp_path):
        # Traces are rendered as the walk yields them, each step once per trail,
        # under a traces line filled in afterwards; the report is the one rendered
        # from derive_all's list with every step of every trace rendered.
        path = tmp_path / "grow.mgg"
        path.write_text(
            "nodes a b c\n\nproduction grow\n  lhs nodes a\n  rhs nodes a b\n  rhs edges a->b\n\n"
            "production drop\n  lhs nodes a b\n  lhs edges a->b\n  rhs nodes a\n\n"
            "sequence trek grow grow drop\n\n"
            "host trio\n  nodes a b c\n  edges a->b\n\n"
            "host pair\n  nodes a b\n\nhost none\n  nodes\n",
            encoding="utf-8",
        )
        argv = ["derive", str(path), "--host", host, "--sequence", "trek", "--select", "all"]
        code, text = cli(*argv)
        gf = parse_grammar(path.read_text(encoding="utf-8"))
        traces = derive_all(gf.hosts[host], [gf.productions[r] for r in gf.sequences["trek"]])
        report = Report("derive")
        for key, value in zip(("grammar", "host", "sequence", "select"), argv[1::2]):
            report.add(key, value)
        report.add("traces", str(len(traces)))
        for t, trace in enumerate(traces):
            for step in trace.steps:
                report.add(f"trace {t} step", f"{step.production} match {step.match.render()}")
            _add_graph(report, f"trace-{t}-result", trace.result)
        report.add("ok", "yes" if traces else "no")
        expected = io.StringIO()
        report.emit(expected)
        assert (code, text) == (0 if traces else 1, expected.getvalue())
        # grow matches each present node; drop each edge, the host's edges plus the grown ones.
        assert len(traces) == {"trio": 3 * 4 * 3, "pair": 2 * 3 * 2, "none": 0}[host]

    def test_select_all_prints_only_the_error_of_a_walk_that_raises(self, monkeypatch):
        # Traces already rendered are dropped: the report is the error line alone.
        from mgg import cli as cli_module

        def failing(host, rules):
            yield from derive_all(host, rules)[:2]
            raise ValueError("host graph has dangling edges")

        monkeypatch.setattr(cli_module, "derivations", failing)
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover", "--select", "all"
        )
        assert (code, text) == (2, "error host graph has dangling edges\n")


class TestEmit:
    @pytest.mark.parametrize(
        "count", [1, _EMIT_LINES - 1, _EMIT_LINES, _EMIT_LINES + 1, 2 * _EMIT_LINES + 1]
    )
    def test_chunks_write_what_one_join_writes(self, count):
        report = Report("emit")
        # Entries may hold several lines, as a graph's or a trace's do.
        report.lines = [f"entry {i}\nline {i}" if i % 3 else f"line {i}" for i in range(count)]
        writes = []

        class Spy(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        out = Spy()
        report.emit(out)
        assert out.getvalue() == "\n".join(report.lines) + "\n"
        assert len(writes) == -(-count // _EMIT_LINES)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
    def test_select_all_holds_its_report_text_once(self, tmp_path):
        # ``derive --select all`` of one growing rule thrice over 16 nodes writes
        # 4,896 traces (~5 MB), and of the rule once 16 traces.  Joined in one
        # string, the text sat in memory twice and the larger run peaked ~3x its
        # report size above the smaller; chunked, it peaks ~1.4x above.  Each
        # run reads its own peak in a process forked from a fresh interpreter, as
        # in ``TestGasketCommand``.
        import subprocess

        labels = " ".join(f"v{i}" for i in range(16))
        path = tmp_path / "grow.mgg"
        path.write_text(
            f"nodes {labels}\n\nproduction grow\n  lhs nodes v0\n  rhs nodes v0 v1\n"
            f"  rhs edges v0->v1\n\nsequence one grow\n\nsequence three grow grow grow\n\n"
            f"host h\n  nodes {labels}\n"
        )
        child = (
            "import os, resource, sys\n"
            "if os.fork() == 0:\n"
            "    from mgg.cli import run\n"
            "    argv = ['derive', sys.argv[1], '--host', 'h', '--sequence', sys.argv[2],\n"
            "            '--select', 'all']\n"
            "    with open(os.devnull, 'w') as out:\n"
            "        code = run(argv, out)\n"
            "    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        peak = {}
        for sequence in ("one", "three"):
            proc = subprocess.run(
                [sys.executable, "-c", child, str(path), sequence],
                cwd=REPO / "src", capture_output=True, text=True,
            )
            assert proc.stdout.split()[:1] == ["0"], proc.stderr
            peak[sequence] = int(proc.stdout.split()[1])
        code, text = cli("derive", str(path), "--host", "h", "--sequence", "three", "--select", "all")
        assert code == 0 and "traces 4896\n" in text
        # ru_maxrss is in KiB on Linux.
        assert (peak["three"] - peak["one"]) * 1024 < 2 * len(text), (peak, len(text))


class TestEncodeCommand:
    def test_production_lhs_with_forbidden_loop(self):
        code, text = cli("encode", PAIR, "--production", "tie")
        assert code == 0
        assert "encoding re=0.011b (3/8), im=0.1b (1/2)" in text.splitlines()

    def test_host_graph(self):
        code, text = cli("encode", PAIR, "--graph", "mutual")
        assert code == 0
        assert "encoding re=0.011b (3/8), im=0.0b (0)" in text.splitlines()

    def test_unknown_name(self):
        code, text = cli("encode", PAIR, "--production", "ghost")
        assert code == 2

    def test_universe_of_120_nodes(self, tmp_path):
        # The last cell set makes the denominator 2^14400: 4335 digits,
        # past Python's default int-to-str limit.
        labels = [f"v{i}" for i in range(120)]
        path = tmp_path / "wide.mgg"
        path.write_text(
            "nodes " + " ".join(labels) + "\n\nhost h\n  nodes v119\n  edges v119->v119\n"
        )
        code, text = cli("encode", str(path), "--graph", "h")
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            denominator = str(1 << 14400)
        finally:
            sys.set_int_max_str_digits(limit)
        re = "0." + "0" * 14399 + "1b"
        assert text.splitlines()[-1] == f"encoding re={re} (1/{denominator}), im=0.0b (0)"


class TestCensusCommand:
    def test_two_nodes(self):
        code, text = cli("census", "--nodes", "2")
        assert code == 0
        lines = text.splitlines()
        assert "productions 256" in lines
        assert "swaps 16" in lines
        assert "histogram [1,4,6,4,1]" in lines

    def test_size_limit(self):
        code, text = cli("census", "--nodes", "5")
        assert code == 2
        assert text == "error census enumeration is limited to 2 nodes\n"

    def test_negative_count(self):
        code, text = cli("census", "--nodes", "-1")
        assert code == 2
        assert text == "error census needs a node count of at least 0, not -1\n"


class TestGasketCommand:
    def test_writes_p1_matching_the_oracle(self, tmp_path):
        out_file = tmp_path / "gasket.pbm"
        code, text = cli("gasket", "--bits", "4", "--out", str(out_file))
        assert code == 0
        from mgg import pascal_mod2

        assert out_file.read_text() == pascal_mod2(4).to_p1()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
    def test_writes_row_by_row(self, tmp_path):
        # The file goes out row by row, so at 12 bits (a 16.8 MB file) the command
        # peaks within 12 MB of its peak at 4 bits.  A process started from this one
        # keeps this one's peak RSS across exec, so each command runs in a process
        # forked from a fresh interpreter, and reads its own peak there.
        import subprocess

        child = (
            "import io, os, resource, sys\n"
            "if os.fork() == 0:\n"
            "    from mgg.cli import run\n"
            "    argv = ['gasket', '--bits', sys.argv[1], '--out', sys.argv[2]]\n"
            "    code = run(argv, io.StringIO())\n"
            "    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        peak = {}
        for bits in (4, 12):
            out_file = tmp_path / f"gasket-{bits}.pbm"
            proc = subprocess.run(
                [sys.executable, "-c", child, str(bits), str(out_file)],
                cwd=REPO / "src", capture_output=True, text=True,
            )
            assert proc.stdout.split()[:1] == ["0"], proc.stderr
            peak[bits] = int(proc.stdout.split()[1])
        assert peak[12] - peak[4] < 12 * 1024, peak  # ru_maxrss is in KiB on Linux
        assert out_file.read_bytes() == gasket_raster(12).to_p1().encode()

    def test_bits_out_of_range(self, tmp_path):
        code, text = cli("gasket", "--bits", "0", "--out", str(tmp_path / "x.pbm"))
        assert code == 2


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", DEMO, "--host", "start", "--sequence", "handover", "--select", value)
            for value in ("٠", "+0", "-1", "0_1", " 0", "foo")
        ]
        + [("census", "--nodes", value) for value in ("0_1", "+1", "١", "1.0")]
        + [("gasket", "--bits", value, "--out", "x.pbm") for value in ("0_1", "+4", "٤")],
    )
    def test_malformed_integers_are_usage_errors(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli(*argv)
        assert err.value.code == 2
        assert not (tmp_path / "x.pbm").exists()


def rendered_by_cell(value) -> str:
    """The report text of a matrix or vector, read cell by cell from the oracle."""
    if isinstance(value, BoolVector):
        return "[" + ",".join(map(str, values_of(value))) + "]"
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows_of(value)) + "]"


class TestRendering:
    def test_rows_render_cell_by_cell(self):
        # Rows are slices of one digit string per value; the reference reads each cell.
        rng = random.Random(71)
        for n in list(range(18)) + [64, 65, 127, 128]:
            u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for _ in range(8):
                m = BoolMatrix(u, rng.getrandbits(n * n))
                v = BoolVector(u, rng.getrandbits(n))
                report = Report("analyze")
                assert report.matrix(m) == rendered_by_cell(m)
                assert report.rows[v.cells()] == rendered_by_cell(v)

    @given(st.text(alphabet="01", max_size=130))
    @example("")
    @example("1" * 130)
    def test_rows_join_every_cell(self, cells):
        # The cells of a row or vector of 0 to 130 nodes, the empty universe's too.
        assert Report("derive").rows[cells] == "[" + ",".join(cells) + "]"

    def test_empty_universe(self):
        u = NodeUniverse(())
        report = Report("analyze")
        assert report.matrix(BoolMatrix.zeros(u)) == "[]"
        assert report.rows[BoolVector.zeros(u).cells()] == "[]"

    def test_one_memo_serves_every_width(self):
        # A report joins each distinct row once; one memo serves every width,
        # as when a rule adds a node mid-derivation.
        rng = random.Random(72)
        widths = [0, 1, 2, 7, 8, 9, 13, 63, 64, 65, 128]
        report = Report("derive")
        for n in widths + widths[::-1]:
            u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for density in (0, 0.05, 0.5, 1):
                m = BoolMatrix(u, sum(1 << c for c in range(n * n) if rng.random() < density))
                v = BoolVector(u, sum(1 << i for i in range(n) if rng.random() < density))
                assert report.matrix(m) == rendered_by_cell(m)
                assert report.rows[v.cells()] == rendered_by_cell(v)

    def test_rendered_by_difference_from_the_last_matrix(self, monkeypatch):
        # One report renders seeded edits of its last matrix; each render equals
        # the cell-by-cell one.  At most n changed cells re-read only the rows
        # holding one; n + 1, or a new universe object, cut every row from the
        # whole cell string.  Spies count both: whole cell strings cut, and rows read.
        cut, reads = [], []
        cells = BoolMatrix.cells
        monkeypatch.setattr(BoolMatrix, "cells", lambda m: cut.append(m) or cells(m))

        class Reads(_Rows):
            def __getitem__(self, row):
                reads.append(row)
                return super().__getitem__(row)

        report = Report("derive")
        report.rows = Reads()
        rng = random.Random(74)
        routes = set()
        last = text = None

        def render(m, route):
            nonlocal last, text
            cut.clear()
            reads.clear()
            got = report.matrix(m)
            assert got == rendered_by_cell(m), (len(m.universe), route)
            n = len(m.universe)
            if route == "same":
                assert (cut, reads, got) == ([], [], text) and got is text
            elif route == "difference":
                changed = [i for i, (a, b) in enumerate(zip(rows_of(last), rows_of(m))) if a != b]
                assert cut == [] and len(reads) == len(changed) > 0, (n, route)
            else:
                assert (len(cut), len(reads)) == (1, n), (n, route)
            routes.add((n, route))
            last, text = m, got

        def flipped(cells_to_flip):
            return BoolMatrix(last.universe, last.bits ^ sum(1 << c for c in cells_to_flip))

        for n in [0, 1, 2, 3, 7, 13, 64, 65, 0, 13]:
            labels = tuple(f"v{i}" for i in range(n))
            # A new universe object, then another with the same labels and bits.
            render(BoolMatrix(NodeUniverse(labels), rng.getrandbits(n * n)), "slice")
            render(BoolMatrix(NodeUniverse(labels), last.bits), "slice")
            render(flipped([]), "same")
            if not n:
                continue
            i, j = rng.randrange(n), rng.randrange(n)
            render(flipped([i * n + j]), "difference")
            render(flipped(range(i * n, i * n + n)), "difference")  # one whole row
            render(flipped(range(j, n * n, n)), "difference")  # one column: every row
            render(flipped(rng.sample(range(n * n), n)), "difference")
            if n > 1:
                render(flipped(rng.sample(range(n * n), n + 1)), "slice")
            render(flipped([]), "same")
        assert {(n, "difference") for n in (1, 2, 3, 7, 13, 64, 65)} <= routes
        assert {(n, "slice") for n in (0, 2, 3, 7, 13, 64, 65)} <= routes

    def test_witness_lines_name_each_cell(self):
        # A report names its edge witnesses from a table of every cell name or
        # cell by cell, chosen by their count; both give the per-cell lines.
        rng = random.Random(73)
        sides = set()
        for n in (0, 1, 8, 63, 64, 65, 128):
            u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
            for density in (0, 0.05, 0.5, 1):
                def mask(kind, width):
                    return kind(u, sum(1 << c for c in range(width) if rng.random() < density))

                witnesses = (
                    ("+", 1, mask(BoolMatrix, n * n)),
                    ("-", 1, mask(BoolMatrix, n * n)),
                    ("+", 2, mask(BoolVector, n)),
                )
                report = Report("analyze")
                _add_analysis(report, AnalysisReport(False, ComplexTerm.zero(u), witnesses))
                expected = ["report analyze", "ok no"]
                for part, position, cells in witnesses:
                    if isinstance(cells, BoolVector):
                        expected += [f"witness {part} {position} node {l}" for l in cells.labels()]
                    else:
                        expected += [
                            f"witness {part} {position} {a}->{b}" for a, b in cells.edges()
                        ]
                assert report.lines == expected, (n, density)
                edges = witnesses[0][2].count() + witnesses[1][2].count()
                sides.add((n, _TABLE_WITNESSES * edges >= n * n))
        assert sides >= {(n, table) for n in (1, 8, 63, 64, 65, 128) for table in (False, True)}


class TestRepeatedRuns:
    def test_in_process_runs_match_fresh_processes(self, capsys):
        import subprocess

        argvs = [
            ["analyze", DEMO, "--sequence", "clash", "--check", "coherence"],
            ["derive", DEMO, "--host", "start", "--sequence", "handover", "--select", "x"],
            ["encode", DEMO, "--graph", "start"],
        ]
        fresh = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "mgg", *argv],
                cwd=REPO / "src",
                capture_output=True,
                text=True,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        for _ in range(2):
            for argv, expected in zip(argvs, fresh):
                out = io.StringIO()
                try:
                    code = run(argv, out=out)
                except SystemExit as exc:
                    code = exc.code
                assert (code, out.getvalue(), capsys.readouterr().err) == expected
        assert [code for code, _, _ in fresh] == [1, 2, 0]
        assert build_parser() is build_parser()

    def test_no_state_outlives_a_derive_report(self):
        # Each derive report prints what it prints alone, after any other report.
        import subprocess

        argvs = [
            ["derive", WIDE, "--host", "field", "--sequence", "trek", "--select", "first"],
            ["derive", DEMO, "--host", "start", "--sequence", "handover", "--select", "all"],
        ]
        alone = [
            subprocess.run(
                [sys.executable, "-m", "mgg", *argv], cwd=REPO / "src", capture_output=True, text=True
            ).stdout
            for argv in argvs
        ]
        for order in (argvs, argvs[::-1]):
            for argv in order:
                assert cli(*argv) == (0, alone[argvs.index(argv)])


class TestModuleEntryPoint:
    def test_python_m_invocation(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "mgg", "census", "--nodes", "1"],
            cwd=REPO / "src",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "swaps 2" in proc.stdout
