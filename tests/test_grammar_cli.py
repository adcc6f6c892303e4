"""Grammar parsing, serialization round trips, and the CLI surface."""

import io
import sys
from pathlib import Path

import pytest

from mgg import GrammarError, parse_grammar, serialize_grammar
from mgg.cli import run

REPO = Path(__file__).resolve().parent.parent
DEMO = str(REPO / "grammars" / "demo.mgg")
PAIR = str(REPO / "grammars" / "pair.mgg")

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

    def test_cli_exit_2_on_truncating_input(self, tmp_path):
        path = tmp_path / "bad.mgg"
        path.write_text("nodes a recruit.c#2\n")
        code, text = cli("encode", str(path), "--graph", "h")
        assert code == 2
        assert text == "error line 1: '#' inside a token; comments start at a token boundary\n"


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

    def test_select_all_counts_traces(self):
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover",
            "--select", "all",
        )
        assert code == 0
        assert any(l.startswith("traces ") for l in text.splitlines())

    def test_select_index(self):
        code, text = cli(
            "derive", DEMO, "--host", "start", "--sequence", "handover",
            "--select", "0",
        )
        assert code == 0


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
