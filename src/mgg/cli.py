"""Command-line interface: analyze, derive, encode, census, gasket.

Reports are line-oriented documents with a stable key order so they can be
diffed byte for byte.  Exit codes: 0 when the requested check passes or the
derivation completes, 1 when it fails, 2 for unknown names or bad input.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from pathlib import Path

from .boolmat import BoolMatrix, BoolVector, Digraph
from .derivation import DerivationError, derive, derive_all
from .encoding import ell_complex, gasket_raster
from .grammar import GrammarError, GrammarFile, parse_grammar
from .mcl import ComplexTerm
from .production import swap_census
from .sequence import (
    AnalysisReport,
    IncoherentSequenceWarning,
    RuleSequence,
    coherence,
    g_congruence,
    image_of_sequence,
    initial_digraph,
    sequence_compatibility,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# ASCII digits only: int() alone also takes "+0", "0_1" and non-ASCII digits.
_SELECT = re.compile(r"first|all|[0-9]+")
_INTEGER = re.compile(r"-?[0-9]+")


def matrix_str(m: BoolMatrix) -> str:
    n, cells = m.universe.size, m.cells()
    return "[" + ",".join("[" + ",".join(cells[i * n : i * n + n]) + "]" for i in range(n)) + "]"


def vector_str(v: BoolVector) -> str:
    return "[" + ",".join(v.cells()) + "]"


class _Joined(dict):
    """The cells of a row or a vector -> ``[c0,c1,...]``, each joined when first asked for."""

    def __missing__(self, cells: str) -> str:
        text = self[cells] = "[" + ",".join(cells) + "]"
        return text


def _matrix_str(m: BoolMatrix, joined: _Joined) -> str:
    """``matrix_str(m)``, each row read from ``joined``."""
    n, cells = m.universe.size, m.cells()
    return "[" + ",".join([joined[cells[i * n : i * n + n]] for i in range(n)]) + "]"


def _bool_str(flag: bool) -> str:
    return "yes" if flag else "no"


class Report:
    def __init__(self, command: str):
        self.lines = [f"report {command}"]

    def add(self, key: str, value: str = "") -> None:
        self.lines.append(f"{key} {value}".rstrip())

    def emit(self, out) -> None:
        out.write("\n".join(self.lines) + "\n")


def _load_grammar(path: str) -> GrammarFile:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte continues the last line of the text before it, or opens a new one.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise GrammarError(line, f"byte 0x{data[exc.start]:02x} is not UTF-8") from None
    # One leading byte order mark is skipped, as the utf-8-sig codec does.
    return parse_grammar(text.removeprefix("\ufeff"))


def _sequence_of(gf: GrammarFile, name: str) -> RuleSequence:
    rules = tuple(gf.productions[r] for r in gf.sequences[name])
    return RuleSequence(rules)


def _add_term(report: Report, prefix: str, term: ComplexTerm) -> None:
    report.add(f"{prefix}_cert_edges", matrix_str(term.cert_edges))
    report.add(f"{prefix}_cert_nodes", vector_str(term.cert_nodes))
    report.add(f"{prefix}_nihil_edges", matrix_str(term.nihil_edges))


def _add_analysis(report: Report, analysis: AnalysisReport) -> None:
    report.add("ok", _bool_str(analysis.ok))
    for note in analysis.notes:
        report.add("note", note)
    for key, extra in analysis.extras:
        report.add(key, matrix_str(extra))
    for part, position, cells in analysis.witnesses:
        if isinstance(cells, BoolVector):
            flagged = [f"node {label}" for label in cells.labels()]
        else:
            flagged = [f"{source}->{target}" for source, target in cells.edges()]
        for cell in flagged:
            report.add("witness", f"{part} {position} {cell}")


def cmd_analyze(args, out) -> int:
    gf = _load_grammar(args.grammar)
    if args.sequence not in gf.sequences:
        raise LookupError(f"unknown sequence {args.sequence!r}")
    s = _sequence_of(gf, args.sequence)
    report = Report("analyze")
    report.add("grammar", args.grammar)
    report.add("sequence", args.sequence)
    report.add("applied", " ".join(p.name for p in s.rules))
    report.add("composed", s.composition_order())
    report.add("check", args.check)
    ok = True
    if args.check == "coherence":
        analysis = coherence(s)
        report.add("c_plus", matrix_str(analysis.term.cert_edges))
        report.add("c_minus", matrix_str(analysis.term.nihil_edges))
        _add_analysis(report, analysis)
        ok = analysis.ok
    elif args.check == "initial":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IncoherentSequenceWarning)
            term = initial_digraph(s)
        _add_term(report, "initial", term)
        for w in caught:
            report.add("note", str(w.message))
        report.add("ok", _bool_str(True))
    elif args.check == "image":
        _add_term(report, "image", image_of_sequence(s))
        report.add("ok", _bool_str(True))
    elif args.check == "compatibility":
        analysis = sequence_compatibility(s)
        report.add("violations", matrix_str(analysis.term.cert_edges))
        _add_analysis(report, analysis)
        ok = analysis.ok
    elif args.check == "congruence":
        if len(s) < 2:
            raise LookupError("congruence needs a sequence of at least two rules")
        analysis = g_congruence(s, args.mode)
        report.add("mode", args.mode)
        report.add("f_plus", matrix_str(analysis.term.cert_edges))
        report.add("f_minus", matrix_str(analysis.term.nihil_edges))
        _add_analysis(report, analysis)
        ok = analysis.ok
    report.emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def _add_graph(report: Report, gid: str, g: Digraph, joined: _Joined) -> None:
    report.add(f"graph {gid} universe", " ".join(g.universe.labels))
    report.add(f"graph {gid} nodes", joined[g.nodes.cells()])
    report.add(f"graph {gid} edges", _matrix_str(g.edges, joined))


def cmd_derive(args, out) -> int:
    gf = _load_grammar(args.grammar)
    if args.host not in gf.hosts:
        raise LookupError(f"unknown host {args.host!r}")
    if args.sequence not in gf.sequences:
        raise LookupError(f"unknown sequence {args.sequence!r}")
    host = gf.hosts[args.host]
    rules = [gf.productions[r] for r in gf.sequences[args.sequence]]
    report = Report("derive")
    report.add("grammar", args.grammar)
    report.add("host", args.host)
    report.add("sequence", args.sequence)
    report.add("select", args.select)
    # Graphs of one report share most rows: each distinct one is joined once per report.
    joined = _Joined()

    if args.select == "all":
        traces = derive_all(host, rules)
        report.add("traces", str(len(traces)))
        for t, trace in enumerate(traces):
            for step in trace.steps:
                report.add(
                    f"trace {t} step",
                    f"{step.production} match {step.match.render()}",
                )
            _add_graph(report, f"trace-{t}-result", trace.result, joined)
        report.add("ok", _bool_str(bool(traces)))
        report.emit(out)
        return EXIT_OK if traces else EXIT_FAIL

    selector: object = "first" if args.select == "first" else int(args.select)
    try:
        trace = derive(host, [(p, selector) for p in rules])
    except DerivationError as exc:
        report.add("ok", "no")
        report.add("failed_step", str(exc.step))
        report.add("failed_production", exc.production)
        report.add("failed_morphism", exc.failed)
        report.add("error", str(exc))
        report.emit(out)
        return EXIT_FAIL
    _add_graph(report, "g0", host, joined)
    for step in trace.steps:
        report.add(
            "step",
            f"{step.input_id} {step.production} match {step.match.render()} -> {step.output_id}",
        )
    for k, g in enumerate(trace.graphs[1:], start=1):
        _add_graph(report, f"g{k}", g, joined)
    report.add("result", f"g{len(trace.steps)}")
    report.add("ok", "yes")
    report.emit(out)
    return EXIT_OK


def cmd_encode(args, out) -> int:
    gf = _load_grammar(args.grammar)
    report = Report("encode")
    report.add("grammar", args.grammar)
    if args.production is not None:
        if args.production not in gf.productions:
            raise LookupError(f"unknown production {args.production!r}")
        term = gf.productions[args.production].lhs_term()
        report.add("production", args.production)
        report.add("term", "lhs")
    else:
        if args.graph not in gf.hosts:
            raise LookupError(f"unknown host {args.graph!r}")
        term = ComplexTerm.of(gf.hosts[args.graph].edges)
        report.add("graph", args.graph)
        report.add("term", "certainty")
    point = ell_complex(term)
    report.add("encoding", point.render())
    report.emit(out)
    return EXIT_OK


def cmd_census(args, out) -> int:
    table = swap_census(args.nodes)
    report = Report("census")
    report.add("nodes", str(args.nodes))
    report.add("productions", str(table.production_count))
    report.add("swaps", str(table.swap_count()))
    report.add("histogram", "[" + ",".join(str(c) for c in table.histogram) + "]")
    for swap, size in table.class_sizes:
        report.add("class", f"nihil {matrix_str(swap.nihil_edges)} size {size}")
    report.emit(out)
    return EXIT_OK


def cmd_gasket(args, out) -> int:
    bitmap = gasket_raster(args.bits)
    Path(args.out).write_text(bitmap.to_p1(), encoding="utf-8")
    report = Report("gasket")
    report.add("bits", str(args.bits))
    report.add("size", f"{bitmap.width}x{bitmap.height}")
    report.add("out", args.out)
    report.add("ok", "yes")
    report.emit(out)
    return EXIT_OK


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mgg",
        description="Matrix graph grammar analysis over Boolean adjacency matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run a sequence analysis")
    p_analyze.add_argument("grammar")
    p_analyze.add_argument("--sequence", required=True)
    p_analyze.add_argument(
        "--check",
        required=True,
        choices=["coherence", "initial", "image", "compatibility", "congruence"],
    )
    p_analyze.add_argument("--mode", choices=["advance", "delay"], default="advance")
    p_analyze.set_defaults(func=cmd_analyze)

    p_derive = sub.add_parser("derive", help="rewrite a host along a sequence")
    p_derive.add_argument("grammar")
    p_derive.add_argument("--host", required=True)
    p_derive.add_argument("--sequence", required=True)
    p_derive.add_argument("--select", default="first", metavar="first|all|K")
    p_derive.set_defaults(func=cmd_derive)

    p_encode = sub.add_parser("encode", help="dyadic encoding of a graph or rule lhs")
    p_encode.add_argument("grammar")
    group = p_encode.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--production")
    p_encode.set_defaults(func=cmd_encode)

    p_census = sub.add_parser("census", help="swap classes of all small rules")
    p_census.add_argument("--nodes", type=_integer, required=True)
    p_census.set_defaults(func=cmd_census)

    p_gasket = sub.add_parser("gasket", help="write a Sierpinski raster as P1")
    p_gasket.add_argument("--bits", type=_integer, required=True)
    p_gasket.add_argument("--out", required=True)
    p_gasket.set_defaults(func=cmd_gasket)
    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "derive" and not _SELECT.fullmatch(args.select):
        parser.error(f"--select must be first, all or an index, not {args.select!r}")
    try:
        return args.func(args, out)
    except (GrammarError, LookupError, ValueError, OSError) as exc:
        out.write(f"error {exc}\n")
        return EXIT_USAGE


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
