"""Command-line interface: analyze, derive, encode, census, gasket.

Reports are line-oriented documents with a stable key order so they can be
diffed byte for byte.  Exit codes: 0 when the requested check passes or the
derivation completes, 1 when it fails, 2 for unknown names or bad input.

Every matrix in a report renders row by row through the report's one row
memo (``Report.matrix``), and a vector as one entry of it, so a row that the
graphs of a derivation share is joined once per report.  A matrix renders
by difference from the one before it: over the same universe object, only
the rows holding a changed cell are read again, so a derived graph costs
about what its rewrite changed.  A graph's three lines are one report entry
(``Report.graph``), and a ``--select all`` trace's step lines join them.

A failed analysis lists each set cell of its witness masks as a
``witness <part> <position> <cell>`` line, and each mask's lines go into the
report in one ``extend`` with the prefix built once.  A report names its
edge cells in one of two ways, chosen once from the total popcount of its
matrix masks: at n²/4 cells or more, through the universe's table of all n²
tokens (``NodeUniverse.cell_names``, which the grammar reader of a
token-dense file has already built), picked out at C speed by the mask's
digit string; below that, cell by cell from the mask's set bits.  The rule
is ``_TABLE_WITNESSES``: the table route when 4 · count >= n².  Node cells
are always picked out of the universe's labels.  CHANGES.md holds the
measured times of both routes.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from collections.abc import Iterator
from itertools import compress
from pathlib import Path

from .boolmat import BoolMatrix, BoolVector, Digraph
from .derivation import DerivationError, derivations, derive
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

# A report names its witness edges through ``cell_names`` when this many times
# their count reaches n².  The table costs ~65 ns a cell (~0.26 ms at 64 nodes)
# where it is not built yet, picking a mask's cells out of it ~12 ns a cell, and
# naming a set cell from the bits ~0.4 us.  On the 64-node benchmark items the
# two routes break even near 4 x count = n² when the table must be built
# (congruence reports with 2 masks: 1.21x the time at 0.85 n²/4 witnesses,
# 0.95x at 1.06 n²/4); coherence reports of ~11 n²/4 take 0.39x.  The gate does
# not ask whether the grammar reader built the table already: if it has, the
# table route is the faster one down to ~0.2 n²/4 (0.81x at 0.22 n²/4, 0.54x at
# 0.56 n²/4, best of 15, two-mask congruence reports of coherent 64-node files).
_TABLE_WITNESSES = 4
# A mask's digit string as bytes, read by ``compress`` as one selector per cell.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


class _Rows(dict):
    """Rendered rows: the cells of a matrix row or a vector (a ``str``) -> ``[c0,c1,...]``.

    ``cells.replace('', ',')`` puts a comma before, between and after the cells.
    """

    def __missing__(self, cells: str) -> str:
        text = self[cells] = f"[{cells.replace('', ',')[1:-1]}]"
        return text


def _picked(names, mask: BoolMatrix | BoolVector) -> Iterator[str]:
    """The entries of ``names``, one per cell in cell order, at the set cells of ``mask``."""
    return compress(names, mask.cells().encode().translate(_SELECTORS))


def _bool_str(flag: bool) -> str:
    return "yes" if flag else "no"


# Report lines joined per write, so that a report's text is not held twice: once in
# its lines and once joined.  Measured (CHANGES.md): ``derive --select all`` on a
# 4,903-entry, 5.2 MB report to the null device peaks at 19.7 MB writing each line,
# 20.3 MB at 256, 21.8 MB at 1,024 and 29.7 MB in one join; emitting a 12,074-line
# analyze report into a ``StringIO`` takes 0.14 ms at 256 to 4,096, 0.19 ms at 64,
# 0.28 ms in one join and 2.3 ms line by line.
_EMIT_LINES = 256


class Report:
    def __init__(self, command: str):
        self.lines = [f"report {command}"]
        # Rows repeat within a report (the graphs of a derivation share most of
        # theirs): each distinct one is joined once.
        self.rows = _Rows()
        # The last universe and node vector a graph entry read, and their text.
        self._universe = self._nodes = None, ""
        # The last matrix rendered: its universe, bits, row texts and text.
        self._matrix = None, 0, [], ""

    def graph(self, gid: str, g: Digraph) -> str:
        """g's universe, nodes and edges lines, as one entry.

        The labels are joined once per run of graphs over one universe object,
        and the nodes row read once per run over one node vector object.
        """
        if self._universe[0] is not g.universe:
            self._universe = g.universe, " ".join(("universe",) + g.universe.labels)
        if self._nodes[0] is not g.nodes:
            self._nodes = g.nodes, self.rows[g.nodes.cells()]
        return (
            f"graph {gid} {self._universe[1]}\ngraph {gid} nodes {self._nodes[1]}\n"
            f"graph {gid} edges {self.matrix(g.edges)}"
        )

    def matrix(self, m: BoolMatrix) -> str:
        """``[[c00,c01,...],[c10,...],...]``, row by row, each row read from ``rows``.

        Over the universe object of the last matrix rendered, only the rows
        holding a changed cell may be read again, and the others' texts reused.
        """
        u, bits, rows = m.universe, m.bits, self.rows
        n = u.size
        last, last_bits, texts, text = self._matrix
        # The rule: by difference when at most n cells changed.  Past that they may lie
        # in every row, and slicing every row is cheaper than re-reading each.
        if u is last and (changed := bits ^ last_bits).bit_count() <= n:
            if not changed:
                return text
            full, spec, i = u.vector_full, f"0{n}b", -1
            while changed:  # the changed cells of rows i + 1 on, row i + 1 at bit 0
                skip = ((changed & -changed).bit_length() - 1) // n
                i += skip + 1
                texts[i] = rows[format(bits >> i * n & full, spec)[::-1]]
                changed >>= (skip + 1) * n
        else:
            cells = m.cells()
            texts = [rows[cells[i * n : i * n + n]] for i in range(n)]
        text = "[" + ",".join(texts) + "]"
        self._matrix = u, bits, texts, text
        return text

    def add(self, key: str, value: str = "") -> None:
        self.lines.append(f"{key} {value}".rstrip())

    def add_all(self, key: str, values) -> None:
        """One ``key value`` line per value, in order; no value is empty or ends in a space."""
        self.lines.extend(map(f"{key} ".__add__, values))

    def emit(self, out) -> None:
        """Every line, each ended by a newline, joined and written _EMIT_LINES at a time."""
        lines = self.lines
        for i in range(0, len(lines), _EMIT_LINES):
            out.write("\n".join(lines[i : i + _EMIT_LINES]) + "\n")


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
    report.add(f"{prefix}_cert_edges", report.matrix(term.cert_edges))
    report.add(f"{prefix}_cert_nodes", report.rows[term.cert_nodes.cells()])
    report.add(f"{prefix}_nihil_edges", report.matrix(term.nihil_edges))


def _add_analysis(report: Report, analysis: AnalysisReport) -> None:
    report.add("ok", _bool_str(analysis.ok))
    for note in analysis.notes:
        report.add("note", note)
    for key, extra in analysis.extras:
        report.add(key, report.matrix(extra))
    u = analysis.term.universe
    edges = sum(c.count() for _, _, c in analysis.witnesses if isinstance(c, BoolMatrix))
    names = u.cell_names if _TABLE_WITNESSES * edges >= u.size * u.size else None
    for part, position, cells in analysis.witnesses:
        key = f"witness {part} {position}"
        if isinstance(cells, BoolVector):
            key, flagged = f"{key} node", _picked(u.labels, cells)
        elif names is None:
            flagged = [f"{source}->{target}" for source, target in cells.edges()]
        else:
            flagged = _picked(names, cells)
        report.add_all(key, flagged)


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
        report.add("c_plus", report.matrix(analysis.term.cert_edges))
        report.add("c_minus", report.matrix(analysis.term.nihil_edges))
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
        report.add("violations", report.matrix(analysis.term.cert_edges))
        _add_analysis(report, analysis)
        ok = analysis.ok
    elif args.check == "congruence":
        if len(s) < 2:
            raise LookupError("congruence needs a sequence of at least two rules")
        analysis = g_congruence(s, args.mode)
        report.add("mode", args.mode)
        report.add("f_plus", report.matrix(analysis.term.cert_edges))
        report.add("f_minus", report.matrix(analysis.term.nihil_edges))
        _add_analysis(report, analysis)
        ok = analysis.ok
    report.emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def _add_graph(report: Report, gid: str, g: Digraph) -> None:
    report.lines.append(report.graph(gid, g))


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

    if args.select == "all":
        # Each trace renders as the walk yields it, as one entry of its step and graph
        # lines; the traces line is filled in after.  Only the steps a trace does not
        # share (as objects) with the last are rendered.
        count, trail, steps, t = len(report.lines), (), [], -1
        report.add("traces")
        for t, trace in enumerate(derivations(host, rules)):
            k = 0
            while k < len(trail) and trace.steps[k] is trail[k]:
                k += 1
            trail = trace.steps
            steps[k:] = [f"{step.production} match {step.match.render()}" for step in trail[k:]]
            report.lines.append(
                "".join([f"trace {t} step {text}\n" for text in steps])
                + report.graph(f"trace-{t}-result", trace.result)
            )
        report.lines[count] = f"traces {t + 1}"
        report.add("ok", _bool_str(t >= 0))
        report.emit(out)
        return EXIT_OK if t >= 0 else EXIT_FAIL

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
    _add_graph(report, "g0", host)
    for step in trace.steps:
        report.add(
            "step",
            f"{step.input_id} {step.production} match {step.match.render()} -> {step.output_id}",
        )
    for k, g in enumerate(trace.graphs[1:], start=1):
        _add_graph(report, f"g{k}", g)
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
        report.add("class", f"nihil {report.matrix(swap.nihil_edges)} size {size}")
    report.emit(out)
    return EXIT_OK


def cmd_gasket(args, out) -> int:
    bitmap = gasket_raster(args.bits)
    # Row by row, so memory grows with the width, not the area.
    with open(args.out, "w", encoding="utf-8") as f:
        f.writelines(bitmap.p1_lines())
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
