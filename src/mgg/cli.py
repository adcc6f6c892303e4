"""Command-line interface: analyze, derive, encode, census, gasket.

Reports are line-oriented documents with a stable key order so they can be
diffed byte for byte.  Exit codes: 0 when the requested check passes or the
derivation completes, 1 when it fails, 2 for unknown names or bad input.
``run`` makes a command's one report, hands it to the command to fill, and
emits it once when the command returns its exit code; on bad input it prints
only the one ``error`` line, and no part of the report.  A report that cannot
be written is no bad input: ``main`` ends the run with exit 1, with nothing on
stderr when stdout was closed early and one ``mgg: cannot write the report``
line for any other write error.

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
import os
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
# their count reaches n², and from each mask's set bits below that.  The table
# costs a build of all n² tokens where the grammar reader has not built it, then
# little a cell; naming from the bits costs more a cell and nothing up front, so
# the routes break even near n²/4 witnesses when the table must be built.  The
# gate does not ask whether it is built: where it is, the table pays from fewer
# witnesses, and a gate that always took it would pay the build on sparse files
# (measured in CHANGES.md, "Witness-heavy commands at join speed" and "One report
# per run").
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


# Report lines joined per write: a report's text is then not held twice (in its
# lines and joined), each join stays in cache, and there is no write per line.
# This is the smallest chunk that emits at the fastest time measured, with a
# peak near that of a write per line (CHANGES.md, "Value objects at slot speed").
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


def _named(table: dict, kind: str, name: str):
    """``table[name]``; a name not in ``table`` is a ``LookupError``, worded by ``kind``."""
    if name not in table:
        raise LookupError(f"unknown {kind} {name!r}")
    return table[name]


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
        # No flagged name is empty or ends in a space: each line is ``key name`` as is.
        report.lines.extend(map(f"{key} ".__add__, flagged))


def cmd_analyze(args, report: Report) -> int:
    gf = _load_grammar(args.grammar)
    rule_names = _named(gf.sequences, "sequence", args.sequence)
    s = RuleSequence(tuple(gf.productions[r] for r in rule_names))
    report.add("grammar", args.grammar)
    report.add("sequence", args.sequence)
    report.add("applied", " ".join(p.name for p in s.rules))
    report.add("composed", s.composition_order())
    report.add("check", args.check)
    if args.check in ("initial", "image"):
        # A term, always ``ok``; only the initial digraph warns (when incoherent).
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IncoherentSequenceWarning)
            term = initial_digraph(s) if args.check == "initial" else image_of_sequence(s)
        _add_term(report, args.check, term)
        for w in caught:
            report.add("note", str(w.message))
        report.add("ok", "yes")
        return EXIT_OK
    # A verdict: its term's parts under the check's own keys, then the analysis.
    if args.check == "coherence":
        analysis, keys = coherence(s), ("c_plus", "c_minus")
    elif args.check == "compatibility":
        analysis, keys = sequence_compatibility(s), ("violations",)
    else:
        if len(s) < 2:
            raise LookupError("congruence needs a sequence of at least two rules")
        analysis, keys = g_congruence(s, args.mode), ("f_plus", "f_minus")
        report.add("mode", args.mode)
    for key, part in zip(keys, (analysis.term.cert_edges, analysis.term.nihil_edges)):
        report.add(key, report.matrix(part))
    _add_analysis(report, analysis)
    return EXIT_OK if analysis.ok else EXIT_FAIL


def cmd_derive(args, report: Report) -> int:
    gf = _load_grammar(args.grammar)
    host = _named(gf.hosts, "host", args.host)
    rules = [gf.productions[r] for r in _named(gf.sequences, "sequence", args.sequence)]
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
        return EXIT_FAIL
    report.lines.append(report.graph("g0", host))
    for step in trace.steps:
        report.add(
            "step",
            f"{step.input_id} {step.production} match {step.match.render()} -> {step.output_id}",
        )
    for k, g in enumerate(trace.graphs[1:], start=1):
        report.lines.append(report.graph(f"g{k}", g))
    report.add("result", f"g{len(trace.steps)}")
    report.add("ok", "yes")
    return EXIT_OK


def cmd_encode(args, report: Report) -> int:
    gf = _load_grammar(args.grammar)
    report.add("grammar", args.grammar)
    if args.production is not None:
        term = _named(gf.productions, "production", args.production).lhs_term()
        report.add("production", args.production)
        report.add("term", "lhs")
    else:
        term = ComplexTerm.of(_named(gf.hosts, "host", args.graph).edges)
        report.add("graph", args.graph)
        report.add("term", "certainty")
    point = ell_complex(term)
    report.add("encoding", point.render())
    return EXIT_OK


def cmd_census(args, report: Report) -> int:
    table = swap_census(args.nodes)
    report.add("nodes", str(args.nodes))
    report.add("productions", str(table.production_count))
    report.add("swaps", str(table.swap_count()))
    report.add("histogram", "[" + ",".join(str(c) for c in table.histogram) + "]")
    for swap, size in table.class_sizes:
        report.add("class", f"nihil {report.matrix(swap.nihil_edges)} size {size}")
    return EXIT_OK


def cmd_gasket(args, report: Report) -> int:
    bitmap = gasket_raster(args.bits)
    # Row by row, so memory grows with the width, not the area.
    with open(args.out, "w", encoding="utf-8") as f:
        f.writelines(bitmap.p1_lines())
    report.add("bits", str(args.bits))
    report.add("size", f"{bitmap.width}x{bitmap.height}")
    report.add("out", args.out)
    report.add("ok", "yes")
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
    report = Report(args.command)
    try:
        code = args.func(args, report)
    except (GrammarError, LookupError, ValueError, OSError) as exc:
        out.write(f"error {exc}\n")
        return EXIT_USAGE
    report.emit(out)
    return code


def main(argv=None) -> int:
    """``run`` on stdout; a report that cannot be written ends the run with exit 1.

    A write error is answered as CPython's docs advise for a closed pipe: stdout is
    pointed at the null device, so the flush at exit writes nowhere.  A closed pipe
    is the reader's choice and reaches stderr as nothing; any other error (a full
    disk) as one line.
    """
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"mgg: cannot write the report: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
