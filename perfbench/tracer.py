"""Span tracing of mgg's public functions, installed from outside the package.

The tracer replaces a function in every mgg module that holds it, so names
imported by value (``from .sequence import coherence`` in ``cli``) are
traced too; ``Production.from_static`` is replaced on the class.  Each call
records a span (name, start, end, parent span, command id) in memory.
Cheap, very frequent operations (``BoolMatrix``/``BoolVector`` ``& | ^``,
``complement``, ``tensor``, building a ``ComplexTerm``) are only counted.

A span's self time is its duration minus the durations of its child spans;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute, counter fed from the return value)
SPANS = (
    ("cli.run", "mgg.cli", "run", None),
    ("grammar.parse_grammar", "mgg.grammar", "parse_grammar", None),
    ("sequence.coherence", "mgg.sequence", "coherence", "sequence.witnesses"),
    ("sequence.initial_digraph", "mgg.sequence", "initial_digraph", None),
    ("sequence.image_of_sequence", "mgg.sequence", "image_of_sequence", None),
    ("sequence.sequence_compatibility", "mgg.sequence", "sequence_compatibility", "sequence.witnesses"),
    ("sequence.g_congruence", "mgg.sequence", "g_congruence", "sequence.witnesses"),
    ("derivation.derive", "mgg.derivation", "derive", None),
    ("derivation.derive_all", "mgg.derivation", "derive_all", None),
    ("derivation.find_matches", "mgg.derivation", "find_matches", "derivation.matches_found"),
    ("derivation.apply_at", "mgg.derivation", "apply_at", None),
    ("boolmat.complete_to", "mgg.boolmat", "complete_to", None),
    ("encoding.ell", "mgg.encoding", "ell", None),
)

# (counter name, module, attribute): module-level functions, counted only.
COUNTED_FUNCTIONS = (
    ("boolmat.ops", "mgg.boolmat", "complement"),
    ("boolmat.ops", "mgg.boolmat", "tensor"),
)

# (counter name, module, class, method): methods, counted only.
COUNTED_METHODS = (
    ("boolmat.ops", "mgg.boolmat", "BoolMatrix", "__and__"),
    ("boolmat.ops", "mgg.boolmat", "BoolMatrix", "__or__"),
    ("boolmat.ops", "mgg.boolmat", "BoolMatrix", "__xor__"),
    ("boolmat.ops", "mgg.boolmat", "BoolVector", "__and__"),
    ("boolmat.ops", "mgg.boolmat", "BoolVector", "__or__"),
    ("boolmat.ops", "mgg.boolmat", "BoolVector", "__xor__"),
    ("mcl.terms", "mgg.mcl", "ComplexTerm", "__post_init__"),
)

# Expected (child, parent) span pairs, reported after a traced run.
NESTING = (
    ("grammar.parse_grammar", "cli.run"),
    ("production.from_static", "grammar.parse_grammar"),
    ("sequence.initial_digraph", "sequence.sequence_compatibility"),
    ("boolmat.complete_to", "derivation.apply_at"),
)


def _size(result) -> int:
    witnesses = getattr(result, "witnesses", None)
    return len(result) if witnesses is None else len(witnesses)


class Tracer:
    """Spans and counters of traced calls, attributed to a command id."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _span(self, name: str, fn, counter: str | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if counter is not None:
                self.counts[self.command][counter] += _size(result)
            return result

        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[self.command][name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mgg" and not mod_name.startswith("mgg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, replacement))

    def install(self) -> None:
        """Replace every traced and counted callable; ``uninstall`` undoes it."""
        for name, mod_name, attr, counter in SPANS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._replace_everywhere(original, self._span(name, original, counter))
        for name, mod_name, attr in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._replace_everywhere(original, self._counted(name, original))
        production = getattr(sys.modules["mgg.production"], "Production", None)
        if production is not None and "from_static" in vars(production):
            original = vars(production)["from_static"]
            wrapped = classmethod(self._span("production.from_static", original.__func__, None))
            self._patches.append((production, "from_static", original, wrapped))
        for name, mod_name, cls_name, attr in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            if cls is not None and attr in vars(cls):
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original, self._counted(name, original)))
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[tuple[int, str], int]:
        """Self time in ns per (command id, span name)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[tuple[int, str], int] = Counter()
        for idx, (name, start, end, _, command) in enumerate(self.spans):
            totals[command, name] += end - start - child_ns[idx]
        return totals

    def calls(self) -> dict[tuple[int, str], int]:
        return Counter((command, name) for name, _, _, _, command in self.spans)

    def nesting(self) -> dict[str, bool]:
        """For each expected (child, parent) pair: seen at least once."""
        names = [s[0] for s in self.spans]
        seen = {(name, names[parent]) for name, _, _, parent, _ in self.spans if parent >= 0}
        return {f"{child} in {parent}": (child, parent) in seen for child, parent in NESTING}

    def write(self, path: Path, commands: list[str]) -> None:
        """Spans as JSON lines, preceded by one line per traced command."""
        with path.open("w", encoding="utf-8") as f:
            for command_id, argv in enumerate(commands):
                f.write(json.dumps({"command": command_id, "argv": argv}) + "\n")
            for name, start, end, parent, command in self.spans:
                f.write(json.dumps([name, start, end, parent, command]) + "\n")
