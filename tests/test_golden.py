"""Golden CLI reports on the bundled grammars, compared byte for byte.

Each file under ``tests/golden/`` holds ``exit <code>`` on its first line
followed by the command's full stdout.  Commands run from the repo root
with repo-relative paths, because reports echo the grammar path.

Regenerate (only when a report change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
from pathlib import Path

import pytest

from mgg.cli import run

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
DEMO = "grammars/demo.mgg"
PAIR = "grammars/pair.mgg"
LONG = "grammars/long.mgg"
WIDE = "grammars/wide.mgg"
BIG = "grammars/big.mgg"
CHECKS = ("coherence", "initial", "image", "compatibility")


def _analyze_cases(grammar: str, seq: str, tag: str) -> dict[str, list[str]]:
    cases = {}
    for check in CHECKS:
        cases[f"analyze-{tag}-{check}"] = [
            "analyze", grammar, "--sequence", seq, "--check", check,
        ]
    for mode in ("advance", "delay"):
        cases[f"analyze-{tag}-congruence-{mode}"] = [
            "analyze", grammar, "--sequence", seq, "--check", "congruence",
            "--mode", mode,
        ]
    return cases


def _cases() -> dict[str, list[str]]:
    cases = {}
    for seq in ("handover", "clash"):
        cases.update(_analyze_cases(DEMO, seq, seq))
        for select in ("first", "all", "0", "1"):
            cases[f"derive-{seq}-{select}"] = [
                "derive", DEMO, "--host", "start", "--sequence", seq,
                "--select", select,
            ]
    for grammar, graph in ((DEMO, "start"), (PAIR, "mutual")):
        cases[f"encode-graph-{graph}"] = ["encode", grammar, "--graph", graph]
    for grammar, prod in (
        (DEMO, "retire"), (DEMO, "recruit"), (DEMO, "fanout"), (DEMO, "cut"),
        (PAIR, "tie"),
    ):
        cases[f"encode-production-{prod}"] = ["encode", grammar, "--production", prod]
    for seq in ("steady", "tangle"):
        cases.update(_analyze_cases(LONG, seq, f"long-{seq}"))
    for select in ("first", "2"):
        cases[f"derive-wide-{select}"] = [
            "derive", WIDE, "--host", "field", "--sequence", "trek",
            "--select", select,
        ]
    for check in ("coherence", "compatibility"):
        cases[f"analyze-big-{check}"] = [
            "analyze", BIG, "--sequence", "climb", "--check", check,
        ]
    cases["encode-graph-sparse"] = ["encode", BIG, "--graph", "sparse"]
    cases["derive-big-first"] = [
        "derive", BIG, "--host", "sparse", "--sequence", "climb", "--select", "first",
    ]
    for nodes in ("0", "1", "2"):
        cases[f"census-{nodes}"] = ["census", "--nodes", nodes]
    return cases


CASES = _cases()


def _render(argv: list[str]) -> str:
    out = io.StringIO()
    code = run(argv, out=out)
    return f"exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(REPO)
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _render(CASES[name]).encode("utf-8") == expected


if __name__ == "__main__":
    os.chdir(REPO)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(_render(argv).encode("utf-8"))
