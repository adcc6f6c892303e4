"""Equivalence sweep: the same CLI commands on two source trees, compared byte for byte.

    python3 tools/sweep.py PARENT_TREE CHANGE_TREE
    python3 tools/sweep.py --record FILE [TREE]
    python3 tools/sweep.py --check FILE [TREE]

Each tree is a checkout of this repository (its package lives in
``<tree>/src/mgg``); TREE defaults to the checkout holding this script.
The sweep writes seeded grammar files once, with the first tree's
``mgg.oracle`` generators and ``serialize_grammar``, then runs every
command below through ``mgg.cli.run`` under each tree's ``src/``, one
subprocess per tree, from the directory of the grammar files (so reports
name a file, not a temporary path):

* ``analyze --check`` with every check (congruence in both modes);
* ``encode`` of the host and of each rule's lhs;
* ``derive --select first``, ``0`` and ``2``, plus ``all`` on universes of
  10 nodes or fewer and on the tree grammars below.

Universes run from 1 to 128 nodes, hosts from no present node to every
node, and the rules (1 to 3 per sequence, of 1 to 4 nodes each, completed to the universe) grow,
shrink and rewire.  After those, long grammars hold sequences of 8 to 32
such rules over 4 to 16 nodes; ``derive --select all`` runs only on
sequences of up to 3 rules, since its trace count is the product of the
per-step match counts.  Then come wide grammars: sequences of 4 to 8 rules
over 65 to 128 nodes, then hosts of 200 to 300 nodes, on which only
``derive`` runs (universes above 128 nodes are not analyzed or encoded).
Tree grammars follow: 1 or 2 rules on hosts of 11 to 13 nodes, on which
``derive --select all`` runs too.  Their sequence applies the first rule
again at the end, so a node it adds comes back under a later step's fresh
label beside the earlier one; an added node's rule label also names a
host node.  A tree grammar is drawn again until its sequence would have
1 to TREE_TRACES traces if no lhs edge pruned a match.
Dense grammars follow: ``oracle.random_sequence`` sequences of 4 to 8
rules over 64 to 128 nodes, incoherent, that are analyzed and encoded but
not derived.  Their rules span the universe, so their files name about
0.4 n² edge tokens per rule and their reports up to ~3 n² witnesses; the
shapes put files on both sides of the parser's 2n² edge-token gate and
compatibility and congruence reports on both sides of the report's
n²/4 witness gate (see ``grammar`` and ``cli``).
Long walks come last: sequences of 12 to 24 rules on hosts of 64 to 256
nodes, on which only ``derive`` runs, so each host a step builds is
searched by the next step.
The sweep prints the exit-code counts of each tree and every command whose
exit code or stdout sha256 differs, and exits 1 if any does.

``--record`` writes each command's (exit code, stdout sha256), keyed by its
command line, to FILE as JSON; ``--check`` runs one tree and compares it
with FILE the same way, so it needs no second checkout.  The record is made
at a commit whose reports are known good and checked in
(``tests/golden/sweep.json``); a change to the generators, to
``serialize_grammar`` or to any report re-records it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SEED = 10
GRAMMARS = 300
# Long sequences, drawn after the others so that their commands come first unchanged.
LONG_GRAMMARS = 24
# Wide grammars, drawn after the long ones: (count, universe sizes, rules per sequence).
WIDE_GRAMMARS = ((6, (65, 128), (4, 8)), (6, (200, 300), (1, 3)))
# Tree grammars, drawn after the wide ones: hosts of 11 to 13 nodes, also derived with all.
TREE_GRAMMARS = 24
TREE_TRACES = 3000
# Dense grammars, drawn after the tree ones: (universe size, rules per sequence) of each.
DENSE_GRAMMARS = ((64, 4), (64, 5), (96, 4), (96, 6), (128, 4), (128, 8))
# Long walks on wide hosts, drawn last: (count, universe sizes, rules per sequence).
WALK_GRAMMARS = (6, (64, 256), (12, 24))
# Universe sizes, cycled through by grammar number.
SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128)
ALL_LIMIT = 10
ALL_RULES_LIMIT = 3
ANALYZE_LIMIT = 128
CHECKS = ("coherence", "initial", "image", "compatibility")

# Runs a JSON list of argv lists through mgg.cli.run and prints one
# [exit code, stdout sha256] pair per command.
RUNNER = """
import hashlib, io, json, sys
from mgg.cli import run
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    try:
        code = run(argv, out)
    except SystemExit as exc:
        code = f"exit {exc.code}"
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
json.dump(results, sys.stdout)
"""


def write_grammars(parent: Path, directory: Path) -> list[tuple[str, bool, list[str], list[str]]]:
    """(file name, analyzed, rule names, derive selects) of each grammar in ``directory``."""
    sys.path.insert(0, str(parent / "src"))
    from mgg import GrammarFile, NodeUniverse, Production, complete_to, serialize_grammar
    from mgg.oracle import random_digraph, random_production, random_sequence

    rng = random.Random(SEED)

    def draw(size, rules_range):
        n = size if isinstance(size, int) else rng.randint(*size)
        rule_count = rng.randint(*rules_range)
        u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
        rules = {}
        for r in range(rule_count):
            small = NodeUniverse(tuple(rng.sample(u.labels, min(n, rng.randint(1, 4)))))
            p = random_production(
                rng, small, edge_density=rng.choice([0.1, 0.3]),
                node_delete_prob=0.3, node_add_prob=0.5,
            )
            name = f"r{r + 1}"
            lhs, rhs = complete_to(p.lhs, u), complete_to(p.rhs, u)
            rules[name] = Production.from_static(name, lhs, rhs)
        # About 1, 3 or 8 out-edges per present node.
        host = random_digraph(
            rng, u, rng.choice([0.0, 0.5, 0.9, 1.0]), min(0.6, rng.choice([1, 3, 8]) / n)
        )
        return u, rules, tuple(rules), host

    def traces_bound(rules, sequence, host):
        """The trace count of ``derive --select all`` if no lhs edge pruned a match."""
        present, bound = host.nodes.count(), 1
        for name in sequence:
            p = rules[name]
            bound *= math.perm(present, p.lhs.nodes.count())
            if not bound:
                return 0
            present += p.added_nodes.count() - p.deleted_nodes.count()
        return bound

    shapes = [(SIZES[k % len(SIZES)], (1, 3)) for k in range(GRAMMARS)]
    shapes += [((4, 16), (8, 32))] * LONG_GRAMMARS
    shapes += [(sizes, rules) for count, sizes, rules in WIDE_GRAMMARS for _ in range(count)]
    drawn = [draw(*shape) for shape in shapes]
    for _ in range(TREE_GRAMMARS):
        while True:
            u, rules, sequence, host = draw((11, 13), (1, 2))
            sequence += sequence[:1]
            if 0 < traces_bound(rules, sequence, host) <= TREE_TRACES:
                break
        drawn.append((u, rules, sequence, host))
    trees = len(drawn)
    for n, length in DENSE_GRAMMARS:
        u = NodeUniverse(tuple(f"v{i}" for i in range(n)))
        rules = {p.name: p for p in random_sequence(rng, u, length, name="r").rules}
        drawn.append((u, rules, tuple(rules), random_digraph(rng, u, 0.7, 0.3)))
    dense = len(drawn)
    count, sizes, rules_range = WALK_GRAMMARS
    drawn += [draw(sizes, rules_range) for _ in range(count)]
    written = []
    for k, (u, rules, sequence, host) in enumerate(drawn):
        gf = GrammarFile(u, rules, {"s": sequence}, {"h": host})
        name = f"sweep-{k:03d}.mgg"
        (directory / name).write_text(serialize_grammar(gf), encoding="utf-8")
        if k >= dense:
            selects = ["first", "0", "2"]
        elif k >= trees:
            selects = []
        elif len(u) <= ALL_LIMIT and len(sequence) <= ALL_RULES_LIMIT or k >= len(shapes):
            selects = ["first", "0", "2", "all"]
        else:
            selects = ["first", "0", "2"]
        written.append((name, len(u) <= ANALYZE_LIMIT and k < dense, list(rules), selects))
    sys.path.pop(0)
    return written


def commands(grammars) -> list[list[str]]:
    argvs = []
    for path, analyzed, rules, selects in grammars:
        if analyzed:
            argvs += [["analyze", path, "--sequence", "s", "--check", c] for c in CHECKS]
            argvs += [
                ["analyze", path, "--sequence", "s", "--check", "congruence", "--mode", mode]
                for mode in ("advance", "delay")
            ]
            argvs.append(["encode", path, "--graph", "h"])
            argvs += [["encode", path, "--production", r] for r in rules]
        argvs += [
            ["derive", path, "--host", "h", "--sequence", "s", "--select", s] for s in selects
        ]
    return argvs


def run_tree(tree: Path, argvs: list[list[str]], directory: Path) -> list[list]:
    done = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=directory,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        check=True,
    )
    return json.loads(done.stdout)


def sweep(trees: list[Path]) -> dict[str, list[list]]:
    """Each command line -> one (exit code, stdout sha256) per tree."""
    with tempfile.TemporaryDirectory(prefix="mgg-sweep-") as tmp:
        argvs = commands(write_grammars(trees[0], Path(tmp)))
        results = [run_tree(tree, argvs, Path(tmp)) for tree in trees]
    return {" ".join(argv): list(pair) for argv, *pair in zip(argvs, *results)}


def report(labels: tuple[str, str], pairs: dict[str, list[list]]) -> int:
    """Print the exit-code counts per side and every differing command; 1 if any differs."""
    differ = [key for key, (a, b) in pairs.items() if a != b]
    grammars = GRAMMARS + LONG_GRAMMARS + sum(c for c, _, _ in WIDE_GRAMMARS) + TREE_GRAMMARS
    grammars += len(DENSE_GRAMMARS) + WALK_GRAMMARS[0]
    print(f"grammars {grammars}, commands {len(pairs)}")
    for side, label in enumerate(labels):
        counts = Counter(str(pair[side][0]) for pair in pairs.values() if pair[side])
        print(f"{label} exit codes: " + ", ".join(f"{c} x{k}" for c, k in sorted(counts.items())))
    print(f"differing commands {len(differ)}")
    for key in differ:
        print("differs: " + key)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent.parent
    if len(argv) in (2, 3) and argv[0] in ("--record", "--check"):
        mode, record = argv[0], Path(argv[1])
        tree = Path(argv[2]).resolve() if len(argv) == 3 else here
        results = {key: pair[0] for key, pair in sweep([tree]).items()}
        if mode == "--record":
            lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in results.items())
            record.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
            print(f"recorded {len(results)} commands in {record}")
            return 0
        recorded = json.loads(record.read_text(encoding="utf-8"))
        keys = list(recorded) + [key for key in results if key not in recorded]
        return report(("recorded", "tree"), {k: [recorded.get(k), results.get(k)] for k in keys})
    if len(argv) != 2:
        print(
            "usage: python3 tools/sweep.py PARENT_TREE CHANGE_TREE\n"
            "       python3 tools/sweep.py --record FILE [TREE]\n"
            "       python3 tools/sweep.py --check FILE [TREE]",
            file=sys.stderr,
        )
        return 2
    return report(("parent", "change"), sweep([Path(a).resolve() for a in argv]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
