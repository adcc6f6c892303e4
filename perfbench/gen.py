"""Seeded workload generator for the mgg benchmark.

Every grammar file the benchmark runs is one *item*: an analysis item
(``ana``), a derivation item (``drv``) or an enumeration item (``all``).
An item is fully determined by its spec string and a pool index, so its
reports can be digested once and compared on every later run.  A run's
seed only chooses which pool indices fill the slots of its workload.

    python3 perfbench/gen.py --workload seq-long --seed 3 --out /tmp/g

writes the run's grammar files to the given directory and lists the
commands the benchmark would time on them.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Pool indices per spec.  Reference digests exist for every pool index, so
# raising this needs a fresh ``record.py`` run on the reference commit.
POOL = 12

# The per-pass slots of each workload: (item spec, count).  Analysis mixes
# are 3 coherent : 1 incoherent and derivation mixes 7 completing : 1
# failing, so each command class's median sits inside one mode.
WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    "seq-long": (
        ("ana-n8-L32-coh", 6),
        ("ana-n8-L32-inc", 2),
        ("drv-h12-ok", 7),
        ("drv-h12-fail", 1),
        ("all-h5", 4),
    ),
    "universe-wide": (
        ("ana-n64-L8-coh", 6),
        ("ana-n64-L8-inc", 2),
        ("drv-h12-ok", 7),
        ("drv-h12-fail", 1),
        ("all-h5", 8),
    ),
    "derive-host": (
        ("ana-n8-L6-coh", 6),
        ("ana-n8-L6-inc", 2),
        ("drv-h64-ok", 5),
        ("drv-h128-ok", 2),
        ("drv-h64-fail", 1),
        ("all-h10", 3),
    ),
}

# Enumeration items on 5 host nodes stay within brute_matches' 7-node
# limit at every matched step (each rule adds one node); workloads whose
# timed enumeration hosts are larger get this one checked untimed.
CHECK_ALL_SPEC = "all-h5"

DERIVE_INDEX = "2"  # the fixed `--select K` of every derivation item


def parse_spec(spec: str) -> tuple[str, dict[str, object]]:
    kind, *fields = spec.split("-")
    params: dict[str, object] = {}
    for f in fields:
        if f in ("coh", "inc"):
            params["coherent"] = f == "coh"
        elif f in ("ok", "fail"):
            params["fail"] = f == "fail"
        else:
            params[f[0]] = int(f[1:])
    return kind, params


@dataclass(frozen=True)
class Command:
    """One CLI call: its metric class and its argv for ``mgg.cli.run``."""

    cls: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Item:
    """A generated grammar file plus the in-memory model the checker uses."""

    spec: str
    index: int
    grammar: object  # mgg.GrammarFile
    path: str = ""

    @property
    def name(self) -> str:
        return f"{self.spec}-{self.index:02d}"

    @property
    def kind(self) -> str:
        return parse_spec(self.spec)[0]

    @property
    def params(self) -> dict[str, object]:
        return parse_spec(self.spec)[1]

    def commands(self) -> list[Command]:
        p = self.path
        if self.kind == "ana":
            first_rule = next(iter(self.grammar.productions))
            cmds = [
                Command(f"analyze.{check}", ("analyze", p, "--sequence", "s", "--check", check))
                for check in ("coherence", "initial", "image", "compatibility")
            ]
            cmds += [
                Command(
                    "analyze.congruence",
                    ("analyze", p, "--sequence", "s", "--check", "congruence", "--mode", mode),
                )
                for mode in ("advance", "delay")
            ]
            cmds.append(Command("encode", ("encode", p, "--graph", "h")))
            cmds.append(Command("encode", ("encode", p, "--production", first_rule)))
            return cmds
        if self.kind == "drv":
            return [
                Command("derive.first", ("derive", p, "--host", "h", "--sequence", "walk", "--select", sel))
                for sel in ("first", DERIVE_INDEX)
            ]
        return [Command("derive.all", ("derive", p, "--host", "h", "--sequence", "trio", "--select", "all"))]


def _universe(n: int):
    import mgg

    return mgg.NodeUniverse(tuple(f"v{i}" for i in range(n)))


def _grammar(u, rules, sequence: str, host):
    """A grammar with the given rules, one sequence of all of them, host ``h``."""
    import mgg

    productions = {p.name: p for p in rules}
    return mgg.GrammarFile(u, productions, {sequence: tuple(productions)}, {"h": host})


def _digraph(u, nodes, edges):
    import mgg

    labels = u.labels
    return mgg.Digraph.of(u, [labels[i] for i in nodes], [(labels[a], labels[b]) for a, b in edges])


def _fire_rule(rng: random.Random, u, edges: int, nodes: int, name: str):
    """A random rule that fires on (edges, nodes) at the identity completion.

    Its lhs sits inside the graph, every cell it forbids is absent, and the
    nodes it adds are not present yet.  Returns the rule and the rewritten
    graph bits.
    """
    import mgg

    n = len(u)
    present = [i for i in range(n) if nodes >> i & 1]
    absent = [i for i in range(n) if not nodes >> i & 1]

    def edge(a: int, b: int) -> bool:
        return bool(edges >> (a * n + b) & 1)

    lhs_nodes = {i for i in present if rng.random() < 0.5}
    deleted = {i for i in lhs_nodes if rng.random() < 0.15}
    lhs_edges = set()
    # A deleted node takes every incident edge with it, so all of them must
    # be in the lhs (otherwise they would be forbidden yet present).
    for d in sorted(deleted):
        for j in present:
            if edge(d, j):
                lhs_nodes.add(j)
                lhs_edges.add((d, j))
            if edge(j, d):
                lhs_nodes.add(j)
                lhs_edges.add((j, d))
    for a in sorted(lhs_nodes):
        for b in sorted(lhs_nodes):
            if edge(a, b) and rng.random() < 0.5:
                lhs_edges.add((a, b))
    added = {i for i in absent if rng.random() < 0.3}
    rhs_nodes = (lhs_nodes - deleted) | added
    rhs_edges = {
        (a, b)
        for (a, b) in sorted(lhs_edges)
        if a in rhs_nodes and b in rhs_nodes and rng.random() < 0.6
    }
    for a in sorted(rhs_nodes):
        for b in sorted(rhs_nodes):
            if (a, b) not in lhs_edges and not edge(a, b) and rng.random() < 0.15:
                rhs_edges.add((a, b))
    p = mgg.Production.from_static(
        name,
        _digraph(u, sorted(lhs_nodes), sorted(lhs_edges)),
        _digraph(u, sorted(rhs_nodes), sorted(rhs_edges)),
    )
    edges = p.added_edges.bits | (edges & ~p.deleted_edges.bits)
    nodes = p.added_nodes.bits | (nodes & ~p.deleted_nodes.bits)
    return p, edges, nodes


def _ana(rng: random.Random, n: int, L: int, coherent: bool):
    from mgg.oracle import random_digraph, random_sequence

    u = _universe(n)
    host = random_digraph(rng, u, 0.7, 0.3)
    if coherent:
        edges, nodes = host.edges.bits, host.nodes.bits
        rules = []
        for k in range(L):
            p, edges, nodes = _fire_rule(rng, u, edges, nodes, f"r{k + 1}")
            rules.append(p)
    else:
        rules = random_sequence(rng, u, L, name="r").rules
    return _grammar(u, rules, "s", host)


def _sparse_host(rng: random.Random, u, degree: float):
    """All nodes present, no self-loops, about ``degree`` out-edges per node."""
    n = len(u)
    prob = degree / n
    edges = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < prob]
    return _digraph(u, range(n), edges)


def _small_rule(rng: random.Random, u, name: str, size: int, loop: bool = False, grow: float = 0.3):
    """A loop-free rule whose lhs is a directed path over ``size`` nodes.

    Fixed lhs shapes keep the match counts, and so the cost, of items alike.
    ``loop`` puts a self-loop into the lhs; hosts here never have one, so
    such a rule has no lhs embedding.  ``grow`` is the chance that the rule
    adds a node, linked from one lhs node.
    """
    import mgg

    n = len(u)
    picked = rng.sample(range(n), size + 1)
    lhs_nodes, spare = picked[:size], picked[size]
    lhs_edges = set(zip(lhs_nodes, lhs_nodes[1:]))
    if loop:
        lhs_edges.add((lhs_nodes[0], lhs_nodes[0]))
    rhs_nodes = list(lhs_nodes)
    rhs_edges = {e for e in sorted(lhs_edges) if rng.random() < 0.5}
    for a in lhs_nodes:
        for b in lhs_nodes:
            if a != b and (a, b) not in lhs_edges and rng.random() < 0.2:
                rhs_edges.add((a, b))
    if rng.random() < grow:
        rhs_nodes.append(spare)
        rhs_edges.add((rng.choice(lhs_nodes), spare))
    return mgg.Production.from_static(
        name,
        _digraph(u, sorted(lhs_nodes), sorted(lhs_edges)),
        _digraph(u, sorted(rhs_nodes), sorted(rhs_edges)),
    )


# lhs sizes of the six rules of a derivation item, in order.
WALK_SHAPE = (3, 2, 1, 3, 2, 1)


def _drv(rng: random.Random, h: int, fail: bool):
    u = _universe(h)
    host = _sparse_host(rng, u, 3.0)
    rules = [
        _small_rule(rng, u, f"r{k + 1}", size, loop=fail and k == len(WALK_SHAPE) - 1)
        for k, size in enumerate(WALK_SHAPE)
    ]
    return _grammar(u, rules, "walk", host)


def _all(rng: random.Random, h: int):
    """Three one-node rules that each add a node: h(h+1)(h+2) traces."""
    u = _universe(h)
    host = _sparse_host(rng, u, 0.3 * h)
    rules = [_small_rule(rng, u, f"t{k + 1}", 1, grow=1.0) for k in range(3)]
    return _grammar(u, rules, "trio", host)


def make_item(spec: str, index: int) -> Item:
    """The pool item ``index`` of ``spec``; the same pair gives the same item."""
    kind, params = parse_spec(spec)
    rng = random.Random(f"mgg-bench/{spec}/{index}")
    if kind == "ana":
        gf = _ana(rng, params["n"], params["L"], params["coherent"])
    elif kind == "drv":
        gf = _drv(rng, params["h"], params["fail"])
    elif kind == "all":
        gf = _all(rng, params["h"])
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return Item(spec, index, gf)


def pick(workload: str, seed: int) -> list[tuple[str, int]]:
    """The (spec, pool index) pairs of one pass, in the order they run.

    Items of different kinds are interleaved so that any prefix of a pass
    touches every command class early.
    """
    rng = random.Random(f"mgg-bench/{workload}/{seed}")
    queues = [
        [(spec, i) for i in rng.sample(range(POOL), count)]
        for spec, count in WORKLOADS[workload]
    ]
    order = []
    while any(queues):
        for q in queues:
            if q:
                order.append(q.pop(0))
    return order


def write_item(item: Item, work: Path) -> None:
    """Serialize the item to ``work`` and point its commands at that file."""
    import mgg

    path = work / f"{item.name}.mgg"
    path.write_text(mgg.serialize_grammar(item.grammar), encoding="utf-8")
    item.path = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else str(path)


def generate(workload: str, seed: int, work: Path) -> list[Item]:
    """Build and write every item of one pass of ``workload`` for ``seed``."""
    work.mkdir(parents=True, exist_ok=True)
    items = [make_item(spec, i) for spec, i in pick(workload, seed)]
    for item in items:
        write_item(item, work)
    return items


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for item in generate(args.workload, args.seed, Path(args.out).resolve()):
        for c in item.commands():
            print(c.cls, c.key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
