"""Output checks for the mgg benchmark, run outside the timed region.

A command passes when its exit code and the sha256 of its report equal the
reference recorded for it (``reference.json``, written by ``record.py`` on
the reference commit) and when the oracle checks for its report hold:

* ``analyze --check initial`` on a coherent item: the reported initial
  digraph fires the sequence at the identity (``oracle.applies_at_identity``);
* ``analyze --check image`` on a coherent item: the closed-form image equals
  the stepwise fold of the rules over the initial digraph (``stepwise_image``);
* ``derive --select first|K``: every step's match is re-verified on raw bits
  against the reported input graph (injective onto present nodes, lhs edges
  present, forbidden edges absent);
* ``derive --select all`` on hosts of at most 7 nodes: at every step, the
  matches taken under each trace prefix are exactly ``brute_matches``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def load_reference() -> dict[str, list]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(text: str) -> list[tuple[str, str]]:
    """Report lines split at the key: (key, value); keys may hold spaces."""
    out = []
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.append((key, value))
    return out


def _matrix_bits(text: str) -> int:
    rows = json.loads(text)
    n = len(rows)
    return sum(1 << (i * n + j) for i, row in enumerate(rows) for j, v in enumerate(row) if v)


def _vector_bits(text: str) -> int:
    return sum(1 << i for i, v in enumerate(json.loads(text)) if v)


def _report_values(text: str) -> dict[str, str]:
    return {key: value for key, value in _fields(text)}


def _sequence(item):
    import mgg

    gf = item.grammar
    return mgg.RuleSequence(tuple(gf.productions[r] for r in gf.sequences["s"]))


def _check_initial(item, text: str) -> str | None:
    import mgg
    from mgg.oracle import applies_at_identity

    v = _report_values(text)
    u = item.grammar.universe
    host = mgg.Digraph(
        mgg.BoolMatrix(u, _matrix_bits(v["initial_cert_edges"])),
        mgg.BoolVector(u, _vector_bits(v["initial_cert_nodes"])),
    )
    if not applies_at_identity(_sequence(item), host):
        return "initial digraph does not fire its coherent sequence"
    return None


def _check_image(item, text: str) -> str | None:
    import mgg

    v = _report_values(text)
    s = _sequence(item)
    want = mgg.stepwise_image(s, mgg.initial_digraph(s, check=False))
    got = (
        _matrix_bits(v["image_cert_edges"]),
        _vector_bits(v["image_cert_nodes"]),
        _matrix_bits(v["image_nihil_edges"]),
    )
    if got != (want.cert_edges.bits, want.cert_nodes.bits, want.nihil_edges.bits):
        return "closed-form image differs from the stepwise image"
    return None


def _graphs(text: str) -> dict[str, tuple[list[str], int, int]]:
    """Reported graphs: id -> (universe labels, node bits, edge bits)."""
    parts: dict[str, dict[str, str]] = {}
    for key, value in _fields(text):
        if key == "graph":
            gid, field, rest = value.split(" ", 2)
            parts.setdefault(gid, {})[field] = rest
    return {
        gid: (p["universe"].split(), _vector_bits(p["nodes"]), _matrix_bits(p["edges"]))
        for gid, p in parts.items()
    }


def _match_problem(p, labels: list[str], nodes: int, edges: int, pairs: list[str]) -> str | None:
    """Re-verify one match of rule p into a reported host on raw bits."""
    rule_u = p.universe
    n_rule, n_host = len(rule_u), len(labels)
    index = {label: i for i, label in enumerate(labels)}
    mapping = {}
    for pair in pairs:
        a, b = pair.split("->")
        mapping[rule_u.index(a)] = index[b]
    lhs = {i for i in range(n_rule) if p.lhs.nodes.bits >> i & 1}
    if set(mapping) != lhs:
        return "match does not cover exactly the lhs nodes"
    if len(set(mapping.values())) != len(mapping):
        return "match is not injective"
    if any(not nodes >> h & 1 for h in mapping.values()):
        return "match uses an absent host node"
    for a, ha in mapping.items():
        for b, hb in mapping.items():
            present = edges >> (ha * n_host + hb) & 1
            if p.lhs.edges.bits >> (a * n_rule + b) & 1 and not present:
                return "lhs edge missing in the host"
            if p.nihilation.bits >> (a * n_rule + b) & 1 and present:
                return "forbidden edge present in the host"
    return None


def _check_derive(item, text: str) -> str | None:
    graphs = _graphs(text)
    for key, value in _fields(text):
        if key != "step":
            continue
        tokens = value.split()
        src, rule, pairs = tokens[0], tokens[1], tokens[3:-2]
        labels, nodes, edges = graphs[src]
        problem = _match_problem(item.grammar.productions[rule], labels, nodes, edges, pairs)
        if problem:
            return f"{src} {rule}: {problem}"
    return None


def _check_all(item, text: str) -> str | None:
    import mgg
    from mgg.oracle import brute_matches

    traces: dict[int, list[tuple[str, str]]] = {}
    for key, value in _fields(text):
        if key == "trace" and " step " in value:
            t, _, rest = value.split(" ", 2)
            rule, _, match = rest.partition(" match ")
            traces.setdefault(int(t), []).append((rule, match))
    gf = item.grammar
    rules = [gf.productions[r] for r in gf.sequences["trio"]]
    taken: dict[tuple[str, ...], set[str]] = {}
    for steps in traces.values():
        for k, (_, match) in enumerate(steps):
            taken.setdefault(tuple(m for _, m in steps[:k]), set()).add(match)

    def walk(host, k: int, prefix: tuple[str, ...]) -> str | None:
        if k == len(rules):
            return None
        want = {m.render() for m in brute_matches(rules[k], host)}
        if taken.get(prefix, set()) != want:
            return f"step {k + 1} after {list(prefix)}: matches differ from brute_matches"
        for m in brute_matches(rules[k], host):
            problem = walk(mgg.apply_at(rules[k], host, m, step=k + 1), k + 1, prefix + (m.render(),))
            if problem:
                return problem
        return None

    return walk(gf.hosts["h"], 0, ())


def oracle_problem(item, command, text: str) -> str | None:
    """The oracle check of one report, or None when there is none to make."""
    kind, params = item.kind, item.params
    if kind == "ana" and params["coherent"] and command.argv[-1] == "initial":
        return _check_initial(item, text)
    if kind == "ana" and params["coherent"] and command.argv[-1] == "image":
        return _check_image(item, text)
    if kind == "drv":
        return _check_derive(item, text)
    if kind == "all" and params["h"] <= 5:
        return _check_all(item, text)
    return None


def problem(reference: dict[str, list], item, command, code: int, text: str) -> str | None:
    """Why one command's result is wrong, or None when it is right."""
    want = reference.get(command.key)
    if want is None:
        return "no reference digest"
    if code != want[0]:
        return f"exit code {code}, expected {want[0]}"
    if digest(text) != want[1]:
        return "report digest differs from the reference"
    return oracle_problem(item, command, text)


def self_test(reference: dict[str, list], item, command, code: int, text: str) -> list[str]:
    """Failures the checker must catch on a known-good result; lists misses."""
    missed = []
    if problem(reference, item, command, code, text + "x") is None:
        missed.append("a corrupted report passed")
    if problem(reference, item, command, code + 1, text) is None:
        missed.append("a wrong exit code passed")
    return missed
