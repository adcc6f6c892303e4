"""mgg benchmark: CLI command latency on seeded grammars, plus a traced run.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

runs every workload, each in its own process, and prints every end-to-end
metric by name and unit.  ``--workload <name>`` runs one workload;
``--trace 1`` runs the traced variant that prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The load is a closed loop with one client: each ``mgg.cli.run`` call, on a
generated grammar file and with an in-memory output buffer, is issued only
after the previous one returned.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

import check  # noqa: E402  (sibling modules of this script)
import gen  # noqa: E402
import tracer  # noqa: E402

SETUP_REPS = 3

# End-to-end times are rescaled to a reference machine speed.  On a shared
# host the time of any fixed computation swings by up to 2x within tens of
# seconds, and all commands of a run slow down together.  A fixed loop (the
# probe) is timed before the first and after every timed interval, and the
# interval is scaled by PROBE_NOMINAL_S over the median of the probes within
# PROBE_WINDOW places of it.
PROBE_NOMINAL_S = 0.001
PROBE_LOOPS = 6000
PROBE_WINDOW = 3

CLASSES = (
    "analyze.coherence",
    "analyze.initial",
    "analyze.image",
    "analyze.compatibility",
    "analyze.congruence",
    "derive.first",
    "derive.all",
    "encode",
)

# Tail percentile per workload: the highest whole percentile that left at
# least 15 samples beyond it in each of ten runs at the benchmark's run
# length (40 s) on the reference commit, so that a slower host still keeps
# ten.  It is fixed so that runs with more or fewer commands stay comparable.
TAIL_PERCENTILE = {"seq-long": 96, "universe-wide": 98, "derive-host": 96}

# Universe size of the timed `&` loop behind boolmat.op_ns.
OP_UNIVERSE = {"seq-long": 8, "universe-wide": 64, "derive-host": 64}

# Per-layer metric -> the span whose self time (SELF_MS) or call count
# (CALLS) it totals.
SELF_MS = {
    "cli.self_ms": "cli.run",
    "grammar.parse_ms": "grammar.parse_grammar",
    "production.from_static_ms": "production.from_static",
    "sequence.coherence_ms": "sequence.coherence",
    "sequence.initial_digraph_ms": "sequence.initial_digraph",
    "sequence.image_ms": "sequence.image_of_sequence",
    "sequence.compatibility_ms": "sequence.sequence_compatibility",
    "sequence.congruence_ms": "sequence.g_congruence",
    "derivation.find_matches_ms": "derivation.find_matches",
    "derivation.apply_at_ms": "derivation.apply_at",
    "boolmat.complete_to_ms": "boolmat.complete_to",
    "encoding.ell_ms": "encoding.ell",
}
CALLS = {
    "production.from_static.calls": "production.from_static",
    "sequence.initial_digraph.calls": "sequence.initial_digraph",
    "derivation.find_matches.calls": "derivation.find_matches",
    "derivation.apply_at.calls": "derivation.apply_at",
}
COUNTERS = ("sequence.witnesses", "derivation.matches_found", "boolmat.ops", "mcl.terms")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _fresh_cli():
    """Import mgg anew, so set-up pays the import on every repetition."""
    for name in [m for m in sys.modules if m == "mgg" or m.startswith("mgg.")]:
        del sys.modules[name]
    return importlib.import_module("mgg.cli")


def setup(workload: str, seed: int):
    """Import mgg, generate and write the pass's grammars, warm up once.

    The warm-up parses every written file back and compares it with the
    generated model, then runs one CLI command.
    """
    cli = _fresh_cli()
    for old in WORK.glob("*.mgg"):
        old.unlink()
    items = gen.generate(workload, seed, WORK)
    for item in items:
        if cli.parse_grammar(Path(item.path).read_text(encoding="utf-8")) != item.grammar:
            raise RuntimeError(f"{item.path} does not parse back to its generated model")
    warm = items[0].commands()[-1]
    code = cli.run(list(warm.argv), out=io.StringIO())
    if code != 0:
        raise RuntimeError(f"warm-up {warm.key} failed with exit code {code}")
    return cli, items


def _call(cli, command) -> tuple[int | None, str, float]:
    """One timed CLI call: exit code (None if it raised), report, seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(list(command.argv), out=buf)
    except Exception:  # a crash counts as a failed command, the loop goes on
        code = None
        buf.write(traceback.format_exc())
    return code, buf.getvalue(), time.perf_counter() - start


class Checked:
    """Results of timed calls, checked after the timed region ends."""

    def __init__(self, reference: dict[str, list]):
        self.reference = reference
        self.results: list[tuple[int, int | None, str]] = []  # (command idx, code, digest)
        self.first_text: dict[tuple[int, int | None, str], str] = {}

    def add(self, idx: int, code: int | None, text: str) -> None:
        key = (idx, code, check.digest(text))
        self.results.append(key)
        self.first_text.setdefault(key, text)

    def failures(self, commands, owners) -> tuple[int, list[str]]:
        verdicts = {
            key: check.problem(self.reference, owners[key[0]], commands[key[0]], key[1], text)
            for key, text in self.first_text.items()
        }
        problems = sorted({f"{commands[k[0]].key}: {p}" for k, p in verdicts.items() if p})
        return sum(1 for key in self.results if verdicts[key]), problems

    def self_test(self, commands, owners) -> list[str]:
        key, text = next(iter(self.first_text.items()))
        return check.self_test(self.reference, owners[key[0]], commands[key[0]], key[1], text)


def _result(attempted, failed, problems, missed, metrics, notes) -> dict:
    """The run's verdict: correct only if no command failed and the self-test held."""
    notes.append(
        "checker self-test: "
        + ("; ".join(missed) if missed else "a corrupted report and a wrong exit code both fail")
    )
    notes += [f"failed: {p}" for p in problems]
    return {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def _extra_checks(items, seed: int, reference) -> tuple[int, int, list[str]]:
    """Untimed oracle checks for what the timed pass cannot cover.

    A workload whose enumeration hosts exceed brute_matches' limit runs one
    small enumeration item, from the same pool, through the CLI.
    """
    if any(item.spec == gen.CHECK_ALL_SPEC for item in items):
        return 0, 0, []
    cli = sys.modules["mgg.cli"]
    item = gen.make_item(gen.CHECK_ALL_SPEC, seed % gen.POOL)
    gen.write_item(item, WORK)
    attempted = failed = 0
    problems = []
    for command in item.commands():
        code, text, _ = _call(cli, command)
        attempted += 1
        p = check.problem(reference, item, command, code, text)
        if p:
            failed += 1
            problems.append(f"{command.key}: {p}")
    return attempted, failed, problems


def _probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    start = time.perf_counter()
    x, seen = 0, {}
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
        seen[i & 255] = x
    return time.perf_counter() - start


class Scaled:
    """Intervals rescaled to the reference speed by the probes around them.

    A probe runs before the first interval and after each one.  Interval k
    is scaled by the median of the probes within PROBE_WINDOW places of it,
    which damps the jitter of a single short probe.
    """

    def __init__(self) -> None:
        self.probes = [_probe()]
        self.raw: list[float] = []

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.probes.append(_probe())

    def scaled(self) -> list[float]:
        out = []
        for k, seconds in enumerate(self.raw):
            window = self.probes[max(0, k + 1 - PROBE_WINDOW) : k + 1 + PROBE_WINDOW]
            out.append(seconds * PROBE_NOMINAL_S / statistics.median(window))
        return out


def run_plain(workload: str, seed: int, seconds: float) -> dict:
    setup_times = Scaled()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cli, items = setup(workload, seed)
        setup_times.add(time.perf_counter() - start)
    setup_s = setup_times.scaled()
    commands = [c for item in items for c in item.commands()]
    owners = [item for item in items for _ in item.commands()]
    checked = Checked(check.load_reference())
    times = Scaled()
    classes: list[str] = []

    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        idx = k % len(commands)
        code, text, dt = _call(cli, commands[idx])
        times.add(dt)
        checked.add(idx, code, text)
        classes.append(commands[idx].cls)
        k += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = checked.failures(commands, owners)
    missed = checked.self_test(commands, owners)
    extra_attempted, extra_failed, extra_problems = _extra_checks(items, seed, checked.reference)
    attempted = len(checked.results) + extra_attempted
    failed += extra_failed
    problems += extra_problems

    every = times.scaled()
    latency: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    for cls, scaled, dt in zip(classes, every, times.raw):
        latency[cls].append(scaled)
        raw[cls].append(dt)
    tail_pct = TAIL_PERCENTILE[workload]
    tail, beyond = _percentile(sorted(every), tail_pct)
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "cmds_per_s": _metric(len(every) / sum(every), "1/s"),
        "cmd_p50_ms": _metric(statistics.median(every) * 1000, "ms"),
        "cmd_tail_ms": _metric(tail * 1000, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    for cls in CLASSES:
        if latency[cls]:
            metrics[f"{cls}_ms"] = _metric(statistics.median(latency[cls]) * 1000, "ms")
    notes = [
        f"workload {workload} seed {seed} commands {len(every)} wall_s {wall:.3f}",
        f"cmd_tail_ms is p{tail_pct} with {beyond} samples beyond it",
        f"ops_failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})",
        "setup_s repetitions " + " ".join(f"{s:.4f}" for s in setup_s),
    ]
    for cls in CLASSES:
        codes = Counter(code for idx, code, _ in checked.results if commands[idx].cls == cls)
        notes.append(
            f"class {cls} samples {len(latency[cls])} unscaled_median_ms "
            f"{statistics.median(raw[cls]) * 1000 if raw[cls] else 0:.4f} exit codes "
            + " ".join(f"{c}:{n}" for c, n in sorted(codes.items(), key=str))
        )
    return _result(attempted, failed, problems, missed, metrics, notes)


def _op_ns(n: int) -> float:
    """Median ns of one BoolMatrix `&` on an n-node universe."""
    import mgg

    rng = random.Random(n)
    u = mgg.NodeUniverse(tuple(f"v{i}" for i in range(n)))
    a = mgg.BoolMatrix(u, rng.getrandbits(n * n))
    b = mgg.BoolMatrix(u, rng.getrandbits(n * n))
    loops = 20000
    samples = []
    for _ in range(7):
        start = time.perf_counter_ns()
        for _ in range(loops):
            a & b
        samples.append((time.perf_counter_ns() - start) / loops)
    return statistics.median(samples)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Each command runs untraced, then traced; layer totals are per pass.

    A pass is the workload's command list once.  A class's per-pass total is
    its mean per traced call times its calls per pass, so a run that ends
    inside a pass still reports whole-pass totals.
    """
    cli, items = setup(workload, seed)
    commands = [c for item in items for c in item.commands()]
    owners = [item for item in items for _ in item.commands()]
    per_pass = Counter(c.cls for c in commands)
    checked = Checked(check.load_reference())
    t = tracer.Tracer()
    executed: list[str] = []  # class of each traced execution, by command id
    argvs: list[str] = []
    plain_s: Counter = Counter()
    traced_s: Counter = Counter()
    report_kb: Counter = Counter()

    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        idx = k % len(commands)
        command = commands[idx]
        code, text, dt = _call(cli, command)
        checked.add(idx, code, text)
        plain_s[command.cls] += dt
        t.command = len(executed)
        t.install()
        try:
            code, text, dt = _call(cli, command)
        finally:
            t.uninstall()
        checked.add(idx, code, text)
        traced_s[command.cls] += dt
        report_kb[command.cls] += len(text.encode("utf-8")) / 1024
        executed.append(command.cls)
        argvs.append(command.key)
        k += 1
        if time.perf_counter() >= deadline:
            break

    failed, problems = checked.failures(commands, owners)
    missed = checked.self_test(commands, owners)
    runs = Counter(executed)

    def pass_total(by_class: Counter) -> float:
        return sum(by_class[c] / runs[c] * per_pass[c] for c in runs)

    self_ns = t.self_times()
    calls = t.calls()

    def by_class(table, name) -> Counter:
        out: Counter = Counter()
        for (command_id, key), value in table.items():
            if key == name:
                out[executed[command_id]] += value
        return out

    counts: dict[str, Counter] = {name: Counter() for name in COUNTERS}
    for command_id, counter in t.counts.items():
        for name, value in counter.items():
            counts[name][executed[command_id]] += value

    metrics = {}
    for name, span in SELF_MS.items():
        metrics[name] = _metric(pass_total(by_class(self_ns, span)) / 1e6, "ms")
    for name, span in CALLS.items():
        metrics[name] = _metric(pass_total(by_class(calls, span)), "count")
    for name in COUNTERS:
        metrics[name] = _metric(pass_total(counts[name]), "count")
    metrics["cli.report_kb"] = _metric(pass_total(report_kb), "kB")
    found = metrics["derivation.matches_found"]["value"]
    applied = metrics["derivation.apply_at.calls"]["value"]
    metrics["derivation.match_use_ratio"] = _metric(applied / found if found else 0.0, "ratio")
    metrics["boolmat.op_ns"] = _metric(_op_ns(OP_UNIVERSE[workload]), "ns")
    metrics["trace.overhead_ratio"] = _metric(pass_total(traced_s) / pass_total(plain_s), "ratio")

    spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
    t.write(spans_path, argvs)
    notes = [
        f"workload {workload} seed {seed} traced commands {len(executed)} spans {len(t.spans)}",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    notes += [f"nesting {pair}: {'ok' if ok else 'missing'}" for pair, ok in t.nesting().items()]
    return _result(len(checked.results), failed, problems, missed, metrics, notes)


def _print(result: dict) -> None:
    for line in result.pop("notes"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mgg" / "__init__.py").is_file():
        print(f"mgg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    run = run_traced if args.trace else run_plain
    _print(run(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
