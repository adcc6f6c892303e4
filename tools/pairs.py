"""Alternating pairs of benchmark runs on two source trees, summarized per metric.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S --pairs K --seconds T

Each tree is a checkout of this repository.  A pair is one run of the
tree's own ``perfbench/run.py --workload W --seed S --seconds T`` in each
tree, each in a process of its own started in that tree.  The first pair
runs the parent first, the second the change first, and so on.  Before
every run, both trees lose their ``__pycache__`` directories and
``perfbench/work`` (both ignored by git), so every run starts as cold as
the first: with ``PYTHONDONTWRITEBYTECODE`` set, a left-over ``__pycache__``
would spare one tree the compile that the other pays in ``setup_s``.

For every metric both trees print, one line gives the parent median
[lower/upper quartile] -> the change median [quartiles], the change of the
medians in percent, the pairs in which the change was better, and the gap
between the medians against the parent's quartile spread.  "Better" is the
``better`` direction of the metric in the change tree's ``BENCHMARK.json``,
lower when it lists none.  Quartiles are ``statistics.quantiles`` with the
inclusive method.  Each run's ``correct`` and ``failed`` are printed as it
ends, to standard error, and the script exits 1 if any run was not correct
or failed a command.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clean(tree: Path) -> None:
    """Remove every ``__pycache__`` under ``tree``, and its ``perfbench/work``."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(tree / "perfbench" / "work", ignore_errors=True)


def run(tree: Path, args) -> dict:
    """One benchmark run in ``tree``: the JSON object on its last line of output."""
    argv = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, lower and upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, low, high


def summary(name: str, parent: list[float], change: list[float], lower: bool) -> str:
    (pm, pl, ph), (cm, cl, ch) = spread(parent), spread(change)
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    percent = f"{(cm - pm) / pm * 100:+.1f} %" if pm else "n/a"
    return (
        f"{name}: {pm:.4g} [{pl:.4g}/{ph:.4g}] -> {cm:.4g} [{cl:.4g}/{ch:.4g}] ({percent}), "
        f"better in {won} of {len(parent)}; medians {abs(cm - pm):.3g} apart, "
        f"parent quartile spread {ph - pl:.3g}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            for tree in trees.values():
                clean(tree)
            result = run(trees[side], args)
            results[side].append(result["metrics"])
            ok &= result["correct"] and result["failed"] == 0
            print(
                f"pair {pair + 1} {side}: correct {result['correct']} "
                f"attempted {result['attempted']} failed {result['failed']}",
                file=sys.stderr, flush=True,
            )
    for tree in trees.values():
        clean(tree)
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher = {m["name"] for m in declared["end_to_end"] + declared.get("per_layer", [])
              if m.get("better") == "higher"}
    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s, parent {trees['parent']} -> change {trees['change']}")
    for name in results["parent"][0]:
        if all(name in metrics for metrics in results["change"]):
            parent = [metrics[name]["value"] for metrics in results["parent"]]
            change = [metrics[name]["value"] for metrics in results["change"]]
            print(summary(name, parent, change, name not in higher))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
