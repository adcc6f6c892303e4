"""Record the reference exit code and report digest of every pool command.

    python3 perfbench/record.py

Run it on the commit whose reports are the reference (reports must stay
byte-identical across later changes).  It writes ``reference.json``: for
every command of every pool item of every workload, ``[exit code, sha256 of
the report]``, keyed by the command line.  It also runs the oracle checks
and fails if any of them does not hold, so no wrong report is recorded.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402


def main() -> int:
    import mgg.cli as cli

    os.chdir(ROOT)
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    specs = sorted({spec for slots in gen.WORKLOADS.values() for spec, _ in slots} | {gen.CHECK_ALL_SPEC})
    reference: dict[str, list] = {}
    bad = 0
    for spec in specs:
        codes: Counter = Counter()
        for index in range(gen.POOL):
            item = gen.make_item(spec, index)
            gen.write_item(item, work)
            for command in item.commands():
                buf = io.StringIO()
                code = cli.run(list(command.argv), out=buf)
                text = buf.getvalue()
                reference[command.key] = [code, check.digest(text)]
                codes[command.cls, code] += 1
                problem = check.oracle_problem(item, command, text)
                if problem:
                    bad += 1
                    print(f"oracle check failed: {command.key}: {problem}", file=sys.stderr)
        print(spec, " ".join(f"{cls}:{code}x{n}" for (cls, code), n in sorted(codes.items())), flush=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
