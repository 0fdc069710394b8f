"""One workload step in a fresh process (started by exec, never by fork).

    python3 perfbench/workload.py prepare NAME --seed N --dir DIR
    python3 perfbench/workload.py measure NAME --seed N --dir DIR --seconds S --trace 0|1 --out FILE

``prepare`` writes the seeded inputs into ``DIR``; it runs in its own process
so that generating them never counts toward the measured process's peak RSS.
``measure`` runs the workload on those inputs and writes its numbers to
``FILE`` as JSON; a traced run writes its spans next to it (see ``span_file``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import SRC_DIR

sys.path.insert(0, str(SRC_DIR))

import publish_audit  # noqa: E402
import serve_mixed  # noqa: E402
import stream_lifecycle  # noqa: E402
from harness import host_stamp, span_file  # noqa: E402

MODULES = {
    "publish-audit": publish_audit,
    "stream-lifecycle": stream_lifecycle,
    "serve-mixed": serve_mixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "measure"))
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    module = MODULES[args.workload]
    if args.step == "prepare":
        args.dir.mkdir(parents=True, exist_ok=True)
        module.prepare(args.seed, args.dir)
        return 0
    result = module.measure(args.dir, args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans")
    if args.trace:
        span_file(args.out).write_text(json.dumps(spans) + "\n")
    result["host"] = host_stamp()
    result["workload"] = args.workload
    result["seed"] = args.seed
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
