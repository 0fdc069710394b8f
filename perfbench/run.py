"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from
``--seed`` in one fresh process, then measured in another (both started by
exec), so ``peak_rss_mb`` belongs to the measured run alone.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The full result, with
the host stamp and every check verdict, is kept under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

from catalog import END_TO_END, PER_LAYER, WORKLOADS
from harness import BENCH_DIR, OUT_DIR, SRC_DIR

PREPARE_TIMEOUT = 40.0
# Set-up, checks and the last operation that starts before the deadline.
MEASURE_SLACK = 100.0


def run_step(arguments: list[str], timeout: float) -> None:
    """Run one ``workload.py`` step in its own process group; kill the group on timeout."""
    command = [sys.executable, str(BENCH_DIR / "workload.py"), *arguments]
    # The step's output goes to stderr: stdout ends with the result line only.
    process = subprocess.Popen(command, stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"{arguments[0]} timed out after {timeout:.0f}s")
    finally:
        # Whatever the step started (the serve daemon) ends with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit(f"{arguments[0]} failed with exit code {code}")


def samples(result: dict) -> dict[str, int]:
    """How many latencies each end-to-end median was taken over."""
    return {name: len(values) for name, values in result["latencies"].items()}


def result_line(result: dict, trace: bool) -> dict:
    """The result line: every catalogued metric of the requested kind, with its unit."""
    catalog = PER_LAYER if trace else END_TO_END
    measured = result["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, spec in catalog.items():
        if name not in measured and not trace:
            raise SystemExit(f"the run did not measure {name}")
        # A per-layer metric of a layer this workload does not exercise reads 0.
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": spec[0]}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    result_file = OUT_DIR / "results" / f"{tag}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.unlink(missing_ok=True)
    common = [args.workload, "--seed", str(args.seed), "--dir", str(work)]
    try:
        run_step(["prepare", *common], PREPARE_TIMEOUT)
        run_step(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(result_file)],
            args.seconds + MEASURE_SLACK,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(result_file.read_text())
    print(f"host: {json.dumps(result['host'], sort_keys=True)}")
    print(f"samples: {json.dumps(samples(result), sort_keys=True)}")
    print(f"checks: {json.dumps(result['checks'], sort_keys=True)}")
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
