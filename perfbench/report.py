"""Measure every workload and print its end-to-end metrics and its per-layer table.

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--workload NAME ...]

Run from the repository root.  Each workload runs twice through
``perfbench/run.py``, each run in fresh processes: untraced for the
end-to-end metrics, traced for the per-layer ones.  The layer table is
built from the traced run's span file: each layer's self time (span time
not covered by child spans) and its share of all traced time, then the
workload's per-layer counts and ratios with the end-to-end metric each
should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from catalog import END_TO_END, PER_LAYER, ROLES, WORKLOADS
from harness import BENCH_DIR, OUT_DIR, layer_of, layer_self_seconds, self_times, span_file
from run import samples


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` invocation; returns its full result file."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{completed.stderr[-4000:]}")
    return json.loads(
        (OUT_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )


def end_to_end_table(workload: str, result: dict) -> list[str]:
    roles = dict(zip(("primary_p50_s", "secondary_s"), ROLES[workload]))
    lines = [f"  {'metric':<18}{'value':>14}  {'unit':<6}{'bound':>7}  meaning"]
    for name, (unit, _, bound, meaning) in END_TO_END.items():
        meaning = roles.get(name, meaning)
        value = result["end_to_end"][name]
        lines.append(f"  {name:<18}{value:>14.6g}  {unit:<6}{bound:>7.2f}  {meaning}")
    lines.append(
        f"  samples: {samples(result)}; attempted {result['attempted']}, "
        f"failed {result['failed']}; correct: {result['correct']}"
    )
    return lines


def layer_table(workload: str, result: dict, spans: list[dict]) -> list[str]:
    layers = layer_self_seconds(spans)
    total = sum(layers.values()) or 1.0
    lines = [f"  {'layer':<12}{'self s':>10}{'share':>8}"]
    for layer in sorted(layers, key=layers.get, reverse=True):
        lines.append(f"  {layer:<12}{layers[layer]:>10.3f}{layers[layer] / total:>8.1%}")
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for span in spans:
        entry = by_name.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["end"] - span["start"]
        entry[2] += own[span["id"]]
    lines.append(f"  {'span':<32}{'calls':>7}{'total s':>10}{'self s':>10}")
    for name in sorted(by_name, key=lambda n: (layer_of(n), n)):
        calls, seconds, self_seconds = by_name[name]
        lines.append(f"  {name:<32}{calls:>7}{seconds:>10.3f}{self_seconds:>10.3f}")
    lines.append(f"  {'per-layer metric':<32}{'value':>14}  {'unit':<6} moves")
    for name, (unit, _, owner, moves) in PER_LAYER.items():
        if owner not in (workload, "all") or name.startswith("self."):
            continue  # the layer shares are the table above
        value = result["per_layer"].get(name, 0.0)
        lines.append(f"  {name:<32}{value:>14.6g}  {unit:<6} {moves}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workload or list(WORKLOADS):
        untraced = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        result_file = OUT_DIR / "results" / f"{workload}-seed{args.seed}-trace1.json"
        spans = json.loads(span_file(result_file).read_text())["spans"]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g}s): {WORKLOADS[workload]}")
        print(f"host: {json.dumps(untraced['host'], sort_keys=True)}")
        print("end to end (untraced run):")
        print("\n".join(end_to_end_table(workload, untraced)))
        print(f"per layer (traced run, {len(spans)} spans):")
        print("\n".join(layer_table(workload, traced, spans)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
