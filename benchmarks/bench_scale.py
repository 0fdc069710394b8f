"""Out-of-core publication at scale: peak RSS of the chunked publish+audit path.

The PR-gated contract of the :class:`~repro.data.source.TableSource` layer:
an Adult-scale table published (Mondrian with a spilled value matrix) and
skyline-audited (one prior fit over the source's code columns, row-tiled
posterior pass) from an ``.npz`` file must stay under
``REPRO_BENCH_SCALE_MAX_RSS_MB`` of peak resident memory - at the full
one-million-row size the ceiling is 8 GB - while
producing *exactly* the release the resident pipeline produces: an identical
partition (the spilled value matrix is bitwise the resident one) and audit
risks within ``1e-12`` of an all-in-RAM reference run.

Every measured run happens in a **fresh subprocess** so that
``getrusage(RUSAGE_SELF).ru_maxrss`` is that run's lifetime peak, untainted
by pytest, by the table generator, or by a previous configuration's
allocations.  This module is its own subprocess entry point: pytest runs the
parent test, ``python bench_scale.py <role> ...`` runs one child role
(``prepare`` writes the npz; ``publish`` is the measured chunked run;
``resident`` is the in-RAM reference).

Scale knobs:

* ``REPRO_BENCH_SCALE_ROWS``         - table size (default 20000; the
  nightly full-scale run uses 1000000);
* ``REPRO_BENCH_SCALE_CHUNK_ROWS``   - chunk size for ingestion and the
  spilled value matrix (default: rows/8 capped to [1024, 65536]; the
  session fits its priors once over the source's code columns and the
  posterior pass walks the risk kernel's fixed row tiles);
* ``REPRO_BENCH_SCALE_MAX_RSS_MB``   - peak-RSS ceiling for the chunked run
  (default 8192, the tentpole's 8 GB budget; CI's tiny run pins a far
  tighter ceiling);
* ``REPRO_BENCH_SCALE_RESIDENT_MAX_ROWS`` - largest size at which the
  resident reference run (and the identity assertions against it) still
  executes (default 200000; the 1M run skips the reference - the tiny CI
  sections carry the identity gate).

The measured numbers land in ``BENCH_scale.json`` (section ``rows-<n>``):
``publish_seconds`` / ``audit_seconds`` ride the usual wall-clock ceilings,
``peak_rss_mb`` rides the ``*_peak_rss_mb`` ceiling rule of
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCALE_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_ROWS", "20000"))
CHUNK_ROWS = int(os.environ.get("REPRO_BENCH_SCALE_CHUNK_ROWS", "0")) or min(
    max(SCALE_ROWS // 8, 1024), 65536
)
MAX_RSS_MB = float(os.environ.get("REPRO_BENCH_SCALE_MAX_RSS_MB", "8192"))
RESIDENT_MAX_ROWS = int(
    os.environ.get("REPRO_BENCH_SCALE_RESIDENT_MAX_ROWS", "200000")
)
SEED = 2009
K = 4


def _skyline() -> list[tuple[float, float]]:
    # Late import: the parent runs under pytest (conftest on the path via
    # rootdir), the children re-import this module as a plain script with
    # benchmarks/ as sys.path[0] - both resolve the same conftest.
    from conftest import bench_skyline

    return bench_skyline()


def _peak_rss_mb() -> float:
    """This process's lifetime peak resident set size in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        return peak / (1024 * 1024)
    return peak / 1024


def _groups_digest(groups) -> str:
    """One hash over the whole partition (group order and membership)."""
    digest = hashlib.sha256()
    for group in groups:
        digest.update(group.astype("int64", copy=False).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def _audit_rows(report) -> list[dict]:
    return [entry.as_dict() for entry in report.entries]


# -- child roles (fresh subprocesses; last stdout line is a JSON payload) -------------

def _child_prepare(npz_path: str, rows: int) -> dict:
    """Generate the Adult-like table and write the mappable code-column npz."""
    from repro.data.adult import generate_adult
    from repro.data.source import write_npz

    table = generate_adult(rows, seed=SEED)
    write_npz(npz_path, table)
    return {"rows": table.n_rows, "bytes": os.path.getsize(npz_path)}


def _child_publish(npz_path: str, rows: int, chunk_rows: int) -> dict:
    """The measured run: chunked ingestion, spilled Mondrian, one prior fit."""
    from repro.api import Session
    from repro.data.adult import adult_schema
    from repro.data.io import open_table

    source = open_table(npz_path, adult_schema(), chunk_rows=chunk_rows)
    session = Session(source)
    start = time.perf_counter()
    result = session.anonymize("distinct-l", params={"l": 3}, k=K, spill=True)
    publish_seconds = time.perf_counter() - start
    groups = result.release.groups
    start = time.perf_counter()
    report = session.audit_skyline(groups, _skyline())
    audit_seconds = time.perf_counter() - start
    return {
        "rows": rows,
        "chunk_rows": chunk_rows,
        "groups": len(groups),
        "publish_seconds": publish_seconds,
        "audit_seconds": audit_seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "groups_sha256": _groups_digest(groups),
        "audit": _audit_rows(report),
    }


def _child_resident(npz_path: str, rows: int) -> dict:
    """The in-RAM reference: same data, resident value matrix, unchunked fit."""
    from repro.api import Session
    from repro.data.adult import generate_adult

    table = generate_adult(rows, seed=SEED)  # bitwise the npz's content
    session = Session(table)
    start = time.perf_counter()
    result = session.anonymize("distinct-l", params={"l": 3}, k=K)
    publish_seconds = time.perf_counter() - start
    groups = result.release.groups
    start = time.perf_counter()
    report = session.audit_skyline(groups, _skyline())
    audit_seconds = time.perf_counter() - start
    return {
        "rows": rows,
        "groups": len(groups),
        "publish_seconds": publish_seconds,
        "audit_seconds": audit_seconds,
        "peak_rss_mb": _peak_rss_mb(),
        "groups_sha256": _groups_digest(groups),
        "audit": _audit_rows(report),
    }


_ROLES = {"prepare": _child_prepare, "publish": _child_publish, "resident": _child_resident}


def _run_child(role: str, npz_path, *, chunk_rows: int | None = None) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), role, str(npz_path), str(SCALE_ROWS)]
    if chunk_rows is not None:
        command.append(str(chunk_rows))
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    completed = subprocess.run(command, capture_output=True, text=True, env=env)
    assert completed.returncode == 0, (
        f"{role} child failed ({completed.returncode}):\n{completed.stderr}"
    )
    return json.loads(completed.stdout.splitlines()[-1])


# -- the parent test ------------------------------------------------------------------

def test_out_of_core_publish_and_audit(tmp_path):
    from conftest import write_bench_json

    npz = tmp_path / f"adult-{SCALE_ROWS}.npz"
    prepared = _run_child("prepare", npz)
    assert prepared["rows"] == SCALE_ROWS

    chunked = _run_child("publish", npz, chunk_rows=CHUNK_ROWS)
    metrics = {
        "rows": SCALE_ROWS,
        "chunk_rows": CHUNK_ROWS,
        "groups": chunked["groups"],
        "npz_mb": prepared["bytes"] / (1024 * 1024),
        "publish_seconds": chunked["publish_seconds"],
        "audit_seconds": chunked["audit_seconds"],
        "peak_rss_mb": chunked["peak_rss_mb"],
    }

    max_risk_difference = None
    if SCALE_ROWS <= RESIDENT_MAX_ROWS:
        resident = _run_child("resident", npz)
        # The spilled value matrix is bitwise the resident one, so the
        # partition - order and membership - must be identical.
        assert chunked["groups_sha256"] == resident["groups_sha256"]
        assert chunked["groups"] == resident["groups"]
        max_risk_difference = max(
            abs(a["worst_case_risk"] - b["worst_case_risk"])
            for a, b in zip(chunked["audit"], resident["audit"])
        )
        assert max_risk_difference <= 1e-12, (
            f"chunked audit drifted {max_risk_difference:.2e} from the resident reference"
        )
        assert [row["vulnerable_tuples"] for row in chunked["audit"]] == [
            row["vulnerable_tuples"] for row in resident["audit"]
        ]
        metrics["resident_peak_rss_mb"] = resident["peak_rss_mb"]
        metrics["max_risk_difference"] = max_risk_difference

    print(
        f"\nscale: rows={SCALE_ROWS} chunk={CHUNK_ROWS} groups={chunked['groups']} "
        f"publish={chunked['publish_seconds']:.3f}s audit={chunked['audit_seconds']:.3f}s "
        f"rss={chunked['peak_rss_mb']:.0f}MB (ceiling {MAX_RSS_MB:.0f}MB)"
        + (
            f" resident-rss={metrics['resident_peak_rss_mb']:.0f}MB "
            f"max-risk-diff={max_risk_difference:.2e}"
            if max_risk_difference is not None
            else ""
        )
    )
    write_bench_json("scale", f"rows-{SCALE_ROWS}", metrics)

    assert chunked["peak_rss_mb"] < MAX_RSS_MB, (
        f"chunked publish+audit peaked at {chunked['peak_rss_mb']:.0f} MB "
        f"(ceiling: {MAX_RSS_MB:.0f} MB)"
    )


if __name__ == "__main__":
    role, npz_argument, rows_argument = sys.argv[1], sys.argv[2], int(sys.argv[3])
    arguments = [npz_argument, rows_argument]
    if len(sys.argv) > 4:
        arguments.append(int(sys.argv[4]))
    print(json.dumps(_ROLES[role](*arguments)))
