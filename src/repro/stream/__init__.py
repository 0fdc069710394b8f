"""Incremental publication of full-lifecycle microdata streams.

The paper publishes one static table; this package turns the pipeline into a
continuously running, restartable publisher:

* :mod:`repro.stream.publisher` - :class:`IncrementalPublisher`: accepts
  append, delete and update batches and republishes incrementally (exact
  additive/negative/paired prior deltas, dirty-leaf re-splits and merge-ups,
  delta skyline audits, periodic full-refine compaction of accumulated
  drift) instead of re-running estimate -> partition -> audit from scratch;
  :meth:`IncrementalPublisher.resume` reconstructs a publisher from a
  disk-backed store mid-stream;
* :mod:`repro.stream.tree` - :class:`PartitionTree`: the recorded Mondrian
  split tree that routes appended/corrected rows, supports local subtree
  surgery and round-trips through JSON for persistence;
* :mod:`repro.stream.store` - :class:`ReleaseStore` / :class:`StreamVersion`
  / :class:`StreamDelta`: version lineage with per-version audit deltas,
  optionally disk-backed (JSON-lines lineage + npz releases + restart
  state) for serving historical versions and resuming.

Entry points: :meth:`repro.api.session.Session.stream`,
:meth:`repro.api.pipeline.Pipeline.streaming`, and the CLI ``stream``
subcommand (``--delete-frac/--update-frac/--store-dir/--resume``).
"""

from repro.stream.publisher import IncrementalPublisher
from repro.stream.store import ReleaseStore, StreamDelta, StreamVersion
from repro.stream.tree import PartitionTree

__all__ = [
    "IncrementalPublisher",
    "PartitionTree",
    "ReleaseStore",
    "StreamDelta",
    "StreamVersion",
]
