"""Output checks: a failed check fails the run; checks are never inside a timed region.

Each check takes plain outputs (group index arrays, risk vectors, version
numbers) so the self-tests can feed it a deliberately corrupted output and
see it fail.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

RISK_TOLERANCE = 1e-12


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def groups_digest(groups: Iterable[np.ndarray]) -> str:
    """One hash over a whole partition: group order and membership."""
    digest = hashlib.sha256()
    for group in groups:
        digest.update(np.asarray(group, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def check_min_group_size(groups: Sequence[np.ndarray], k: int) -> None:
    sizes = [len(group) for group in groups]
    if not sizes:
        raise CheckFailed("the release has no groups")
    if min(sizes) < k:
        raise CheckFailed(f"a group has {min(sizes)} rows, fewer than k={k}")


def check_covers(groups: Sequence[np.ndarray], n_rows: int) -> None:
    """The groups partition rows 0..n_rows-1: every row exactly once."""
    members = np.sort(np.concatenate([np.asarray(g, dtype=np.int64) for g in groups]))
    if not np.array_equal(members, np.arange(n_rows)):
        raise CheckFailed("the groups do not cover every row exactly once")


def check_no_vulnerable(vulnerable_tuples: int, point: tuple[float, float]) -> None:
    if vulnerable_tuples != 0:
        raise CheckFailed(
            f"the enforced adversary {point} finds {vulnerable_tuples} vulnerable tuples"
        )


def check_same_digest(digests: Sequence[str]) -> None:
    if len(set(digests)) > 1:
        raise CheckFailed(f"the partition differs between publishes of one input: {digests}")


def check_satisfied(version: int, satisfied: bool, point: tuple[float, float]) -> None:
    if not satisfied:
        raise CheckFailed(f"version {version} breaches the enforced point {point}")


def check_risks_match(
    maintained: Sequence[np.ndarray], fresh: Sequence[np.ndarray]
) -> float:
    """Maintained risks equal a from-scratch audit's within ``RISK_TOLERANCE``."""
    if len(maintained) != len(fresh):
        raise CheckFailed("the maintained and fresh audits cover different skylines")
    worst = 0.0
    for left, right in zip(maintained, fresh):
        left, right = np.asarray(left), np.asarray(right)
        if left.shape != right.shape:
            raise CheckFailed("the maintained and fresh audits cover different rows")
        drift = np.abs(left - right)
        if not np.all(drift <= RISK_TOLERANCE):  # NaN fails too
            raise CheckFailed(f"maintained risks drift {np.max(drift):.3e} from a fresh audit")
        worst = max(worst, float(drift.max(initial=0.0)))
    return worst


def check_same_version(
    expected: tuple[int, str], resumed: tuple[int, str]
) -> None:
    """A resumed store's latest (version number, partition digest) is the original's."""
    if expected != resumed:
        raise CheckFailed(f"resume yields version {resumed}, expected {expected}")


def check_acks(acks: Sequence[object]) -> None:
    """Every acknowledged write names the version it was published in."""
    bad = [ack for ack in acks if not isinstance(ack, int) or isinstance(ack, bool) or ack < 1]
    if bad:
        raise CheckFailed(f"{len(bad)} write acks name no version, e.g. {bad[0]!r}")


def check_lineage(stream: str, lineage_length: int, publishes: int) -> None:
    """Version 0 plus one version per publish."""
    if lineage_length != publishes + 1:
        raise CheckFailed(
            f"stream {stream!r} has {lineage_length} versions after {publishes} publishes"
        )
