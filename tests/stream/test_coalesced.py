"""``publish_coalesced`` failure semantics and position validation, at the stream level.

A tick publishes one version for several mutations.  A tick that fails
before touching the maintained state leaves the publisher healthy; one that
fails after an earlier operation advanced it poisons the publisher, and the
store never sees any part of the tick.  Row positions must be integers:
floats and boolean masks are refused, never truncated or reinterpreted.
"""

import numpy as np
import pytest

from repro.data.adult import generate_adult
from repro.exceptions import StreamError
from repro.privacy.models import DistinctLDiversity
from repro.stream import IncrementalPublisher
from repro.stream.publisher import OPERATION_KINDS

SEED_ROWS = 400


@pytest.fixture
def stream():
    full = generate_adult(SEED_ROWS + 100, seed=71)
    publisher = IncrementalPublisher(
        full.select(np.arange(SEED_ROWS)), DistinctLDiversity(3), skyline=[(0.3, 0.3)], k=4
    )
    publisher.publish()
    return publisher, full.select(np.arange(SEED_ROWS, SEED_ROWS + 100))


def test_first_operation_failing_validation_leaves_publisher_healthy(stream):
    publisher, batch = stream
    before = publisher.latest
    with pytest.raises(StreamError):
        publisher.publish_coalesced([("delete", []), ("append", batch)])
    assert not publisher.poisoned
    assert len(publisher.store) == 1 and publisher.latest is before
    assert publisher.table.n_rows == SEED_ROWS
    version = publisher.publish_coalesced([("append", batch), ("delete", [0, 1])])
    assert version.version == 1
    assert version.delta.coalesced_operations == 2


def test_later_operation_failing_poisons_publisher(stream):
    publisher, batch = stream
    before = publisher.latest
    with pytest.raises(StreamError):
        publisher.publish_coalesced(
            [("append", batch), ("delete", [SEED_ROWS + batch.n_rows])]
        )
    assert publisher.poisoned
    assert len(publisher.store) == 1 and publisher.latest is before
    with pytest.raises(StreamError, match="inconsistent"):
        publisher.delete([0])


def test_unknown_kind_names_the_accepted_kinds(stream):
    publisher, batch = stream
    for tick in ([("upsert", batch)], [("append", batch), ("upsert", batch)]):
        with pytest.raises(StreamError) as error:
            publisher.publish_coalesced(tick)
        assert all(kind in str(error.value) for kind in OPERATION_KINDS)


def test_one_operation_tick(stream):
    publisher, batch = stream
    version = publisher.publish_coalesced([("append", batch)])
    assert version.delta.coalesced_operations == 1
    assert version.delta.appended_rows == batch.n_rows
    assert len(publisher.store) == 2


@pytest.mark.parametrize(
    "positions",
    [[1.7], np.array([1.0, 2.0]), [True, False, True], np.array([True, False]), [0, True]],
    ids=["float-list", "float-array", "bool-list", "bool-array", "mixed-bool"],
)
def test_non_integer_positions_are_refused(stream, positions):
    publisher, batch = stream
    with pytest.raises(StreamError, match="integer"):
        publisher.delete(positions)
    replacements = [publisher.table.row(0)] * len(positions)
    with pytest.raises(StreamError, match="integer"):
        publisher.update(positions, replacements)
    with pytest.raises(StreamError, match="integer"):
        publisher.publish_coalesced([("delete", positions)])
    assert not publisher.poisoned and len(publisher.store) == 1


def test_integer_positions_of_any_integer_type_are_accepted(stream):
    publisher, _ = stream
    assert publisher.delete([np.int32(3), 5]).delta.deleted_rows == 2
    assert publisher.delete(np.array([0, 1], dtype=np.uint16)).delta.deleted_rows == 2
    positions = np.array([2, 4], dtype=np.int64)
    version = publisher.update(positions, [publisher.table.row(7), publisher.table.row(8)])
    assert version.delta.updated_rows == 2
