"""The ReleaseStore exclusive lock: one writing publisher per shard.

Contracts:

* opening a disk store drops a ``store.lock`` naming the owning pid;
* a second opener from a *different live* process is refused with a
  :class:`~repro.exceptions.StreamError` naming the holder and the file;
* a lock left behind by a dead process is detected as stale and stolen;
* the same process may re-open its own store (resume paths do), and only
  the owning opener's ``close()`` releases the lock;
* a store that refuses to open, and a refused ``IncrementalPublisher.resume``,
  release the lock they took.
"""

import os

import numpy as np
import pytest

from repro.data.adult import adult_schema, generate_adult
from repro.exceptions import StreamError
from repro.privacy.models import BTPrivacy
from repro.stream import IncrementalPublisher, ReleaseStore
from repro.stream.store import LOCK_FILE, _pid_alive


FULL = generate_adult(270, seed=5)


def _store_dir(tmp_path):
    """A populated shard, with its publisher closed (lock released)."""
    publisher = IncrementalPublisher(
        FULL.select(np.arange(200)), BTPrivacy(0.3, 0.3), k=2,
        store_path=tmp_path / "store",
    )
    publisher.publish()
    publisher.append(FULL.select(np.arange(200, 240)))
    publisher.close()
    return tmp_path / "store"


def test_open_store_holds_a_lock_naming_this_pid(tmp_path):
    publisher = IncrementalPublisher(
        FULL.select(np.arange(200)), BTPrivacy(0.3, 0.3), k=2,
        store_path=tmp_path / "store",
    )
    publisher.publish()
    lock = tmp_path / "store" / LOCK_FILE
    assert lock.exists()
    assert int(lock.read_text().strip()) == os.getpid()
    publisher.close()
    assert not lock.exists()


def test_foreign_live_holder_is_refused(tmp_path):
    store_dir = _store_dir(tmp_path)
    # Pid 1 is always alive (and never us); pretend it owns the shard.
    (store_dir / LOCK_FILE).write_text("1\n")
    with pytest.raises(StreamError) as excinfo:
        ReleaseStore(path=store_dir, schema=adult_schema())
    message = str(excinfo.value)
    assert "process 1" in message
    assert LOCK_FILE in message
    (store_dir / LOCK_FILE).unlink()


def test_stale_lock_is_stolen(tmp_path):
    store_dir = _store_dir(tmp_path)
    dead_pid = 2**22 + 1  # beyond any default pid_max
    assert not _pid_alive(dead_pid)
    (store_dir / LOCK_FILE).write_text(f"{dead_pid}\n")
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    assert len(store) == 2
    assert int((store_dir / LOCK_FILE).read_text().strip()) == os.getpid()
    store.close()
    assert not (store_dir / LOCK_FILE).exists()


def test_garbage_lock_is_treated_as_stale(tmp_path):
    store_dir = _store_dir(tmp_path)
    (store_dir / LOCK_FILE).write_text("not-a-pid\n")
    store = ReleaseStore(path=store_dir, schema=adult_schema())
    assert int((store_dir / LOCK_FILE).read_text().strip()) == os.getpid()
    store.close()


def test_same_pid_reopen_is_reentrant_and_does_not_steal_the_release(tmp_path):
    store_dir = _store_dir(tmp_path)
    owner = ReleaseStore(path=store_dir, schema=adult_schema())
    # A second opener in the same process is allowed (resume paths reload
    # their own shard), but it does not own the lock...
    reader = ReleaseStore(path=store_dir, schema=adult_schema())
    assert len(reader) == len(owner) == 2
    reader.close()
    assert (store_dir / LOCK_FILE).exists()  # ... so closing it keeps the lock
    owner.close()
    assert not (store_dir / LOCK_FILE).exists()


def test_publisher_resume_respects_the_lock(tmp_path):
    store_dir = _store_dir(tmp_path)
    (store_dir / LOCK_FILE).write_text("1\n")
    with pytest.raises(StreamError, match="process 1"):
        IncrementalPublisher.resume(
            store_dir, schema=adult_schema(), model=BTPrivacy(0.3, 0.3)
        )
    (store_dir / LOCK_FILE).unlink()
    resumed = IncrementalPublisher.resume(
        store_dir, schema=adult_schema(), model=BTPrivacy(0.3, 0.3)
    )
    resumed.append(FULL.select(np.arange(240, 270)))
    resumed.close()
    assert not (store_dir / LOCK_FILE).exists()


def _empty(store_dir, state):
    for path in store_dir.iterdir():
        path.unlink()


def _no_state(store_dir, state):
    (store_dir / "state.json").unlink()


def _undecodable_state(store_dir, state):
    (store_dir / "state.json").write_text("{}\n")


def _interrupted_mid_persist(store_dir, state):
    # v1 is in the lineage, state.json is v0's.
    (store_dir / "state.json").write_text(state)


@pytest.mark.parametrize(
    "break_store, model, message",
    [
        (_empty, BTPrivacy(0.3, 0.3), "no versions"),
        (_no_state, BTPrivacy(0.3, 0.3), "no publisher state"),
        (_undecodable_state, BTPrivacy(0.3, 0.3), "cannot be decoded"),
        (None, BTPrivacy(0.2, 0.3), "model mismatch"),
        (_interrupted_mid_persist, BTPrivacy(0.3, 0.3), "interrupted mid-persist"),
    ],
    ids=["empty", "no-state", "undecodable-state", "model-mismatch", "mid-persist"],
)
def test_a_refused_resume_releases_the_lock(tmp_path, break_store, model, message):
    publisher = IncrementalPublisher(
        FULL.select(np.arange(200)), BTPrivacy(0.3, 0.3), k=2,
        store_path=tmp_path / "store",
    )
    publisher.publish()
    seed_state = (tmp_path / "store" / "state.json").read_text()
    publisher.append(FULL.select(np.arange(200, 240)))
    publisher.close()
    if break_store is not None:
        break_store(tmp_path / "store", seed_state)
    with pytest.raises(StreamError, match=message):
        IncrementalPublisher.resume(tmp_path / "store", schema=adult_schema(), model=model)
    # Another process may open the directory straight away.
    assert not (tmp_path / "store" / LOCK_FILE).exists()


@pytest.mark.parametrize("corrupt", ["schema", "lineage"])
def test_a_store_that_refuses_to_open_releases_the_lock(tmp_path, corrupt):
    store_dir = _store_dir(tmp_path)
    schema = None if corrupt == "schema" else adult_schema()
    if corrupt == "lineage":
        lineage = store_dir / "lineage.jsonl"
        lineage.write_text(lineage.read_text() + "{not json\n")
    with pytest.raises(StreamError):
        ReleaseStore(path=store_dir, schema=schema)
    assert not (store_dir / LOCK_FILE).exists()


def test_memory_stores_take_no_lock(tmp_path):
    publisher = IncrementalPublisher(FULL.select(np.arange(150)), BTPrivacy(0.3, 0.3), k=2)
    publisher.publish()
    publisher.delete(np.arange(5))
    publisher.close()  # a no-op for in-memory stores; must not raise


def test_pid_alive_probe():
    assert _pid_alive(os.getpid())
    assert _pid_alive(1)
    assert not _pid_alive(0)
    assert not _pid_alive(-4)
    assert not _pid_alive(2**22 + 1)
