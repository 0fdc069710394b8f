"""Tracing correctness on the shared thread pool.

Spans opened on pool threads - the backend's contraction tiles and the
skyline audit's per-adversary passes - must nest under the *owning* span
(the backend contraction span, the caller's audit span): never become their
own roots, and never leak into a concurrently tracing sibling's tree.  The
serial (``jobs=1``) trace shape must stay exactly what it was before
threading existed.
"""

import threading

import numpy as np

from repro.audit.engine import SkylineAuditEngine
from repro.data.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.prior import BatchedKernelPriorEstimator
from repro.obs.tracing import Span, Tracer

JOBS = 4


def _table(n=400, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Attribute("A", AttributeKind.NUMERIC, AttributeRole.QUASI_IDENTIFIER),
            Attribute("B", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("C", AttributeKind.CATEGORICAL, AttributeRole.QUASI_IDENTIFIER),
            Attribute("S", AttributeKind.CATEGORICAL, AttributeRole.SENSITIVE),
        ]
    )
    columns = {
        "A": rng.integers(0, 12, n).astype(float),
        "B": rng.choice(list("xyz"), n),
        "C": rng.choice(list("pq"), n),
        "S": rng.choice(["flu", "cold", "hiv", "ok"], n),
    }
    return MicrodataTable(schema, columns)


def _traced_estimation(table, jobs, bandwidth=0.3):
    tracer = Tracer()
    estimator = BatchedKernelPriorEstimator(EstimatorConfig(jobs=jobs)).fit(table)
    with tracer.activate(), tracer.timed("run"):
        estimator.prior_for_table([bandwidth])
    root = tracer.take_root()
    assert root is not None
    return root


def _contract_span(root: Span) -> Span:
    contract = root.find("backend.contract")
    assert contract is not None
    return contract


def test_threaded_tile_spans_nest_under_their_contract_span():
    root = _traced_estimation(_table(), JOBS)
    contract = _contract_span(root)
    assert int(contract.attributes["threads"]) >= 1
    tiles = [span for span in root.walk() if span.name == "backend.tile"]
    assert tiles  # the threaded dispatch path actually ran
    nested = [span for span in contract.walk() if span.name == "backend.tile"]
    assert tiles == nested  # every tile descends from the contraction span
    # Disjoint tiles cover every unique query exactly once.
    covered = sum(int(span.attributes["queries"]) for span in tiles)
    assert covered == int(contract.attributes["queries"])


def test_serial_trace_emits_no_tile_spans():
    root = _traced_estimation(_table(), 1)
    contract = _contract_span(root)
    assert int(contract.attributes["threads"]) == 1
    assert all(span.name != "backend.tile" for span in root.walk())


def test_concurrent_traced_estimations_do_not_interleave():
    """Two threads trace two estimations concurrently; each tree must hold
    exactly its own tiles (a span adopted by the wrong parent would break
    one tree's disjoint-cover accounting)."""
    tables = {"small": _table(n=300, seed=5), "large": _table(n=600, seed=7)}
    roots: dict[str, Span] = {}
    errors: list[BaseException] = []

    def run(name: str) -> None:
        try:
            for _ in range(3):
                roots[name] = _traced_estimation(tables[name], JOBS)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(name,)) for name in tables]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for name, root in roots.items():
        contract = _contract_span(root)
        tiles = [span for span in root.walk() if span.name == "backend.tile"]
        covered = sum(int(span.attributes["queries"]) for span in tiles)
        assert covered == int(contract.attributes["queries"])
        # The two tables have different unique-query counts, so a foreign
        # tile would also break the per-tree total.
        backend = BatchedKernelPriorEstimator(EstimatorConfig(jobs=1)).fit(tables[name]).backend
        assert int(contract.attributes["queries"]) == int(backend._pair_keys.size)


def test_attach_is_removed_on_exit_and_null_safe():
    tracer = Tracer()
    with tracer.activate(), tracer.timed("outer") as outer:
        parent = tracer.current()
        with tracer.attach(parent):
            with tracer.span("inner"):
                pass
        # The borrowed parent was removed without being re-appended.
        assert tracer.current() is parent
    root = tracer.take_root()
    assert root is outer
    assert [span.name for span in root.children] == ["inner"]
    # Attaching None (or attaching on a disabled tracer) is a no-op.
    with tracer.attach(None):
        assert tracer.current() is None
    disabled = Tracer(enabled=False)
    with disabled.attach(parent):
        pass


# -- skyline adversaries on the shared pool ---------------------------------------

SKYLINE = [(0.1, 0.3), (0.2, 0.3), (0.3, 0.25), (0.5, 0.2)]


def _groups(table, size=8):
    return np.array_split(np.arange(table.n_rows), table.n_rows // size)


def _prepared_engine(table, skyline, jobs):
    return SkylineAuditEngine(table, skyline, config=EstimatorConfig(jobs=jobs)).prepare()


def _traced_audits(engine, groups, tracer=None):
    """Trace ``audit`` and ``audit_incremental`` each under their own root."""
    tracer = tracer or Tracer()
    roots = []
    with tracer.activate():
        with tracer.timed("audit"):
            report = engine.audit(groups)
        roots.append(tracer.take_root())
        dirty = np.zeros(engine.table.n_rows, dtype=bool)
        dirty[::5] = True
        with tracer.timed("audit_incremental"):
            engine.audit_incremental(
                groups, previous_groups=groups, previous_report=report, dirty_rows=dirty,
                previous_of=np.arange(engine.table.n_rows),
            )
        roots.append(tracer.take_root())
    return roots


def _adversary_points(root):
    return sorted(
        (span.attributes["b"], span.attributes["t"])
        for span in root.walk()
        if span.name == "engine.adversary"
    )


def test_threaded_adversary_spans_nest_under_the_audit_span():
    table = _table()
    engine = _prepared_engine(table, SKYLINE, JOBS)
    for root in _traced_audits(engine, _groups(table)):
        # Every adversary span is a direct child of the caller's span.
        assert [span.name for span in root.children] == ["engine.adversary"] * len(SKYLINE)
        assert _adversary_points(root) == sorted(SKYLINE)
    assert all("recomputed_groups" in span.attributes for span in root.children)


def test_concurrent_audits_do_not_mix_adversary_spans():
    """Two threads audit concurrently through one shared tracer; each tree
    holds exactly its own skyline's adversary spans."""
    table = _table()
    skylines = {"low": SKYLINE[:2], "high": SKYLINE[2:]}
    engines = {
        name: _prepared_engine(table, points, JOBS) for name, points in skylines.items()
    }
    tracer = Tracer()
    roots: dict[str, list[Span]] = {}
    errors: list[BaseException] = []

    def run(name: str) -> None:
        try:
            for _ in range(5):
                roots[name] = _traced_audits(engines[name], _groups(table), tracer)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(name,)) for name in skylines]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for name, points in skylines.items():
        assert len(roots[name]) == 2
        for root in roots[name]:
            assert _adversary_points(root) == sorted(points)


def test_serial_audit_trace_shape_is_unchanged():
    """``jobs=1`` keeps the inline loop: adversary spans in skyline order,
    directly under the caller's span, each holding only its risk-kernel
    span."""
    table = _table()
    engine = _prepared_engine(table, SKYLINE, 1)
    audit, incremental = _traced_audits(engine, _groups(table))
    for root in (audit, incremental):
        assert [span.name for span in root.walk()] == (
            [root.name] + ["engine.adversary", "privacy.risks"] * len(SKYLINE)
        )
        points = [(span.attributes["b"], span.attributes["t"]) for span in root.children]
        assert points == SKYLINE
    assert [sorted(span.attributes) for span in audit.children] == (
        [["b", "t"]] * len(SKYLINE)
    )
    assert [sorted(span.attributes) for span in incremental.children] == (
        [["b", "recomputed_groups", "t"]] * len(SKYLINE)
    )
