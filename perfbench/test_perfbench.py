"""Self-tests of the benchmark: its metric math, its output checks and its catalogue.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_acks,
    check_covers,
    check_lineage,
    check_min_group_size,
    check_no_vulnerable,
    check_risks_match,
    check_same_digest,
    check_same_version,
    check_satisfied,
    groups_digest,
)
from harness import (  # noqa: E402
    REPO_ROOT,
    SRC_DIR,
    Measurement,
    Outcomes,
    SpanRecorder,
    has_tail,
    layer_self_seconds,
    nearest_rank,
    overhead_frac,
    self_times,
    tail,
)


# -- percentiles ----------------------------------------------------------------------

def test_nearest_rank_percentiles():
    samples = list(range(1, 101))  # 1..100
    assert nearest_rank(samples, 50) == (50, 50)
    assert nearest_rank(samples, 90) == (90, 90)
    assert nearest_rank(samples, 99) == (99, 99)
    assert nearest_rank([3.0, 1.0, 2.0], 50) == (2.0, 2)
    assert nearest_rank([7.0], 99) == (7.0, 1)


def test_percentile_needs_ten_samples_beyond_it():
    assert has_tail(100, 90)  # rank 90: 10 beyond
    assert not has_tail(99, 90)  # rank 90: 9 beyond
    assert has_tail(1000, 99) and not has_tail(999, 99)
    assert has_tail(20, 50) and not has_tail(19, 50)
    assert not has_tail(0, 50)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, q = tail(list(range(1, 1001)))  # p99 qualifies: capped there
    assert (value, q) == (990, 99.0)
    value, q = tail(list(range(1, 41)))  # 40 samples: rank 30 is the highest allowed
    assert value == 30 and q == pytest.approx(75.0)
    assert tail(list(range(10))) == (0.0, 0.0)
    for n in range(11, 300):
        value, q = tail(list(range(1, n + 1)))
        assert n - value >= 10, n  # value is the rank: at least ten samples beyond


# -- failures -------------------------------------------------------------------------

def test_error_frac_counts_429_and_raises():
    outcomes = Outcomes()
    assert outcomes.record_status(200) and outcomes.record_status(201)
    assert not outcomes.record_status(429)
    assert not outcomes.record_status(500)
    assert not outcomes.record_status(404)
    outcomes.record(ok=False)  # an operation that raised
    outcomes.record(ok=True)
    assert (outcomes.attempted, outcomes.failed) == (7, 4)
    assert outcomes.error_frac == pytest.approx(4 / 7)
    assert Outcomes().error_frac == 0.0


# -- spans ----------------------------------------------------------------------------

def _span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end, "run": "r"}


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, "api.audit", 0.0, 10.0),
        _span(2, 1, "knowledge.prior", 1.0, 4.0),
        _span(3, 2, "knowledge.contract", 2.0, 3.0),
        _span(4, 1, "audit.posterior", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    layers = layer_self_seconds(spans)
    assert layers == pytest.approx({"api": 3.0, "knowledge": 3.0, "audit": 4.0})
    assert sum(layers.values()) == pytest.approx(10.0)  # self times tile the root


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, "serve.client", 0.0, 10.0),
        _span(2, 1, "serve.read", 1.0, 6.0),
        _span(3, 1, "serve.read", 4.0, 8.0),  # overlaps the first child
        _span(4, 1, "serve.read", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_spans_and_records_nothing_disabled():
    recorder = SpanRecorder("run-1", enabled=True)
    with recorder.span("stream.append"):
        with recorder.span("store.add"):
            pass
    with recorder.span("stream.delete"):
        pass
    recorder.enabled = False
    with recorder.span("stream.update"):
        pass
    names = {span["name"]: span for span in recorder.spans}
    assert set(names) == {"stream.append", "store.add", "stream.delete"}
    assert names["store.add"]["parent"] == names["stream.append"]["id"]
    assert names["stream.delete"]["parent"] is None
    assert {span["run"] for span in recorder.spans} == {"run-1"}


def test_overhead_is_signed_not_clamped():
    assert overhead_frac([1.1, 1.1, 1.1], [1.0, 1.0, 1.0]) == pytest.approx(0.1)
    assert overhead_frac([0.9, 0.9], [1.0, 1.0]) == pytest.approx(-0.1)
    assert overhead_frac([], [1.0]) == 0.0


def test_measurement_reports_every_end_to_end_metric():
    run = Measurement("r", trace=True)
    run.setup.extend([0.5, 0.7, 0.6])
    for index, seconds in enumerate([1.0, 1.2, 1.0, 1.2]):
        run.add_primary(seconds, traced=run.traced(index))
        run.outcomes.record(ok=True)
    run.secondary.append(2.0)
    run.outcomes.record(ok=False)
    run.check("passes", lambda: None)
    result = run.result(peak_rss=100.0, per_layer={})
    assert set(result["end_to_end"]) == set(END_TO_END)
    assert result["end_to_end"]["setup_s"] == pytest.approx(0.6)
    assert result["end_to_end"]["ok_frac"] == pytest.approx(4 / 5)
    assert result["per_layer"]["bench.trace_overhead_frac"] == pytest.approx(0.2)
    assert result["correct"]
    run.check("fails", check_min_group_size, [np.arange(2)], 4)
    assert not run.result(peak_rss=1.0, per_layer={})["correct"]


# -- output checks on good and corrupted outputs ---------------------------------------

def test_checks_pass_good_outputs_and_fail_corrupted_ones():
    groups = [np.arange(0, 4), np.arange(4, 9)]
    check_min_group_size(groups, 4)
    check_covers(groups, 9)
    with pytest.raises(CheckFailed):
        check_min_group_size([np.arange(0, 3), np.arange(3, 9)], 4)
    with pytest.raises(CheckFailed):
        check_covers([np.arange(0, 4), np.arange(5, 9)], 9)

    check_no_vulnerable(0, (0.3, 0.2))
    with pytest.raises(CheckFailed):
        check_no_vulnerable(1, (0.3, 0.2))

    digest = groups_digest(groups)
    check_same_digest([digest, digest])
    with pytest.raises(CheckFailed):
        check_same_digest([digest, groups_digest(groups[::-1])])

    check_satisfied(3, True, (0.3, 0.2))
    with pytest.raises(CheckFailed):
        check_satisfied(3, False, (0.3, 0.2))

    risks = [np.linspace(0.0, 0.2, 50), np.linspace(0.0, 0.1, 50)]
    assert check_risks_match(risks, [r.copy() for r in risks]) == 0.0
    perturbed = [r.copy() for r in risks]
    perturbed[1][7] += 1e-9
    with pytest.raises(CheckFailed):
        check_risks_match(risks, perturbed)
    nan = [r.copy() for r in risks]
    nan[0][0] = np.nan
    with pytest.raises(CheckFailed):
        check_risks_match(risks, nan)

    check_same_version((5, digest), (5, digest))
    with pytest.raises(CheckFailed):
        check_same_version((5, digest), (4, digest))

    check_acks([1, 2, 2, 3])
    for bad in ([1, None], [1, "2"], [0], [True]):
        with pytest.raises(CheckFailed):
            check_acks(bad)

    check_lineage("s0", 11, 10)
    with pytest.raises(CheckFailed):
        check_lineage("s0", 10, 10)


def test_checks_on_a_real_release():
    """A small real publish passes every check; its corrupted copy fails them."""
    sys.path.insert(0, str(SRC_DIR))
    from repro.api import Session
    from repro.data.adult import generate_adult

    from publish_audit import ENFORCED, K, SKYLINE, enforced_entry

    table = generate_adult(400, seed=3)
    session = Session(table, jobs=1)
    groups = session.anonymize("bt", params={"b": ENFORCED[0], "t": ENFORCED[1]}, k=K).release.groups
    report = session.audit_skyline(groups, SKYLINE)
    check_min_group_size(groups, K)
    check_covers(groups, table.n_rows)
    check_no_vulnerable(enforced_entry(report.entries).attack.vulnerable_tuples, ENFORCED)

    shrunk = [g.copy() for g in groups]
    smallest = min(range(len(shrunk)), key=lambda i: len(shrunk[i]))
    shrunk[smallest] = shrunk[smallest][: K - 1]
    with pytest.raises(CheckFailed):
        check_min_group_size(shrunk, K)

    fresh = [e.attack.risks for e in Session(table, jobs=1).audit_skyline(groups, SKYLINE).entries]
    maintained = [e.attack.risks.copy() for e in report.entries]
    check_risks_match(maintained, fresh)
    maintained[0][int(np.argmax(maintained[0]))] += 1e-9
    with pytest.raises(CheckFailed):
        check_risks_match(maintained, fresh)


# -- the catalogue and BENCHMARK.json agree --------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: (unit, better, bound) for name, (unit, better, bound, _) in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()
    }
    for name, (_, _, workload, moves) in PER_LAYER.items():
        assert workload in set(WORKLOADS) | {"all"}, name
        assert set(moves.split()) <= set(END_TO_END), name
    assert max(bound for _, _, bound, _ in END_TO_END.values()) == END_TO_END["setup_s"][2]
