"""What the Mondrian round and risk-kernel spans say about their work.

Every frontier round opens one ``mondrian.round`` span recording the
round's ``entries``, ``rows``, ``proposals`` and ``rejected`` splits; every
risk-kernel call opens a ``privacy.risks`` span recording its member
``rows``, ``screened_rows`` (rows of groups a screened verdict decided from
the group's bound alone, never tiled), ``pairs`` (the one representative
per (group, prior row) pair it tiled), ``tiles`` and ``exact_rows`` (the
member rows that got the exact measure: all of them in audits, few in
screened Mondrian verdicts).  In a
traced pipeline the rounds nest under ``anonymize`` and the (B,t) checks'
kernel spans under their round; in a skyline audit each
``engine.adversary`` holds its own kernel span.
"""

import numpy as np

import repro.inference.omega as omega
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.api import Session
from repro.data.adult import generate_adult
from repro.obs.tracing import Tracer
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity

TABLE = generate_adult(300, seed=7)
SKYLINE = [(0.2, 0.3), (0.4, 0.25)]


def _parents(root):
    """Map each span (by id) to its parent's name."""
    parents = {}
    for span in root.walk():
        for child in span.children:
            parents[id(child)] = span.name
    return parents


def test_rounds_nest_under_anonymize_and_kernel_spans_under_rounds_and_adversaries():
    tracer = Tracer()
    bundle = (
        Session(TABLE).pipeline()
        .model("bt", b=0.3, t=0.25).with_k(3)
        .audit_skyline(SKYLINE)
        .run(tracer=tracer)
    )
    root = tracer.take_root()
    parents = _parents(root)
    anonymize = root.child("anonymize")
    rounds = [span for span in anonymize.walk() if span.name == "mondrian.round"]
    assert rounds
    assert [span for span in root.walk() if span.name == "mondrian.round"] == rounds
    assert {parents[id(span)] for span in rounds} == {"anonymize"}
    # The whole-table check runs before the first round; every split check
    # runs inside its round.
    kernel_parents = [
        parents[id(span)] for span in anonymize.walk() if span.name == "privacy.risks"
    ]
    assert kernel_parents.count("anonymize") == 1
    assert kernel_parents.count("mondrian.round") == len(kernel_parents) - 1 > 0

    audit = root.child("skyline_audit")
    adversaries = [span for span in audit.walk() if span.name == "engine.adversary"]
    assert len(adversaries) == len(SKYLINE)
    for adversary in adversaries:
        (kernel,) = adversary.children
        assert kernel.name == "privacy.risks"
        assert kernel.attributes["rows"] == TABLE.n_rows
        # Audits report risks, so every row gets the exact measure.
        assert kernel.attributes["exact_rows"] == TABLE.n_rows
    assert bundle.release.n_groups > 1


def test_round_and_kernel_attributes_count_the_work(monkeypatch):
    monkeypatch.setattr(omega, "TILE_ROWS", 64)
    mondrian = MondrianAnonymizer(CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)]))
    tracer = Tracer()
    with tracer.activate(), tracer.timed("anonymize"):
        tree = mondrian.partition_tree(TABLE)
    root = tracer.take_root()
    rounds = [span for span in root.children if span.name == "mondrian.round"]
    assert rounds[0].attributes["entries"] == 1
    assert rounds[0].attributes["rows"] == TABLE.n_rows
    statistics = mondrian.statistics
    assert sum(span.attributes["proposals"] for span in rounds) == statistics.n_split_attempts
    assert sum(span.attributes["rejected"] for span in rounds) == statistics.n_rejected_splits
    assert rounds[-1].attributes["proposals"] == 0
    # Each round's frontier: accepted entries split in two, rejected stay.
    for before, after in zip(rounds, rounds[1:]):
        accepted = before.attributes["proposals"] - before.attributes["rejected"]
        assert after.attributes["entries"] == 2 * accepted + before.attributes["rejected"]
    assert statistics.n_groups == len(list(tree.leaves()))
    kernels = [span for span in root.walk() if span.name == "privacy.risks"]
    assert kernels
    for span in kernels:
        # Rows of groups decided by their whole-group bound are never tiled;
        # the others tile one representative per (group, prior row) pair.
        tiled = span.attributes["rows"] - span.attributes["screened_rows"]
        assert 0 <= tiled <= span.attributes["rows"]
        assert 0 <= span.attributes["pairs"] <= tiled
        assert (span.attributes["pairs"] == 0) == (tiled == 0)
        assert span.attributes["tiles"] == -(-span.attributes["pairs"] // 64)
        assert 0 <= span.attributes["exact_rows"] <= tiled
    assert max(span.attributes["tiles"] for span in kernels) > 1
    # Verdicts are screened: only rows that could breach t get exact JS.
    exact_rows = sum(span.attributes["exact_rows"] for span in kernels)
    assert 0 < exact_rows < sum(span.attributes["rows"] for span in kernels)


def test_tracing_changes_no_partition():
    mondrian = MondrianAnonymizer(CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)]))
    tracer = Tracer()
    with tracer.activate(), tracer.timed("anonymize"):
        traced = mondrian.partition(TABLE)
    untraced = MondrianAnonymizer(
        CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    ).partition(TABLE)
    assert len(traced) == len(untraced)
    assert all(np.array_equal(a, b) for a, b in zip(traced, untraced))
