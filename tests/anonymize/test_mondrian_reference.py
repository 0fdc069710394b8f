"""Array-pass Mondrian rounds against a per-node frontier reference.

``MondrianAnonymizer.partition_forest`` runs each frontier round as a fixed
set of NumPy passes over all entries at once.  The reference below is the
straightforward per-node formulation of the same search: every node takes
its own ``np.median`` over all QI columns, orders its dimensions with
``sorted`` and cuts with boolean masks.  The recorded trees - splits,
thresholds, ``inclusive`` flags, leaf order and contents, depths,
``searched_size`` - and the ``MondrianStatistics`` must be identical.
"""

import numpy as np
import pytest

from repro.anonymize.mondrian import (
    MondrianAnonymizer,
    MondrianLeaf,
    MondrianNode,
    MondrianSplit,
    MondrianStatistics,
    spilled_value_matrix,
)
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.source import InMemoryTableSource
from repro.data.table import MicrodataTable
from repro.privacy.models import (
    BTPrivacy,
    CompositeModel,
    DistinctLDiversity,
    KAnonymity,
    SkylineBTPrivacy,
    TCloseness,
)


def reference_forest(model, table, regions, *, strategy="widest", depths=None, values=None):
    """Per-node frontier Mondrian: the same rounds, one node at a time."""
    qi_names = list(table.quasi_identifier_names)
    spans = MondrianAnonymizer._span_vector(table, qi_names)
    if values is None:
        values = MondrianAnonymizer._value_matrix(table, qi_names)
    depths = [0] * len(regions) if depths is None else list(depths)
    statistics = MondrianStatistics()
    roots = [None] * len(regions)

    def attach(entry, node):
        parent, side = entry["target"]
        if parent is None:
            roots[side] = node
        else:
            setattr(parent, side, node)

    def start(indices, depth, target):
        sub = values[indices]
        widths = (sub.max(axis=0) - sub.min(axis=0)) / spans
        candidates = [int(j) for j in np.flatnonzero(widths > 0.0)]
        if strategy == "widest":
            ordered = sorted(candidates, key=lambda j: widths[j], reverse=True)
        elif candidates:
            offset = depth % len(candidates)
            ordered = candidates[offset:] + candidates[:offset]
        else:
            ordered = []
        return {
            "indices": indices,
            "depth": depth,
            "target": target,
            "dimensions": ordered,
            "next": 0,
            "medians": np.median(sub, axis=0) if ordered else None,
        }

    def propose(entry):
        while entry["next"] < len(entry["dimensions"]):
            column = entry["dimensions"][entry["next"]]
            cells = values[entry["indices"], column]
            median = float(entry["medians"][column])
            left, inclusive = cells <= median, True
            if left.all():
                left, inclusive = cells < median, False
            if not left.any() or left.all():
                entry["next"] += 1
                continue
            split = MondrianSplit(qi_names[column], median, inclusive)
            entry["proposal"] = (split, entry["indices"][left], entry["indices"][~left])
            return True
        return False

    frontier = [
        start(np.asarray(region, dtype=np.int64), int(depth), (None, slot))
        for slot, (region, depth) in enumerate(zip(regions, depths))
    ]
    while frontier:
        proposals = []
        for entry in frontier:
            statistics.max_depth = max(statistics.max_depth, entry["depth"])
            if propose(entry):
                proposals.append(entry)
            else:
                indices = entry["indices"]
                attach(entry, MondrianLeaf(np.sort(indices), entry["depth"], indices.size))
                statistics.n_groups += 1
        if not proposals:
            break
        halves = [half for entry in proposals for half in entry["proposal"][1:]]
        verdicts = model.is_satisfied_batch(halves)
        statistics.n_split_attempts += len(proposals)
        frontier = []
        for position, entry in enumerate(proposals):
            split, left, right = entry.pop("proposal")
            if verdicts[2 * position] and verdicts[2 * position + 1]:
                node = MondrianNode(split=split, depth=entry["depth"])
                attach(entry, node)
                frontier.append(start(left, entry["depth"] + 1, (node, "left")))
                frontier.append(start(right, entry["depth"] + 1, (node, "right")))
            else:
                statistics.n_rejected_splits += 1
                entry["next"] += 1
                frontier.append(entry)
    return roots, statistics


def signature(node):
    """Everything a recorded tree holds, as comparable nested tuples."""
    if node.is_leaf:
        return ("leaf", node.indices.tolist(), node.indices.dtype.str, node.depth,
                node.searched_size)
    split = node.split
    return ("node", split.attribute, split.threshold, split.inclusive, node.depth,
            signature(node.left), signature(node.right))


def assert_same_forest(model_factory, table, regions, *, strategy, depths=None, values=None):
    reference_model = model_factory()
    reference_model.prepare(table)
    expected, expected_statistics = reference_forest(
        reference_model, table, regions, strategy=strategy, depths=depths, values=values
    )
    model = model_factory()
    model.prepare(table)
    mondrian = MondrianAnonymizer(model, split_strategy=strategy)
    roots = mondrian.partition_forest(table, regions, depths=depths, values=values)
    assert [signature(root) for root in roots] == [signature(root) for root in expected]
    assert mondrian.statistics == expected_statistics
    return expected_statistics


MODELS = {
    "k": lambda: KAnonymity(3),
    "l-diversity": lambda: CompositeModel([KAnonymity(2), DistinctLDiversity(2)]),
    "t-closeness": lambda: CompositeModel([KAnonymity(2), TCloseness(0.35)]),
    "bt": lambda: CompositeModel([KAnonymity(2), BTPrivacy(0.3, 0.3)]),
    "skyline": lambda: CompositeModel(
        [KAnonymity(2), SkylineBTPrivacy([(0.2, 0.35), (0.5, 0.3)])]
    ),
}


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
@pytest.mark.parametrize(
    "model_factory",
    [
        lambda: KAnonymity(5),
        lambda: CompositeModel([KAnonymity(3), DistinctLDiversity(3)]),
        lambda: CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)]),
    ],
)
def test_recorded_tree_matches_per_node_reference(tiny_adult, model_factory, strategy):
    """The array-pass rounds record the per-node search's exact tree."""
    rows = np.arange(tiny_adult.n_rows, dtype=np.int64)
    statistics = assert_same_forest(model_factory, tiny_adult, [rows], strategy=strategy)
    assert statistics.n_groups > 1
    model = model_factory()
    mondrian = MondrianAnonymizer(model, split_strategy=strategy)
    groups = mondrian.partition(tiny_adult)
    model = model_factory()
    model.prepare(tiny_adult)
    expected, _ = reference_forest(model, tiny_adult, [rows], strategy=strategy)
    assert [group.tolist() for group in groups] == [
        leaf.indices.tolist() for leaf in expected[0].leaves()
    ]


def _tie_heavy_table(rng, n):
    """QI columns full of ties: medians that equal the maximum, constant columns."""
    schema = Schema(
        [
            numeric_qi("Skewed"),
            numeric_qi("Spread"),
            numeric_qi("Constant"),
            categorical_qi("Colour"),
            categorical_qi("Flag"),
            sensitive("Disease"),
        ]
    )
    top = int(rng.integers(3, 9))
    columns = {
        # Mostly the maximum: "value <= median" takes every row -> strict cut.
        "Skewed": np.where(rng.random(n) < 0.7, top, rng.integers(0, top, n)).astype(float),
        "Spread": rng.integers(0, int(rng.integers(4, 40)), n).astype(float),
        "Constant": np.full(n, 42.0),
        "Colour": rng.choice(["red", "green", "blue", "grey"], n, p=[0.55, 0.25, 0.15, 0.05]),
        "Flag": rng.choice(["yes", "no"], n, p=[0.85, 0.15]),
        "Disease": rng.choice(["flu", "cold", "hiv", "ulcer", "none"], n),
    }
    return MicrodataTable.from_columns(schema, columns)


def _regions(rng, model_factory, table):
    """Three random regions that each satisfy the model (one whole region otherwise)."""
    model = model_factory()
    model.prepare(table)
    shuffled = rng.permutation(table.n_rows)
    cuts = np.sort(rng.choice(np.arange(20, table.n_rows - 20), 2, replace=False))
    regions = np.split(shuffled, cuts)
    if all(model.is_satisfied(region) for region in regions):
        return regions
    return [shuffled]


def _strict_cuts(node):
    if node.is_leaf:
        return 0
    return (not node.split.inclusive) + _strict_cuts(node.left) + _strict_cuts(node.right)


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_randomized_rounds_match_per_node_reference(model_name, strategy):
    """Random tie-heavy tables; whole-table runs, depth-offset multi-region
    forests and spilled value matrices all record the reference's trees."""
    model_factory = MODELS[model_name]
    rng = np.random.default_rng([ord(c) for c in model_name + strategy])
    checked = strict = 0
    for _ in range(4):
        table = _tie_heavy_table(rng, int(rng.integers(60, 160)))
        rows = np.arange(table.n_rows, dtype=np.int64)
        whole = model_factory()
        whole.prepare(table)
        if not whole.is_satisfied(rows):
            continue
        assert_same_forest(model_factory, table, [rows], strategy=strategy)
        regions = _regions(rng, model_factory, table)
        depths = rng.integers(0, 5, len(regions)).tolist()
        assert_same_forest(model_factory, table, regions, strategy=strategy, depths=depths)
        spilled = spilled_value_matrix(InMemoryTableSource(table, chunk_rows=17))
        assert_same_forest(
            model_factory, table, regions, strategy=strategy, depths=depths, values=spilled
        )
        tree = MondrianAnonymizer(model_factory(), split_strategy=strategy).partition_tree(table)
        strict += _strict_cuts(tree)
        checked += 1
    assert checked >= 2
    assert strict > 0  # the median == maximum fallback was exercised
