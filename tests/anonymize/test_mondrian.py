"""Tests for the Mondrian multidimensional partitioner."""

import numpy as np
import pytest

from repro.anonymize.mondrian import (
    MondrianAnonymizer,
    MondrianLeaf,
    MondrianNode,
    MondrianSplit,
    spilled_value_matrix,
)
from repro.anonymize.partition import AnonymizedRelease
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError
from repro.privacy.models import (
    BTPrivacy,
    CompositeModel,
    DistinctLDiversity,
    KAnonymity,
    SkylineBTPrivacy,
    TCloseness,
)


def _partition_is_valid(table, groups):
    covered = np.concatenate(groups)
    assert sorted(covered.tolist()) == list(range(table.n_rows))
    assert len(set(covered.tolist())) == table.n_rows


def test_invalid_strategy_rejected():
    with pytest.raises(AnonymizationError):
        MondrianAnonymizer(KAnonymity(2), split_strategy="zigzag")


def test_k_anonymity_partition(tiny_adult):
    mondrian = MondrianAnonymizer(KAnonymity(5))
    groups = mondrian.partition(tiny_adult)
    _partition_is_valid(tiny_adult, groups)
    assert all(len(group) >= 5 for group in groups)
    # Mondrian should actually split a 300-row table with k=5.
    assert len(groups) > 10
    assert mondrian.statistics.n_groups == len(groups)
    assert mondrian.statistics.max_depth >= 1


def test_smaller_k_gives_finer_partition(tiny_adult):
    coarse = MondrianAnonymizer(KAnonymity(25)).partition(tiny_adult)
    fine = MondrianAnonymizer(KAnonymity(5)).partition(tiny_adult)
    assert len(fine) > len(coarse)


def test_l_diversity_partition(tiny_adult):
    model = CompositeModel([KAnonymity(3), DistinctLDiversity(3)])
    groups = MondrianAnonymizer(model).partition(tiny_adult)
    _partition_is_valid(tiny_adult, groups)
    codes = tiny_adult.sensitive_codes()
    for group in groups:
        assert len(set(codes[group].tolist())) >= 3


def test_t_closeness_partition(tiny_adult):
    model = CompositeModel([KAnonymity(3), TCloseness(0.3)])
    groups = MondrianAnonymizer(model).partition(tiny_adult)
    _partition_is_valid(tiny_adult, groups)
    model.prepare(tiny_adult)
    for group in groups:
        assert model.is_satisfied(group)


def test_bt_privacy_partition_respects_requirement(tiny_adult):
    model = BTPrivacy(0.3, 0.25)
    mondrian = MondrianAnonymizer(CompositeModel([KAnonymity(3), model]))
    groups = mondrian.partition(tiny_adult)
    _partition_is_valid(tiny_adult, groups)
    for group in groups:
        assert model.group_risk(group) <= 0.25 + 1e-9


def test_impossible_requirement_raises(tiny_adult):
    # More distinct values than the sensitive domain holds -> even the root fails.
    model = DistinctLDiversity(100)
    with pytest.raises(AnonymizationError):
        MondrianAnonymizer(model).partition(tiny_adult)


def test_round_robin_strategy_also_valid(tiny_adult):
    widest = MondrianAnonymizer(KAnonymity(10)).partition(tiny_adult)
    round_robin = MondrianAnonymizer(KAnonymity(10), split_strategy="round_robin").partition(
        tiny_adult
    )
    _partition_is_valid(tiny_adult, round_robin)
    assert all(len(group) >= 10 for group in round_robin)
    # Both produce a real partitioning (not necessarily the same one).
    assert len(widest) > 1 and len(round_robin) > 1


def test_prepare_flag_skips_model_preparation(tiny_adult):
    model = DistinctLDiversity(2)
    model.prepare(tiny_adult)
    groups = MondrianAnonymizer(model).partition(tiny_adult, prepare=False)
    _partition_is_valid(tiny_adult, groups)


def test_median_split_handles_skewed_column():
    """A column where the median equals the maximum still splits correctly."""
    schema = Schema([numeric_qi("Age"), sensitive("Disease")])
    table = MicrodataTable.from_columns(
        schema,
        {
            "Age": [1, 5, 5, 5, 5, 5, 5, 5],
            "Disease": ["a", "b", "a", "b", "a", "b", "a", "b"],
        },
    )
    groups = MondrianAnonymizer(KAnonymity(1)).partition(table)
    _partition_is_valid(table, groups)
    assert len(groups) >= 2


def test_constant_qi_cannot_split():
    """If every QI value is identical the whole table stays one group."""
    schema = Schema([numeric_qi("Age"), categorical_qi("Sex"), sensitive("Disease")])
    table = MicrodataTable.from_columns(
        schema,
        {
            "Age": [30] * 6,
            "Sex": ["M"] * 6,
            "Disease": ["a", "b", "c", "a", "b", "c"],
        },
    )
    groups = MondrianAnonymizer(KAnonymity(1)).partition(table)
    assert len(groups) == 1
    assert len(groups[0]) == 6


def test_partition_wraps_into_release(tiny_adult):
    groups = MondrianAnonymizer(KAnonymity(4)).partition(tiny_adult)
    release = AnonymizedRelease(tiny_adult, groups, method="mondrian-k4")
    assert release.n_groups == len(groups)


def test_rejected_splits_are_counted(tiny_adult):
    mondrian = MondrianAnonymizer(CompositeModel([KAnonymity(3), DistinctLDiversity(4)]))
    mondrian.partition(tiny_adult)
    stats = mondrian.statistics
    assert stats.n_split_attempts >= stats.n_groups - 1
    assert stats.n_rejected_splits >= 0


def test_batched_split_checks_match_scalar_path(tiny_adult):
    """The one-call left/right evaluation must not change any partition."""
    batched_model = CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    batched = MondrianAnonymizer(batched_model).partition(tiny_adult)

    scalar_model = CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    # Force the pre-batching behaviour: every group checked one at a time
    # through the scalar entry point.
    scalar_model.is_satisfied_batch = lambda groups: [
        scalar_model.is_satisfied(group) for group in groups
    ]
    scalar = MondrianAnonymizer(scalar_model).partition(tiny_adult)

    assert len(batched) == len(scalar)
    for a, b in zip(batched, scalar):
        np.testing.assert_array_equal(a, b)


def test_bt_risk_memoisation_counts(tiny_adult):
    model = CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    MondrianAnonymizer(model).partition(tiny_adult)
    bt = model.models[1]
    assert bt.risk_evaluations > 0
    # Re-checking the final groups hits the memo, not the posterior kernel.
    evaluations = bt.risk_evaluations
    groups = MondrianAnonymizer(model).partition(tiny_adult, prepare=False)
    assert bt.risk_cache_hits > 0
    del groups, evaluations


def test_skyline_model_partition_checks_every_point(tiny_adult):
    model = CompositeModel(
        [KAnonymity(3), SkylineBTPrivacy([(0.2, 0.3), (0.5, 0.25)])]
    )
    groups = MondrianAnonymizer(model).partition(tiny_adult)
    for point in model.models[1].points:
        for group in groups:
            assert point.is_satisfied(group)


# -- recorded split trees (see test_mondrian_reference.py for the per-node reference) -


def test_frontier_partition_order_is_deterministic_tree_order(tiny_adult):
    """Default groups come in the recorded tree's left-to-right leaf order."""
    model = CompositeModel([KAnonymity(3), DistinctLDiversity(3)])
    first = MondrianAnonymizer(model).partition(tiny_adult)
    second = MondrianAnonymizer(model).partition(tiny_adult, prepare=False)
    tree = MondrianAnonymizer(model).partition_tree(tiny_adult, prepare=False)
    leaves = [leaf.indices for leaf in tree.leaves()]
    assert len(first) == len(second) == len(leaves)
    for a, b, c in zip(first, second, leaves):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
def test_partition_tree_leaves_match_partition(tiny_adult, strategy):
    model = CompositeModel([KAnonymity(3), DistinctLDiversity(3)])
    groups = MondrianAnonymizer(model, split_strategy=strategy).partition(tiny_adult)
    tree = MondrianAnonymizer(model, split_strategy=strategy).partition_tree(tiny_adult)
    leaves = [leaf.indices for leaf in tree.leaves()]
    assert sorted(tuple(g.tolist()) for g in groups) == sorted(
        tuple(leaf.tolist()) for leaf in leaves
    )
    for leaf in tree.leaves():
        assert leaf.searched_size == leaf.indices.size


def test_partition_tree_records_routable_splits(tiny_adult):
    tree = MondrianAnonymizer(KAnonymity(10)).partition_tree(tiny_adult)
    assert isinstance(tree, MondrianNode)
    node = tree
    # Every internal split routes its own members consistently.
    values = (
        tiny_adult.column(node.split.attribute)
        if tiny_adult.schema[node.split.attribute].is_numeric
        else tiny_adult.codes(node.split.attribute).astype(np.float64)
    )
    left_leaf_rows = np.concatenate([leaf.indices for leaf in node.left.leaves()])
    right_leaf_rows = np.concatenate([leaf.indices for leaf in node.right.leaves()])
    assert node.split.goes_left(values[left_leaf_rows]).all()
    assert not node.split.goes_left(values[right_leaf_rows]).any()


def test_partition_forest_partitions_each_region(tiny_adult):
    model = KAnonymity(4)
    model.prepare(tiny_adult)
    regions = [
        np.arange(0, 150, dtype=np.int64),
        np.arange(150, 300, dtype=np.int64),
    ]
    mondrian = MondrianAnonymizer(model)
    roots = mondrian.partition_forest(tiny_adult, regions, depths=[2, 2])
    assert len(roots) == 2
    for region, root in zip(regions, roots):
        covered = np.concatenate([leaf.indices for leaf in root.leaves()])
        assert sorted(covered.tolist()) == region.tolist()
        for leaf in root.leaves():
            assert leaf.indices.size >= 4
            assert leaf.depth >= 2


# -- spilled value matrix (the out-of-core recursion) ---------------------------------


def test_spilled_value_matrix_is_bitwise_the_resident_one(tiny_adult):
    from repro.data.source import InMemoryTableSource

    qi_names = list(tiny_adult.quasi_identifier_names)
    resident = MondrianAnonymizer._value_matrix(tiny_adult, qi_names)
    spilled = spilled_value_matrix(InMemoryTableSource(tiny_adult, chunk_rows=37))
    assert isinstance(spilled, np.memmap)
    assert spilled.dtype == resident.dtype and spilled.shape == resident.shape
    assert spilled.tobytes() == resident.tobytes()


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
def test_spilled_partition_identical_to_resident_recursion(tiny_adult, strategy):
    """Frontier recursion over the spill cuts the exact resident partition -
    same groups, same order - for every split strategy."""
    from repro.data.source import InMemoryTableSource

    model = CompositeModel([KAnonymity(4), DistinctLDiversity(3)])
    resident = MondrianAnonymizer(model, split_strategy=strategy).partition(tiny_adult)
    spilled = MondrianAnonymizer(model, split_strategy=strategy).partition(
        tiny_adult,
        values=spilled_value_matrix(InMemoryTableSource(tiny_adult, chunk_rows=64)),
    )
    assert len(spilled) == len(resident)
    assert all(np.array_equal(a, b) for a, b in zip(spilled, resident))


def test_spilled_source_row_mismatch_raises(tiny_adult):
    from repro.data.source import InMemoryTableSource

    class TruncatedSource(InMemoryTableSource):
        def iter_chunks(self, chunk_rows=None):
            yield next(super().iter_chunks(chunk_rows=100))

    with pytest.raises(AnonymizationError, match="declared"):
        spilled_value_matrix(TruncatedSource(tiny_adult))


def test_anonymize_spill_option_matches_resident_release(tiny_adult):
    from repro.anonymize.anonymizer import anonymize

    model = DistinctLDiversity(3)
    resident = anonymize(tiny_adult, model, k=4)
    spilled = anonymize(tiny_adult, model, k=4, spill=True)
    assert len(spilled.release.groups) == len(resident.release.groups)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(spilled.release.groups, resident.release.groups)
    )


def _recursive_leaves(node):
    """The left-to-right order of the recursive generator ``leaves`` replaced."""
    if isinstance(node, MondrianLeaf):
        return [node]
    return _recursive_leaves(node.left) + _recursive_leaves(node.right)


def test_leaves_keep_left_to_right_order(tiny_adult):
    tree = MondrianAnonymizer(KAnonymity(3)).partition_tree(tiny_adult)
    assert [id(leaf) for leaf in tree.leaves()] == [id(leaf) for leaf in _recursive_leaves(tree)]


def test_leaves_walk_a_three_thousand_deep_chain():
    split = MondrianSplit("age", 0.0)
    node = MondrianLeaf(np.array([3000]))
    chain = [node]
    for depth in range(3000):
        node = MondrianNode(split, left=MondrianLeaf(np.array([depth])), right=node)
        chain.append(node)
    leaves = list(node.leaves())
    assert [int(leaf.indices[0]) for leaf in leaves] == list(range(2999, -1, -1)) + [3000]
