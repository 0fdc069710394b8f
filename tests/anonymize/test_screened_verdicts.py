"""Screened (B,t) verdicts record the same Mondrian trees as exact ones.

``BTPrivacy.is_satisfied_batch`` gets its verdicts from screened risks: only
member rows whose log-free bound exceeds ``t`` pay for the exact measure.
The reference model below decides every group from exact
``group_risks``, as the verdict did before screening.  Both must record the
same trees - splits, thresholds, leaf order and contents, depths,
``searched_size`` - and the same ``MondrianStatistics``; and after a
partition, asking the screened model for a leaf's risk must give the exact
risk, bit for bit, and leave an exact memo entry behind.
"""

import numpy as np
import pytest

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.privacy.models import BTPrivacy, CompositeModel, KAnonymity, SkylineBTPrivacy


class ExactVerdictBT(BTPrivacy):
    """(B,t)-privacy whose verdicts come from exact group risks."""

    def is_satisfied(self, group_indices):
        return self.group_risk(group_indices) <= self.t + 1e-12

    def is_satisfied_batch(self, groups):
        return [bool(risk <= self.t + 1e-12) for risk in self.group_risks(groups)]


class ExactVerdictSkyline(SkylineBTPrivacy):
    def __init__(self, skyline, **bt_options):
        super().__init__(skyline, **bt_options)
        self.points = [ExactVerdictBT(b, t, **bt_options) for b, t in skyline]


def signature(node):
    """Everything a recorded tree holds, as comparable nested tuples."""
    if node.is_leaf:
        return ("leaf", node.indices.tolist(), node.depth, node.searched_size)
    split = node.split
    return ("node", split.attribute, split.threshold, split.inclusive, node.depth,
            signature(node.left), signature(node.right))


CASES = {
    "bt-0.3-0.25": lambda bt: bt(0.3, 0.25),
    "bt-0.2-0.1": lambda bt: bt(0.2, 0.1),
    "bt-0.5-0.4": lambda bt: bt(0.5, 0.4),
    "bt-0.3-0.02": lambda bt: bt(0.3, 0.02),
    "smoothing-0.9": lambda bt: bt(0.3, 0.25, smoothing_bandwidth=0.9),
}


def _trees(table, screened, exact):
    trees = []
    for model in (screened, exact):
        mondrian = MondrianAnonymizer(CompositeModel([KAnonymity(2), model]))
        tree = mondrian.partition_tree(table)
        trees.append((signature(tree), mondrian.statistics))
    assert trees[0] == trees[1]
    assert trees[0][1].n_groups > 1
    return list(tree.leaves())


def _assert_exact_memo(point, fresh, leaves):
    for leaf in leaves:
        risk = point.group_risk(leaf.indices)
        assert np.float64(risk).tobytes() == np.float64(fresh.group_risk(leaf.indices)).tobytes()
        value, exact = point._risk_cache[leaf.indices.tobytes()]
        assert exact and value == risk


@pytest.mark.parametrize("case", sorted(CASES))
def test_screened_bt_records_the_exact_verdict_tree(tiny_adult, case):
    screened = CASES[case](BTPrivacy)
    leaves = _trees(tiny_adult, screened, CASES[case](ExactVerdictBT))
    fresh = CASES[case](BTPrivacy)
    fresh.prepare(tiny_adult)
    _assert_exact_memo(screened, fresh, leaves)


def test_screened_skyline_records_the_exact_verdict_tree(tiny_adult):
    skyline = [(0.2, 0.3), (0.5, 0.25), (0.8, 0.2)]
    screened = SkylineBTPrivacy(skyline)
    leaves = _trees(tiny_adult, screened, ExactVerdictSkyline(skyline))
    for point, (b, t) in zip(screened.points, skyline):
        fresh = BTPrivacy(b, t)
        fresh.prepare(tiny_adult)
        _assert_exact_memo(point, fresh, leaves)


def test_screened_exact_inference_records_the_exact_verdict_tree(tiny_adult):
    # The count DP is exponential in a group's size: the first 40 rows keep
    # the whole-table check affordable.
    table = tiny_adult.select(np.arange(40))
    screened = BTPrivacy(0.3, 0.4, inference="exact")
    leaves = _trees(table, screened, ExactVerdictBT(0.3, 0.4, inference="exact"))
    fresh = BTPrivacy(0.3, 0.4, inference="exact")
    fresh.prepare(table)
    _assert_exact_memo(screened, fresh, leaves)

