"""Seeded differential test of the risk kernel on priors kept per QI combination.

A :class:`PriorBeliefs` built from distinct ``rows`` and an ``index`` maps
whole classes of table rows (twins, 1 to 50 rows each) to one prior row.
``member_risks`` then tiles one representative per (group, prior row) pair
and copies its risk to the twins.  The reference is
``test_risk_kernel.py``'s flat Omega formula over the expanded matrix
``rows[index]``; the risks must match it bitwise wherever that suite is
bitwise (and for KL, added here), for every tiling, screened and
unscreened.  Both degenerate Omega arms are planted on whole twin classes;
the groups include overlapping candidate groups and all-distinct groups,
and exact inference is checked against its per-group DP.
"""

import numpy as np
import pytest

import repro.inference.omega as omega
from repro.inference.exact import exact_posterior, group_sensitive_counts
from repro.knowledge.prior import PriorBeliefs
from repro.obs.tracing import Tracer
from repro.privacy.disclosure import member_risks, tuple_disclosure_risks
from repro.privacy.measures import JSDivergence, KLDivergence

from test_risk_kernel import MEASURES, M, TILES, _assert_matches, _layout, flat_omega_posterior

# KL has no vectorised form: its row loop (and exact screen) is checked too.
MEASURES = {**MEASURES, "kl": (KLDivergence(), KLDivergence().rowwise, True)}
THRESHOLDS = (0.0, 0.05, 0.2, 0.5)


def _twin_problem(rng):
    """Distinct prior rows, twin classes of 1-50 rows, and groups over them."""
    n_classes = int(rng.integers(3, 16))
    rows = rng.random((n_classes, M)) ** 2
    rows[rng.random((n_classes, M)) < 0.4] = 0.0
    rows[rows.sum(axis=1) <= 0.0, 0] = 1.0
    class_sizes = rng.integers(1, 51, n_classes)
    index = rng.permutation(np.repeat(np.arange(n_classes), class_sizes))
    n = index.size
    codes = rng.integers(0, M, n)
    order = rng.permutation(n)
    groups, position = [], 0
    while position < n:
        size = 1 if rng.random() < 0.1 else int(rng.integers(2, 40))
        groups.append(np.sort(order[position : position + size]))
        position += size
    # Plant the degenerate arms on whole twin classes: a value only one
    # class's rows hold, which no prior allows (zero column), and a class
    # whose prior rules out every value its rows hold (excluded row).
    dead, excluded = rng.choice(n_classes, 2, replace=False)
    zero_value = int(rng.integers(0, M))
    rows[:, zero_value] = 0.0
    codes[index == dead] = zero_value
    rows[rows.sum(axis=1) <= 0.0, (zero_value + 1) % M] = 1.0
    held = np.unique(codes[index == excluded])
    if held.size < M:
        rows[excluded, held] = 0.0
        if rows[excluded].sum() <= 0.0:
            rows[excluded, np.setdiff1d(np.arange(M), held)[0]] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    # All-distinct groups: one row of each of several classes.
    firsts = np.array([np.flatnonzero(index == c)[0] for c in range(n_classes)])
    groups.append(rng.permutation(firsts)[: max(1, n_classes // 2)])
    # Overlapping candidate groups: halves of groups already laid out.
    groups += [group[: max(1, group.size // 2)] for group in groups[:2]]
    return PriorBeliefs(rows=rows, index=index), codes, groups


def _reference(priors, codes, members, offsets, reference):
    matrix = priors.rows[priors.index]
    sizes = np.diff(np.append(offsets, members.size))
    prior_rows = matrix[members]
    posterior = flat_omega_posterior(prior_rows, codes[members], offsets, sizes)
    return reference(prior_rows, posterior)


def _kernel_span(call):
    tracer = Tracer()
    with tracer.activate(), tracer.timed("check"):
        result = call()
    (span,) = [s for s in tracer.take_root().walk() if s.name == "privacy.risks"]
    return result, span


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_twin_risks_match_the_flat_formula_for_every_tiling(name, monkeypatch):
    measure, reference, bitwise = MEASURES[name]
    rng = np.random.default_rng([2009, 27, len(name)])
    for _ in range(8):
        priors, codes, groups = _twin_problem(rng)
        members, offsets = _layout(groups)
        expected = _reference(priors, codes, members, offsets, reference)
        for tile in TILES:
            monkeypatch.setattr(omega, "TILE_ROWS", tile)
            actual, span = _kernel_span(
                lambda: member_risks(priors, codes, members, offsets, measure)
            )
            _assert_matches(actual, expected, bitwise)
            # Twins are tiled once per group; every member row is exact.
            assert span.attributes["pairs"] < members.size
            assert span.attributes["tiles"] == -(-span.attributes["pairs"] // tile)
            assert span.attributes["exact_rows"] == members.size
            # The per-row matrix (identity index) tiles every member, same bits.
            per_row = member_risks(priors.matrix, codes, members, offsets, measure)
            assert per_row.tobytes() == actual.tobytes()


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_screened_twin_risks_keep_their_verdicts_and_exact_values(name, monkeypatch):
    measure, _, _ = MEASURES[name]
    rng = np.random.default_rng([2009, 28, len(name)])
    for _ in range(6):
        priors, codes, groups = _twin_problem(rng)
        members, offsets = _layout(groups)
        per_row = PriorBeliefs(matrix=priors.matrix)
        for tile in TILES:
            monkeypatch.setattr(omega, "TILE_ROWS", tile)
            exact = member_risks(priors, codes, members, offsets, measure)
            for t in THRESHOLDS:
                screened, span = _kernel_span(
                    lambda: member_risks(priors, codes, members, offsets, measure, screen=t)
                )
                # The same screen over one row per tuple gives the same bits.
                rows_screened = member_risks(per_row, codes, members, offsets, measure, screen=t)
                assert screened.tobytes() == rows_screened.tobytes()
                hot = screened > t
                assert screened[hot].tobytes() == exact[hot].tobytes()
                assert (exact[~hot] <= t + 1e-12).all()
                screened_max = np.maximum.reduceat(screened, offsets)
                exact_max = np.maximum.reduceat(exact, offsets)
                np.testing.assert_array_equal(
                    screened_max <= t + 1e-12, exact_max <= t + 1e-12
                )
                tiled = members.size - span.attributes["screened_rows"]
                assert span.attributes["pairs"] <= tiled
                assert span.attributes["tiles"] == -(-span.attributes["pairs"] // tile)
                assert 0 <= span.attributes["exact_rows"] <= tiled


def test_planted_arms_fire_on_whole_twin_classes():
    rng = np.random.default_rng([2009, 27, 2])
    zero_columns = excluded_rows = 0
    for _ in range(8):
        priors, codes, groups = _twin_problem(rng)
        matrix = priors.matrix
        for group in groups:
            present = np.unique(codes[group])
            zero_columns += int((matrix[group][:, present].sum(axis=0) <= 0.0).any())
            excluded_rows += int((matrix[group][:, present].sum(axis=1) <= 0.0).any())
    assert zero_columns and excluded_rows


@pytest.mark.parametrize("tile", [1, 3, omega.TILE_ROWS])
def test_exact_inference_on_twins_keeps_its_per_group_program(tile, monkeypatch):
    monkeypatch.setattr(omega, "TILE_ROWS", tile)
    measure = JSDivergence()
    rng = np.random.default_rng(27)
    rows = rng.random((4, M))
    rows /= rows.sum(axis=1, keepdims=True)
    index = rng.integers(0, 4, 30)
    priors = PriorBeliefs(rows=rows, index=index)
    codes = rng.integers(0, M, 30)
    groups = [np.arange(0, 4), np.arange(4, 5), np.arange(5, 11), np.arange(20, 27)]
    matrix = priors.matrix
    posterior = matrix.copy()
    for group in groups:
        posterior[group] = exact_posterior(matrix[group], group_sensitive_counts(codes[group], M))
    expected = measure.rowwise(matrix, posterior)
    actual = tuple_disclosure_risks(priors, codes, groups, measure, method="exact")
    assert actual.tobytes() == expected.tobytes()
