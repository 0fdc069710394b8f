"""Tests for partitions, generalized groups and the release container."""

import numpy as np
import pytest

from repro.anonymize.partition import AnonymizedRelease, GeneralizedValue, generalize_group
from repro.data.examples import table_i_groups
from repro.exceptions import AnonymizationError


@pytest.fixture()
def release(patients):
    return AnonymizedRelease(patients, table_i_groups(), method="paper-table-1b")


def test_generalize_group_matches_table_ib(patients):
    """The first group of Table I(b) generalizes to Age [45,69], Sex *."""
    group = generalize_group(patients, np.array([0, 1, 2]))
    by_name = group.generalized_by_name()
    assert by_name["Age"].low == 45.0
    assert by_name["Age"].high == 69.0
    assert str(by_name["Age"]) == "[45,69]"
    assert set(by_name["Sex"].values) == {"M", "F"}
    assert sorted(group.sensitive_values) == ["Cancer", "Emphysema", "Flu"]


def test_generalize_group_single_valued_categorical(patients):
    group = generalize_group(patients, np.array([3, 4, 5]))
    by_name = group.generalized_by_name()
    assert str(by_name["Sex"]) == "F"
    assert by_name["Age"].low == 42.0 and by_name["Age"].high == 47.0


def test_generalize_empty_group_rejected(patients):
    with pytest.raises(AnonymizationError):
        generalize_group(patients, np.array([], dtype=int))


def test_generalized_value_rendering():
    assert str(GeneralizedValue("Age", low=30.0, high=30.0)) == "30"
    assert str(GeneralizedValue("Age", low=30.0, high=40.0)) == "[30,40]"
    assert str(GeneralizedValue("Sex", values=("M",))) == "M"
    assert str(GeneralizedValue("Sex", values=("F", "M"))) == "{F,M}"
    assert str(GeneralizedValue("Work", label="Government", values=("Federal", "State"))) == "Government"


def test_release_basic_accessors(patients, release):
    assert release.table is patients
    assert release.n_groups == 3
    assert release.method == "paper-table-1b"
    assert release.group_sizes().tolist() == [3, 3, 3]
    assert release.average_group_size() == pytest.approx(3.0)


def test_release_group_of_tuples(release):
    assignment = release.group_of_tuples()
    assert assignment.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_release_rejects_overlapping_groups(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 1]), np.array([1, 2])])


def test_release_rejects_partial_cover(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 1, 2])])


def test_release_rejects_out_of_range_indices(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 99])])


def test_release_rejects_empty_partition(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [])


def test_release_sorts_unsorted_groups_and_owns_its_indices(patients):
    groups = [np.array([2, 0, 1]), np.array([], dtype=int), [3, 4, 5], np.array([8, 6, 7])]
    release = AnonymizedRelease(patients, groups)
    assert [group.tolist() for group in release.groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert all(group.dtype == np.int64 for group in release.groups)
    # The caller's arrays are neither reordered nor shared.
    assert groups[0].tolist() == [2, 0, 1] and groups[3].tolist() == [8, 6, 7]
    assert not any(np.shares_memory(group, given) for group in release.groups for given in groups[::3])


@pytest.mark.parametrize(
    "groups, message",
    [
        ([np.array([0, 1, 2, 3, 4, 5, 6, 7, -1]), np.array([8])], "group index out of range"),
        ([np.arange(8), np.array([9, 8])], "group index out of range"),
        (
            [np.array([2, 1, 0]), np.array([3, 4, 5, 6, 7, 8, 2])],
            "groups overlap: a tuple appears in more than one group",
        ),
        ([np.array([5, 0, 1]), np.array([2, 3])], "4 tuples are not covered by any group"),
        ([np.array([], dtype=int), []], "a release requires at least one non-empty group"),
    ],
)
def test_release_faults_keep_their_messages(patients, groups, message):
    with pytest.raises(AnonymizationError) as raised:
        AnonymizedRelease(patients, groups)
    assert str(raised.value) == message


def test_generalized_rows_cover_all_tuples(patients, release):
    rows = release.generalized_rows()
    assert len(rows) == patients.n_rows
    # Tuple 0 (Bob) sits in the first group of Table I(b).
    assert rows[0]["Age"] == "[45,69]"
    assert rows[0]["Disease"] in {"Emphysema", "Cancer", "Flu"}
    # Every row has all attributes.
    for row in rows:
        assert set(row) == {"Age", "Sex", "Disease"}


def test_generalized_rows_keep_sensitive_multiset(patients, release):
    rows = release.generalized_rows()
    published = sorted(row["Disease"] for row in rows)
    original = sorted(str(v) for v in patients.sensitive_values())
    assert published == original


def test_bucketized_tables(patients, release):
    qit, st = release.bucketized_tables()
    assert len(qit) == patients.n_rows
    assert {row["GroupID"] for row in qit} == {0, 1, 2}
    # The sensitive table counts per group sum to the group sizes.
    for group_id in range(3):
        total = sum(row["Count"] for row in st if row["GroupID"] == group_id)
        assert total == 3
    # QI values in the QIT are exact (bucketization does not generalize).
    assert qit[0]["Age"] == 69.0
