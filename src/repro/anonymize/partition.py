"""Partitions, generalized groups, and the anonymized-release container.

The anonymization algorithms in this package (Mondrian generalization and
Anatomy bucketization) both produce a *partition* of the table: a list of
disjoint groups of tuple indices.  :class:`AnonymizedRelease` wraps such a
partition together with the source table and offers the two published views
discussed in Section III-A:

* the **generalized table** ``T*``, where each group's quasi-identifier values
  are replaced by a range (numeric) or a generalized label / value set
  (categorical), and
* the **bucketized** (Anatomy-style) pair of tables, where the QI table keeps
  exact values but the sensitive values of a bucket are published only as a
  multiset.

Both views carry exactly the information the adversary model of the paper
assumes: who is in each group and which multiset of sensitive values the group
holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError


@dataclass(frozen=True)
class GeneralizedValue:
    """The generalized form of one QI attribute within one group.

    For numeric attributes ``low``/``high`` give the value range; for
    categorical attributes ``label`` is the lowest common generalization (when
    a taxonomy exists) and ``values`` the exact set of member values.
    """

    attribute: str
    low: float | None = None
    high: float | None = None
    label: str | None = None
    values: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.low is not None:
            if self.low == self.high:
                return f"{self.low:g}"
            return f"[{self.low:g},{self.high:g}]"
        if self.label is not None and len(self.values) > 1:
            return self.label
        if len(self.values) == 1:
            return self.values[0]
        return "{" + ",".join(self.values) + "}"


@dataclass(frozen=True)
class GeneralizedGroup:
    """One group of the release: member indices, generalized QI, sensitive multiset."""

    indices: np.ndarray
    generalized: tuple[GeneralizedValue, ...]
    sensitive_values: tuple

    @property
    def size(self) -> int:
        """Number of tuples in the group."""
        return int(self.indices.size)

    def generalized_by_name(self) -> dict[str, GeneralizedValue]:
        """Mapping from QI attribute name to its generalized value."""
        return {value.attribute: value for value in self.generalized}


def generalize_group(table: MicrodataTable, indices: np.ndarray) -> GeneralizedGroup:
    """Compute the generalized representation of one group of ``table``."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise AnonymizationError("cannot generalize an empty group")
    generalized: list[GeneralizedValue] = []
    for name in table.quasi_identifier_names:
        attribute = table.schema[name]
        column = table.column(name)[indices]
        if attribute.is_numeric:
            generalized.append(
                GeneralizedValue(
                    attribute=name, low=float(column.min()), high=float(column.max())
                )
            )
        else:
            values = tuple(sorted({str(v) for v in column.tolist()}))
            label = None
            if attribute.taxonomy is not None:
                label = attribute.taxonomy.generalize(values)
            generalized.append(GeneralizedValue(attribute=name, label=label, values=values))
    sensitive = tuple(table.sensitive_values()[indices].tolist())
    return GeneralizedGroup(indices=indices, generalized=tuple(generalized), sensitive_values=sensitive)


class AnonymizedRelease:
    """A released anonymization of a table: a partition plus its generalized views."""

    def __init__(self, table: MicrodataTable, groups: list[np.ndarray], *, method: str = ""):
        self._table = table
        arrays = [np.asarray(group, dtype=np.int64) for group in groups]
        arrays = [indices for indices in arrays if indices.size]
        if not arrays:
            raise AnonymizationError("a release requires at least one non-empty group")
        # One buffer for every group: the release owns its indices, and each
        # group is a view of it.
        members = np.concatenate(arrays)
        if members.min() < 0 or members.max() >= table.n_rows:
            raise AnonymizationError("group index out of range")
        cover = np.bincount(members, minlength=table.n_rows)
        if cover.max() > 1:
            raise AnonymizationError("groups overlap: a tuple appears in more than one group")
        if members.size < table.n_rows:
            missing = table.n_rows - members.size
            raise AnonymizationError(f"{missing} tuples are not covered by any group")
        stops = np.cumsum([indices.size for indices in arrays])
        starts = np.append(0, stops[:-1])
        cleaned = [members[start:stop] for start, stop in zip(starts.tolist(), stops.tolist())]
        # Sort only the groups holding a descent that is not a group boundary.
        descents = np.flatnonzero(np.diff(members) < 0) + 1
        owners = np.searchsorted(starts, descents, side="right") - 1
        for group in np.unique(owners[descents != starts[owners]]):
            cleaned[group].sort()
        self._groups = cleaned
        self._method = method
        self._generalized: list[GeneralizedGroup] | None = None

    # -- basic accessors -----------------------------------------------------------
    @property
    def table(self) -> MicrodataTable:
        """The original microdata table the release was computed from."""
        return self._table

    @property
    def method(self) -> str:
        """Free-form description of the algorithm/model that produced the release."""
        return self._method

    @property
    def groups(self) -> list[np.ndarray]:
        """The partition: disjoint, covering arrays of tuple indices."""
        return self._groups

    @property
    def n_groups(self) -> int:
        """Number of groups in the release."""
        return len(self._groups)

    def group_sizes(self) -> np.ndarray:
        """Sizes of all groups."""
        return np.asarray([group.size for group in self._groups], dtype=np.int64)

    def average_group_size(self) -> float:
        """Average number of tuples per group."""
        return float(self._table.n_rows / self.n_groups)

    def group_of_tuples(self) -> np.ndarray:
        """Length-``n`` vector mapping each tuple index to its group index."""
        assignment = np.full(self._table.n_rows, -1, dtype=np.int64)
        for group_index, indices in enumerate(self._groups):
            assignment[indices] = group_index
        return assignment

    # -- published views -------------------------------------------------------------
    def generalized_groups(self) -> list[GeneralizedGroup]:
        """Generalized representation of every group (computed lazily, cached)."""
        if self._generalized is None:
            self._generalized = [generalize_group(self._table, g) for g in self._groups]
        return self._generalized

    def generalized_rows(self) -> list[dict[str, str]]:
        """The generalized table ``T*`` as one dictionary per tuple (QI generalized)."""
        rows: list[dict[str, str]] = [dict() for _ in range(self._table.n_rows)]
        sensitive_name = self._table.sensitive_name
        for group in self.generalized_groups():
            rendered = {value.attribute: str(value) for value in group.generalized}
            for position, tuple_index in enumerate(group.indices):
                row = dict(rendered)
                row[sensitive_name] = str(group.sensitive_values[position])
                rows[int(tuple_index)] = row
        return rows

    def bucketized_tables(self) -> tuple[list[dict[str, object]], list[dict[str, object]]]:
        """The Anatomy-style (QIT, ST) pair of tables.

        The quasi-identifier table keeps exact QI values plus a ``GroupID``;
        the sensitive table lists, per group, each sensitive value and its
        count within the bucket.
        """
        qit: list[dict[str, object]] = []
        st: list[dict[str, object]] = []
        for group_index, indices in enumerate(self._groups):
            for tuple_index in indices:
                row = {
                    name: self._table.column(name)[tuple_index]
                    for name in self._table.quasi_identifier_names
                }
                row["GroupID"] = group_index
                qit.append(row)
            values, counts = np.unique(
                self._table.sensitive_values()[indices], return_counts=True
            )
            for value, count in zip(values.tolist(), counts.tolist()):
                st.append(
                    {"GroupID": group_index, self._table.sensitive_name: value, "Count": int(count)}
                )
        return qit, st
