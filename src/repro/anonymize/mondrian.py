"""Mondrian multidimensional partitioning (LeFevre et al., paper ref [24]).

The paper computes all four anonymized tables (distinct l-diversity,
probabilistic l-diversity, t-closeness and (B,t)-privacy) with "variations of
the Mondrian multidimensional algorithm ... using the original dimension
selection and median split heuristics, and check[ing] if the specific privacy
requirement is satisfied".  This module implements exactly that scheme:

1. start from the whole table as one partition;
2. pick a split dimension (widest normalised range by default);
3. split at the median of that dimension;
4. keep the split only if **both** halves satisfy the supplied privacy model
   (the model is an arbitrary :class:`~repro.privacy.models.PrivacyModel`,
   so k-anonymity can be conjoined with any attribute-disclosure model);
5. recurse until no allowable split remains.

Categorical attributes are split on their domain code order (the common
Mondrian relaxation when full hierarchical splits are not required); numeric
attributes are split on raw values.

The search runs **frontier-synchronously**: the unresolved nodes of every
region form one frontier held as one flat row array, and a round is a fixed
set of NumPy passes over it, however many nodes it holds:

* newly created nodes get their normalised widths from one
  ``np.maximum.reduceat`` / ``np.minimum.reduceat`` over their concatenated
  rows, and their dimension order from one stable descending argsort (or the
  ``round_robin`` rotation);
* every node takes the median of only the column it is trying; nodes trying
  the same column share one gather and one ``lexsort``, and the median is
  the middle element or the mean of the two middle ones - ``np.median``'s
  arithmetic, bit for bit;
* the ``<=`` cut (``<`` when the median is the maximum), the retry of a
  degenerate cut and both halves come from segmented counts and one stable
  per-segment partition;
* all candidate halves go through one ``is_satisfied_batch`` call - for
  (B,t) models one call of the tiled risk kernel.

An accepted cut replaces its node by its two halves; a rejected one keeps
the node, which tries its next dimension in the next round.  The recorded
tree (:class:`MondrianNode` / :class:`MondrianLeaf`) is the same tree a
node-by-node search records, and :meth:`MondrianAnonymizer.partition`
returns its leaves in left-to-right order.  :mod:`repro.stream` replays the
recorded trees to route appended rows and re-split only dirty leaves.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError
from repro.obs.tracing import current_tracer
from repro.privacy.models import PrivacyModel

_STRATEGIES = ("widest", "round_robin")


def spilled_value_matrix(source, *, directory: str | None = None) -> np.ndarray:
    """Build the Mondrian value matrix in a temp-file memmap, chunk by chunk.

    The frontier recursion of :meth:`MondrianAnonymizer.partition_forest`
    touches nothing but this ``(n, d)`` matrix and the frontier's row-index
    arrays, so spilling the matrix to disk makes only the frontier's indices
    plus the pages of the actively gathered groups resident.  ``source`` is
    any :class:`~repro.data.source.TableSource`; each chunk is decoded and
    written in place, so at no point is more than one chunk's values in RAM.
    The backing file is unlinked immediately (the mapping keeps the storage
    alive), so the spill disappears with the returned array.

    Values are identical to the resident :func:`_value_matrix` build - the
    decode of a chunk's codes against the shared full-table domains yields
    exactly the observed float64s - so partitions over a spilled matrix match
    the resident recursion exactly (pass it to ``partition(...,
    values=...)``).
    """
    qi_names = list(source.schema.quasi_identifier_names)
    handle, path = tempfile.mkstemp(prefix="mondrian-values-", suffix=".bin", dir=directory)
    os.close(handle)
    values = np.memmap(
        path, dtype=np.float64, mode="w+", shape=(source.n_rows, len(qi_names))
    )
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - e.g. platforms without unlink-while-open
        pass
    cursor = 0
    for chunk in source.iter_chunks():
        stop = cursor + chunk.n_rows
        values[cursor:stop] = MondrianAnonymizer._value_matrix(chunk, qi_names)
        cursor = stop
    if cursor != source.n_rows:
        raise AnonymizationError(
            f"table source yielded {cursor} rows but declared {source.n_rows}"
        )
    return values


@dataclass
class MondrianStatistics:
    """Bookkeeping for one Mondrian run (useful for efficiency experiments)."""

    n_groups: int = 0
    n_split_attempts: int = 0
    n_rejected_splits: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class MondrianSplit:
    """One accepted cut: ``value <= threshold`` goes left (``<`` when not inclusive).

    Numeric attributes cut on raw values, categorical attributes on domain
    codes - the convention of the value matrix the search runs on - so a
    recorded split can route rows that were not part of the original run.
    """

    attribute: str
    threshold: float
    inclusive: bool = True

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of ``values`` (raw numeric or codes) routed to the left child."""
        values = np.asarray(values, dtype=np.float64)
        if self.inclusive:
            return values <= self.threshold
        return values < self.threshold


@dataclass
class MondrianLeaf:
    """A leaf of a recorded Mondrian tree: one released group.

    ``searched_size`` records how many rows the group held when the split
    search last declared it unsplittable; the streaming publisher uses it to
    amortise re-searches (a group re-enters the search once it has outgrown
    its last searched size by a configurable factor).
    """

    indices: np.ndarray
    depth: int = 0
    searched_size: int = 0

    @property
    def is_leaf(self) -> bool:
        return True

    def leaves(self) -> Iterator["MondrianLeaf"]:
        yield self


@dataclass
class MondrianNode:
    """An internal node of a recorded Mondrian tree: a split and two subtrees."""

    split: MondrianSplit
    left: "MondrianNode | MondrianLeaf | None" = None
    right: "MondrianNode | MondrianLeaf | None" = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return False

    def leaves(self) -> Iterator[MondrianLeaf]:
        """Leaves in deterministic left-to-right order (an explicit stack, any depth)."""
        stack: list[MondrianNode | MondrianLeaf] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, MondrianNode):
                stack.append(node.right)
                stack.append(node.left)
            else:
                yield node


class MondrianAnonymizer:
    """Top-down multidimensional Mondrian with a pluggable privacy requirement.

    Parameters
    ----------
    model:
        Privacy requirement every released group must satisfy.  The model is
        ``prepare``-d on the table at the start of :meth:`partition`.
    split_strategy:
        ``"widest"`` (paper / original Mondrian heuristic: split the dimension
        with the widest normalised range) or ``"round_robin"`` (rotating
        dimension choice, ablation).
    """

    def __init__(self, model: PrivacyModel, *, split_strategy: str = "widest"):
        if split_strategy not in _STRATEGIES:
            raise AnonymizationError(
                f"unknown split strategy {split_strategy!r}; choose from {_STRATEGIES}"
            )
        self.model = model
        self.split_strategy = split_strategy
        self.statistics = MondrianStatistics()

    # -- public API -------------------------------------------------------------------
    def partition(
        self,
        table: MicrodataTable,
        *,
        prepare: bool = True,
        values: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Partition ``table`` into groups satisfying the privacy model.

        Returns the list of group index arrays.  Raises
        :class:`~repro.exceptions.AnonymizationError` if even the whole table
        fails the requirement (no release is possible).

        The groups come in a **deterministic, documented order**: the
        left-to-right leaf order of the recorded split tree, i.e. for every
        accepted cut the ``value <= threshold`` half's groups precede the
        other half's.

        ``values`` optionally supplies a prebuilt value matrix - e.g. a
        :func:`spilled_value_matrix` memmap - instead of building the
        resident one from ``table``; the partition is identical either way.
        """
        root = self.partition_tree(table, prepare=prepare, values=values)
        return [leaf.indices for leaf in root.leaves()]

    def partition_tree(
        self,
        table: MicrodataTable,
        *,
        prepare: bool = True,
        values: np.ndarray | None = None,
    ) -> MondrianNode | MondrianLeaf:
        """Like :meth:`partition`, but return the recorded split tree.

        Its leaves (in :meth:`MondrianNode.leaves` order) are exactly the
        groups :meth:`partition` returns, plus the routing information
        (:class:`MondrianSplit`) the streaming publisher needs to place
        appended rows.
        """
        if prepare:
            self.model.prepare(table)
        self.statistics = MondrianStatistics()
        all_indices = np.arange(table.n_rows, dtype=np.int64)
        if not self.model.is_satisfied(all_indices):
            raise AnonymizationError(
                "the whole table does not satisfy the privacy requirement; no release is possible"
            )
        return self.partition_forest(table, [all_indices], values=values)[0]

    def partition_forest(
        self,
        table: MicrodataTable,
        regions: Sequence[np.ndarray],
        *,
        depths: Sequence[int] | None = None,
        values: np.ndarray | None = None,
    ) -> list[MondrianNode | MondrianLeaf]:
        """Recursively split several regions at once, one frontier round at a time.

        Every region is assumed to *already satisfy* the privacy model (the
        caller checks, e.g. the whole-table check of :meth:`partition_tree` or
        the merge-up walk of the streaming publisher) and to hold at least one
        row.  The frontier - every unresolved node of every region - lives in
        one flat row array, and each round is a fixed set of array passes over
        it (see the module docstring); all candidate splits of a round are
        verified through a single ``is_satisfied_batch`` call.

        ``depths`` gives the tree depth each region starts at (it offsets the
        ``round_robin`` dimension rotation and the depth statistics); it
        defaults to 0 for every region.  Statistics are *accumulated*, not
        reset, so a streaming publisher can total its incremental work.
        ``values`` optionally supplies a prebuilt (e.g. spilled) value
        matrix.
        """
        qi_names = list(table.quasi_identifier_names)
        spans = self._span_vector(table, qi_names)
        values = self._checked_values(table, qi_names, values)
        if depths is None:
            depths = [0] * len(regions)
        if len(depths) != len(regions):
            raise AnonymizationError("depths must align one-to-one with regions")
        regions = [np.asarray(region, dtype=np.int64) for region in regions]
        if any(region.size == 0 for region in regions):
            raise AnonymizationError("every region must hold at least one row")

        roots: list[MondrianNode | MondrianLeaf | None] = [None] * len(regions)
        # Frontier entry e owns rows[starts[e] : starts[e] + sizes[e]]; its
        # ``targets[e]`` is (parent node, "left"/"right") or (None, root slot).
        rows = np.concatenate(regions) if regions else np.empty(0, dtype=np.int64)
        sizes = np.array([region.size for region in regions], dtype=np.int64)
        depth = np.array(depths, dtype=np.int64).reshape(-1)
        targets: list[tuple[MondrianNode | None, str | int]] = [
            (None, slot) for slot in range(len(regions))
        ]
        order, n_candidates = self._dimension_order(values, rows, sizes, depth, spans)
        tried = np.zeros(sizes.size, dtype=np.int64)
        tracer = current_tracer()

        while sizes.size:
            self.statistics.max_depth = max(self.statistics.max_depth, int(depth.max()))
            with tracer.span(
                "mondrian.round", entries=int(sizes.size), rows=int(rows.size)
            ) as span:
                starts = _offsets(sizes)
                column, threshold, inclusive, n_left, goes_left = self._median_cuts(
                    values, rows, starts, sizes, order, n_candidates, tried
                )
                leaves = np.flatnonzero(n_left == 0)
                for entry in leaves.tolist():
                    start = int(starts[entry])
                    indices = rows[start : start + int(sizes[entry])]
                    leaf = MondrianLeaf(
                        indices=np.sort(indices),
                        depth=int(depth[entry]),
                        searched_size=int(indices.size),
                    )
                    self._attach(targets[entry], leaf, roots)
                self.statistics.n_groups += int(leaves.size)
                proposing = np.flatnonzero(n_left)
                span.annotate(proposals=int(proposing.size), rejected=0)
                if not proposing.size:
                    break

                positions = _segment_positions(starts[proposing], sizes[proposing])
                held = rows[positions]
                proposal_sizes = sizes[proposing]
                proposal_left = n_left[proposing]
                cut = _stable_cut(held, goes_left[positions], proposal_sizes, proposal_left)
                local = _offsets(proposal_sizes)
                halves = []
                for start, middle, stop in zip(
                    local.tolist(),
                    (local + proposal_left).tolist(),
                    (local + proposal_sizes).tolist(),
                ):
                    halves.append(cut[start:middle])
                    halves.append(cut[middle:stop])
                verdicts = np.asarray(self.model.is_satisfied_batch(halves), dtype=bool)
                accepted = verdicts[0::2] & verdicts[1::2]
                n_rejected = int(proposing.size - accepted.sum())
                span.annotate(rejected=n_rejected)
                self.statistics.n_split_attempts += int(proposing.size)
                self.statistics.n_rejected_splits += n_rejected

                # The next frontier, in proposal order: an accepted entry
                # becomes its two halves, a rejected one stays (rows in their
                # original order) and tries its next candidate column.
                next_targets: list[tuple[MondrianNode | None, str | int]] = []
                for entry, ok in zip(proposing.tolist(), accepted.tolist()):
                    if not ok:
                        next_targets.append(targets[entry])
                        continue
                    node = MondrianNode(
                        split=MondrianSplit(
                            attribute=qi_names[column[entry]],
                            threshold=float(threshold[entry]),
                            inclusive=bool(inclusive[entry]),
                        ),
                        depth=int(depth[entry]),
                    )
                    self._attach(targets[entry], node, roots)
                    next_targets.extend(((node, "left"), (node, "right")))
                targets = next_targets
                rows = np.where(np.repeat(accepted, proposal_sizes), cut, held)
                child_sizes = np.stack(
                    [
                        np.where(accepted, proposal_left, proposal_sizes),
                        np.where(accepted, proposal_sizes - proposal_left, 0),
                    ],
                    axis=1,
                ).reshape(-1)
                kept = child_sizes > 0
                parent = np.repeat(proposing, 2)[kept]
                fresh = np.repeat(accepted, 2)[kept]
                sizes = child_sizes[kept]
                depth = depth[parent] + fresh
                tried = np.where(fresh, 0, tried[parent] + 1)
                order = order[parent]
                n_candidates = n_candidates[parent]
                if fresh.any():
                    born = np.flatnonzero(fresh)
                    born_rows = rows[_segment_positions(_offsets(sizes)[born], sizes[born])]
                    order[born], n_candidates[born] = self._dimension_order(
                        values, born_rows, sizes[born], depth[born], spans
                    )
        return roots

    # -- frontier passes ---------------------------------------------------------------
    def _dimension_order(
        self,
        values: np.ndarray,
        rows: np.ndarray,
        sizes: np.ndarray,
        depth: np.ndarray,
        spans: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate columns of new frontier entries, in try order.

        One gather of the entries' concatenated rows and one max / min
        ``reduceat`` give every entry's normalised widths; the first
        ``n_candidates[e]`` columns of ``order[e]`` are its positive-width
        dimensions, widest first (a stable sort, so ties keep column order)
        or rotated by depth for ``round_robin``.
        """
        if not sizes.size:
            return np.empty((0, spans.size), dtype=np.int64), np.empty(0, dtype=np.int64)
        sub = values[rows]
        starts = _offsets(sizes)
        widths = (
            np.maximum.reduceat(sub, starts, axis=0) - np.minimum.reduceat(sub, starts, axis=0)
        ) / spans
        positive = widths > 0.0
        n_candidates = positive.sum(axis=1)
        if self.split_strategy == "widest":
            return np.argsort(-widths, axis=1, kind="stable"), n_candidates
        candidates = np.argsort(~positive, axis=1, kind="stable")
        period = np.maximum(n_candidates, 1)[:, None]
        rotation = ((depth[:, None] % period) + np.arange(spans.size)) % period
        return np.take_along_axis(candidates, rotation, axis=1), n_candidates

    @staticmethod
    def _median_cuts(
        values: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        order: np.ndarray,
        n_candidates: np.ndarray,
        tried: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every entry's median cut on its next viable candidate column.

        Returns per-entry ``column``, ``threshold``, ``inclusive`` and
        ``n_left`` (0 when no candidate is left: the entry becomes a leaf),
        plus the per-row left-half mask.  Entries trying the same column share
        one gather and one ``lexsort``; the median is the middle element or
        the mean of the two middle ones, which is :func:`numpy.median`'s
        arithmetic.  The cut is ``value <= median``, or ``value < median``
        when that would take every row; an entry whose cut is still
        degenerate advances ``tried`` to its next candidate within the round.
        """
        n_entries = sizes.size
        column = np.zeros(n_entries, dtype=np.int64)
        threshold = np.zeros(n_entries, dtype=np.float64)
        inclusive = np.ones(n_entries, dtype=bool)
        n_left = np.zeros(n_entries, dtype=np.int64)
        goes_left = np.zeros(rows.size, dtype=bool)
        pending = np.flatnonzero(tried < n_candidates)
        while pending.size:
            column[pending] = order[pending, tried[pending]]
            for dimension in np.unique(column[pending]).tolist():
                entries = pending[column[pending] == dimension]
                entry_sizes = sizes[entries]
                positions = _segment_positions(starts[entries], entry_sizes)
                cells = values[rows[positions], dimension]
                segment = np.repeat(np.arange(entries.size), entry_sizes)
                ranked = cells[np.lexsort((cells, segment))]
                local = _offsets(entry_sizes)
                low = ranked[local + (entry_sizes - 1) // 2]
                high = ranked[local + entry_sizes // 2]
                median = np.where(entry_sizes % 2 == 1, low, (low + high) / 2.0)
                left = cells <= median[segment]
                count = np.bincount(segment[left], minlength=entries.size)
                strict = count == entry_sizes
                if strict.any():
                    # The median is the maximum: cut strictly below it instead.
                    redo = strict[segment]
                    left[redo] = cells[redo] < median[segment[redo]]
                    count = np.bincount(segment[left], minlength=entries.size)
                goes_left[positions] = left
                threshold[entries] = median
                inclusive[entries] = ~strict
                n_left[entries] = count
            degenerate = pending[(n_left[pending] == 0) | (n_left[pending] == sizes[pending])]
            n_left[degenerate] = 0
            tried[degenerate] += 1
            pending = degenerate[tried[degenerate] < n_candidates[degenerate]]
        return column, threshold, inclusive, n_left, goes_left

    # -- helpers -----------------------------------------------------------------------
    @staticmethod
    def _value_matrix(table: MicrodataTable, qi_names: list[str]) -> np.ndarray:
        """``(n, d)`` float matrix: raw values (numeric) / domain codes (categorical)."""
        columns = [
            table.column(name)
            if table.schema[name].is_numeric
            else table.codes(name).astype(np.float64)
            for name in qi_names
        ]
        return np.column_stack(columns)

    def _checked_values(
        self,
        table: MicrodataTable,
        qi_names: list[str],
        values: np.ndarray | None,
    ) -> np.ndarray:
        """The value matrix to recurse over: the caller's (shape-checked) or a fresh build."""
        if values is None:
            return self._value_matrix(table, qi_names)
        if values.shape != (table.n_rows, len(qi_names)):
            raise AnonymizationError(
                f"value matrix shape {values.shape} does not match "
                f"({table.n_rows}, {len(qi_names)})"
            )
        return values

    @staticmethod
    def _span_vector(table: MicrodataTable, qi_names: list[str]) -> np.ndarray:
        spans = np.empty(len(qi_names), dtype=np.float64)
        for position, name in enumerate(qi_names):
            domain = table.domain(name)
            if table.schema[name].is_numeric:
                spans[position] = max(domain.numeric_range, 1e-12)
            else:
                spans[position] = max(float(domain.size - 1), 1e-12)
        return spans

    @staticmethod
    def _attach(
        target: tuple[MondrianNode | None, str | int],
        node: MondrianNode | MondrianLeaf,
        roots: list[MondrianNode | MondrianLeaf | None],
    ) -> None:
        parent, side = target
        if parent is None:
            roots[side] = node
        else:
            setattr(parent, side, node)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of ``sizes`` lie back to back."""
    offsets = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return offsets


def _stable_cut(
    rows: np.ndarray, goes_left: np.ndarray, sizes: np.ndarray, n_left: np.ndarray
) -> np.ndarray:
    """Every segment's rows reordered into its left half, then its right half.

    Both halves keep the rows' original order (a stable per-segment
    partition, from one running count of left rows).
    """
    local = _offsets(sizes)
    segment = np.repeat(np.arange(sizes.size), sizes)
    lefts_before = np.cumsum(goes_left) - goes_left
    left_rank = lefts_before - lefts_before[local][segment]
    right_rank = np.arange(rows.size) - local[segment] - left_rank
    destination = local[segment] + np.where(
        goes_left, left_rank, n_left[segment] + right_rank
    )
    cut = np.empty_like(rows)
    cut[destination] = rows
    return cut


def _segment_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``start .. start + size - 1`` of every segment, concatenated."""
    return np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(
        starts - _offsets(sizes), sizes
    )
