"""The Omega-estimate: linear-time approximate posterior inference (Section III-D).

The Omega-estimate generalises Lakshmanan et al.'s O-estimate.  It treats the
group as a bipartite graph between tuples and sensitive values and estimates
the probability that tuple ``t_j`` takes value ``s_i`` as

.. math::

    \\Omega(s_i | t_j) \\propto n_i \\cdot
        \\frac{P(s_i | t_j)}{\\sum_{j'} P(s_i | t_{j'})}

normalised over the sensitive values for each tuple (Equation 5).  It is exact
under the random-world assumption and, as the paper's Table III example shows,
only approximate in general; the Figure 2 experiment measures its accuracy.

Unlike exact inference its cost is ``O(k * m)`` per group, which is what makes
the (B,t)-privacy check affordable inside Mondrian.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InferenceError
from repro.inference.exact import _validate_group, exact_posterior


def omega_posterior(prior: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Omega-estimate posterior beliefs for one group.

    Parameters
    ----------
    prior:
        ``(k, m)`` matrix of prior beliefs ``P(s_i | t_j)``.
    counts:
        Length-``m`` multiset counts ``n_i`` of the sensitive values in the
        group (summing to ``k``).

    Returns
    -------
    numpy.ndarray
        ``(k, m)`` row-stochastic posterior matrix.  Values absent from the
        group receive probability 0.

    Notes
    -----
    Two degenerate situations are handled conservatively:

    * if every tuple's prior gives probability 0 to a value that *is* present
      in the group, the ``0/0`` share is replaced by a uniform ``1/k`` share
      (somebody must hold the value);
    * if a tuple's prior excludes every value present in the group, its
      posterior falls back to the group's empirical distribution ``n_i / k``.
    """
    prior, counts = _validate_group(prior, counts)
    k, m = prior.shape
    column_sums = prior.sum(axis=0)
    present = counts > 0

    shares = np.zeros((k, m), dtype=np.float64)
    positive_columns = present & (column_sums > 0.0)
    if positive_columns.any():
        shares[:, positive_columns] = prior[:, positive_columns] / column_sums[positive_columns]
    zero_columns = present & (column_sums <= 0.0)
    if zero_columns.any():
        shares[:, zero_columns] = 1.0 / k

    unnormalised = shares * counts[None, :].astype(np.float64)
    row_sums = unnormalised.sum(axis=1)
    posterior = np.zeros_like(unnormalised)
    good = row_sums > 0.0
    posterior[good] = unnormalised[good] / row_sums[good, None]
    if not good.all():
        empirical = counts.astype(np.float64) / counts.sum()
        posterior[~good] = empirical
    return posterior


#: Member rows per tile of :func:`posterior_tiles`: every tile's temporaries
#: stay a few hundred kilobytes, whatever the number of rows.
TILE_ROWS = 4096


def layout_groups(groups: list[np.ndarray], n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay a partition's non-empty groups back to back: ``(members, offsets)``.

    Raises :class:`~repro.exceptions.InferenceError` when a group index is
    out of range or a tuple appears in more than one group.
    """
    populated = [np.asarray(group, dtype=np.int64) for group in groups]
    populated = [indices for indices in populated if indices.size]
    if not populated:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    members = np.concatenate(populated)
    if members.min() < 0 or members.max() >= n_rows:
        raise InferenceError("group index out of range")
    seen = np.zeros(n_rows, dtype=bool)
    seen[members] = True
    if int(seen.sum()) != members.size:
        raise InferenceError("groups overlap: a tuple appears in more than one group")
    offsets = np.cumsum([0] + [indices.size for indices in populated[:-1]], dtype=np.int64)
    return members, offsets


class GroupPass:
    """Every group's sensitive counts and prior column sums, taken in one pass.

    Built by :func:`group_pass`: ``rows`` holds the prior rows the members
    draw on, ``row_of`` / ``group_of`` each member's row in it and its group
    (groups back to back), ``sizes`` each group's member count and
    ``counts`` its ``(groups, m)`` sensitive counts.  For the
    Omega-estimate ``column_sums`` holds each
    group's prior column sums (a sequential ``np.add.reduceat`` over the
    members' rows, so a group's sums never depend on the groups around it);
    for exact inference it is ``None`` and ``member_rows`` holds the
    gathered member rows the count DP runs on.
    """

    def __init__(self, rows, row_of, group_of, sizes, counts, column_sums, member_rows=None):
        self.rows = rows
        self.row_of = row_of
        self.group_of = group_of
        self.sizes = sizes
        self.counts = counts
        self.column_sums = column_sums
        self.member_rows = member_rows
        self.offsets = np.cumsum(sizes) - sizes

    def weight_spread(self) -> np.ndarray:
        """Each group's Omega weight spread ``max_i w_i / min_i w_i``.

        ``w_i = n_i / C_i`` over the values the group holds (``C_i`` the
        column sum).  When the values some member's prior allows are exactly
        the values the group holds, every member's Omega posterior is ``q =
        p * w / (p . w)``, so its ratios ``q_i / p_i`` lie within a factor
        ``spread`` of each other.  A group with an absent value some prior
        allows, or a held value no prior allows, gets ``inf``.  Assumes
        nonnegative priors.
        """
        present = self.counts > 0.0
        live = self.column_sums > 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weights = self.counts / np.where(live, self.column_sums, 1.0)
            spread = weights.max(axis=1) / np.where(present, weights, np.inf).min(axis=1)
        return np.where((present == live).all(axis=1), spread, np.inf)

    def pairs(self, kept: np.ndarray | None = None):
        """One representative per distinct (group, prior row) pair: ``(group, row, pair_of)``.

        Members of one group that share a prior row (twins) share its Omega
        posterior, so one of them stands for all.  ``kept`` marks the member
        rows to cover (default: all); ``pair_of`` maps each of them, in
        member order, to its representative.  Representatives ascend by
        group, then by prior row.
        """
        group, row = self.group_of, self.row_of
        if kept is not None:
            group, row = group[kept], row[kept]
        n_rows = self.rows.shape[0]
        keys, pair_of = np.unique(group * n_rows + row, return_inverse=True)
        return keys // n_rows, keys % n_rows, pair_of

    def tiles(self, group=None, row=None):
        """``(start, stop, prior_rows, posterior_rows)`` tiles; see :func:`posterior_tiles`.

        The tiled rows are every member by default, or the rows given by
        their ``group`` and prior ``row`` (Omega only: exact inference tiles
        every member).  Each tile gathers its prior rows from ``rows``: the
        pass drops its full member gather once the column sums are taken,
        so the risk kernel, which tiles representatives, never holds an
        ``(members, m)`` copy while it tiles.
        """
        sizes, counts = self.sizes, self.counts
        if self.column_sums is None:
            if group is not None:
                raise InferenceError("exact inference tiles every member")
            prior_rows = self.member_rows
            posterior = np.empty_like(prior_rows)
            for start, size, group_counts in zip(self.offsets, sizes, counts.astype(np.int64)):
                stop = start + size
                posterior[start:stop] = exact_posterior(prior_rows[start:stop], group_counts)
            for start in range(0, prior_rows.shape[0], TILE_ROWS):
                stop = min(start + TILE_ROWS, prior_rows.shape[0])
                yield start, stop, prior_rows[start:stop], posterior[start:stop]
            return

        if group is None:
            group, row = self.group_of, self.row_of
        column_sums = self.column_sums
        zero_columns = (counts > 0.0) & (column_sums <= 0.0)
        any_zero_column = bool(zero_columns.any())
        safe_sums = np.where(column_sums > 0.0, column_sums, 1.0)
        # ``sizes`` are the true member counts, whichever rows are tiled.
        float_sizes = sizes.astype(np.float64)
        uniform = 1.0 / float_sizes
        for start in range(0, group.shape[0], TILE_ROWS):
            stop = min(start + TILE_ROWS, group.shape[0])
            rows = np.take(self.rows, row[start:stop], axis=0)
            tile_group = group[start:stop]
            # One buffer, in place.  Shares need no mask with nonnegative priors:
            # an absent value meets ``* 0`` below, and a zero column is all-zero
            # rows divided by 1, overwritten by the uniform fallback.
            posterior = rows / np.take(safe_sums, tile_group, axis=0)
            if any_zero_column:
                # Nobody's prior allows a present value: each member takes 1/k of it.
                np.copyto(posterior, uniform[tile_group][:, None], where=zero_columns[tile_group])
            posterior *= np.take(counts, tile_group, axis=0)
            row_sums = posterior.sum(axis=1)
            good = row_sums > 0.0
            posterior /= np.where(good, row_sums, 1.0)[:, None]
            if not good.all():
                # The prior excludes every present value: fall back to n_i / k.
                bad = ~good
                posterior[bad] = counts[tile_group[bad]] / float_sizes[tile_group[bad], None]
            yield start, stop, rows, posterior


def group_pass(
    prior_matrix: np.ndarray,
    sensitive_codes: np.ndarray,
    members: np.ndarray,
    offsets: np.ndarray,
    *,
    method: str = "omega",
    index: np.ndarray | None = None,
) -> GroupPass:
    """The group pass of :func:`posterior_tiles` (same parameters), validated.

    With ``index``, ``prior_matrix`` holds distinct prior rows and table row
    ``j``'s prior is ``prior_matrix[index[j]]``; without, it has one row per
    table row.
    """
    prior_matrix = np.asarray(prior_matrix, dtype=np.float64)
    sensitive_codes = np.asarray(sensitive_codes, dtype=np.int64)
    members = np.asarray(members, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if prior_matrix.ndim == 2:
        n_table = prior_matrix.shape[0] if index is None else np.shape(index)[0]
    if prior_matrix.ndim != 2 or n_table != sensitive_codes.shape[0]:
        raise InferenceError("prior matrix and sensitive codes must cover the same tuples")
    if method not in {"omega", "exact"}:
        raise InferenceError(f"unknown inference method {method!r}; use 'omega' or 'exact'")
    n_rows = members.size
    m = prior_matrix.shape[1]
    if offsets.size == 0:
        if n_rows:
            raise InferenceError("group offsets must be strictly increasing and start at 0")
        empty = np.empty((0, m), dtype=np.float64)
        nothing = np.empty(0, dtype=np.int64)
        return GroupPass(prior_matrix, nothing, nothing, nothing, empty, empty)
    if offsets[0] != 0 or np.any(np.diff(offsets) <= 0) or offsets[-1] >= n_rows:
        raise InferenceError("group offsets must be strictly increasing and start at 0")
    code_rows = sensitive_codes[members]
    if code_rows.min() < 0 or code_rows.max() >= m:
        raise InferenceError("sensitive code out of range")
    sizes = np.diff(np.append(offsets, n_rows))
    group_of = np.repeat(np.arange(offsets.size), sizes)
    counts = np.bincount(group_of * m + code_rows, minlength=offsets.size * m)
    counts = counts.reshape(offsets.size, m).astype(np.float64)
    row_of = members if index is None else np.take(index, members)
    # np.take: the same gather as fancy indexing, a good deal faster.
    member_rows = np.take(prior_matrix, row_of, axis=0)
    if method == "exact":
        return GroupPass(prior_matrix, row_of, group_of, sizes, counts, None, member_rows)
    column_sums = np.add.reduceat(member_rows, offsets, axis=0)
    return GroupPass(prior_matrix, row_of, group_of, sizes, counts, column_sums)


def posterior_tiles(
    prior_matrix: np.ndarray,
    sensitive_codes: np.ndarray,
    members: np.ndarray,
    offsets: np.ndarray,
    *,
    method: str = "omega",
):
    """Posterior rows of groups laid out back to back, one row tile at a time.

    Parameters
    ----------
    prior_matrix:
        ``(n, m)`` prior beliefs of the whole table.
    sensitive_codes:
        Length-``n`` sensitive codes of the whole table.
    members:
        Table rows of every group, groups back to back (a row may appear in
        several groups: Mondrian checks alternative candidate splits).
    offsets:
        Start of each group within ``members`` (strictly increasing, starting
        at 0); the last group runs to the end.
    method:
        ``"omega"`` or ``"exact"``.

    Yields ``(start, stop, prior_rows, posterior_rows)`` for consecutive
    tiles of at most :data:`TILE_ROWS` member rows.  One group pass
    (:func:`group_pass`) first takes every group's sensitive counts and
    prior column sums; each tile then forms its rows' Omega posteriors
    (Equation 5, with :func:`omega_posterior`'s two degenerate fallbacks), so
    a group may span tiles and every row's posterior is bitwise the same
    whatever the tiling - or whichever other rows share the tile, which is
    what lets a caller tile only some groups' rows, or one row per
    (group, prior row) pair (:meth:`GroupPass.pairs`).  ``method="exact"``
    runs the count DP per group and yields the result in the same tiles.
    """
    yield from group_pass(
        prior_matrix, sensitive_codes, members, offsets, method=method
    ).tiles()


def grouped_posterior(
    prior_rows: np.ndarray,
    code_rows: np.ndarray,
    offsets: np.ndarray,
    *,
    method: str = "omega",
) -> np.ndarray:
    """Posterior rows for a batch of groups whose member rows are already gathered.

    ``prior_rows`` / ``code_rows`` hold the members of every group back to
    back (group ``g`` starts at ``offsets[g]``); the result has the same
    layout.  Groups may overlap in the table they came from - each laid-out
    group is inferred independently.  Runs :func:`posterior_tiles` over the
    rows.
    """
    prior_rows = np.asarray(prior_rows, dtype=np.float64)
    code_rows = np.asarray(code_rows, dtype=np.int64)
    if prior_rows.ndim != 2 or prior_rows.shape[0] != code_rows.shape[0]:
        raise InferenceError("prior rows and sensitive codes must cover the same tuples")
    posterior = np.empty_like(prior_rows)
    members = np.arange(prior_rows.shape[0], dtype=np.int64)
    for start, stop, _, tile in posterior_tiles(
        prior_rows, code_rows, members, offsets, method=method
    ):
        posterior[start:stop] = tile
    return posterior


def posterior_for_groups(
    prior_matrix: np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    *,
    method: str = "omega",
) -> np.ndarray:
    """Posterior beliefs for every tuple of a partitioned table.

    Parameters
    ----------
    prior_matrix:
        ``(n, m)`` prior beliefs for the whole table (one row per tuple).
    sensitive_codes:
        Length-``n`` integer codes of the sensitive values.
    groups:
        List of integer index arrays, one per anonymized group; together they
        must cover each tuple at most once.
    method:
        ``"omega"`` (default) for the linear-time estimate or ``"exact"`` for
        the count-DP exact inference.

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` posterior matrix.  Tuples not covered by any group keep
        their prior belief (releasing nothing about them).

    Notes
    -----
    The groups go through :func:`posterior_tiles`: one vectorised group pass,
    then fixed row tiles, rather than a per-group Python loop; with
    ``method="exact"`` the count DP still runs per group.
    """
    prior_matrix = np.asarray(prior_matrix, dtype=np.float64)
    members, offsets = layout_groups(groups, prior_matrix.shape[0])
    posterior = prior_matrix.copy()
    for start, stop, _, tile in posterior_tiles(
        prior_matrix, sensitive_codes, members, offsets, method=method
    ):
        posterior[members[start:stop]] = tile
    return posterior
