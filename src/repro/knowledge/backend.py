"""The factored count-tensor contraction backend behind every kernel-prior path.

Estimating the adversary's prior belief function (Section II-B) is the hot
path of every stage of the pipeline - publishing, skyline auditing and
streaming republication all reduce to Nadaraya-Watson sums

.. math::

    \\hat P_{pri}(q) \\propto \\sum_{t_j \\in T} \\prod_i K_i(d_i(q_i, t_j[A_i]))
                             \\, P(t_j)

over the whole table.  Evaluated naively this is an ``O(n^2 d)`` sweep *per
bandwidth*.  This module holds the one shared backend that the estimator
(:class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`) delegates to,
configured by one :class:`EstimatorConfig`:

**Factored storage.**  The *solo* attribute (the largest single domain) is
split off from the *rest* of the quasi-identifiers.  The observed rest
combinations are deduplicated into *slots* and the table collapses into a
count tensor ``M[a, r, s]`` = number of tuples with solo code ``a``, rest
slot ``r`` and sensitive value ``s``.  All of this is bandwidth-independent
and shared across every estimation.  The tensor scales with the data
(``solo domain x rest combinations x m``), so it has an absolute memory
guard, :data:`MAX_COUNT_CELLS`: a table whose solo layout would exceed it
takes the *no-solo* layout instead, where every quasi-identifier is a rest
attribute and the solo is one constant code with kernel weight ``[[1.0]]``
(the tensor then holds at most ``n x m`` cells).  A table over the guard
even without the solo split is refused with a :class:`KnowledgeError`.

**Per-bandwidth contraction.**  A bandwidth only contributes tiny
per-attribute kernel matrices.  The numerator of every deduplicated query
``(a_q, r_q)`` is the two-step contraction ``N = J[r_q, :] @ (W_solo @ M)``
where ``J`` is the joint kernel weight between rest combinations - exactly
the flat Nadaraya-Watson sum, reassociated.  For the compact-support kernels
(``epanechnikov``, ``uniform``, ``triangular``, ``biweight`` - every kernel
the paper uses) ``J`` is almost entirely exact zeros, so the backend never
builds it: each block joint is held as its *support*, per-combination
neighbour lists with their kernel-product weights, enumerated from each
attribute's closed ``d <= B`` neighbour set on its own ``|D_i|^2`` distance
matrix, never from a ``c_b x c_b`` array.  A query's *terms* are the slots
in the intersection of its blocks' supports; each term's weight multiplies
the per-block values in block order, so it is bitwise the dense chain's
entry, and each query sums its terms in ascending slot order.  Queries
are contracted in tiles whose candidate terms fit ``max_cells`` cells, and
a tile expands only its own slots' terms, so the working set never grows
with the total number of terms.  Dense matrices remain only where the
support is dense.  A block whose support
fills more than a quarter of its ``c_b x c_b`` joint holds the dense joint,
which the intersection reads as a lookup; and when no block holds a
support - the ``gaussian`` kernel, or every block dense - the contraction
runs the dense GEMM over full joint rows.

*Exactness contract.*  Where a query's support holds a single term, its
numerator is bitwise equal to the dense GEMM's (which only adds exact zeros
to that one product); on Adult that is every query at ``b <= 0.3``.
Otherwise the GEMM's FMA and K-blocking group the terms differently, so the
two paths agree to round-off only (at ``b = 0.5`` on 50k Adult rows, seed
7, 11,170 of 17,637 query numerators differ, by at most 6.2e-16 relative).
Within the support path the results are bitwise identical across ``jobs``
and between chunked and resident fits, incremental maintenance stays within
``1e-12`` of a scratch fit, and queries a delta does not reach keep
bitwise-identical numerators.

**Hierarchical multi-block contraction.**  The joint matrix has
``n_combos^2`` cells, which wide or high-cardinality schemas blow past any
budget.  Instead of abandoning the factorisation, the rest attributes are
split into *blocks* whose observed per-block combination counts ``c_b``
satisfy ``c_b^2 <= max_cells``.  Each block gets its own joint ``J_b`` (the
kernel product over just its attributes) and a query's joint row is the
Hadamard chain ``prod_b J_b[beta_b(r_q), beta_b(r)]``: the support path
intersects the per-block neighbour lists, the dense path materialises the
chain only in row tiles bounded by ``max_cells`` cells.  The chained
contraction is algebraically identical to the single-joint contraction
(products are merely re-grouped per block), so blocked priors match the
flat reference to floating-point round-off while wide schemas keep the
factored speedup.  A single attribute whose own observed combinations
exceed the budget forms a singleton block (its kernel matrix exists anyway
at ``|D_i|^2``).  The flat ``O(n^2 d)`` sweep is not part of the backend: it
survives only as the reference function
:func:`~repro.knowledge.prior.flat_kernel_prior` that tests and benchmarks
check the contraction against.

**Parallel contraction.**  The per-block joint builds and the per-solo query
tiles are embarrassingly parallel, and NumPy releases the GIL inside its
BLAS, gather and reduction kernels, so both dispatch over the shared thread
pool of :mod:`repro.knowledge.parallel`, sized by ``EstimatorConfig.jobs``
(default ``os.cpu_count()``, overridable via ``REPRO_JOBS``).  Every tile
task writes a disjoint numerator slice, and a query's arithmetic depends
only on its own terms (support path) or its own joint row (dense path), so
threaded results are *bitwise identical* to ``jobs=1`` regardless of tiling
or scheduling.

**Incremental deltas.**  Appending rows is additive in ``M``; with
``incremental=True`` the per-bandwidth artefacts (block supports or dense
joints, the solo-contracted tensor and the per-query numerators) are cached
and :meth:`FactoredPriorBackend.append_rows` folds a batch in by fully
recontracting only the queries whose kernel neighbourhood contains a
touched cell - every other query keeps a bitwise-identical numerator.  The
joint is symmetric, so on the support path the touched slots' own support
lists name the affected queries (new block combinations grow the cached
supports in place); the dense path finds them with witness matmuls.

**Full-lifecycle deltas.**  Retracting and correcting rows are just as
additive: :meth:`FactoredPriorBackend.remove_rows` subtracts the removed
rows' counts from ``M`` and :meth:`FactoredPriorBackend.update_rows` applies
the paired (negative old cell, positive new cell) deltas of an in-place
correction.  Appends, retractions and corrections are one private step:
removed rows leave, new rows arrive, the surviving rows keep their order.
The count tensor holds small integers in float64, so these subtractions are
*exact* - and instead of delta-accumulating the cached numerators (where a
numerator that should become exactly zero could survive as a cancellation
residue and poison the normalisation), every query with a positive kernel
weight towards a touched cell is **fully recontracted** from the updated
count tensor.  Untouched queries keep their cached numerators (every
changed cell contributes an exact ``0.0`` to them), so maintained priors
match a from-scratch fit of the post-batch table to floating-point
round-off.  A removal that empties a rest slot *retires* it in place: the
slot's exactly-zero counts contribute exact zeros to every contraction, so
the layout does not shift and untouched queries stay bitwise stable.  The
backend refits once retired slots accumulate past ``_MAX_RETIRED_FRACTION``
of the layout (the empty-slot refit valve, amortised so realistic delete
streams stay incremental), or when slot growth breaches the count-tensor /
block-budget guards.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.distance import attribute_distance_matrix
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import get_kernel, has_compact_support
from repro.knowledge.parallel import parse_jobs, resolve_jobs, run_tasks
from repro.obs.tracing import current_tracer

DEFAULT_MAX_CELLS = 64_000_000
# Hard memory guard on the count tensor (and the per-bandwidth contracted
# tensor of the same shape): fits whose ``solo x combos x m`` storage would
# exceed this many float64 cells (~1 GB) drop the solo split, and fits over
# it even then are refused.  Independent of ``max_cells``, so tiny
# contraction budgets still take the blocked factored path.  Read at call
# time, so tests can lower it.
MAX_COUNT_CELLS = 128_000_000
# Retired (exactly-zero) rest slots tolerated before a removal-heavy stream
# refits into a compact layout; see the module docstring.
_MAX_RETIRED_FRACTION = 0.25
_MIN_RETIRED_SLOTS = 16
# Candidate pairs enumerated per pass while building a block support or a
# slot-level term list, bounding their temporaries (~50 MB) at any density.
_SUPPORT_PASS_PAIRS = 1 << 20
# The empty row-position set of a row delta that only adds or only removes.
_NO_ROWS = np.empty(0, dtype=np.int64)
# Row keys stay below this bound, so ``key * radix + code`` never wraps int64.
_ROW_KEY_LIMIT = 1 << 62
# Codes must lie below this, so a re-ranked key (below the row count) times a
# radix stays under ``_ROW_KEY_LIMIT``.
_ROW_CODE_LIMIT = 1 << 31


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer code matrix and every row's index into them.

    Bitwise what ``np.unique(rows, axis=0, return_inverse=True)`` returns -
    the distinct rows in lexicographic order (first column most
    significant) in ``rows``' dtype, and a flat int64 inverse - without
    NumPy's sort over a structured row dtype.  The columns fold into one
    mixed-radix int64 key per row (radix: the column's largest code plus
    one) and a 1-D ``np.unique`` sorts the keys; codes are non-negative, so
    key order is row order.  Before a fold could pass ``2**62`` the key so
    far is re-ranked densely, which keeps its order, so wide schemas take
    the same path.  Codes must lie in ``[0, 2**31)`` (``ValueError``
    otherwise).
    """
    rows = np.asarray(rows)
    n_rows = rows.shape[0]
    if rows.size and (rows.min() < 0 or rows.max() >= _ROW_CODE_LIMIT):
        raise ValueError(f"row codes must lie in [0, {_ROW_CODE_LIMIT})")
    key = np.zeros(n_rows, dtype=np.int64)
    bound = 1  # every key is below ``bound``
    for column in rows.T:
        radix = int(column.max()) + 1 if n_rows else 1
        if bound * radix > _ROW_KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * radix + column
        bound *= radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return rows[first], inverse.reshape(-1)


def _is_count(value: object) -> bool:
    """Whether ``value`` is an integer (booleans and integral floats are not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EstimatorConfig:
    """The one estimator configuration shared by every kernel-prior consumer.

    Sessions, the skyline audit engine, the incremental publisher, the
    estimator and the CLI all take prior-estimation settings as this one
    object, so there is a single definition of what a "kernel estimator" is.
    The adversary ``Adv(B)`` is fixed by ``kernel`` and the bandwidth; the
    other fields only change how the priors are computed.

    Parameters
    ----------
    kernel:
        Kernel function name (default ``"epanechnikov"``, as in the paper).
    max_cells:
        Cell budget for the *per-bandwidth contraction working set*: dense
        block joints, materialised joint-row tiles and support-term tiles
        stay below this many float64 cells.  It deliberately does **not**
        bound the factored count tensor, which scales linearly with the
        data (``solo domain x observed rest combinations x m``) - shrinking
        the budget makes the blocks and tiles smaller, never the storage
        (that has its own absolute guard, :data:`MAX_COUNT_CELLS`).
        A block whose support is sparse never allocates ``c_b x c_b``
        cells at all.  Must be a positive integer.
    jobs:
        Worker threads for the parallel contraction.  ``None`` (the default)
        resolves to the ``REPRO_JOBS`` environment variable when set, else
        ``os.cpu_count()``; ``1`` selects the serial reference path.  Must be
        a positive integer when given.  Threading never changes results -
        the ``jobs=1`` and ``jobs=N`` priors are bitwise identical.
    """

    kernel: str = "epanechnikov"
    max_cells: int = DEFAULT_MAX_CELLS
    jobs: int | None = None

    def __post_init__(self) -> None:
        if not _is_count(self.max_cells) or self.max_cells < 1:
            raise KnowledgeError(
                f"max_cells must be a positive integer, got {self.max_cells!r}"
            )
        if self.jobs is not None:
            parse_jobs(self.jobs)


@dataclass
class _RestBlock:
    """One block of rest attributes in the hierarchical contraction.

    ``positions`` are column indices into the rest-combination matrix (and
    ``names`` the matching attribute names); ``combos`` holds the observed
    per-block combinations in stable id order (appended combinations take
    the next ids, never reshuffling); ``code_of_slot`` maps every rest slot
    to its block combination id (allocated at the shared slot capacity).
    """

    positions: tuple[int, ...]
    names: tuple[str, ...]
    n_combos: int
    combos: np.ndarray
    code_of_slot: np.ndarray = field(repr=False)


@dataclass
class _BlockSupport:
    """The support of one block joint ``J_b``, held as compressed rows.

    Row ``i`` lists the block combinations ``j`` with ``J_b[i, j] > 0`` in
    ascending order, ``neighbours[indptr[i]:indptr[i + 1]]``, next to their
    kernel-product ``weights`` - bitwise the dense joint's entries.
    """

    indptr: np.ndarray
    neighbours: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_pairs(
        cls, n_combos: int, rows: np.ndarray, columns: np.ndarray, weights: np.ndarray
    ) -> "_BlockSupport":
        order = np.argsort(rows * n_combos + columns)
        indptr = np.zeros(n_combos + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_combos), out=indptr[1:])
        return cls(indptr, columns[order], weights[order])

    @property
    def nnz(self) -> int:
        return int(self.neighbours.size)

    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.indptr.size - 1, dtype=np.int64), np.diff(self.indptr))


@dataclass
class _TermPlan:
    """How one contraction expands rest slots into their support terms.

    ``pivot`` indexes the block support whose neighbour lists are expanded
    (``support``); ``reach[r]`` is the number of candidate slots that
    expansion yields for slot ``r``, an upper bound on its terms.
    ``slot_order``/``slot_first``/``per_combo`` list the slots of each of
    the pivot's block combinations, and ``lookups`` holds every other
    block as ``(index, sorted entry keys, weights)`` for a support or
    ``(index, None, dense joint)``.
    """

    pivot: int
    support: _BlockSupport
    reach: np.ndarray
    codes: list
    slot_order: np.ndarray
    slot_first: np.ndarray
    per_combo: np.ndarray
    lookups: list


def _spliced(
    rows: np.ndarray, removed: np.ndarray, added: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """A per-row array carried across one row delta (see ``_fold_rows``).

    The entries at ``removed`` leave, the survivors keep their order, and
    ``values`` land at the ``added`` positions of the result.  Corrections
    (the same positions leave and arrive) overwrite a copy, and arrivals
    after every survivor (appends) concatenate, so neither pays more than
    one pass over the rows.
    """
    if np.array_equal(removed, added):
        spliced = rows.copy()
        spliced[added] = values
        return spliced
    kept = np.delete(rows, removed) if removed.size else rows
    if not added.size:
        return kept
    if added[0] == kept.size:
        return np.concatenate([kept, values])
    return np.insert(kept, added - np.arange(added.size), values)


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges ``starts[k] : starts[k] + counts[k]``.

    Returns ``(owner, index)``: the range ``k`` each element came from and
    the element itself, in range order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if counts.size else 0
    shift = np.asarray(starts, dtype=np.int64) - (ends - counts)
    return owner, np.arange(total, dtype=np.int64) + np.repeat(shift, counts)


class FactoredPriorBackend:
    """Shared contraction backend for kernel prior estimation.

    One backend is fitted per table and serves every bandwidth: the estimator
    of :mod:`repro.knowledge.prior` is a thin view over it.  See the
    module docstring for the factorisation, the blocking scheme and the
    incremental delta path.

    Parameters
    ----------
    config:
        The :class:`EstimatorConfig` (kernel, ``max_cells`` budget,
        contraction threads).
    incremental:
        Cache per-bandwidth contraction state so row deltas update it in
        place (costs memory per distinct bandwidth; off by default).
    """

    def __init__(
        self,
        config: EstimatorConfig | None = None,
        *,
        incremental: bool = False,
    ):
        self.config = config if config is not None else EstimatorConfig()
        self._kernel = get_kernel(self.config.kernel)
        self._jobs = resolve_jobs(self.config.jobs)
        self._compact_support = has_compact_support(self.config.kernel)
        self.incremental = bool(incremental)
        self._distance_matrices: dict[str, np.ndarray] = {}
        self._table: MicrodataTable | None = None
        self._overall: np.ndarray | None = None
        # Factored state.  Rest combinations live in *slot* order: slots
        # 0..n_combos-1 are assigned in lexicographic order at fit time and
        # appended combinations take the next free slots, so growing the
        # state never reshuffles the (large) per-combination arrays.  A
        # ``None`` solo index is the no-solo layout: one constant solo code.
        self._solo_index: int | None = None
        self._rest_indices: list[int] = []
        self._n_combos: int = 0
        self._rest_combos: np.ndarray | None = None  # (capacity, d-1), slot order
        self._slot_totals: np.ndarray | None = None  # (capacity,) rows per slot
        self._blocks: list[_RestBlock] = []
        self._count_storage: np.ndarray | None = None  # (solo, capacity, m)
        self._solo_of_row: np.ndarray | None = None
        self._slot_of_row: np.ndarray | None = None
        self._pair_keys: np.ndarray | None = None
        self._query_solo: np.ndarray | None = None
        self._query_rest: np.ndarray | None = None  # slot ids
        self._query_inverse: np.ndarray | None = None
        # Per-bandwidth contraction caches (incremental mode only), keyed by
        # Bandwidth.items(): {"bandwidth", "path" ("support" or "dense"),
        # "joints" (block supports or dense block joints),
        # "contracted_storage", "numerators"} with contracted storage at the
        # shared slot capacity.
        self._contractions: dict[tuple, dict] = {}

    # -- small helpers ----------------------------------------------------------------
    @property
    def _count_tensor(self) -> np.ndarray:
        """Active ``(solo, n_combos, m)`` view of the count storage."""
        return self._count_storage[:, : self._n_combos, :]

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Attribute names of each rest block of the hierarchical contraction."""
        return tuple(block.names for block in self._blocks)

    @property
    def n_blocks(self) -> int:
        """Number of rest blocks (0 for single-QI tables)."""
        return len(self._blocks)

    @property
    def solo(self) -> str | None:
        """The solo attribute's name (``None`` in the no-solo layout or unfitted)."""
        if self._table is None or self._solo_index is None:
            return None
        return self._table.quasi_identifier_names[self._solo_index]

    @property
    def jobs(self) -> int:
        """The resolved worker-thread count (``config.jobs`` or the auto default)."""
        return self._jobs

    @property
    def table(self) -> MicrodataTable | None:
        """The fitted table (``None`` before :meth:`fit`)."""
        return self._table

    def _require_fitted(self) -> MicrodataTable:
        if self._table is None:
            raise KnowledgeError("estimator is not fitted; call fit(table) first")
        return self._table

    def _capacity(self, n_combos: int) -> int:
        """Slot capacity: headroom so appends rarely reallocate (incremental only)."""
        if not self.incremental:
            return n_combos
        return n_combos + max(128, n_combos // 4)

    def _tile_rows(self, n_columns: int) -> int:
        """Contraction tile height bounding the materialised joint rows."""
        return max(1, self.config.max_cells // max(1, n_columns))

    def resolve_bandwidth(self, b: float | Bandwidth) -> Bandwidth:
        """Normalise ``b`` to a full bandwidth covering every fitted QI attribute."""
        table = self._require_fitted()
        if isinstance(b, Bandwidth):
            missing = [name for name in table.quasi_identifier_names if name not in b]
            if missing:
                raise KnowledgeError(
                    f"bandwidth does not cover quasi-identifier attributes {missing}"
                )
            return b
        return Bandwidth.uniform(table.quasi_identifier_names, float(b))

    def _bandwidth_weights(self, bandwidth: Bandwidth, name: str) -> np.ndarray:
        return self._kernel(self._distance_matrices[name], bandwidth[name])

    def _solo_codes(self, codes: np.ndarray) -> np.ndarray:
        """The solo column of a ``(rows, d)`` QI code matrix (zeros without a solo).

        A contiguous copy, not a view: a view would keep the whole matrix
        alive for as long as the fit holds the column.
        """
        if self._solo_index is None:
            return np.zeros(codes.shape[0], dtype=np.int64)
        return codes[:, self._solo_index].copy()

    def _solo_weights(self, bandwidth: Bandwidth) -> np.ndarray:
        """The solo attribute's kernel matrix (``[[1.0]]`` without a solo)."""
        if self._solo_index is None:
            return np.ones((1, 1), dtype=np.float64)
        return self._bandwidth_weights(bandwidth, self.solo)

    def _same_domains(self, table: MicrodataTable) -> bool:
        fitted = self._table
        if tuple(table.quasi_identifier_names) != tuple(fitted.quasi_identifier_names):
            return False
        names = list(table.quasi_identifier_names) + [table.sensitive_name]
        return all(
            np.array_equal(table.domain(name).values, fitted.domain(name).values)
            for name in names
        )

    # -- fitting ----------------------------------------------------------------------
    def fit(self, table) -> "FactoredPriorBackend":
        """Precompute every bandwidth-independent artefact for ``table``.

        ``table`` is a :class:`~repro.data.table.MicrodataTable` or any
        :class:`~repro.data.source.TableSource`.  A source is fitted
        *chunk by chunk* (at the source's own chunk size): the first
        chunk takes the ordinary fit and every further chunk folds in
        through the exact append deltas, deferring nothing to approximation
        - integer counts in float64 add exactly - and a final slot
        canonicalisation permutes the arrival-ordered rest slots into the
        lexicographic layout the one-pass fit builds, so the streamed fit
        is **bitwise identical** to fitting the fully resident table while
        only ever holding one chunk's values in RAM.
        """
        with current_tracer().span("backend.fit", rows=table.n_rows) as fit_span:
            if isinstance(table, MicrodataTable):
                self._fit(table)
            else:
                self._fit_streaming(table)
        fit_span.annotate(solo=self.solo, blocks=len(self._blocks))
        return self

    def _fit(self, table: MicrodataTable) -> None:
        qi_names = list(table.quasi_identifier_names)
        # Recomputed on every fit (|D_i|^2 cells each): a refit after a
        # stream grew a domain needs the grown matrices.
        distance_matrices = {
            name: attribute_distance_matrix(table.domain(name)) for name in qi_names
        }
        codes = table.qi_code_matrix().astype(np.int64)
        sensitive = table.sensitive_codes().astype(np.int64)
        m = table.sensitive_domain().size

        # The count tensor scales with the data, not with max_cells.  When
        # the solo layout would break the absolute guard, every QI joins
        # the rest and the solo is one constant code.
        sizes = [distance_matrices[name].shape[0] for name in qi_names]
        solo: int | None = int(np.argmax(sizes))
        rest = [i for i in range(len(qi_names)) if i != solo]
        rest_combos, slot_of_row = unique_rows(codes[:, rest])
        solo_cells = sizes[solo] * rest_combos.shape[0] * m
        if solo_cells > MAX_COUNT_CELLS:
            solo_name, solo, rest = qi_names[solo], None, list(range(len(qi_names)))
            rest_combos, slot_of_row = unique_rows(codes)
            if rest_combos.shape[0] * m > MAX_COUNT_CELLS:
                raise KnowledgeError(
                    f"the count tensor would hold {solo_cells} cells with the solo "
                    f"split on {solo_name!r} and {rest_combos.shape[0] * m} without "
                    f"it; both exceed MAX_COUNT_CELLS = {MAX_COUNT_CELLS}"
                )
        n_combos = rest_combos.shape[0]

        # Drop the previous fit's large artefacts before allocating new ones.
        self._count_storage = self._rest_combos = self._slot_totals = None
        self._solo_of_row = self._slot_of_row = None
        self._pair_keys = self._query_solo = self._query_rest = self._query_inverse = None
        self._contractions = {}
        self._distance_matrices = distance_matrices
        self._table = table
        self._overall = table.sensitive_distribution()
        self._solo_index = solo
        self._rest_indices = rest
        self._n_combos = n_combos
        capacity = self._capacity(n_combos)
        self._rest_combos = np.zeros((capacity, len(rest)), dtype=rest_combos.dtype)
        self._rest_combos[:n_combos] = rest_combos
        self._blocks = self._build_blocks(rest_combos, [qi_names[i] for i in rest], capacity)
        self._solo_of_row = self._solo_codes(codes)
        self._slot_of_row = slot_of_row

        # M[a, r, s]: tuple counts per (solo code, rest slot, sensitive value).
        solo_size = 1 if solo is None else sizes[solo]
        flat = (self._solo_of_row * n_combos + self._slot_of_row) * m + sensitive
        self._count_storage = np.zeros((solo_size, capacity, m), dtype=np.float64)
        self._count_storage[:, :n_combos, :] = (
            np.bincount(flat, minlength=solo_size * n_combos * m)
            .reshape(solo_size, n_combos, m)
            .astype(np.float64)
        )
        self._slot_totals = np.zeros(capacity, dtype=np.float64)
        self._slot_totals[:n_combos] = self._count_storage[:, :n_combos, :].sum(axis=(0, 2))
        self._rebuild_query_index()

    def _fit_streaming(self, source) -> None:
        """Fit from a chunked :class:`~repro.data.source.TableSource`.

        The first chunk takes the ordinary fit and every further chunk folds
        through :meth:`_fold_rows` against a growing codes-backed table
        (code buffers are preallocated at the source's declared row count,
        so each fold sees a copy-free view).  A fold whose growth trips a
        guard refits the partial table - into the no-solo layout when the
        count tensor outgrew the solo split - and later chunks keep
        folding.  The final :meth:`_canonicalise_slots` restores the
        lexicographic slot layout.  Only the active chunk's values are ever
        resident.
        """
        schema = source.schema
        domains = source.domains()
        buffers = {
            name: np.empty(source.n_rows, dtype=np.int32) for name in schema.names
        }
        cursor = 0
        for chunk in source.iter_chunks():
            stop = cursor + chunk.n_rows
            if stop > source.n_rows:
                raise KnowledgeError(
                    f"table source yielded more rows than its declared {source.n_rows}"
                )
            for name in schema.names:
                buffers[name][cursor:stop] = chunk.codes(name)
            grown = MicrodataTable.from_codes(
                schema, {name: buffers[name][:stop] for name in schema.names}, domains
            )
            if cursor == 0:
                self._fit(grown)
            else:
                self._fold_rows(grown, _NO_ROWS, np.arange(cursor, stop, dtype=np.int64))
            cursor = stop
        if cursor != source.n_rows:
            raise KnowledgeError(
                f"table source yielded {cursor} rows but declared {source.n_rows}"
            )
        self._canonicalise_slots()

    def _canonicalise_slots(self) -> None:
        """Permute arrival-ordered rest slots into the one-pass lexicographic layout.

        A streamed fit assigns slots in arrival order (first chunk
        lexicographic, later combinations appended); :func:`unique_rows`
        over the whole table would have sorted them.  Slot order feeds the
        contraction's summation order, so bitwise parity with the resident
        fit requires the same layout: sort the (distinct) combinations with
        :func:`unique_rows` itself, permute the count storage and per-row
        slot ids, and re-derive the blocks and query index exactly as
        :meth:`_fit` would.  All pure permutation and recomputation from
        identical integer counts - no arithmetic on the counts themselves -
        hence bitwise.
        """
        n_combos = self._n_combos
        combos = self._rest_combos[:n_combos]
        canonical, rank = unique_rows(combos)
        order = np.argsort(rank)
        capacity = self._capacity(n_combos)
        rest_combos = np.zeros((capacity, combos.shape[1]), dtype=combos.dtype)
        rest_combos[:n_combos] = canonical
        self._rest_combos = rest_combos
        storage = np.zeros(
            (self._count_storage.shape[0], capacity, self._count_storage.shape[2]),
            dtype=np.float64,
        )
        # Gather straight into the new storage: no third copy of the tensor.
        np.take(
            self._count_storage[:, :n_combos, :],
            order,
            axis=1,
            out=storage[:, :n_combos, :],
            mode="clip",
        )
        self._count_storage = storage
        totals = np.zeros(capacity, dtype=np.float64)
        totals[:n_combos] = storage[:, :n_combos, :].sum(axis=(0, 2))
        self._slot_totals = totals
        self._slot_of_row = rank[self._slot_of_row]
        qi_names = list(self._table.quasi_identifier_names)
        self._blocks = self._build_blocks(
            canonical, [qi_names[i] for i in self._rest_indices], capacity
        )
        self._contractions = {}
        self._overall = self._table.sensitive_distribution()
        self._rebuild_query_index()

    def _build_blocks(
        self, rest_combos: np.ndarray, rest_names: list[str], capacity: int
    ) -> list[_RestBlock]:
        """Block the rest attributes by observed-combination growth.

        Instead of taking attributes in schema order, each block seeds on the
        highest-cardinality unplaced attribute and greedily adds the partner
        whose *realized* joint combination count grows least (measured on the
        fitted combos via composed integer keys, so correlated attributes end
        up together and the per-block ``c_b^2`` stays small), while the
        candidate keeps ``c^2 <= max_cells``.  Positions within a block stay
        sorted in schema order, so a schema whose whole rest set fits one
        block yields exactly the single block the schema-order layout built -
        unique-count monotonicity guarantees every prefix fits too.  A lone
        attribute over budget still forms a singleton block (its kernel
        matrix exists anyway at ``|D_i|^2``), so any positive budget
        blocks.  Blocks later grow in place via
        :meth:`_grow_block`; a grown multi-attribute block breaching the
        budget triggers a refit, which re-derives the layout from the grown
        combos (the existing grow/retire guards).
        """
        budget = self.config.max_cells
        n_columns = rest_combos.shape[1]
        blocks: list[_RestBlock] = []
        column_codes: list[np.ndarray] = []
        cardinality: list[int] = []
        for column in range(n_columns):
            uniq, codes = np.unique(rest_combos[:, column], return_inverse=True)
            column_codes.append(codes.astype(np.int64))
            cardinality.append(int(uniq.shape[0]))

        def close(positions: list[int]) -> None:
            ordered = sorted(positions)
            combos, codes = unique_rows(rest_combos[:, ordered])
            code_of_slot = np.zeros(capacity, dtype=np.int64)
            code_of_slot[: rest_combos.shape[0]] = codes
            blocks.append(
                _RestBlock(
                    positions=tuple(ordered),
                    names=tuple(rest_names[p] for p in ordered),
                    n_combos=combos.shape[0],
                    combos=combos,
                    code_of_slot=code_of_slot,
                )
            )

        remaining = list(range(n_columns))
        while remaining:
            seed = max(remaining, key=lambda c: (cardinality[c], -c))
            remaining.remove(seed)
            positions = [seed]
            keys = column_codes[seed]
            n_current = cardinality[seed]
            while remaining and n_current * n_current <= budget:
                best = best_count = best_keys = None
                for candidate in remaining:
                    composed = keys * cardinality[candidate] + column_codes[candidate]
                    count = int(np.unique(composed).shape[0])
                    if best_count is None or count < best_count:
                        best, best_count, best_keys = candidate, count, composed
                if best_count * best_count > budget:
                    break
                positions.append(best)
                remaining.remove(best)
                # Re-key to compact ids so composed keys cannot overflow.
                _, keys = np.unique(best_keys, return_inverse=True)
                keys = keys.astype(np.int64)
                n_current = best_count
            close(positions)
        return blocks

    def _rebuild_query_index(self) -> None:
        """Derive the unique (solo, rest slot) query structures from the rows.

        Pair keys ascend with (solo code, slot), so the unique array is
        already grouped by solo code - exactly the layout the per-bandwidth
        contraction wants for its per-solo matmuls.  The slot multiplier is
        the current combination count; slots are stable across appends, so
        re-keying old query arrays with a newer multiplier keeps their order.
        """
        multiplier = max(1, self._n_combos)
        pair_key = self._solo_of_row * multiplier + self._slot_of_row
        self._pair_keys, self._query_inverse = np.unique(pair_key, return_inverse=True)
        self._query_inverse.flags.writeable = False  # handed out with every prior
        self._query_solo = self._pair_keys // multiplier
        self._query_rest = self._pair_keys % multiplier

    # -- row deltas -------------------------------------------------------------------
    def append_rows(self, table: MicrodataTable) -> str:
        """Grow the fitted state to ``table`` (the previous table plus appended rows).

        ``table`` must extend the fitted table: its first ``n`` rows are the
        fitted rows and every attribute keeps its domain.  The appended
        rows' counts are folded into the count tensor - and, in
        ``incremental`` mode, into every cached per-bandwidth contraction -
        so the next estimation only recontracts queries whose kernel
        neighbourhood actually changed.

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when a full :meth:`fit` was required (changed
        domains, or a breached growth guard).
        """
        with current_tracer().span("backend.append_rows", rows=table.n_rows) as span:
            n_previous = self._require_fitted().n_rows
            if table.n_rows < n_previous:
                raise KnowledgeError(
                    f"append_rows expects a grown table; got {table.n_rows} rows "
                    f"after {n_previous}"
                )
            result = self._fold_rows(
                table, _NO_ROWS, np.arange(n_previous, table.n_rows, dtype=np.int64)
            )
        span.annotate(result=result)
        return result

    def remove_rows(self, table: MicrodataTable, removed: np.ndarray) -> str:
        """Shrink the fitted state to ``table`` (the fitted table minus ``removed``).

        ``removed`` holds row positions of the *fitted* table; ``table`` must
        be the fitted table with exactly those rows dropped and every domain
        unchanged (e.g. ``fitted.select(kept)``).  The removed rows' counts
        are subtracted from the count tensor - exactly, since counts are
        small integers in float64 - and, in ``incremental`` mode, every query
        whose kernel neighbourhood contained a removed row is fully
        recontracted from the updated tensor (see the module docstring for
        why removals never delta-accumulate numerators).

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when a full :meth:`fit` was required (changed
        domains, or retired slots accumulating past the layout guard).
        """
        fitted = self._require_fitted()
        removed = np.unique(np.asarray(removed, dtype=np.int64))
        if removed.size == 0:
            raise KnowledgeError("remove_rows requires at least one removed row")
        if removed[0] < 0 or removed[-1] >= fitted.n_rows:
            raise KnowledgeError("removed row positions fall outside the fitted table")
        if removed.size >= fitted.n_rows:
            raise KnowledgeError("cannot remove every row of the fitted table")
        if table.n_rows != fitted.n_rows - removed.size:
            raise KnowledgeError(
                f"table has {table.n_rows} rows; expected "
                f"{fitted.n_rows - removed.size} (the fitted table minus the removed rows)"
            )
        return self._fold_rows(table, removed, _NO_ROWS)

    def update_rows(self, table: MicrodataTable, positions: np.ndarray) -> str:
        """Re-point the fitted state at ``table`` after in-place row corrections.

        ``table`` holds the same rows as the fitted table except at
        ``positions``, whose QI/sensitive values changed *within the fitted
        domains* (callers rebuild from scratch when a correction introduces
        new values - codes would shift).  The old cells' counts are
        subtracted and the new cells' counts added in one exact pass; rest
        combinations first seen in the correction take fresh slots exactly
        as appends do, under the same count-tensor and block-budget guards.

        Returns ``"incremental"`` or ``"refit"`` (changed domains, retired
        slots past the layout guard, or a breached growth guard).
        """
        fitted = self._require_fitted()
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        if positions.size == 0:
            raise KnowledgeError("update_rows requires at least one updated row")
        if positions[0] < 0 or positions[-1] >= fitted.n_rows:
            raise KnowledgeError("updated row positions fall outside the fitted table")
        if table.n_rows != fitted.n_rows:
            raise KnowledgeError(
                f"update_rows expects the same number of rows; got {table.n_rows} "
                f"after {fitted.n_rows}"
            )
        return self._fold_rows(table, positions, positions)

    def _fold_rows(self, table: MicrodataTable, removed: np.ndarray, added: np.ndarray) -> str:
        """Fold one row delta into the fitted state: the step behind every mutation.

        The fitted table's rows at the sorted positions ``removed`` leave;
        ``table``'s rows at the sorted positions ``added`` arrive; every
        other row of ``table`` is a surviving fitted row, in fitted order.
        An append adds a tail, a retraction only removes, and a correction
        removes and re-adds the same positions.  Arriving rest combinations
        take fresh slots, the count deltas apply exactly, and every cached
        contraction refreshes.  Returns ``"incremental"``, or ``"refit"``
        when the domains changed or a layout guard tripped.
        """
        if not self._same_domains(table):
            self.fit(table)
            return "refit"
        if not removed.size and not added.size:
            self._table = table
            return "incremental"
        added_codes = np.column_stack(
            [table.codes(name)[added] for name in table.quasi_identifier_names]
        ).astype(np.int64)
        added_solo = self._solo_codes(added_codes)
        added_slot = self._assign_fresh_slots(
            added_codes[:, self._rest_indices], table.sensitive_domain().size
        )
        if added_slot is None:
            # Growth breached a guard; refit (which drops the solo split
            # when the count tensor outgrew it).
            self.fit(table)
            return "refit"
        delta = self._exact_cell_deltas(
            (
                self._solo_of_row[removed],
                self._slot_of_row[removed],
                self._table.sensitive_codes()[removed].astype(np.int64),
            ),
            (added_solo, added_slot, table.sensitive_codes()[added].astype(np.int64)),
        )
        if self._retired_guard_breached():
            # Too many slots emptied to exactly zero: refit into a compact
            # layout (the emptied-slot refit valve, amortised).
            self.fit(table)
            return "refit"
        self._table = table
        self._overall = table.sensitive_distribution()
        self._solo_of_row = _spliced(self._solo_of_row, removed, added, added_solo)
        self._slot_of_row = _spliced(self._slot_of_row, removed, added, added_slot)
        self._finish_exact_update(*delta)
        return "incremental"

    def _exact_cell_deltas(
        self,
        removed: tuple[np.ndarray, np.ndarray, np.ndarray],
        added: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply paired integer count deltas to the count storage.

        ``removed`` and ``added`` are ``(solo, slot, sensitive)`` code arrays
        of the leaving and arriving rows (either may be empty).  Returns
        ``(rest_touched, cell_solo, cell_rest)`` - the touched rest slots and
        the distinct touched (solo, slot) cells - after folding the removed
        rows' counts out of (and the added rows' counts into) the count
        storage.  Counts are integers in float64, so the subtraction is
        exact and an emptied slot lands on exactly ``0.0`` (a *retired* slot
        whose contributions are exact zeros everywhere).
        """
        rest_touched = np.unique(np.concatenate([removed[1], added[1]]))
        _, capacity, m = self._count_storage.shape
        cells = []
        for (solo, slot, sensitive), sign in ((removed, -1.0), (added, 1.0)):
            # Unbuffered per-row adds of +-1.0 into the flat view of the
            # (contiguous) storage: exact on integer counts, and no
            # temporaries beyond the batch itself.
            cells_flat = (solo * capacity + slot) * m + sensitive
            np.add.at(self._count_storage.reshape(-1), cells_flat, sign)
            np.add.at(self._slot_totals, slot, sign)
            cells.append(solo * self._n_combos + slot)
        distinct = np.unique(np.concatenate(cells))
        return rest_touched, distinct // self._n_combos, distinct % self._n_combos

    def _retired_guard_breached(self) -> bool:
        """Whether retired (exactly-zero) slots warrant a compact refit."""
        retired = int((self._slot_totals[: self._n_combos] == 0.0).sum())
        return retired > max(_MIN_RETIRED_SLOTS, _MAX_RETIRED_FRACTION * self._n_combos)

    def _finish_exact_update(
        self, rest_touched: np.ndarray, cell_solo: np.ndarray, cell_rest: np.ndarray
    ) -> None:
        """Rebuild the query index and refresh every cached contraction."""
        previous_solo, previous_rest = self._query_solo, self._query_rest
        self._rebuild_query_index()
        previous_pairs = previous_solo * max(1, self._n_combos) + previous_rest
        for cache in self._contractions.values():
            self._refresh_cache_exact(
                cache, rest_touched, cell_solo, cell_rest, previous_pairs
            )

    def _refresh_cache_exact(
        self,
        cache: dict,
        rest_touched: np.ndarray,
        cell_solo: np.ndarray,
        cell_rest: np.ndarray,
        previous_pairs: np.ndarray,
    ) -> None:
        """Fold a delta into one bandwidth's cached contraction by recontraction.

        Serves appends, removals and updates on both paths.  Nothing is
        delta-accumulated: the touched contracted columns are recomputed
        from the exactly-updated count tensor and every affected or fresh
        query is fully recontracted, so a numerator whose neighbourhood
        emptied lands on exactly zero (and takes the overall-distribution
        fallback) instead of surviving as a cancellation residue.
        """
        n_combos = self._n_combos
        m = self._count_storage.shape[2]
        solo_weights = self._solo_weights(cache["bandwidth"])
        solo_size = solo_weights.shape[0]
        contracted = cache["contracted_storage"][:, :n_combos, :]
        counts_touched = self._count_storage[:, rest_touched, :]
        contracted[:, rest_touched, :] = (
            solo_weights @ counts_touched.reshape(solo_size, -1)
        ).reshape(solo_size, rest_touched.size, m)
        joints = cache["joints"]

        # Realign numerators with the (shrunk or grown) query set: vanished
        # pairs are dropped, fresh pairs recontract fully below.
        numerators = np.zeros((self._pair_keys.size, m), dtype=np.float64)
        positions = np.searchsorted(self._pair_keys, previous_pairs)
        positions = np.minimum(positions, max(0, self._pair_keys.size - 1))
        survives = self._pair_keys[positions] == previous_pairs
        numerators[positions[survives]] = cache["numerators"][survives]
        fresh = np.ones(self._pair_keys.size, dtype=bool)
        fresh[positions[survives]] = False
        if cache["path"] == "dense":
            affected = self._affected_query_mask(
                cache["bandwidth"], joints, cell_solo, cell_rest
            )
            self._contract_queries(
                numerators, np.flatnonzero(affected | fresh), joints, contracted
            )
        else:
            affected = self._support_affected(joints, solo_weights, cell_solo, cell_rest)
            self._contract_support(
                numerators, np.flatnonzero(affected | fresh), joints, contracted
            )
        cache["numerators"] = numerators

    def _assign_fresh_slots(self, rest_new: np.ndarray, m: int) -> np.ndarray | None:
        """Slots for a batch of rest combinations, growing the layout as needed.

        Combinations first seen in the batch take the next free slots.
        Returns the per-row slot ids, or ``None`` when growth breaches a
        guard and the caller must refit: the count-tensor memory guard, or a
        multi-attribute block outgrowing the contraction budget (the layout
        must be re-derived; singleton blocks are admissible over budget by
        design).
        """
        n_combos = self._n_combos
        if not rest_new.shape[0]:
            return np.empty(0, dtype=np.int64)
        stacked = np.concatenate([self._rest_combos[:n_combos], rest_new], axis=0)
        uniq, inverse = unique_rows(stacked)
        slot_of_uid = np.full(uniq.shape[0], -1, dtype=np.int64)
        slot_of_uid[inverse[:n_combos]] = np.arange(n_combos, dtype=np.int64)
        fresh_uids = np.flatnonzero(slot_of_uid < 0)
        if fresh_uids.size:
            solo_size = self._count_storage.shape[0]
            if solo_size * (n_combos + fresh_uids.size) * m > MAX_COUNT_CELLS:
                return None
            slot_of_uid[fresh_uids] = n_combos + np.arange(fresh_uids.size, dtype=np.int64)
            self._grow_combos(uniq[fresh_uids])
            if any(
                len(block.positions) > 1
                and block.n_combos**2 > self.config.max_cells
                for block in self._blocks
            ):
                return None
        return slot_of_uid[inverse[n_combos:]]

    def _grow_combos(self, new_combos: np.ndarray) -> None:
        """Assign slots to new rest combinations, reallocating storage if full."""
        n_old = self._n_combos
        n_after = n_old + new_combos.shape[0]
        capacity = self._rest_combos.shape[0]
        if n_after > capacity:
            capacity = self._capacity(n_after)
            combos = np.zeros((capacity, self._rest_combos.shape[1]), self._rest_combos.dtype)
            combos[:n_old] = self._rest_combos[:n_old]
            self._rest_combos = combos
            storage = np.zeros(
                (self._count_storage.shape[0], capacity, self._count_storage.shape[2])
            )
            storage[:, :n_old, :] = self._count_storage[:, :n_old, :]
            self._count_storage = storage
            totals = np.zeros(capacity, dtype=np.float64)
            totals[:n_old] = self._slot_totals[:n_old]
            self._slot_totals = totals
            for block in self._blocks:
                code_of_slot = np.zeros(capacity, dtype=np.int64)
                code_of_slot[:n_old] = block.code_of_slot[:n_old]
                block.code_of_slot = code_of_slot
            for cache in self._contractions.values():
                contracted = np.zeros_like(storage)
                contracted[:, :n_old, :] = cache["contracted_storage"][:, :n_old, :]
                cache["contracted_storage"] = contracted
        slots = np.arange(n_old, n_after, dtype=np.int64)
        self._rest_combos[slots] = new_combos
        self._n_combos = n_after
        grown = [
            self._grow_block(block, new_combos[:, list(block.positions)], slots)
            for block in self._blocks
        ]
        for cache in self._contractions.values():
            cache["joints"] = [
                self._grow_block_joint(block, joint, n_new, cache["bandwidth"])
                for block, joint, n_new in zip(self._blocks, cache["joints"], grown)
            ]
            cache["contracted_storage"][:, slots, :] = 0.0

    def _grow_block(self, block: _RestBlock, sub_combos: np.ndarray, slots: np.ndarray) -> int:
        """Grow one block with a batch of new rest combinations; return new combo count."""
        c_old = block.n_combos
        stacked = np.concatenate([block.combos, sub_combos], axis=0)
        uniq, inverse = unique_rows(stacked)
        id_of_uid = np.full(uniq.shape[0], -1, dtype=np.int64)
        id_of_uid[inverse[:c_old]] = np.arange(c_old, dtype=np.int64)
        fresh = np.flatnonzero(id_of_uid < 0)
        id_of_uid[fresh] = c_old + np.arange(fresh.size, dtype=np.int64)
        block.code_of_slot[slots] = id_of_uid[inverse[c_old:]]
        if fresh.size:
            block.combos = np.concatenate([block.combos, uniq[fresh]], axis=0)
            block.n_combos = c_old + fresh.size
        return int(fresh.size)

    def _grow_block_joint(
        self,
        block: _RestBlock,
        joint: "_BlockSupport | np.ndarray",
        n_new: int,
        bandwidth: Bandwidth,
    ) -> "_BlockSupport | np.ndarray":
        """Extend a cached block joint (support or dense) to new block combos.

        The joint stays symmetric because every attribute distance matrix
        is: a support gains the new combinations' own neighbour lists plus
        their mirror entries in the old rows; a dense joint gains the new
        rows and their transposes.
        """
        if n_new == 0:
            return joint
        c_after = block.n_combos
        c_old = c_after - n_new
        if isinstance(joint, _BlockSupport):
            rows, columns, weights = self._support_pairs(
                block, bandwidth, np.arange(c_old, c_after, dtype=np.int64)
            )
            mirror = columns < c_old
            return _BlockSupport.from_pairs(
                c_after,
                np.concatenate([joint.rows(), rows, columns[mirror]]),
                np.concatenate([joint.neighbours, columns, rows[mirror]]),
                np.concatenate([joint.weights, weights, weights[mirror]]),
            )
        grown = np.empty((c_after, c_after), dtype=np.float64)
        grown[:c_old, :c_old] = joint
        new_rows = np.ones((n_new, c_after), dtype=np.float64)
        for offset, name in enumerate(block.names):
            weights = self._bandwidth_weights(bandwidth, name)
            column = block.combos[:c_after, offset]
            new_rows *= weights[column[c_old:]][:, column]
        grown[c_old:, :] = new_rows
        grown[:c_old, c_old:] = new_rows[:, :c_old].T
        return grown

    # -- per-bandwidth contraction: block supports ------------------------------------
    def _support_pairs(
        self,
        block: _RestBlock,
        bandwidth: Bandwidth,
        left: np.ndarray,
        limit: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The kernel-positive entries ``(i, j, J_b[i, j])`` of rows ``left``.

        Enumerated from each attribute's closed ``d <= B`` neighbour set on
        its own ``|D_i|^2`` distance matrix.  Attributes whose neighbour set
        is just the value itself join by equality; among the others, the one
        yielding the fewest candidates leads the enumeration and the rest
        filter it.  Candidates are expanded in passes of at most
        ``_SUPPORT_PASS_PAIRS``, so no ``c_b x c_b`` array ever exists.  The
        weight is the kernel product in the block's attribute order, bitwise
        the dense joint's entry; exact zeros (open kernels at ``d == B``) are
        dropped.  Returns ``None`` once more than ``limit`` entries survive.
        """
        c = block.n_combos
        combos = block.combos[:c]
        width = len(block.names)
        within = [self._distance_matrices[name] <= bandwidth[name] for name in block.names]
        exact = [
            offset
            for offset in range(width)
            if np.array_equal(within[offset], np.eye(within[offset].shape[0], dtype=bool))
        ]
        loose = [offset for offset in range(width) if offset not in exact]
        if not loose:
            # Every attribute joins by equality: each row's support is itself.
            filters: list[int] = []
            passes = iter([(left, left)])
        else:
            equal_key = np.zeros(c, dtype=np.int64)
            if exact:
                _, equal_key = unique_rows(combos[:, exact])
            # (left row, candidate group) lookups for every loose pivot candidate.
            best = None
            for pivot in loose:
                size = within[pivot].shape[0]
                group = equal_key * size + combos[:, pivot]
                order = np.argsort(group, kind="stable")
                keys, first, counts = np.unique(
                    group[order], return_index=True, return_counts=True
                )
                value_rows = within[pivot].sum(axis=1)
                value_ptr = np.concatenate([[0], np.cumsum(value_rows)])
                value_neighbours = np.nonzero(within[pivot])[1]
                values = combos[left, pivot]
                owner, entry = _ragged(value_ptr[values], value_rows[values])
                wanted = equal_key[left][owner] * size + value_neighbours[entry]
                found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
                hit = keys[found] == wanted
                owner, found = owner[hit], found[hit]
                total = int(counts[found].sum())
                if best is None or total < best[0]:
                    best = (total, pivot, order, first[found], counts[found], owner)
            _, pivot, order, starts, sizes, owner = best
            filters = [offset for offset in loose if offset != pivot]
            cuts = np.flatnonzero(np.diff(np.cumsum(sizes) // _SUPPORT_PASS_PAIRS)) + 1

            def expand():
                for part in np.split(np.arange(sizes.size), cuts):
                    lookup, index = _ragged(starts[part], sizes[part])
                    yield left[owner[part[lookup]]], order[index]

            passes = expand()

        kernel_weights = [self._bandwidth_weights(bandwidth, name) for name in block.names]
        kept_rows, kept_columns, kept_weights = [], [], []
        stored = 0
        for rows, columns in passes:
            keep = np.ones(rows.size, dtype=bool)
            for offset in filters:
                keep &= within[offset][combos[rows, offset], combos[columns, offset]]
            rows, columns = rows[keep], columns[keep]
            weights: np.ndarray | None = None
            for offset, kernel in enumerate(kernel_weights):
                factor = kernel[combos[rows, offset], combos[columns, offset]]
                weights = factor if weights is None else weights * factor
            positive = weights > 0.0
            kept_rows.append(rows[positive])
            kept_columns.append(columns[positive])
            kept_weights.append(weights[positive])
            stored += int(positive.sum())
            if limit is not None and stored > limit:
                return None
        return (
            np.concatenate(kept_rows),
            np.concatenate(kept_columns),
            np.concatenate(kept_weights),
        )

    def _block_support(self, block: _RestBlock, bandwidth: Bandwidth) -> "_BlockSupport | None":
        """One block's support, or ``None`` when it is dense.

        Dense means the support fills more than a quarter of the block's
        ``c_b x c_b`` joint (the old mask rule); the enumeration stops as
        soon as it knows.
        """
        c = block.n_combos
        pairs = self._support_pairs(
            block, bandwidth, np.arange(c, dtype=np.int64), limit=c * c // 4
        )
        return None if pairs is None else _BlockSupport.from_pairs(c, *pairs)

    def _term_plan(self, joints: list, slots: np.ndarray) -> _TermPlan:
        """How to expand slots into their support terms under ``joints``.

        ``joints`` mixes block supports and the dense joints of blocks whose
        support is dense.  The support whose neighbour lists expand
        ``slots`` (with repeats) to the fewest candidate slots leads the
        expansion; every other block filters by lookup.
        """
        n_combos = self._n_combos
        codes = [block.code_of_slot[:n_combos] for block in self._blocks]
        slots_per_combo = [
            np.bincount(code, minlength=block.n_combos)
            for code, block in zip(codes, self._blocks)
        ]
        pivot, reach = None, None
        for index, joint in enumerate(joints):
            if not isinstance(joint, _BlockSupport):
                continue
            expansion = np.bincount(
                joint.rows(),
                weights=slots_per_combo[index][joint.neighbours],
                minlength=slots_per_combo[index].size,
            ).astype(np.int64)[codes[index]]
            if reach is None or expansion[slots].sum() < reach[slots].sum():
                pivot, reach = index, expansion
        per_combo = slots_per_combo[pivot]
        return _TermPlan(
            pivot=pivot,
            support=joints[pivot],
            reach=reach,
            codes=codes,
            slot_order=np.argsort(codes[pivot], kind="stable"),
            slot_first=np.cumsum(per_combo) - per_combo,
            per_combo=per_combo,
            lookups=[
                (index, joint.rows() * block.n_combos + joint.neighbours, joint.weights)
                if isinstance(joint, _BlockSupport)
                else (index, None, joint)
                for index, (block, joint) in enumerate(zip(self._blocks, joints))
                if index != pivot
            ],
        )

    def _term_tiles(self, order: np.ndarray, reach: np.ndarray, width: int) -> list[np.ndarray]:
        """Cut ``order`` into runs whose candidate terms fit the cell budget.

        ``reach[k]`` bounds the terms of ``order[k]``, and each term costs
        about ``width + 8`` cells (its ``width`` products plus the index and
        weight arrays), so a run stays within ``max_cells`` - and within
        ``_SUPPORT_PASS_PAIRS`` candidates - plus one member's own terms.  With ``jobs > 1`` runs are also cut to about ``2 * jobs``
        per call so the pool has work to share; tiling never changes a
        result.
        """
        budget = min(_SUPPORT_PASS_PAIRS, max(1, self.config.max_cells // (width + 8)))
        if self._jobs > 1:
            budget = min(budget, max(1, -(-int(reach.sum()) // (2 * self._jobs))))
        start = np.cumsum(reach) - reach
        return np.split(order, np.flatnonzero(np.diff(start // budget)) + 1)

    def _slot_terms(
        self, plan: _TermPlan, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The joint's support rows for ``slots``: ``(indptr, columns, weights)``.

        Row ``k`` holds the active slots in the intersection of the blocks'
        supports of ``slots[k]``, ascending, with their weights - the
        per-block values multiplied in block order, bitwise the dense
        chain's entry whichever block leads.  Callers keep ``slots`` to a
        tile of :meth:`_term_tiles`, which bounds the candidates expanded.
        """
        codes, pivot, support = plan.codes, plan.pivot, plan.support
        owner, entry = _ragged(
            support.indptr[codes[pivot][slots]],
            np.diff(support.indptr)[codes[pivot][slots]],
        )
        neighbours = support.neighbours[entry]
        expand, index = _ragged(plan.slot_first[neighbours], plan.per_combo[neighbours])
        owner = owner[expand]
        columns = plan.slot_order[index]
        factors = {pivot: support.weights[entry[expand]]}
        for b, keys, values in plan.lookups:
            if keys is None:  # a dense block joint
                factor = values[codes[b][slots[owner]], codes[b][columns]]
                hit = factor > 0.0
            else:
                wanted = codes[b][slots[owner]] * self._blocks[b].n_combos + codes[b][columns]
                found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
                hit = keys[found] == wanted
                factor = values[found]
            owner, columns = owner[hit], columns[hit]
            factors = {key: value[hit] for key, value in factors.items()}
            factors[b] = factor[hit]
        weights = factors[0]
        for b in range(1, len(self._blocks)):
            weights = weights * factors[b]
        keys = owner * self._n_combos + columns
        if keys.size > 1 and (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys)
            owner, columns, weights = owner[order], columns[order], weights[order]
        indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=slots.size), out=indptr[1:])
        return indptr, columns, weights

    def _contract_support(
        self,
        numerators: np.ndarray,
        selection: np.ndarray,
        joints: list,
        contracted: np.ndarray,
    ) -> tuple[int, int]:
        """Numerators of the selected queries as sums of their support terms.

        Query ``(a, r)`` sums ``w * contracted[a, r']`` over the terms
        ``(r', w)`` of slot ``r``, in ascending ``r'`` order, so its bits
        depend on nothing but its own terms.  The queries are taken in slot
        order and cut by :meth:`_term_tiles`; each tile expands only its
        own slots' terms, so the working set stays within ``max_cells``.
        Tiles run on the shared pool like the dense tiles.  Returns
        ``(threads, terms)``.
        """
        if selection.size == 0:
            return 1, 0
        m = contracted.shape[2]
        query_slots = self._query_rest[selection]
        plan = self._term_plan(joints, query_slots)
        # Slot order: a tile holding several queries of one slot expands it once.
        by_slot = np.argsort(query_slots, kind="stable")
        tiles = self._term_tiles(selection[by_slot], plan.reach[query_slots[by_slot]], m)
        terms: list[int] = []

        def contract(chunk: np.ndarray) -> None:
            slots, slot_of_query = np.unique(self._query_rest[chunk], return_inverse=True)
            indptr, columns, weights = self._slot_terms(plan, slots)
            slot_of_query = slot_of_query.reshape(-1)
            counts = np.diff(indptr)[slot_of_query]
            _, index = _ragged(indptr[slot_of_query], counts)
            solo = np.repeat(self._query_solo[chunk], counts)
            products = contracted[solo, columns[index]] * weights[index][:, None]
            sums = np.zeros((chunk.size, m), dtype=np.float64)
            nonempty = counts > 0
            if nonempty.any():
                starts = np.cumsum(counts) - counts
                sums[nonempty] = np.add.reduceat(products, starts[nonempty], axis=0)
            numerators[chunk] = sums
            terms.append(int(counts.sum()))

        if self._jobs <= 1 or len(tiles) <= 1:
            for chunk in tiles:
                contract(chunk)
            return 1, sum(terms)
        threads = self._dispatch_tiles(contract, tiles)
        return threads, sum(terms)

    def _support_affected(
        self,
        joints: list,
        solo_weights: np.ndarray,
        cell_solo: np.ndarray,
        cell_rest: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask over the queries with a positive weight to a touched cell.

        The joint is symmetric, so the touched slots' own support rows name
        every rest slot that can see them; a query ``(a, r)`` is affected
        when ``r`` lies in the support of a touched cell ``(a0, r0)`` whose
        solo weight ``a -> a0`` is positive.  Boolean bookkeeping over the
        support rows, tiled like the contraction, in place of the dense
        path's witness matmuls.
        """
        solo_size = solo_weights.shape[0]
        touched, group = np.unique(cell_rest, return_inverse=True)
        group = group.reshape(-1)
        order = np.argsort(group, kind="stable")
        starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        # sees[t, a]: some touched cell of slot touched[t] is visible from a.
        sees = np.logical_or.reduceat(
            solo_weights[:, cell_solo[order]] > 0.0, starts, axis=1
        ).T
        plan = self._term_plan(joints, touched)
        visible = np.zeros((self._n_combos, solo_size), dtype=bool)
        positions = np.arange(touched.size, dtype=np.int64)
        for tile in self._term_tiles(positions, plan.reach[touched], -(-solo_size // 8)):
            indptr, columns, _ = self._slot_terms(plan, touched[tile])
            owner = np.repeat(tile, np.diff(indptr))
            by_slot = np.argsort(columns, kind="stable")
            seen, first = np.unique(columns[by_slot], return_index=True)
            visible[seen] |= np.logical_or.reduceat(sees[owner[by_slot]], first, axis=0)
        return visible[self._query_rest, self._query_solo]

    # -- per-bandwidth contraction: dense joints --------------------------------------
    def _block_joint(self, block: _RestBlock, bandwidth: Bandwidth) -> np.ndarray:
        """The dense kernel-product joint weight matrix of one block's combinations."""
        c = block.n_combos
        joint: np.ndarray | None = None
        for offset, name in enumerate(block.names):
            weights = self._bandwidth_weights(bandwidth, name)
            column = block.combos[:c, offset]
            gathered = np.take(np.take(weights, column, axis=0), column, axis=1)
            joint = gathered if joint is None else joint * gathered
        if joint is None:  # pragma: no cover - blocks always hold >= 1 attribute
            joint = np.ones((c, c), dtype=np.float64)
        return joint

    def _joint_rows(
        self,
        query_slots: np.ndarray,
        block_joints: list[np.ndarray],
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Joint weight rows ``J[query_slots, columns]``, chained over the blocks.

        ``columns`` defaults to every active slot.  This is the only place the
        full joint is ever materialised - callers tile ``query_slots`` so the
        result stays within the cell budget.
        """
        rows: np.ndarray | None = None
        for block, joint in zip(self._blocks, block_joints):
            q = block.code_of_slot[query_slots]
            d = (
                block.code_of_slot[: self._n_combos]
                if columns is None
                else block.code_of_slot[columns]
            )
            # Gather the smaller axis first so the intermediate stays at
            # min(|q|, |d|) x c_b cells - delta updates pass few columns but
            # many query slots, the full contraction the other way around.
            if len(q) <= len(d):
                gathered = np.take(np.take(joint, q, axis=0), d, axis=1)
            else:
                gathered = np.take(np.take(joint, d, axis=1), q, axis=0)
            rows = gathered if rows is None else rows * gathered
        if rows is None:
            n_columns = self._n_combos if columns is None else len(columns)
            rows = np.ones((len(query_slots), n_columns), dtype=np.float64)
        return rows

    def _contract_queries(
        self,
        numerators: np.ndarray,
        selection: np.ndarray,
        block_joints: list[np.ndarray],
        contracted: np.ndarray,
    ) -> int:
        """Numerators for the selected query positions (grouped by solo code, tiled).

        Tiles are dispatched over the shared worker pool when ``jobs > 1``:
        every tile writes a disjoint ``numerators`` slice with exactly the
        serial tile's arithmetic, so the threaded result is bitwise identical
        to the serial loop regardless of scheduling.  Returns the number of
        distinct worker threads that touched the contraction (1 serial).
        """
        if selection.size == 0:
            return 1
        tile = self._tile_rows(self._n_combos)
        boundaries = np.flatnonzero(np.diff(self._query_solo[selection])) + 1
        tiles = [
            run[start : start + tile]
            for run in np.split(selection, boundaries)
            for start in range(0, run.size, tile)
        ]

        def contract(chunk: np.ndarray) -> None:
            rows = self._joint_rows(self._query_rest[chunk], block_joints)
            numerators[chunk] = rows @ contracted[self._query_solo[chunk[0]]]

        if self._jobs <= 1 or len(tiles) <= 1:
            for chunk in tiles:
                contract(chunk)
            return 1
        return self._dispatch_tiles(contract, tiles)

    def _dispatch_tiles(
        self, contract: Callable[[np.ndarray], None], tiles: list[np.ndarray]
    ) -> int:
        """Run independent contraction tiles on the shared pool.

        The tracer and its innermost open span are captured on *this*
        (dispatching) thread; every worker attaches them so its
        ``backend.tile`` spans nest under the owning contraction span
        instead of interleaving across concurrent audits.  Returns the
        number of distinct pool threads used.
        """
        tracer = current_tracer()
        parent = tracer.current()
        used: set[int] = set()

        def task(chunk: np.ndarray) -> None:
            used.add(threading.get_ident())
            with tracer.attach(parent):
                with tracer.span("backend.tile", queries=int(chunk.size)):
                    contract(chunk)

        run_tasks([lambda chunk=chunk: task(chunk) for chunk in tiles], self._jobs)
        return len(used)

    def _affected_query_mask(
        self,
        bandwidth: Bandwidth,
        block_joints: list[np.ndarray],
        cell_solo: np.ndarray,
        cell_rest: np.ndarray,
    ) -> np.ndarray:
        """Boolean mask over the query positions whose numerator may change.

        For dense-path caches; the support path uses :meth:`_support_affected`.

        A query (a, r) is affected iff some touched cell (a0, r0) has
        positive solo weight a->a0 *and* positive chained rest weight
        r->r0; count the witnessing cells with small matmuls (tiled over
        rest slots so the transient weight rows respect the cell budget)
        instead of materialising the (queries x cells) mask.
        """
        n_combos = self._n_combos
        solo_weights = self._solo_weights(bandwidth)
        solo_positive = (solo_weights[:, cell_solo] > 0.0).astype(np.float32)
        witnesses = np.empty((solo_weights.shape[0], n_combos), dtype=np.float32)
        tile = self._tile_rows(max(1, cell_rest.size))

        def witness(start: int) -> None:
            stop = min(start + tile, n_combos)
            slots = np.arange(start, stop, dtype=np.int64)
            cell_weights = self._joint_rows(slots, block_joints, columns=cell_rest)
            witnesses[:, start:stop] = solo_positive @ (
                cell_weights > 0.0
            ).astype(np.float32).T

        starts = range(0, n_combos, tile)
        # Disjoint column slices per task; same arithmetic either way.
        run_tasks([lambda start=start: witness(start) for start in starts], self._jobs)
        return witnesses[self._query_solo, self._query_rest] > 0.0

    def _build_block_joints(self, bandwidth: Bandwidth, tracer) -> tuple[str, list]:
        """Every block's joint for one bandwidth: ``(path, joints)``.

        Under a compact-support kernel each block holds its support unless
        that fills more than a quarter of the block's ``c_b x c_b`` joint,
        in which case the block holds the dense joint; the contraction takes
        the support path whenever some block holds a support.  An unbounded
        kernel builds every block dense.  Each build runs in its own
        ``backend.block_joint`` span recording the stored entries' ``nnz``.
        """
        if self._compact_support:
            joints = self._per_block(
                tracer,
                lambda block: self._block_support(block, bandwidth)
                or self._block_joint(block, bandwidth),
            )
            sparse = any(isinstance(joint, _BlockSupport) for joint in joints)
            return ("support" if sparse else "dense"), joints
        return "dense", self._per_block(
            tracer, lambda block: self._block_joint(block, bandwidth)
        )

    def _per_block(self, tracer, build: Callable[[_RestBlock], object]) -> list:
        """Run ``build(block)`` for every block inside its span."""

        def traced(block: _RestBlock):
            with tracer.span(
                "backend.block_joint", names=list(block.names), combos=block.n_combos
            ) as span:
                joint = build(block)
                if tracer.enabled:
                    span.annotate(
                        nnz=joint.nnz
                        if isinstance(joint, _BlockSupport)
                        else int(np.count_nonzero(joint))
                    )
            return joint

        if self._jobs <= 1 or len(self._blocks) <= 1:
            return [traced(block) for block in self._blocks]
        parent = tracer.current()

        def attached(block: _RestBlock):
            with tracer.attach(parent):
                return traced(block)

        return run_tasks(
            [lambda block=block: attached(block) for block in self._blocks], self._jobs
        )

    def _factored_rows(self, bandwidth: Bandwidth) -> np.ndarray:
        """The prior rows of the fitted table's distinct queries under one bandwidth."""
        m = self._table.sensitive_domain().size
        cache = self._contractions.get(bandwidth.items()) if self.incremental else None
        if cache is not None:
            numerators = cache["numerators"]
        else:
            tracer = current_tracer()
            with tracer.span(
                "backend.contract", bandwidth=dict(bandwidth.items())
            ) as contract_span:
                solo_weights = self._solo_weights(bandwidth)
                path, joints = self._build_block_joints(bandwidth, tracer)

                n_combos = self._n_combos
                solo_size = solo_weights.shape[0]
                # Padding slots (growth headroom) only exist in incremental mode,
                # where they must be zero; one-shot estimations keep the GEMM's
                # own exact-size output.  The solo contraction stays a single
                # GEMM (never split across workers): BLAS blocking could vary
                # with the operand shape, and the one matmul already uses
                # whatever threads BLAS itself brings.
                product = solo_weights @ self._count_tensor.reshape(solo_size, -1)
                if self.incremental:
                    contracted_storage = np.zeros(self._count_storage.shape, dtype=np.float64)
                    contracted_storage[:, :n_combos, :] = product.reshape(solo_size, n_combos, m)
                else:
                    contracted_storage = product.reshape(solo_size, n_combos, m)
                contracted = contracted_storage[:, :n_combos, :]

                numerators = np.empty((self._pair_keys.size, m), dtype=np.float64)
                every_query = np.arange(self._pair_keys.size, dtype=np.int64)
                if path == "support":
                    threads, terms = self._contract_support(
                        numerators, every_query, joints, contracted
                    )
                else:
                    threads = self._contract_queries(
                        numerators, every_query, joints, contracted
                    )
                    terms = int(self._pair_keys.size) * n_combos
                contract_span.annotate(
                    queries=int(self._pair_keys.size),
                    threads=int(threads),
                    path=path,
                    terms=terms,
                )
            if self.incremental:
                self._contractions[bandwidth.items()] = {
                    "bandwidth": bandwidth,
                    "path": path,
                    "joints": joints,
                    "contracted_storage": contracted_storage,
                    "numerators": numerators,
                }
        return self._normalise(numerators)

    def _normalise(self, numerators: np.ndarray) -> np.ndarray:
        """Row-normalise numerators; degenerate rows fall back to the overall."""
        denominators = numerators.sum(axis=1)
        degenerate = denominators <= 0.0
        result = numerators / np.where(degenerate, 1.0, denominators)[:, None]
        if degenerate.any():
            result[degenerate] = self._overall
        return result

    # -- estimation -------------------------------------------------------------------
    def prior_rows(
        self, bandwidths: Sequence[float | Bandwidth]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(rows, index)`` of the fitted table's priors, one pair per bandwidth.

        ``rows`` holds one prior row per distinct query (QI combination) and
        ``index`` maps every table row to its query, so table row ``j``'s
        prior is ``rows[index[j]]``.  Identical bandwidths (common in
        skyline grids) are computed once and share the returned arrays; the
        index is shared by every bandwidth.
        """
        self._require_fitted()
        computed: dict[tuple[tuple[str, float], ...], np.ndarray] = {}
        results: list[tuple[np.ndarray, np.ndarray]] = []
        for bandwidth in (self.resolve_bandwidth(b) for b in bandwidths):
            key = bandwidth.items()
            rows = computed.get(key)
            if rows is None:
                rows = computed[key] = self._factored_rows(bandwidth)
            results.append((rows, self._query_inverse))
        return results

    def matrix_for_codes(
        self, query_codes: np.ndarray, b: float | Bandwidth
    ) -> np.ndarray:
        """Prior distributions for query rows given as QI *code* combinations.

        ``query_codes`` is a ``(q, d)`` integer matrix in the fitted table's
        code space; the queries need not occur in the table (the factored
        path computes rectangular query-vs-data block weights on the fly).
        A code outside its attribute's domain raises :class:`KnowledgeError`.
        """
        table = self._require_fitted()
        bandwidth = self.resolve_bandwidth(b)
        query_codes = np.atleast_2d(np.asarray(query_codes, dtype=np.int64))
        n_attributes = query_codes.shape[1]
        if n_attributes != len(table.quasi_identifier_names):
            raise KnowledgeError(
                f"query has {n_attributes} attributes but the estimator was fitted on "
                f"{len(table.quasi_identifier_names)}"
            )
        sizes = np.asarray([table.domain(name).size for name in table.quasi_identifier_names])
        outside = (query_codes < 0) | (query_codes >= sizes)
        if outside.any():
            row, column = np.argwhere(outside)[0]
            raise KnowledgeError(
                f"query code {int(query_codes[row, column])} of "
                f"{table.quasi_identifier_names[column]!r} is outside its domain "
                f"of {int(sizes[column])} values"
            )
        unique_codes, inverse = unique_rows(query_codes)
        m = table.sensitive_domain().size
        n_combos = self._n_combos
        solo_weights = self._solo_weights(bandwidth)
        solo_size = solo_weights.shape[0]
        contracted = (
            solo_weights @ self._count_tensor.reshape(solo_size, -1)
        ).reshape(solo_size, n_combos, m)
        attribute_weights = {
            name: self._bandwidth_weights(bandwidth, name)
            for block in self._blocks
            for name in block.names
        }

        def joint_rows_for(chunk: np.ndarray) -> np.ndarray:
            # Rectangular query-vs-data block weights, one tile at a time
            # (query combos may be unseen, so this cannot gather from the
            # square block joints); the (tile x n_combos) expansion respects
            # the same cell budget as the table-query path.
            rows: np.ndarray | None = None
            for block in self._blocks:
                weights = np.ones((chunk.size, block.n_combos), dtype=np.float64)
                for position, (rest_column, name) in enumerate(
                    zip(block.positions, block.names)
                ):
                    attribute = self._rest_indices[rest_column]
                    column = block.combos[: block.n_combos, position]
                    weights *= np.take(
                        np.take(attribute_weights[name], unique_codes[chunk, attribute], axis=0),
                        column,
                        axis=1,
                    )
                gathered = np.take(weights, block.code_of_slot[:n_combos], axis=1)
                rows = gathered if rows is None else rows * gathered
            if rows is None:
                rows = np.ones((chunk.size, n_combos), dtype=np.float64)
            return rows

        numerators = np.empty((unique_codes.shape[0], m), dtype=np.float64)
        query_solo = self._solo_codes(unique_codes)
        order = np.argsort(query_solo, kind="stable")
        boundaries = np.flatnonzero(np.diff(query_solo[order])) + 1
        tile = self._tile_rows(n_combos)
        tiles = [
            run[start : start + tile]
            for run in np.split(order, boundaries)
            for start in range(0, run.size, tile)
        ]

        def contract(chunk: np.ndarray) -> None:
            numerators[chunk] = joint_rows_for(chunk) @ contracted[query_solo[chunk[0]]]

        if self._jobs <= 1 or len(tiles) <= 1:
            for chunk in tiles:
                contract(chunk)
        else:
            self._dispatch_tiles(contract, tiles)
        return self._normalise(numerators)[inverse]
