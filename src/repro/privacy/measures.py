"""Distance measures between probability distributions (Section IV-B).

The distance ``D[P, Q]`` between the adversary's prior ``P`` and posterior
``Q`` quantifies how much sensitive information the release discloses.  The
paper lists five desiderata - identity of indiscernibles, non-negativity,
probability scaling, zero-probability definability and semantic awareness -
and shows that the classical measures each miss at least one:

================  ========  =============  ========  ================
measure            scaling   zero-prob ok   semantic   provided here as
================  ========  =============  ========  ================
KL divergence      yes       no             no        :func:`kl_divergence`
JS divergence      yes       yes            no        :func:`js_divergence`
EMD                no        yes            yes       :func:`emd_distance`
paper's measure    yes       yes            yes       :func:`smoothed_js_divergence`
================  ========  =============  ========  ================

The paper's measure kernel-smooths both distributions over the sensitive
domain (using the Section II-C distance matrix and an Epanechnikov kernel)
and then applies JS divergence.  The callable classes at the bottom wrap these
functions so privacy models can treat the measure as a configuration value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PrivacyModelError
from repro.knowledge.kernels import get_kernel

_LOG2 = np.log(2.0)


def _validate_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise PrivacyModelError(f"{name} must be a 1-D probability vector")
    if np.any(p < -1e-12):
        raise PrivacyModelError(f"{name} has negative entries")
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise PrivacyModelError(f"{name} must sum to 1 (got {total:.6f})")
    return np.clip(p, 0.0, None)


def _validate_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = _validate_distribution(p, "P")
    q = _validate_distribution(q, "Q")
    if p.shape != q.shape:
        raise PrivacyModelError(f"P and Q have different lengths ({p.size} vs {q.size})")
    return p, q


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence ``sum_i p_i log(p_i / q_i)`` in bits.

    Returns ``inf`` when some ``p_i > 0`` has ``q_i = 0`` - the measure is
    undefined there, which is exactly the zero-probability-definability
    failure the paper points out.
    """
    p, q = _validate_pair(p, q)
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])) / _LOG2)


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (in bits, bounded by 1), Equation 6.

    Always finite: the mixture ``(P + Q)/2`` is positive wherever ``P`` or ``Q``
    is (entries that underflow to zero contribute nothing).
    """
    p, q = _validate_pair(p, q)
    return float(_rowwise_js(p[None, :], q[None, :])[0])


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance (EMD under the discrete ground metric)."""
    p, q = _validate_pair(p, q)
    return float(0.5 * np.abs(p - q).sum())


def emd_distance(
    p: np.ndarray,
    q: np.ndarray,
    ground_distance: np.ndarray | None = None,
) -> float:
    """Earth Mover's Distance between two distributions on the same domain.

    Parameters
    ----------
    p, q:
        Probability vectors over the same ``m`` values.
    ground_distance:
        Optional ``m x m`` matrix of ground distances.  When omitted, values
        are treated as equally spaced on a line (``|i - j| / (m - 1)``), which
        is the "ordered domain" EMD used by t-closeness for numeric
        attributes and reduces to a cumulative-sum formula.

    Notes
    -----
    With an explicit ground-distance matrix the transport problem is solved
    with :func:`scipy.optimize.linprog`; the sensitive domains in this library
    are small (tens of values) so this is fast.
    """
    p, q = _validate_pair(p, q)
    m = p.size
    if ground_distance is None:
        if m == 1:
            return 0.0
        cumulative_gap = np.cumsum(p - q)[:-1]
        return float(np.abs(cumulative_gap).sum() / (m - 1))
    ground = np.asarray(ground_distance, dtype=np.float64)
    if ground.shape != (m, m):
        raise PrivacyModelError(
            f"ground distance matrix has shape {ground.shape}, expected {(m, m)}"
        )
    return _emd_linear_program(p, q, ground)


def _emd_linear_program(p: np.ndarray, q: np.ndarray, ground: np.ndarray) -> float:
    from scipy.optimize import linprog

    m = p.size
    # Variables f_ij >= 0, minimise sum f_ij * d_ij subject to row sums = p, column sums = q.
    cost = ground.reshape(-1)
    row_constraints = np.zeros((m, m * m))
    column_constraints = np.zeros((m, m * m))
    for i in range(m):
        row_constraints[i, i * m : (i + 1) * m] = 1.0
        column_constraints[i, i::m] = 1.0
    equality_matrix = np.vstack([row_constraints, column_constraints])
    equality_rhs = np.concatenate([p, q])
    result = linprog(cost, A_eq=equality_matrix, b_eq=equality_rhs, bounds=(0.0, None), method="highs")
    if not result.success:
        raise PrivacyModelError(f"EMD linear program failed: {result.message}")
    return float(result.fun)


def smooth_distribution(
    p: np.ndarray,
    distance_matrix: np.ndarray,
    *,
    bandwidth: float = 0.5,
    kernel: str = "epanechnikov",
) -> np.ndarray:
    """Kernel-smooth a distribution over its domain (Section IV-B.2).

    Each probability is replaced by the Nadaraya-Watson weighted average of
    the probabilities of semantically close values:
    ``p_hat_i = sum_j p_j K(d_ij) / sum_j K(d_ij)``.
    """
    p = _validate_distribution(p, "P")
    distance_matrix = np.asarray(distance_matrix, dtype=np.float64)
    m = p.size
    if distance_matrix.shape != (m, m):
        raise PrivacyModelError(
            f"distance matrix has shape {distance_matrix.shape}, expected {(m, m)}"
        )
    if bandwidth <= 0.0:
        raise PrivacyModelError("smoothing bandwidth must be positive")
    weights = get_kernel(kernel)(distance_matrix, bandwidth)
    denominators = weights.sum(axis=1)
    if np.any(denominators <= 0.0):
        raise PrivacyModelError(
            "smoothing kernel gives zero total weight for some value; increase the bandwidth"
        )
    smoothed = (weights @ p) / denominators
    return smoothed / smoothed.sum()


def smoothed_js_divergence(
    p: np.ndarray,
    q: np.ndarray,
    distance_matrix: np.ndarray,
    *,
    bandwidth: float = 0.5,
    kernel: str = "epanechnikov",
) -> float:
    """The paper's distance measure: kernel smoothing followed by JS divergence.

    Satisfies all five desiderata of Section IV-B.1: it inherits identity,
    non-negativity, probability scaling and zero-probability definability from
    JS divergence, and the smoothing step injects semantic awareness through
    the sensitive-attribute distance matrix.
    """
    p_smooth = smooth_distribution(p, distance_matrix, bandwidth=bandwidth, kernel=kernel)
    q_smooth = smooth_distribution(q, distance_matrix, bandwidth=bandwidth, kernel=kernel)
    return js_divergence(p_smooth, q_smooth)


# ---------------------------------------------------------------------------
# Callable measure objects, so privacy models can carry a measure as a value.
# ---------------------------------------------------------------------------


class DistanceMeasure:
    """Base class for prior/posterior distance measures ``D[P, Q]``."""

    name = "abstract"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Distances between corresponding rows of two ``(n, m)`` matrices.

        The default implementation loops over rows; measures with a cheap
        vectorised form (JS, smoothed JS) override it, which is what keeps the
        (B,t)-privacy check affordable inside Mondrian.
        """
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if p.shape != q.shape:
            raise PrivacyModelError("rowwise distance requires matrices of identical shape")
        return np.asarray([self(p[row], q[row]) for row in range(p.shape[0])])

    def rowwise_screened(
        self, p: np.ndarray, q: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row distances that need only be exact where they could exceed ``t``.

        Returns ``(values, exact)``: ``exact`` marks the rows that got the
        exact :meth:`rowwise` value.  A returned value ``> t`` is bitwise the
        row's :meth:`rowwise` value; a value ``<= t`` guarantees that the
        exact distance is at most ``t + 1e-12``.  So ``max <= t + 1e-12``
        over any set of rows is the same verdict as over the exact values,
        and a maximum above it is the exact maximum.  The base class is exact
        everywhere, which is trivially a valid screen; JS and smoothed JS
        replace most rows by a log-free upper bound.
        """
        values = self.rowwise(p, q)
        return values, np.ones(values.shape[0], dtype=bool)

    def group_bound(
        self, spread: np.ndarray, row_totals: tuple[float, float]
    ) -> np.ndarray | None:
        """An upper bound on every member row's distance, per group, or ``None``.

        ``spread`` holds each group's Omega weight spread
        (:meth:`~repro.inference.omega.GroupPass.weight_spread`): every
        member's posterior is ``q = p * w / (p . w)`` with ``max w / min w
        = spread``, so its ratios ``q_i / p_i`` lie in ``[1 / (spread P),
        spread / P]`` for a prior row summing to ``P``, and ``sum_i p_i q_i
        / p_i = 1``.  ``row_totals`` is the ``(lowest, highest)`` prior row
        total.  The bound is exact math; the caller leaves a floating-point
        margin.  ``inf`` spreads give ``nan`` or ``inf`` bounds, which no
        threshold accepts.  The base class has no bound; JS and smoothed JS
        bound the measure by a chord (:func:`_js_chord_bound`).
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _rowwise_js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorised Jensen-Shannon divergence between corresponding rows (in bits)."""
    p = np.clip(np.atleast_2d(np.asarray(p, dtype=np.float64)), 0.0, None)
    q = np.clip(np.atleast_2d(np.asarray(q, dtype=np.float64)), 0.0, None)
    if p.shape != q.shape:
        raise PrivacyModelError("rowwise distance requires matrices of identical shape")
    average = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # The (average > 0) guard only matters when subnormal probabilities
        # underflow; mathematically average >= p/2 > 0 whenever p > 0.
        term_p = np.where((p > 0.0) & (average > 0.0), p * np.log(p / average), 0.0)
        term_q = np.where((q > 0.0) & (average > 0.0), q * np.log(q / average), 0.0)
    return (0.5 * term_p.sum(axis=1) + 0.5 * term_q.sum(axis=1)) / _LOG2


def _js_generator(r: np.ndarray) -> np.ndarray:
    """``f(r) = (1 + r) ln 2 + r ln r - (1 + r) ln(1 + r)``: JS in nats is ``1/2 E_p[f(q / p)]``.

    Per coordinate ``p ln(2p / (p + q)) + q ln(2q / (p + q)) = p f(q / p)``.
    ``f`` is convex (``f''(r) = 1 / (r (1 + r))``) with ``f(1) = 0``;
    written with ``log1p`` so the cancellation near ``r = 1`` stays small.
    """
    return r * np.log1p(r - 1.0) - (1.0 + r) * np.log1p(0.5 * (r - 1.0))


def _js_chord_bound(spread: np.ndarray, totals: tuple[float, ...] = (1.0,)) -> np.ndarray:
    """Largest JS (bits) of a row pair whose ratios ``q_i / p_i`` span at most ``spread``.

    With ``L = 1 / spread`` and ``H = spread``, a prior row ``p`` summing to
    ``P`` and a posterior ``q`` summing to 1 with every ``r_i = q_i / p_i``
    in ``[L / P, H / P]``: ``f`` is convex, so it lies below its chord on
    that interval, and the chord's ``p``-weighted mean is fixed by ``sum p =
    P`` and ``sum p r = 1``.  So ``sum_i p_i f(r_i) <= P (lam f(L / P) + (1 -
    lam) f(H / P))`` with ``lam = (H - 1) / (H - L)``.  That is convex in
    ``P`` (a perspective), so the largest of the given ``totals`` - the ends
    of their range - bounds every row in between.
    """
    high = np.asarray(spread, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        low = 1.0 / high
        # The chord's weight on the low end: lam * L + (1 - lam) * H = 1.
        lam = np.where(high > low, (high - 1.0) / (high - low), 1.0)
        chords = [
            total * (lam * _js_generator(low / total) + (1.0 - lam) * _js_generator(high / total))
            for total in totals
        ]
    return 0.5 * np.max(chords, axis=0) / _LOG2


def _row_totals(matrix: np.ndarray) -> np.ndarray:
    """Row sums added column by column, left to right.

    Every row's total is the same sequence of elementwise additions however
    many rows share the call, so it never depends on the tile the row sits
    in - unlike a BLAS product, whose summation order follows the operand
    shape.  About twice as fast as ``sum(axis=1)`` over a short axis.
    """
    total = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        total += matrix[:, column]
    return total


def _renormalised(rows: np.ndarray) -> np.ndarray:
    return rows / rows.sum(axis=1, keepdims=True)


def _topsoe_bound(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-row upper bound on :func:`_rowwise_js` that needs no ``log``.

    Topsøe's triangular-discrimination bound ``JS <= 1/2 * sum_i (p_i -
    q_i)^2 / (p_i + q_i)`` in bits (F. Topsøe, "Some inequalities for
    information divergence and related measures of discrimination", IEEE
    T-IT 2000).  Per coordinate, with ``s = p + q`` and ``x = p / s``, the JS
    term is ``(s/2)(1 - H2(x))``; the power series of ``1 - H2`` in ``u = 1 -
    2x`` has positive coefficients summing to 1, so ``1 - H2(x) <= u^2`` and
    the term is at most ``(p - q)^2 / (2s)``.  ``d * (d / s)`` rather than
    ``d**2 / s`` keeps subnormal rows from underflowing to a zero bound.
    Negative entries are clipped to zero, as :func:`_rowwise_js` does.
    """
    if p.min(initial=0.0) < 0.0 or q.min(initial=0.0) < 0.0:
        p, q = np.maximum(p, 0.0), np.maximum(q, 0.0)
    difference = p - q
    total = p + q
    # s == 0 only where p == q == 0, so d == 0 there and any positive
    # stand-in gives the term 0; the smallest one leaves every s > 0 alone.
    np.maximum(total, np.finfo(np.float64).smallest_subnormal, out=total)
    np.divide(difference, total, out=total)
    total *= difference
    return 0.5 * _row_totals(total)


def _screened_rowwise_js(
    p: np.ndarray, q: np.ndarray, t: float, *, renormalise: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rowwise_js` only on the rows whose :func:`_topsoe_bound` exceeds ``t``.

    The other rows keep their bound.  With ``renormalise`` the rows are
    first scaled to sum to 1, as smoothed JS does: the exact rows exactly as
    :meth:`SmoothedJSDivergence.rowwise` does it, the bound's rows by
    :func:`_row_totals`.  Those differ from the exact scaling by about 1e-15
    relative, which moves the bound by a few 1e-14 at most; with the
    rounding of the bound and of the exact value that stays far inside the
    1e-12 verdict slack.  Every row is reduced on its own and in a fixed
    order, so both the bound and the exact rows are bitwise the same in any
    tile (see :meth:`DistanceMeasure.rowwise_screened`).
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if p.shape != q.shape:
        raise PrivacyModelError("rowwise distance requires matrices of identical shape")
    if renormalise:
        values = _topsoe_bound(p / _row_totals(p)[:, None], q / _row_totals(q)[:, None])
    else:
        values = _topsoe_bound(p, q)
    exact = ~(values <= t)
    if exact.any():
        hot_p, hot_q = p[exact], q[exact]
        if renormalise:
            hot_p, hot_q = _renormalised(hot_p), _renormalised(hot_q)
        values[exact] = _rowwise_js(hot_p, hot_q)
    return values, exact


class KLDivergence(DistanceMeasure):
    """Kullback-Leibler divergence (fails zero-probability definability)."""

    name = "kl"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return kl_divergence(p, q)


class JSDivergence(DistanceMeasure):
    """Jensen-Shannon divergence (no semantic awareness)."""

    name = "js"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return js_divergence(p, q)

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _rowwise_js(p, q)

    def rowwise_screened(
        self, p: np.ndarray, q: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return _screened_rowwise_js(p, q, t)

    def group_bound(
        self, spread: np.ndarray, row_totals: tuple[float, float]
    ) -> np.ndarray | None:
        return _js_chord_bound(spread, row_totals)


@dataclass
class EMDDistance(DistanceMeasure):
    """Earth Mover's Distance with an optional ground-distance matrix."""

    ground_distance: np.ndarray | None = None
    name = "emd"

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return emd_distance(p, q, self.ground_distance)


class HierarchicalEMD(DistanceMeasure):
    """Closed-form EMD for the taxonomy ground distance of Section II-C.

    The hierarchy distance ``d(x, y) = h(lca(x, y)) / H`` is a tree metric, so
    the optimal transport cost has the classical closed form

    ``EMD = sum over tree edges  w(e) * | net probability mass below e |``

    where the edge between a node and its parent carries weight
    ``(level(parent) - level(node)) / 2`` with ``level = node_height / H``.
    This is the hierarchical EMD used by the t-closeness paper and is O(number
    of tree nodes) per evaluation - the reason t-closeness checks stay cheap
    inside Mondrian.
    """

    name = "hierarchical-emd"

    def __init__(self, taxonomy, leaf_order: list[str]):
        self._taxonomy = taxonomy
        missing = [leaf for leaf in leaf_order if leaf not in taxonomy]
        if missing:
            raise PrivacyModelError(f"values {missing} are not part of the taxonomy")
        height = taxonomy.height
        masks: list[np.ndarray] = []
        weights: list[float] = []
        leaf_index = {leaf: position for position, leaf in enumerate(leaf_order)}
        stack = [taxonomy.root]
        while stack:
            label = stack.pop()
            for child in taxonomy.children(label):
                stack.append(child)
                parent_level = taxonomy.node_height(label) / height
                child_level = taxonomy.node_height(child) / height
                weight = (parent_level - child_level) / 2.0
                mask = np.zeros(len(leaf_order), dtype=np.float64)
                for leaf in taxonomy.leaves_under(child):
                    if leaf in leaf_index:
                        mask[leaf_index[leaf]] = 1.0
                masks.append(mask)
                weights.append(weight)
        self._masks = np.asarray(masks)
        self._weights = np.asarray(weights)
        self._edge_columns = [np.flatnonzero(mask) for mask in masks]

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        p, q = _validate_pair(p, q)
        if p.size != self._masks.shape[1]:
            raise PrivacyModelError(
                f"distribution has {p.size} values but the hierarchy covers {self._masks.shape[1]}"
            )
        flows = self._masks @ (p - q)
        return float((self._weights * np.abs(flows)).sum())

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if p.shape != q.shape:
            raise PrivacyModelError("rowwise distance requires matrices of identical shape")
        # Per-row sums rather than BLAS products, so a row's distance does
        # not depend on how many rows share the call (the risk kernel tiles).
        difference = p - q
        if not self._edge_columns:
            return np.zeros(difference.shape[0])
        flows = np.stack(
            [difference[:, columns].sum(axis=1) for columns in self._edge_columns], axis=1
        )
        return (np.abs(flows) * self._weights).sum(axis=1)


def _smoothed_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights.T``, summed over the sensitive columns in a fixed order.

    A BLAS product picks its kernel, and with it the summation order, by the
    operands' shape: a 1-row product differs in the last bits from the same
    row inside a larger one.  Here every entry is the same sequence of
    elementwise multiply-adds whatever the number of rows, so a row's value
    never depends on the tile it was computed in.  The result is C-ordered,
    as the row reductions that follow need.
    """
    columns = np.ascontiguousarray(rows.T)
    smoothed = np.zeros((weights.shape[0], rows.shape[0]), dtype=np.float64)
    term = np.empty_like(smoothed)
    for column in range(weights.shape[1]):
        np.multiply(weights[:, column, None], columns[column], out=term)
        smoothed += term
    return np.ascontiguousarray(smoothed.T)


@dataclass
class SmoothedJSDivergence(DistanceMeasure):
    """The paper's measure: kernel smoothing over the sensitive domain, then JS.

    The row-normalised smoothing weights are computed once per measure, on
    first use.  When they are exactly the identity - as at the default
    bandwidth 0.5 on a height-2 hierarchy, where every sibling sits on the
    kernel's open support boundary - :meth:`rowwise` skips the smoothing
    (``p @ I == p`` bit for bit) and only renormalises.  Otherwise every row
    is smoothed by :func:`_smoothed_rows`, so a row's distance is bitwise the
    same whatever other rows share the call.
    """

    distance_matrix: np.ndarray
    bandwidth: float = 0.5
    kernel: str = "epanechnikov"
    name = "smoothed-js"
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _identity: bool = field(default=False, init=False, repr=False, compare=False)

    def _smoothing_weights(self) -> np.ndarray:
        if self._weights is None:
            weights = get_kernel(self.kernel)(
                np.asarray(self.distance_matrix, dtype=np.float64), self.bandwidth
            )
            denominators = weights.sum(axis=1, keepdims=True)
            if np.any(denominators <= 0.0):
                raise PrivacyModelError(
                    "smoothing kernel gives zero total weight for some value; increase the bandwidth"
                )
            weights = weights / denominators
            self._identity = bool(np.array_equal(weights, np.eye(weights.shape[0])))
            self._weights = weights
        return self._weights

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        return smoothed_js_divergence(
            p, q, self.distance_matrix, bandwidth=self.bandwidth, kernel=self.kernel
        )

    def _weighted_rows(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both row matrices times the smoothing weights, not yet renormalised."""
        weights = self._smoothing_weights()
        p_smooth = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q_smooth = np.atleast_2d(np.asarray(q, dtype=np.float64))
        if not self._identity:
            p_smooth = _smoothed_rows(p_smooth, weights)
            q_smooth = _smoothed_rows(q_smooth, weights)
        return p_smooth, q_smooth

    def rowwise(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p_smooth, q_smooth = self._weighted_rows(p, q)
        return _rowwise_js(_renormalised(p_smooth), _renormalised(q_smooth))

    def rowwise_screened(
        self, p: np.ndarray, q: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return _screened_rowwise_js(*self._weighted_rows(p, q), t, renormalise=True)

    def group_bound(
        self, spread: np.ndarray, row_totals: tuple[float, float]
    ) -> np.ndarray | None:
        """The chord bound on the renormalised rows, whatever the row totals.

        Renormalising ``p`` and ``q`` scales a row's ratios by ``P``, back
        into ``[1 / spread, spread]``.  Active smoothing needs no wider
        interval: ``(W q)_i / (W p)_i`` is a ``W p``-weighted mean of the
        row's ratios ``r_k``, the renormalisation divides it by another mean
        of them, and two means of ratios whose largest is at most ``spread``
        times their smallest (they share the row's ``p . w``) stay within
        that factor of each other.
        """
        return _js_chord_bound(spread)


def sensitive_distance_measure(table, *, bandwidth: float = 0.5, kernel: str = "epanechnikov"):
    """The paper's default measure for ``table``'s sensitive attribute.

    Builds the Section II-C distance matrix for the sensitive domain (taxonomy
    distance when a hierarchy is attached) and wraps it in
    :class:`SmoothedJSDivergence` with the bandwidth the paper recommends
    (at least 0.5 for the height-2 Occupation hierarchy, as the paper prescribes).

    Note: with a height-2 hierarchy the sibling distance is exactly 0.5 and the
    Epanechnikov kernel has *open* support, so at the default bandwidth the
    smoothing is inactive and the measure coincides with plain JS divergence -
    pass ``bandwidth > 0.5`` to let semantically close sensitive values share
    probability mass (see the distance-measure ablation benchmark).
    """
    from repro.data.distance import attribute_distance_matrix

    matrix = attribute_distance_matrix(table.sensitive_domain())
    return SmoothedJSDivergence(distance_matrix=matrix, bandwidth=bandwidth, kernel=kernel)
