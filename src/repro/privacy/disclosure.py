"""Disclosure-risk computation and the probabilistic background-knowledge attack.

These functions implement the quantities reported in the paper's evaluation:

* the per-tuple **knowledge gain** ``D[Ppri(B,q), Ppos(B,q,T*)]`` of an
  adversary ``Adv(B)`` observing the release,
* the **worst-case disclosure risk** (its maximum over all tuples,
  Definition 1 and Figure 3), and
* the number of **vulnerable tuples** whose knowledge gain exceeds a threshold
  ``t`` (Figure 1), i.e. the tuples breached by a probabilistic
  background-knowledge attack.

Everything here works on a *partition* of the table (a list of index arrays),
so it applies equally to generalization and bucketization releases - as the
paper notes, the two are equivalent once the adversary knows who is in the
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import PrivacyModelError
from repro.inference.omega import group_pass, layout_groups
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.prior import PriorBeliefs, kernel_prior
from repro.obs.tracing import current_tracer
from repro.privacy.measures import DistanceMeasure, sensitive_distance_measure


#: How far below ``t`` a whole-group bound must stay to screen its group.
#: The bound and the exact risk are each computed to within a few 1e-15;
#: this margin (with the verdicts' own ``1e-12`` slack) covers both.
GROUP_SCREEN_MARGIN = 1e-12


def member_risks(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    members: np.ndarray,
    offsets: np.ndarray,
    measure: DistanceMeasure,
    *,
    method: str = "omega",
    screen: float | None = None,
) -> np.ndarray:
    """The risk kernel: ``D[prior, posterior]`` of every member row of many groups.

    ``members`` holds the table rows of every group back to back and
    ``offsets`` each group's start (see
    :func:`~repro.inference.omega.posterior_tiles`).  One group pass
    (:func:`~repro.inference.omega.group_pass`) takes every group's
    sensitive counts and prior column sums, summed row by row in member
    order.  Members of one group that share a prior row (twins: a
    :class:`PriorBeliefs` keeps one row per QI combination) then share one
    Omega posterior and one risk, so for Omega inference the kernel tiles
    one representative per (group, prior row) pair
    (:meth:`~repro.inference.omega.GroupPass.pairs`) and copies its risk to
    the twins.  The representatives are walked in fixed tiles of
    :data:`~repro.inference.omega.TILE_ROWS`, each forming its posteriors
    and calling ``measure.rowwise`` into one output vector, so the working
    set stays bounded and every row goes through the same operations
    whatever the tiling: a representative's risk is bitwise each twin's.
    Priors with a row per tuple (a bare matrix) have no twins, so every
    member is its own representative.  Exact inference (its per-group DP)
    tiles every member.  Every group-risk check - the (B,t) model's
    Mondrian checks, full and incremental skyline audits, single-adversary
    attacks - runs through here.

    With ``screen=t`` the result only has to decide ``max <= t`` verdicts:
    a value above ``t`` is still bitwise the exact risk, a value at or below
    it only bounds the exact risk (within ``1e-12``); reported risks never
    pass a screen.  First, for Omega inference on :class:`PriorBeliefs` with
    no negative entry, whole groups are decided from the group pass alone:
    a group whose ``measure.group_bound`` (the chord bound of JS and
    smoothed JS over the group's Omega weight spread) is at most ``t -``
    :data:`GROUP_SCREEN_MARGIN` is never tiled, and its rows get the bound.
    The other groups' representatives are tiled, each tile calling
    ``measure.rowwise_screened``.  The ``privacy.risks`` span records
    ``screened_rows`` (rows of groups decided by their bound), ``pairs``
    (the representatives tiled), ``tiles`` and ``exact_rows`` (member rows
    whose risk got the exact measure, a representative counting once per
    twin).
    """
    if isinstance(priors, PriorBeliefs):
        rows, index = priors.rows, priors.index
    else:
        rows, index = priors, None
    risks = np.empty(np.shape(members)[0], dtype=np.float64)
    with current_tracer().span("privacy.risks", rows=int(risks.size)) as span:
        groups = group_pass(
            rows, sensitive_codes, members, offsets, method=method, index=index
        )
        kept = None
        if (
            screen is not None
            and method == "omega"
            and isinstance(priors, PriorBeliefs)
            and priors.nonnegative
        ):
            bound = measure.group_bound(groups.weight_spread(), priors.row_total_range)
            if bound is not None:
                screened = bound <= screen - GROUP_SCREEN_MARGIN
                if screened.any():
                    kept = np.repeat(~screened, groups.sizes)
                    risks[~kept] = np.repeat(bound[screened], groups.sizes[screened])
        n_kept = risks.size if kept is None else int(np.count_nonzero(kept))
        if method == "omega":
            group, row, pair_of = groups.pairs(kept)
            twins = np.bincount(pair_of, minlength=group.size)
        else:
            group = row = pair_of = None
            twins = np.ones(n_kept, dtype=np.int64)
        tiled = np.empty(twins.size, dtype=np.float64)
        tiles = 0
        exact_rows = n_kept if screen is None else 0
        for start, stop, prior_rows, posterior_rows in groups.tiles(group, row):
            if screen is None:
                tiled[start:stop] = measure.rowwise(prior_rows, posterior_rows)
            else:
                tiled[start:stop], exact = measure.rowwise_screened(
                    prior_rows, posterior_rows, screen
                )
                exact_rows += int(twins[start:stop][exact].sum())
            tiles += 1
        if pair_of is not None:
            tiled = tiled[pair_of]
        if kept is None:
            risks = tiled
        else:
            risks[kept] = tiled
        span.annotate(
            pairs=int(twins.size),
            tiles=tiles,
            exact_rows=exact_rows,
            screened_rows=risks.size - n_kept,
        )
    return risks


def tuple_disclosure_risks(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    method: str = "omega",
) -> np.ndarray:
    """Knowledge gain ``D[prior, posterior]`` for every tuple of a partitioned table.

    Parameters
    ----------
    priors:
        The adversary's prior beliefs (a :class:`PriorBeliefs`, whose twin
        rows are tiled once per group, or a raw ``(n, m)`` matrix).
    sensitive_codes:
        Length-``n`` sensitive value codes of the original table.
    groups:
        The release's groups as arrays of tuple indices.
    measure:
        Distance measure ``D[P, Q]``.
    method:
        Posterior inference method, ``"omega"`` (default) or ``"exact"``.

    Tuples outside every group keep their prior as posterior, so their risk
    is ``D[prior, prior]``.
    """
    if not isinstance(priors, PriorBeliefs):
        priors = np.asarray(priors, dtype=np.float64)
    n_rows = priors.n_rows if isinstance(priors, PriorBeliefs) else priors.shape[0]
    members, offsets = layout_groups(groups, n_rows)
    risks = np.empty(n_rows, dtype=np.float64)
    risks[members] = member_risks(
        priors, sensitive_codes, members, offsets, measure, method=method
    )
    if members.size < risks.size:
        uncovered = np.ones(risks.size, dtype=bool)
        uncovered[members] = False
        if isinstance(priors, PriorBeliefs):
            alone = priors.for_group(np.flatnonzero(uncovered))
        else:
            alone = priors[uncovered]
        risks[uncovered] = measure.rowwise(alone, alone)
    return risks


def max_risk(risks: np.ndarray) -> float:
    """The worst-case risk of a risk vector (``0.0`` for an empty one)."""
    risks = np.asarray(risks)
    return float(risks.max()) if risks.size else 0.0


def attack_result(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    adversary_b: float,
    threshold: float,
    method: str = "omega",
) -> "AttackResult":
    """One risks computation shared by every audit entry point.

    :func:`worst_case_disclosure_risk`, :meth:`BackgroundKnowledgeAttack.attack`
    and the skyline audit engine all route through here, so their reported
    risks are byte-for-byte the same computation.
    """
    risks = tuple_disclosure_risks(priors, sensitive_codes, groups, measure, method=method)
    return AttackResult(
        adversary_b=float(adversary_b),
        threshold=float(threshold),
        risks=risks,
        vulnerable_tuples=count_vulnerable_tuples(risks, threshold),
        worst_case_risk=max_risk(risks),
    )


def worst_case_disclosure_risk(
    priors: PriorBeliefs | np.ndarray,
    sensitive_codes: np.ndarray,
    groups: list[np.ndarray],
    measure: DistanceMeasure,
    *,
    method: str = "omega",
) -> float:
    """``max_q D[Ppri(B,q), Ppos(B,q,T*)]`` - the quantity bounded by (B,t)-privacy."""
    result = attack_result(
        priors, sensitive_codes, groups, measure,
        adversary_b=float("nan"), threshold=0.0, method=method,
    )
    return result.worst_case_risk


def count_vulnerable_tuples(risks: np.ndarray, threshold: float) -> int:
    """Number of tuples whose knowledge gain exceeds ``threshold`` (Figure 1)."""
    if threshold < 0.0:
        raise PrivacyModelError("threshold must be non-negative")
    return int((np.asarray(risks) > threshold + 1e-12).sum())


@dataclass
class AttackResult:
    """Outcome of a probabilistic background-knowledge attack on one release."""

    adversary_b: float
    threshold: float
    risks: np.ndarray
    vulnerable_tuples: int
    worst_case_risk: float

    def vulnerability_rate(self) -> float:
        """Fraction of tuples breached by the attack (0.0 for an empty result)."""
        if self.risks.size == 0:
            return 0.0
        return self.vulnerable_tuples / self.risks.size


class BackgroundKnowledgeAttack:
    """A parameterised adversary ``Adv(B')`` attacking anonymized releases (Section V-A).

    The attack estimates the adversary's prior with the kernel method, computes
    posterior beliefs over the released groups, and reports every tuple whose
    knowledge gain exceeds the privacy threshold as *vulnerable*.

    Parameters
    ----------
    table:
        The original microdata table (the attack assumes, as the paper does,
        that the adversary knows who is in the table and their QI values).
    b_prime:
        The adversary's bandwidth ``b'`` (scalar, applied to all QI attributes).
    measure:
        Distance measure; defaults to the paper's smoothed-JS measure.
    kernel:
        Kernel for the prior estimation.
    method:
        Posterior inference method, ``"omega"`` or ``"exact"``.
    priors:
        Optional precomputed prior beliefs for ``Adv(b')`` on ``table``.  When
        given, the (expensive) kernel estimation is skipped - this is how
        :class:`repro.api.session.Session` shares one estimation between
        anonymization and auditing.
    """

    def __init__(
        self,
        table: MicrodataTable,
        b_prime: float,
        *,
        measure: DistanceMeasure | None = None,
        kernel: str = "epanechnikov",
        method: str = "omega",
        priors: PriorBeliefs | None = None,
    ):
        self.table = table
        self.b_prime = float(b_prime)
        self.kernel = kernel
        self.method = method
        self.measure = measure if measure is not None else sensitive_distance_measure(table)
        if priors is None:
            priors = kernel_prior(table, self.b_prime, config=EstimatorConfig(kernel=kernel))
        self.priors = priors

    def attack(self, groups: list[np.ndarray], threshold: float) -> AttackResult:
        """Attack a release given as a list of group index arrays."""
        return attack_result(
            self.priors,
            self.table.sensitive_codes(),
            groups,
            self.measure,
            adversary_b=self.b_prime,
            threshold=threshold,
            method=self.method,
        )
