"""Tests for the privacy models (k-anonymity, l-diversity, t-closeness, (B,t))."""

import numpy as np
import pytest

from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.exceptions import PrivacyModelError
from repro.knowledge.prior import PriorBeliefs
from repro.privacy.models import (
    BTPrivacy,
    CompositeModel,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    ProbabilisticLDiversity,
    SkylineBTPrivacy,
    TCloseness,
)


@pytest.fixture()
def simple_table():
    schema = Schema([numeric_qi("Age"), categorical_qi("Sex"), sensitive("Disease")])
    return MicrodataTable.from_columns(
        schema,
        {
            "Age": [20, 21, 22, 23, 60, 61, 62, 63],
            "Sex": ["M", "M", "F", "F", "M", "M", "F", "F"],
            "Disease": ["Flu", "Flu", "Cancer", "HIV", "Flu", "Cancer", "Cancer", "HIV"],
        },
    )


def test_k_anonymity(simple_table):
    model = KAnonymity(3)
    model.prepare(simple_table)
    assert model.is_satisfied(np.arange(3))
    assert not model.is_satisfied(np.arange(2))
    assert model.describe() == "k=3"
    with pytest.raises(PrivacyModelError):
        KAnonymity(0)


def test_k_anonymity_batch_matches_the_per_group_check(simple_table):
    model = KAnonymity(3)
    model.prepare(simple_table)
    groups = [np.arange(size) for size in (0, 1, 2, 3, 4, 8)]
    verdicts = model.is_satisfied_batch(groups)
    assert verdicts == [model.is_satisfied(group) for group in groups]
    assert all(type(verdict) is bool for verdict in verdicts)
    assert model.is_satisfied_batch([]) == []


def test_distinct_l_diversity(simple_table):
    model = DistinctLDiversity(3)
    model.prepare(simple_table)
    assert model.is_satisfied(np.array([1, 2, 3]))  # Flu, Cancer, HIV
    assert not model.is_satisfied(np.array([0, 1]))  # Flu, Flu
    with pytest.raises(PrivacyModelError):
        DistinctLDiversity(0)


def test_unprepared_model_raises(simple_table):
    model = DistinctLDiversity(2)
    with pytest.raises(PrivacyModelError):
        model.is_satisfied(np.arange(2))


def test_empty_group_rejected(simple_table):
    model = DistinctLDiversity(2)
    model.prepare(simple_table)
    with pytest.raises(PrivacyModelError):
        model.is_satisfied(np.array([], dtype=int))


def test_probabilistic_l_diversity(simple_table):
    model = ProbabilisticLDiversity(2)
    model.prepare(simple_table)
    # Group with 2 Flu out of 4 -> max frequency 0.5 <= 1/2.
    assert model.is_satisfied(np.array([0, 1, 2, 3]))
    # Group with 2 Flu out of 3 -> 0.66 > 0.5.
    assert not model.is_satisfied(np.array([0, 1, 2]))


def test_entropy_l_diversity(simple_table):
    model = EntropyLDiversity(3)
    model.prepare(simple_table)
    # Three equally frequent values: entropy = log 3 exactly.
    assert model.is_satisfied(np.array([1, 2, 3]))
    # Skewed group: entropy below log 3.
    assert not model.is_satisfied(np.array([0, 1, 2]))


def test_t_closeness_accepts_whole_table_and_rejects_skew(simple_table):
    model = TCloseness(0.1, use_hierarchy=False)
    model.prepare(simple_table)
    assert model.is_satisfied(np.arange(simple_table.n_rows))
    assert not model.is_satisfied(np.array([0, 1]))  # all-Flu group is far from overall


def test_t_closeness_threshold_monotonicity(simple_table):
    strict = TCloseness(0.05, use_hierarchy=False)
    loose = TCloseness(0.9, use_hierarchy=False)
    strict.prepare(simple_table)
    loose.prepare(simple_table)
    group = np.array([0, 1, 4])
    assert loose.is_satisfied(group)
    assert not strict.is_satisfied(group)


def test_t_closeness_parameter_validation():
    with pytest.raises(PrivacyModelError):
        TCloseness(-0.1)
    with pytest.raises(PrivacyModelError):
        TCloseness(1.5)


def test_t_closeness_uses_hierarchy_when_available(small_adult):
    flat = TCloseness(0.2, use_hierarchy=False)
    tree = TCloseness(0.2, use_hierarchy=True)
    flat.prepare(small_adult)
    tree.prepare(small_adult)
    group = np.arange(40)
    # Hierarchical EMD never exceeds the variational distance, so the
    # hierarchy-aware check is at least as permissive.
    assert (not flat.is_satisfied(group)) or tree.is_satisfied(group)


def test_bt_privacy_whole_table_is_safe(small_adult):
    model = BTPrivacy(0.3, 0.2)
    model.prepare(small_adult)
    assert model.is_satisfied(np.arange(small_adult.n_rows))
    assert model.group_risk(np.arange(small_adult.n_rows)) < 0.05


def test_bt_privacy_small_group_risky(small_adult):
    model = BTPrivacy(0.3, 0.05)
    model.prepare(small_adult)
    risks = [model.group_risk(np.arange(start, start + 4)) for start in range(0, 40, 4)]
    assert max(risks) > 0.05


def test_bt_privacy_group_risk_monotone_in_group_size(small_adult):
    """Splitting the table into smaller groups can only help the adversary."""
    model = BTPrivacy(0.3, 0.2)
    model.prepare(small_adult)
    whole = model.group_risk(np.arange(small_adult.n_rows))
    half = model.group_risk(np.arange(small_adult.n_rows // 2))
    tiny = model.group_risk(np.arange(5))
    assert whole <= half + 0.05
    assert half <= tiny + 0.25


def test_bt_privacy_parameter_validation():
    with pytest.raises(PrivacyModelError):
        BTPrivacy(0.3, 1.5)
    with pytest.raises(PrivacyModelError):
        BTPrivacy(0.3, 0.2, inference="quantum")


def test_bt_privacy_requires_prepare(small_adult):
    model = BTPrivacy(0.3, 0.2)
    with pytest.raises(PrivacyModelError):
        model.group_risk(np.arange(10))
    with pytest.raises(PrivacyModelError):
        model.priors


def test_bt_privacy_set_priors_reuses_estimation(small_adult, small_adult_priors):
    model = BTPrivacy(0.3, 0.2)
    model.set_priors(
        small_adult_priors, small_adult.sensitive_codes(), small_adult.sensitive_domain().size
    )
    model.prepare(small_adult)  # must not overwrite the injected priors
    assert model.priors is small_adult_priors


def test_bt_privacy_exact_inference_path(small_adult):
    model = BTPrivacy(0.3, 0.5, inference="exact")
    model.prepare(small_adult)
    assert isinstance(model.group_risk(np.arange(6)), float)


def test_bt_privacy_describe(small_adult):
    assert "b=0.3" in BTPrivacy(0.3, 0.2).describe()
    assert "t=0.2" in BTPrivacy(0.3, 0.2).describe()


def test_skyline_bt_privacy(small_adult):
    skyline = SkylineBTPrivacy([(0.3, 0.25), (0.5, 0.15)])
    skyline.prepare(small_adult)
    whole = np.arange(small_adult.n_rows)
    assert skyline.is_satisfied(whole)
    # The skyline is at least as strict as each of its points.
    single = BTPrivacy(0.3, 0.25)
    single.prepare(small_adult)
    group = np.arange(12)
    if skyline.is_satisfied(group):
        assert single.is_satisfied(group)
    assert ";" in skyline.describe()


def test_skyline_requires_points():
    with pytest.raises(PrivacyModelError):
        SkylineBTPrivacy([])


def test_composite_model(simple_table):
    composite = CompositeModel([KAnonymity(3), DistinctLDiversity(3)])
    composite.prepare(simple_table)
    assert composite.is_satisfied(np.array([1, 2, 3]))
    assert not composite.is_satisfied(np.array([2, 3]))  # diverse but too small
    assert not composite.is_satisfied(np.array([0, 1, 4]))  # big enough but not diverse
    assert "k-anonymity" in composite.describe()
    with pytest.raises(PrivacyModelError):
        CompositeModel([])


def test_bt_risk_cache_is_bounded(small_adult):
    model = BTPrivacy(0.3, 0.25)
    model.prepare(small_adult)
    model._risk_cache_limit = 5
    rng = np.random.default_rng(0)
    for _ in range(20):
        model.group_risk(np.sort(rng.choice(small_adult.n_rows, size=4, replace=False)))
    assert len(model._risk_cache) <= 5

    # One batch larger than the limit: exact risks and screened verdicts.
    def batch():
        return [np.sort(rng.choice(small_adult.n_rows, size=4, replace=False)) for _ in range(20)]

    risks = model.group_risks(groups := batch())
    assert len(model._risk_cache) <= 5
    assert risks.tolist() == [model.group_risk(group) for group in groups]
    model.is_satisfied_batch(batch())
    assert len(model._risk_cache) <= 5


def test_skyline_group_risk_with_a_zero_t_point(tiny_adult):
    """A ``t = 0`` skyline point normalises to 0 or inf, agreeing with the verdict."""
    skyline = SkylineBTPrivacy([(0.3, 0.0), (0.5, 0.2)])
    skyline.prepare(tiny_adult)
    groups = [np.arange(tiny_adult.n_rows), np.arange(12), np.arange(40, 45)]
    for group in groups:
        assert skyline.group_risk(group) == float("inf")
        assert not skyline.is_satisfied(group)
    # Priors that already are every posterior: the t = 0 point has zero risk.
    zero, other = skyline.points
    codes = tiny_adult.sensitive_codes()
    m = tiny_adult.sensitive_domain().size
    zero.set_priors(PriorBeliefs(np.eye(m)[codes]), codes, m)
    for group in groups:
        assert zero.group_risk(group) == 0.0
        assert skyline.group_risk(group) == other.group_risk(group) / 0.2
        assert (skyline.group_risk(group) <= 1.0) == skyline.is_satisfied(group)


def test_update_priors_remap_keeps_clean_memos_and_flags_dirty_rows():
    """The deletion/correction arm of BTPrivacy.update_priors: risk memos of
    groups whose members all survive clean are remapped to the new indices,
    rows whose prior or sensitive code changed come back dirty."""
    import numpy as np

    from repro.data.examples import table_i_patients
    from repro.privacy.models import BTPrivacy

    table = table_i_patients()
    model = BTPrivacy(0.3, 0.5)
    model.prepare(table)
    clean_group = np.asarray([0, 1], dtype=np.int64)
    doomed_group = np.asarray([2, 3], dtype=np.int64)
    model.group_risks([clean_group, doomed_group])
    assert model.risk_evaluations == 2

    # Pretend nothing changed for the surviving rows: identical priors and
    # codes remapped through the identity.  Every row must come back clean
    # and both memos must survive (re-checks are cache hits).
    identity = np.arange(table.n_rows, dtype=np.int64)
    dirty = model.update_priors(
        model.priors, table.sensitive_codes(), table.sensitive_domain().size,
        previous_of=identity,
    )
    assert not dirty.any()
    hits_before = model.risk_cache_hits
    model.group_risks([clean_group, doomed_group])
    assert model.risk_cache_hits == hits_before + 2

    # Delete row 2: indices shift; the clean group's memo is remapped to the
    # new index space, the group containing the deleted row is dropped.
    kept = np.asarray(
        [i for i in range(table.n_rows) if i != 2], dtype=np.int64
    )
    shrunk = table.select(kept)
    from repro.knowledge.prior import kernel_prior

    priors = kernel_prior(shrunk, 0.3)
    dirty = model.update_priors(
        priors, shrunk.sensitive_codes(), shrunk.sensitive_domain().size,
        previous_of=kept,
    )
    assert dirty.shape == (shrunk.n_rows,)
    if not dirty[clean_group].any():
        hits_before = model.risk_cache_hits
        model.group_risks([clean_group])  # rows 0, 1 keep their indices
        assert model.risk_cache_hits == hits_before + 1

    # Append two rows (the append map: every previous row in place, then -1
    # per appended row) while row 2's prior changes: the appended rows and
    # row 2 come back dirty, the memo holding row 2 is dropped, and the
    # clean memo survives with a byte-identical key and (risk, exact) value.
    model = BTPrivacy(0.3, 0.5)
    model.prepare(table)
    model.group_risks([clean_group, doomed_group])
    clean_key = clean_group.tobytes()
    clean_memo = model._risk_cache[clean_key]
    matrix = model.priors.matrix
    changed = matrix[2][::-1].copy()
    grown_matrix = np.vstack([matrix[:2], changed, matrix[3:], matrix[:2]])
    grown_codes = np.concatenate([table.sensitive_codes(), table.sensitive_codes()[:2]])
    appended = np.concatenate(
        [np.arange(table.n_rows, dtype=np.int64), np.full(2, -1, dtype=np.int64)]
    )
    dirty = model.update_priors(
        PriorBeliefs(grown_matrix), grown_codes, table.sensitive_domain().size,
        previous_of=appended,
    )
    expected = np.zeros(table.n_rows + 2, dtype=bool)
    expected[[2, table.n_rows, table.n_rows + 1]] = True
    assert np.array_equal(dirty, expected)
    assert list(model._risk_cache) == [clean_key]
    assert model._risk_cache[clean_key] == clean_memo


def test_stream_replace_masks_for_group_local_models():
    import numpy as np

    from repro.data.examples import table_i_patients
    from repro.privacy.models import PrivacyModel

    table = table_i_patients()
    k_model = KAnonymity(2)
    k_model.prepare(table)
    l_model = DistinctLDiversity(2)
    l_model.prepare(table)

    kept = np.arange(1, table.n_rows, dtype=np.int64)  # drop row 0
    shrunk = table.select(kept)
    assert not k_model.stream_replace(shrunk, kept).any()
    assert not l_model.stream_replace(shrunk, kept).any()

    # An in-place sensitive correction marks exactly the corrected row.
    identity = np.arange(shrunk.n_rows, dtype=np.int64)
    values = shrunk.sensitive_values().tolist()
    replacement = next(v for v in set(values) if v != values[0])
    corrected = shrunk.replace_rows([0], {
        name: [shrunk.row(0)[name]] if name != shrunk.sensitive_name else [replacement]
        for name in shrunk.schema.names
    })
    mask = l_model.stream_replace(corrected, identity)
    assert mask[0] and mask.sum() == 1

    # The append map: the previous rows in order, then -1 per appended row.
    # Group-local models mark only the appended rows; t-closeness does too
    # while the overall distribution stays put (appending a copy of every
    # row keeps it exactly) and marks every row once it moved; the base
    # class marks every row either way.
    n = table.n_rows
    columns = {name: table.column(name) for name in table.schema.names}
    doubled = table.extend(columns)
    grown = table.extend({name: column[:1] for name, column in columns.items()})
    for factory in (
        lambda: KAnonymity(2),
        lambda: DistinctLDiversity(2),
        lambda: EntropyLDiversity(1.5),
        lambda: TCloseness(0.5),
        lambda: TCloseness(0.5, use_hierarchy=False),
        PrivacyModel,
    ):
        for appended, moved in ((doubled, False), (grown, True)):
            model = factory()
            model.prepare(table)
            extra = appended.n_rows - n
            previous_of = np.concatenate(
                [np.arange(n, dtype=np.int64), np.full(extra, -1, dtype=np.int64)]
            )
            mask = model.stream_replace(appended, previous_of)
            if type(model) is PrivacyModel or (moved and isinstance(model, TCloseness)):
                assert mask.all()
            else:
                assert np.array_equal(mask, previous_of < 0)

