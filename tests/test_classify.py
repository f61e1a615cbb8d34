"""Classifiers: feature assembly, logistic regression, Wald inference."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit
from scipy.stats import norm

import vidtriage.classify as clf
from vidtriage.data_files import data_path
from vidtriage.textfeat import load_lexicon


@pytest.fixture(scope="module")
def lexicons():
    return (
        load_lexicon(data_path("transition_words.txt"), "transition"),
        load_lexicon(data_path("summary_words.txt"), "summary"),
        load_lexicon(data_path("active_verbs.txt"), "verbs"),
    )


def make_row(video_id="v", **overrides):
    """A one-row table of every column; None stands for a missing label."""
    base = {name: 0.0 for name in clf.FEATURES_HEADER[1:]}
    base.update({"has_title": 1, "has_description": 1, "has_tags": 0,
                 "medical_info_high": 1, "understandable": 0,
                 "recommended": None})
    base.update(overrides)
    return clf.FeatureTable(
        (video_id,), clf.FEATURES_HEADER[1:],
        np.array([[np.nan if v is None else v for v in base.values()]]))


def stack(tables):
    """One table of the rows of ``tables``, in order."""
    return clf.FeatureTable(
        tuple(v for t in tables for v in t.ids), tables[0].columns,
        np.vstack([t.values for t in tables]))


# ----------------------------------------------------------- feature rows


def test_feature_specs_sizes():
    assert len(clf.FEATURE_NAMES) == 25
    assert len(clf.FEATURE_SPECS["recommendation"].features) == 25
    assert len(clf.FEATURE_SPECS["medical_info"].features) == 18
    assert len(clf.FEATURE_SPECS["understandability"].features) == 11
    for spec in clf.FEATURE_SPECS.values():
        assert set(spec.features) <= set(clf.FEATURE_NAMES)
    # Annotation-derived features never explain their own target.
    assert "medical_info_high" not in clf.FEATURE_SPECS["medical_info"].features
    assert "understandable" not in clf.FEATURE_SPECS["understandability"].features


def test_sim_coefficients_cover_recommendation_spec():
    spec = set(clf.FEATURE_SPECS["recommendation"].features)
    assert set(clf.SIM_RECOMMENDATION_COEFFS) == spec


def test_feature_table_validation():
    with pytest.raises(ValueError):
        make_row(ocr_confidence=1.3)
    with pytest.raises(ValueError):
        make_row(has_title=2)
    with pytest.raises(ValueError):
        make_row(n_words_v=-1)
    row = make_row(medical_info_high=None)
    assert np.isnan(row.values[0, row.columns.index("medical_info_high")])


def test_assemble_features_from_fixture(store, lexicons):
    transition, summary, verbs = lexicons
    blocks = clf.compute_text_features(store, transition, summary, verbs)
    table = clf.doc_feature_records(store, blocks)
    assert list(table.ids) == sorted(store.videos)
    by_id = {vid: dict(zip(table.columns, row))
             for vid, row in zip(table.ids, table.values)}
    v4 = by_id["vid004"]
    assert v4["has_title"] == 0  # title is empty
    assert v4["ocr_confidence"] == 0.0  # no OCR blocks
    assert v4["n_shots"] == 3
    assert v4["duration_s"] == 198
    assert by_id["vid001"]["has_tags"] == 1
    assert by_id["vid002"]["has_tags"] == 0
    # The term count and the labels join in at the assemble stage.
    assert table.columns == clf.DOC_FEATURE_NAMES


def test_features_tsv_roundtrip(tmp_path):
    table = stack([
        make_row("v1", n_words_v=12, readability_v=-1.45, recommended=1),
        make_row("v2", medical_info_high=None, understandable=None),
    ])
    path = tmp_path / "features.tsv"
    clf.write_features_tsv(table, path)
    again = clf.read_features_tsv(path)
    assert (again.ids, again.columns) == (table.ids, table.columns)
    np.testing.assert_array_equal(again.values, table.values)


@pytest.mark.parametrize("column, cell", [
    ("has_title", "0.7"), ("recommended", "1.9"), ("understandable", "nan"),
])
def test_features_tsv_rejects_fractional_binary_cell(tmp_path, column, cell):
    path = tmp_path / "features.tsv"
    clf.write_features_tsv(make_row("v1", recommended=1), path)
    header, row = (line.split("\t")
                   for line in path.read_text().splitlines())
    row[header.index(column)] = cell
    path.write_text("\t".join(header) + "\n" + "\t".join(row) + "\n")
    with pytest.raises(ValueError) as err:
        clf.read_features_tsv(path)
    assert str(err.value) == \
        f"{path}:2: {column} must be 0 or 1, got {cell!r}"


def test_select_missing_annotation():
    rows = make_row("v1", medical_info_high=None)
    with pytest.raises(ValueError) as err:
        rows.select(clf.FEATURE_SPECS["recommendation"].features)
    assert "v1" in str(err.value)
    # The understandability spec never touches annotation fields.
    X = rows.select(clf.FEATURE_SPECS["understandability"].features)
    assert X.shape == (1, 11)


# -------------------------------------------------------- standardization


def test_standardize_continuous_and_binary():
    spec = clf.FeatureSpec("demo", ("duration_s", "has_title"))
    X = np.array([[10.0, 1.0], [20.0, 0.0], [30.0, 1.0], [40.0, 0.0]])
    scaler = clf.standardize_fit(X, spec)
    Xs = clf.standardize_apply(scaler, X)
    assert np.mean(Xs[:, 0]) == pytest.approx(0.0)
    assert np.std(Xs[:, 0], ddof=1) == pytest.approx(1.0)
    np.testing.assert_array_equal(Xs[:, 1], X[:, 1])  # binaries untouched


def test_standardize_zero_variance_warns(caplog):
    spec = clf.FeatureSpec("demo", ("duration_s",))
    X = np.full((5, 1), 7.0)
    with caplog.at_level(logging.WARNING, logger="vidtriage"):
        scaler = clf.standardize_fit(X, spec)
    assert "zero variance" in caplog.text
    Xs = clf.standardize_apply(scaler, X)
    np.testing.assert_array_equal(Xs, X)


# ------------------------------------------------------------- objective


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    n, k = 40, 4
    X = rng.normal(size=(n, k))
    y = (rng.random(n) < 0.5).astype(float)
    l2 = 0.05
    for _ in range(10):
        beta = rng.normal(0.0, 0.8, size=k + 1)
        _, grad = clf.logreg_objective_grad(beta, X, y, l2)
        eps = 1e-6
        for j in range(k + 1):
            up = beta.copy()
            up[j] += eps
            down = beta.copy()
            down[j] -= eps
            fd = (clf.logreg_objective_grad(up, X, y, l2)[0]
                  - clf.logreg_objective_grad(down, X, y, l2)[0]) / (2 * eps)
            denom = max(abs(fd), abs(grad[j]), 1e-12)
            assert abs(fd - grad[j]) / denom < 1e-6


def test_logreg_penalty_skips_intercept():
    X = np.zeros((4, 1))
    y = np.array([0.0, 1.0, 1.0, 1.0])
    beta = np.array([2.0, 0.0])
    with_l2, _ = clf.logreg_objective_grad(beta, X, y, 5.0)
    without, _ = clf.logreg_objective_grad(beta, X, y, 0.0)
    assert with_l2 == without  # only the slope is penalized


def test_fit_logreg_separable_toy():
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    beta, info = clf.fit_logreg(X, y, l2=0.1)
    assert beta[1] > 0.5
    assert info["grad_norm"] <= 1e-8
    preds = expit(beta[0] + X[:, 0] * beta[1]) >= 0.5
    assert np.array_equal(preds, y.astype(bool))


def test_fit_logreg_validates(monkeypatch):
    with pytest.raises(ValueError):
        clf.fit_logreg(np.zeros((3, 1)), np.ones(3), l2=0.1)  # one class
    with pytest.raises(ValueError):
        clf.fit_logreg(np.zeros((1, 1)), np.zeros(1), l2=0.1)
    monkeypatch.setattr(clf, "_FIT_MAX_ITER", 2)
    with pytest.raises(clf.ConvergenceError, match="no convergence in 2 "):
        X = np.array([[-1.0], [1.0], [0.5], [-0.5]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        clf.fit_logreg(X, y, l2=0.01)


def _damped_design():
    # One full Newton step overshoots (the objective would fall from -0.026
    # to -1.96), so that step is halved twice.
    rng = np.random.default_rng(196)
    n = rng.integers(6, 40)
    k = rng.integers(1, 4)
    X = rng.standard_normal((n, k)) * rng.choice([1, 5, 20])
    w = rng.standard_normal(k) * rng.choice([1, 3, 10])
    y = (X @ w + rng.standard_normal(n) * rng.choice([0.0, 0.5]) > 0)
    return X, y, 1e-4


def test_fit_logreg_objective_monotone(monkeypatch):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 3))
    true_beta = np.array([0.3, 1.0, -1.5, 0.0])
    y = (rng.random(60) < expit(true_beta[0] + X @ true_beta[1:])).astype(float)

    # Each objective evaluation, and None where an iteration starts from
    # the last one accepted.
    events = []
    objective, information = clf.logreg_objective_grad, clf._information

    def spy_objective(beta, Xa, ya, l2):
        obj, grad = objective(beta, Xa, ya, l2)
        events.append(obj)
        return obj, grad

    def spy_information(Xa, beta, l2):
        events.append(None)
        return information(Xa, beta, l2)

    monkeypatch.setattr(clf, "logreg_objective_grad", spy_objective)
    monkeypatch.setattr(clf, "_information", spy_information)
    for (design, labels, l2), damped in [((X, y, 0.02), False),
                                         (_damped_design(), True)]:
        events.clear()
        _, info = clf.fit_logreg(design, labels, l2=l2)
        evals = [e for e in events if e is not None]
        accepted = [e for e, nxt in zip(events, events[1:]) if nxt is None]
        accepted.append(info["objective"])
        assert len(accepted) == info["iterations"] + 1 > 3  # it moved
        assert accepted == sorted(accepted)
        # Only a halved step costs more than one evaluation per iteration.
        assert (len(evals) > info["iterations"] + 1) == damped


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(10, 200),
    log_scales=st.lists(st.floats(-2.0, 1.0), min_size=1, max_size=12),
    rho=st.floats(0.0, 0.99),
    l2_times_n=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_logreg_reaches_the_optimum(n, log_scales, rho, l2_times_n,
                                        seed):
    # Correlated columns (one shared latent factor) on scales 0.01-10,
    # with both classes present.
    rng = np.random.default_rng(seed)
    k = len(log_scales)
    latent = rng.standard_normal((n, 1))
    Z = rho * latent + np.sqrt(1.0 - rho ** 2) * rng.standard_normal((n, k))
    X = Z * 10.0 ** np.asarray(log_scales)
    z = Z @ rng.normal(0.0, 2.0, size=k)
    y = (rng.random(n) < expit(z)).astype(float)
    y[:2] = [0.0, 1.0]
    l2 = l2_times_n / n
    beta, info = clf.fit_logreg(X, y, l2)
    assert info["grad_norm"] <= 1e-8
    assert info["iterations"] <= 30
    # A zero gradient of a strictly concave objective is its unique
    # maximum; Cholesky succeeds only on a positive-definite matrix.
    np.linalg.cholesky(clf._information(np.hstack([np.ones((n, 1)), X]),
                                        beta, l2))


# ------------------------------------------------------------------ wald


def test_wald_matches_independent_computation():
    rng = np.random.default_rng(29)
    n = 300
    spec = clf.FeatureSpec("demo", ("duration_s", "n_words_v", "has_title"))
    X = np.column_stack([
        rng.normal(200, 50, size=n),
        rng.normal(120, 30, size=n),
        (rng.random(n) < 0.5).astype(float),
    ])
    z = -0.5 + 0.004 * (X[:, 0] - 200) + 0.01 * (X[:, 1] - 120) + 0.8 * X[:, 2]
    y = (rng.random(n) < expit(z)).astype(float)
    model = clf.train_logreg(X, y, l2=0.01, spec=spec)

    # Rebuild the information matrix from scratch.
    Xs = clf.standardize_apply(model.scaler, X)
    Xa = np.hstack([np.ones((n, 1)), Xs])
    p = expit(Xa @ model.beta)
    info = Xa.T @ (Xa * (p * (1 - p))[:, None])
    info += np.diag([0.0] + [2 * n * model.l2] * 3)
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    np.testing.assert_allclose(model.standard_errors, se, rtol=1e-10)
    expected_p = 2 * norm.sf(np.abs(model.beta / se))
    np.testing.assert_allclose(model.p_values, expected_p, rtol=1e-10)
    assert np.all(model.standard_errors > 0)
    assert np.all((model.p_values > 0) & (model.p_values <= 1))


def test_wald_singular_raises():
    rng = np.random.default_rng(31)
    n = 50
    spec = clf.FeatureSpec("demo", ("duration_s", "n_words_v"))
    col = rng.normal(size=n)
    X = np.column_stack([col, col])  # perfectly collinear
    y = (rng.random(n) < 0.5).astype(float)
    scaler = clf.standardize_fit(X, spec)
    beta = np.array([0.1, 0.2, 0.2])
    model = clf.LrModel(
        spec=spec, scaler=scaler, intercept=float(beta[0]),
        coefficients=beta[1:], standard_errors=np.zeros(3),
        p_values=np.ones(3), l2=0.0, train_meta={},
    )
    with pytest.raises(clf.ConvergenceError):
        clf.wald_pvalues(model, X)


def test_format_pvalue():
    assert clf.format_pvalue(0.003) == "<0.01"
    assert clf.format_pvalue(0.02) == "<0.05"
    assert clf.format_pvalue(0.05) == "0.050"
    assert clf.format_pvalue(0.2) == "0.200"


# ------------------------------------------------- train/predict/evaluate


def _plausible_rows(seed=101, n=400):
    """Valid-range understandability rows labeled by a known rule."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        ocr = float(rng.uniform(0.0, 1.0))
        n_words = int(rng.integers(0, 300))
        z = 6.0 * (ocr - 0.5) - 0.01 * (n_words - 150)
        label = int(rng.random() < expit(z))
        rows.append(make_row(
            f"v{i:04d}",
            ocr_confidence=ocr,
            transcription_confidence=float(rng.uniform(0.0, 1.0)),
            shot_change_confidence=float(rng.uniform(0.0, 1.0)),
            n_words_v=n_words,
            n_unique_words_v=int(n_words * 0.7),
            n_sentences_v=int(rng.integers(0, 30)),
            n_shots=int(rng.integers(0, 20)),
            n_active_verbs_v=int(rng.integers(0, 15)),
            n_summary_words_v=int(rng.integers(0, 4)),
            n_transition_words_v=int(rng.integers(0, 6)),
            readability_v=float(rng.normal(9.0, 4.0)),
            understandable=label,
        ))
    return stack(rows)


def _understandability_model(rows):
    spec = clf.FEATURE_SPECS["understandability"]
    X = rows.select(spec.features)
    y = rows.select(["understandable"], "label")[:, 0]
    return clf.train_logreg(X, y, spec=spec)


def test_train_predict_roundtrip():
    rows = _plausible_rows()
    model = _understandability_model(rows)
    p, labels = clf.predict_batch(model, rows.rows(rows.ids[:20]))
    assert p.shape == (20,)
    # Far better than chance on its own training draw.
    y = rows.select(["understandable"], "label")[:, 0]
    assert np.mean(clf.predict_batch(model, rows)[1] == y) > 0.7


def test_predict_missing_feature():
    spec = clf.FEATURE_SPECS["recommendation"]
    k = len(spec.features)
    model = clf.LrModel(
        spec=spec, scaler=clf.Scaler(spec.features, (0.0,) * k, (1.0,) * k),
        intercept=0.0, coefficients=np.zeros(k), l2=0.1, train_meta={},
    )
    with pytest.raises(ValueError) as err:
        clf.predict_batch(model, make_row(understandable=None))
    assert "missing feature" in str(err.value)


def test_predict_on_table_without_model_column(store, lexicons):
    # The featurize stage's table holds the document features only, so a
    # model that needs the term count must name that column.
    table = clf.doc_feature_records(
        store, clf.compute_text_features(store, *lexicons))
    assert "n_unique_medical_terms" not in table.columns
    spec = clf.FEATURE_SPECS["medical_info"]
    k = len(spec.features)
    model = clf.LrModel(
        spec=spec, scaler=clf.Scaler(spec.features, (0.0,) * k, (1.0,) * k),
        intercept=0.0, coefficients=np.zeros(k), l2=0.1, train_meta={},
    )
    with pytest.raises(ValueError) as err:
        clf.predict_batch(model, table)
    assert "no feature column 'n_unique_medical_terms'" in str(err.value)


def test_metrics_from_confusion_fixture():
    m = clf.metrics_from_confusion(22, 2, 1, 32)
    assert m.positive.precision == pytest.approx(0.917, abs=0.001)
    assert m.positive.recall == pytest.approx(0.957, abs=0.001)
    assert m.positive.f_measure == pytest.approx(0.936, abs=0.001)
    assert m.negative.precision == pytest.approx(0.970, abs=0.001)
    assert m.negative.recall == pytest.approx(0.941, abs=0.001)
    assert m.negative.f_measure == pytest.approx(0.955, abs=0.001)
    assert m.accuracy == pytest.approx(0.947, abs=0.001)


def test_confusion_counts_random_loop():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        tp, fp, fn, tn = clf.confusion_counts(y_true, y_pred)
        assert tp + fp + fn + tn == n
        m = clf.metrics_from_confusion(tp, fp, fn, tn)
        assert m.accuracy == pytest.approx((tp + tn) / n)


def test_evaluate_on_rows():
    rows = _plausible_rows(seed=41, n=300)
    model = _understandability_model(rows.rows(rows.ids[:200]))
    metrics = clf.evaluate(model, rows.rows(rows.ids[200:]))
    assert metrics.accuracy > 0.7
    with pytest.raises(ValueError):
        clf.evaluate(model, rows.rows([]))


# ------------------------------------------------------------- utilities


def test_split_ids_partition_and_determinism():
    ids = [f"v{i:03d}" for i in range(50)]
    train, test = clf.split_ids(ids, seed=9)
    assert sorted(train + test) == sorted(ids)
    assert len(train) == 40 and len(test) == 10
    assert (train, test) == clf.split_ids(ids, seed=9)
    assert clf.split_ids(ids, seed=10) != (train, test)
    with pytest.raises(ValueError):
        clf.split_ids(["a", "a", "b"], seed=1)
    # Every id lands in exactly one side for many seeds and fractions.
    rng = np.random.default_rng(43)
    for _ in range(50):
        frac = float(rng.uniform(0.05, 0.95))
        tr, te = clf.split_ids(ids, seed=int(rng.integers(1000)),
                               train_fraction=frac)
        assert sorted(tr + te) == sorted(ids)
        assert len(tr) >= 1 and len(te) >= 1


def test_simulate_design_reproducible():
    spec = clf.FEATURE_SPECS["understandability"]
    coeffs = {name: 0.1 for name in spec.features}
    a = clf.simulate_design(spec, coeffs, -1.0, 50,
                            np.random.default_rng(7))
    b = clf.simulate_design(spec, coeffs, -1.0, 50,
                            np.random.default_rng(7))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    # Binary columns simulate as 0/1.
    j = spec.features.index("has_title") if "has_title" in spec.features else None
    if j is not None:
        assert set(np.unique(a[0][:, j])) <= {0.0, 1.0}


def test_lr_model_roundtrip(tmp_path):
    model = _understandability_model(_plausible_rows(n=60))
    path = tmp_path / "clf.json"
    clf.save_lr_model(path, model)
    again = clf.load_lr_model(path)
    assert again.spec.name == model.spec.name
    assert again.spec.features == model.spec.features
    assert again.intercept == model.intercept
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    np.testing.assert_array_equal(again.p_values, model.p_values)
    np.testing.assert_array_equal(again.scaler.means, model.scaler.means)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        clf.load_lr_model(bad)
