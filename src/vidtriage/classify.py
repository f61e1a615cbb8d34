"""Per-video feature assembly and logistic-regression triage models.

Three binary classifiers read one feature table of 25 features per
video: medical information level uses 18 metadata-plus-text features,
understandability uses the 11 video-level features, and recommendation
uses everything, including the other two annotation labels. That last
choice means the recommendation model conditions on human annotations at
predict time, so its scores are not label-free. Features are z-scored
before fitting (binaries pass through), the regularized Bernoulli
log-likelihood is maximized by damped Newton steps, and coefficient
significance comes from Wald tests against the same observed information
matrix.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .artifacts import (
    finite_array, load_json_model, read_table, save_json_model, write_tsv,
)
from .corpus import CorpusStore
from .numeric import normal_two_sided_tail, sigmoid
from .seqtag.metrics import TagMetrics
from .targets import TARGET_FIELDS, TARGETS, ConvergenceError
from .textfeat import Lexicon, TextFeatures, TokenMemo, extract_text_features

log = logging.getLogger("vidtriage")

BINARY_FEATURES = frozenset({
    "has_title", "has_description", "has_tags",
    "medical_info_high", "understandable",
})


# The feature table's columns, in file order. The document features, read
# from the corpus alone, are the 11 video-level features and then the
# metadata features but the tagger's term count; they are the roster of
# the featurize-stage table.
_VIDEO_LEVEL = (
    "ocr_confidence", "n_active_verbs_v", "readability_v", "n_sentences_v",
    "n_shots", "shot_change_confidence", "n_summary_words_v",
    "transcription_confidence", "n_transition_words_v", "n_words_v",
    "n_unique_words_v",
)
_DOC_METADATA = (
    "has_title", "has_description", "has_tags", "readability_m",
    "n_sentences_m", "n_words_m", "n_unique_words_m", "n_transition_words_m",
    "n_summary_words_m", "n_active_verbs_m", "duration_s",
)
DOC_FEATURE_NAMES: tuple[str, ...] = (*_VIDEO_LEVEL, *_DOC_METADATA)
# The classifier inputs: the document features, the tagger's term count,
# and two annotation labels, which the recommendation model reads.
FEATURE_NAMES: tuple[str, ...] = (
    *DOC_FEATURE_NAMES, "n_unique_medical_terms", "medical_info_high",
    "understandable",
)
# The assembled table's header; ``recommended`` is only ever a label.
FEATURES_HEADER: tuple[str, ...] = ("video_id", *FEATURE_NAMES, "recommended")


@dataclass(frozen=True)
class FeatureSpec:
    """Named, ordered feature subset feeding one classifier."""

    name: str
    features: tuple[str, ...]

    def __post_init__(self):
        unknown = [f for f in self.features if f not in FEATURE_NAMES]
        if unknown:
            raise ValueError(f"unknown features: {unknown}")
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate features in spec")


# The specs, like their saved models, keep the term count after the flags.
_METADATA_LEVEL = (*_DOC_METADATA[:3], "n_unique_medical_terms",
                   *_DOC_METADATA[3:])
FEATURE_SPECS: dict[str, FeatureSpec] = {
    "recommendation": FeatureSpec("recommendation", (
        "medical_info_high", "understandable", *_VIDEO_LEVEL, *_METADATA_LEVEL,
    )),
    "medical_info": FeatureSpec("medical_info", (
        *_METADATA_LEVEL,
        "n_transition_words_v", "n_words_v", "n_unique_words_v",
        "n_active_verbs_v", "readability_v", "n_sentences_v",
    )),
    "understandability": FeatureSpec("understandability", _VIDEO_LEVEL),
}

# Each column's kind, which decides what its cells may hold: readability
# can be negative, and every other continuous feature is a count.
_COLUMN_KINDS = {
    **dict.fromkeys(FEATURES_HEADER[1:], "count"),
    "readability_v": "signed", "readability_m": "signed",
    **dict.fromkeys(("ocr_confidence", "transcription_confidence",
                     "shot_change_confidence"), "confidence"),
    **dict.fromkeys(BINARY_FEATURES, "binary"),
    **dict.fromkeys(TARGET_FIELDS.values(), "label"),
}
# Each kind's rule, as an error states it, and its test of a column of
# values. Only a label column may hold NaN: an empty cell, a missing label.
_KIND_RULES = {
    "confidence": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "count": ("a finite number >= 0", lambda v: (v >= 0.0) & (v < np.inf)),
    "signed": ("a finite number", np.isfinite),
    "binary": ("0 or 1", lambda v: (v == 0.0) | (v == 1.0)),
    "label": ("0 or 1", lambda v: (v == 0.0) | (v == 1.0) | np.isnan(v)),
}


class CellError(ValueError):
    """A feature-table cell that breaks its column's ``rule``, at ``row``
    and ``column`` of the table's values."""

    def __init__(self, table: FeatureTable, row: int, column: int):
        self.row, self.column = int(row), int(column)
        name = table.columns[column]
        self.rule = f"{name} must be {_KIND_RULES[_COLUMN_KINDS[name]][0]}"
        super().__init__(f"video {table.ids[row]!r}: {self.rule}, "
                         f"got {float(table.values[row, column])!r}")


@dataclass(eq=False)
class FeatureTable:
    """One row per video: its id and a float64 value in each named column.

    NaN marks a missing label. Every cell must keep its column's rule,
    else CellError names the first cell, row by row, that does not.
    """

    ids: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.ids), len(self.columns)):
            raise ValueError("the values do not fit the ids and columns")
        ok = np.column_stack([
            _KIND_RULES[_COLUMN_KINDS[name]][1](self.values[:, j])
            for j, name in enumerate(self.columns)
        ])
        bad = np.argwhere(~ok)
        if len(bad):
            raise CellError(self, *bad[0])

    def select(self, names: Sequence[str],
               what: str = "feature") -> np.ndarray:
        """Columns ``names`` as a new matrix, in that order. A column the
        table lacks, or a missing (NaN) cell, raises ValueError naming the
        column, as a ``what``, and the cell's video."""
        absent = [n for n in names if n not in self.columns]
        if absent:
            raise ValueError(f"feature table has no {what} column "
                             f"{absent[0]!r}")
        # take keeps the matrix C-ordered, as the fits' float bits need.
        X = np.take(self.values, [self.columns.index(n) for n in names], 1)
        missing = np.argwhere(np.isnan(X))
        if len(missing):
            i, j = missing[0]
            raise ValueError(
                f"video {self.ids[i]!r}: missing {what} {names[j]!r}"
            )
        return X

    def rows(self, ids: Iterable[str]) -> FeatureTable:
        """The rows whose video is in ``ids``, in table order."""
        keep = set(ids)
        index = [i for i, vid in enumerate(self.ids) if vid in keep]
        return FeatureTable(tuple(self.ids[i] for i in index), self.columns,
                            self.values[index])


SIM_RECOMMENDATION_INTERCEPT = -3.66

# Reference coefficient profile for the recommendation model, used by the
# simulation-based sign-recovery checks: realistic magnitudes across the
# whole roster, in standardized feature space.
SIM_RECOMMENDATION_COEFFS: dict[str, float] = {
    "ocr_confidence": 3.09,
    "understandable": 1.78,
    "n_words_v": 1.10,
    "n_sentences_m": 0.53,
    "n_active_verbs_v": 0.28,
    "n_unique_medical_terms": 0.12,
    "medical_info_high": 0.00,
    "n_transition_words_v": 0.00,
    "has_description": 0.00,
    "has_tags": -0.05,
    "n_sentences_v": -0.06,
    "n_summary_words_m": -0.15,
    "readability_m": -0.16,
    "n_transition_words_m": -0.31,
    "n_words_m": -0.43,
    "n_unique_words_m": -0.43,
    "n_active_verbs_m": -0.44,
    "shot_change_confidence": -0.45,
    "has_title": -0.45,
    "n_shots": -0.46,
    "n_summary_words_v": -0.51,
    "readability_v": -0.54,
    "duration_s": -0.68,
    "n_unique_words_v": -0.81,
    "transcription_confidence": -0.88,
}


# Each text feature's stem and the TextFeatures field it holds; a block
# adds its suffix to the stem: "_v" for the transcript, "_m" for metadata.
_TEXT_FEATURES = {
    "n_words": "word_count", "n_unique_words": "unique_word_count",
    "n_sentences": "sentence_count",
    "n_transition_words": "transition_word_count",
    "n_summary_words": "summary_word_count",
    "n_active_verbs": "active_verb_count", "readability": "readability",
}


def compute_text_features(
    store: CorpusStore,
    transition_lex: Lexicon,
    summary_lex: Lexicon,
    verb_lex: Lexicon,
) -> dict[str, dict[str, TextFeatures]]:
    """Per-video text feature blocks, keyed by suffix, for every video.

    Block "v" reads the transcript text (empty when the video has none);
    block "m" reads the title and description. Every text shares one
    per-token memo, dropped when this call returns.
    """
    memo = TokenMemo()
    out: dict[str, dict[str, TextFeatures]] = {}
    for vid, video in store.videos.items():
        tdoc = store.transcripts.get(vid)
        texts = {"v": tdoc.text if tdoc is not None else "",
                 "m": f"{video.title}\n{video.description}"}
        out[vid] = {
            suffix: extract_text_features(
                text, transition_lex, summary_lex, verb_lex, memo
            )
            for suffix, text in texts.items()
        }
    return out


def doc_feature_records(
    store: CorpusStore,
    text_blocks: Mapping[str, Mapping[str, TextFeatures]],
) -> FeatureTable:
    """The document features of every video in the store, sorted by id."""
    ids = sorted(store.videos)
    rows = []
    for vid in ids:
        if vid not in text_blocks:
            raise ValueError(f"video {vid!r} has no text features")
        video = store.videos[vid]
        tdoc, odoc = store.transcripts.get(vid), store.ocr.get(vid)
        # A video without OCR or transcript keeps 0 in their columns.
        values = dict.fromkeys(DOC_FEATURE_NAMES, 0.0)
        values.update({f"{stem}_{suffix}": getattr(block, name)
                       for suffix, block in text_blocks[vid].items()
                       for stem, name in _TEXT_FEATURES.items()})
        if odoc is not None:
            values.update(ocr_confidence=odoc.confidence,
                          n_shots=odoc.shot_count,
                          shot_change_confidence=odoc.shot_change_confidence)
        if tdoc is not None:
            values["transcription_confidence"] = tdoc.confidence
        values.update(has_title=bool(video.title.strip()),
                      has_description=bool(video.description.strip()),
                      has_tags=len(video.tags) > 0,
                      duration_s=video.duration_s)
        rows.append(list(values.values()))
    return FeatureTable(tuple(ids), DOC_FEATURE_NAMES,
                        np.reshape(rows, (len(ids), len(DOC_FEATURE_NAMES))))


@dataclass(frozen=True)
class Scaler:
    """Per-feature (mean, stddev); binaries carry the identity (0, 1)."""

    features: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]


def standardize_fit(X: np.ndarray, spec: FeatureSpec) -> Scaler:
    """Fit a z-scaler on training rows.

    Continuous features get their sample mean and n-1 standard deviation;
    binary features pass through; a zero-variance continuous column also
    passes through, with a logged warning, so it cannot blow up the
    scaling.
    """
    X = np.asarray(X, dtype=float)
    means, stds = [], []
    for j, name in enumerate(spec.features):
        if name in BINARY_FEATURES:
            means.append(0.0)
            stds.append(1.0)
            continue
        col = X[:, j]
        sd = float(col.std(ddof=1)) if len(col) > 1 else 0.0
        if sd == 0.0 or not np.isfinite(sd):
            log.warning("feature %r has zero variance; passed through "
                        "unscaled", name)
            means.append(0.0)
            stds.append(1.0)
        else:
            means.append(float(col.mean()))
            stds.append(sd)
    return Scaler(spec.features, tuple(means), tuple(stds))


def standardize_apply(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(scaler.features):
        raise ValueError(
            f"{X.shape[1]} columns for a {len(scaler.features)}-feature scaler"
        )
    return (X - np.asarray(scaler.means)) / np.asarray(scaler.stds)


def logreg_objective_grad(
    beta: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Regularized mean Bernoulli log-likelihood and its gradient.

    ``beta`` holds the intercept first; the penalty l2 * sum(beta[1:]**2)
    never touches the intercept. Log-probabilities use logaddexp, so the
    objective stays finite for any finite inputs.
    """
    beta = np.asarray(beta, dtype=float)
    Xa = np.hstack([np.ones((len(X), 1)), X])
    z = Xa @ beta
    # log p = -log(1+e^-z), log(1-p) = -log(1+e^z)
    loglik = float(np.mean(y * -np.logaddexp(0.0, -z)
                           + (1.0 - y) * -np.logaddexp(0.0, z)))
    p = sigmoid(z)
    grad = Xa.T @ (y - p) / len(y)
    obj = loglik - l2 * float(np.sum(beta[1:] ** 2))
    grad[1:] -= 2.0 * l2 * beta[1:]
    return obj, grad


def _information(Xa: np.ndarray, beta: np.ndarray, l2: float) -> np.ndarray:
    """Xa' W Xa + 2 n l2 D at ``beta``, W = diag(p(1-p)) and D the identity
    but zero for the intercept: minus the Hessian of the summed objective."""
    p = sigmoid(Xa @ beta)
    ridge = np.full(len(beta), 2.0 * len(Xa) * l2)
    ridge[0] = 0.0
    return Xa.T @ (Xa * (p * (1.0 - p))[:, None]) + np.diag(ridge)


def _check_l2(l2) -> None:
    if (isinstance(l2, bool) or not isinstance(l2, numbers.Real)
            or not 0 <= l2 < np.inf):
        raise ValueError(f"l2 must be a finite non-negative number, got {l2!r}")


# fit_logreg stops at this gradient norm, and gives up after this many
# Newton steps.
_FIT_TOL = 1e-8
_FIT_MAX_ITER = 100


def fit_logreg(
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, dict]:
    """Maximize the regularized log-likelihood by damped Newton steps.

    Each step is halved until it gives a sufficient increase or still
    ends uphill, so the objective never decreases. Stops when the gradient
    norm reaches ``_FIT_TOL``; a stalled line search or more than
    ``_FIT_MAX_ITER`` steps raise ConvergenceError.
    """
    _check_l2(l2)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X and y sizes do not match")
    if len(y) < 2:
        raise ValueError("need at least two rows")
    if len(np.unique(y)) < 2:
        raise ValueError("labels are single-class; cannot fit")
    Xa = np.hstack([np.ones((len(X), 1)), X])
    beta = np.zeros(Xa.shape[1])
    obj, grad = logreg_objective_grad(beta, X, y, l2)
    for iteration in range(_FIT_MAX_ITER + 1):
        norm = float(np.linalg.norm(grad))
        if norm <= _FIT_TOL:
            return beta, {"iterations": iteration, "grad_norm": norm,
                          "objective": obj}
        if iteration == _FIT_MAX_ITER:
            raise ConvergenceError(f"no convergence in {_FIT_MAX_ITER} "
                                   f"iterations; gradient norm {norm:.3e}")
        # The Hessian of the mean objective is -information / n; pinv skips
        # directions an unpenalized collinearity leaves flat.
        direction = len(y) * np.linalg.pinv(_information(Xa, beta, l2)) @ grad
        slope = float(grad @ direction)
        step = 1.0
        while True:
            candidate = beta + step * direction
            new_obj, new_grad = logreg_objective_grad(candidate, X, y, l2)
            # Ending uphill certifies a gain on a concave objective, also
            # where the gain is below the rounding of the objective.
            if (new_obj >= obj + 1e-4 * step * slope
                    or float(new_grad @ direction) >= 0.0):
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError(
                    f"line search stalled at gradient norm {norm:.3e}"
                )
        beta, obj, grad = candidate, new_obj, new_grad


@dataclass
class LrModel:
    """Fitted classifier: scaler, coefficients, and the Wald inference
    (intercept first) that ``train_logreg`` sets from ``wald_pvalues``."""

    spec: FeatureSpec
    scaler: Scaler
    intercept: float
    coefficients: np.ndarray
    l2: float
    train_meta: dict
    standard_errors: Optional[np.ndarray] = None
    p_values: Optional[np.ndarray] = None

    @property
    def beta(self) -> np.ndarray:
        return np.concatenate([[self.intercept], self.coefficients])


def train_logreg(
    X: np.ndarray,
    y: np.ndarray,
    l2: Optional[float] = None,
    *,
    spec: FeatureSpec,
    train_meta: Optional[dict] = None,
) -> LrModel:
    """Standardize a raw design matrix, fit, and attach Wald inference.

    ``l2`` defaults to 1/n: enough to keep wide, correlated feature sets
    well-conditioned at a few hundred rows without visibly shrinking the
    coefficients.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != len(spec.features):
        raise ValueError(
            f"{X.shape[1]} columns for a {len(spec.features)}-feature spec"
        )
    if l2 is None:
        l2 = 1.0 / max(len(y), 1)
    _check_l2(l2)  # before the scaler warns about the data
    scaler = standardize_fit(X, spec)
    beta, opt_info = fit_logreg(standardize_apply(scaler, X), y, l2)
    model = LrModel(
        spec=spec,
        scaler=scaler,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        l2=l2,
        train_meta={**(train_meta or {}), "n_rows": len(y), "l2": l2,
                    **opt_info},
    )
    model.standard_errors, model.p_values = wald_pvalues(model, X)
    return model


def wald_pvalues(
    model: LrModel, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Standard errors and two-sided p-values from the information matrix
    over the standardized training design; a singular matrix is an error
    suggesting stronger regularization."""
    Xa = np.hstack([np.ones((len(X), 1)), standardize_apply(model.scaler, X)])
    beta = model.beta
    try:
        cov = np.linalg.inv(_information(Xa, beta, model.l2))
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "information matrix is singular; refit with a larger l2"
        ) from None
    diag = np.diag(cov)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise ConvergenceError(
            "information matrix is not positive definite; "
            "refit with a larger l2"
        )
    se = np.sqrt(diag)
    return se, normal_two_sided_tail(beta / se)


def format_pvalue(p: float) -> str:
    """Threshold formatting: '<0.01', '<0.05', else three decimals."""
    if p < 0.01:
        return "<0.01"
    if p < 0.05:
        return "<0.05"
    return f"{p:.3f}"


def predict_batch(
    model: LrModel, table: FeatureTable
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and 0/1 labels (threshold 0.5, ties classified 1)."""
    X = table.select(model.spec.features)
    Xs = standardize_apply(model.scaler, X)
    p = sigmoid(model.intercept + Xs @ model.coefficients)
    return p, (p >= 0.5).astype(int)


@dataclass(frozen=True)
class ClfMetrics:
    positive: TagMetrics
    negative: TagMetrics
    accuracy: float


def confusion_counts(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[int, int, int, int]:
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction and truth lengths differ")
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    tn = int(np.sum((y_pred == 0) & (y_true == 0)))
    return tp, fp, fn, tn


def metrics_from_confusion(
    tp: int, fp: int, fn: int, tn: int
) -> ClfMetrics:
    """Both class reports plus accuracy from one confusion matrix.

    The negative-class report swaps the class of interest: its true
    positives are the true negatives, and so on.
    """
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    return ClfMetrics(
        positive=TagMetrics.from_counts(tp, fp, fn),
        negative=TagMetrics.from_counts(tn, fn, fp),
        accuracy=(tp + tn) / total,
    )


def evaluate(model: LrModel, table: FeatureTable) -> ClfMetrics:
    """Score the model's own target on held-out rows."""
    if not table.ids:
        raise ValueError("empty test set")
    y_true = table.select([TARGET_FIELDS[model.spec.name]], "label")[:, 0]
    _, y_pred = predict_batch(model, table)
    return metrics_from_confusion(*confusion_counts(y_true, y_pred))


def split_ids(
    ids: Sequence[str], seed: int, train_fraction: float = 0.8
) -> tuple[list[str], list[str]]:
    """Deterministic train/test partition of video ids, sorted for output."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate ids")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(ids))
    n_train = int(round(train_fraction * len(ids)))
    if len(ids) >= 2:
        n_train = min(max(n_train, 1), len(ids) - 1)
    train = sorted(ids[i] for i in perm[:n_train])
    test = sorted(ids[i] for i in perm[n_train:])
    return train, test


def simulate_design(
    spec: FeatureSpec,
    coefficients: Mapping[str, float],
    intercept: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a labeled design from known coefficients.

    Continuous features are standard normal and binary features are fair
    Bernoulli draws; labels follow the implied sigmoid probabilities.
    Features absent from ``coefficients`` get weight zero.
    """
    X = np.empty((n, len(spec.features)))
    for j, name in enumerate(spec.features):
        if name in BINARY_FEATURES:
            X[:, j] = rng.binomial(1, 0.5, size=n)
        else:
            X[:, j] = rng.standard_normal(n)
    beta = np.asarray([coefficients.get(name, 0.0)
                       for name in spec.features])
    p = sigmoid(intercept + X @ beta)
    y = (rng.random(n) < p).astype(float)
    return X, y


def _format_cell(value: float) -> str:
    """TSV cell text of a Python float: empty for NaN, a bare int when
    integral, else its repr."""
    if value != value:
        return ""
    if value.is_integer():
        return str(int(value))
    return repr(value)


def write_features_tsv(table: FeatureTable, path) -> None:
    """The table as TSV: a ``video_id`` column, then one per column."""
    write_tsv(path, ("video_id", *table.columns), (
        [vid, *map(_format_cell, row)]
        for vid, row in zip(table.ids, table.values.tolist())
    ))


def read_features_tsv(path, header: Sequence[str] = FEATURES_HEADER
                      ) -> FeatureTable:
    """The table written with ``header``. An empty cell reads as NaN; a
    cell that is no number or breaks its column's rule raises ValueError
    naming the file, the line and the cell."""
    lines = read_table(path, header)
    values = np.empty((len(lines), len(header) - 1))
    for i, (lineno, cells) in enumerate(lines):
        try:
            values[i] = [float(c) if c else math.nan for c in cells[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    # A NaN spelled out, not empty, is made infinite: every rule refuses it.
    for i, j in np.argwhere(np.isnan(values)):
        if lines[i][1][j + 1]:
            values[i, j] = math.inf
    try:
        return FeatureTable(tuple(cells[0] for _, cells in lines),
                            tuple(header[1:]), values)
    except CellError as exc:
        lineno, cells = lines[exc.row]
        raise ValueError(f"{path}:{lineno}: {exc.rule}, "
                         f"got {cells[exc.column + 1]!r}") from None


CLF_FORMAT_NAME = "vidtriage-classifier"


def save_lr_model(path, model: LrModel) -> None:
    save_json_model(path, CLF_FORMAT_NAME, {
        "target": model.spec.name,
        "features": list(model.spec.features),
        "scaler": {
            "means": list(model.scaler.means),
            "stds": list(model.scaler.stds),
        },
        "intercept": model.intercept,
        "coefficients": model.coefficients.tolist(),
        "standard_errors": model.standard_errors.tolist(),
        "p_values": model.p_values.tolist(),
        "l2": model.l2,
        "train_meta": model.train_meta,
    })


def _build_lr_model(doc: dict) -> LrModel:
    spec = FeatureSpec(doc["target"], tuple(doc["features"]))
    k = len(spec.features)
    means = finite_array(doc["scaler"]["means"], "scaler.means", (k,))
    stds = finite_array(doc["scaler"]["stds"], "scaler.stds", (k,))
    return LrModel(
        spec=spec,
        scaler=Scaler(spec.features, tuple(means.tolist()),
                      tuple(stds.tolist())),
        intercept=float(finite_array(doc["intercept"], "intercept", ())),
        coefficients=finite_array(doc["coefficients"], "coefficients", (k,)),
        standard_errors=finite_array(doc["standard_errors"],
                                     "standard_errors", (k + 1,)),
        p_values=finite_array(doc["p_values"], "p_values", (k + 1,)),
        l2=float(doc["l2"]),
        train_meta=doc.get("train_meta") or {},
    )


def load_lr_model(path) -> LrModel:
    return load_json_model(path, CLF_FORMAT_NAME, _build_lr_model)
