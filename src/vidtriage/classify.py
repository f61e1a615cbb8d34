"""Per-video feature assembly and logistic-regression triage models.

Three binary classifiers share one 25-field feature vector: medical
information level uses 18 metadata-plus-text features, understandability
uses the 11 video-level features, and recommendation uses everything,
including the other two annotation labels. That last choice means the
recommendation model conditions on human annotations at predict time,
so its scores are not label-free. Features are z-scored before fitting
(binaries pass through), the regularized Bernoulli log-likelihood is
maximized by damped Newton steps, and coefficient significance comes from
Wald tests against the same observed information matrix.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from .corpus import CorpusStore
from .seqtag.metrics import TagMetrics
from .textfeat import Lexicon, TextFeatures, extract_text_features
from .tsv import read_tsv, write_tsv

BINARY_FEATURES = frozenset({
    "has_title", "has_description", "has_tags",
    "medical_info_high", "understandable",
})

_CONFIDENCE_FEATURES = (
    "ocr_confidence", "transcription_confidence", "shot_change_confidence",
)

# Readability can be negative; every other continuous feature is a count.
_SIGNED_FEATURES = frozenset({"readability_v", "readability_m"})


class ConvergenceError(RuntimeError):
    """Raised when the optimizer cannot reach the gradient tolerance."""


@dataclass(frozen=True)
class FeatureVector:
    """One video's classifier inputs plus, when annotated, its labels.

    ``medical_info_high`` and ``understandable`` double as features of the
    recommendation model; ``recommended`` is only ever a label. All three
    are None for unannotated videos.
    """

    video_id: str
    ocr_confidence: float = 0.0
    n_active_verbs_v: float = 0.0
    readability_v: float = 0.0
    n_sentences_v: float = 0.0
    n_shots: float = 0.0
    shot_change_confidence: float = 0.0
    n_summary_words_v: float = 0.0
    transcription_confidence: float = 0.0
    n_transition_words_v: float = 0.0
    n_words_v: float = 0.0
    n_unique_words_v: float = 0.0
    has_title: int = 0
    has_description: int = 0
    has_tags: int = 0
    readability_m: float = 0.0
    n_sentences_m: float = 0.0
    n_words_m: float = 0.0
    n_unique_words_m: float = 0.0
    n_transition_words_m: float = 0.0
    n_summary_words_m: float = 0.0
    n_active_verbs_m: float = 0.0
    duration_s: float = 0.0
    n_unique_medical_terms: float = 0.0
    medical_info_high: Optional[int] = None
    understandable: Optional[int] = None
    recommended: Optional[int] = None

    def __post_init__(self):
        for name in _CONFIDENCE_FEATURES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in BINARY_FEATURES | {"recommended"}:
            value = getattr(self, name)
            if value is not None and value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")
        for name in FEATURE_NAMES:
            if name in BINARY_FEATURES or name in _SIGNED_FEATURES:
                continue
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    def get(self, name: str):
        if name not in FEATURE_NAMES:
            raise KeyError(name)
        return getattr(self, name)


# The feature table has one column per FeatureVector field, in field
# order; the classifier inputs are all of them but the id and the
# recommendation label.
FEATURES_HEADER: tuple[str, ...] = tuple(
    f.name for f in fields(FeatureVector)
)
FEATURE_NAMES: tuple[str, ...] = tuple(
    n for n in FEATURES_HEADER if n not in ("video_id", "recommended")
)


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


TARGETS = ("medical_info", "understandability", "recommendation")

TARGET_FIELDS = {
    "medical_info": "medical_info_high",
    "understandability": "understandable",
    "recommendation": "recommended",
}

_VIDEO_LEVEL = (
    "ocr_confidence", "n_active_verbs_v", "readability_v", "n_sentences_v",
    "n_shots", "shot_change_confidence", "n_summary_words_v",
    "transcription_confidence", "n_transition_words_v", "n_words_v",
    "n_unique_words_v",
)

FEATURE_SPECS: dict[str, FeatureSpec] = {
    "recommendation": FeatureSpec("recommendation", (
        "medical_info_high", "understandable",
        *_VIDEO_LEVEL,
        "has_title", "has_description", "has_tags",
        "n_unique_medical_terms",
        "readability_m", "n_sentences_m", "n_words_m", "n_unique_words_m",
        "n_transition_words_m", "n_summary_words_m", "n_active_verbs_m",
        "duration_s",
    )),
    "medical_info": FeatureSpec("medical_info", (
        "has_title", "has_description", "has_tags",
        "n_unique_medical_terms",
        "readability_m", "n_sentences_m", "n_words_m", "n_unique_words_m",
        "n_transition_words_m", "n_summary_words_m", "n_active_verbs_m",
        "duration_s",
        "n_transition_words_v", "n_words_v", "n_unique_words_v",
        "n_active_verbs_v", "readability_v", "n_sentences_v",
    )),
    "understandability": FeatureSpec("understandability", _VIDEO_LEVEL),
}

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


@dataclass(frozen=True)
class VideoTextBlocks:
    """Text features computed separately for transcript and metadata text."""

    video: TextFeatures
    meta: TextFeatures


def compute_text_features(
    store: CorpusStore,
    transition_lex: Lexicon,
    summary_lex: Lexicon,
    verb_lex: Lexicon,
) -> dict[str, VideoTextBlocks]:
    """Per-video text feature blocks for every video in the store.

    The video-level block reads the transcript text (empty when the video
    has none); the metadata block reads the title and description.
    """
    out: dict[str, VideoTextBlocks] = {}
    for vid, video in store.videos.items():
        tdoc = store.transcripts.get(vid)
        video_text = tdoc.text if tdoc is not None else ""
        meta_text = f"{video.title}\n{video.description}"
        out[vid] = VideoTextBlocks(
            video=extract_text_features(
                video_text, transition_lex, summary_lex, verb_lex
            ),
            meta=extract_text_features(
                meta_text, transition_lex, summary_lex, verb_lex
            ),
        )
    return out


# Every feature computable from the documents alone: no tagger output,
# no annotation labels. This is the roster of the featurize-stage TSV.
DOC_FEATURE_NAMES: tuple[str, ...] = FEATURE_NAMES[:22]


def doc_feature_records(
    store: CorpusStore,
    text_blocks: Mapping[str, VideoTextBlocks],
) -> dict[str, dict[str, float]]:
    """Document-level feature values for every video in the store."""
    out: dict[str, dict[str, float]] = {}
    for vid, video in store.videos.items():
        if vid not in text_blocks:
            raise ValueError(f"video {vid!r} has no text features")
        blocks = text_blocks[vid]
        tdoc = store.transcripts.get(vid)
        odoc = store.ocr.get(vid)
        v, m = blocks.video, blocks.meta
        out[vid] = {
            "ocr_confidence": odoc.confidence if odoc is not None else 0.0,
            "n_active_verbs_v": float(v.active_verb_count),
            "readability_v": v.readability,
            "n_sentences_v": float(v.sentence_count),
            "n_shots": float(odoc.shot_count) if odoc is not None else 0.0,
            "shot_change_confidence": (
                odoc.shot_change_confidence if odoc is not None else 0.0
            ),
            "n_summary_words_v": float(v.summary_word_count),
            "transcription_confidence": (
                tdoc.confidence if tdoc is not None else 0.0
            ),
            "n_transition_words_v": float(v.transition_word_count),
            "n_words_v": float(v.word_count),
            "n_unique_words_v": float(v.unique_word_count),
            "has_title": float(bool(video.title.strip())),
            "has_description": float(bool(video.description.strip())),
            "has_tags": float(len(video.tags) > 0),
            "readability_m": m.readability,
            "n_sentences_m": float(m.sentence_count),
            "n_words_m": float(m.word_count),
            "n_unique_words_m": float(m.unique_word_count),
            "n_transition_words_m": float(m.transition_word_count),
            "n_summary_words_m": float(m.summary_word_count),
            "n_active_verbs_m": float(m.active_verb_count),
            "duration_s": float(video.duration_s),
        }
    return out


def assemble_from_records(
    store: CorpusStore,
    records: Mapping[str, Mapping[str, float]],
    ner_counts: Mapping[str, int],
) -> list[FeatureVector]:
    """One FeatureVector per labeled video, sorted by id: document feature
    records (see ``doc_feature_records``) joined with tagger term counts
    and labels."""
    rows = []
    for vid in store.labeled_ids():
        if vid not in store.videos:
            raise ValueError(f"labeled video {vid!r} has no metadata record")
        if vid not in records:
            raise ValueError(f"labeled video {vid!r} has no text features")
        record = records[vid]
        labels = store.labels[vid]
        kwargs: dict = {"video_id": vid}
        for name in DOC_FEATURE_NAMES:
            if name in BINARY_FEATURES:
                kwargs[name] = int(record[name])
            else:
                kwargs[name] = float(record[name])
        rows.append(FeatureVector(
            n_unique_medical_terms=float(ner_counts.get(vid, 0)),
            medical_info_high=labels.medical_info_high,
            understandable=labels.understandable,
            recommended=labels.recommended,
            **kwargs,
        ))
    return rows


def rows_to_matrix(
    rows: Sequence[FeatureVector], spec: FeatureSpec
) -> np.ndarray:
    """Raw design matrix in spec order; a None feature value is an error."""
    matrix = np.empty((len(rows), len(spec.features)))
    for i, row in enumerate(rows):
        for j, name in enumerate(spec.features):
            value = getattr(row, name)
            if value is None:
                raise ValueError(
                    f"video {row.video_id!r}: missing feature {name!r}"
                )
            matrix[i, j] = value
    return matrix


def target_vector(rows: Sequence[FeatureVector], target: str) -> np.ndarray:
    field = TARGET_FIELDS[target]
    values = []
    for row in rows:
        value = getattr(row, field)
        if value is None:
            raise ValueError(
                f"video {row.video_id!r}: missing label {field!r}"
            )
        values.append(float(value))
    return np.asarray(values)


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
    passes through, with a warning, so it cannot blow up the scaling.
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
            warnings.warn(
                f"feature {name!r} has zero variance; passed through unscaled"
            )
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
    p = expit(z)
    grad = Xa.T @ (y - p) / len(y)
    obj = loglik - l2 * float(np.sum(beta[1:] ** 2))
    grad[1:] -= 2.0 * l2 * beta[1:]
    return obj, grad


def _information(Xa: np.ndarray, beta: np.ndarray, l2: float) -> np.ndarray:
    """Xa' W Xa + 2 n l2 D at ``beta``, W = diag(p(1-p)) and D the identity
    but zero for the intercept: minus the Hessian of the summed objective."""
    p = expit(Xa @ beta)
    ridge = np.full(len(beta), 2.0 * len(Xa) * l2)
    ridge[0] = 0.0
    return Xa.T @ (Xa * (p * (1.0 - p))[:, None]) + np.diag(ridge)


def fit_logreg(
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> tuple[np.ndarray, dict]:
    """Maximize the regularized log-likelihood by damped Newton steps.

    Each step is halved until it gives a sufficient increase or still
    ends uphill, so the objective never decreases. Stops when the gradient
    norm reaches ``tol``; a stalled line search or more than ``max_iter``
    steps raise ConvergenceError.
    """
    if (isinstance(l2, bool) or not isinstance(l2, numbers.Real)
            or not 0 <= l2 < np.inf):
        raise ValueError(
            f"l2 must be a finite non-negative number, got {l2!r}"
        )
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
    for iteration in range(max_iter + 1):
        norm = float(np.linalg.norm(grad))
        if norm <= tol:
            return beta, {"iterations": iteration, "grad_norm": norm,
                          "objective": obj}
        if iteration == max_iter:
            raise ConvergenceError(f"no convergence in {max_iter} "
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
    scaler: Optional[Scaler] = None,
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
    if scaler is None:
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
    return se, 2.0 * norm.sf(np.abs(beta / se))


def format_pvalue(p: float) -> str:
    """Threshold formatting: '<0.01', '<0.05', else three decimals."""
    if p < 0.01:
        return "<0.01"
    if p < 0.05:
        return "<0.05"
    return f"{p:.3f}"


def predict_batch(
    model: LrModel, rows: Sequence[FeatureVector]
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and 0/1 labels (threshold 0.5, ties classified 1)."""
    X = rows_to_matrix(rows, model.spec)
    Xs = standardize_apply(model.scaler, X)
    p = expit(model.intercept + Xs @ model.coefficients)
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


def evaluate(model: LrModel, rows: Sequence[FeatureVector]) -> ClfMetrics:
    """Score the model's own target on held-out rows."""
    if len(rows) == 0:
        raise ValueError("empty test set")
    y_true = target_vector(rows, model.spec.name)
    _, y_pred = predict_batch(model, rows)
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
    p = expit(intercept + X @ beta)
    y = (rng.random(n) < p).astype(float)
    return X, y


def format_cell(value) -> str:
    """TSV cell text: empty for None, bare int when integral, else repr."""
    if value is None:
        return ""
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def write_features_tsv(rows: Sequence[FeatureVector], path) -> None:
    """Feature matrix as TSV: id column, 25 features, recommended label."""
    write_tsv(path, FEATURES_HEADER, (
        [row.video_id] + [format_cell(getattr(row, n))
                          for n in FEATURES_HEADER[1:]]
        for row in rows
    ))


def _parse_feature_row(cells: list[str]) -> FeatureVector:
    kwargs: dict = {"video_id": cells[0]}
    for name, cell in zip(FEATURES_HEADER[1:], cells[1:]):
        if cell == "":
            if name not in TARGET_FIELDS.values():
                raise ValueError(f"empty value for {name!r}")
            kwargs[name] = None
        elif name in BINARY_FEATURES or name == "recommended":
            kwargs[name] = int(float(cell))
        else:
            kwargs[name] = float(cell)
    return FeatureVector(**kwargs)


def read_features_tsv(path) -> list[FeatureVector]:
    return read_tsv(path, FEATURES_HEADER, _parse_feature_row)


CLF_FORMAT_NAME = "vidtriage-classifier"
CLF_FORMAT_VERSION = 1


def save_lr_model(path, model: LrModel) -> None:
    doc = {
        "format": CLF_FORMAT_NAME,
        "format_version": CLF_FORMAT_VERSION,
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
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_lr_model(path) -> LrModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CLF_FORMAT_NAME:
        raise ValueError(f"{path}: not a {CLF_FORMAT_NAME} file")
    if doc.get("format_version") != CLF_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version "
            f"{doc.get('format_version')!r}"
        )
    spec = FeatureSpec(doc["target"], tuple(doc["features"]))
    scaler = Scaler(
        spec.features,
        tuple(float(v) for v in doc["scaler"]["means"]),
        tuple(float(v) for v in doc["scaler"]["stds"]),
    )
    coeffs = np.asarray(doc["coefficients"], dtype=float)
    se = np.asarray(doc["standard_errors"], dtype=float)
    p = np.asarray(doc["p_values"], dtype=float)
    if len(coeffs) != len(spec.features):
        raise ValueError(f"{path}: coefficient count mismatch")
    if len(se) != len(coeffs) + 1 or len(p) != len(coeffs) + 1:
        raise ValueError(f"{path}: inference vector length mismatch")
    return LrModel(
        spec=spec,
        scaler=scaler,
        intercept=float(doc["intercept"]),
        coefficients=coeffs,
        standard_errors=se,
        p_values=p,
        l2=float(doc["l2"]),
        train_meta=doc.get("train_meta") or {},
    )
