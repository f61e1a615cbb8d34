"""
Logistic-regression classifiers with Wald p-values
==================================================

Simulates a video feature matrix from known coefficients, refits the
recommendation classifier, and prints the coefficient table with Wald
p-values plus held-out classification metrics.
"""

import numpy as np

import vidtriage.classify as clf
from vidtriage.numeric import sigmoid

spec = clf.FEATURE_SPECS["recommendation"]
print("feature sets:", {name: len(s.features)
                        for name, s in clf.FEATURE_SPECS.items()})

# Simulate 2000 videos from the published-style coefficient profile.
rng = np.random.default_rng(7)
X, y = clf.simulate_design(
    spec, clf.SIM_RECOMMENDATION_COEFFS,
    intercept=clf.SIM_RECOMMENDATION_INTERCEPT, n=2000, rng=rng,
)
print("simulated:", X.shape, "positives:", int(y.sum()))

# The fit standardizes features, takes damped Newton steps, and attaches
# Wald standard errors from the same observed information matrix.
model = clf.train_logreg(X, y, spec=spec)
print("iterations:", model.train_meta["iterations"])

# Biggest recovered effects, with p-values in the reporting format.
# p_values[0] belongs to the intercept, so feature j reads slot j + 1.
order = np.argsort(-np.abs(model.coefficients))[:8]
print(f"{'feature':28s} {'beta':>6s}  p")
for j in order:
    name = spec.features[j]
    p_text = clf.format_pvalue(model.p_values[j + 1])
    print(f"{name:28s} {model.coefficients[j]:6.2f}  {p_text}")

# Evaluate on a fresh draw: confusion counts and per-class metrics.
X_new, y_new = clf.simulate_design(
    spec, clf.SIM_RECOMMENDATION_COEFFS,
    intercept=clf.SIM_RECOMMENDATION_INTERCEPT, n=500,
    rng=np.random.default_rng(8),
)
Xs = clf.standardize_apply(model.scaler, X_new)
p = sigmoid(model.intercept + Xs @ model.coefficients)
metrics = clf.metrics_from_confusion(
    *clf.confusion_counts(y_new, (p >= 0.5).astype(int))
)
print(f"held out: accuracy={metrics.accuracy:.3f} "
      f"F+={metrics.positive.f_measure:.3f} "
      f"F-={metrics.negative.f_measure:.3f}")
