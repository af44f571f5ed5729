"""Tests for model selection: splits, CV, grid search, Fig. 5 curves."""

import numpy as np
import pytest

from repro.core import (
    GridSearchCV,
    KFold,
    StratifiedKFold,
    complexity_curve,
    cross_validate,
    train_test_split,
)
from repro.learn import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    RidgeRegressor,
)


class TestTrainTestSplit:
    def test_sizes(self, blobs):
        X, y = blobs
        X_tr, X_te, y_tr, y_te = train_test_split(
            X, y, test_fraction=0.25, random_state=0
        )
        assert len(X_te) == 20
        assert len(X_tr) == 60
        assert len(X_tr) == len(y_tr)

    def test_unsupervised_form(self, blobs):
        X, _ = blobs
        X_tr, X_te = train_test_split(X, test_fraction=0.5, random_state=0)
        assert len(X_tr) + len(X_te) == len(X)

    def test_disjoint(self, blobs):
        X, y = blobs
        X_tr, X_te, *_ = train_test_split(X, y, random_state=3)
        train_rows = {tuple(row) for row in X_tr}
        test_rows = {tuple(row) for row in X_te}
        assert not train_rows & test_rows

    def test_rejects_bad_fraction(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            train_test_split(X, y, test_fraction=0.0)


class TestKFold:
    def test_covers_all_indices_once(self):
        folds = list(KFold(n_splits=4).split(np.zeros(10)))
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(10))

    def test_train_test_disjoint_per_fold(self):
        for train, test in KFold(n_splits=3).split(np.zeros(9)):
            assert not set(train) & set(test)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(np.zeros(3)))

    def test_shuffle_is_seeded(self):
        a = [t.tolist() for _, t in
             KFold(3, shuffle=True, random_state=1).split(np.zeros(9))]
        b = [t.tolist() for _, t in
             KFold(3, shuffle=True, random_state=1).split(np.zeros(9))]
        assert a == b


class TestStratifiedKFold:
    def test_preserves_class_ratio(self):
        y = np.array([0] * 40 + [1] * 10)
        for _, test in StratifiedKFold(n_splits=5).split(np.zeros(50), y):
            labels = y[test]
            assert np.sum(labels == 1) == 2

    def test_rejects_n_splits_one(self):
        with pytest.raises(ValueError):
            StratifiedKFold(n_splits=1)


class TestCrossValScore:
    def test_scores_high_on_separable_data(self, blobs):
        X, y = blobs
        scores = cross_validate(
            KNeighborsClassifier(n_neighbors=3), X, y, cv=KFold(4, shuffle=True, random_state=0)
        )["test_score"]
        assert len(scores) == 4
        assert scores.mean() > 0.9

    def test_custom_scorer(self, linear_regression_data):
        X, y = linear_regression_data
        scores = cross_validate(
            RidgeRegressor(alpha=1e-6),
            X,
            y,
            scorer=lambda t, p: -float(np.mean(np.abs(t - p))),
        )["test_score"]
        assert np.all(scores <= 0)
        assert scores.mean() > -0.1


class TestComplexityCurve:
    def test_depth_sweep_shows_fig5_shape(self, rng):
        # noisy labels: deep trees memorize noise -> validation error rises
        X = rng.uniform(-1, 1, size=(300, 2))
        y = (X[:, 0] > 0).astype(int)
        flip = rng.uniform(size=300) < 0.25
        y_noisy = np.where(flip, 1 - y, y)
        X_val = rng.uniform(-1, 1, size=(200, 2))
        y_val = (X_val[:, 0] > 0).astype(int)
        curve = complexity_curve(
            lambda: DecisionTreeClassifier(random_state=0),
            "max_depth",
            [1, 3, 6, 10, 14],
            X,
            y_noisy,
            X_val,
            y_val,
        )
        # training error decreases monotonically with capacity
        assert curve.train_errors[-1] <= curve.train_errors[0]
        # validation error is minimized at low complexity
        assert curve.best_value() <= 6
        assert curve.overfitting_detected()

    def test_rows_align(self, blobs):
        X, y = blobs
        curve = complexity_curve(
            lambda: KNeighborsClassifier(),
            "n_neighbors",
            [1, 5],
            X, y, X, y,
        )
        rows = curve.rows()
        assert len(rows) == 2
        assert rows[0][0] == 1


class TestGridSearch:
    def test_finds_reasonable_k(self, blobs):
        X, y = blobs
        search = GridSearchCV(
            KNeighborsClassifier(),
            {"n_neighbors": [1, 3, 5], "weights": ["uniform", "distance"]},
            cv=KFold(4, shuffle=True, random_state=0),
            refit=False,
        ).fit(X, y)
        assert search.best_score_ > 0.9
        assert len(search.cv_results_["params"]) == 6
        assert search.best_params_["n_neighbors"] in (1, 3, 5)
