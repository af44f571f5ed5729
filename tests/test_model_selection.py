"""Tests for the parallel, instrumented model-selection runtime
(GridSearchCV and cross_validate)."""

import numpy as np
import pytest

from repro.core import (
    EventLog,
    GridSearchCV,
    KFold,
    NotFittedError,
    ParameterGrid,
    Pipeline,
    StandardScaler,
    StratifiedKFold,
    clone,
    complexity_curve,
    cross_validate,
    learning_curve,
)
from repro.kernels import RBFKernel
from repro.learn import SVC, KNeighborsClassifier, LogisticRegression
from repro.learn import RidgeRegressor


def svc_pipeline():
    return Pipeline(
        [
            ("scale", StandardScaler()),
            ("svc", SVC(kernel=RBFKernel(1.0), random_state=0)),
        ]
    )


PIPELINE_GRID = {
    "svc__C": [0.5, 2.0],
    "svc__kernel__gamma": [0.1, 1.0],
}


class TestParameterGrid:
    def test_cartesian_product_order(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y"]})
        assert list(grid) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert len(grid) == 4

    def test_list_of_grids_concatenated(self):
        grid = ParameterGrid([{"a": [1]}, {"b": [2, 3]}])
        assert list(grid) == [{"a": 1}, {"b": 2}, {"b": 3}]
        assert len(grid) == 3

    def test_scalar_values_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            ParameterGrid({"a": 3})


class TestCrossValidate:
    def test_per_fold_scores_and_timings(self, blobs):
        X, y = blobs
        cv = KFold(4, shuffle=True, random_state=0)
        model = KNeighborsClassifier(n_neighbors=3)
        out = cross_validate(model, X, y, cv=cv)
        expected = []
        for train, test in cv.split(X):
            fold_model = clone(model)
            fold_model.fit(X[train], y[train])
            expected.append(float(fold_model.score(X[test], y[test])))
        np.testing.assert_array_equal(out["test_score"], expected)
        assert out["fit_seconds"].shape == (4,)
        assert np.all(out["fit_seconds"] >= 0)

    def test_return_train_score(self, blobs):
        X, y = blobs
        out = cross_validate(
            KNeighborsClassifier(n_neighbors=1), X, y,
            cv=KFold(3), return_train_score=True,
        )
        # 1-NN memorizes its training set
        assert np.all(out["train_score"] == 1.0)

    def test_stratified_cv_supported(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        X[:12] += 4.0
        y = np.array([1] * 12 + [0] * 48)
        out = cross_validate(
            LogisticRegression(max_iter=200), X, y,
            cv=StratifiedKFold(3),
        )
        assert out["test_score"].shape == (3,)

    def test_event_log_gets_fold_spans(self, blobs):
        X, y = blobs
        log = EventLog()
        cross_validate(
            KNeighborsClassifier(n_neighbors=3), X, y,
            cv=KFold(4), event_log=log,
        )
        fits = log.spans("fit")
        assert [s.meta["fold"] for s in fits] == [0, 1, 2, 3]
        assert all(s.gram is not None for s in fits)
        assert len(log.spans("score")) == 4

    def test_backends_agree(self, blobs):
        X, y = blobs
        cv = KFold(4, shuffle=True, random_state=1)
        model = KNeighborsClassifier(n_neighbors=3)
        serial = cross_validate(model, X, y, cv=cv)["test_score"]
        for backend in ("thread", "process"):
            scores = cross_validate(
                model, X, y, cv=cv, backend=backend, n_workers=2
            )["test_score"]
            np.testing.assert_array_equal(scores, serial)


class TestGridSearchCV:
    def test_nested_pipeline_and_kernel_params_searched(self, blobs):
        X, y = blobs
        search = GridSearchCV(
            svc_pipeline(), PIPELINE_GRID, cv=KFold(3)
        ).fit(X, y)
        assert set(search.best_params_) == {
            "svc__C", "svc__kernel__gamma",
        }
        assert search.best_score_ > 0.9
        # the refit winner carries the chosen nested configuration
        svc = search.best_estimator_.named_steps.svc
        assert svc.C == search.best_params_["svc__C"]
        assert svc.kernel.gamma == search.best_params_["svc__kernel__gamma"]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_bitwise_identical(self, blobs, backend):
        X, y = blobs
        serial = GridSearchCV(
            svc_pipeline(), PIPELINE_GRID, cv=KFold(3), backend="serial"
        ).fit(X, y)
        other = GridSearchCV(
            svc_pipeline(), PIPELINE_GRID, cv=KFold(3), backend=backend,
            n_workers=2,
        ).fit(X, y)
        assert other.best_params_ == serial.best_params_
        assert other.best_score_ == serial.best_score_
        np.testing.assert_array_equal(
            other.cv_results_["fold_test_scores"],
            serial.cv_results_["fold_test_scores"],
        )

    def test_cv_results_structure(self, blobs):
        X, y = blobs
        search = GridSearchCV(
            KNeighborsClassifier(),
            {"n_neighbors": [1, 3, 5]},
            cv=KFold(4),
        ).fit(X, y)
        results = search.cv_results_
        assert len(results["params"]) == 3
        assert results["fold_test_scores"].shape == (3, 4)
        assert results["rank_test_score"][search.best_index_] == 1
        assert results["mean_fit_seconds"].shape == (3,)
        assert search.n_splits_ == 4

    def test_rank_ties_break_on_first_candidate(self, blobs):
        X, y = blobs
        # both candidates score identically on separable blobs
        search = GridSearchCV(
            KNeighborsClassifier(),
            {"n_neighbors": [3, 5]},
            cv=KFold(3),
        ).fit(X, y)
        if (
            search.cv_results_["mean_test_score"][0]
            == search.cv_results_["mean_test_score"][1]
        ):
            assert search.best_index_ == 0

    def test_search_is_an_estimator_after_refit(self, blobs):
        X, y = blobs
        search = GridSearchCV(
            svc_pipeline(), {"svc__C": [1.0]}, cv=KFold(3)
        ).fit(X, y)
        assert search.predict(X).shape == (len(X),)
        assert search.decision_function(X).shape == (len(X),)
        assert search.score(X, y) > 0.9

    def test_unfitted_or_unrefit_search_raises(self, blobs):
        X, y = blobs
        with pytest.raises(NotFittedError):
            GridSearchCV(svc_pipeline(), {"svc__C": [1.0]}).predict(X)
        search = GridSearchCV(
            svc_pipeline(), {"svc__C": [1.0]}, cv=KFold(3), refit=False
        ).fit(X, y)
        assert not hasattr(search, "best_estimator_")
        with pytest.raises(NotFittedError):
            search.predict(X)

    def test_custom_scorer(self, linear_regression_data):
        X, y = linear_regression_data
        search = GridSearchCV(
            RidgeRegressor(),
            {"alpha": [1e-6, 10.0]},
            cv=KFold(3),
            scorer=lambda t, p: -float(np.mean((t - p) ** 2)),
        ).fit(X, y)
        assert search.best_params_ == {"alpha": 1e-6}

    def test_empty_grid_rejected(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError, match="no candidates"):
            GridSearchCV(
                KNeighborsClassifier(), {"n_neighbors": []}
            ).fit(X, y)

    def test_event_log_traces_candidates(self, blobs):
        X, y = blobs
        log = EventLog()
        GridSearchCV(
            svc_pipeline(), PIPELINE_GRID, cv=KFold(3), event_log=log
        ).fit(X, y)
        fits = [s for s in log.spans("fit") if "candidate" in s.meta]
        assert len(fits) == 4 * 3  # candidates x folds
        assert all("params" in s.meta for s in fits)
        (search_span,) = log.spans("search")
        assert search_span.meta["n_candidates"] == 4
        assert search_span.gram is not None
        assert len(log.spans("refit")) == 1

    def test_search_object_cloneable(self):
        from repro.core import clone

        search = GridSearchCV(
            svc_pipeline(), PIPELINE_GRID, cv=KFold(3), backend="thread"
        )
        copy = clone(search)
        assert copy.param_grid == search.param_grid
        assert copy.backend == "thread"
        assert copy.estimator is not search.estimator


class TestCurveBackends:
    def test_complexity_curve_backend_equivalence(self, blobs):
        X, y = blobs
        serial = complexity_curve(
            lambda: KNeighborsClassifier(), "n_neighbors", [1, 3, 5],
            X, y, X, y,
        )
        threaded = complexity_curve(
            lambda: KNeighborsClassifier(), "n_neighbors", [1, 3, 5],
            X, y, X, y, backend="thread", n_workers=2,
        )
        assert threaded.rows() == serial.rows()

    def test_learning_curve_backend_equivalence(self, blobs):
        X, y = blobs
        kwargs = dict(
            sizes=[20, 40, 60], X_val=X, y_val=y, random_state=0
        )
        serial = learning_curve(
            KNeighborsClassifier(n_neighbors=3), X, y, **kwargs
        )
        threaded = learning_curve(
            KNeighborsClassifier(n_neighbors=3), X, y,
            backend="thread", n_workers=2, **kwargs,
        )
        assert threaded.rows() == serial.rows()
