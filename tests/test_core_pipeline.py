"""Tests for the Pipeline utility."""

import numpy as np
import pytest

from repro.core import NotFittedError, Pipeline, StandardScaler
from repro.core.validation import cross_validate
from repro.learn import SVC, LogisticRegression, SelectKBest
from repro.kernels import RBFKernel
from repro.transform import PCA


class TestPipelineBasics:
    def test_scale_then_classify(self, blobs):
        X, y = blobs
        X_scaled_away = X * np.array([1e-6, 1e6])  # pathological scales
        pipeline = Pipeline(
            [
                ("scale", StandardScaler()),
                ("svm", SVC(kernel=RBFKernel(0.5), random_state=0)),
            ]
        )
        pipeline.fit(X_scaled_away, y)
        assert pipeline.score(X_scaled_away, y) > 0.95

    def test_transformers_see_transformed_data(self, blobs):
        X, y = blobs
        pipeline = Pipeline(
            [
                ("scale", StandardScaler()),
                ("pca", PCA(n_components=1)),
                ("clf", LogisticRegression(max_iter=400)),
            ]
        )
        pipeline.fit(X, y)
        # the chain's transform is 1-D after PCA
        assert pipeline.fitted_steps_[1][1].components_.shape == (1, 2)

    def test_supervised_transformer_receives_y(self, rng):
        X = rng.normal(size=(150, 6))
        y = (X[:, 4] > 0).astype(int)
        pipeline = Pipeline(
            [
                ("select", SelectKBest(k=1)),
                ("clf", LogisticRegression(max_iter=400)),
            ]
        )
        pipeline.fit(X, y)
        assert pipeline.fitted_steps_[0][1].selected_indices_[0] == 4
        assert pipeline.score(X, y) > 0.9

    def test_predict_before_fit_raises(self, blobs):
        X, _ = blobs
        pipeline = Pipeline([("scale", StandardScaler())])
        with pytest.raises(NotFittedError):
            pipeline.transform(X)

    def test_unique_step_names_required(self):
        with pytest.raises(ValueError):
            Pipeline([("a", StandardScaler()), ("a", StandardScaler())])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_named_steps_access(self, blobs):
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("clf", LogisticRegression())]
        )
        assert isinstance(pipeline.named_steps["scale"], StandardScaler)


class TestPipelineParams:
    def _pipeline(self):
        return Pipeline(
            [("scale", StandardScaler()),
             ("clf", LogisticRegression(max_iter=100))]
        )

    def test_deep_params_reach_into_steps(self):
        params = self._pipeline().get_params(deep=True)
        assert params["clf__max_iter"] == 100
        assert isinstance(params["scale"], StandardScaler)

    def test_set_step_param_by_nested_name(self):
        pipeline = self._pipeline()
        pipeline.set_params(clf__max_iter=250)
        assert pipeline.named_steps.clf.max_iter == 250

    def test_set_doubly_nested_kernel_param(self):
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("svc", SVC(kernel=RBFKernel(0.5), random_state=0))]
        )
        pipeline.set_params(svc__kernel__gamma=4.0)
        assert pipeline.named_steps.svc.kernel.gamma == 4.0

    def test_replace_whole_step(self):
        pipeline = self._pipeline()
        replacement = LogisticRegression(max_iter=999)
        pipeline.set_params(clf=replacement)
        assert pipeline.named_steps.clf is replacement
        assert [name for name, _ in pipeline.steps] == ["scale", "clf"]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            self._pipeline().set_params(missing=1)

    def test_named_steps_attribute_access(self):
        pipeline = self._pipeline()
        assert isinstance(pipeline.named_steps.scale, StandardScaler)
        with pytest.raises(AttributeError, match="no step named"):
            pipeline.named_steps.nope

    def test_clone_roundtrip(self):
        from repro.core import clone

        pipeline = self._pipeline()
        copy = clone(pipeline)
        assert copy == pipeline
        assert copy.named_steps.clf is not pipeline.named_steps.clf


class TestPipelinePassthrough:
    def test_predict_proba_and_decision_function(self, blobs):
        X, y = blobs
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("clf", LogisticRegression(max_iter=300))]
        ).fit(X, y)
        proba = pipeline.predict_proba(X)
        X_scaled = pipeline.fitted_steps_[0][1].transform(X)
        np.testing.assert_array_equal(
            proba, pipeline.final_estimator_.predict_proba(X_scaled)
        )
        assert np.all((proba >= 0) & (proba <= 1))
        assert pipeline.decision_function(X).shape == (len(X),)

    def test_fit_predict_with_clusterer_final_step(self, blobs):
        from repro.cluster import KMeans

        X, _ = blobs
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("km", KMeans(n_clusters=2, random_state=0))]
        )
        labels = pipeline.fit_predict(X)
        assert labels.shape == (len(X),)
        np.testing.assert_array_equal(
            labels, pipeline.final_estimator_.labels_
        )

    def test_fit_predict_with_classifier_final_step(self, blobs):
        X, y = blobs
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("clf", LogisticRegression(max_iter=300))]
        )
        labels = pipeline.fit_predict(X, y)
        np.testing.assert_array_equal(labels, pipeline.predict(X))

    def test_fit_transform(self, blobs):
        X, _ = blobs
        pipeline = Pipeline(
            [("scale", StandardScaler()), ("pca", PCA(n_components=1))]
        )
        out = pipeline.fit_transform(X)
        assert out.shape == (len(X), 1)
        np.testing.assert_allclose(out, pipeline.transform(X))

    def test_passthrough_before_fit_raises(self, blobs):
        X, _ = blobs
        pipeline = Pipeline(
            [("scale", StandardScaler()),
             ("clf", LogisticRegression())]
        )
        for method in ("predict", "predict_proba", "decision_function",
                       "score"):
            with pytest.raises(NotFittedError):
                if method == "score":
                    pipeline.score(X, np.zeros(len(X)))
                else:
                    getattr(pipeline, method)(X)


class TestPipelineInModelSelection:
    def test_cross_validation_treats_pipeline_as_estimator(self, blobs):
        X, y = blobs
        pipeline = Pipeline(
            [
                ("scale", StandardScaler()),
                ("clf", LogisticRegression(max_iter=300)),
            ]
        )
        scores = cross_validate(pipeline, X, y)["test_score"]
        assert scores.mean() > 0.9

    def test_prototype_steps_never_mutated(self, blobs):
        X, y = blobs
        scaler = StandardScaler()
        pipeline = Pipeline(
            [("scale", scaler), ("clf", LogisticRegression(max_iter=200))]
        )
        pipeline.fit(X, y)
        # the prototype passed in stays unfitted (clone semantics)
        assert not hasattr(scaler, "mean_")
