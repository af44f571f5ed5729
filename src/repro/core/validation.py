"""Model selection: splits, cross-validation, search, complexity curves.

The complexity-curve utilities implement the machinery behind Fig. 5 of
the paper: sweep a capacity hyper-parameter, record training and
validation error, and locate the point past which validation error rises
while training error keeps falling (overfitting).

Everything that fits many clones of one estimator — cross-validation,
grid search, the Fig. 5 capacity sweep, the Section 1 learning curve —
runs through one parallel, instrumented runtime:

- candidate×fold tasks fan out onto a pluggable
  :mod:`~repro.core.parallel` backend (serial / thread / process, or
  the multi-process file-protocol ``"sharded"`` backend of
  :mod:`repro.core.shard`) with deterministic result ordering, so every
  backend returns bitwise identical scores;
- per-task wall times, sample counts, and Gram-engine counter deltas
  are recorded as :class:`~repro.core.instrument.EventLog` spans, so
  the cost of a sweep can be attributed per candidate and per fold;
- nested parameters (``svc__C``, ``svc__kernel__gamma``) address
  pipeline steps and kernel hyper-parameters directly from a grid.

:class:`GridSearchCV` and :func:`cross_validate` are the entry points.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from . import instrument
from .base import Estimator, check_fitted, clone
from .instrument import EventLog, recording
from .metrics import accuracy, mean_squared_error
from .parallel import get_backend
from .resilience import CheckpointStore, ErrorPolicy, fingerprint
from .rng import ensure_rng


def train_test_split(X, y=None, test_fraction: float = 0.25, random_state=None):
    """Randomly split arrays into train/test partitions.

    Returns ``(X_train, X_test)`` or ``(X_train, X_test, y_train, y_test)``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    X = np.asarray(X)
    rng = ensure_rng(random_state)
    order = rng.permutation(len(X))
    n_test = max(1, int(round(len(X) * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if y is None:
        return X[train_idx], X[test_idx]
    y = np.asarray(y)
    if len(y) != len(X):
        raise ValueError("X and y must have equal length")
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


class KFold:
    """Deterministic (optionally shuffled) k-fold index generator."""

    def __init__(self, n_splits: int = 5, shuffle: bool = False, random_state=None):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X):
        """Yield ``(train_indices, test_indices)`` for each fold."""
        n = len(X)
        if n < self.n_splits:
            raise ValueError(
                f"cannot split {n} samples into {self.n_splits} folds"
            )
        indices = np.arange(n)
        if self.shuffle:
            ensure_rng(self.random_state).shuffle(indices)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=int)
        fold_sizes[: n % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size


class StratifiedKFold:
    """K-fold that preserves per-class proportions in every fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = False, random_state=None):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y):
        """Yield ``(train_indices, test_indices)`` stratified on *y*."""
        y = np.asarray(y)
        rng = ensure_rng(self.random_state)
        fold_of = np.empty(len(y), dtype=int)
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            if self.shuffle:
                rng.shuffle(members)
            fold_of[members] = np.arange(len(members)) % self.n_splits
        for k in range(self.n_splits):
            test = np.flatnonzero(fold_of == k)
            if len(test) == 0:
                raise ValueError(
                    "a fold received no samples; reduce n_splits"
                )
            train = np.flatnonzero(fold_of != k)
            yield train, test


# ---------------------------------------------------------------------
# The shared fit/score task
# ---------------------------------------------------------------------

def _resolve_folds(cv, X, y) -> List:
    """Materialize the fold index pairs once, in the parent process.

    Materializing up front makes every backend see the identical folds
    (a shuffled splitter is only invoked once) and keeps the task
    payloads free of generator state.
    """
    cv = cv if cv is not None else KFold(n_splits=5)
    split_args = (X, y) if isinstance(cv, StratifiedKFold) else (X,)
    return [
        (np.asarray(train), np.asarray(test))
        for train, test in cv.split(*split_args)
    ]


def _task_engine(estimator):
    """The Gram engine a task's work is attributed to."""
    engine = getattr(estimator, "engine", None)
    if engine is not None:
        return engine
    from ..kernels.engine import default_engine

    return default_engine()


def _fit_and_score_once(payload: dict, estimator) -> dict:
    """Fit one clone of *estimator* on one fold and score it."""
    params = payload.get("params") or {}
    X, y = payload["X"], payload["y"]
    train, test = payload["train"], payload["test"]
    scorer = payload.get("scorer")
    engine = _task_engine(estimator)
    before = engine.counters_snapshot()

    model = clone(estimator)
    if params:
        model.set_params(**params)
    start = time.perf_counter()
    model.fit(X[train], y[train])
    fit_seconds = time.perf_counter() - start

    def _score(idx) -> float:
        if scorer is None:
            return float(model.score(X[idx], y[idx]))
        return float(scorer(y[idx], model.predict(X[idx])))

    start = time.perf_counter()
    test_score = _score(test)
    score_seconds = time.perf_counter() - start
    result = {
        "test_score": test_score,
        "fit_seconds": fit_seconds,
        "score_seconds": score_seconds,
        "n_train": int(len(train)),
        "n_test": int(len(test)),
        "gram": engine.counters_snapshot().delta(before).as_dict(),
    }
    if payload.get("return_train_score"):
        result["train_score"] = _score(train)
    return result


def _fit_and_score(payload: dict) -> dict:
    """Fit one cloned candidate on one fold and score it.

    Runs unchanged on every backend (module-level, picklable).  Gram
    counter deltas are exact on the serial and process backends and
    approximate under thread concurrency (counters are engine-global).

    Two resilience hooks ride in the payload:

    - ``checkpoint`` / ``checkpoint_key``: a completed result is read
      back instead of recomputed (``checkpoint_hit`` marks it), and a
      fresh result is persisted atomically *before* being returned, so
      a killed driver loses at most in-flight work;
    - ``error_policy``: an :class:`~repro.core.resilience.ErrorPolicy`
      deciding whether a fit/score failure raises, records
      ``error_score``, or falls back to a substitute estimator.  The
      failure text is kept under ``"error"`` either way.

    With ``"raise"`` (or no policy) the task runs once and a failure
    propagates, so the *backend's* retry pass resubmits it.  With
    ``"skip"`` / ``"fallback"`` the task never raises, so the retry
    budget is spent *in-task* (``payload["retry"].attempt`` under
    ``payload["task_index"]``, same deterministic delays) before the
    policy records the cell as failed — a transient blip is retried,
    only a persistent failure is skipped or substituted.
    """
    store = payload.get("checkpoint")
    key = payload.get("checkpoint_key")
    if store is not None and key is not None:
        cached = store.get(key)
        if cached is not None:
            cached["checkpoint_hit"] = True
            return cached
    policy: Optional[ErrorPolicy] = payload.get("error_policy")
    if policy is None or policy.on_error == "raise":
        result = _fit_and_score_once(payload, payload["estimator"])
    else:
        task_index = payload.get("task_index", 0)
        ok, result, attempts = payload["retry"].attempt(
            lambda: _fit_and_score_once(payload, payload["estimator"]),
            task_index, emit=instrument.emit, label=f"task[{task_index}]",
            task=task_index,
        )
        if not ok:
            error = result
            if policy.on_error == "fallback":
                # the fallback is fit exactly as configured: candidate
                # params are not forwarded (their names may not even
                # exist on the substitute estimator)
                result = _fit_and_score_once(
                    {**payload, "params": None}, policy.fallback
                )
                result["fallback"] = True
            else:
                result = {
                    "test_score": policy.error_score,
                    "fit_seconds": 0.0,
                    "score_seconds": 0.0,
                    "n_train": int(len(payload["train"])),
                    "n_test": int(len(payload["test"])),
                    "gram": {},
                }
                if payload.get("return_train_score"):
                    result["train_score"] = policy.error_score
            result["error"] = f"{type(error).__name__}: {error}"
        if attempts > 1:
            result["attempts"] = attempts
    if store is not None and key is not None:
        store.put(key, result)
        result["checkpoint_hit"] = False
    return result


def _record_task_metrics(results: Sequence[dict]) -> None:
    """Report completed fit/score tasks into the process-wide metrics
    registry (checkpoint-served cells count separately: they did no
    fitting this run)."""
    metrics = instrument.metrics_registry()
    for result in results:
        if result.get("checkpoint_hit"):
            metrics.increment("model_selection.checkpoint_hits")
            continue
        metrics.increment("model_selection.fits")
        metrics.observe("model_selection.fit_seconds",
                        result["fit_seconds"])
        metrics.observe("model_selection.score_seconds",
                        result["score_seconds"])
        if result.get("error") is not None:
            metrics.increment("model_selection.task_errors")


def _resolve_store(checkpoint) -> Optional[CheckpointStore]:
    """``None`` | path | :class:`CheckpointStore` -> optional store."""
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)


def _emit_task_spans(event_log: Optional[EventLog], results: Sequence[dict],
                     labels: Sequence[str], metas: Sequence[dict]) -> None:
    """Record one fit span and one score span per completed task.

    A task served from a checkpoint did no work this run: it emits a
    single ``checkpoint`` span (zero seconds) instead of replaying the
    stored fit/score timings, so the trace accounts for *this* run's
    wall time and ``recording()`` shows how much a resume skipped.
    """
    if event_log is None:
        return
    for result, label, meta in zip(results, labels, metas):
        if result.get("checkpoint_hit"):
            event_log.emit(
                "checkpoint", 0.0, label=label,
                n_samples=result["n_train"],
                saved_fit_seconds=result["fit_seconds"], **meta,
            )
            continue
        if result.get("error") is not None:
            meta = dict(meta, error=result["error"])
        if result.get("attempts"):
            meta = dict(meta, attempts=result["attempts"])
        event_log.emit(
            "fit", result["fit_seconds"], label=label,
            n_samples=result["n_train"], gram=result["gram"], **meta,
        )
        event_log.emit(
            "score", result["score_seconds"], label=label,
            n_samples=result["n_test"], **meta,
        )


def cross_validate(
    estimator,
    X,
    y,
    cv=None,
    scorer: Callable = None,
    *,
    backend=None,
    n_workers: int = None,
    retries: int = 1,
    retry=None,
    timeout: float = None,
    deadline=None,
    error_policy: ErrorPolicy = None,
    checkpoint=None,
    return_train_score: bool = False,
    event_log: EventLog = None,
) -> Dict[str, np.ndarray]:
    """Fit/score *estimator* over CV folds on an execution backend.

    Parameters
    ----------
    backend:
        ``None``/"serial", "thread", "process", or an
        :class:`~repro.core.parallel.ExecutionBackend` instance.  All
        backends produce identical scores; fold tasks are independent.
    retry / timeout / deadline:
        Resilience configuration forwarded to
        :func:`~repro.core.parallel.get_backend` (ignored when
        *backend* is already an instance).
    error_policy:
        An :class:`~repro.core.resilience.ErrorPolicy`; with
        ``"skip"``/``"fallback"`` a failing fold records its error in
        the returned ``errors`` list instead of raising.
    checkpoint:
        A :class:`~repro.core.resilience.CheckpointStore` (or a
        directory path).  Completed folds are persisted atomically and
        skipped on a rerun; scores round-trip bitwise.
    event_log:
        An :class:`~repro.core.instrument.EventLog` receiving one
        ``fit`` and one ``score`` span per fold (or a ``checkpoint``
        span for folds served from the store).

    Returns
    -------
    dict with ``test_score``, ``fit_seconds``, ``score_seconds`` arrays
    (one entry per fold), plus ``train_score`` when requested and
    ``errors`` when an *error_policy* is given.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    folds = _resolve_folds(cv, X, y)
    runner = get_backend(
        backend, n_workers=n_workers, retries=retries, retry=retry,
        timeout=timeout, deadline=deadline,
    )
    store = _resolve_store(checkpoint)
    run_fp = (
        fingerprint("cv", estimator, X, y, scorer, return_train_score)
        if store is not None else None
    )
    payloads = [
        {
            "estimator": estimator,
            "X": X,
            "y": y,
            "train": train,
            "test": test,
            "scorer": scorer,
            "return_train_score": return_train_score,
            "error_policy": error_policy,
            "retry": (
                runner._policy() if error_policy is not None else None
            ),
            "task_index": k,
            "checkpoint": store,
            "checkpoint_key": (
                fingerprint(run_fp, train, test)
                if store is not None else None
            ),
        }
        for k, (train, test) in enumerate(folds)
    ]
    instrument.metrics_registry().increment("model_selection.cv_runs")
    with recording(event_log) if event_log is not None else nullcontext():
        results = runner.map(_fit_and_score, payloads)
    _record_task_metrics(results)
    _emit_task_spans(
        event_log,
        results,
        labels=[f"fold[{k}]" for k in range(len(folds))],
        metas=[{"fold": k} for k in range(len(folds))],
    )
    out = {
        "test_score": np.array([r["test_score"] for r in results]),
        "fit_seconds": np.array([r["fit_seconds"] for r in results]),
        "score_seconds": np.array([r["score_seconds"] for r in results]),
        "n_train": np.array([r["n_train"] for r in results]),
        "n_test": np.array([r["n_test"] for r in results]),
    }
    if return_train_score:
        out["train_score"] = np.array([r["train_score"] for r in results])
    if error_policy is not None:
        out["errors"] = [r.get("error") for r in results]
    if store is not None:
        out["checkpoint_hits"] = int(
            sum(bool(r.get("checkpoint_hit")) for r in results)
        )
    return out


# ---------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------

class ParameterGrid:
    """Iterate parameter dicts from a grid specification.

    A specification is a ``{name: values}`` mapping (the cartesian
    product is enumerated, last key varying fastest) or a list of such
    mappings (enumerated in order, products concatenated).  Names may
    use the nested ``step__param`` grammar.
    """

    def __init__(self, grid):
        if isinstance(grid, Mapping):
            grid = [grid]
        self.grid = [dict(g) for g in grid]
        for g in self.grid:
            for name, values in g.items():
                if isinstance(values, str) or not isinstance(
                    values, (Sequence, np.ndarray)
                ):
                    raise ValueError(
                        f"grid values for {name!r} must be a sequence"
                    )

    def __iter__(self):
        for g in self.grid:
            if not g:
                yield {}
                continue
            names = list(g)
            for combo in itertools.product(*(g[name] for name in names)):
                yield dict(zip(names, combo))

    def __len__(self):
        total = 0
        for g in self.grid:
            size = 1
            for values in g.values():
                size *= len(values)
            total += size
        return total


class GridSearchCV(Estimator):
    """Exhaustive search over a parameter grid, run as an estimator.

    Candidate×fold tasks fan out onto the configured backend; results
    are aggregated in deterministic candidate order, so
    ``best_params_`` and every score are identical on the serial,
    thread, process, and sharded backends (``backend="sharded"``
    spreads the sweep over independent worker processes that survive
    SIGKILL mid-shard; see docs/sharding.md).  After :meth:`fit` the winning
    configuration is refit on the full data (``refit=True``) and the
    search object behaves like the fitted winner (``predict``,
    ``predict_proba``, ``decision_function``, ``transform``, ``score``).

    Parameters
    ----------
    estimator:
        Prototype estimator; cloned for every task.
    param_grid:
        Grid specification (see :class:`ParameterGrid`); names may
        address nested parameters (``svc__C``, ``svc__kernel__gamma``).
    cv:
        Fold generator; defaults to ``KFold(5)``.
    scorer:
        ``scorer(y_true, y_pred) -> float`` (higher is better);
        defaults to the estimator's own ``score``.
    backend / n_workers / retries / retry / timeout / deadline:
        Execution backend configuration (see
        :func:`~repro.core.parallel.get_backend`): worker fan-out, the
        :class:`~repro.core.resilience.RetryPolicy`, the per-task
        timeout, and the run-level deadline.
    error_policy:
        An :class:`~repro.core.resilience.ErrorPolicy`.  With
        ``"skip"`` a failing cell records ``error_score`` (NaN by
        default) instead of killing the sweep; with ``"fallback"`` the
        policy's substitute estimator is fit in its place.  Failure
        text lands in ``cv_results_["fold_errors"]``.
    checkpoint:
        A :class:`~repro.core.resilience.CheckpointStore` (or directory
        path).  Every completed cell is persisted atomically as it
        finishes; a rerun with the same store, data, and grid skips the
        completed cells and reproduces the uninterrupted ``cv_results_``
        scores bitwise.  ``checkpoint_hits_`` counts the skipped cells.
    refit:
        Refit the best configuration on the full data after the search.
    event_log:
        Receives per-task ``fit``/``score`` spans, ``checkpoint`` spans
        for cells served from the store, ``retry``/``timeout`` spans
        from the backend, a ``refit`` span, and one ``search`` span for
        the whole sweep (with the Gram engine delta attributed to it).

    Attributes
    ----------
    best_params_, best_score_, best_index_:
        Winning parameter dict, its mean CV score, its candidate index.
        Candidates whose mean score is NaN (skipped cells) never win.
    best_estimator_:
        The refit winner (when ``refit=True``).
    cv_results_:
        Dict of per-candidate arrays: ``params``, ``fold_test_scores``,
        ``mean_test_score``, ``std_test_score``, ``rank_test_score``,
        ``mean_fit_seconds``, ``mean_score_seconds``; plus
        ``fold_errors`` when an *error_policy* is configured.
    checkpoint_hits_:
        Number of cells served from the checkpoint store (0 without
        one).
    """

    def __init__(self, estimator, param_grid, cv=None,
                 scorer: Callable = None, backend=None,
                 n_workers: int = None, retries: int = 1,
                 retry=None, timeout: float = None, deadline=None,
                 error_policy: ErrorPolicy = None, checkpoint=None,
                 refit: bool = True, return_train_score: bool = False,
                 event_log: EventLog = None):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.scorer = scorer
        self.backend = backend
        self.n_workers = n_workers
        self.retries = retries
        self.retry = retry
        self.timeout = timeout
        self.deadline = deadline
        self.error_policy = error_policy
        self.checkpoint = checkpoint
        self.refit = refit
        self.return_train_score = return_train_score
        self.event_log = event_log

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "GridSearchCV":
        X = np.asarray(X)
        y = np.asarray(y)
        candidates = list(ParameterGrid(self.param_grid))
        if not candidates:
            raise ValueError("param_grid yields no candidates")
        folds = _resolve_folds(self.cv, X, y)
        runner = get_backend(
            self.backend, n_workers=self.n_workers, retries=self.retries,
            retry=self.retry, timeout=self.timeout, deadline=self.deadline,
        )
        engine = _task_engine(self.estimator)
        log = self.event_log
        store = _resolve_store(self.checkpoint)
        instrument.metrics_registry().increment("model_selection.searches")
        # one fingerprint pins everything every cell shares; per-cell
        # keys add only the candidate params and the fold indices, so a
        # rerun with identical inputs maps onto identical keys
        run_fp = (
            fingerprint(
                "grid_search", self.estimator, X, y, self.scorer,
                self.return_train_score,
            )
            if store is not None else None
        )

        def _run_search():
            payloads = []
            labels, metas = [], []
            for c, params in enumerate(candidates):
                for k, (train, test) in enumerate(folds):
                    payloads.append(
                        {
                            "estimator": self.estimator,
                            "params": params,
                            "X": X,
                            "y": y,
                            "train": train,
                            "test": test,
                            "scorer": self.scorer,
                            "return_train_score": self.return_train_score,
                            "error_policy": self.error_policy,
                            "retry": (
                                runner._policy()
                                if self.error_policy is not None else None
                            ),
                            "task_index": len(payloads),
                            "checkpoint": store,
                            "checkpoint_key": (
                                fingerprint(run_fp, params, train, test)
                                if store is not None else None
                            ),
                        }
                    )
                    labels.append(f"candidate[{c}] fold[{k}]")
                    metas.append(
                        {"candidate": c, "fold": k, "params": dict(params)}
                    )
            with recording(log) if log is not None else nullcontext():
                results = runner.map(_fit_and_score, payloads)
            _record_task_metrics(results)
            _emit_task_spans(log, results, labels, metas)
            return results

        if log is not None:
            with log.span(
                "search", label=f"grid[{len(candidates)}x{len(folds)}]",
                n_samples=len(X), engine=engine,
                backend=runner.name, n_candidates=len(candidates),
                n_folds=len(folds),
            ):
                results = _run_search()
        else:
            results = _run_search()

        n_folds = len(folds)
        fold_scores = np.array(
            [r["test_score"] for r in results]
        ).reshape(len(candidates), n_folds)
        means = fold_scores.mean(axis=1)
        # candidates with NaN means (skipped cells under an ErrorPolicy)
        # rank last and can never win; an all-failed sweep is an error,
        # not a silent NaN winner
        comparable = np.where(np.isfinite(means), means, -np.inf)
        if not np.isfinite(means).any():
            failures = sorted(
                {
                    r["error"] for r in results
                    if r.get("error") is not None
                }
            )
            raise ValueError(
                f"every candidate failed; distinct failures: {failures}"
            )
        # rank 1 = best; argmax tie-breaks on the lowest candidate index
        order = np.argsort(-comparable, kind="stable")
        ranks = np.empty(len(candidates), dtype=int)
        ranks[order] = np.arange(1, len(candidates) + 1)
        self.cv_results_ = {
            "params": candidates,
            "fold_test_scores": fold_scores,
            "mean_test_score": means,
            "std_test_score": fold_scores.std(axis=1),
            "rank_test_score": ranks,
            "mean_fit_seconds": np.array(
                [r["fit_seconds"] for r in results]
            ).reshape(len(candidates), n_folds).mean(axis=1),
            "mean_score_seconds": np.array(
                [r["score_seconds"] for r in results]
            ).reshape(len(candidates), n_folds).mean(axis=1),
        }
        if self.return_train_score:
            self.cv_results_["fold_train_scores"] = np.array(
                [r["train_score"] for r in results]
            ).reshape(len(candidates), n_folds)
        if self.error_policy is not None:
            errors = [r.get("error") for r in results]
            self.cv_results_["fold_errors"] = [
                errors[c * n_folds:(c + 1) * n_folds]
                for c in range(len(candidates))
            ]
        self.checkpoint_hits_ = int(
            sum(bool(r.get("checkpoint_hit")) for r in results)
        )
        self.n_tasks_ = len(results)
        self.best_index_ = int(np.argmax(comparable))
        self.best_params_ = dict(candidates[self.best_index_])
        self.best_score_ = float(means[self.best_index_])
        self.n_splits_ = n_folds
        self.backend_name_ = runner.name

        if self.refit:
            # the refit gets the same retry treatment as the search
            # tasks: a transient failure here must not discard the sweep
            def fit_winner():
                winner = clone(self.estimator).set_params(
                    **self.best_params_
                )
                with recording(log) if log is not None else nullcontext():
                    winner.fit(X, y)
                return winner

            start = time.perf_counter()
            ok, outcome, attempts = runner._policy().attempt(
                fit_winner, len(results),
                emit=log.emit if log is not None else None, label="refit",
            )
            if not ok:
                raise outcome
            if log is not None:
                log.emit(
                    "refit", time.perf_counter() - start,
                    label="best_estimator", n_samples=len(X),
                    params=dict(self.best_params_), attempts=attempts,
                )
            self.best_estimator_ = outcome
        return self

    # ------------------------------------------------------------------
    # fitted-winner passthrough
    # ------------------------------------------------------------------
    def _winner(self):
        check_fitted(self, "best_estimator_")
        return self.best_estimator_

    def predict(self, X):
        return self._winner().predict(X)

    def predict_proba(self, X):
        return self._winner().predict_proba(X)

    def decision_function(self, X):
        return self._winner().decision_function(X)

    def transform(self, X):
        return self._winner().transform(X)

    def score(self, X, y) -> float:
        return self._winner().score(X, y)

    @property
    def _estimator_kind(self):
        return getattr(self.estimator, "_estimator_kind", "estimator")


# ---------------------------------------------------------------------
# Capacity and data-availability sweeps
# ---------------------------------------------------------------------

@dataclass
class ComplexityCurve:
    """Result of a Fig. 5 style capacity sweep."""

    parameter: str
    values: List = field(default_factory=list)
    train_errors: List[float] = field(default_factory=list)
    validation_errors: List[float] = field(default_factory=list)

    def best_index(self) -> int:
        """Index of the complexity value with minimal validation error."""
        return int(np.argmin(self.validation_errors))

    def best_value(self):
        """Complexity value minimizing validation error."""
        return self.values[self.best_index()]

    def overfitting_detected(self) -> bool:
        """True when validation error rises past its minimum while
        training error keeps (weakly) falling — the Fig. 5 shape."""
        best = self.best_index()
        if best == len(self.values) - 1:
            return False
        after = self.validation_errors[best + 1 :]
        train_after = self.train_errors[best:]
        validation_rises = max(after) > self.validation_errors[best] + 1e-12
        train_not_rising = train_after[-1] <= self.train_errors[best] + 1e-9
        return bool(validation_rises and train_not_rising)

    def rows(self):
        """Rows ``(value, train_error, validation_error)`` for reporting."""
        return list(zip(self.values, self.train_errors, self.validation_errors))


def _default_error(model) -> Callable:
    kind = getattr(model, "_estimator_kind", "classifier")
    if kind == "regressor":
        return mean_squared_error
    return lambda t, p: 1.0 - accuracy(t, p)


def _curve_point(payload: dict) -> dict:
    """Fit one sweep point and return its train/validation errors."""
    model = payload["model"]
    model.fit(payload["X_train"], payload["y_train"])
    error = payload.get("error") or _default_error(model)
    return {
        "train": float(
            error(payload["y_train"], model.predict(payload["X_train"]))
        ),
        "validation": float(
            error(payload["y_val"], model.predict(payload["X_val"]))
        ),
    }


def complexity_curve(
    estimator_factory: Callable,
    parameter: str,
    values: Sequence,
    X_train,
    y_train,
    X_val,
    y_val,
    error: Callable = None,
    backend=None,
    n_workers: int = None,
) -> ComplexityCurve:
    """Sweep a capacity parameter and record train/validation error.

    Parameters
    ----------
    estimator_factory:
        Zero-argument callable returning a fresh estimator.
    parameter:
        Hyper-parameter name to sweep via ``set_params`` (nested names
        such as ``svc__C`` are supported).
    values:
        Capacity values, ordered from simplest to most complex.
    error:
        ``error(y_true, y_pred) -> float``; defaults to misclassification
        rate for classifiers and MSE for regressors.
    backend:
        Execution backend for the sweep points (see
        :func:`~repro.core.parallel.get_backend`); each point is an
        independent fit, so the sweep parallelizes candidate-wise.
    """
    curve = ComplexityCurve(parameter=parameter)
    payloads = [
        {
            "model": estimator_factory().set_params(**{parameter: value}),
            "X_train": X_train,
            "y_train": y_train,
            "X_val": X_val,
            "y_val": y_val,
            "error": error,
        }
        for value in values
    ]
    runner = get_backend(backend, n_workers=n_workers)
    for value, point in zip(values, runner.map(_curve_point, payloads)):
        curve.values.append(value)
        curve.train_errors.append(point["train"])
        curve.validation_errors.append(point["validation"])
    return curve


@dataclass
class LearningCurve:
    """Result of a data-availability sweep (Section 1's principle 2).

    How much data does the learning need before the result shows
    statistical significance?  The curve records validation error as a
    function of training-set size; the knee is where collecting more
    data stops paying.
    """

    sizes: List[int] = field(default_factory=list)
    train_errors: List[float] = field(default_factory=list)
    validation_errors: List[float] = field(default_factory=list)

    def rows(self):
        return list(zip(self.sizes, self.train_errors,
                        self.validation_errors))

    def knee_size(self, tolerance: float = 0.02) -> int:
        """Smallest size whose validation error is within *tolerance*
        of the best achieved — the data budget actually needed."""
        best = min(self.validation_errors)
        for size, error in zip(self.sizes, self.validation_errors):
            if error <= best + tolerance:
                return size
        return self.sizes[-1]


def learning_curve(
    estimator,
    X,
    y,
    sizes: Sequence[int],
    X_val,
    y_val,
    error: Callable = None,
    random_state=None,
    backend=None,
    n_workers: int = None,
) -> LearningCurve:
    """Fit clones of *estimator* on growing prefixes of shuffled data.

    Parameters
    ----------
    sizes:
        Training-set sizes to probe (each must be <= len(X)).
    error:
        ``error(y_true, y_pred) -> float``; defaults to
        misclassification rate / MSE by estimator kind.
    backend:
        Execution backend; sizes are independent fits and parallelize.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    rng = ensure_rng(random_state)
    order = rng.permutation(len(X))
    curve = LearningCurve()
    payloads = []
    resolved_sizes = []
    for size in sizes:
        size = int(size)
        if not 1 <= size <= len(X):
            raise ValueError(f"size {size} out of range [1, {len(X)}]")
        subset = order[:size]
        payloads.append(
            {
                "model": clone(estimator),
                "X_train": X[subset],
                "y_train": y[subset],
                "X_val": X_val,
                "y_val": y_val,
                "error": error,
            }
        )
        resolved_sizes.append(size)
    runner = get_backend(backend, n_workers=n_workers)
    for size, point in zip(
        resolved_sizes, runner.map(_curve_point, payloads)
    ):
        curve.sizes.append(size)
        curve.train_errors.append(point["train"])
        curve.validation_errors.append(point["validation"])
    return curve
