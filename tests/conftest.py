"""Shared fixtures for the test suite."""

import multiprocessing
import time

import numpy as np
import pytest


@pytest.fixture
def no_leftover_processes():
    """Fail the test if a ``multiprocessing`` child is still alive after
    up to 10 s of joining; leftovers are killed so later tests start
    clean."""
    yield
    give_up = time.monotonic() + 10.0
    for child in multiprocessing.active_children():
        child.join(timeout=max(0.0, give_up - time.monotonic()))
    leftovers = multiprocessing.active_children()
    for child in leftovers:
        child.kill()
        child.join()
    assert not leftovers, f"processes outlived the test: {leftovers}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blobs(rng):
    """Two well-separated Gaussian blobs: (X, y) with y in {0, 1}."""
    X = np.vstack(
        [
            rng.normal(-2.0, 0.6, size=(40, 2)),
            rng.normal(2.0, 0.6, size=(40, 2)),
        ]
    )
    y = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    return X, y


@pytest.fixture
def rings(rng):
    """Concentric classes: not linearly separable in the input space
    (the Fig. 3 geometry)."""
    n = 60
    inner_radius = rng.uniform(0.0, 1.0, n)
    inner_angle = rng.uniform(0.0, 2 * np.pi, n)
    outer_radius = rng.uniform(2.0, 3.0, n)
    outer_angle = rng.uniform(0.0, 2 * np.pi, n)
    X = np.vstack(
        [
            np.column_stack(
                [inner_radius * np.cos(inner_angle),
                 inner_radius * np.sin(inner_angle)]
            ),
            np.column_stack(
                [outer_radius * np.cos(outer_angle),
                 outer_radius * np.sin(outer_angle)]
            ),
        ]
    )
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return X, y


@pytest.fixture
def sine_regression(rng):
    """1-D noisy sine wave regression data."""
    X = rng.uniform(-3.0, 3.0, size=(80, 1))
    y = np.sin(X[:, 0]) + rng.normal(0.0, 0.05, size=80)
    return X, y


@pytest.fixture
def linear_regression_data(rng):
    """y = 2 x0 - x1 + 0.5 + noise."""
    X = rng.normal(0.0, 1.0, size=(100, 2))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 + rng.normal(0.0, 0.01, size=100)
    return X, y
