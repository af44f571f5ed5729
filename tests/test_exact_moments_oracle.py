"""``ExactMoments`` against its ``Fraction`` oracle, bit for bit.

The integer-limb accumulator in ``repro.core.streaming`` must give
exactly what exact rational arithmetic gives (``tests/fraction_moments``)
for every input a float array can hold: subnormals, whose normalised
mantissas reach down to 2**-1126, signed zeros, exponents at both ends
of the range, and values whose squares overflow a float (both sides
must then raise the same exception when rounding).  Every result must
also survive any batching, row order, merge of split accumulators and a
pickle round-trip mid-stream — and a pickle written by the ``Fraction``
class must load into the integer one without changing a bit.
"""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ExactMoments
from repro.mfgtest import StreamingMahalanobisDetector
from tests.fraction_moments import ExactMoments as FractionMoments

TRACKING = [
    {},
    {"track_squares": True},
    {"track_cross": True},
    {"track_squares": True, "track_cross": True},
]

LARGEST = np.finfo(float).max
SMALLEST_NORMAL = np.finfo(float).tiny
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL, -SMALLEST_NORMAL,
    np.nextafter(SMALLEST_NORMAL, 0.0), LARGEST, -LARGEST, 1.0, -1.0,
    np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0), 1e200, -1e200,
]

values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    # any exponent, subnormals included
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1023)),
)


def matrices():
    return st.integers(1, 12).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: arrays(np.float64, (rows, cols), elements=values)
        )
    )


def _outcome(call, *args):
    """A result as comparable bytes, or the exception it raised."""
    try:
        result = call(*args)
    except (ArithmeticError, ValueError) as error:
        return type(error), str(error)
    if isinstance(result, list):
        return result  # variance_exact: Fractions compare exactly
    return np.asarray(result).tobytes()


def _results(moments):
    out = {"count": moments.count, "mean": _outcome(moments.mean)}
    for ddof in (0, 1):
        if moments._sumsq is not None:
            out[f"variance{ddof}"] = _outcome(moments.variance, ddof)
            out[f"exact{ddof}"] = _outcome(moments.variance_exact, ddof)
        if moments._cross is not None:
            out[f"covariance{ddof}"] = _outcome(moments.covariance, ddof)
    return out


def _oracle(X, tracking):
    return _results(FractionMoments(X.shape[1], **tracking).update(X))


def _cut(n, cuts):
    edges = [0] + sorted(set(c for c in cuts if 0 < c < n)) + [n]
    return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------
# bitwise equality with the oracle
# ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(X=matrices(), tracking=st.sampled_from(TRACKING))
def test_every_result_matches_the_oracle(X, tracking):
    moments = ExactMoments(X.shape[1], **tracking).update(X)
    assert _results(moments) == _oracle(X, tracking)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), X=matrices(), tracking=st.sampled_from(TRACKING))
def test_batching_and_row_order_change_no_bit(data, X, tracking):
    n = len(X)
    order = data.draw(st.permutations(range(n)))
    cuts = data.draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=4))
    moments = ExactMoments(X.shape[1], **tracking)
    for start, stop in _cut(n, cuts):
        moments.update(X[order[start:stop]])
    assert _results(moments) == _oracle(X, tracking)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), X=matrices(), tracking=st.sampled_from(TRACKING))
def test_merge_of_split_accumulators_matches(data, X, tracking):
    n = len(X)
    cuts = data.draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=4))
    parts = [ExactMoments(X.shape[1], **tracking).update(X[start:stop])
             for start, stop in _cut(n, cuts)]
    parts = data.draw(st.permutations(parts))
    merged = ExactMoments(X.shape[1], **tracking)
    for part in parts:
        merged.merge(part)
    assert _results(merged) == _oracle(X, tracking)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), X=matrices(), tracking=st.sampled_from(TRACKING))
def test_pickle_round_trip_mid_stream(data, X, tracking):
    n = len(X)
    cut = data.draw(st.integers(0, n))
    moments = ExactMoments(X.shape[1], **tracking)
    if cut:
        moments.update(X[:cut])
    moments = pickle.loads(pickle.dumps(moments))
    if cut < n:
        moments.update(X[cut:])
    assert _results(moments) == _oracle(X, tracking)


@pytest.mark.parametrize("tracking", TRACKING)
def test_overflowing_squares_raise_as_the_oracle_does(tracking):
    X = np.array([[1e200, 3.0], [-1e200, 4.0], [2e200, -5.0]])
    moments = ExactMoments(2, **tracking).update(X)
    got, want = _results(moments), _oracle(X, tracking)
    assert got == want
    if tracking.get("track_squares"):
        assert got["variance0"][0] is OverflowError


def test_subnormal_limbs_reach_the_bottom_of_the_grid():
    # 5e-324 normalises to mantissa 2**52 at exponent -1126
    X = np.array([[5e-324, -3 * 5e-324], [np.nextafter(SMALLEST_NORMAL, 0),
                                         SMALLEST_NORMAL]])
    for tracking in TRACKING:
        moments = ExactMoments(2, **tracking).update(X)
        assert _results(moments) == _oracle(X, tracking)


def test_full_limbs_over_many_chunks_do_not_overflow():
    """Mantissas of all ones cut into limbs of all ones: the largest
    products int64 chunks must hold, over more rows than one chunk."""
    top = np.nextafter(2.0, 0.0)  # (2**53 - 1) * 2**-52
    X = np.tile([[top, -top], [top, top]], (1500, 1))
    tracking = {"track_squares": True, "track_cross": True}
    moments = ExactMoments(2, **tracking).update(X)
    assert _results(moments) == _oracle(X, tracking)


# ---------------------------------------------------------------------
# merge refuses accumulators that track different moments
# ---------------------------------------------------------------------


@pytest.mark.parametrize("mine", TRACKING)
@pytest.mark.parametrize("theirs", TRACKING)
def test_merge_rejects_different_tracking(mine, theirs):
    Y = np.array([[1.0, 2.0], [6.0, -3.0], [0.5, 4.0]])
    accumulator = ExactMoments(2, **mine).update(Y)
    other = ExactMoments(2, **theirs).update(Y)
    if mine == theirs:
        accumulator.merge(other)
        assert accumulator.count == 6
    else:
        with pytest.raises(ValueError, match="track different moments"):
            accumulator.merge(other)
        assert accumulator.count == 3  # untouched


# ---------------------------------------------------------------------
# pickles written by the Fraction class
# ---------------------------------------------------------------------


def _fraction_era(old: FractionMoments) -> ExactMoments:
    """An object that pickles as ``old`` pickled itself when the
    ``Fraction`` class was ``repro.core.streaming.ExactMoments``: what a
    checkpoint store written before the integer totals holds."""
    disguised = ExactMoments.__new__(ExactMoments)
    disguised.__dict__.update(old.__dict__)
    return disguised


@pytest.mark.parametrize("tracking", TRACKING)
def test_fraction_era_pickle_converts_exactly(rng, tracking):
    X = np.vstack([rng.normal(0.0, 3.0, size=(40, 3)),
                   [[5e-324, -0.0, 1e-300]], rng.normal(size=(9, 3))])
    old = FractionMoments(3, **tracking).update(X[:30])
    loaded = pickle.loads(pickle.dumps(_fraction_era(old)))
    assert type(loaded) is ExactMoments
    assert all(type(value) is int for value in loaded._sum)
    assert _results(loaded) == _results(old)
    loaded.update(X[30:])
    assert _results(loaded) == _oracle(X, tracking)


def test_fraction_era_checkpointed_model_resumes_bitwise(rng):
    X = rng.normal(1.0, 2.0, size=(300, 4))
    detector = StreamingMahalanobisDetector().partial_fit(X[:120])
    old = FractionMoments(4, track_cross=True).update(X[:120])
    detector._moments_ = _fraction_era(old)
    resumed = pickle.loads(pickle.dumps(detector))
    resumed.partial_fit(X[120:])
    reference = StreamingMahalanobisDetector().fit(X)
    for attribute in ("location_", "precision_", "threshold_", "n_samples_"):
        assert (np.asarray(getattr(resumed, attribute)).tobytes()
                == np.asarray(getattr(reference, attribute)).tobytes())


def test_non_dyadic_fraction_state_is_refused():
    old = FractionMoments(2).update(np.ones((3, 2)))
    old._sum[1] = Fraction(1, 3)
    with pytest.raises(ValueError, match="non-dyadic"):
        pickle.loads(pickle.dumps(_fraction_era(old)))
