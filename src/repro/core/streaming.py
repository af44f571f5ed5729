"""Exact streaming moment accumulators for ``partial_fit`` paths.

The streaming contract for the sufficient-statistics estimators (naive
Bayes, nearest-centroid, streaming Mahalanobis) promises *bitwise*
batch-equivalence: feeding a dataset through ``partial_fit`` in any
micro-batching — including any permutation of the batches — yields the
same model, bit for bit, as one-shot ``fit`` on the concatenation.

Naive float accumulation cannot deliver that: float addition is not
associative, so sum order (which batching changes) perturbs the last
bits.  :class:`ExactMoments` eliminates the problem at the source.
Every IEEE-754 double is an integer times a power of two, so its sums
and products are exactly representable as integers on a fine enough
binary grid, and integer addition is associative.  This is binned
(superaccumulator) summation, as in ReproBLAS (Demmel & Nguyen,
"Parallel Reproducible Summation", IEEE TC 2015) and Neal's
superaccumulators (arXiv:1505.05571):

1. ``np.frexp`` gives every value as a signed 53-bit integer mantissa
   times a power of two;
2. each mantissa is cut into three signed 26-bit limbs on a fixed grid
   of exponents that are multiples of 26, so a limb times a limb fits
   in 52 bits;
3. per chunk of at most 1024 rows, column sums of the limbs and one
   int64 ``L.T @ L`` give every sum, square and cross-product without
   overflow (1024 products of 52 bits stay below 2**62);
4. those int64 results are folded into Python-int totals, scaled to
   the lowest limb exponent seen so far;
5. derived quantities are rounded to float once, by Python's correctly
   rounded ``int / int``.

The totals equal the exact rational sums, so every result depends only
on the *set* of rows seen — never on how they were batched, ordered or
merged — and is bitwise what exact ``Fraction`` arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

import numpy as np

from .base import as_2d_array

__all__ = ["ExactMoments"]

_LIMB_BITS = 26
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# |limb| < 2**26, so 1024 limb products sum below 2**62 in int64
_CHUNK_ROWS = 1024
# the grid exponent of an accumulator that has seen no nonzero value:
# above every double's limbs, so the first one lowers it
_EMPTY_LOW = _LIMB_BITS * 40


def _split_limbs(X: np.ndarray):
    """Cut a block of doubles into signed 26-bit limbs.

    Returns ``(limbs, base)`` with ``limbs`` of shape ``(rows, d, K)``
    such that ``X[r, j] == sum_k limbs[r, j, k] * 2**(26 * (base[j] +
    k))`` exactly, or ``(None, None)`` when every value is zero.
    """
    fraction, exponent = np.frexp(X)
    mantissa = (fraction * 2.0 ** 53).astype(np.int64)  # exact, < 2**53
    bins, shift = np.divmod(exponent.astype(np.int64) - 53, _LIMB_BITS)
    nonzero = mantissa != 0
    if not nonzero.any():
        return None, None
    unused = np.iinfo(np.int64).max
    base = np.where(nonzero, bins, unused).min(axis=0)
    base[base == unused] = base.min()  # all-zero column: any grid will do
    offset = np.where(nonzero, bins - base, 0)
    # mantissa * 2**shift has up to 78 bits: split it without forming it
    magnitude = np.abs(mantissa)
    sign = np.sign(mantissa)
    rows, d = X.shape
    limbs = np.zeros((rows, d, int(offset.max()) + 3), np.int64)
    row, column = np.arange(rows)[:, None], np.arange(d)
    limbs[row, column, offset] = sign * (
        (magnitude & ((1 << (_LIMB_BITS - shift)) - 1)) << shift)
    limbs[row, column, offset + 1] = sign * (
        (magnitude >> (_LIMB_BITS - shift)) & _LIMB_MASK)
    limbs[row, column, offset + 2] = sign * (
        magnitude >> (2 * _LIMB_BITS - shift))
    return limbs, base.tolist()


def _product_digits(products: np.ndarray) -> np.ndarray:
    """Collapse ``(..., K, K)`` limb products to ``(..., 2K)`` digits.

    Digit ``s`` weighs ``2**(26 * s)``, and the digits keep the value
    ``sum_{a, b} products[a, b] * 2**(26 * (a + b))``.  Each product is
    split at bit 26 first, so the anti-diagonal sums stay far inside
    int64.
    """
    k = products.shape[-1]
    low = products & _LIMB_MASK
    high = products >> _LIMB_BITS
    digits = np.zeros(products.shape[:-2] + (2 * k,), np.int64)
    for a in range(k):
        digits[..., a:a + k] += low[..., a, :]
        digits[..., a + 1:a + 1 + k] += high[..., a, :]
    return digits


def _compose(digits) -> int:
    """``sum_s digits[s] * 2**(26 * s)`` as a Python int."""
    total = 0
    for digit in reversed(digits):
        total = (total << _LIMB_BITS) + digit
    return total


def _floats(numerators, exponent: int, denominator: int) -> List[float]:
    """Each ``numerator * 2**exponent / denominator``, correctly
    rounded (Python's ``int / int``)."""
    if exponent >= 0:
        return [(value << exponent) / denominator for value in numerators]
    denominator <<= -exponent
    return [value / denominator for value in numerators]


def _from_fractions(state: dict) -> dict:
    """Convert a ``Fraction``-total state (the format before integer
    totals) to integer totals, exactly.

    Totals of doubles have power-of-two denominators; anything else
    cannot have come from this class and is refused.
    """
    cross = state["_cross"]
    totals = {  # name: (values, degree)
        "_sum": (state["_sum"], 1),
        "_sumsq": (state["_sumsq"], 2),
        "_cross": (None if cross is None
                   else [value for row in cross for value in row], 2),
    }
    low = 0
    for values, degree in totals.values():
        for value in values or ():
            denominator = Fraction(value).denominator
            if denominator & (denominator - 1):
                raise ValueError(
                    "cannot load ExactMoments state: a total has a "
                    f"non-dyadic denominator ({denominator})"
                )
            low = min(low, (1 - denominator.bit_length()) // degree)
    state = dict(state, _low=low)
    for name, (values, degree) in totals.items():
        if values is not None:
            state[name] = [int(Fraction(value) * 2 ** (-degree * low))
                           for value in values]
    return state


class ExactMoments:
    """Order-independent exact accumulator of per-feature moments.

    Accumulates the count, per-feature sums, optionally per-feature sums
    of squares, and optionally the full cross-product matrix, all as
    exact integers on a binary grid.  Derived quantities (mean,
    variance, covariance) are computed in exact arithmetic and rounded
    to float once, at the very end — so they depend only on the *set*
    of rows seen, never on how those rows were batched or ordered.

    Parameters
    ----------
    n_features:
        Width of the rows this accumulator accepts.
    track_squares:
        Also accumulate per-feature sums of squares (needed for
        :meth:`variance`).
    track_cross:
        Also accumulate the symmetric cross-product matrix (needed for
        :meth:`covariance`).  Costs ``O(n_features^2)`` per row.

    A batch costs ``O(K^2)`` per feature pair, where ``K`` is the
    number of 26-bit limbs that span a column's exponents within the
    batch: 3 or 4 for measurements of one magnitude, one more for every
    26 bits between a column's smallest and largest nonzero value.
    """

    def __init__(self, n_features: int, track_squares: bool = False,
                 track_cross: bool = False):
        if n_features < 1:
            raise ValueError("n_features must be positive")
        self.n_features = int(n_features)
        self.count = 0
        # totals are integers in units of 2**_low (sums) and
        # 2**(2 * _low) (squares and cross-products)
        self._low = _EMPTY_LOW
        self._sum: List[int] = [0] * self.n_features
        self._sumsq: Optional[List[int]] = (
            [0] * self.n_features if track_squares else None
        )
        # upper triangle only (j >= i, row by row); the matrix is
        # symmetric
        self._cross: Optional[List[int]] = (
            [0] * (self.n_features * (self.n_features + 1) // 2)
            if track_cross else None
        )

    def __setstate__(self, state: dict) -> None:
        if "_low" not in state:
            state = _from_fractions(state)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def update(self, X) -> "ExactMoments":
        """Fold a batch of rows into the accumulator, exactly."""
        X = as_2d_array(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        for start in range(0, len(X), _CHUNK_ROWS):
            self._fold(X[start:start + _CHUNK_ROWS])
        self.count += len(X)
        return self

    def _fold(self, X: np.ndarray) -> None:
        limbs, base = _split_limbs(X)
        if limbs is None:
            return
        self._lower_scale(_LIMB_BITS * min(base))
        shifts = [_LIMB_BITS * b - self._low for b in base]
        for j, digits in enumerate(limbs.sum(axis=0).tolist()):
            self._sum[j] += _compose(digits) << shifts[j]
        if self._cross is not None:
            rows, d, k = limbs.shape
            flat = limbs.reshape(rows, d * k)
            left = np.ascontiguousarray(flat.T)
            # the blocks of L.T @ L on and above the diagonal, one
            # (k, k) block per pair (i, j >= i) in the order of _cross
            products = np.concatenate([
                (left[i * k:(i + 1) * k] @ flat[:, i * k:])
                .reshape(k, d - i, k).transpose(1, 0, 2)
                for i in range(d)
            ])
            digits = _product_digits(products).tolist()
            pairs = ((i, j) for i in range(d) for j in range(i, d))
            for index, (i, j) in enumerate(pairs):
                value = _compose(digits[index]) << (shifts[i] + shifts[j])
                self._cross[index] += value
                if self._sumsq is not None and i == j:
                    self._sumsq[i] += value
        elif self._sumsq is not None:
            products = limbs.transpose(1, 2, 0) @ limbs.transpose(1, 0, 2)
            for j, digits in enumerate(_product_digits(products).tolist()):
                self._sumsq[j] += _compose(digits) << (2 * shifts[j])

    def _lower_scale(self, low: int) -> None:
        """Re-express the totals on a grid down to ``2**low``."""
        shift = self._low - low
        if shift <= 0:
            return
        self._sum = [value << shift for value in self._sum]
        if self._sumsq is not None:
            self._sumsq = [value << 2 * shift for value in self._sumsq]
        if self._cross is not None:
            self._cross = [value << 2 * shift for value in self._cross]
        self._low = low

    def merge(self, other: "ExactMoments") -> "ExactMoments":
        """Fold another accumulator's totals into this one, exactly."""
        if other.n_features != self.n_features:
            raise ValueError("cannot merge accumulators of different width")
        if ((self._sumsq is None) != (other._sumsq is None)
                or (self._cross is None) != (other._cross is None)):
            raise ValueError(
                "cannot merge accumulators that track different moments"
            )
        self._lower_scale(other._low)
        shift = other._low - self._low
        self._sum = [a + (b << shift) for a, b in zip(self._sum, other._sum)]
        if self._sumsq is not None:
            self._sumsq = [a + (b << 2 * shift)
                           for a, b in zip(self._sumsq, other._sumsq)]
        if self._cross is not None:
            self._cross = [a + (b << 2 * shift)
                           for a, b in zip(self._cross, other._cross)]
        self.count += other.count
        return self

    # ------------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """Exact per-feature mean, rounded to float once."""
        if self.count == 0:
            raise ValueError("no rows accumulated")
        return np.array(_floats(self._sum, self._low, self.count))

    def _variance_numerators(self, ddof: int):
        """``n*S2 - S^2`` per feature (units ``2**(2 * _low)``) and the
        denominator ``n*(n-ddof)``, or ``None`` when ``count <= ddof``."""
        if self._sumsq is None:
            raise ValueError("accumulator was built without track_squares")
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        if n <= ddof:
            return None
        numerators = [n * s2 - s * s for s, s2 in zip(self._sum, self._sumsq)]
        return numerators, n * (n - ddof)

    def variance(self, ddof: int = 0) -> np.ndarray:
        """Exact per-feature variance (``(n*S2 - S^2) / (n*(n-ddof))``).

        Returns zeros when ``count <= ddof`` (undefined denominator).
        """
        exact = self._variance_numerators(ddof)
        if exact is None:
            return np.zeros(self.n_features)
        numerators, denominator = exact
        return np.array(_floats(numerators, 2 * self._low, denominator))

    def variance_exact(self, ddof: int = 0) -> List[Fraction]:
        """Per-feature variance as exact rationals (no float rounding)."""
        exact = self._variance_numerators(ddof)
        if exact is None:
            return [Fraction(0)] * self.n_features
        numerators, denominator = exact
        scale = Fraction(2) ** (2 * self._low)
        return [Fraction(value, denominator) * scale for value in numerators]

    def covariance(self, ddof: int = 1) -> np.ndarray:
        """Exact covariance matrix, rounded to float per entry.

        Returns zeros when ``count <= ddof``.
        """
        if self._cross is None:
            raise ValueError("accumulator was built without track_cross")
        if self.count == 0:
            raise ValueError("no rows accumulated")
        n = self.count
        d = self.n_features
        out = np.zeros((d, d))
        if n <= ddof:
            return out
        upper = np.triu_indices(d)
        sums = self._sum
        numerators = [n * cross - sums[i] * sums[j]
                      for cross, i, j in zip(self._cross, *upper)]
        values = _floats(numerators, 2 * self._low, n * (n - ddof))
        out[upper] = values
        out[upper[::-1]] = values
        return out
