"""Kernel protocol and Gram-matrix utilities.

Section 2.2 of the paper separates the learning algorithm from the
learning space: a kernel ``k(x, x')`` supplies all the information an
algorithm sees (Fig. 4), so samples need not be vectors at all — layout
clips and assembly programs are first-class sample types here.

A :class:`Kernel` is any object with ``__call__(x, x') -> float``; the
shared :class:`~repro.kernels.engine.GramEngine` (``default_engine().gram``)
evaluates it over sample collections, and vectorized kernels may
override ``matrix``/``cross_matrix`` for speed.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..core.base import ParamsAPI


def _freeze(value):
    """Render *value* as a hashable structure for :meth:`Kernel.cache_key`.

    Mirrors the semantics of :meth:`Kernel.__eq__`: two values that
    compare equal there freeze to equal structures (so structurally
    equal kernels share hash and cache identity).
    """
    if isinstance(value, Kernel):
        return ("kernel", value.cache_key())
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return ("ndarray", repr(value.tolist()))
        contiguous = np.ascontiguousarray(value)
        digest = hashlib.blake2b(contiguous.tobytes(), digest_size=16)
        return ("ndarray", value.shape, value.dtype.str, digest.digest())
    if isinstance(value, dict):
        items = sorted(
            ((k, _freeze(v)) for k, v in value.items()),
            key=lambda kv: repr(kv[0]),
        )
        return ("dict", tuple(items))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_freeze(v) for v in value), key=repr)))
    if value is None or isinstance(
        value, (bool, int, float, complex, str, bytes)
    ):
        return value
    if callable(value):
        # functions compare by identity in __eq__, so identity (plus a
        # readable qualname) is the right cache granularity
        return (
            "callable",
            getattr(value, "__module__", None),
            getattr(value, "__qualname__", repr(value)),
            id(value),
        )
    return ("repr", repr(value))


class Kernel(ParamsAPI):
    """Base class for similarity functions between arbitrary samples.

    Kernels share the estimator hyper-parameter API
    (``get_params``/``set_params`` with the nested ``a__b`` grammar), so
    an estimator's kernel configuration — ``svc__kernel__gamma`` — is
    addressable from grid search exactly like any other parameter.
    """

    def __call__(self, x, z) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Collection-level evaluation; subclasses override for vectorization.
    # ------------------------------------------------------------------
    def matrix(self, samples: Sequence) -> np.ndarray:
        """Symmetric Gram matrix ``K[i, j] = k(samples[i], samples[j])``."""
        n = len(samples)
        K = np.empty((n, n), dtype=float)
        for i in range(n):
            for j in range(i, n):
                value = float(self(samples[i], samples[j]))
                K[i, j] = value
                K[j, i] = value
        return K

    def cross_matrix(self, samples_a: Sequence, samples_b: Sequence) -> np.ndarray:
        """Rectangular matrix ``K[i, j] = k(samples_a[i], samples_b[j])``."""
        K = np.empty((len(samples_a), len(samples_b)), dtype=float)
        for i, a in enumerate(samples_a):
            for j, b in enumerate(samples_b):
                K[i, j] = float(self(a, b))
        return K

    def __eq__(self, other):
        """Structural equality: same type and same configuration.

        Lets cloned estimators compare equal on their kernel parameter
        and lets tests assert kernel round-trips.  Different kernel
        classes — including subclasses — compare unequal symmetrically;
        only non-kernels defer with ``NotImplemented``.
        """
        if not isinstance(other, Kernel):
            return NotImplemented
        if type(self) is not type(other):
            return False
        if set(self.__dict__) != set(other.__dict__):
            return False
        for key, value in self.__dict__.items():
            other_value = other.__dict__[key]
            if isinstance(value, np.ndarray) or isinstance(
                other_value, np.ndarray
            ):
                if not np.array_equal(value, other_value):
                    return False
            elif value != other_value:
                return False
        return True

    def cache_key(self) -> tuple:
        """Hashable structural identity: type plus frozen configuration.

        Equal kernels (per :meth:`__eq__`) produce equal keys, so any
        dict or cache keyed on kernels — in particular the
        :class:`~repro.kernels.engine.GramEngine` block cache — treats a
        reconstructed kernel with the same hyper-parameters as the same
        kernel.  The key reflects current state; mutating a kernel's
        parameters changes it.
        """
        return (
            type(self).__module__,
            type(self).__qualname__,
            _freeze(self.__dict__),
        )

    # hashing is structural and consistent with __eq__ (equal kernels
    # hash equal), so kernels work as dict/cache keys
    def __hash__(self):
        return hash(self.cache_key())

    def fingerprint(self) -> str:
        """Stable hex digest of :meth:`cache_key`.

        The checkpoint/shard key form of the kernel's structural
        identity — two kernels with equal configuration fingerprint
        identically across processes and runs.
        """
        from ..core.resilience import fingerprint

        return fingerprint(self)


def center_gram(K: np.ndarray) -> np.ndarray:
    """Center a Gram matrix in feature space.

    Equivalent to subtracting the feature-space mean from every mapped
    sample, a common preprocessing step for kernel PCA-style analyses.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    row_mean = K.mean(axis=0, keepdims=True)
    total_mean = K.mean()
    return K - row_mean - row_mean.T + total_mean


def normalize_gram(K: np.ndarray) -> np.ndarray:
    """Cosine-normalize a Gram matrix: ``K'[i,j] = K[i,j]/sqrt(K[i,i]K[j,j])``."""
    K = np.asarray(K, dtype=float)
    diag = np.sqrt(np.clip(np.diag(K), 1e-300, None))
    return K / np.outer(diag, diag)


def is_positive_semidefinite(K: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Check Mercer's condition numerically on a finite Gram matrix.

    A kernel is only admissible for SVM-family learners when every Gram
    matrix it produces is PSD; this check is used by property-based tests
    to validate all kernels in the library.
    """
    K = np.asarray(K, dtype=float)
    if not np.allclose(K, K.T, atol=1e-8):
        return False
    eigenvalues = np.linalg.eigvalsh((K + K.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    return bool(eigenvalues.min() >= -tolerance * scale)


class PrecomputedKernel(Kernel):
    """Kernel backed by an explicit sample-index Gram matrix.

    Samples are integer indices into the stored matrix.  Used when an
    expensive domain kernel (e.g. lithography image similarity) is
    evaluated once and cached.
    """

    def __init__(self, K: np.ndarray):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K must be a square matrix")
        self.K = K

    def __call__(self, i, j) -> float:
        return float(self.K[int(i), int(j)])

    def matrix(self, samples) -> np.ndarray:
        idx = np.asarray(samples, dtype=int)
        return self.K[np.ix_(idx, idx)]

    def cross_matrix(self, samples_a, samples_b) -> np.ndarray:
        a = np.asarray(samples_a, dtype=int)
        b = np.asarray(samples_b, dtype=int)
        return self.K[np.ix_(a, b)]
