"""Kernel functions: the learning-space half of Fig. 4's separation."""

from .base import (
    Kernel,
    PrecomputedKernel,
    center_gram,
    is_positive_semidefinite,
    normalize_gram,
)
from .approx import (
    NystromApproximation,
    RandomFourierFeatures,
    resolve_feature_map,
)
from .composite import NormalizedKernel, ProductKernel, ScaledKernel, SumKernel
from .engine import GramCounters, GramEngine, default_engine, set_default_engine
from .histogram import ChiSquaredKernel, HistogramIntersectionKernel
from .sequence import (
    BlendedSpectrumKernel,
    SpectrumKernel,
    ngram_counts,
    spectrum_feature_map,
)
from .vector import (
    LaplacianKernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    SigmoidKernel,
    explicit_degree2_map,
    median_heuristic_gamma,
)

__all__ = [
    "BlendedSpectrumKernel",
    "ChiSquaredKernel",
    "GramCounters",
    "GramEngine",
    "HistogramIntersectionKernel",
    "Kernel",
    "LaplacianKernel",
    "LinearKernel",
    "NormalizedKernel",
    "NystromApproximation",
    "PolynomialKernel",
    "PrecomputedKernel",
    "ProductKernel",
    "RBFKernel",
    "RandomFourierFeatures",
    "ScaledKernel",
    "SigmoidKernel",
    "SpectrumKernel",
    "SumKernel",
    "center_gram",
    "default_engine",
    "explicit_degree2_map",
    "is_positive_semidefinite",
    "median_heuristic_gamma",
    "ngram_counts",
    "normalize_gram",
    "resolve_feature_map",
    "set_default_engine",
    "spectrum_feature_map",
]
