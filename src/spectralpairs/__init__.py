"""Exponential frames, Riesz bases and orthogonal bases on unions of boxes.

The library glues a continuous exponential system on a base domain to a
finite exponential pair on Z_N^d: translating the domain by a set A and
shifting the spectrum by J/N produces a system on the union whose frame
constants are the products of the input constants.  Alongside the
construction it computes explicit biorthogonal duals, certifies Gram
spectra analytically, searches Z_N^d for finite pairs, and demonstrates
aliasing-free sampling reconstruction on the produced domains.
"""

from .analytics import (
    DualBasis,
    GramMatrix,
    build_gram,
    estimate_frame_bounds,
    exp_inner_product,
    reconstruct_function,
    verify_biorthogonality,
)
from .constructor import (
    CombinedPairResult,
    CompletenessReport,
    ContinuousPair,
    HypothesisCheck,
    cartesian_product,
    check_completeness_hypotheses,
    combine_frame,
    combine_orthogonal,
    combine_riesz,
)
from .domains import (
    BoxDomain,
    Spectrum,
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    root_of_unity_condition,
    scaled_lattice,
    shift_spectrum,
    unit_box,
)
from .errors import (
    DimensionMismatchError,
    DuplicateSpectrumError,
    EmptySpectrumError,
    InputError,
    InsufficientSpectrumError,
    NonInvertibleError,
    OverlapError,
    ShapeMismatchError,
    SpectralPairError,
    SymmetryUndefinedError,
    UnsupportedPairError,
)
from .finite_pairs import (
    EvaluationMatrix,
    FiniteClassification,
    FiniteSet,
    HadamardReport,
    PairKind,
    Tolerances,
    build_evaluation_matrix,
    classify_finite_pair,
    hadamard_report,
    symbol_of_set,
    transpose_pair,
)
from .sampling import (
    AliasReport,
    BandlimitedSignal,
    SamplePattern,
    reconstruct_spectrum,
    sample_signal,
    verify_alias_cancellation,
)
from .search import (
    SearchMatch,
    SearchQuery,
    SearchResult,
    enumerate_pairs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
