"""weightspec: exact spectral, Frobenius and monodromy data of positive
weight systems, computed entirely in rational arithmetic."""

__version__ = "0.1.0"

from .weights import (
    GcdNotOne,
    NonPositiveWeight,
    TooFewWeights,
    WeightSystem,
    WeightSystemError,
    make_weight_system,
)
from .spectrum import (
    IdentityViolation,
    Spectrum,
    StepSequence,
    check_symmetry,
    spectral_polynomial,
    spectrum_direct,
    spectrum_from_steps,
    step_sequence,
)
from .gaussmanin import (
    DimensionMismatch,
    GElement,
    canonical_exponents,
    f_action,
    reduce_monomial,
    tau_dtau,
    v_order,
)
from .frobenius import (
    FrobeniusInitialData,
    IndexOutOfRange,
    charpoly_A0,
    initial_data,
    metric_partner,
)
from .filtrations import (
    FiltrationReport,
    JordanBlock,
    JordanData,
    conjugate_index,
    eigenvalue_classes,
    jordan_blocks,
    primitive_indices,
    saito_filtration,
)
from .reflexive import (
    DimensionTooLarge,
    InconsistentRecord,
    ReflexiveRecord,
    enumerate_reflexive,
    is_reflexive,
)
from .verify import verify_all

__all__ = [
    "__version__",
    "DimensionMismatch",
    "DimensionTooLarge",
    "FiltrationReport",
    "FrobeniusInitialData",
    "GcdNotOne",
    "GElement",
    "IdentityViolation",
    "InconsistentRecord",
    "IndexOutOfRange",
    "JordanBlock",
    "JordanData",
    "NonPositiveWeight",
    "ReflexiveRecord",
    "Spectrum",
    "StepSequence",
    "TooFewWeights",
    "WeightSystem",
    "WeightSystemError",
    "canonical_exponents",
    "charpoly_A0",
    "check_symmetry",
    "conjugate_index",
    "eigenvalue_classes",
    "enumerate_reflexive",
    "f_action",
    "initial_data",
    "is_reflexive",
    "jordan_blocks",
    "make_weight_system",
    "metric_partner",
    "primitive_indices",
    "reduce_monomial",
    "saito_filtration",
    "spectral_polynomial",
    "spectrum_direct",
    "spectrum_from_steps",
    "step_sequence",
    "tau_dtau",
    "v_order",
    "verify_all",
]
