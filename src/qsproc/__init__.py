"""Causal correlation kernels of sequential quantum measurements.

The package represents finite causal sites, event words over finite outcome
spaces, and projector-valued measurement models; computes the chronologically
ordered correlation kernels such models induce; verifies the axioms that
characterize legitimate kernel systems; and reconstructs from any such system
its minimal realization, unique up to the intertwining unitary the package
also builds.  Diagnostics cover conditional Markovianity, regularity and
relaxation, level lifts of device fields, and the reduction of commuting
models to classical probability measures.
"""

__version__ = "0.1.0"

from .sites import (
    CausalSite,
    SiteSymmetry,
    chain_site,
    check_symmetry,
    discrete_site,
    galilean_site,
    minkowski_site,
)
from .words import (
    EventWord,
    OutcomeSpaces,
    enumerate_words,
    pointwise_product,
    unit_word,
)
from .models import Check, HilbertModel, Report, SymmetryRep, check_model
from .kernels import KernelOracle, check_axioms, check_regularity
from .reconstruct import (
    GnsSpace,
    ReconstructedProcess,
    ReconstructionRefused,
    build_space,
    verify_decomposition,
)
from .equivalence import (
    EquivalenceRefused,
    ModelMorphism,
    build_unitary,
    check_model_relation,
    check_wide_equivalence,
    minimal_modification,
)
from .markov import (
    GeneratedAlgebra,
    check_dynamicity,
    check_narrow_commutativity,
    check_regression,
    check_relaxation,
    generate_algebra,
)
from .bridges import (
    ReductionRefused,
    classical_reduce,
    interference_witness,
    lexicographic_site,
    lift_process,
    verify_lift,
)
from .config import RunConfig

__all__ = [
    "CausalSite",
    "Check",
    "EventWord",
    "EquivalenceRefused",
    "GeneratedAlgebra",
    "GnsSpace",
    "HilbertModel",
    "KernelOracle",
    "ModelMorphism",
    "OutcomeSpaces",
    "ReconstructedProcess",
    "ReconstructionRefused",
    "ReductionRefused",
    "Report",
    "RunConfig",
    "SiteSymmetry",
    "SymmetryRep",
    "build_space",
    "build_unitary",
    "chain_site",
    "check_axioms",
    "check_dynamicity",
    "check_model",
    "check_model_relation",
    "check_narrow_commutativity",
    "check_regression",
    "check_regularity",
    "check_relaxation",
    "check_symmetry",
    "check_wide_equivalence",
    "classical_reduce",
    "discrete_site",
    "enumerate_words",
    "galilean_site",
    "generate_algebra",
    "interference_witness",
    "lexicographic_site",
    "lift_process",
    "minimal_modification",
    "minkowski_site",
    "pointwise_product",
    "unit_word",
    "verify_decomposition",
    "verify_lift",
]
