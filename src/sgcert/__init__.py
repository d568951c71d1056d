"""Subspace arrangements, dependency systems, scaling, and dimension bounds."""

from .arrangement import (
    Arrangement,
    Subspace,
    complex_to_real,
    generate,
    pairwise_zero_intersection,
    read_arrangement,
    tau_separated,
    write_arrangement,
)
from .certifier import (
    Certificate,
    CertifyBudget,
    CertifyResult,
    certify,
    decompose_step,
    separated_certificate,
)
from .dependency import (
    TripleSystem,
    build_sg_system,
    build_triple_family,
    find_special_spaces,
    is_dependent_triple,
    map_and_clean,
    prune_low_degree,
    validate_system,
)
from .linalg import Tolerance
from .scaling import (
    AdmissibleSample,
    HullCertificate,
    ScalingMap,
    admissible_hull_vector,
    spanning_model,
    optimize,
    projector_gap,
    sample_admissible,
)

__version__ = "0.1.0"
