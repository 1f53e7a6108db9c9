"""Entropy sumset calculus for discrete random variables on abelian groups.

Exact-rational distributions, entropy metrics (Ruzsa distance, doubling
constant, transport distance), constructive transport and uniformisation
certificates, the entropy Balog-Szemeredi-Gowers construction, and a
property-based verifier for the whole inequality suite.
"""

__version__ = "0.1.0"

from .groups import GroupSpec, is_subgroup
from .dists import (
    Dist,
    JointDist,
    ci_trials,
    conditional_entropy,
    convolve,
    entropy,
    independent_joint,
    iterated_convolve,
    joint_entropy,
    tv_distance,
)
from .metrics import (
    MetricReport,
    check_ese_suite,
    check_lipschitz,
    doubling_constant,
    jensen_level_sets,
    ruzsa_distance,
    sumset_increase_lhs,
    three_sum_bound,
)
from .progressions import (
    BoxEmbedding,
    CosetProgression,
    box_embedding,
    is_t_proper,
    uniform_on,
)
from .transport import (
    FlattenTrace,
    TransportCertificate,
    compose_certificates,
    flatten,
    identity_certificate,
    independent_noise_certificate,
    independent_pair_certificate,
    reverse_certificate,
    transport_exact,
    transport_split,
    uniformise_coset_progression,
    uniformise_group,
)
from .bsg import BsgInstance, build_path_joint, verify_bsg
from .inverse import (
    CoreReport,
    CosetReport,
    additive_energy,
    detect_coset_uniform,
    effective_support,
    verify_inverse_fixtures,
)
from .torsionfree import (
    PiecewiseDensity,
    SpectrumReport,
    abbn_check,
    binomial_dist,
    binomial_entropy_gap,
    bridge_entropy,
    continuous_entropy,
    doubling_experiment,
    entxx_explore,
    smooth_shift_search,
)
from .fuzz import Counterexample, FuzzConfig, fuzz_run, replay, report_render, submodularity_check

__all__ = [
    "GroupSpec", "is_subgroup",
    "Dist", "JointDist", "entropy", "convolve", "iterated_convolve",
    "joint_entropy", "conditional_entropy", "ci_trials",
    "tv_distance", "independent_joint",
    "MetricReport", "ruzsa_distance", "doubling_constant", "check_ese_suite",
    "check_lipschitz", "sumset_increase_lhs", "jensen_level_sets", "three_sum_bound",
    "CosetProgression", "BoxEmbedding", "is_t_proper", "uniform_on", "box_embedding",
    "TransportCertificate", "FlattenTrace", "transport_exact", "transport_split",
    "flatten", "uniformise_group", "uniformise_coset_progression",
    "identity_certificate", "independent_noise_certificate",
    "independent_pair_certificate", "reverse_certificate", "compose_certificates",
    "BsgInstance", "build_path_joint", "verify_bsg",
    "CosetReport", "CoreReport", "detect_coset_uniform", "effective_support",
    "additive_energy", "verify_inverse_fixtures",
    "PiecewiseDensity", "SpectrumReport", "binomial_dist", "binomial_entropy_gap",
    "doubling_experiment", "entxx_explore", "continuous_entropy", "bridge_entropy",
    "abbn_check", "smooth_shift_search",
    "FuzzConfig", "Counterexample", "fuzz_run", "submodularity_check", "replay",
    "report_render",
]
