"""Entropy sumset calculus for discrete random variables on abelian groups.

Exact-rational distributions, entropy metrics (Ruzsa distance, doubling
constant, transport distance), constructive transport and uniformisation
certificates, the entropy Balog-Szemeredi-Gowers construction, and a
property-based verifier for the whole inequality suite.

Each public name is listed once, in `_EXPORTS`, under its defining module,
and resolves on first access (PEP 562 `__getattr__`), which imports only that
module: `import entsum` loads no submodule, and `from entsum import transport`
still imports the submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "groups": ("GroupSpec", "is_subgroup"),
    "dists": (
        "Dist", "JointDist", "entropy", "convolve", "iterated_convolve",
        "joint_entropy", "conditional_entropy", "ci_trials", "tv_distance",
        "independent_joint",
    ),
    "metrics": (
        "MetricReport", "ruzsa_distance", "doubling_constant", "check_ese_suite",
        "check_lipschitz", "sumset_increase_lhs", "jensen_level_sets", "three_sum_bound",
    ),
    "progressions": (
        "CosetProgression", "BoxEmbedding", "is_t_proper", "uniform_on", "box_embedding",
    ),
    "transport": (
        "TransportCertificate", "FlattenTrace", "transport_exact", "transport_split",
        "flatten", "uniformise_group", "uniformise_coset_progression",
        "identity_certificate", "independent_noise_certificate",
        "independent_pair_certificate", "reverse_certificate", "compose_certificates",
    ),
    "bsg": ("BsgInstance", "build_path_joint", "verify_bsg"),
    "inverse": (
        "CosetReport", "CoreReport", "detect_coset_uniform", "effective_support",
        "additive_energy", "verify_inverse_fixtures",
    ),
    "torsionfree": (
        "PiecewiseDensity", "SpectrumReport", "binomial_dist", "binomial_entropy_gap",
        "doubling_experiment", "entxx_explore", "continuous_entropy", "bridge_entropy",
        "abbn_check", "smooth_shift_search",
    ),
    "fuzz": (
        "FuzzConfig", "Counterexample", "fuzz_run", "submodularity_check", "replay",
        "report_render",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
