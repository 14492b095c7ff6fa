"""Contraction bounds for noisy discrete channels and their consequences
for noisy binary threshold networks and fault-tolerant memories.

The public names load their submodule on first use (PEP 562), so
``import sdpi`` costs nothing until a name is asked for, and the closed
forms, which live in ``closed_form``, never load numpy.
"""

import importlib

_EXPORTS = {
    "errors": ("InfeasibleError", "ValidationError"),
    "info": (
        "Channel",
        "Distribution",
        "JointDistribution",
        "compose",
        "entropy",
        "joint",
        "load_channel",
        "load_distribution",
        "mutual_information",
    ),
    "closed_form": (
        "AmGmBound",
        "DepthTradeoff",
        "LayerNoiseSpec",
        "RelaxationBound",
        "SizeBoundResult",
        "amgm_product_bound",
        "delta_capacity",
        "evans_schulman_raw",
        "independent_layer_bound",
        "information_decay_bound",
        "min_neurons_lower_bound",
        "optimal_depth_tradeoff",
        "overhead_lower_bound",
        "parity_size_complexity",
        "relaxation_upper_bound",
        "shared_noise_slope",
    ),
    "contraction": (
        "ContractionBound",
        "CorrelatedNoiseSpec",
        "contraction_bound",
        "correlated_layer_bound_exact",
        "correlated_layer_bound_leading",
        "correlated_layer_channel",
        "independent_layer_channel",
        "quadratic_decomposition_check",
        "rayleigh_supremum",
    ),
    "network": (
        "MiEstimate",
        "NoisyNetwork",
        "ThresholdNeuron",
        "exact_io_mutual_information",
        "layer_channel",
        "load_network",
        "monte_carlo_io_mi",
        "network_channel",
        "random_network",
    ),
    "memory": (
        "MemorySpec",
        "RepetitionRelaxation",
        "SimulationReport",
        "catastrophic_prob_chernoff",
        "catastrophic_prob_exact",
        "repetition_relaxation_time",
        "simulate_memory",
    ),
    "verify": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # A submodule that ``import sdpi`` used to load eagerly still
    # resolves as an attribute of the package.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
