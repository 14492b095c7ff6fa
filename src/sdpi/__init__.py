"""Contraction bounds for noisy discrete channels and their consequences
for noisy binary threshold networks and fault-tolerant memories."""

from .errors import InfeasibleError, ValidationError
from .info import (
    Channel,
    Distribution,
    JointDistribution,
    compose,
    entropy,
    joint,
    load_channel,
    load_distribution,
    mutual_information,
)
from .contraction import (
    ContractionBound,
    CorrelatedNoiseSpec,
    EmpiricalContraction,
    LayerNoiseSpec,
    SearchConfig,
    contraction_bound,
    correlated_layer_bound_exact,
    correlated_layer_bound_leading,
    correlated_layer_channel,
    empirical_contraction,
    evans_schulman_raw,
    independent_layer_bound,
    independent_layer_channel,
    matched_noise_slope,
    quadratic_decomposition_check,
    rayleigh_supremum,
    shared_noise_ordering_holds,
    shared_noise_slope,
)
from .network import (
    AmGmBound,
    DepthTradeoff,
    MiEstimate,
    NoisyNetwork,
    SizeBoundResult,
    ThresholdNeuron,
    amgm_product_bound,
    delta_capacity,
    exact_io_mutual_information,
    information_decay_bound,
    layer_channel,
    load_network,
    min_neurons_lower_bound,
    monte_carlo_io_mi,
    network_channel,
    optimal_depth_tradeoff,
    parity_size_complexity,
    random_network,
)
from .memory import (
    MemorySpec,
    RelaxationBound,
    RepetitionRelaxation,
    SimulationReport,
    catastrophic_prob_chernoff,
    catastrophic_prob_exact,
    overhead_lower_bound,
    relaxation_upper_bound,
    repetition_relaxation_time,
    simulate_memory,
)

__version__ = "0.1.0"
