"""Noisy binary threshold networks: their exact and sampled input-output
mutual information.  The size and information bounds on such networks
are closed forms, in ``closed_form``.

A network is simply layered: every synaptic connection joins adjacent
layers and inputs enter only at layer 0.  Each neuron computes
sgn(w . x + bias) with sgn(0) = 1, and its output is then flipped
independently with probability xi, so a layer is a deterministic 0/1 map
followed by independent bit-flip noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError, count, interval
from .info import (
    Channel,
    Distribution,
    JointDistribution,
    LogBase,
    _as_base,
    check_layer_bytes,
    flip_bits,
    joint,
    mutual_information,
    trial_blocks,
)

@dataclass(frozen=True, eq=False)
class ThresholdNeuron:
    """Binary threshold gate with real weights and bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0 or not np.all(np.isfinite(w)):
            raise ValidationError("neuron needs finite weights (at least one)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", interval(self.bias, "neuron bias", "(-inf, inf)"))

    @property
    def fan_in(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class NoisyNetwork:
    """Simply layered network of threshold neurons with flip probability xi."""

    layers: tuple[tuple[ThresholdNeuron, ...], ...]
    xi: float
    input_width: int

    def __post_init__(self):
        interval(self.xi, "flip probability", "[0, 0.5)")
        object.__setattr__(self, "input_width", count(self.input_width, "input width"))
        layers = tuple(tuple(layer) for layer in self.layers)
        if not layers or any(not layer for layer in layers):
            raise ValidationError("network needs at least one non-empty layer")
        fan_in = self.input_width
        for idx, layer in enumerate(layers):
            for neuron in layer:
                if neuron.fan_in != fan_in:
                    raise ValidationError(
                        f"layer {idx} neuron fan-in {neuron.fan_in} != previous width {fan_in}; "
                        "the network must be simply layered"
                    )
            fan_in = len(layer)
        object.__setattr__(self, "layers", layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "input_width": self.input_width,
            "layers": [
                {"neurons": [{"weights": n.weights.tolist(), "bias": n.bias} for n in layer]}
                for layer in self.layers
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "NoisyNetwork":
        try:
            layers = tuple(
                tuple(ThresholdNeuron(n["weights"], n["bias"]) for n in layer["neurons"])
                for layer in data["layers"]
            )
            return NoisyNetwork(layers=layers, xi=data["xi"], input_width=data["input_width"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed network description: missing {exc}") from None


def load_network(path) -> NoisyNetwork:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return NoisyNetwork.from_dict(data)


def _layer_bits(layers: Sequence[Sequence[ThresholdNeuron]]) -> list[tuple[int, int]]:
    """(row bits, column bits) of the largest matrix each layer builds: the
    first layer's input states by the wider of its fan-in and width."""
    in_bits = layers[0][0].fan_in
    return [(in_bits, max(layer[0].fan_in, len(layer))) for layer in layers]


def _input_law(
    net: NoisyNetwork, p_x: Distribution | None, matrices: Sequence[tuple[int, int]]
) -> Distribution:
    """p_x, or by default the uniform law on the 2^input_width input states,
    once every (row bits, column bits) matrix in ``matrices`` has passed
    ``info.check_layer_bytes``: a network too wide to evaluate is refused
    before its input law is built."""
    for bits in matrices:
        check_layer_bytes(*bits)
    n_in = 1 << net.input_width
    if p_x is None:
        p_x = Distribution.uniform(n_in)
    if p_x.alphabet_size != n_in:
        raise ValidationError(f"input law has {p_x.alphabet_size} states, network expects {n_in}")
    return p_x


def _propagate(layers: Sequence[Sequence[ThresholdNeuron]], xi: float) -> np.ndarray:
    """Channel matrix of noisy layers in turn on the first one's input
    states: each threshold map adds every column into the column of the
    state it fires, then ``info.flip_bits`` adds the noise.  Every layer
    first passes ``info.check_layer_bytes`` and builds no larger array.
    """
    for bits in _layer_bits(layers):
        check_layer_bytes(*bits)
    m = np.eye(1 << layers[0][0].fan_in)
    for layer in layers:
        fan_in, width = layer[0].fan_in, len(layer)
        # Input state s fires state fired[s]; pre[s] = bias + weights . bits(s).
        fired = np.zeros(1 << fan_in, dtype=np.int64)
        pre = np.empty(1 << fan_in)
        for j, neuron in enumerate(layer):
            pre[0] = neuron.bias
            for i, w in enumerate(neuron.weights):
                np.add(pre[: 1 << i], w, out=pre[1 << i : 2 << i])
            np.add(fired, 1 << j, out=fired, where=pre >= 0.0)
        out = np.zeros((m.shape[0], 1 << width))
        np.add.at(out.T, fired, m.T)
        m = flip_bits(out, xi)
    return m


def layer_channel(layer: Sequence[ThresholdNeuron], xi: float) -> Channel:
    """Channel of one noisy layer: threshold map followed by bit-flip noise.

    Rows index the 2^fan_in input states, columns the 2^width output
    states, both little-endian (neuron i is bit i).
    """
    xi = interval(xi, "flip probability", "[0, 0.5)")
    neurons = tuple(layer)
    if not neurons:
        raise ValidationError("layer must contain at least one neuron")
    fan_in = neurons[0].fan_in
    if any(n.fan_in != fan_in for n in neurons):
        raise ValidationError("all neurons in a layer must share the same fan-in")
    return Channel(_propagate([neurons], xi))


def network_channel(net: NoisyNetwork) -> Channel:
    """End-to-end channel from input states to last-layer output states,
    propagated layer by layer (see ``_propagate``)."""
    return Channel(_propagate(net.layers, net.xi))


def exact_io_mutual_information(
    net: NoisyNetwork, p_x: Distribution | None = None, base: LogBase = "nats"
) -> float:
    """Exact I(input; output) under input law p_x (uniform over the
    2^input_width states by default), through ``network_channel``."""
    p_x = _input_law(net, p_x, _layer_bits(net.layers))
    return mutual_information(joint(p_x, network_channel(net)), base)


@dataclass(frozen=True)
class MiEstimate:
    """Plug-in mutual-information estimate from sampled forward passes.

    The plug-in estimator is biased upward by roughly (cells - 1)/(2 trials);
    the bias is documented, not corrected.
    """

    estimate: float
    stderr: float
    trials: int
    seed: int


def monte_carlo_io_mi(
    net: NoisyNetwork,
    p_x: Distribution | None = None,
    trials: int = 10000,
    seed: int = 0,
    base: LogBase = "nats",
) -> MiEstimate:
    """Estimate I(input; output) by sampling noisy forward passes.

    Each trial takes a row of uniforms, drawn row-major, block b of
    ``BLOCK`` trials from ``default_rng((seed, b))`` (``info.trial_blocks``):
    the first selects the input state from p_x, then one per neuron (layer
    by layer, neuron order within a layer) decides its flip.  Counts
    accumulate into an empirical joint table, so the result is
    reproducible and order-independent.
    """
    trials = count(trials, "trial count")
    # The count table holds 2^input_width x 2^output_width cells.
    p_x = _input_law(net, p_x, [(net.input_width, net.widths[-1])])
    n_in = 1 << net.input_width

    draws = np.empty((trials, 1 + sum(net.widths)))
    for start, stop, rng in trial_blocks(trials, seed):
        rng.random(out=draws[start:stop])

    cum = np.cumsum(p_x.probs)
    x_states = np.minimum(np.searchsorted(cum, draws[:, 0], side="right"), n_in - 1)
    bits = (x_states[:, None] >> np.arange(net.input_width)) & 1
    offset = 1
    for layer in net.layers:
        w = np.vstack([n.weights for n in layer])
        b = np.array([n.bias for n in layer])
        fired = bits @ w.T + b >= 0.0
        flips = draws[:, offset : offset + len(layer)] < net.xi
        bits = (fired ^ flips).astype(np.int64)
        offset += len(layer)
    y_states = bits @ (1 << np.arange(len(net.layers[-1])))

    n_out = 1 << len(net.layers[-1])
    counts = np.bincount(x_states * n_out + y_states, minlength=n_in * n_out)
    p_hat = (counts / trials).reshape(n_in, n_out)

    px_hat = p_hat.sum(axis=1)
    py_hat = p_hat.sum(axis=0)
    mi = mutual_information(JointDistribution(p_hat))
    # Asymptotic (delta-method) variance of the plug-in estimate.
    nz = p_hat > 0.0
    log_ratio = np.zeros_like(p_hat)
    log_ratio[nz] = np.log(p_hat[nz] / (px_hat[:, None] * py_hat[None, :])[nz])
    var = float(np.sum(p_hat * log_ratio**2) - mi**2)
    stderr = math.sqrt(max(var, 0.0) / trials)
    return MiEstimate(
        estimate=_as_base(mi, base), stderr=_as_base(stderr, base), trials=trials, seed=seed
    )


def random_network(
    input_width: int, widths: Sequence[int], xi: float, seed: int = 0
) -> NoisyNetwork:
    """Seeded random network: weights uniform in [-1, 1], biases uniform in
    [-fan_in/2, fan_in/2].  The bounds hold for all weights, so randomized
    networks are the adversarial test case."""
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_width
    for width in widths:
        layer = tuple(
            ThresholdNeuron(
                weights=rng.uniform(-1.0, 1.0, size=fan_in),
                bias=rng.uniform(-fan_in / 2.0, fan_in / 2.0),
            )
            for _ in range(width)
        )
        layers.append(layer)
        fan_in = width
    return NoisyNetwork(layers=tuple(layers), xi=xi, input_width=input_width)
