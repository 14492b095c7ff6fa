"""Noisy binary threshold networks: their exact and sampled input-output
mutual information.  The size and information bounds on such networks
are closed forms, in ``closed_form``.

A network is simply layered: every synaptic connection joins adjacent
layers and inputs enter only at layer 0.  Each neuron computes
sgn(w . x + bias) with sgn(0) = 1, and its output is then flipped
independently with probability xi, so a layer is a deterministic 0/1 map
followed by independent bit-flip noise.

The firing rule, in floating point: a neuron fires iff the sum that
starts at its bias and adds the weights of its set inputs in ascending
input order is >= 0.  Exact propagation and Monte Carlo both fire by it,
so they agree on every input state, ties included.
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
    LogBase,
    _as_base,
    check_layer_bytes,
    flip_bits,
    phi_information,
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
        object.__setattr__(self, "xi", interval(self.xi, "flip probability", "[0, 0.5)"))
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
        """The network ``to_dict`` describes; every number in it must be a JSON
        number, not text, null or a boolean.  An error names the first bad entry."""
        try:
            layers = [
                [ThresholdNeuron([_number(w) for w in _list(n, "weights", f"layers[{i}].neurons[{j}].")],
                                 _number(n["bias"]))
                 for j, n in enumerate(_list(layer, "neurons", f"layers[{i}]."))]
                for i, layer in enumerate(_list(data, "layers", ""))
            ]
            return NoisyNetwork(layers, _number(data["xi"]), _number(data["input_width"]))
        except KeyError as exc:
            raise ValidationError(f"malformed network description: missing {exc}") from None
        except OverflowError as exc:
            raise ValidationError(f"malformed network description: {exc}") from None


def _list(obj, key: str, path: str) -> list:
    """``obj[key]`` if ``obj``, the entry at ``path`` (empty, or ending in
    a dot) of a network file, is an object and that entry a list."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{path[:-1] or 'network description'} must be an object with {key!r}")
    if not isinstance(obj[key], list):
        raise ValidationError(f"{path}{key} must be a list")
    return obj[key]


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("network entries must be numbers")
    return value


def load_network(path) -> NoisyNetwork:
    """Read a network file, JSON in the layout of ``NoisyNetwork.to_dict``;
    an error names the file."""
    try:
        return NoisyNetwork.from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _check_input_law(net: NoisyNetwork, p_x: Distribution | None) -> None:
    n_in = 1 << net.input_width
    if p_x is not None and p_x.alphabet_size != n_in:
        raise ValidationError(f"input law has {p_x.alphabet_size} states, network expects {n_in}")


def _fired(layer: Sequence[ThresholdNeuron]) -> np.ndarray:
    """fired[s], the state a threshold layer maps input state s to, by the
    module's rule: pre[s] = bias + weights . bits(s), one input bit at a time."""
    fired = np.zeros(1 << layer[0].fan_in, dtype=np.int64)
    pre = np.empty(len(fired))
    for j, neuron in enumerate(layer):
        pre[0] = neuron.bias
        for i, w in enumerate(neuron.weights):
            np.add(pre[: 1 << i], w, out=pre[1 << i : 2 << i])
        np.add(fired, 1 << j, out=fired, where=pre >= 0.0)
    return fired


def _propagate(layers: Sequence[Sequence[ThresholdNeuron]], xi: float) -> np.ndarray:
    """Channel matrix of noisy layers in turn on the first one's input
    states.  Input states that fire the same first-layer state share
    every row, so each distinct fired state is propagated once, from a 1
    in its column: ``info.flip_bits`` adds each layer's noise, and a later
    threshold map adds every column into that of the state it fires.  Each
    layer's output, 2^input_width x 2^width floats, first passes
    ``info.check_layer_bytes``; no array is larger: there are no more
    distinct rows, and the row index and ``_fired``'s arrays have 2^fan_in
    entries, fan_in checked."""
    for layer in layers:
        check_layer_bytes(layers[0][0].fan_in, len(layer))
    # rows[s]: the state input state s fires, then that state's row.
    rows = _fired(layers[0])
    hit = np.zeros(1 << len(layers[0]), dtype=bool)
    hit[rows] = True
    states, rows = np.flatnonzero(hit), (np.cumsum(hit) - 1)[rows]
    m = np.zeros((len(states), len(hit)))
    m[np.arange(len(states)), states] = 1.0
    m = flip_bits(m, xi)
    for layer in layers[1:]:
        prev, m = m, np.zeros((len(m), 1 << len(layer)))
        np.add.at(m.T, _fired(layer), prev.T)
        del prev  # before flip_bits allocates its spare
        m = flip_bits(m, xi)
    # Not m[rows]: at 2^24 rows of two entries np.take gathers 6x faster.
    return np.take(m, rows, axis=0)


def layer_channel(layer: Sequence[ThresholdNeuron], xi: float) -> Channel:
    """Channel of one noisy layer: threshold map followed by bit-flip noise.

    Rows index the 2^fan_in input states, columns the 2^width output
    states, both little-endian (neuron i is bit i); checked as a one-layer ``NoisyNetwork``.
    """
    layer = tuple(layer)
    return network_channel(NoisyNetwork((layer,), xi, layer[0].fan_in if layer else 1))


def network_channel(net: NoisyNetwork) -> Channel:
    """End-to-end channel from input states to last-layer output states,
    propagated layer by layer (see ``_propagate``)."""
    return Channel(_propagate(net.layers, net.xi))


def exact_io_mutual_information(
    net: NoisyNetwork, p_x: Distribution | None = None, base: LogBase = "nats"
) -> float:
    """Exact I(input; output) under input law p_x (uniform over the
    2^input_width states by default): ``info.phi_information`` summed in
    place over blocks of about sqrt(rows) rows of ``_propagate``'s matrix."""
    _check_input_law(net, p_x)
    m = _propagate(net.layers, net.xi)
    px = Distribution.uniform(len(m)).probs if p_x is None else p_x.probs
    py = px @ m
    step = math.isqrt(len(m))
    mi = sum(float(phi_information(m[a : a + step], px[a : a + step], py))
             for a in range(0, len(m), step))
    return _as_base(mi, base)


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


def _layer_arrays(layer: Sequence[ThresholdNeuron]) -> tuple[np.ndarray, np.ndarray, float]:
    """(weights, biases, tie bound) of a layer for ``_fire``: any two orders
    of summing a neuron's bias and weights agree within (fan_in + 1) 2^-52
    (|bias| + sum |w|), and the tie bound is the layer's largest."""
    w = np.vstack([n.weights for n in layer])
    b = np.array([n.bias for n in layer])
    return w, b, (w.shape[1] + 1) * 2.0**-52 * float((np.abs(b) + np.abs(w).sum(axis=1)).max())


def _fire(bits: np.ndarray, w: np.ndarray, b: np.ndarray, tie: float) -> np.ndarray:
    """Which neurons fire on each row of 0/1 inputs, by the module's rule:
    one matmul, whose summation order BLAS chooses, then the entries within
    the tie bound of zero, where that order can decide the sign, summed
    again in ``_propagate``'s order."""
    pre = bits @ w.T + b
    near = np.abs(pre) <= tie
    if near.any():
        rows, cols = np.nonzero(near)
        ordered = b[cols]
        for i in range(w.shape[1]):
            ordered = ordered + np.where(bits[rows, i] != 0, w[cols, i], 0.0)
        pre[rows, cols] = ordered
    return pre >= 0.0


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
    the first, u, selects the input state from p_x (under the default
    uniform law floor(u 2^input_width), the state a search of its
    cumulative sums finds), then one per neuron (layer by layer, neuron
    order within a layer) decides its flip.  Neurons fire by the module's
    rule (``_fire``), so a noiseless layer maps every input state as
    ``layer_channel`` does.  A trial keeps only its
    (input, output) state pair, as an int64 code of input plus output
    width bits, at most 53, all that u resolves.  The plug-in estimate
    and its delta-method stderr sum over the occupied cells.
    """
    trials = count(trials, "trial count")
    n_in, n_out = net.input_width, net.widths[-1]
    count(n_in + n_out, "input plus output width of a Monte Carlo estimate", maximum=53)
    _check_input_law(net, p_x)
    cum = None if p_x is None else np.cumsum(p_x.probs)
    layers = [_layer_arrays(layer) for layer in net.layers]
    codes = np.empty(trials, dtype=np.int64)
    for start, stop, rng in trial_blocks(trials, seed):
        draws = rng.random((stop - start, 1 + sum(net.widths)))
        x_states = ((draws[:, 0] * (1 << n_in)).astype(np.int64) if cum is None else
                    np.minimum(np.searchsorted(cum, draws[:, 0], side="right"), cum.size - 1))
        bits = (x_states[:, None] >> np.arange(n_in)) & 1
        offset = 1
        for w, b, tie in layers:
            flips = draws[:, offset : offset + len(b)] < net.xi
            bits = (_fire(bits, w, b, tie) ^ flips).astype(np.int64)
            offset += len(b)
        codes[start:stop] = (x_states << n_out) | (bits @ (1 << np.arange(n_out)))

    cells, n_xy = np.unique(codes, return_counts=True)
    n_x, n_y = (np.bincount(inv, n_xy)[inv] for inv in (
        np.unique(cells >> n_out, return_inverse=True)[1],
        np.unique(cells & ((1 << n_out) - 1), return_inverse=True)[1]))
    p_hat = n_xy / trials
    log_ratio = np.log(n_xy * float(trials) / (n_x * n_y))
    mi = float(p_hat @ log_ratio)
    # Asymptotic (delta-method) variance of the plug-in estimate.
    var = float(p_hat @ log_ratio**2) - mi**2
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
