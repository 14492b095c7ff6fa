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
input order is >= 0.  Exact and sampled information both fire by it
(``_fired``), so they agree on every input state, ties included.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import info
from .errors import ValidationError, count, interval
from .info import (
    Channel,
    Distribution,
    LogBase,
    _as_base,
    check_bytes,
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


def _check_layers(net: NoisyNetwork, row_bits: int) -> None:
    """Refuse a network whose layer matrix on 2^row_bits rows is over the cap."""
    for width in net.widths:
        check_bytes(8 << (row_bits + width), f"a 2^{row_bits} x 2^{width} layer matrix")


def _check_information(net: NoisyNetwork, p_x: Distribution | None) -> None:
    """Refuse an input law of the wrong size, and layers over the cap on two rows."""
    n_in = 1 << net.input_width
    if p_x is not None and p_x.alphabet_size != n_in:
        raise ValidationError(f"input law has {p_x.alphabet_size} states, network expects {n_in}")
    _check_layers(net, 1)


def _fired(layer: Sequence[ThresholdNeuron], states: np.ndarray | None = None) -> np.ndarray:
    """The state a threshold layer fires on each of ``states`` (on every
    input state, in order, if None), by the module's rule: a doubling table
    over the low input bits, about one entry per state, then the weights of
    the set high bits in ascending order, the same float sums as a full table:
    each high bit's 0/1 byte mask, taken once for the layer, times the weight."""
    fan_in = layer[0].fan_in
    low = fan_in if states is None else min(fan_in, len(states).bit_length())
    fired = np.zeros(1 << fan_in if states is None else len(states), dtype=np.int64)
    table = np.empty(1 << low)
    high = () if states is None else [((states & (1 << i)) != 0).view(np.uint8)
                                      for i in range(low, fan_in)]
    for j, neuron in enumerate(layer):
        table[0] = neuron.bias
        for i, w in enumerate(neuron.weights[:low]):
            np.add(table[: 1 << i], w, out=table[1 << i : 2 << i])
        pre = table if states is None else table[states & ((1 << low) - 1)]
        for w, bit in zip(neuron.weights[low:], high):
            pre += bit * w
        for a in range(0, len(fired), info.DRAW_BYTES):  # a mask slice, not a byte a state
            out = fired[a : a + info.DRAW_BYTES]
            np.add(out, 1 << j, out=out, where=pre[a : a + info.DRAW_BYTES] >= 0.0)
    return fired


def _propagate(net: NoisyNetwork, states: np.ndarray, fired: list, mass=()) -> np.ndarray:
    """The channel rows of the distinct first-layer ``states``, then the law
    sum_s mass_s W_s if ``mass`` is given: from a 1 in the state's column (the
    mass in its own), ``info.flip_bits`` adds each layer's noise, and a later threshold
    map adds every column into that of the state it fires, fired once into ``fired``."""
    m = np.zeros((len(states) + (len(mass) > 0), 1 << net.widths[0]))
    m[np.arange(len(states)), states] = 1.0
    m[len(states) :, : len(mass)] = mass
    m = flip_bits(m, net.xi)
    for i, layer in enumerate(net.layers[1:]):
        if i == len(fired):
            fired.append(_fired(layer))
        prev, m = m, np.zeros((len(m), 1 << len(layer)))
        np.add.at(m.T, fired[i], prev.T)
        del prev  # before flip_bits allocates its spare
        m = flip_bits(m, net.xi)
    return m


def _divergences(net: NoisyNetwork, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, d) over the first-layer states s of positive ``mass``: p_s, and
    D(W_s || p_Y), p_Y the law row of the first block, by ``phi_information``
    over blocks of the rows that fit with their ``flip_bits`` spare in ``info.DRAW_BYTES``
    (one at least).  Y depends on the input only through s, so I(input; Y) = p . d."""
    states, fired = np.flatnonzero(mass), []
    step = max(1, info.DRAW_BYTES // (16 << max(net.widths)))
    m = _propagate(net, states[:step], fired, mass)
    d = [phi_information(m[:-1], None, m[-1])]
    py, m = m[-1].copy(), None  # the block is freed before the next is propagated
    d += [phi_information(_propagate(net, states[a : a + step], fired), None, py)
          for a in range(step, len(states), step)]
    return mass[states], np.concatenate(d)


def layer_channel(layer: Sequence[ThresholdNeuron], xi: float) -> Channel:
    """Channel of one noisy layer: threshold map followed by bit-flip noise.

    Rows index the 2^fan_in input states, columns the 2^width output
    states, both little-endian (neuron i is bit i); checked as a one-layer ``NoisyNetwork``.
    """
    layer = tuple(layer)
    return network_channel(NoisyNetwork((layer,), xi, layer[0].fan_in if layer else 1))


def network_channel(net: NoisyNetwork) -> Channel:
    """End-to-end channel from input states to last-layer output states:
    each input state takes the row of the first-layer state it fires
    (``_propagate``), every layer's 2^input_width x 2^width matrix capped first."""
    _check_layers(net, net.input_width)
    fired = _fired(net.layers[0])
    hit = np.bincount(fired) > 0
    m = _propagate(net, np.flatnonzero(hit), [])
    # Not m[rows]: at 2^24 rows of two entries np.take gathers 6x faster.
    return Channel(np.take(m, (np.cumsum(hit) - 1)[fired], axis=0))


def exact_io_mutual_information(
    net: NoisyNetwork, p_x: Distribution | None = None, base: LogBase = "nats"
) -> float:
    """Exact I(input; output) under input law p_x (uniform over the
    2^input_width states by default): ``_divergences`` of the first-layer
    states, each weighted by the p_x mass that fires it; firing holds 16 bytes a state."""
    _check_information(net, p_x)
    check_bytes(16 << net.input_width, f"firing the 2^{net.input_width} input states")
    fired = _fired(net.layers[0])
    mass = np.bincount(fired) / len(fired) if p_x is None else np.bincount(fired, p_x.probs)
    p, d = _divergences(net, mass)
    return _as_base(float(p @ d), base)


MiEstimate = namedtuple("MiEstimate", "estimate stderr")
MiEstimate.__doc__ = """``monte_carlo_io_mi``'s estimate and the spread of its sampled
    divergences over sqrt(trials).  Its bias, about -mean chi^2(W_s || p_Y)
    / (2 trials) over the sampled states s, is documented, not corrected."""


def monte_carlo_io_mi(
    net: NoisyNetwork,
    p_x: Distribution | None = None,
    trials: int = 10000,
    seed: int = 0,
    base: LogBase = "nats",
) -> MiEstimate:
    """I(input; output) estimated as the mean over trials of D(W_s || p_Y),
    s the first-layer state the trial's input state fires (``_divergences``).

    Each trial draws one uniform u, block b of ``BLOCK`` trials from
    ``default_rng((seed, b))`` (``info.trial_blocks``), and u selects the
    input state from p_x: under the default uniform law floor(u
    2^input_width), the state a search of its cumulative sums finds.  So
    the input width is at most 53 bits, all u resolves.  Every layer is
    capped on two rows, as in exact information, before anything is drawn;
    memory grows by one int64 per trial.
    """
    trials = count(trials, "trial count")
    n_in = count(net.input_width, "input width of a Monte Carlo estimate", maximum=53)
    _check_information(net, p_x)
    cum = None if p_x is None else np.cumsum(p_x.probs)
    states = np.empty(trials, dtype=np.int64)
    for start, stop, rng in trial_blocks(trials, seed):
        u = rng.random(stop - start)
        states[start:stop] = ((u * (1 << n_in)).astype(np.int64) if cum is None else
                              np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1))
    step = max(1, info.DRAW_BYTES // 128)  # _fired holds 48 bytes a state, 1 per high bit
    for a in range(0, trials, step):
        states[a : a + step] = _fired(net.layers[0], states[a : a + step])
    p, d = _divergences(net, np.bincount(states) / trials)
    mi = float(p @ d)
    stderr = math.sqrt(float(p @ (d - mi) ** 2) / trials)
    return MiEstimate(_as_base(mi, base), _as_base(stderr, base))


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
