"""Independent oracles for the dense layer-noise channels, and the
all-rows network propagation.

The package builds these channels with one butterfly per bit; here they
are written out entry by entry from the Hamming distance between input
and output state, so no test compares the butterfly with itself.
"""

import math

import numpy as np

from sdpi.info import flip_bits, trial_blocks


def propagate_all_rows(layers, xi):
    """The channel matrix of noisy layers as ``network._propagate`` built it
    before it propagated only the distinct first-layer states: one one-hot
    row per input state through every layer, with the same firing sums,
    scatter and butterflies, so the two agree bit for bit."""
    m = None
    for layer in layers:
        fan_in, width = layer[0].fan_in, len(layer)
        fired = np.zeros(1 << fan_in, dtype=np.int64)
        pre = np.empty(1 << fan_in)
        for j, neuron in enumerate(layer):
            pre[0] = neuron.bias
            for i, w in enumerate(neuron.weights):
                np.add(pre[: 1 << i], w, out=pre[1 << i : 2 << i])
            np.add(fired, 1 << j, out=fired, where=pre >= 0.0)
        prev, m = m, np.zeros((1 << fan_in if m is None else len(m), 1 << width))
        if prev is None:
            m[np.arange(1 << fan_in), fired] = 1.0
        else:
            np.add.at(m.T, fired, prev.T)
        m = flip_bits(m, xi)
    return m


def hamming_channel(weights):
    """The 2^n x 2^n matrix whose entry (r, s) is weights[d], d the number
    of bits where r and s differ, for weights indexed by d = 0..n."""
    weights = np.asarray(weights, dtype=float)
    n = len(weights) - 1
    ones = np.array([bin(s).count("1") for s in range(1 << n)])
    states = np.arange(1 << n)
    return weights[ones[states[:, None] ^ states[None, :]]]


def independent_weights(xi, n):
    """xi^d (1 - xi)^(n - d): n independent flips, d of them taken."""
    d = np.arange(n + 1, dtype=float)
    return xi**d * (1.0 - xi) ** (n - d)


def correlated_weights(spec):
    """Transition probability to a state at distance d = 0..n when every bit
    first flips together with probability xi1, then each again
    independently with probability xi2."""
    xi1, xi2, n = spec.xi1, spec.xi2, spec.n
    return (1.0 - xi1) * independent_weights(xi2, n) + xi1 * independent_weights(xi2, n)[::-1]


def correlated_weights_decrease(spec):
    """Whether the ``correlated_weights`` fall strictly as d grows, compared
    through their logs, which stay finite at widths where the weights
    underflow to 0.  Each branch's log is its own sum of logs, and the two
    branches are added by log-sum-exp; a branch of probability 0 is left out."""
    xi1, xi2, n = spec.xi1, spec.xi2, spec.n

    def log_weight(d):
        branches = [math.log(p) + (n - d) * math.log(keep) + d * math.log(flip)
                    for p, keep, flip in ((1.0 - xi1, 1.0 - xi2, xi2), (xi1, xi2, 1.0 - xi2))
                    if p > 0.0]
        top = max(branches)
        return top + math.log(sum(math.exp(b - top) for b in branches))

    logs = [log_weight(d) for d in range(n + 1)]
    return all(later < earlier for earlier, later in zip(logs, logs[1:]))


def sampled_divergences(net, trials, seed):
    """(estimate, stderr, mean chi^2) of ``network.monte_carlo_io_mi``'s
    documented draws under the uniform input law, from the rows of
    ``propagate_all_rows``: D(W_x || p) and chi^2(W_x || p) for each
    trial's input state x, p the mean of those rows; the estimate is the
    mean of the divergences and the stderr their spread over sqrt(trials)."""
    u = np.concatenate([rng.random(stop - start) for start, stop, rng in trial_blocks(trials, seed)])
    rows = propagate_all_rows(net.layers, net.xi)[(u * (1 << net.input_width)).astype(np.int64)]
    p = rows.mean(axis=0)
    ratio = rows / np.where(p > 0.0, p, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(rows > 0.0, rows * np.log(ratio), 0.0).sum(axis=1)
    chi2 = (rows * ratio).sum(axis=1) - 1.0
    return d.mean(), d.std() / math.sqrt(trials), chi2.mean()
