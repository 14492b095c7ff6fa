"""Independent oracles for the dense layer-noise channels.

The package builds these channels with one butterfly per bit; here they
are written out entry by entry from the Hamming distance between input
and output state, so no test compares the butterfly with itself.
"""

import math

import numpy as np


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
