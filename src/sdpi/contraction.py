"""Mutual-information contraction bounds for discrete channels.

The central quantity is the pairwise Bhattacharyya bound: for a channel
with row-stochastic matrix A,

    eta = 1 - min_{k != l} ( sum_j sqrt(a_kj * a_lj) )^2

upper-bounds I(X;Z)/I(X;Y) over every Markov chain X -> Y -> Z whose
second step is the channel.  The module also provides the noisy-layer
specializations (the materialized layer channels and the bounds for
weakly-correlated noise; the independent-noise closed form is in
``closed_form``) and the Hessian / quadratic-form machinery that
verifies the bound's derivation numerically.  The randomized suites
that try to break the bound are in ``verify``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_form import LayerNoiseSpec, shared_noise_slope
from .errors import ValidationError, count, interval
from .info import Channel, Distribution, check_bytes, flip_bits

# Hessian-based operations require p bounded away from the simplex
# boundary; degenerate p corresponds to a smaller alphabet and callers
# should reduce it explicitly.
INTERIOR_MIN = 1e-9

# Widest correlated layer: every binomial C(m, k) with m <= 1000 is a
# finite float, the leading-order slope (at most 2 * 2^n) stays finite,
# and the O(n^3) distance-class scan takes about 0.6 s at this width.
MAX_CLASS_SCAN_WIDTH = 1000


class ContractionBound(namedtuple("ContractionBound", "eta witness_pair method",
                                  defaults=("pair-scan",))):
    """Contraction coefficient bound with the row pair attaining it."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"eta": self.eta, "witness": list(self.witness_pair), "method": self.method}


def contraction_bound(c: Channel) -> ContractionBound:
    """Bhattacharyya pair bound on the contraction of mutual information;
    see ``pair_bound_batch``."""
    eta, (k, l) = pair_bound_batch(c.matrix)
    return ContractionBound(eta=float(eta), witness_pair=(int(k), int(l)))


def pair_bound_batch(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair bound eta and witness (k, l) of each channel in a (..., n, m)
    stack of row-stochastic matrices.

    Scans all unordered row pairs, O(n^2 m) per channel; ties are broken
    by the lexicographically smallest (k, l).  The witnesses come back
    with shape (..., 2).
    """
    a = np.asarray(matrices, dtype=float)
    n = a.shape[-2]
    if n < 2:
        raise ValidationError("contraction bound needs at least 2 channel inputs")
    s = np.sqrt(a)
    gram = (s @ s.swapaxes(-1, -2)).reshape(*a.shape[:-2], n * n)
    upper = np.where(np.triu(np.ones((n, n), dtype=bool), k=1).reshape(-1), gram, np.inf)
    flat = np.argmin(upper, axis=-1)
    best = np.take_along_axis(gram, flat[..., None], axis=-1)[..., 0]
    # float_power squares with libm pow, as ``x ** 2`` on a float does;
    # np.square can differ from it in the last bit.
    eta = np.clip(1.0 - np.float_power(best, 2.0), 0.0, 1.0)
    return eta, np.stack(np.divmod(flat, n), axis=-1)


class CorrelatedNoiseSpec(namedtuple("CorrelatedNoiseSpec", "xi1 xi2 n")):
    """Layer noise with a shared all-flip probability xi1 on top of independent xi2.

    A biased coin first decides (probability xi1) whether every component
    in the layer flips together; each component then flips again
    independently with probability xi2.  Intended regime: xi1 << 1 and
    xi1 << xi2.
    """

    __slots__ = ()

    def __new__(cls, xi1: float, xi2: float, n: int):
        return super().__new__(cls, interval(xi1, "shared flip probability", "[0, 1]"),
                               interval(xi2, "independent flip probability", "[0, 0.5)"),
                               count(n, "layer width", 1, MAX_CLASS_SCAN_WIDTH))

    # ``_replace`` builds through ``_make``, which would skip the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


def independent_layer_channel(spec: LayerNoiseSpec) -> Channel:
    """The 2^n x 2^n channel of n independent bit flips, bsc(xi)^(tensor n):
    entry (r, s) is xi^d (1-xi)^(n-d), d the Hamming distance of r and s."""
    check_bytes(8 << (2 * spec.n), f"a 2^{spec.n} x 2^{spec.n} layer matrix")
    return Channel(flip_bits(np.eye(1 << spec.n), spec.xi))


def correlated_layer_channel(spec: CorrelatedNoiseSpec) -> Channel:
    """The 2^n x 2^n channel of shared-plus-independent bit flips,
    (1 - xi1) B + xi1 B[:, ::-1] with B the independent channel at xi2:
    flipping every bit of a state reverses the order of the states."""
    b = independent_layer_channel(LayerNoiseSpec(spec.xi2, spec.n)).matrix
    return Channel((1.0 - spec.xi1) * b + spec.xi1 * b[:, ::-1])


def _log_distance_weights(spec: CorrelatedNoiseSpec) -> np.ndarray:
    """Log of the transition probability to a state at Hamming distance d,
    (1-xi1) (1-xi2)^(n-d) xi2^d + xi1 xi2^(n-d) (1-xi2)^d, for d = 0..n:
    the two noise branches are added with ``logaddexp``, and a term
    0 * log 0 counts as 0."""
    xi1, xi2, n = spec.xi1, spec.xi2, spec.n
    d = np.arange(n + 1, dtype=float)
    keep = math.log1p(-xi2)
    flips = d * math.log(xi2) if xi2 > 0.0 else np.where(d > 0, -np.inf, 0.0)
    own = (math.log1p(-xi1) if xi1 < 1.0 else -np.inf) + (n - d) * keep + flips
    shared = (math.log(xi1) if xi1 > 0.0 else -np.inf) + flips[::-1] + d * keep
    return np.logaddexp(own, shared)


def _log_binomial_rows(n: int) -> list[np.ndarray]:
    """log C(m, k) for k = 0..m, one array per m = 0..n, each entry the
    log of the correctly rounded float of the exact integer."""
    rows, row = [], [1]
    for _ in range(n + 1):
        rows.append(np.log(np.array(row, dtype=float)))
        row = [a + b for a, b in zip([0, *row], [*row, 0])]
    return rows


def _distance_class_sums(spec: CorrelatedNoiseSpec) -> np.ndarray:
    """Logs of the Bhattacharyya sums between row pairs of the correlated
    layer channel, indexed by their Hamming distance e = 0..n.

    The channel's entry (r, s) depends only on d = |r xor s|, with value
    w[d], so the sum over outputs of sqrt(a_kj * a_lj) depends only on
    e = |k xor l|.  An output that flips i of the e bits where the rows
    differ and j of the other n - e bits sits at distance i + j from row
    k and e - i + j from row l, and C(e, i) C(n - e, j) outputs do so.
    Class e is the log-sum-exp of the (e+1) x (n-e+1) grid
    log C(e, i) + log C(n-e, j) + (log w[i+j] + log w[e-i+j]) / 2; rows i
    and e - i are equal, so only i <= e/2 is formed, at double weight
    below the middle.  O(n^3) terms in all, none of them a float
    power or a big integer, so no term overflows up to
    ``MAX_CLASS_SCAN_WIDTH``; a class with no nonzero term is -inf.
    """
    n = spec.n
    half = 0.5 * _log_distance_weights(spec)
    log_comb = _log_binomial_rows(n)
    log_sums = np.empty(n + 1)
    for e in range(n + 1):
        # window[i, j] = half[i + j]; reversed along i it is half[e - i + j].
        window = sliding_window_view(half, n - e + 1)[: e + 1]
        k = e // 2 + 1
        doubled = np.where(2 * np.arange(k) < e, math.log(2.0), 0.0)
        grid = np.add.outer(log_comb[e][:k] + doubled, log_comb[n - e])
        grid += window[:k]
        grid += window[::-1][:k]
        top = grid.max()
        if top == -np.inf:
            log_sums[e] = -np.inf
            continue
        grid -= top
        log_sums[e] = top + math.log(np.exp(grid, out=grid).sum())
    return log_sums


def correlated_layer_bound_exact(spec: CorrelatedNoiseSpec) -> ContractionBound:
    """Exact pair-scan bound for the correlated layer channel.

    Uses the distance-class reduction (``_distance_class_sums``), so it
    never materializes the 2^n x 2^n matrix and stays exact for widths
    beyond the n = 13 that ``info.MAX_LAYER_BYTES`` admits, up to
    ``MAX_CLASS_SCAN_WIDTH``.  The witness is the lexicographically
    smallest pair in the best class, and the smallest distance among
    classes that tie.
    """
    log_sums = _distance_class_sums(spec)
    e_star = int(np.argmin(log_sums[1:])) + 1
    eta = 1.0 - math.exp(2.0 * log_sums[e_star])
    return ContractionBound(
        eta=min(max(eta, 0.0), 1.0),
        witness_pair=(0, (1 << e_star) - 1),
        method="distance-classes",
    )


def correlated_layer_bound_leading(spec: CorrelatedNoiseSpec) -> float:
    """Leading-order (in xi1) contraction bound for weakly-correlated noise.

    1 - [(4 xi2 - 4 xi2^2)^n + slope * xi1]; the remainder is O(xi1^2),
    so this is an approximation of ``correlated_layer_bound_exact`` valid
    for small shared-noise probability.
    """
    base = (4.0 * spec.xi2 - 4.0 * spec.xi2**2) ** spec.n
    return 1.0 - (base + shared_noise_slope(spec.xi2, spec.n) * spec.xi1)


def _interior_probs(probs: np.ndarray, matrices: np.ndarray | None = None) -> np.ndarray:
    """``probs``, a (..., n) stack of laws, if every law is interior and,
    given ``matrices``, every channel has n inputs."""
    count(probs.shape[-1], "alphabet size of a Hessian operation", 2)
    if probs.min() < INTERIOR_MIN:
        raise ValidationError(
            f"distribution must be interior (min entry >= {INTERIOR_MIN:g}); "
            "degenerate entries correspond to a smaller alphabet"
        )
    if matrices is not None and matrices.shape[-2] != probs.shape[-1]:
        raise ValidationError(
            f"distribution size {probs.shape[-1]} does not match channel inputs "
            f"{matrices.shape[-2]}"
        )
    return probs


def _entropy_hessians(probs: np.ndarray) -> np.ndarray:
    head, pn = probs[..., :-1], probs[..., -1:]
    k = head.shape[-1]
    h = np.broadcast_to((-1.0 / pn)[..., None], (*head.shape, k)).copy()
    diagonal = np.arange(k)
    h[..., diagonal, diagonal] = -(head + pn) / (head * pn)
    return h


def _pushforward_hessians(a: np.ndarray, probs: np.ndarray) -> np.ndarray:
    q = (probs[..., None, :] @ a)[..., 0, :]
    diff = a[..., :-1, :] - a[..., -1:, :]
    dead = q <= 0.0
    if np.any(dead):
        if np.any((diff != 0.0) & dead[..., None, :]):
            raise ValidationError("zero-probability output column with a nonzero row difference")
        q = np.where(dead, 1.0, q)
    return -(diff / q[..., None, :]) @ diff.swapaxes(-1, -2)


def rayleigh_supremum(c: Channel, p: Distribution) -> float:
    """Largest generalized Rayleigh quotient of the two entropy Hessians;
    see ``rayleigh_supremum_batch``."""
    return float(rayleigh_supremum_batch(c.matrix, p.probs))


def rayleigh_supremum_batch(matrices: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Rayleigh supremum of each channel in a (..., n, m) stack at the
    matching interior law in a (..., n) stack.

    sup over nonzero coefficient vectors of (c' H_f c)/(c' H_g c), computed
    as the top eigenvalue of the symmetric-definite pencil (-H_f, -H_g)
    via Cholesky whitening; always within [0, 1] and at most the pair
    bound ``contraction_bound(c).eta``.
    """
    a = np.asarray(matrices, dtype=float)
    probs = _interior_probs(np.asarray(probs, dtype=float), a)
    h_f = _pushforward_hessians(a, probs)
    h_g = _entropy_hessians(probs)
    try:
        low = np.linalg.cholesky(-h_g)
        # L^-1 (-H_f) L^-T: the pencil's eigenvalues as an ordinary symmetric problem.
        half = np.linalg.solve(low, -h_f)
        top = np.linalg.eigvalsh(np.linalg.solve(low, half.swapaxes(-1, -2)))[..., -1]
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"ill-conditioned Hessian pencil: {exc}") from None
    return np.clip(top, 0.0, 1.0)


DecompositionReport = namedtuple("DecompositionReport",
                                 "identity_residual min_square_term sum_residual")
DecompositionReport.__doc__ = """Residuals of the quadratic-form split of the entropy Hessian forms.

    ``identity_residual``: |Q_g - Q_f - sum Q_st * w_st| for the given
    channel, where w_st is the Bhattacharyya-type column sum.
    ``min_square_term``: smallest Q_st (each is a literal square).
    ``sum_residual``: |Q_g - sum Q_st|; this split is channel-independent
    and is the identity the all-rows-equal case reduces to.
    """


def _square_terms(probs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Q_st for 1 <= s < t <= n in lexicographic (s, t) order, along the last axis."""
    n = probs.shape[-1]
    s, t = np.triu_indices(n, k=1)
    ps, pt, pn, cs = probs[..., s], probs[..., t], probs[..., -1:], coeffs[..., s]
    # The terms with t = n take the second form, which has no c_t.
    ct = coeffs[..., np.minimum(t, n - 2)]
    pair = np.sqrt(pt / ps) * cs - np.sqrt(ps / pt) * ct
    root = np.sqrt(ps / pn)
    to_last = cs * (root + np.sqrt(pn / ps)) + root * (coeffs.sum(axis=-1, keepdims=True) - cs)
    # Squared with libm pow, as in pair_bound_batch.
    return np.float_power(np.where(t == n - 1, to_last, pair), 2.0)


def _quadratic_form(h: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return (-coeffs[..., None, :] @ h @ coeffs[..., :, None])[..., 0, 0]


def quadratic_decomposition_check(c: Channel, p: Distribution, coeffs) -> DecompositionReport:
    """Verify the square-term decomposition behind the pair bound; see
    ``quadratic_decomposition_batch``."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    residuals = quadratic_decomposition_batch(c.matrix, p.probs, coeffs)
    return DecompositionReport(*(float(r) for r in residuals))


def quadratic_decomposition_batch(
    matrices: np.ndarray, probs: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identity residual, smallest square term and sum residual (the
    fields of ``DecompositionReport``) of each item of a (..., n, m) stack
    of channels, a (..., n) stack of interior laws and a (..., n-1) stack
    of coefficient vectors.

    For an interior p and coefficient vector c of length n-1, checks that
    Q_g(c) = Q_f(c) + sum_{s<t} Q_st(c) * sum_j a_sj a_tj / (p @ A)_j
    holds to float accuracy, where Q_g, Q_f are the negated Hessian
    quadratic forms and each Q_st is an explicit square.
    """
    a = np.asarray(matrices, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    n = a.shape[-2]
    if coeffs.shape[-1] != n - 1:
        raise ValidationError(
            f"coefficient vector must have length {n - 1}, got {coeffs.shape[-1]}"
        )
    probs = _interior_probs(np.asarray(probs, dtype=float), a)
    q_g = _quadratic_form(_entropy_hessians(probs), coeffs)
    q_f = _quadratic_form(_pushforward_hessians(a, probs), coeffs)
    squares = _square_terms(probs, coeffs)

    s, t = np.triu_indices(n, k=1)
    col = probs[..., None, :] @ a
    live = col > 0.0
    w = np.where(live, a[..., s, :] * a[..., t, :] / np.where(live, col, 1.0), 0.0).sum(axis=-1)
    # The residuals are round-off; summing one term at a time in (s, t)
    # order fixes which round-off they report.
    weighted = np.cumsum(squares * w, axis=-1)[..., -1]
    total = np.cumsum(squares, axis=-1)[..., -1]
    return np.abs(q_g - q_f - weighted), squares.min(axis=-1), np.abs(q_g - total)
