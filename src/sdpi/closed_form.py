"""The paper's closed-form bounds, in plain ``math``.

Each function here is a formula in the noise level xi, the reliability
level delta, a layer width or bit count n, a depth L or an interval
count T: the independent-layer contraction bound, the Evans-Schulman
accounting and the shared-noise slope, the information decay bound,
the hidden-neuron lower bound and the depth-width trade-off, and the
memory overhead and relaxation bounds.  The module imports nothing but
the standard library and ``errors``, so a caller that needs only these
never loads numpy.  Its records are named tuples, since ``dataclasses``
would load ``inspect``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .errors import InfeasibleError, ValidationError, count, interval


# ------------------------------------------------------------ noisy layers


class LayerNoiseSpec(namedtuple("LayerNoiseSpec", "xi n")):
    """A layer of n components whose outputs flip independently with probability xi."""

    __slots__ = ()

    def __new__(cls, xi: float, n: int):
        return super().__new__(cls, interval(xi, "flip probability", "[0, 0.5)"),
                               count(n, "layer width"))

    # ``_replace`` builds through ``_make``, which would skip the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


def independent_layer_bound(spec: LayerNoiseSpec) -> float:
    """Closed-form contraction bound 1 - (4 xi - 4 xi^2)^n for independent noise."""
    return 1.0 - (4.0 * spec.xi - 4.0 * spec.xi**2) ** spec.n


def evans_schulman_raw(eta_single: float, n: int) -> float:
    """Per-component accounting bound n * eta, unclamped (can exceed 1)."""
    return count(n, "component count") * interval(eta_single, "single-component eta", "[0, 1]")


def shared_noise_slope(xi2: float, n: int) -> float:
    """First-order drop of the correlated-layer bound per unit of shared noise.

    Equals 2[(4 xi2^2 - 4 xi2 + 2)^n - (4 xi2 - 4 xi2^2)^n].
    """
    xi2 = interval(xi2, "independent flip probability", "[0, 0.5]")
    n = count(n, "layer width")
    return 2.0 * ((4.0 * xi2**2 - 4.0 * xi2 + 2.0) ** n - (4.0 * xi2 - 4.0 * xi2**2) ** n)


# -------------------------------------------------------- noisy networks


def _widths(widths: Sequence[int]) -> tuple[int, ...]:
    widths = tuple(count(w, "layer width") for w in widths)
    count(len(widths), "number of layer widths")
    return widths


def _layer_bound_product(a: float, widths: tuple[int, ...]) -> float:
    """prod_l (1 - a^(n_l)), multiplied left to right from 1.0."""
    return math.prod((1.0 - a**w for w in widths), start=1.0)


def information_decay_bound(widths: Sequence[int], xi: float, h_x: float) -> float:
    """Upper bound h_x * prod_l (1 - (4 xi - 4 xi^2)^(n_l)) on end-to-end
    mutual information through layers of the given widths."""
    widths = _widths(widths)
    xi = interval(xi, "flip probability", "[0, 0.5)")
    h_x = interval(h_x, "input entropy", "[0, inf)")
    return h_x * _layer_bound_product(4.0 * xi - 4.0 * xi**2, widths)


def delta_capacity(delta: float) -> float:
    """Minimum mutual information (bits) to decode one bit delta-reliably.

    1 + delta log2 delta + (1 - delta) log2(1 - delta); equals 1 at
    delta = 0 and decreases to 0 as delta -> 1/2.  Near 1/2, where that
    is 1 minus a number near 1, it is (log1p(-u^2) + 2 u atanh(u)) / (2 ln 2)
    with u = 1 - 2 delta: two terms of opposite sign of which neither is
    twice the other.
    """
    if interval(delta, "reliability level", "[0, 0.5)") == 0.0:
        return 1.0
    u = 1.0 - 2.0 * delta
    if u < 0.05:
        return (math.log1p(-u * u) + 2.0 * u * math.atanh(u)) / (2.0 * math.log(2.0))
    return 1.0 + delta * math.log2(delta) + (1.0 - delta) * math.log2(1.0 - delta)


def min_neurons_lower_bound(xi: float, delta: float, layers: int) -> float:
    """Lower bound on total hidden neurons for delta-reliable computation.

    (L-1) log(1 - (D/(1-a))^(1/(L-1))) / log(a) with a = 4 xi - 4 xi^2 and
    D the delta threshold; diverges (returns inf) once D/(1-a) >= 1, where
    the last output neuron alone caps the information flow.  L = 1 has no
    hidden neurons: returns 0 when feasible (1 - a >= D), inf otherwise.
    """
    layers = count(layers, "layer count")
    xi = interval(xi, "flip probability", "[0, 0.5)")
    delta = interval(delta, "reliability level", "(0, 0.5)")
    a = 4.0 * xi - 4.0 * xi**2
    if a == 0.0:
        return 0.0
    ratio = delta_capacity(delta) / (1.0 - a)
    if layers == 1:
        return 0.0 if ratio <= 1.0 else math.inf
    if ratio >= 1.0:
        return math.inf
    return (layers - 1) * math.log(1.0 - ratio ** (1.0 / (layers - 1))) / math.log(a)


AmGmBound = namedtuple("AmGmBound", "product bound tight")
AmGmBound.__doc__ = "Product of (1 - a^w) terms against its equal-split upper bound."


def amgm_product_bound(a: float, widths: Sequence[int]) -> AmGmBound:
    """prod_l (1 - a^(n_l)) <= (1 - a^mean)^L, with equality for equal widths."""
    a = interval(a, "base", "[0, 1]")
    widths = _widths(widths)
    product = _layer_bound_product(a, widths)
    mean = sum(widths) / len(widths)
    bound = (1.0 - a**mean) ** len(widths)
    if not product <= bound + 1e-12:
        raise ArithmeticError(f"AM-GM violated: product {product!r} exceeds bound {bound!r}")
    return AmGmBound(product=product, bound=bound, tight=len(set(widths)) == 1)


def parity_size_complexity(n: int, d: int) -> float:
    """Gate-count lower bound (n/2)^(1/(2(d-1))) for depth-d threshold
    circuits computing the n-bit parity (Impagliazzo-Paturi-Saks)."""
    n, d = count(n, "input count", 2), count(d, "depth", 2)
    return (n / 2.0) ** (1.0 / (2.0 * (d - 1)))


class SizeBoundResult(namedtuple("SizeBoundResult",
                                 "depth expressibility_bound noise_bound binding")):
    """Both size requirements at one depth; the larger one binds.  ``binding``
    is "expressibility" or "noise"."""

    __slots__ = ()

    @property
    def minimum_neurons(self) -> float:
        return max(self.expressibility_bound, self.noise_bound)


# ``per_depth`` is a tuple of ``SizeBoundResult``, and ``best`` one of them.
DepthTradeoff = namedtuple("DepthTradeoff", "per_depth best")


def optimal_depth_tradeoff(n: int, xi: float, delta: float, max_depth: int) -> DepthTradeoff:
    """Size requirement max(expressibility, noise robustness) per depth.

    The expressibility bound is the parity gate-count lower bound and
    decreases with depth; the noise bound is the hidden-neuron lower
    bound plus the output neuron and increases with depth.  Returns all
    depths 2..max_depth and the one minimizing the max (ties go to the
    smaller depth).
    """
    max_depth = count(max_depth, "max depth", 2)
    results = []
    for d in range(2, max_depth + 1):
        omega = parity_size_complexity(n, d)
        noise = min_neurons_lower_bound(xi, delta, d) + 1.0
        binding = "expressibility" if omega >= noise else "noise"
        results.append(
            SizeBoundResult(
                depth=d, expressibility_bound=omega, noise_bound=noise, binding=binding
            )
        )
    feasible = [r for r in results if not math.isinf(r.minimum_neurons)]
    if not feasible:
        raise InfeasibleError(
            "every depth up to the cap is infeasible at this noise level; "
            "the output neuron alone loses too much information"
        )
    return DepthTradeoff(per_depth=tuple(results), best=min(feasible, key=lambda r: r.minimum_neurons))


# ---------------------------------------------------------------- memories


def _log_capacity(delta: float) -> float:
    """log D of the failure budget delta, D = ``delta_capacity(delta)``;
    where D is near 1, log1p(-h) of the binary entropy h (bits)."""
    delta = interval(delta, "failure budget", "(0, 0.5)")
    h = -(delta * math.log(delta) + (1.0 - delta) * math.log1p(-delta)) / math.log(2.0)
    return math.log1p(-h) if h < 0.5 else math.log(delta_capacity(delta))


def noise_logs(xi: float) -> tuple[float, float]:
    """(log a, log r) for a = 4 xi - 4 xi^2 and r = xi / (1 - xi); from
    xi = 1/4 on, where s = 1 - 2 xi is exact, a = 1 - s^2 and
    r = 1 - 2s / (1 + s), which keep their digits as xi nears 1/2."""
    if xi < 0.25:
        return math.log(4.0 * xi - 4.0 * xi**2), math.log(xi) - math.log1p(-xi)
    s = 1.0 - 2.0 * xi
    return math.log1p(-s * s), math.log1p(-2.0 * s / (1.0 + s))


def _log1mexp(y: float) -> float:
    """log(1 - e^y) for y < 0, to a few ulp: log1p(-e^y) below y = -log 2,
    where e^y is small, and log(-expm1(y)) above, where 1 - e^y is."""
    return math.log1p(-math.exp(y)) if y < -math.log(2.0) else math.log(-math.expm1(y))


def overhead_lower_bound(delta: float, intervals: int, xi: float) -> float:
    """Minimum physical bits log(1 - D^(1/T)) / log(4 xi - 4 xi^2) to hold one
    bit delta-reliably for T intervals, for any correction rule."""
    xi = interval(xi, "flip probability", "(0, 0.5)")
    log_cap = _log_capacity(delta)
    intervals = count(intervals, "interval count")
    x = log_cap / intervals
    # log(1 - D^(1/T)) = log(1 - e^x); once |x| < 1e-8, where x may
    # underflow, it is log(-x) + x/2 to within x^2/24.
    if x < -1e-8:
        return _log1mexp(x) / noise_logs(xi)[0]
    return (math.log(-log_cap) - math.log(intervals) + x / 2.0) / noise_logs(xi)[0]


RelaxationBound = namedtuple("RelaxationBound", "time asymptotic")
RelaxationBound.__doc__ = "Relaxation-time upper bound with its large-n exponential form."


def relaxation_upper_bound(n: int, xi: float, delta: float) -> RelaxationBound:
    """No correction rule retains the bit past log(D) / log(1 - a^n)
    intervals, a = 4 xi - 4 xi^2; the asymptotic form -log(D) / a^n grows
    exponentially in n with rate log(1/a).  a^n is exp(n log a); below
    1e-300 it has lost digits, but there -log(1 - a^n) = a^n to 1e-300,
    so both forms are exp(log(-log D) - n log a), which may still be in
    float range when D is near 1.  A bound past it raises ``ValidationError``.
    """
    xi = interval(xi, "flip probability", "(0, 0.5)")
    log_cap = _log_capacity(delta)
    n = count(n, "bit count")
    log_a_n = n * noise_logs(xi)[0]
    a_n = math.exp(log_a_n)
    if a_n >= 1e-300:
        return RelaxationBound(time=log_cap / _log1mexp(log_a_n), asymptotic=-log_cap / a_n)
    log_time = math.log(-log_cap) - log_a_n
    if log_time > math.log(sys.float_info.max):
        raise ValidationError(f"relaxation upper bound at n = {n} is out of float range "
                              f"(about e^{log_time:.6g})")
    time = math.exp(log_time)
    return RelaxationBound(time=time, asymptotic=time)
