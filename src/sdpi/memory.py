"""Repetition-code memories: catastrophic-event probabilities, the
relaxation time, and a Monte Carlo simulator.

One logical bit lives in n noisy physical bits; every interval each bit
flips independently with probability xi and an error-correction step
rewrites the array.  The relaxation time is the number of intervals over
which the bit stays delta-reliably decodable.  The contraction bound
yields a scheme-independent overhead lower bound / relaxation upper
bound (``closed_form``); majority-vote repetition coding, here, gives
the matching achievable side up to a factor of 2 in the exponent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import info
from .closed_form import noise_logs
from .errors import InfeasibleError, ValidationError, count, interval
from .info import check_bytes, trial_blocks


@dataclass(frozen=True)
class MemorySpec:
    """Physical bits n, per-interval flip probability xi, failure budget
    delta, and the number of refresh intervals."""

    n: int
    xi: float
    delta: float
    intervals: int

    def __post_init__(self):
        object.__setattr__(self, "n", count(self.n, "bit count"))
        object.__setattr__(self, "xi", interval(self.xi, "flip probability", "(0, 0.5)"))
        object.__setattr__(self, "delta", interval(self.delta, "failure budget", "(0, 0.5)"))
        object.__setattr__(self, "intervals", count(self.intervals, "interval count"))

    def to_dict(self) -> dict:
        return {"n": self.n, "xi": self.xi, "delta": self.delta, "intervals": self.intervals}


def _tail_terms(n: int, xi: float) -> np.ndarray:
    """log P[Bin(n, xi) = k] for k from the majority threshold (for even
    n the tie, which counts as failure) within 20 sqrt(n) + 20 of the
    tail's largest term, at max(threshold, floor((n+1) xi)).  The terms are
    log-concave in k, with curvature at least 4/n, so the rest fall below
    e^-800 of it; below n of about 1700 none is left out.  Building and
    summing them holds three 8-byte arrays of the window's length, checked
    by ``info.check_bytes`` (about n <= 1.25e12 for xi < 1/2) before the
    window is built.
    """
    threshold = (n + 1) // 2
    top_k = max(threshold, math.floor((n + 1) * xi))
    half = math.ceil(20 * math.sqrt(n)) + 20
    lo, hi = max(threshold, top_k - half), min(n, top_k + half)
    check_bytes(24 * (hi - lo + 1),
                f"summing the binomial tail at n = {n} over {hi - lo + 1} terms")
    k = np.arange(lo, hi + 1)
    lgamma_n = math.lgamma(n + 1)
    log_terms = np.fromiter((lgamma_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                             for j in range(lo, hi + 1)), float, hi - lo + 1)
    log_terms += k * math.log(xi)
    log_terms += np.subtract(n, k, out=k) * math.log1p(-xi)
    return log_terms


def _sum_exp(log_terms: np.ndarray) -> float:
    """The sum of e^log_terms, at most 1."""
    top = log_terms.max()
    scaled = log_terms - top
    return min(float(math.exp(top) * np.exp(scaled, out=scaled).sum()), 1.0)


def catastrophic_prob_exact(n: int, xi: float) -> float:
    """Probability that one interval flips at least half the bits.

    Binomial tail P[Bin(n, xi) >= ceil((n+1)/2)] for odd n; even-n ties
    count as failure.  Summed in log space so tails below 1e-12 stay
    accurate, over the window of ``_tail_terms``.
    """
    n = count(n, "bit count")
    xi = interval(xi, "flip probability", "[0, 1]")
    if xi == 0.0:
        return 0.0
    if xi == 1.0:
        return 1.0
    return _sum_exp(_tail_terms(n, xi))


def catastrophic_prob_chernoff(n: int, xi: float) -> float:
    """Chernoff-Hoeffding upper bound (4 xi (1 - xi))^(n/2) on the tail."""
    n = count(n, "bit count")
    xi = interval(xi, "flip probability", "[0, 1]")
    return (4.0 * xi * (1.0 - xi)) ** (n / 2.0)


@dataclass(frozen=True)
class RepetitionRelaxation:
    """Relaxation time of majority-vote repetition coding.

    ``time`` uses the exact per-interval failure probability;
    ``chernoff_lower`` substitutes the Chernoff bound for it (a lower
    bound on the time, None when that bound is vacuous at 1/2 or more).
    """

    time: float
    chernoff_lower: float | None


def repetition_relaxation_time(n: int, xi: float, delta: float) -> RepetitionRelaxation:
    """log(1 - 2 delta) / log(1 - 2 p_e) intervals for repetition coding.

    The decoded bit is wrong after T intervals iff an odd number of
    catastrophic events occurred, so correct decoding has probability
    (1 + (1 - 2 p_e)^T)/2; solving for the delta level gives the formula.
    """
    n = count(n, "bit count")
    xi = interval(xi, "flip probability", "(0, 0.5)")
    delta = interval(delta, "failure budget", "(0, 0.5)")
    log_terms = _tail_terms(n, xi)
    p_e = _sum_exp(log_terms)
    if p_e < 0.25:
        log_margin = math.log1p(-2.0 * p_e)
    else:
        # 1 - 2 p_e would cancel; it is the sum over the tail's k > n/2 of
        # P(n - k) - P(k) = P(k) (r^(n-2k) - 1), r = xi / (1 - xi), every
        # term positive, less the tie P(n/2) that heads an even n's window.
        tie = 1 - n % 2
        first = (n + 1) // 2 + tie
        x = (n - 2 * np.arange(first, first + log_terms.size - tie)) * noise_logs(xi)[1]
        x = np.log(np.expm1(x, out=x), out=x)
        x += log_terms[tie:]
        margin = _sum_exp(x) - tie * math.exp(log_terms[0])
        if margin <= 0.0:
            raise InfeasibleError(
                f"catastrophic probability {p_e:.9g} >= 1/2: majority vote retains nothing"
            )
        log_margin = math.log(margin)
    numer = math.log1p(-2.0 * delta)
    # Below the normal float range p_e has lost its digits (at 0 the time
    # would divide by zero), and past it the time has none to print.
    time = math.inf if p_e < sys.float_info.min else numer / log_margin
    if time == math.inf:
        raise ValidationError(f"repetition relaxation time at n = {n} is out of float range "
                              f"(catastrophic probability {p_e:.3g})")
    p_c = catastrophic_prob_chernoff(n, xi)
    chernoff_lower = None if p_c >= 0.5 else numer / math.log1p(-2.0 * p_c)
    return RepetitionRelaxation(time=time, chernoff_lower=chernoff_lower)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Per-interval empirical correct-decoding probabilities."""

    success_prob: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.success_prob, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "success_prob", arr)


def simulate_memory(spec: MemorySpec, trials: int, seed: int) -> SimulationReport:
    """Monte Carlo repetition-code memory: flip bits, refresh to majority.

    All bits carry the logical value after each refresh, so an interval
    reduces to a catastrophic event, a flip count that defeats the
    majority (even-n ties count as flipping to the wrong codeword), with
    probability p_e = ``catastrophic_prob_exact(n, xi)``.  Each (trial,
    interval) cell draws one uniform u and has the event iff u < p_e; the
    trial decodes wrongly after t intervals iff it had an odd number of
    events.  A float64 uniform is a multiple of 2^-53, so the event has
    probability p_e rounded up to the next such multiple: at most 1.1e-16
    above p_e.  The uniforms are drawn row-major over (trial, interval),
    block b of ``BLOCK`` trials from ``default_rng((seed, b))``
    (``info.trial_blocks``), in chunks of at most ``info.DRAW_BYTES``
    (at least one trial) taken in turn from the block's one generator;
    with integer aggregation the result is exactly reproducible whatever
    the chunk size.  A trial's uniforms, its events and the last chunk's,
    the counts and the result hold at most 18 bytes an interval, checked
    by ``info.check_bytes`` (up to 29,826,161 intervals) before anything
    is allocated.
    """
    trials = count(trials, "trial count")
    steps = spec.intervals
    check_bytes(18 * steps, f"a trial of {steps} intervals")
    p_e = catastrophic_prob_exact(spec.n, spec.xi)
    rows = max(1, info.DRAW_BYTES // (steps * 8))
    wrong_counts = np.zeros(steps, dtype=np.int64)
    for start, stop, rng in trial_blocks(trials, seed):
        for first in range(start, stop, rows):
            events = rng.random((min(rows, stop - first), steps)) < p_e
            # Parity of the catastrophic events so far, in the events' own buffer.
            np.logical_xor.accumulate(events, axis=1, out=events)
            wrong_counts += np.count_nonzero(events, axis=0)
    success = wrong_counts / trials
    np.subtract(1.0, success, out=success)
    return SimulationReport(success_prob=success)
