"""Fault-tolerant memory bounds and the repetition-code simulator."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdpi import info, memory
from sdpi import (
    InfeasibleError,
    MemorySpec,
    ValidationError,
    catastrophic_prob_chernoff,
    catastrophic_prob_exact,
    overhead_lower_bound,
    relaxation_upper_bound,
    repetition_relaxation_time,
    simulate_memory,
)


def reference_simulation(spec, trials, seed):
    """The documented draw order, written out: trial block b (1024 trials)
    draws from default_rng((seed, b)) one uniform per (trial, interval),
    row-major; a cell has a catastrophic event iff its uniform is below
    p_e, and a trial decodes wrongly after t intervals iff it had an odd
    number of events."""
    p_e = catastrophic_prob_exact(spec.n, spec.xi)
    events = np.concatenate([
        np.random.default_rng((seed, b)).random(
            (min(1024, trials - 1024 * b), spec.intervals)) < p_e
        for b in range(-(-trials // 1024))
    ])
    wrong = np.cumsum(events, axis=1) % 2
    return 1.0 - wrong.sum(axis=0) / trials


def tail_oracle(n, xi):
    """Direct binomial tail sum with exact integer coefficients."""
    start = (n + 1) // 2
    return sum(math.comb(n, k) * xi**k * (1 - xi) ** (n - k) for k in range(start, n + 1))


class TestCatastrophicProbability:
    def test_single_bit(self):
        assert catastrophic_prob_exact(1, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_reference_value(self):
        assert catastrophic_prob_exact(9, 0.3) == pytest.approx(0.09880866, abs=1e-8)

    def test_matches_direct_summation(self):
        for n in range(1, 21):
            for xi in (0.05, 0.2, 0.35, 0.49):
                assert catastrophic_prob_exact(n, xi) == pytest.approx(
                    tail_oracle(n, xi), abs=1e-12
                )

    def test_decreasing_in_odd_n(self):
        vals = [catastrophic_prob_exact(n, 0.3) for n in range(1, 30, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_even_n_counts_ties_as_failure(self):
        # n = 2, one flip out of two already defeats the majority.
        expected = 2 * 0.1 * 0.9 + 0.1**2
        assert catastrophic_prob_exact(2, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_deep_tail_stays_accurate(self):
        assert catastrophic_prob_exact(61, 0.05) == pytest.approx(tail_oracle(61, 0.05), rel=1e-9)

    @pytest.mark.parametrize("n, xi", [(1699, 0.3), (20001, 0.45), (20000, 0.4999), (30001, 0.7)])
    def test_window_matches_the_full_tail(self, n, xi):
        # Every term of the tail, from threshold to n, in exact-rounded sums.
        logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(xi) + (n - k) * math.log1p(-xi) for k in range((n + 1) // 2, n + 1)]
        top = max(logs)
        full = min(math.exp(top) * math.fsum(math.exp(v - top) for v in logs), 1.0)
        assert full > 1e-70
        assert catastrophic_prob_exact(n, xi) == pytest.approx(full, rel=1e-12)

    def test_cost_does_not_grow_with_n(self):
        # The whole tail at n = 1e7 is 5e6 terms, 379 MB as a list of
        # log-binomials; the window around the largest term is 126,533.
        tracemalloc.start()
        try:
            assert catastrophic_prob_exact(10**7 + 1, 0.3) == 0.0
            assert 0.26 < catastrophic_prob_exact(10**7, 0.4999) < 0.27  # P[Z >= 0.632]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


    @pytest.mark.parametrize("n, xi", [(1, 0.3), (9, 0.3), (1700, 0.45), (10**6, 0.4999),
                                       (10**7 + 1, 0.3), (10**8, 0.4999999), (30001, 0.7)])
    def test_window_terms_are_summed_as_before(self, n, xi):
        # The window as a list of log-binomials, as it was built before it was
        # capped; the array built in place of the list holds the same floats.
        threshold = (n + 1) // 2
        top_k = max(threshold, math.floor((n + 1) * xi))
        half = math.ceil(20 * math.sqrt(n)) + 20
        k = np.arange(max(threshold, top_k - half), min(n, top_k + half) + 1)
        log_binom = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k]
        log_terms = np.array(log_binom) + k * math.log(xi) + (n - k) * math.log1p(-xi)
        top = log_terms.max()
        want = float(np.clip(math.exp(top) * np.exp(log_terms - top).sum(), 0.0, 1.0))
        assert catastrophic_prob_exact(n, xi) == want

    @pytest.mark.parametrize("n, xi", [(10**14, 0.4999999), (2 * 10**13, 0.3), (10**300, 0.7)])
    def test_window_past_the_byte_cap_is_refused_before_it_is_built(self, n, xi):
        catastrophic_prob_exact(9, 0.3)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=rf"^summing the binomial tail at n = {n} over \d+ "
                               r"terms needs \d+ bytes, above the cap of 536870912 bytes"):
                catastrophic_prob_exact(n, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("n, xi", [(10**8 + 1, 0.4999999), (10**8, 0.4999999), (10**8 + 1, 0.3)])
    def test_window_and_its_sums_hold_three_arrays(self, n, xi):
        # The cap counts 24 bytes a term; near xi = 1/2 the relaxation time
        # sums 1 - 2 p_e over the same window, not over a second one.
        terms = math.ceil(20 * math.sqrt(n)) + 21
        repetition_relaxation_time(9, 0.3, 0.4)
        for call in (catastrophic_prob_exact, lambda n, xi: repetition_relaxation_time(n, xi, 0.4)):
            tracemalloc.start()
            try:
                call(n, xi)
            except (InfeasibleError, ValidationError):
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak < 24 * terms + (256 << 10)

    def test_cap_counts_three_arrays_of_the_window(self, monkeypatch):
        n = 10**6 + 1
        terms = math.ceil(20 * math.sqrt(n)) + 21
        want = catastrophic_prob_exact(n, 0.4999)
        monkeypatch.setattr(info, "MAX_LAYER_BYTES", 24 * terms)
        assert catastrophic_prob_exact(n, 0.4999) == want
        monkeypatch.setattr(info, "MAX_LAYER_BYTES", 24 * terms - 1)
        with pytest.raises(ValidationError, match=rf"^summing the binomial tail at n = {n} over {terms} "
                           rf"terms needs {24 * terms} bytes, above the cap"):
            catastrophic_prob_exact(n, 0.4999)


class TestChernoff:
    def test_vacuous_at_half(self):
        assert catastrophic_prob_chernoff(7, 0.5) == 1.0

    def test_reference_value(self):
        # Oracle: direct evaluation of (4 xi (1 - xi))^(n/2).
        assert catastrophic_prob_chernoff(9, 0.3) == pytest.approx(0.84**4.5, abs=1e-12)
        assert 0.84**4.5 == pytest.approx(0.456307, abs=1e-6)

    def test_dominates_exact_tail(self):
        for n in range(1, 26):
            for xi in np.arange(0.05, 0.5, 0.05):
                assert catastrophic_prob_exact(n, xi) <= catastrophic_prob_chernoff(n, xi) + 1e-12


class TestOverhead:
    def test_reference_value(self):
        assert overhead_lower_bound(0.4, 100, 0.1) == pytest.approx(3.28785013, abs=1e-7)

    def test_vanishes_as_delta_grows(self):
        assert overhead_lower_bound(0.5 - 1e-12, 1, 0.1) < 1e-2

    def test_monotone_in_intervals(self):
        for delta, xi in [(0.3, 0.2), (0.4, 0.1)]:
            vals = [overhead_lower_bound(delta, t, xi) for t in range(1, 200, 5)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_of_relaxation_bound(self):
        for t in (1, 5, 50, 500):
            n_star = overhead_lower_bound(0.4, t, 0.2)
            back = math.log(0.02904940554533142) / math.log1p(
                -((4 * 0.2 - 4 * 0.04) ** n_star)
            )
            assert back == pytest.approx(t, abs=1e-6)


class TestRelaxationUpperBound:
    def test_reference_value(self):
        got = relaxation_upper_bound(9, 0.3, 0.4)
        assert got.time == pytest.approx(15.1574627, abs=1e-6)

    def test_near_half_noise_retains_nothing(self):
        assert relaxation_upper_bound(5, 0.4999, 0.4).time < 0.5

    def test_log_growth_is_linear_in_n(self):
        xi = 0.3
        ns = np.arange(20, 61)
        logs = np.array([math.log(relaxation_upper_bound(int(n), xi, 0.4).time) for n in ns])
        slope = np.polyfit(ns, logs, 1)[0]
        expected = math.log(1 / (4 * xi - 4 * xi**2))
        assert slope == pytest.approx(expected, rel=0.05)

    def test_asymptotic_form_tracks_bound(self):
        got = relaxation_upper_bound(40, 0.3, 0.4)
        assert got.time == pytest.approx(got.asymptotic, rel=1e-2)


def mp_log_capacity(delta, mpmath):
    """log D = log(1 - h(delta)), h the binary entropy in bits, in mpmath."""
    d = mpmath.mpf(delta)
    return mpmath.log1p((d * mpmath.log(d) + (1 - d) * mpmath.log1p(-d)) / mpmath.log(2))


def mp_overhead(delta, intervals, xi, mpmath):
    """log(1 - D^(1/T)) / log(4 xi - 4 xi^2) at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(xi)
        return mpmath.log(-mpmath.expm1(mp_log_capacity(delta, mpmath) / intervals)) / mpmath.log(
            4 * x - 4 * x * x)


def mp_relaxation(n, xi, delta, mpmath):
    """(log D / log(1 - a^n), -log D / a^n), a = 4 xi - 4 xi^2, at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(xi)
        a_n = (4 * x - 4 * x * x) ** n
        log_cap = mp_log_capacity(delta, mpmath)
        return log_cap / mpmath.log1p(-a_n), -log_cap / a_n


def assert_close(got, want, rel=1e-12):
    assert math.isfinite(got)
    assert abs(got - float(want)) <= rel * abs(float(want))


DELTAS = st.floats(1e-300, 0.5, exclude_max=True)
XIS = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
COUNTS = st.integers(1, 10**400)


class TestClosedFormsAtTheDomainEdges:
    """The memory bounds answer with a finite value that matches an mpmath
    reference, or refuse, over the whole documented domain."""

    @pytest.mark.parametrize("delta, intervals, xi", [
        (1e-12, 7, 0.3), (1e-20, 10, 0.3), (1e-300, 1, 0.3), (1e-300, 10**300, 0.2),
        (0.4999999, 3, 0.1), (0.5 - 2**-54, 5, 0.3), (0.3, 4, 0.5 - 2**-54), (0.2, 10**12, 1e-300),
    ])
    def test_overhead_edges_match_the_reference(self, delta, intervals, xi):
        mpmath = pytest.importorskip("mpmath")
        assert_close(overhead_lower_bound(delta, intervals, xi),
                     mp_overhead(delta, intervals, xi, mpmath))

    @pytest.mark.parametrize("n, xi, delta", [
        (9, 0.3, 1e-12), (9, 0.3, 1e-300), (4063, 0.3, 0.4), (1, 0.3, 0.4999999),
        (5, 0.5 - 2**-54, 0.4), (10**6, 0.4999, 0.3), (2, 1e-300, 1e-300),
    ])
    def test_relaxation_edges_match_the_reference(self, n, xi, delta):
        mpmath = pytest.importorskip("mpmath")
        got = relaxation_upper_bound(n, xi, delta)
        time, asymptotic = mp_relaxation(n, xi, delta, mpmath)
        assert_close(got.time, time)
        assert_close(got.asymptotic, asymptotic)

    def test_the_bound_near_zero_budget_stays_above_repetition(self):
        # log D used to cancel to -0, a bound of -0 intervals below what
        # repetition coding achieves.
        upper = relaxation_upper_bound(9, 0.3, 1e-300).time
        assert upper > repetition_relaxation_time(9, 0.3, 1e-300).time > 0.0

    @pytest.mark.parametrize("n", [4064, 10**6, 10**300])
    def test_bound_past_float_range_is_refused(self, n):
        with pytest.raises(ValidationError, match=rf"^relaxation upper bound at n = {n} is out of "
                           r"float range \(about e\^"):
            relaxation_upper_bound(n, 0.3, 0.4)

    @settings(max_examples=200, deadline=None)
    @given(delta=DELTAS, intervals=COUNTS, xi=XIS)
    def test_overhead_is_finite_and_matches_the_reference_or_refused(self, delta, intervals, xi):
        mpmath = pytest.importorskip("mpmath")
        try:
            got = overhead_lower_bound(delta, intervals, xi)
        except (ValidationError, InfeasibleError):
            return
        assert_close(got, mp_overhead(delta, intervals, xi, mpmath))

    @settings(max_examples=200, deadline=None)
    @given(n=COUNTS, xi=XIS, delta=DELTAS)
    def test_relaxation_is_finite_and_matches_the_reference_or_refused(self, n, xi, delta):
        mpmath = pytest.importorskip("mpmath")
        try:
            got = relaxation_upper_bound(n, xi, delta)
        except (ValidationError, InfeasibleError):
            return
        time, asymptotic = mp_relaxation(n, xi, delta, mpmath)
        assert_close(got.time, time)
        assert_close(got.asymptotic, asymptotic)

    # n stays at most 10^6, where the exact tail sums a window of 20,000
    # terms; up to the byte cap near 1.1e13 it would take seconds a call.
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**6), xi=XIS, delta=DELTAS)
    def test_repetition_never_beats_the_bound(self, n, xi, delta):
        try:
            lower = repetition_relaxation_time(n, xi, delta).time
            upper = relaxation_upper_bound(n, xi, delta).time
        except (ValidationError, InfeasibleError):
            return
        assert lower <= upper


class TestRepetitionTime:
    def test_reference_value(self):
        got = repetition_relaxation_time(9, 0.3, 0.4)
        assert got.time == pytest.approx(7.30999061, abs=1e-6)

    def test_diverges_toward_half_delta(self):
        # T grows like log(1/(1 - 2 delta)): slow but unbounded.
        deltas = (0.4, 0.49, 0.4999, 0.5 - 1e-12)
        times = [repetition_relaxation_time(9, 0.3, d).time for d in deltas]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] > 100

    def test_chernoff_substitution_is_lower(self):
        got = repetition_relaxation_time(9, 0.3, 0.4)
        assert got.chernoff_lower is not None
        assert got.chernoff_lower <= got.time

    def test_chernoff_form_vacuous_when_bound_exceeds_half(self):
        got = repetition_relaxation_time(5, 0.4, 0.3)
        assert got.chernoff_lower is None
        assert got.time > 0

    def test_useless_memory_rejected(self):
        # Even n with near-critical noise: ties push p_e above 1/2.
        assert catastrophic_prob_exact(2, 0.49) > 0.5
        with pytest.raises(InfeasibleError):
            repetition_relaxation_time(2, 0.49, 0.4)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 101, 200])
    def test_time_near_half_noise_matches_exact_arithmetic(self, n):
        # From p_e = 1/4 on, 1 - 2 p_e is summed term by term; here it is
        # exact, from the tail of the binomial law in rationals.
        for xi in (0.26, 0.4, 0.49, 0.4999999, 0.5 - 2**-40):
            x = Fraction(xi)
            p_e = sum(math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in range((n + 1) // 2, n + 1))
            if p_e < Fraction(1, 4) or p_e >= Fraction(1, 2):
                continue
            want = math.log1p(-0.8) / math.log(1 - 2 * p_e)
            assert repetition_relaxation_time(n, xi, 0.4).time == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [8489, 8490, 10**6])
    def test_time_past_float_range_is_refused(self, n):
        # p_e underflows to 0 (once a division by zero) or to a subnormal
        # (once an infinite time); both are refused as out of range.
        with pytest.raises(ValidationError, match=rf"^repetition relaxation time at n = {n} is "
                           r"out of float range \(catastrophic probability "):
            repetition_relaxation_time(n, 0.3, 0.4)
        assert repetition_relaxation_time(8001, 0.3, 0.4).time == pytest.approx(6.5655e304, rel=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 10**6),
           xi=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           delta=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    def test_time_is_finite_or_refused(self, n, xi, delta):
        try:
            got = repetition_relaxation_time(n, xi, delta)
        except (ValidationError, InfeasibleError):
            return
        assert 0.0 <= got.time < math.inf
        if got.chernoff_lower is not None:
            assert 0.0 <= got.chernoff_lower <= got.time * (1 + 1e-12)

    def test_sandwich_against_upper_bound(self):
        for n in range(5, 26, 2):
            for xi in (0.1, 0.2, 0.3, 0.4):
                for delta in (0.3, 0.4):
                    lower = repetition_relaxation_time(n, xi, delta).time
                    upper = relaxation_upper_bound(n, xi, delta).time
                    assert lower <= upper + 1e-9


class TestSimulation:
    def test_noiseless_memory_never_fails(self):
        # xi must be positive in a MemorySpec; near-zero noise with few
        # trials cannot produce a single flip event of 3+ bits.
        spec = MemorySpec(n=5, xi=1e-9, delta=0.4, intervals=10)
        report = simulate_memory(spec, trials=200, seed=0)
        np.testing.assert_array_equal(report, 1.0)

    def test_matches_two_state_closed_form(self):
        spec = MemorySpec(n=9, xi=0.3, delta=0.4, intervals=20)
        trials = 20_000
        report = simulate_memory(spec, trials=trials, seed=7)
        p_e = catastrophic_prob_exact(9, 0.3)
        for t in range(1, 21):
            analytic = (1 + (1 - 2 * p_e) ** t) / 2
            stderr = math.sqrt(analytic * (1 - analytic) / trials)
            assert abs(report[t - 1] - analytic) <= 3 * stderr

    def test_estimated_relaxation_near_analytic(self):
        spec = MemorySpec(n=9, xi=0.3, delta=0.4, intervals=20)
        report = simulate_memory(spec, trials=20_000, seed=7)
        analytic = repetition_relaxation_time(9, 0.3, 0.4).time
        # The first interval whose success probability is below 1 - delta.
        below = np.flatnonzero(report < 1.0 - spec.delta)
        assert abs(int(below[0]) + 1 - round(analytic)) <= 1

    def test_success_curve_non_increasing_up_to_noise(self):
        spec = MemorySpec(n=7, xi=0.25, delta=0.4, intervals=15)
        report = simulate_memory(spec, trials=10_000, seed=3)
        p = report
        stderr = np.sqrt(p * (1.0 - p) / 10_000)
        for t in range(1, len(p)):
            assert p[t] <= p[t - 1] + 3 * max(stderr[t], stderr[t - 1])

    def test_deterministic_and_chunk_independent(self, monkeypatch):
        spec = MemorySpec(n=5, xi=0.2, delta=0.3, intervals=8)
        a = simulate_memory(spec, trials=1000, seed=13)
        # One trial holds 8 x 5 float64 uniforms: blocks of 77 trials.
        monkeypatch.setattr(info, "DRAW_BYTES", 77 * 8 * 5 * 8)
        b = simulate_memory(spec, trials=1000, seed=13)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rows", [None, 385, 1])
    def test_draws_follow_the_documented_stream(self, monkeypatch, rows):
        # 2500 trials: two full blocks and a partial one.  385-row chunks
        # split every block unevenly (1024 = 2 * 385 + 254, 452 = 385 + 67).
        spec = MemorySpec(n=7, xi=0.25, delta=0.4, intervals=12)
        assert info.BLOCK == 1024
        if rows is not None:
            monkeypatch.setattr(info, "DRAW_BYTES", rows * 12 * 8)
        got = simulate_memory(spec, trials=2500, seed=21)
        np.testing.assert_array_equal(got, reference_simulation(spec, 2500, 21))

    def test_draws_one_uniform_per_cell(self, monkeypatch):
        # 2500 trials over 12 intervals in 385-row chunks: every generator
        # call is ``random``, and they return trials x intervals values.
        calls = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                def call(*args, **kwargs):
                    values = getattr(self.rng, name)(*args, **kwargs)
                    calls.append((name, np.size(values)))
                    return values
                return call

        blocks = memory.trial_blocks
        monkeypatch.setattr(memory, "trial_blocks", lambda total, seed: (
            (start, stop, Recording(rng)) for start, stop, rng in blocks(total, seed)))
        monkeypatch.setattr(info, "DRAW_BYTES", 385 * 12 * 8)
        simulate_memory(MemorySpec(n=7, xi=0.25, delta=0.4, intervals=12), trials=2500, seed=21)
        assert {name for name, _ in calls} == {"random"}
        assert sum(size for _, size in calls) == 2500 * 12
        assert len(calls) == 3 + 3 + 2

    def test_pooled_seeds_match_two_state_closed_form(self):
        spec = MemorySpec(n=9, xi=0.3, delta=0.4, intervals=20)
        trials, seeds = 5000, range(20)
        pooled = np.mean([simulate_memory(spec, trials, seed) for seed in seeds], axis=0)
        p_e = catastrophic_prob_exact(9, 0.3)
        analytic = (1 + (1 - 2 * p_e) ** np.arange(1, 21)) / 2
        stderr = np.sqrt(analytic * (1 - analytic) / (trials * len(seeds)))
        assert np.all(np.abs(pooled - analytic) <= 4 * stderr)

    def test_block_memory_is_capped(self):
        # 2000 trials of 200 x 25 uniforms would be 80 MB in one block.
        spec = MemorySpec(n=25, xi=0.01, delta=0.4, intervals=200)
        tracemalloc.start()
        try:
            simulate_memory(spec, trials=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * info.DRAW_BYTES

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            MemorySpec(n=0, xi=0.1, delta=0.3, intervals=5)
        with pytest.raises(ValidationError):
            MemorySpec(n=5, xi=0.0, delta=0.3, intervals=5)
        with pytest.raises(ValidationError):
            MemorySpec(n=5, xi=0.1, delta=0.5, intervals=5)
