"""Contraction bounds, layer specializations, and the Hessian machinery."""

import math
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest
import sdpi.contraction
from hypothesis import given, settings, strategies as st

from sdpi import (
    Channel,
    Distribution,
    CorrelatedNoiseSpec,
    LayerNoiseSpec,
    ValidationError,
    compose,
    contraction_bound,
    correlated_layer_bound_exact,
    correlated_layer_bound_leading,
    correlated_layer_channel,
    evans_schulman_raw,
    independent_layer_bound,
    independent_layer_channel,
    joint,
    mutual_information,
    quadratic_decomposition_check,
    rayleigh_supremum,
    shared_noise_slope,
)
from sdpi.contraction import (
    MAX_CLASS_SCAN_WIDTH,
    _distance_class_sums,
    _entropy_hessians,
    _interior_probs,
    _pushforward_hessians,
)
from sdpi.info import MAX_LAYER_BYTES, check_bytes
from noise_oracles import (
    correlated_weights,
    correlated_weights_decrease,
    hamming_channel,
    independent_weights,
)


def random_channel(rng, n, m):
    return Channel(rng.dirichlet(np.ones(m), size=n))


def interior_distribution(rng, n, min_entry=1e-4):
    while True:
        v = rng.dirichlet(np.ones(n))
        if v.min() >= min_entry:
            return Distribution(v)


class TestContractionBound:
    def test_bsc_closed_form(self):
        for p in np.arange(0.0, 0.501, 0.05):
            got = contraction_bound(Channel.bsc(p))
            assert got.eta == pytest.approx((1 - 2 * p) ** 2, abs=1e-12)
            assert got.witness_pair == (0, 1)

    def test_identity_rows_orthogonal(self):
        assert contraction_bound(Channel(np.eye(2))).eta == 1.0
        assert contraction_bound(Channel(np.eye(5))).eta == 1.0

    def test_constant_rows_contract_everything(self):
        flat = Channel(np.tile([0.2, 0.5, 0.3], (4, 1)))
        assert contraction_bound(flat).eta == pytest.approx(0.0, abs=1e-12)

    def test_single_input_rejected(self):
        with pytest.raises(ValidationError):
            contraction_bound(Channel([[0.5, 0.5]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = random_channel(rng, 5, 4)
            eta = contraction_bound(c).eta
            rows = rng.permutation(5)
            cols = rng.permutation(4)
            permuted = Channel(c.matrix[rows][:, cols])
            assert contraction_bound(permuted).eta == pytest.approx(eta, abs=1e-12)

    def test_witness_ties_resolve_lexicographically(self):
        # Three identical rows: every pair attains the minimum; (0, 1) wins.
        flat = Channel(np.tile([0.5, 0.5], (3, 1)))
        assert contraction_bound(flat).witness_pair == (0, 1)


class TestIndependentLayer:
    def test_noiseless_and_fully_noisy_limits(self):
        assert independent_layer_bound(LayerNoiseSpec(0.0, 4)) == 1.0
        assert independent_layer_bound(LayerNoiseSpec(0.5 - 1e-12, 4)) == pytest.approx(0.0, abs=1e-10)

    def test_direct_value(self):
        assert independent_layer_bound(LayerNoiseSpec(0.1, 3)) == pytest.approx(
            1 - 0.36**3, abs=1e-15
        )

    def test_channel_single_component_is_bsc(self):
        got = independent_layer_channel(LayerNoiseSpec(0.2, 1))
        np.testing.assert_allclose(got.matrix, Channel.bsc(0.2).matrix, atol=1e-15)

    def test_channel_entries_by_distance(self):
        got = independent_layer_channel(LayerNoiseSpec(0.1, 2))
        assert got.matrix[0, 3] == pytest.approx(0.01, abs=1e-15)
        assert got.matrix[0b01, 0b10] == pytest.approx(0.01, abs=1e-15)
        assert got.matrix[0, 0] == pytest.approx(0.81, abs=1e-15)

    def test_scan_matches_closed_form(self):
        for n in (1, 3, 5):
            for xi in (0.05, 0.25, 0.45):
                spec = LayerNoiseSpec(xi, n)
                scanned = contraction_bound(independent_layer_channel(spec)).eta
                assert scanned == pytest.approx(independent_layer_bound(spec), abs=1e-9)

    def test_monotone_in_noise_and_width(self):
        xis = np.arange(0.01, 0.5, 0.02)
        vals = [independent_layer_bound(LayerNoiseSpec(x, 3)) for x in xis]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        widths = [independent_layer_bound(LayerNoiseSpec(0.2, n)) for n in range(1, 9)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_channel_matches_hamming_oracle(self):
        for n in range(1, 11):
            for xi in (0.0, 0.05, 0.2, 0.45):
                got = independent_layer_channel(LayerNoiseSpec(xi, n)).matrix
                want = hamming_channel(independent_weights(xi, n))
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_width_cap(self):
        # 2^13 x 2^13 floats are exactly the byte cap; 2^14 x 2^14 are 2 GiB,
        # and the refusal comes before any of it is allocated.
        check_bytes(8 << 26, "a 2^13 x 2^13 layer matrix")
        tracemalloc.start()
        try:
            for build, spec in ((independent_layer_channel, LayerNoiseSpec(0.1, 14)),
                                (correlated_layer_channel, CorrelatedNoiseSpec(0.01, 0.1, 14))):
                with pytest.raises(ValidationError, match=f"above the cap of {MAX_LAYER_BYTES} bytes"):
                    build(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_builders_check_the_cap_at_their_width(self, monkeypatch):
        # Record what each dense builder asks the cap for, and stop it there,
        # so the n = 13 channels (512 MiB each) are never built.
        class Checked(Exception):
            pass

        asked = []

        def record(need, what):
            asked.append((need, what))
            raise Checked

        monkeypatch.setattr(sdpi.contraction, "check_bytes", record)
        for build, spec in ((independent_layer_channel, LayerNoiseSpec(0.1, 13)),
                            (correlated_layer_channel, CorrelatedNoiseSpec(0.01, 0.1, 13))):
            with pytest.raises(Checked):
                build(spec)
        assert asked == [(8 << 26, "a 2^13 x 2^13 layer matrix")] * 2

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValidationError):
            LayerNoiseSpec(0.5, 3)
        with pytest.raises(ValidationError):
            LayerNoiseSpec(-0.1, 3)


class TestCorrelatedLayer:
    def test_no_shared_noise_reduces_to_independent(self):
        spec = CorrelatedNoiseSpec(0.0, 0.3, 4)
        got = correlated_layer_channel(spec)
        want = hamming_channel(independent_weights(0.3, 4))
        np.testing.assert_allclose(got.matrix, want, atol=1e-15)
        assert correlated_layer_bound_exact(spec).eta == pytest.approx(
            independent_layer_bound(LayerNoiseSpec(0.3, 4)), abs=1e-12
        )

    def test_pure_shared_noise(self):
        got = correlated_layer_channel(CorrelatedNoiseSpec(xi1=0.05, xi2=0.0, n=2))
        assert got.matrix[0, 3] == pytest.approx(0.05, abs=1e-15)
        assert got.matrix[0, 1] == 0.0
        assert got.matrix[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_channel_matches_hamming_oracle(self):
        for n in range(1, 11):
            for xi1, xi2 in ((0.0, 0.3), (0.05, 0.35), (0.5, 0.0), (1.0, 0.2), (0.3, 0.45)):
                spec = CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n)
                want = hamming_channel(correlated_weights(spec))
                got = correlated_layer_channel(spec).matrix
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = CorrelatedNoiseSpec(
                xi1=float(rng.uniform(0, 0.2)), xi2=float(rng.uniform(0, 0.49)),
                n=int(rng.integers(1, 7)),
            )
            sums = correlated_layer_channel(spec).matrix.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_distance_class_scan_matches_brute_force(self):
        for n in range(1, 11):
            for xi1 in (0.0, 0.01, 0.05, 0.07, 0.2):
                spec = CorrelatedNoiseSpec(xi1=xi1, xi2=0.35, n=n)
                fast = correlated_layer_bound_exact(spec).eta
                brute = contraction_bound(correlated_layer_channel(spec)).eta
                assert fast == pytest.approx(brute, abs=1e-12)

    def test_ordering_against_matched_independent(self):
        for xi1 in np.arange(0.005, 0.0701, 0.005):
            spec = CorrelatedNoiseSpec(xi1=float(xi1), xi2=0.35, n=5)
            matched = xi1 * (1 - 0.35) + (1 - xi1) * 0.35
            ind = independent_layer_bound(LayerNoiseSpec(matched, 5))
            assert correlated_layer_bound_exact(spec).eta <= ind + 1e-9

    def test_leading_order_error_is_quadratic(self):
        def gap(xi1):
            spec = CorrelatedNoiseSpec(xi1=xi1, xi2=0.35, n=5)
            return abs(
                correlated_layer_bound_exact(spec).eta - correlated_layer_bound_leading(spec)
            )

        assert gap(0.07) / gap(0.01) >= 4.0

    def test_ordering_diagnostic_tracks_regime(self):
        assert correlated_weights_decrease(CorrelatedNoiseSpec(0.07, 0.35, 5))
        assert not correlated_weights_decrease(CorrelatedNoiseSpec(0.15, 0.35, 5))
        # Without shared noise the weights 0.7^(n-d) 0.3^d decrease strictly;
        # at n = 1000 they underflow to 0 and only their logs still show it.
        assert correlated_weights_decrease(CorrelatedNoiseSpec(0.0, 0.3, 1000))
        # The exact scan stays correct either way.
        spec = CorrelatedNoiseSpec(0.15, 0.35, 5)
        fast = correlated_layer_bound_exact(spec).eta
        brute = contraction_bound(correlated_layer_channel(spec)).eta
        assert fast == pytest.approx(brute, abs=1e-12)


def big_int_class_sums(spec):
    """Oracle: the Bhattacharyya sum of each distance class e, as a float
    sum of exact big-integer binomials times sqrt(w[d1] w[d2]) over
    every output distance d1 from row k and flip count i inside the e
    differing bits.  It overflows a float from n of about 1030 on."""
    w, n = correlated_weights(spec), spec.n
    sums = np.zeros(n + 1)
    for e in range(n + 1):
        total = 0.0
        for d1 in range(n + 1):
            for i in range(max(0, d1 - (n - e)), min(e, d1) + 1):
                d2 = e + d1 - 2 * i
                if 0 <= d2 <= n:
                    total += comb(e, i) * comb(n - e, d1 - i) * sqrt(w[d1] * w[d2])
        sums[e] = total
    return sums


def oracle_grid():
    """Seeded (xi1, xi2, n) cases with n <= 120, and the edges xi1 in
    {0, 1} and xi2 = 0."""
    rng = np.random.default_rng(2718)
    cases = [(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 121)))
             for _ in range(8)]
    edges = [(0.0, 0.3, 60), (1.0, 0.3, 60), (0.02, 0.0, 60), (0.0, 0.0, 30), (1.0, 0.0, 30),
             (0.5, 0.0, 1), (0.01, 0.45, 120)]
    return cases + edges


class TestDistanceClassScan:
    @pytest.mark.parametrize("xi1, xi2, n", oracle_grid())
    def test_matches_big_int_oracle(self, xi1, xi2, n):
        spec = CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n)
        want = big_int_class_sums(spec)
        got = np.exp(_distance_class_sums(spec))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        e = int(np.argmin(want[1:])) + 1
        assert correlated_layer_bound_exact(spec).witness_pair == (0, (1 << e) - 1)

    def test_pinned_class_at_width_400(self):
        # Checked once against big_int_class_sums (about 44 s at this width).
        log_sums = _distance_class_sums(CorrelatedNoiseSpec(xi1=0.01, xi2=0.3, n=400))
        e = int(np.argmin(log_sums[1:])) + 1
        assert e == 209
        assert 2.0 * log_sums[e] == pytest.approx(-35.098, abs=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5, exclude_max=True),
        st.integers(1, 300),
    )
    def test_finite_bounds_and_a_class_witness(self, xi1, xi2, n):
        self.check_edges(CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n))

    @pytest.mark.parametrize("xi1, xi2", [(1.0, 0.0), (1.0, 0.49)])
    def test_finite_at_the_width_cap(self, xi1, xi2):
        self.check_edges(CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=MAX_CLASS_SCAN_WIDTH))

    @staticmethod
    def check_edges(spec):
        bound = correlated_layer_bound_exact(spec)
        # A NaN class sum would win the argmin and make eta NaN.
        assert 0.0 <= bound.eta <= 1.0
        assert math.isfinite(correlated_layer_bound_leading(spec))
        k, l = bound.witness_pair
        e = l.bit_length()
        assert k == 0 and 1 <= e <= spec.n and l == (1 << e) - 1


class TestSlopes:
    def test_direct_value(self):
        # Oracle: direct evaluation of 2[(4 xi^2 - 4 xi + 2)^n - (4 xi - 4 xi^2)^n].
        expected = 2 * (1.09**5 - 0.91**5)
        assert shared_noise_slope(0.35, 5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.829184, abs=1e-6)

    def test_factored_form_agrees(self):
        # Cross-check form 4(4 xi2^2 - 4 xi2 + 1) sum_i u^(n-i) v^(i-1).
        def factored(xi2, n):
            u = 4.0 * xi2**2 - 4.0 * xi2 + 2.0
            v = 4.0 * xi2 - 4.0 * xi2**2
            series = sum(u ** (n - i) * v ** (i - 1) for i in range(1, n + 1))
            return 4.0 * (4.0 * xi2**2 - 4.0 * xi2 + 1.0) * series

        for xi2 in np.arange(0.0, 0.501, 0.05):
            for n in range(1, 9):
                assert shared_noise_slope(xi2, n) == pytest.approx(
                    factored(xi2, n), rel=1e-12, abs=1e-12
                )

    def test_vanishes_at_half(self):
        for n in (1, 3, 7):
            assert shared_noise_slope(0.5, n) == 0.0

    def test_dominates_matched_slope(self):
        # The slope of the independent bound at the matched per-component
        # noise level, 4n (2 xi2 - 1)^2 (4 xi2 - 4 xi2^2)^(n-1).
        for xi2 in np.arange(0.0, 0.5, 0.025):
            for n in range(1, 9):
                matched = 4.0 * n * (2.0 * xi2 - 1.0) ** 2 * (4.0 * xi2 - 4.0 * xi2**2) ** (n - 1)
                assert shared_noise_slope(xi2, n) >= matched - 1e-12

    def test_leading_bound_at_zero_shared_noise(self):
        spec = CorrelatedNoiseSpec(0.0, 0.3, 4)
        assert correlated_layer_bound_leading(spec) == pytest.approx(
            independent_layer_bound(LayerNoiseSpec(0.3, 4)), abs=1e-15
        )


class TestEvansSchulman:
    def test_zero_eta(self):
        assert evans_schulman_raw(0.0, 7) == 0.0

    def test_quarter_noise_three_components(self):
        eta = 1 - (4 * 0.25 - 4 * 0.25**2)
        assert eta == pytest.approx(0.25, abs=1e-15)
        assert evans_schulman_raw(eta, 3) == pytest.approx(0.75, abs=1e-15)

    def test_clamped_at_one_raw_is_not(self):
        # A ratio bound above 1 is vacuous; fig 2 plots the raw n * eta
        # unclamped, so callers clamp at 1 themselves.
        assert evans_schulman_raw(0.9, 3) == pytest.approx(2.7, abs=1e-15)

    def test_always_dominates_layer_form(self):
        for eta in np.arange(0.01, 1.0, 0.01):
            for n in (2, 3, 5):
                assert evans_schulman_raw(eta, n) > 1 - (1 - eta) ** n


class TestHessians:
    def test_entropy_hessian_scalar_case(self):
        h = _entropy_hessians(_interior_probs(Distribution((0.5, 0.5)).probs))
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(-4.0, abs=1e-12)

    def test_entropy_hessian_symmetric_negative_definite(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = interior_distribution(rng, int(rng.integers(2, 7)))
            h = _entropy_hessians(_interior_probs(p.probs))
            np.testing.assert_allclose(h, h.T, atol=0)
            c = rng.normal(size=h.shape[0])
            assert c @ h @ c < 0

    def test_boundary_rejected(self):
        with pytest.raises(ValidationError):
            _interior_probs(Distribution((1.0, 0.0)).probs)

    def test_pushforward_hessian_constant_rows_is_zero(self):
        flat = Channel(np.tile([0.2, 0.3, 0.5], (3, 1)))
        p = Distribution((0.2, 0.3, 0.5))
        h = _pushforward_hessians(flat.matrix, _interior_probs(p.probs, flat.matrix))
        np.testing.assert_allclose(h, 0.0, atol=1e-15)

    def test_pushforward_hessian_identity_channel_matches_entropy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = interior_distribution(rng, n)
            np.testing.assert_allclose(
                _pushforward_hessians(np.eye(n), _interior_probs(p.probs, np.eye(n))),
                _entropy_hessians(_interior_probs(p.probs)),
                atol=1e-9,
            )

    def test_pushforward_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n, m = rng.integers(2, 7, size=2)
            c = random_channel(rng, n, m)
            p = interior_distribution(rng, n)
            coeffs = rng.normal(size=n - 1)
            h = _pushforward_hessians(c.matrix, _interior_probs(p.probs, c.matrix))
            assert coeffs @ h @ coeffs <= 1e-12


class TestRayleigh:
    def test_constant_rows_give_zero(self):
        flat = Channel(np.tile([0.5, 0.5], (3, 1)))
        assert rayleigh_supremum(flat, Distribution((0.2, 0.3, 0.5))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity_gives_one(self):
        assert rayleigh_supremum(Channel(np.eye(3)), Distribution((0.2, 0.3, 0.5))) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_bsc_at_uniform(self):
        got = rayleigh_supremum(Channel.bsc(0.1), Distribution.uniform(2))
        assert got == pytest.approx(0.64, abs=1e-9)
        assert got <= 0.64 + 1e-9

    def test_never_exceeds_pair_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n, m = rng.integers(2, 6, size=2)
            c = random_channel(rng, n, m)
            p = interior_distribution(rng, n)
            assert rayleigh_supremum(c, p) <= contraction_bound(c).eta + 1e-9


class TestQuadraticDecomposition:
    def test_random_inputs_residuals(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n, m = rng.integers(2, 7, size=2)
            c = random_channel(rng, n, m)
            p = interior_distribution(rng, n)
            coeffs = rng.normal(size=n - 1)
            report = quadratic_decomposition_check(c, p, coeffs)
            assert report.identity_residual < 1e-9
            assert report.min_square_term >= -1e-12
            assert report.sum_residual < 1e-9

    def test_constant_rows_reduce_to_square_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, m = rng.integers(2, 7, size=2)
            row = rng.dirichlet(np.ones(m))
            flat = Channel(np.tile(row, (n, 1)))
            p = interior_distribution(rng, n)
            coeffs = rng.normal(size=n - 1)
            report = quadratic_decomposition_check(flat, p, coeffs)
            assert report.identity_residual < 1e-9
            assert report.sum_residual < 1e-9

    def test_coefficient_length_checked(self):
        with pytest.raises(ValidationError):
            quadratic_decomposition_check(
                Channel(np.eye(3)), Distribution((0.2, 0.3, 0.5)), [1.0]
            )
