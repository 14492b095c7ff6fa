"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines and runtimes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from sdpi import (
    Channel,
    CorrelatedNoiseSpec,
    Distribution,
    LayerNoiseSpec,
    catastrophic_prob_chernoff,
    catastrophic_prob_exact,
    contraction_bound,
    correlated_layer_bound_exact,
    correlated_layer_bound_leading,
    correlated_layer_channel,
    amgm_product_bound,
    entropy,
    exact_io_mutual_information,
    independent_layer_bound,
    independent_layer_channel,
    information_decay_bound,
    MemorySpec,
    parity_size_complexity,
    optimal_depth_tradeoff,
    quadratic_decomposition_check,
    random_network,
    rayleigh_supremum,
    relaxation_upper_bound,
    repetition_relaxation_time,
    simulate_memory,
)
from sdpi.cli import main as cli_main
from sdpi.verify import sdpi_fuzz


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s exceeds {limit_seconds}s budget"
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS ({elapsed:.2f}s < {limit_seconds:g}s)")


def test_01_bsc_special_case():
    with criterion(1, "bsc closed form", 1.0):
        for p in np.arange(0.0, 0.5001, 0.05):
            got = contraction_bound(Channel.bsc(p)).eta
            assert abs(got - (1 - 2 * p) ** 2) <= 1e-12


def test_02_layer_scan_equals_closed_form():
    with criterion(2, "independent layer equality", 30.0):
        for n in range(1, 9):
            for xi in (0.05, 0.15, 0.25, 0.35, 0.45):
                spec = LayerNoiseSpec(xi=xi, n=n)
                scanned = contraction_bound(independent_layer_channel(spec)).eta
                assert abs(scanned - independent_layer_bound(spec)) <= 1e-9


def test_03_depth_width_tradeoff_reference():
    with criterion(3, "depth-width tradeoff reference", 1.0):
        result = optimal_depth_tradeoff(500_000_000, 0.37, 0.4, 6)
        assert result.best.depth == 4
        assert abs(result.best.minimum_neurons - 61.22) <= 0.01
        assert abs(parity_size_complexity(500_000_000, 6) - 6.915) <= 0.001


def test_04_tighter_than_per_component_accounting():
    with criterion(4, "tightness vs per-component bound", 1.0):
        for eta in np.arange(0.01, 0.9901, 0.01):
            for n in (2, 3, 5):
                assert 1 - (1 - eta) ** n < n * eta
        res = CliRunner().invoke(cli_main, ["fig", "2"])
        assert res.exit_code == 0
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[2:]]
        for row in rows:
            assert float(row[2]) <= float(row[1]) + 1e-12


def test_05_correlated_noise_ordering_and_convergence():
    with criterion(5, "correlated noise ordering", 5.0):
        xi2, n = 0.35, 5

        def gap(xi1):
            # Exact value from the materialized 32 x 32 channel.
            spec = CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n)
            exact = contraction_bound(correlated_layer_channel(spec)).eta
            return abs(exact - correlated_layer_bound_leading(spec))

        for xi1 in np.arange(0.005, 0.0701, 0.005):
            spec = CorrelatedNoiseSpec(xi1=float(xi1), xi2=xi2, n=n)
            exact = correlated_layer_bound_exact(spec).eta
            matched = xi1 * (1 - xi2) + (1 - xi1) * xi2
            eta_ind = independent_layer_bound(LayerNoiseSpec(xi=matched, n=n))
            assert exact <= eta_ind + 1e-9

        assert gap(0.07) / gap(0.01) >= 4.0


def test_06_contraction_fuzz_random_chains():
    with criterion(6, "contraction fuzz", 60.0):
        result = sdpi_fuzz(samples=10_000, seed=0)
        assert result.passed
        assert not result.failures
        assert result.checks + result.skipped == 10_000


def test_07_quadratic_decomposition_and_rayleigh():
    with criterion(7, "quadratic decomposition identities", 60.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n, m = rng.integers(2, 7, size=2)
            chan = Channel(rng.dirichlet(np.ones(m), size=n))
            while True:
                p_vec = rng.dirichlet(np.ones(n))
                if p_vec.min() >= 1e-4:
                    break
            p = Distribution(p_vec)
            coeffs = rng.normal(size=n - 1)
            report = quadratic_decomposition_check(chan, p, coeffs)
            assert report.identity_residual < 1e-9
            assert report.min_square_term >= -1e-12
            assert report.sum_residual < 1e-9

            eta = contraction_bound(chan).eta
            for _ in range(100):
                while True:
                    q_vec = rng.dirichlet(np.ones(n))
                    if q_vec.min() >= 1e-4:
                        break
                assert rayleigh_supremum(chan, Distribution(q_vec)) <= eta + 1e-9


def test_08_network_decay_bound_dominates_exact_mi():
    with criterion(8, "network information decay", 120.0):
        rng = np.random.default_rng(7)
        xis = (0.1, 0.2, 0.3)
        for i in range(100):
            depth = int(rng.integers(1, 5))
            widths = [int(w) for w in rng.integers(1, 6, size=depth)]
            input_width = int(rng.integers(1, 6))
            xi = xis[i % 3]
            net = random_network(input_width, widths, xi=xi, seed=1000 + i)
            p_x = Distribution(rng.dirichlet(np.ones(1 << input_width)))
            h_x = entropy(p_x)
            mi = exact_io_mutual_information(net, p_x)
            assert mi <= information_decay_bound(widths, xi, h_x) + 1e-9
            assert mi <= h_x + 1e-9


def test_09_repetition_memory_model():
    with criterion(9, "fault-tolerant memory model", 120.0):
        n, xi, delta = 9, 0.3, 0.4
        p_e = catastrophic_prob_exact(n, xi)
        assert abs(p_e - 0.09881) <= 1e-5

        # Direct evaluation of (4 xi (1-xi))^(n/2); the bound must
        # dominate the exact tail.
        chernoff = catastrophic_prob_chernoff(n, xi)
        assert abs(chernoff - 0.84**4.5) <= 1e-4
        assert p_e <= chernoff

        analytic = repetition_relaxation_time(n, xi, delta).time
        assert abs(analytic - 7.31) <= 0.01

        trials = 100_000
        spec = MemorySpec(n=n, xi=xi, delta=delta, intervals=20)
        report = simulate_memory(spec, trials=trials, seed=2024)
        for t in range(1, 21):
            expected = (1 + (1 - 2 * p_e) ** t) / 2
            stderr = math.sqrt(expected * (1 - expected) / trials)
            assert abs(report[t - 1] - expected) <= 3 * stderr

        for nn in range(5, 26, 2):
            for x in (0.1, 0.2, 0.3, 0.4):
                for d in (0.3, 0.4):
                    lower = repetition_relaxation_time(nn, x, d).time
                    upper = relaxation_upper_bound(nn, x, d).time
                    assert lower <= upper + 1e-9


def test_10_product_bound_fuzz():
    with criterion(10, "product bound fuzz", 1.0):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            a = float(rng.uniform(0.0, 1.0))
            widths = [int(w) for w in rng.integers(1, 15, size=int(rng.integers(1, 7)))]
            got = amgm_product_bound(a, widths)
            assert got.product <= got.bound + 1e-12
            if len(set(widths)) == 1:
                assert got.tight
                assert abs(got.product - got.bound) <= 1e-12
