"""The randomized verify suites: their draws, block-size independence, and
failure records against a one-sample-at-a-time reference."""

import numpy as np
import pytest

from sdpi import (
    Channel,
    Distribution,
    compose,
    contraction_bound,
    joint,
    mutual_information,
    quadratic_decomposition_check,
    rayleigh_supremum,
)
from sdpi import verify
from sdpi.contraction import DEGENERATE_MI, _simplex_point

# 200 (seed, sample) RNG streams.
STREAMS = [(seed, i) for seed in (0, 3, 1405303632, 2**63 + 5) for i in range(50)]


def _rows(values, size):
    return list(verify._simplex_rows(values[None], size)[0])


def test_fuzz_draws_equal_the_per_row_draws():
    for seed, i in STREAMS:
        (nx, ny, nz), values = verify._fuzz_draw(seed, i)
        rng = np.random.default_rng((seed, i))
        assert tuple(rng.integers(2, 5, size=3)) == (nx, ny, nz)
        want = [_simplex_point(rng, nx)]
        want += [_simplex_point(rng, ny) for _ in range(nx)]
        want += [_simplex_point(rng, nz) for _ in range(ny)]
        got = (_rows(values[:nx], nx) + _rows(values[nx:nx + nx * ny], ny)
               + _rows(values[nx + nx * ny:], nz))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_identity_draws_equal_the_per_row_draws():
    for seed, i in STREAMS:
        (n, m), values = verify._identity_draw(seed, i)
        rows, p, coeffs, flat = np.split(values, np.cumsum([n * m, n, n - 1]))
        rng = np.random.default_rng((seed, i))
        assert (int(rng.integers(2, 7)), int(rng.integers(2, 7))) == (n, m)
        want = [_simplex_point(rng, m) for _ in range(n)]
        np.testing.assert_array_equal(np.stack(_rows(rows, m)), np.stack(want))
        np.testing.assert_array_equal(p, _simplex_point(rng, n, min_entry=1e-4))
        np.testing.assert_array_equal(coeffs, rng.normal(size=n - 1))
        np.testing.assert_array_equal(_rows(flat, m)[0], _simplex_point(rng, m))


def fuzz_reference(samples, seed):
    """sdpi_fuzz one sample at a time through the scalar API: (failures, skipped)."""
    failures, skipped = [], 0
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        nx, ny, nz = rng.integers(2, 5, size=3)
        px = Distribution(_simplex_point(rng, nx))
        c_xy = Channel(np.vstack([_simplex_point(rng, ny) for _ in range(nx)]))
        c_yz = Channel(np.vstack([_simplex_point(rng, nz) for _ in range(ny)]))
        i_xy = mutual_information(joint(px, c_xy))
        if i_xy <= DEGENERATE_MI:
            skipped += 1
            continue
        ratio = mutual_information(joint(px, compose(c_xy, c_yz))) / i_xy
        eta = contraction_bound(c_yz).eta
        if ratio - eta > verify.RATIO_SLACK:
            failures.append({"sample": i, "ratio": ratio, "eta": eta, "px": px.probs.tolist(),
                             "channel_xy": c_xy.matrix.tolist(),
                             "channel_yz": c_yz.matrix.tolist()})
    return failures, skipped


def identity_reference(samples, seed):
    """appendix_identity's failures, one sample at a time through the scalar API."""
    failures = []
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        chan = Channel(np.vstack([_simplex_point(rng, m) for _ in range(n)]))
        p = Distribution(_simplex_point(rng, n, min_entry=1e-4))
        coeffs = rng.normal(size=n - 1)
        report = quadratic_decomposition_check(chan, p, coeffs)
        flat = quadratic_decomposition_check(
            Channel(np.tile(_simplex_point(rng, m), (n, 1))), p, coeffs)
        sup = rayleigh_supremum(chan, p)
        eta = contraction_bound(chan).eta
        if (report.identity_residual > verify.RESIDUAL_TOL
                or report.min_square_term < verify.SQUARE_TOL
                or report.sum_residual > verify.RESIDUAL_TOL
                or flat.identity_residual > verify.RESIDUAL_TOL
                or flat.sum_residual > verify.RESIDUAL_TOL
                or sup > eta + verify.RATIO_SLACK):
            failures.append({"sample": i, "identity_residual": report.identity_residual,
                             "sum_residual": report.sum_residual,
                             "min_square": report.min_square_term, "rayleigh": sup, "eta": eta,
                             "channel": chan.matrix.tolist(), "p": p.probs.tolist(),
                             "coeffs": coeffs.tolist()})
    return failures


@pytest.fixture
def forced_failures(monkeypatch):
    """Tolerances tight enough that some samples of every suite fail."""
    monkeypatch.setattr(verify, "RATIO_SLACK", -0.05)
    monkeypatch.setattr(verify, "RESIDUAL_TOL", 1e-14)


@pytest.mark.parametrize("forced", [False, True], ids=["default", "forced-failures"])
@pytest.mark.parametrize("budget", [60, 100])
@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("suite", [verify.sdpi_fuzz, verify.appendix_identity],
                         ids=["sdpi-fuzz", "appendix-identity"])
def test_results_do_not_depend_on_the_block_size(monkeypatch, request, suite, block, budget,
                                                 forced):
    if forced:
        request.getfixturevalue("forced_failures")
    want = suite(budget, seed=3).to_dict()
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", block)
    assert suite(budget, seed=3).to_dict() == want


@pytest.mark.parametrize("seed", [0, 3])
def test_fuzz_failures_equal_the_reference(forced_failures, seed):
    result = verify.sdpi_fuzz(300, seed)
    failures, skipped = fuzz_reference(300, seed)
    assert 0 < len(failures) < 300 - skipped
    assert result.failures == failures
    assert result.skipped == skipped


@pytest.mark.parametrize("seed", [0, 3])
def test_identity_failures_equal_the_reference(forced_failures, seed):
    failures = verify.appendix_identity(300, seed).failures
    assert 0 < len(failures) < 300
    assert failures == identity_reference(300, seed)
