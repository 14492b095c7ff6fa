"""The randomized verify suites: their block-stream draws, and their results against a one-sample-at-a-time reference that
follows the documented draw order through the scalar API."""

import tracemalloc

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
from sdpi import info, verify
from sdpi.info import BLOCK

# A budget that ends inside the second block.
BUDGET = 1100
SEEDS = (0, 3, 1405303632, 2**63 + 5)
# Bytes a pass holds per sample: an int64 shape key and the float draws.
SAMPLE_BYTES = {"sdpi-fuzz": 8 * (1 + 36), "appendix-identity": 8 * (1 + 36 + 6 + 5 + 6)}


def blocks(samples, seed):
    """(generator, sample indices) of each documented block stream."""
    for b, start in enumerate(range(0, samples, BLOCK)):
        yield np.random.default_rng((seed, b)), range(start, min(start + BLOCK, samples))


def simplex(values):
    return values / values.sum()


def simplex_rows(values, runs, size):
    return np.vstack([simplex(values[r * size:(r + 1) * size]) for r in range(runs)])


def fuzz_draws(samples, seed):
    """(sample, p_X, X -> Y, Y -> Z) of each sdpi_fuzz sample."""
    for rng, indices in blocks(samples, seed):
        shapes = rng.integers(2, 5, size=(len(indices), 3))
        values = rng.standard_exponential((len(indices), 36))
        for i, (nx, ny, nz), row in zip(indices, shapes, values):
            yield (i, Distribution(simplex(row[:nx])),
                   Channel(simplex_rows(row[nx:], nx, ny)),
                   Channel(simplex_rows(row[nx + nx * ny:], ny, nz)))


def identity_draws(samples, seed, redrawn=None):
    """(sample, channel, interior law, coefficients, equal-rows channel) of
    each appendix_identity sample; appends redrawn laws' samples to ``redrawn``."""
    for rng, indices in blocks(samples, seed):
        k = len(indices)
        shapes = rng.integers(2, 7, size=(k, 2))
        rows = rng.standard_exponential((k, 36))
        laws = rng.standard_exponential((k, 6))
        while low := [j for j in range(k) if simplex(laws[j, :shapes[j, 0]]).min() < 1e-4]:
            if redrawn is not None:
                redrawn += [indices[j] for j in low]
            laws[low] = rng.standard_exponential((len(low), 6))
        coeffs = rng.normal(size=(k, 5))
        flat = rng.standard_exponential((k, 6))
        for j, i in enumerate(indices):
            n, m = shapes[j]
            yield (i, Channel(simplex_rows(rows[j], n, m)), Distribution(simplex(laws[j, :n])),
                   coeffs[j, :n - 1], Channel(np.tile(simplex(flat[j, :m]), (n, 1))))


def fuzz_reference(samples, seed):
    """sdpi_fuzz one sample at a time: (failures, skipped, worst)."""
    failures, skipped, worst = [], 0, -np.inf
    for i, px, c_xy, c_yz in fuzz_draws(samples, seed):
        i_xy = mutual_information(joint(px, c_xy))
        if i_xy <= verify.DEGENERATE_MI:
            skipped += 1
            continue
        ratio = mutual_information(joint(px, compose(c_xy, c_yz))) / i_xy
        eta = contraction_bound(c_yz).eta
        worst = max(worst, ratio - eta)
        if ratio - eta > verify.RATIO_SLACK:
            failures.append({"sample": i, "ratio": ratio, "eta": eta, "px": px.probs.tolist(),
                             "channel_xy": c_xy.matrix.tolist(),
                             "channel_yz": c_yz.matrix.tolist()})
    return failures, skipped, {"max_ratio_minus_eta": worst}


def identity_reference(samples, seed):
    """appendix_identity one sample at a time: (failures, worst)."""
    failures = []
    worst = {"identity_residual": 0.0, "sum_residual": 0.0, "min_square": np.inf,
             "rayleigh_minus_eta": -np.inf}
    for i, chan, p, coeffs, flat_chan in identity_draws(samples, seed):
        report = quadratic_decomposition_check(chan, p, coeffs)
        flat = quadratic_decomposition_check(flat_chan, p, coeffs)
        sup = rayleigh_supremum(chan, p)
        eta = contraction_bound(chan).eta
        worst = {
            "identity_residual": max(worst["identity_residual"], report.identity_residual),
            "sum_residual": max(worst["sum_residual"], report.sum_residual, flat.sum_residual),
            "min_square": min(worst["min_square"], report.min_square_term),
            "rayleigh_minus_eta": max(worst["rayleigh_minus_eta"], sup - eta),
        }
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
    return failures, worst


@pytest.fixture
def forced_failures(monkeypatch):
    """Tolerances tight enough that some samples of every suite fail, and
    a mutual-information floor high enough that some chains are skipped."""
    monkeypatch.setattr(verify, "RATIO_SLACK", -0.05)
    monkeypatch.setattr(verify, "RESIDUAL_TOL", 1e-14)
    monkeypatch.setattr(verify, "DEGENERATE_MI", 0.01)


def test_fuzz_draws_equal_the_per_row_draws(monkeypatch):
    # With a slack below -1 every sample that is not skipped fails, so the
    # failure records hold every such sample's law and channels.
    monkeypatch.setattr(verify, "RATIO_SLACK", -2.0)
    for seed in SEEDS:
        result = verify.sdpi_fuzz(BUDGET, seed)
        got = [(f["sample"], f["px"], f["channel_xy"], f["channel_yz"]) for f in result.failures]
        want = [(i, px.probs.tolist(), c_xy.matrix.tolist(), c_yz.matrix.tolist())
                for i, px, c_xy, c_yz in fuzz_draws(BUDGET, seed)
                if mutual_information(joint(px, c_xy)) > verify.DEGENERATE_MI]
        assert len(got) == BUDGET - result.skipped
        assert got == want


def test_identity_draws_equal_the_per_row_draws(monkeypatch):
    # A negative residual tolerance fails every sample, so the failure
    # records hold every sample's channel, law and coefficients.
    monkeypatch.setattr(verify, "RESIDUAL_TOL", -1.0)
    redrawn = []
    for seed in SEEDS:
        got = [(f["sample"], f["channel"], f["p"], f["coeffs"])
               for f in verify.appendix_identity(BUDGET, seed).failures]
        want = [(i, chan.matrix.tolist(), p.probs.tolist(), coeffs.tolist())
                for i, chan, p, coeffs, _ in identity_draws(BUDGET, seed, redrawn)]
        assert got == want
        assert min(min(p) for _, _, p, _ in got) >= 1e-4
    # Some laws fell below the interior floor and were redrawn.
    assert redrawn


@pytest.mark.parametrize("seed", [0, 3])
def test_fuzz_failures_equal_the_reference(forced_failures, seed):
    result = verify.sdpi_fuzz(BUDGET, seed)
    failures, skipped, worst = fuzz_reference(BUDGET, seed)
    assert 0 < skipped and 0 < len(failures) < BUDGET - skipped
    assert {f["sample"] // BLOCK for f in failures} == {0, 1}
    assert (result.failures, result.skipped, result.worst) == (failures, skipped, worst)


@pytest.mark.parametrize("seed", [0, 3])
def test_identity_failures_equal_the_reference(forced_failures, seed):
    result = verify.appendix_identity(BUDGET, seed)
    failures, worst = identity_reference(BUDGET, seed)
    assert 0 < len(failures) < BUDGET
    assert {f["sample"] // BLOCK for f in failures} == {0, 1}
    assert (result.failures, result.skipped, result.worst) == (failures, 0, worst)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("suite", ["sdpi-fuzz", "appendix-identity"])
def test_default_tolerances_equal_the_reference(suite, seed):
    if suite == "sdpi-fuzz":
        result = verify.sdpi_fuzz(BUDGET, seed)
        want = fuzz_reference(BUDGET, seed)
    else:
        result = verify.appendix_identity(BUDGET, seed)
        failures, worst = identity_reference(BUDGET, seed)
        want = failures, 0, worst
    assert result.passed
    assert (result.failures, result.skipped, result.worst) == want


@pytest.mark.parametrize("budget", [BUDGET, 5000])
@pytest.mark.parametrize("suite", ["sdpi-fuzz", "appendix-identity"])
def test_pass_size_cannot_change_a_result(monkeypatch, forced_failures, suite, budget):
    spans = []
    shape_groups = verify._shape_groups

    def recording(*args):
        for ids, sizes, arrays in shape_groups(*args):
            spans.append((ids[0] // BLOCK, ids[-1] // BLOCK))
            yield ids, sizes, arrays

    monkeypatch.setattr(verify, "_shape_groups", recording)
    want = verify.SUITES[suite](budget, 3).to_dict()
    assert want["failures"]
    blocks = -(-budget // BLOCK)
    # The default pass holds the whole budget, so some shape spans every block.
    assert max(last - first for first, last in spans) == blocks - 1
    for per_pass in (1, 3):
        spans.clear()
        monkeypatch.setattr(info, "DRAW_BYTES", per_pass * BLOCK * SAMPLE_BYTES[suite])
        assert verify.SUITES[suite](budget, 3).to_dict() == want
        assert all(first // per_pass == last // per_pass for first, last in spans)
        assert max(last - first for first, last in spans) == min(per_pass, blocks) - 1


def test_memory_does_not_grow_with_the_budget():
    per_pass = info.DRAW_BYTES // (SAMPLE_BYTES["sdpi-fuzz"] * BLOCK) * BLOCK
    peaks = []
    for samples in (per_pass, 8 * per_pass):
        tracemalloc.start()
        try:
            verify.sdpi_fuzz(samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_grid_suites_report_each_failing_case_in_grid_order(monkeypatch):
    monkeypatch.setattr(verify, "RESIDUAL_TOL", -1.0)
    monkeypatch.setattr(verify, "RATIO_SLACK", -1e300)
    layer, memory = verify.run_suite("layer-equality"), verify.run_suite("memory-sandwich")
    assert [(f["n"], f["xi"]) for f in layer.failures] == [
        (n, xi) for n in range(1, 9) for xi in (0.05, 0.15, 0.25, 0.35, 0.45)]
    assert [(f["n"], f["xi"], f["delta"]) for f in memory.failures] == [
        (n, xi, delta) for n in range(5, 26, 2) for xi in (0.1, 0.2, 0.3, 0.4)
        for delta in (0.3, 0.4)]
    for result in (layer, memory):
        assert not result.passed and result.skipped == 0
        assert result.checks == len(result.failures)
        assert result.to_dict()["passed"] is False
