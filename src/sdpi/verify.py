"""Randomized verification suites behind the ``verify`` CLI command.

Each suite draws its cases from per-index RNG streams, checks an
inequality or identity the library guarantees, and reports pass/fail
with counterexamples.  A failure here means a bug (or a float-tolerance
breach), never a sampling artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, count
from .contraction import (
    DEGENERATE_MI,
    LayerNoiseSpec,
    _simplex_point,
    contraction_bound,
    independent_layer_bound,
    independent_layer_channel,
    pair_bound_batch,
    quadratic_decomposition_batch,
    rayleigh_supremum_batch,
)
from .info import _validated_rows, mutual_information_batch
from .memory import relaxation_upper_bound, repetition_relaxation_time

RATIO_SLACK = 1e-9
RESIDUAL_TOL = 1e-9
SQUARE_TOL = -1e-12

# The randomized suites evaluate this many samples at a time, grouped by
# alphabet shape; every sample keeps its own RNG stream and every
# reduction is per sample, so no result depends on it.
SAMPLE_BLOCK = 1024


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checks: int
    skipped: int
    failures: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": self.checks,
            "skipped": self.skipped,
            "failures": self.failures,
            "worst": self.worst,
        }


def _shape_groups(samples: int, seed: int, draw, width: int):
    """The samples' draws, ``SAMPLE_BLOCK`` samples at a time, grouped by
    alphabet shape.

    ``draw(seed, i)`` returns sample i's alphabet shape and its values, at
    most ``width`` of them; yields (shape, sample indices, values) with one
    row of values per sample of the group, padded to ``width``.  One
    buffer holds a block's values.
    """
    values = np.empty((min(SAMPLE_BLOCK, samples), width))
    for start in range(0, samples, SAMPLE_BLOCK):
        groups: dict = {}
        for j, i in enumerate(range(start, min(start + SAMPLE_BLOCK, samples))):
            shape, row = draw(seed, i)
            values[j, : row.size] = row
            groups.setdefault(shape, []).append(j)
        for shape, rows in groups.items():
            yield shape, [start + j for j in rows], values[rows]


def _simplex_rows(values: np.ndarray, size: int) -> np.ndarray:
    """Each sample's exponentials, in runs of ``size``, as the flat-Dirichlet
    rows ``_simplex_point`` makes of them: shape (samples, runs, size)."""
    rows = values.reshape(len(values), -1, size)
    return rows / rows.sum(axis=-1, keepdims=True)


def _channels(matrices: np.ndarray) -> np.ndarray:
    """A (samples, n, m) stack, each matrix validated as ``Channel`` does."""
    g, n, m = matrices.shape
    return _validated_rows(matrices.reshape(g * n, m), "channel row {}").reshape(g, n, m)


def _joints(px: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """Joint tables px(x) c(y|x), each validated as ``JointDistribution`` does."""
    tables = px[:, :, None] * channels
    return _validated_rows(tables.reshape(len(tables), -1), "joint table").reshape(tables.shape)


def _fuzz_draw(seed: int, i: int) -> tuple:
    """Alphabet sizes (nx, ny, nz) of sample i, then the exponentials of
    p_X, the nx rows of X -> Y and the ny rows of Y -> Z."""
    rng = np.random.default_rng((seed, i))
    nx, ny, nz = (int(k) for k in rng.integers(2, 5, size=3))
    return (nx, ny, nz), rng.standard_exponential(nx + nx * ny + ny * nz)


def sdpi_fuzz(samples: int = 10000, seed: int = 0) -> SuiteResult:
    """Random chains X -> Y -> Z: the MI ratio never exceeds the pair bound."""
    failures = []
    skipped = 0
    worst_excess = -np.inf
    # The largest draw has nx = ny = nz = 4.
    for (nx, ny, nz), indices, values in _shape_groups(samples, seed, _fuzz_draw, 36):
        px, xy, yz, _ = np.split(values, np.cumsum([nx, nx * ny, ny * nz]), axis=1)
        px = _validated_rows(_simplex_rows(px, nx)[:, 0], "distribution")
        c_xy = _channels(_simplex_rows(xy, ny))
        c_yz = _channels(_simplex_rows(yz, nz))
        i_xy = mutual_information_batch(_joints(px, c_xy))
        live = i_xy > DEGENERATE_MI
        skipped += len(indices) - int(live.sum())
        if not live.any():
            continue
        px, c_xy, c_yz = px[live], c_xy[live], c_yz[live]
        ratio = mutual_information_batch(_joints(px, _channels(c_xy @ c_yz))) / i_xy[live]
        eta, _ = pair_bound_batch(c_yz)
        excess = ratio - eta
        worst_excess = max(worst_excess, float(excess.max()))
        sample = np.array(indices)[live]
        for j in np.flatnonzero(excess > RATIO_SLACK):
            failures.append(
                {
                    "sample": int(sample[j]),
                    "ratio": float(ratio[j]),
                    "eta": float(eta[j]),
                    "px": px[j].tolist(),
                    "channel_xy": c_xy[j].tolist(),
                    "channel_yz": c_yz[j].tolist(),
                }
            )
    failures.sort(key=lambda f: f["sample"])
    return SuiteResult(
        suite="sdpi-fuzz",
        passed=not failures,
        checks=samples - skipped,
        skipped=skipped,
        failures=failures,
        worst={"max_ratio_minus_eta": float(worst_excess)},
    )


def _identity_draw(seed: int, i: int) -> tuple:
    """Alphabet sizes (n, m) of sample i, then, in one array, the
    exponentials of its channel rows, its interior law, its coefficients
    and the exponentials of the row shared by its equal-rows channel."""
    rng = np.random.default_rng((seed, i))
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    return (n, m), np.concatenate([
        rng.standard_exponential(n * m),
        _simplex_point(rng, n, min_entry=1e-4),
        rng.normal(size=n - 1),
        rng.standard_exponential(m),
    ])


def appendix_identity(samples: int = 1000, seed: int = 0) -> SuiteResult:
    """Quadratic-form decomposition residuals and the Rayleigh/pair ordering.

    Per sample: a random channel (2..6 inputs/outputs), an interior
    simplex point, and a coefficient vector; checks the decomposition
    identity, the positivity of every square term, the channel-free
    split, the equal-rows special case, and that the Rayleigh supremum
    stays below the pair bound.
    """
    failures = []
    worst = {"identity_residual": 0.0, "sum_residual": 0.0, "min_square": np.inf,
             "rayleigh_minus_eta": -np.inf}
    # The largest draw has n = m = 6.
    for (n, m), indices, values in _shape_groups(samples, seed, _identity_draw, 53):
        rows, p, coeffs, flat_row, _ = np.split(values, np.cumsum([n * m, n, n - 1, m]), axis=1)
        chan = _channels(_simplex_rows(rows, m))
        p = _validated_rows(p, "distribution")
        flat = _channels(np.repeat(_simplex_rows(flat_row, m), n, axis=1))
        identity, min_square, sum_residual = quadratic_decomposition_batch(chan, p, coeffs)
        flat_identity, _, flat_sum = quadratic_decomposition_batch(flat, p, coeffs)
        sup = rayleigh_supremum_batch(chan, p)
        eta, _ = pair_bound_batch(chan)

        worst["identity_residual"] = max(worst["identity_residual"], identity.max())
        worst["sum_residual"] = max(worst["sum_residual"], sum_residual.max(), flat_sum.max())
        worst["min_square"] = min(worst["min_square"], min_square.min())
        worst["rayleigh_minus_eta"] = max(worst["rayleigh_minus_eta"], (sup - eta).max())

        bad = (
            (identity > RESIDUAL_TOL)
            | (min_square < SQUARE_TOL)
            | (sum_residual > RESIDUAL_TOL)
            | (flat_identity > RESIDUAL_TOL)
            | (flat_sum > RESIDUAL_TOL)
            | (sup > eta + RATIO_SLACK)
        )
        for j in np.flatnonzero(bad):
            failures.append(
                {
                    "sample": indices[j],
                    "identity_residual": float(identity[j]),
                    "sum_residual": float(sum_residual[j]),
                    "min_square": float(min_square[j]),
                    "rayleigh": float(sup[j]),
                    "eta": float(eta[j]),
                    "channel": chan[j].tolist(),
                    "p": p[j].tolist(),
                    "coeffs": coeffs[j].tolist(),
                }
            )
    failures.sort(key=lambda f: f["sample"])
    worst = {k: float(v) for k, v in worst.items()}
    return SuiteResult(
        suite="appendix-identity",
        passed=not failures,
        checks=samples,
        skipped=0,
        failures=failures,
        worst=worst,
    )


def layer_equality(samples: int = 0, seed: int = 0) -> SuiteResult:
    """Pair scan of the materialized independent-noise layer channel equals
    the closed form 1 - (4 xi - 4 xi^2)^n.  Deterministic grid; the sample
    and seed arguments are accepted for interface uniformity."""
    failures = []
    worst_err = 0.0
    checks = 0
    for n in range(1, 9):
        for xi in (0.05, 0.15, 0.25, 0.35, 0.45):
            spec = LayerNoiseSpec(xi=xi, n=n)
            scanned = contraction_bound(independent_layer_channel(spec)).eta
            closed = independent_layer_bound(spec)
            err = abs(scanned - closed)
            worst_err = max(worst_err, err)
            checks += 1
            if err > RESIDUAL_TOL:
                failures.append({"xi": xi, "n": n, "scanned": scanned, "closed": closed})
    return SuiteResult(
        suite="layer-equality",
        passed=not failures,
        checks=checks,
        skipped=0,
        failures=failures,
        worst={"max_abs_error": float(worst_err)},
    )


def memory_sandwich(samples: int = 0, seed: int = 0) -> SuiteResult:
    """Repetition-code relaxation time never exceeds the scheme-independent
    upper bound.  Deterministic grid over odd n, xi, delta."""
    failures = []
    worst_excess = -np.inf
    checks = 0
    for n in range(5, 26, 2):
        for xi in (0.1, 0.2, 0.3, 0.4):
            for delta in (0.3, 0.4):
                lower = repetition_relaxation_time(n, xi, delta).time
                upper = relaxation_upper_bound(n, xi, delta).time
                excess = lower - upper
                worst_excess = max(worst_excess, excess)
                checks += 1
                if excess > RATIO_SLACK:
                    failures.append({"n": n, "xi": xi, "delta": delta,
                                     "lower": lower, "upper": upper})
    return SuiteResult(
        suite="memory-sandwich",
        passed=not failures,
        checks=checks,
        skipped=0,
        failures=failures,
        worst={"max_lower_minus_upper": float(worst_excess)},
    )


SUITES = {
    "sdpi-fuzz": sdpi_fuzz,
    "appendix-identity": appendix_identity,
    "layer-equality": layer_equality,
    "memory-sandwich": memory_sandwich,
}

DEFAULT_BUDGETS = {
    "sdpi-fuzz": 10000,
    "appendix-identity": 1000,
    "layer-equality": 0,
    "memory-sandwich": 0,
}


def run_suite(name: str, seed: int = 0, budget: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    samples = DEFAULT_BUDGETS[name] if budget is None else count(budget, "budget")
    return SUITES[name](samples, count(seed, "seed", 0))
