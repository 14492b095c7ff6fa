"""Randomized verification suites behind the ``verify`` CLI command.

Each randomized suite draws its cases in the blocks of
``info.trial_blocks``: block b covers samples [b * BLOCK, (b + 1) * BLOCK)
and draws from ``default_rng((seed, b))``, first every sample's alphabet
sizes in one ``integers`` call, then one fixed-width array per kind of
value, of which each sample uses the prefix its sizes need.  The samples
are evaluated one stack per alphabet shape.  Each suite checks an
inequality or identity the library guarantees, and reports pass/fail
with counterexamples.  A failure here means a bug (or a float-tolerance
breach), never a sampling artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, count
from .closed_form import LayerNoiseSpec, independent_layer_bound, relaxation_upper_bound
from .contraction import (
    _chain_ratios,
    _channels,
    _simplex_rows,
    contraction_bound,
    independent_layer_channel,
    pair_bound_batch,
    quadratic_decomposition_batch,
    rayleigh_supremum_batch,
)
from .info import _validated_rows, trial_blocks
from .memory import repetition_relaxation_time

RATIO_SLACK = 1e-9
RESIDUAL_TOL = 1e-9
SQUARE_TOL = -1e-12


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


def sdpi_fuzz(samples: int = 10000, seed: int = 0) -> SuiteResult:
    """Random chains X -> Y -> Z: the MI ratio never exceeds the pair bound.

    A block of k samples draws ``integers(2, 5, size=(k, 3))`` for the
    alphabet sizes (nx, ny, nz), then ``standard_exponential((k, 36))``:
    row i holds p_X, the nx rows of X -> Y and the ny rows of Y -> Z in
    that order, each run normalized to sum 1.
    """
    failures = []
    skipped = 0
    worst_excess = -np.inf
    for start, stop, rng in trial_blocks(samples, seed):
        shapes = rng.integers(2, 5, size=(stop - start, 3))
        # The largest draw has nx = ny = nz = 4.
        values = rng.standard_exponential((stop - start, 36))
        kinds, which = np.unique(shapes, axis=0, return_inverse=True)
        for g, (nx, ny, nz) in enumerate(kinds):
            rows = np.flatnonzero(which.reshape(-1) == g)
            px, xy, yz, _ = np.split(values[rows], np.cumsum([nx, nx * ny, ny * nz]), axis=1)
            px = _validated_rows(_simplex_rows(px, nx)[:, 0], "distribution")
            c_xy = _channels(_simplex_rows(xy, ny))
            c_yz = _channels(_simplex_rows(yz, nz))
            ratio, live = _chain_ratios(px, c_xy, c_yz)
            skipped += len(rows) - int(live.sum())
            eta, _ = pair_bound_batch(c_yz)
            excess = ratio - eta
            worst_excess = max(worst_excess, float(excess.max()))
            for j in np.flatnonzero(excess > RATIO_SLACK):
                failures.append(
                    {
                        "sample": start + int(rows[j]),
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


def _interior_laws(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """``standard_exponential((k, 6))`` whose row i, cut to its first
    sizes[i] entries and normalized, has every entry at least 1e-4; the
    rows that do not are redrawn together, in sample order, from the same
    generator until none remain."""
    used = np.arange(6) < sizes[:, None]
    law = rng.standard_exponential(used.shape)
    while True:
        head = np.where(used, law, 0.0)
        head /= head.sum(axis=1, keepdims=True)
        low = np.flatnonzero(np.where(used, head, 1.0).min(axis=1) < 1e-4)
        if not low.size:
            return law
        law[low] = rng.standard_exponential((low.size, 6))


def appendix_identity(samples: int = 1000, seed: int = 0) -> SuiteResult:
    """Quadratic-form decomposition residuals and the Rayleigh/pair ordering.

    Per sample: a random channel (2..6 inputs/outputs), an interior
    simplex point, and a coefficient vector; checks the decomposition
    identity, the positivity of every square term, the channel-free
    split, the equal-rows special case, and that the Rayleigh supremum
    stays below the pair bound.  A block of k samples draws
    ``integers(2, 7, size=(k, 2))`` for the sizes (n, m), then the
    channel rows ``standard_exponential((k, 36))``, the interior laws of
    ``_interior_laws``, the coefficients ``normal(size=(k, 5))`` and the
    row shared by the equal-rows channel ``standard_exponential((k, 6))``.
    """
    failures = []
    worst = {"identity_residual": 0.0, "sum_residual": 0.0, "min_square": np.inf,
             "rayleigh_minus_eta": -np.inf}
    for start, stop, rng in trial_blocks(samples, seed):
        k = stop - start
        shapes = rng.integers(2, 7, size=(k, 2))
        # The largest draw has n = m = 6.
        chan_rows = rng.standard_exponential((k, 36))
        laws = _interior_laws(rng, shapes[:, 0])
        all_coeffs = rng.normal(size=(k, 5))
        flat_rows = rng.standard_exponential((k, 6))
        kinds, which = np.unique(shapes, axis=0, return_inverse=True)
        for g, (n, m) in enumerate(kinds):
            rows = np.flatnonzero(which.reshape(-1) == g)
            chan = _channels(_simplex_rows(chan_rows[rows, : n * m], m))
            p = _validated_rows(_simplex_rows(laws[rows, :n], n)[:, 0], "distribution")
            coeffs = all_coeffs[rows, : n - 1]
            flat = _channels(np.repeat(_simplex_rows(flat_rows[rows, :m], m), n, axis=1))
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
                        "sample": start + int(rows[j]),
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
