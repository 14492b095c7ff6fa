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
    quadratic_decomposition_check,
    rayleigh_supremum,
)
from .info import Channel, Distribution, compose, joint, mutual_information
from .memory import relaxation_upper_bound, repetition_relaxation_time

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
    """Random chains X -> Y -> Z: the MI ratio never exceeds the pair bound."""
    failures = []
    skipped = 0
    worst_excess = -np.inf
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
        excess = ratio - eta
        worst_excess = max(worst_excess, excess)
        if excess > RATIO_SLACK:
            failures.append(
                {
                    "sample": int(i),
                    "ratio": ratio,
                    "eta": eta,
                    "px": px.probs.tolist(),
                    "channel_xy": c_xy.matrix.tolist(),
                    "channel_yz": c_yz.matrix.tolist(),
                }
            )
    return SuiteResult(
        suite="sdpi-fuzz",
        passed=not failures,
        checks=samples - skipped,
        skipped=skipped,
        failures=failures,
        worst={"max_ratio_minus_eta": float(worst_excess)},
    )


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
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        chan = Channel(np.vstack([_simplex_point(rng, m) for _ in range(n)]))
        p = Distribution(_simplex_point(rng, n, min_entry=1e-4))
        coeffs = rng.normal(size=n - 1)
        report = quadratic_decomposition_check(chan, p, coeffs)

        flat = Channel(np.tile(_simplex_point(rng, m), (n, 1)))
        flat_report = quadratic_decomposition_check(flat, p, coeffs)

        sup = rayleigh_supremum(chan, p)
        eta = contraction_bound(chan).eta

        worst["identity_residual"] = max(worst["identity_residual"], report.identity_residual)
        worst["sum_residual"] = max(
            worst["sum_residual"], report.sum_residual, flat_report.sum_residual
        )
        worst["min_square"] = min(worst["min_square"], report.min_square_term)
        worst["rayleigh_minus_eta"] = max(worst["rayleigh_minus_eta"], sup - eta)

        bad = (
            report.identity_residual > RESIDUAL_TOL
            or report.min_square_term < SQUARE_TOL
            or report.sum_residual > RESIDUAL_TOL
            or flat_report.identity_residual > RESIDUAL_TOL
            or flat_report.sum_residual > RESIDUAL_TOL
            or sup > eta + RATIO_SLACK
        )
        if bad:
            failures.append(
                {
                    "sample": int(i),
                    "identity_residual": report.identity_residual,
                    "sum_residual": report.sum_residual,
                    "min_square": report.min_square_term,
                    "rayleigh": sup,
                    "eta": eta,
                    "channel": chan.matrix.tolist(),
                    "p": p.probs.tolist(),
                    "coeffs": coeffs.tolist(),
                }
            )
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
    return SUITES[name](samples, seed)
