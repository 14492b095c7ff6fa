"""Randomized checking of the library's bounds: the suites behind the
``verify`` CLI command.

Each randomized suite draws its cases in the blocks of
``info.trial_blocks``: block b covers samples [b * BLOCK, (b + 1) * BLOCK)
and draws from ``default_rng((seed, b))``, first every sample's alphabet
sizes in one ``integers`` call, then one fixed-width array per kind of
value, of which each sample uses the prefix its sizes need.  The samples
are evaluated a pass at a time, one stack per alphabet shape: a pass is
as many whole blocks as fit in ``info.DRAW_BYTES`` of draws, at least one.
Each suite checks an inequality or identity the library guarantees, and
reports pass/fail with counterexamples.  A failure here means a bug (or
a float-tolerance breach), never a sampling artifact.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

import numpy as np

from .errors import ValidationError, count
from .closed_form import LayerNoiseSpec, independent_layer_bound, relaxation_upper_bound
from .contraction import (
    contraction_bound,
    independent_layer_channel,
    pair_bound_batch,
    quadratic_decomposition_batch,
    rayleigh_supremum_batch,
)
from . import info
from .info import BLOCK, _validated_rows, mutual_information_batch, trial_blocks
from .memory import repetition_relaxation_time

RATIO_SLACK = 1e-9
RESIDUAL_TOL = 1e-9
SQUARE_TOL = -1e-12

# Ratios with I(X;Y) below this are undefined: ``sdpi_fuzz`` skips those
# chains.
DEGENERATE_MI = 1e-10


class SuiteResult(namedtuple("SuiteResult", "suite checks skipped failures worst")):
    __slots__ = ()

    def __new__(cls, suite: str, checks: int, skipped: int = 0, failures=(), worst=None):
        # Randomized suites find failures one shape group at a time.
        return super().__new__(cls, suite, checks, skipped,
                               sorted(failures, key=lambda f: f.get("sample", 0)),
                               {} if worst is None else worst)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return dict(self._asdict(), passed=self.passed)


def _simplex_rows(values: np.ndarray, size: int) -> np.ndarray:
    """Each sample's exponentials, in runs of ``size``, normalized to sum 1
    (flat Dirichlet rows): shape (samples, runs, size)."""
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


def _shape_groups(samples: int, seed: int, high: int, dims: int, widths: list[int], draw):
    """(sample indices, alphabet sizes, one array per width) of each
    alphabet shape of each pass over the samples.

    Block b of ``trial_blocks(samples, seed)`` draws its k samples' sizes
    as ``integers(2, high, size=(k, dims))``, then ``draw(rng, sizes,
    *arrays)`` fills one (k, width) array per entry of ``widths`` in
    place.  A pass takes as many whole blocks from the generator as fit in
    ``info.DRAW_BYTES`` (at least one), into arrays allocated once, and splits
    them by one integer key per sample; a group lists its samples in
    order.  The batch kernels give an item the same bits whatever stack
    surrounds it, so the pass size cannot change a result.
    """
    grid = (high,) * dims
    per_pass = max(1, info.DRAW_BYTES // (8 * (1 + sum(widths)) * BLOCK)) * BLOCK
    keys = np.empty(min(per_pass, samples), dtype=np.int64)
    arrays = [np.empty((len(keys), width)) for width in widths]
    blocks = trial_blocks(samples, seed)
    for first in range(0, samples, per_pass):
        for start, stop, rng in islice(blocks, per_pass // BLOCK):
            here = slice(start - first, stop - first)
            sizes = rng.integers(2, high, size=(stop - start, dims))
            keys[here] = np.ravel_multi_index(sizes.T, grid)
            draw(rng, sizes, *(a[here] for a in arrays))
        order = np.argsort(keys[: min(per_pass, samples - first)], kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            sizes = [int(n) for n in np.unravel_index(keys[rows[0]], grid)]
            yield first + rows, sizes, [a[rows] for a in arrays]


def _fuzz_draws(rng, sizes, values) -> None:
    rng.standard_exponential(out=values)


def sdpi_fuzz(samples: int = 10000, seed: int = 0) -> SuiteResult:
    """Random chains X -> Y -> Z: the MI ratio never exceeds the pair bound.

    A block of k samples draws ``integers(2, 5, size=(k, 3))`` for the
    alphabet sizes (nx, ny, nz), then ``standard_exponential((k, 36))``:
    row i holds p_X, the nx rows of X -> Y and the ny rows of Y -> Z in
    that order, each run normalized to sum 1 (36 entries for the largest
    shape, nx = ny = nz = 4).
    """
    failures = []
    skipped = 0
    worst_excess = -np.inf
    for ids, (nx, ny, nz), (values,) in _shape_groups(samples, seed, 5, 3, [36], _fuzz_draws):
        px, xy, yz, _ = np.split(values, np.cumsum([nx, nx * ny, ny * nz]), axis=1)
        px = _validated_rows(_simplex_rows(px, nx)[:, 0], "distribution")
        c_xy = _channels(_simplex_rows(xy, ny))
        c_yz = _channels(_simplex_rows(yz, nz))
        # The ratio is undefined, and set to -inf, where I(X;Y) is degenerate.
        i_xy = mutual_information_batch(_joints(px, c_xy))
        live = i_xy > DEGENERATE_MI
        i_xz = mutual_information_batch(_joints(px, _channels(c_xy @ c_yz)))
        ratio = np.where(live, i_xz / np.where(live, i_xy, 1.0), -np.inf)
        skipped += len(ids) - int(live.sum())
        eta, _ = pair_bound_batch(c_yz)
        excess = ratio - eta
        worst_excess = max(worst_excess, float(excess.max()))
        failures += [{"sample": int(ids[j]), "ratio": float(ratio[j]), "eta": float(eta[j]),
                      "px": px[j].tolist(), "channel_xy": c_xy[j].tolist(),
                      "channel_yz": c_yz[j].tolist()}
                     for j in np.flatnonzero(excess > RATIO_SLACK)]
    return SuiteResult(
        suite="sdpi-fuzz",
        checks=samples - skipped,
        skipped=skipped,
        failures=failures,
        worst={"max_ratio_minus_eta": float(worst_excess)},
    )


def _interior_laws(rng: np.random.Generator, sizes: np.ndarray, law: np.ndarray) -> None:
    """Fills ``law`` (k, 6) with ``standard_exponential`` draws whose row
    i, cut to its first sizes[i] entries and normalized, has every entry
    at least 1e-4; the rows that do not are redrawn together, in sample
    order, from the same generator until none remain."""
    used = np.arange(6) < sizes[:, None]
    rng.standard_exponential(out=law)
    while True:
        head = np.where(used, law, 0.0)
        head /= head.sum(axis=1, keepdims=True)
        low = np.flatnonzero(np.where(used, head, 1.0).min(axis=1) < 1e-4)
        if not low.size:
            return
        law[low] = rng.standard_exponential((low.size, 6))


def _identity_draws(rng, sizes, chan_rows, laws, coeffs, flat_rows) -> None:
    rng.standard_exponential(out=chan_rows)
    _interior_laws(rng, sizes[:, 0], laws)
    coeffs[:] = rng.normal(size=coeffs.shape)
    rng.standard_exponential(out=flat_rows)


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
    The largest draw has n = m = 6.
    """
    failures = []
    worst = {"identity_residual": 0.0, "sum_residual": 0.0, "min_square": np.inf,
             "rayleigh_minus_eta": -np.inf}
    groups = _shape_groups(samples, seed, 7, 2, [36, 6, 5, 6], _identity_draws)
    for ids, (n, m), (chan_rows, laws, all_coeffs, flat_rows) in groups:
        chan = _channels(_simplex_rows(chan_rows[:, : n * m], m))
        p = _validated_rows(_simplex_rows(laws[:, :n], n)[:, 0], "distribution")
        coeffs = all_coeffs[:, : n - 1]
        flat = _channels(np.repeat(_simplex_rows(flat_rows[:, :m], m), n, axis=1))
        # One call for both stacks; the square terms do not depend on the channel.
        (identity, flat_identity), min_square, sum_residual = quadratic_decomposition_batch(
            np.stack([chan, flat]), p, coeffs)
        sup = rayleigh_supremum_batch(chan, p)
        eta, _ = pair_bound_batch(chan)

        worst["identity_residual"] = max(worst["identity_residual"], identity.max())
        worst["sum_residual"] = max(worst["sum_residual"], sum_residual.max())
        worst["min_square"] = min(worst["min_square"], min_square.min())
        worst["rayleigh_minus_eta"] = max(worst["rayleigh_minus_eta"], (sup - eta).max())

        bad = ((identity > RESIDUAL_TOL) | (min_square < SQUARE_TOL) | (sum_residual > RESIDUAL_TOL)
               | (flat_identity > RESIDUAL_TOL) | (sup > eta + RATIO_SLACK))
        failures += [{"sample": int(ids[j]), "identity_residual": float(identity[j]),
                      "sum_residual": float(sum_residual[j]), "min_square": float(min_square[j]),
                      "rayleigh": float(sup[j]), "eta": float(eta[j]),
                      "channel": chan[j].tolist(), "p": p[j].tolist(), "coeffs": coeffs[j].tolist()}
                     for j in np.flatnonzero(bad)]
    worst = {k: float(v) for k, v in worst.items()}
    return SuiteResult(
        suite="appendix-identity",
        checks=samples,
        failures=failures,
        worst=worst,
    )


def _grid_result(
    suite: str, cases: list[dict], errors: list[float], limit: float, worst: str
) -> SuiteResult:
    """Result of a deterministic grid: case i fails when errors[i] exceeds
    ``limit``, and ``worst`` names the largest error."""
    failures = [case for case, error in zip(cases, errors) if error > limit]
    return SuiteResult(suite, len(cases), failures=failures, worst={worst: float(max(errors))})


def layer_equality(samples: int = 0, seed: int = 0) -> SuiteResult:
    """Pair scan of the materialized independent-noise layer channel equals
    the closed form 1 - (4 xi - 4 xi^2)^n.  Deterministic grid; the sample
    and seed arguments are accepted for interface uniformity."""
    cases = []
    for n in range(1, 9):
        for xi in (0.05, 0.15, 0.25, 0.35, 0.45):
            spec = LayerNoiseSpec(xi=xi, n=n)
            scanned = contraction_bound(independent_layer_channel(spec)).eta
            closed = independent_layer_bound(spec)
            cases.append({"xi": xi, "n": n, "scanned": scanned, "closed": closed})
    errors = [abs(case["scanned"] - case["closed"]) for case in cases]
    return _grid_result("layer-equality", cases, errors, RESIDUAL_TOL, "max_abs_error")


def memory_sandwich(samples: int = 0, seed: int = 0) -> SuiteResult:
    """Repetition-code relaxation time never exceeds the scheme-independent
    upper bound.  Deterministic grid over odd n, xi, delta."""
    cases = [
        {"n": n, "xi": xi, "delta": delta, "lower": repetition_relaxation_time(n, xi, delta).time,
         "upper": relaxation_upper_bound(n, xi, delta).time}
        for n in range(5, 26, 2)
        for xi in (0.1, 0.2, 0.3, 0.4)
        for delta in (0.3, 0.4)
    ]
    errors = [case["lower"] - case["upper"] for case in cases]
    return _grid_result("memory-sandwich", cases, errors, RATIO_SLACK, "max_lower_minus_upper")


SUITES = {
    "sdpi-fuzz": sdpi_fuzz,
    "appendix-identity": appendix_identity,
    "layer-equality": layer_equality,
    "memory-sandwich": memory_sandwich,
}


def run_suite(name: str, seed: int = 0, budget: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    samples = {} if budget is None else {"samples": count(budget, "budget")}
    return SUITES[name](seed=count(seed, "seed", 0, float_range=False), **samples)
