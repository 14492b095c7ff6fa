"""Batch kernels: row i of a stacked call equals the scalar call on item i,
bit for bit, and the pair scan and the decomposition residuals equal a
one-channel loop reference, bit for bit."""

from math import sqrt

import numpy as np
from hypothesis import given, settings, strategies as st

from sdpi import (
    Channel,
    Distribution,
    JointDistribution,
    contraction_bound,
    mutual_information,
    quadratic_decomposition_check,
    rayleigh_supremum,
)
from sdpi.contraction import (
    _entropy_hessians,
    _interior_probs,
    _pushforward_hessians,
    pair_bound_batch,
    quadratic_decomposition_batch,
    rayleigh_supremum_batch,
)
from sdpi.info import mutual_information_batch

# A stack: its seed, its length, and the alphabet sizes shared by its items.
stacks = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 6), st.integers(2, 6)
)
SETTINGS = settings(max_examples=60, deadline=None)


def _rows(rng, n, m):
    """n random rows of length m; some entries zero, some rows repeated
    (repeated rows tie in the pair scan)."""
    rows = rng.dirichlet(np.ones(m), size=n)
    rows[rng.random((n, m)) < 0.15] = 0.0
    rows[np.arange(n), rng.integers(0, m, size=n)] += 0.1
    if n > 2 and rng.random() < 0.4:
        rows[rng.integers(1, n)] = rows[0]
    return rows / rows.sum(axis=1, keepdims=True)


def _interior_law(rng, n):
    p = rng.dirichlet(np.ones(n)) + 1e-3
    return Distribution(p / p.sum())


@SETTINGS
@given(stacks, st.sampled_from(["nats", "bits"]))
def test_mutual_information_rows_match_scalar_calls(stack, base):
    seed, size, nx, ny = stack
    rng = np.random.default_rng(seed)
    joints = [JointDistribution(_rows(rng, nx, ny) * rng.dirichlet(np.ones(nx))[:, None])
              for _ in range(size)]
    got = mutual_information_batch(np.stack([j.table for j in joints]), base)
    assert got.shape == (size,)
    for i, j in enumerate(joints):
        assert got[i] == mutual_information(j, base)


@SETTINGS
@given(stacks)
def test_pair_bound_rows_match_scalar_calls(stack):
    seed, size, n, m = stack
    rng = np.random.default_rng(seed)
    channels = [Channel(_rows(rng, n, m)) for _ in range(size)]
    eta, witness = pair_bound_batch(np.stack([c.matrix for c in channels]))
    assert eta.shape == (size,) and witness.shape == (size, 2)
    for i, c in enumerate(channels):
        want = contraction_bound(c)
        assert eta[i] == want.eta
        assert tuple(witness[i]) == want.witness_pair


@SETTINGS
@given(stacks)
def test_rayleigh_and_decomposition_rows_match_scalar_calls(stack):
    seed, size, n, m = stack
    rng = np.random.default_rng(seed)
    channels = [Channel(_rows(rng, n, m)) for _ in range(size)]
    laws = [_interior_law(rng, n) for _ in range(size)]
    coeffs = rng.normal(size=(size, n - 1))
    matrices = np.stack([c.matrix for c in channels])
    probs = np.stack([p.probs for p in laws])
    sup = rayleigh_supremum_batch(matrices, probs)
    residuals = quadratic_decomposition_batch(matrices, probs, coeffs)
    for i, (c, p) in enumerate(zip(channels, laws)):
        assert sup[i] == rayleigh_supremum(c, p)
        report = quadratic_decomposition_check(c, p, coeffs[i])
        assert tuple(r[i] for r in residuals) == (
            report.identity_residual, report.min_square_term, report.sum_residual)


def test_batch_kernels_take_several_leading_axes():
    rng = np.random.default_rng(5)
    matrices = np.stack([Channel(_rows(rng, 3, 4)).matrix for _ in range(6)])
    probs = np.stack([_interior_law(rng, 3).probs for _ in range(6)])
    tables = probs[:, :, None] * matrices
    np.testing.assert_array_equal(
        mutual_information_batch(tables.reshape(2, 3, 3, 4)).reshape(-1),
        mutual_information_batch(tables))
    eta, witness = pair_bound_batch(matrices.reshape(3, 2, 3, 4))
    np.testing.assert_array_equal(eta.reshape(-1), pair_bound_batch(matrices)[0])
    assert witness.shape == (3, 2, 2)
    np.testing.assert_array_equal(
        rayleigh_supremum_batch(matrices.reshape(2, 3, 3, 4), probs.reshape(2, 3, 3)).reshape(-1),
        rayleigh_supremum_batch(matrices, probs))


def reference_pair_bound(matrix):
    """The pair scan on one channel, without batch axes."""
    s = np.sqrt(matrix)
    gram = s @ s.T
    n = len(matrix)
    upper = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), gram, np.inf)
    k, l = divmod(int(np.argmin(upper)), n)
    return float(min(max(1.0 - gram[k, l] ** 2, 0.0), 1.0)), (k, l)


def reference_residuals(c, p, coeffs):
    """The decomposition check on one channel, with the square terms in a
    dict and every sum taken one term at a time."""
    probs, n = p.probs, p.alphabet_size
    squares = {}
    for s in range(1, n):
        ps, cs = probs[s - 1], coeffs[s - 1]
        for t in range(s + 1, n):
            pt, ct = probs[t - 1], coeffs[t - 1]
            squares[(s, t)] = (sqrt(pt / ps) * cs - sqrt(ps / pt) * ct) ** 2
        pn = probs[-1]
        squares[(s, n)] = (cs * (sqrt(ps / pn) + sqrt(pn / ps))
                           + sqrt(ps / pn) * (float(coeffs.sum()) - cs)) ** 2
    q_g = -coeffs @ _entropy_hessians(_interior_probs(probs)) @ coeffs
    q_f = -coeffs @ _pushforward_hessians(c.matrix, _interior_probs(probs, c.matrix)) @ coeffs
    a = c.matrix
    col = probs @ a
    live = col > 0.0
    weighted = 0.0
    for (s, t), sq in squares.items():
        weighted += sq * float(np.sum(a[s - 1, live] * a[t - 1, live] / col[live]))
    return abs(q_g - q_f - weighted), min(squares.values()), abs(q_g - sum(squares.values()))


def test_pair_bound_equals_the_one_channel_reference():
    # Many channels, because squaring with np.square instead of pow moves
    # about one eta in a thousand by one ulp.
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        for m in range(2, 7):
            matrices = np.stack([Channel(_rows(rng, n, m)).matrix for _ in range(400)])
            eta, witness = pair_bound_batch(matrices)
            for i, matrix in enumerate(matrices):
                assert (eta[i], tuple(witness[i])) == reference_pair_bound(matrix)


def test_decomposition_equals_the_one_channel_reference():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n, m = rng.integers(2, 7, size=2)
        c, p = Channel(_rows(rng, n, m)), _interior_law(rng, n)
        coeffs = rng.normal(size=n - 1)
        report = quadratic_decomposition_check(c, p, coeffs)
        assert (report.identity_residual, report.min_square_term, report.sum_residual) == \
            reference_residuals(c, p, coeffs)
