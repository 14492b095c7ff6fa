"""Exact probability machinery for finite alphabets.

Distributions are row vectors and channels are row-stochastic matrices
acting on the right: the output law of a channel with matrix A on input
law p is ``p @ A``.  All computations are done in nats internally; bits
are a presentation choice.

State indexing for bit-string alphabets is little-endian throughout the
package: bit ``i`` of a state is binary digit ``i`` of its integer index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ValidationError, count, interval

# Entries below this are treated as exact zeros inside logarithms
# (0 * log 0 = 0 convention).
LOG_ZERO_CUTOFF = 1e-15

# Constructors renormalize vectors whose sum is within this of 1 and
# reject anything further off; tolerates text round-trips without
# masking malformed input.
NORMALIZE_TOLERANCE = 1e-9

# Monte Carlo trials per RNG stream (see ``trial_blocks``).
BLOCK = 1024

# The most bytes one computation may hold, checked by ``check_bytes`` before
# it allocates: 512 MiB, a 2^12 x 2^14 or 2^13 x 2^13 float matrix.
MAX_LAYER_BYTES = 1 << 29

# Bytes of draws a streaming loop holds at once, read at call time: 4 MiB.
DRAW_BYTES = 1 << 22

_LN2 = float(np.log(2.0))

LogBase = Literal["nats", "bits"]


def _as_base(value_nats: float, base: LogBase) -> float:
    if base == "nats":
        return value_nats
    if base == "bits":
        return value_nats / _LN2
    raise ValidationError(f"unknown log base {base!r}; expected 'nats' or 'bits'")


def _validated_rows(values: np.ndarray, what: str) -> np.ndarray:
    """Each row of a non-empty 2-d array clipped at 0 and rescaled to sum 1.

    A row must be finite, with no entry below -NORMALIZE_TOLERANCE and a
    sum within NORMALIZE_TOLERANCE of 1; the error names the first row
    that is not (``what`` formatted with its index).  The whole array is
    checked at once; only a failure is traced back to its first row.
    """
    rows = np.maximum(values, 0.0)
    total = rows.sum(axis=1)
    off = np.abs(total - 1.0)
    if not (np.isfinite(values).all() and values.min() >= -NORMALIZE_TOLERANCE
            and off.max() <= NORMALIZE_TOLERANCE):
        finite = np.isfinite(values).all(axis=1)
        low = values.min(axis=1)
        i = int(np.argmax(~finite | (low < -NORMALIZE_TOLERANCE) | (off > NORMALIZE_TOLERANCE)))
        what = what.format(i)
        if not finite[i]:
            raise ValidationError(f"{what} contains non-finite entries")
        if low[i] < -NORMALIZE_TOLERANCE:
            raise ValidationError(f"{what} has a negative entry ({low[i]:.9g})")
        raise ValidationError(
            f"{what} sums to {total[i]:.9g}; expected 1 within {NORMALIZE_TOLERANCE:g}"
        )
    rows /= total[:, None]
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.probs, dtype=float).reshape(1, -1)
        count(v.size, "distribution entry count")
        object.__setattr__(self, "probs", _validated_rows(v, "distribution")[0])

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(n: int) -> "Distribution":
        n = count(n, "alphabet size")
        return Distribution(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix; row i is the output law given input i."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("channel matrix must be a non-empty 2-d array")
        object.__setattr__(self, "matrix", _validated_rows(m, "channel row {}"))

    @property
    def n_inputs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def m_outputs(self) -> int:
        return int(self.matrix.shape[1])

    @staticmethod
    def bsc(p: float) -> "Channel":
        """Binary symmetric channel flipping a bit with probability p."""
        p = interval(p, "flip probability", "[0, 1]")
        return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def check_bytes(need: int, what: str) -> None:
    """Refuse ``what``, which needs ``need`` bytes, over ``MAX_LAYER_BYTES``."""
    if need > MAX_LAYER_BYTES:
        raise ValidationError(f"{what} needs {need} bytes, above the cap of "
                              f"{MAX_LAYER_BYTES} bytes ({MAX_LAYER_BYTES >> 20} MiB)")


def flip_bits(m: np.ndarray, xi: float) -> np.ndarray:
    """m (rows x 2^width) times bsc(xi)^(tensor width), the noise of a layer
    of independent bit flips: one butterfly (1 - xi) v + xi v[flipped] per
    bit, written alternately into m (overwritten) and one spare of its size.
    """
    m = np.ascontiguousarray(m, dtype=float)
    spare = np.empty_like(m)
    for k in range(m.shape[1].bit_length() - 1):
        v = m.reshape(len(m), -1, 2, 1 << k)
        out = spare.reshape(v.shape)
        np.multiply(v, 1.0 - xi, out=out)
        v *= xi
        out += v[:, :, ::-1, :]
        m, spare = spare, m
    return m


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint law p(x, y) of two finite random variables, as a table."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2 or t.size == 0:
            raise ValidationError("joint table must be a non-empty 2-d array")
        # The whole table is one law, so it is validated as one row.
        table = _validated_rows(t.reshape(1, -1), "joint table").reshape(t.shape)
        object.__setattr__(self, "table", table)


def _entropy_nats(values: np.ndarray) -> float:
    nz = values[values > LOG_ZERO_CUTOFF]
    return float(-np.sum(nz * np.log(nz)))


def entropy(d: Distribution, base: LogBase = "nats") -> float:
    """Shannon entropy -sum p_i log p_i with the 0 log 0 = 0 convention."""
    return _as_base(_entropy_nats(d.probs), base)


def joint(d: Distribution, c: Channel) -> JointDistribution:
    """Joint law p(x, y) = d(x) * c(y | x)."""
    if d.alphabet_size != c.n_inputs:
        raise ValidationError(
            f"distribution size {d.alphabet_size} does not match channel inputs {c.n_inputs}"
        )
    return JointDistribution(d.probs[:, None] * c.matrix)


def mutual_information(j: JointDistribution, base: LogBase = "nats") -> float:
    """I(X;Y) of a joint law; see ``mutual_information_batch``."""
    return float(mutual_information_batch(j.table, base))


def mutual_information_batch(tables: np.ndarray, base: LogBase = "nats") -> np.ndarray:
    """I(X;Y) of each joint table in a (..., nx, ny) stack of valid joint laws.

    I(X;Y) = sum_xy p(x) p(y) phi(d), d = p(x,y) / (p(x) p(y)) - 1, and
    phi(d) = (1 + d) log1p(d) - d is non-negative, and 1 on zero cells,
    so every term is >= 0 and a tiny I(X;Y) is not lost to cancellation
    as it is in H(X) + H(Y) - H(X,Y).  Each table's value is the same,
    bit for bit, whatever the stack around it.
    """
    t = np.asarray(tables, dtype=float)
    if t.ndim < 2:
        raise ValidationError("joint tables must have at least 2 dimensions")
    px, py = t.sum(axis=-1), t.sum(axis=-2)
    # Empty rows have zero weight; dividing them by 1 keeps them finite.
    return _as_base(phi_information(t / np.where(px > 0.0, px, 1.0)[..., :, None], px, py), base)


def phi_information(rows: np.ndarray, px: np.ndarray | None, py: np.ndarray) -> np.ndarray:
    """sum_xy p(x) p(y) phi(d) of ``mutual_information_batch`` over the last
    two axes of ``rows``, a (..., nx, ny) stack of p(y | x) that is
    overwritten; with px None, each row's sum over y, D(p(. | x) || py), its
    own reduction, so a row gives the same bits in any block of rows."""
    # Empty columns have zero weight; phi is 1 on zero cells (nan here) and below 2^-54 of py (-inf).
    rows /= np.where(py > 0.0, py, 1.0)[..., None, :]
    phi = np.subtract(rows, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(phi, out=phi)
        phi *= rows
    rows -= 1.0
    phi -= rows
    phi[~np.isfinite(phi)] = 1.0
    if px is None:  # not phi @ py, whose BLAS sums depend on the row count
        return np.multiply(phi, py[..., None, :], out=phi).sum(axis=-1)
    return (px[..., None, :] @ phi @ py[..., :, None])[..., 0, 0]


def compose(c1: Channel, c2: Channel) -> Channel:
    """Channel of the two-step chain: first c1, then c2."""
    if c1.m_outputs != c2.n_inputs:
        raise ValidationError(
            f"cannot compose: first channel has {c1.m_outputs} outputs, "
            f"second expects {c2.n_inputs} inputs"
        )
    return Channel(c1.matrix @ c2.matrix)


def trial_blocks(total: int, seed: int):
    """(start, stop, rng) per block: block b covers trials [b*BLOCK,
    (b+1)*BLOCK) and draws from ``np.random.default_rng((seed, b))``, so a
    Monte Carlo result depends only on the seed and the trial count, not on
    evaluation order or on how a caller splits a block."""
    seed = count(seed, "seed", minimum=0, float_range=False)
    return ((start, min(start + BLOCK, total), np.random.default_rng((seed, start // BLOCK)))
            for start in range(0, total, BLOCK))


def load_channel(path) -> Channel:
    """Read a channel file: JSON ``{"rows": [[...], ...]}`` or CSV, one row per line."""
    rows, _ = _read_data(path, "rows", "channel")
    matrix = _float_array(path, rows, "channel")
    if matrix.ndim != 2:
        raise ValidationError(f"{path}: rows have inconsistent lengths")
    return Channel(matrix)


def load_distribution(path) -> Distribution:
    """Read a distribution file: JSON ``{"probs": [...]}`` or a single CSV line."""
    probs, from_csv = _read_data(path, "probs", "distribution")
    if from_csv:
        if len(probs) != 1:
            raise ValidationError(f"{path}: expected a single CSV line, found {len(probs)}")
        probs = probs[0]
    return Distribution(_float_array(path, probs, "distribution"))


def _float_array(path, values, kind: str) -> np.ndarray:
    """``values`` read from ``path`` as a float array, or a ``ValidationError``
    if they are ragged or hold anything but numbers (text, null, objects)."""
    try:
        array = np.array(values)
    except ValueError:
        raise ValidationError(f"{path}: rows have inconsistent lengths") from None
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{path}: {kind} entries must be numbers")
    return array.astype(float)


def _read_data(path, key: str, kind: str) -> tuple[object, bool]:
    """(the ``key`` entry, False) of a file holding a JSON object, or (its
    rows of comma-separated decimals, True) of any other file; blank lines
    and ``#`` comments are skipped."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict) or key not in data:
            raise ValidationError(f'{path}: JSON {kind} must be an object with a "{key}" key')
        return data[key], False
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ValidationError(f"{path}: line {lineno} is not comma-separated decimals") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows found")
    return rows, True
