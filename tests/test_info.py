"""Core probability machinery: entropies, channels, composition."""

import math
import re

import numpy as np
import pytest

from sdpi import (
    Channel,
    Distribution,
    JointDistribution,
    LayerNoiseSpec,
    ThresholdNeuron,
    ValidationError,
    compose,
    entropy,
    independent_layer_channel,
    joint,
    layer_channel,
    load_channel,
    load_distribution,
    mutual_information,
)


def push_forward(d, c):
    """Output law of channel c on input law d: the Y marginal of the joint."""
    return Distribution(joint(d, c).table.sum(axis=0))


def flip_layer(xi, n):
    return independent_layer_channel(LayerNoiseSpec(xi=xi, n=n))


def copy_of(bit, width=2):
    """Threshold neuron that fires when input bit ``bit`` is 1."""
    return ThresholdNeuron(2.0 * np.eye(width)[bit], -1.0)


def negate_of(bit, width=2):
    """Threshold neuron that fires when input bit ``bit`` is 0."""
    return ThresholdNeuron(-2.0 * np.eye(width)[bit], 1.0)


def binary_entropy_bits(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestEntropy:
    def test_uniform_two_symbols_is_one_bit(self):
        assert entropy(Distribution.uniform(2), base="bits") == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_is_zero(self):
        assert entropy(Distribution((1.0, 0.0))) == 0.0
        assert entropy(Distribution(np.eye(5)[3]), base="bits") == 0.0

    def test_direct_sum_value(self):
        # Oracle: direct evaluation of -sum p log2 p.
        expected = -(0.4 * math.log2(0.4) + 0.6 * math.log2(0.6))
        assert entropy(Distribution((0.4, 0.6)), base="bits") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.970951, abs=1e-6)

    def test_base_conversion(self):
        d = Distribution((0.2, 0.3, 0.5))
        assert entropy(d, base="bits") == pytest.approx(entropy(d) / math.log(2), abs=1e-15)

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            v = rng.standard_exponential(n)
            h = entropy(Distribution(v / v.sum()))
            assert h <= math.log(n) + 1e-12

    def test_unknown_base_rejected(self):
        with pytest.raises(ValidationError):
            entropy(Distribution.uniform(2), base="dits")


class TestConstruction:
    def test_distribution_normalizes_small_drift(self):
        d = Distribution((0.5 + 4e-10, 0.5))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distribution_rejects_large_drift(self):
        with pytest.raises(ValidationError):
            Distribution((0.5, 0.4))

    def test_distribution_rejects_negative(self):
        with pytest.raises(ValidationError):
            Distribution((1.1, -0.1))

    def test_channel_row_error_names_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            Channel([[0.5, 0.5], [0.6, 0.3]])

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [0.5, 0.5], [0.2, -0.01], [0.5, 0.5]], r"has a negative entry \(-0\.01\)"),
        ([[0.5, 0.5], [0.5, 0.5], [np.nan, 1.0], [0.2, -0.01]], "contains non-finite entries"),
        ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.6], [np.inf, 0.0]], r"sums to 1\.1; expected 1 within 1e-09"),
    ], ids=["rows0", "rows1", "rows2"])
    def test_channel_error_names_first_bad_row(self, rows, message):
        # The whole stack is checked at once; a failure still names the
        # first bad row, with that row's own message.
        with pytest.raises(ValidationError, match=f"^channel row 2 {message}$"):
            Channel(rows)

    def test_rows_match_the_one_row_at_a_time_reference(self):
        # Each row is clipped at 0 and divided by its own sum, exactly as a
        # Distribution of that row would be; a joint table is one law.
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.standard_exponential(rng.integers(1, 30, size=2)) ** 3
            m /= m.sum(axis=1, keepdims=True)
            m += rng.normal(scale=1e-11, size=m.shape)
            want = [np.maximum(row, 0.0) / np.maximum(row, 0.0).sum() for row in m]
            np.testing.assert_array_equal(Channel(m).matrix, want)
            t = m / m.sum()
            flat = np.maximum(t, 0.0)
            np.testing.assert_array_equal(JointDistribution(t).table, flat / flat.sum())

    def test_channel_shapes(self):
        c = Channel([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        assert (c.n_inputs, c.m_outputs) == (3, 2)

    def test_probs_are_read_only(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestPushForward:
    def test_uniform_through_bsc_stays_uniform(self):
        out = push_forward(Distribution.uniform(2), Channel.bsc(0.1))
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)

    def test_identity_channel_is_noop(self):
        d = Distribution((0.3, 0.2, 0.5))
        np.testing.assert_allclose(push_forward(d, Channel(np.eye(3))).probs, d.probs, atol=1e-15)

    def test_point_mass_selects_row(self):
        out = push_forward(Distribution((1.0, 0.0)), Channel.bsc(0.2))
        np.testing.assert_allclose(out.probs, [0.8, 0.2], atol=1e-15)

    def test_preserves_total_probability(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m = rng.integers(2, 6, size=2)
            d = Distribution(rng.dirichlet(np.ones(n)))
            c = Channel(rng.dirichlet(np.ones(m), size=n))
            assert push_forward(d, c).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            push_forward(Distribution.uniform(3), Channel.bsc(0.1))


class TestJointAndMi:
    def test_joint_point_mass_is_one_row(self):
        j = joint(Distribution((1.0, 0.0)), Channel.bsc(0.2))
        np.testing.assert_allclose(j.table, [[0.8, 0.2], [0.0, 0.0]], atol=1e-15)

    def test_joint_uniform_identity_is_diagonal(self):
        j = joint(Distribution.uniform(2), Channel(np.eye(2)))
        np.testing.assert_allclose(j.table, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_joint_uniform_bsc(self):
        j = joint(Distribution.uniform(2), Channel.bsc(0.1))
        np.testing.assert_allclose(j.table, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)

    def test_mi_independent_is_zero(self):
        rng = np.random.default_rng(3)
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(4))
        assert mutual_information(JointDistribution(np.outer(px, py))) == pytest.approx(0.0, abs=1e-12)

    def test_mi_perfect_copy_is_one_bit(self):
        j = joint(Distribution.uniform(2), Channel(np.eye(2)))
        assert mutual_information(j, base="bits") == pytest.approx(1.0, abs=1e-12)

    def test_mi_bsc_value(self):
        # Oracle: 1 - h2(0.1), h2 evaluated directly.
        j = joint(Distribution.uniform(2), Channel.bsc(0.1))
        expected = 1.0 - binary_entropy_bits(0.1)
        assert mutual_information(j, base="bits") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.531004, abs=1e-6)

    def test_mi_near_independence_keeps_relative_accuracy(self):
        # Oracle: for bsc((1 - x)/2) on a uniform input, I = x^2/2 + x^4/12 + ...
        # nats.  H(X) + H(Y) - H(X,Y) loses values this small to cancellation.
        for x in (1e-4, 1e-6, 1e-7):
            j = joint(Distribution.uniform(2), Channel.bsc((1.0 - x) / 2.0))
            assert mutual_information(j) == pytest.approx(x**2 / 2 + x**4 / 12, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("xi", [1e-17, 1e-20, 1e-250])
    def test_mi_of_a_nearly_noiseless_channel_is_finite(self, xi):
        # A cell at xi of its column law 1/2 has ratio 2 xi, and ratio - 1
        # rounds to -1 below 2^-54: log1p gave -inf there, and so did the
        # information.  Oracle: log 2 - h(xi), h(xi) < 1e-15 nats here.
        j = joint(Distribution.uniform(2), Channel.bsc(xi))
        assert mutual_information(j) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_mi_symmetric_under_transpose(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = rng.standard_exponential((3, 5))
            j = JointDistribution(t / t.sum())
            jt = JointDistribution(j.table.T)
            assert mutual_information(j) == pytest.approx(mutual_information(jt), abs=1e-12)

    def test_data_processing_never_gains(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            nx, ny, nz = rng.integers(2, 5, size=3)
            px = Distribution(rng.dirichlet(np.ones(nx)))
            c_xy = Channel(rng.dirichlet(np.ones(ny), size=nx))
            c_yz = Channel(rng.dirichlet(np.ones(nz), size=ny))
            i_xy = mutual_information(joint(px, c_xy))
            i_xz = mutual_information(joint(px, compose(c_xy, c_yz)))
            assert i_xz <= i_xy + 1e-12


class TestComposeTensor:
    def test_compose_identity_is_noop(self):
        c = Channel([[0.2, 0.8], [0.7, 0.3]])
        np.testing.assert_allclose(compose(Channel(np.eye(2)), c).matrix, c.matrix, atol=1e-15)

    def test_compose_bsc_algebra(self):
        for p, q in [(0.1, 0.2), (0.05, 0.4), (0.3, 0.3)]:
            got = compose(Channel.bsc(p), Channel.bsc(q)).matrix
            np.testing.assert_allclose(got, Channel.bsc(p + q - 2 * p * q).matrix, atol=1e-12)

    def test_compose_into_constant_rows_absorbs(self):
        flat = Channel([[0.3, 0.7], [0.3, 0.7]])
        got = compose(Channel.bsc(0.2), flat)
        np.testing.assert_allclose(got.matrix, flat.matrix, atol=1e-15)

    def test_compose_associative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = Channel(rng.dirichlet(np.ones(3), size=2))
            b = Channel(rng.dirichlet(np.ones(4), size=3))
            c = Channel(rng.dirichlet(np.ones(2), size=4))
            left = compose(compose(a, b), c).matrix
            right = compose(a, compose(b, c)).matrix
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            compose(Channel.bsc(0.1), Channel(np.eye(3)))

    # A layer of n independent flips is the n-fold tensor power of bsc(xi).
    def test_tensor_identities(self):
        np.testing.assert_allclose(flip_layer(0.0, 2).matrix, np.eye(4), atol=1e-15)

    def test_tensor_bsc_independence(self):
        got = flip_layer(0.1, 2)
        assert got.matrix[0, 3] == pytest.approx(0.01, abs=1e-15)
        assert got.matrix[0, 0] == pytest.approx(0.81, abs=1e-15)

    def test_tensor_stay_probability(self):
        assert flip_layer(0.1, 4).matrix[0, 0] == pytest.approx(0.9**4, abs=1e-12)

    def test_tensor_first_factor_is_low_bit(self):
        # Neuron i of a layer is bit i of its output state.
        got = layer_channel((negate_of(0), copy_of(1)), xi=0.0)
        # input state 0 = (bit0=0, bit1=0) -> bit0 flips -> state 1
        assert got.matrix[0, 1] == 1.0
        got = layer_channel((copy_of(0), negate_of(1)), xi=0.0)
        # now the flip acts on bit1 -> state 2
        assert got.matrix[0, 2] == 1.0


class TestStateIndexing:
    # Bit i of a state is binary digit i of its index (neuron i of a layer).
    def test_round_trip(self):
        copier = tuple(copy_of(i, 4) for i in range(4))
        np.testing.assert_array_equal(layer_channel(copier, xi=0.0).matrix, np.eye(16))

    def test_little_endian(self):
        reads_bit_0 = layer_channel((copy_of(0, 3),), xi=0.0).matrix
        assert reads_bit_0[1, 1] == 1.0  # state 1 = bits (1, 0, 0)
        assert reads_bit_0[4, 0] == 1.0  # state 4 = bits (0, 0, 1)


class TestLoaders:
    def test_json_channel_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"rows": [[0.9, 0.1], [0.1, 0.9]]}')
        np.testing.assert_allclose(load_channel(path).matrix, Channel.bsc(0.1).matrix, atol=1e-15)

    def test_csv_channel(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0.9,0.1\n0.1,0.9\n")
        np.testing.assert_allclose(load_channel(path).matrix, Channel.bsc(0.1).matrix, atol=1e-15)

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.9,0.1\n0.5,0.4\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_channel(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.9,0.1\n1.0\n")
        with pytest.raises(ValidationError):
            load_channel(path)

    @pytest.mark.parametrize("loader,text,message", [
        (load_channel, '{"rows": [[{"a": 1}, 0.5]]}', "channel entries must be numbers"),
        (load_distribution, '{"probs": [{"a": 1}, 0.5]}', "distribution entries must be numbers"),
        (load_distribution, '{"probs": [[0.5], [0.2, 0.3]]}', "rows have inconsistent lengths"),
        (load_distribution, '{"probs": ["abc", 0.5]}', "distribution entries must be numbers"),
        (load_channel, '{"rows": [[0.5, 0.5], [1.0]]}', "rows have inconsistent lengths"),
    ], ids=["channel-object", "distribution-object", "distribution-ragged", "distribution-text",
            "channel-ragged"])
    def test_non_numeric_json_names_the_file(self, tmp_path, loader, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}$"):
            loader(path)

    @pytest.mark.parametrize("loader,text,kind", [
        (load_distribution, '{"probs": ["0.5", "0.5"]}', "distribution"),
        (load_distribution, '{"probs": [null, 0.5]}', "distribution"),
        (load_distribution, '{"probs": [true, false]}', "distribution"),
        (load_channel, '{"rows": [["0.5", "0.5"], ["0.5", "0.5"]]}', "channel"),
        (load_channel, '{"rows": [[0.5, 0.5], [null, 1.0]]}', "channel"),
    ], ids=["numeric-text", "null", "booleans", "channel-numeric-text", "channel-null"])
    def test_text_and_null_entries_are_not_numbers(self, tmp_path, loader, text, kind):
        path = tmp_path / "bad.json"
        path.write_text(text)
        refusal = f"^{re.escape(str(path))}: {kind} entries must be numbers$"
        with pytest.raises(ValidationError, match=refusal):
            loader(path)

    def test_json_distribution(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"probs": [0.25, 0.75]}')
        np.testing.assert_allclose(load_distribution(path).probs, [0.25, 0.75], atol=1e-15)

    def test_csv_distribution_single_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.25,0.75\n")
        np.testing.assert_allclose(load_distribution(path).probs, [0.25, 0.75], atol=1e-15)
        path.write_text("0.25,0.75\n0.5,0.5\n")
        with pytest.raises(ValidationError):
            load_distribution(path)
