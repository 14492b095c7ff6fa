"""Noisy threshold networks: exact information, decay bounds, size bounds."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdpi.network
from noise_oracles import hamming_channel, independent_weights, propagate_all_rows, sampled_divergences
from sdpi import (
    AmGmBound,
    Channel,
    DepthTradeoff,
    Distribution,
    InfeasibleError,
    LayerNoiseSpec,
    NoisyNetwork,
    RelaxationBound,
    SizeBoundResult,
    ThresholdNeuron,
    ValidationError,
    amgm_product_bound,
    delta_capacity,
    entropy,
    exact_io_mutual_information,
    information_decay_bound,
    joint,
    layer_channel,
    load_network,
    min_neurons_lower_bound,
    monte_carlo_io_mi,
    mutual_information,
    network_channel,
    optimal_depth_tradeoff,
    parity_size_complexity,
    random_network,
)


def copier_layer(width):
    """Layer whose neuron i forwards input bit i unchanged."""
    return tuple(
        ThresholdNeuron(weights=np.eye(width)[i] * 2 - np.zeros(width), bias=-1.0)
        for i in range(width)
    )


@st.composite
def networks(draw):
    """1-3-layer networks whose layers are drawn real, integer (so that
    pre-activations tie at 0), copier (injective as a first layer) or
    constant, with xi = 0 among the noise levels."""
    input_width = fan_in = draw(st.integers(1, 6))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["real", "integer", "copier", "constant"]))
        if kind == "copier":
            layers.append(copier_layer(fan_in))
            continue
        layer = []
        for _ in range(draw(st.integers(1, 5))):
            if kind == "real":
                w = draw(st.lists(st.floats(-1.0, 1.0), min_size=fan_in, max_size=fan_in))
                b = draw(st.floats(-fan_in / 2.0, fan_in / 2.0))
            elif kind == "integer":
                w = draw(st.lists(st.integers(-2, 2), min_size=fan_in, max_size=fan_in))
                b = draw(st.integers(-2, 2))
            else:
                w, b = [0.0] * fan_in, draw(st.sampled_from([-1.0, 0.0]))
            layer.append(ThresholdNeuron(w, b))
        layers.append(tuple(layer))
        fan_in = len(layer)
    xi = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.49)))
    return NoisyNetwork(tuple(layers), xi, input_width)


def neuron_fire(neuron, x):
    """Pre-noise output sgn(w . x + bias), with sgn(0) = 1."""
    return 1 if float(neuron.weights @ np.asarray(x, dtype=float)) + neuron.bias >= 0.0 else 0


def block_bytes(net):
    """What exact information may hold on a network of widths up to 16: a
    block of rows with its ``flip_bits`` spare (``info.DRAW_BYTES``), an
    eighth more for the nan mask of ``phi_information``, the law row, its
    spare and the first-layer mass at the widest layer, and firing, 16 bytes
    an input state; 64 KiB is margin."""
    return (1.125 * sdpi.info.DRAW_BYTES + 3 * (8 << max(net.widths))
            + (16 << net.input_width) + (64 << 10))


def input_law(net, dirichlet):
    """None (the uniform default) or a Dirichlet(1) law over the input states."""
    if not dirichlet:
        return None
    return Distribution(np.random.default_rng(net.input_width).dirichlet(np.ones(1 << net.input_width)))


class TestNeuronFire:
    # Noiseless one-neuron layers: row s of the channel is the point mass
    # on the neuron's output for input state s (little-endian bits).
    def test_and_gate(self):
        gate = ThresholdNeuron(weights=[1.0, 1.0], bias=-1.5)
        fired = layer_channel((gate,), xi=0.0).matrix.argmax(axis=1)
        np.testing.assert_array_equal(fired, [0, 0, 0, 1])

    def test_zero_activation_fires(self):
        gate = ThresholdNeuron(weights=[1.0, 1.0], bias=0.0)
        assert layer_channel((gate,), xi=0.0).matrix[0, 1] == 1.0

    def test_dimension_mismatch(self):
        mixed = (ThresholdNeuron(weights=[1.0], bias=0.0), ThresholdNeuron([1.0, 1.0], 0.0))
        with pytest.raises(ValidationError, match="simply layered"):
            layer_channel(mixed, xi=0.0)

    @pytest.mark.parametrize("layer, xi, refusal", [
        ((ThresholdNeuron([1.0], 0.0),), 0.5, r"^flip probability must be in \[0, 0\.5\), got 0\.5$"),
        ((), 0.1, "^network needs at least one non-empty layer$"),
    ], ids=["noise", "empty"])
    def test_a_layer_is_checked_as_a_one_layer_network(self, layer, xi, refusal):
        with pytest.raises(ValidationError, match=refusal):
            layer_channel(layer, xi)


class TestLayerChannel:
    def test_noiseless_layer_is_deterministic(self):
        chan = layer_channel(copier_layer(2), xi=0.0)
        np.testing.assert_allclose(chan.matrix, np.eye(4), atol=1e-15)

    def test_single_copier_with_noise_is_bsc(self):
        layer = (ThresholdNeuron(weights=[1.0], bias=-0.5),)
        chan = layer_channel(layer, xi=0.15)
        np.testing.assert_allclose(chan.matrix, Channel.bsc(0.15).matrix, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            net = random_network(3, [int(rng.integers(1, 5))], xi=0.2, seed=int(rng.integers(1e6)))
            sums = layer_channel(net.layers[0], 0.2).matrix.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_width_cap(self):
        # A 14-input layer needs a 2^14 x 2^14 matrix, 2 GiB: refused before
        # any of it is allocated.
        layer = copier_layer(14)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^a 2\^14 x 2\^14 layer matrix needs 2147483648 bytes"):
                layer_channel(layer, xi=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_network_channel_matches_dense_composition(self):
        # Threshold map as a 0/1 matrix, then the materialized 2^w x 2^w noise channel.
        rng = np.random.default_rng(22)
        for _ in range(20):
            widths = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
            xi = float(rng.uniform(0.0, 0.49))
            net = random_network(int(rng.integers(1, 6)), widths, xi, seed=int(rng.integers(1e6)))
            dense = np.eye(1 << net.input_width)
            fan_in = net.input_width
            for layer in net.layers:
                fired = [
                    sum(neuron_fire(n, (s >> np.arange(fan_in)) & 1) << i for i, n in enumerate(layer))
                    for s in range(1 << fan_in)
                ]
                noise = hamming_channel(independent_weights(xi, len(layer)))
                dense = dense @ noise[fired]
                fan_in = len(layer)
            np.testing.assert_allclose(network_channel(net).matrix, dense, rtol=0.0, atol=1e-12)


class TestNetworkValidation:
    def test_simply_layered_enforced(self):
        good = NoisyNetwork(
            layers=(copier_layer(2), copier_layer(2)), xi=0.1, input_width=2
        )
        assert good.widths == (2, 2)
        with pytest.raises(ValidationError, match="simply layered"):
            NoisyNetwork(layers=(copier_layer(2), copier_layer(3)), xi=0.1, input_width=2)

    def test_noise_range(self):
        with pytest.raises(ValidationError):
            NoisyNetwork(layers=(copier_layer(2),), xi=0.5, input_width=2)

    def test_noise_level_is_kept_as_the_float_it_was_checked_as(self):
        net = NoisyNetwork(layers=(copier_layer(1),), xi=np.float32(0.25), input_width=1)
        assert type(net.xi) is float and net.xi == 0.25

    @pytest.mark.parametrize("field, value", [
        ("xi", "0.25"), ("xi", None), ("bias", "-1"), ("bias", True), ("bias", [0]),
        ("weights", ["1.0"]), ("weights", [None]), ("weights", [False]), ("input_width", True),
    ])
    def test_file_entries_must_be_numbers(self, tmp_path, field, value):
        # A file's "xi": "0.25" used to load as a number, as channel and
        # distribution files no longer do, and "input_width": true as 1.
        doc = {"xi": 0.25, "input_width": 1, "layers": [{"neurons": [{"weights": [1.0], "bias": 0}]}]}
        target = doc if field in ("xi", "input_width") else doc["layers"][0]["neurons"][0]
        target[field] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: network entries must be numbers$"):
            load_network(path)

    def test_json_round_trip(self, tmp_path):
        net = random_network(3, [4, 2], xi=0.25, seed=9)
        path = tmp_path / "net.json"
        layers = [
            {"neurons": [{"weights": n.weights.tolist(), "bias": n.bias} for n in layer]}
            for layer in net.layers
        ]
        doc = {"xi": net.xi, "input_width": net.input_width, "layers": layers}
        path.write_text(json.dumps(doc))
        loaded = load_network(path)
        assert loaded.xi == net.xi
        assert loaded.widths == net.widths
        np.testing.assert_allclose(
            network_channel(loaded).matrix, network_channel(net).matrix, atol=1e-15
        )

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"xi": 0.1}')
        with pytest.raises(ValidationError):
            load_network(path)

    def test_malformed_entry_is_not_called_missing(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"xi": 0.1, "input_width": 1, "layers": [
            {"neurons": [{"weights": [1.0], "bias": 10**400}]}]}))
        malformed = f"^{re.escape(str(path))}: malformed network description: "
        with pytest.raises(ValidationError, match=malformed + "int too large to convert to float$"):
            load_network(path)
        path.write_text(json.dumps({"xi": 0.1, "input_width": 1, "layers": [
            {"neurons": [{"weights": [1.0]}]}]}))
        with pytest.raises(ValidationError, match=malformed + "missing 'bias'$"):
            load_network(path)

    @pytest.mark.parametrize("doc, field", [
        ([], "network description must be an object with 'layers'"),
        ({"layers": ["abc"]}, "layers[0] must be an object with 'neurons'"),
        ({"layers": [{"neurons": {}}]}, "layers[0].neurons must be a list"),
        ({"layers": [{"neurons": [{"weights": 1.0, "bias": 0}]}]}, "layers[0].neurons[0].weights must be a list"),
    ])
    def test_malformed_structure_names_the_first_bad_entry(self, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {field}')}$"):
            load_network(path)


class TestExactMutualInformation:
    def test_input_law_is_checked_before_propagating(self, monkeypatch):
        def refuse(layer, states=None):
            raise AssertionError("network fired before its input law was checked")

        monkeypatch.setattr(sdpi.network, "_fired", refuse)
        for estimate in (exact_io_mutual_information, monte_carlo_io_mi):
            with pytest.raises(ValidationError, match="^input law has 4 states, network expects 8$"):
                estimate(random_network(3, [2], xi=0.1), Distribution.uniform(4))

    def test_every_layer_is_capped_before_any_is_propagated(self):
        # On its two rows, the law's and one state's, the first layer fits
        # (2^1 x 2^12 floats, 64 KiB); the second, 2^1 x 2^27, does not, and
        # nothing is allocated before it is refused.
        net = random_network(12, [12, 27], xi=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^a 2\^1 x 2\^27 layer matrix"):
                exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("estimate, refusal", [
        (exact_io_mutual_information, r"^firing the 2\^27 input states needs 2147483648 bytes"),
        (lambda net: monte_carlo_io_mi(net, trials=10), None),
    ], ids=["exact", "monte-carlo"])
    def test_byte_cap_is_checked_before_the_input_law_is_built(self, estimate, refusal):
        # The default uniform law on 2^27 input states alone is 1 GiB.  Exact
        # firing of every input state, 16 bytes each, is refused first; Monte
        # Carlo never builds the law (it draws the input state from its
        # uniform) and runs in under 1 MiB.
        net = random_network(27, [1], xi=0.1)
        tracemalloc.start()
        try:
            if refusal is None:
                estimate(net)
            else:
                with pytest.raises(ValidationError, match=refusal):
                    estimate(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("input_width, widths, want", [(16, [12, 2], 0.04085604255),
                                                           (20, [12, 12], 0.0004925677109)])
    def test_networks_whose_distinct_rows_fit_are_answered(self, input_width, widths, want):
        # The cap counts the 2^12 distinct first-layer rows each layer
        # propagates, and 16 bytes per input state for firing them.
        net = random_network(input_width, widths, xi=0.1, seed=3)
        assert exact_io_mutual_information(net) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("input_width, widths, refusal", [
        (1, [27], r"^a 2\^1 x 2\^27 layer matrix needs 2147483648 bytes, "),
        (26, [1], r"^firing the 2\^26 input states needs 1073741824 bytes, "),
        (40, [1], r"^firing the 2\^40 input states needs 17592186044416 bytes, "),
    ])
    def test_networks_past_the_cap_are_refused_before_allocating(self, input_width, widths, refusal):
        net = random_network(input_width, widths, xi=0.1, seed=3)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=refusal):
                exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("input_width, widths, seed", [(8, [12], 0), (8, [12, 12], 0), (10, [14], 3)],
                             ids=["8-12", "8-12-12", "10-14"])
    def test_mutual_information_is_summed_in_the_propagated_matrix(self, input_width, widths, seed):
        # The peak is propagation's: one block of the distinct first-layer
        # states' rows (15 or 16 of 256 or 1024 input states, each network's
        # in one block), the law row that travels with it and the spare of
        # ``flip_bits``, measured at 2.11-2.26 such matrices, the excess
        # being fixed-size buffers; 256 KiB is margin.  A row per input
        # state, as the sum used to gather, would add 8 or 128 MiB.
        net = random_network(input_width, widths, xi=0.1, seed=seed)
        rows = len(np.unique(sdpi.network._fired(net.layers[0])))
        step = max(1, sdpi.info.DRAW_BYTES // (16 << max(widths)))
        tracemalloc.start()
        try:
            exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ((min(rows, step) + 1) * 8 << max(widths)) + (256 << 10)

    def test_only_the_distinct_first_layer_states_are_propagated(self):
        # All-rows propagation of a 10->14 network held the 128 MiB matrix
        # and the spare of ``flip_bits``, a 256 MiB peak; its 16 distinct
        # rows and their spare measure 4.2 MiB, and 0.8 MiB is margin.
        net = random_network(10, [14], xi=0.1, seed=3)
        tracemalloc.start()
        try:
            exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 20

    @pytest.mark.parametrize("input_width, width", [(9, 12), (6, 14)])
    def test_an_injective_first_layer_sums_its_rows_a_block_at_a_time(self, input_width, width):
        # A copier first layer fires every input state, and all 2^input_width
        # rows of the last layer and their spare used to be held at once (16
        # and 8 MiB); a block of them, measured at 0.89-0.92 of
        # ``block_bytes``, is held now.
        last = random_network(input_width, [width], xi=0.1).layers[0]
        net = NoisyNetwork((copier_layer(input_width), last), 0.1, input_width)
        tracemalloc.start()
        try:
            exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes(net)

    @pytest.mark.parametrize("net, want", [
        (random_network(14, [14], 0.1, seed=3), 0.8111890050473971),
        (random_network(16, [16], 0.1, seed=3), 1.4889228540332284),
        (NoisyNetwork((copier_layer(12),), 0.1, 12),
         12 * (math.log(2.0) + 0.1 * math.log(0.1) + 0.9 * math.log(0.9))),
    ], ids=["14-14", "16-16", "copier-12"])
    def test_wide_first_layers_are_answered_a_block_of_rows_at_a_time(self, net, want):
        # Their distinct first-layer rows were refused as 2^14 x 2^14 and
        # 2^16 x 2^16 matrices (2 and 32 GiB) and held the copier's 2^12 rows
        # (256 MiB with their spare).  Peaks measured: 4.4, 6.1 and 4.4 MiB,
        # 0.84-0.94 of ``block_bytes``; the copier's value is 12 (log 2 - h(0.1)).
        tracemalloc.start()
        try:
            mi = exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mi == pytest.approx(want, rel=1e-12)
        assert peak <= block_bytes(net)

    @settings(max_examples=100, deadline=None)
    @given(net=networks(), dirichlet=st.booleans())
    def test_one_row_blocks_give_the_default_sums_bit_for_bit(self, net, dirichlet):
        # The rows of a block never interact, and each row's divergence is a
        # reduction of its own, so blocks of one row give the same bits.
        p_x = input_law(net, dirichlet)
        exact = exact_io_mutual_information(net, p_x)
        sampled = monte_carlo_io_mi(net, p_x, trials=300, seed=net.input_width)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdpi.info, "DRAW_BYTES", 8)
            assert exact_io_mutual_information(net, p_x) == exact
            assert monte_carlo_io_mi(net, p_x, trials=300, seed=net.input_width) == sampled

    @settings(max_examples=200, deadline=None)
    @given(net=networks(), dirichlet=st.booleans())
    def test_matches_the_sum_over_all_rows(self, net, dirichlet):
        # Reference: every input state's row, p_Y = p . m over them, and
        # I = p . d, the sum as it was before the law travelled as a row.
        p_x = input_law(net, dirichlet)
        p = np.full(1 << net.input_width, 2.0**-net.input_width) if p_x is None else p_x.probs
        m = propagate_all_rows(net.layers, net.xi)
        want = float(p @ sdpi.info.phi_information(m, None, p @ m))
        assert abs(exact_io_mutual_information(net, p_x) - want) <= 1e-12 * want + 1e-15

    def test_a_one_neuron_layer_propagates_at_most_two_rows(self, monkeypatch):
        shapes, flip_bits = [], sdpi.network.flip_bits

        def recording(m, xi):
            shapes.append(m.shape)
            return flip_bits(m, xi)

        monkeypatch.setattr(sdpi.network, "flip_bits", recording)
        net = random_network(20, [1], xi=0.1, seed=3)
        assert network_channel(net).matrix.shape == (1 << 20, 2)
        exact_io_mutual_information(net)
        assert len(shapes) == 2 and all(rows <= 2 for rows, _ in shapes)

    @settings(max_examples=200, deadline=None)
    @given(net=networks())
    def test_distinct_rows_give_the_all_rows_matrix_bit_for_bit(self, net):
        all_rows = propagate_all_rows(net.layers, net.xi)
        states, rows = np.unique(sdpi.network._fired(net.layers[0]), return_inverse=True)
        np.testing.assert_array_equal(sdpi.network._propagate(net, states, [])[rows], all_rows)
        np.testing.assert_array_equal(network_channel(net).matrix, Channel(all_rows).matrix)

    @pytest.mark.parametrize("input_width", [20, 24])
    def test_an_output_that_ignores_the_input_carries_exactly_nothing(self, input_width):
        # The seeded first neuron never fires at 20 inputs and always fires
        # at 24; summed over every input state's row, the output law used to
        # leave 9.27e-24 and 2.37e-21 of rounding.
        net = random_network(input_width, [1], xi=0.1, seed=3)
        assert len(np.unique(sdpi.network._fired(net.layers[0]))) == 1
        assert exact_io_mutual_information(net) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(net=networks(), biases=st.lists(st.sampled_from([-1.0, 0.0]), min_size=6, max_size=6))
    def test_a_constant_first_layer_carries_exactly_nothing(self, net, biases):
        constant = tuple(ThresholdNeuron([0.0] * net.input_width, b) for b in biases[: net.widths[0]])
        net = NoisyNetwork((constant, *net.layers[1:]), net.xi, net.input_width)
        assert exact_io_mutual_information(net) == 0.0

    @pytest.mark.parametrize("input_width, widths", [(1, [16, 1]), (2, [16, 2]), (1, [1, 16])])
    def test_no_layer_builds_more_than_its_capped_matrix(self, input_width, widths):
        # The cap counts the 2^input_width x 2^width matrix each layer outputs;
        # a wide fan-in must not add a 2^fan_in x fan_in table on top of that.
        net = random_network(input_width, widths, xi=0.1)
        fan_ins = [input_width, *widths[:-1]]
        largest = max(8 << (input_width + max(f, w)) for f, w in zip(fan_ins, widths))
        tracemalloc.start()
        try:
            exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * largest

    @pytest.mark.parametrize("input_width, widths", [(20, [1]), (20, [2]), (16, [4])])
    def test_wide_input_is_exact_within_its_output_matrix(self, input_width, widths):
        # The cap counts the 2^input_width x 2^width matrix a layer outputs,
        # but only the one or two distinct first-layer states are propagated,
        # and no input law is built.  The peak is the first layer's firing
        # over every input state: an int64 state, a float sum and a mask,
        # 17 bytes each (1.06, 0.53 and 0.13 matrices); 64 KiB is margin.
        net = random_network(input_width, widths, xi=0.1, seed=3)
        tracemalloc.start()
        try:
            mi = exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * (1 << input_width) + (64 << 10)
        assert 0.0 <= mi <= widths[-1] * math.log(2.0)

    def test_firing_holds_the_bytes_it_checks_and_one_mask_slice(self, monkeypatch):
        # Each neuron compares a slice of ``info.DRAW_BYTES`` states at a
        # time, so the 1-byte mask is one slice, not one byte per input state
        # on top of the 16 checked (25->1 peaked at 544 MiB for 512 checked).
        monkeypatch.setattr(sdpi.info, "DRAW_BYTES", 1 << 16)
        net = random_network(20, [1], xi=0.1, seed=3)
        tracemalloc.start()
        try:
            exact_io_mutual_information(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (16 << 20) + (1 << 16) + (16 << 10)

    def test_matches_the_joint_law_of_the_network_channel(self):
        # Reference: the validated channel, its joint law with p_x, and the
        # mutual information of that table, each a copy of the matrix.
        rng = np.random.default_rng(31)
        for _ in range(30):
            widths = [int(w) for w in rng.integers(1, 7, size=int(rng.integers(1, 4)))]
            net = random_network(int(rng.integers(1, 7)), widths, float(rng.uniform(0.0, 0.49)),
                                 seed=int(rng.integers(1e6)))
            p_x = Distribution(rng.dirichlet(np.full(1 << net.input_width, 0.5)))
            want = mutual_information(joint(p_x, network_channel(net)))
            assert abs(exact_io_mutual_information(net, p_x) - want) <= 1e-12 * want + 1e-15

    def test_noiseless_injective_network_preserves_entropy(self):
        net = NoisyNetwork(layers=(copier_layer(3),), xi=0.0, input_width=3)
        p_x = Distribution(np.random.default_rng(21).dirichlet(np.ones(8)))
        assert exact_io_mutual_information(net, p_x) == pytest.approx(entropy(p_x), abs=1e-12)

    def test_near_half_noise_destroys_information(self):
        net = NoisyNetwork(
            layers=(copier_layer(3), copier_layer(3), copier_layer(3)),
            xi=0.499,
            input_width=3,
        )
        h_x = entropy(Distribution.uniform(8))
        assert exact_io_mutual_information(net) < 1e-3 * h_x

    def test_never_exceeds_input_entropy(self):
        for seed in range(5):
            net = random_network(3, [3, 2], xi=0.1, seed=seed)
            assert exact_io_mutual_information(net) <= entropy(Distribution.uniform(8)) + 1e-12

    def test_bounded_by_decay_product(self):
        for seed in range(10):
            net = random_network(3, [3, 3], xi=0.1, seed=seed)
            h_x = entropy(Distribution.uniform(8))
            bound = information_decay_bound(net.widths, net.xi, h_x)
            assert exact_io_mutual_information(net) <= bound + 1e-9

    def test_extra_layer_never_helps(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            deep = random_network(3, [3, 3, 2], xi=0.15, seed=seed)
            shallow = NoisyNetwork(layers=deep.layers[:2], xi=0.15, input_width=3)
            assert (
                exact_io_mutual_information(deep)
                <= exact_io_mutual_information(shallow) + 1e-12
            )


class TestDecayBound:
    def test_noiseless_passes_everything(self):
        assert information_decay_bound([4, 4], 0.0, 2.5) == 2.5

    def test_single_component_layer(self):
        xi = 0.2
        assert information_decay_bound([1], xi, 1.0) == pytest.approx(
            1 - (4 * xi - 4 * xi**2), abs=1e-15
        )

    def test_three_equal_layers(self):
        # Oracle: direct evaluation of the product.
        a = 4 * 0.35 - 4 * 0.35**2
        expected = (1 - a**5) ** 3
        assert information_decay_bound([5, 5, 5], 0.35, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0531437435, abs=1e-9)


class TestReliability:
    def test_capacity_at_zero(self):
        assert delta_capacity(0.0) == 1.0

    def test_capacity_vanishes_at_half(self):
        assert delta_capacity(0.5 - 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_capacity_value(self):
        # Oracle: direct evaluation of 1 + d log2 d + (1-d) log2(1-d).
        expected = 1 + 0.4 * math.log2(0.4) + 0.6 * math.log2(0.6)
        assert delta_capacity(0.4) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.029049, abs=1e-6)

    def test_capacity_strictly_decreasing(self):
        grid = np.arange(0.0, 0.5, 0.01)
        vals = [delta_capacity(d) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            delta_capacity(0.5)


class TestFeasibility:
    # Delta-reliable output needs the decay bound, with the single output
    # neuron as a final width-1 layer, to reach delta_capacity(delta).
    def test_noiseless_always_feasible(self):
        for delta in (0.01, 0.2, 0.49):
            assert information_decay_bound([5, 5, 1], 0.0, 1.0) >= delta_capacity(delta)

    def test_wide_layers_near_threshold(self):
        # (1 - 0.9324^20)^3 * 0.0676 = 0.028905 falls just short of the
        # 0.029049 threshold: infeasible by a hair.
        lhs = information_decay_bound([20, 20, 20, 1], 0.37, 1.0)
        assert lhs == pytest.approx(0.02890495233, abs=1e-9)
        assert lhs - delta_capacity(0.4) == pytest.approx(-0.000144453215, abs=1e-9)

    def test_feature_extractor_variant_drops_output_factor(self):
        # A noiseless read-out of the whole last layer has no output factor.
        lhs = information_decay_bound([20, 20, 20], 0.37, 1.0)
        assert lhs >= delta_capacity(0.4)
        assert lhs == pytest.approx(0.427588, abs=1e-5)

    def test_output_neuron_limits_everything(self):
        # If the last single-neuron factor is already below the threshold,
        # no hidden widths can help.
        xi, delta = 0.45, 0.1
        assert 1 - (4 * xi - 4 * xi**2) < delta_capacity(delta)
        assert information_decay_bound([10**6] * 3 + [1], xi, 1.0) < delta_capacity(delta)


class TestMinNeurons:
    def test_vanishing_noise(self):
        # The bound decays like 1/log(1/xi), so the approach to 0 is slow.
        assert min_neurons_lower_bound(0.0, 0.4, 4) == 0.0
        tail = [min_neurons_lower_bound(xi, 0.4, 4) for xi in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.05

    def test_reference_value(self):
        assert min_neurons_lower_bound(0.37, 0.4, 4) == pytest.approx(60.2182954, abs=1e-6)

    def test_monotone_in_depth(self):
        vals = [min_neurons_lower_bound(0.37, 0.4, L) for L in range(2, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_noise_until_divergence(self):
        vals = [min_neurons_lower_bound(xi, 0.4, 4) for xi in np.arange(0.05, 0.42, 0.02)]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(a < b for a, b in zip(finite, finite[1:]))
        assert math.isinf(min_neurons_lower_bound(0.45, 0.4, 4))

    def test_single_layer_degenerates_to_output_condition(self):
        assert min_neurons_lower_bound(0.1, 0.4, 1) == 0.0
        assert math.isinf(min_neurons_lower_bound(0.45, 0.1, 1))


class TestAmGm:
    def test_equal_widths_are_tight(self):
        got = amgm_product_bound(0.36, [3, 3, 3])
        assert got.tight
        assert got.product == pytest.approx(got.bound, abs=1e-12)

    def test_zero_base(self):
        got = amgm_product_bound(0.0, [1, 2, 3])
        assert got.product == 1.0 and got.bound == 1.0

    def test_mixed_widths_value(self):
        # Oracle: direct evaluation of both sides.
        got = amgm_product_bound(0.36, [1, 2, 3])
        assert got.product == pytest.approx(0.64 * 0.8704 * 0.953344, abs=1e-12)
        assert got.bound == pytest.approx((1 - 0.36**2) ** 3, abs=1e-12)
        assert got.product <= got.bound
        assert not got.tight

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = float(rng.uniform(0, 1))
            widths = rng.integers(1, 12, size=int(rng.integers(1, 6))).tolist()
            got = amgm_product_bound(a, widths)
            assert got.product <= got.bound + 1e-12


class TestParityComplexity:
    def test_two_inputs(self):
        assert parity_size_complexity(2, 3) == 1.0

    def test_reference_value(self):
        assert parity_size_complexity(500_000_000, 6) == pytest.approx(6.91503, abs=1e-5)

    def test_decreasing_in_depth(self):
        vals = [parity_size_complexity(10**6, d) for d in range(2, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_depth_one_rejected(self):
        with pytest.raises(ValidationError):
            parity_size_complexity(8, 1)


class TestDepthTradeoff:
    def test_reference_point(self):
        result = optimal_depth_tradeoff(500_000_000, 0.37, 0.4, 6)
        assert result.best.depth == 4
        assert result.best.minimum_neurons == pytest.approx(61.2182954, abs=1e-6)

    def test_vanishing_noise_leaves_expressibility_only(self):
        result = optimal_depth_tradeoff(500_000_000, 1e-9, 0.4, 6)
        omegas = [parity_size_complexity(500_000_000, d) for d in range(2, 7)]
        assert result.best.minimum_neurons == pytest.approx(min(omegas), abs=1e-3)

    def test_binding_switches_with_depth(self):
        result = optimal_depth_tradeoff(500_000_000, 0.37, 0.4, 6)
        bindings = [r.binding for r in result.per_depth]
        assert bindings[0] == "expressibility"
        assert bindings[-1] == "noise"
        assert "noise" in bindings and "expressibility" in bindings

    def test_max_dominates_components(self):
        result = optimal_depth_tradeoff(10**6, 0.3, 0.3, 8)
        for r in result.per_depth:
            assert r.minimum_neurons >= r.expressibility_bound
            assert r.minimum_neurons >= r.noise_bound

    def test_all_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            optimal_depth_tradeoff(10**6, 0.49, 0.01, 5)


_SIZE_FIELDS = dict(depth=2, expressibility_bound=3.5, noise_bound=9.0, binding="noise")
_SIZE = SizeBoundResult(**_SIZE_FIELDS)
_SIZE_TEXT = "SizeBoundResult(depth=2, expressibility_bound=3.5, noise_bound=9.0, binding='noise')"
# Each record with its fields, in the order they had as frozen dataclasses,
# and the repr text the dataclass printed for them.
RECORDS = [
    (LayerNoiseSpec, dict(xi=0.1, n=3), "LayerNoiseSpec(xi=0.1, n=3)"),
    (AmGmBound, dict(product=0.5, bound=0.75, tight=False),
     "AmGmBound(product=0.5, bound=0.75, tight=False)"),
    (SizeBoundResult, _SIZE_FIELDS, _SIZE_TEXT),
    (DepthTradeoff, dict(per_depth=(_SIZE,), best=_SIZE),
     f"DepthTradeoff(per_depth=({_SIZE_TEXT},), best={_SIZE_TEXT})"),
    (RelaxationBound, dict(time=2.0, asymptotic=1.5), "RelaxationBound(time=2.0, asymptotic=1.5)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_closed_form_records_keep_the_dataclass_contract(cls, fields, text):
    # Named tuples now: the same fields, construction, repr and immutability,
    # and a tuple besides, equal to the plain tuple of the fields.
    assert cls._fields == tuple(fields)
    record = cls(**fields)
    assert record == cls(*fields.values()) == tuple(fields.values())
    assert repr(record) == text
    for name in (cls._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    if cls is LayerNoiseSpec:
        for xi, n, message in ((0.5, 3, "flip probability must be in [0, 0.5), got 0.5"),
                               (0.1, 0, "layer width must be an integer of at least 1, got 0")):
            with pytest.raises(ValidationError, match=re.escape(message)):
                LayerNoiseSpec(xi=xi, n=n)
        with pytest.raises(ValidationError, match="flip probability"):
            record._replace(xi=0.5)
    if cls is SizeBoundResult:
        assert record.minimum_neurons == 9.0


class TestMonteCarlo:
    def test_noiseless_copier_recovers_one_bit(self):
        net = NoisyNetwork(layers=(copier_layer(1),), xi=0.0, input_width=1)
        got = monte_carlo_io_mi(net, trials=100_000, seed=0, base="bits")
        assert got.estimate == pytest.approx(1.0, abs=0.01)

    def test_matches_exact_within_three_stderr(self):
        net = random_network(2, [2, 2], xi=0.2, seed=5)
        exact = exact_io_mutual_information(net)
        got = monte_carlo_io_mi(net, trials=30_000, seed=11)
        assert abs(got.estimate - exact) <= 3 * max(got.stderr, 1e-4)

    def test_point_mass_input_gives_zero(self):
        net = random_network(2, [2], xi=0.1, seed=3)
        got = monte_carlo_io_mi(net, p_x=Distribution(np.eye(4)[2]), trials=5000, seed=0)
        assert got.estimate == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        net = random_network(2, [2], xi=0.3, seed=1)
        a = monte_carlo_io_mi(net, trials=2000, seed=42)
        b = monte_carlo_io_mi(net, trials=2000, seed=42)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_ties_fire_as_exact_propagation_fires_them(self):
        # On input state 5 the ordered sum (0.7 - 1) + 0.3 is -5.55e-17, but
        # BLAS may sum -1 + 0.3 first and reach 0, which would fire.
        neuron = ThresholdNeuron(weights=[-1.0, -1.0, 0.3], bias=0.7)
        net = NoisyNetwork(layers=((neuron,),), xi=0.0, input_width=3)
        exact = exact_io_mutual_information(net, base="bits")
        assert exact == pytest.approx(0.8112781244591328, abs=1e-12)
        got = monte_carlo_io_mi(net, trials=200_000, seed=1, base="bits")
        assert abs(got.estimate - exact) <= 3 * got.stderr

    def test_firing_given_states_agrees_with_the_full_table(self):
        # Decimal weights and biases make exact ties and near-ties common.
        # A state's sum must be the same floats whether its low bits come
        # from a short doubling table or from the one over every state.
        rng = np.random.default_rng(41)
        for _ in range(300):
            fan_in, width = int(rng.integers(1, 21)), int(rng.integers(1, 4))
            layer = tuple(ThresholdNeuron(rng.integers(-10, 11, size=fan_in) / 10.0,
                                          int(rng.integers(-10, 11)) / 10.0) for _ in range(width))
            states = rng.integers(0, 1 << fan_in, size=int(2.0 ** rng.uniform(0.0, fan_in + 1.0)))
            np.testing.assert_array_equal(sdpi.network._fired(layer, states),
                                          sdpi.network._fired(layer)[states])

    @pytest.mark.parametrize("input_width", [14, 18])
    def test_errors_are_within_four_stderr_and_the_bias(self, input_width):
        # The bias bound is 4 mean chi^2(W_x || p_Y) / (2 trials) under the
        # input law, 1.7e-5 and 5.0e-6 here, against stderrs near 2e-3 and 1e-3.
        net = random_network(input_width, [1], xi=0.1, seed=3)
        exact = exact_io_mutual_information(net)
        rows = propagate_all_rows(net.layers, net.xi)
        chi2 = np.mean((rows**2 / rows.mean(axis=0)).sum(axis=1) - 1.0)
        trials = 10_000
        covered = sum(abs(got.estimate - exact) <= 4 * got.stderr + 4 * chi2 / (2 * trials) + 1e-15
                      for got in (monte_carlo_io_mi(net, trials=trials, seed=seed) for seed in range(100)))
        assert covered >= 99

    def test_a_three_layer_network_lands_within_four_stderr_of_its_exact_value(self):
        net = random_network(16, [12, 2], xi=0.1, seed=3)
        got = monte_carlo_io_mi(net, trials=100_000, seed=0)
        assert abs(got.estimate - exact_io_mutual_information(net)) <= 4 * got.stderr


class TestMonteCarloCodes:
    def test_sampled_rows_give_the_dense_estimate(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            widths = [int(w) for w in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
            net = random_network(int(rng.integers(1, 7)), widths, float(rng.uniform(0.0, 0.49)),
                                 seed=int(rng.integers(1e6)))
            trials, seed = int(rng.integers(1, 3000)), int(rng.integers(100))
            got = monte_carlo_io_mi(net, trials=trials, seed=seed)
            estimate, stderr, _ = sampled_divergences(net, trials, seed)
            assert got.estimate == pytest.approx(estimate, rel=1e-12, abs=1e-12)
            assert got.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-12)

    def test_the_bias_is_downward_by_half_the_chi_square_information_per_trial(self):
        # At 64 trials the expected error of the estimate is, to second
        # order, -mean chi^2(W_s || p_Y) / (2 trials).  A noisy 2-bit copier
        # under the uniform law errs by -6.5e-3 on average over 400 seeds;
        # the mean error's spread over those seeds measures 2.8e-4.
        net = NoisyNetwork((copier_layer(2),), xi=0.2, input_width=2)
        exact = exact_io_mutual_information(net)
        errors, predicted = [], []
        for seed in range(400):
            errors.append(monte_carlo_io_mi(net, trials=64, seed=seed).estimate - exact)
            predicted.append(-sampled_divergences(net, 64, seed)[2] / (2 * 64))
        spread = np.std(errors) / math.sqrt(len(errors))
        assert np.mean(errors) < -10 * spread
        assert abs(np.mean(errors) - np.mean(predicted)) <= 4 * spread

    def test_wide_input_needs_no_table(self):
        # A 2^30 x 2^1 count table would be 16 GiB; a trial keeps only the
        # state it fires, 8 bytes, and firing runs in slices of fixed size.
        net = random_network(30, [1], xi=0.1)
        peaks = []
        for trials in (100_000, 300_000):
            tracemalloc.start()
            try:
                got = monte_carlo_io_mi(net, trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert 0.0 <= got.estimate <= math.log(2.0) + 1e-12
        assert peaks[0] < 16 << 20
        assert peaks[1] - peaks[0] <= 8 * 200_000 + (64 << 10)

    @pytest.mark.parametrize("input_width, widths", [(40, [30]), (70, [1]), (8, [27, 1])])
    def test_codes_wider_than_53_bits_are_refused(self, input_width, widths):
        # An input state past 53 bits is refused by its width.  Every layer
        # is capped on the two rows a block may hold, the law's and one
        # state's, before a draw.
        refusal = {
            70: r"^input width of a Monte Carlo estimate must be an integer in \[1, 53\], got 70$",
            40: r"^a 2\^1 x 2\^30 layer matrix needs 17179869184 bytes",
            8: r"^a 2\^1 x 2\^27 layer matrix needs 2147483648 bytes",
        }[input_width]
        net = random_network(input_width, widths, xi=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=refusal):
                monte_carlo_io_mi(net, trials=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("input_width", [1, 2, 5, 9, 13, 16])
    def test_default_law_draws_as_the_explicit_uniform_law(self, input_width):
        # floor(u 2^n) is the state a search of the uniform law's cumulative
        # sums (i + 1) / 2^n finds, so the two draws agree bit for bit.
        for seed in range(3):
            net = random_network(input_width, [3, 2], xi=0.2, seed=seed)
            implicit = monte_carlo_io_mi(net, trials=3000, seed=seed)
            explicit = monte_carlo_io_mi(net, Distribution.uniform(1 << input_width),
                                         trials=3000, seed=seed)
            assert (implicit.estimate, implicit.stderr) == (explicit.estimate, explicit.stderr)
