"""Command-line surface: formats, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import sdpi
from sdpi import verify
from sdpi.cli import COMMANDS, VERIFY_SUITES, VERIFIED_XI1, _linspace, _num, _row_format, main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bsc_file(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text('{"rows": [[0.9, 0.1], [0.1, 0.9]]}')
    return str(path)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    net = {
        "xi": 0.1,
        "input_width": 2,
        "layers": [
            {
                "neurons": [
                    {"weights": [2.0, 0.0], "bias": -1.0},
                    {"weights": [0.0, 2.0], "bias": -1.0},
                ]
            }
        ],
    }
    path.write_text(json.dumps(net))
    return str(path)


def rows_of(csv_text):
    lines = [ln for ln in csv_text.strip().split("\n") if not ln.startswith("#")]
    header, data = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return header, data


class TestBoundCommands:
    def test_channel_text(self, runner, bsc_file):
        res = runner.invoke(main, ["bound", "channel", bsc_file])
        assert res.exit_code == 0
        assert "eta: 0.64" in res.stdout
        assert "witness: (0, 1)" in res.stdout

    def test_channel_json(self, runner, bsc_file):
        res = runner.invoke(main, ["bound", "channel", bsc_file, "--format", "json"])
        payload = json.loads(res.stdout)
        assert payload["eta"] == pytest.approx(0.64, abs=1e-12)
        assert payload["witness"] == [0, 1]
        assert payload["method"] == "pair-scan"

    def test_identity_channel(self, runner, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("1,0\n0,1\n")
        res = runner.invoke(main, ["bound", "channel", str(path)])
        assert res.exit_code == 0
        assert "eta: 1" in res.stdout

    def test_malformed_row_exits_2_and_names_row(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.9,0.1\n0.5,0.4\n")
        res = runner.invoke(main, ["bound", "channel", str(path)])
        assert res.exit_code == 2
        assert "row 1" in res.stderr

    @pytest.mark.parametrize("command,text", [
        ("bound channel {}", '{"rows": [[{"a": 1}, 0.5]]}'),
        ("nn mi {net} --px {}", '{"probs": [{"a": 1}, 0.5]}'),
        ("nn mi {net} --px {}", '{"probs": [[0.5], [0.2, 0.3]]}'),
    ], ids=["channel-object", "distribution-object", "distribution-ragged"])
    def test_non_numeric_json_exits_2_naming_the_file(self, runner, tmp_path, command, text):
        path, net = tmp_path / "bad.json", tmp_path / "net.json"
        path.write_text(text)
        net.write_text(json.dumps(sdpi.random_network(1, [1], 0.1, seed=0).to_dict()))
        res = runner.invoke(main, command.format(path, net=net).split())
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {path}: ")
        assert res.stderr.count("\n") == 1

    def test_missing_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["bound", "channel", str(tmp_path / "nope.json")])
        assert res.exit_code == 2

    def test_layer_independent(self, runner):
        res = runner.invoke(main, ["bound", "layer", "--xi", "0.1", "--n", "3", "--format", "json"])
        assert json.loads(res.stdout)["eta"] == pytest.approx(1 - 0.36**3, abs=1e-12)

    def test_layer_correlated(self, runner):
        res = runner.invoke(
            main,
            ["bound", "layer", "--n", "5", "--xi1", "0.02", "--xi2", "0.35", "--format", "json"],
        )
        payload = json.loads(res.stdout)
        assert payload["method"] == "distance-classes"
        assert payload["eta"] == pytest.approx(0.341303673, abs=1e-8)
        assert payload["eta_leading"] == pytest.approx(0.339384183, abs=1e-8)

    def test_layer_bounds_work_beyond_materialization_cap(self, runner):
        # Closed form and distance-class scan never build the 2^n matrix.
        res = runner.invoke(main, ["bound", "layer", "--xi", "0.1", "--n", "20", "--format", "json"])
        assert json.loads(res.stdout)["eta"] == pytest.approx(1 - 0.36**20, abs=1e-12)
        res = runner.invoke(
            main, ["bound", "layer", "--n", "20", "--xi1", "0.01", "--xi2", "0.3", "--format", "json"]
        )
        assert res.exit_code == 0
        assert json.loads(res.stdout)["witness"] == [0, (1 << 20) - 1]

    def test_internal_error_exits_3_with_one_line(self):
        # A library failure that is not an input error (here an overflow
        # patched into the class scan) is reported on one line, never as a
        # traceback.
        env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).parents[1]))
        code = (
            "import sdpi.contraction, sdpi.cli\n"
            "def overflow(spec):\n"
            "    raise OverflowError('int too large to convert to float')\n"
            "sdpi.contraction.correlated_layer_bound_exact = overflow\n"
            "sdpi.cli.main(['bound', 'layer', '--n', '5', '--xi1', '0.01', '--xi2', '0.3'])\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("error: internal: OverflowError: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", [
        ["bound", "layer", "--n", "1100", "--xi1", "0.01", "--xi2", "0.3"],
        ["bound", "layer", "--n", "2000", "--xi1", "0.01", "--xi2", "0.3"],
        ["fig", "3", "--n", "1100"],
    ], ids=["layer-1100", "layer-2000", "fig3-1100"])
    def test_correlated_width_above_cap_exits_2_naming_it(self, runner, command):
        # Wider layers used to overflow a float in the class scan (exit 3).
        res = runner.invoke(main, command)
        assert res.exit_code == 2
        assert res.stdout == ""
        width = command[command.index("--n") + 1]
        assert res.stderr == f"error: layer width must be an integer in [1, 1000], got {width}\n"

    def test_correlated_width_at_cap_answers(self, runner):
        res = runner.invoke(
            main, ["bound", "layer", "--n", "1000", "--xi1", "0.01", "--xi2", "0.3", "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert 0.0 <= payload["eta"] <= 1.0
        assert math.isfinite(payload["eta_leading"])

    def test_leading_order_outside_the_verified_range_warns(self, runner):
        # At xi1 = 1 the first-order value is no bound at all (-63 here):
        # stdout keeps it, stderr says so, as fig 3 does.
        args = ["bound", "layer", "--n", "5", "--xi1", "1", "--xi2", "0", "--format", "json"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert json.loads(res.stdout)["eta_leading"] == pytest.approx(-63.0)
        assert res.stderr == (
            "warning: xi1 above 0.07 leaves the numerically verified ordering range\n"
        )
        fig = runner.invoke(main, ["fig", "3", "--points", "2", "--xi1-max", "0.08"])
        assert fig.stderr == res.stderr

    @pytest.mark.parametrize("xi1", ["0.02", str(VERIFIED_XI1)])
    def test_leading_order_inside_the_verified_range_is_quiet(self, runner, xi1):
        res = runner.invoke(main, ["bound", "layer", "--n", "5", "--xi1", xi1, "--xi2", "0.35"])
        assert res.exit_code == 0
        assert res.stderr == ""

    def test_leading_order_past_its_zeroth_order_term_warns(self, runner):
        # Inside the verified xi1 range, slope * xi1 (1.2e24 here) can still
        # swamp the retention (4 xi2 - 4 xi2^2)^n (5.6e-31): the first-order
        # value is -1.2e24.  stdout keeps it, stderr says so.
        res = runner.invoke(main, ["bound", "layer", "--n", "400", "--xi1", "0.01", "--xi2", "0.3"])
        assert res.exit_code == 0
        assert res.stdout.endswith("\neta_leading: -1.21401957e+24\n")
        assert res.stderr == ("warning: slope*xi1 reaches (4 xi2 - 4 xi2^2)^n, where the "
                              "first-order eta_leading says nothing\n")

    def test_layer_flag_conflicts(self, runner):
        res = runner.invoke(main, ["bound", "layer", "--n", "3", "--xi1", "0.01"])
        assert res.exit_code == 2
        res = runner.invoke(
            main, ["bound", "layer", "--n", "3", "--xi", "0.1", "--xi1", "0.01", "--xi2", "0.2"]
        )
        assert res.exit_code == 2


class TestNetworkCommands:
    def test_mi_uniform_default(self, runner, net_file):
        res = runner.invoke(main, ["nn", "mi", net_file, "--format", "json"])
        payload = json.loads(res.stdout)
        # two independent copies of bsc(0.1): 2 * (1 - h2(0.1)) bits
        h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert payload["mutual_information"] == pytest.approx(2 * (1 - h2), abs=1e-9)

    def test_mi_with_px_file(self, runner, net_file, tmp_path):
        px = tmp_path / "px.json"
        px.write_text('{"probs": [1.0, 0.0, 0.0, 0.0]}')
        res = runner.invoke(main, ["nn", "mi", net_file, "--px", str(px)])
        assert res.exit_code == 0
        assert "mutual information: 0" in res.stdout

    def test_mi_over_the_byte_cap_exits_2(self, runner, tmp_path):
        # A 27-wide layer on its two rows, the law's and one state's, needs a
        # 2^1 x 2^27 matrix (2 GiB), past the 512 MiB cap.
        net = sdpi.random_network(1, [27], xi=0.1)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(net.to_dict()))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: a 2^1 x 2^27 layer matrix needs 2147483648 bytes, "
            "above the cap of 536870912 bytes (512 MiB)\n"
        )

    def test_mi_with_a_later_layer_over_the_byte_cap_exits_2(self, runner, tmp_path):
        # The second layer, 2^1 x 2^26 floats (1 GiB), is refused before the
        # first is propagated.
        net = sdpi.random_network(1, [1, 26], xi=0.1)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(net.to_dict()))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: a 2^1 x 2^26 layer matrix needs 1073741824 bytes, "
            "above the cap of 536870912 bytes (512 MiB)\n"
        )

    def test_mi_with_a_huge_input_width_exits_2(self, runner, tmp_path):
        # 2^40 input states: the byte cap refuses to fire them all before
        # any 2^40-entry input law is built.
        net = sdpi.random_network(40, [1], xi=0.1)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(net.to_dict()))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            f"error: firing the 2^40 input states needs {16 << 40} bytes, "
            "above the cap of 536870912 bytes (512 MiB)\n"
        )

    @pytest.mark.parametrize("input_width", [14, 18, 20])
    def test_mi_of_a_wide_input_is_exact(self, runner, tmp_path, input_width):
        # The byte cap counts the two distinct first-layer rows, and 16 bytes
        # per input state for firing them.
        net = sdpi.random_network(input_width, [1], xi=0.1, seed=3)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(net.to_dict()))
        res = runner.invoke(main, ["nn", "mi", str(path), "--base", "nats", "--format", "json"])
        assert res.exit_code == 0, res.stderr
        assert json.loads(res.stdout)["mutual_information"] == sdpi.exact_io_mutual_information(net)

    def test_mi_past_the_cap_of_a_one_neuron_layer_exits_2(self, runner, tmp_path):
        net = sdpi.random_network(26, [1], xi=0.1, seed=3)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(net.to_dict()))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == (
            "error: firing the 2^26 input states needs 1073741824 bytes, "
            "above the cap of 536870912 bytes (512 MiB)\n"
        )

    @pytest.mark.parametrize("probs", ['["0.5", "0.5", "0", "0"]', "[null, 0.5, 0.25, 0.25]"],
                             ids=["numeric-text", "null"])
    def test_mi_input_law_of_non_numbers_exits_2_naming_it(self, runner, net_file, tmp_path, probs):
        px = tmp_path / "px.json"
        px.write_text(f'{{"probs": {probs}}}')
        res = runner.invoke(main, ["nn", "mi", net_file, "--px", str(px)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: {px}: distribution entries must be numbers\n"

    def test_mi_malformed_network_names_the_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"xi": 0.1, "input_width": 1, "layers": [
            {"neurons": [{"weights": [1.0], "bias": "abc"}]}]}))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: {path}: network entries must be numbers\n"

    def test_mi_boolean_input_width_exits_2_naming_the_file(self, runner, tmp_path):
        # "input_width": true used to be read as 1.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"xi": 0.1, "input_width": True, "layers": [
            {"neurons": [{"weights": [1.0], "bias": 0.0}]}]}))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: {path}: network entries must be numbers\n"

    @pytest.mark.parametrize("layers, field", [
        ([{"neurons": [5]}], "layers[0].neurons[0] must be an object with 'weights'"),
        ("abc", "layers must be a list"),
    ], ids=["neuron-not-an-object", "layers-not-a-list"])
    def test_mi_malformed_structure_names_the_field(self, runner, tmp_path, layers, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"xi": 0.1, "input_width": 1, "layers": layers}))
        res = runner.invoke(main, ["nn", "mi", str(path)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: {path}: {field}\n"

    def test_bound_command(self, runner):
        res = runner.invoke(
            main, ["nn", "bound", "--widths", "5,5,5", "--xi", "0.35", "--hx", "1", "--format", "json"]
        )
        assert json.loads(res.stdout)["bound"] == pytest.approx(0.0531437435, abs=1e-9)

    def test_bound_rejects_non_finite_entropy(self, runner):
        for hx in ("nan", "inf"):
            res = runner.invoke(main, ["nn", "bound", "--widths", "3", "--xi", "0.1", "--hx", hx])
            assert res.exit_code == 2
            assert res.stdout == ""

    def test_min_neurons(self, runner):
        res = runner.invoke(
            main, ["nn", "min-neurons", "--xi", "0.37", "--delta", "0.4", "--layers", "4"]
        )
        assert res.exit_code == 0
        assert "60.2182954" in res.stdout

    def test_min_neurons_infeasible_exits_1(self, runner):
        res = runner.invoke(
            main, ["nn", "min-neurons", "--xi", "0.45", "--delta", "0.4", "--layers", "4"]
        )
        assert res.exit_code == 1
        assert "inf" in res.stdout

    def test_tradeoff(self, runner):
        res = runner.invoke(
            main,
            ["nn", "tradeoff", "--n", "5e8", "--xi", "0.37", "--delta", "0.4",
             "--max-depth", "6", "--format", "json"],
        )
        payload = json.loads(res.stdout)
        assert payload["best"]["depth"] == 4
        assert payload["best"]["minimum_neurons"] == pytest.approx(61.2183, abs=1e-3)

    def test_tradeoff_all_infeasible_exits_1(self, runner):
        res = runner.invoke(
            main,
            ["nn", "tradeoff", "--n", "1e6", "--xi", "0.49", "--delta", "0.01", "--max-depth", "5"],
        )
        assert res.exit_code == 1


class TestMemoryCommands:
    def test_overhead(self, runner):
        res = runner.invoke(
            main, ["mem", "overhead", "--delta", "0.4", "--intervals", "100", "--xi", "0.1"]
        )
        assert "3.28785013" in res.stdout

    def test_relax(self, runner):
        res = runner.invoke(
            main, ["mem", "relax", "--n", "9", "--xi", "0.3", "--delta", "0.4", "--format", "json"]
        )
        assert json.loads(res.stdout)["time"] == pytest.approx(15.1574627, abs=1e-6)

    def test_reptime(self, runner):
        res = runner.invoke(
            main, ["mem", "reptime", "--n", "9", "--xi", "0.3", "--delta", "0.4", "--format", "json"]
        )
        payload = json.loads(res.stdout)
        assert payload["time"] == pytest.approx(7.30999061, abs=1e-6)
        assert payload["chernoff_lower"] < payload["time"]

    @pytest.mark.parametrize("n", ["8489", "8490"])
    def test_reptime_past_float_range_exits_2(self, runner, n):
        # These used to end in exit 3 (ZeroDivisionError) and print "inf".
        res = runner.invoke(main, ["mem", "reptime", "--n", n, "--xi", "0.3", "--delta", "0.4"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: repetition relaxation time at n = {n} is out of ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [
        "bound layer --n {big} --xi 0.3",
        "mem relax --n {big} --xi 0.3 --delta 0.4",
        "mem reptime --n {big} --xi 0.3 --delta 0.4",
        "nn bound --widths 3,{big} --xi 0.3",
        "mem overhead --delta 0.4 --intervals {big} --xi 0.3",
    ])
    def test_integer_past_the_float_range_exits_2(self, runner, args):
        res = runner.invoke(main, args.format(big=10**400).split())
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.endswith(" must be at most 1.79769313e+308, the float range, "
                                   "got about 10^400\n")
        assert res.stderr.count("\n") == 1

    def test_tiny_failure_budget_answers(self, runner):
        # log D used to cancel to -0: a bound of -0 intervals, below what
        # repetition coding achieves, or a math domain error.
        relax, reptime, overhead, fig8 = (runner.invoke(main, args.split()) for args in (
            "mem relax --n 9 --xi 0.3 --delta 1e-300 --format json",
            "mem reptime --n 9 --xi 0.3 --delta 1e-300 --format json",
            "mem overhead --delta 1e-20 --intervals 10 --xi 0.3 --format json",
            "fig 8 --t-max 2 --pair 1e-300,0.3"))
        assert [r.exit_code for r in (relax, reptime, overhead, fig8)] == [0, 0, 0, 0]
        assert json.loads(relax.stdout)["time"] > json.loads(reptime.stdout)["time"] > 0.0
        assert 0.0 < json.loads(overhead.stdout)["n_lower"] < math.inf
        assert all(0.0 < float(row[3]) < math.inf for row in rows_of(fig8.stdout)[1])

    def test_relax_past_float_range_exits_2(self, runner):
        # This used to print "inf intervals (asymptotic inf)" and exit 0.
        res = runner.invoke(main, ["mem", "relax", "--n", "4064", "--xi", "0.3", "--delta", "0.4"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == ("error: relaxation upper bound at n = 4064 is out of float range "
                              "(about e^709.836)\n")

    def test_reptime_window_past_the_byte_cap_exits_2_before_allocating(self, runner):
        args = ["mem", "reptime", "--n", "100000000000000", "--xi", "0.4999999", "--delta", "0.4"]
        runner.invoke(main, ["mem", "reptime", "--n", "9", "--xi", "0.3", "--delta", "0.4"])
        tracemalloc.start()
        try:
            res = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("error: summing the binomial tail at n = 100000000000000 over ")
        assert res.stderr.count("\n") == 1
        assert peak < 1 << 20

    def test_reptime_useless_memory_exits_1(self, runner):
        res = runner.invoke(main, ["mem", "reptime", "--n", "2", "--xi", "0.49", "--delta", "0.4"])
        assert res.exit_code == 1

    def test_simulate_csv(self, runner):
        res = runner.invoke(
            main,
            ["mem", "simulate", "--n", "5", "--xi", "0.2", "--delta", "0.3",
             "--intervals", "4", "--trials", "500", "--seed", "9"],
        )
        assert res.exit_code == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0].startswith("# sdpi mem simulate")
        assert "--seed 9" in lines[0]
        assert lines[1].startswith("# {")
        header, data = rows_of(res.stdout)
        assert header == ["t", "success_prob", "stderr"]
        assert len(data) == 4

    def test_long_csv_is_written_in_chunks(self, runner, tmp_path):
        # 1e5 rows of about 30 characters.  Rendering the whole text before
        # writing it peaked at 9.7 MiB; streamed, the peak is what the
        # simulation checked (see the next test) and one chunk of lines.
        intervals, out = 100_000, tmp_path / "sim.csv"
        args = ["mem", "simulate", "--n", "5", "--xi", "0.1", "--delta", "0.3",
                "--intervals", str(intervals), "--trials", "1", "--out", str(out)]
        runner.invoke(main, args[:9] + ["2"])  # load the modules untraced
        tracemalloc.start()
        try:
            res = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak < 6 * 8 * intervals
        lines = out.read_text().split("\n")
        assert lines[3].startswith("1,") and lines[-2].startswith(f"{intervals},")
        assert lines[-1] == "" and len(lines) == intervals + 4

    def test_simulate_holds_no_more_than_the_bytes_it_checks(self, runner, tmp_path):
        # ``simulate_memory`` checks 18 bytes an interval.  The command then
        # holds only the success column and derives each row's stderr as it
        # writes it; the columns held as float arrays used to peak at 1.35
        # times the check.  64 KiB is for one chunk of lines.
        intervals = 100_000
        args = ["mem", "simulate", "--n", "5", "--xi", "0.1", "--delta", "0.3",
                "--intervals", str(intervals), "--trials", "1", "--out", str(tmp_path / "sim.csv")]
        runner.invoke(main, args[:9] + ["2"])  # load the modules untraced
        tracemalloc.start()
        try:
            res = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak <= 18 * intervals + (64 << 10)

    @pytest.mark.parametrize("command", [
        ["mem", "simulate", "--n", "5", "--xi", "0.2", "--delta", "0.3", "--intervals", "4"],
        ["verify", "sdpi-fuzz", "--budget", "5"],
    ], ids=["mem-simulate", "verify"])
    def test_negative_seed_exits_2_naming_the_seed(self, runner, command):
        res = runner.invoke(main, [*command, "--seed", "-1"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: seed must be an integer of at least 0, got -1\n"

    @pytest.mark.parametrize("command", [
        ["mem", "simulate", "--n", "5", "--xi", "0.2", "--delta", "0.3", "--intervals", "4"],
        ["verify", "sdpi-fuzz", "--budget", "5"],
        ["fig", "2", "--points", "3"],
    ], ids=["mem-simulate", "verify", "fig"])
    def test_seed_past_the_float_range_runs(self, runner, command):
        # Only numpy.random.default_rng reads a seed, and it takes any size.
        res = runner.invoke(main, [*command, "--seed", str(10**400)])
        assert (res.exit_code, res.stderr) == (0, "")


class TestFigureCommands:
    @pytest.mark.parametrize("figure", ["2", "3", "5", "6", "8"])
    def test_negative_seed_exits_2_naming_the_seed(self, runner, figure):
        res = runner.invoke(main, ["fig", figure, "--seed", "-5"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: seed must be an integer of at least 0, got -5\n"

    @pytest.mark.parametrize("figure", ["2", "3", "5", "6", "8"])
    def test_seed_only_labels_the_header(self, runner, figure):
        a = runner.invoke(main, ["fig", figure, "--seed", "0"]).stdout.split("\n", 1)
        b = runner.invoke(main, ["fig", figure, "--seed", "99"]).stdout.split("\n", 1)
        assert a[0].endswith("--seed 0") and b[0].endswith("--seed 99")
        assert a[1] == b[1]
        help_text = runner.invoke(main, ["fig", figure, "--help"]).stdout
        assert "Only labels the CSV header" in " ".join(help_text.split())

    def test_fig2_header_and_tightness(self, runner):
        res = runner.invoke(main, ["fig", "2"])
        assert res.exit_code == 0
        first = res.stdout.split("\n", 1)[0]
        assert first.startswith("# sdpi fig 2") and "--seed 0" in first
        header, data = rows_of(res.stdout)
        assert header == ["xi", "evans_schulman", "ours"]
        assert len(data) == 51
        for row in data:
            assert float(row[2]) <= float(row[1]) + 1e-12

    def test_fig2_known_row(self, runner):
        res = runner.invoke(main, ["fig", "2", "--xi-min", "0.25", "--xi-max", "0.25", "--points", "1"])
        _, data = rows_of(res.stdout)
        assert float(data[0][1]) == pytest.approx(0.75, abs=1e-9)
        assert float(data[0][2]) == pytest.approx(0.578125, abs=1e-9)

    def test_fig2_endpoint_vanishes(self, runner):
        res = runner.invoke(main, ["fig", "2", "--xi-min", "0.5", "--xi-max", "0.5", "--points", "1"])
        _, data = rows_of(res.stdout)
        assert float(data[0][1]) == 0.0 and float(data[0][2]) == 0.0

    def test_fig3_zero_row_and_ordering(self, runner):
        res = runner.invoke(main, ["fig", "3"])
        header, data = rows_of(res.stdout)
        assert header == ["xi1", "eta_ind", "eta_wc_leading", "eta_wc_exact"]
        first = [float(v) for v in data[0]]
        assert first[1] == pytest.approx(first[2], abs=1e-9)
        assert first[1] == pytest.approx(first[3], abs=1e-9)
        for row in data:
            assert float(row[3]) <= float(row[1]) + 1e-9

    def test_fig3_out_of_range_warns_but_succeeds(self, runner):
        res = runner.invoke(main, ["fig", "3", "--xi1-max", "0.1"])
        assert res.exit_code == 0
        assert "warning" in res.stderr

    @pytest.mark.parametrize("start,stop,num", [
        (0.0, 0.5, 51), (0.01, 0.49, 49), (0.0, 0.07, 15),  # fig 2, 5 and 3 defaults
        (0.25, 0.25, 1), (0.3, 0.1, 1), (0.2, 0.2, 7),
        (0.0, 5e-324, 4),  # the step underflows to 0
    ])
    def test_grid_repeats_numpy_linspace(self, start, stop, num):
        want = [float(x).hex() for x in np.linspace(start, stop, num)]
        assert [x.hex() for x in _linspace(start, stop, num)] == want

    def test_grid_repeats_numpy_linspace_on_random_grids(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            scale = 10.0 ** rng.integers(-3, 4)
            start, stop = sorted(rng.uniform(-scale, scale, size=2))
            num = int(rng.integers(1, 120))
            want = [float(x).hex() for x in np.linspace(start, stop, num)]
            assert [x.hex() for x in _linspace(start, stop, num)] == want, (start, stop, num)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-(2**70), 2**70),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats(),
        st.floats().map(np.float64),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e-300, 1e300]),
    ), min_size=1, max_size=6))
    def test_a_csv_row_is_rendered_as_its_numbers(self, row):
        assert _row_format(row).format(*row) == ",".join(map(_num, row))

    def test_fig5_reference_cell(self, runner):
        res = runner.invoke(
            main,
            ["fig", "5", "--xi-min", "0.37", "--xi-max", "0.37", "--points", "1",
             "--delta", "0.4", "--layers", "4"],
        )
        header, data = rows_of(res.stdout)
        assert header == ["xi", "delta", "L", "n_s"]
        assert float(data[0][3]) == pytest.approx(60.2182954, abs=1e-6)

    def test_fig5_marks_infeasible_cells(self, runner):
        res = runner.invoke(
            main,
            ["fig", "5", "--xi-min", "0.45", "--xi-max", "0.45", "--points", "1",
             "--delta", "0.4", "--layers", "4"],
        )
        _, data = rows_of(res.stdout)
        assert data[0][3] == "inf"

    def test_fig5_monotone_in_depth(self, runner):
        res = runner.invoke(
            main,
            ["fig", "5", "--xi-min", "0.37", "--xi-max", "0.37", "--points", "1",
             "--delta", "0.4", "--layers", "4", "--layers", "5"],
        )
        _, data = rows_of(res.stdout)
        assert float(data[1][3]) > float(data[0][3])

    def test_fig6_reference_dataset(self, runner):
        res = runner.invoke(main, ["fig", "6"])
        header, data = rows_of(res.stdout)
        assert header == ["d", "omega", "ns_plus_1", "max"]
        by_depth = {int(r[0]): r for r in data}
        assert float(by_depth[6][1]) == pytest.approx(6.91503, abs=1e-5)
        for row in data:
            assert float(row[3]) >= float(row[1]) - 1e-12
            assert float(row[3]) >= float(row[2]) - 1e-12
        assert "# optimal depth 4" in res.stdout
        assert "61.218" in res.stdout.split("optimal depth 4")[1]

    def test_fig8_reference_and_monotone(self, runner):
        res = runner.invoke(main, ["fig", "8", "--t-max", "100", "--pair", "0.4,0.1"])
        header, data = rows_of(res.stdout)
        assert header == ["T", "delta", "xi", "n_lower"]
        values = [float(r[3]) for r in data]
        assert len(values) == 100
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[99] == pytest.approx(3.28785013, abs=1e-6)
        assert values[0] > 0

    def test_fig6_all_infeasible_exits_1(self, runner):
        res = runner.invoke(main, ["fig", "6", "--xi", "0.49", "--delta", "0.01"])
        assert res.exit_code == 1

    def test_fig_out_and_gnuplot(self, runner, tmp_path):
        out = tmp_path / "fig2.csv"
        res = runner.invoke(main, ["fig", "2", "--out", str(out), "--gnuplot"])
        assert res.exit_code == 0
        assert out.exists()
        script = out.with_suffix(".gp")
        assert script.exists()
        assert "fig2.csv" in script.read_text()

    def test_gnuplot_without_out_exits_2(self, runner):
        res = runner.invoke(main, ["fig", "2", "--gnuplot"])
        assert res.exit_code == 2

    def test_gnuplot_without_out_writes_nothing(self, runner):
        res = runner.invoke(main, ["fig", "2", "--points", "2", "--gnuplot"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: --gnuplot requires --out")


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, runner):
        a = runner.invoke(main, ["fig", "3", "--points", "8"]).stdout
        b = runner.invoke(main, ["fig", "3", "--points", "8"]).stdout
        assert a == b

    def test_simulation_reproducible(self, runner):
        args = ["mem", "simulate", "--n", "5", "--xi", "0.2", "--delta", "0.3",
                "--intervals", "5", "--trials", "300", "--seed", "4"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_seed_changes_simulation(self, runner):
        base = ["mem", "simulate", "--n", "5", "--xi", "0.2", "--delta", "0.3",
                "--intervals", "5", "--trials", "300"]
        a = runner.invoke(main, base + ["--seed", "1"]).stdout
        b = runner.invoke(main, base + ["--seed", "2"]).stdout
        assert a != b


class TestVerifyCommand:
    def test_small_fuzz_passes(self, runner):
        res = runner.invoke(main, ["verify", "sdpi-fuzz", "--budget", "200"])
        assert res.exit_code == 0
        assert "PASS" in res.stdout

    def test_fuzz_tiny_information_is_not_a_counterexample(self, runner):
        # Sample 970 of this seed has I(X;Z) ~ 4e-15, which the entropy-sum
        # form of mutual information lost to cancellation.
        res = runner.invoke(main, ["verify", "sdpi-fuzz", "--seed", "1405303632", "--budget", "971"])
        assert res.exit_code == 0
        assert "PASS (971 checks" in res.stdout

    def test_identity_suite_json(self, runner):
        res = runner.invoke(
            main, ["verify", "appendix-identity", "--budget", "50", "--format", "json"]
        )
        payload = json.loads(res.stdout)
        assert payload["results"][0]["passed"] is True
        assert payload["results"][0]["checks"] == 50

    def test_layer_equality_suite(self, runner):
        res = runner.invoke(main, ["verify", "layer-equality"])
        assert res.exit_code == 0

    def test_memory_sandwich_suite(self, runner):
        res = runner.invoke(main, ["verify", "memory-sandwich"])
        assert res.exit_code == 0

    def test_unknown_suite_exits_2(self, runner):
        res = runner.invoke(main, ["verify", "no-such-suite"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_without_samples_exits_2(self, runner, budget):
        # Zero samples would report PASS having checked nothing.
        res = runner.invoke(main, ["verify", "sdpi-fuzz", "--budget", budget])
        assert res.exit_code == 2
        assert res.stdout == ""


@pytest.mark.parametrize("n", ["inf", "-inf", "nan", "2.5", "1"])
@pytest.mark.parametrize("command", [
    ["nn", "tradeoff", "--xi", "0.37", "--delta", "0.4", "--max-depth", "6"],
    ["fig", "6"],
], ids=["nn-tradeoff", "fig-6"])
def test_input_count_must_be_an_integer_of_at_least_2(runner, command, n):
    res = runner.invoke(main, [*command, "--n", n])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert "input count must be an integer" in res.stderr


# One cheap valid invocation per leaf command with numeric options; the
# sweep below replaces one option at a time with an edge value.
SWEEP_BASE = {
    "bound layer": "--n 3 --xi 0.1",
    "nn bound": "--widths 3,2 --xi 0.1",
    "nn min-neurons": "--xi 0.37 --delta 0.4 --layers 4",
    "nn tradeoff": "--n 5e8 --xi 0.37 --delta 0.4 --max-depth 6",
    "mem overhead": "--delta 0.4 --intervals 100 --xi 0.1",
    "mem relax": "--n 9 --xi 0.3 --delta 0.4",
    "mem reptime": "--n 9 --xi 0.3 --delta 0.4",
    "mem simulate": "--n 3 --xi 0.1 --delta 0.2 --intervals 2 --trials 50",
    "fig 2": "--points 3",
    "fig 3": "--points 2",
    "fig 5": "--points 2",
    "fig 6": "",
    "fig 8": "--t-max 3",
    "verify": "layer-equality",
}
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0"]


def _leaves():
    return sorted(COMMANDS.items())


def _numeric_options():
    for path, cmd in _leaves():
        for option in cmd.options:
            if option.flag.startswith("--") and option.type in (int, float):
                yield path, option.flag


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("path,option", list(_numeric_options()))
def test_edge_values_never_escape_as_exceptions(runner, path, option, value):
    args = [*path.split(), *SWEEP_BASE[path].split(), option, value]
    res = runner.invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1, 2)


@pytest.mark.parametrize("args, message", [
    ("", "missing command, one of bound, fig, mem, nn, verify"),
    ("fig", "missing command, one of 2, 3, 5, 6, 8"),
    ("nope", "no such command 'nope', not one of bound, fig, mem, nn, verify"),
    ("fig 9", "no such command 'fig 9', not one of 2, 3, 5, 6, 8"),
    ("fig 2 --xi-m 0.1", "no such option --xi-m"),
    ("bound layer -n 3 --xi 0.1", "no such option -n"),
    ("bound layer --n abc --xi 0.1", "invalid value for --n: expected an integer, got 'abc'"),
    ("bound layer --n 5.0 --xi 0.1", "invalid value for --n: expected an integer, got '5.0'"),
    ("bound layer --n 5 --xi abc", "invalid value for --xi: expected a number, got 'abc'"),
    ("nn bound --widths 3,x --xi 0.1",
     "invalid value for --widths: expected comma-separated integers, got '3,x'"),
    ("fig 8 --pair 0.1", "invalid value for --pair: expected 'delta,xi', got '0.1'"),
    ("bound layer --xi 0.1", "missing option --n"),
    ("nn mi", "missing argument netfile"),
    ("bound layer --n", "option --n needs a value"),
    ("fig 2 --gnuplot=1", "option --gnuplot takes no value"),
    ("bound layer --n 5 --xi 0.1 extra", "unexpected argument 'extra'"),
    ("bound layer --n 5 --xi 0.1 --format xml",
     "invalid value for --format: expected one of text, json, got 'xml'"),
    ("nn mi net.json --base foo", "invalid value for --base: expected one of bits, nats, got 'foo'"),
    ("verify nope", "invalid value for suite: expected one of appendix-identity, layer-equality, "
                    "memory-sandwich, sdpi-fuzz, all, got 'nope'"),
    # A value that looks like an option is still the option's value.
    ("bound layer --n 5 --xi -inf", "flip probability must be in [0, 0.5), got -inf"),
    ("bound layer --n 5 --xi -1e-3", "flip probability must be in [0, 0.5), got -0.001"),
])
def test_usage_errors_are_one_line_and_exit_2(runner, args, message):
    res = runner.invoke(main, args.split())
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


def test_an_option_value_may_follow_an_equals_sign(runner):
    spaced = runner.invoke(main, ["fig", "5", "--points", "2", "--delta", "0.3", "--layers", "3"])
    joined = runner.invoke(main, ["fig", "5", "--points=2", "--delta=0.3", "--layers=3"])
    assert (joined.exit_code, joined.stdout) == (0, spaced.stdout)


@pytest.mark.parametrize("args, names", [
    (["--help"], ["bound", "fig", "mem", "nn", "verify"]),
    (["fig", "--help"], ["2", "3", "5", "6", "8"]),
], ids=["sdpi", "fig"])
def test_help_lists_the_commands(runner, args, names):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stderr) == (0, "")
    listing = res.stdout.split("\ncommands:\n")[1]
    assert [line.split()[0] for line in listing.splitlines()] == names


# The closed-form commands, which must run without numpy.
NUMPY_FREE_COMMANDS = [
    "bound layer --n 5 --xi 0.1",
    "nn bound --widths 3,4 --xi 0.1",
    "nn min-neurons --xi 0.1 --delta 0.3 --layers 3",
    "nn tradeoff --n 5e8 --xi 0.37 --delta 0.4 --max-depth 6",
    "mem overhead --delta 0.3 --intervals 5 --xi 0.1",
    "mem relax --n 5 --xi 0.1 --delta 0.3",
    "fig 2",
    "fig 5",
    "fig 6",
    "fig 8",
]
REPORT_NUMPY = "import sys\nsys.stderr.write(f'numpy loaded: {\"numpy\" in sys.modules}\\n')\n"


@pytest.mark.parametrize("code", [
    "import sdpi\n",
    "import sdpi.cli\n",
    *(
        "import sys, sdpi.cli\n"
        "try:\n"
        f"    sdpi.cli.main({command.split()!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        for command in NUMPY_FREE_COMMANDS
    ),
], ids=["import-sdpi", "import-sdpi-cli", *NUMPY_FREE_COMMANDS])
def test_closed_forms_never_load_numpy(code):
    env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", code + REPORT_NUMPY], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == "numpy loaded: False\n"


@pytest.mark.parametrize("command", NUMPY_FREE_COMMANDS)
def test_closed_forms_import_neither_click_numpy_nor_typing(command):
    # -S leaves site-packages, and any site hook that imports typing itself,
    # out of the interpreter: a closed form needs only the standard library,
    # and of that neither dataclasses (which loads inspect, ast and dis), nor
    # json, which only JSON output loads, nor pathlib, which only --gnuplot does.
    code = (
        "import sys, sdpi.cli\n"
        "try:\n"
        f"    sdpi.cli.main({command.split()!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "heavy = {'click', 'dataclasses', 'inspect', 'json', 'numpy', 'pathlib', 'typing'}\n"
        "sys.stderr.write(f'loaded: {sorted(heavy & set(sys.modules))}\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "loaded: []\n"


@pytest.mark.parametrize("args, lines_read", [
    ("fig 5 --points 20000", 1),  # more than a pipe holds: a write fails
    ("--help", 0),  # fits in stdout's buffer: the flush fails
], ids=["while-writing", "at-the-flush"])
def test_a_reader_that_leaves_ends_the_command_with_status_141_and_no_error(args, lines_read):
    # 141 is 128 + SIGPIPE, the status a shell reports for a writer whose
    # reader left, as under `| head -1`; stdout is buffered, as it is by default.
    env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "sdpi.cli", *args.split()]
    if lines_read:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"# sdpi fig 5 ")
        proc.stdout.close()
    else:  # the reader has left before the command starts, so its first flush fails
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.Popen(command, stdout=write, stderr=subprocess.PIPE, env=env)
        os.close(write)
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (141, b"")


THREADS_AFTER_MATMUL = (
    "import os, sdpi.cli\n"
    "try:\n"
    "    sdpi.cli.main(['verify', 'sdpi-fuzz', '--budget', '50'])\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
)


@pytest.mark.parametrize("preset", [None, "2"], ids=["default", "user-set"])
def test_cli_runs_openblas_on_one_thread_unless_the_user_says_otherwise(preset):
    env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    res = subprocess.run(
        [sys.executable, "-c", THREADS_AFTER_MATMUL], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    value, tasks = res.stdout.split("\n")[-2].split()
    assert value == (preset or "1")
    # With the default, no BLAS thread outlives the suite's batched matmuls.
    if preset is None:
        assert tasks == "1"


def test_closed_form_imports_only_the_stdlib_and_errors():
    tree = ast.parse(Path(sdpi.__file__).with_name("closed_form.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {
        name for name in imported
        if name != ".errors" and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()


def test_every_public_name_resolves_to_its_defining_module():
    for name in sdpi.__all__:
        obj = sdpi.__getattr__(name)
        assert getattr(sdpi, name) is obj
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("sdpi."), name


def test_the_contraction_search_is_gone_but_verify_resolves():
    with pytest.raises(ImportError):
        from sdpi import empirical_contraction  # noqa: F401
    assert sdpi.verify.SUITES


def test_num_keeps_the_sign_of_infinity():
    assert (_num(-math.inf), _num(math.inf)) == ("-inf", "inf")


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sdpi.no_such_name


def test_verify_choices_match_the_suites():
    assert VERIFY_SUITES == tuple(sorted(verify.SUITES))
