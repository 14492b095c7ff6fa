"""Byte-for-byte pins of the CLI contract.

Every case runs one ``sdpi`` invocation and compares its exit code, its
stdout and every file it writes (``--out`` and the ``.gp`` script next
to it) with ``cli_golden.json``.  The commands in ``KERNEL_DEPENDENT``
print full-precision floats from kernels whose accuracy is tested on its
own (mutual information, the Rayleigh pencil, the binomial tail): their
stdout is pinned byte for byte apart from the numbers, which must agree
to ``KERNEL_RTOL``.  A second test pins the option names of every
subcommand in declaration order.  ``{dir}`` in a case stands for a
directory holding the input files below; output paths are relative to
it too, so no path reaches the pinned bytes.

Regenerate the golden file only for an intended change of the contract:
``PYTHONPATH=src python tests/test_cli_bytes.py``.
"""

import json
import re
import shlex
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from sdpi.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

KERNEL_DEPENDENT = ("nn mi", "mem reptime", "verify sdpi-fuzz", "verify appendix-identity",
                    "verify memory-sandwich")
KERNEL_RTOL = 1e-9
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

INPUTS = {
    "bsc.json": '{"rows": [[0.9, 0.1], [0.1, 0.9]]}',
    "chan.csv": "0.5,0.3,0.2\n0.1,0.6,0.3\n0.25,0.25,0.5\n",
    "px.json": '{"probs": [0.4, 0.3, 0.2, 0.1]}',
    "net.json": json.dumps({
        "xi": 0.1,
        "input_width": 2,
        "layers": [
            {"neurons": [{"weights": [2.0, 0.0], "bias": -1.0},
                         {"weights": [1.0, 1.0], "bias": -1.5}]},
            {"neurons": [{"weights": [1.0, -1.0], "bias": 0.0}]},
        ],
    }),
}

TEXT_JSON = [
    "bound channel {dir}/bsc.json",
    "bound channel {dir}/chan.csv",
    "bound layer --n 3 --xi 0.1",
    "bound layer --xi 0.3 --n 2000",
    "bound layer --n 5 --xi1 0.02 --xi2 0.35",
    "nn mi {dir}/net.json",
    "nn mi {dir}/net.json --px {dir}/px.json --base nats",
    "nn bound --widths 5,5,5 --xi 0.35 --hx 1",
    "nn min-neurons --xi 0.37 --delta 0.4 --layers 4",
    "nn min-neurons --layers 4 --delta 0.4 --xi 0.45",
    "nn tradeoff --n 5e8 --xi 0.37 --delta 0.4 --max-depth 6",
    "mem overhead --delta 0.4 --intervals 100 --xi 0.1",
    "mem relax --n 9 --xi 0.3 --delta 0.4",
    "mem reptime --n 9 --xi 0.3 --delta 0.4",
    "mem reptime --n 41 --xi 0.01 --delta 0.1",
    "verify layer-equality",
    "verify memory-sandwich",
    "verify sdpi-fuzz --budget 60 --seed 3",
    "verify appendix-identity --seed 5 --budget 25",
]

CASES = [
    *TEXT_JSON,
    *(case + " --format json" for case in TEXT_JSON),
    "nn bound --format json --xi 0.2 --widths 3,1 --hx 2.5",
    "verify sdpi-fuzz --budget 3000 --seed 1405303632 --format json",
    "mem simulate --n 5 --xi 0.2 --delta 0.3 --intervals 4 --trials 500 --seed 9",
    "mem simulate --seed 3 --trials 200 --intervals 3 --delta 0.25 --xi 0.15 --n 6",
    "fig 2",
    "fig 2 --points 4 --seed 7 --xi-max 0.3 --n 5",
    "fig 3",
    "fig 3 --points 3 --xi1-max 0.05 --xi2 0.3",
    "fig 5 --points 3",
    "fig 5 --layers 3 --xi-min 0.2 --delta 0.1 --points 2 --layers 5 --delta 0.35",
    "fig 6",
    "fig 6 --seed 4 --max-depth 4 --n 1e6",
    "fig 8 --t-max 3",
    "fig 8 --pair 0.2,0.05 --t-max 4 --seed 2 --pair 0.45,0.3",
    "fig 2 --points 5 --out {dir}/fig2.csv --gnuplot",
    "fig 6 --out {dir}/fig6.csv",
    "mem simulate --n 3 --xi 0.1 --delta 0.2 --intervals 2 --trials 50 --out {dir}/sim.csv",
    "nn tradeoff --max-depth 5 --delta 0.4 --xi 0.37 --n 5e8 --out {dir}/tradeoff.txt",
    "bound layer --n 4 --xi 0.2 --format json --out {dir}/layer.json",
]


def _leaves(group, path=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _leaves(cmd, path + (name,))
        else:
            yield " ".join(path + (name,)), cmd


def option_names() -> dict:
    return {path: [[p.name, *p.opts] for p in cmd.params] for path, cmd in _leaves(main)}


def run_case(case: str, workdir: Path) -> dict:
    args = shlex.split(case.replace("{dir}", str(workdir)))
    res = CliRunner().invoke(main, args)
    record = {"exit": res.exit_code, "stdout": res.stdout}
    if "--out" in args:
        out = Path(args[args.index("--out") + 1])
        record["files"] = {
            p.name: p.read_text() for p in (out, out.with_suffix(".gp")) if p.exists()
        }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def workdir(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("case", CASES)
def test_output_bytes(case, golden, workdir):
    got, want = run_case(case, workdir), dict(golden["outputs"][case])
    if case.startswith(KERNEL_DEPENDENT):
        got_text, want_text = got.pop("stdout"), want.pop("stdout")
        assert NUMBER.sub("#", got_text) == NUMBER.sub("#", want_text)
        assert [float(x) for x in NUMBER.findall(got_text)] == pytest.approx(
            [float(x) for x in NUMBER.findall(want_text)], rel=KERNEL_RTOL, abs=0.0)
    assert got == want


def test_option_names(golden):
    assert option_names() == golden["options"]


# The output options ``_command`` puts after a command's own: --format and
# --out unless the command or its group is listed here.
OUTPUT_OPTIONS = {"fig": ["--out", "--gnuplot"], "mem simulate": ["--out"]}
OUTPUT_NAMES = {"--format", "--out", "--gnuplot"}


def test_output_options_close_every_command():
    commands = dict(_leaves(main))
    assert len(commands) == 16
    for path, cmd in commands.items():
        want = OUTPUT_OPTIONS.get(path, OUTPUT_OPTIONS.get(path.split()[0], ["--format", "--out"]))
        names = [p.opts[0] for p in cmd.params]
        assert names[-len(want):] == want, path
        assert not OUTPUT_NAMES & set(names[:-len(want)]), path


@pytest.mark.parametrize("path", [path for path, _ in _leaves(main) if path.startswith("fig ")])
def test_gnuplot_without_out_exits_2(path):
    res = CliRunner().invoke(main, [*path.split(), "--gnuplot"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "error: --gnuplot requires --out (the script references the CSV)\n"


def test_every_subcommand_is_pinned():
    for path, _ in _leaves(main):
        assert any(case.startswith(path + " ") for case in CASES), path


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for case in CASES:
            workdir = Path(tmp) / f"case{len(outputs)}"
            workdir.mkdir()
            for name, text in INPUTS.items():
                (workdir / name).write_text(text)
            outputs[case] = run_case(case, workdir)
    GOLDEN.write_text(json.dumps({"outputs": outputs, "options": option_names()},
                                 indent=1, sort_keys=True) + "\n")
