"""sdpi benchmark: per-invocation cost of the CLI, and a layer trace.

Usage, from the repository root, with ``--seconds`` set to BENCHMARK.json's
``run_seconds`` (``--workload all --trace 0`` runs the four workloads in turn):

    python3 perfbench/run.py --workload cli-closed-form --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it runs the workload's invocation sequence (one pass)
as ``python -m sdpi.cli`` subprocesses of the working tree's ``src/``,
one at a time (closed loop, one client), repeating whole passes while
at least half a pass still fits in ``--seconds``.  Wall time comes from
``perf_counter``; CPU time and peak RSS from each child's own
``os.wait4`` rusage.  End-to-end metrics:

    setup_s            median wall time of a fresh ``import sdpi.cli``
    wall_s, cpu_s      wall / CPU time of one pass, averaged over the
                       passes so that it covers the whole measured window
    invocation_p50_s   median wall time per invocation
    invocation_tail_s  highest percentile with 10 invocations beyond it
                       (with 1 beyond it below 21 invocations)
    peak_rss_mb        largest peak RSS of one invocation
    success_ratio      invocations whose exit code and output check
                       passed, over invocations attempted

Every output is checked against an independent oracle (oracle.py), and
each checker is fed corrupted copies of the first pass's outputs to show
that it catches them.

With ``--trace 1`` it runs the same passes in-process through click's
test runner, alternating an untraced pass with a traced one, and reports
per-layer metrics from the first traced pass (see tracing.py).  A traced
run takes one workload, so that each starts in a fresh interpreter.

The last line of standard output is the result object; the line before
it describes the run (machine, versions, revision, sample counts).
Workload names, reasons and metric units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

from tracing import Tracer, import_times  # noqa: E402
from workloads import NETWORKS, build  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROGRAM = [sys.executable, "-m", "sdpi.cli"]
SETUP = [sys.executable, "-c", "import sdpi.cli"]
# setup_s is the median of this many fresh interpreters.
SETUP_REPEATS = 5
# The tail is the highest percentile with this many invocations beyond it.
TAIL_BEYOND = 10


@dataclass
class Run:
    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], env: dict) -> Run:
    """One child, timed; rusage is this child's alone (os.wait4), not the
    running maximum over all children that RUSAGE_CHILDREN reports."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Run(proc.returncode, out, err.read(), wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it.  With too few samples for that percentile to lie
    above the median, one sample beyond it: the second-highest, which a
    single slow invocation does not move."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < len(s) // 2:
        k = max(len(s) - 2, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def verdict(inv, rc: int, out: bytes) -> str | None:
    """The invocation's check, with output it cannot parse as a failure."""
    try:
        return inv.check(rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output ({exc!r})"


def check_outputs(results, first_pass) -> dict:
    """Count failed checks, and run the self-test: every checker must
    reject each corrupted copy of its first-pass output.  Repeated outputs
    of one invocation are checked once."""
    verdicts = {}
    failures = []
    for inv, rc, out in results:
        key = (id(inv), rc, out)
        if key not in verdicts:
            verdicts[key] = verdict(inv, rc, out)
        if verdicts[key]:
            failures.append(f"{' '.join(inv.args)}: {verdicts[key]}")
    corrupted = [(inv, rc, bad(out)) for inv, rc, out in first_pass for bad in inv.corruptions]
    missed = [" ".join(inv.args) for inv, rc, out in corrupted if verdict(inv, rc, out) is None]
    return {"failed": len(failures), "failures": failures[:5],
            "self_test": {"corrupted": len(corrupted), "caught": len(corrupted) - len(missed),
                          "missed": missed}}


def run_subprocesses(invocations, seconds: float, env: dict) -> tuple[dict, dict]:
    spawn(SETUP, env)  # fill the bytecode cache, as an installed package has it
    setups = [spawn(SETUP, env) for _ in range(SETUP_REPEATS)]
    if any(s.rc for s in setups):
        raise RuntimeError(f"import sdpi.cli failed: {setups[0].err.decode()[-500:]}")
    # Whole passes only, so every run has the same mix of invocations;
    # another pass starts while at least half of it fits in `seconds`.
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.mean(w for w, _ in passes) / 2 < seconds):
        t0 = time.perf_counter()
        runs = [spawn(PROGRAM + inv.args, env) for inv in invocations]
        passes.append((time.perf_counter() - t0, runs))

    runs = [r for _, pass_runs in passes for r in pass_runs]
    walls = [r.wall for r in runs]
    tail_s, tail_pct = tail(walls)
    results = [(inv, r.rc, r.out) for _, pass_runs in passes
               for inv, r in zip(invocations, pass_runs)]
    report = check_outputs(results, results[:len(invocations)])
    metrics = {
        "setup_s": statistics.median(s.wall for s in setups),
        "wall_s": statistics.mean(w for w, _ in passes),
        "invocation_p50_s": statistics.median(walls),
        "invocation_tail_s": tail_s,
        "cpu_s": statistics.mean(sum(r.cpu for r in pass_runs) for _, pass_runs in passes),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "success_ratio": 1.0 - report["failed"] / len(runs),
    }
    report.update(
        attempted=len(runs), passes=len(passes),
        invocation_tail_s={"percentile": tail_pct, "samples": len(runs)},
        per_invocation={f"{i:02d}: {' '.join(inv.args)}": {
            "wall_s_median": statistics.median(p[1][i].wall for p in passes),
            "peak_rss_mb": max(p[1][i].rss_mb for p in passes)}
            for i, inv in enumerate(invocations)},
        stderr=sorted({r.err.decode()[-300:] for r in runs if r.err}))
    return metrics, report


def run_traced(invocations, seconds: float, env: dict, spans_path: Path,
               metric_names) -> tuple[dict, dict]:
    imports = import_times(sys.executable, env, ROOT)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sdpi.cli
    import_s = time.perf_counter() - t0
    from click.testing import CliRunner

    runner = CliRunner()

    def invoke(args):
        result = runner.invoke(sdpi.cli.main, args)
        return result.exit_code, result.stdout_bytes

    results, untraced, traced = [], [], []
    first = None
    start = time.perf_counter()
    while first is None or (time.perf_counter() - start
                            + statistics.mean(untraced + traced) < seconds):
        t = time.perf_counter()
        results += [(inv, *invoke(inv.args)) for inv in invocations]
        untraced.append(time.perf_counter() - t)

        tracer = Tracer()
        call = tracer.wrap("cli.main", invoke)
        tracer.install()
        try:
            t = time.perf_counter()
            outs = [(inv, *call(inv.args)) for inv in invocations]
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        results += outs
        if first is None:
            first = (tracer, outs)

    tracer, outs = first
    report = check_outputs(results, outs)
    _, inclusive, own = tracer.totals()
    metrics = dict(imports)
    metrics.update(tracer.layer_metrics(
        [m for m in metric_names if not m.startswith(("import.", "cli.", "trace."))]))
    metrics["cli.self_s"] = own["cli.main"]
    metrics["cli.bytes_out"] = sum(len(out) for _, _, out in outs)
    # The library spans inside cli.main, not cli.main itself, which covers
    # the whole pass: a layer missing from the trace lowers the ratio.
    library_s = inclusive["cli.main"] - own["cli.main"]
    metrics["trace.coverage_ratio"] = (import_s + library_s) / (import_s + traced[0])
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    spans_path.write_text(json.dumps(tracer.dump()))
    report.update(attempted=len(results), traced_passes=len(traced), spans=len(tracer.names),
                  spans_file=str(spans_path.relative_to(ROOT)), import_s=import_s,
                  self_s_top=dict(own.most_common(12)))
    return metrics, report


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_bytes": None, "l3_bytes": None, "platform": platform.platform()}
    try:
        with open("/proc/meminfo") as f:
            info["mem_bytes"] = next(int(l.split()[1]) * 1024 for l in f if l.startswith("MemTotal"))
        for cache in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (cache / "level").read_text().strip() == "3":
                size = (cache / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                info["l3_bytes"] = int(size.rstrip("KMG")) * scale
    except (OSError, StopIteration, ValueError):
        pass
    return info


def versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "click"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        rev = proc.stdout.strip() or None
    return {"git": rev, "src_sha256": digest.hexdigest()}


def run_workload(name: str, why: str, args, units: dict) -> tuple[dict, dict]:
    """One run of one workload: the run description and the result object."""
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        invocations = build(name, args.seed, inputs)
        if args.trace:
            spans = WORK / f"spans-{name}-seed{args.seed}.json"
            metrics, report = run_traced(invocations, args.seconds, env, spans, units)
        else:
            metrics, report = run_subprocesses(invocations, args.seconds, env)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    run_info = {"workload": name, "why": why, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "machine": machine(), "versions": versions(),
                "revision": revision(),
                "largest_noise_matrix_bytes": 8 << (2 * max(max(w) for _, w in NETWORKS)),
                **report}
    return run_info, {
        "correct": report["failed"] == 0 and not report["self_test"]["missed"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main() -> int:
    # Terminating the benchmark unwinds through spawn(), which then kills
    # and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sdpi" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no sdpi source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time: BENCHMARK.json's run_seconds, and nothing else")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Runs of another length would not compare with the recorded ones.
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be BENCHMARK.json's run_seconds, {spec['run_seconds']}")
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 takes one workload, so that each starts in a fresh interpreter")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    for name in workloads if args.workload == "all" else [args.workload]:
        run_info, result = run_workload(name, workloads[name], args, units)
        print(json.dumps(run_info, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
