"""Benchmark of the noncrossing library: one workload, one seed, one process.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` of that checkout and nowhere else.  A run repeats whole rounds of
the workload's operations and CLI commands until ``--seconds`` is spent
(at least two rounds), checks every answer after each round, and prints
its metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, from rounds that alternate
untraced and traced, and the spans are written to ``bench/out/``.  The
line before the result is the run record: interpreter, CPU count,
``git describe``, workload, seed and arguments.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from speed import Speedometer
from tracing import SpanTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("diagrams", "tableaux", "duality", "enumeration", "walks", "cli")
MIN_PROBES, MAX_PROBES = 5, 9
MIN_ROUNDS = 2


def load_library():
    """Import noncrossing from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("noncrossing")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"noncrossing was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"noncrossing.{name}") for name in MODULES
    })


def set_up(workload: str, seed: int):
    """Import, build the seeded inputs and warm up: everything before the
    first timed operation."""
    lib = load_library()
    wl = WORKLOADS[workload](lib, seed)
    wl.warm_up(Tracer())
    return lib, wl


def probe_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, from just before it is started
    to its first timed operation.  perf_counter is the system-wide
    monotonic clock, so the child's reading compares with ours."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_round(lib, wl, tracer, speed: Speedometer):
    """One round: every operation, then every CLI command, then the checks.
    Times are scaled to the reference speed (see speed.py)."""
    gc.collect()
    round_start = time.perf_counter()
    first_span = len(tracer.spans) if tracer.traced else 0
    results, op_times, failed = [], [], 0
    for op in wl.operations():
        speed.due()
        start = time.perf_counter()
        try:
            result = op(tracer)
        except Exception as err:  # a failed operation is counted, not fatal
            print(f"operation failed: {type(err).__name__}: {err}", file=sys.stderr)
            results.append(None)
            op_times.append(None)
            failed += 1
            continue
        end = time.perf_counter()
        op_times.append(end - start)
        speed.scale_later(op_times, len(op_times) - 1, start, end)
        results.append(result)

    outputs, cli_times = [], []
    overhead = {True: 0.0, False: 0.0}  # scaled commands, unscaled ones
    for command in wl.commands:
        speed.due()
        span = tracer.open(f"cli.{command.argv[0]}")
        start = time.perf_counter()
        output = run_cli(lib.cli, command.argv)
        end = time.perf_counter()
        tracer.close(span)
        cli_times.append(end - start)
        if command.scaled:
            speed.scale_later(cli_times, len(cli_times) - 1, start, end)
        outputs.append(output)
        failed += output[0] != 0
        if tracer.traced and command.wrapped is not None:
            start = time.perf_counter()
            command.wrapped(tracer)
            overhead[command.scaled] += cli_times[-1] - (time.perf_counter() - start)
    speed.tick()
    timed_end = time.perf_counter()

    counts = wl.split(tracer) if tracer.traced else {}
    problems = []
    for command, (code, stdout, stderr) in zip(wl.commands, outputs):
        problems += command.check(code, stdout, stderr, results)
    round_problems, round_counts = wl.check_round(results, outputs)
    problems += round_problems
    counts.update(round_counts)
    # per-layer times, scaled like the times they add up, and not when
    # they come from a command whose time is reported as measured
    raw_spans = {f"cli.{c.argv[0]}" for c in wl.commands if not c.scaled}
    layers = tracer.totals(first_span) if tracer.traced else {}
    scaled = {"cli.overhead": overhead[True]}
    raw = {"cli.overhead": overhead[False]}
    for name, total in layers.items():
        (raw if name in raw_spans else scaled)[name] = total
    for key in scaled:
        speed.scale_later(scaled, key, round_start, timed_end)
    return {
        "traced": tracer.traced,
        "op_times": op_times,
        "cli_times": cli_times,
        "layers": (scaled, raw),
        "attempted": len(results) + len(outputs),
        "failed": failed,
        "problems": problems,
        "counts": counts,
        "duration": time.perf_counter() - round_start,
    }


def measure(lib, wl, args, tracer: SpanTracer):
    """Rounds until the time is spent, with a set-up probe before the first
    and after each of the first few, so that the probes spread over the run."""
    speed = Speedometer()
    rounds, probes = [], []

    def probe():
        speed.tick()
        start = time.perf_counter()
        probes.append(probe_setup_seconds(args))
        speed.scale_later(probes, len(probes) - 1, start, time.perf_counter())
        speed.tick()

    probe()
    loop_start = time.perf_counter()
    while True:
        traced = args.trace and len(rounds) % 2 == 1
        rounds.append(run_round(lib, wl, tracer if traced else Tracer(), speed))
        if len(probes) < MAX_PROBES:
            probe()
        elapsed = time.perf_counter() - loop_start
        kinds = [r["traced"] for r in rounds]
        enough = kinds.count(False) >= MIN_ROUNDS and (
            not args.trace or kinds.count(True) >= MIN_ROUNDS)
        next_round = max(r["duration"] for r in rounds[-2:])
        if enough and elapsed + next_round > args.seconds:
            break
    while len(probes) < MIN_PROBES:
        probe()
    speed.finish()
    return rounds, probes, speed


def per_op_medians(rounds, key):
    """Per operation (or command), the median of its scaled times over the
    rounds in which it did not fail."""
    columns = zip(*(r[key] for r in rounds))
    return [statistics.median(t for t in column if t is not None)
            for column in columns if any(t is not None for t in column)]


def end_to_end(rounds, probes) -> dict[str, float]:
    plain = [r for r in rounds if not r["traced"]]
    ops = per_op_medians(plain, "op_times")
    return {
        "setup_s": statistics.median(probes),
        "wall_s": sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * statistics.quantiles(ops, n=10)[-1],
        "cli_s": sum(per_op_medians(plain, "cli_times")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rounds, specs) -> dict[str, float]:
    """Each layer's summed span time in a traced round, the median over the
    traced rounds; counts as the round reports them.  A layer the workload
    never calls reads 0."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {}
    for spec in specs:
        name = spec["name"]
        span = name.removesuffix("_s")
        if spec["unit"] == "count":
            values[name] = traced[-1]["counts"].get(name, 0)
        elif name == "trace.overhead_s":
            values[name] = (sum(per_op_medians(traced, "op_times"))
                            - sum(per_op_medians(plain, "op_times")))
        else:
            values[name] = statistics.median(
                sum(part.get(span, 0.0) for part in r["layers"]) for r in traced)
    return values


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_CONFIG_NOSYSTEM="1")
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(time.perf_counter())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib, wl = set_up(args.workload, args.seed)
    tracer = SpanTracer()
    rounds, probes, speed = measure(lib, wl, args, tracer)

    if args.trace:
        metrics = per_layer(rounds, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(rounds, probes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_describe": git_describe(),
        "workload": args.workload,
        "seed": args.seed,
        "args": vars(args),
        "rounds": len(rounds),
        "traced_rounds": sum(r["traced"] for r in rounds),
        "setup_probes_s": probes,
        "reference_loop_median_s": statistics.median(speed.samples),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({"record": record}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans"] = str(path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
