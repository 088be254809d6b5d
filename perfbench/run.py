"""indexlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload published|scale|batch \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root: it imports indexlab from ``src/`` and never
from an installed copy. Ops run in a closed loop, one client in this one
process, until ``--seconds`` of op time is measured; inputs are made from
``--seed`` and every op is checked outside the timed interval. Times in
the result are scaled seconds (see ``speed.py``); raw wall times are printed
above the result.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` ops alternate between untraced and traced, and the result
holds the per-layer metrics of ``layers.json``, the n = 29 / 290 / 2900
sweep, the CLI import time and the tracing overhead. ``--smoke`` repeats
each probe once, for the benchmark's own smoke test. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# one client thread: keep numpy's BLAS from starting its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SWEEP_ROWS = (29, 290, 2_900)
SUBPROCESS_TIMEOUT_S = 120
IMPORT_PROBE = ("import time; start = time.perf_counter(); import indexlab.cli; "
                "print(repr(time.perf_counter() - start))")


@dataclass(frozen=True)
class Plan:
    """How many times each probe repeats in one run."""

    setup_probes: int = 7
    cli_runs: int = 7
    min_ops: int = 21  # 10 samples beyond the tail keep it at or above the median
    sweep_reps: int = 3
    import_probes: int = 5


SMOKE = Plan(setup_probes=1, cli_runs=1, min_ops=1, sweep_reps=1, import_probes=1)


@dataclass
class Loop:
    times: list = field(default_factory=list)  # wall seconds per op
    scaled: list = field(default_factory=list)  # scaled seconds per op
    traced: list = field(default_factory=list)  # whether each op was traced
    profiles: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op index, errors)
    speed_samples: list = field(default_factory=list)
    timed_s: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)


def probe_seconds(args: list[str]) -> float:
    """Run a probe that prints its own seconds, in a fresh interpreter."""
    proc = run_python(args)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def cli_golden_diff() -> tuple[float, str | None]:
    """Wall time of the golden-diff subprocess, which must pass every cell."""
    import workloads

    start = time.perf_counter()
    try:
        proc = run_python(["-m", "indexlab.cli", "reproduce", "--golden-diff"])
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "timed out"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or f"{workloads.GOLDEN_CELLS} passed" not in proc.stdout:
        return elapsed, f"exit {proc.returncode}, {proc.stdout.strip().splitlines()[-1:]}"
    return elapsed, None


def check_op(workload, inp, out, references: dict) -> list[str]:
    """The workload's own checks, then byte-identical markdown on a repeat."""
    errors = workload.check(inp, out)
    markdown = out.texts["markdown"]
    key = 0 if inp is None else inp.key
    if workload.rerun_every:
        if key % workload.rerun_every == 0 and workload.op(inp).texts["markdown"] != markdown:
            errors.append("markdown differs when the op is repeated on the same input")
    elif references.setdefault(key, markdown) != markdown:
        errors.append("markdown differs from the first op on the same input")
    return errors


def run_op(workload, inp, loop: Loop, references: dict, tracer=None) -> float:
    """Time one op, then check it; failures are recorded, never raised."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = workload.op(inp)
        errors = None
    except Exception as exc:  # the loop keeps running and reports the failure
        errors = [f"op raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        loop.profiles.append(tracer.take())
    if errors is None:
        try:
            errors = check_op(workload, inp, out, references)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    if errors:
        loop.failures.append((len(loop.times), errors))
    loop.times.append(elapsed)
    return elapsed


def measure(workload, seed: int, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Closed loop: the next op starts when the last one and its checks end.
    With a tracer, odd-numbered ops are traced and even-numbered ones are not."""
    loop = Loop()
    references: dict = {}
    inputs = workload.inputs(seed)
    scale = speed.SpeedScale()
    while loop.timed_s < seconds or len(loop.times) < min_ops:
        traced = tracer is not None and len(loop.times) % 2 == 1
        elapsed = run_op(workload, next(inputs), loop, references,
                         tracer if traced else None)
        loop.timed_s += elapsed
        loop.scaled.append(scale.scale(elapsed))
        loop.traced.append(traced)
    loop.speed_samples = scale.samples
    return loop


def scaled_runs(measure_once, repeats: int) -> tuple[list[float], list[float], list[str]]:
    """Wall and scaled seconds of repeated runs of measure_once, which returns
    (seconds, error or None), and the errors."""
    scale = speed.SpeedScale()
    raw, scaled, errors = [], [], []
    for i in range(repeats):
        seconds, error = measure_once()
        raw.append(seconds)
        scaled.append(scale.scale(seconds))
        if error is not None:
            errors.append(f"run {i}: {error}")
    return raw, scaled, errors


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with 10 samples beyond it, that percentile, and
    the samples beyond it; the maximum when a run has fewer than 11 ops."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def machine_facts(seed: int) -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "client_threads": 1,
    }


def end_to_end(workload, args, plan: Plan) -> tuple[dict, int, int, list]:
    setup_raw, setup, _ = scaled_runs(
        lambda: (probe_seconds([str(HERE / "probe_setup.py")]), None), plan.setup_probes)
    import workloads

    workloads.warm_up()
    loop = measure(workload, args.seed, args.seconds, plan.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cli_raw, cli, cli_errors = scaled_runs(cli_golden_diff, plan.cli_runs)

    tail_value, tail_pct, beyond = tail(loop.scaled)
    ok_ops = len(loop.times) - len(loop.failures)
    attempted = len(loop.times) + plan.cli_runs
    failed = len(loop.failures) + len(cli_errors)
    print(f"speed: reference kernel median {statistics.median(loop.speed_samples):.4f} s "
          f"over {len(loop.speed_samples)} samples in the op loop")
    print(f"wall: setup_s.p50 {statistics.median(setup_raw):.4f} s, "
          f"op_s.p50 {statistics.median(loop.times):.4f} s, "
          f"ops_per_s {ok_ops / loop.timed_s:.4f} 1/s, "
          f"cli_golden_diff_s.p50 {statistics.median(cli_raw):.4f} s")
    print(f"setup_s: median of {len(setup)} fresh processes")
    print(f"op_s.tail is p{tail_pct:.1f} of {len(loop.times)} ops, {beyond} samples beyond it")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted}: "
          f"{len(loop.times)} ops, {plan.cli_runs} cli runs)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(loop.scaled), "s"),
        "op_s.tail": (tail_value, "s"),
        "ops_per_s": (ok_ops / sum(loop.scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_golden_diff_s.p50": (statistics.median(cli), "s"),
    }
    failures = loop.failures + [("cli", [e]) for e in cli_errors]
    return metrics, attempted, failed, failures


def traced(workload, args, plan: Plan) -> tuple[dict, int, int, list]:
    import workloads

    workloads.warm_up()
    tracer = spans.Tracer()
    # at least one untraced and one traced op
    loop = measure(workload, args.seed, args.seconds, max(2, plan.min_ops), tracer)
    metrics = spans.layer_metrics(
        loop.profiles, [t for t, on in zip(loop.times, loop.traced) if on])
    metrics["trace.overhead_s"] = (
        statistics.median([t for t, on in zip(loop.scaled, loop.traced) if on])
        - statistics.median([t for t, on in zip(loop.scaled, loop.traced) if not on]), "s")
    attempted, failed, failures = len(loop.times), len(loop.failures), list(loop.failures)

    for n in SWEEP_ROWS:
        sweep = Loop()
        inputs = workloads.scale_inputs(args.seed, n)
        for _ in range(plan.sweep_reps):
            run_op(workloads.WORKLOADS["scale"], next(inputs), sweep, {}, tracer)
        for layer, value in spans.self_times(sweep.profiles).items():
            if layer != "golden":  # the scale op never diffs against the golden table
                metrics[f"sweep.n{n}.{layer}.self_s"] = (value, "s")
        attempted += len(sweep.times)
        failed += len(sweep.failures)
        failures += [(f"sweep n={n} op {i}", e) for i, e in sweep.failures]

    imports = [probe_seconds(["-c", IMPORT_PROBE]) for _ in range(plan.import_probes)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    if tracer.missing:
        print("not found, so not traced: " + ", ".join(tracer.missing))
    print(f"traced {len(loop.profiles)} of {len(loop.times)} ops; layer metrics are "
          "per-op means over traced ops in wall seconds; sw_distinct_n and "
          "distinct_keys count the run; trace.overhead_s is in scaled seconds")
    print("wait: no layer waits; the program is single-threaded and has no queues")
    for layer, spec in spans.LAYERS.items():
        for move in spec["moves"]:
            print(f"map: {layer} -> {move['metric']} on {move['workload']}: {move['expect']}")
    return metrics, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("published", "scale", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="repeat every probe once (the benchmark's own smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "indexlab" / "__init__.py").is_file():
        print(f"error: no indexlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    plan = SMOKE if args.smoke else Plan()
    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    print(f"# perfbench workload={args.workload} seconds={args.seconds:g} "
          f"trace={args.trace} closed loop, 1 client")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    run = traced if args.trace else end_to_end
    metrics, attempted, failed, failures = run(workload, args, plan)

    for where, errors in failures[:20]:
        print(f"FAILED op {where}: " + "; ".join(errors))
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
