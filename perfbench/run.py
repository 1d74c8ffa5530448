"""crnkit benchmark: one workload per run, as a closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One caller in one process (no threads of its own) works through the
workload's fixed task list in whole passes, starting each task only when
the previous one has returned: one untimed warm-up pass, then
max(2, round(S / 12 s)) timed passes, with gc.collect() between passes.  Every output is checked (checks.py) and every timed pass
must reproduce the warm-up pass's outputs exactly.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: tasks_per_s (tasks per
pass over the median pass time), task_p50_ms and task_tail_ms (over each
task's median latency across the timed passes; the tail is the highest
value with ten tasks above it), setup_s (median of fresh interpreters,
each importing crnkit and building the workload, started three at a time
before the warm-up pass and after every pass) and
peak_rss_mb (taken before any oracle import).  With --trace 1 they are the
per-layer metrics of tracing.py, from traced passes that alternate with
as many untraced ones; the spans are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in the set-up
# interpreters, which inherit this environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("classify-batch", "cli-reports")
# seconds one pass of either workload takes on the reference machine
# (README); fixes the pass count from --seconds without timing anything, so
# every run of a workload does the same work
NOMINAL_PASS_S = 12.0
MIN_PASSES = 2
SETUP_PER_GAP = 3
TAIL_BEYOND = 10

# run in a fresh interpreter: import crnkit and build the workload, then
# report readiness (the moment the first task could start)
_SETUP_CHILD = """
import shutil, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
work = Path({work!r})
workloads.build({name!r}, {seed!r}, work)
print("ready", flush=True)
shutil.rmtree(work, ignore_errors=True)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import crnkit from this checkout's src/ and nowhere else."""
    if not (SRC / "crnkit" / "__init__.py").is_file():
        fail(f"no crnkit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import crnkit

    if Path(crnkit.__file__).resolve().parent != (SRC / "crnkit").resolve():
        fail(f"imported crnkit from {crnkit.__file__}, not from {SRC}")


def measure_setup(name: str, seed: int) -> list[float]:
    """Times from process start to the built workload, one per fresh
    interpreter, SETUP_PER_GAP of them."""
    times = []
    for _ in range(SETUP_PER_GAP):
        code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed,
                                   work=str(OUT / f"setup-{os.getpid()}"))
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            status = child.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            fail(f"set-up interpreter for {name} exited with {status}")
        times.append(ready - start)
    return times


def _feed(h, obj) -> None:
    if hasattr(obj, "tobytes"):
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for v in obj:
            _feed(h, v)
    elif hasattr(obj, "__dataclass_fields__"):
        _feed(h, {f: getattr(obj, f) for f in obj.__dataclass_fields__})
    else:
        h.update(repr(obj).encode())


def digest(output) -> str:
    h = hashlib.sha256()
    _feed(h, output)
    return h.hexdigest()


def capture(output):
    """Outputs written to a file (CLI calls) are read back as bytes."""
    if isinstance(output, dict) and "out" in output:
        output = dict(output, bytes=Path(output["out"]).read_bytes())
        del output["out"]
    return output


def run_pass(tasks, tracer=None):
    """One closed-loop pass: (latencies, outputs, errors)."""
    latencies, outputs, errors = [], [], []
    clock = time.perf_counter
    for task in tasks:
        span = (contextlib.nullcontext() if tracer is None else
                tracer.span("task", {"task": task.name, "stratum": task.stratum}))
        try:
            with span:
                start = clock()
                out = task.run()
                latencies.append(clock() - start)
            outputs.append(capture(out))
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(None)
            outputs.append(None)
            errors.append(f"{task.name}: {type(exc).__name__}: {exc}")
    return latencies, outputs, errors


def check_outputs(workload, outputs) -> list[str]:
    import checks
    import workloads

    kept = [(t, o) for t, o in zip(workload.tasks, outputs) if o is not None]
    view = type(workload)(workload.name, workload.seed, [t for t, _ in kept],
                          workload.context)
    outs = [o for _, o in kept]
    if workload.name == "classify-batch":
        return checks.check_classify_batch(view, outs)
    return checks.check_cli_reports(view, outs, workloads.CLI_SIM_T_END / 4)


def tail(samples: list[float]) -> float:
    """The highest value with at least TAIL_BEYOND values above it."""
    ordered = sorted(samples)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def per_task_median(rows: list[list]) -> list[float]:
    """Each task's median latency over the timed passes (failed calls,
    recorded as None, are left out)."""
    out = []
    for column in zip(*rows):
        done = [x for x in column if x is not None]
        if done:
            out.append(statistics.median(done))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracing import Tracer, layer_metrics

    name, seed = args.workload, args.seed
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S))
    work_dir = OUT / f"run-{os.getpid()}"
    tracer = Tracer() if args.trace else None

    # set-up is timed between passes too, so that its median, like the
    # task latencies, spans the whole run rather than its first seconds
    setup_times = []
    if tracer is None:
        setup_times += measure_setup(name, seed)
        workload = workloads.build(name, seed, work_dir)
    else:
        with tracer.installed(), tracer.span("setup"):
            workload = workloads.build(name, seed, work_dir)
    tasks = workload.tasks

    try:
        _, reference, errors = run_pass(tasks)
        if tracer is None:
            setup_times += measure_setup(name, seed)
        ref_digests = [None if o is None else digest(o) for o in reference]
        attempted, problems = len(tasks), []

        def timed_pass(traced):
            """One timed pass: (pass time, per-task latencies)."""
            gc.collect()
            if traced:
                with tracer.installed():
                    lat, outs, errs = run_pass(tasks, tracer)
            else:
                lat, outs, errs = run_pass(tasks)
            errors.extend(errs)
            for task, out, ref in zip(tasks, outs, ref_digests):
                if out is not None and digest(out) != ref:
                    problems.append(f"{task.name}: output differs from the warm-up pass")
            return sum(x for x in lat if x is not None), lat

        if tracer is None:
            pass_times, rows = [], []
            for _ in range(passes):
                pass_time, latencies = timed_pass(False)
                pass_times.append(pass_time)
                rows.append(latencies)
                setup_times += measure_setup(name, seed)
            attempted += passes * len(tasks)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            # alternate untraced and traced passes so that drift in the
            # machine's speed does not pass for tracing overhead
            n = max(1, passes // 2)
            plain, traced = [], []
            for _ in range(n):
                plain.append(timed_pass(False)[0])
                traced.append(timed_pass(True)[0])
            attempted += 2 * n * len(tasks)
        gc.collect()
        problems += check_outputs(workload, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in (errors + problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    if tracer is None:
        latency = per_task_median(rows)
        metrics = {
            "tasks_per_s": {"value": len(tasks) / statistics.median(pass_times), "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(latency) * 1e3, "unit": "ms"},
            "task_tail_ms": {"value": tail(latency) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        ratio = statistics.median(plain) / statistics.median(traced)
        metrics = layer_metrics(tracer.spans, ratio)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{name}-{seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "fields": ["name", "start", "end",
                       "parent", "info"], "spans": tracer.spans}, fh)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
