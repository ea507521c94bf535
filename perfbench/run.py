"""Benchmark of the pendulum-vib CLI, driven in-process through cli.main(argv).

    python3 perfbench/run.py --workload domain-map --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client runs ops in a closed loop for
--seconds: the next op starts when the previous one, and the check of its
output, are done.  Inputs come from --seed only (see inputs.py).  The last
line of stdout is a JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the full record (seed, input digest, machine,
latency tail percentile, failed ops); the same record is written under
perfbench/out/.  Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy is imported anywhere in this process.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("PENDULUM_VIB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("domain-map", "portrait", "compare")
OUT = Path("perfbench") / "out"
WORK = OUT / "work"
SETUP_RUNS = 9
# Enough ops that the tail percentile has ten samples beyond it.
MIN_OPS = 21
# Single ops stalled by other work on the host decide the 99th percentile of a
# whole domain-map run (its ten-seed spread reached 0.18); the tail of each
# 200-op window (the 95th percentile), as a median over windows, is steady.
TAIL_WINDOW = 200
# Stop measuring after this long whatever --seconds says, to exit in time.
HARD_STOP_S = 120.0
# The host's clock speed drifts by up to a third over minutes, which moves every
# time alike.  A fixed pure-Python probe is timed around each op and before each
# set-up import, and the reported times are scaled to the probe's reference
# duration (its typical time on the baseline machine).  Wall-clock values go to
# the record.
PROBE_LOOPS = 20_000
PROBE_REF_S = 1.6e-3
# The traced run executes a fixed prefix of the pool, so its counters repeat.
TRACE_OPS = {"domain-map": 200, "portrait": 6, "compare": 2}

CALLS = (
    "potential.find_equilibria", "potential.classify_domain", "potential.v_bar",
    "potential.dv", "dynamics.full_rhs", "dynamics.rk4_step", "dynamics.reduced_rhs",
    "dynamics.sample_at", "dynamics.compare_full_averaged", "excitation.eval_velocity",
    "excitation.velocity_moments",
)
SELF_MS = (
    "cli.main", "potential.find_equilibria", "potential.equilibrium_report",
    "potential.v_bar", "potential.dv", "portrait.build_grid", "portrait.extract_contours",
    "portrait.grid_to_csv", "portrait.contours_to_csv", "portrait.render_svg",
    "dynamics.integrate.full", "dynamics.full_rhs", "dynamics.integrate.reduced",
    "dynamics.reduced_rhs", "dynamics.sample_at", "excitation.eval_velocity",
    "excitation.load_excitation", "excitation.velocity_moments", "excitation.check_symmetry",
)
COUNTS = (
    "potential.equilibria_found", "portrait.polylines", "portrait.segments",
    "dynamics.integrate.full.steps", "dynamics.integrate.reduced.steps", "cli.bytes_out",
)
LAYER_NAMES = ("cli",) + spans.LAYERS


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe() -> float:
    """Best of two timings of a fixed pure-Python loop: the host's current speed."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(src: Path) -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter takes to import pendulum_vib.cli, per run:
    as measured, and scaled by the probe."""
    code = (
        "import time; t = time.perf_counter(); import pendulum_vib.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    wall, scaled = [], []
    for k in range(SETUP_RUNS + 1):  # the first run also writes bytecode caches
        speed = probe()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
            timeout=60,
        )
        if k:
            wall.append(float(out.stdout))
            scaled.append(wall[-1] * PROBE_REF_S / speed)
    return wall, scaled


def environment(root: Path) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "PENDULUM_VIB_THREADS": os.environ.get("PENDULUM_VIB_THREADS"),
    }


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            return next(int(ln.split()[1]) for ln in f if ln.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def run_op(main, op) -> tuple[int, str, float, str | None]:
    """One CLI invocation: exit code, stdout, seconds, and an exception if one escaped."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = -1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed, error


def bytes_out(op, stdout: str) -> int:
    n = len(stdout.encode())
    if op.out_dir and os.path.isdir(op.out_dir):
        n += sum(e.stat().st_size for e in os.scandir(op.out_dir))
    return n


class Loop:
    """Closed loop over a pool of ops; collects latencies, probe times and failures."""

    def __init__(self, main, pool, checker):
        self.main = main
        self.pool = pool
        self.checker = checker
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failures: list[dict] = []
        self.next = 0

    def step(self, op, after=None) -> None:
        before = probe()
        code, stdout, elapsed, error = run_op(self.main, op)
        speed = 0.5 * (before + probe())
        reason = error or self.checker(op, code, stdout)
        if after is not None:
            after(op, stdout)
        if op.out_dir:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        self.latencies.append(elapsed)
        self.probes.append(speed)
        if reason is not None:
            self.failures.append({"op": list(op.argv), "reason": reason})

    def scaled(self, first: int = 0) -> list[float]:
        """Latencies from op first on, scaled to the probe's reference speed."""
        return [
            t * PROBE_REF_S / p for t, p in zip(self.latencies[first:], self.probes[first:])
        ]

    def run_for(self, seconds: float) -> None:
        """Cycle the pool for seconds of wall time."""
        t0 = time.perf_counter()
        first = len(self.latencies)
        while True:
            done = len(self.latencies) - first
            wall = time.perf_counter() - t0
            if (wall >= seconds and done >= MIN_OPS) or wall >= HARD_STOP_S:
                break
            self.step(self.pool[self.next % len(self.pool)])
            self.next += 1


def latency_metrics(latencies: list[float]) -> dict:
    """Rate, median and tail of op latencies.  The tail is the highest
    percentile that still has at least ten samples beyond it, taken in each
    window of TAIL_WINDOW consecutive ops and reported as the median over the
    windows; a run shorter than two windows is one window."""
    n = len(latencies)
    size = TAIL_WINDOW if n >= 2 * TAIL_WINDOW else n
    k = max(size - 11, 0)
    tails = [sorted(latencies[i:i + size])[k] for i in range(0, n - size + 1, size)]
    return {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * statistics.median(tails),
        "op_tail_percentile": 100.0 * (k + 1) / size,
        "op_tail_samples_beyond": size - 1 - k,
        "op_tail_windows": len(tails),
    }


def end_to_end(loop: Loop, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    n = len(loop.latencies)
    scaled = latency_metrics(loop.scaled())
    wall = latency_metrics(loop.latencies)
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "ok_ratio": ((n - len(loop.failures)) / n, "ratio"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall["setup_s"] = statistics.median(setup[0])
    extra = {
        "ops": n,
        "op_tail_percentile": scaled["op_tail_percentile"],
        "op_tail_samples_beyond": scaled["op_tail_samples_beyond"],
        "op_tail_windows": scaled["op_tail_windows"],
        "failed_ratio": len(loop.failures) / n,
        "wall_clock": wall,
        "setup_runs_s": setup[0],
        "probe_ms": {
            "reference": 1e3 * PROBE_REF_S,
            "median": 1e3 * statistics.median(loop.probes),
        },
    }
    return metrics, extra


def known_defects(main) -> list[dict]:
    """Run inputs.KNOWN_DEFECT_POINTS once, untimed, with the domain-map check.
    Their failures go to the record; they are not ops of the workload."""
    found = []
    for k, (a, b) in enumerate(inputs.KNOWN_DEFECT_POINTS):
        op = inputs.equilibria_op(a, b, "known-defect", k)
        code, stdout, _, error = run_op(main, op)
        found.append({"op": list(op.argv), "reason": error or checks.check_equilibria(op, code, stdout)})
    return found


def traced(pkg, loop: Loop, workload: str) -> tuple[dict, dict, spans.Recorder]:
    """Run the traced prefix of the pool under the span recorder."""
    rec = spans.Recorder()
    ops = loop.pool[: TRACE_OPS[workload]]

    def count_bytes(op, stdout):
        rec.counters["cli.bytes_out"] += bytes_out(op, stdout)

    main = loop.main
    loop.main = lambda argv: rec.call("cli.main", main, argv)
    rec.install(pkg)
    first = len(loop.latencies)
    try:
        for k, op in enumerate(ops):
            rec.op_id = k
            loop.step(op, after=count_bytes)
    finally:
        rec.uninstall()
        loop.main = main
    n = len(ops)
    traced_ops_per_s = n / sum(loop.scaled(first))
    calls, self_s = spans.totals_by_name(rec)
    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "calls/op")
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (1e3 * self_s.get(name, 0.0) / n, "ms/op")
    for name in COUNTS:
        m[name] = (rec.counters[name] / n, "B/op" if name == "cli.bytes_out" else "count/op")
    fe_calls = calls.get("potential.find_equilibria", 0)
    red_calls = calls.get("dynamics.integrate.reduced", 0)
    # With no attempts nothing is wasted: the ratio is 1.
    m["potential.find_equilibria.useful_ratio"] = (
        rec.distinct_count("potential.find_equilibria") / fe_calls if fe_calls else 1.0, "ratio")
    m["dynamics.reduced.useful_ratio"] = (
        rec.distinct_count("dynamics.reduced") / red_calls if red_calls else 1.0, "ratio")
    m["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    total_self = sum(self_s.values())
    shares = {
        layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / total_self
        for layer in LAYER_NAMES
    }
    extra = {"traced_ops": n, "self_share": shares, "spans": len(rec.start)}
    return m, extra, rec


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "pendulum_vib" / "cli.py").is_file():
        print("error: run from the root of a pendulum-vib checkout (src/pendulum_vib missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pendulum_vib
    from pendulum_vib import cli

    setup = ([], []) if args.trace else measure_setup(src)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        pool = inputs.generate(args.workload, args.seed, WORK.as_posix())
        for op in pool:
            for path, text in op.files:
                Path(path).write_text(text, encoding="utf-8")
        loop = Loop(cli.main, pool, checks.Checker(args.workload))
        # Warm-up: first-call costs inside the process are not per-invocation costs.
        run_op(cli.main, pool[0])
        if pool[0].out_dir:
            shutil.rmtree(pool[0].out_dir, ignore_errors=True)
        # A fresh CLI process never scans the benchmark's pool in a full garbage
        # collection; keep the objects that exist now out of the collector's way.
        gc.freeze()

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs_digest": inputs.digest(pool),
            "pool_size": len(pool),
            "environment": environment(root),
        }
        if args.trace:
            loop.run_for(args.seconds / 2.0)
            untraced = len(loop.latencies) / sum(loop.scaled())
            metrics, extra, rec = traced(pendulum_vib, loop, args.workload)
            metrics["trace.overhead_ops_per_s"] = (untraced - metrics["trace.ops_per_s"][0], "1/s")
            extra["untraced_ops_per_s"] = untraced
            OUT.mkdir(parents=True, exist_ok=True)
            rec.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            loop.run_for(args.seconds)
            metrics, extra = end_to_end(loop, setup)
            if args.workload == "domain-map":
                extra["known_defects"] = known_defects(cli.main)
                wrong = sum(1 for d in extra["known_defects"] if d["reason"])
                print(f"known defects: {wrong} of {len(inputs.KNOWN_DEFECT_POINTS)} probe points "
                      "answered wrongly (not counted; see known_defects in the record)",
                      file=sys.stderr)
        record["environment"]["os_threads"] = os_threads()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = len(loop.latencies)
    failed = len(loop.failures)
    record.update(extra)
    record["failures"] = loop.failures[:20]
    record["failures_total"] = failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    per_op = {"latency_s": loop.latencies, "probe_s": loop.probes}
    (OUT / name).write_text(
        json.dumps(dict(record, per_op=per_op), sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
