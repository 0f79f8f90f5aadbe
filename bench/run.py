"""Run one benchmark workload against the library in ``src/``.

    python3 bench/run.py --workload centers --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
number of ops once untraced and once with every public library function
wrapped in a span, and reports per-layer metrics per op plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The lines
before it print every metric with its unit and the environment.
``--record PATH`` also appends the full result, environment included, to
a JSON-lines file that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated and its median reported, since one import is noisy.
SETUP_REPEATS = 5
# Ops per traced run: fixed, so that a seed's work counters repeat exactly.
TRACE_OPS = {"centers": 2000, "field_map": 8, "riesz_arc": 3}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment


def _git(*args) -> str | None:
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ------------------------------------------------------------------ setup


def import_library():
    """A fresh import of the library from ``src/`` (earlier imports purged)."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "tripotential"]:
        del sys.modules[name]
    tp = importlib.import_module("tripotential")
    cli = importlib.import_module("tripotential.cli")
    if Path(tp.__file__).resolve().parent != SRC / "tripotential":
        raise RuntimeError(f"imported {tp.__file__}, not the library under {SRC}")
    return tp, cli


class Log:
    """What one pass of the op loop did."""

    def __init__(self):
        self.latencies = array("d")  # seconds per op
        self.ok_ops = 0  # ops all of whose results passed their checks
        self.results = 0  # results attempted: triangles, grids or arc points
        self.failed = 0  # results that raised or missed their check
        self.counters: dict[str, int] = {}  # measured on the outputs

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def timed(self) -> float:
        return math.fsum(self.latencies)

    def add(self, results: int, failed: int, counters=()) -> None:
        self.results += results
        self.failed += failed
        for name, value in dict(counters).items():
            self.counters[name] = self.counters.get(name, 0) + value


class Run:
    """One workload: library, seeded inputs, op loop and output checks."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.out = OUT_DIR / f"{workload}-{os.getpid()}.csv"
        self.problems: list[str] = []  # failures that make the whole run incorrect
        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.tp, self.cli = import_library()
            self.inputs = workloads.make_inputs(workload, seed)
            self._warm_up()
            self.setup_times.append(time.perf_counter() - start)
        if workload == "centers":
            self.problems += workloads.check_reference(self.tp)

    def _warm_up(self):
        if self.workload == "centers":
            for verts in self.inputs.warmup.tolist():
                self._center_row(None, -1, verts)
        else:
            for args in self.inputs.warmup:
                self.w.cli_op(self.cli, args, self.out)

    def measure(self, count=None, seconds=None, tracer=None) -> Log:
        """Closed loop: run ops back to back until `count` ops are done or
        `seconds` of op time are spent. Checks run between ops, untimed."""
        log = Log()
        if self.workload == "centers":
            self._centers(log, count, seconds, tracer)
        else:
            self._cli(log, count, seconds, tracer)
        return log

    @staticmethod
    def _more(log, count, seconds, timed):
        return (count is None or log.ops < count) and (seconds is None or timed < seconds)

    @staticmethod
    def _call(tracer, op_id, fn, *args):
        if tracer is None:
            return fn(*args)
        return tracer.run_op(op_id, fn, *args)

    def _centers(self, log, count, seconds, tracer):
        import numpy as np

        pool = self.inputs.ops
        results = np.full((len(pool), 9), np.nan)
        # Results count per pool triangle, failed if any of its ops missed
        # the check, so that a seed's failure count does not depend on how
        # many ops a timed run got through.
        bad = np.zeros(len(pool), dtype=bool)
        seen = 0  # pool triangles computed at least once
        timed = 0.0
        slot = 0
        while self._more(log, count, seconds, timed):
            verts = pool[slot].tolist()
            start = time.perf_counter()
            results[slot] = self._center_row(tracer, log.ops, verts)
            latency = time.perf_counter() - start
            timed += latency
            log.latencies.append(latency)
            slot += 1
            if slot == len(pool):
                log.ok_ops += self._check_centers(pool, results, bad, slot)
                seen = len(pool)
                slot = 0
        log.ok_ops += self._check_centers(pool, results, bad, slot)
        seen = max(seen, slot)
        if count is None:
            # A timed run that stopped inside the first pass finishes it untimed.
            for k in range(seen, len(pool)):
                results[k] = self._center_row(None, -1, pool[k].tolist())
            seen = len(pool)
            self._check_centers(pool, results, bad, seen)
        log.add(seen, int(bad[:seen].sum()))

    def _center_row(self, tracer, op_id, verts):
        tp = self.tp
        try:
            return self._call(tracer, op_id, self.w.centers_op, tp, verts)
        except tp.TripotentialError:
            return (math.nan,) * 9
        except Exception as exc:  # a crash is not a documented outcome
            self.problems.append(f"centers op {op_id}: {type(exc).__name__}: {exc}")
            return (math.nan,) * 9

    def _check_centers(self, pool, results, bad, n) -> int:
        """Check the first `n` results, mark failures in `bad` and return
        how many passed."""
        if not n:
            return 0
        ok = self.w.check_centers(pool[:n], results[:n])
        bad[:n] |= ~ok
        return int(ok.sum())

    def _cli(self, log, count, seconds, tracer):
        ops = self.inputs.ops
        cycle = self.w.CYCLE[self.workload]
        # Results count per input, with the most failures any of its ops
        # had, as on centers.
        verdicts: dict[int, tuple[int, int]] = {}
        timed = 0.0
        # A timed run ends on a whole cycle, so every run mixes the same
        # kinds of ops in the same proportions.
        while self._more(log, count, seconds, timed) or (
            count is None and log.ops % cycle
        ):
            k = log.ops % len(ops)
            self.out.unlink(missing_ok=True)
            start = time.perf_counter()
            code = self._cli_code(tracer, log.ops, ops[k])
            latency = time.perf_counter() - start
            timed += latency
            log.latencies.append(latency)
            results, failed, counters = self._check_cli(k, code)
            log.add(0, 0, counters)
            log.ok_ops += not failed
            verdicts[k] = (results, max(failed, verdicts.get(k, (0, 0))[1]))
        if count is None:
            # A timed run that stopped inside the first pass finishes it untimed.
            for k in range(len(verdicts), len(ops)):
                self.out.unlink(missing_ok=True)
                verdicts[k] = self._check_cli(k, self._cli_code(None, -1, ops[k]))[:2]
        log.add(sum(r for r, _ in verdicts.values()), sum(f for _, f in verdicts.values()))

    def _cli_code(self, tracer, op_id, args):
        try:
            return self._call(tracer, op_id, self.w.cli_op, self.cli, args, self.out)
        except Exception as exc:  # the CLI promises exit codes, not tracebacks
            self.problems.append(f"{args[0]} op {op_id}: {type(exc).__name__}: {exc}")
            return None

    def _check_cli(self, k, code) -> tuple[int, int, dict]:
        """Results, failed results and output counters of input `k`'s op."""
        import numpy as np

        args = self.inputs.ops[k]
        if args[0] == "grid":
            if code != 0:
                return 1, 1, {}
            # Sample rows drawn per input, so every op of one input is
            # checked on the same rows.
            rng = np.random.default_rng([self.seed, 1 + len(self.w.WORKLOADS), k])
            chk = self.w.check_grid(self.tp, args, self.out, rng)
            return 1, int(not chk.passed), {
                "cli.grid.nan_rows": chk.nan_rows, "cli.output_bytes": chk.output_bytes,
            }
        steps = int(args[args.index("--steps") + 1])
        if code != 0:
            return steps, steps, {}
        chk = self.w.check_arc(self.tp, args, self.out)
        return chk.points, chk.failed, {"cli.output_bytes": chk.output_bytes}


# ---------------------------------------------------------------- metrics


def end_to_end(run: Run, seconds: float) -> tuple[Log, dict, list[str]]:
    import numpy as np

    log = run.measure(seconds=seconds)
    lat = np.asarray(log.latencies)
    p99 = float(np.percentile(lat, 99))
    beyond = int((lat > p99).sum())
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "ops_per_s": (log.ok_ops / log.timed, "1/s"),
        "op_p50_ms": (1e3 * float(np.median(lat)), "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s is the median of {len(run.setup_times)} set-ups: "
        + " ".join(f"{t:.4f}" for t in run.setup_times),
        f"op_p99_ms from {log.ops} ops, {beyond} beyond it"
        + ("" if beyond >= 10 else ": read it as the slowest ops"),
    ]
    return log, metrics, notes


# Per-layer metrics, per op of the traced run. Layers are the library's
# modules; names are module.function as the library binds them.
LAYER_CALLS = (
    "center.solve_lambda", "potential.potential_closed", "potential.field_closed",
    "potential.potential_quadrature", "potential.cone_windows",
    "geometry.classify_point", "geometry.distance_to_boundary",
    "geometry.diameter", "geometry.side_lengths",
    "quadrature.integrate_adaptive", "riesz.rp_center",
)
LAYER_SELF = (
    "center.solve_lambda", "center.electrostatic_center",
    "center.center_function_trilinears", "center.stationarity_spreads",
    "estimates.initial_guess", "potential.potential_closed",
    "potential.field_closed", "potential.potential_quadrature",
    "geometry.classify_point", "quadrature.integrate_adaptive",
    "riesz.rp_center", "cli.main",
)
LAYER_COUNTERS = (
    "quadrature.integrate_adaptive.nfev", "quadrature.integrate_adaptive.unconverged",
    "riesz.rp_center.newton_iters", "riesz.potential_arc.unconverged",
)
OUTPUT_COUNTERS = (("cli.output_bytes", "B/op"), ("cli.grid.nan_rows", "count/op"))
LAYERS = ("geometry", "estimates", "center", "potential", "quadrature", "riesz", "cli")


def per_layer(tracer, log: Log, plain: Log) -> dict:
    calls, self_s = tracer.layer_times()
    ops = log.ops
    solves = calls.get("center.solve_lambda", 0)
    evals = tracer.counters.get("center.solve_lambda.evals", 0)
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0) / ops, "count/op")
    m["center.solve_lambda.evals_mean"] = (evals / solves if solves else 0.0, "count")
    m["center.solve_lambda.evals_max"] = (
        tracer.counters.get("center.solve_lambda.evals_max", 0), "count")
    for name in LAYER_COUNTERS:
        m[name] = (tracer.counters.get(name, 0) / ops, "count/op")
    for name, unit in OUTPUT_COUNTERS:
        m[name] = (log.counters.get(name, 0) / ops, unit)
    for name in LAYER_SELF:
        m[f"{name}.self_ms"] = (1e3 * self_s.get(name, 0.0) / ops, "ms/op")
    for layer in LAYERS:
        total = math.fsum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (1e3 * total / ops, "ms/op")
    m["trace.overhead_ms"] = (1e3 * (log.timed - plain.timed) / ops, "ms/op")
    return m


def traced(run: Run) -> tuple[Log, dict, list[str]]:
    import tracing

    count = TRACE_OPS[run.workload]
    plain = run.measure(count=count)
    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    log = run.measure(count=count, tracer=tracer)
    spans_path = OUT_DIR / f"spans-{run.workload}-{run.seed}.npz"
    tracer.save(spans_path)
    _, self_s = tracer.layer_times()
    notes = [
        f"traced {log.ops} ops; {bindings} library bindings wrapped; "
        f"{len(tracer.span_start)} spans written to {spans_path.relative_to(ROOT)}",
        f"op time per op: untraced {1e3 * plain.timed / plain.ops:.4f} ms, "
        f"traced {1e3 * log.timed / log.ops:.4f} ms",
        f"benchmark glue inside ops (self time of {tracing.OP_SPAN}): "
        f"{1e3 * self_s.get(tracing.OP_SPAN, 0.0) / log.ops:.4f} ms/op",
    ]
    return log, per_layer(tracer, log, plain), notes


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tripotential" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Single-threaded BLAS/OpenMP for this process only, set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        log, metrics, notes = traced(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        run.out.unlink(missing_ok=True)

    failed_share = log.failed / log.results if log.results else 1.0
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("note " + note)
    for problem in run.problems:
        print("problem " + problem)
    print(f"failed_share {failed_share!r} ratio ({log.failed} of {log.results} "
          f"results; {log.ops} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": log.results,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, ops=log.ops, failed_share=failed_share,
                      problems=run.problems, env=env)
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
