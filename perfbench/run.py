"""Benchmark of gamecert: four workloads on one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere; the program is imported from ``src/`` next to this
directory and the inputs come from ``corpus/``.  A run prepares its
inputs, runs one untimed warm-up round, and then runs whole rounds of ops
for about ``--seconds``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is the environment record.  Outputs
(the record, the spans, the SDPA file) go to ``.perfbench/`` at the
checkout root.  ``--self-check`` runs the warm-up round of every workload,
traced, with every correctness check, and exits non-zero on any failure.
See README.md.
"""

import os
import sys
import time

START = time.perf_counter()
# pinned before numpy loads: OpenBLAS fixes its pool size when it starts
PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "GAMECERT_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PREPARE_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import gamecert from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import gamecert

    where = os.path.dirname(os.path.abspath(gamecert.__file__))
    if where != os.path.join(SRC, "gamecert"):
        raise ImportError(f"gamecert was imported from {where}, not from {SRC}")
    for module in ("certify", "cli", "efg", "games", "jsonio", "oracles", "polynomials",
                   "project", "sdp", "sos"):
        importlib.import_module(f"gamecert.{module}")

    return [m for name, m in sorted(sys.modules.items())
            if name == "gamecert" or name.startswith("gamecert.")]


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    pkg = os.path.join(SRC, "gamecert")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": openblas_threads(),
        "pinned": PINNED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


class Run:
    """Counts and times of the ops of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.correct = True
        self.errors: list[str] = []

    def op(self, op, traced: bool = False):
        from workloads import Incorrect

        label, run, check = op
        close = None
        if traced:
            close = self.tracer.op_span(label)
            self.tracer.record_spans = True
        start = time.perf_counter()
        try:
            out = run()
        except Exception:
            out = None
            self.errors.append(f"{label}: {traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.record_spans = False
            close()
        if out is None:
            return label, elapsed, "failed"
        try:
            return label, elapsed, check(out)
        except Incorrect as exc:
            self.correct = False
            self.errors.append(f"{label}: incorrect: {exc}")
            return label, elapsed, "incorrect"

    def rounds(self, workload, seconds: float, traced: bool = False):
        """Whole rounds until the next one would end more than half a
        round past ``seconds``; at least one."""
        results = []
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            results.extend(self.op(op, traced) for op in workload.round())
            now = time.perf_counter()
            if now - begin + 0.5 * (now - round_start) >= seconds:
                return results


def end_to_end(setup_s: float, results) -> dict:
    times = [seconds for _, seconds, _ in results]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_unit(name: str) -> str:
    from tracing import UNITS

    return UNITS.get(name, "s")


def set_up(workload_cls, seed: int, workdir: str, run: Run, imports_s: float,
           traced_warm_up: bool = False):
    """Prepare the inputs (the median of several preparations counts) and
    run the warm-up round; returns the workload, the set-up seconds (with
    ``imports_s``) and the warm-up outcomes."""
    workload = workload_cls(ROOT, seed, workdir)
    prepare_s = []
    for _ in range(PREPARE_REPEATS):
        start = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - start)
    start = time.perf_counter()
    warm = workload.warm_up(lambda op: run.op(op, traced_warm_up))
    warm_s = time.perf_counter() - start
    return workload, imports_s + statistics.median(prepare_s) + warm_s, warm


def benchmark(args, modules, imports_s: float) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment()
    tracer = Tracer()
    tracer.install(modules)
    run = Run(tracer)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, setup_s, warm = set_up(WORKLOADS[args.workload], args.seed, workdir, run, imports_s)
        if args.trace:
            plain = run.rounds(workload, args.seconds / 2)
            traced = run.rounds(workload, args.seconds / 2, traced=True)
            results = plain + traced
            if any(s[0] in ("sdp.solve", "sos.compile") for s in tracer.spans):
                # tracemalloc slows the Python-heavy layers several times over,
                # so peaks come from ops of their own, for at most half the run
                tracer.record_memory = True
                begin = time.perf_counter()
                for op in workload.round():
                    run.op(op)
                    if time.perf_counter() - begin >= args.seconds / 2:
                        break
                tracer.record_memory = False
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = (
                statistics.median(t for _, t, _ in traced) - statistics.median(t for _, t, _ in plain)
            )
            units = {name: layer_unit(name) for name in metrics}
        else:
            results = run.rounds(workload, args.seconds)
            metrics = end_to_end(setup_s, results)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for _, _, status in results if status == "failed")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs": workload.record(),
        "warm_up": warm,
        "ops": results,
        "errors": run.errors,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write(os.path.join(OUT, "spans", f"{tag}.jsonl"))
    for error in run.errors:
        print(error, file=sys.stderr)
    print("env " + json.dumps({**env, "inputs": workload.record()}, sort_keys=True))
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def self_check(modules, imports_s: float) -> int:
    """Warm up every workload once, traced, with every check on; then make
    sure both kinds of result carry exactly the metrics BENCHMARK.json names."""
    from tracing import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append(f"workloads {sorted(WORKLOADS)} differ from BENCHMARK.json")
    print("env " + json.dumps(environment(), sort_keys=True))
    tracer = Tracer()
    tracer.install(modules)
    for name, cls in WORKLOADS.items():
        run = Run(tracer)
        tracer.spans.clear()
        workdir = os.path.join(OUT, "work", f"self-check-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload, setup_s, warm = set_up(cls, 1, workdir, run, imports_s, traced_warm_up=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        e2e = end_to_end(setup_s, warm)
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = 0.0
        problems += [f"{name}: {e}" for e in run.errors]
        if set(e2e) != want_e2e or set(layer) != want_layer:
            problems.append(f"{name}: metric names differ from BENCHMARK.json")
        if not all(v > 0 and math.isfinite(v) for v in e2e.values()):
            problems.append(f"{name}: end-to-end metric not positive: {e2e}")
        if not all(math.isfinite(v) for v in layer.values()):
            problems.append(f"{name}: per-layer metric not finite: {layer}")
        statuses = [status for _, _, status in warm]
        print(f"self-check {name}: {len(warm)} ops, {statuses.count('failed')} failed, "
              f"correct={run.correct}, setup {setup_s:.2f}s, "
              f"{sum(1 for s in tracer.spans if s[0] != 'op')} layer spans", flush=True)
    for problem in problems:
        print("self-check: " + problem, file=sys.stderr)
    print("self-check " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("random-sweep", "corpus-cli", "oracle-verify", "deg8-build"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="warm up every workload once, traced, with every check")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        modules = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracing  # noqa: F401  (from this directory, the script's sys.path[0])
    import workloads  # noqa: F401

    imports_s = time.perf_counter() - START
    if args.self_check:
        return self_check(modules, imports_s)
    return benchmark(args, modules, imports_s)


if __name__ == "__main__":
    sys.exit(main())
