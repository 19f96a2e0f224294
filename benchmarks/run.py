"""Seeded benchmark of wextrap: end-to-end job times and a traced
per-module breakdown.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload dense-weight --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` times the six user-facing jobs (see ``jobs.py``) as a
closed loop with one job in flight and reports the end-to-end metrics:
each job's median seconds, ``setup_s`` (median of three set-ups, each a
fresh process that imports the package, generates the inputs, validates
the weight and writes the CLI input files) and ``peak_mb`` (peak
``tracemalloc`` allocation of one ``run`` plus ``save_history``).

``--trace 1`` runs every job once more with the library's public
functions wrapped by the span tracer (``tracing.py``) and reports the
per-layer metrics ``<job>.<module>.<function>.<stat>`` plus each job's
tracing overhead against an untraced in-process pass.  Spans are
written to ``.bench_work/spans-<workload>-seed<seed>.csv.gz``.

Every output is checked; a job execution that raises, exits non-zero or
fails its check counts as failed.  Human-readable lines go to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  OpenBLAS is pinned to one
thread before numpy is imported, here and in every child process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("dense-weight", "deep-identity")

#: set-ups timed per run; the median is reported
SETUP_REPEATS = 3

#: fewest rounds of the timed loop, whatever --seconds says
MIN_ROUNDS = 3

#: fresh `import wextrap.cli` processes timed in a traced run
IMPORT_REPEATS = 3

SETUP_CHILD = (
    "import sys, workloads; "
    "workloads.build(workloads.spec_for(sys.argv[1], sys.argv[4] == '1'), "
    "int(sys.argv[2]), sys.argv[3])"
)

END_TO_END_UNITS = {
    "run_s": "s", "selfcheck_s": "s", "save_s": "s", "audit_s": "s",
    "krylov_s": "s", "cli_s": "s", "setup_s": "s", "peak_mb": "MB",
}

_WEIGHTS = ["weights.inner.calls", "weights.norm.calls",
            "weights.apply.calls", "weights.self_s"]
_RELATIONS = ["relations.verify_history.self_s",
              "relations.check_master_identity.s",
              "relations.check_stagnation.s", "relations.check_coupling.s",
              "relations.check_corollaries.s",
              "relations.peak_plateau_report.s", "relations.weights_calls"]

#: per-layer metrics reported under each job, as ``<job>.<key>``
LAYER_METRICS = {
    "setup": ["problems.iterate.s", "problems.linear.s"],
    "run": _WEIGHTS + [
        "weights.mproducts_per_column", "weights.model_mproducts_per_column",
        "qr.orthogonalize_column.calls", "qr.orthogonalize_column.self_s",
        "qr.model_flops", "qr.flops_per_s",
        "extrapolate.run.self_s", "extrapolate.mpe_coefficients.self_s",
        "extrapolate.rre_coefficients.self_s", "extrapolate.assemble.self_s",
        "extrapolate.stages", "extrapolate.mpe_exists_ratio",
        "extrapolate.cond_r"],
    "selfcheck": _WEIGHTS + _RELATIONS,
    "save": ["extrapolate.history_to_dict.s", "mmio.save_history.self_s",
             "mmio.history_bytes", "mmio.save_mb_per_s"],
    "audit": _WEIGHTS + [
        "qr.orthogonalize_column.calls", "qr.orthogonalize_column.self_s",
        "qr.mgs_factorize.s", "qr.flops_per_s",
        "mmio.load_history.self_s", "mmio.load_mb_per_s"] + _RELATIONS,
    "krylov": _WEIGHTS + [
        "extrapolate.run.s", "krylov.equivalence_check.self_s",
        "krylov.fom_solve.calls", "krylov.fom_solve.self_s",
        "krylov.gmr_solve.calls", "krylov.gmr_solve.self_s",
        "krylov.t_applications", "krylov.model_t_applications"],
    "cli": ["cli.import_s", "cli.accelerate.s", "cli.verify_relations.s",
            "cli.main.self_s", "mmio.read_matrix.s", "mmio.read_vector.s",
            "mmio.save_history.self_s",
            "mmio.load_history.self_s", "problems.iterate.s",
            "problems.linear.s"],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke mode: a few dozen unknowns per workload")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']}-{info['version']}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit}


def tail(values):
    """(label, value) of the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 20."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}", statistics.quantiles(values, n=100)[q - 1]


def timed_run(args, workdir, ops):
    import tracemalloc

    import jobs as jobs_mod
    import workloads
    import wextrap

    spec = workloads.spec_for(args.workload, args.tiny)
    env = jobs_mod.child_env(os.pathsep.join([str(SRC), str(HERE)]))
    setup = []
    for _ in range(SETUP_REPEATS):
        seconds, ok = jobs_mod.timed_subprocess(
            [sys.executable, "-c", SETUP_CHILD, args.workload, str(args.seed),
             str(workdir), "1" if args.tiny else "0"], env)
        setup.append(seconds)
        ops.record(ok, "setup")

    inputs = workloads.build(spec, args.seed)
    frame = workloads.WeightedFrame(inputs)
    jobs = jobs_mod.Jobs(inputs, frame,
                         workloads.reference_extrapolants(inputs, frame),
                         str(workdir), str(SRC), ops)
    samples = jobs_mod.measure(jobs, args.seconds, MIN_ROUNDS)

    tracemalloc.start()
    try:
        history = wextrap.run(inputs.iterates, inputs.weight, k_max=spec.k)
        wextrap.save_history(history, workdir / "peak.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ops.record(jobs_mod.file_sha256(workdir / "peak.json") == jobs.history_sha,
               "peak pass: history differs from the timed saves")

    values = {f"{name}_s": statistics.median(samples[name])
              for name in jobs_mod.JOBS}
    values["setup_s"] = statistics.median(setup)
    values["peak_mb"] = peak / 1e6
    for name in jobs_mod.JOBS:
        label, value = tail(samples[name])
        print(f"{name + '_s':12s} median {values[name + '_s']:.6f} s  "
              f"{label} {value:.6f} s  n={len(samples[name])}")
    print(f"{'setup_s':12s} median {values['setup_s']:.6f} s  "
          f"max {max(setup):.6f} s  n={len(setup)}")
    print(f"{'peak_mb':12s} {values['peak_mb']:.3f} MB (run + save_history)")
    if jobs.history is not None:
        props = history_properties(jobs.history)
        print(f"workload {spec.name}: N={spec.n} k={spec.k} "
              f"weight={spec.weight}  " + "  ".join(
                  f"{k.split('.')[-1]}={v:.6g}" for k, v in props.items())
              + f"  history_bytes={os.path.getsize(jobs.history_path)}")
    print("model (computed): " + "  ".join(
        f"{k}={v}" for k, v in workloads.model_counts(spec).items()))
    return values


def history_properties(history) -> dict:
    """Stage count, share of stages with an MPE extrapolant and the
    final cond(R_k) of a run."""
    import numpy as np

    records = history.records
    return {
        "extrapolate.stages": len(records),
        "extrapolate.mpe_exists_ratio":
            sum(r.mpe.exists for r in records) / len(records),
        "extrapolate.cond_r": float(np.linalg.cond(history.factors.r)),
    }


def run_extras(name, result, jobs, stats, spec, history_path):
    """Per-sample metrics that come from outputs, not spans."""
    import workloads

    model = workloads.model_counts(spec)
    extras = {}

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    if name == "run" and result is not None:
        extras.update(history_properties(result))
        extras["weights.model_mproducts_per_column"] = \
            model["mproducts_per_column"]
        extras["weights.mproducts_per_column"] = rate(
            stats["weights.applications"], result.factors.k)
        extras["qr.model_flops"] = model["qr_flops"]
        extras["qr.flops_per_s"] = rate(model["qr_flops"],
                                        stats["qr.orthogonalize_column.s"])
    if name == "save":
        size = os.path.getsize(history_path)
        extras["mmio.history_bytes"] = size
        extras["mmio.save_mb_per_s"] = rate(size / 1e6,
                                            stats["mmio.save_history.s"])
    if name == "audit":
        extras["mmio.load_mb_per_s"] = rate(os.path.getsize(history_path) / 1e6,
                                            stats["mmio.load_history.s"])
        extras["qr.flops_per_s"] = rate(model["qr_flops"],
                                        stats["qr.mgs_factorize.s"])
    if name == "krylov":
        extras["krylov.t_applications"] = jobs.t_applications or 0
        extras["krylov.model_t_applications"] = model["t_applications"]
    return extras


def trace_run(args, workdir, ops):
    import jobs as jobs_mod
    import tracing
    import workloads

    spec = workloads.spec_for(args.workload, args.tiny)
    tracer = tracing.Tracer()
    layer = {job: [] for job in LAYER_METRICS}
    ok = True

    def collect(name, seconds, result, root):
        nonlocal ok
        stats = tracing.layer_stats(tracer, root, len(tracer.start))
        if stats["spans.self_s"] > stats["job.s"]:
            ok = False
            print(f"FAILED trace {name}: span self times "
                  f"{stats['spans.self_s']:.6f} s exceed the job's "
                  f"{stats['job.s']:.6f} s", file=sys.stderr)
        if name != "setup":
            stats.update(run_extras(name, result, traced, stats, spec,
                                    traced.history_path))
        stats["seconds"] = seconds
        layer[name].append(stats)

    tracer.install()
    try:
        with tracer.job("setup") as root:
            t0 = time.perf_counter()
            inputs = workloads.build(spec, args.seed, str(workdir))
        collect("setup", time.perf_counter() - t0, None, root)
    finally:
        tracer.uninstall()
    frame = workloads.WeightedFrame(inputs)
    reference = workloads.reference_extrapolants(inputs, frame)

    untraced = jobs_mod.Jobs(inputs, frame, reference, str(workdir),
                             str(SRC), ops, in_process_cli=True)
    plain = jobs_mod.measure(untraced, args.seconds / 2, 2)
    traced = jobs_mod.Jobs(inputs, frame, reference, str(workdir), str(SRC),
                           ops, in_process_cli=True, count_t=True)
    tracer.install()
    try:
        jobs_mod.measure(traced, args.seconds / 2, 2, tracer, collect)
    finally:
        tracer.uninstall()

    env = jobs_mod.child_env(str(SRC))
    imports = []
    for _ in range(IMPORT_REPEATS):
        seconds, good = jobs_mod.timed_subprocess(
            [sys.executable, "-c", "import wextrap.cli"], env)
        imports.append(seconds)
        ops.record(good, "import wextrap.cli")
    for stats in layer["cli"]:
        stats["cli.import_s"] = statistics.median(imports)

    values = {}
    for job, keys in LAYER_METRICS.items():
        for key in keys:
            values[f"{job}.{key}"] = statistics.median(
                s.get(key, 0) for s in layer[job])
    for job in jobs_mod.JOBS:
        traced_s = statistics.median(s["seconds"] for s in layer[job])
        values[f"{job}.trace.overhead_s"] = \
            traced_s - statistics.median(plain[job])
        print_breakdown(job, layer[job], statistics.median(plain[job]))
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans)
    print(f"spans written to {spans.relative_to(ROOT)}")
    ops.record(ok, "trace self-time check")
    return values


def print_breakdown(job, samples, untraced_s):
    """Median self time per span name in one job's traced executions."""
    names = {key[:-len(".self_s")] for s in samples for key in s
             if key.endswith(".self_s") and key.count(".") == 2}
    self_s = {n: statistics.median(s[n + ".self_s"] for s in samples)
              for n in names}
    job_s = statistics.median(s["job.s"] for s in samples)
    parts = [f"{n} {v:.4f}" for n, v in
             sorted(self_s.items(), key=lambda kv: -kv[1]) if v > 0][:8]
    rest = statistics.median(s["job.s"] - s["spans.self_s"] for s in samples)
    print(f"{job}: traced {job_s:.4f} s, untraced {untraced_s:.4f} s; "
          f"self s: {', '.join(parts)}; outside library spans {rest:.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wextrap" / "__init__.py").is_file():
        print(f"error: no wextrap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment()
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    import jobs as jobs_mod

    ops = jobs_mod.Operations()
    try:
        values = (trace_run if args.trace else timed_run)(args, workdir, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"error_rate {ops.failed / ops.attempted:.6g} "
          f"({ops.failed}/{ops.attempted})")
    metrics = {name: {"value": value,
                      "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
               for name, value in values.items()}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("flops_per_s"):
        return "flop/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("flops"):
        return "flop"
    if name.endswith(("_ratio", "per_column", "cond_r")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
