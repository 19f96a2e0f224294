"""The six user-facing jobs, their output checks and the timed loop.

Each job is a ``call_<name>`` method, whose duration is what a user
waits for, and a ``check_<name>`` method run outside the timed region.
A job execution fails when its call raises, a CLI process exits
non-zero, or its check rejects the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
import traceback

import numpy as np

import wextrap
import wextrap.cli

JOBS = ("run", "selfcheck", "save", "audit", "krylov", "cli")

#: relative weighted distance allowed between the library's final
#: extrapolants and the numpy reference
REFERENCE_RTOL = 1e-8

#: worst FOM-MPE / GMR-RRE distance allowed by the Krylov check
KRYLOV_ATOL = 1e-8

#: most executions of one job in a round of the timed loop
MAX_REPS = 50

#: a CLI process running longer than this counts as failed
PROCESS_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_env(pythonpath: str) -> dict:
    """Environment of the processes the benchmark starts: modules from
    ``pythonpath`` (the checkout's library), BLAS pinned as in this
    process."""
    return dict(os.environ, PYTHONPATH=pythonpath)


def timed_subprocess(argv, env):
    """(wall seconds, exited 0) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if proc.returncode:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
    return seconds, proc.returncode == 0


class CountingOperator:
    """T as a callable that counts its applications."""

    def __init__(self, t):
        self.calls = 0
        self._matrix = np.asarray(t, dtype=complex)

    def __call__(self, z):
        self.calls += 1
        return self._matrix @ z


class Operations:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)


class Jobs:
    """Job state for one workload.

    ``in_process_cli`` runs the CLI through ``wextrap.cli.main`` instead
    of two whole processes; ``count_t`` passes T to the Krylov check as
    a :class:`CountingOperator`.
    """

    def __init__(self, inputs, frame, reference, workdir, src_dir, ops,
                 in_process_cli=False, count_t=False):
        self.inputs = inputs
        self.k = inputs.spec.k
        self.frame = frame
        self.reference = reference
        self.workdir = workdir
        self.src_dir = src_dir
        self.in_process_cli = in_process_cli
        self.count_t = count_t
        self.history_path = os.path.join(workdir, "history.json")
        self.cli_path = os.path.join(workdir, "cli-history.json")
        self.history = None
        self.history_sha = None
        self.t_applications = None
        self.ops = ops

    def execute(self, name, tracer=None):
        """Run job ``name`` once; return (seconds, result, tracer root)."""
        call = getattr(self, "call_" + name)
        check = getattr(self, "check_" + name)
        result = root = None
        scope = tracer.job(name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope as root:
                result = call()
        except Exception:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - t0
            self.ops.record(False, f"{name}: {traceback.format_exc()}")
            return seconds, None, root
        seconds = time.perf_counter() - t0
        try:
            check(result)
        except CheckFailed as exc:
            self.ops.record(False, f"{name}: {exc}")
        else:
            self.ops.record(True, name)
        return seconds, result, root

    # -- run: the Python API quick start -----------------------------

    def call_run(self):
        return wextrap.run(self.inputs.iterates, self.inputs.weight,
                           k_max=self.k)

    def check_run(self, history):
        self.history = history
        require(history.status.value == "completed",
                f"status {history.status.value}")
        require(history.stages == self.k + 1,
                f"{history.stages} stages, expected {self.k + 1}")
        last = history.records[-1]
        require(last.mpe.exists, "final MPE extrapolant does not exist")
        for label, got, want in (("MPE", last.mpe.s, self.reference[0]),
                                 ("RRE", last.rre.s, self.reference[1])):
            err = self.frame.norm(got - want) / self.frame.norm(want)
            require(err <= REFERENCE_RTOL,
                    f"final {label} differs from the reference by {err:.3e}")

    # -- selfcheck: verify-relations --linear ------------------------

    def call_selfcheck(self):
        return wextrap.verify_history(self.history)

    def check_selfcheck(self, report):
        require(report.ok, f"identity check failed: worst {report.worst}")

    # -- save: the write half of accelerate --------------------------

    def call_save(self):
        wextrap.save_history(self.history, self.history_path)

    def check_save(self, _):
        sha = file_sha256(self.history_path)
        if self.history_sha is None:
            self.history_sha = sha
        require(sha == self.history_sha, "history bytes changed between saves")

    # -- audit: verify-relations --history ---------------------------

    def call_audit(self):
        loaded = wextrap.load_history(self.history_path)
        return loaded, wextrap.verify_history(loaded, use_recorded_phi=True)

    def check_audit(self, result):
        loaded, report = result
        require(report.ok, f"identity check failed: worst {report.worst}")
        require(np.array_equal(loaded.factors.q, self.history.factors.q)
                and np.array_equal(loaded.factors.r, self.history.factors.r),
                "regrown factors differ from the original run")

    # -- krylov: krylov-compare --------------------------------------

    def call_krylov(self):
        t = self.inputs.t
        if self.count_t:
            t = self.t_counter = CountingOperator(t)
        return wextrap.equivalence_check(t, self.inputs.d, self.inputs.x0,
                                         self.inputs.weight, self.k)

    def check_krylov(self, cmp):
        if self.count_t:
            self.t_applications = self.t_counter.calls
        require(all(cmp.definedness_consistent),
                "FOM definedness differs from MPE existence")
        worst = max([v for v in cmp.fom_mpe_defect + cmp.gmr_rre_defect
                     if v is not None], default=0.0)
        require(worst < KRYLOV_ATOL,
                f"worst solver/extrapolation defect {worst:.3e}")

    # -- cli: accelerate, then verify-relations --history ------------

    def cli_argv(self):
        return (["accelerate", *self.inputs.cli_args(self.workdir),
                 "--out", self.cli_path],
                ["verify-relations", "--history", self.cli_path])

    def call_cli(self):
        codes = []
        for argv in self.cli_argv():
            if self.in_process_cli:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    codes.append(wextrap.cli.main(argv))
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "wextrap.cli", *argv],
                    env=child_env(self.src_dir), stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
                if proc.returncode:
                    print(proc.stderr.decode(errors="replace"),
                          file=sys.stderr)
                codes.append(proc.returncode)
        return codes

    def check_cli(self, codes):
        require(codes == [0, 0], f"exit codes {codes}")
        require(file_sha256(self.cli_path) == self.history_sha,
                "CLI history differs from the in-process save")


def measure(jobs: Jobs, seconds: float, min_rounds: int, tracer=None,
            on_sample=None):
    """Closed loop, one job in flight: rounds over :data:`JOBS` until
    ``seconds`` have passed and ``min_rounds`` are done.

    After the first round a job faster than a quarter second runs
    several times in a row (at most :data:`MAX_REPS`), so quick jobs
    collect more samples.  Returns {job: [seconds]}.
    """
    samples = {name: [] for name in JOBS}
    reps = dict.fromkeys(JOBS, 1)
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for name in JOBS:
            for _ in range(reps[name]):
                dt, result, root = jobs.execute(name, tracer)
                samples[name].append(dt)
                if on_sample is not None:
                    on_sample(name, dt, result, root)
        if rounds == 0:
            for name in JOBS:
                reps[name] = min(MAX_REPS, max(1, int(0.25 / samples[name][0])))
        rounds += 1
    return samples
