"""One benchmark process: set-up, the timed passes and their checks.

``run.py`` starts this script with the BLAS thread variables already set, so
they hold before numpy is imported.  Set-up time counts from the first line
of this file, which makes it the fresh-process cost a user pays: imports,
building the models or loading the config, and the first ``validate_model``
of each model.  It is rescaled to the nominal host speed by reference kernel
runs just after set-up (see ``hostclock.py``).  The last stdout line is one
JSON object.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --env-only
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostclock  # noqa: E402
import spans  # noqa: E402


def blas_environment() -> dict:
    """CPU, BLAS library and threads, and interpreter/library versions."""
    import ctypes

    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    libraries = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split() for line in fh]
        paths = sorted({f[-1] for f in fields
                        if len(f) >= 6 and "openblas" in os.path.basename(f[-1]).lower()})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libraries.append(entry)
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "blas": libraries, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def check_in_child(workload, inputs, pending) -> list:
    """Check finished tasks in a forked child; return their result triples.

    The oracles build dense matrices of their own.  Running them in a child
    keeps those allocations out of this process's peak resident memory, so
    ``peak_rss_mb`` measures the package alone.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the child must never return into the caller's code
            os.close(read_fd)
            results = []
            for task, out in pending:
                try:
                    results += workload.check(task, inputs, out)
                except Exception as exc:  # a crashing oracle fails its task
                    results.append(("check", False, f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(results).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        return [("check", False, "checker died")] * len(pending)
    return [tuple(r) for r in json.loads(data)]


class Tally:
    """Operations attempted and failed, with the first failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.flags = {}

    def add(self, results) -> None:
        for op, ok, note in results:
            if op.startswith("flag."):
                flag = op[len("flag."):]
                self.flags[flag] = self.flags.get(flag, True) and bool(ok)
                continue
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"{op}: {note}")


def timed_pass(workload, inputs, workdir: str, tally: Tally, recorder=None,
               clock=None) -> list:
    """Run every task once; return each task's ``(raw_s, rescaled_s)``.

    With a :class:`hostclock.HostClock` the second time is rescaled to the
    nominal host speed; without one both are the wall time.  Checks are
    untimed.
    """
    batch = workload.check_batch or len(inputs.tasks)
    times = []
    pending = []
    with spans.installed(recorder) if recorder else contextlib.nullcontext():
        for task in inputs.tasks:
            out = {}
            with clock.task() if clock else _wall(times):
                try:
                    workload.execute(task, inputs, workdir, out)
                except Exception as exc:  # counted as failed ops by the check
                    out["error"] = f"{type(exc).__name__}: {exc}"
            pending.append((task, out))
            if len(pending) >= batch:
                tally.add(check_in_child(workload, inputs, pending))
                pending = []
    return clock.resolve() if clock else times


@contextlib.contextmanager
def _wall(times: list):
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        times.append((elapsed, elapsed))


def pass_estimate(passes, column: int) -> float:
    """Time of one pass: the sum over tasks of each task's median time.

    ``column`` picks the raw (0) or rescaled (1) time of each task.
    """
    return sum(statistics.median(t[column] for t in times) for times in zip(*passes))


def measure(workload, inputs, seconds: float, trace: bool, workdir: str,
            trace_path: str) -> dict:
    """Timed passes until the next one would overrun ``seconds`` (at least one).

    Untraced: ``wall_s`` is :func:`pass_estimate` over the rescaled times
    (see :mod:`hostclock`).  Traced: passes alternate traced/untraced and no
    reference kernel runs; counts come from the first traced pass, times are
    medians over traced passes, and ``trace.overhead_s`` is the traced
    estimate minus the untraced one, both raw.
    """
    tally = Tally()
    clock = None if trace else hostclock.HostClock()
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while True:
        if trace:
            rec = spans.Recorder(trace_id=len(recorders) + 1)
            traced.append(timed_pass(workload, inputs, workdir, tally, rec))
            recorders.append(rec)
        plain.append(timed_pass(workload, inputs, workdir, tally, clock=clock))
        if len(plain) == 1:
            # Later passes can add a few MB of allocator growth; reading the
            # peak here keeps it independent of how many passes fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent = time.perf_counter() - start
        if spent + spent / len(plain) > seconds:
            break
    result = {"passes": [[sum(t[c] for t in p) for c in (0, 1)] for p in plain],
              "attempted": tally.attempted, "failed": tally.failed,
              "notes": tally.notes, "flags": tally.flags,
              "wall_s": pass_estimate(plain, 1), "raw_wall_s": pass_estimate(plain, 0),
              "peak_rss_mb": peak_rss_mb}
    if trace:
        first = recorders[0].metrics()
        per_pass = [r.metrics() for r in recorders]
        layer = {}
        for name in spans.per_layer_names():
            if name == "trace.overhead_s":
                layer[name] = pass_estimate(traced, 0) - pass_estimate(plain, 0)
            elif spans.metric_unit(name) == "s":
                layer[name] = statistics.median(m[name] for m in per_pass)
            else:
                layer[name] = first[name]
        result["per_layer"] = layer
        with open(trace_path, "w", encoding="utf-8") as fh:
            for rec in recorders:
                rec.write_jsonl(fh)
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env-only", action="store_true")
    args = parser.parse_args(argv)
    if args.env_only:
        print(json.dumps(blas_environment()))
        return 0

    import nonstatcov
    import workloads

    if os.path.dirname(os.path.abspath(nonstatcov.__file__)) != \
            os.path.join(ROOT, "src", "nonstatcov"):
        print(f"nonstatcov imported from {nonstatcov.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    record = {"setup_s": setup_s * hostclock.rescale_factor(),
              "raw_setup_s": setup_s, "digest": inputs.digest,
              "tasks": len(inputs.tasks)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT_DIR, f"{tag}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        record.update(measure(workload, inputs, args.seconds, bool(args.trace),
                              workdir, os.path.join(OUT_DIR, f"trace-{tag}.jsonl")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = blas_environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
