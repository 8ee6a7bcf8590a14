"""Benchmark entry point: one seeded workload, checked, with its metrics.

    python3 bench/run.py --workload verify_all|large_sections|frozen_grid \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program runs in child processes
(``worker.py``) whose BLAS libraries are pinned to one thread before numpy
is imported.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  Times are
rescaled to a nominal host speed (``hostclock.py``); set-up time is the
median over ``SETUP_SAMPLES`` fresh processes.  The lines before
it describe the run: the environment, the task digest, ``failed_ops`` and
the verify_all table byte-identity flag.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("verify_all", "large_sections", "frozen_grid")

#: Seed used while the benchmark was written, and a held-out seed kept for
#: confirming later claims on inputs nobody tuned against.
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 90210

SETUP_SAMPLES = 9            # fresh processes timed for setup_s (the main one included)
DEADLINE_S = 170.0           # the whole run, children included
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    """A child process failed; the run reports no result."""


def child_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if pinned:
        env.update({k: "1" for k in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, env, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args)} exceeded the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "nonstatcov", "__init__.py")):
        raise RunError(f"no package source under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    pinned = child_env(pinned=True)
    default_env = run_child(["--env-only"], child_env(pinned=False), deadline)
    setup_args = ["--workload", workload, "--seed", str(seed)]
    samples = []
    if not trace:
        samples = [run_child(setup_args + ["--setup-only"], pinned, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(setup_args + ["--seconds", str(seconds), "--trace", str(int(trace))],
                     pinned, deadline)
    samples.append({key: main[key] for key in ("setup_s", "raw_setup_s", "digest")})
    if len({s["digest"] for s in samples}) != 1:
        raise RunError("set-up processes generated different task lists")

    env = main["env"]
    env["blas_default_threads"] = [b.get("threads") for b in default_env["blas"]]
    print(f"workload {workload} seed {seed} tasks {main['tasks']} "
          f"digest {main['digest']}")
    print(f"seeds: development {DEVELOPMENT_SEED}, held-out {HELD_OUT_SEED}")
    print("env " + json.dumps(env, sort_keys=True))
    passes = ", ".join(f"{raw:.3f}/{rescaled:.3f}" for raw, rescaled in main["passes"])
    print(f"passes_s raw/rescaled [{passes}]")
    failed_share = main["failed"] / main["attempted"] if main["attempted"] else 1.0
    print(f"failed_ops {failed_share:.4g} share ({main['failed']} of "
          f"{main['attempted']} operations)")
    for note in main["notes"]:
        print(f"  failed: {note}")
    for flag, value in sorted(main["flags"].items()):
        print(f"{flag} {str(value).lower()}")

    if trace:
        metrics = {name: metric(value, spans.metric_unit(name))
                   for name, value in main["per_layer"].items()}
        print(f"trace written to {main['trace_file']}")
    else:
        setup = [s["setup_s"] for s in samples]
        metrics = {
            "wall_s": metric(main["wall_s"], "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
        }
        print("setup_s samples raw/rescaled [" + ", ".join(
            f"{s['raw_setup_s']:.3f}/{s['setup_s']:.3f}" for s in samples) + "]")
        print(f"raw wall_s {main['raw_wall_s']:.6g} s, raw setup_s "
              f"{statistics.median(s['raw_setup_s'] for s in samples):.6g} s")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {entry['unit']}")
    return {"correct": main["failed"] == 0 and main["attempted"] > 0,
            "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics}


def _terminate(signum, frame):
    # Raising inside subprocess.run makes it kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
