"""End-to-end benchmark of the repro stack: serve-c, dse-campaign, train-epoch.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-c --seed 1 --seconds 20 --trace 0

Each run prepares its fixtures (``inputs.py``) in one fresh process and
measures the workload (``workloads.py``) in another, both with every
``REPRO_*`` variable removed and the BLAS/OpenMP pools pinned to one
thread. ``--trace 0`` prints the end-to-end metrics of the named
workload. ``--trace 1`` prints the per-layer metrics of all three
workloads (the named one first), each named ``<workload>.<layer>.<metric>``.
The last line of standard output is the result object; the line before
it records the host.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-c", "dse-campaign", "train-epoch")
#: A run must end within 180 s; leave room to report and clean up.
DEADLINE_S = 170.0
#: Seconds a measured thread stays on one CPU (see rotate_cpus).
ROTATE_S = 0.05
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def speed_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: tells host drift apart from
    a change in the program when two runs differ."""
    start = time.perf_counter()
    total = 0
    for k in range(1_000_000):
        total += k * k
    return time.perf_counter() - start


def host_record() -> dict:
    """Cores, interpreter and library versions, the load at start and a
    host speed probe."""
    record = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "speed_probe_s": speed_probe_s(),
    }
    probe = (
        "import json, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    if out.returncode == 0:
        record.update(json.loads(out.stdout))
    return record


def rotate_cpus(child: subprocess.Popen, deadline: float) -> None:
    """Wait for ``child``, moving each of its threads to the next usable CPU
    every :data:`ROTATE_S` seconds.

    On a shared host one CPU can run up to 1.45x slower than another for
    minutes while the scheduler leaves a busy thread where it is, so a
    single-threaded workload measured whichever CPU it landed on. Rotating
    its threads makes every run see the mean speed of all usable CPUs; the
    threads of a multi-threaded workload stay on different CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    step = 0
    while child.poll() is None:
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(child.args, DEADLINE_S)
        with contextlib.suppress(OSError):  # the child or a thread just ended
            tids = sorted(int(t) for t in os.listdir(f"/proc/{child.pid}/task"))
            for i, tid in enumerate(tids):
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(tid, {cpus[(step + i) % len(cpus)]})
        step += 1
        time.sleep(ROTATE_S)


def run_child(script: str, args: list[str], deadline: float) -> None:
    if deadline - time.monotonic() <= 0:
        raise TimeoutError(f"no time left for {script}")
    command = [sys.executable, str(HERE / script), *args]
    with subprocess.Popen(command, cwd=ROOT, env=child_env()) as child:
        try:
            rotate_cpus(child, deadline)
        except BaseException:
            child.kill()
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command)


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, work: Path, deadline: float
) -> dict:
    fixtures = work / workload
    common = ["--workload", workload, "--seconds", str(seconds)]
    run_child(
        "inputs.py", [*common, "--seed", str(seed), "--out", str(fixtures)], deadline
    )
    out = fixtures / "result.json"
    args = [*common, "--fixtures", str(fixtures), "--trace", str(trace), "--out", str(out)]
    if trace:
        spans_out = ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}.jsonl"
        args += ["--spans", str(spans_out)]
    run_child("workloads.py", args, deadline)
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM becomes SystemExit, on which run_child kills the running
    # child and Popen's exit reaps it before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = host_record()
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    order = [args.workload]
    if args.trace:
        order += [w for w in WORKLOADS if w != args.workload]
    # A traced run shares --seconds among the three workloads: it gives
    # the per-layer split, not figures that must be steady.
    seconds = args.seconds / len(order)
    results = {}
    try:
        for workload in order:
            results[workload] = run_workload(
                workload, args.seed, seconds, args.trace, work, deadline
            )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for workload, result in results.items():
        prefix = f"{workload}." if args.trace else ""
        for name, metric in result["metrics"].items():
            metrics[prefix + name] = metric
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"host": host, "detail": {w: r["detail"] for w, r in results.items()}}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
