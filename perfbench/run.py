"""The repository benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload ntt_batch --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``ntt_batch``    — forward+inverse NTT plan, N=2^14, 16 x 60-bit primes;
* ``he_bootstrap`` — the bootstrap-shaped circuit, N=4096, 4 x 45-bit;
* ``serve_mix``    — a real HTTP server process under a 2-connection
  closed loop, N=2048, 4 x 45-bit.

The runner never imports the program.  It starts ``worker.py`` in a fresh
process with every ``REPRO_*`` variable removed from the environment, so
overrides such as ``REPRO_BACKEND`` or ``REPRO_PASSES`` cannot change what
is measured; the worker pins the backend and passes itself.  ``setup_s``
is the time from spawning a worker to its first timed operation, the
median over several workers (set-up probes that stop there, plus the
measuring worker).  ``--trace 1`` reports the per-layer metrics instead
of the end-to-end ones.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per workload.  ntt_batch takes one: its set-up spends
#: tens of seconds deriving the twiddle tables of 16 primes at N = 2^14,
#: and three samples would not fit the time a run may take.
SETUP_SAMPLES = {"ntt_batch": 1, "he_bootstrap": 3, "serve_mix": 3}

#: Wall-clock limit for the whole run, under the 180 s a run may take.
DEADLINE_S = 170.0


def _environment() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # One compute thread per process: the workloads are sized for two
    # cores, one for the worker and one for the serve_mix server.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _run_worker(args, probe: bool, deadline: float):
    """Run one worker; returns ``(set-up seconds, result or None)``."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.terminate)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - spawned
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
    except BaseException:
        proc.terminate()  # the worker stops its own server on SIGTERM
        raise
    finally:
        watchdog.cancel()
        try:
            code = proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0 or setup_s is None or (not probe and result is None):
        raise RuntimeError("worker %s exited with code %s" % (command[2:], code))
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUP_SAMPLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to measure (%s/src/repro is missing)" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.workload] - 1):
                setups.append(_run_worker(args, True, deadline)[0])
        setup_s, result = _run_worker(args, False, deadline)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    setups.append(setup_s)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup samples (s): %s" % ", ".join("%.3f" % s for s in setups))
    for name, metric in metrics.items():
        print("  %-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
