"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``serve`` — a closed-loop client sending distinct queries to the
  analysis server, so its result caches miss (``serve.py``);
* ``serve-cached`` — the same client repeating queries the server has
  answered before, so its result cache answers.

``--trace 0`` measures the end-to-end metrics with telemetry off:
``op_ms`` (median latency of one query) and ``setup_s``.  ``setup_s`` is
the median of
several complete set-ups — this process's own and ``SETUP_REPEATS``
fresh ones in child processes — each timed from the first line of this
script (the program's imports included) until the first operation
could run.

``--trace 1`` repeats the run with the ``repro.obs`` registry recording
into a sink and prints the per-layer metrics instead, all taken from
the program's own spans and counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources (``src/repro``) next to this directory the script
exits with status 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (stores, temporary files).
SCRATCH = ROOT / ".perfbench"

#: Child-process set-ups per run, besides the run's own.
SETUP_REPEATS = 4

WORKLOADS = ("serve", "serve-cached")


def _load_program():
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _environment():
    """Keep every file the run writes inside the checkout, and keep
    ambient fault plans out of the measurement."""
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("REPRO_FAULTS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def _workload(name):
    from perfbench.serve import Serve

    return Serve(cached=name == "serve-cached")


def _child_setup_seconds(name, seed):
    """``setup_s`` samples from fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up of {name} failed in a child process")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print its set-up time "
                             "and exit (used for the setup_s samples)")
    args = parser.parse_args(argv)

    _load_program()
    _environment()
    from perfbench import harness

    workload = _workload(args.workload)
    try:
        workload.setup(args.seed, trace=bool(args.trace))
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            with harness.Traced() as traced:
                result = workload.run(args.seconds, traced)
                metrics = harness.layer_metrics(
                    result, traced.sink, traced.counters(),
                    workload.layer_extra())
        else:
            result = workload.run(args.seconds, None)
    finally:
        workload.close()
    if not args.trace:
        samples = [setup_s] + _child_setup_seconds(args.workload, args.seed)
        metrics = harness.end_to_end(result, statistics.median(samples))
    payload = {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
