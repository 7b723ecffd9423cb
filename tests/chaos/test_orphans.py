"""A SIGKILLed process sweep leaves nothing behind.

The parent of a ``backend="process"`` sweep is killed mid-dispatch,
over a record domain big enough for the shared-memory column export.
Within five seconds no process it started (local workers, the
``multiprocessing`` resource tracker) may still run, and ``/dev/shm``
may hold no segment the sweep created.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: A sweep whose first task exports a 16,384-row record domain to
#: shared memory and whose other tasks keep both workers busy for
#: seconds (each verdict of the named predicate sleeps).
_VICTIM = textwrap.dedent("""
    import time
    from repro.core import (Domain, PrimitiveFSM, attr, dist, in_range,
                            length_le, less_equal, named_predicate,
                            satisfies_all)

    def _slow(value):
        time.sleep(0.2)
        return 0 <= value <= 5

    slow = named_predicate("orphan_test_slow", _slow, "sleeps 200ms")
    records = Domain([{"size": i % 1000, "name": "n" * (i % 9)}
                      for i in range(1 << 14)])
    exported = PrimitiveFSM(
        "p", "scan", "r",
        spec_accepts=satisfies_all(attr("size", in_range(0, 900)),
                                   attr("name", length_le(6))),
        impl_accepts=attr("size", less_equal(950)))
    sleepy = PrimitiveFSM("q", "scan", "x", spec_accepts=slow,
                          impl_accepts=less_equal(10))
    tasks = [("m", "export", exported, records, 5)] + [
        ("m", f"slow{i}", sleepy, Domain.integers(0, 20), 5)
        for i in range(8)]
    dist.run_tasks(tasks, 2, backend="process")
""")


def _children(pid):
    """Pids whose parent is ``pid`` (from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Alive and not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _segments():
    return set(os.listdir("/dev/shm"))


@pytest.mark.skipif(not (os.path.isdir("/proc") and
                         os.path.isdir("/dev/shm") and
                         hasattr(os, "fork")),
                    reason="needs /proc, /dev/shm and fork")
def test_sigkilled_process_sweep_leaves_no_process_or_segment():
    from repro.core import columnar

    if not columnar.shm_supported():
        pytest.skip("no shared memory on this platform")
    before = _segments()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    victim = subprocess.Popen([sys.executable, "-c", _VICTIM], env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    try:
        # Two workers plus the resource tracker mean dispatch is on.
        deadline = time.monotonic() + 60.0
        while len(_children(victim.pid)) < 3:
            assert victim.poll() is None, "the sweep ended before the kill"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.02)
        time.sleep(0.5)  # let chunks get under way
        descendants = _children(victim.pid)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while True:
            alive = [pid for pid in descendants if _running(pid)]
            leaked = _segments() - before
            if not (alive or leaked) or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        assert not alive, f"orphaned processes: {alive}"
        assert not leaked, f"leaked shared-memory segments: {leaked}"
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)  # orphans included
        except ProcessLookupError:
            pass
        victim.wait(timeout=10)
        for name in _segments() - before:  # a failed run's leftovers
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
