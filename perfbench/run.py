#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload spectrum_large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is taken from ``src/`` there.
With ``--trace 0`` the end-to-end metrics are printed.  ``setup_s`` (fresh
interpreter start until ``import wco`` is done and the first op generated) and
``first_op_s`` are medians over the worker and 4 to 20 probe processes, each
of which sets up and runs the first op only.  The probes are spread over the
run: one before the worker starts and one after each segment of its timed
loop but the last, while the worker waits, so set-up and the timed ops are
sampled over the same stretch of time.  Both are scaled to a reference host
speed by an index timed in the same processes (``speed.py``); the raw
medians are printed beside them.  With ``--trace 1`` the per-layer
metrics are printed.  The last stdout line is the JSON result.  Run records
go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from speed import REF_COLD_S, cold_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RECORD_DIR = ROOT / ".perfbench_runs"
# Probe processes for setup_s and first_op_s: as many as fit in PROBE_BUDGET_S
# at the first probe's duration, within [MIN_PROBES, MAX_PROBES], since a
# cold op of a few milliseconds needs many samples for a steady median.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 4, 20, 8.0
DEADLINE_S = 170.0  # the whole run, set-up probes included


class Procs:
    """The worker processes of one run; ``kill_all`` stops and reaps every
    one, and no process starts after it."""

    def __init__(self, env, args):
        self.env = env
        self.args = args  # the worker's command line
        self.live = []
        self.stopped = False
        self.lock = threading.Lock()

    def start(self, extra=(), interactive=False):
        """Start a worker; returns it, the seconds until it printed ``numpy``
        (the cold host speed index) and ``ready``, and its first op's
        seconds."""
        begin = perf_counter()
        with self.lock:
            if self.stopped:
                raise RuntimeError("run exceeded %.0f s" % DEADLINE_S)
            proc = subprocess.Popen(
                [sys.executable, str(WORKER)] + self.args + list(extra),
                cwd=str(ROOT), env=self.env,
                stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
                stdout=subprocess.PIPE, text=True)
            self.live.append(proc)
        if readline(proc) != "numpy":
            raise RuntimeError("worker failed to import numpy")
        base = perf_counter() - begin
        if readline(proc) != "ready":
            raise RuntimeError("worker failed during set-up")
        elapsed = perf_counter() - begin
        words = readline(proc).split()
        if len(words) != 2 or words[0] != "first_op_s":
            raise RuntimeError("worker reported no first op")
        return proc, base, elapsed, float(words[1])

    def kill_all(self):
        with self.lock:
            self.stopped = True
            for proc in self.live:
                if proc.poll() is None:
                    proc.kill()
            for proc in self.live:
                proc.wait()


def readline(proc) -> str:
    """One line from a worker; a worker killed at the deadline gives none."""
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("worker ended early (exit code %s; the run's deadline is %.0f s)"
                           % (proc.wait(), DEADLINE_S))
    return line.strip()


def probe(procs):
    """Cold-index, set-up and first-op seconds of one fresh probe process."""
    proc, *samples = procs.start(["--probe"])
    proc.communicate()
    return samples


def untraced(procs, seconds):
    """Probes interleaved with the worker's timed loop; returns the worker's
    output and the cold-index, set-up and first-op samples, one row per
    process."""
    t0 = perf_counter()
    rows = [probe(procs)]
    count = min(MAX_PROBES, max(MIN_PROBES, int(PROBE_BUDGET_S / (perf_counter() - t0))))
    worker, *row = procs.start(interactive=True)
    rows.append(row)
    # count segments of the timed loop, each told the loop's total seconds
    # to reach; a probe after each segment but the last
    budget = seconds - row[2]
    for k in range(1, count + 1):
        worker.stdin.write("%r\n" % (budget * k / count))
        worker.stdin.flush()
        if readline(worker) != "done":
            raise RuntimeError("worker failed in its timed loop")
        if k < count:
            rows.append(probe(procs))
    return finish(worker), rows  # closes the worker's stdin


def finish(worker) -> str:
    out, _ = worker.communicate()
    if worker.returncode != 0:
        raise RuntimeError("worker exited with %s" % worker.returncode)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wco benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wco" / "__init__.py").is_file():
        print("perfbench: no wco sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("perfbench: --seconds must lie in [1, 60]", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    procs = Procs(env, ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--record", str(RECORD_DIR)])
    # past the deadline every process is killed, which ends any read from it
    watchdog = threading.Timer(DEADLINE_S, procs.kill_all)
    watchdog.start()
    try:
        if args.trace:
            out = finish(procs.start()[0])
        else:
            out, rows = untraced(procs, args.seconds)
    except (RuntimeError, ValueError, OSError) as exc:  # OSError: a killed worker's pipe
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        procs.kill_all()
    lines = out.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if not args.trace:
        # times at the reference host speed (speed.py); raw medians in the notes
        bases, setups, firsts = zip(*rows)
        scale = cold_scale(bases)
        added = {}
        for name, samples, what in (("setup_s", setups, "fresh set-ups"),
                                    ("first_op_s", firsts, "fresh processes")):
            raw = statistics.median(samples)
            added[name] = {"value": raw * scale, "unit": "s"}
            print("metric %-28s %14.6g %-6s (raw %.6g: median of %d %s: %s)" % (
                name, added[name]["value"], "s", raw, len(samples), what,
                ", ".join("%.4g" % x for x in samples)))
        print("cold index %.4g s (median of %s), reference %.4g s" % (
            REF_COLD_S / scale, ", ".join("%.4g" % x for x in bases), REF_COLD_S))
        result["metrics"] = dict(added, **result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
