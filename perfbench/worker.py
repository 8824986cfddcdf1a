"""One workload process: set up, run the seeded op list, check, report.

Started by ``run.py``, one fresh process per run.  It prints ``ready`` once
``wco`` is imported and the first op is generated (the parent times set-up
up to that line; later cycles of the seeded op list are drawn as the loop
needs them), then calls ``wco.cli.main(argv)`` in-process, one op after the
other, for ``--seconds``; untraced, the loop runs in segments that the parent
starts through stdin.  Checks run after the timed loop, once per distinct
input.  The last stdout line is the JSON result; with ``--trace 1`` the timed
loop is replayed under the span tracer and the per-layer metrics replace the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import os

# one BLAS thread, set before numpy loads; the program itself has no knob
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

if __name__ == "__main__":
    # the cold host speed index ends here, before wco is imported (speed.py)
    print("numpy", flush=True)

import wco  # noqa: E402
import wco.cli  # noqa: E402
from wco.errors import WcoError  # noqa: E402

import checks  # noqa: E402
from refs import spec  # noqa: E402
from workloads import WORKLOADS, iter_cycles  # noqa: E402


def fingerprint() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
        "wco": getattr(wco, "__version__", "?"),
    }


def run_op(argv):
    """``(seconds, exit code or None, compressed stdout, error text)``.

    Reports are kept compressed until the checks, so that what the harness
    stores grows little with the number of ops and ``peak_rss_mb`` stays the
    program's.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wco.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception as exc:  # the op failed; the run goes on
        code = None
        err.write("%s: %s" % (type(exc).__name__, exc))
    elapsed = perf_counter() - start
    return elapsed, code, zlib.compress(out.getvalue().encode()), err.getvalue()


def timed_loop(cycles, seconds, tracer=None):
    """Run whole cycles drawn from ``cycles`` until ``seconds`` have passed
    (at least one cycle) or the cycles run out.

    Returns ``[(op, seconds, exit code, stdout, stderr)]``, the wall time and
    the list of cycles run.
    """
    results, used = [], []
    t0 = perf_counter()
    for cycle in cycles:
        used.append(cycle)
        for op in cycle:
            if tracer is not None:
                tracer.begin_op(len(results))
            try:
                results.append((op,) + run_op(op["argv"]))
            finally:
                if tracer is not None:
                    tracer.end_op()
        if perf_counter() - t0 >= seconds:
            break
    return results, perf_counter() - t0, used


def segmented_loop(cycles, commands):
    """The untraced timed loop, in segments: each line of ``commands`` gives
    the seconds the whole loop is to have run when the segment ends (a
    segment already reached runs no cycle), and ``done`` is printed after
    each.  Between segments the process waits while the parent runs a probe.
    Returns the results and the loop's wall time, waits excluded.
    """
    warm, wall = [], 0.0
    for line in commands:
        target = float(line)
        if not warm or wall < target:
            results, seconds, _ = timed_loop(cycles, target - wall)
            warm += results
            wall += seconds
        print("done", flush=True)
    return warm, wall


def program_matrix(psi, phi, alpha, n):
    """The program's own truncation, built through its public API."""
    from wco.catalog import from_spec
    from wco.operator import assemble_matrix
    from wco.spaces import SpaceParams

    return assemble_matrix(from_spec(spec(psi)), from_spec(spec(phi)),
                           SpaceParams(alpha), n).entries


def check_run(results):
    """Check every executed op; returns (failures, matrix summary).

    A matrix the program cannot build (renamed API) or refuses to build is
    listed but not scored.
    """
    first = {}  # argv -> (exit code, compressed report, reason)
    failures = []
    for i, (op, _, code, text, err) in enumerate(results):
        key = tuple(op["argv"])
        if key not in first:
            reason = checks.check_output(op, code, zlib.decompress(text).decode())
            if reason and err.strip():
                reason += " (stderr: %s)" % err.strip().splitlines()[-1]
            first[key] = (code, text, reason)
        code0, text0, reason = first[key]
        if reason is None and (code, text) != (code0, text0):
            reason = "output differs from an earlier run of the same argv"
        if reason:
            failures.append({"op": i, "argv": op["argv"], "reason": reason})
    matrices = {}
    for op, *_ in results:
        for m in op["matrices"]:
            matrices.setdefault(json.dumps(m), m)
    checked = []
    for m in matrices.values():
        try:
            entries = program_matrix(*m)
        except (ImportError, AttributeError) as exc:
            checked.append({"matrix": m, "absent": str(exc)})
            continue
        except WcoError as exc:  # refused loudly: no number to distrust
            checked.append({"matrix": m, "refused": str(exc)})
            continue
        untrusted, dev, scale = checks.check_matrix(entries, *m)
        checked.append({"matrix": m, "untrusted": untrusted, "deviation": dev, "scale": scale})
    return failures, checked


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", required=True, help="directory for the run record")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    cycles = iter_cycles(args.workload, args.seed)
    first_op = next(cycles)[0]
    print("ready", flush=True)
    first = (first_op,) + run_op(first_op["argv"])
    print("first_op_s %r" % first[1], flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        # untraced pass, then the same ops replayed under the tracer
        from tracing import Tracer

        plain, _, used = timed_loop(cycles, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            replay, _, _ = timed_loop(used, float("inf"), tracer)
        finally:
            tracer.uninstall()
        warm = plain + replay
    else:
        warm, warm_wall = segmented_loop(cycles, sys.stdin)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [first] + warm
    failures, matrices = check_run(results)
    attempted = len(results)
    scored = [m for m in matrices if "untrusted" in m]
    untrusted = [m for m in scored if m["untrusted"]]
    untrusted_frac = len(untrusted) / len(scored) if scored else 0.0
    failed_frac = len(failures) / attempted

    lines = []
    metrics = {}

    def put(name, value, unit, note):
        metrics[name] = {"value": value, "unit": unit}
        lines.append("metric %-28s %14s %-6s %s" % (
            name, "absent" if value is None else "%.6g" % value, unit, note))

    if tracer is None:
        lat = [r[1] for r in warm]
        n = len(lat)
        put("ops_per_s", n / warm_wall, "1/s", "(%d warm ops in %.2f s)" % (n, warm_wall))
        put("op_p50_s", statistics.median(lat), "s", "(n=%d)" % n)
        put("op_p90_s", statistics.quantiles(lat, n=10, method="inclusive")[8], "s",
            "(n=%d%s)" % (n, "" if n >= 100 else ", fewer than 100 ops: indicative"))
        put("peak_rss_mb", peak_rss_mb, "MB", "(ru_maxrss of this process)")
        put("ok_frac", 1.0 - failed_frac, "1", "(%d of %d ops passed)" % (attempted - len(failures), attempted))
    else:
        traced_wall = tracer.wall()
        plain_time = sum(r[1] for r in plain)
        for name, (value, unit) in tracer.layer_metrics(len(replay)).items():
            put(name, value, unit, "")
        put("trace.wall_s", traced_wall / len(replay), "s/op", "(n=%d traced ops)" % len(replay))
        put("trace.overhead_frac", traced_wall / plain_time - 1.0, "1",
            "(traced %.3f s against untraced %.3f s, same %d ops)" % (traced_wall, plain_time, len(replay)))
        put("check.failed_frac", failed_frac, "1", "(%d of %d ops)" % (len(failures), attempted))
        put("check.untrusted_frac", untrusted_frac, "1", "(%d of %d matrices)" % (len(untrusted), len(scored)))

    record_dir = Path(args.record)
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    distinct = results if tracer is None else results[: 1 + len(plain)]
    executed = [r[0]["argv"] for r in distinct]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": fingerprint(), "ops": executed,
        "latencies_s": [r[1] for r in results], "failures": failures,
        "matrices": matrices, "metrics": metrics,
    }
    if tracer is not None:
        record["absent_names"] = tracer.absent
        tracer.write_spans(record_dir / (stem + ".spans.jsonl"))
    (record_dir / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    print("env %s" % json.dumps(fingerprint()))
    print("ops %s" % json.dumps(executed))
    for line in lines:
        print(line)
    print("metric %-28s %14.6g %-6s (%d of %d ops)" % (
        "failed_frac", failed_frac, "1", len(failures), attempted))
    for f in failures[:5]:
        print("  failed op %d %s: %s" % (f["op"], " ".join(f["argv"]), f["reason"]))
    worst = max((m["deviation"] / m["scale"] for m in scored), default=0.0)
    print("metric %-28s %14.6g %-6s (%d of %d distinct matrices; worst deviation %.3g x "
          "the reference's largest entry)" % ("untrusted_frac", untrusted_frac, "1",
                                              len(untrusted), len(scored), worst))
    if tracer is not None and tracer.absent:
        print("absent %s" % " ".join(tracer.absent))
    print("record %s" % (record_dir / (stem + ".json")))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
