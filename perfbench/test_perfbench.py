"""Tests of the benchmark itself: references, tracing, op lists, output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refs
from tracing import HOOKS, LAYERS, ROOT_LAYER, Tracer
from workloads import EX1, EXX2, WORKLOADS, iter_cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("pair", [EX1, EXX2], ids=["ex1", "exx2"])
def test_reference_matches_assemble_matrix_at_64(pair):
    from wco.catalog import from_spec
    from wco.operator import assemble_matrix
    from wco.spaces import SpaceParams

    psi, phi = pair
    m = assemble_matrix(from_spec(refs.spec(psi)), from_spec(refs.spec(phi)),
                        SpaceParams(0.5), 64)
    dev, scale = refs.matrix_deviation(m.entries, refs.reference_matrix(psi, phi, 0.5, 64))
    assert dev <= 1e-12 * scale


@pytest.mark.parametrize("pair", [EX1, EXX2], ids=["ex1", "exx2"])
def test_reference_columns_reproduce_psi_phi_powers_at_512(pair):
    # sum_j c_j(psi phi^k) z^j = psi(z) phi(z)^k; at |z| = 0.9 the tail past
    # j = 511 is below 1e-20, so this checks the high-order coefficients too
    psi, phi = pair
    n = 512
    entries = refs.reference_matrix(psi, phi, 1.0, n)  # alpha = 1: no rescaling
    for z in 0.9 * np.exp(2j * np.pi * np.arange(5) / 5):
        exact = refs.value_and_slope(psi, z)[0] * refs.value_and_slope(phi, z)[0] ** np.arange(n)
        assert np.max(np.abs(z ** np.arange(n) @ entries - exact)) <= 1e-11


def _wrapped_names():
    """``(holder, attribute)`` of every wco function or method that carries
    ``__wrapped__`` (the tracer's wrappers, and a few of the program's own)."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if not name.startswith("wco"):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "__wrapped__"):
                found.add((name, attr))
            if isinstance(obj, type):
                for member, value in vars(obj).items():
                    inner = getattr(value, "__func__", getattr(value, "fget", value))
                    if hasattr(inner, "__wrapped__"):
                        found.add((name + "." + attr, member))
    return found


def test_layer_self_times_sum_to_traced_wall_time():
    import wco.cli

    before = _wrapped_names()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = _wrapped_names() - before
        # a name one layer imported from another is rebound to the wrapper
        assert any(mod.split(".")[-1] in LAYERS
                   and getattr(sys.modules[mod], attr).__module__ != mod
                   for mod, attr in wrapped if mod in sys.modules)
        for i, argv in enumerate([
            ["spectrum", "--N", "16", "--psi", "psi_power:beta=2.5",
             "--phi", "mobius_self_map:lambda=0.5"],
            ["norm-check", "--f", "polynomial:0,0,1"],
        ]):
            tracer.begin_op(i)
            try:
                assert wco.cli.main(argv) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    assert _wrapped_names() == before
    selft = tracer.self_times()
    assert sum(selft.values()) == pytest.approx(tracer.wall(), rel=1e-9)
    for layer in LAYERS + (ROOT_LAYER,):
        assert selft.get(layer, 0.0) > 0.0, layer
    metrics = tracer.layer_metrics(2)
    for name, (value, unit) in metrics.items():
        assert NAME.match(name) and UNIT.match(unit), name
    # a hooked name the program no longer has turns its metrics into None
    tracer.absent = list(HOOKS)
    nulled = tracer.layer_metrics(2)
    for _, names in HOOKS.values():
        for name in names:
            assert metrics[name][0] is not None and nulled[name][0] is None, name


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_op_lists_are_seeded():
    for workload in WORKLOADS:
        a = list(itertools.islice(iter_cycles(workload, 3), 40))
        assert a == list(itertools.islice(iter_cycles(workload, 3), 40))
        assert a != list(itertools.islice(iter_cycles(workload, 4), 40))
        kinds = {tuple(sorted(op["kind"] for op in cycle)) for cycle in a[1:]}
        assert len(kinds) == 1, "every cycle has the same mix of kinds"


def test_timed_loop_runs_in_segments(capsys):
    import worker

    cycles = iter_cycles("short_reports", 1)
    expected = list(itertools.islice(iter_cycles("short_reports", 1), 3))
    next(cycles)  # the first op
    # the first segment runs at least one cycle; a segment already reached runs none
    warm, wall = worker.segmented_loop(cycles, ["0\n", "0\n", "1e-9\n"])
    assert [r[0] for r in warm] == expected[1] and wall > 0.0
    assert all(r[2] == 0 for r in warm)
    assert capsys.readouterr().out == "done\n" * 3
    assert next(cycles) == expected[2], "no cycle is drawn and left unrun"


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short_reports",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_declared_metric(trace, key):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
