import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wco import errors

CMD = [sys.executable, "-m", "wco"]


def run(*args, env_extra=None, timeout=300):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, env=env, timeout=timeout
    )


def run_json(*args, **kw):
    proc = run(*args, **kw)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


EX1_ARGS = [
    "--alpha", "0.5",
    "--psi", "psi_power:beta=2.5",
    "--phi", "mobius_self_map:lambda=0.5",
]


def test_analyze_power_weight_pair_is_compact():
    doc = run_json("analyze", *EX1_ARGS)
    assert doc["schema"] == "wco-report/1"
    assert doc["config"]["command"] == "analyze"
    assert doc["verdicts"]["sufficient_compact"] is True
    assert list(doc["quantities"]) == [
        "B1", "B2", "B3", "B4", "K_half_alpha", "K_half_alpha_plus1",
    ]
    assert type(doc["flagged_samples"]) is int


def test_analyze_remark_pair_not_compact():
    doc = run_json(
        "analyze", "--alpha", "0.5",
        "--psi", "polynomial:2,1", "--phi", "polynomial:0.5,0,0.5",
    )
    assert doc["verdicts"]["necessary_compact_ok"] is False


def test_analyze_rejects_out_of_range_family_parameter():
    proc = run("analyze", "--alpha", "0.5", "--psi", "polynomial:1",
               "--phi", "mobius_self_map:lambda=1.0")
    assert proc.returncode == 2
    assert b"lambda" in proc.stderr


def test_analyze_precondition_failure_exit_code():
    # psi_power is not a self-map, so using it as phi violates the hypothesis
    proc = run("analyze", "--alpha", "0.5", "--psi", "polynomial:1",
               "--phi", "psi_power:beta=2.5")
    assert proc.returncode == 3
    assert b"self-map" in proc.stderr


def test_spectrum_ex1_matches_geometric_family():
    doc = run_json("spectrum", *EX1_ARGS, "--N", "64")
    assert doc["passed"] is True
    assert doc["hypotheses_satisfied"] is True
    lead = [complex(re, im) for re, im in doc["prediction"][:3]]
    assert abs(lead[0] - 1.0) < 1e-12 and abs(lead[1] - 0.5) < 1e-12
    for m in doc["matches"][:6]:
        assert m["err"] <= 1e-8
    assert [row["N"] for row in doc["convergence"]] == [16, 32, 64]


def test_spectrum_exp_lft_reports_fixed_point():
    doc = run_json(
        "spectrum", "--alpha", "0.5", "--N", "48",
        "--psi", "polynomial:0,0,1", "--phi", "phi_rk:r=0.5,k=2",
    )
    a = complex(*doc["fixed_point"])
    assert abs(a - 0.19053025591158232) <= 1e-9
    lead = complex(*doc["prediction"][0])
    assert abs(lead - a * a) <= 1e-9


def test_spectrum_no_fixed_point_exits_four():
    proc = run("spectrum", "--alpha", "0.5", "--psi", "polynomial:2,1",
               "--phi", "polynomial:0.5,0,0.5")
    assert proc.returncode == 4
    assert b"fixed point" in proc.stderr


def test_kernel_check_residuals_small():
    doc = run_json("kernel-check", *EX1_ARGS, "--N", "128", "--points", "4")
    assert doc["max_residual"] <= 1e-8
    assert len(doc["residuals"]) == 4


def test_norm_check_reports_both_variants():
    doc = run_json(
        "norm-check", "--alpha", "0.5", "--f", "polynomial:0,0,1", "--N", "32",
        "--quad-R", "100", "--quad-T", "128",
    )
    assert not doc["quad_first_derivative"]["too_coarse"]
    assert 0.1 <= doc["ratio_first_over_coeff"] <= 10.0


def test_norm_check_evaluates_each_grid_once(monkeypatch, capsys):
    # both equivalent norms come from one pass over the grid's row blocks and
    # one over its refinement's, each point is evaluated once, no full-grid
    # point array is built, each grid builds its Gauss-Jacobi rule once, and
    # no Gauss-Legendre rule is built
    from wco import cli, spaces

    calls = {"points": 0, "point_blocks": 0, "samples": 0, "leggauss": 0}
    builds = []
    points, rule = spaces.QuadratureGrid.points, spaces.gauss_jacobi
    point_blocks = spaces.QuadratureGrid.point_blocks
    leggauss = np.polynomial.legendre.leggauss

    def counted_points(self):
        calls["points"] += 1
        return points(self)

    def counted_point_blocks(self):
        calls["point_blocks"] += 1
        for rows, z in point_blocks(self):
            calls["samples"] += z.size
            yield rows, z

    def counted_rule(count, alpha):
        builds.append((count, alpha))
        return rule(count, alpha)

    def counted_leggauss(n):
        calls["leggauss"] += 1
        return leggauss(n)

    monkeypatch.setattr(spaces.QuadratureGrid, "points", counted_points)
    monkeypatch.setattr(spaces.QuadratureGrid, "point_blocks", counted_point_blocks)
    monkeypatch.setattr(spaces, "gauss_jacobi", counted_rule)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted_leggauss)
    code = cli.main(["norm-check", "--alpha", "-0.5", "--f", "polynomial:0,0,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["quad_r"] == 25 and doc["config"]["quad_t"] == 512
    assert doc["quad_second_derivative"]
    assert calls == {
        "points": 0, "point_blocks": 2, "samples": 25 * 512 + 50 * 1024, "leggauss": 0,
    }
    assert builds == [(25, -0.5), (50, -0.5)]


@pytest.mark.parametrize("n", ["2087", "3000", "4096"])
def test_norm_check_runs_past_extraction_limit(n):
    # catalog functions have exact coefficients, so norm-check is not bound
    # by the N <= 2086 limit of circle extraction; |z**2|^2 = 3**(1/2)
    doc = run_json(
        "norm-check", "--alpha", "0.5", "--f", "polynomial:0,0,1", "--N", n
    )
    assert doc["coefficient_norm_sq"] == math.sqrt(3.0)


def test_norm_check_matches_high_precision_coefficients():
    # exx2's symbol phi_rk(0.5, 2) = exp((z*0 - 1.5)/(1 - z/2)); its
    # coefficients from the 60-digit ODE recurrence give the reference norm
    from test_operator import _exp_lft_coeffs

    n = 256
    h = _exp_lft_coeffs(0.0, -1.5, 0.5, n)
    want = float(np.sum((np.arange(n) + 1.0) ** 0.5 * h**2))
    doc = run_json(
        "norm-check", "--alpha", "0.5", "--f", "phi_rk:r=0.5,k=2", "--N", str(n)
    )
    assert abs(doc["coefficient_norm_sq"] - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "args",
    [
        ("--f", "psi_power:beta=1e300"),
        ("--f", "psi_power:beta=1e200", "--alpha", "-0.5", "--N", "8"),
    ],
)
def test_norm_check_refuses_overflowing_coefficients(args):
    # the binomial coefficients of (1-z)**beta overflow for huge beta; the
    # norm must refuse them instead of printing inf or nan, and without a
    # numpy warning from the overflow on the way
    proc = run("norm-check", *args)
    assert proc.returncode == 2
    assert b"error: coefficients must be finite complex numbers" in proc.stderr
    assert b"RuntimeWarning" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("func", ["polynomial:1e308,1e308", "polynomial:1e200"])
def test_norm_check_refuses_overflowing_norms(func):
    # finite coefficients whose squares overflow: refused, not a traceback
    proc = run("norm-check", "--f", func)
    assert proc.returncode == 2
    assert proc.stderr == b"error: squared norm overflows the float range\n"
    assert proc.stdout == b""


OVERFLOW_PAIR = ["--psi", "psi_power:beta=1e300", "--phi", "mobius_self_map:lambda=0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", *OVERFLOW_PAIR],
        ["spectrum", *OVERFLOW_PAIR],
        ["kernel-check", *OVERFLOW_PAIR],
        ["sweep", "--vary", "lambda", "--range", "0.5:0.9:3", *OVERFLOW_PAIR],
        ["norm-check", "--f", "psi_power:beta=1e300"],
    ],
    ids=lambda argv: argv[0],
)
def test_overflowing_weight_refused_without_warnings(argv):
    # the weight's jet and coefficients overflow: every command refuses it
    # as a parameter error, before numpy warns about the inf and nan
    proc = run(*argv)
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stderr.startswith(b"error: ")
    assert b"RuntimeWarning" not in proc.stderr
    assert proc.stdout == b""


def test_import_leaves_numpy_polynomial_out():
    code = "import sys, wco.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=dict(os.environ)
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"False\n"


def test_catalog_pairs_assemble_past_extraction_limit():
    # catalog symbols have exact coefficients, so matrix-backed reports run
    # past N = 2086, where circle extraction at radius 0.9 used to stop
    doc = run_json("kernel-check", *EX1_ARGS, "--N", "2087")
    assert doc["max_residual"] <= 1e-12


def test_sweep_lambda_rows_all_compact():
    proc = run(
        "sweep", "--vary", "lambda", "--range", "0.5:0.9:5", *EX1_ARGS
    )
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().splitlines()
    assert lines[0].startswith("vary,value,alpha,psi,phi,sufficient_bounded")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    assert all(r[6] == "true" for r in rows)  # sufficient_compact


def test_sweep_alpha_row_count():
    proc = run(
        "sweep", "--vary", "alpha", "--range=-0.5:0.5:3",
        "--psi", "polynomial:1", "--phi", "affine:c0=0,c1=0.5",
    )
    assert proc.returncode == 0
    assert len(proc.stdout.decode().strip().splitlines()) == 4


def test_sweep_r_bounded_family():
    proc = run(
        "sweep", "--vary", "r", "--range", "0.2:0.8:4", "--alpha", "0.5",
        "--psi", "polynomial:1", "--phi", "phi_r1:r=0.5",
    )
    assert proc.returncode == 0
    rows = [l.split(",") for l in proc.stdout.decode().strip().splitlines()[1:]]
    assert len(rows) == 4
    assert all(r[5] == "true" for r in rows)  # sufficient_bounded


QUASI_NILPOTENT_ARGS = [
    "--psi", "polynomial:-0.5,1", "--phi", "affine:c0=0.25,c1=0.5", "--alpha", "0.2",
]


def test_sweep_spectrum_error_is_the_spectrum_reports():
    # psi vanishes at the fixed point 1/2, so the predicted spectrum is {0}
    # and the error is the largest eigenvalue modulus; sweep evaluates at
    # N = 48, so its column is spectrum's convergence row at N = 48
    doc = run_json("spectrum", *QUASI_NILPOTENT_ARGS, "--N", "48")
    proc = run("sweep", "--vary", "alpha", "--range", "0.2:0.2:1", *QUASI_NILPOTENT_ARGS)
    assert proc.returncode == 0
    header, row = proc.stdout.decode().splitlines()
    assert header.endswith(",spectrum_max_err_first6")
    want = doc["convergence"][-1]
    assert want["N"] == 48
    assert float(row.rsplit(",", 1)[1]) == want["max_err_first6"]
    assert want["max_err_first6"] == max(
        abs(complex(*v)) for v in doc["eigenvalues_N"]
    )


def test_sweep_empty_range_is_usage_error():
    proc = run(
        "sweep", "--vary", "alpha", "--range", "0.1:0.5:0",
        "--psi", "polynomial:1", "--phi", "affine:c0=0,c1=0.5",
    )
    assert proc.returncode == 2


def test_paper_examples_full_run():
    doc = run_json("paper-examples")
    assert doc["status"] == "consistent-with-paper"
    assert [s["name"] for s in doc["scenarios"]] == [
        "ex1", "remark_c0c2", "phi_r1_bounded", "exx1", "exx2",
    ]
    for s in doc["scenarios"]:
        assert s["status"] == "consistent-with-paper"


def test_paper_examples_only_filter_with_alpha():
    doc = run_json("paper-examples", "--only", "ex1", "--alpha", "0")
    assert len(doc["scenarios"]) == 1
    cases = doc["scenarios"][0]["cases"]
    assert len(cases) == 1 and cases[0]["alpha"] == 0.0


def test_paper_examples_exx2_reports_fixed_point():
    doc = run_json("paper-examples", "--only", "exx2", "--r", "0.5", "--k", "2")
    case = doc["scenarios"][0]["cases"][0]
    assert abs(complex(*case["fixed_point"]) - 0.19053025591158232) <= 1e-9


RANGE_ERRORS = {
    ("analyze", "--alpha", "1.5", "--psi", "polynomial:1", "--phi", "identity"):
        "error: alpha must lie in (-1, 1)",
    ("spectrum", "--alpha", "0.5", "--N", "4", "--psi", "polynomial:1",
     "--phi", "identity"):
        "error: N must lie in [8, 4096]",
    ("analyze", "--alpha", "0.5", "--M-max", "25", "--psi", "polynomial:1",
     "--phi", "identity"):
        "error: M-max must lie in [6, 20]",
    # options a subcommand does not read are not accepted
    ("analyze", "--alpha", "0.5", "--N", "64", "--psi", "polynomial:1",
     "--phi", "identity"):
        "wco: error: unrecognized arguments: --N 64",
    ("kernel-check", *EX1_ARGS, "--T", "256"):
        "wco: error: unrecognized arguments: --T 256",
    ("norm-check", "--f", "polynomial:0,0,1", "--psi", "identity"):
        "wco: error: unrecognized arguments: --psi identity",
    # a negative seed used to end in a numpy traceback (exit 1), and no
    # points in a check over nothing that exited 0
    ("kernel-check", *EX1_ARGS, "--seed", "-1"): "error: seed must be nonnegative",
    ("kernel-check", *EX1_ARGS, "--points", "0"): "error: points must be positive",
    ("kernel-check", *EX1_ARGS, "--points", "-3"): "error: points must be positive",
    # the radial rule is a dense R x R eigenproblem, built again at 2R
    ("norm-check", "--f", "polynomial:0,0,1", "--quad-R", "1025"):
        "error: quad-R must be at most 1024",
    # refused before any grid circle or prediction is built
    ("analyze", *EX1_ARGS, "--T", "65538"): "error: T must be at most 65536",
    ("norm-check", "--f", "polynomial:0,0,1", "--quad-T", "65537"):
        "error: quad-T must be at most 65536",
    ("spectrum", *EX1_ARGS, "--count", "4097"): "error: count must lie in [1, 4096]",
    # of two bad options the one checked first is reported
    ("kernel-check", "--alpha", "1.5", "--z-cap", "0.9", "--psi", "polynomial:1",
     "--phi", "identity"):
        "error: alpha must lie in (-1, 1)",
}


@pytest.mark.parametrize("args", list(RANGE_ERRORS))
def test_run_config_ranges_enforced(args):
    proc = run(*args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines[-1] == RANGE_ERRORS[args]
    # only argparse's refusals print its usage lines first
    assert len(lines) == 1 or lines[-1].startswith("wco: ")


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.WcoError, 1),
        (errors.ParameterError, 2),
        (errors.PreconditionError, 3),
        (errors.InapplicableError, 4),
        (errors.FixedPointInconclusive, 3),
        (errors.NumericsError, 1),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_errors_inside_a_command_exit_with_their_code(error, code, monkeypatch, capsys):
    from wco import cli

    def fail(spec):
        raise error("stopped at %s" % spec)

    monkeypatch.setattr(cli.catalog, "from_spec", fail)
    assert error.exit_code == code
    assert cli.main(["norm-check", "--f", "polynomial:1"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: stopped at polynomial:1\n"


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["analyze", *EX1_ARGS, "--M-max", "6", "--T", "8"],
         ["alpha", "psi", "phi", "m_max", "t_base", "out"]),
        (["spectrum", *EX1_ARGS, "--N", "8", "--M-max", "6", "--T", "8"],
         ["alpha", "psi", "phi", "n", "m_max", "t_base", "out", "count"]),
        (["kernel-check", *EX1_ARGS, "--N", "8", "--points", "1"],
         ["alpha", "psi", "phi", "n", "out", "points", "seed", "z_cap"]),
        (["norm-check", "--f", "polynomial:0,1", "--N", "8", "--quad-R", "2",
          "--quad-T", "4"],
         ["alpha", "n", "out", "func", "quad_r", "quad_t"]),
        (["sweep", *EX1_ARGS, "--vary", "alpha", "--range", "0.5:0.5:1",
          "--M-max", "6", "--T", "8"],
         ["alpha", "psi", "phi", "n", "m_max", "t_base", "out", "vary", "range_spec"]),
        (["paper-examples", "--only", "exx1"], ["alpha", "out", "only", "r", "k"]),
    ],
)
def test_config_echoes_the_declared_options_in_order(argv, keys, capsys):
    # the config is the parsed namespace: the subcommand, then each option in
    # the order the parser declares it; sweep prints CSV rows and no config
    from wco import cli

    args = cli._parser().parse_args(argv)
    declared = [k for k in vars(args) if k != "run"]
    config = cli._config_dict(args)
    assert list(config) == declared == ["command", *keys]
    assert config["command"] == argv[0]
    if argv[0] != "sweep":
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == config


def test_outputs_byte_identical_across_thread_caps():
    # the BLAS thread count is the one cap the program's numerics see; at
    # N = 512 exx2 only reaches LAPACK with its small leading block, and its
    # noise eigenvalues, which a dense eigensolve varies with the thread
    # count, fall below the printed floor; phi_r1 reaches LAPACK in full, and
    # its match to the predicted 0 is a noise eigenvalue printed as null;
    # norm-check's radial rules come from 25 x 25 and 50 x 50 eigensolves
    for sub in (
        ["analyze", *EX1_ARGS, "--M-max", "10"],
        ["spectrum", *EX1_ARGS, "--N", "24"],
        ["spectrum", "--alpha", "0.5", "--N", "512",
         "--psi", "polynomial:0,0,1", "--phi", "phi_rk:r=0.5,k=2"],
        ["spectrum", "--alpha", "0.5", "--N", "512",
         "--psi", "polynomial:1", "--phi", "phi_r1:r=0.6"],
        ["norm-check", "--alpha", "-0.5", "--f", "psi_power:beta=2.5"],
    ):
        one, two = (
            run(*sub, env_extra={"OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
            for t in ("1", "2")
        )
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout


def test_in_process_calls_match_fresh_processes(capsys):
    # main builds its parser once per process; after a usage error, two
    # different subcommands in the same process print what fresh processes do
    from wco import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--M-max"])
    assert exc.value.code == 2
    capsys.readouterr()
    for sub in (
        ["analyze", *EX1_ARGS, "--M-max", "8"],
        ["norm-check", "--alpha", "-0.5", "--f", "psi_power:beta=2.5"],
    ):
        assert cli.main(sub) == 0
        assert capsys.readouterr().out.encode() == run(*sub).stdout
    assert cli._parser() is cli._parser()


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run("analyze", *EX1_ARGS, "--M-max", "8", "--out", str(target))
    assert proc.returncode == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == "wco-report/1"
