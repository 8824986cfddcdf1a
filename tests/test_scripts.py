import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_convergence_study_defaults_are_coherent():
    out = run_script("convergence_study.py")
    assert "coherent: True" in out


def test_criteria_profile_defaults_print_every_annulus():
    out = run_script("criteria_profile.py")
    assert "verdict=tends_to_zero" in out
    assert "\n 18  " in out  # the default grid has 18 annuli
