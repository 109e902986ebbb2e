"""Golden corpus: CLI output that refactors must leave byte-identical.

Each case runs `heisvir ... --porcelain` in-process and compares standard
output with `tests/golden/<name>.out`, and runs it again without
`--porcelain` and compares with `tests/golden/<name>.human`.  The README
cases also run as fresh `python -m heisvir.cli` processes: in one process
the first case loads what the later ones import, so an import cycle or a
missing import inside a subcommand shows only in a process of its own.  The cases are the README CLI
examples, one `act` per module variant with that variant's README key form,
two normal forms with a constant term and two tensor verdicts at large a.

Re-record (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from heisvir.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROCESS_LIMIT_S = 10  # wall time of one fresh CLI process

CASES = {
    # README examples
    "readme_bracket": ["bracket", "d(2)", "d(-2)"],
    "readme_normalize": ["normalize", "d(1)*d(-1) - 2*d(0)"],
    "readme_jacobi": ["jacobi", "--bound", "6"],
    "readme_sigma_check": ["sigma-check", "--a=-2=2,-1=1", "--b", "3", "--bound", "4"],
    "readme_rho": ["rho", "--params", "(a=1/2,b=0,F=0)", "d(-1)"],
    "readme_whittaker_simple": ["whittaker-simple", "--params", "(m=1,phi.z3=0,phi.I1=0)"],
    "readme_whittaker_degenerate": [
        "whittaker-simple",
        "--params",
        "(m=1,phi.I0=1/2,phi.I1=3/4,phi.d1=1/16,phi.d2=-9/64,phi.z2=1/3,phi.z3=2)",
    ],
    "readme_tensor_gens": ["tensor-simple", "--params", "(a=1,b=0,F=0)", "--gens", "d(-1)"],
    "readme_tensor_search": [
        "tensor-simple",
        "--params",
        "(I0dot=0,d0dot=3,z2dot=1,z3dot=0,a=1/2,b=0,F=0)",
        "--search-degree",
        "3",
    ],
    "readme_singular": ["singular", "--params", "(I0dot=0,d0dot=7/3,z2dot=1,z3dot=0)", "--degree", "1"],
    "readme_whittaker_vector": ["whittaker-vector", "--params", "(m=1,phi.I1=0,phi.z3=0)"],
    "readme_membership": ["membership", "--params", "(a=1,b=0,F=0)", "--n", "-2", "--buffer", "2", "d(-1)"],
    "readme_module_check": [
        "module-check",
        "--module",
        "omega",
        "--params",
        "(lambda=1,d0dot=2,I0dot=3)",
        "--bound",
        "3",
        "--window",
        "10",
    ],
    "readme_act": ["act", "--module", "verma", "--params", "(I0dot=3,d0dot=5/2,z2dot=1/2)", "d(1)", "d(-1)"],
    # one act per module variant, each with its README key form
    "act_verma": ["act", "--module", "verma", "--params", "(I0dot=3,d0dot=5/2,z2dot=1/2)", "d(1)", "I(-1)^2*d(-1)"],
    "act_iseries": ["act", "--module", "iseries", "--params", "(a=1/2,b=2,F=3)", "d(1) + 2*I(-2)", "x^3"],
    "act_fock": ["act", "--module", "fock", "--params", "(I0dot=1,z2dot=1/2,z3dot=2)", "d(-1) + d(1)", "I(-1)^2"],
    "act_whittaker": [
        "act",
        "--module",
        "whittaker",
        "--params",
        "(m=1,phi.d1=2,phi.d2=1/3,phi.I0=1,phi.I1=5,phi.z3=2)",
        "d(1)*I(-1)",
        "I(-1)*d(0)",
    ],
    "act_shifted": [
        "act",
        "--module",
        "shifted",
        "--params",
        "(I0dot=1,d0dot=2,z2dot=1,z3dot=1,a=1/2,b=0,F=1)",
        "d(1)*d(-1)",
        "I(-1)@y^2",
    ],
    "act_omega": ["act", "--module", "omega", "--params", "(lambda=2,d0dot=1/3,I0dot=3)", "d(1) + I(2)", "2"],
    "act_embedded": [
        "act",
        "--module",
        "embedded",
        "--params",
        "(r=1,mu1=1,mu2=2,kappa0=3,kappa1=1/2,lambda=2)",
        "d(1)",
        "1,1",
    ],
    "act_wmukappa": [
        "act",
        "--module",
        "wmukappa",
        "--params",
        "(r=1,mu1=1,mu2=2,kappa0=3,kappa1=1/2)",
        "d(1)",
        "d(-1)*d(0)",
    ],
    # normal forms with a constant term
    "normalize_constant_first": ["normalize", "I(1)*I(-1) + 1/2"],
    "normalize_constant_leading": ["normalize", "2 - d(1)*d(-1)*d(1)"],
    # tensor verdicts whose rho has a constant term near 10^30
    "tensor_large_a_half": ["tensor-simple", "--params", "(a=1000000000000001/2,b=0,F=0)", "--gens", "d(-1)*d(-2)"],
    "tensor_large_a_integral": ["tensor-simple", "--params", "(a=1000000000000001,b=0,F=0)", "--gens", "d(-1)*d(-2)"],
}


def run(argv, porcelain_mode=True):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + (["--porcelain"] if porcelain_mode else []))
    return code, buf.getvalue()


def porcelain(argv):
    return run(argv)


def _golden(name, suffix):
    with open(os.path.join(GOLDEN, name + suffix), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_porcelain(name):
    code, out = porcelain(CASES[name])
    assert code == 0
    assert out == _golden(name, ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_human(name):
    code, out = run(CASES[name], porcelain_mode=False)
    assert code == 0
    assert out == _golden(name, ".human")


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("readme_")))
def test_golden_porcelain_fresh_process(name):
    proc = subprocess.run(
        [sys.executable, "-m", "heisvir.cli", *CASES[name], "--porcelain"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=PROCESS_LIMIT_S,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        assert proc.stdout == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        for porcelain_mode, suffix in ((True, ".out"), (False, ".human")):
            code, out = run(argv, porcelain_mode)
            if code != 0:
                raise SystemExit("%s exited %d" % (name, code))
            with open(os.path.join(GOLDEN, name + suffix), "w", encoding="utf-8") as fh:
                fh.write(out)
