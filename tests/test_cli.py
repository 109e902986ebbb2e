import pytest

from heisvir import cli
from heisvir.cli import main
from heisvir.params import parse_param_arg
from test_golden import CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_example(capsys):
    code, out, _ = run(capsys, "rho", "--params", "(a=1/2,b=0,F=0)", "d(-1)")
    assert code == 0
    assert out.strip() == "-n - 3/2"


def test_whittaker_simple_not_simple_exit_zero(capsys):
    code, out, _ = run(
        capsys, "whittaker-simple", "--params", "(m=1,phi.z3=0,phi.I1=0)", "--porcelain"
    )
    assert code == 0
    assert out.splitlines()[0] == "verdict\tNOT_SIMPLE"


def test_jacobi(capsys):
    code, out, _ = run(capsys, "jacobi", "--bound", "3")
    assert code == 0
    assert out.strip() == "OK 0 violations"


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "d(2)", "d(-2)")
    assert code == 0
    assert out.strip() == "1/2*z1 - 4*d(0)"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "d(-1)*I(-2)")
    assert code == 0
    assert out.strip() == "-2*I(-3) + I(-2)*d(-1)"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "d(")
    assert code == 1
    assert "column 3" in err


def test_precondition_exit_code(capsys):
    code, _, err = run(
        capsys, "act", "--module", "fock", "--params", "(I0dot=1,z3dot=0)", "d(0)", "1"
    )
    assert code == 2
    assert "z3" in err


def test_sigma_check(capsys):
    code, out, _ = run(capsys, "sigma-check", "--a=-2=2,-1=1", "--b", "3", "--bound", "3")
    assert code == 0
    assert out.strip() == "OK 0 violations"


def test_tensor_simple_with_gens(capsys):
    code, out, _ = run(
        capsys,
        "tensor-simple",
        "--params",
        "(a=1,b=0,F=0)",
        "--gens",
        "d(-1)",
        "--porcelain",
    )
    assert code == 0
    assert out.strip() == "verdict\tNOT_SIMPLE n=-2"


def test_tensor_simple_discovery(capsys):
    code, out, _ = run(
        capsys,
        "tensor-simple",
        "--params",
        "(I0dot=0,d0dot=3,z2dot=1,z3dot=0,a=1/2,b=0,F=0)",
        "--search-degree",
        "2",
        "--porcelain",
    )
    assert code == 0
    lines = out.splitlines()
    assert "search_status\tcomplete" in lines
    assert lines[-1] == "verdict\tSIMPLE"


def test_tensor_simple_truncated_strict(capsys):
    # z3 != 0 discovery is never certified complete
    code, out, _ = run(
        capsys,
        "tensor-simple",
        "--params",
        "(I0dot=1,d0dot=-1/2,z1dot=2,z3dot=1,a=0,b=0,F=1)",
        "--search-degree",
        "2",
        "--strict",
        "--porcelain",
    )
    assert code == 3
    assert any(line.startswith("verdict\tINCONCLUSIVE") for line in out.splitlines())


def test_membership(capsys):
    code, out, _ = run(
        capsys, "membership", "--params", "(a=1,b=0,F=0)", "--n", "-2", "--buffer", "2", "d(-1)"
    )
    assert code == 0
    assert out.strip() == "true"


def test_singular(capsys):
    code, out, _ = run(
        capsys,
        "singular",
        "--params",
        "(I0dot=0,d0dot=7/3,z2dot=1,z3dot=0)",
        "--degree",
        "1",
        "--porcelain",
    )
    assert code == 0
    assert "vector\t7/3*I(-1)*w + d(-1)*w" in out


def test_whittaker_vector(capsys):
    code, out, _ = run(
        capsys,
        "whittaker-vector",
        "--params",
        "(m=1,phi.d1=2/3,phi.d2=5,phi.I0=7/2,phi.I1=0,phi.z3=0)",
        "--porcelain",
    )
    assert code == 0
    assert "variables\t4" in out


def test_module_check(capsys):
    code, out, _ = run(
        capsys,
        "module-check",
        "--module",
        "omega",
        "--params",
        "(lambda=1,d0dot=2,I0dot=3)",
        "--bound",
        "3",
        "--window",
        "4",
        "--porcelain",
    )
    assert code == 0
    assert "violations\t0" in out


def test_act_verma(capsys):
    code, out, _ = run(
        capsys,
        "act",
        "--module",
        "verma",
        "--params",
        "(I0dot=3,d0dot=5/2,z2dot=1/2)",
        "d(1)",
        "d(-1)",
    )
    assert code == 0
    assert out.strip() == "-5*w"


def test_porcelain_byte_stability(capsys):
    argv = [
        "tensor-simple",
        "--params",
        "(a=1,b=0,F=0)",
        "--gens",
        "d(-1);d(-2)",
        "--porcelain",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_porcelain_byte_stability_across_processes():
    import subprocess
    import sys

    argv = [
        sys.executable,
        "-m",
        "heisvir.cli",
        "singular",
        "--params",
        "(I0dot=0,d0dot=7/3,z2dot=1,z3dot=0)",
        "--degree",
        "2",
        "--porcelain",
    ]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_membership_unstable_exit_codes(capsys, monkeypatch):
    import heisvir.cli as cli
    from heisvir.errors import UnstableSpan

    def boom(*args, **kwargs):
        raise UnstableSpan("verdict changed between depth 3 and 4")

    monkeypatch.setattr(cli.linsearch, "shifted_membership", boom)
    argv = ["membership", "--params", "(a=1,b=0,F=0)", "--n", "0", "--buffer", "1", "d(-1)"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "UNSTABLE" in out
    code_strict, _, _ = run(capsys, *argv + ["--strict"])
    assert code_strict == 3


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("case", sorted(name for name in CASES if name.startswith("act_")))
def test_key_str_names_window_keys_distinctly(case):
    argv = CASES[case]
    module = cli._build_module(argv[argv.index("--module") + 1], parse_param_arg(argv[argv.index("--params") + 1]))
    keys = cli._window_keys(module, 4)
    assert len({module.key_str(k) for k in keys}) == len(keys)
