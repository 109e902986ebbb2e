import json
import os
import subprocess
import sys
import time

import pytest

from heisvir import cli
from heisvir.cli import main
from heisvir.params import parse_param_arg
from test_golden import CASES, GOLDEN


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


def test_normalize_huge_power_of_constant(capsys):
    # one multiplication per unit of the exponent did not finish in 5 s
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "normalize", "1^20000000")
    dt = time.perf_counter() - t0
    assert code == 0 and out == "1\n"
    assert dt < 5, "time limit 5s exceeded: %.2fs" % dt


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


def test_unsupported_generator_names_the_variant(capsys):
    # the message names the variant as --module spells it
    code, out, err = run(capsys, "act", "--module", "wmukappa", "--params", "(r=1,mu1=1,mu2=1)", "I(-1)", "1")
    assert code == 2 and out == ""
    assert "I(-1) does not act on wmukappa" in err


def test_sigma_check(capsys):
    code, out, _ = run(capsys, "sigma-check", "--a=-2=2,-1=1", "--b", "3", "--bound", "3")
    assert code == 0
    assert out.strip() == "OK 0 violations"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sigma-check", "--b", "1/0", "--bound", "1"], "error: zero denominator: '1/0'"),
        (["sigma-check", "--a", "1=1/0", "--bound", "1"], "error: zero denominator: '1/0'"),
        (["rho", "--params", "(a=1/0,b=0,F=0)", "d(-1)"], "error: zero denominator: '1/0'"),
        (["sigma-check", "--a", "1=1,1=2", "--bound", "1"], "error: duplicate index: 1"),
        (["sigma-check", "--a", "x=1", "--bound", "1"], "error: expected i=value with an integer i in 'x=1'"),
        (["sigma-check", "--a", "1", "--bound", "1"], "error: expected i=value in '1'"),
    ],
)
def test_bad_parameter_values_are_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [message]


def test_unreadable_parameter_file_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "rho", "--params", str(tmp_path), "d(-1)")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read parameter file %s" % tmp_path) and len(err.splitlines()) == 1


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


@pytest.mark.parametrize(
    "gens, code, message",
    [
        ("d(-1)-d(-1)", 1, "error: need at least one generator, and a zero one generates no submodule\n"),
        ("d(1)", 2, "precondition violated: d(1) is not in the strictly negative part\n"),
    ],
)
def test_tensor_simple_rejects_bad_generators(capsys, gens, code, message):
    # a zero generator printed NOT_SIMPLE and exited 0; d(1) was named ('d', 1)
    result, out, err = run(capsys, "tensor-simple", "--params", "(a=1,b=0,F=0)", "--gens", gens)
    assert (result, out, err) == (code, "", message)


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


ACT_CASES = sorted(name for name in CASES if name.startswith("act_"))


def _variant(case):
    """(variant, params) of a golden act case."""
    argv = CASES[case]
    return argv[argv.index("--module") + 1], argv[argv.index("--params") + 1]


def _case_module(case):
    variant, params = _variant(case)
    return cli._build_module(variant, parse_param_arg(params))


@pytest.mark.parametrize("case", ACT_CASES)
def test_key_str_names_window_keys_distinctly(case):
    module = _case_module(case)
    keys = module.window(4)
    assert len({module.key_str(k) for k in keys}) == len(keys)


@pytest.mark.parametrize("case", ACT_CASES)
def test_window_matches_golden(case):
    # recorded from the command line's window builder before each module owned its window
    with open(os.path.join(GOLDEN, "windows_3.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    module = _case_module(case)
    assert [module.key_str(k) for k in module.window(3)] == golden[_variant(case)[0]]


@pytest.mark.parametrize("case", ACT_CASES)
def test_negative_window_is_usage_error(capsys, case):
    variant, params = _variant(case)
    code, out, err = run(capsys, "module-check", "--module", variant, "--params", params, "--bound", "1", "--window", "-1")
    assert code == 1
    assert out == "" and "window size" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_module_check_rejects_bound_below_one(capsys, bound):
    # as jacobi and sigma-check do; such a bound checked the centrals alone
    code, out, err = run(
        capsys, "module-check", "--module", "iseries", "--params", "(a=1,b=0,F=0)", "--bound", bound, "--window", "2"
    )
    assert code == 1
    assert out == "" and "index_bound must be >= 1" in err


@pytest.mark.parametrize(
    "variant,params,key",
    [
        ("embedded", "(r=1,mu1=1,mu2=2,kappa0=3,kappa1=1/2,lambda=2)", "-1,0"),
        ("embedded", "(r=1,mu1=1,mu2=2,kappa0=3,kappa1=1/2,lambda=2)", "0,-2"),
        ("embedded", "(r=1,mu1=1,mu2=2,kappa0=3,kappa1=1/2,lambda=2)", "1"),
        ("omega", "(lambda=2,d0dot=1/3,I0dot=3)", "-2"),
        ("iseries", "(a=1/2,b=2,F=3)", "x^y"),
        ("shifted", "(I0dot=1,d0dot=2,z2dot=1,z3dot=1,a=1/2,b=0,F=1)", "I(-1)"),
    ],
)
def test_out_of_range_key_is_usage_error(capsys, variant, params, key):
    code, out, err = run(capsys, "act", "--module", variant, "--params", params, "--", "d(1)", key)
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_cli_needs_no_test_only_packages():
    # sympy and hypothesis serve the tests and the benchmark only; with both
    # unimportable the whole golden corpus still runs and matches
    script = (
        "import json, sys\n"
        "sys.modules['sympy'] = sys.modules['hypothesis'] = None\n"
        "from heisvir.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(main(argv + ['--porcelain']))\n"
    )
    names = sorted(CASES)
    src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([CASES[n] for n in names])],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    expected = ""
    for name in names:
        with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8") as fh:
            expected += fh.read() + "0\n"
    assert proc.stdout == expected
