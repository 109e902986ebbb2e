"""What each import loads, checked in fresh processes.

`import heisvir` loads no submodule and `heisvir.cli` loads a subcommand's
submodules only when it runs, so a one-command process pays for no more than
it uses.  A check in the test process itself would see whatever the earlier
tests loaded, so each check starts its own interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SUBMODULES = ("algebra", "cli", "criteria", "errors", "expr", "linsearch", "modules", "params", "pbw")
PROBE = (
    "\nimport json, sys\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'heisvir')\n"
    "print(json.dumps([loaded, 'dataclasses' in sys.modules]))\n"
)


def loaded_by(code):
    """(the heisvir modules loaded, whether dataclasses was) after running code in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code + PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, dataclasses = json.loads(proc.stdout.splitlines()[-1])
    return loaded, dataclasses


def test_import_heisvir_loads_no_submodule():
    assert loaded_by("import heisvir") == (["heisvir"], False)


def test_import_cli_loads_only_errors():
    assert loaded_by("import heisvir.cli") == (["heisvir", "heisvir.cli", "heisvir.errors"], False)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first_and_without_dataclasses(name):
    # a submodule imported first in a process meets any import cycle it is part of
    loaded, dataclasses = loaded_by("import heisvir.%s" % name)
    assert "heisvir." + name in loaded
    assert not dataclasses


def test_star_import_loads_no_dataclasses():
    loaded, dataclasses = loaded_by("from heisvir import *")
    assert not dataclasses
    assert {"heisvir.algebra", "heisvir.criteria", "heisvir.linsearch", "heisvir.modules"} <= set(loaded)


@pytest.mark.parametrize(
    "argv",
    [["bracket", "d(2)", "d(-2)"], ["normalize", "d(1)*d(-1) - 2*d(0)"], ["jacobi", "--bound", "2"]],
    ids=lambda argv: argv[0],
)
def test_algebra_commands_load_no_module_layer(argv):
    loaded, _ = loaded_by("import heisvir.cli\nassert heisvir.cli.main(%r) == 0" % argv)
    assert "heisvir.cli" in loaded
    assert not {"heisvir.modules", "heisvir.linsearch", "heisvir.criteria", "heisvir.params"} & set(loaded)


def test_sigma_check_loads_only_the_parameter_reader():
    argv = ["sigma-check", "--a=-2=2,-1=1", "--b", "3", "--bound", "2"]
    loaded, _ = loaded_by("import heisvir.cli\nassert heisvir.cli.main(%r) == 0" % argv)
    assert loaded == ["heisvir", "heisvir.algebra", "heisvir.cli", "heisvir.errors", "heisvir.params"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--params", "(a=1/2,b=0,F=0)", "d(-1)"],
        ["tensor-simple", "--params", "(a=1,b=0,F=0)", "--gens", "d(-1)"],
        ["whittaker-simple", "--params", "(m=1,phi.z3=0,phi.I1=1)"],
    ],
    ids=["rho", "tensor-gens", "whittaker-simple"],
)
def test_parameter_commands_load_no_module_layer(argv):
    # the value classes live in params, so reading them compiles no module code;
    # a NOT_SIMPLE z3 = 0 verdict searches for a witness in human mode, so this one is SIMPLE
    loaded, _ = loaded_by("import heisvir.cli\nassert heisvir.cli.main(%r) == 0" % argv)
    assert "heisvir.criteria" in loaded
    assert "heisvir.modules" not in loaded
