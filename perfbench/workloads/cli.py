"""cli: README-shaped commands, one ``python -m heisvir.cli`` process per item.

Users run one command per process, so the interpreter start, the import of
the package and its per-process set-up are paid on every item; no other
workload measures them.  Each cycle runs every subcommand once; the seed
draws four parameter sets per subcommand and the items cycle through them.

Oracle: exit code 0 and porcelain output equal to the records built here
from in-process library calls, plus the closed rules where one exists (the
d(-p) verdict, and zero violations for every window check).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from common import ROOT, Item, ItemTimeout, rand_q, require

NAME = "cli"
TRACE_ITEMS_PER_SECOND = 3
DIGEST_ITEMS = 260
VARIANTS = 4
PROCESS_BUDGET_S = 8.0  # below the in-process item budget, so the subprocess timeout fires first

KINDS = (
    "bracket",
    "normalize",
    "jacobi",
    "sigma-check",
    "rho",
    "whittaker-simple",
    "tensor-gens",
    "tensor-search",
    "singular",
    "whittaker-vector",
    "membership",
    "module-check",
    "act",
)


def rational_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def params_text(pairs):
    """Inline parameter syntax of the heisvir CLI: ``(key=value,...)``."""
    return "(" + ",".join("%s=%s" % (k, rational_text(v)) for k, v in pairs) + ")"


class State:
    def __init__(self, hv, seed):
        self.hv = hv
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        rng = random.Random("cli-%d" % seed)
        self.pool = {kind: [_command(rng, kind, k) for k in range(VARIANTS)] for kind in KINDS}
        self.expected = {}


def _gen_text(rng, kinds="dI", low=-3, high=3):
    return "%s(%d)" % (rng.choice(kinds), rng.randint(low, high))


def _lie_text(rng, terms):
    # a leading minus sign would read as an option
    return " + ".join("%s*%s" % (rational_text(abs(rand_q(rng))), _gen_text(rng)) for _ in range(terms))


def _word_text(rng, length, low=-3, high=3):
    return "*".join(_gen_text(rng, low=low, high=high) for _ in range(length))


def _hw_pairs(rng):
    return [("I0dot", rand_q(rng, zero=True)), ("d0dot", rand_q(rng, zero=True)), ("z2dot", rand_q(rng, zero=True)), ("z3dot", rand_q(rng))]


def _zero_hw_pairs(rng, p):
    """z3 = 0 weight data with a submodule generator at depth p."""
    z2 = rand_q(rng)
    ratio = 1 - p if rng.random() < 0.5 else 1 + p
    return [("I0dot", ratio * z2), ("d0dot", rand_q(rng, zero=True)), ("z2dot", z2), ("z3dot", 0)]


def _is_pairs(rng):
    return [("a", rand_q(rng, zero=True)), ("b", rand_q(rng, zero=True)), ("F", rand_q(rng, zero=True))]


def _whittaker_pairs(rng, m):
    pairs = [("m", m)]
    pairs += [("phi.d%d" % k, rand_q(rng, zero=True)) for k in range(m, 2 * m + 1)]
    pairs += [("phi.I%d" % k, rand_q(rng, zero=True)) for k in range(0, m)]
    pairs.append(("phi.I%d" % m, 0 if rng.random() < 0.5 else rand_q(rng)))
    pairs.append(("phi.z3", 0))
    return pairs


def _command(rng, kind, k):
    """(subcommand, arguments) of variant k; k fixes the sizes, the seed only the values."""
    small, tiny = 1 + k % 3, 1 + k % 2
    if kind == "bracket":
        return "bracket", [_lie_text(rng, tiny), _lie_text(rng, tiny)]
    if kind == "normalize":
        return "normalize", [_word_text(rng, 1 + small)]
    if kind == "jacobi":
        return "jacobi", ["--bound", str(tiny)]
    if kind == "sigma-check":
        a = ",".join("%d=%s" % (i, rational_text(rand_q(rng))) for i in rng.sample(range(-3, 4), tiny))
        return "sigma-check", ["--a=" + a, "--b=" + rational_text(rand_q(rng, zero=True)), "--bound", "2"]
    if kind == "rho":
        return "rho", ["--params", params_text(_is_pairs(rng)), _word_text(rng, small, low=-3, high=-1)]
    if kind == "whittaker-simple":
        return "whittaker-simple", ["--params", params_text(_whittaker_pairs(rng, small))]
    if kind == "tensor-gens":
        pairs = [("a", Fraction(rng.randint(-9, 9), rng.choice((1, 2)))), ("b", Fraction(rng.randint(-3, 3))), ("F", 0)]
        return "tensor-simple", ["--params", params_text(pairs), "--gens", "d(-%d)" % small]
    if kind == "tensor-search":
        pairs = _zero_hw_pairs(rng, small) + _is_pairs(rng)
        return "tensor-simple", ["--params", params_text(pairs), "--search-degree", str(max(small, 2))]
    if kind == "singular":
        return "singular", ["--params", params_text(_zero_hw_pairs(rng, small)), "--degree", str(small)]
    if kind == "whittaker-vector":
        return "whittaker-vector", ["--params", params_text(_whittaker_pairs(rng, tiny))]
    if kind == "membership":
        pairs = [("a", rng.randint(-3, 3)), ("b", rng.randint(-2, 2)), ("F", rand_q(rng, zero=True))]
        expr = _word_text(rng, tiny, low=-2, high=-1)
        return "membership", ["--params", params_text(pairs), "--n", str(rng.randint(-3, 3)), "--buffer", "2", expr]
    if kind == "module-check":
        if k % 2 == 0:
            variant, pairs = "omega", [("lambda", rand_q(rng)), ("d0dot", rand_q(rng, zero=True)), ("I0dot", rand_q(rng, zero=True))]
        else:
            variant, pairs = "iseries", _is_pairs(rng)
        return "module-check", ["--module", variant, "--params", params_text(pairs), "--bound", "2", "--window", "2"]
    expr, vector = _word_text(rng, small, low=0, high=3), _word_text(rng, tiny, low=-3, high=-1)
    return "act", ["--module", "verma", "--params", params_text(_hw_pairs(rng)), expr, vector]


def _argv(command):
    name, args = command
    return [name, "--porcelain"] + args


def setup(hv, seed):
    state = State(hv, seed)
    for kind in KINDS:
        _in_process(hv, _argv(state.pool[kind][0]))
    return state


def items(state, seed):
    i = 0
    while True:
        kind = KINDS[i % len(KINDS)]
        command = state.pool[kind][(i // len(KINDS)) % VARIANTS]
        yield Item(kind, {"command": command[0]}, command)
        i += 1


def _in_process(hv, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hv.cli.main(argv)
    return code, out.getvalue()


def run(hv, state, item):
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heisvir.cli"] + _argv(item.data),
            cwd=ROOT,
            env=state.env,
            capture_output=True,
            text=True,
            timeout=PROCESS_BUDGET_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ItemTimeout("process exceeded %.0f s" % PROCESS_BUDGET_S) from exc
    return proc.returncode, proc.stdout


def run_in_process(hv, state, item):
    return _in_process(hv, _argv(item.data))


def _verdict(v):
    if v.is_simple:
        return "verdict\tSIMPLE"
    if v.is_not_simple:
        return "verdict\tNOT_SIMPLE" + (" n=%d" % v.witness_n if v.witness_n is not None else "")
    return "verdict\tINCONCLUSIVE %s" % (v.reason or "")


def _expected(hv, command):
    """Porcelain records for a command, from library calls in this process."""
    name, args = command
    P = hv.params
    if name == "bracket":
        return ["result\t%s" % hv.algebra.bracket(hv.expr.parse_lie(args[0]), hv.expr.parse_lie(args[1]))]
    if name == "normalize":
        return ["result\t%s" % hv.expr.parse_uea(args[0])]
    if name in ("jacobi", "sigma-check", "module-check"):
        return ["violations\t0"]
    p = P.parse_param_arg(args[args.index("--params") + 1])
    if name == "rho":
        return ["rho\t%s" % hv.criteria.rho(hv.expr.parse_uea(args[2]), P.is_params(p))]
    if name == "whittaker-simple":
        return [_verdict(hv.criteria.whittaker_simplicity(P.whittaker_character(p)))]
    if name == "tensor-simple" and args[2] == "--gens":
        isp = P.is_params(p)
        gen = hv.expr.parse_uea(args[3])
        p_index = -int(args[3][2:-1])
        root = -(isp.a + p_index - p_index * isp.b)
        verdict = hv.criteria.tensor_simplicity([gen], isp)
        closed = "verdict\tSIMPLE" if root.denominator != 1 else "verdict\tNOT_SIMPLE n=%d" % root
        require(_verdict(verdict) == closed, "library verdict breaks the closed d(-p) rule")
        return [closed]
    if name == "tensor-simple":
        degree = int(args[3])
        gens, status = hv.linsearch.maximal_submodule_gens(P.hw_params(p), degree)
        lines = ["search_status\t%s" % status] + ["generator\t%s" % g for g in gens]
        if status != "complete":
            lines.append("verdict\tINCONCLUSIVE generator search truncated at degree %d" % degree)
        elif not gens:
            lines.append("verdict\tNOT_SIMPLE")
        else:
            lines.append(_verdict(hv.criteria.tensor_simplicity(gens, P.is_params(p))))
        return lines
    if name == "singular":
        vectors = hv.linsearch.singular_vectors(P.hw_params(p), int(args[3])).vectors
        return ["count\t%d" % len(vectors)] + ["vector\t%s" % v for v in vectors]
    if name == "whittaker-vector":
        result = hv.linsearch.whittaker_vector_search(P.whittaker_character(p))
        lines = ["variables\t%d" % result.num_variables, "rank\t%d" % result.rank, "count\t%d" % len(result.vectors)]
        return lines + ["vector\t%s" % v for v in result.vectors]
    if name == "membership":
        member = hv.linsearch.shifted_membership(hv.expr.parse_uea(args[6]), int(args[3]), int(args[5]), P.is_params(p))
        return ["member\t%s" % ("true" if member else "false")]
    module = hv.modules.VermaModule(P.hw_params(p))
    start = hv.modules.act_uea(hv.expr.parse_uea(args[5]), module.cyclic())
    return ["result\t%s" % hv.modules.act_uea(hv.expr.parse_uea(args[4]), start)]


def check(hv, state, item, result):
    code, out = result
    require(code == 0, "exit code %d" % code)
    key = tuple(_argv(item.data))
    if key not in state.expected:
        state.expected[key] = "".join(line + "\n" for line in _expected(hv, item.data))
    expected = state.expected[key]
    require(out == expected, "porcelain output differs from the library records")


def show(result):
    return result[1]


# times the import and the command from inside the process, free of start-up noise
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import heisvir.cli\n"
    "t1 = time.perf_counter()\n"
    "code = heisvir.cli.main(sys.argv[1:])\n"
    "sys.stderr.write('%r %r\\n' % (t1 - t0, time.perf_counter() - t1))\n"
    "sys.exit(code)\n"
)


def layer_metrics(hv, state, items_list):
    """Per-process costs: bare interpreter start, import of the CLI, and the command."""
    bare, imports, commands = [], [], []
    for item in items_list:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=state.env, check=True, timeout=PROCESS_BUDGET_S)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE] + _argv(item.data),
            cwd=ROOT,
            env=state.env,
            capture_output=True,
            text=True,
            check=True,
            timeout=PROCESS_BUDGET_S,
        )
        import_s, command_s = map(float, proc.stderr.split()[-2:])
        imports.append(import_s)
        commands.append(command_s)
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1000.0,
        "cli.import_ms": statistics.median(imports) * 1000.0,
        "cli.command_ms": statistics.median(commands) * 1000.0,
    }
