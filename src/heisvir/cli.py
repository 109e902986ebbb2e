"""Command-line surface.

Every subcommand wraps one library call and only formats its result.  With
--porcelain the output is one `key<TAB>value` record per line and is stable
across runs; verdicts print as SIMPLE | NOT_SIMPLE [n=<int>] |
INCONCLUSIVE <reason>.

Exit codes: 0 success (NOT_SIMPLE is a successful computation), 1 usage or
parse error, 2 precondition violation, 3 truncated search / unstable span
under --strict.
"""

from __future__ import annotations

import argparse
import sys

from . import criteria, linsearch, params as paramsmod
from .algebra import AutomorphismSpec, bracket, jacobi_check, sigma_hom_check
from .errors import (
    ExprError,
    HeisvirError,
    LambdaZero,
    MixedModules,
    NeedNonzeroZ3,
    NotNegativePart,
    ParamError,
    PreconditionZ3,
    UnstableSpan,
    UnsupportedGenerator,
)
from .expr import parse_lie, parse_uea
from .modules import (
    EmbeddedModule,
    FockModule,
    IntermediateSeriesModule,
    OmegaModule,
    ShiftedTensorModule,
    VermaModule,
    WhittakerModule,
    WMuKappaModule,
    act_uea,
    module_axiom_check,
)

USAGE_ERROR = 1
PRECONDITION_ERROR = 2
TRUNCATED_ERROR = 3

_PRECONDITION_ERRORS = (
    NeedNonzeroZ3,
    PreconditionZ3,
    LambdaZero,
    NotNegativePart,
    MixedModules,
    UnsupportedGenerator,
)


class _Out:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def line(self, key, value, human=None):
        if self.porcelain:
            print("%s\t%s" % (key, value))
        else:
            print(human if human is not None else "%s: %s" % (key, value))

    def verdict(self, v: criteria.SimplicityVerdict):
        self.line("verdict", v.label, human=str(v))


def _embedded(p: dict, hw) -> EmbeddedModule:
    r, mu, kappa = paramsmod.mu_kappa(p)
    if r != 1:
        raise ParamError("the embedded variant supports r = 1")
    return EmbeddedModule(mu, kappa, paramsmod.lam(p))


# variant name -> constructor from the --params map and the highest weight data read from it
_MODULES = {
    VermaModule.name: lambda p, hw: VermaModule(hw),
    IntermediateSeriesModule.name: lambda p, hw: IntermediateSeriesModule(paramsmod.is_params(p)),
    FockModule.name: lambda p, hw: FockModule(hw.i0, hw.z2, hw.z3),
    WhittakerModule.name: lambda p, hw: WhittakerModule(paramsmod.whittaker_character(p)),
    ShiftedTensorModule.name: lambda p, hw: ShiftedTensorModule(hw, paramsmod.is_params(p)),
    OmegaModule.name: lambda p, hw: OmegaModule(paramsmod.lam(p), hw.d0, hw.i0),
    EmbeddedModule.name: _embedded,
    WMuKappaModule.name: lambda p, hw: WMuKappaModule(*paramsmod.mu_kappa(p)),
}


def _build_module(variant: str, p: dict):
    return _MODULES[variant](p, paramsmod.hw_params(p))


def _parse_sigma_coeffs(text: str) -> dict:
    """The Laurent coefficients of --a: comma-separated i=value pairs, each index once."""
    coeffs = {}
    text = text.strip()
    if not text or text == "0":
        return coeffs
    for item in text.split(","):
        idx, eq, val = item.partition("=")
        if not eq:
            raise ParamError("expected i=value in %r" % item)
        try:
            i = int(idx)
        except ValueError:
            raise ParamError("expected i=value with an integer i in %r" % item) from None
        if i in coeffs:
            raise ParamError("duplicate index: %d" % i)
        coeffs[i] = paramsmod.parse_rational(val)
    return coeffs


def _cmd_bracket(args, out):
    result = bracket(parse_lie(args.x), parse_lie(args.y))
    out.line("result", result, human=str(result))
    return 0


def _cmd_normalize(args, out):
    u = parse_uea(args.expr)
    out.line("result", u, human=str(u))
    return 0


def _cmd_jacobi(args, out):
    violations = jacobi_check(args.bound)
    out.line("violations", len(violations), human="OK 0 violations" if not violations else "%d violations" % len(violations))
    for x, y, z, res in violations:
        out.line("violation", "%s %s %s -> %s" % (x, y, z, res))
    return 0


def _cmd_sigma_check(args, out):
    spec = AutomorphismSpec(_parse_sigma_coeffs(args.a), paramsmod.parse_rational(args.b))
    violations = sigma_hom_check(spec, args.bound)
    out.line("violations", len(violations), human="OK 0 violations" if not violations else "%d violations" % len(violations))
    return 0


def _cmd_rho(args, out):
    p = paramsmod.parse_param_arg(args.params)
    poly = criteria.rho(parse_uea(args.expr), paramsmod.is_params(p))
    out.line("rho", poly, human=str(poly))
    return 0


def _cmd_whittaker_simple(args, out):
    p = paramsmod.parse_param_arg(args.params)
    char = paramsmod.whittaker_character(p)
    verdict = criteria.whittaker_simplicity(char)
    out.verdict(verdict)
    if verdict.is_not_simple and char.z3 == 0 and not out.porcelain:
        found = linsearch.whittaker_vector_search(char)
        for v in found.vectors:
            print("witness vector: %s" % v)
    return 0


def _cmd_tensor_simple(args, out):
    p = paramsmod.parse_param_arg(args.params)
    isp = paramsmod.is_params(p)
    if args.gens:
        gens = [parse_uea(g) for g in args.gens.split(";") if g.strip()]
        verdict = criteria.tensor_simplicity(gens, isp, exclude_n0=args.exclude_n0)
        out.verdict(verdict)
        return 0
    hw = paramsmod.hw_params(p)
    gens, status = linsearch.maximal_submodule_gens(hw, args.search_degree)
    out.line("search_status", status)
    for g in gens:
        out.line("generator", g, human="generator: %s" % g)
    if status != "complete":
        out.verdict(criteria.inconclusive("generator search truncated at degree %d" % args.search_degree))
        return TRUNCATED_ERROR if args.strict else 0
    if not gens:
        # zero maximal submodule: the rho pair vanishes identically
        out.verdict(criteria.not_simple("maximal submodule is zero; the rho pair is identically (0, 0)"))
        return 0
    out.verdict(criteria.tensor_simplicity(gens, isp, exclude_n0=args.exclude_n0))
    return 0


def _cmd_singular(args, out):
    p = paramsmod.parse_param_arg(args.params)
    hw = paramsmod.hw_params(p)
    result = linsearch.singular_vectors(hw, args.degree)
    out.line("count", len(result.vectors))
    for v in result.vectors:
        out.line("vector", v, human="vector: %s" % v)
    return 0


def _cmd_whittaker_vector(args, out):
    p = paramsmod.parse_param_arg(args.params)
    char = paramsmod.whittaker_character(p)
    result = linsearch.whittaker_vector_search(char)
    out.line("variables", result.num_variables)
    out.line("rank", result.rank)
    out.line("count", len(result.vectors))
    for v in result.vectors:
        out.line("vector", v, human="vector: %s" % v)
    return 0


def _cmd_membership(args, out):
    p = paramsmod.parse_param_arg(args.params)
    isp = paramsmod.is_params(p)
    P = parse_uea(args.expr)
    try:
        member = linsearch.shifted_membership(P, args.n, args.buffer, isp)
    except UnstableSpan as exc:
        out.line("member", "unstable", human="UNSTABLE: %s" % exc)
        return TRUNCATED_ERROR if args.strict else 0
    out.line("member", "true" if member else "false", human="true" if member else "false")
    return 0


def _cmd_module_check(args, out):
    p = paramsmod.parse_param_arg(args.params)
    module = _build_module(args.module, p)
    window = module.window(args.window)
    violations = module_axiom_check(module, args.bound, window)
    out.line(
        "violations",
        len(violations),
        human="OK 0 violations (window of %d keys)" % len(window)
        if not violations
        else "%d violations" % len(violations),
    )
    return 0


def _cmd_act(args, out):
    p = paramsmod.parse_param_arg(args.params)
    module = _build_module(args.module, p)
    vec = module.parse_key(args.vector)
    result = act_uea(parse_uea(args.expr), vec)
    out.line("result", result, human=str(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisvir",
        description="Exact computations with the twisted Heisenberg-Virasoro algebra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true", help="stable key<TAB>value output")
    common.add_argument("--strict", action="store_true", help="exit 3 on truncated/unstable searches")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("bracket", parents=[common], help="Lie bracket of two elements")
    s.add_argument("x")
    s.add_argument("y")
    s.set_defaults(func=_cmd_bracket)

    s = sub.add_parser("normalize", parents=[common], help="PBW normal form of an expression")
    s.add_argument("expr")
    s.set_defaults(func=_cmd_normalize)

    s = sub.add_parser("act", parents=[common], help="act by an expression on a module vector")
    s.add_argument("--module", required=True, choices=list(_MODULES))
    s.add_argument("--params", required=True)
    s.add_argument("expr")
    s.add_argument("vector")
    s.set_defaults(func=_cmd_act)

    s = sub.add_parser("jacobi", parents=[common], help="Jacobi identity on a bounded window")
    s.add_argument("--bound", type=int, required=True)
    s.set_defaults(func=_cmd_jacobi)

    s = sub.add_parser("sigma-check", parents=[common], help="automorphism bracket compatibility")
    s.add_argument("--a", default="", help="Laurent coefficients, e.g. '-2=2,-1=1'")
    s.add_argument("--b", default="0")
    s.add_argument("--bound", type=int, required=True)
    s.set_defaults(func=_cmd_sigma_check)

    s = sub.add_parser("rho", parents=[common], help="the rho polynomial of a negative-part element")
    s.add_argument("--params", required=True)
    s.add_argument("expr")
    s.set_defaults(func=_cmd_rho)

    s = sub.add_parser("whittaker-simple", parents=[common], help="Whittaker simplicity verdict")
    s.add_argument("--params", required=True)
    s.set_defaults(func=_cmd_whittaker_simple)

    s = sub.add_parser("tensor-simple", parents=[common], help="tensor-product simplicity verdict")
    s.add_argument("--params", required=True)
    s.add_argument("--gens", default=None, help="semicolon-separated generator expressions")
    s.add_argument("--search-degree", type=int, default=3)
    s.add_argument("--exclude-n0", action="store_true")
    s.set_defaults(func=_cmd_tensor_simple)

    s = sub.add_parser("singular", parents=[common], help="singular vectors at a fixed depth")
    s.add_argument("--params", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.set_defaults(func=_cmd_singular)

    s = sub.add_parser("whittaker-vector", parents=[common], help="proper Whittaker vector search")
    s.add_argument("--params", required=True)
    s.set_defaults(func=_cmd_whittaker_vector)

    s = sub.add_parser("membership", parents=[common], help="shifted filtration membership")
    s.add_argument("--params", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--buffer", type=int, default=2)
    s.add_argument("expr")
    s.set_defaults(func=_cmd_membership)

    s = sub.add_parser("module-check", parents=[common], help="representation axioms on a window")
    s.add_argument("--module", required=True, choices=list(_MODULES))
    s.add_argument("--params", required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--window", type=int, required=True)
    s.set_defaults(func=_cmd_module_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    out = _Out(args.porcelain)
    try:
        return args.func(args, out)
    except (ExprError, ParamError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except _PRECONDITION_ERRORS as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return PRECONDITION_ERROR
    except UnstableSpan as exc:
        print("unstable: %s" % exc, file=sys.stderr)
        return TRUNCATED_ERROR
    except HeisvirError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
