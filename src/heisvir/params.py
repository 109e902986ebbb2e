"""Parameter files: one `key = value` line each, rational values.

Recognised keys: I0dot d0dot z1dot z2dot z3dot a b F lambda m r,
phi.d<k> phi.I<k> phi.z<k>, mu<k> kappa<k>.  Unknown and duplicate keys are
rejected.  The same syntax is accepted inline as `(key=value,key=value)`.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .errors import ParamError
from .modules import HWParams, ISParams, WhittakerCharacter

Q = Fraction

_SIMPLE_KEYS = {"I0dot", "d0dot", "z1dot", "z2dot", "z3dot", "a", "b", "F", "lambda", "m", "r"}
_PATTERNS = (
    re.compile(r"^phi\.d(-?\d+)$"),
    re.compile(r"^phi\.I(-?\d+)$"),
    re.compile(r"^phi\.z([123])$"),
    re.compile(r"^mu(\d+)$"),
    re.compile(r"^kappa(\d+)$"),
)
_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def _valid_key(key: str) -> bool:
    return key in _SIMPLE_KEYS or any(p.match(key) for p in _PATTERNS)


def parse_rational(text: str) -> Q:
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ParamError("not a rational literal: %r" % text)
    return Q(text)


def parse_param_pairs(pairs) -> dict:
    out = {}
    for key, value in pairs:
        key = key.strip()
        if not _valid_key(key):
            raise ParamError("unknown key: %r" % key)
        if key in out:
            raise ParamError("duplicate key: %r" % key)
        out[key] = parse_rational(value)
    return out


def parse_param_text(text: str) -> dict:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        pairs.append((key, value))
    return parse_param_pairs(pairs)


def parse_param_arg(arg: str) -> dict:
    """Inline `(k=v,k=v)` or a path to a parameter file."""
    arg = arg.strip()
    if arg.startswith("("):
        if not arg.endswith(")"):
            raise ParamError("inline parameters must be wrapped in parentheses")
        body = arg[1:-1].strip()
        if not body:
            return {}
        pairs = []
        for item in body.split(","):
            if "=" not in item:
                raise ParamError("expected key=value in %r" % item)
            key, _, value = item.partition("=")
            pairs.append((key, value))
        return parse_param_pairs(pairs)
    if not os.path.exists(arg):
        raise ParamError("no such parameter file: %s" % arg)
    with open(arg, "r", encoding="utf-8") as fh:
        return parse_param_text(fh.read())


def _get_int(params: dict, key: str) -> int:
    if key not in params:
        raise ParamError("missing key: %s" % key)
    v = params[key]
    if v.denominator != 1:
        raise ParamError("%s must be an integer" % key)
    return int(v)


def hw_params(params: dict) -> HWParams:
    return HWParams(
        i0=params.get("I0dot", Q(0)),
        d0=params.get("d0dot", Q(0)),
        z1=params.get("z1dot", Q(0)),
        z2=params.get("z2dot", Q(0)),
        z3=params.get("z3dot", Q(0)),
    )


def is_params(params: dict) -> ISParams:
    return ISParams(a=params.get("a", Q(0)), b=params.get("b", Q(0)), F=params.get("F", Q(0)))


def whittaker_character(params: dict) -> WhittakerCharacter:
    m = _get_int(params, "m")
    d_vals, i_vals = {}, {}
    # the first two key patterns are phi.d<k> and phi.I<k>
    for key, value in params.items():
        for pattern, vals in zip(_PATTERNS, (d_vals, i_vals)):
            mt = pattern.match(key)
            if mt:
                vals[int(mt.group(1))] = value
    return WhittakerCharacter(
        m,
        d_vals,
        i_vals,
        z1=params.get("phi.z1", Q(0)),
        z2=params.get("phi.z2", Q(0)),
        z3=params.get("phi.z3", Q(0)),
    )


def mu_kappa(params: dict):
    r = _get_int(params, "r")
    mu = [params.get("mu%d" % k, Q(0)) for k in range(r, 2 * r + 1)]
    kappa = [params.get("kappa%d" % k, Q(0)) for k in range(0, r + 1)]
    return r, mu, kappa


def lam(params: dict) -> Q:
    if "lambda" not in params:
        raise ParamError("missing key: lambda")
    return params["lambda"]
