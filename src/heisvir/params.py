"""Module parameters: the value classes, and the files and inline text that name them.

HWParams, ISParams, WhittakerCharacter and check_mu_kappa live here, not in
modules, so a command that only reads parameters compiles no module code.
A parameter file has one `key = value` line each, with rational values.
Recognised keys: I0dot d0dot z1dot z2dot z3dot a b F lambda m r,
phi.d<k> phi.I<k> phi.z<k>, mu<k> kappa<k>.  Unknown and duplicate keys are
rejected.  The same syntax is accepted inline as `(key=value,key=value)`.
"""

from __future__ import annotations

import os
import re

from .algebra import Q, Generator, Record, set_field
from .errors import ParamError


class HWParams(Record):
    """Highest weight data (I0, d0, z1, z2, z3 scalars)."""

    __slots__ = ("i0", "d0", "z1", "z2", "z3")

    def __init__(self, i0=Q(0), d0=Q(0), z1=Q(0), z2=Q(0), z3=Q(0)):
        set_field(self, "i0", Q(i0))
        set_field(self, "d0", Q(d0))
        set_field(self, "z1", Q(z1))
        set_field(self, "z2", Q(z2))
        set_field(self, "z3", Q(z3))


class ISParams(Record):
    """Intermediate-series data (a, b, F)."""

    __slots__ = ("a", "b", "F")

    def __init__(self, a=Q(0), b=Q(0), F=Q(0)):
        set_field(self, "a", Q(a))
        set_field(self, "b", Q(b))
        set_field(self, "F", Q(F))


class WhittakerCharacter:
    """Character data for the order-m Whittaker construction.

    Free data: the values on d(m)..d(2m), I(0)..I(m) and z1, z2, z3.  The
    values on d(k) for k > 2m and I(k) for k > m are forced to zero because
    those generators are commutators inside the subalgebra.
    """

    def __init__(self, m, d_vals=None, i_vals=None, z1=0, z2=0, z3=0):
        m = int(m)
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.d_vals = {int(k): Q(v) for k, v in (d_vals or {}).items()}
        self.i_vals = {int(k): Q(v) for k, v in (i_vals or {}).items()}
        for k in self.d_vals:
            if not (m <= k <= 2 * m):
                raise ValueError("d-values live on the window m..2m")
        for k in self.i_vals:
            if not (0 <= k <= m):
                raise ValueError("I-values live on the window 0..m")
        self.z1 = Q(z1)
        self.z2 = Q(z2)
        self.z3 = Q(z3)

    def d_val(self, k: int) -> Q:
        if k < self.m:
            raise ValueError("d(%d) is outside the character domain" % k)
        return self.d_vals.get(k, Q(0)) if k <= 2 * self.m else Q(0)

    def i_val(self, k: int) -> Q:
        if k < 0:
            raise ValueError("I(%d) is outside the character domain" % k)
        return self.i_vals.get(k, Q(0)) if k <= self.m else Q(0)

    def value(self, g: Generator) -> Q:
        kind, n = g
        if kind == "z":
            return (self.z1, self.z2, self.z3)[n - 1]
        if kind == "I":
            return self.i_val(n)
        return self.d_val(n)


def check_mu_kappa(r, mu, kappa):
    """(r, mu, kappa) with r >= 1, mu indexed r..2r and kappa indexed 0..r,
    the entries read as rationals; raises ValueError otherwise."""
    r = int(r)
    if r < 1:
        raise ValueError("r must be >= 1")
    mu = [Q(v) for v in mu]
    kappa = [Q(v) for v in kappa]
    if len(mu) != r + 1 or len(kappa) != r + 1:
        raise ValueError("mu has entries r..2r and kappa has entries 0..r")
    return r, mu, kappa


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
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ParamError("zero denominator: %r" % text) from None


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
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamError("cannot read parameter file %s: %s" % (arg, exc)) from None
    return parse_param_text(text)


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
