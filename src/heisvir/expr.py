"""Expression language for algebra elements.

Grammar (whitespace insignificant):

    expr      := term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := atom ('^' uint)?
    atom      := rational | generator | '(' expr ')'
    generator := 'd(' int ')' | 'I(' int ')' | 'z1' | 'z2' | 'z3'
    rational  := sign? digits ('/' digits)?

Products denote products in the enveloping algebra: lowering multiplies the
PBW normal forms of the factors, folded in from the right through one shared
LeftAction, so a power of a sum never expands into its unstraightened words.
A Lie element is linear in the generators, so to_lie rejects, from the tree
alone and before lowering, a product with two factors that contain a
generator and a power >= 2 of a base that contains one.  Rational literals
only (no decimals).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Q, LieElement, gen_str, lincomb, to_ints
from .errors import ExprError, IntegerOverflow
from .pbw import LeftAction, UEAElement

MAX_INDEX = 2**31 - 1


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    g: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # ((sign, term), ...) with sign +1 / -1


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _location(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message, pos=None):
        line, col = self._location(self.pos if pos is None else pos)
        raise ExprError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error("expected %r" % ch)

    def digits(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        value = int(self.text[start : self.pos])
        if value > MAX_INDEX:
            raise IntegerOverflow(
                "integer literal out of range", *self._location(start)
            )
        return value

    def signed_int(self):
        sign = 1
        if self.take("-"):
            sign = -1
        else:
            self.take("+")
        return sign * self.digits()


class _Parser:
    def __init__(self, text):
        self.lx = _Lexer(text)

    def parse(self):
        e = self.expr()
        self.lx.skip_ws()
        if self.lx.pos != len(self.lx.text):
            self.lx.error("trailing input")
        return e

    def expr(self):
        terms = [(1, self.term())]
        while True:
            if self.lx.take("+"):
                terms.append((1, self.term()))
            elif self.lx.take("-"):
                terms.append((-1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.lx.take("*"):
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.lx.take("^"):
            exp = self.lx.digits()
            return Pow(base, exp)
        return base

    def atom(self):
        ch = self.lx.peek()
        if ch == "(":
            self.lx.expect("(")
            e = self.expr()
            self.lx.expect(")")
            return e
        if ch == "-" or ch.isdigit():
            sign = -1 if self.lx.take("-") else 1
            num = self.lx.digits()
            if self.lx.take("/"):
                den = self.lx.digits()
                if den == 0:
                    self.lx.error("zero denominator")
                return Num(Q(sign * num, den))
            return Num(Q(sign * num))
        if ch in ("d", "I"):
            kind = ch
            self.lx.expect(kind)
            self.lx.expect("(")
            n = self.lx.signed_int()
            self.lx.expect(")")
            return Gen((kind, n))
        if ch == "z":
            self.lx.expect("z")
            nxt = self.lx.peek()
            if nxt in ("1", "2", "3"):
                self.lx.expect(nxt)
                return Gen(("z", int(nxt)))
            self.lx.error("expected z1, z2 or z3")
        self.lx.error("expected rational, generator or '('")


def parse(text: str):
    """Parse the expression language into a syntax tree."""
    return _Parser(text).parse()


def _print_base(e):
    """Print a power base: anything but a plain generator or nonnegative literal is wrapped."""
    if isinstance(e, Gen) or (isinstance(e, Num) and e.value >= 0):
        return print_expr(e)
    return "(" + print_expr(e) + ")"


def _print_factor(e):
    """Print a product factor: sums and nested products need parentheses."""
    if isinstance(e, (Sum, Prod)):
        return "(" + print_expr(e) + ")"
    return print_expr(e)


def print_expr(e) -> str:
    """Print a tree back to the grammar; parse(print_expr(t)) == t holds for
    every tree the parser itself produces."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Gen):
        return gen_str(e.g)
    if isinstance(e, Pow):
        return "%s^%d" % (_print_base(e.base), e.exp)
    if isinstance(e, Prod):
        return "*".join(_print_factor(f) for f in e.factors)
    if isinstance(e, Sum):
        parts = []
        for sign, term in e.terms:
            body = print_expr(term)
            if isinstance(term, Sum):
                body = "(" + body + ")"
            if not parts:
                parts.append(body if sign > 0 else "-1*" + body)
            else:
                parts.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(parts)
    raise TypeError("not an expression node: %r" % (e,))


def _lower(e, letter, times) -> tuple:
    """Flatten a tree into an algebra image over keys: a generator g is the
    key letter(g), the empty key is the unit, the factors of a product are
    folded in from the right by times(left, right), and a power is taken by
    repeated squaring, which gives the same image because times is
    associative."""
    if isinstance(e, Num):
        return to_ints({(): e.value})
    if isinstance(e, Gen):
        return 1, {letter(e.g): 1}
    if isinstance(e, Sum):
        return lincomb([(sign, _lower(term, letter, times)) for sign, term in e.terms])
    out = (1, {(): 1})
    if isinstance(e, Pow):
        base = _lower(e.base, letter, times)
        for bit in bin(e.exp)[2:]:
            out = times(out, out)
            if bit == "1":
                out = times(base, out)
        return out
    if not isinstance(e, Prod):
        raise TypeError("not an expression node: %r" % (e,))
    for f in reversed([_lower(f, letter, times) for f in e.factors]):
        out = times(f, out)
    return out


def to_uea(e) -> UEAElement:
    """Lower a tree to the enveloping algebra (normal form)."""
    return UEAElement._trusted(_lower(e, lambda g: ((g, 1),), LeftAction().multiply))


def _has_generator(e) -> bool:
    """Whether the tree holds a generator outside a power ^0.  Raises
    ExprError on a product with two factors that hold one, or a power >= 2
    of a base that holds one, whatever they lower to."""
    if isinstance(e, Gen):
        return True
    if isinstance(e, Sum):
        return any([_has_generator(term) for _, term in e.terms])
    if isinstance(e, Pow):
        count = _has_generator(e.base) * e.exp
    elif isinstance(e, Prod):
        count = sum(_has_generator(f) for f in e.factors)
    else:
        return False
    if count >= 2:
        raise ExprError("products of generators are not Lie elements")
    return count == 1


def _scale(a: tuple, b: tuple) -> tuple:
    """a * b when one factor is a constant (an image on the unit key alone)."""
    if b[1].keys() <= {()}:
        a, b = b, a
    return lincomb([(a[1].get((), 0), b)], a[0])


def to_lie(e) -> LieElement:
    """Lower a tree to a Lie element; products of generators are rejected."""
    _has_generator(e)
    out = _lower(e, lambda g: g, _scale)
    if () in out[1]:
        raise ExprError("constant terms have no Lie meaning")
    return LieElement._trusted(out)


def parse_uea(text: str) -> UEAElement:
    return to_uea(parse(text))


def parse_lie(text: str) -> LieElement:
    return to_lie(parse(text))
