import random
import time

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heisvir.algebra import d, I, lie, lie_sum
from heisvir.errors import ExprError, IntegerOverflow, ParamError
from heisvir.expr import (
    Gen,
    Num,
    Pow,
    Prod,
    Sum,
    parse,
    parse_lie,
    parse_uea,
    print_expr,
    to_lie,
    to_uea,
)
from heisvir import cli
from heisvir.params import (
    hw_params,
    is_params,
    mu_kappa,
    parse_param_arg,
    parse_param_text,
    parse_rational,
    whittaker_character,
)
from heisvir.pbw import normal_form, straighten
from oracles import to_lie_by_words, to_words


def test_parse_sum_of_products():
    tree = parse("d(1)*d(-1) - 2*d(0)")
    assert isinstance(tree, Sum)
    (s1, t1), (s2, t2) = tree.terms
    assert s1 == 1 and isinstance(t1, Prod)
    assert s2 == -1 and isinstance(t2, Prod) and t2.factors[0] == Num(Q(2))


def test_parse_power_word():
    tree = parse("I(-1)^2")
    assert tree == Pow(Gen(("I", -1)), 2)
    assert to_words(tree) == {(I(-1), I(-1)): Q(1)}


def test_parse_error_position():
    with pytest.raises(ExprError) as err:
        parse("d(")
    assert err.value.column == 3 and err.value.line == 1


def test_parse_rationals():
    assert parse("3/4") == Num(Q(3, 4))
    assert parse("-2") == Num(Q(-2))
    with pytest.raises(ExprError):
        parse("1/0")
    with pytest.raises(ExprError):
        parse("2.5")


def test_integer_overflow():
    with pytest.raises(IntegerOverflow):
        parse("d(99999999999999999999)")


def test_whitespace_insignificant():
    assert parse(" d( -1 ) * I( 2 ) ") == parse("d(-1)*I(2)")


def test_round_trip_corpus():
    corpus = [
        "d(1)*d(-1) - 2*d(0)",
        "I(-1)^2",
        "1/2*z1 + z2 - 3*z3",
        "(d(1) + I(1))^2*d(-3)",
        "d(0)ate" if False else "d(0)",
        "2 - -3",
        "(I(-2) + 2*I(-1))*(d(-1) - 1/3)",
        "5",
        "-7/2*I(0)",
    ]
    for text in corpus:
        tree = parse(text)
        assert parse(print_expr(tree)) == tree


def test_round_trip_random():
    rng = random.Random(41)
    atoms = ["d(1)", "I(-2)", "z1", "z3", "2", "-1/3", "4/5"]

    def rand_expr(depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            return rng.choice(atoms)
        if r < 0.6:
            return "%s^%d" % (rng.choice(["d(1)", "I(-2)", "z2"]), rng.randint(0, 3))
        if r < 0.8:
            return "*".join(rand_expr(depth - 1) for _ in range(rng.randint(1, 3)))
        parts = [rand_expr(depth - 1) for _ in range(rng.randint(2, 3))]
        out = parts[0]
        for p in parts[1:]:
            out += rng.choice([" + ", " - "]) + ("(%s)" % p if rng.random() < 0.5 else p)
        return out

    for _ in range(100):
        text = rand_expr(3)
        tree = parse(text)
        assert parse(print_expr(tree)) == tree


def test_parser_fuzz_only_expr_errors():
    rng = random.Random(1234)
    alphabet = "dIz123()+-*/^ \t"
    for _ in range(1500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        try:
            parse(text)
        except ExprError:
            pass


def test_parameter_parser_fuzz_only_param_errors(capsys):
    # every input parses or raises ParamError, and the CLI turns each into exit 0 or 1
    rng = random.Random(4321)
    alphabet = "0123456789/-+=,() \tabFxyz."
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(1500)]
    # the alphabet spells paths too: "." and "/" name directories
    texts += [".", "/", "..", "1/0", "(a=1/0)", "1=1,1=2", "x=1", "-1=2"]
    for text in texts:
        for parser in (parse_rational, parse_param_arg, cli._parse_sigma_coeffs):
            try:
                parser(text)
            except ParamError:
                pass
    for a, b in zip(texts[:300], reversed(texts[:300])):
        assert cli.main(["sigma-check", "--a", a, "--b", b, "--bound", "1"]) in (0, 1)
    capsys.readouterr()


def test_to_uea_matches_normal_form():
    assert parse_uea("d(-1)*I(-2)") == normal_form((d(-1), I(-2)))
    assert parse_uea("d(1)*d(-1) - 2*d(0)") == normal_form((d(1), d(-1))) - 2 * normal_form((d(0),))


trees = st.recursive(
    st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Num),
        st.sampled_from([d(-2), d(-1), d(0), d(1), d(2), I(-1), I(0), I(1), ("z", 1), ("z", 3)]).map(Gen),
    ),
    lambda sub: st.one_of(
        st.builds(Pow, sub, st.integers(0, 3)),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: Prod(tuple(fs))),
        st.lists(st.tuples(st.sampled_from((1, -1)), sub), min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_to_uea_matches_straightened_words(tree):
    assert to_uea(tree) == straighten(to_words(tree))


def test_power_of_sum_lowers_quickly():
    # expanding into 2^16 unstraightened words took over a minute
    t0 = time.perf_counter()
    u = parse_uea("(d(1)+d(-1))^16")
    assert time.perf_counter() - t0 < 5
    assert u == parse_uea("(d(1)+d(-1))^8*(d(1)+d(-1))^8")


@pytest.mark.parametrize("base", ["d(1)", "(d(1) + 2*I(-1) - 1/2)", "(I(1)*d(-2) + z3)"])
def test_power_matches_repeated_product(base):
    # powers are lowered by squaring; both lowerings must equal the plain product
    for k in range(8):
        power, product = parse("%s^%d" % (base, k)), parse("*".join([base] * k) or "1")
        assert to_words(power) == to_words(product)
        assert to_uea(power) == to_uea(product)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_to_lie_matches_word_oracle(tree):
    # to_lie may reject a product that the words would cancel, never the reverse
    try:
        expected = to_lie_by_words(tree)
    except ExprError:
        with pytest.raises(ExprError):
            to_lie(tree)
        return
    try:
        got = to_lie(tree)
    except ExprError:
        return
    assert got == expected


def test_lie_power_of_sum_rejected_quickly():
    # the word expansion of this power has 2^40 words
    t0 = time.perf_counter()
    with pytest.raises(ExprError):
        parse_lie("(d(1)+d(2))^40")
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "text",
    ["d(1)^2 - d(1)^2", "0*d(1)*d(2)", "d(1)*0*d(2)", "d(1)*d(2)*0", "(d(1)-d(1))*d(2)", "1 + d(1)*d(2)"],
)
def test_lie_rejects_products_that_cancel(text):
    with pytest.raises(ExprError, match="products of generators"):
        parse_lie(text)


def _rejects_product(tree) -> bool:
    try:
        to_lie(tree)
    except ExprError as exc:
        return "products of generators" in str(exc)
    return False


@settings(max_examples=200, deadline=None)
@given(st.lists(trees, min_size=1, max_size=3), st.data())
def test_lie_product_rejection_ignores_zeros_and_order(factors, data):
    # whether a product is rejected depends only on which factors hold generators
    rejected = _rejects_product(Prod(tuple(factors)))
    shuffled = data.draw(st.permutations(factors))
    at = data.draw(st.integers(0, len(factors)))
    with_zero = factors[:at] + [Num(Q(0))] + factors[at:]
    assert _rejects_product(Prod(tuple(shuffled))) == rejected
    assert _rejects_product(Prod(tuple(with_zero))) == rejected


def test_parse_lie():
    assert parse_lie("d(1) + 2/3*I(-2) - z1") == lie_sum((1, d(1)), (Q(2, 3), I(-2)), (-1, ("z", 1)))
    assert parse_lie("d(1)^0*d(2)") == lie(d(2))
    with pytest.raises(ExprError):
        parse_lie("d(1)*d(2)")
    with pytest.raises(ExprError):
        parse_lie("d(1) + 5")


def test_param_text():
    params = parse_param_text("a = 1/2\nb = 0\nF = -3\n\n# comment\nm = 1\nphi.d1 = 2\n")
    assert params["a"] == Q(1, 2)
    assert params["F"] == -3
    assert params["phi.d1"] == 2


def test_param_rejects_unknown_and_duplicates():
    with pytest.raises(ParamError):
        parse_param_text("unknown = 3")
    with pytest.raises(ParamError):
        parse_param_text("a = 1\na = 2")
    with pytest.raises(ParamError):
        parse_param_text("a = 0.5")


def test_param_inline():
    params = parse_param_arg("(a=1/2, b=0, F=2)")
    assert is_params(params).F == 2
    hw = hw_params(parse_param_arg("(I0dot=3,d0dot=-1/2,z3dot=1)"))
    assert hw.i0 == 3 and hw.d0 == Q(-1, 2) and hw.z3 == 1


def test_param_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("m = 2\nphi.I2 = 5\nphi.z3 = 0\n")
    char = whittaker_character(parse_param_arg(str(path)))
    assert char.m == 2 and char.i_val(2) == 5 and char.z3 == 0


def test_param_missing_file():
    with pytest.raises(ParamError):
        parse_param_arg("/nonexistent/params.txt")


def test_mu_kappa():
    r, mu, kappa = mu_kappa(parse_param_arg("(r=1,mu1=5,mu2=0,kappa0=1,kappa1=2)"))
    assert r == 1 and mu == [5, 0] and kappa == [1, 2]
