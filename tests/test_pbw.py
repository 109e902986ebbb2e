import random
import time

from fractions import Fraction as Q

import pytest

from heisvir.algebra import Z1, Z3, basis_window, d, gen_order_key, I, lie
from heisvir.expr import parse_uea
from heisvir.modules import HWParams, VermaModule, act, act_uea
from heisvir.pbw import (
    UEAElement,
    UNIT,
    mono_of_sorted_word,
    mono_sort_key,
    mono_str,
    multiply,
    negative_part_basis,
    normal_form,
    uea,
)
from hypothesis import given, settings, strategies as st

from oracles import act_uea_by_letters, grade, mono_sort_key_by_letters, rewrite_normal_form


def partitions_count(n, cache={0: 1}):
    """Independent oracle: number of partitions of n (recursive with memo)."""
    if n in cache:
        return cache[n]

    def count(n, largest):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, largest), 0, -1))

    cache[n] = count(n, n)
    return cache[n]


def two_colored_partitions(degree):
    """Pairs of partitions with total size `degree`."""
    return sum(partitions_count(k) * partitions_count(degree - k) for k in range(degree + 1))


def test_normal_form_dd():
    assert normal_form((d(1), d(-1))) == UEAElement(
        {((d(-1), 1), (d(1), 1)): Q(1), ((d(0), 1),): Q(-2)}
    )


def test_normal_form_II():
    assert normal_form((I(1), I(-1))) == UEAElement(
        {((I(-1), 1), (I(1), 1)): Q(1), ((Z3, 1),): Q(1)}
    )


def test_normal_form_dI_negative():
    # d(-1) I(-2) = I(-2) d(-1) + [d(-1), I(-2)] = I(-2) d(-1) - 2 I(-3)
    assert normal_form((d(-1), I(-2))) == UEAElement(
        {((I(-2), 1), (d(-1), 1)): Q(1), ((I(-3), 1),): Q(-2)}
    )


def test_normal_form_idempotent():
    words = [(I(-2), d(-1)), (Z1, I(-1), d(2)), (I(-1), I(-1))]
    for w in words:
        u = normal_form(w)
        assert len(u.coeffs) == 1 and list(u.coeffs.values()) == [Q(1)]
        (mono,) = u.coeffs
        flat = tuple(g for g, e in mono for _ in range(e))
        assert normal_form(flat) == u


def test_strategy_independence():
    # the oracle rewriter gives one normal form whichever inversion it swaps first
    rng = random.Random(3)
    gens = basis_window(2)
    for _ in range(120):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 5)))
        assert rewrite_normal_form(w, "leftmost") == rewrite_normal_form(w, "rightmost")


def test_normal_form_and_multiply_match_rewriter_oracle():
    rng = random.Random(17)
    gens = basis_window(2)
    for _ in range(150):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
        assert normal_form(w) == rewrite_normal_form(w), w
        v = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6 - len(w))))
        assert multiply(normal_form(w), normal_form(v)) == rewrite_normal_form(w + v), (w, v)


def test_power_words_straighten_quickly():
    # the rewriter needs tens of seconds from d(1)^6*d(-1)^6 on; the kernel shares sub-results
    assert parse_uea("d(1)^4*d(-1)^4") == rewrite_normal_form((d(1),) * 4 + (d(-1),) * 4)
    t0 = time.perf_counter()
    u = parse_uea("d(1)^8*d(-1)^8")
    assert time.perf_counter() - t0 < 10
    assert u and set(grade(u)) == {0}


def test_long_power_closed_form():
    # d(1) d(-1)^n = d(-1)^n d(1) - 2n d(-1)^(n-1) d(0) + n(n-1) d(-1)^(n-1); the
    # kernel's recursion depth must not grow with the exponent
    for n in (4, 1500):
        expected = UEAElement(
            {
                ((d(-1), n), (d(1), 1)): 1,
                ((d(-1), n - 1), (d(0), 1)): -2 * n,
                ((d(-1), n - 1),): n * (n - 1),
            }
        )
        assert normal_form((d(1),) + (d(-1),) * n) == expected
    assert rewrite_normal_form((d(1),) + (d(-1),) * 4) == normal_form((d(1),) + (d(-1),) * 4)


@pytest.mark.parametrize("g", [I(-2), d(-1), d(0), d(1), Z1])
def test_power_of_generator_matches_oracles(g):
    # g^e is taken in one step where it prepends to every key, and one factor
    # at a time otherwise; both must equal the rewriter and the letter-by-letter action
    words = [(), (d(-1),), (I(-1), d(-2)), (d(-1), d(-1), I(-1)), (d(1), I(-1))]
    V = VermaModule(HWParams(i0=Q(2, 3), d0=Q(5, 7), z1=Q(1, 2), z2=Q(3), z3=Q(-1, 4)))
    for e in range(6):
        power = UEAElement({((g, e),) if e else UNIT: Q(1)})
        for word in words:
            assert multiply(power, normal_form(word)) == rewrite_normal_form((g,) * e + word), (e, word)
            v = act_uea(normal_form(word), V.cyclic())
            assert act_uea(power, v) == act_uea_by_letters(power, v), (e, word)


_letters = st.lists(st.sampled_from([Z1, Z3, I(-2), I(-1), I(1), d(-1), d(0), d(2)]), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_letters.map(lambda w: mono_of_sorted_word(tuple(sorted(w, key=gen_order_key)))), min_size=2, max_size=8))
def test_mono_sort_key_matches_letter_oracle(monos):
    assert sorted(monos, key=mono_sort_key) == sorted(monos, key=mono_sort_key_by_letters)


def test_normal_form_module_oracle():
    # independent check: straightening must agree with the module action,
    # which never calls normal_form
    rng = random.Random(5)
    hw = HWParams(i0=Q(2, 3), d0=Q(5, 7), z1=Q(1, 2), z2=Q(3), z3=Q(-1, 4))
    V = VermaModule(hw)
    w = V.cyclic()
    gens = basis_window(2)
    for _ in range(60):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        direct = w
        for g in reversed(word):
            direct = act(g, direct)
        assert act_uea(normal_form(word), w) == direct


def test_multiply_unit_and_example():
    v = normal_form((I(-1), d(2), d(-2)))
    assert multiply(UEAElement({UNIT: Q(1)}), v) == v
    assert multiply(uea(d(1)), uea(d(-1))) == normal_form((d(1), d(-1)))


def test_multiply_associative_random():
    rng = random.Random(9)
    gens = basis_window(2)
    for _ in range(20):
        a, b, c = (
            normal_form(tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
            for _ in range(3)
        )
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_grade():
    u = normal_form((d(-1), d(1)))
    g = grade(u)
    assert set(g) == {0}
    u2 = normal_form((I(-2), d(-1)))
    assert set(grade(u2)) == {-3}
    u3 = u + uea(I(-2))
    g3 = grade(u3)
    assert set(g3) == {0, -2}
    total = UEAElement()
    for part in g3.values():
        total = total + part
    assert total == u3


def test_grade_multiplicative():
    rng = random.Random(13)
    gens = basis_window(2)
    for _ in range(20):
        a = normal_form(tuple(rng.choice(gens) for _ in range(2)))
        b = normal_form(tuple(rng.choice(gens) for _ in range(2)))
        for wa, pa in grade(a).items():
            for wb, pb in grade(b).items():
                prod = multiply(pa, pb)
                if prod:
                    assert set(grade(prod)) <= {wa + wb}


def test_negative_part_basis_listing():
    assert [mono_str(m) for m in negative_part_basis(1)] == ["I(-1)", "d(-1)"]
    assert [mono_str(m) for m in negative_part_basis(2)] == [
        "I(-2)",
        "I(-1)^2",
        "I(-1)*d(-1)",
        "d(-2)",
        "d(-1)^2",
    ]
    assert len(negative_part_basis(3)) == 10


def test_negative_part_basis_partition_count():
    for degree in range(1, 8):
        assert len(negative_part_basis(degree)) == two_colored_partitions(degree)


def test_negative_part_basis_restrict():
    only_I = negative_part_basis(3, restrict=lambda g: g[0] == "I")
    assert len(only_I) == partitions_count(3)
    assert all(g[0] == "I" for m in only_I for g, _ in m)


def test_negative_part_basis_rejects_zero():
    with pytest.raises(ValueError):
        negative_part_basis(0)
