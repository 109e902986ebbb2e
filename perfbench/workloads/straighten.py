"""straighten: PBW normal forms of seeded words, with no elimination.

Words over d(n), I(n) (|n| <= 3) and z1..z3 of length 6-9 are drawn with an
inversion count inside a band per length, because straightening cost grows
exponentially with inversions.  Every eighth item is a fully reversed word
of seven distinct letters.  Some items go on to ``multiply`` (the word split in
two halves) or act with the normal form on a Verma vector.

Oracle: the normal form, acting on a Verma vector, equals the letter-by-letter
fold of the word on that vector, and every term has the word's weight.
"""

from __future__ import annotations

import random

from common import Item, rand_q, require

NAME = "straighten"
TRACE_ITEMS_PER_SECOND = 20
DIGEST_ITEMS = 2000

LETTERS_D = [("d", n) for n in range(-3, 4)]
LETTERS_I = [("I", n) for n in range(-3, 4)]
CENTRAL = [("z", 1), ("z", 2), ("z", 3)]
INVERSION_BAND = {6: (12, 15), 7: (14, 18), 8: (16, 21), 9: (18, 23)}
SCHEDULE = ("nf", "nf_mul", "nf_act", "nf", "nf_mul", "nf_act", "nf", "rev")


def letter_weight(g):
    return 0 if g[0] == "z" else g[1]


def inversions(word, order_key):
    keys = [order_key(g) for g in word]
    return sum(1 for i in range(len(keys)) for j in range(i + 1, len(keys)) if keys[i] > keys[j])


def fold(hv, word, vec):
    """Act letter by letter, rightmost letter first."""
    for g in reversed(word):
        vec = hv.modules.act(g, vec)
    return vec


def homogeneous(keys, weight_of, expected):
    return all(weight_of(k) == expected for k in keys)


class State:
    def __init__(self, hv, seed):
        rng = random.Random("straighten-setup-%d" % seed)
        HW = hv.modules.HWParams
        self.hws = [
            HW(rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng))
            for _ in range(8)
        ]
        # nf_act items start at depth 1 or 2; the oracle of the other items at depth 1,
        # where the fold costs a third of what it costs at depth 2
        self.act_keys = hv.pbw.negative_part_basis(1) + hv.pbw.negative_part_basis(2)
        self.check_keys = hv.pbw.negative_part_basis(1)
        self.order_key = hv.algebra.gen_order_key


def setup(hv, seed):
    state = State(hv, seed)
    word = (("d", 1), ("I", -1), ("d", -2))
    u = hv.pbw.normal_form(word)
    hv.pbw.multiply(u, u)
    module = hv.modules.VermaModule(state.hws[0])
    hv.modules.act_uea(u, module.vector(state.act_keys[0]))
    return state


def _letter(rng):
    r = rng.random()
    if r < 0.08:
        return rng.choice(CENTRAL)
    return rng.choice(LETTERS_D if r < 0.6 else LETTERS_I)


def _word(rng, length, order_key):
    lo, hi = INVERSION_BAND[length]
    while True:
        word = tuple(_letter(rng) for _ in range(length))
        if lo <= inversions(word, order_key) <= hi:
            return word


def items(state, seed):
    rng = random.Random("straighten-%d" % seed)
    i = 0
    while True:
        cls = SCHEDULE[i % len(SCHEDULE)]
        if cls == "rev":
            word = tuple(sorted(rng.sample(LETTERS_D + LETTERS_I, 7), key=state.order_key, reverse=True))
        else:
            word = _word(rng, 6 + i % 4, state.order_key)
        hw = rng.choice(state.hws)
        key = rng.choice(state.act_keys if cls == "nf_act" else state.check_keys)
        size = {"len": len(word), "inv": inversions(word, state.order_key)}
        yield Item(cls, size, (word, hw, key))
        i += 1


def run(hv, state, item):
    word, hw, key = item.data
    if item.cls == "nf_mul":
        half = len(word) // 2
        return hv.pbw.multiply(hv.pbw.normal_form(word[:half]), hv.pbw.normal_form(word[half:]))
    u = hv.pbw.normal_form(word)
    if item.cls == "nf_act":
        module = hv.modules.VermaModule(hw)
        return hv.modules.act_uea(u, module.vector(key))
    return u


def check(hv, state, item, result):
    word, hw, key = item.data
    weight = sum(letter_weight(g) for g in word)
    module = hv.modules.VermaModule(hw)
    start = module.vector(key)
    expected = fold(hv, word, start)
    if item.cls == "nf_act":
        require(result.coeffs == expected.coeffs, "action differs from the letter-by-letter fold")
        require(homogeneous(result.coeffs, hv.pbw.mono_weight, hv.pbw.mono_weight(key) + weight), "inhomogeneous vector")
        return
    require(homogeneous(result.coeffs, hv.pbw.mono_weight, weight), "inhomogeneous normal form")
    acted = hv.modules.act_uea(result, start)
    require(acted == expected, "normal form acts unlike the word")


def show(result):
    return str(result)
