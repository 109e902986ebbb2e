"""search: singular vectors, submodule generators, Whittaker vectors, membership.

Highest weights are seeded: generic ones (z3 != 0) and z3 = 0 ones whose
ratio I0/z2 = 1 -+ p puts a submodule generator at depth p in 1..3.  Dense
rational elimination and the Verma ``act_gen`` memo dominate; no item calls
``pbw.normal_form``.

Oracles: singular vectors are acted on again, with every positive generator
up to their depth, in a fresh module and must vanish; a z3 = 0 weight has a
generator at its depth p.  Whittaker vectors must satisfy the character on a
wider window than the search imposes.  Membership must agree with the
``rho(P)(n) == 0`` test.
"""

from __future__ import annotations

import random

from common import Item, rand_q, require

NAME = "search"
TRACE_ITEMS_PER_SECOND = 4
DIGEST_ITEMS = 400

# (class, depth or degree, pool); one cycle takes about 1.8 s on a 2-core VM with Python 3.11
SCHEDULE = (
    ("singular", 4, "generic"),
    ("membership", 2, None),
    ("maximal", 4, "zero"),
    ("singular", 5, "generic"),
    ("whittaker", None, None),
    ("membership", 3, None),
    ("singular", None, "zero"),
    ("maximal", 4, "generic"),
    ("singular", 4, "zero"),
    ("membership", 1, None),
    ("maximal", 5, "zero"),
    ("singular", 5, "zero"),
    ("whittaker", None, None),
    ("membership", 3, None),
    ("singular", 6, "generic"),
    ("singular", None, "zero"),
)


class State:
    def __init__(self, hv, seed):
        self.hv = hv
        rng = random.Random("search-setup-%d" % seed)
        HW = hv.modules.HWParams
        self.generic = [
            HW(rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng))
            for _ in range(8)
        ]
        self.zero = []  # (HWParams, depth of the generator)
        for k in range(9):
            p = 1 + k % 3
            z2 = rand_q(rng)
            ratio = 1 - p if rng.random() < 0.5 else 1 + p
            hw = HW(ratio * z2, rand_q(rng, zero=True), rand_q(rng, zero=True), z2, 0)
            self.zero.append((hw, p))
        self.isps = [
            hv.modules.ISParams(rng.randint(-3, 3), rng.randint(-2, 2), rand_q(rng, zero=True)) for _ in range(4)
        ] + [hv.modules.ISParams(rand_q(rng, zero=True), rand_q(rng, zero=True), rand_q(rng, zero=True)) for _ in range(4)]
        self.bases = {deg: hv.pbw.negative_part_basis(deg) for deg in (1, 2, 3)}


def _character(hv, rng, m):
    d_vals = {k: rand_q(rng, zero=True) for k in range(m, 2 * m + 1)}
    i_vals = {k: rand_q(rng, zero=True) for k in range(0, m)}
    i_vals[m] = 0 if rng.random() < 0.5 else rand_q(rng)
    return hv.modules.WhittakerCharacter(m, d_vals, i_vals, z1=rand_q(rng, zero=True), z2=rand_q(rng, zero=True), z3=0)


def setup(hv, seed):
    state = State(hv, seed)
    hw, _ = state.zero[0]
    hv.linsearch.singular_vectors(hw, 1)
    hv.linsearch.maximal_submodule_gens(hw, 1)
    hv.linsearch.whittaker_vector_search(_character(hv, random.Random(seed), 1))
    tester = hv.linsearch.MembershipTester(state.isps[0], 0)
    tester.contains(hv.pbw.UEAElement({state.bases[1][0]: 1}), 2)
    return state


def _basis_size(state, depth):
    if depth == 0:
        return 1
    if depth not in state.bases:
        state.bases[depth] = state.hv.pbw.negative_part_basis(depth)
    return len(state.bases[depth])


def _shape(state, depth):
    """Rows and columns of the d(1), d(2), I(1) conditions at a depth."""
    rows = 2 * _basis_size(state, depth - 1) + (_basis_size(state, depth - 2) if depth >= 2 else 0)
    return [rows, _basis_size(state, depth)]


def items(state, seed):
    hv = state.hv
    rng = random.Random("search-%d" % seed)
    i = 0
    while True:
        cls, depth, pool = SCHEDULE[i % len(SCHEDULE)]
        if cls in ("singular", "maximal"):
            if pool == "generic":
                hw, p = rng.choice(state.generic), None
            else:
                # the generator depth cycles, so every seed searches the same depths
                p = 1 + (i // len(SCHEDULE)) % 3
                hw = rng.choice([h for h, q in state.zero if q == p])
            depth = depth or p
            size = {"depth": depth, "shape": _shape(state, depth), "pool": pool}
            data = (hw, depth, p)
        elif cls == "whittaker":
            chars = tuple(_character(hv, rng, m) for m in (1, 2, 3))
            size = {"m": [1, 2, 3]}
            data = (chars,)
        else:
            basis = state.bases[depth]
            monos = rng.sample(basis, min(len(basis), rng.choice((1, 1, 2))))
            P = hv.pbw.UEAElement({m: rand_q(rng) for m in monos})
            isp = rng.choice(state.isps)
            size = {"degree": depth, "terms": len(P.coeffs)}
            data = (isp, rng.randint(-3, 3), P)
        yield Item(cls, size, data)
        i += 1


def run(hv, state, item):
    if item.cls == "singular":
        hw, depth, _ = item.data
        return hv.linsearch.singular_vectors(hw, depth).vectors
    if item.cls == "maximal":
        hw, depth, _ = item.data
        return hv.linsearch.maximal_submodule_gens(hw, depth)
    if item.cls == "whittaker":
        return [hv.linsearch.whittaker_vector_search(char).vectors for char in item.data[0]]
    isp, n, P = item.data
    return hv.linsearch.MembershipTester(isp, n).contains(P, 2)


def _singular(hv, hw, vector, depth):
    """Act with every positive generator that can reach the top in a fresh module."""
    module = hv.modules.VermaModule(hw)
    v = module.vector(dict(vector.coeffs))
    require(v, "zero vector returned")
    require(all(hv.pbw.mono_weight(k) == -depth for k in v.coeffs), "vector off its weight space")
    for k in range(1, depth + 1):
        for g in (("d", k), ("I", k)):
            require(not hv.modules.act(g, v), "vector not annihilated by %s(%d)" % g)


def check(hv, state, item, result):
    if item.cls == "singular":
        hw, depth, p = item.data
        for v in result:
            _singular(hv, hw, v, depth)
        if p is not None and depth == p:
            require(result, "no singular vector at the generator depth %d" % p)
        return
    if item.cls == "maximal":
        hw, depth, p = item.data
        gens, status = result
        module = hv.modules.VermaModule(hw)
        for u in gens:
            degrees = {-hv.pbw.mono_weight(m) for m in u.coeffs}
            require(len(degrees) == 1, "inhomogeneous generator")
            _singular(hv, hw, hv.modules.act_uea(u, module.cyclic()), degrees.pop())
        if p is not None and p <= depth:
            require(status == "complete" and len(gens) == 1, "z3 = 0 weight: expected one generator")
            require({-hv.pbw.mono_weight(m) for m in gens[0].coeffs} == {p}, "generator at the wrong depth")
        return
    if item.cls == "whittaker":
        for char, vectors in zip(item.data[0], result):
            module = hv.modules.WhittakerModule(char)
            m = char.m
            if char.i_val(m) == 0:
                require(vectors, "no proper Whittaker vector although the I(m)-value is zero")
            window = [("d", k) for k in range(m, 2 * m + 3)] + [("I", k) for k in range(1, m + 3)]
            for vec in vectors:
                v = module.vector(dict(vec.coeffs))
                require(v, "zero Whittaker vector")
                for g in window:
                    require(hv.modules.act(g, v) == char.value(g) * v, "character fails on %s(%d)" % g)
        return
    isp, n, P = item.data
    require(result == (hv.criteria.rho(P, isp)(n) == 0), "membership disagrees with rho")


def show(result):
    if isinstance(result, tuple):
        gens, status = result
        return "%s;%s" % (status, ";".join(str(u) for u in gens))
    if isinstance(result, list):
        return ";".join(show(r) if isinstance(r, list) else str(r) for r in result)
    return str(result)
