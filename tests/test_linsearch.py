import random

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from heisvir.algebra import bracket, d, I, lie
from heisvir.criteria import rho
from heisvir.errors import NotNegativePart, PreconditionZ3
from heisvir.linsearch import (
    GENERIC_HW,
    Echelon,
    MatrixQ,
    MembershipTester,
    POSITIVE_GENERATORS,
    maximal_submodule_gens,
    nullspace,
    shifted_membership,
    singular_vectors,
    weight_basis,
    whittaker_vector_search,
)
from heisvir.modules import (
    HWParams,
    ISParams,
    WhittakerCharacter,
    act,
)
from heisvir.pbw import UEAElement, UNIT, negative_part_basis, uea
from oracles import rref_dense


def _sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_nullspace_examples():
    ident = MatrixQ(_sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    assert nullspace(ident) == []
    zero = MatrixQ(_sparse([[0, 0, 0], [0, 0, 0]]), 3)
    assert nullspace(zero) == [{0: 1}, {1: 1}, {2: 1}]
    M = MatrixQ(_sparse([[1, 2], [2, 4]]), 2)
    (v,) = nullspace(M)
    assert v == {0: -2, 1: 1}


def _entries():
    small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    huge = st.builds(
        lambda n, sign, den: Q(sign * n, den),
        st.integers(10**12 - 9, 10**12 + 9),
        st.sampled_from((1, -1)),
        st.integers(1, 30),
    )
    return st.one_of(st.just(Q(0)), st.just(Q(0)), small, huge)


@st.composite
def sparse_matrices(draw):
    """Rank-deficient sparse rows: combinations of a few random rows, zero columns, shuffled."""
    nr = draw(st.integers(1, 7))
    nc = draw(st.integers(1, 7))
    cell = _entries()
    base = [[draw(cell) for _ in range(nc)] for _ in range(draw(st.integers(1, nr)))]
    rows = list(base)
    while len(rows) < nr:
        coeffs = [draw(st.integers(-3, 3)) for _ in base]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(nc)])
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=nc - 1)):
        for r in rows:
            r[j] = Q(0)
    return draw(st.permutations(rows)), nc


def _dense_kernel(rows, nc):
    """The canonical kernel basis read off the dense oracle's reduced echelon form, as sparse maps."""
    ech, pivots = rref_dense(rows, nc)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = {fc: Q(1)}
        for i, pc in enumerate(pivots):
            if ech[i][fc]:
                vec[pc] = -ech[i][fc]
        basis.append(vec)
    return basis


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_rref_and_nullspace_match_dense_oracle(matrix, data):
    rows, nc = matrix
    kernel = nullspace(MatrixQ(_sparse(rows), nc))
    assert kernel == _dense_kernel(rows, nc)
    assert len(rref_dense(rows, nc)[1]) + len(kernel) == nc
    # nullspace inserts the rows shortest first, ties in input order; no order changes the basis
    shuffled = data.draw(st.permutations(rows))
    assert nullspace(MatrixQ(_sparse(shuffled), nc)) == kernel


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_insert_residue_is_zero_exactly_when_rank_stays(matrix):
    rows, nc = matrix
    span = Echelon.over(range(nc))
    for i, row in enumerate(rows):
        residue = span.insert(dict(enumerate(row)))
        grew = len(rref_dense(rows[: i + 1], nc)[1]) > len(rref_dense(rows[:i], nc)[1])
        assert bool(residue) == grew
        assert span.rank == len(rref_dense(rows[: i + 1], nc)[1])
    assert sorted(span.pivots) == rref_dense(rows, nc)[1]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_reduction_limited_to_first_pivots_matches_fresh_engine(matrix, data):
    rows, nc = matrix
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows)), max_size=3)) | {len(rows)})
    blocks = [rows[a:b] for a, b in zip([0] + cuts, cuts)]
    probe = dict(enumerate(data.draw(st.lists(_entries(), min_size=nc, max_size=nc))))
    span = Echelon.over(range(nc))
    block_rank = [0]
    for block in blocks:
        for row in block:
            span.insert(dict(enumerate(row)))
        block_rank.append(span.rank)
    for k in range(len(blocks) + 1):
        fresh = Echelon.over(range(nc))
        for block in blocks[:k]:
            for row in block:
                fresh.insert(dict(enumerate(row)))
        for vec in [probe] + [dict(enumerate(row)) for row in rows]:
            assert span.reduce(vec, block_rank[k]) == fresh.reduce(vec)


def test_rank_nullity():
    rng = random.Random(37)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        assert len(rref_dense(rows, nc)[1]) + len(nullspace(MatrixQ(_sparse(rows), nc))) == nc


def test_weight_basis():
    assert weight_basis(0) == [UNIT]
    assert len(weight_basis(1)) == 2
    assert len(weight_basis(2)) == 5


def test_positive_generation():
    # iterated brackets of d(1), d(2), I(1), accumulated degreewise, span
    # every d(k), I(k) with 1 <= k <= 8
    window = 8
    produced = {k: [] for k in range(1, window + 1)}
    for g in POSITIVE_GENERATORS:
        produced[g[1]].append(lie(g))
    for k in range(2, window + 1):
        for a in range(1, k):
            for x in produced[a]:
                for y in produced[k - a]:
                    z = bracket(x, y)
                    if z:
                        produced[k].append(z)
    span = Echelon(lambda g: g)
    for layer in produced.values():
        for x in layer:
            span.insert(x.coeffs)
    for k in range(1, window + 1):
        for g in (d(k), I(k)):
            assert not span.reduce({g: 1})


BILLIG_P1 = HWParams(i0=0, d0=Q(7, 3), z2=1, z3=0)


def test_singular_billig_p1():
    res = singular_vectors(BILLIG_P1, 1)
    assert len(res.vectors) == 1
    (v,) = res.vectors
    coeffs = dict(v.coeffs)
    # proportional to d(-1) w + d0 I(-1) w
    assert coeffs[((d(-1), 1),)] * BILLIG_P1.d0 == coeffs[((I(-1), 1),)]


def test_singular_heisenberg_case():
    res = singular_vectors(HWParams(i0=2, d0=Q(1, 5), z2=1, z3=0), 1)
    assert len(res.vectors) == 1
    (v,) = res.vectors
    assert set(v.coeffs) == {((I(-1), 1),)}


def test_singular_simple_case_empty():
    hw = HWParams(i0=1, d0=Q(2, 7), z1=3)
    for degree in (1, 2, 3):
        assert singular_vectors(hw, degree).vectors == []


def test_singular_annihilated_by_window():
    (v,) = singular_vectors(BILLIG_P1, 1).vectors
    for k in range(1, 6):
        assert act(d(k), v).is_zero()
        assert act(I(k), v).is_zero()


def test_maximal_gens_billig():
    gens, status = maximal_submodule_gens(BILLIG_P1, 3)
    assert status == "complete"
    assert len(gens) == 1
    assert gens[0] == UEAElement({((d(-1), 1),): Q(1), ((I(-1), 1),): BILLIG_P1.d0})


def test_maximal_gens_simple_verma():
    gens, status = maximal_submodule_gens(HWParams(i0=1, d0=Q(2, 7), z1=3), 3)
    assert gens == [] and status == "complete"


def test_maximal_gens_example29():
    # d0 = -I0^2/(2 z3) + I0 z2/z3 puts the derivation-side factor at the
    # degenerate point with a depth-1 generator
    i0, z2, z3 = Q(1), Q(0), Q(1)
    hw = HWParams(i0=i0, d0=-(i0**2) / (2 * z3) + i0 * z2 / z3, z1=2 - 12 * z2**2 / z3, z2=z2, z3=z3)
    gens, status = maximal_submodule_gens(hw, 2)
    assert gens == [UEAElement({((d(-1), 1),): Q(1), ((I(-1), 1),): i0 / z3})]
    # depth bounds for the nonzero-z3 branch are not certified
    assert status == "truncated"


def test_singular_heisenberg_depth_two():
    # ratio 3 puts the pure-I singular vector at depth 2
    hw = HWParams(i0=3, d0=Q(4, 7), z2=1, z3=0)
    assert singular_vectors(hw, 1).vectors == []
    (v,) = singular_vectors(hw, 2).vectors
    assert all(g[0] == "I" for key in v.coeffs for g, _ in key)
    gens, status = maximal_submodule_gens(hw, 3)
    assert status == "complete"
    assert gens == [UEAElement({((I(-1), 2),): Q(1), ((I(-2), 1),): Q(-1)})]


def test_maximal_gens_derivation_only_point():
    # zero I0 and d0 scalars: the depth-1 generator is the bare derivation
    from heisvir.criteria import tensor_simplicity

    hw = HWParams(i0=0, d0=0, z1=Q(1, 3), z2=Q(5, 2), z3=0)
    gens, status = maximal_submodule_gens(hw, 3)
    assert gens == [uea(d(-1))] and status == "complete"
    for a, b, expect in [
        (Q(1, 2), Q(0), True),
        (Q(2), Q(1), False),
        (Q(7, 3), Q(1, 3), False),
        (Q(7, 3), Q(1, 2), True),
    ]:
        assert tensor_simplicity(gens, ISParams(a, b, Q(4))).is_simple == expect


def test_maximal_gens_billig_out_of_window():
    # expected generator depth is 3; a depth-2 search must admit truncation
    hw = HWParams(i0=-2, d0=1, z2=1, z3=0)
    gens, status = maximal_submodule_gens(hw, 2)
    assert gens == [] and status == "truncated"
    gens3, status3 = maximal_submodule_gens(hw, 3)
    assert len(gens3) == 1 and status3 == "complete"


def test_whittaker_vector_search_m1():
    char = WhittakerCharacter(1, {1: Q(2, 3), 2: Q(5)}, {0: Q(7, 2), 1: 0}, z1=1, z2=Q(1, 3), z3=0)
    res = whittaker_vector_search(char)
    assert res.num_variables == 4
    assert res.rank <= 3
    assert len(res.vectors) >= 1
    assert all(v for v in res.vectors)


def test_whittaker_vector_search_zero_character():
    char = WhittakerCharacter(1, {}, {}, z3=0)
    res = whittaker_vector_search(char)
    assert len(res.vectors) >= 1


def test_whittaker_vector_search_m2():
    char = WhittakerCharacter(2, {2: 1, 3: Q(1, 2), 4: 3}, {0: 2, 1: Q(4, 5), 2: 0}, z2=1, z3=0)
    res = whittaker_vector_search(char)
    assert res.num_variables == 6
    assert res.rank <= 5
    assert len(res.vectors) >= 1


def test_whittaker_vector_search_simple_side_empty():
    # nonzero top I-value: the module is simple, the ansatz has no solution
    char = WhittakerCharacter(1, {1: 1, 2: 1}, {0: 1, 1: 3}, z3=0)
    assert whittaker_vector_search(char).vectors == []


def test_whittaker_vector_search_rejects_nonzero_z3():
    with pytest.raises(PreconditionZ3):
        whittaker_vector_search(WhittakerCharacter(1, {}, {}, z3=1))


def test_shifted_membership_examples():
    isp = ISParams(1, 0, 0)
    assert shifted_membership(uea(d(-1)), -2, 2, isp)
    isp_half = ISParams(Q(1, 2), 0, 0)
    for n in range(-3, 4):
        assert not shifted_membership(uea(d(-1)), n, 2, isp_half)


def test_shifted_membership_unit_never():
    tester = MembershipTester(ISParams(1, 0, 0), 0)
    for depth in (1, 2, 3):
        assert not tester.contains_at(UEAElement({UNIT: Q(1)}), depth)


def test_shifted_membership_requires_negative_part():
    with pytest.raises(NotNegativePart):
        shifted_membership(uea(d(0)), 0, 1, ISParams(1, 0, 0))


def test_shifted_membership_matches_rho_spot():
    isp = ISParams(Q(1, 2), Q(1, 3), 2)
    tester = MembershipTester(isp, -1)
    for mono in negative_part_basis(2):
        P = UEAElement({mono: Q(1)})
        assert tester.contains(P, 2) == (rho(P, isp)(-1) == 0)


def test_membership_hw_independence():
    # the verdict does not depend on the highest weight data
    isp = ISParams(1, 0, 0)
    other = HWParams(i0=1, d0=0, z1=0, z2=Q(1, 7), z3=Q(3))
    assert GENERIC_HW != other
    for n in (-2, 0):
        assert shifted_membership(uea(d(-1)), n, 2, isp) == shifted_membership(
            uea(d(-1)), n, 2, isp, hw=other
        )
