"""Exact rational linear algebra and the bounded search routines.

Nullspaces can be computed by fraction-free Bareiss elimination or by plain
rational Gauss; both are canonicalised through the reduced echelon form and
must return identical kernels.  On top of them sit the singular-vector
search, the maximal-submodule generator discovery, the Whittaker-vector
linear system and the brute-force shifted-membership oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ONE, Q, I, axpy, bracket, d, lie
from .errors import NotNegativePart, PreconditionZ3, UnstableSpan
from .modules import (
    HWParams,
    ISParams,
    ModuleVector,
    ShiftedTensorModule,
    VermaModule,
    WhittakerCharacter,
    WhittakerModule,
    act,
    act_uea,
)
from .pbw import (
    UEAElement,
    UNIT,
    mono_sort_key,
    mono_weight,
    negative_part_basis,
    word_of,
)


class MatrixQ:
    """Dense rational matrix with optional row/column labels."""

    def __init__(self, rows, row_labels=None, col_labels=None):
        self.rows = [[Q(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")
        self.row_labels = row_labels
        self.col_labels = col_labels

    def mul_vec(self, vec):
        return [sum((r[j] * vec[j] for j in range(self.ncols)), Q(0)) for r in self.rows]


def _rref_gauss(rows, ncols):
    """Reduced row echelon form by plain rational elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rref_bareiss(rows, ncols):
    """Reduced row echelon form via fraction-free Bareiss elimination.

    Rows are scaled to integers (scaling preserves the row space, and the
    rref is unique per row space); the forward pass divides by the previous
    pivot, which is exact by the Sylvester determinant identity.  A rational
    back-substitution then produces the same canonical rref as the plain
    pipeline.
    """
    m = []
    for row in rows:
        if any(row):
            den = math.lcm(*(v.denominator for v in row))
            m.append([int(v * den) for v in row])
    if not m:
        return [], []
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            fi = m[i][c]
            m[i] = [(piv * m[i][j] - fi * m[r][j]) // prev for j in range(ncols)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    ech = [[Q(v) for v in m[i]] for i in range(r)]
    for i in range(r - 1, -1, -1):
        pc = pivots[i]
        pv = ech[i][pc]
        ech[i] = [v / pv for v in ech[i]]
        for i2 in range(i):
            f = ech[i2][pc]
            if f:
                ech[i2] = [a - f * b for a, b in zip(ech[i2], ech[i])]
    return ech, pivots


def rref(M: MatrixQ, method: str = "gauss"):
    if method == "gauss":
        return _rref_gauss(M.rows, M.ncols)
    if method == "bareiss":
        return _rref_bareiss(M.rows, M.ncols)
    raise ValueError("unknown method %r" % method)


def nullspace(M: MatrixQ, method: str = "gauss"):
    """Canonical kernel basis: one vector per free column, unit at that column.

    Every returned vector is re-checked against M exactly.
    """
    rows, pivots = rref(M, method)
    pivot_set = set(pivots)
    free = [c for c in range(M.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Q(0)] * M.ncols
        vec[fc] = Q(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    for vec in basis:
        if any(M.mul_vec(list(vec))):
            raise AssertionError("kernel vector fails M v = 0")
    return basis


def rank(M: MatrixQ, method: str = "gauss") -> int:
    return len(rref(M, method)[1])


@dataclass
class SearchResult:
    """Vectors found by a bounded search, with an honesty flag."""

    vectors: list
    status: str  # "complete" | "truncated"
    degree: int | None = None
    detail: str | None = None
    num_variables: int | None = None
    rank: int | None = None

    @property
    def complete(self):
        return self.status == "complete"


def weight_basis(degree: int):
    """Monomial keys of the Verma weight space at the given depth (0 = cyclic vector)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return [UNIT]
    return negative_part_basis(degree)


# these generate the positive part, since [d(1), d(k)] = (k-1) d(k+1) and
# [d(1), I(k)] = k I(k+1); check_positive_generation verifies it on a window
POSITIVE_GENERATORS = (d(1), d(2), I(1))


def check_positive_generation(window: int) -> bool:
    """Verify d(1), d(2), I(1) generate every d(k), I(k) for 1 <= k <= window.

    Iterated brackets are accumulated degreewise; elements of positive degree
    never contain central components, so each graded piece only needs rank 2
    over the pair (d(k), I(k)).
    """
    produced = {1: [lie(d(1)), lie(I(1))], 2: [lie(d(2))]}
    for k in range(2, window + 1):
        layer = produced.setdefault(k, [])
        for a in range(1, k):
            for x in produced.get(a, []):
                for y in produced.get(k - a, []):
                    z = bracket(x, y)
                    if z:
                        layer.append(z)
    for k in range(1, window + 1):
        # elements of positive degree never contain central components, so
        # the degree-k piece is spanned by d(k), I(k): rank 2 is required
        coords = [
            [x.coeffs.get(("d", k), Q(0)), x.coeffs.get(("I", k), Q(0))]
            for x in produced.get(k, [])
        ]
        if rank(MatrixQ(coords or [[Q(0), Q(0)]])) < 2:
            return False
    return True


def _action_matrix(module, gen, src_keys):
    """Matrix of a generator action out of a finite key window."""
    images = [module.act_gen(gen, k) for k in src_keys]
    seen = set()
    det_keys = []
    for img in images:
        for k in img:
            if k not in seen:
                seen.add(k)
                det_keys.append(k)
    det_keys.sort(key=module.key_sort)
    pos = {k: i for i, k in enumerate(det_keys)}
    rows = [[Q(0)] * len(src_keys) for _ in det_keys]
    for j, img in enumerate(images):
        for k, c in img.items():
            rows[pos[k]][j] = c
    return rows


def singular_vectors(hw: HWParams, degree: int) -> SearchResult:
    """Weight vectors at the given depth annihilated by the whole positive part.

    The imposed conditions are the actions of d(1), d(2), I(1), which generate
    the positive part; every returned vector is re-verified by direct action.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    module = VermaModule(hw)
    src = weight_basis(degree)
    rows = []
    for gen in POSITIVE_GENERATORS:
        rows.extend(_action_matrix(module, gen, src))
    if not rows:
        rows = [[Q(0)] * len(src)]
    M = MatrixQ(rows, col_labels=src)
    vectors = []
    for vec in nullspace(M):
        mv = ModuleVector(module, {k: c for k, c in zip(src, vec) if c})
        for gen in POSITIVE_GENERATORS:
            if act(gen, mv):
                raise AssertionError("singular candidate not annihilated")
        vectors.append(mv)
    return SearchResult(vectors, "complete", degree=degree)


def _uea_of_vector(mv: ModuleVector) -> UEAElement:
    """Read a Verma vector as the enveloping element applied to the cyclic vector."""
    u = UEAElement(dict(mv.coeffs))
    top = max(u.coeffs, key=mono_sort_key)
    return (1 / u.coeffs[top]) * u


class _SpanReducer:
    """Incremental echelon over monomial-keyed sparse vectors."""

    def __init__(self):
        self.pivot_by_lead = {}

    def reduce(self, vecmap):
        vec = dict(vecmap)
        while True:
            lead = None
            for k in sorted(vec, key=mono_sort_key):
                if k in self.pivot_by_lead:
                    lead = k
                    break
            if lead is None:
                return vec
            rowmap = self.pivot_by_lead[lead]
            axpy(vec, -vec[lead] / rowmap[lead], rowmap)

    def insert(self, vecmap):
        red = self.reduce(vecmap)
        if red:
            lead = min(red, key=mono_sort_key)
            self.pivot_by_lead[lead] = red
        return red


def maximal_submodule_gens(hw: HWParams, max_degree: int):
    """Singular generators of the maximal submodule found up to max_degree.

    Candidates at each depth are reduced modulo the submodule generated by
    earlier generators (exact spans inside the weight space).  The returned
    status is "complete" only when theory pins the generator count inside the
    window: either two generators were reached (never more exist when the
    central character is not identically degenerate), or one of the closed
    criteria for z3 = 0 applies.  Otherwise the status is "truncated": the
    bounded search cannot exclude generators beyond the window.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    gens = []  # (UEAElement, degree, ModuleVector)
    for degree in range(1, max_degree + 1):
        found = singular_vectors(hw, degree).vectors
        if not found:
            continue
        reducer = _SpanReducer()
        for u, p, mv in gens:
            if p > degree:
                continue
            if p == degree:
                reducer.insert(dict(mv.coeffs))
                continue
            for mono in negative_part_basis(degree - p):
                row = act_uea(UEAElement({mono: Q(1)}), mv)
                reducer.insert(dict(row.coeffs))
        for mv in found:
            if reducer.insert(dict(mv.coeffs)):
                gens.append((_uea_of_vector(mv), degree, mv))
    status = _gens_status(hw, [(u, p) for u, p, _ in gens], max_degree)
    return [u for u, _, _ in gens], status


def _gens_status(hw: HWParams, found, max_degree: int) -> str:
    degenerate = (hw.i0, hw.z2, hw.z3) == (0, 0, 0)
    if degenerate:
        return "truncated"
    if len(found) == 2:
        return "complete"
    if hw.z3 == 0 and hw.z2 == 0:
        # nonzero I0 scalar: the Verma module is simple, nothing should exist
        return "complete" if not found else "truncated"
    if hw.z3 == 0:
        ratio = hw.i0 / hw.z2
        if ratio.denominator != 1 or ratio == 1:
            return "complete" if not found else "truncated"
        p = abs(1 - int(ratio))
        if p <= max_degree and len(found) == 1 and found[0][1] == p:
            return "complete"
        return "truncated"
    # z3 != 0: at most two generators exist, but no closed criterion
    # implemented here bounds their depths, so fewer than two stays open
    return "truncated"


def whittaker_vector_search(char: WhittakerCharacter) -> SearchResult:
    """Solve the proper-vector ansatz for a z3 = 0 Whittaker character.

    The ansatz is (sum a_i d(i), 0 <= i < m) + (sum b_i I(-i), 1 <= i <= m+1)
    + c I(-1)^2 applied to the cyclic vector; the imposed conditions are that
    d(m)..d(2m) and I(1)..I(m+1) act by the character.  Solutions are
    re-verified by direct action before being returned.
    """
    if char.z3 != 0:
        raise PreconditionZ3("the ansatz search requires a zero z3 value")
    m = char.m
    module = WhittakerModule(char)
    ansatz = [((d(i), 1),) for i in range(0, m)]
    ansatz += [((I(-i), 1),) for i in range(1, m + 2)]
    ansatz.append(((I(-1), 2),))
    conditions = [d(m + i) for i in range(0, m + 1)]
    conditions += [I(1 + i) for i in range(0, m + 1)]
    rows = {}
    for ci, gen in enumerate(conditions):
        phi_val = char.value(gen)
        for j, mono in enumerate(ansatz):
            image = axpy(dict(module.act_gen(gen, mono)), -phi_val, {mono: ONE})
            for key, c in image.items():
                rows.setdefault((ci, key), [Q(0)] * len(ansatz))[j] = c
    M = MatrixQ(list(rows.values()) or [[Q(0)] * len(ansatz)])
    vectors = []
    for vec in nullspace(M):
        mv = ModuleVector(module, {k: c for k, c in zip(ansatz, vec) if c})
        for gen in conditions:
            if act(gen, mv) != char.value(gen) * mv:
                raise AssertionError("search result fails the defining conditions")
        vectors.append(mv)
    return SearchResult(vectors, "complete", num_variables=len(ansatz), rank=rank(M))


GENERIC_HW = HWParams(i0=Q(2, 3), d0=Q(5, 7), z1=Q(1), z2=Q(1, 3), z3=Q(2))


class MembershipTester:
    """Incremental span oracle for the shifted filtration at a fixed y-exponent.

    The relevant slice is spanned by depth-i monomials acting on the basis
    vector at y-exponent n + i (i >= 1); blocks are added one depth at a time
    and pivot rows are only ever appended, so verdicts at different truncation
    depths reuse one elimination.
    """

    def __init__(self, isp: ISParams, n: int, hw: HWParams = GENERIC_HW):
        self.module = ShiftedTensorModule(hw, isp)
        self.n = n
        self.depth = 0
        self.pivot_by_lead = {}  # lead monomial -> (rowmap, block depth)

    def _reduce(self, vecmap, max_block):
        vec = dict(vecmap)
        while True:
            lead = None
            for k in sorted(vec, key=mono_sort_key):
                entry = self.pivot_by_lead.get(k)
                if entry is not None and entry[1] <= max_block:
                    lead = k
                    break
            if lead is None:
                return vec
            rowmap = self.pivot_by_lead[lead][0]
            axpy(vec, -vec[lead] / rowmap[lead], rowmap)

    def _extend(self, depth: int):
        while self.depth < depth:
            i = self.depth + 1
            start = self.module.vector((UNIT, self.n + i))
            for mono in negative_part_basis(i):
                img = act_uea(UEAElement({mono: Q(1)}), start)
                # weight -i against y-exponent n+i lands back in the n-slice
                flat = {}
                for (m2, y), c in img.coeffs.items():
                    if y != self.n:
                        raise AssertionError("spanning vector escaped the slice")
                    flat[m2] = c
                red = self._reduce(flat, i)
                if red:
                    lead = min(red, key=mono_sort_key)
                    self.pivot_by_lead[lead] = (red, i)
            self.depth = i

    def contains_at(self, P: UEAElement, truncation: int) -> bool:
        """Membership at a fixed truncation depth (no stability check)."""
        self._extend(truncation)
        return not self._reduce(dict(P.coeffs), truncation)

    def contains(self, P: UEAElement, buffer: int) -> bool:
        """Stability-checked membership; raises UnstableSpan on disagreement."""
        degrees = {abs(mono_weight(m)) for m in P.coeffs}
        if len(degrees) != 1:
            raise ValueError("P must be weight-homogeneous and nonzero")
        depth = degrees.pop() + buffer
        first = self.contains_at(P, depth)
        second = self.contains_at(P, depth + 1)
        if first != second:
            raise UnstableSpan(
                "membership verdict changed between depth %d and %d" % (depth, depth + 1)
            )
        return first


def shifted_membership(
    P: UEAElement, n: int, buffer: int, isp: ISParams, hw: HWParams = GENERIC_HW
) -> bool:
    """Brute-force test of P w (x) y^n lying in the next shifted filtration step.

    Exact linear algebra over a truncated spanning set; the verdict must be
    stable when the truncation grows by one, else UnstableSpan is raised.
    The highest weight data defaults to a fixed generic choice (the verdict
    does not depend on it).
    """
    if buffer < 0:
        raise ValueError("buffer must be >= 0")
    for mono in P.coeffs:
        for g in word_of(mono):
            kind, idx = g
            if kind == "z" or idx >= 0:
                raise NotNegativePart("P must be supported on the strictly negative part")
    return MembershipTester(isp, n, hw).contains(P, buffer)
