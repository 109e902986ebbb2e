"""Exact rational linear algebra and the bounded search routines.

Every elimination runs through one engine, Echelon: a sparse, fraction-free
(integer-preserving, after Bareiss, Math. Comp. 22, 1968), incremental
echelon form over a column order fixed when it is built.  nullspace runs it
over the columns of a sparse MatrixQ and back-substitutes in integers; every
kernel vector is re-checked against the matrix exactly.
Dense rational Gauss survives only as the test oracle.  On top sit the
singular-vector search, the maximal-submodule generator discovery, the
Whittaker-vector linear system and the brute-force shifted-membership oracle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .algebra import Q, I, Record, d, lincomb, to_ints
from .errors import NotNegativePart, PreconditionZ3, UnstableSpan
from .modules import (
    HWParams,
    ISParams,
    ModuleVector,
    ShiftedTensorModule,
    VermaModule,
    WhittakerCharacter,
    WhittakerModule,
)
from .pbw import (
    UEAElement,
    UNIT,
    in_negative_part,
    mono_sort_key,
    mono_weight,
    negative_part_basis,
)


class Echelon:
    """Sparse fraction-free incremental echelon form.

    position maps a column to a sortable value that fixes the elimination
    order; it is computed once per column, and Echelon.over(columns) orders
    a known column list as listed.  A stored row is an integer map position
    -> int with its gcd content divided out and a positive pivot at its
    first position, and it holds no pivot column of an earlier row.  So
    eliminating pivot columns in increasing position only ever brings in
    later positions, and one pass over a heap of them reduces a vector.
    pivots lists the pivot columns in insertion order; the first k of them
    span what the rows inserted up to the k-th pivot span.
    """

    def __init__(self, position):
        self.position = position
        self.index = {}  # column -> position
        self.column = {}  # position -> column
        self.rows = {}  # pivot position -> integer row
        self.pivot_positions = []  # in insertion order

    @classmethod
    def over(cls, columns) -> "Echelon":
        return cls({k: i for i, k in enumerate(columns)}.__getitem__)

    @property
    def rank(self) -> int:
        return len(self.pivot_positions)

    @property
    def pivots(self):
        return [self.column[p] for p in self.pivot_positions]

    def _integral(self, vec) -> dict:
        """vec (column -> rational) scaled to a primitive integer row over positions."""
        index = self.index
        row = {}
        for k, v in to_ints(vec)[1].items():
            p = index.get(k)
            if p is None:
                p = index[k] = self.position(k)
                self.column[p] = k
            row[p] = v
        return _primitive(row)

    def _keyed(self, row) -> dict:
        column = self.column
        return {column[p]: c for p, c in row.items()}

    def reduce(self, vec, limit=None) -> dict:
        """Residue of vec modulo the first limit pivot rows (all by default).

        The residue is an integer map column -> int, a nonzero multiple of
        the rational residue; it is empty exactly when vec lies in the span.
        """
        use = self.rows
        if limit is not None and limit < self.rank:
            use = {p: use[p] for p in self.pivot_positions[:limit]}
        return self._keyed(_eliminate(self._integral(vec), use))

    def insert(self, vec) -> dict:
        """Reduce vec and keep a nonzero residue as a new pivot row; returns the residue."""
        row = _eliminate(self._integral(vec), self.rows)
        if row:
            p = min(row)
            if row[p] < 0:
                row = {q: -c for q, c in row.items()}
            self.rows[p] = row
            self.pivot_positions.append(p)
        return self._keyed(row)


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {p: c // g for p, c in row.items()}
    return row


def _eliminate(row: dict, use: dict) -> dict:
    """Clear from an integer row every pivot column of the rows in use."""
    heap = [p for p in row if p in use]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = row.get(p)
        if c is None:
            continue
        prow = use[p]
        a = prow[p]
        g = gcd(a, c)
        a //= g
        c //= g
        if a != 1:
            for q in row:
                row[q] *= a
        for q, v in prow.items():
            w = row.get(q)
            if w is None:
                row[q] = -c * v
                if q in use:
                    heappush(heap, q)
            else:
                w -= c * v
                if w:
                    row[q] = w
                else:
                    del row[q]
    return _primitive(row)


class MatrixQ:
    """Sparse rational matrix: row i maps a column in range(ncols) to its nonzero entry."""

    def __init__(self, rows, ncols: int):
        self.rows = list(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols


def nullspace(M: MatrixQ) -> list:
    """Canonical kernel basis as maps column -> nonzero value: one vector per
    free column, in increasing order, with a unit at that column, which is
    the map's first key.

    Rows are inserted fewest nonzeros first, ties in input order: the result
    does not depend on the order, and short rows first keep fill-in and the
    size of the integers down.  The pivot rows are back-substituted in
    integers from the last pivot up, and every returned vector is re-checked
    against M exactly.
    """
    span = Echelon.over(range(M.ncols))
    for row in sorted(M.rows, key=len):
        span.insert(row)
    reduced = {}
    for p in sorted(span.rows, reverse=True):
        reduced[p] = _eliminate(span.rows[p], reduced)
    kernel = {fc: {fc: Q(1)} for fc in range(M.ncols) if fc not in reduced}
    for pc, row in reduced.items():
        for fc, v in row.items():
            if fc != pc:
                kernel[fc][pc] = Q(-v, row[pc])
    for vec in kernel.values():
        if any(sum(c * vec[j] for j, c in row.items() if j in vec) for row in M.rows):
            raise AssertionError("kernel vector fails M v = 0")
    return list(kernel.values())


class SearchResult(Record):
    """Vectors found by a search; the Whittaker search also reports the size
    of its linear system."""

    __slots__ = ("vectors", "num_variables", "rank")
    __hash__, __setattr__, __delattr__ = None, object.__setattr__, object.__delattr__  # mutable

    def __init__(self, vectors, num_variables=None, rank=None):
        self.vectors = vectors
        self.num_variables = num_variables
        self.rank = rank


def weight_basis(degree: int):
    """Monomial keys of the Verma weight space at the given depth (0 = cyclic vector)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return [UNIT]
    return negative_part_basis(degree)


# these generate the positive part, since [d(1), d(k)] = (k-1) d(k+1) and
# [d(1), I(k)] = k I(k+1); the tests verify it on a window
POSITIVE_GENERATORS = (d(1), d(2), I(1))


def _verified_kernel(module, keys, conditions) -> list:
    """Vectors over keys on which each generator of conditions acts by its value.

    conditions lists (generator, value) pairs; the vectors are the kernel of
    the stacked maps act_gen(generator) - value over keys, and each one is
    re-verified by direct action before it is returned.  The matrix is built
    in integers: column j holds the images of keys[j] scaled by scales[j],
    the lcm of their denominators, so its kernel vectors are those sought
    with entry j divided by scales[j], rescaled to a unit at the free column.
    """
    rows = {}
    scales = []
    for j, key in enumerate(keys):
        unit = (1, {key: 1})
        column = [
            lincomb([(value.denominator, module.act_gen(gen, key)), (-value.numerator, unit)], value.denominator)
            for gen, value in conditions
        ]
        scales.append(lcm(*[den for den, _ in column]))
        for ci, (den, nums) in enumerate(column):
            for target, c in nums.items():
                rows.setdefault((ci, target), {})[j] = c * (scales[j] // den)
    vectors = []
    for vec in nullspace(MatrixQ(rows.values(), len(keys))):
        free = scales[next(iter(vec))]
        mv = ModuleVector(module, {keys[j]: c * scales[j] / free for j, c in vec.items()})
        for gen, value in conditions:
            if module.act_power(gen, 1, mv.image) != lincomb([(value.numerator, mv.image)], value.denominator):
                raise AssertionError("kernel vector fails the defining conditions")
        vectors.append(mv)
    return vectors


# the positive part annihilates a singular vector
_ANNIHILATED = [(g, Q(0)) for g in POSITIVE_GENERATORS]


def singular_vectors(hw: HWParams, degree: int) -> SearchResult:
    """Weight vectors at the given depth annihilated by the whole positive part.

    The imposed conditions are the actions of d(1), d(2), I(1), which generate
    the positive part; every returned vector is re-verified by direct action.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return SearchResult(_verified_kernel(VermaModule(hw), weight_basis(degree), _ANNIHILATED))


def _uea_of_vector(mv: ModuleVector) -> UEAElement:
    """Read a Verma vector as the enveloping element applied to the cyclic
    vector, scaled to a unit coefficient at its top monomial."""
    nums = mv.image[1]
    top = nums[max(nums, key=mono_sort_key)]
    # the den of the image cancels; the sign of top moves into the numerators
    return UEAElement._trusted(lincomb([(1 if top > 0 else -1, (1, nums))], abs(top)))


def maximal_submodule_gens(hw: HWParams, max_degree: int):
    """Singular generators of the maximal submodule found up to max_degree.

    Candidates at each depth are reduced modulo the submodule generated by
    earlier generators (exact spans inside the weight space).  The returned
    status is "complete" only when theory pins the generator count inside the
    window: either two generators were reached (never more exist when the
    central character is not identically degenerate), or one of the closed
    criteria for z3 = 0 applies.  Otherwise the status is "truncated": the
    bounded search cannot exclude generators beyond the window.  At the
    identically degenerate character (i0 = z2 = z3 = 0) it means more: the
    maximal submodule there needs subsingular generators, which this search
    for singular vectors cannot find at any depth.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    module = VermaModule(hw)
    gens = []  # (UEAElement, degree, the vector as an image)
    for degree in range(1, max_degree + 1):
        keys = weight_basis(degree)
        found = _verified_kernel(module, keys, _ANNIHILATED)
        if not found:
            continue
        span = Echelon.over(keys)
        for _, p, vec in gens:
            for mono in negative_part_basis(degree - p):
                # the span is that of the numerators: one image shares one denominator
                span.insert(module.apply(mono, vec)[1])
        for mv in found:
            if span.insert(mv.image[1]):
                gens.append((_uea_of_vector(mv), degree, mv.image))
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
    ansatz = [((d(i), 1),) for i in range(0, m)]
    ansatz += [((I(-i), 1),) for i in range(1, m + 2)]
    ansatz.append(((I(-1), 2),))
    gens = [d(m + i) for i in range(0, m + 1)] + [I(1 + i) for i in range(0, m + 1)]
    vectors = _verified_kernel(WhittakerModule(char), ansatz, [(g, char.value(g)) for g in gens])
    return SearchResult(vectors, num_variables=len(ansatz), rank=len(ansatz) - len(vectors))


GENERIC_HW = HWParams(i0=Q(2, 3), d0=Q(5, 7), z1=Q(1), z2=Q(1, 3), z3=Q(2))


def _deepest_first(mono):
    # a depth-i spanning vector is its own monomial plus shallower terms, so
    # with the deepest column first it reduces against short pivot rows
    return mono_weight(mono), mono_sort_key(mono)


class MembershipTester:
    """Incremental span oracle for the shifted filtration at a fixed y-exponent.

    The relevant slice is spanned by depth-i monomials acting on the basis
    vector at y-exponent n + i (i >= 1); blocks are inserted into one Echelon
    a depth at a time, so the span at truncation depth t is that of its first
    block_rank[t] pivots, and verdicts at different depths reuse one
    elimination.
    """

    def __init__(self, isp: ISParams, n: int, hw: HWParams = GENERIC_HW):
        self.module = ShiftedTensorModule(hw, isp)
        self.n = n
        self.span = Echelon(_deepest_first)
        self.block_rank = [0]  # rank of the span after each depth

    def _extend(self, depth: int):
        while len(self.block_rank) <= depth:
            i = len(self.block_rank)
            start = (1, {(UNIT, self.n + i): 1})
            for mono in negative_part_basis(i):
                # the numerators span what the image does, so Echelon takes them as they are
                _, img = self.module.apply(mono, start)
                # weight -i against y-exponent n+i lands back in the n-slice
                flat = {}
                for (m2, y), c in img.items():
                    if y != self.n:
                        raise AssertionError("spanning vector escaped the slice")
                    flat[m2] = c
                self.span.insert(flat)
            self.block_rank.append(self.span.rank)

    def contains_at(self, P: UEAElement, truncation: int) -> bool:
        """Membership at a fixed truncation depth (no stability check)."""
        self._extend(truncation)
        return not self.span.reduce(P.image[1], self.block_rank[truncation])

    def contains(self, P: UEAElement, buffer: int) -> bool:
        """Stability-checked membership; raises UnstableSpan on disagreement."""
        degrees = {abs(mono_weight(m)) for m in P.image[1]}
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
    if not all(in_negative_part(g) for mono in P.image[1] for g, _ in mono):
        raise NotNegativePart("P must be supported on the strictly negative part")
    return MembershipTester(isp, n, hw).contains(P, buffer)
