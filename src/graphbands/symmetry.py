"""The band-symmetry group of a periodic graph, certified by exact integer search.

A symmetry is a unimodular matrix A, a vertex permutation that keeps
potentials, and per-vertex cell shifts that together map the edge multiset
of the quotient onto itself.  Such a symmetry makes H(A^{-T} theta)
unitarily equivalent to H(theta), so band functions are constant on the
orbits of the group on the torus.  Only the matrices act on the torus, so
the group is returned as its matrices: each is certified by a permutation
and shifts that the search finds, or is a product of such matrices.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .errors import NumericError
from .graph import PeriodicGraphSpec, degrees, is_connected_periodic, oriented_edges


Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LatticeSymmetry:
    """The certificate of a band symmetry: the automorphism of the periodic
    cover taking vertex u of cell x to vertex perm[u] of cell matrix x + shifts[u].

    Every edge (u, w, n) maps to an edge (perm[u], perm[w],
    matrix n + shifts[w] - shifts[u]) of the same multiset and perm keeps
    potentials, so H(matrix^{-T} theta) is unitarily equivalent to H(theta).
    """

    matrix: Matrix
    perm: tuple[int, ...]
    shifts: tuple[tuple[int, ...], ...]

    @property
    def is_inversion(self) -> bool:
        """True for an inversion: matrix -I, perm an involution, and
        shifts[perm[u]] == shifts[u].  Such an automorphism applied twice is
        the identity, so with complex conjugation it gives an antiunitary map
        that squares to 1 and makes every fiber real in a suitable basis
        (`floquet`)."""
        return self.matrix == _minus_identity(len(self.matrix)) and all(
            self.perm[p] == u and self.shifts[p] == self.shifts[u] for u, p in enumerate(self.perm)
        )


def _minus_identity(d: int) -> Matrix:
    return tuple(tuple(-int(i == j) for j in range(d)) for i in range(d))


def _matvec(matrix: Matrix, vector) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, vector)) for row in matrix)


def _matmul(left: Matrix, right: Matrix) -> Matrix:
    """left @ right for a unimodular `left` (no zero row): each product row
    adds up the rows of `right` that the nonzero entries of a `left` row
    pick, scaled by the entry, and an entry 1 takes its row as it is, so a
    product of signed permutations only picks and negates rows."""
    product = []
    for row in left:
        total = None
        for c, picked in zip(row, right):
            if c:
                if c != 1:
                    picked = tuple([c * x for x in picked])
                total = picked if total is None else tuple(map(operator.add, total, picked))
        product.append(total)
    return tuple(product)


def _signed_permutation_order(perm: tuple[int, ...], signs: tuple[int, ...]) -> int:
    """The order of the matrix with entry signs[i] at (i, perm[i]): the lcm
    over the cycles of perm of the cycle length, doubled when the signs
    along the cycle multiply to -1."""
    order, seen = 1, set()
    for start in range(len(perm)):
        length, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            length, sign, i = length + 1, sign * signs[i], perm[i]
        if length:
            order = math.lcm(order, length if sign == 1 else 2 * length)
    return order


@functools.cache
def _candidate_matrices(dimension: int) -> tuple[Matrix, ...]:
    """The unimodular matrices tried as band symmetries; they do not depend
    on the graph, so each dimension's table is built once per process.

    In 2-D: the 24 matrices of finite order with entries in {-1, 0, 1},
    which hold the point groups of the square basis and of both hexagonal
    bases (60 and 120 degrees).  Otherwise: the 2^d d! signed
    permutations, highest element order first, so that the first matrices
    found generate much of the group: in 3-D the elements of order 6 come
    first, and a graph with the full group of the cube (fcc, bcc, cubic(3))
    is certified by 3 searches where the table order took 5.
    """
    if dimension == 2:
        # det -1 has finite order iff the trace is 0; det 1 iff |trace| <= 1
        # or the matrix is +-I.
        return tuple(
            ((a, b), (c, d))
            for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)
            if (a * d - b * c == -1 and a + d == 0)
            or (a * d - b * c == 1 and (abs(a + d) <= 1 or (b == c == 0 and a == d)))
        )
    table = [
        (perm, signs)
        for perm in itertools.permutations(range(dimension))
        for signs in itertools.product((1, -1), repeat=dimension)
    ]
    # A stable sort: elements of one order keep the table order.
    table.sort(key=lambda entry: _signed_permutation_order(*entry), reverse=True)
    return tuple(
        tuple(
            tuple(sign if col == p else 0 for col in range(dimension))
            for p, sign in zip(perm, signs)
        )
        for perm, signs in table
    )


class _AutomorphismSearch:
    """Finds, for a given matrix A, a vertex permutation and per-vertex shifts
    that map the edge multiset onto itself, by exact backtracking.

    Vertices are placed in DFS order from one vertex of the rarest
    (potential, degree) class; that root is pinned to shift 0, which loses
    nothing because composing with a lattice translation moves every shift
    by the same vector.  Each later vertex takes its image and shift from
    the image of its DFS tree edge, and every edge to an already placed
    vertex is checked as it is placed.  These placement checks are the
    certificate: each vertex pair that has an edge gets its mapped edge
    multiset compared when its later vertex is placed, and the permutation
    is a bijection, so a complete placement maps the edge multiset onto
    itself.  `find` maps each distinct edge index through the matrix once,
    and the checks read those images.
    """

    def __init__(self, spec: PeriodicGraphSpec):
        nv = spec.num_vertices
        self.zero = (0,) * spec.dimension
        deg = degrees(spec)
        self.vertex_class = [(v.potential, deg[j]) for j, v in enumerate(spec.vertices)]
        self.out: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(nv)]
        # between[v][u]: sorted indices of the oriented edges v -> u
        self.between: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(nv)]
        for e in oriented_edges(spec):
            self.out[e.tail].append((e.head, e.index))
            self.between[e.tail].setdefault(e.head, []).append(e.index)
        for row in self.between:
            for indices in row.values():
                indices.sort()
        self.indices = {n for targets in self.out for _, n in targets}
        sizes = Counter(self.vertex_class)
        root = min(range(nv), key=lambda v: (sizes[self.vertex_class[v]], v))
        self.order = [root]
        self.tree: dict[int, tuple[int, tuple[int, ...]]] = {}
        stack = [(root, iter(self.out[root]))]
        while stack:
            for w, n in stack[-1][1]:
                if w not in self.tree and w != root:
                    self.tree[w] = (stack[-1][0], n)
                    self.order.append(w)
                    stack.append((w, iter(self.out[w])))
                    break
            else:
                stack.pop()

    def _options(self, depth, image, perm, shifts, used):
        v = self.order[depth]
        if depth == 0:
            same = [w for w in range(len(perm)) if self.vertex_class[w] == self.vertex_class[v]]
            return iter([(w, self.zero) for w in same])
        parent, n = self.tree[v]
        image_n = image[n]
        options = {}
        for w, m in self.out[perm[parent]]:
            if not used[w] and self.vertex_class[w] == self.vertex_class[v]:
                shift = tuple(a - b + c for a, b, c in zip(m, image_n, shifts[parent]))
                options.setdefault((w, shift), None)
        return iter(options)

    def _consistent(self, v, image, perm, shifts) -> bool:
        w, tv = perm[v], shifts[v]
        target = self.between[w]
        for u, indices in self.between[v].items():
            if perm[u] < 0:
                continue
            delta = tuple(map(operator.sub, shifts[u], tv))
            mapped = sorted(tuple(map(operator.add, image[n], delta)) for n in indices)
            if mapped != target.get(perm[u]):
                return False
        return True

    def find(self, matrix: Matrix) -> LatticeSymmetry | None:
        """A symmetry with this matrix, or None when there is none: the
        first complete placement, which the placement checks certify."""
        # Each distinct edge index is mapped through the matrix once.
        image = {n: _matvec(matrix, n) for n in self.indices}
        nv = len(self.order)
        perm, shifts, used = [-1] * nv, [None] * nv, [False] * nv
        stack = [self._options(0, image, perm, shifts, used)]
        while stack:
            depth = len(stack) - 1
            v = self.order[depth]
            if perm[v] >= 0:  # back from a dead end below: undo this placement
                used[perm[v]] = False
                perm[v], shifts[v] = -1, None
            for w, shift in stack[-1]:
                if used[w]:
                    continue
                perm[v], shifts[v], used[w] = w, shift, True
                if self._consistent(v, image, perm, shifts):
                    break
                used[w] = False
                perm[v], shifts[v] = -1, None
            else:
                stack.pop()
                continue
            if depth + 1 == nv:
                return LatticeSymmetry(matrix, tuple(perm), tuple(shifts))
            stack.append(self._options(depth + 1, image, perm, shifts, used))
        return None


def band_symmetries(spec: PeriodicGraphSpec) -> tuple[tuple[Matrix, ...], LatticeSymmetry | None]:
    """(group, inversion): the matrices of `band_symmetry_group(spec)`, and
    the certificate of -I that its search finds, if that certificate is an
    inversion (`LatticeSymmetry.is_inversion`); else None.

    The search tries -I before the candidate table, so one search gives the
    group and the certificate; the group is the same set of matrices, listed
    in the order that search found them.  A found perm that is not an
    involution, or shifts that differ on a swapped pair, give None, although
    another certificate of -I might be an inversion.
    """
    group, certificate = _symmetry_group(spec, inversion=True)
    return group, certificate if certificate is not None and certificate.is_inversion else None


def band_symmetry_group(spec: PeriodicGraphSpec) -> tuple[Matrix, ...]:
    """The matrices of the certified band-symmetry group, identity first.

    Each candidate matrix of `_candidate_matrices` is searched for a vertex
    permutation and shifts (`_AutomorphismSearch`); the group is closed
    under matrix products as matrices are found (composed certificates
    certify a product), so it may hold matrices outside the candidate table.
    A candidate already in the group is not searched, nor one in a coset
    A.H of a candidate A that failed against the group H of that moment (if
    A.h were a symmetry, so would A be).  So the set of matrices does not
    depend on the order in which the candidates are tried, only the number
    of searches does: the 3-D table tries elements of order 6 first, and
    the cube's 48 elements need 3 searches.  Each search maps every
    distinct edge index through its matrix once.  Exact integer work: the
    result depends on nothing but the graph.  A graph whose cover is not
    connected gets the identity alone: its group can be infinite.
    """
    return _symmetry_group(spec, inversion=False)[0]


def _symmetry_group(
    spec: PeriodicGraphSpec, inversion: bool
) -> tuple[tuple[Matrix, ...], LatticeSymmetry | None]:
    """`band_symmetry_group(spec)` and the certificate its search found for
    -I, None when it searched none.  With `inversion` it tries -I first, so
    that the certificate is found unless -I is no symmetry; else -I is
    searched only where the table holds it, when no product gave it before
    (in 3-D the cube of an element of order 6 does)."""
    d = spec.dimension
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    if not is_connected_periodic(spec):
        return (identity,), None
    group = {identity: None}  # insertion-ordered set
    search = _AutomorphismSearch(spec)
    generators: list[Matrix] = []
    failed: set[Matrix] = set()
    minus = _minus_identity(d)
    certified = None
    for matrix in ((minus,) if inversion else ()) + _candidate_matrices(d):
        if matrix in group or matrix in failed:
            continue
        certificate = search.find(matrix)
        if certificate is None:
            failed.update(_matmul(matrix, h) for h in group)
            continue
        if matrix == minus:
            certified = certificate
        generators.append(matrix)
        # Dimino's closure: the group grows by whole cosets H.r of the old
        # group H until every coset representative times every generator
        # lands in a known coset.
        old = list(group)
        pending = [matrix]
        while pending:
            r = pending.pop()
            if r in group:
                continue
            group.update(dict.fromkeys(_matmul(r, h) for h in old))
            _check_group_size(d, len(group))
            pending.extend(p for p in (_matmul(g, r) for g in generators) if p not in group)
    return tuple(group), certified


def _check_group_size(d: int, size: int) -> None:
    """Raise NumericError for a closure larger than any group of candidates:
    a finite subgroup of GL(2, Z) has at most 12 elements, and products of
    signed permutations are signed permutations, 2^d d! of them.  Only a
    falsely certified matrix can make the closure grow past that."""
    limit = 12 if d == 2 else 2**d * math.factorial(d)
    if size > limit:
        raise NumericError(
            f"band-symmetry group of a {d}-D graph reached {size} matrices, "
            f"more than the {limit} such a group can have"
        )
