"""Real symmetric fibers in the basis of an inversion.

An inversion is a band symmetry with matrix -I
(`symmetry.LatticeSymmetry.is_inversion`): an involution p of the vertices
with cell shifts s, s[p[u]] = s[u], that maps every edge (u, w, n) to an
edge (p[u], p[w], -n + s[w] - s[u]) and keeps potentials.  Composed with
complex conjugation it is an antiunitary map that commutes with every
H(theta) and squares to 1, so H(theta) is real in the basis
W(theta) = E(theta) W0: the gauge E = diag(exp(-i <s_u, theta>/2)) and W0,
which takes e_u for a vertex that p fixes and, for a swapped pair
u < p[u], (e_u + e_p[u])/sqrt(2) at position u and i(e_u - e_p[u])/sqrt(2)
at position p[u].  In that basis an edge (u, w, n) adds constant multiples
of the cosine or the sine of <n + (s_u - s_w)/2, theta> to at most four
entries, and degrees and potentials stay on the diagonal (p keeps both), so
every kind derives from the real phase sum as from the complex one.

`floquet.fiber_stack` imports this module on first use of an inversion,
which only a band-symmetry search finds, so start-up does not compile it.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import ParameterError
from .floquet import _PhaseTable
from .graph import PeriodicGraphSpec, degrees, oriented_edges

# The scale of a W0 coefficient product by the number of swapped endpoints:
# 1, 1/sqrt(2), and exactly 1/2, which sqrt(0.5) squared is not.
_PAIR_SCALES = (1.0, math.sqrt(0.5), 0.5)


def _real_table(spec: PeriodicGraphSpec, perm, shifts) -> _PhaseTable:
    """The real phase sum in the basis W = E W0 of the inversion (perm, shifts).

    Edge (u, w, n) adds M = C_u^* exp(i phi) C_w + C_w^* exp(-i phi) C_u,
    phi = <n + (s_u - s_w)/2, theta>, C_v the row of W0 coefficients of
    vertex v; the real part of M is its share of the sum in this basis.
    The coefficients are 1, i and -i times a scale, so each entry of Re M
    is a constant times cos phi or sin phi.  An off-diagonal entry is added
    at (a, b) and (b, a); a diagonal one as the real part of one
    orientation, twice, as the vertex-basis sum adds a loop's cosine.
    """
    units = []
    for u, p in enumerate(perm):
        low, high = min(u, p), max(u, p)
        units.append({u: 1} if p == u else {low: 1, high: 1j if u == low else -1j})
    terms = []  # (a, b, sine, angle vector or None for a constant, coefficient)
    for e in spec.edges:
        cu, cw = units[e.tail], units[e.head]
        scale = _PAIR_SCALES[(len(cu) == 2) + (len(cw) == 2)]
        m = tuple(n + (a - b) / 2 for n, a, b in zip(e.index, shifts[e.tail], shifts[e.head]))
        for a, b in sorted({(min(a, b), max(a, b)) for a in cu for b in cw}):
            alpha = cu.get(a, 0).conjugate() * cw.get(b, 0)
            if a == b:  # half of Re(alpha e^{i phi} + conj(alpha e^{i phi}))
                parts = ((False, alpha.real), (True, -alpha.imag))
            else:  # Re(alpha e^{i phi} + beta e^{-i phi})
                beta = cw.get(a, 0).conjugate() * cu.get(b, 0)
                parts = ((False, alpha.real + beta.real), (True, beta.imag - alpha.imag))
            for sine, k in parts:
                if k and (any(m) or not sine):  # at phi = 0 the cosine is 1, the sine 0
                    terms.append((a, b, sine, m if any(m) else None, k * scale))
    # The angle rows, those that need sines first.
    sines = dict.fromkeys(m for _, _, sine, m, _ in terms if sine)
    order = {**sines, **dict.fromkeys(m for *_, m, _ in terms if m is not None)}
    rows = {m: r for r, m in enumerate(order)}
    constants = {k: j for j, k in enumerate(dict.fromkeys(k for *_, m, k in terms if m is None))}
    waves = {}
    adds = []
    for a, b, sine, m, k in terms:
        if m is None:
            value = constants[k]
        else:
            value = len(constants) + waves.setdefault((sine, rows[m], k), len(waves))
        adds += [(a, a, value)] * 2 if a == b else [(a, b, value), (b, a, value)]
    index = np.array(list(rows), dtype=float).reshape(-1, spec.dimension)
    # p keeps degrees; the potentials serve a Schroedinger fiber only if it
    # keeps them too.
    q = spec.potentials()
    potentials = np.asarray(q) if all(q[u] == q[p] for u, p in enumerate(perm)) else None
    return _PhaseTable(
        float, spec.num_vertices, index, len(sines), tuple(waves), tuple(constants), adds,
        np.asarray(degrees(spec), dtype=float), potentials,
    )


def inversion_table(spec: PeriodicGraphSpec, inversion) -> _PhaseTable:
    """The real table of `inversion`, after checking that it is an
    inversion of this spec's edges: a certificate of another graph, or of
    another matrix, would drop the imaginary part of a phase silently."""
    nv, d = spec.num_vertices, spec.dimension
    perm, shifts = inversion.perm, inversion.shifts
    if len(perm) != nv or any(len(s) != d for s in shifts) or not inversion.is_inversion:
        raise ParameterError("the certificate is not an inversion of this graph")

    def image(e):
        moved = tuple(b - a - n for n, a, b in zip(e.index, shifts[e.tail], shifts[e.head]))
        return perm[e.tail], perm[e.head], moved

    edges = oriented_edges(spec)
    if Counter(map(image, edges)) != Counter((e.tail, e.head, e.index) for e in edges):
        raise ParameterError("the certificate does not map the graph's edges onto themselves")
    return _real_table(spec, perm, shifts)
