"""Random connected quotient graphs for the property tests.

`quotients(family)` is the Hypothesis strategy and `decorated_loop_graphs`
its seeded numpy companion for tests that run without Hypothesis.
"""

import numpy as np
from hypothesis import strategies as st

from graphbands import EdgeRecord, PeriodicGraphSpec, VertexInfo, with_potentials
from graphbands.lattices import FiniteGraph, cubic, decorate, star, triangular
from graphbands.symmetry import _candidate_matrices

FAMILIES = ("general", "loop", "flip")


@st.composite
def quotients(draw, family="general", d=None, nv=None):
    """A quotient with a connected cover: d <= 3 and nu <= 5 unless given.

    A spanning tree and one loop per axis keep the cover connected, and extra
    edges follow.  The family sets the rest:

    - "general": potentials 0 or 1, index entries in [-1, 1], every tree edge
      and each of up to four extra edges (u, v, n) has a random index, and
      half of the draws close the edge multiset under the powers of a random
      candidate matrix, so that groups beyond {+-I} occur;
    - "loop": potentials in [-3, 3], index entries in [-3, 3], the tree edges
      have index 0, and up to three extra edges (u, v, 0) and, drawn on their
      own, up to four extra loops (u, u, n) follow, so only loops cross
      cells: a loop graph;
    - "flip": a loop family graph with a flip corner pi x, with up to two
      extra edges and three extra loops.  A nonzero x in {0, 1}^d is drawn,
      and a loop index n with <n, x> even, 0 included, is moved by e_t, t
      the first axis with x_t = 1, so pi x flips every loop; the axis loops
      e_s or e_s + e_t still generate Z^d.
    """
    general = family == "general"
    d = draw(st.integers(1, 3)) if d is None else d
    nv = draw(st.integers(1, 5)) if nv is None else nv
    law = st.sampled_from((0.0, 1.0)) if general else st.floats(-3.0, 3.0)
    potentials = draw(st.lists(law, min_size=nv, max_size=nv))
    bound = 1 if general else 3
    index = st.tuples(*[st.integers(-bound, bound)] * d)
    vertex = st.integers(0, nv - 1)
    zero = (0,) * d
    mask = draw(st.integers(1, 2**d - 1)) if family == "flip" else 0
    x = [(mask >> s) & 1 for s in range(d)]

    def loop_index(n):
        if not mask or sum(a * b for a, b in zip(n, x)) % 2:
            return n
        t = x.index(1)
        return tuple(a + int(s == t) for s, a in enumerate(n))

    edges = [
        (draw(st.integers(0, j - 1)), j, draw(index) if general else zero) for j in range(1, nv)
    ]
    for s in range(d):
        u = draw(vertex)
        edges.append((u, u, loop_index(tuple(int(r == s) for r in range(d)))))
    if general:
        edges += draw(st.lists(st.tuples(vertex, vertex, index), max_size=4))
    else:
        zeros, loops = (2, 3) if mask else (3, 4)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=zeros))
        crossing = draw(st.lists(st.tuples(vertex, index), max_size=loops))
        edges += [(u, v, zero) for u, v in pairs] + [(u, u, loop_index(n)) for u, n in crossing]
    if general and draw(st.booleans()):
        a = np.asarray(draw(st.sampled_from(_candidate_matrices(d))))
        powers = [np.eye(d, dtype=int)]
        while not np.array_equal(powers[-1] @ a, powers[0]):
            powers.append(powers[-1] @ a)
        edges = [(u, v, p @ n) for u, v, n in edges for p in powers]
    return PeriodicGraphSpec(
        d,
        tuple(VertexInfo(f"v{j}", q) for j, q in enumerate(potentials)),
        tuple(EdgeRecord(u, v, n) for u, v, n in edges),
    )


def decorated_loop_graphs(seed, count):
    """`count` loop graphs: cubic(2), triangular() or star(2, 2) with a random
    tree of 2-4 vertices glued on one cell vertex, and potentials uniform in
    [-3, 3], drawn from numpy's default generator with this seed."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        base = (cubic(2), triangular(), star(2, 2))[int(rng.integers(3))]
        size = int(rng.integers(2, 5))
        tree = FiniteGraph(size, tuple((int(rng.integers(0, i)), i) for i in range(1, size)))
        spec = decorate(base, tree, int(rng.integers(base.num_vertices)))
        specs.append(with_potentials(spec, rng.uniform(-3.0, 3.0, size=spec.num_vertices)))
    return specs


def reverse_edges(spec):
    """The same periodic graph with every edge (t, h, n) written (h, t, -n)."""
    edges = tuple(EdgeRecord(e.head, e.tail, tuple(-x for x in e.index)) for e in spec.edges)
    return PeriodicGraphSpec(spec.dimension, spec.vertices, edges)
