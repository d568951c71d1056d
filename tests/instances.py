"""Hand-built arrangements shared by the tests."""

import numpy as np

from sgcert.arrangement import (
    Arrangement,
    Subspace,
    _random_orthogonal,
    _stacked_set_ranks,
    pairwise_zero_intersection,
    planted_triples,
)
from sgcert.dependency import TripleSystem, build_triple_family
from sgcert.errors import PreconditionError, SgcertError
from sgcert.linalg import DEFAULT_TOL, orthonormalize


def plane_line(ambient, axis_a, axis_b, angle):
    v = np.zeros(ambient)
    v[axis_a] = np.cos(angle)
    v[axis_b] = np.sin(angle)
    # constructed directly: entries like cos(pi/3) must not be renormalized
    v /= np.linalg.norm(v)
    return Subspace(ambient, v.reshape(1, -1))


def mercedes_lines(ambient, axis_a, axis_b):
    """Three coplanar lines with pairwise inner products exactly 0.5.

    The boundary configuration: the only way a dependent triple of lines
    can be 0.5-separated.  Entries are chosen so the computed dot products
    land at or below 0.5 in double precision.
    """
    s = np.sqrt(3.0) / 2.0
    rows = [np.array([1.0, 0.0]), np.array([-0.5, s]), np.array([-0.5, -s])]
    out = []
    for r in rows:
        v = np.zeros(ambient)
        v[axis_a], v[axis_b] = r
        out.append(Subspace(ambient, v.reshape(1, -1)))
    return out


def duplicate_line_instance(n_dup=60, groups=4, seed=0):
    """One line duplicated n_dup times plus dependent triples in far planes.

    The duplicates are almost never picked by the greedy sampler (exactly
    one per run), so their pick probability 1/n_dup sits confidently below
    the harvest threshold: the decomposition finds the collapse witness by
    sampling.  The system pairs every two duplicates in a 2-set and adds
    the triple family of each plane.
    """
    rng = np.random.default_rng(seed)
    ambient = 1 + 2 * groups
    line = np.zeros(ambient)
    line[0] = 1.0
    spaces = [Subspace(ambient, line.reshape(1, -1)) for _ in range(n_dup)]
    sets = [(i, j) for i in range(n_dup) for j in range(i + 1, n_dup)]
    for g in range(groups):
        base = len(spaces)
        angles = np.sort(rng.uniform(0.2, np.pi - 0.2, size=3))
        for t in angles:
            spaces.append(plane_line(ambient, 1 + 2 * g, 2 + 2 * g, t))
        for tri in build_triple_family(3):
            sets.append(tuple(base + e for e in tri))
    arr = Arrangement(ambient, spaces)
    n = arr.n
    sys = TripleSystem(n, sets, alpha=6, delta=0.0)
    sys.delta = min(sys.degrees()) / n
    return arr, sys


def far_clusters_instance(cluster=60, groups=10, seed=0):
    """Distinct lines crowding one 2-dimensional space, far from small groups.

    Only two of the crowd's lines ever enter an admissible set, so each
    crowd line's pick probability 2/cluster falls below the harvest
    threshold while the orthogonal groups keep the ambient dimension high.
    """
    rng = np.random.default_rng(seed)
    ambient = 2 + 2 * groups
    angles = np.sort(rng.uniform(0.0, np.pi - 0.05, size=cluster))
    spaces = [plane_line(ambient, 0, 1, t) for t in angles]
    sets = [tuple(t) for t in build_triple_family(cluster)]
    for g in range(groups):
        base = len(spaces)
        for t in np.sort(rng.uniform(0.2, np.pi - 0.2, size=3)):
            spaces.append(plane_line(ambient, 2 + 2 * g, 3 + 2 * g, t))
        for tri in build_triple_family(3):
            sets.append(tuple(base + e for e in tri))
    arr = Arrangement(ambient, spaces)
    sys = TripleSystem(arr.n, sets, alpha=6, delta=0.0)
    sys.delta = min(sys.degrees()) / arr.n
    return arr, sys


def boundary_cluster_instance():
    """Two exactly-boundary separated planes plus two badly clustered planes.

    Under the identity scaling the triple families of the first two planes
    survive the 0.5-separation filter while the clustered planes' sets all
    contain a pair at angle well under 60 degrees; pruning then leaves a
    sublist spanning 4 of the 12 dimensions.
    """
    ambient = 12
    spaces = []
    sets = []
    for a, b in [(0, 1), (2, 3)]:
        base = len(spaces)
        spaces.extend(mercedes_lines(ambient, a, b))
        for tri in build_triple_family(3):
            sets.append(tuple(base + e for e in tri))
    for a, b in [(4, 5), (6, 7)]:
        base = len(spaces)
        for t in (0.05, 0.25, 0.45, 0.65):
            spaces.append(plane_line(ambient, a, b, t))
        for tri in build_triple_family(4):
            sets.append(tuple(base + e for e in tri))
    # two lonely generic planes keep the ambient dimension above the
    # witness budget without joining any dependency
    for a, b in [(8, 9), (10, 11)]:
        spaces.append(plane_line(ambient, a, b, 0.3))
        spaces.append(plane_line(ambient, a, b, 1.3))
    arr = Arrangement(ambient, spaces)
    sys = TripleSystem(arr.n, sets, alpha=6, delta=0.0)
    sys.delta = min(d for d in sys.degrees() if d > 0) / arr.n
    return arr, sys


def plane_and_lines():
    """A plane, a line inside it, and two lines spanning a plane through that line.

    {plane, outside line} spans R^3; {inside line, outside line} is maximal
    and spans only a plane, so some maximal admissible sets span and some
    do not.
    """
    inside, outside = np.array([1.0, 0.5, 0.0]), np.array([0.2, 0.1, 1.0])
    return Arrangement(3, [Subspace(3, np.eye(3)[[0, 1]])] + [
        Subspace.from_spanning(v, 3) for v in (inside, outside, inside + 0.7 * outside)])


def hesse_configuration():
    """The 9 inflection points of a plane cubic as complex lines of C^3:
    (0, 1, -w^a), (1, 0, -w^a) and (1, -w^a, 0), a = 0, 1, 2, w = e^(2 pi i/3),
    each normalised.  Each pair lies on one of 12 lines with a third point
    (the extremal example of Kelly's theorem); it spans C^3."""
    w = np.exp(2j * np.pi / 3)
    points = ([(0, 1, -w**a) for a in range(3)] + [(1, 0, -w**a) for a in range(3)]
              + [(1, -w**a, 0) for a in range(3)])
    return [np.array([p]) / np.linalg.norm(p) for p in points]


def write_complex_arrangement(path, ambient, bases):
    """Write complex (k, ambient) bases as a ``field complex`` arrangement
    file, each entry an ``re,im`` token of two %.17g parts."""
    lines = ["arrangement v1", "field complex", f"ambient {ambient}", f"n {len(bases)}"]
    for idx, basis in enumerate(bases):
        lines.append(f"space {idx} dim {len(basis)}")
        lines.extend(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row)
                     for row in np.asarray(basis, dtype=complex).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sequential reference generators: one candidate drawn, orthonormalized and
# pair-checked at a time; the batched generators of sgcert.arrangement must
# write the same files


def _draw_inside(frame, k, rng, tol):
    ambient = frame.shape[1]
    for _ in range(100):
        rows = rng.standard_normal((k, frame.shape[0])) @ frame
        q = orthonormalize(rows, tol)
        if q.shape[0] == k:
            return Subspace(ambient, q)
    raise SgcertError("failed to draw a full-dimensional subspace")


def sequential_grouped(k, delta, n, ambient=None, seed=0, tol=DEFAULT_TOL):
    """The reference of :func:`sgcert.arrangement.generate_grouped`."""
    if k < 1 or n < 1 or not 0 < delta < np.inf:
        raise PreconditionError("grouped generator needs k >= 1, n >= 1, delta > 0")
    groups = int(np.ceil(1.0 / delta - 1e-12))
    if ambient is None:
        ambient = 2 * k * groups
    if ambient < 2 * k * groups:
        raise PreconditionError(
            f"ambient {ambient} cannot hold {groups} orthogonal blocks of dimension {2 * k}"
        )
    rng = np.random.default_rng(seed)
    basis = _random_orthogonal(ambient, rng)
    sizes = [n // groups + (1 if g < n % groups else 0) for g in range(groups)]
    spaces = []
    for g, size in enumerate(sizes):
        frame = basis[2 * k * g : 2 * k * (g + 1)]
        block = []
        for _ in range(size):
            for _ in range(100):
                cand = _draw_inside(frame, k, rng, tol)
                pairs = np.column_stack([np.full(len(block), len(block)),
                                         np.arange(len(block))])
                if (_stacked_set_ranks(Arrangement(ambient, block + [cand]), pairs, tol)
                        == 2 * k).all():
                    block.append(cand)
                    break
            else:
                raise SgcertError("could not place a block member in generic position")
        spaces.extend(block)
    return Arrangement(ambient, spaces)


def sequential_random_planted(n, k, ambient, triple_count, seed=0, tol=DEFAULT_TOL):
    """The reference of :func:`sgcert.arrangement.generate_random_planted`."""
    if 2 * k > ambient:
        raise PreconditionError(f"need ambient >= 2k = {2 * k} for zero pairwise intersections")
    plan = planted_triples(n, triple_count)
    rng = np.random.default_rng(seed)
    eye = np.eye(ambient)
    for _ in range(100):
        spaces = [_draw_inside(eye, k, rng, tol) for _ in range(n)]
        for a, b, c in plan:
            pair_frame = orthonormalize(np.vstack([spaces[a].basis, spaces[b].basis]), tol)
            spaces[c] = _draw_inside(pair_frame, k, rng, tol)
        arr = Arrangement(ambient, spaces)
        if not pairwise_zero_intersection(arr, tol):
            return arr
    raise SgcertError("could not reach generic position for planted arrangement")


class EditedNormals(np.random.Generator):
    """``np.random.default_rng(seed)`` with an edited standard normal stream.

    Each value drawn, in stream order, is passed to ``edit(position,
    stream)``, which returns the value to put at that position, given the
    values before it, or None to keep the drawn one.  The generators take
    it as their ``seed``: ``np.random.default_rng`` returns a Generator as
    it is.
    """

    def __init__(self, seed, edit):
        super().__init__(np.random.PCG64(seed))
        self.stream, self._edit = [], edit

    def standard_normal(self, size=None):
        drawn = super().standard_normal(size)
        for x in np.ravel(drawn).tolist():
            y = self._edit(len(self.stream), self.stream)
            self.stream.append(x if y is None else y)
        return np.reshape(self.stream[len(self.stream) - np.size(drawn):], np.shape(drawn))


def zeroed(lo, hi):
    """An ``edit`` of :class:`EditedNormals` setting stream positions [lo, hi) to 0."""
    return lambda p, stream: 0.0 if lo <= p < hi else None


def repeated(src, width, lo, hi):
    """An ``edit`` of :class:`EditedNormals` filling stream positions [lo, hi)
    with copies of the ``width`` values from position ``src``."""
    return lambda p, stream: stream[src + (p - lo) % width] if lo <= p < hi else None
