"""Hand-built arrangements shared by the tests."""

import numpy as np

from sgcert.arrangement import Arrangement, Subspace
from sgcert.dependency import TripleSystem, build_triple_family


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
