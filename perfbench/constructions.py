"""Hand-built arrangements for the certify-recurse workload.

These are the benchmark's own copies of two constructions, so the benchmark
depends only on the public API of ``sgcert`` and not on the test suite.
Both drive ``certify`` through the harvest branch: one crowd of spaces is
picked so rarely by the greedy sampler that its pick frequencies sit below
the harvest threshold, while far groups keep the ambient dimension high.
"""

import numpy as np

from sgcert.arrangement import Arrangement, Subspace
from sgcert.dependency import TripleSystem, build_triple_family


def _plane_line(ambient, axis_a, axis_b, angle):
    v = np.zeros(ambient)
    v[axis_a] = np.cos(angle)
    v[axis_b] = np.sin(angle)
    v /= np.linalg.norm(v)
    return Subspace(ambient, v.reshape(1, -1))


def _system(arr, sets):
    sys_obj = TripleSystem(arr.n, sets, alpha=6, delta=0.0)
    sys_obj.delta = min(sys_obj.degrees()) / arr.n
    return sys_obj


def duplicate_line(n_dup, groups, seed):
    """One line repeated n_dup times (all pairs as 2-sets) plus far planes.

    Each far plane holds three lines in general position and carries the
    triple family over them.  A greedy run picks exactly one duplicate, so
    each duplicate's pick probability is 1/n_dup.
    """
    rng = np.random.default_rng(seed)
    ambient = 1 + 2 * groups
    line = np.zeros(ambient)
    line[0] = 1.0
    spaces = [Subspace(ambient, line.reshape(1, -1)) for _ in range(n_dup)]
    sets = [(i, j) for i in range(n_dup) for j in range(i + 1, n_dup)]
    for g in range(groups):
        base = len(spaces)
        for t in np.sort(rng.uniform(0.2, np.pi - 0.2, size=3)):
            spaces.append(_plane_line(ambient, 1 + 2 * g, 2 + 2 * g, t))
        sets.extend(tuple(base + e for e in tri) for tri in build_triple_family(3))
    arr = Arrangement(ambient, spaces)
    return arr, _system(arr, sets)


def far_clusters(cluster, groups, seed):
    """``cluster`` distinct lines crowding one plane, plus far planes.

    Only two crowd lines enter any admissible set, so each crowd line's pick
    probability is about 2/cluster.
    """
    rng = np.random.default_rng(seed)
    ambient = 2 + 2 * groups
    angles = np.sort(rng.uniform(0.0, np.pi - 0.05, size=cluster))
    spaces = [_plane_line(ambient, 0, 1, t) for t in angles]
    sets = [tuple(t) for t in build_triple_family(cluster)]
    for g in range(groups):
        base = len(spaces)
        for t in np.sort(rng.uniform(0.2, np.pi - 0.2, size=3)):
            spaces.append(_plane_line(ambient, 2 + 2 * g, 3 + 2 * g, t))
        sets.extend(tuple(base + e for e in tri) for tri in build_triple_family(3))
    arr = Arrangement(ambient, spaces)
    return arr, _system(arr, sets)
