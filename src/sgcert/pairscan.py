"""The pair-member scan: which spaces lie in each pair span V_a + V_b.

One pass over the pairs a < b, one space a at a time in the quotient by
V_a, finds the nonzero spaces inside each pair's span.  A special space, a
pair span holding >= 3 nonzero members, is tested once: the pair that
finds it stores its members, and the other pairs of them that a proven
margin shows would find the same spaces take its members untested.
"""

import numpy as np

from .arrangement import Arrangement, _pair_floor, pairwise_zero_intersection
from .errors import PreconditionError
from .linalg import Tolerance, chunk_slices


def _screen(quot: np.ndarray, cut: np.ndarray, q: np.ndarray, own: np.ndarray) -> tuple:
    """(p, x, coef): the rows x of ``quot`` that may lie within residual_tol of
    the row span of ``q[p]``, and the coefficients of every row on q.

    ``q`` is an (m, d, l) stack of orthonormal rows, and the rows ``own[p]``
    of ``quot`` span q[p]: they are left out.  One product gives every
    coefficient vector q[p] x; a row is screened out when its squared norm
    is below ``cut[x]``.  The pairs (p, x) come sorted.
    """
    m, d, ambient = q.shape
    coef = (q.reshape(m * d, ambient) @ quot.T).reshape(m, d, len(quot))
    screen = np.einsum("qdn,qdn->qn", coef, coef) >= cut
    screen[np.arange(m)[:, None], own] = False
    p, x = np.divmod(np.flatnonzero(screen), len(quot))
    return p, x, coef


def _residuals(quot: np.ndarray, q: np.ndarray, coef: np.ndarray, p: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """The squared residuals of the rows ``quot[x]`` off the row spans of ``q[p]``."""
    _, d, ambient = q.shape
    r2 = np.empty(p.size)
    for piece in chunk_slices(p.size, 8 * d * ambient):
        pp, xp = p[piece], x[piece]
        resid = quot.take(xp, axis=0) - np.einsum("cd,cdl->cl", coef[pp, :, xp],
                                                  q.take(pp, axis=0))
        r2[piece] = np.einsum("cl,cl->c", resid, resid)
    return r2


def _inheritable(rows: np.ndarray, dims: np.ndarray, drift: np.ndarray, members: np.ndarray,
                 pair: tuple, eps: float, mu: float, scale: float, tol: Tolerance) -> np.ndarray:
    """Which pairs of ``members`` provably find the spaces that ``pair`` found.

    ``rows`` stacks the basis rows of every space, ``dims[i]`` of space i,
    and ``drift[i]`` is max |B_i B_i^T - I| as computed.
    ``pair`` = (a, b) was scanned by :func:`_pair_members`: W = V_a + V_b
    has dimension s = d_a + d_b, and its nonzero members, those with every
    basis row decided inside, are ``members`` (ascending, a and b among
    them).  ``eps`` is the largest residual of a member's row as the scan
    computed it (|x'| for a row near V_a), ``mu`` = min(tol, r - tol) over
    the rows whose explicit residual r failed, and ``scale`` bounds |x| for
    every basis row x.  Returns an (r, r) boolean matrix, true at (i, j), i
    < j, when the scan of the pair (u, v) = (members[i], members[j]) is
    proven to find those of (a, b): its members, and the zero spaces.

    The rule.  With eps_m = 2^-52, l the ambient dimension and g = s (the
    largest drift of a member + 2 l eps_m), let

        e = g + 8 (l + s) s eps_m,    delta_pq = 4 sqrt(s) e scale / sigma_pq,

    where sigma_pq = sqrt(max(f_pq, 0)) is a lower bound on
    sigma_min([B_p; B_q]), f_pq the floor of :func:`_pair_floor` on
    lambda_min of the pair's stacked Gram matrix: 1 - cos theta_max, less
    the drift of both bases and the rounding.  One call gives the floors
    of (a, b) and of every pair of members (u, v) with d_u + d_v = s.
    Nothing inherits unless e <= 1e-12 and 2 sqrt(s) e <= sigma_ab.  Let

        room = min(tol - eps - delta_ab, mu - delta_ab) / 2,
        sigma* = max(sqrt(s) scale (eps + delta_ab + 4 e) / room, 2 sqrt(s) e).

    If room > 0, a pair (u, v) with d_u + d_v = s inherits when f_uv >=
    sigma*^2, so that sigma_uv >= sigma*.  Then delta_uv + eta <= room, with
    eta = sqrt(s) (eps + delta_ab) scale / sigma_uv, so for delta =
    delta_ab + delta_uv

        eps + eta + delta < tol    and    eta + delta < mu.

    Proof that these find the same spaces.  Let R_pq(x) = dist(x, V_p + V_q),
    and r_pq(x) the residual the scan of (p, q) computes for the row x.  To
    first order, |r_pq(x) - R_pq(x)| <= delta_pq.  For x' = x - B_p^T B_p x
    differs from the projection of x off V_p by at most e |x|: B_p^T B_p is
    within g of that projector, and the products round within 2 (l + s)
    eps_m.  The same holds for the rows of B_q, whose Householder QR
    (Higham, Thm 19.4) spans them moved by at most sqrt(s) e in all.  Those
    projected rows have sigma_min >= sigma_min([B_p; B_q]): for a unit c,
    |c^T B_q (I - P_p)| is the distance of B_q^T c from V_p, attained by a
    combination of norm >= 1 of the rows of [B_p; B_q].  So, as 2 sqrt(s) e
    <= sigma_pq, their span moves by a sine of at most 2 sqrt(s) e /
    sigma_pq; the residual's own rounding and the QR's departure from
    orthonormality add at most 2 e |x|, and sigma_pq <= sqrt(s).  The
    screen, with its slack of 4 tol^2 + 1e-12 |x|^2, computes |x'|^2 - |Q
    x'|^2 within e |x|^2 of the squared residual off the span of the QR's
    exactly orthonormal neighbour, so for e <= 1e-12 a screened-out row
    lies more than 2 tol from that span, and R_pq(x) > 2 tol - delta_pq.

    A member's row, decided inside, has R_ab <= eps + delta_ab (R = 0 for
    the rows of a and b).  A row decided outside has R_ab >= tol + mu -
    delta_ab: from its explicit residual, or, when screened out, since mu
    <= tol.  Let W = V_a + V_b, W' = V_u + V_v, M = [B_u; B_v] and E = M (I
    - P_W): its s rows have norms at most eps + delta_ab, so |E|_2 <=
    sqrt(s) (eps + delta_ab).  A unit vector of W' is M^T c with |c| <= 1 /
    sigma_uv, so it lies within |E^T c| of W; as dim W' = dim W = s, |P_W -
    P_W'|_2 <= sqrt(s) (eps + delta_ab) / sigma_uv, and |R_uv(x) - R_ab(x)|
    <= eta for every basis row x.  So the scan of (u, v) computes a
    member's row at r_uv <= eps + delta_ab + eta + delta_uv < tol < 2 tol -
    delta_uv: neither screened out nor outside.  A row decided outside by
    (a, b) has R_uv >= tol + mu - delta_ab - eta > tol + delta_uv, so it is
    not near V_u (that needs R_uv <= |x'| + delta_uv <= tol + delta_uv)
    and its r_uv exceeds tol.  The rows of u and v are inside both scans,
    and a zero space is inside every pair.  Hence the spaces agree.
    """
    l, s, fp = rows.shape[1], int(dims[list(pair)].sum()), np.finfo(float).eps
    ok = np.zeros((members.size, members.size), dtype=bool)
    e = s * (drift[members].max() + 2 * l * fp) + 8 * (l + s) * s * fp
    iu, iv = np.triu_indices(members.size, 1)
    same = np.flatnonzero(dims[members[iu]] + dims[members[iv]] == s)
    floor = _pair_floor(rows, dims, drift,
                        np.vstack([pair, np.column_stack([members[iu[same]], members[iv[same]]])]))
    sigma_ab = np.sqrt(max(floor[0], 0.0))
    if e > 1e-12 or 2 * np.sqrt(s) * e > sigma_ab:
        return ok
    delta_ab = 4 * np.sqrt(s) * e * scale / sigma_ab
    room = min(tol.residual_tol - eps - delta_ab, mu - delta_ab) / 2
    if room <= 0:
        return ok
    sigma_star = max(np.sqrt(s) * scale * (eps + delta_ab + 4 * e) / room, 2 * np.sqrt(s) * e)
    ok[iu[same], iv[same]] = floor[1:] >= sigma_star**2
    return ok


def _pairs(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rows (v, w) of the product of ``b`` and ``c`` with v != w."""
    rows = np.column_stack([np.repeat(b, c.size), np.tile(c, b.size)])
    return rows[rows[:, 0] != rows[:, 1]]


class _PairScan:
    """The state of one :func:`_pair_members` scan: the stacked basis rows, the
    quotient of the current space a, and the special spaces found so far.

    Each special space is stored once, in ``found``, as its member indices
    and the (r, r) matrix of :func:`_inheritable` (None for three members),
    and in ``first`` as the lexicographically first pair that spans it;
    ``holds[i]`` lists the special spaces with a matrix that space i is a
    member of.  With ``triples`` false no (b, c) rows are recorded.
    """

    def __init__(self, arr: Arrangement, tol: Tolerance, triples: bool = True):
        bad = pairwise_zero_intersection(arr, tol)
        if bad:
            raise PreconditionError(
                f"spaces {bad[0][0]} and {bad[0][1]} intersect nontrivially; "
                "special spaces are ill-defined"
            )
        self.n, self.tol, self.triples = arr.n, tol, triples
        self.rows = rows = arr.stacked_basis()
        norms2 = np.einsum("ij,ij->i", rows, rows)
        self.scale = np.sqrt(norms2.max(initial=0.0))
        # with this slack the screen only discards rows that are clearly outside
        self.slack = 4 * tol.residual_tol**2 + 1e-12 * norms2
        self.dims = dims = np.array(arr.dims(), dtype=int)
        self.nonzero = dims > 0
        self.starts = np.cumsum(dims) - dims
        self.owner = np.repeat(np.arange(arr.n), dims)
        self.by_dim = [(d, np.flatnonzero(dims == d)) for d in sorted(set(dims.tolist()))]
        self.drift = arr.drifts()
        self.width = max(arr.ambient, len(rows))
        self.found, self.first, self.seen = [], [], {}
        self.holds = [[] for _ in range(arr.n)]

    def __iter__(self):
        """Yield (a, b, inside) for each a < n - 1, as :func:`_pair_members` describes."""
        for a in range(self.n - 1):
            yield (a, *self.pairs_of(a))

    def pairs_of(self, a: int) -> tuple:
        """(b, inside) for the pairs (a, b), b > a."""
        n, dims, starts, rows = self.n, self.dims, self.starts, self.rows
        rows_a = slice(starts[a], starts[a] + dims[a])
        self.a = a
        self.quot = quot = rows - (rows @ rows[rows_a].T) @ rows[rows_a]
        self.quot2 = np.einsum("ij,ij->i", quot, quot)
        self.near = self.quot2 <= self.tol.residual_tol**2
        self.near[rows_a] = True
        self.base = np.bincount(self.owner[self.near], minlength=n)
        # the nonzero spaces besides a with every row near V_a: inside every pair
        self.close = np.flatnonzero((self.base == dims) & self.nonzero & (np.arange(n) != a))
        # a row near V_a is never screened again
        self.cut = np.where(self.near, np.inf, self.quot2 - self.slack)
        self.known, self.covered, self.inside = -1, [], [np.zeros((0, 2), dtype=int)]
        for d, spaces in self.by_dim:
            b = spaces[np.searchsorted(spaces, a, side="right"):]
            if self.holds[a]:
                b = b[self._untested(b)]
            if not b.size:
                continue
            rows_b = starts[b][:, None] + np.arange(d)
            q = np.linalg.qr(quot[rows_b].transpose(0, 2, 1))[0].transpose(0, 2, 1)
            held = len(self.holds[a])
            for part in chunk_slices(b.size, 8 * max(d, 1) * self.width):
                chunk = b[part], q[part], rows_b[part]
                if held < len(self.holds[a]):  # a special space found in an earlier chunk
                    held = len(self.holds[a])
                    live = self._untested(chunk[0])
                    chunk = tuple(c[live] for c in chunk)
                if chunk[0].size:
                    self._tested(*chunk)
        return np.concatenate(self.covered), np.concatenate(self.inside)

    def _untested(self, b: np.ndarray) -> np.ndarray:
        """Which spaces of ``b`` inherit from no special space found so far; the
        others are covered here, with the members of the one they inherit."""
        which = self._sources()[b]
        self.covered.append(b[which >= 0])
        for j in set(which[which >= 0].tolist()) if self.triples else ():
            members = self.found[j][0]
            self.inside.append(_pairs(b[which == j], members[members != self.a]))
        return which < 0

    def _sources(self) -> np.ndarray:
        """For each space b, the special space in ``found`` whose members the
        pair (a, b) inherits, or -1; only spaces b > a inherit."""
        if self.known < len(self.found):
            self.src, self.known = np.full(self.n, -1), len(self.found)
            for j in self.holds[self.a]:
                members, ok = self.found[j]
                v = members[ok[np.searchsorted(members, self.a)]]
                v = v[(v > self.a) & (self.src[v] < 0)]
                self.src[v] = j
        return self.src

    def _tested(self, b: np.ndarray, q: np.ndarray, rows_b: np.ndarray) -> None:
        """Cover the pairs (a, b) and record their rows, decided by residuals.
        The lead pair, the first with candidates, is decided alone if it may
        find a special space of >= 4 members, whose other pairs then skip
        their residuals: unless no space is close and one space owns them."""
        p, x, coef = _screen(self.quot, self.cut, q, rows_b)
        tested = b
        if p.size:
            lead = int(np.searchsorted(p, p[0], side="right"))
            if self.close.size or self.owner[x[0]] != self.owner[x[lead - 1]]:
                held, rest = len(self.holds[self.a]), slice(lead, None)
                self._decide(b, q, coef, p[:lead], x[:lead])
                if len(self.holds[self.a]) > held:
                    self._sources()[b[p[0]]] = -1  # the lead pair stays tested
                    live = self._untested(b)
                    tested, rest = b[live], lead + np.flatnonzero(live[p[lead:]])
                p, x = p[rest], x[rest]
            self._decide(b, q, coef, p, x)
        self.covered.append(tested)
        if self.triples and self.close.size:
            self.inside.append(_pairs(tested, self.close))

    def _decide(self, b, q, coef, p, x) -> None:
        """Record the rows (b, c) of the spaces c whose rows the candidates
        (p, x) put inside, and store the special spaces the pairs p find."""
        if not p.size:
            return
        n, tol = self.n, self.tol.residual_tol
        r2 = _residuals(self.quot, q, coef, p, x)
        keep = r2 <= tol**2
        # count the rows kept for each (pair, owner); a space is inside when
        # all of its rows are
        count = np.bincount(p[keep] * n + self.owner[x[keep]])
        key = np.flatnonzero(count)
        pk, ck = np.divmod(key, n)
        whole = count[key] + self.base[ck] == self.dims[ck]
        pk, ck = pk[whole], ck[whole]
        if self.triples and pk.size:
            self.inside.append(np.column_stack([b[pk], ck]))
        # a pair's nonzero members: a, b, the close spaces and those decided inside
        pairs = np.flatnonzero(np.bincount(p))
        size = (np.bincount(pk, minlength=b.size)[pairs] + (self.base != self.dims)[b[pairs]]
                + self.nonzero[self.a] + self.close.size)
        for i in pairs[size >= 3].tolist():
            in_s = np.zeros(n, dtype=bool)
            in_s[[self.a, b[i], *self.close, *ck[pk == i]]] = True
            members = np.flatnonzero(in_s & self.nonzero)
            pair = (self.a, int(b[i]))
            j = self.seen.setdefault(members.tobytes(), len(self.found))
            if j < len(self.found):
                self.first[j] = min(self.first[j], pair)
                continue
            self.first.append(pair)
            if members.size == 3:
                # one dependent triple: testing its two other pairs costs less
                # than proving their margin
                self.found.append((members, None))
                continue
            mine, member_row = p == i, in_s[self.owner]
            eps2 = max(self.quot2[self.near & member_row].max(initial=0.0),
                       r2[mine & keep & member_row[x]].max(initial=0.0))
            mu = min(tol, (np.sqrt(r2[mine & ~keep]) - tol).min(initial=np.inf))
            ok = _inheritable(self.rows, self.dims, self.drift, members, pair, np.sqrt(eps2),
                              mu, self.scale, self.tol)
            for k in members.tolist():
                self.holds[k].append(j)
            self.found.append((members, ok))


def _pair_members(arr: Arrangement, tol: Tolerance):
    """Yield (a, b, inside) for each space a < n - 1, in index order: ``b``
    lists every partner b > a once, and ``inside`` is an (m, 2) index array
    with one row (b, c) for each nonzero space c other than a and b whose
    every basis row is within residual_tol of V_a + V_b.  Zero spaces, which
    lie inside every pair span, are not listed.

    The test is made in the quotient by V_a.  Every basis row x is
    projected off V_a once, to x'; the residual of x off V_a + V_b is that
    of x' off the image of V_b, whose d rows are orthonormalized by one
    stacked Householder QR per group of partners of dimension d (no SVD),
    cut into chunks as :func:`chunk_slices` sizes them.  A row with |x'| <=
    residual_tol is inside for every b, since a residual off a larger space
    is never larger; a space other than a with all of its rows so is close.
    The others go to :func:`_screen`, which drops the rows with |x'|^2 -
    |Q x'|^2 (the squared residual up to rounding) clearly above
    residual_tol^2; the rest are decided by their explicit residuals.

    A tested pair (a, b) whose span holds >= 3 nonzero members has found a
    special space S.  S is stored once: its members, and the pairs of them
    that :func:`_inheritable` proves to find the same spaces, from the
    largest residual of a member's row, the smallest margin of a row
    decided outside, and the principal cosines of the pairs of S.  A pair
    so proven takes the members of S.  In the scan of a later space it gets
    no QR, screen or residual of its own; in the chunk where S was found,
    whose lead pair is decided alone, it shares the chunk's QR and screen
    but skips its residuals.  The pairs the margin refuses are tested as
    usual, and so are the two other pairs of a special space of three
    members.  Before yielding anything, raises naming the lexicographically
    first pair that :func:`pairwise_zero_intersection` finds intersecting
    nontrivially.
    """
    yield from _PairScan(arr, tol)
