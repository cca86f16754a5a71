"""Integer lattices of circle coordinates.

The reflections of an orbit act integrally on a lattice of circle
coordinates: the superintegral structure of Kontorovich-Nakamura
(*Geometry and arithmetic of crystallographic sphere packings*, PNAS
2019) and, for Apollonian packings, the integral action on Descartes
quadruples of Graham-Lagarias-Mallows-Wilks-Yan (*Apollonian circle
packings: number theory*, 2003).  ``derive_lattice`` builds one for a
kind of circle from a configuration's data alone: the smallest
coordinate-aligned lattice that holds the motif rows and is closed under
the lattice translations and the reflections in the given motif mirrors
(a translated mirror is a conjugate, so these suffice).  Each coordinate
j then ranges over a Z-module M_j of Q(sqrt d) of rank at most two, and
the closure runs one coordinate at a time: M_i += C_ij M_j, with C_ij the
span of matrix entry (i, j) over all the maps.  Where the modules keep
growing (Apollonian: M01 M10 = 1/9 under any scaling), it is the Z-span
of the motif rows closed in the same way.  Every span grows by
membership: a new value is reduced against the Hermite basis, one divmod
per pivot, and only a value outside it costs a Hermite form.  The solves
that turn values into rows are dots of Python-integer object arrays.

A row n of W integers has coordinate j equal to (P_j + R_j sqrt d) / q_j
with (P, R) = n @ basis.  Float views, exact signs, ``as_float`` values,
circles, translated rows and the images of rows under planar isometries
all come from that one integer map, on int64 under ``_guard``.

Two exact operations serve the engine and the checking modules alike.
``Mirrors`` reflects rows in catalogued mirrors, each row in its own
mirror (``images``) or along every reduced word up to a length
(``walk``), every image guarded before it is formed.
``RowLattice.products`` gives inversive products of rows of two lattices
as (S + S2 sqrt d) / den, whose exact signs against -1, 0 and 1 decide
tangency, orthogonality and inclusion.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import _SQRT_FRAC, QuadExt
from .inversive import InversiveCircle, PlanarIsometry

# v - 2<v, m> m, coordinate by coordinate: v'_i = v_i + sum_j _K[j] m_i m_SWAP[j] v_j
_K = [1, 1, -2, -2]
_SWAP = [1, 0, 2, 3]
# closure rounds before an aligned lattice is given up (every built-in
# configuration settles after at most one round that grows it), and
# before a plain one is
_ROUNDS = {"aligned": 2, "plain": 8}

# Every int64 product is preceded by a float bound on its sum of absolute
# terms; staying a factor two below 2^63 absorbs the rounding of the bound.
_INT64_BUDGET = 2.0**62

Triple = Tuple[int, int, int]  # (a, b, q): (a + b sqrt d) / q
Span = Tuple[Tuple[Tuple[int, ...], ...], int]  # Hermite rows over a denominator
Entries = Dict[Tuple[int, int], Triple]  # nonzero entries (i, j) of a 4 x 4 matrix


class LatticeOverflowError(ArithmeticError):
    """Integer lattice rows, or the 1e-9 grid keys of float rows, would
    leave the int64 range.

    ``mirror`` is the id of the mirror whose action would overflow, of the
    catalogued circle whose translated row would, or of the mirror (the
    seed, at level 0) that produced a float row whose grid key would; a
    value computed from rows already made is named by what it is.
    ``magnitude`` is the bound on the offending value that tripped the
    guard.
    """

    def __init__(self, mirror: str, magnitude: float) -> None:
        super().__init__(
            f"integer coordinates at {mirror} would reach ~{magnitude:.3g}, "
            "beyond the int64 range; move the window nearer the origin"
        )
        self.mirror = mirror
        self.magnitude = magnitude


def _guard(bound: np.ndarray, idents: Union[str, Sequence[str]]) -> None:
    """Raise LatticeOverflowError if any bound reaches the int64 budget;
    ``idents`` names the circle of each bound, or of all of them."""
    if not bound.size:
        return
    i = int(np.argmax(bound))
    if bound[i] >= _INT64_BUDGET:
        ident = idents if isinstance(idents, str) else idents[i]
        raise LatticeOverflowError(ident, float(bound[i]))


def _abs_f(a: np.ndarray) -> np.ndarray:
    return np.abs(a.astype(np.float64))


def as_floats(a, b, q, d: int) -> np.ndarray:
    """``as_float`` of (a + b sqrt d) / q elementwise, bit for bit.

    Where b is 0 and a and q fit the float64 mantissa, one division of
    exact floats is the correctly rounded quotient; otherwise it is the
    quotient of Python integers that ``QuadExt.__float__`` rounds.
    """
    a, b, q = np.broadcast_arrays(np.asarray(a), np.asarray(b), np.asarray(q))
    out = np.empty(a.shape)
    fast = (b == 0) & (np.abs(a) <= 2**53) & (q <= 2**53)
    out[fast] = a[fast] / q[fast]
    if not fast.all():
        rn, rd = _SQRT_FRAC[d].numerator, _SQRT_FRAC[d].denominator
        slow = ~fast
        out[slow] = [(x * rd + y * rn) / (z * rd)
                     for x, y, z in zip(a[slow].tolist(), b[slow].tolist(), q[slow].tolist())]
    return out


def signs(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Exact sign of a + b sqrt d elementwise, as ``QuadExt.sign``."""
    sa, sb = np.sign(a), np.sign(b)
    out = np.where(sa == 0, sb, sa)
    opp = np.nonzero(sa * sb < 0)
    if opp[0].size:
        x, y = a[opp], b[opp]
        _guard(np.maximum(_abs_f(x) ** 2, d * _abs_f(y) ** 2), "a sign test")
        out[opp] = sa[opp] * np.sign(x * x - d * y * y)
    return out


# ---------------------------------------------------------------------------
# exact values as integer triples, and Hermite spans of vectors of them


def _triples(xs: Sequence[object], d: int) -> List[Triple]:
    for x in xs:
        if not isinstance(x, QuadExt) or (x.b and x.d != d):
            raise ValueError(f"coordinate {x} is not an exact value of Q(sqrt {d})")
    return [(x.a, x.b, x.q) for x in xs]


def _mul(u: Triple, v: Triple, d: int) -> Triple:
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0], u[2] * v[2])


def _scaled(k: int, t: Triple) -> Triple:
    return (k * t[0], k * t[1], t[2])


def _sum(ts: Sequence[Triple]) -> Triple:
    den = _lcm(t[2] for t in ts)
    return (sum(t[0] * (den // t[2]) for t in ts), sum(t[1] * (den // t[2]) for t in ts), den)


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b, s0, s1, t0, t1 = b, a - k * b, s1, s0 - k * s1, t1, t0 - k * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hnf(rows: Sequence[List[int]]) -> List[List[int]]:
    """Row Hermite normal form of integer vectors, reduced above each
    pivot, without zero rows."""
    rows = [r for r in rows if any(r)]
    out: List[List[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        piv, rest = None, []
        for r in rows:
            if not r[col]:
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                k, m = divmod(r[col], piv[col])
                if m:
                    g, s, t = _egcd(piv[col], r[col])
                    p, q = piv[col] // g, r[col] // g
                    piv, r = ([s * x + t * y for x, y in zip(piv, r)],
                              [q * x - p * y for x, y in zip(piv, r)])
                else:
                    r = [y - k * x for x, y in zip(piv, r)]
                rest += [r] if any(r) else []
        rows = rest
        if piv is not None:
            piv = piv if piv[col] > 0 else [-x for x in piv]
            out = [[x - k * y for x, y in zip(r, piv)] if (k := r[col] // piv[col]) else r
                   for r in out] + [piv]
    return out


def _flat(v: Sequence[Triple], den: int) -> List[int]:
    """Rational parts then sqrt(d) parts of the values ``v``, over ``den``."""
    return [a * (den // q) for a, _, q in v] + [b * (den // q) for _, b, q in v]


def _span(vectors: Sequence[Sequence[Triple]]) -> Span:
    """Canonical basis of the Z-span of vectors of k values, flat over one
    denominator."""
    den = _lcm(t[2] for v in vectors for t in v)
    rows = _hnf([_flat(v, den) for v in vectors])
    g = math.gcd(den, *(x for r in rows for x in r))
    return tuple(tuple(x // g for x in r) for r in rows), den // g


def _vectors(span: Span) -> List[List[Triple]]:
    rows, den = span
    k = len(rows[0]) // 2 if rows else 0
    return [[(r[j], r[k + j], den) for j in range(k)] for r in rows]


def _member(span: Span, v: Sequence[Triple]) -> bool:
    """Whether the vector of values ``v`` lies in the span: one divmod per
    Hermite row, at its pivot."""
    rows, den = span
    x = []
    for part in (0, 1):
        for t in v:
            n, r = divmod(t[part] * den, t[2])
            if r:
                return False
            x.append(n)
    for row in rows:
        c = 0
        while not row[c]:
            c += 1
        k, r = divmod(x[c], row[c])
        if r:
            return False
        if k:
            x = [a - k * b for a, b in zip(x, row)]
    return not any(x)


_EMPTY: Span = ((), 1)


def _grow(span: Span, vectors: Sequence[Sequence[Triple]]) -> Tuple[Span, List[Sequence[Triple]]]:
    """``span`` grown by ``vectors``, and those of them that lay outside
    it when they came; a Hermite form is taken only for those."""
    added = []
    for v in vectors:
        if not _member(span, v):
            span = _span(_vectors(span) + [v])
            added.append(v)
    return span, added


def _apply(entries: Entries, v: Sequence[Triple], d: int) -> List[Triple]:
    """``v`` under the linear map with these nonzero ``entries``."""
    out = [(0, 0, 1)] * 4
    for (i, j), c in entries.items():
        if v[j][0] or v[j][1]:
            out[i] = _sum([out[i], _mul(c, v[j], d)])
    return out


# ---------------------------------------------------------------------------
# derivation


def _closure(
    d: int, vecs: Sequence[Sequence[Triple]], maps: Sequence[Entries], rounds: int
) -> Optional[Span]:
    """The Z-span of ``vecs`` closed under ``maps`` (each adds its image),
    or None if it still grows in round ``rounds``.  A round maps only the
    vectors the round before added: with the span before, they generate
    the span."""
    span, new = _grow(_EMPTY, vecs)
    for _ in range(rounds):
        span, new = _grow(span, [_apply(m, v, d) for v in new for m in maps])
        if not new:
            return span
    return None


def _aligned(
    d: int, rows: Sequence[Sequence[Triple]], maps: Sequence[Entries], rounds: int
) -> Optional[Span]:
    """The smallest block-diagonal span that holds ``rows`` and is closed
    under ``maps``, or None if it still grows in round ``rounds``.

    Coordinate j ranges over a Z-module M_j of Q(sqrt d) of rank at most
    two.  A round is M_i += C_ij M_j for every entry (i, j), on the
    modules of the round before, with C_ij the span of that entry over
    all maps.  Like ``_closure``, a round after the first multiplies only
    the values the round before added to M_j.

    The maps are isometries of the inversive form, less the identity,
    and come in inverse pairs (a reflection is its own inverse).  The
    form is <v, w> = -sum_j K_j v_s(j) w_j / 2, with s = _SWAP and
    K = _K, so the inverse of an isometry A has entry (i, j) equal to
    K_j / K_i times A_{s(j) s(i)}, as the identity has: C_ij is K_j / K_i
    times C_{s(j) s(i)}, and only one entry of each such pair is spanned.
    """
    values: Dict[Tuple[int, int], Dict[Triple, None]] = {}
    for m in maps:
        for ij, c in m.items():
            values.setdefault(ij, {})[c] = None
    spans: Dict[Tuple[int, int], List[Triple]] = {}
    for (i, j), cs in values.items():
        twin = spans.get((_SWAP[j], _SWAP[i]))
        if twin is None:
            spans[i, j] = [c for (c,) in _vectors(_grow(_EMPTY, [[c] for c in cs])[0])]
        else:
            k, den = _K[i] * _K[j], _K[i] * _K[i]
            spans[i, j] = [c for (c,) in _vectors(_span([[(k * a, k * b, den * q)]
                                                         for a, b, q in twin]))]
    coeffs = [(i, j, c) for (i, j), cs in spans.items() for c in cs]
    modules = [_grow(_EMPTY, [[c] for c in dict.fromkeys(r[j] for r in rows)])[0] for j in range(4)]
    new = [_vectors(m) for m in modules]
    for _ in range(rounds):
        added: List[List[Sequence[Triple]]] = [[], [], [], []]
        for i, j, c in coeffs:
            modules[i], grown = _grow(modules[i], [[_mul(c, v, d)] for (v,) in new[j]])
            added[i] += grown
        if not any(added):
            zero = (0, 0, 1)
            return _span([[v if k == j else zero for k in range(4)]
                          for j, m in enumerate(modules) for (v,) in _vectors(m)])
        new = added
    return None


def _translation(vx: Triple, vy: Triple, d: int) -> Entries:
    """Translation by (vx, vy) less the identity, linear and quadratic
    parts: h += v b, co-curvature += 2 v.h + |v|^2 b."""
    two = (2, 0, 1)
    return {(2, 1): vx, (3, 1): vy, (0, 2): _mul(two, vx, d), (0, 3): _mul(two, vy, d),
            (0, 1): _sum([_mul(vx, vx, d), _mul(vy, vy, d)])}


def derive_lattice(
    d: int,
    motif: Sequence[InversiveCircle],
    vectors: Optional[Sequence[Sequence[QuadExt]]],
    mirrors: Sequence[InversiveCircle],
) -> "RowLattice":
    """The integer lattice of rows of the ``motif`` circles, closed under
    translation by ``vectors`` (None for a finite configuration) and
    reflection in ``mirrors``: aligned where the per-coordinate closure
    (``_aligned``) settles within its rounds, plain (``_closure``)
    otherwise.  Either gives a span whose Hermite form is canonical, so
    the basis does not depend on the order in which it grew."""
    rows = [_triples(c.key(), d) for c in motif]
    vecs = [_triples(v, d) for v in vectors or ()]
    maps = [_translation(vx, vy, d) for vx, vy in vecs]
    maps += [_translation((-vx[0], -vx[1], vx[2]), (-vy[0], -vy[1], vy[2]), d) for vx, vy in vecs]
    for m in (_triples(c.key(), d) for c in mirrors):
        maps.append({(i, j): _scaled(_K[j], _mul(m[i], m[_SWAP[j]], d))
                     for i in range(4) for j in range(4)})
    maps = [{ij: c for ij, c in m.items() if c[0] or c[1]} for m in maps]
    span = _aligned(d, rows, maps, _ROUNDS["aligned"]) or _closure(d, rows, maps, _ROUNDS["plain"])
    if span is None:
        raise ArithmeticError("the orbit coordinates of this configuration span no integer lattice")
    flat, den = span
    basis, q = [list(r) for r in flat], []
    for j in range(4):
        g = math.gcd(den, *(r[k] for r in basis for k in (j, 4 + j)))
        q.append(den // g)
        for r in basis:
            r[j], r[4 + j] = r[j] // g, r[4 + j] // g
    return RowLattice(d, basis, q, rows, vecs)


def _left_inverse(basis: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]], int]:
    """The first nonzero column of each basis row, J, and (adj, det) with
    basis[:, J] @ adj = det I.

    Aligned bases are block diagonal with 2 x 2 Hermite blocks and plain
    ones are in echelon form, so basis[:, J] is upper triangular with a
    nonzero diagonal, and back substitution stays in integers.
    """
    cols = [next(c for c, x in enumerate(r) if x) for r in basis]
    s = [[r[c] for c in cols] for r in basis]
    w = len(s)
    det = math.prod(s[i][i] for i in range(w))
    adj = [[0] * w for _ in range(w)]
    for k in range(w):
        for i in range(w - 1, -1, -1):
            acc = det * (i == k) - sum(s[i][c] * adj[c][k] for c in range(i + 1, w))
            adj[i][k] = acc // s[i][i]
    return cols, adj, det


class RowLattice:
    """The integer lattice of one kind's circle rows.

    ``basis`` (W x 8) and ``q`` (4) give the integer map of a row n:
    coordinate j is (P_j + R_j sqrt d) / q_j, with P = n @ basis[:, :4]
    and R = n @ basis[:, 4:].  ``motif`` holds the integer rows of the
    motif circles.
    """

    def __init__(
        self,
        d: int,
        basis: List[List[int]],
        q: List[int],
        motif: Sequence[Sequence[Triple]],
        vectors: Sequence[Sequence[Triple]],
    ) -> None:
        self.d = d
        self.width = w = len(basis)
        self.basis = np.array(basis, dtype=np.int64).reshape(-1, 8)
        self.q = np.array(q, dtype=np.int64)
        self._basis, self._q = basis, q
        self._pf = self.basis[:, :4] / self.q
        self._rf = self.basis[:, 4:] * math.sqrt(d) / self.q
        self._cols, adj, self._det = _left_inverse(basis)
        # exact solves are dots of Python integers
        self._exact = np.array(basis, dtype=object).reshape(-1, 8)
        self._qs = np.array(q + q, dtype=object)
        self._adj = np.array(adj, dtype=object).reshape(w, w)
        self.motif = self._exact_rows(motif)
        self._actions: Dict[int, tuple] = {}
        # translation by m v1 + n v2 is sum_k mono_k(m, n) shift[k] / shift_den
        # over the monomials 1, m, n, m^2, mn, n^2
        self._shift, self._shift_den = np.zeros((6, w, w), dtype=np.int64), 1
        if vectors:
            (v1x, v1y), (v2x, v2y) = vectors
            maps = [{ij: c for ij, c in _translation(vx, vy, d).items() if ij != (0, 1)}
                    for vx, vy in vectors]
            for ux, uy, vx, vy, k in ((v1x, v1y, v1x, v1y, 1), (v1x, v1y, v2x, v2y, 2),
                                      (v2x, v2y, v2x, v2y, 1)):
                maps.append({(0, 1): _mul((k, 0, 1), _sum([_mul(ux, vx, d), _mul(uy, vy, d)]), d)})
            _, num, self._shift_den = self._solved(maps)
            # row v of each map's block is the image of basis vector v; the
            # tables act on column rows
            self._shift[1:] = num.reshape(5, w, w).transpose(0, 2, 1)
        self._shift[0] = np.eye(w, dtype=np.int64) * self._shift_den

    # -- exact linear algebra at derivation time -----------------------

    @staticmethod
    def _flats(values: Sequence[Sequence[Triple]], den: int) -> np.ndarray:
        """``_flat`` of each vector of values, Python integers (n, 8)."""
        return np.array([_flat(v, den) for v in values], dtype=object).reshape(-1, 8)

    def _solve(self, flat: np.ndarray, den: int) -> Tuple[np.ndarray, int]:
        """Lattice coordinates (num / den') of vectors whose coordinate j
        is (flat[j] + flat[4 + j] sqrt d) / den, read off the columns J;
        exact for vectors of the lattice's span."""
        return (flat[:, self._cols] * self._qs[self._cols]).dot(self._adj), den * self._det

    def _exact_rows(self, values: Sequence[Sequence[Triple]]) -> np.ndarray:
        den = _lcm(t[2] for v in values for t in v)
        flat = self._flats(values, den)
        num, den2 = self._solve(flat, den)
        rows = num // den2
        # off the lattice: den2 does not divide the solve, or the rows do
        # not give the values back, which lie outside the span
        if (num % den2).any() or (rows.dot(self._exact) * den != flat * self._qs).any():
            raise ArithmeticError("circle does not lie on the integer lattice")
        return self._ints(rows, "a circle's row")

    def _basis_values(self) -> List[List[Triple]]:
        """The basis vectors as values."""
        return [[(b[j], b[4 + j], self._q[j]) for j in range(4)] for b in self._basis]

    def rows_of(self, circles: Sequence[InversiveCircle]) -> np.ndarray:
        """Integer rows of exact circles; ArithmeticError off the lattice
        (LatticeOverflowError past the int64 budget)."""
        return self._exact_rows([_triples(c.key(), self.d) for c in circles])

    def _solved(self, maps: Sequence[Entries]) -> Tuple[np.ndarray, np.ndarray, int]:
        """Images of the basis vectors under each linear map with these
        entries, map by map, flat over one denominator, and their
        coordinates here (num / den), which are right for images in the
        lattice's span."""
        den = _lcm(c[2] * self._q[j] for m in maps for (_, j), c in m.items())
        p, r = self._exact[:, :4], self._exact[:, 4:]
        flat = np.zeros((len(maps), self.width, 8), dtype=object)
        for k, m in enumerate(maps):
            # entry (a + b sqrt d) / q times (P_j + R_j sqrt d) / q_j
            for (i, j), (a, b, q) in m.items():
                s = den // (q * self._q[j])
                flat[k, :, i] += (a * p[:, j] + self.d * b * r[:, j]) * s
                flat[k, :, 4 + i] += (a * r[:, j] + b * p[:, j]) * s
        flat = flat.reshape(-1, 8)
        return (flat, *self._solve(flat, den))

    def _action(self, ml: "RowLattice") -> tuple:
        """Tables of the reflections in mirrors of lattice ``ml`` on these
        rows: F and F2 hold the coordinates here of each mirror basis
        vector f_p and of sqrt(d) f_p (over fden), G and G2 the rational
        and sqrt(d) parts of -2 <b_v, f_p> for each basis vector b_v here
        (over gden).  The cache entry holds ``ml``, so its id stays unique."""
        if id(ml) not in self._actions:
            d, dm = self.d, _lcm(ml._q)
            f, fden = self._solve(self._flats(ml._basis_values(), dm), dm)
            f2, _ = self._solve(self._flats([[_mul((0, 1, 1), t, d) for t in v]
                                             for v in ml._basis_values()], dm), dm)
            gden = _lcm(self._q[j] * ml._q[_SWAP[j]] for j in range(4))
            k = np.array([_K[j] * gden // (self._q[j] * ml._q[_SWAP[j]]) for j in range(4)],
                         dtype=object)
            bm, b = ml._exact, self._exact.T
            g = (bm[:, _SWAP] * k).dot(b[:4]) + d * (bm[:, [4 + s for s in _SWAP]] * k).dot(b[4:])
            g2 = (bm[:, _SWAP] * k).dot(b[4:]) + (bm[:, [4 + s for s in _SWAP]] * k).dot(b[:4])
            fg = math.gcd(fden, *f.ravel().tolist(), *f2.ravel().tolist())
            gg = math.gcd(gden, *g.ravel().tolist(), *g2.ravel().tolist())
            tables = [(x // c).astype(np.int64) for x, c in ((f, fg), (f2, fg), (g, gg), (g2, gg))]
            self._actions[id(ml)] = (ml, *tables, fden // fg, gden // gg)
        return self._actions[id(ml)][1:]

    # -- row maps ------------------------------------------------------

    def values(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(P, R) of each row, so coordinate j is (P_j + R_j sqrt d) / q_j."""
        _guard((_abs_f(rows) @ _abs_f(self.basis)).max(axis=1, initial=0.0), "a lattice row")
        return rows @ self.basis[:, :4], rows @ self.basis[:, 4:]

    def approx(self, rows: np.ndarray) -> np.ndarray:
        """Float coordinates within a few ulp: where P_j and R_j sqrt d
        cancel, (P^2 - d R^2) / (P - R sqrt d) replaces the sum."""
        f = rows.astype(np.float64)
        out = f @ self._pf
        if not self._rf.any():
            return out
        rs = f @ self._rf
        opp = np.nonzero(out * rs < 0)
        out += rs
        if opp[0].size:
            x, y = (v[opp] for v in self.values(rows))
            # both terms under 2^62 keep their difference inside int64
            if np.maximum(_abs_f(x) ** 2, self.d * _abs_f(y) ** 2).max() < _INT64_BUDGET:
                norm = x * x - self.d * y * y
            else:
                norm = [a * a - self.d * b * b for a, b in zip(x.tolist(), y.tolist())]
            out[opp] = np.array(norm, dtype=np.float64) / (x - y * math.sqrt(self.d)) / self.q[opp[1]]
        return out

    def as_float(self, rows: np.ndarray) -> np.ndarray:
        """``as_float`` of every coordinate of every row, bit for bit."""
        return as_floats(*self.values(rows), self.q, self.d)

    def circles(self, rows: np.ndarray) -> List[InversiveCircle]:
        p, r = self.values(rows)
        return [InversiveCircle(*map(QuadExt, pa, ra, self._q, [self.d] * 4))
                for pa, ra in zip(p.tolist(), r.tolist())]

    def rows_at(self, index: np.ndarray, shift: np.ndarray, idents: Sequence[str]) -> np.ndarray:
        """Rows of motif circles ``index`` moved by lattice shifts (m, n)."""
        return self.translated(self.motif[index], shift, idents)

    def translated(
        self, u: np.ndarray, shift: np.ndarray, idents: Union[str, Sequence[str]]
    ) -> np.ndarray:
        """Rows ``u`` moved by lattice shifts (m, n), one shift per row."""
        # the bound takes the monomials in float, before m^2 can wrap in int64
        bound_mono, mono = (np.stack([np.ones_like(m), m, n, m * m, m * n, n * n], axis=1)
                            for m, n in (_abs_f(shift).T, shift.T))
        bound = np.einsum("nk,kij,nj->ni", bound_mono, _abs_f(self._shift), _abs_f(u))
        _guard(bound.max(axis=1, initial=0.0), idents)
        rows = np.einsum("nk,kij,nj->ni", mono, self._shift, u)
        if (rows % self._shift_den).any():
            raise ArithmeticError("lattice translation does not preserve the integer lattice")
        return rows // self._shift_den

    def moved(
        self, g: PlanarIsometry, rows: np.ndarray, idents: Union[str, Sequence[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of the images of ``rows`` under the exact isometry ``g``, and
        which images lie on this lattice; the row of an image off it means
        nothing.

        g acts linearly on (co-curvature, curvature, h): b' = b,
        h' = A h + b t and bt' = bt + 2 t.(A h) + |t|^2 b, with A the matrix
        of a, taken after the conjugation when g.conj.  An image lies on the
        lattice when it lies in its span and den divides it, both exactly.
        """
        d = self.d
        (a0, a1), (t0, t1) = _triples(g.a, d), _triples(g.t, d)
        neg = lambda x: (-x[0], -x[1], x[2])  # noqa: E731
        rot = [[a0, a1], [a1, neg(a0)]] if g.conj else [[a0, neg(a1)], [a1, a0]]
        entries: Entries = {(0, 0): (1, 0, 1), (1, 1): (1, 0, 1), (2, 1): t0, (3, 1): t1,
                            (0, 1): _sum([_mul(t0, t0, d), _mul(t1, t1, d)])}
        for j in range(2):
            entries[2, 2 + j], entries[3, 2 + j] = rot[0][j], rot[1][j]
            tr = _sum([_mul(t0, rot[0][j], d), _mul(t1, rot[1][j], d)])
            entries[0, 2 + j] = _mul((2, 0, 1), tr, d)
        flat, num, den = self._solved([{ij: c for ij, c in entries.items() if c[0] or c[1]}])
        # row v of off: the image of basis vector v less its solved
        # reconstruction, zero exactly when that image lies in the span
        off = flat * self._qs * self._det - num.dot(self._exact)
        g_num = math.gcd(den, *num.ravel().tolist())
        g_off = math.gcd(*off.ravel().tolist())
        num = self._ints(num // g_num, "an isometry matrix")
        off = self._ints(off // max(g_off, 1), "an isometry matrix")
        den //= g_num
        rf = _abs_f(rows)
        _guard((rf @ _abs_f(num)).max(axis=1, initial=0.0), idents)
        images = rows @ num
        on = ~(images % den).any(axis=1)
        if g_off:
            _guard((rf @ _abs_f(off)).max(axis=1, initial=0.0), idents)
            on &= ~(rows @ off).any(axis=1)
        return images // den, on

    @staticmethod
    def _ints(values: np.ndarray, ident: str) -> np.ndarray:
        """int64 array of Python integers, LatticeOverflowError past the budget."""
        peak = max(map(abs, values.ravel().tolist()), default=0)
        if peak >= _INT64_BUDGET:
            raise LatticeOverflowError(ident, float(min(peak, 2**1000)))
        return values.astype(np.int64)

    def reflections(self, ml: "RowLattice", w: np.ndarray, idents: Sequence[str]) -> np.ndarray:
        """int64 matrices (n, W, W) of the reflections in mirrors with rows
        ``w`` of lattice ``ml``, acting on column rows of this lattice.

        Reflection is v -> v + (-2 <v, m>) m, so column v is e_v plus the
        coordinates of m times -2 <b_v, m>: a rank-two update over Q of
        the identity, whose entries must divide out exactly.
        """
        f, f2, g, g2, fden, gden = self._action(ml)
        wf = _abs_f(w)
        parts = [(w @ a, w @ c, wf @ _abs_f(a), wf @ _abs_f(c)) for a, c in ((f, g), (f2, g2))]
        bound = sum(af[:, :, None] * gf[:, None, :] + af[:, :, None] + gf[:, None, :]
                    for _, _, af, gf in parts)
        _guard(bound.max(axis=(1, 2), initial=0.0), idents)
        num = sum(a[:, :, None] * c[:, None, :] for a, c, _, _ in parts)
        if (num % (fden * gden)).any():
            raise ArithmeticError("mirror action does not preserve the integer lattice")
        return np.eye(self.width, dtype=np.int64) + num // (fden * gden)

    def products(
        self, ml: "RowLattice", u: np.ndarray, w: np.ndarray, idents: Union[str, Sequence[str]]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Exact inversive products <u_i, w_i> of rows u here and rows w of
        lattice ``ml``: (S + S2 sqrt d) / den, den > 0, from -2 <u, w> =
        (u . (w G) + u . (w G2) sqrt d) / gden.  S - c den stays in int64 for
        |c| <= 1, so ``signs(S - c den, S2, d)`` is the sign of <u, w> - c."""
        _, _, g, g2, _, gden = self._action(ml)
        uf, wf = _abs_f(u), _abs_f(w)
        _guard(np.maximum((uf * (wf @ _abs_f(g))).sum(axis=1),
                          (uf * (wf @ _abs_f(g2))).sum(axis=1)) + 2.0 * gden, idents)
        return -(u * (w @ g)).sum(axis=1), -(u * (w @ g2)).sum(axis=1), 2 * gden

    def aligned(
        self, ml: "RowLattice", u: np.ndarray, w: np.ndarray, cols: List[int],
        idents: Union[str, Sequence[str]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """P then R parts of coordinates ``cols`` of rows u here and of rows
        w of lattice ``ml``, over the common denominators q_j ml.q_j: two
        arrays whose sums and differences stay in int64, equal exactly
        where those coordinates are."""
        (pu, ru), (pw, rw) = self.values(u), ml.values(w)
        x, y = np.hstack([pu[:, cols], ru[:, cols]]), np.hstack([pw[:, cols], rw[:, cols]])
        qx, qy = np.tile(ml.q[cols], 2), np.tile(self.q[cols], 2)
        _guard((_abs_f(x) * qx + _abs_f(y) * qy).max(axis=1, initial=0.0), idents)
        return x * qx, y * qy

    def inside(
        self, ml: "RowLattice", u: np.ndarray, w: np.ndarray, idents: Sequence[str]
    ) -> np.ndarray:
        """Whether each circle u lies inside, and differs from, its mirror
        w (a row of lattice ``ml``): <u, w> >= 1 and b_u >= b_w, exactly;
        an equal circle is the tangent case with equal curvature."""
        s, s2, den = self.products(ml, u, w, idents)
        cp, cr = np.subtract(*self.aligned(ml, u, w, [1], idents)).T
        same = (s == den) & (s2 == 0) & (cp == 0) & (cr == 0)
        return (signs(s - den, s2, self.d) >= 0) & (signs(cp, cr, self.d) >= 0) & ~same

    def float_reflections(self, w: np.ndarray) -> np.ndarray:
        """``as_float`` of every entry of the real 4 x 4 reflection matrix
        of each mirror row w of this lattice, bit for bit; products of two
        coordinates are formed on Python integers where they leave int64."""
        p, r = self.values(w)
        ps, rs = p[:, None, _SWAP], r[:, None, _SWAP]
        p, r = p[:, :, None], r[:, :, None]
        bound = 2.0 * self.d * (_abs_f(p) + _abs_f(r)) * (_abs_f(ps) + _abs_f(rs))
        if bound.max(initial=0.0) >= _INT64_BUDGET:
            p, r, ps, rs = (x.astype(object) for x in (p, r, ps, rs))
        den = self.q[:, None] * self.q[_SWAP][None, :]
        a = den * np.eye(4, dtype=np.int64) + np.array(_K) * (p * ps + self.d * r * rs)
        return as_floats(a, np.array(_K) * (p * rs + r * ps), den, self.d)


class Mirrors:
    """Reflections in catalogued mirrors acting on one lattice's rows: the
    int64 matrices ``mats`` (n, W, W) of ``RowLattice.reflections`` and the
    ids of their mirrors.  An entry of M v is at most sum_j colmax_j |v_j|,
    colmax_j the largest |M_ij| in column j; LatticeOverflowError names the
    mirror where that bound reaches the int64 budget."""

    def __init__(self, mats: np.ndarray, idents: Sequence[str]) -> None:
        self.mats = mats
        self.idents = np.asarray(idents, dtype=object)
        self._colmax = _abs_f(mats).max(axis=1)

    def images(self, rows: np.ndarray, via: np.ndarray) -> np.ndarray:
        """Each row reflected in its own mirror ``via``."""
        _guard((_abs_f(rows) * self._colmax[via]).sum(axis=1), self.idents[via])
        return np.einsum("nij,nj->ni", self.mats[via], rows)

    def walk(
        self, start: np.ndarray, max_len: int
    ) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
        """Every nonempty reduced word of length at most ``max_len`` acting
        on the state ``start``, k rows held coordinate major (W, k).

        Yields (i, states, keep) by length, then by last mirror i.  Below
        ``max_len``, states (W, words, k) are the images under i of the
        previous length's states not ending in i, and keep is None; at
        ``max_len`` they are the previous length's states unreflected, keep
        masks those i extends, and the caller forms only the entries of
        ``mats[i] @ states`` it needs.  Each length guards every mirror
        over every row of the states it acts on, first by a bound over the
        peak of each coordinate, which is no smaller and passes most.
        """
        width, k = start.shape
        frontier, last = start[:, None], np.array([-1])
        for length in range(1, max_len + 1):
            rows = frontier.reshape(width, -1)
            peak = np.maximum(rows.max(axis=1), -rows.min(axis=1)).astype(np.float64)
            if (self._colmax @ peak).max(initial=0.0) >= _INT64_BUDGET:
                rf = _abs_f(rows)
                _guard(np.array([(c @ rf).max() for c in self._colmax]), self.idents)
            blocks, lasts = [], []
            for i, mat in enumerate(self.mats):
                keep = last != i
                if not keep.any():
                    continue
                if length == max_len:
                    yield i, frontier, keep
                    continue
                images = (mat @ frontier[:, keep].reshape(width, -1)).reshape(width, -1, k)
                yield i, images, None
                blocks.append(images)
                lasts.append(np.full(images.shape[1], i))
            if not blocks:
                return
            frontier, last = np.concatenate(blocks, axis=1), np.concatenate(lasts)
