"""Exact linear algebra over the rationals.

Everything in here works on plain lists of exact rationals, ints or
``fractions.Fraction`` (matrices are lists of rows); no value is ever a float.
Root data are ints, and ``dot`` keeps the pairing of int vectors an int.
There is one elimination, Gauss-Jordan on integer rows kept primitive that
touches only the rows with a nonzero entry in the pivot column (Cohen, GTM
138, section 2.2); ``rref``, ``rank``, ``nullspace``, ``solve``, ``inverse``,
``det``, ``minimal_polynomial`` and ``is_squarefree`` all read it.  The one sparse accumulator (acc) and inner
product (dot) live here, at the bottom layer.  Also provides Laurent
polynomials in the dilation variable c (CPoly), the entries of dilated blocks
and block inverses at the API edge; no engine computes with them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod

Zero = Fraction(0)
One = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints / 'p/q' strings to Fraction.  Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def identity(n):
    return [[One if i == j else Zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(p):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def acc(d, k, v):
    """d[k] += v, dropping k when the sum vanishes: the one sparse
    accumulator, here so that every module reads it (uea imports it).

    Values are rationals (Fractions or ints): false exactly when zero and
    immutable, so v may be stored as is.  d must be the caller's own dict:
    those that uea.UEAContext.act returns are shared.
    """
    old = d.get(k)
    nv = v if old is None else old + v
    if nv:
        d[k] = nv
    else:
        d.pop(k, None)


def dot(u, v):
    """sum of u_i v_i over the entries where both are nonzero: an int for
    int vectors (0 when no term is left)."""
    return sum(a * b for a, b in zip(u, v) if a != 0 and b != 0)


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def integral(m):
    """D m with int entries, D the lcm of the denominators of m: the same
    kernel, row space and rank as m."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m]


def generic_point(basis, covectors):
    """sum_k t^k basis[k] for the least integer t >= 1 at which no covector
    vanishes, or None when a covector vanishes on every basis vector (then no
    t works).  Otherwise each pairing sum_k t^k <v|basis[k]> is a nonzero
    polynomial in t, so the search ends."""
    pairings = [[dot(v, b) for b in basis] for v in covectors]
    if not all(map(any, pairings)):
        return None
    t = 1
    while any(sum(c * t ** k for k, c in enumerate(p)) == 0 for p in pairings):
        t += 1
    powers = [t ** k for k in range(len(basis))]
    return tuple(dot(powers, col) for col in zip(*basis))


def _eliminate(m, det=False):
    """Gauss-Jordan elimination on integer rows kept primitive (Cohen, GTM
    138, section 2.2).  A row of ints is read as it is, any other is scaled
    by the lcm of its denominators.  At a pivot p, each row with f != 0 in the
    pivot column becomes (p row - f pivot_row) / gcd; the others are not
    touched.  Returns (rows, pivots, k): rows[i] a nonzero multiple of row i of
    the reduced row echelon form (zero from len(pivots) on), the pivot
    columns, and, with det set, k with det(m) = k * prod_i rows[i][i] when a
    square m has every column a pivot (else None).
    """
    rows = []
    scale = 1
    for row in m:
        if all(type(x) is int for x in row):
            rows.append(row)
        else:
            s = lcm(*(x.denominator for x in row))
            scale *= s
            rows.append([x.numerator * (s // x.denominator) for x in row])
    n = len(rows)
    pivots = []
    mult = div = 1  # det of the rows so far = det of the scaled rows * mult / div
    r = 0
    for c in range(len(rows[0]) if n else 0):
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            mult = -mult
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
                if det:
                    mult, div = mult * a, div * max(g, 1)
        pivots.append(c)
        r += 1
    return rows, pivots, Fraction(div, mult * scale) if det else None


def rref(m):
    """Reduced row echelon form.  Returns (new matrix, pivot column list)."""
    rows, pivots, _ = _eliminate(m)
    return [[Fraction(x, row[c]) if x else Zero for x in row]
            for row, c in zip_longest(rows, pivots)], pivots


def rank(m):
    return len(_eliminate(m)[1])


def nullspace(m, cols=None):
    """Basis of the right kernel of ``m`` (list of coordinate vectors)."""
    if not m:
        return [[One if i == j else Zero for j in range(cols)] for i in range(cols)] if cols else []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Zero] * cols
        v[fc] = One
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(m[i]) + [b[i]] for i in range(rows)]
    red, pivots, _ = _eliminate(aug)
    if cols in pivots:
        return None
    x = [Zero] * cols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[cols], row[pc])
    return x


def inverse(m):
    n = len(m)
    aug = [list(row) + e for row, e in zip(m, identity(n))]
    rows, pivots, _ = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def det(m):
    """Determinant of a square matrix: k times the diagonal of the eliminated
    rows, or 0 when a column has no pivot."""
    rows, pivots, k = _eliminate(m, det=True)
    return k * prod(row[i] for i, row in enumerate(rows)) if len(pivots) == len(m) else Zero


def minimal_polynomial(m):
    """Minimal polynomial of a square matrix, monic, as a coefficient list
    (index = degree).

    The columns of one matrix are the flattened powers I, m, ..., m^n.  The
    first non-pivot column of its RREF is the first power that depends on the
    earlier ones, and its entries above are the coefficients of that relation.
    """
    n = len(m)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], m))
    rows, pivots, _ = _eliminate(transpose([[x for row in p for x in row] for p in powers]))
    k = len(pivots)
    return [Fraction(-rows[i][k], rows[i][i]) for i in range(k)] + [One]


def is_squarefree(p):
    """Whether a polynomial (coefficient list, index = degree, nonzero last
    coefficient) has no repeated root: its Sylvester matrix with p' has full
    rank.  p is scaled to ints first, which leaves its roots as they are."""
    p = integral([p])[0]
    deg = len(p) - 1
    dp = [i * p[i] for i in range(1, deg + 1)]
    syl = ([[0] * i + p + [0] * (deg - 2 - i) for i in range(deg - 1)]
           + [[0] * i + dp + [0] * (deg - 1 - i) for i in range(deg)])
    return rank(syl) == len(syl)


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable (exact, over Q)
# ---------------------------------------------------------------------------


class CPoly:
    """Laurent polynomial over Q in the dilation variable c.

    Immutable-ish: treat instances as values.  Exact coefficient arithmetic;
    supports negative exponents (c^-1 plays the role of hbar).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                v = frac(v)
                if v != 0:
                    c[d] = v
        self.c = c

    @classmethod
    def _trusted(cls, c):
        """A CPoly holding c as it is, with no coercion and no zero filtering:
        the arithmetic's results, whose values are nonzero Fractions."""
        out = object.__new__(cls)
        out.c = c
        return out

    @classmethod
    def const(cls, v):
        return cls({0: frac(v)})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        other = _as_cpoly(other)
        return other is not None and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        other = _as_cpoly(other)
        if other is None:
            return NotImplemented
        out = dict(self.c)
        for d, v in other.c.items():
            acc(out, d, v)
        return CPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return CPoly._trusted({d: -v for d, v in self.c.items()})

    def __sub__(self, other):
        other = _as_cpoly(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _as_cpoly(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CPoly._trusted({d: v * other for d, v in self.c.items()} if other else {})
        other = _as_cpoly(other)
        if other is None:
            return NotImplemented
        out = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                acc(out, d1 + d2, v1 * v2)
        return CPoly._trusted(out)

    __rmul__ = __mul__

    def coeff(self, deg):
        return self.c.get(deg, Zero)

    def degree(self):
        return max(self.c) if self.c else None

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for d in sorted(self.c, reverse=True):
            v = self.c[d]
            if d == 0:
                parts.append(f"{v}")
            elif d == 1:
                parts.append(f"{v}*c")
            else:
                parts.append(f"{v}*c^{d}")
        return " + ".join(parts)


def _as_cpoly(x):
    if isinstance(x, CPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return CPoly.const(x)
    return None
