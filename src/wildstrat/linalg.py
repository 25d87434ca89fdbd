"""Exact linear algebra over the rationals.

Everything in here works on plain lists of ``fractions.Fraction`` (matrices are
lists of rows).  No floating point is used anywhere; all eliminations are exact
Gaussian eliminations over Q.  Also provides dense univariate polynomials over
Q (for minimal polynomials) and Laurent polynomials in the dilation variable c.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_copy(m):
    return [list(row) for row in m]


def identity(n):
    return [[One if i == j else Zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = [[Zero] * p for _ in range(n)]
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


def dot(u, v):
    """sum of u_i v_i over the entries where both are nonzero."""
    return sum((a * b for a, b in zip(u, v) if a != 0 and b != 0), Zero)


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def rref(m):
    """Reduced row echelon form.  Returns (new matrix, pivot column list)."""
    m = mat_copy(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


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
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(m):
    n = len(m)
    aug = [list(m[i]) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def unit_lower_inverse(m):
    """Inverse of a unit lower triangular matrix by forward substitution:
    row i of the inverse is e_i - sum_{k<i} m[i][k] (row k), no division."""
    n = len(m)
    if any(m[i][j] != (1 if i == j else 0) for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not unit lower triangular")
    out = identity(n)
    for i in range(n):
        row = out[i]
        for k in range(i):
            c = m[i][k]
            if c != 0:
                for j, v in enumerate(out[k][:k + 1]):
                    if v != 0:
                        row[j] -= c * v
    return out


def det(m):
    m = mat_copy(m)
    n = len(m)
    sign = One
    out = One
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        out *= m[c][c]
        inv = One / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * out


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q (lists, index = degree)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_scale(p, c):
    return poly_trim([c * x for x in p])


def poly_deriv(p):
    return poly_trim([Fraction(i) * p[i] for i in range(1, len(p))])


def poly_divmod(p, q):
    p = list(p)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    lead = q[-1]
    quo = [Zero] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and poly_trim(p):
        dp = len(p) - 1
        c = p[-1] / lead
        quo[dp - dq] = c
        for i in range(dq + 1):
            p[dp - dq + i] -= c * q[i]
        poly_trim(p)
    return poly_trim(quo), poly_trim(p)


def poly_gcd(p, q):
    p, q = poly_trim(list(p)), poly_trim(list(q))
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        p = poly_scale(p, One / p[-1])
    return p


def minimal_polynomial(m):
    """Minimal polynomial of a square matrix, monic, as a coefficient list.

    One pass over the powers I, m, m^2, ...: each flattened power is reduced
    against an echelon basis of the earlier ones, and every basis row keeps
    the combination of powers it stands for.  The first power that reduces to
    zero gives the polynomial as that combination.
    """
    n = len(m)
    power = identity(n)
    basis = []  # (pivot, row with 1 at the pivot, coefficients over the powers)
    k = 0
    while True:
        row = [x for r in power for x in r]
        comb = [Zero] * k + [One]
        for p, brow, bcomb in basis:
            f = row[p]
            if f != 0:
                row = [a - f * b for a, b in zip(row, brow)]
                comb = [a - f * b for a, b in zip(comb, bcomb)] + comb[len(bcomb):]
        p = next((i for i, x in enumerate(row) if x != 0), None)
        if p is None:
            return comb
        inv = One / row[p]
        basis.append((p, [x * inv for x in row], [x * inv for x in comb]))
        power = mat_mul(power, m)
        k += 1


def is_squarefree(p):
    g = poly_gcd(p, poly_deriv(p))
    return len(g) <= 1


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
    def const(cls, v):
        return cls({0: frac(v)})

    @classmethod
    def var(cls, deg=1, coeff=1):
        return cls({deg: frac(coeff)})

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
            nv = out.get(d, Zero) + v
            if nv == 0:
                out.pop(d, None)
            else:
                out[d] = nv
        return CPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return CPoly({d: -v for d, v in self.c.items()})

    def __sub__(self, other):
        other = _as_cpoly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_cpoly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CPoly({d: v * other for d, v in self.c.items()})
        other = _as_cpoly(other)
        if other is None:
            return NotImplemented
        out = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                nv = out.get(d, Zero) + v1 * v2
                if nv == 0:
                    out.pop(d, None)
                else:
                    out[d] = nv
        return CPoly(out)

    __rmul__ = __mul__

    def coeff(self, deg):
        return self.c.get(deg, Zero)

    def degree(self):
        return max(self.c) if self.c else None

    def shift(self, k):
        return CPoly({d + k: v for d, v in self.c.items()})

    def truncate_below(self, lo):
        """Drop monomials of degree < lo (used for hbar-order truncation)."""
        return CPoly({d: v for d, v in self.c.items() if d >= lo})

    def evaluate(self, c_val):
        c_val = frac(c_val)
        if any(d < 0 for d in self.c) and c_val == 0:
            raise ZeroDivisionError("negative powers at c = 0")
        return sum((v * c_val ** d for d, v in self.c.items()), Zero)

    def is_constant(self):
        return not self.c or set(self.c) == {0}

    def as_fraction(self):
        if not self.c:
            return Zero
        if set(self.c) == {0}:
            return self.c[0]
        raise ValueError("not a constant polynomial")

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
