"""Elements of g and of the truncated current algebra g_r = g (x) C[e]/e^r.

GElement: Cartan part (coordinates on the chosen t basis) + root coefficients.
TcElement: depth r and a coefficient GElement per epsilon degree.

The bracket (the bilinear extension of rootdata.letter_bracket), the matrix
of ad_x on g (filled from letter_bracket; orbit assembles ad_x on g_r from one
per coefficient), invariant form, depth-graded pairing ( . | . )_c,
transposition, semisimplicity test, and the kernel half of the splitting
V = Ker f + f(V) of a semisimple operator f, read off f^2 in one elimination,
all live here.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import WeakKeyDictionary

from .linalg import (One, Zero, acc, frac, frac_str, integral, inverse, is_squarefree,
                     mat_vec, minimal_polynomial, nullspace, rref)
from .rootdata import all_letters, letter_bracket
from .strat import ClaimViolation


class GElement:
    __slots__ = ("rd", "cartan", "root")

    def __init__(self, rd, cartan=None, root=None):
        self.rd = rd
        self.cartan = tuple(frac(x) for x in cartan) if cartan is not None else (Zero,) * rd.dim_t
        if len(self.cartan) != rd.dim_t:
            raise ValueError(f"Cartan part has width {len(self.cartan)}, expected {rd.dim_t}")
        self.root = out = {}
        n = rd.num_roots
        for i, c in (root or {}).items():
            if not 0 <= i < n:
                raise ValueError(f"root index {i} is not in range({n})")
            if c != 0:
                out[i] = frac(c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rd):
        return cls(rd)

    @classmethod
    def cartan_vec(cls, rd, coords):
        return cls(rd, cartan=coords)

    @classmethod
    def root_vec(cls, rd, idx, coeff=1):
        return cls(rd, root={idx: coeff})

    @classmethod
    def coroot(cls, rd, idx):
        return cls(rd, cartan=rd.coroots[idx])

    # -- linear structure ---------------------------------------------------

    def is_zero(self):
        return all(x == 0 for x in self.cartan) and not self.root

    def __add__(self, other):
        self._check(other)
        root = dict(self.root)
        for i, c in other.root.items():
            acc(root, i, c)
        return GElement(self.rd, tuple(a + b for a, b in zip(self.cartan, other.cartan)), root)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        if c == 0:
            return GElement.zero(self.rd)
        return GElement(self.rd, tuple(c * x for x in self.cartan),
                        {i: c * v for i, v in self.root.items()})

    def __eq__(self, other):
        return (isinstance(other, GElement) and self.rd is other.rd
                and self.cartan == other.cartan and self.root == other.root)

    def __hash__(self):
        return hash((self.cartan, tuple(sorted(self.root.items()))))

    def _check(self, other):
        if self.rd is not other.rd:
            raise ValueError("elements over different root data")

    def coords(self):
        """Full coordinate vector on the (t basis, root) ordering."""
        rd = self.rd
        v = list(self.cartan) + [Zero] * rd.num_roots
        for i, c in self.root.items():
            v[rd.dim_t + i] = c
        return v

    @classmethod
    def from_coords(cls, rd, v):
        return cls(rd, cartan=v[:rd.dim_t],
                   root={i: c for i, c in enumerate(v[rd.dim_t:]) if c != 0})

    def is_cartan(self):
        return not self.root

    # -- Lie structure -------------------------------------------------------

    def _letters(self, d=0):
        """The nonzero (letter, coefficient) pairs of x placed at epsilon degree d."""
        return ([(("H", t, d), c) for t, c in enumerate(self.cartan) if c]
                + [(("E", i, d), c) for i, c in self.root.items()])

    def bracket(self, other):
        """[x, y]: the bilinear extension of letter_bracket at depth 1."""
        self._check(other)
        return _bracket(self.rd, 1, self._letters(), other._letters())[0]

    def pairing(self, other):
        """Invariant bilinear form; (E_a | E_{-a}) = 1 on gl/sl/A types."""
        self._check(other)
        rd = self.rd
        out = Zero
        for i, ci in self.root.items():
            cj = other.root.get(rd.neg[i])
            if cj:
                out += ci * cj * rd.e_pair[i]
        g = rd.gram
        for a, ca in enumerate(self.cartan):
            if ca == 0:
                continue
            for b, cb in enumerate(other.cartan):
                if cb != 0 and g[a][b] != 0:
                    out += ca * g[a][b] * cb
        return out

    def transpose(self):
        """t-fixing involution swapping E_a with E_{-a}."""
        rd = self.rd
        return GElement(rd, self.cartan, {rd.neg[i]: c for i, c in self.root.items()})

    def ad_matrix(self, scale=1):
        """Matrix of ad_{scale x} on g in the (t, roots) coordinate basis, int
        when scale x is integral: column j is letter_bracket of x's letters
        with letter j of all_letters(rd, 1)."""
        rd = self.rd
        out = [[0] * rd.dim_g for _ in range(rd.dim_g)]
        xs = [(a, c * scale) for a, c in self._letters()]
        xs = [(a, c.numerator if c.denominator == 1 else c) for a, c in xs]
        for j, b in enumerate(all_letters(rd, 1)):
            for a, c in xs:
                for n, (kind, i, _) in letter_bracket(rd, 1, a, b):
                    out[i if kind == "H" else rd.dim_t + i][j] += c * n
        return out

    def defining_matrix(self):
        """Matrix of x in the defining representation: sum of c_i rd.defining_matrix(i)."""
        rd = self.rd
        n = len(rd.defining_matrix(0))
        out = [[Zero] * n for _ in range(n)]
        for idx, c in enumerate(self.coords()):
            if c != 0:
                for orow, mrow in zip(out, rd.defining_matrix(idx)):
                    for j, v in enumerate(mrow):
                        if v != 0:
                            orow[j] += c * v
        return out

    @classmethod
    def from_defining_matrix(cls, rd, m):
        """The element of g whose defining matrix is m.

        Each root coefficient is read off one fixed nonzero entry of E_a and
        the Cartan part off the diagonal; the element is rebuilt and compared
        with m, so a matrix outside g raises ClaimViolation.
        """
        entries, rows, cartan_inv = _defining_reader(rd)
        root = {i: m[p][q] * inv for i, (p, q, inv) in enumerate(entries) if m[p][q] != 0}
        x = cls(rd, mat_vec(cartan_inv, [m[p][p] for p in rows]), root)
        if x.defining_matrix() != m:
            raise ClaimViolation(f"matrix {m!r} is not in {rd.label}: it reads as {x!r}, "
                                 f"whose matrix is {x.defining_matrix()!r}")
        return x

    def __repr__(self):
        rd = self.rd
        parts = []
        for t, c in enumerate(self.cartan):
            if c != 0:
                parts.append(f"{frac_str(c)}*h{t}")
        for i, c in sorted(self.root.items()):
            label = ",".join(frac_str(x) for x in rd.roots[i])
            parts.append(f"{frac_str(c)}*E({label})")
        return " + ".join(parts) if parts else "0"


def _bracket(rd, depth, xs, ys):
    """The bilinear extension of letter_bracket to (letter, coefficient) lists,
    as one GElement per epsilon degree below depth."""
    out = {}
    for a, c in xs:
        for b, c2 in ys:
            for n, w in letter_bracket(rd, depth, a, b):
                acc(out, w, c * c2 * n)
    cartans = [[Zero] * rd.dim_t for _ in range(depth)]
    roots = [{} for _ in range(depth)]
    for (kind, i, d), c in out.items():
        if kind == "H":
            cartans[d][i] = c
        else:
            roots[d][i] = c
    return [GElement(rd, h, e) for h, e in zip(cartans, roots)]


_READERS = WeakKeyDictionary()  # root datum -> what from_defining_matrix reads, dies with it


def _defining_reader(rd):
    """What from_defining_matrix reads, per root datum: the first nonzero
    entry (p, q) of each E_a with the reciprocal of its value, and dim t
    diagonal positions with the inverse of the Cartan basis restricted to them."""
    if rd not in _READERS:
        entries = [next((p, q, One / v) for p, row in enumerate(rd.defining_matrix(rd.dim_t + i))
                        for q, v in enumerate(row) if v != 0) for i in range(rd.num_roots)]
        diags = [[row[p] for p, row in enumerate(rd.defining_matrix(t))] for t in range(rd.dim_t)]
        rows = rref(diags)[1]
        _READERS[rd] = entries, rows, inverse([[d[p] for d in diags] for p in rows])
    return _READERS[rd]


def is_semisimple(x: GElement) -> bool:
    """True iff ad_x is semisimple, tested on the n x n defining matrix of x.

    The test is that the minimal polynomial of x.defining_matrix() is
    squarefree over Q.  It agrees with the same test on the dim g x dim g
    matrix of ad_x under an assumption that every root datum of ``rootdata``
    meets: g is realised faithfully by matrices, and is semisimple or gl_n.
    Jordan decomposition commutes with a faithful representation of a
    semisimple algebra, and on gl_n the centre acts by scalars, so ad_x is
    semisimple iff the matrix of x is.  The matrix is scaled to ints first:
    x and D x are semisimple together.
    """
    return is_squarefree(minimal_polynomial(integral(x.defining_matrix())))


class NotSemisimpleError(ValueError):
    pass


def semisimple_split(f, f2):
    """Ker f for an operator f with f2 = f f, checking that V = Ker f + f(V).

    Ker f lies in Ker f2, with equality exactly when Ker f meets f(V) in 0,
    that is when V splits.  Then f and f2 have one kernel, so one row space and
    one RREF, and the returned nullspace(f2) is nullspace(f) vector for vector.
    Raises NotSemisimpleError unless f kills each of its vectors.
    """
    ker = nullspace(f2)
    if any(any(mat_vec(f, v)) for v in ker):
        raise NotSemisimpleError("Ker f^2 is larger than Ker f: the operator is not semisimple")
    return ker


class TcElement:
    __slots__ = ("rd", "depth", "coeffs")

    def __init__(self, rd, depth, coeffs=None):
        self.rd = rd
        self.depth = depth
        if coeffs is None:
            coeffs = [GElement.zero(rd) for _ in range(depth)]
        if len(coeffs) != depth:
            raise ValueError("coefficient list does not match the depth")
        for k, g in enumerate(coeffs):
            if not isinstance(g, GElement) or g.rd is not rd:
                raise ValueError(f"coefficient {k} ({g!r}) is not an element of {rd.label}")
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_parts(cls, rd, depth, parts):
        """parts: iterable of (eps_degree, GElement)."""
        cs = [GElement.zero(rd) for _ in range(depth)]
        for d, g in parts:
            if 0 <= d < depth:
                cs[d] = cs[d] + g
        return cls(rd, depth, cs)

    @classmethod
    def pure(cls, rd, depth, d, g):
        return cls.from_parts(rd, depth, [(d, g)])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        return TcElement(self.rd, self.depth, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TcElement(self.rd, self.depth, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        return TcElement(self.rd, self.depth, [g.scale(c) for g in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, TcElement) and self.rd is other.rd
                and self.depth == other.depth and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.depth, self.coeffs))

    def _check(self, other):
        if self.rd is not other.rd:
            raise ValueError("elements over different root data")
        if self.depth != other.depth:
            raise ValueError(f"depth mismatch: {self.depth} != {other.depth}")

    def bracket(self, other):
        """Degree-l coefficient = sum of [X_i, Y_j] over i + j = l, truncated."""
        self._check(other)
        xs, ys = ([p for d, g in enumerate(x.coeffs) for p in g._letters(d)] for x in (self, other))
        return TcElement(self.rd, self.depth, _bracket(self.rd, self.depth, xs, ys))

    def pairing_c(self, other, c):
        """(X e^i | Y e^j)_c = (X|Y) delta_{i+j,c-1}."""
        self._check(other)
        out = Zero
        for i, xi in enumerate(self.coeffs):
            j = c - 1 - i
            if 0 <= j < self.depth and not xi.is_zero():
                out += xi.pairing(other.coeffs[j])
        return out

    def transpose(self):
        return TcElement(self.rd, self.depth, [g.transpose() for g in self.coeffs])

    def truncate(self, k):
        """tau_k: the depth-k prefix."""
        return TcElement(self.rd, k, list(self.coeffs[:k]))

    def in_birkhoff(self):
        return self.coeffs[0].is_zero()

    def coords(self):
        out = []
        for g in self.coeffs:
            out.extend(g.coords())
        return out

    @classmethod
    def from_coords(cls, rd, depth, v):
        n = rd.dim_g
        return cls(rd, depth, [GElement.from_coords(rd, v[k * n:(k + 1) * n]) for k in range(depth)])

    def to_json(self):
        return {
            "depth": self.depth,
            "coeffs": [{
                "cartan": [frac_str(x) for x in g.cartan],
                "roots": {str(i): frac_str(c) for i, c in sorted(g.root.items())},
            } for g in self.coeffs],
        }

    @classmethod
    def from_json(cls, rd, data):
        depth = data["depth"]
        coeffs = []
        for entry in data["coeffs"]:
            cartan = [frac(x) for x in entry.get("cartan", ["0"] * rd.dim_t)]
            root = {int(i): frac(c) for i, c in entry.get("roots", {}).items()}
            coeffs.append(GElement(rd, cartan, root))
        return cls(rd, depth, coeffs)

    def __repr__(self):
        parts = [f"({g})*e^{d}" for d, g in enumerate(self.coeffs) if not g.is_zero()]
        return " + ".join(parts) if parts else "0"


def exp_ad(y: TcElement, x: TcElement) -> TcElement:
    """exp(ad_y) x for y in the Birkhoff ideal (nilpotent, hence exact)."""
    if not y.in_birkhoff():
        raise ValueError("gauge generator must lie in eps * g_r")
    out = x
    term = x
    k = 1
    while True:
        term = y.bracket(term).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
        k += 1


def pairing_invariance_defect(z: TcElement, x: TcElement, y: TcElement, c: int):
    """( [z,x] | y )_c + ( x | [z,y] )_c: zero for all triples iff c = depth."""
    return z.bracket(x).pairing_c(y, c) + x.pairing_c(z.bracket(y), c)
