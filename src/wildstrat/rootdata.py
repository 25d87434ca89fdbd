"""Split reductive Lie algebras presented by root data.

A RootDatum packages a Cartan subalgebra basis, the roots (as integer
covectors on that basis), coroots, a Chevalley structure-constant table
N(a,b) for [E_a, E_b] = N(a,b) E_{a+b}, and the simple reflections that
generate the Weyl group (the full list of W is built only on request).
Roots, coroots and N(a,b) are Python ints, checked integral when read.

The supported types are built from exact matrix realizations (gl_n, sl_n,
and the classical series B/C/D via the standard antidiagonal bilinear
forms), so every root, coroot and structure constant comes out of an honest
matrix commutator.  The Chevalley axioms and the Jacobi identity are verified
at construction time and a violation raises immediately.

The bracket of g_r = g (x) C[e]/e^r basis letters (letter_bracket) reads these
tables and is the one bracket of the package: elements extend it bilinearly,
and at depth 1 it is the bracket of g that the Jacobi check uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import (One, Zero, acc, dot, frac_str, generic_point, identity, mat_mul,
                     mat_vec, nullspace, solve)


class RootDatumError(ValueError):
    pass


def _matrix(n, *entries):
    """The n x n integer matrix with the given (row, col, value) entries, zero
    elsewhere."""
    m = [[0] * n for _ in range(n)]
    for r, c, v in entries:
        m[r][c] = v
    return m


def _entries(m):
    """The nonzero entries of a matrix, {(row, col): value} in row-major order."""
    return {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x}


def _commutator(a, b):
    """Nonzero entries of ab - ba, for matrices given by their nonzero entries
    (a loop over pairs of entries: root matrices have at most two each)."""
    out = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if k == l:
                acc(out, (i, j), x * y)
            if j == i:
                acc(out, (l, k), -y * x)
    return out


def _multiple_of(m, e):
    """c with m = c e (matrices as nonzero entries), as a Fraction, or None.

    c is read off the first entry of e; then the supports are compared and
    the entries on the support checked by cross-multiplication.
    """
    p = next(iter(e), None)
    if p is None:
        return None
    mp, ep = m.get(p, 0), e[p]
    if not mp:
        return None if m else Zero
    if m.keys() != e.keys() or any(x * ep != mp * e[q] for q, x in m.items()):
        return None
    return Fraction(mp, ep)


def _integral(xs, what):
    """The rationals xs as a tuple of ints, or a RootDatumError naming what."""
    if any(x.denominator != 1 for x in xs):
        raise RootDatumError(f"{what} is not integral on the Cartan basis: "
                             f"({', '.join(map(frac_str, xs))})")
    return tuple(x.numerator for x in xs)


def _trace_product(a, b):
    """tr(ab) for matrices given by their nonzero entries."""
    return sum(x * b[k, i] for (i, k), x in a.items() if (k, i) in b)


class WeylElement:
    """A Weyl group element: a permutation of the root list plus its matrix on t."""

    __slots__ = ("perm", "tmat")

    def __init__(self, perm, tmat):
        self.perm = tuple(perm)
        self.tmat = tuple(tuple(row) for row in tmat)

    def __eq__(self, other):
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def apply_cartan(self, v):
        return tuple(mat_vec(self.tmat, v))


class RootDatum:
    def __init__(self, lie_type, n, *, t_mats, root_mats):
        """t_mats: the Cartan basis H_t; root_mats: the root vectors E_a.  Each
        root is read off its matrix: [H_t, E_a] = <a|H_t> E_a."""
        self.lie_type = lie_type
        self.n = n
        self.label = f"{lie_type}{n}"
        self.dim_t = len(t_mats)
        self._t_mats = t_mats
        self._root_mats = root_mats
        self._root_entries = [_entries(m) for m in root_mats]
        self._t_entries = [_entries(m) for m in t_mats]
        self.roots = tuple(self._covector(k, e) for k, e in enumerate(self._root_entries))
        self.num_roots = len(self.roots)
        self.dim_g = self.dim_t + self.num_roots
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        if len(self.root_index) != self.num_roots:
            raise RootDatumError("repeated roots")
        self.neg = tuple(self.root_index[tuple(-x for x in r)] for r in self.roots)
        self._center = None
        self._build_tables()
        self._build_base_and_weyl()
        self._build_gram()
        self.verify()

    # -- construction ------------------------------------------------------

    def _covector(self, k, e):
        """<a|H_t> over the Cartan basis, for the root vector E_a (root k) given
        by its entries; integral."""
        cov = [_multiple_of(_commutator(h, e), e) for h in self._t_entries]
        if None in cov:
            raise RootDatumError("root matrix is not an eigenvector of the Cartan subalgebra")
        return _integral(cov, f"root {k} of {self.label}")

    def _build_tables(self):
        mats = self._root_entries
        # coroots: [E_a, E_{-a}] solved on the Cartan matrices alone, on the
        # positions where some Cartan matrix is nonzero; a commutator entry
        # off those positions cannot be matched
        support = set().union(*self._t_entries)
        positions = sorted(support)
        cartan = [[e.get(p, 0) for e in self._t_entries] for p in positions]
        self.coroots = []
        for i in range(self.num_roots):
            br = _commutator(mats[i], mats[self.neg[i]])
            co = None
            if br.keys() <= support:
                co = solve(cartan, [br.get(p, 0) for p in positions])
            if co is None:
                raise RootDatumError("[E_a, E_{-a}] not in the Cartan subalgebra")
            self.coroots.append(_integral(co, f"coroot {i} of {self.label}"))
        # N(a,b): [E_a, E_b] must be a multiple of E_{a+b}, or vanish when a+b
        # is no root
        nsc = {}
        self.root_sum = {}
        for i in range(self.num_roots):
            for j in range(self.num_roots):
                s = tuple(a + b for a, b in zip(self.roots[i], self.roots[j]))
                k = self.root_sum[(i, j)] = self.root_index.get(s)
                if j == self.neg[i]:
                    continue
                br = _commutator(mats[i], mats[j])
                if k is None:
                    if br:
                        raise RootDatumError("bracket escapes the root decomposition")
                    continue
                c = _multiple_of(br, mats[k])
                if c is None:
                    raise RootDatumError("bracket not a multiple of a single root vector")
                if c != 0:
                    nsc[(i, j)] = _integral([c], f"N({i},{j}) of {self.label}")[0]
        self.nsc = nsc

    def pair(self, root_idx, cartan_vec):
        """<alpha | H> for a Cartan coordinate vector."""
        return dot(self.roots[root_idx], cartan_vec)

    def cartan_integer(self, i, j):
        """<alpha_i | coroot_j>."""
        return self.pair(i, self.coroots[j])

    def _build_base_and_weyl(self):
        # positive roots: those with positive pairing against a generic vector
        # (an int vector: the basis is the int identity)
        n = self.dim_t
        xi = generic_point([[int(r == c) for c in range(n)] for r in range(n)], self.roots)
        self.positive = tuple(i for i in range(self.num_roots) if self.pair(i, xi) > 0)
        self.simple = self.base(self.positive)
        # <alpha_i|alpha_j^v> over the base: ints, as roots and coroots are
        self.cartan_matrix = [[self.cartan_integer(i, j) for j in self.simple]
                              for i in self.simple]
        self.simple_reflections = tuple(self.reflection(i) for i in self.simple)

    def base(self, pos):
        """The simple roots of a positive system (sorted root indices): its
        roots that are no sum of two of its roots."""
        sums = {self.root_sum[i, j] for i in pos for j in pos}
        return tuple(i for i in pos if i not in sums)

    def reflection(self, i):
        """Reflection in root i, as permutation of the roots and matrix on t."""
        co = self.coroots[i]
        al = self.roots[i]
        perm = []
        for j in range(self.num_roots):
            img = tuple(a - self.pair(j, co) * b for a, b in zip(self.roots[j], al))
            k = self.root_index.get(img)
            if k is None:
                raise RootDatumError("reflection does not permute the roots")
            perm.append(k)
        n = self.dim_t
        # s(H) = H - <alpha|H> alpha^v ; entry (r,c) = delta - coroot[r]*alpha[c]
        tmat = [[(r == c) - co[r] * al[c] for c in range(n)]
                for r in range(n)]
        return WeylElement(perm, tmat)

    @cached_property
    def weyl(self):
        """Every element of W, breadth first over the simple reflections."""
        ident = WeylElement(tuple(range(self.num_roots)), identity(self.dim_t))
        seen = {ident.perm: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.simple_reflections:
                    perm = tuple(g.perm[w.perm[i]] for i in range(self.num_roots))
                    if perm not in seen:
                        tmat = mat_mul(g.tmat, [list(r) for r in w.tmat])
                        new = WeylElement(perm, tmat)
                        seen[perm] = new
                        nxt.append(new)
            frontier = nxt
        return tuple(seen.values())

    def _build_gram(self):
        """Invariant form: the defining-representation trace form, rescaled so
        that the first simple root has (E_a | E_{-a}) = 1 (unscaled when there
        are no roots).

        On gl_n and the A series this makes every (E_a | E_{-a}) = 1 and the
        Cartan part the plain trace form; for B/C the constants necessarily
        differ between root lengths (no invariant form has them all equal).
        """
        mats = self._root_entries
        # with no roots (gl_1) the plain trace form on t is kept
        base = One
        if self.simple:
            a0 = self.simple[0]
            base = _trace_product(mats[a0], mats[self.neg[a0]])
            if base == 0:
                raise RootDatumError("degenerate trace form on the first simple root")
        scale = One / base
        self.e_pair = tuple(scale * _trace_product(mats[i], mats[self.neg[i]])
                            for i in range(self.num_roots))
        ts = self._t_entries
        self.gram = [[scale * _trace_product(a, b) for b in ts] for a in ts]
        # normalization sanity (gram is symmetric): (H_a | H) = <a|H> (E_a|E_{-a}) for all a, H
        for co, root, e in zip(self.coroots, self.roots, self.e_pair):
            if mat_vec(self.gram, co) != [x * e for x in root]:
                raise RootDatumError("invariant form fails the coroot normalization")

    # -- verification ------------------------------------------------------

    def verify(self):
        self._verify_root_system()
        self._verify_chevalley()
        self._verify_jacobi()

    def _verify_root_system(self):
        """Negation is an involution and <a|a^v> = 2; every <a|b^v> is an
        integer, as the roots and coroots are checked integral when read."""
        for i in range(self.num_roots):
            if self.neg[self.neg[i]] != i:
                raise RootDatumError("negation is not an involution")
            if self.pair(i, self.coroots[i]) != 2:
                raise RootDatumError("<a|a^v> != 2")

    def _string_p(self, i, j):
        """p = max{k : a_j - k a_i in Phi} for i != -j."""
        p = 0
        cur = self.roots[j]
        while True:
            cur = tuple(a - b for a, b in zip(cur, self.roots[i]))
            if cur in self.root_index:
                p += 1
            else:
                return p

    def _verify_chevalley(self):
        for i in range(self.num_roots):
            for j in range(self.num_roots):
                if j == self.neg[i]:
                    continue
                k = self.root_sum[(i, j)]
                c = self.nsc.get((i, j))
                if k is None:
                    if c is not None:
                        raise RootDatumError("nonzero N for a non-root sum")
                    continue
                p = self._string_p(i, j)
                if c is None or abs(c) != p + 1:
                    raise RootDatumError(
                        f"|N| != p+1 at ({self.roots[i]}, {self.roots[j]}): N={c}, p={p}")
                # transpose compatibility: N(-a,-b) = -N(a,b)
                if self.nsc.get((self.neg[i], self.neg[j])) != -c:
                    raise RootDatumError("N(-a,-b) != -N(a,b)")

    def _verify_jacobi(self):
        """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 on the basis triples whose
        weight sum lies in Phi or is 0: letter_bracket only produces letters of
        the summed weight, so on every other triple each term is empty."""
        # the depth-1 letters are the (t, roots) basis, in that order
        basis = all_letters(self, 1)
        # each weight as one int, its entries as digits in the balanced base
        # 6m + 1: a sum of three weights has its entries in [-3m, 3m], so it is
        # the digits of the weight sum
        m = max((abs(x) for r in self.roots for x in r), default=0)
        code = [sum(x * (6 * m + 1) ** t for t, x in enumerate(r)) for r in self.roots]
        weights = [0] * self.dim_t + code
        sums = set(code) | {0}
        dim = self.dim_g
        for a in range(dim):
            for b in range(a + 1, dim):
                wab = weights[a] + weights[b]
                for c in range(b + 1, dim):
                    if wab + weights[c] not in sums:
                        continue
                    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0
                    total = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        for co, w in letter_bracket(self, 1, basis[x], basis[y]):
                            for co2, v in letter_bracket(self, 1, w, basis[z]):
                                acc(total, v, co * co2)
                    if total:
                        raise RootDatumError(f"Jacobi identity fails on basis triple {(a, b, c)}")

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "type": self.lie_type,
            "rank": self.n,
            "roots": [[int(x) for x in r] for r in self.roots],
            "cartan_matrix": self.cartan_matrix,
            "structure_constants": {f"{i},{j}": frac_str(c) for (i, j), c in sorted(self.nsc.items())},
        }

    def center_basis(self):
        """Basis of the center of g in Cartan coordinates, computed once."""
        if self._center is None:
            self._center = nullspace([list(r) for r in self.roots], cols=self.dim_t)
        return self._center

    def defining_matrix(self, basis_index):
        """Matrix of a basis element (t basis, then roots) in the defining representation."""
        if basis_index < self.dim_t:
            return self._t_mats[basis_index]
        return self._root_mats[basis_index - self.dim_t]

    def __repr__(self):
        return f"RootDatum({self.label}, {self.num_roots} roots, rank t = {self.dim_t})"


def letter_bracket(rd, depth, a, b):
    """[a, b] of two g_r letters as a list of (coeff, letter).

    Empty when the epsilon degrees add up to depth or more (e^r = 0).  A
    letter of any other kind, such as the dilation letter ("c", 0, 0), is
    central: it brackets to zero.
    """
    deg = a[2] + b[2]
    if deg >= depth:
        return []
    out = []
    ka, kb = a[0], b[0]
    if ka == "H" and kb == "E":
        c = rd.roots[b[1]][a[1]]
        if c != 0:
            out.append((c, ("E", b[1], deg)))
    elif ka == "E" and kb == "H":
        c = rd.roots[a[1]][b[1]]
        if c != 0:
            out.append((-c, ("E", a[1], deg)))
    elif ka == "E" and kb == "E":
        i, j = a[1], b[1]
        if j == rd.neg[i]:
            for t, c in enumerate(rd.coroots[i]):
                if c != 0:
                    out.append((c, ("H", t, deg)))
        else:
            n = rd.nsc.get((i, j))
            if n is not None:
                out.append((n, ("E", rd.root_sum[(i, j)], deg)))
    return out


def all_letters(rd, depth):
    """Every basis letter of g_r: Cartan letters first, then root letters."""
    return ([("H", t, i) for t in range(rd.dim_t) for i in range(depth)]
            + [("E", b, i) for b in range(rd.num_roots) for i in range(depth)])


# ---------------------------------------------------------------------------
# matrix realizations
# ---------------------------------------------------------------------------


def _build_type_a(kind, n):
    """gl_n on the diagonal units E_ii, sl_n on E_ii - E_{i+1,i+1}; in both the
    root vectors are the units E_ij, i != j."""
    if kind == "gl":
        t_mats = [_matrix(n, (i, i, 1)) for i in range(n)]
    else:
        t_mats = [_matrix(n, (i, i, 1), (i + 1, i + 1, -1)) for i in range(n - 1)]
    root_mats = [_matrix(n, (i, j, 1)) for i in range(n) for j in range(n) if i != j]
    return RootDatum(kind, n, t_mats=t_mats, root_mats=root_mats)


def _build_classical(kind, n):
    """Types B_n, C_n, D_n as so(2n+1), sp(2n), so(2n) for the antidiagonal
    forms (antidiag(1..1,2,1..1) for B), with i' = size - 1 - i.

    Roots in order: e_i - e_j as E_ij - E_j'i'; then for i < j, e_i + e_j as
    E_ij' + s E_ji' and -(e_i + e_j) as E_j'i + s E_i'j, with s = +1 for C and
    -1 for B and D; then +-e_i through the centre (B) or +-2e_i (C).
    """
    size = 2 * n + (kind == "B")
    s = 1 if kind == "C" else -1

    def pr(i):  # 0-based primed index
        return size - 1 - i

    t_mats = [_matrix(size, (i, i, 1), (pr(i), pr(i), -1)) for i in range(n)]
    roots = [_matrix(size, (i, j, 1), (pr(j), pr(i), -1))
             for i in range(n) for j in range(n) if i != j]
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(_matrix(size, (i, pr(j), 1), (j, pr(i), s)))
            roots.append(_matrix(size, (pr(j), i, 1), (pr(i), j, s)))
    for i in range(n):
        if kind == "B":  # n is the centre
            roots.append(_matrix(size, (i, n, 2), (n, pr(i), -1)))
            roots.append(_matrix(size, (n, i, 1), (pr(i), n, -2)))
        elif kind == "C":
            roots.append(_matrix(size, (i, pr(i), 1)))
            roots.append(_matrix(size, (pr(i), i, 1)))
    return RootDatum(kind, n, t_mats=t_mats, root_mats=roots)


_BUILDERS = {
    "gl": lambda n: _build_type_a("gl", n),
    "sl": lambda n: _build_type_a("sl", n),
    "A": lambda n: _build_type_a("sl", n + 1),
    "B": lambda n: _build_classical("B", n),
    "C": lambda n: _build_classical("C", n),
    "D": lambda n: _build_classical("D", n),
}


@lru_cache(maxsize=None)
def root_datum(lie_type, n):
    """Build (and cache) the root datum of the given classical type."""
    if lie_type not in _BUILDERS:
        raise RootDatumError(f"unsupported type {lie_type!r}; choose from {sorted(_BUILDERS)}")
    if n < 1 or (lie_type in ("sl",) and n < 2) or (lie_type == "D" and n < 2):
        raise RootDatumError(f"rank {n} out of range for type {lie_type}")
    rd = _BUILDERS[lie_type](n)
    rd.label = f"{lie_type}{n}"
    return rd


def parse_type(name):
    """Parse labels like 'gl3', 'sl2', 'B2', 'A2' into a root datum."""
    name = name.strip()
    for prefix in ("gl", "sl", "A", "B", "C", "D"):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                continue
            return root_datum(prefix, n)
    raise RootDatumError(f"cannot parse Lie type {name!r}")
