import itertools
import math
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildstrat import linalg, uea
from wildstrat.elements import GElement, TcElement
from wildstrat.linalg import CPoly, Zero, frac
from wildstrat.rootdata import root_datum
from per_basis import tc_basis


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=6)


# -- reference eliminations ---------------------------------------------------------
# The Fraction eliminations that the integer kernel of `linalg` replaced, kept
# as oracles: Gauss-Jordan, forward elimination for det, the incremental echelon
# of powers for minimal polynomials, and Euclid for the squarefree test.


def ref_rref(m):
    m = [list(row) for row in m]
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


def ref_det(m):
    m = [list(row) for row in m]
    n = len(m)
    sign = frac(1)
    out = frac(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * out


def ref_minimal_polynomial(m):
    """Each flattened power reduced against an echelon basis of the earlier
    ones, every basis row carrying its combination of powers."""
    power = linalg.identity(len(m))
    basis = []
    k = 0
    while True:
        row = [x for r in power for x in r]
        comb = [Zero] * k + [frac(1)]
        for p, brow, bcomb in basis:
            f = row[p]
            if f != 0:
                row = [a - f * b for a, b in zip(row, brow)]
                comb = [a - f * b for a, b in zip(comb, bcomb)] + comb[len(bcomb):]
        p = next((i for i, x in enumerate(row) if x != 0), None)
        if p is None:
            return comb
        basis.append((p, [x / row[p] for x in row], [x / row[p] for x in comb]))
        power = linalg.mat_mul(power, m)
        k += 1


def ref_poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_poly_scale(p, c):
    return ref_poly_trim([c * x for x in p])


def ref_poly_deriv(p):
    return ref_poly_trim([Fraction(i) * p[i] for i in range(1, len(p))])


def ref_poly_divmod(p, q):
    p = list(p)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    lead = q[-1]
    quo = [Zero] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and ref_poly_trim(p):
        dp = len(p) - 1
        c = p[-1] / lead
        quo[dp - dq] = c
        for i in range(dq + 1):
            p[dp - dq + i] -= c * q[i]
        ref_poly_trim(p)
    return ref_poly_trim(quo), ref_poly_trim(p)


def ref_poly_gcd(p, q):
    """Monic gcd by Euclid on coefficient lists (index = degree)."""
    p, q = ref_poly_trim(list(p)), ref_poly_trim(list(q))
    while q:
        p, q = q, ref_poly_divmod(p, q)[1]
    if p:
        p = ref_poly_scale(p, 1 / p[-1])
    return p


def ref_is_squarefree(p):
    return len(ref_poly_gcd(p, ref_poly_deriv(p))) <= 1


# -- the Bareiss elimination ---------------------------------------------------------
# The fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) that the
# primitive-row elimination of `linalg` replaced, with readers in the shape of
# the ones it fed: every entry of its rows is a minor of the scaled matrix.


def bareiss_eliminate(m):
    """(rows, pivots, d, scale, sign): the integer rows, equal to d times the
    reduced row echelon form; the pivot columns; the last pivot d (1 without
    pivots); the product of the row scales; and the sign of the row swaps."""
    rows = []
    scale = 1
    for row in m:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        rows.append([x.numerator * (s // x.denominator) for x in row])
    n = len(rows)
    pivots = []
    d = sign = 1
    r = 0
    for c in range(len(rows[0]) if n else 0):
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                rows[i] = [p * a // d for a in row]
        pivots.append(c)
        d = p
        r += 1
    return rows, pivots, d, scale, sign


def bareiss_rref(m):
    rows, pivots, d, _, _ = bareiss_eliminate(m)
    return [[Fraction(x, d) if x else Zero for x in row] for row in rows], pivots


def bareiss_nullspace(m):
    cols = len(m[0])
    red, pivots = bareiss_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Zero] * cols
        v[fc] = frac(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def bareiss_solve(m, b):
    cols = len(m[0])
    red, pivots = bareiss_rref([list(row) + [x] for row, x in zip(m, b)])
    if cols in pivots:
        return None
    x = [Zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def bareiss_inverse(m):
    n = len(m)
    red, pivots = bareiss_rref([list(row) + e for row, e in zip(m, linalg.identity(n))])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def bareiss_det(m):
    _, pivots, d, scale, sign = bareiss_eliminate(m)
    return Fraction(sign * d, scale) if len(pivots) == len(m) else Zero


def bareiss_minimal_polynomial(m):
    n = len(m)
    powers = [linalg.identity(n)]
    for _ in range(n):
        powers.append(linalg.mat_mul(powers[-1], m))
    red, pivots = bareiss_rref(linalg.transpose([[x for row in p for x in row] for p in powers]))
    k = len(pivots)
    return [-red[i][k] for i in range(k)] + [frac(1)]


# -- seeded cases ------------------------------------------------------------------


def _random_matrix(rng, rows, cols, dens=(1, 2, 3, 4, 6), density=0.7):
    return [[Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < density else Zero
             for _ in range(cols)] for _ in range(rows)]


def kernel_cases():
    """Seeded matrices for the elimination oracles: empty, zero rows and
    columns, wide, tall, integer-only, mixed denominators, rank-deficient, and
    the 42 x 42 centraliser matrix of C3 at depth 2."""
    rng = random.Random(zlib.crc32(b"linalg:kernel"))
    cases = [[], [[]], [[], []], [[Zero] * 4 for _ in range(3)], [[frac(5)]], [[Zero]]]
    for _ in range(4):
        m = _random_matrix(rng, 5, 6)
        for i in (1, 3):
            m[i] = [Zero] * 6
        cases.append(m)
        m = _random_matrix(rng, 6, 5)
        for row in m:
            row[0] = row[3] = Zero
        cases.append(m)
        cases.append(_random_matrix(rng, 3, 8))                       # wide
        cases.append(_random_matrix(rng, 8, 3))                       # tall
        cases.append(_random_matrix(rng, 6, 6, dens=(1,)))            # integer-only
        cases.append(_random_matrix(rng, 6, 7, dens=range(1, 13)))    # mixed denominators
        cases.append(_random_matrix(rng, 7, 7, density=0.3))          # sparse
        for n, k in ((6, 3), (5, 4), (7, 1)):                          # rank k < n
            a, b = _random_matrix(rng, n, k, density=1), _random_matrix(rng, k, n, density=1)
            cases.append(linalg.mat_mul(a, b))
        for n in range(1, 6):
            cases.append(_random_matrix(rng, n, n, density=0.9))
    return cases + [c3_centralizer_matrix()]


def c3_centralizer_matrix():
    """The 42 x 42 matrix of ad_x on g_r whose kernel `orbit.centralizer`
    takes, for a seeded element x of C3 at depth r = 2."""
    rd = root_datum("C", 3)
    rng = random.Random(zlib.crc32(b"centralizer:C3 r=2"))
    x = TcElement(rd, 2, [
        GElement(rd, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rd.dim_t)],
                 {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for i in rng.sample(range(rd.num_roots), 4)})
        for _ in range(2)])
    cols = [x.bracket(b).coords() for b in tc_basis(rd, 2)]
    return [list(row) for row in zip(*cols)]


def int_sparse_cases():
    """Seeded all-int matrices (plain ints, the rows the elimination reads as
    they are): sparse square, wide and tall ones, rows with a common factor, a
    rank-deficient product, a mix of int and Fraction rows, and the C3
    centraliser matrix scaled to ints."""
    rng = random.Random(zlib.crc32(b"linalg:int-sparse"))

    def draw(rows, cols, density):
        return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)]

    cases = []
    for density in (0.1, 0.2, 0.35):
        cases += [draw(12, 12, density), draw(9, 16, density), draw(16, 9, density)]
    common = draw(10, 10, 0.3)
    cases.append([[6 * x for x in row] if i % 2 else row for i, row in enumerate(common)])
    cases.append(linalg.mat_mul(draw(10, 4, 0.5), draw(4, 10, 0.5)))
    mixed = draw(8, 8, 0.3)
    cases.append([[Fraction(x, 3) for x in row] if i % 3 == 0 else row
                  for i, row in enumerate(mixed)])
    cases.append(linalg.integral(c3_centralizer_matrix()))
    return cases


def bareiss_cases():
    """Every kernel case and every all-int sparse case."""
    return kernel_cases() + int_sparse_cases()


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_rref_rank_and_nullspace_vs_bareiss():
    ints = int_sparse_cases()
    assert all(type(x) is int for m in ints[:-2] for row in m for x in row)
    assert len({len(bareiss_rref(m)[1]) for m in ints}) > 4
    for m in bareiss_cases():
        red, pivots = linalg.rref(m)
        assert (red, pivots) == bareiss_rref(m), m
        assert _all_fractions(red)
        assert linalg.rank(m) == len(pivots)
        if m and m[0]:
            kernel = linalg.nullspace(m)
            assert kernel == bareiss_nullspace(m), m
            assert _all_fractions(kernel)


def test_solve_inverse_and_det_vs_bareiss():
    rng = random.Random(zlib.crc32(b"linalg:bareiss-solve"))
    for m in bareiss_cases():
        if not (m and m[0]):
            continue
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in m[0]]
        for b in (linalg.mat_vec(m, v), [Fraction(rng.randint(-5, 5), 2) for _ in m]):
            x = linalg.solve(m, b)
            assert x == bareiss_solve(m, b), (m, b)
            assert x is None or _all_fractions([x])
        if len(m) == len(m[0]):
            assert linalg.det(m) == bareiss_det(m), m
            assert type(linalg.det(m)) is Fraction
            inv = bareiss_inverse(m)
            if inv is None:
                with pytest.raises(ValueError):
                    linalg.inverse(m)
            else:
                assert linalg.inverse(m) == inv, m
                assert _all_fractions(linalg.inverse(m))
            assert linalg.minimal_polynomial(m) == bareiss_minimal_polynomial(m), m


def test_primitive_rows_grow_no_more_than_bareiss():
    """The largest entry of the eliminated rows has at most the bit length of
    Bareiss's: a primitive row divides d times its row of the RREF, and an
    untouched row's pivot divides d."""
    for m in bareiss_cases() + minimal_polynomial_cases():
        ours = linalg._eliminate(m)[0]
        theirs = bareiss_eliminate(m)[0]
        assert (max((abs(x).bit_length() for row in ours for x in row), default=0)
                <= max((abs(x).bit_length() for row in theirs for x in row), default=0)), m


def test_rref_vs_fraction_oracle():
    cases = kernel_cases()
    ranks = {len(ref_rref(m)[1]) for m in cases if m and len(m) == len(m[0])}
    assert {0, 1}.issubset(ranks) and len(ranks) > 3
    assert 0 < len(ref_rref(cases[-1])[1]) < 42
    for m in cases:
        assert linalg.rref(m) == ref_rref(m), m


def test_det_vs_fraction_oracle():
    squares = [m for m in kernel_cases() if len(m) == (len(m[0]) if m else 0)]
    dets = [ref_det(m) for m in squares]
    assert any(d == 0 for d in dets) and any(d != 0 for d in dets)
    assert any(d.denominator > 1 for d in dets)
    for m, d in zip(squares, dets):
        assert linalg.det(m) == d, m


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_and_rank():
    m = [[frac(1), frac(2)], [frac(2), frac(4)]]
    red, piv = linalg.rref(m)
    assert piv == [0]
    assert linalg.rank(m) == 1


def test_nullspace_solves():
    m = [[frac(1), frac(2), frac(3)], [frac(0), frac(1), frac(1)]]
    for v in linalg.nullspace(m):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert len(linalg.nullspace(m)) == 1


def test_inverse_and_det():
    m = [[frac(2), frac(1)], [frac(1), frac(1)]]
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    assert linalg.det(m) == 1
    assert linalg.det([[frac(1), frac(2)], [frac(2), frac(4)]]) == 0


def test_cpoly_arithmetic_matches_the_coercing_constructor():
    """Sums, products (also by a scalar) and negatives, built without
    coercion, equal CPoly(dict) of the same coefficients and store no zero;
    the constructor still rejects floats."""
    rng = random.Random(11)

    def draw():
        return CPoly({rng.randint(-3, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rng.randint(0, 4))})

    for _ in range(300):
        p, q = draw(), draw()
        s = rng.choice([0, 1, -2, Fraction(3, 5)])
        total, prod = {}, {}
        for d, v in p.c.items():
            total[d] = total.get(d, 0) + v
            for e, w in q.c.items():
                prod[d + e] = prod.get(d + e, 0) + v * w
        for d, w in q.c.items():
            total[d] = total.get(d, 0) + w
        for got, want in [(p + q, total), (p * q, prod), (-p, {d: -v for d, v in p.c.items()}),
                          (p * s, {d: v * s for d, v in p.c.items()}), (p - p, {})]:
            assert got == CPoly(want)
            assert all(type(v) is Fraction and v != 0 for v in got.c.values())
    with pytest.raises(TypeError):
        CPoly({0: 0.5})


def test_acc_adds_drops_and_leaves_the_rest():
    """acc adds a new key, drops a key whose sum cancels (Fraction and int
    values alike, and a new key given 0), keeps an int sum an int, and leaves
    the other keys untouched; uea still reads the same function."""
    d = {"f": Fraction(1, 2), "i": 3, "keep": Fraction(5, 3)}
    linalg.acc(d, "f", Fraction(-1, 2))
    linalg.acc(d, "i", -3)
    linalg.acc(d, "zero", 0)
    assert d == {"keep": Fraction(5, 3)}
    linalg.acc(d, "new", 4)
    assert d == {"keep": Fraction(5, 3), "new": 4}
    linalg.acc(d, "new", 2)
    assert d == {"keep": Fraction(5, 3), "new": 6}
    assert type(d["new"]) is int and type(d["keep"]) is Fraction
    assert uea.acc is linalg.acc


def unit_lower_inverse(m):
    """Inverse of a unit lower triangular matrix by forward substitution:
    row i of the inverse is e_i - sum_{k<i} m[i][k] (row k), no division."""
    n = len(m)
    if any(m[i][j] != (1 if i == j else 0) for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not unit lower triangular")
    out = linalg.identity(n)
    for i in range(n):
        row = out[i]
        for k in range(i):
            c = m[i][k]
            if c != 0:
                for j, v in enumerate(out[k][:k + 1]):
                    if v != 0:
                        row[j] -= c * v
    return out


def test_unit_lower_inverse_vs_inverse():
    """The forward-substitution oracle against the rref inverse on seeded
    sparse unit lower triangular matrices; anything else is rejected."""
    rng = random.Random(5)
    for n in range(9):
        for _ in range(4):
            m = [[frac(1) if i == j else
                  (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if j < i and rng.random() < 0.5
                   else frac(0))
                  for j in range(n)] for i in range(n)]
            assert unit_lower_inverse(m) == linalg.inverse(m)
    for bad in ([[frac(2)]], [[frac(1), frac(1)], [frac(0), frac(1)]]):
        with pytest.raises(ValueError):
            unit_lower_inverse(bad)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(fracs, min_size=3, max_size=3))
def test_solve_is_exact(rows, rhs):
    sol = linalg.solve(rows, rhs)
    if sol is not None:
        assert [sum(a * b for a, b in zip(row, sol)) for row in rows] == rhs


def test_minimal_polynomial_diagonal():
    m = [[frac(2), frac(0)], [frac(0), frac(2)]]
    # min poly of 2*I is x - 2
    assert linalg.minimal_polynomial(m) == [frac(-2), frac(1)]
    n = [[frac(0), frac(1)], [frac(0), frac(0)]]
    assert linalg.minimal_polynomial(n) == [frac(0), frac(0), frac(1)]
    assert linalg.is_squarefree([frac(-2), frac(1)])
    assert not linalg.is_squarefree([frac(0), frac(0), frac(1)])


def stacked_minimal_polynomial(m):
    """Oracle: re-rref the stack of all flattened powers at every step, then
    solve for the first power that depends on the earlier ones."""
    power = linalg.identity(len(m))
    flats = []
    while True:
        flat = [x for row in power for x in row]
        flats.append(flat)
        if len(linalg.rref(flats)[1]) < len(flats):
            coeffs = linalg.solve(linalg.transpose(flats[:-1]), flat)
            return [-c for c in coeffs] + [frac(1)]
        power = linalg.mat_mul(power, m)


def sympy_minimal_polynomial(m):
    """Oracle: the least-degree monic divisor of sympy's characteristic
    polynomial that annihilates m."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    mat = sympy.Matrix(m)
    _, factors = sympy.factor_list(mat.charpoly(t).as_expr(), t)
    best = None
    for exps in itertools.product(*(range(1, e + 1) for _, e in factors)):
        p = sympy.Poly(sympy.prod([f ** k for (f, _), k in zip(factors, exps)]), t)
        if best is not None and p.degree() >= best.degree():
            continue
        value = sympy.zeros(*mat.shape)
        for coeff in p.all_coeffs():
            value = value * mat + coeff * sympy.eye(mat.rows)
        if value.is_zero_matrix:
            best = p
    best = best.monic()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(best.all_coeffs())]


def minimal_polynomial_cases():
    """ad_x and defining matrices of seeded elements of sl2, gl3 and B2, plus
    nilpotent, diagonal and scalar matrices."""
    cases = []
    for lie_type, n in (("sl", 2), ("gl", 3), ("B", 2)):
        rd = root_datum(lie_type, n)
        rng = random.Random(zlib.crc32(f"minpoly:{rd.label}".encode()))
        for trial in range(3):
            x = GElement(rd, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(rd.dim_t)],
                         {i: Fraction(rng.randint(-2, 2)) for i in range(rd.num_roots)
                          if trial == 0 or rng.random() < 0.4})
            cases += [x.ad_matrix(), x.defining_matrix()]
    f = frac
    cases += [
        [[f(0), f(1), f(0)], [f(0), f(0), f(1)], [f(0), f(0), f(0)]],  # one Jordan block
        [[f(0), f(1), f(0)], [f(0), f(0), f(0)], [f(0), f(0), f(0)]],  # x^2
        [[f(0)] * 3 for _ in range(3)],                                # zero matrix
        [[f(2), f(0), f(0)], [f(0), Fraction(-1, 2), f(0)], [f(0), f(0), f(2)]],  # repeated diagonal
        [[f(3) if i == j else f(0) for j in range(4)] for i in range(4)],  # scalar
        [[f(1), f(1), f(0)], [f(0), f(1), f(0)], [f(0), f(0), f(5)]],  # Jordan block + eigenvalue
    ]
    return cases


def test_minimal_polynomial_vs_stacked_oracle():
    for m in minimal_polynomial_cases():
        p = linalg.minimal_polynomial(m)
        assert p == stacked_minimal_polynomial(m), m
        assert p[-1] == 1


def test_minimal_polynomial_vs_incremental_oracle():
    corner = [row[:8] for row in c3_centralizer_matrix()[:8]]
    for m in minimal_polynomial_cases() + [[], [[frac(7)]], corner]:
        assert linalg.minimal_polynomial(m) == ref_minimal_polynomial(m), m


def test_minimal_polynomial_vs_sympy():
    for m in minimal_polynomial_cases():
        assert linalg.minimal_polynomial(m) == sympy_minimal_polynomial(m), m


def test_is_squarefree_vs_euclid_oracle():
    """Products c * prod (x - a_i)^e_i with seeded rational roots, times an
    optional irreducible x^2 + 1: squarefree iff every multiplicity is one,
    and Euclid's gcd with p' is the monic prod (x - a_i)^(e_i - 1)."""
    rng = random.Random(zlib.crc32(b"linalg:squarefree"))
    x_minus_1 = [frac(-1), frac(1)]
    assert ref_poly_gcd([frac(-1), frac(0), frac(1)], x_minus_1) == x_minus_1
    seen = set()
    for trial in range(40):
        roots = rng.sample(sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)}),
                           rng.randint(0, 4))
        exps = [rng.choice((1, 1, 2, 3)) for _ in roots]
        quad = trial % 3
        lead = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        p, repeated = [lead], [frac(1)]
        for a, e in zip(roots, exps):
            for k in range(e):
                p = linalg.mat_mul([p], _times_linear(len(p), -a))[0]
                if k:
                    repeated = linalg.mat_mul([repeated], _times_linear(len(repeated), -a))[0]
        for k in range(quad):
            p = linalg.mat_mul([p], _times_quadratic(len(p)))[0]
            if k:
                repeated = linalg.mat_mul([repeated], _times_quadratic(len(repeated)))[0]
        squarefree = all(e == 1 for e in exps) and quad < 2
        assert ref_poly_gcd(p, ref_poly_deriv(p)) == repeated, p
        assert linalg.is_squarefree(p) == ref_is_squarefree(p) == squarefree, p
        seen.add((len(p) - 1, squarefree))
    assert {(0, True), (1, True)} <= seen and len({d for d, sf in seen if not sf}) > 3


def _times_linear(n, a):
    """Matrix of multiplication by (x + a) on coefficient rows of length n."""
    return [[a if j == i else (frac(1) if j == i + 1 else Zero) for j in range(n + 1)]
            for i in range(n)]


def _times_quadratic(n):
    """Matrix of multiplication by (x^2 + 1) on coefficient rows of length n."""
    return [[frac(1) if j in (i, i + 2) else Zero for j in range(n + 2)] for i in range(n)]


def test_generic_point_takes_the_least_t_or_none():
    """sum_k t^k b_k at the least t >= 1 where no covector vanishes, and
    None when a covector vanishes on every basis vector."""
    basis = [[frac(1), Zero], [Zero, frac(1)]]
    # <(1, -1)|(1, t)> = 1 - t and <(2, -1)|(1, t)> = 2 - t vanish at t = 1, 2
    point = linalg.generic_point(basis, [[frac(1), frac(-1)], [frac(2), frac(-1)]])
    assert point == (1, 3) and all(isinstance(x, Fraction) for x in point)
    assert linalg.generic_point(basis, []) == (1, 1)
    assert linalg.generic_point([[frac(1), frac(1), Zero]], [[frac(1), frac(-1), frac(5)]]) is None
    assert linalg.generic_point([], [[frac(1)]]) is None


def test_cpoly_arithmetic():
    c = CPoly({1: 1})
    h = CPoly({-1: 1})
    assert c * h == CPoly.const(1)
    p = (c + 2) * (c - 2)
    assert p == CPoly({2: 1, 0: -4})
    assert p.coeff(2) == 1 and p.coeff(1) == 0 and p.degree() == 2
    assert CPoly({0: 0, 3: Fraction(3, 2)}).c == {3: Fraction(3, 2)}
    assert 2 * c - c * 2 == CPoly() and not CPoly() and CPoly().degree() is None
    assert (h + h * h) * Fraction(1, 2) == CPoly({-1: Fraction(1, 2), -2: Fraction(1, 2)})
    assert 1 - c == -(c - 1) == CPoly({0: 1, 1: -1})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-3, 3), fracs, max_size=4),
       st.dictionaries(st.integers(-3, 3), fracs, max_size=4))
def test_cpoly_ring_axioms(a, b):
    p, q = CPoly(a), CPoly(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
