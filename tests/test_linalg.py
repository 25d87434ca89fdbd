import itertools
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildstrat import linalg
from wildstrat.elements import GElement
from wildstrat.linalg import CPoly, frac
from wildstrat.rootdata import root_datum


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=6)


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


def test_unit_lower_inverse_vs_inverse():
    """Forward substitution against the rref inverse on seeded sparse unit
    lower triangular matrices; anything else is rejected."""
    rng = random.Random(5)
    for n in range(9):
        for _ in range(4):
            m = [[frac(1) if i == j else
                  (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if j < i and rng.random() < 0.5
                   else frac(0))
                  for j in range(n)] for i in range(n)]
            assert linalg.unit_lower_inverse(m) == linalg.inverse(m)
    for bad in ([[frac(2)]], [[frac(1), frac(1)], [frac(0), frac(1)]]):
        with pytest.raises(ValueError):
            linalg.unit_lower_inverse(bad)


@settings(max_examples=25, deadline=None)
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
            return linalg.poly_trim([-c for c in coeffs] + [frac(1)])
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


def test_minimal_polynomial_vs_sympy():
    for m in minimal_polynomial_cases():
        assert linalg.minimal_polynomial(m) == sympy_minimal_polynomial(m), m


def test_poly_gcd():
    # gcd(x^2 - 1, x - 1) = x - 1 (monic)
    g = linalg.poly_gcd([frac(-1), frac(0), frac(1)], [frac(-1), frac(1)])
    assert g == [frac(-1), frac(1)]


def test_cpoly_arithmetic():
    c = CPoly.var()
    h = CPoly.var(-1)
    assert c * h == CPoly.const(1)
    p = (c + 2) * (c - 2)
    assert p == CPoly({2: 1, 0: -4})
    assert p.coeff(2) == 1 and p.coeff(1) == 0
    assert p.evaluate(3) == 5
    assert (c ** 0 if False else CPoly.const(1)).is_constant()
    assert (h + h * h).truncate_below(-1) == h
    assert (2 * c).shift(-1) == CPoly.const(2)
    assert CPoly.const(Fraction(3, 2)).as_fraction() == Fraction(3, 2)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), fracs, max_size=4),
       st.dictionaries(st.integers(-3, 3), fracs, max_size=4))
def test_cpoly_ring_axioms(a, b):
    p, q = CPoly(a), CPoly(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
