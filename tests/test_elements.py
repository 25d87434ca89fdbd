import gc
import random
import weakref
import zlib
from fractions import Fraction

import pytest

from wildstrat import linalg
from wildstrat.elements import (GElement, NotSemisimpleError, TcElement, exp_ad,
                                is_semisimple, pairing_invariance_defect, semisimple_split)
from wildstrat.linalg import Zero, mat_mul, minimal_polynomial, is_squarefree, nullspace
from wildstrat.rootdata import root_datum
from wildstrat.strat import ClaimViolation
from conftest import gl_root_index
from per_basis import g_basis, oracle_ad_matrix, tc_basis


def rand_gelement(rd, rng, cartan=True, roots=True):
    g = GElement.zero(rd)
    if cartan:
        g = g + GElement.cartan_vec(
            rd, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rd.dim_t)))
    if roots:
        for i in range(rd.num_roots):
            g = g + GElement.root_vec(rd, i, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return g


def test_sl2_defining_relations(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    assert H.bracket(E) == E.scale(2)
    assert E.bracket(F) == H
    assert H.bracket(F) == F.scale(-2)


# realisations whose brackets are checked against the defining representation
BRACKET_TYPES = [("gl", 3), ("sl", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4)]


def _matrix_commutator(x, y):
    mx, my = x.defining_matrix(), y.defining_matrix()
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mat_mul(mx, my), mat_mul(my, mx))]


def test_gl3_bracket_oracle(gl3):
    # oracle: the matrix commutator in the defining representation
    i12 = gl_root_index(gl3, 0, 1)
    i23 = gl_root_index(gl3, 1, 2)
    i13 = gl_root_index(gl3, 0, 2)
    assert GElement.root_vec(gl3, i12).bracket(GElement.root_vec(gl3, i23)) \
        == GElement.root_vec(gl3, i13)
    rng = random.Random(11)
    for lie_type, n in BRACKET_TYPES:
        rd = root_datum(lie_type, n)
        for _ in range(10):
            x, y = rand_gelement(rd, rng), rand_gelement(rd, rng)
            assert x.bracket(y).defining_matrix() == _matrix_commutator(x, y), rd.label


def test_bracket_bilinear_antisymmetric(gl3):
    rng = random.Random(5)
    for _ in range(5):
        x, y, z = (rand_gelement(gl3, rng) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert x.bracket(y) == y.bracket(x).scale(-1)
        assert (x + y.scale(c)).bracket(z) == x.bracket(z) + y.bracket(z).scale(c)
        # Jacobi on random elements
        j = x.bracket(y).bracket(z) + y.bracket(z).bracket(x) + z.bracket(x).bracket(y)
        assert j.is_zero()


def test_bracket_gr_examples(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # r=2: [H eps, E eps] = 0 (truncated)
    assert TcElement.pure(sl2, 2, 1, H).bracket(TcElement.pure(sl2, 2, 1, E)).is_zero()
    # r=2: [H, E eps] = 2 E eps
    assert TcElement.pure(sl2, 2, 0, H).bracket(TcElement.pure(sl2, 2, 1, E)) \
        == TcElement.pure(sl2, 2, 1, E.scale(2))
    # r=3: [H + F eps, E eps] = 2E eps - H eps^2
    x = TcElement.from_parts(sl2, 3, [(0, H), (1, F)])
    y = TcElement.pure(sl2, 3, 1, E)
    expected = TcElement.from_parts(sl2, 3, [(1, E.scale(2)), (2, H.scale(-1))])
    assert x.bracket(y) == expected


def test_bracket_gr_polynomial_matrix_oracle():
    """Oracle: commutator of matrix polynomials modulo eps^r, at r = 1 and 3."""
    rng = random.Random(23)
    for lie_type, n in BRACKET_TYPES:
        rd = root_datum(lie_type, n)
        for r in (1, 3):
            for _ in range(5):
                x = TcElement(rd, r, [rand_gelement(rd, rng) for _ in range(r)])
                y = TcElement(rd, r, [rand_gelement(rd, rng) for _ in range(r)])
                z = x.bracket(y)
                for l in range(r):
                    acc = None
                    for i in range(l + 1):
                        comm = _matrix_commutator(x.coeffs[i], y.coeffs[l - i])
                        acc = comm if acc is None else [[a + b for a, b in zip(ra, rb)]
                                                        for ra, rb in zip(acc, comm)]
                    assert z.coeffs[l].defining_matrix() == acc, (rd.label, r)


def oracle_bracket(self, other):
    """The exact oracle for GElement.bracket: the case analysis [t, E],
    [E_a, E_-a], N(a, b) on the root-datum tables."""
    self._check(other)
    rd = self.rd
    out_cartan = [Zero] * rd.dim_t
    out_root = {}

    def add_root(i, c):
        if c == 0:
            return
        nc = out_root.get(i, Zero) + c
        if nc == 0:
            out_root.pop(i, None)
        else:
            out_root[i] = nc

    # [t, root part]
    if any(x != 0 for x in self.cartan):
        for j, cj in other.root.items():
            add_root(j, rd.pair(j, self.cartan) * cj)
    if any(x != 0 for x in other.cartan):
        for i, ci in self.root.items():
            add_root(i, -rd.pair(i, other.cartan) * ci)
    # [root, root]
    for i, ci in self.root.items():
        for j, cj in other.root.items():
            if j == rd.neg[i]:
                co = rd.coroots[i]
                f = ci * cj
                for t in range(rd.dim_t):
                    out_cartan[t] += f * co[t]
            else:
                n = rd.nsc.get((i, j))
                if n is not None:
                    add_root(rd.root_sum[(i, j)], ci * cj * n)
    return GElement(rd, out_cartan, out_root)


def oracle_tc_bracket(self, other):
    """The exact oracle for TcElement.bracket: oracle_bracket summed over the
    degree pairs i + j < depth."""
    self._check(other)
    out = [GElement.zero(self.rd) for _ in range(self.depth)]
    for i, xi in enumerate(self.coeffs):
        if xi.is_zero():
            continue
        for j, yj in enumerate(other.coeffs):
            if i + j >= self.depth:
                break
            if yj.is_zero():
                continue
            out[i + j] = out[i + j] + oracle_bracket(xi, yj)
    return TcElement(self.rd, self.depth, out)


@pytest.mark.parametrize("lie_type, n", BRACKET_TYPES, ids=[f"{t}{n}" for t, n in BRACKET_TYPES])
def test_brackets_match_the_case_analysis_oracle(lie_type, n):
    """Both brackets equal the case-analysis oracle exactly: on every pair of
    basis vectors, and on dense and sparse elements at depth 1 and 3."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(rd.label.encode()))
    basis = list(g_basis(rd))
    for x in basis:
        for y in basis:
            assert x.bracket(y) == oracle_bracket(x, y)
    for r in (1, 3):
        for _ in range(4):
            x, y = (TcElement(rd, r, [rand_gelement(rd, rng, cartan=rng.random() < 0.7,
                                                    roots=rng.random() < 0.7)
                                      for _ in range(r)]) for _ in range(2))
            assert x.coeffs[0].bracket(y.coeffs[0]) == oracle_bracket(x.coeffs[0], y.coeffs[0])
            assert x.bracket(y) == oracle_tc_bracket(x, y)


AD_TYPES = [("gl", 3), ("sl", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)]


@pytest.mark.parametrize("lie_type, n", AD_TYPES, ids=[f"{t}{n}" for t, n in AD_TYPES])
def test_ad_matrix_matches_the_per_basis_oracle(lie_type, n):
    """ad_matrix, filled from letter_bracket, is the matrix of the brackets
    with every basis element of g, as a list: on the basis itself, on zero,
    and on dense, Cartan, root-only and sparse draws."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"ad_matrix:{rd.label}".encode()))
    draws = list(g_basis(rd)) + [GElement.zero(rd)]
    draws += [rand_gelement(rd, rng) for _ in range(3)]
    draws += [rand_gelement(rd, rng, roots=False), rand_gelement(rd, rng, cartan=False)]
    for _ in range(3):
        t = rng.randrange(rd.dim_t)
        draws.append(GElement(rd, [Fraction(rng.randint(1, 5), 2) if k == t else 0
                                   for k in range(rd.dim_t)],
                              {i: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                               for i in rng.sample(range(rd.num_roots), 2)}))
    for x in draws:
        assert x.ad_matrix() == oracle_ad_matrix(x), x


def test_defining_reader_dies_with_its_root_datum():
    """The memo of from_defining_matrix holds its root datum weakly: a datum
    it has read is freed once nothing else refers to it."""
    rd = root_datum.__wrapped__("gl", 3)  # a datum of its own, outside root_datum's cache
    g = GElement.root_vec(rd, 0, 2) + GElement.cartan_vec(rd, (1, 0, 3))
    assert GElement.from_defining_matrix(rd, g.defining_matrix()) == g
    ref = weakref.ref(rd)
    del rd, g
    gc.collect()
    assert ref() is None


def test_is_semisimple(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    assert is_semisimple(H)
    assert not is_semisimple(E)
    # oracle for E + F: the hand-built 3x3 adjoint matrix has squarefree
    # minimal polynomial x^3 - 4x: basis (H, E, F):
    # [E+F, H] = -2E + 2F, [E+F, E] = -H, [E+F, F] = H
    ad = [[Zero, Fraction(-1), Fraction(1)],
          [Fraction(-2), Zero, Zero],
          [Fraction(2), Zero, Zero]]
    p = minimal_polynomial(ad)
    assert is_squarefree(p)
    assert is_semisimple(E + F)


@pytest.mark.parametrize("lie_type, n", [
    ("gl", 2), ("gl", 3), ("gl", 4), ("sl", 2), ("sl", 3),
    ("B", 2), ("C", 2), ("C", 3), ("D", 3)])
def test_is_semisimple_matches_ad_oracle(lie_type, n):
    """The defining-matrix test agrees with the squarefree test on ad_x."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"semisimple:{rd.label}".encode()))

    def c():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    draws = [(rand_gelement(rd, rng), None) for _ in range(2)]
    for _ in range(3):
        a = rng.randrange(rd.num_roots)
        # h + E_a with <a|h> = 0: [h, E_a] = 0, so E_a is the nilpotent part
        h = [Zero] * rd.dim_t
        for v in nullspace([list(rd.roots[a])], cols=rd.dim_t):
            k = c()
            h = [x + k * y for x, y in zip(h, v)]
        draws.append((GElement.cartan_vec(rd, h) + GElement.root_vec(rd, a, c()), False))
        # E_a + E_{-a} spans a split torus of the sl2 through a
        draws.append((GElement.root_vec(rd, a, c()) + GElement.root_vec(rd, rd.neg[a], c()), True))
    for x, known in draws:
        ss = is_semisimple(x)
        assert ss == is_squarefree(minimal_polynomial(x.ad_matrix())), x
        assert known is None or ss == known, x


def test_cartan_width_checked(gl3):
    with pytest.raises(ValueError, match="width 2, expected 3"):
        GElement(gl3, (1, 2))
    with pytest.raises(ValueError, match="width 4, expected 3"):
        GElement.cartan_vec(gl3, (1, 2, 3, 4))


def test_root_index_checked():
    gl2 = root_datum("gl", 2)
    for bad in (99, 2, -1):
        with pytest.raises(ValueError, match=rf"root index {bad} is not in range\(2\)"):
            GElement(gl2, root={0: 1, bad: 1})
    with pytest.raises(ValueError, match="root index 5"):
        GElement(gl2, root={5: 0})
    assert repr(GElement(gl2, root={1: 2, 0: 0})).startswith("2*E(")


def _split(f):
    return semisimple_split(f, mat_mul(f, f))


def test_semisimple_split(gl3, sl2_efh):
    E, F, H, _, _ = sl2_efh
    assert len(_split(H.ad_matrix())) == 1
    # f = 0: kernel is everything
    zero = [[Zero] * 3 for _ in range(3)]
    assert len(_split(zero)) == 3
    # gl3, ad_{diag(1,1,0)}: kernel 5, read off ad^2 as nullspace(ad) itself
    x = GElement.cartan_vec(gl3, (1, 1, 0))
    ad = x.ad_matrix()
    ker = _split(ad)
    assert len(ker) == 5 and ker == nullspace(ad)
    assert all(x.bracket(GElement.from_coords(gl3, v)).is_zero() for v in ker)
    # non-semisimple operator must signal
    with pytest.raises(NotSemisimpleError):
        _split(E.ad_matrix())


def test_semisimple_split_eliminates_once(gl3, monkeypatch):
    """The kernel and the semisimplicity check come from one elimination, of f^2."""
    calls = []
    eliminate = linalg._eliminate

    def spy(m, det=False):
        calls.append(m)
        return eliminate(m, det)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    ad = GElement.cartan_vec(gl3, (1, 1, 0)).ad_matrix()
    sq = mat_mul(ad, ad)
    assert len(semisimple_split(ad, sq)) == 5
    assert calls == [sq]


@pytest.mark.parametrize("lie_type, n", [("sl", 2), ("gl", 3), ("sl", 3), ("B", 2),
                                         ("C", 3), ("D", 4)])
def test_from_defining_matrix(lie_type, n):
    """The reader inverts defining_matrix exactly and rejects matrices outside g."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"reader:{rd.label}".encode()))
    for _ in range(10):
        g = rand_gelement(rd, rng)
        assert GElement.from_defining_matrix(rd, g.defining_matrix()) == g
    if lie_type == "gl":  # every matrix is in gl_n
        return
    size = len(rd.defining_matrix(0))
    identity = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    with pytest.raises(ClaimViolation, match="is not in"):
        GElement.from_defining_matrix(rd, identity)


def pairing_is_invariant(rd, r, c):
    basis = list(tc_basis(rd, r))
    return all(pairing_invariance_defect(z, x, y, c) == 0
               for z in basis for x in basis for y in basis)


def pairing_is_nondegenerate(rd, r, c):
    basis = list(tc_basis(rd, r))
    gram = [[x.pairing_c(y, c) for y in basis] for x in basis]
    from wildstrat.linalg import rank
    return rank(gram) == len(basis)


def test_pairing_c_examples(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    Ee = TcElement.pure(sl2, 2, 1, E)
    F0 = TcElement.pure(sl2, 2, 0, F)
    Fe = TcElement.pure(sl2, 2, 1, F)
    assert Ee.pairing_c(F0, 2) == 1
    assert Ee.pairing_c(Fe, 2) == 0
    # the Lemma dichotomy: nondegenerate + invariant holds exactly at c = r.
    # For c < r the pairing stays invariant but degenerates; past r the
    # truncation breaks invariance itself.
    assert pairing_is_invariant(sl2, 2, 2) and pairing_is_nondegenerate(sl2, 2, 2)
    assert pairing_is_invariant(sl2, 2, 1) and not pairing_is_nondegenerate(sl2, 2, 1)
    assert not pairing_is_invariant(sl2, 2, 3)


def test_invariant_form(sl2, gl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # oracle: invariance chain ([E,F] | H) = <alpha|H> with (E|F) = 1
    assert H.pairing(H) == 2
    assert E.pairing(E) == 0
    assert E.pairing(F) == 1
    e11 = GElement.cartan_vec(gl2, (1, 0))
    assert e11.pairing(e11) == 1  # trace form on the gl center side
    # invariance of the form on random triples
    rng = random.Random(3)
    for _ in range(5):
        x, y, z = (rand_gelement(sl2, rng) for _ in range(3))
        assert x.bracket(y).pairing(z) == x.pairing(y.bracket(z))


def test_invariant_form_coroot_property(gl3, b2):
    """(H_a | H) = <a|H> (E_a|E_{-a}); the constants are all 1 on gl types."""
    assert all(c == 1 for c in gl3.e_pair)
    assert set(b2.e_pair) == {Fraction(1), Fraction(2)}  # two root lengths
    for rd in (gl3, b2):
        for i in range(rd.num_roots):
            h_a = GElement.coroot(rd, i)
            for t in range(rd.dim_t):
                h = GElement.cartan_vec(rd, tuple(
                    Fraction(k == t) for k in range(rd.dim_t)))
                assert h_a.pairing(h) == rd.pair(i, h.cartan) * rd.e_pair[i]
    # invariance on random triples over B2 too
    rng = random.Random(9)
    for _ in range(5):
        x, y, z = (rand_gelement(b2, rng) for _ in range(3))
        assert x.bracket(y).pairing(z) == x.pairing(y.bracket(z))


def test_transpose_and_theta(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    x = TcElement.from_parts(sl2, 2, [(0, H + E), (1, F)])
    assert x.transpose().transpose() == x
    assert TcElement.pure(sl2, 2, 1, E).transpose() == TcElement.pure(sl2, 2, 1, F)
    assert TcElement.pure(sl2, 2, 0, H).transpose() == TcElement.pure(sl2, 2, 0, H)
    # transpose is a Lie antihomomorphism: t[x,y] = [ty, tx]
    y = TcElement.from_parts(sl2, 2, [(0, E), (1, H)])
    assert x.bracket(y).transpose() == y.transpose().bracket(x.transpose())


def test_exp_ad_requires_birkhoff(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    with pytest.raises(ValueError):
        exp_ad(TcElement.pure(sl2, 2, 0, E), TcElement.pure(sl2, 2, 0, H))


def test_tc_json_round_trip(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    x = TcElement.from_parts(sl2, 3, [(0, H.scale(Fraction(1, 2))), (2, E + F.scale(-3))])
    assert TcElement.from_json(sl2, x.to_json()) == x
