import importlib.util
import random
import re
import zlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from wildstrat import elements, linalg, orbit, parab, strat
from wildstrat.elements import GElement, TcElement, exp_ad, is_semisimple, semisimple_split
from wildstrat.linalg import One, Zero, identity, mat_vec, nullspace, solve, transpose
from wildstrat.orbit import (_compose_gauge_logs, _remove_center, birkhoff_normalize,
                             centralizer, classify_marked, classify_unmarked,
                             marking_filtration, marking_index, strictness_index,
                             structural_centralizer_dim)
from wildstrat.rootdata import root_datum
from wildstrat.strat import (ClaimViolation, LeviFiltration, full_mask, indices,
                             mask_from_indices)
from conftest import gl_root_index
from per_basis import oracle_ad_operator, oracle_birkhoff_steps, oracle_restricted_ad
from test_parab import bracket_pairing_matrix, gl3_ex_chain, gl3_ex_ft


def rand_g(rd, rng, bound=4):
    g = GElement.cartan_vec(rd, tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(rd.dim_t)))
    for i in range(rd.num_roots):
        g = g + GElement.root_vec(rd, i, Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))
    return g


def rand_birkhoff(rd, rng, depth):
    return TcElement(rd, depth, [GElement.zero(rd)] + [rand_g(rd, rng) for _ in range(depth - 1)])


def rand_levi(rd, rng, mask):
    g = GElement.cartan_vec(rd, tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rd.dim_t)))
    for i in indices(mask):
        g = g + GElement.root_vec(rd, i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return g


def functional_compose_gauge_logs(rd, r, factors):
    """Single Y in eps*g_r with exp(ad_Y) = product of the factor exponentials.

    Works functionally: U = exp(ad_{Y_m}) ... exp(ad_{Y_1}); L = log U is
    recovered column by column on the degree-0 copy of g, which determines
    each epsilon coefficient of Y up to the center (fixed to zero there).
    """
    zero = TcElement(rd, r)
    if not factors:
        return zero

    def apply_u(v):
        for f in factors:
            v = exp_ad(f, v)
        return v

    def apply_log(v):
        # log(I + N) v with N = U - I nilpotent of order <= r
        out = TcElement(rd, r)
        term = v
        sign = 1
        for k in range(1, r + 1):
            term = apply_u(term) - term  # N applied once more
            if term.is_zero():
                break
            out = out + term.scale(Fraction(sign, k))
            sign = -sign
        return out

    # L restricted to g e^0 gives, at the e^k coefficient, the map ad_{Y_k}
    coeffs = [GElement.zero(rd) for _ in range(r)]
    cartan_parts = [[None] * rd.dim_t for _ in range(r)]
    # root coefficients of Y_k from L(H) for Cartan basis H
    root_coeffs = [dict() for _ in range(r)]
    for t in range(rd.dim_t):
        h = GElement.cartan_vec(rd, tuple(One if k == t else Zero for k in range(rd.dim_t)))
        lv = apply_log(TcElement.pure(rd, r, 0, h))
        for k in range(r):
            # [Y_k, H] = -sum <a|H> (Y_k)_a E_a
            for i, c in lv.coeffs[k].root.items():
                pair = rd.roots[i][t]
                if pair != 0:
                    root_coeffs[k][i] = -c / pair
    # Cartan part of Y_k from the E_a coefficient of L(E_a)
    cartan_rows = [[] for _ in range(r)]
    cartan_rhs = [[] for _ in range(r)]
    for i in range(rd.num_roots):
        e = GElement.root_vec(rd, i)
        lv = apply_log(TcElement.pure(rd, r, 0, e))
        for k in range(r):
            coeff = lv.coeffs[k].root.get(i, Zero)
            # remove contributions of the root part of Y_k: [E_b, E_a] has an
            # E_a component only via b = 0 (none), so coeff = <a | cartan(Y_k)>
            # minus nothing; but root parts of Y_k can also contribute via
            # N(b,a) E_{b+a} = E_a iff b = 0: impossible.  So:
            cartan_rows[k].append(list(rd.roots[i]))
            cartan_rhs[k].append(coeff)
    ys = []
    for k in range(r):
        cart = solve(cartan_rows[k], cartan_rhs[k])
        if cart is None:
            raise ClaimViolation(f"gauge log reconstruction failed at e^{k} for the "
                                 f"factors {factors!r}")
        # kill the central component for canonicity (it acts trivially)
        cart = _remove_center(rd, cart)
        ys.append(GElement(rd, cart, root_coeffs[k]))
    y = TcElement(rd, r, ys)
    if not y.in_birkhoff():
        raise ClaimViolation(f"gauge log {y!r} has a constant term")
    return y


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("lie_type, rank", [("sl", 2), ("gl", 2), ("gl", 3), ("B", 2),
                                            ("C", 2)])
def test_gauge_log_matches_functional_oracle(lie_type, rank, r):
    """The log of the gauge product read off the defining representation
    equals the log rebuilt through exp_ad on g, exactly, on 15 seeded factor
    lists per case: single-degree factors as birkhoff_normalize records them,
    and factors spread over several degrees."""
    rd = root_datum(lie_type, rank)
    rng = random.Random(zlib.crc32(f"gauge-log:{rd.label}:{r}".encode()))
    for trial in range(15):
        factors = []
        for _ in range(trial % 4 + 1):
            if rng.random() < 0.5:
                factors.append(TcElement.pure(rd, r, rng.randint(1, r - 1), rand_g(rd, rng)))
            else:
                factors.append(rand_birkhoff(rd, rng, r))
        y = _compose_gauge_logs(rd, r, factors)
        assert y == functional_compose_gauge_logs(rd, r, factors), (rd.label, r, trial)
        x = TcElement(rd, r, [rand_g(rd, rng) for _ in range(r)])
        gauged = x
        for f in factors:
            gauged = exp_ad(f, gauged)
        assert exp_ad(y, x) == gauged, (rd.label, r, trial)


def test_depth_one_trivial(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # r = 1: the Birkhoff group is trivial; s is decided by semisimplicity alone
    nf = birkhoff_normalize(TcElement.pure(sl2, 1, 0, H))
    assert nf.strictness == 1 and nf.gauge_log.is_zero() and nf.normal == nf.input
    nf = birkhoff_normalize(TcElement.pure(sl2, 1, 0, E))
    assert nf.strictness == 0 and nf.gauge_log.is_zero()


def test_nilpotent_leading(sl2, sl2_efh):
    E, _, _, _, _ = sl2_efh
    assert strictness_index(TcElement.pure(sl2, 2, 0, E)) == 0


def test_split_failure_names_the_step(gl3, monkeypatch):
    """A non-semisimple X_s let through the semisimplicity test is a claim
    violation naming the step and X_s, not a NotSemisimpleError: here X_1 is
    the root vector E_12 of the Levi factor centralising X_0 = diag(1, 1, 0)."""
    e12 = GElement.root_vec(gl3, gl_root_index(gl3, 0, 1))
    monkeypatch.setattr(orbit, "is_semisimple", lambda g: True)
    with pytest.raises(ClaimViolation, match=re.escape(f"Birkhoff step 1: X_1 = {e12!r} passed")):
        birkhoff_normalize(TcElement(gl3, 2, [GElement.cartan_vec(gl3, (1, 1, 0)), e12]))


def test_sl2_r2_normalization(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    x = TcElement.from_parts(sl2, 2, [(0, H), (1, E)])
    nf = birkhoff_normalize(x)
    assert nf.strictness == 2
    assert nf.normal == TcElement.pure(sl2, 2, 0, H)
    # oracle: solve [Y, H] = -E exactly: Y = E/2, and verify the gauge action
    y = TcElement.pure(sl2, 2, 1, E.scale(Fraction(1, 2)))
    assert y.bracket(TcElement.pure(sl2, 2, 0, H)) == TcElement.pure(sl2, 2, 1, E.scale(-1))
    assert exp_ad(y, x) == nf.normal
    assert nf.verify_round_trip()


def test_zero_element(sl2):
    nf = birkhoff_normalize(TcElement(sl2, 3))
    assert nf.strictness == 3
    assert nf.irregular_type().is_zero()


def test_gl3_regular_leading(gl3):
    rng = random.Random(41)
    x = TcElement(gl3, 3, [GElement.cartan_vec(gl3, (1, 2, 3)),
                           rand_g(gl3, rng), rand_g(gl3, rng)])
    nf = birkhoff_normalize(x)
    assert nf.strictness == 3
    assert all(g.is_cartan() for g in nf.normal.coeffs)
    assert nf.verify_round_trip()


def test_birkhoff_on_a_non_coordinate_centraliser(gl3):
    """X_0 = diag(1, 1, 0) is Cartan; X_1 = E_12 + 2 E_21 is semisimple in X_0's
    Levi but not Cartan, so the centraliser of X_0 and X_1 is no coordinate
    subspace (it holds E_12 + 2 E_21, whose two entries differ); X_2 and X_3
    are generic.  At r = 4 step 2 reads X_3 at the positions step 1 chose, so
    a position that is not the kernel vector's free column shows.

    The normal form keeps X_0 and X_1 and replaces X_2 by its part commuting
    with both, the trace-form projection onto span(E_11 + E_22, E_33, X_1):
    [[a, b, 0], [2b, a, 0], [0, 0, m_33]] with 2a = m_11 + m_22 and
    4b = tr(X_2 X_1) = 2 m_12 + m_21; the new X_3 commutes with all three."""
    g = lambda m: GElement.from_defining_matrix(gl3, [[Fraction(v) for v in row] for row in m])
    m = [[3, -5, 7], [2, Fraction(1, 3), -4], [6, 11, Fraction(-2, 5)]]
    x0, x1 = g([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), g([[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    assert x0.is_cartan() and not x1.is_cartan() and is_semisimple(x1)
    nf = birkhoff_normalize(TcElement(gl3, 4, [x0, x1, g(m), g([[1, 4, -2], [0, 5, 3], [-7, 1, 2]])]))
    assert nf.strictness == 4
    assert nf.verify_round_trip()
    a, b = (m[0][0] + m[1][1]) / 2, (2 * m[0][1] + m[1][0]) / 4
    want = g([[a, b, 0], [2 * b, a, 0], [0, 0, m[2][2]]])
    irr = nf.irregular_type().coeffs
    assert list(irr[:3]) == [x0, x1, want]
    assert all(irr[3].bracket(y).is_zero() for y in irr[:3])


def test_gauge_invariance(sl2, sl2_efh):
    """(s, tau_s) unchanged under random Birkhoff gauges."""
    E, F, H, _, _ = sl2_efh
    x = TcElement.from_parts(sl2, 2, [(0, H), (1, E)])
    base = birkhoff_normalize(x)
    rng = random.Random(101)
    for _ in range(100):
        y = rand_birkhoff(sl2, rng, 2)
        nf = birkhoff_normalize(exp_ad(y, x))
        assert nf.strictness == base.strictness
        assert nf.irregular_type() == base.irregular_type()


def test_strict_index_with_nonsemisimple_tail(sl2, gl3, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # leading H semisimple, then E in the centraliser of nothing: the second
    # coefficient is cleaned into g^H = t, where its component stays nilpotent
    # only if it does not vanish: H + E eps has s = 2 (E is killed), while
    # an honest obstruction needs a nonsemisimple element OF the centraliser
    x = TcElement.from_parts(gl3, 2, [(0, GElement.cartan_vec(gl3, (1, 1, 0))),
                                      (1, GElement.root_vec(gl3, gl_root_index(gl3, 0, 1)))])
    # E_12 commutes with diag(1,1,0) and is nilpotent: strictly 1-semisimple
    nf = birkhoff_normalize(x)
    assert nf.strictness == 1
    assert nf.irregular_type() == TcElement.pure(gl3, 1, 0, GElement.cartan_vec(gl3, (1, 1, 0)))


@pytest.mark.parametrize("lie_type, r", [("B", 2), ("B", 3), ("C", 2), ("C", 3)])
def test_birkhoff_recovery_non_gl(lie_type, r):
    """Criterion-06 recipe on B2 and C2, without the Weyl twist: a normal form
    of constructed strictness s, gauged by exp(ad Y) with Y in eps*g_r."""
    rd = root_datum(lie_type, 2)
    rng = random.Random(zlib.crc32(f"{rd.label}:{r}".encode()))
    levis = [m for m in strat.enumerate_levi(rd) if m != 0]

    def cartan(basis):
        coords = [Fraction(0)] * rd.dim_t
        for b in basis:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            coords = [a + c * v for a, v in zip(coords, b)]
        return GElement.cartan_vec(rd, coords)

    std = [[Fraction(int(i == j)) for j in range(rd.dim_t)] for i in range(rd.dim_t)]
    for trial in range(24):
        s = trial % (r + 1)
        if s < r:
            mask = levis[trial % len(levis)]
            ker = strat.kernel_basis(rd, mask)
            prefix = [cartan(ker) for _ in range(s)]
            common = full_mask(rd)
            for g in prefix:
                common &= strat.levi_of_point(rd, g.cartan)
            stop = GElement.root_vec(rd, rng.choice(indices(mask))) + cartan(ker)
            tail = [stop] + [rand_levi(rd, rng, common) for _ in range(r - s - 1)]
        else:
            prefix = [cartan(std) for _ in range(r)]
            tail = []
        normal0 = TcElement(rd, r, prefix + tail)
        gauge = TcElement(rd, r, [GElement.zero(rd)] + [
            rand_levi(rd, rng, full_mask(rd)) for _ in range(r - 1)])
        nf = birkhoff_normalize(exp_ad(gauge, normal0))
        assert nf.strictness == s, (rd.label, r, trial)
        assert nf.verify_round_trip()
        assert nf.irregular_type() == normal0.truncate(s), (rd.label, r, trial)


def test_centralizer_examples(sl2, gl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    rep = centralizer(TcElement.from_parts(sl2, 2, [(0, H)]))
    assert rep.dim == 2 and rep.predicted_dim == 2
    # basis {H, H eps}: all kernel vectors are Cartan at every degree
    assert all(g.is_cartan() for v in rep.basis for g in v.coeffs)
    rep = centralizer(TcElement.from_parts(sl2, 2, [(1, H)]))
    assert rep.dim == 4 and rep.predicted_dim == 4  # t + g eps
    # central element: the centraliser is everything
    gl2_center = TcElement.from_parts(gl2, 2, [(0, GElement.cartan_vec(gl2, (1, 1)))])
    rep = centralizer(gl2_center)
    assert rep.dim == 2 * gl2.dim_g


def test_centralizer_r_minus_1(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # x = E eps: marked 1-semisimple (tau_1 = 0), residue E
    x = TcElement.from_parts(sl2, 2, [(1, E)])
    rep = centralizer(x)
    assert rep.marking_s == 1
    assert rep.dim == rep.predicted_dim == 4  # g^E + g eps


def test_centralizer_structure_exhaustive(sl2, gl2, gl3, sl3):
    """Exact ad-kernel dimension equals the structural formula on stratum
    representatives (the acceptance core, smaller scope here)."""
    for rd in (sl2, gl2):
        for r in (2, 3):
            for filt in strat.enumerate_filtrations(rd, r):
                xs = [strat.levi_witness(rd, filt.mask(r - 1 - i)) for i in range(r)]
                x = TcElement(rd, r, [GElement.cartan_vec(rd, v) for v in xs])
                rep = centralizer(x)
                assert rep.dim == structural_centralizer_dim(rd, filt, r)


def marked_element(rd, r, rng):
    """x with X_0 = q_0 h, ..., X_{r-2} = q_{r-2} h for h in t on which exactly
    the roots +-a vanish, and X_{r-1} in the Levi factor of {+-a}: a marking
    with s >= r - 1, so centralizer runs the structural comparison."""
    mask = mask_from_indices([0, rd.neg[0]])
    h = GElement.cartan_vec(rd, strat.levi_witness(rd, mask))
    lead = [h.scale(Fraction(rng.randint(1, 5), rng.randint(2, 3))) for _ in range(r - 1)]
    return TcElement(rd, r, lead + [rand_levi(rd, rng, mask)])


SCALED_TYPES = [("gl", 3, 3), ("B", 2, 3), ("C", 3, 2)]


@pytest.mark.parametrize("lie_type, n, r", SCALED_TYPES,
                         ids=[f"{t}{n}-r{r}" for t, n, r in SCALED_TYPES])
def test_semisimplicity_and_centralizer_are_scale_invariant(lie_type, n, r):
    """is_semisimple and centralizer read x through int multiples of it, so
    x and q x must give the same verdict and the same kernel basis, for
    elements with denominators, a semisimple and a non-semisimple one among
    them, and markings on both sides of r - 1."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"scale:{rd.label} r={r}".encode()))
    xs = [TcElement(rd, r, [rand_g(rd, rng) for _ in range(r)]), marked_element(rd, r, rng)]
    h = xs[1].coeffs[0]
    gs = [g for x in xs for g in x.coeffs] + [h + GElement.root_vec(rd, 0, Fraction(3, 4))]
    assert any(c.denominator > 1 for g in gs for c in g.coords())
    assert {is_semisimple(g) for g in gs} == {True, False}
    reps = [centralizer(x) for x in xs]
    assert reps[0].marking_s == 0 and reps[1].marking_s >= r - 1
    for q in (Fraction(2, 3), -5):
        for g in gs:
            assert is_semisimple(g.scale(q)) == is_semisimple(g), (g, q)
        for x, rep in zip(xs, reps):
            assert centralizer(x.scale(q)).basis == rep.basis, (x, q)


def test_centralizer_and_semisimplicity_eliminate_int_matrices(monkeypatch):
    """On a C3 element with denominators at depth 2, every matrix that
    centralizer and is_semisimple hand to the elimination is all int, the
    42 x 42 operator of ad_x on g_r among them; mat_mul keeps ints ints."""
    rd = root_datum("C", 3)
    x = marked_element(rd, 2, random.Random(zlib.crc32(b"int-path:C3 r=2")))
    assert any(c.denominator > 1 for g in x.coeffs for c in g.coords())
    seen = []
    eliminate = linalg._eliminate

    def spy(m, det=False):
        seen.append(m)
        return eliminate(m, det)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    assert centralizer(x).predicted_dim is not None
    assert any(len(m) == 42 == len(m[0]) for m in seen)
    for g in x.coeffs:
        is_semisimple(g)
    assert all(type(v) is int for m in seen for row in m for v in row)
    a, b = [[2, 0, -1], [0, 3, 1]], [[1, 1], [2, 0], [2, -2]]
    assert linalg.mat_mul(a, b) == [[0, 4], [8, -2]]
    assert all(type(v) is int for row in linalg.mat_mul(a, b) for v in row)


OPERATOR_TYPES = [("gl", 3), ("B", 2), ("gl", 4), ("C", 3)]


@pytest.mark.parametrize("lie_type, n", OPERATOR_TYPES, ids=[f"{t}{n}" for t, n in OPERATOR_TYPES])
def test_ad_operator_matches_the_per_basis_oracle(lie_type, n):
    """The block lower-triangular Toeplitz assembly of ad_x on g_r is, as a
    list, the matrix of the brackets of x with every basis element of g_r, at
    r = 1, 2, 3: for dense x, for x with zero coefficients and for x with a
    Cartan leading term; and centralizer's kernel is that matrix's."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"ad_operator:{rd.label}".encode()))
    for r in (1, 2, 3):
        draws = [TcElement(rd, r, [rand_g(rd, rng) for _ in range(r)]),
                 TcElement(rd, r, [GElement.zero(rd)] * (r - 1) + [rand_g(rd, rng, 2)]),
                 TcElement(rd, r, [rand_levi(rd, rng, 0)]
                           + [rand_g(rd, rng, 2) if k % 2 else GElement.zero(rd)
                              for k in range(1, r)])]
        for x in draws:
            op = oracle_ad_operator(x)
            assert orbit._ad_operator([g.ad_matrix() for g in x.coeffs]) == op, (r, x)
            assert [v.coords() for v in centralizer(x).basis] == nullspace(op), (r, x)


def _spy_split(monkeypatch):
    """Record (f, f2, kernel) of every semisimple_split that orbit makes."""
    seen = []

    def spy(f, f2):
        ker = semisimple_split(f, f2)
        seen.append((f, f2, ker))
        return ker

    monkeypatch.setattr(orbit, "semisimple_split", spy)
    return seen


def _next_positions(pos, ker):
    """The positions of the next iterated centraliser, as birkhoff_normalize
    forms them: each kernel vector's free column is its last nonzero entry."""
    return [pos[max(i for i, a in enumerate(v) if a)] for v in ker]


@pytest.mark.parametrize("lie_type, n", OPERATOR_TYPES, ids=[f"{t}{n}" for t, n in OPERATOR_TYPES])
def test_restricted_ad_matches_the_per_basis_oracle(lie_type, n, monkeypatch):
    """Birkhoff's restricted ad, read off one ad_matrix at the positions pos,
    is as a list the matrix of the brackets with every sub-basis vector read
    at pos: on g and on the iterated centralisers of X_0 = h + n, h generic in
    the kernel of a proper Levi subsystem and n on the roots positive on h (a
    conjugate of h, so its centraliser has no basis of unit vectors), and of
    the dense X_1, X_2 left by cleaning."""
    rd = root_datum(lie_type, n)
    rng = random.Random(zlib.crc32(f"restricted_ad:{rd.label}".encode()))
    levis = [m for m in strat.enumerate_levi(rd) if m and m != full_mask(rd)]
    h = strat.levi_witness(rd, rng.choice(levis))
    x0 = GElement.cartan_vec(rd, h)
    for i, a in enumerate(rd.roots):
        if linalg.dot(a, h) > 0:
            x0 = x0 + GElement.root_vec(rd, i, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    x = TcElement(rd, 3, [x0, rand_g(rd, rng), rand_g(rd, rng)])
    seen = _spy_split(monkeypatch)
    nf = birkhoff_normalize(x)
    assert nf.strictness == len(seen) == 3
    assert any(sum(1 for a in v if a) > 1 for v in seen[0][2]) and any(map(any, seen[1][0]))
    sub_basis, pos = identity(rd.dim_g), range(rd.dim_g)
    for s, (f, _, ker) in enumerate(seen):
        xs = nf.normal.coeffs[s]
        assert f == oracle_restricted_ad(xs, sub_basis, lambda v: [v[p] for p in pos]), xs
        sub_basis = [mat_vec(transpose(sub_basis), v) for v in ker]
        pos = _next_positions(pos, ker)
    assert 0 < len(sub_basis) < rd.dim_g


# classes drawn by the bench recipe (bench/workloads.py, Orbit._draw) at every
# strictness 0..r, without the Weyl twist
ORACLE_CLASSES = [("gl", 3, 3), ("B", 2, 3), ("C", 3, 2), ("D", 4, 4)]


def _bench_draws(rd, r):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    W = SimpleNamespace(elements=elements, strat=strat)
    levis = [m for m in strat.enumerate_levi(rd) if m]
    for k, s in enumerate(range(r + 1)):
        rng = workloads.sub_rng("birkhoff-oracle", rd.label, r, s, k)
        yield workloads.Orbit._draw(W, rd, r, s, levis[k % len(levis)], rng, twist=False)[1]


@pytest.mark.parametrize("lie_type, n, r", ORACLE_CLASSES,
                         ids=[f"{t}{n}-r{r}" for t, n, r in ORACLE_CLASSES])
def test_birkhoff_steps_match_the_echelon_oracle(lie_type, n, r, monkeypatch):
    """Every Birkhoff step agrees with the old one (per_basis.oracle_birkhoff_steps):
    the sub-basis is the identity on pos, the coordinates read off pos equal
    the echelon reader's on the basis and on every deeper coefficient, the
    restricted ad is the same matrix, and the kernel read off ad^2 is
    nullspace(ad) and the old split's, vector for vector."""
    rd = root_datum(lie_type, n)
    cleaned = 0
    for x in _bench_draws(rd, r):
        seen = _spy_split(monkeypatch)
        nf = birkhoff_normalize(x)
        steps, normal = oracle_birkhoff_steps(x)
        assert nf.strictness == len(steps) == len(seen) and nf.normal == normal, x
        cleaned += sum(map(len, (step["vectors"] for step in steps)))
        pos = range(rd.dim_g)
        for step, (f, f2, ker) in zip(steps, seen):
            sub_basis, coords = step["sub_basis"], step["coords"]
            assert [[b[p] for p in pos] for b in sub_basis] == identity(len(sub_basis))
            for v in sub_basis + step["vectors"]:
                assert [v[p] for p in pos] == coords(v)
            assert f == step["ad"] and f2 == linalg.mat_mul(f, f)
            assert ker == nullspace(f) == step["kernel"]
            pos = _next_positions(pos, ker)
    assert cleaned >= r * (r - 1) // 2


def test_marking_filtration_convention(sl2, sl2_efh):
    E, F, H, _, _ = sl2_efh
    # x = H eps: X_0 = 0, X_1 = H: phi_0 = {a: a(X_0)=a(X_1)=0} = empty,
    # phi_1 = {a: a(X_0) = 0} = Phi: the duality-swapped chain
    x = TcElement.from_parts(sl2, 2, [(1, H)])
    filt = marking_filtration(x)
    assert filt.masks == (0, full_mask(sl2))


def test_classify_marked(sl2, gl3, sl2_efh):
    E, F, H, _, _ = sl2_efh
    a = TcElement.from_parts(sl2, 2, [(0, H)])
    b = TcElement.from_parts(sl2, 2, [(0, H.scale(2))])
    c = TcElement.from_parts(sl2, 2, [(1, H)])
    assert classify_marked(a, b)[0]
    assert not classify_marked(a, c)[0]
    # gl3: identical inequality patterns agree
    x = TcElement(gl3, 2, [GElement.cartan_vec(gl3, (1, 2, 3)),
                           GElement.cartan_vec(gl3, (5, 5, 1))])
    y = TcElement(gl3, 2, [GElement.cartan_vec(gl3, (0, 4, 9)),
                           GElement.cartan_vec(gl3, (7, 7, 2))])
    assert classify_marked(x, y)[0]
    with pytest.raises(ValueError):
        classify_marked(TcElement.pure(sl2, 2, 0, E), a)


def test_classify_unmarked(sl2, gl3, sl2_efh):
    E, F, H, _, _ = sl2_efh
    hh = TcElement.from_parts(sl2, 2, [(0, H), (1, H)])
    mm = TcElement.from_parts(sl2, 2, [(0, H.scale(-1)), (1, H.scale(-1))])
    hm = TcElement.from_parts(sl2, 2, [(0, H), (1, H.scale(-1))])
    assert classify_unmarked(hh, mm)
    assert not classify_unmarked(hh, hm)
    # oracle: check both Weyl elements explicitly
    defect = []
    for w in sl2.weyl:
        defect.append(all(w.apply_cartan(g.cartan) == h.cartan
                          for g, h in zip(hh.coeffs, hm.coeffs)))
    assert not any(defect)
    # gl3: permuted diagonal tuples are equivalent
    x = TcElement(gl3, 2, [GElement.cartan_vec(gl3, (1, 2, 3)),
                           GElement.cartan_vec(gl3, (4, 5, 6))])
    y = TcElement(gl3, 2, [GElement.cartan_vec(gl3, (3, 1, 2)),
                           GElement.cartan_vec(gl3, (6, 4, 5))])
    assert classify_unmarked(x, y)


def test_classify_unmarked_consistent_with_strata(sl2):
    """Equivalent unmarked tuples lie in W-related strata."""
    rng = random.Random(7)
    for _ in range(10):
        xs = [tuple([Fraction(rng.randint(-2, 2))]) for _ in range(2)]
        x = TcElement(sl2, 2, [GElement.cartan_vec(sl2, v) for v in xs])
        for w in sl2.weyl:
            y = TcElement(sl2, 2, [GElement.cartan_vec(sl2, w.apply_cartan(v)) for v in xs])
            assert classify_unmarked(x, y)


def test_kks_form(sl2, gl3, sl2_efh):
    _, _, _, i_e, _ = sl2_efh
    pos = mask_from_indices([i_e])
    pf = parab.ParabolicFiltration(sl2, [pos, pos])
    ts = parab.triangular_split(pf)
    lam = [(Fraction(4),), (Fraction(9),)]
    m = bracket_pairing_matrix(sl2, lam, ts)
    assert m == [[Fraction(4), Fraction(9)], [Fraction(9), Fraction(0)]]
    # zero covector: the zero matrix
    z = bracket_pairing_matrix(sl2, [(Fraction(0),), (Fraction(0),)], ts)
    assert all(v == 0 for row in z for v in row)


def test_kks_matches_b_pairing(gl3):
    """Cross-module consistency: omega_lambda equals the B-pairing matrix."""
    pf = gl3_ex_chain(gl3)
    ft = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    bmat, ts = parab.b_pairing_matrix(pf, ft)
    kmat = bracket_pairing_matrix(gl3, list(ft.lams), ts)
    assert bmat == kmat
