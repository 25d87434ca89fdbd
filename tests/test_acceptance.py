"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to see them all);
a failure raises with the offending data.  Runtime bounds are asserted where
the criteria state them.
"""

import itertools
import math
import random
import time
import zlib
from fractions import Fraction

import pytest

from wildstrat import orbit, parab, quant, singmod, strat
from wildstrat.elements import GElement, TcElement, exp_ad, pairing_invariance_defect
from wildstrat.linalg import CPoly, rank
from wildstrat.parab import FormalType, ParabolicFiltration
from wildstrat.rootdata import root_datum
from wildstrat.singmod import SingularityModule, factorize_block, reassemble
from wildstrat.strat import (LeviFiltration, enumerate_filtrations,
                             enumerate_levi, full_mask, indices,
                             mask_from_indices)
from conftest import gl_root_index
from per_basis import tc_basis
from test_parab import admissible_grid, gl3_ex_chain, gl3_ex_ft


def report(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS  {text}")


def sl2_pf(sl2, r):
    i_e = sl2.root_index[(Fraction(2),)]
    return ParabolicFiltration(sl2, [mask_from_indices([i_e])] * r)


def weyl_apply_g(rd, w, g):
    return GElement(rd, w.apply_cartan(g.cartan),
                    {w.perm[i]: c for i, c in g.root.items()})


def test_criterion_01_gl3_levi_poset(gl3):
    t0 = time.time()
    poset = strat.LeviPoset(gl3)
    assert len(poset.elements) == 5
    top, bottom = 0, full_mask(gl3)
    middles = [m for m in poset.elements if m not in (top, bottom)]
    assert len(middles) == 3
    covers = set(poset.covers())
    expected = {(m, top) for m in middles} | {(bottom, m) for m in middles}
    assert covers == expected
    assert sorted(poset.rank.values()) == [1, 2, 2, 2, 3]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"gl3 Levi poset: 5 nodes, Hasse shape verified ({elapsed:.2f}s)")


def test_criterion_02_gl3_parabolic_counts(gl3):
    t0 = time.time()
    ps = parab.enumerate_parabolic(gl3)
    assert len(ps) == 13
    assert len(strat.standard_classes(gl3, strat.mask_from_indices(gl3.positive))) == 4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"gl3: |P| = 13, |P/W| = 4 ({elapsed:.2f}s)")


def test_criterion_03_sl2_filtration_counts(sl2):
    for s in range(1, 7):
        assert len(enumerate_filtrations(sl2, s)) == s + 1
        assert len(parab.enumerate_parabolic_filtrations(sl2, s)) == 2 * s + 1
    report(3, "sl2 filtration counts: s+1 Levi and 2r+1 parabolic, depths 1..6")


def test_criterion_04_cardinality_bound(sl2, gl2, sl3, gl3, b2):
    t0 = time.time()
    for rd in (sl2, gl2, sl3, gl3, b2):
        for s in (1, 2, 3):
            count = len(enumerate_filtrations(rd, s))
            bound = strat.cardinality_bound(rd, s)
            assert count <= bound, (rd.label, s, count, bound)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"|L^(s)| <= |W|(s+1)^rk on 5 root data, s <= 3 ({elapsed:.1f}s)")


def test_criterion_05_pairing_dichotomy(gl2):
    """Nondegenerate + invariant holds exactly at c = r (the Lemma).

    For c < r the pairing is still infinitesimally invariant but degenerate;
    past c = r the truncation breaks invariance itself.  Both failure modes
    are exhibited, so the biconditional is checked in full.
    """
    for r in (2, 3, 4):
        basis = list(tc_basis(gl2, r))
        # c = r: invariance on all basis triples, and exact nondegeneracy
        for z in basis:
            for x in basis:
                for y in basis:
                    assert pairing_invariance_defect(z, x, y, r) == 0
        gram = [[x.pairing_c(y, r) for y in basis] for x in basis]
        assert rank(gram) == len(basis)
        # every c != r in {1..r}: the pairing degenerates
        for c in range(1, r):
            gram_c = [[x.pairing_c(y, c) for y in basis] for x in basis]
            assert rank(gram_c) < len(basis)
        # and beyond r the invariance identity itself fails on some triple
        assert any(pairing_invariance_defect(z, x, y, r + 1) != 0
                   for z in basis for x in basis for y in basis)
    report(5, "pairing dichotomy on gl2, r in {2,3,4}: "
              "nondegenerate+invariant iff c = r")


def _random_cartan(rd, rng, basis=None):
    if basis is None:
        return GElement.cartan_vec(rd, tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rd.dim_t)))
    coords = [Fraction(0)] * rd.dim_t
    for b in basis:
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        coords = [a + c * v for a, v in zip(coords, b)]
    return GElement.cartan_vec(rd, tuple(coords))


def _random_levi_element(rd, rng, mask):
    g = _random_cartan(rd, rng)
    for i in indices(mask):
        g = g + GElement.root_vec(rd, i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return g


def test_criterion_06_birkhoff_recovery():
    t0 = time.time()
    combos = [(root_datum("sl", 2), 2), (root_datum("sl", 2), 3),
              (root_datum("gl", 2), 2), (root_datum("gl", 2), 3),
              (root_datum("gl", 3), 2), (root_datum("gl", 3), 3)]
    for rd, r in combos:
        rng = random.Random(zlib.crc32(f"{rd.label}:{r}".encode()))
        levis = [m for m in enumerate_levi(rd) if m != 0]
        for trial in range(200):
            s = rng.randrange(r + 1)
            if s < r:
                # draw Cartan parts inside Ker(phi*) and the nilpotent stop
                # from phi* itself, so the Jordan part genuinely obstructs
                mask = rng.choice(levis)
                ker = strat.kernel_basis(rd, mask)
                prefix = [_random_cartan(rd, rng, ker) for _ in range(s)]
                common = full_mask(rd)
                for g in prefix:
                    common &= strat.levi_of_point(rd, g.cartan)
                assert common & mask == mask
                alpha = rng.choice(indices(mask))
                stop = GElement.root_vec(rd, alpha) + _random_cartan(rd, rng, ker)
                tail = [stop] + [_random_levi_element(rd, rng, common)
                                 for _ in range(r - s - 1)]
            else:
                prefix = [_random_cartan(rd, rng) for _ in range(r)]
                tail = []
            normal0 = TcElement(rd, r, prefix + tail)
            gauge = TcElement(rd, r, [GElement.zero(rd)] + [
                _random_levi_element(rd, rng, full_mask(rd)) for _ in range(r - 1)])
            w = rng.choice(rd.weyl)
            x = exp_ad(gauge, normal0)
            x = TcElement(rd, r, [weyl_apply_g(rd, w, g) for g in x.coeffs])
            nf = orbit.birkhoff_normalize(x)
            assert nf.strictness == s, (rd.label, r, trial)
            assert nf.verify_round_trip()
            tau_true = normal0.truncate(s)
            recovered = nf.irregular_type()
            assert any(
                all(weyl_apply_g(rd, u, g) == h
                    for g, h in zip(tau_true.coeffs, recovered.coeffs))
                for u in rd.weyl), (rd.label, r, trial)
    elapsed = time.time() - t0
    report(6, f"Birkhoff recovery on 1200 seeded gauged normal forms ({elapsed:.1f}s)")


def test_criterion_07_centralizer_structure():
    t0 = time.time()
    for label, n in (("sl", 2), ("gl", 2), ("gl", 3), ("sl", 3)):
        rd = root_datum(label, n)
        for r in (1, 2, 3):
            for filt in enumerate_filtrations(rd, r):
                xs = [strat.levi_witness(rd, filt.mask(r - 1 - i)) for i in range(r)]
                x = TcElement(rd, r, [GElement.cartan_vec(rd, v) for v in xs])
                rep = orbit.centralizer(x)
                assert rep.dim == orbit.structural_centralizer_dim(rd, filt, r), \
                    (label, n, r, filt.masks)
    elapsed = time.time() - t0
    report(7, f"centraliser dims match g^X + sum l_phi on all strata, r <= 3 "
              f"({elapsed:.1f}s)")


def test_criterion_08_gl3_nonsingularity(gl3):
    pf = gl3_ex_chain(gl3)
    i12 = gl_root_index(gl3, 0, 1)
    i13 = gl_root_index(gl3, 0, 2)
    i23 = gl_root_index(gl3, 1, 2)
    order = [(i12, 0), (i23, 0), (i23, 1), (i13, 0), (i13, 1)]
    a0, c0, c1, b0, b1 = range(5)

    def expected(l1, l2, l3, lt1, lt2):
        m = [[Fraction(0)] * 5 for _ in range(5)]
        m[a0][a0] = l1 - l2
        m[b0][b0] = l1 - l3
        m[c0][c0] = l2 - l3
        m[b0][b1] = m[b1][b0] = lt1 - lt2
        m[c0][c1] = m[c1][c0] = lt1 - lt2
        return m

    # symbolic identity: linearity in lambda makes the 5 unit evaluations
    # equivalent to the closed formula of the rank-3 example
    for unit in range(5):
        vals = [Fraction(v == unit) for v in range(5)]
        mat, ts = parab.b_pairing_matrix(pf, gl3_ex_ft(gl3, *vals))
        assert ts.gens == order
        assert mat == expected(*vals)
    # grid covering all four (in)equality cases
    grid = [(1, 2, 3, 5, 7, True), (1, 2, 3, 5, 5, False),
            (2, 2, 3, 5, 7, False), (2, 2, 3, 5, 5, False),
            (0, 1, 0, 0, 1, True), (Fraction(1, 2), 1, 7, 2, 3, True)]
    for *vals, expect in grid:
        assert parab.is_nonsingular(pf, gl3_ex_ft(gl3, *vals)) is expect
    report(8, "gl3 B-matrix matches the closed formula; nondegenerate iff "
              "lt1 != lt2 and l1 != l2")


def test_criterion_09_nonsingular_vs_dual_stratum():
    t0 = time.time()
    checked = 0
    for label, n, rmax in (("sl", 2, 3), ("gl", 2, 3)):
        rd = root_datum(label, n)
        for r in range(1, rmax + 1):
            for pf in parab.enumerate_parabolic_filtrations(rd, r):
                for ft in admissible_grid(rd, pf, (Fraction(0), Fraction(1), Fraction(2))):
                    # is_nonsingular raises on any disagreement with the stratum test
                    by_rank = parab.is_nonsingular(pf, ft)
                    lf = pf.levi_filtration()
                    assert by_rank == strat.dual_stratum_contains(rd, lf, list(ft.lams))
                    checked += 1
    # gl3, r = 2: 500 seeded random admissible points
    gl3 = root_datum("gl", 3)
    rng = random.Random(2024)
    pfs = parab.enumerate_parabolic_filtrations(gl3, 2)
    sampled = 0
    while sampled < 500:
        pf = rng.choice(pfs)
        lf = pf.levi_filtration()
        from wildstrat.linalg import nullspace
        lams = []
        for i in range(2):
            rows = [list(gl3.coroots[a]) for a in indices(lf.mask(i))]
            basis = nullspace(rows, cols=gl3.dim_t)
            lam = [Fraction(0)] * gl3.dim_t
            for b in basis:
                c = Fraction(rng.randint(-2, 2))
                lam = [x + c * y for x, y in zip(lam, b)]
            lams.append(tuple(lam))
        ft = FormalType(lams)
        assert parab.is_nonsingular(pf, ft) \
            == strat.dual_stratum_contains(gl3, lf, list(ft.lams))
        sampled += 1
    elapsed = time.time() - t0
    report(9, f"rank test == dual-stratum membership on {checked} exhaustive "
              f"+ 500 sampled points ({elapsed:.1f}s)")


def _fixture_modules():
    sl2 = root_datum("sl", 2)
    gl2 = root_datum("gl", 2)
    gl3 = root_datum("gl", 3)
    i_e = sl2.root_index[(Fraction(2),)]
    i01 = gl_root_index(gl2, 0, 1)
    out = []
    out.append((ParabolicFiltration(sl2, [mask_from_indices([i_e])]),
                FormalType([(Fraction(7, 2),)])))
    out.append((ParabolicFiltration(sl2, [mask_from_indices([i_e])] * 2),
                FormalType([(5,), (7,)])))
    out.append((ParabolicFiltration(gl2, [mask_from_indices([i01])] * 2),
                FormalType([(Fraction(5, 2), 0), (3, 1)])))
    out.append((gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3)))
    return out


def test_criterion_10_shapovalov_properties():
    t0 = time.time()
    K = 4
    blocks_checked = 0
    for pf, ft in _fixture_modules():
        rd = pf.rd
        m = SingularityModule(pf, ft)
        md = SingularityModule(pf, ft, dilated=True)
        weights = m.weights_up_to(K)
        # cross-weight orthogonality on a panel of pairs
        for mu, nu in itertools.islice(itertools.combinations(weights, 2), 30):
            for y in m.weight_basis(mu)[:3]:
                for x in m.weight_basis(nu)[:3]:
                    assert m.shapovalov_entry(y, x) == 0
        for mu in weights:
            blk = m.shapovalov_block(mu)
            nmat = blk.matrix
            nd = blk.dim()
            assert all(nmat[i][j] == nmat[j][i] for i in range(nd) for j in range(nd))
            dblk = md.dual_block(mu)
            lens = dblk.lengths()
            for i in range(nd):
                for j in range(nd):
                    deg = dblk.matrix[i][j].degree()
                    if deg is not None:
                        assert deg <= min(lens[i], lens[j])
                    if i != j and lens[i] == lens[j] and deg is not None:
                        assert deg <= lens[i] - 1
                exps = md.word_of(dblk.basis[i])
                lead = 1
                for g in set(exps):
                    lead *= math.factorial(exps.count(g))
                assert dblk.matrix[i][i].coeff(lens[i]) == lead
            blocks_checked += 1
        # antitriangular shape on indecomposable roots
        for a in m.nu0:
            if m.split.heights[a] != 1:
                continue
            d = m.levels[a]
            blk = m.shapovalov_block(rd.roots[a])
            anti = ft.pair_coroot(rd, d - 1, a)
            for i in range(d):
                for j in range(d):
                    if i + j == d - 1:
                        assert blk.matrix[i][j] == anti
                    elif i + j > d - 1:
                        assert blk.matrix[i][j] == 0
        # contragrediency on sampled pairs
        rng = random.Random(7)
        monos = [mono for mu in weights[:4] for mono in m.weight_basis(mu)]
        letters = [("H", t, i) for t in range(rd.dim_t) for i in range(pf.depth)]
        letters += [("E", b, i) for b in range(rd.num_roots) for i in range(pf.depth)]
        t_of = lambda l: l if l[0] == "H" else ("E", rd.neg[l[1]], l[2])

        def sform(v1, v2):
            out = Fraction(0)
            for w1, c1 in v1.items():
                for w2, c2 in v2.items():
                    out += c1 * c2 * m.shapovalov_entry(m.mono_of(w1), m.mono_of(w2))
            return out

        for _ in range(25):
            g = rng.choice(letters)
            v = {m.word_of(rng.choice(monos)): Fraction(1)}
            u = {m.word_of(rng.choice(monos)): Fraction(1)}
            assert sform(m.apply_letter(t_of(g), v), u) == sform(v, m.apply_letter(g, u))
    elapsed = time.time() - t0
    report(10, f"Shapovalov properties on {blocks_checked} blocks, K = 4 "
               f"({elapsed:.1f}s)")


def test_criterion_11_factorization_exact():
    t0 = time.time()
    total = 0
    for pf, ft in _fixture_modules():
        md = SingularityModule(pf, ft, dilated=True)
        for mu in md.weights_up_to(4):
            blk = md.dual_block(mu)
            d, c, q = factorize_block(blk)
            assert reassemble(d, c, q) == blk.matrix
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(11, f"D C Qtilde reproduces all {total} blocks exactly ({elapsed:.1f}s)")


def test_criterion_12_radical_profile(sl2):
    a_root = sl2.roots[sl2.root_index[(Fraction(2),)]]
    for n in (0, 1, 2, 3):
        m = SingularityModule(sl2_pf(sl2, 1), FormalType([(n,)]))
        for k in range(1, 6):
            oracle = math.factorial(k)
            for j in range(k):
                oracle *= (n - j)
            rad = m.radical_dim(tuple(k * x for x in a_root))
            assert (rad > 0) == (oracle == 0) == (k >= n + 1)
    report(12, "sl2 tame radical profiles match k! prod(n - j) for n in 0..3")


def test_criterion_13_truncated_quotients(sl2, gl2):
    i01 = gl_root_index(gl2, 0, 1)
    pf_gl2 = ParabolicFiltration(gl2, [mask_from_indices([i01])] * 2)
    cases = [
        (sl2_pf(sl2, 2), FormalType([(5,), (0,)]), 1),
        (sl2_pf(sl2, 2), FormalType([(5,), (1,)]), 1),
        (sl2_pf(sl2, 2), FormalType([(Fraction(1, 2),), (Fraction(3, 4),)]), 1),
        (pf_gl2, FormalType([(2, 0), (3, 3)]), 1),
        (pf_gl2, FormalType([(2, 0), (3, 1)]), 1),
        (sl2_pf(sl2, 3), FormalType([(5,), (0,), (0,)]), 2),
        (sl2_pf(sl2, 3), FormalType([(5,), (1,), (0,)]), 2),
    ]
    for pf, ft, k in cases:
        criterion = singmod.truncated_quotient_proper(pf, ft, k)
        saturated = singmod.truncated_quotient_saturation(pf, ft, k, K=4)
        assert criterion == (not saturated), (pf, ft.lams, k)
    report(13, "truncated-quotient criterion matches submodule saturation (K=4)")


def test_criterion_14_quantization():
    t0 = time.time()
    sl2 = root_datum("sl", 2)
    gl3 = root_datum("gl", 3)
    cases = [
        ("sl2 tame", sl2_pf(sl2, 1), FormalType([(3,)])),
        ("sl2 r=2", sl2_pf(sl2, 2), FormalType([(5,), (7,)])),
        ("gl3 depth-2 chain", gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3)),
    ]
    for name, pf, ft in cases:
        series = quant.inverse_shapovalov_series(pf, ft, K=2, N=2)
        assert series.terms[0] == {((), ()): Fraction(1)}, name          # (a)
        assert quant.first_order_check(series), name                      # (b)
        bid = quant.star_bidiff(series)
        assert quant.associativity_check(bid, 2), name                    # (c)
        series4 = quant.inverse_shapovalov_series(pf, ft, K=4, N=2)
        assert series4.terms == series.terms, name
        assert quant.associativity_check(quant.star_bidiff(series4), 2), name
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(14, f"quantisation: F_0 = 1x1, skew hbar^1 = Pi, associative at "
               f"N=2 and stable at K=4 ({elapsed:.1f}s)")


def test_criterion_15_negative_controls(sl2, sl4):
    # corrupted stratification family fails the axiom check
    fs = enumerate_filtrations(sl2, 3)
    bad = strat.verify_stratification_axioms(sl2, fs[:-1])
    assert not bad["ok"]
    # unbalanced sl4 depth-3 filtration is rejected by the quantisation
    pos4 = mask_from_indices(sl4.positive)
    span12 = strat.span_closure(sl4, mask_from_indices(sl4.simple[:2]))
    pf = ParabolicFiltration(sl4, [pos4, pos4, pos4 | span12])
    zero = FormalType([tuple(Fraction(0) for _ in range(sl4.dim_t))] * 3)
    with pytest.raises(quant.UnbalancedFiltration):
        quant.inverse_shapovalov_series(pf, zero, 2, 2)
    # singular formal type is rejected
    with pytest.raises(parab.SingularCharacterError):
        quant.inverse_shapovalov_series(sl2_pf(sl2, 2), FormalType([(5,), (0,)]), 2, 2)
    report(15, "negative controls: corrupted family, unbalanced filtration, "
               "singular character all rejected")
