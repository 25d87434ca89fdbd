import gc
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from wildstrat import parab, quant, singmod, strat, uea
from wildstrat.linalg import CPoly
from wildstrat.parab import FormalType, ParabolicFiltration, SingularCharacterError
from wildstrat.quant import (InverseShapovalov, TruncationError, UnbalancedFiltration,
                             V0Context, associativity_check, check_invariance,
                             first_difference, first_order_check, inverse_shapovalov_series,
                             poisson_bivector, star_bidiff)
from wildstrat.rootdata import all_letters, root_datum
from wildstrat.singmod import SingularityModule
from wildstrat.strat import mask_from_indices
from wildstrat.uea import acc
from bubble_sort_uea import BubbleSortUEA
from conftest import gl_root_index
from test_block_oracles import (_b2_borel_r2, _b2_tame, _gl3_chain, _sl2_r3,
                                assert_blocks_match_cpoly, assert_inverse_matches_oracles,
                                assert_memo_matches_reference, letter_c_degrees,
                                reference_action)
from test_parab import gl3_ex_chain, gl3_ex_ft
from v0_projection import project_word


def shuffle_coproduct(word):
    """Delta(x_1...x_n) = sum over subsets I of x_I (x) x_J (primitives)."""
    n = len(word)
    out = []
    for bits in range(1 << n):
        left = tuple(word[t] for t in range(n) if (bits >> t) & 1)
        right = tuple(word[t] for t in range(n) if not (bits >> t) & 1)
        out.append((left, right))
    return out


def oracle_associativity_check(bid: InverseShapovalov, N=None, return_sides=False):
    """The unfactored check on Fraction coefficients: every pair of terms and
    every shuffle split of the outer slot, projected word by word."""
    if N is None:
        N = bid.order
    if N > bid.order:
        raise TruncationError("cannot check beyond the computed truncation order")
    v0 = bid.v0
    left = {}
    right = {}
    for h1, d1 in bid.terms.items():
        for h2, d2 in bid.terms.items():
            h = h1 + h2
            if h > N:
                continue
            for (a, b), c1 in d1.items():
                for (x, y), c2 in d2.items():
                    c = c1 * c2
                    # B^(12,3): Delta on the first slot of the OUTER factor
                    for a_i, a_j in shuffle_coproduct(a):
                        s1 = project_word(v0, a_i + x)
                        if not s1:
                            continue
                        s2 = project_word(v0, a_j + y)
                        if not s2:
                            continue
                        for w1, cc1 in s1.items():
                            for w2, cc2 in s2.items():
                                acc(left.setdefault(h, {}), (w1, w2, b), c * cc1 * cc2)
                    # B^(1,23): Delta on the second slot of the outer factor
                    for b_i, b_j in shuffle_coproduct(b):
                        s2 = project_word(v0, b_i + x)
                        if not s2:
                            continue
                        s3 = project_word(v0, b_j + y)
                        if not s3:
                            continue
                        for w2, cc2 in s2.items():
                            for w3, cc3 in s3.items():
                                acc(right.setdefault(h, {}), (a, w2, w3), c * cc2 * cc3)
    left = {h: d for h, d in left.items() if d}
    right = {h: d for h, d in right.items() if d}
    if return_sides:
        return left == right, left, right
    return left == right


def oracle_check_invariance(series: InverseShapovalov, letters=None):
    """The per-weight check: F rebuilt from the inverted blocks, the dual
    letters of each right slot expanded and applied inside M^-; both modules
    act through the CPoly reference engine."""
    pf, ft = series.pf, series.ft
    mod_plus = SingularityModule(pf, ft, dilated=True)
    mod_minus = SingularityModule(pf.opposite(), ft.scale(-1), dilated=True)
    act_plus, act_minus = reference_action(mod_plus), reference_action(mod_minus)
    rd = pf.rd
    duals = mod_plus.dual_letters()
    if letters is None:
        letters = all_letters(rd, pf.depth)
    # rebuild F per weight: left slot X w^+ in M^+, right slot Y w^- in M^-
    weights = set(series.module.root_sums(series.order))
    pairs = []
    for mu, block, finv in series_blocks(series):
        basis = block.basis
        for i in range(len(basis)):
            xv = {basis[i]: CPoly.const(1)}
            for j in range(len(basis)):
                if finv[i][j]:
                    yv = _dual_vector(mod_plus, mod_minus, duals, basis[j])
                    pairs.append((xv, yv, finv[i][j]))
    pairs.append(({(): CPoly.const(1)}, {(): CPoly.const(1)}, CPoly.const(1)))
    ok = True
    for g in letters:
        total = {}
        for xv, yv, series_cf in pairs:
            gx = act_plus.apply(g, xv)
            gy = act_minus.apply(g, yv)
            for wx, cx in gx.items():
                for wy, cy in yv.items():
                    acc(total, (wx, wy), cx * cy * series_cf)
            for wx, cx in xv.items():
                for wy, cy in gy.items():
                    acc(total, (wx, wy), cx * cy * series_cf)
        # restrict to covered components: both slot weights must be computed
        for (wl, wr), val in total.items():
            mul = mod_plus.weight_of_word(wl)
            mur = tuple(-x for x in mod_minus.weight_of_word(wr))
            if mul != mur:
                continue
            if mul not in weights and any(x != 0 for x in mul):
                continue
            truncated = CPoly({d: v for d, v in val.c.items() if -d <= series.order})
            if truncated:
                ok = False
    return ok


def series_blocks(series):
    """(mu, dual block, inverse truncated at the order) over the weights the
    series is built from, each block inverted again."""
    mod, N = series.module, series.order
    for mu in mod.root_sums(N):
        block = mod.dual_block(mu)
        yield mu, block, quant.invert_block(block, N)


def _dual_vector(mod_plus, mod_minus, duals, word):
    """The vector Y_{f,i} w^- inside M^-, dual letters expanded and applied."""
    vec = {(): CPoly.const(1)}
    for g in reversed(word):
        a, i = mod_plus.gens[g]
        new = {}
        for c, letter in duals[(a, i)]:
            for w, cv in reference_action(mod_minus).apply(letter, vec).items():
                acc(new, w, c * cv)
        vec = new
    return vec


def _changed(series, h):
    """The series with one more 1 on its term at hbar^h with the longest
    words, over a fresh V0 context.  The longest words, because at h = order
    a change to single letters would be a Hochschild coboundary and could go
    unseen by the associativity check."""
    key = max(sorted(series.terms[h]), key=lambda k: len(k[0]) + len(k[1]))
    terms = {g: dict(d) for g, d in series.terms.items()}
    terms[h][key] += 1
    return InverseShapovalov(series.pf, series.ft, series.order, terms, series.module,
                             V0Context(series.pf))


def _reversed_slot(series, h):
    """(series, term): the series with one slot of one term at hbar^h written
    backwards, over a fresh V0 context, and that term as it now reads."""
    terms = {g: dict(d) for g, d in series.terms.items()}
    key = next(k for k in sorted(terms[h]) if any(w != w[::-1] for w in k))
    i = next(i for i, w in enumerate(key) if w != w[::-1])
    bad = tuple(w[::-1] if j == i else w for j, w in enumerate(key))
    terms[h][bad] = terms[h].pop(key)
    return InverseShapovalov(series.pf, series.ft, series.order, terms, series.module,
                             V0Context(series.pf)), bad


def degree0_is_identity(bid):
    return bid.terms.get(0, {}) == {((), ()): Fraction(1)}


def sl2_setup(sl2, lams):
    i_e = sl2.root_index[(Fraction(2),)]
    pos = mask_from_indices([i_e])
    pf = ParabolicFiltration(sl2, [pos] * len(lams))
    return pf, FormalType([(l,) for l in lams]), i_e


def test_degree_zero_term(sl2):
    pf, ft, _ = sl2_setup(sl2, [3])
    series = inverse_shapovalov_series(pf, ft, K=2, N=2)
    assert series.terms[0] == {((), ()): Fraction(1)}


def test_sl2_tame_first_order(sl2):
    """Oracle: invert the 1x1 block S_c(Y_{a,0}, X_{a,0}) = c exactly.

    With the dual normalization the weight-alpha component of F is
    hbar * (F (x) Y_{a,0}) and Y_{a,0} = -E / lambda(H)."""
    a = Fraction(3)
    pf, ft, i_e = sl2_setup(sl2, [a])
    i_f = sl2.neg[i_e]
    series = inverse_shapovalov_series(pf, ft, K=1, N=1)
    assert series.terms[1] == {((("E", i_f, 0),), (("E", i_e, 0),)): -1 / a}


def test_sl2_r2_first_order_oracle(sl2):
    """Oracle: exact inverse of the 2x2 antitriangular block, hbar^1 part."""
    a, b = Fraction(5), Fraction(7)
    pf, ft, i_e = sl2_setup(sl2, [a, b])
    i_f = sl2.neg[i_e]
    # dual basis: B-line matrix [[a, b], [b, 0]]; Y-coeffs = -inverse
    # inverse of [[a,b],[b,0]] = [[0, 1/b], [1/b, -a/b^2]]
    y0 = {("E", i_e, 1): -1 / b}
    y1 = {("E", i_e, 0): -1 / b, ("E", i_e, 1): a / b ** 2}
    series = inverse_shapovalov_series(pf, ft, K=1, N=1)
    got = series.terms[1]
    expected = {}
    for (lw, rw), coeff in (
            (((("E", i_f, 0),), (("E", i_e, 1),)), -1 / b),
            (((("E", i_f, 1),), (("E", i_e, 0),)), -1 / b),
            (((("E", i_f, 1),), (("E", i_e, 1),)), a / b ** 2)):
        expected[(lw, rw)] = coeff
    assert got == expected


def test_poisson_bivector_examples(sl2):
    a = Fraction(3)
    pf, ft, i_e = sl2_setup(sl2, [a])
    i_f = sl2.neg[i_e]
    pi = poisson_bivector(pf, ft)
    x, y = (("E", i_f, 0),), (("E", i_e, 0),)
    assert pi == {(x, y): -1 / a, (y, x): 1 / a}
    # scaling lambda by 2 halves the bivector
    pi2 = poisson_bivector(pf, FormalType([(2 * a,)]))
    assert pi2 == {k: v / 2 for k, v in pi.items()}


def test_first_order_checks(sl2, gl3):
    pf, ft, _ = sl2_setup(sl2, [3])
    assert first_order_check(inverse_shapovalov_series(pf, ft, 2, 2))
    pf2, ft2, _ = sl2_setup(sl2, [5, 7])
    assert first_order_check(inverse_shapovalov_series(pf2, ft2, 2, 2))
    pf3 = gl3_ex_chain(gl3)
    ft3 = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    assert first_order_check(inverse_shapovalov_series(pf3, ft3, 2, 2))


def test_first_order_check_needs_order_one(sl2):
    """A series truncated at N = 0 has no hbar^1 term, so there is nothing to check."""
    pf, ft, _ = sl2_setup(sl2, [3])
    with pytest.raises(TruncationError):
        first_order_check(inverse_shapovalov_series(pf, ft, 0, 0))
    assert first_order_check(inverse_shapovalov_series(pf, ft, 1, 1))


def test_invariance(sl2, gl3):
    pf, ft, _ = sl2_setup(sl2, [3])
    assert check_invariance(inverse_shapovalov_series(pf, ft, 2, 2))
    pf2, ft2, _ = sl2_setup(sl2, [5, 7])
    assert check_invariance(inverse_shapovalov_series(pf2, ft2, 2, 2))
    pf3 = gl3_ex_chain(gl3)
    ft3 = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    assert check_invariance(inverse_shapovalov_series(pf3, ft3, 2, 2))


def test_check_invariance_matches_oracle(sl2, gl3, sl3):
    """The check on the series' own terms agrees with the per-weight oracle
    on the cases of test_invariance and the sl3 chain."""
    cases = [sl2_setup(sl2, [3])[:2], sl2_setup(sl2, [5, 7])[:2],
             (gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3)), sl3_chain(sl3)]
    for pf, ft in cases:
        series = inverse_shapovalov_series(pf, ft, 2, 2)
        assert check_invariance(series) == oracle_check_invariance(series) is True


def test_check_invariance_negative_control():
    """One more 1 on the longest hbar^1 term of the sl2 r=3 series breaks
    invariance: the check reads F from the terms, not from the blocks."""
    pf, ft = _sl2_r3()
    series = inverse_shapovalov_series(pf, ft, 3, 3)
    assert check_invariance(series)
    assert check_invariance(_changed(series, 1)) is False


def test_project_v0(sl2):
    pf, ft, i_e = sl2_setup(sl2, [3])
    i_f = sl2.neg[i_e]
    v0 = V0Context(pf)
    E, F, H = ("E", i_e, 0), ("E", i_f, 0), ("H", 0, 0)
    # p(1) = w_0
    assert project_word(v0, ()) == {(): Fraction(1)}
    # p(H E): H E = E H + [H, E]: the E H term dies, leaving 2E
    assert project_word(v0, (H, E)) == {(E,): Fraction(2)}
    # p(F H) = 0 since H is a right Levi factor; p(H F) reduces to -2F
    assert project_word(v0, (F, H)) == {}
    assert project_word(v0, (H, F)) == {(F,): Fraction(-2)}


def test_project_v0_eps_levi(sl2):
    pf, ft, i_e = sl2_setup(sl2, [5, 7])
    i_f = sl2.neg[i_e]
    v0 = V0Context(pf)
    F, He = ("E", i_f, 0), ("H", 0, 1)
    # p(F He) = 0 (right multiple of the Levi part); p(He F) = commutator term
    assert project_word(v0, (F, He)) == {}
    assert project_word(v0, (He, F)) == {(("E", i_f, 1),): Fraction(-2)}


@pytest.mark.parametrize("make, N", [(_gl3_chain, 3), (_sl2_r3, 4)],
                         ids=["gl3 chain N=3", "sl2 r=3 N=4"])
def test_project_word_matches_bubble_sort_oracle(make, N):
    """Every step letter . w that associativity_check hands to the V0 engine
    (w a V0 word of basis positions), mapped back to letters, equals the
    bubble-sort normal form of the word (letter,) + w in (neg, pos, levi)
    with the levi words dropped."""
    pf, ft = make()
    bid = star_bidiff(inverse_shapovalov_series(pf, ft, N, N))
    v0, ctx = bid.v0, bid.v0.ctx
    steps = {}
    depth = [0]  # the engine's own recursive calls are not the check's steps

    def recording(letter, word):
        depth[0] += 1
        try:
            result = uea.UEAContext.act(ctx, letter, word)
        finally:
            depth[0] -= 1
        if not depth[0]:
            steps[letter, word] = result
        return result

    ctx.act = recording
    try:
        assert associativity_check(bid)
    finally:
        del ctx.act
    assert len(steps) > 10
    oracle = BubbleSortUEA(pf, layout=("neg", "pos", "levi"))
    for (letter, word), got in steps.items():
        want = {}
        for w, c in oracle.normal_form((letter,) + v0.ctx.letters(word)).items():
            neg, pos, levi = oracle.split_word(w)
            if not levi:
                uea.acc(want, neg + pos, c)
        assert {v0.ctx.letters(w): c for w, c in got.items()} == want, (letter, word)


ASSOC_CASES = {"gl3 chain N=3": (_gl3_chain, 3), "sl2 r=3 N=4": (_sl2_r3, 4),
               "B2 tame N=3": (_b2_tame, 3), "B2 borel r=2 N=2": (_b2_borel_r2, 2)}


def _assoc_series(label):
    make, order = ASSOC_CASES[label]
    pf, ft = make()
    return inverse_shapovalov_series(pf, ft, order, order)


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_series_slots_are_v0_basis_words(label):
    """star_bidiff keeps F as it is: every slot word of F is its own V0 projection."""
    series = _assoc_series(label)
    v0 = V0Context(series.pf)
    words = {w for d in series.terms.values() for pair in d for w in pair}
    assert len(words) > 2
    for word in words:
        assert project_word(v0, word) == {word: 1}, word
    assert star_bidiff(series).terms == series.terms


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_series_blocks_match_cpoly_recursion(label):
    """The dual blocks the series is built from, and the scalar Shapovalov
    blocks up to the order, equal the CPoly/Fraction weight recursion (and
    the dual ones the per-entry oracle)."""
    series = _assoc_series(label)
    assert_blocks_match_cpoly(series.module, series.module.root_sums(series.order))
    scalar = SingularityModule(series.pf, series.ft)
    assert_blocks_match_cpoly(scalar, scalar.weights_up_to(series.order))


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_series_memo_matches_cpoly_reference(label):
    """Every entry of the series module's action memo, its c-words folded
    into CPolys, equals the CPoly reference engine's."""
    assert_memo_matches_reference(_assoc_series(label).module)


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_series_letter_images_add_c_degree_at_most_one(label):
    """Every one-letter image in the series module's memo raises the
    c-degree of the word it acts on by 0 or 1."""
    assert letter_c_degrees(_assoc_series(label).module) == {0, 1}


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_series_block_inverses_match_oracles(label):
    """Every block inverse the series is built from equals the Qtilde
    recursion and the CPoly Neumann series, exactly."""
    series = _assoc_series(label)
    for _, block, finv in series_blocks(series):
        assert_inverse_matches_oracles(block, finv, series.order)


def test_v0_rejects_a_letter_outside_the_triangular_split(gl3):
    """A chain that skipped its checks, with the non-parabolic member {a12}:
    four root letters are neither neg, pos nor levi."""
    pf = ParabolicFiltration._verified(gl3, [mask_from_indices([gl_root_index(gl3, 0, 1)])])
    with pytest.raises(strat.ClaimViolation, match="escapes the triangular classification"):
        V0Context(pf)


def test_star_degree_zero_and_assoc_trivial(sl2):
    pf, ft, _ = sl2_setup(sl2, [3])
    series = inverse_shapovalov_series(pf, ft, K=0, N=0)
    bid = star_bidiff(series)
    assert degree0_is_identity(bid)
    assert associativity_check(bid, 0)


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_one_module_v0_and_dual_basis_per_quantisation(monkeypatch, label):
    """Series, first-order check, B and the associativity check build one
    singularity module, one V0 context and one dual basis between them."""
    make, order = ASSOC_CASES[label]
    pf, ft = make()
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SingularityModule, "__init__",
                        counting("module", SingularityModule.__init__))
    monkeypatch.setattr(V0Context, "__init__", counting("v0", V0Context.__init__))
    monkeypatch.setattr(parab, "dual_basis", counting("dual_basis", parab.dual_basis))
    series = inverse_shapovalov_series(pf, ft, order, order)
    assert first_order_check(series)
    assert associativity_check(star_bidiff(series))
    assert counts == {"module": 1, "v0": 1, "dual_basis": 1}


def test_one_triangular_split_per_filtration(monkeypatch):
    """The singularity module, the V0 context and the dual basis of a
    quantisation read one TriangularSplit, built once per root datum and
    chain, and freed with the datum."""
    rd = root_datum.__wrapped__("gl", 3)  # a datum of its own, outside root_datum's cache
    pf, ft = gl3_ex_chain(rd), gl3_ex_ft(rd, 1, 2, 4, 6, 3)
    builds = Counter()
    build = parab.TriangularSplit.__init__

    def counting(self, pf):
        builds[pf.masks] += 1
        build(self, pf)

    monkeypatch.setattr(parab.TriangularSplit, "__init__", counting)
    series = inverse_shapovalov_series(pf, ft, 2, 2)
    assert associativity_check(star_bidiff(series))
    assert builds == {pf.masks: 1}
    split = parab.triangular_split(ParabolicFiltration(rd, pf.masks))
    assert series.module.split is split and parab.dual_basis(pf, ft)[1] is split
    assert builds == {pf.masks: 1}
    monkeypatch.undo()
    ref = weakref.ref(rd)
    del rd, pf, series
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("label, dual_builds, scalar_builds",
                         [("gl3 chain N=3", 16, 10), ("sl2 r=3 N=4", 5, 5),
                          ("B2 tame N=3", 28, 10), ("B2 borel r=2 N=2", 15, 6)])
def test_block_builds_per_quantisation(monkeypatch, label, dual_builds, scalar_builds):
    """The series builds each dual block it needs once, as many as the weight
    worklist built before blocks followed the word table's order; so do the
    scalar Shapovalov blocks up to the order."""
    make, order = ASSOC_CASES[label]
    pf, ft = make()
    builds = Counter()
    build = SingularityModule._build_block

    def counting(self, mu, dual):
        builds[self.dilated, dual] += 1
        return build(self, mu, dual)

    monkeypatch.setattr(SingularityModule, "_build_block", counting)
    series = inverse_shapovalov_series(pf, ft, order, order)
    scalar = SingularityModule(pf, ft)
    for mu in scalar.weights_up_to(order):
        scalar.shapovalov_block(mu)
    assert builds == {(True, True): dual_builds, (False, False): scalar_builds}
    assert len(series.module._blocks) == dual_builds and len(scalar._blocks) == scalar_builds


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_associativity_check_matches_oracle(label):
    """Both sides equal the unfactored Fraction oracle's, key for key, at every N."""
    series = _assoc_series(label)
    for N in range(series.order + 1):
        got = associativity_check(star_bidiff(series), N, return_sides=True)
        want = oracle_associativity_check(star_bidiff(series), N, return_sides=True)
        assert want[0], (label, N)
        assert got == want, (label, N)


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_associativity_check_rejects_a_slot_that_is_no_v0_word(label):
    """A slot written backwards, or carrying a levi letter, is no V0 basis
    word: the check raises ClaimViolation naming h and the term."""
    series = _assoc_series(label)
    h = series.order
    bad, term = _reversed_slot(series, h)
    for return_sides in (False, True):
        with pytest.raises(strat.ClaimViolation, match=re.escape(f"{term} at hbar^{h}")):
            associativity_check(bad, return_sides=return_sides)
    terms = {g: dict(d) for g, d in series.terms.items()}
    (lw, rw), c = sorted(terms[1].items())[0]
    term = (lw, rw + (("H", 0, 0),))
    terms[1][term] = c
    levi = InverseShapovalov(series.pf, series.ft, series.order, terms, series.module,
                             series.v0)
    with pytest.raises(strat.ClaimViolation, match=re.escape(f"{term} at hbar^1")):
        associativity_check(levi)
    assert associativity_check(series)


@pytest.mark.parametrize("label", list(ASSOC_CASES))
def test_associativity_check_negative_control(label):
    """One coefficient of B moved by 1, at h = 1 and at h = order: the check
    fails, and its sides first differ where the oracle's do."""
    series = _assoc_series(label)
    for h in sorted({1, series.order}):
        ok, left, right = associativity_check(_changed(series, h), return_sides=True)
        want_ok, want_left, want_right = oracle_associativity_check(_changed(series, h),
                                                                    return_sides=True)
        assert not ok and not want_ok, (label, h)
        assert associativity_check(_changed(series, h)) is False
        assert first_difference(left, right) == first_difference(want_left, want_right)
        assert (left, right) == (want_left, want_right), (label, h)


def test_associativity_sl2(sl2):
    pf, ft, _ = sl2_setup(sl2, [3])
    bid = star_bidiff(inverse_shapovalov_series(pf, ft, 2, 2))
    assert associativity_check(bid, 2)
    pf2, ft2, _ = sl2_setup(sl2, [5, 7])
    bid2 = star_bidiff(inverse_shapovalov_series(pf2, ft2, 2, 2))
    assert associativity_check(bid2, 2)


def test_associativity_gl3(gl3):
    pf = gl3_ex_chain(gl3)
    ft = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    bid = star_bidiff(inverse_shapovalov_series(pf, ft, 2, 2))
    assert associativity_check(bid, 2)


def test_truncation_stability(sl2, gl3):
    """Raising K beyond N never changes the computed coefficients."""
    pf, ft, _ = sl2_setup(sl2, [5, 7])
    s2 = inverse_shapovalov_series(pf, ft, 2, 2)
    s4 = inverse_shapovalov_series(pf, ft, 4, 2)
    assert s2.terms == s4.terms
    pf3 = gl3_ex_chain(gl3)
    ft3 = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    assert inverse_shapovalov_series(pf3, ft3, 2, 2).terms \
        == inverse_shapovalov_series(pf3, ft3, 4, 2).terms


def test_rejections(sl2, sl4, gl3):
    # singular character
    pf, ft, _ = sl2_setup(sl2, [5, 0])
    with pytest.raises(SingularCharacterError):
        inverse_shapovalov_series(pf, ft, 2, 2)
    # K < N
    pf2, ft2, _ = sl2_setup(sl2, [5, 7])
    with pytest.raises(TruncationError):
        inverse_shapovalov_series(pf2, ft2, 1, 2)
    # unbalanced sl4 depth-3 filtration
    pos4 = mask_from_indices(sl4.positive)
    span12 = strat.span_closure(sl4, mask_from_indices(sl4.simple[:2]))
    pf3 = ParabolicFiltration(sl4, [pos4, pos4, pos4 | span12])
    lf = pf3.levi_filtration()
    lams = []
    for i in range(3):
        lams.append(tuple(Fraction(0) for _ in range(sl4.dim_t)))
    with pytest.raises(UnbalancedFiltration):
        inverse_shapovalov_series(pf3, FormalType(lams), 2, 2)


def test_shuffle_coproduct_counts():
    word = ("a", "b", "c")
    parts = shuffle_coproduct(word)
    assert len(parts) == 8
    assert (("a", "b", "c"), ()) in parts and ((), ("a", "b", "c")) in parts
    assert (("a", "c"), ("b",)) in parts  # subwords keep their order


def test_antipode_reverses_with_sign():
    # iota(E F) = F E with sign (-1)^2; odd lengths flip the sign
    elem = {("E", "F"): Fraction(1), ("E",): Fraction(2)}
    out = uea.antipode(elem)
    assert out == {("F", "E"): Fraction(1), ("E",): Fraction(-2)}


def test_weight_zero_space_is_cyclic_line(sl2):
    pf, ft, _ = sl2_setup(sl2, [5, 7])
    mod = singmod.SingularityModule(pf, ft)
    zero = tuple([Fraction(0)] * sl2.dim_t)
    assert mod.weight_basis(zero) == [()]


def test_sl2_tame_series_against_closed_form(sl2):
    """Independent oracle: the tame weight-k alpha block is the 1x1 matrix
    A_k = (1/a^k) k! prod_{j<k}(c a - j); invert it as an exact hbar-series
    and compare every computed coefficient through order 3."""
    import math
    a = Fraction(3)
    pf, ft, i_e = sl2_setup(sl2, [a])
    i_f = sl2.neg[i_e]
    N = 3
    series = inverse_shapovalov_series(pf, ft, K=3, N=N)
    expected = {0: {((), ()): Fraction(1)}}
    for k in range(1, N + 1):
        # series inversion of A_k in hbar = 1/c, truncated at hbar^N
        # A_k = d c^k (1 + p(hbar)) with d > 0: 1/A_k = hbar^k/d * sum (-p)^m
        coeffs = {}  # hbar-degree -> Fraction of A_k written in hbar
        for j_deg, v in _closed_form_block(a, k).c.items():
            coeffs[k - j_deg] = v  # c^j = hbar^{k-j} relative to c^k
        d = coeffs.pop(0)
        inv = {0: 1 / d}
        for deg in range(1, N - k + 1):
            acc = Fraction(0)
            for low, v in coeffs.items():
                if 0 <= deg - low in inv:
                    acc += v * inv[deg - low]
            inv[deg] = -acc / d
        left = (("E", i_f, 0),) * k
        right = (("E", i_e, 0),) * k
        ycoef = Fraction(-1, a) ** k
        for deg, v in inv.items():
            h = k + deg
            if h > N or v == 0:
                continue
            expected.setdefault(h, {})[(left, right)] = v * ycoef
    assert series.terms == expected


def _closed_form_block(a, k):
    import math
    cf = CPoly.const(Fraction(math.factorial(k), a ** k))
    for j in range(k):
        cf = cf * (CPoly({1: a}) - j)
    return cf


def test_associativity_order_three(sl2):
    pf, ft, _ = sl2_setup(sl2, [3])
    bid = star_bidiff(inverse_shapovalov_series(pf, ft, 3, 3))
    assert associativity_check(bid, 3)
    pf2, ft2, _ = sl2_setup(sl2, [5, 7])
    bid2 = star_bidiff(inverse_shapovalov_series(pf2, ft2, 3, 3))
    assert associativity_check(bid2, 3)


def test_associativity_gl3_order_three(gl3):
    pf = gl3_ex_chain(gl3)
    ft = gl3_ex_ft(gl3, 1, 2, 4, 6, 3)
    bid = star_bidiff(inverse_shapovalov_series(pf, ft, 3, 3))
    assert associativity_check(bid, 3)


def test_quantize_gl2_depth3(gl2):
    i01 = gl_root_index(gl2, 0, 1)
    pf = ParabolicFiltration(gl2, [mask_from_indices([i01])] * 3)
    ft = FormalType([(Fraction(5, 2), 0), (3, 1), (1, 0)])
    series = inverse_shapovalov_series(pf, ft, 2, 2)
    assert first_order_check(series)
    assert associativity_check(star_bidiff(series), 2)


def test_block_inverse_identity(sl2, gl3):
    """A[mu] * f[mu] = Id through the provable hbar window.

    The computed f is the exact series inverse truncated at hbar^N, so the
    product can deviate from the identity only in hbar-degrees above
    N - max(length): every coefficient at or below that threshold must vanish.
    """
    from wildstrat.quant import inverse_shapovalov_series
    N = 4
    cases = [sl2_setup(sl2, [5, 7])[:2],
             (gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3))]
    for pf, ft in cases:
        series = inverse_shapovalov_series(pf, ft, K=N, N=N)
        for mu, block, finv in series_blocks(series):
            n = block.dim()
            window = N - max(block.lengths())
            for i in range(n):
                for j in range(n):
                    acc = CPoly()
                    for k in range(n):
                        acc = acc + block.matrix[i][k] * finv[k][j]
                    target = CPoly.const(1) if i == j else CPoly()
                    diff = acc - target
                    for deg, v in diff.c.items():
                        assert -deg > window, (mu, i, j, deg, v)


def test_quantize_b2_tame(b2):
    """Non-simply-laced sanity: the B2 tame case runs the whole pipeline."""
    pos = mask_from_indices(b2.positive)
    pf = ParabolicFiltration(b2, [pos])
    ft = FormalType([(9, 16)])
    assert parab.is_nonsingular(pf, ft)
    series = inverse_shapovalov_series(pf, ft, 2, 2)
    assert first_order_check(series)
    assert associativity_check(star_bidiff(series), 2)


def sl3_chain(sl3):
    """A depth-2 chain with a genuinely bigger second parabolic on sl3."""
    from wildstrat.linalg import nullspace
    pos = mask_from_indices(sl3.positive)
    span1 = strat.span_closure(sl3, mask_from_indices(sl3.simple[:1]))
    pf = ParabolicFiltration(sl3, [pos, pos | span1])
    lf = pf.levi_filtration()
    rows = [list(sl3.coroots[a]) for a in strat.indices(lf.mask(1))]
    lam1 = tuple(7 * b for b in nullspace(rows, cols=sl3.dim_t)[0])
    return pf, FormalType([(9, 16), lam1])


def test_quantize_sl3_nongeneric_chain(sl3):
    """A depth-2 chain with a genuinely bigger second parabolic on sl3."""
    pf, ft = sl3_chain(sl3)
    assert pf.is_balanced()
    assert parab.is_nonsingular(pf, ft)
    series = inverse_shapovalov_series(pf, ft, 2, 2)
    assert first_order_check(series)
    assert check_invariance(series)
    assert associativity_check(star_bidiff(series), 2)


def test_star_bidiff_levi_invariance(sl2, gl3):
    """B is invariant under the Levi factor acting diagonally on V0 (x) V0:
    sum over slots of [g . B] vanishes for every Levi letter g.  This is the
    statement that makes B a bidifferential operator on the orbit."""
    cases = [sl2_setup(sl2, [5, 7])[:2],
             (gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3))]
    for pf, ft in cases:
        series = inverse_shapovalov_series(pf, ft, 2, 2)
        bid = star_bidiff(series)
        v0 = bid.v0
        rd = pf.rd
        levi_letters = [("H", t, i) for t in range(rd.dim_t) for i in range(pf.depth)]
        lf = pf.levi_filtration()
        for i in range(pf.depth):
            levi_letters += [("E", b, i) for b in strat.indices(lf.mask(i))]
        for g in levi_letters:
            for h, terms in bid.terms.items():
                acc = {}
                for (w1, w2), c in terms.items():
                    for u1, c1 in project_word(v0, (g,) + w1).items():
                        key = (u1, w2)
                        acc[key] = acc.get(key, Fraction(0)) + c * c1
                    for u2, c2 in project_word(v0, (g,) + w2).items():
                        key = (w1, u2)
                        acc[key] = acc.get(key, Fraction(0)) + c * c2
                assert all(v == 0 for v in acc.values()), (g, h)
