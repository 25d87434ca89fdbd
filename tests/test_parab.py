import itertools
from fractions import Fraction

import pytest

from wildstrat import parab, strat
from wildstrat.elements import GElement, TcElement
from wildstrat.linalg import One, Zero, frac, nullspace, rank
from wildstrat.rootdata import root_datum
from wildstrat.parab import (FormalType, InadmissibleCharacter,
                             ParabolicFiltration, b_pairing_blocks,
                             b_pairing_matrix, dual_basis,
                             character_space_dim, enumerate_parabolic,
                             enumerate_parabolic_filtrations, height_functional,
                             is_admissible, is_nonsingular, is_parabolic, levi_factor,
                             require_admissible, triangular_split)
from wildstrat.singmod import SingularityModule
from wildstrat.strat import full_mask, indices, mask_from_indices
from conftest import gl_root_index


def gl3_ex_chain(gl3):
    """The depth-2 nongeneric chain of the rank-3 example: Borel+ <= P_{12}."""
    psi = mask_from_indices([gl_root_index(gl3, 0, 1), gl_root_index(gl3, 0, 2),
                             gl_root_index(gl3, 1, 2)])
    psit = psi | mask_from_indices([gl_root_index(gl3, 1, 0)])
    return ParabolicFiltration(gl3, [psi, psit])


def gl3_ex_ft(gl3, l1, l2, l3, lt1, lt2):
    return FormalType([(l1, l2, l3), (lt1, lt1, lt2)])


def decompositions(rd, nu_list, mu, xi=None):
    """All f: nu -> Z_{>=0} with sum f_a a = mu (the decomposition set Dec)."""
    if xi is None:
        xi = height_functional(rd, mask_from_indices(nu_list))
    out = []

    def rec(pos, remaining, acc):
        if all(x == 0 for x in remaining):
            out.append(tuple(acc + [0] * (len(nu_list) - len(acc))))
            return
        if pos == len(nu_list):
            return
        ht = sum(r * x for r, x in zip(remaining, xi))
        if ht < 0:
            return
        a = rd.roots[nu_list[pos]]
        max_mult = int(ht)  # <a|xi> >= 1 bounds the multiplicity by the height
        for mult in range(max_mult + 1):
            rest = tuple(x - mult * y for x, y in zip(remaining, a))
            rec(pos + 1, rest, acc + [mult])

    rec(0, tuple(frac(x) for x in mu), [])
    return [f for f in out if _dec_ok(rd, nu_list, f, mu)]


def _dec_ok(rd, nu_list, f, mu):
    tot = [Zero] * rd.dim_t
    for mult, i in zip(f, nu_list):
        if mult:
            tot = [a + mult * b for a, b in zip(tot, rd.roots[i])]
    return tuple(tot) == tuple(frac(x) for x in mu)


def admissible_grid(rd, pf, values):
    """Every formal type whose lambda_i is a combination, with coefficients in
    values, of the kernel basis of the coroots of phi_i."""
    lf = pf.levi_filtration()
    bases = []
    for i in range(pf.depth):
        coroot_rows = [list(rd.coroots[a]) for a in indices(lf.mask(i))]
        bases.append(nullspace(coroot_rows, cols=rd.dim_t))
    combos = [[]]
    for basis in bases:
        new = []
        for acc in combos:
            for coeffs in itertools.product(values, repeat=len(basis)):
                lam = [Fraction(0)] * rd.dim_t
                for c, b in zip(coeffs, basis):
                    lam = [x + c * y for x, y in zip(lam, b)]
                new.append(acc + [tuple(lam)])
        combos = new
    return [FormalType(lams) for lams in combos]


def u_minus_basis(rd, ts):
    return [TcElement.pure(rd, ts.depth, i, GElement.root_vec(rd, rd.neg[a]))
            for a, i in ts.gens]


def u_plus_basis(rd, ts):
    return [TcElement.pure(rd, ts.depth, i, GElement.root_vec(rd, a))
            for a, i in ts.gens]


def levi_basis(pf):
    rd, lf = pf.rd, pf.levi_filtration()
    out = []
    for i in range(pf.depth):
        for t in range(rd.dim_t):
            out.append(TcElement.pure(rd, pf.depth, i, GElement.cartan_vec(
                rd, tuple(One if k == t else Zero for k in range(rd.dim_t)))))
        for b in indices(lf.mask(i)):
            out.append(TcElement.pure(rd, pf.depth, i, GElement.root_vec(rd, b)))
    return out


def split_dims(pf, ts):
    """(dim u^-, dim l, dim u^+) of the TriangularSplit ts of pf."""
    u = len(ts.gens)
    return u, len(levi_basis(pf)), u


def bracket_pairing_matrix(rd, lams, ts):
    """Oracle for B: <lambda | [Y, Y']> through the bracket of g_r, lambda
    extended by zero off the Cartan part, over the bases of a TriangularSplit
    (rows u^+, columns u^-)."""
    out = []
    for yp in u_plus_basis(rd, ts):
        row = []
        for ym in u_minus_basis(rd, ts):
            br = yp.bracket(ym)
            row.append(sum((l * h for k in range(min(ts.depth, len(lams)))
                            for l, h in zip(lams[k], br.coeffs[k].cartan)), Fraction(0)))
        out.append(row)
    return out


def test_parabolic_counts(sl2, gl3):
    ps = enumerate_parabolic(gl3)
    assert len(ps) == 13
    assert len(strat.standard_classes(gl3, mask_from_indices(gl3.positive))) == 4
    # sl2: exactly {psi, -psi, Phi}, the two opposite Borels plus everything
    ps2 = enumerate_parabolic(sl2)
    assert len(ps2) == 3
    assert full_mask(sl2) in ps2
    proper = [m for m in ps2 if m != full_mask(sl2)]
    assert proper[0] == strat.negate_mask(sl2, proper[1])


def test_lf_surjects_onto_levi_filtrations(gl3):
    pfs = enumerate_parabolic_filtrations(gl3, 2)
    image = {pf.levi_filtration() for pf in pfs}
    assert image == set(strat.enumerate_filtrations(gl3, 2))


def test_parabolic_brute_force_oracle(gl3, b2):
    """Rank-2-ish brute force over all root subsets."""
    for rd in (gl3, b2):
        brute = [m for m in range(1 << rd.num_roots) if is_parabolic(rd, m)]
        assert sorted(enumerate_parabolic(rd)) == brute


def test_levi_factor_map(gl3):
    """The surjection Lf onto Levi subsystems, with its fibers."""
    fibers = {}
    for p in enumerate_parabolic(gl3):
        fibers.setdefault(levi_factor(gl3, p), []).append(p)
    assert set(fibers) == set(strat.enumerate_levi(gl3))
    # the fiber over the empty Levi (the positive systems) is a W-torsor
    borels = fibers[0]
    assert len(borels) == len(gl3.weyl)
    for w in gl3.weyl:
        imgs = {strat.weyl_mask(w, m) for m in borels}
        assert imgs == set(borels)
    # Lf is order-preserving: psi containing psi' has Levi factor containing
    # the smaller one's
    ps = enumerate_parabolic(gl3)
    for a in ps:
        for b in ps:
            if (a | b) == a:  # a contains b
                assert (levi_factor(gl3, a) | levi_factor(gl3, b)) == levi_factor(gl3, a)
    # W-equivariance of Lf
    for m in ps:
        for w in gl3.weyl:
            assert levi_factor(gl3, strat.weyl_mask(w, m)) \
                == strat.weyl_mask(w, levi_factor(gl3, m))


def test_parabolic_filtration_counts(sl2, gl3):
    for r in range(1, 7):
        assert len(enumerate_parabolic_filtrations(sl2, r)) == 2 * r + 1
    # constant Borel chain is always present
    borel = mask_from_indices(gl3.positive)
    pfs = enumerate_parabolic_filtrations(gl3, 2)
    assert ParabolicFiltration(gl3, [borel, borel]) in pfs
    # oracle: filter all 13^2 ordered pairs for the chain condition
    ps = enumerate_parabolic(gl3)
    pairs = [(a, b) for a in ps for b in ps if (a | b) == b]
    assert len(pfs) == len(pairs)


def test_balanced(gl3, sl4):
    for pf in enumerate_parabolic_filtrations(gl3, 2):
        assert pf.is_balanced()
    borel = mask_from_indices(gl3.positive)
    assert ParabolicFiltration(gl3, [borel] * 3).is_balanced()
    # sl4 depth 3: (Borel+, Borel+, P_{a1,a2}) is unbalanced because
    # [E_{a1}, E_{a2}] lands in the Levi factor of the last term
    pos4 = mask_from_indices(sl4.positive)
    span12 = strat.span_closure(sl4, mask_from_indices(sl4.simple[:2]))
    pf = ParabolicFiltration(sl4, [pos4, pos4, pos4 | span12])
    assert not pf.is_balanced()
    i, j = sl4.simple[0], sl4.simple[1]
    k = sl4.root_sum[(i, j)]
    assert k is not None and (span12 >> k) & 1  # the offending bracket


def test_bracket_nested_parabolic_span(gl3):
    """[p, p~] = [p~, p~] for nested parabolic subalgebras (exact spans)."""
    ps = enumerate_parabolic(gl3)

    def subalgebra(mask):
        out = [GElement.cartan_vec(gl3, tuple(Fraction(k == t) for k in range(3)))
               for t in range(3)]
        out.extend(GElement.root_vec(gl3, i) for i in indices(mask))
        return out

    checked = 0
    for a in ps:
        for b in ps:
            if a != b and (a | b) == a:  # mask a contains mask b: p_b inside p_a
                small, big = subalgebra(b), subalgebra(a)
                span1 = [x.bracket(y).coords() for x in small for y in big]
                span2 = [x.bracket(y).coords() for x in big for y in big]
                assert rank(span1) == rank(span2)
                checked += 1
    assert checked > 0


def test_triangular_split_sl2(sl2, sl2_efh):
    E, F, H, i_e, i_f = sl2_efh
    pos = mask_from_indices([i_e])
    pf = ParabolicFiltration(sl2, [pos, pos])
    ts = triangular_split(pf)
    assert ts.gens == [(i_e, 0), (i_e, 1)]
    um = u_minus_basis(sl2, ts)
    up = u_plus_basis(sl2, ts)
    lv = levi_basis(pf)
    assert um == [TcElement.pure(sl2, 2, 0, F), TcElement.pure(sl2, 2, 1, F)]
    assert up == [TcElement.pure(sl2, 2, 0, E), TcElement.pure(sl2, 2, 1, E)]
    assert len(lv) == 2
    # constant-Phi filtration: no nilradical, l = g_r
    pf_full = ParabolicFiltration(sl2, [full_mask(sl2)] * 2)
    ts_full = triangular_split(pf_full)
    assert ts_full.gens == [] and len(levi_basis(pf_full)) == 2 * 3


def test_triangular_split_gl3_example(gl3):
    pf = gl3_ex_chain(gl3)
    ts = triangular_split(pf)
    lbl = {(a, i): (gl3.roots[a], i) for a, i in ts.gens}
    i12 = gl_root_index(gl3, 0, 1)
    i13 = gl_root_index(gl3, 0, 2)
    i23 = gl_root_index(gl3, 1, 2)
    assert ts.gens == [(i12, 0), (i23, 0), (i23, 1), (i13, 0), (i13, 1)]
    u, l, u2 = split_dims(pf, ts)
    assert u == u2 == 5
    assert u + l + u2 == 2 * gl3.dim_g
    # the split spans g_r and u+/u- are swapped by the transposition degreewise
    from wildstrat.linalg import rank as mat_rank
    vectors = [v.coords() for v in
               u_minus_basis(gl3, ts) + levi_basis(pf) + u_plus_basis(gl3, ts)]
    assert mat_rank(vectors) == 2 * gl3.dim_g
    for vm, vp in zip(u_minus_basis(gl3, ts), u_plus_basis(gl3, ts)):
        assert vm.transpose() == vp


def test_triangular_split_isotropy(gl3):
    """u+ and u- are isotropic for the depth pairing ( . | . )_r."""
    pf = gl3_ex_chain(gl3)
    ts = triangular_split(pf)
    for basis in (u_plus_basis(gl3, ts), u_minus_basis(gl3, ts)):
        for x in basis:
            for y in basis:
                assert x.pairing_c(y, pf.depth) == 0


def test_character_space(sl2, gl3, sl2_efh):
    _, _, _, i_e, _ = sl2_efh
    pf = gl3_ex_chain(gl3)
    assert character_space_dim(pf) == 5  # 3 + 2 per the rank-3 example
    borel = mask_from_indices(gl3.positive)
    assert character_space_dim(ParabolicFiltration(gl3, [borel] * 2)) == 6
    pos = mask_from_indices([i_e])
    for k in range(1, 4):
        masks = [pos] * k + [full_mask(sl2)] * (3 - k)
        assert character_space_dim(ParabolicFiltration(sl2, masks)) == k


def test_admissibility(gl3):
    pf = gl3_ex_chain(gl3)
    good = gl3_ex_ft(gl3, 1, 2, 3, 5, 7)
    assert is_admissible(pf, good)
    # lambda_1 must kill the coroot of a12: unequal first two entries fail
    bad = FormalType([(1, 2, 3), (5, 6, 7)])
    assert not is_admissible(pf, bad)
    with pytest.raises(InadmissibleCharacter):
        b_pairing_matrix(pf, bad)


def test_b_matrix_matches_paper_formula(gl3):
    """B = l1(a a' + b b') + l2(c c' - a a') - l3(b b' + c c')
         + (lt1 - lt2)(b c'_1-type cross terms), checked on unit weights."""
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

    for unit in range(5):
        vals = [Fraction(v == unit) for v in range(5)]
        ft = gl3_ex_ft(gl3, *vals)
        mat, ts = b_pairing_matrix(pf, ft)
        assert ts.gens == order
        assert mat == expected(*vals)


def test_nonsingular_grid(gl3):
    pf = gl3_ex_chain(gl3)
    # the four cases of the nondegeneracy criterion lt1 != lt2 and l1 != l2
    cases = [
        ((1, 2, 3, 5, 7), True),
        ((1, 2, 3, 5, 5), False),
        ((2, 2, 3, 5, 7), False),
        ((2, 2, 3, 5, 5), False),
    ]
    for vals, expect in cases:
        assert is_nonsingular(pf, gl3_ex_ft(gl3, *vals)) is expect


def test_b_matrix_sl2_r2(sl2, sl2_efh):
    _, _, _, i_e, _ = sl2_efh
    pos = mask_from_indices([i_e])
    pf = ParabolicFiltration(sl2, [pos, pos])
    a, b = Fraction(4), Fraction(9)
    mat, _ = b_pairing_matrix(pf, FormalType([(a,), (b,)]))
    # entries are <lambda_{i+j} | H_alpha>: the antitriangular pattern with
    # lambda evaluated on the coroot (the "up to normalization" convention)
    assert mat == [[a, b], [b, 0]]
    assert b_pairing_blocks(pf, FormalType([(a,), (b,)])) == {i_e: [[a, b], [b, 0]]}
    assert is_nonsingular(pf, FormalType([(a,), (b,)]))
    assert not is_nonsingular(pf, FormalType([(a,), (0,)]))


def test_zero_character_is_singular(gl3):
    pf = gl3_ex_chain(gl3)
    zero = gl3_ex_ft(gl3, 0, 0, 0, 0, 0)
    mat, _ = b_pairing_matrix(pf, zero)
    assert all(all(v == 0 for v in row) for row in mat)
    assert not is_nonsingular(pf, zero)


def test_formal_type_rejects_ragged_or_empty_lambdas():
    for lams, widths in (([(1,), (1, 2)], r"\[1, 2\]"), ([], r"\[\]")):
        with pytest.raises(ValueError, match=rf"^lambdas: .* got widths {widths}$"):
            FormalType(lams)


def test_require_admissible_names_a_mismatch_of_the_lambdas(gl3):
    """A depth or width mismatch is named as such (the gl3 module given
    width-2 lambdas used to fail as "does not extend to a character"); a
    formal type of the right shape that pairs nonzero with phi_1 is the true
    inadmissibility."""
    pf = gl3_ex_chain(gl3)
    for ft, named in ((FormalType([(1, 2), (3, 4)]), "lambdas: formal type width 2, expected 3"),
                      (FormalType([(1, 1, 2)]), "lambdas: formal type depth 1, expected 2"),
                      (FormalType([(1, 2, 3), (5, 6, 7)]), "does not extend to a character")):
        with pytest.raises(InadmissibleCharacter, match=named):
            require_admissible(pf, ft)
    with pytest.raises(InadmissibleCharacter, match="width 2, expected 3"):
        SingularityModule(pf, FormalType([(1, 2), (3, 4)]))


def test_short_lambda_is_inadmissible(gl3):
    """A lambda_i narrower than t is rejected, not truncated by the pairing."""
    pf = gl3_ex_chain(gl3)
    short = FormalType([(5,), (0,)])
    assert not is_admissible(pf, short)
    for f in (b_pairing_blocks, b_pairing_matrix, is_nonsingular, dual_basis):
        with pytest.raises(InadmissibleCharacter):
            f(pf, short)


def test_b_pairing_matches_bracket_oracle_on_block_fixtures():
    """On the quantisation fixtures B equals the bracket sum, and the dual
    basis inverts it: B(Y_{a,i}, X_{a',j}) = -delta delta."""
    from test_block_oracles import CASES
    for make, _ in CASES.values():
        pf, ft = make()
        mat, ts = b_pairing_matrix(pf, ft)
        oracle = bracket_pairing_matrix(pf.rd, ft.lams, ts)
        assert mat == oracle, (pf, ft)
        assert is_nonsingular(pf, ft)
        duals, _ = dual_basis(pf, ft)
        assert set(duals) == set(ts.gens)
        for y, combo in duals.items():
            row = [sum(c * oracle[ts.gen_pos[g]][k] for c, g in combo)
                   for k in range(len(ts.gens))]
            assert row == [-1 if x == y else 0 for x in ts.gens], (pf, ft, y)


@pytest.mark.parametrize("label, n, rmax", [("sl", 2, 3), ("gl", 2, 3)])
def test_b_pairing_matches_bracket_oracle_on_grids(label, n, rmax):
    """Criterion 09's exhaustive grids: B equals the bracket sum, and
    is_nonsingular is the full-rank test of that matrix."""
    rd = root_datum(label, n)
    for r in range(1, rmax + 1):
        for pf in enumerate_parabolic_filtrations(rd, r):
            ts = triangular_split(pf)
            for ft in admissible_grid(rd, pf, (0, 1, 2)):
                oracle = bracket_pairing_matrix(rd, ft.lams, ts)
                assert b_pairing_matrix(pf, ft)[0] == oracle, (pf, ft)
                assert is_nonsingular(pf, ft) == (rank(oracle) == len(ts.gens)), (pf, ft)


def test_opposite_filtration(gl3):
    pf = gl3_ex_chain(gl3)
    op = pf.opposite()
    assert op.levi_filtration() == pf.levi_filtration()
    assert op.opposite() == pf


def test_height_functional_and_dec(gl3, b2):
    pf = gl3_ex_chain(gl3)
    ts = triangular_split(pf)
    i12 = gl_root_index(gl3, 0, 1)
    i13 = gl_root_index(gl3, 0, 2)
    i23 = gl_root_index(gl3, 1, 2)
    # a13 = a12 + a23: relative height 2, the others are indecomposable
    assert ts.heights[i13] == 2
    assert ts.heights[i12] == ts.heights[i23] == 1
    mu = gl3.roots[i13]
    decs = decompositions(gl3, ts.nu0, mu, ts.xi)
    assert len(decs) == 2  # {a13} and {a12 + a23}
    # B2 Borel: the highest root a + 2b is a+b+b, (a+b)+b and itself
    pos = mask_from_indices(b2.positive)
    ts = triangular_split(ParabolicFiltration(b2, [pos] * 2))
    assert [ts.heights[a] for a in ts.nu0] == [1, 1, 2, 3]
    top = b2.roots[ts.nu0[-1]]
    words = parab.weight_words([b2.roots[a] for a in ts.nu0], top, ts.xi, {})
    assert len(words) == len(decompositions(b2, ts.nu0, top, ts.xi)) == 3
    assert [len(w) for w in words] == [3, 2, 1]


def test_parabolic_counts_are_fubini_numbers():
    """Parabolic subsets of gl_n biject with ordered set partitions; their
    Weyl classes with compositions of n."""
    fubini = {2: 3, 3: 13, 4: 75}
    for n, f in fubini.items():
        rd = root_datum("gl", n)
        ps = enumerate_parabolic(rd)
        assert len(ps) == f
        assert len(strat.standard_classes(rd, mask_from_indices(rd.positive))) == 2 ** (n - 1)



def test_levi_and_parabolic_chains_stay_apart(gl3):
    """Equal masks make unequal chains of the two kinds, and W keeps the kind."""
    full = full_mask(gl3)
    levi, par = strat.LeviFiltration(gl3, [full] * 2), ParabolicFiltration(gl3, [full] * 2)
    assert levi != par and par != levi and len({levi, par}) == 2
    pchain = gl3_ex_chain(gl3)
    lchain = pchain.levi_filtration()
    for w in gl3.weyl:
        pw, lw = pchain.weyl_image(w), lchain.weyl_image(w)
        assert type(pw) is ParabolicFiltration and type(lw) is strat.LeviFiltration
        # the checked constructors accept the images: W maps chains to chains
        assert pw == ParabolicFiltration(gl3, [strat.weyl_mask(w, m) for m in pchain.masks])
        assert lw == strat.LeviFiltration(gl3, [strat.weyl_mask(w, m) for m in lchain.masks])
        assert pw.levi_filtration() == lw
