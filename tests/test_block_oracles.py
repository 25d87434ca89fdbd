"""The block kernels against the per-entry and CPoly algorithms they replaced.

`SingularityModule.shapovalov_block` and `dual_block` (weight recursion on
integer rows over one denominator), `factorize_block`
(Qtilde by forward substitution on the row-scaled parts) and `quant.invert_block`
(hbar-adic inverse of the row-scaled parts) are compared, block by block and
exactly, with the earlier implementations kept here as oracles: the weight
recursion on CPoly or Fraction entries, one letter chain per matrix entry,
Qtilde by CPoly shift/multiply/add, the recursion
F_k = -sum_j Q_j F_{k-j} on rational matrices through Qtilde and C^{-1}, and
the truncated Neumann series of CPoly matrices.

The dilated oracles act through the CPoly reference engine (reference_action):
the same uea engine over the generator letters alone, with the character
values lambda(H) c as CPolys, which is how the dilated module acted before c
became a module letter.  Every entry of the dilated module's action memo is
compared with it (assert_memo_matches_reference).
"""

import weakref
from fractions import Fraction

import pytest

from wildstrat import quant
from wildstrat.linalg import CPoly, One, Zero, identity, inverse
from wildstrat.parab import FormalType, ParabolicFiltration
from wildstrat.rootdata import root_datum
from wildstrat.singmod import SingularityModule, factor_rows, factorize_block, reassemble
from wildstrat.strat import mask_from_indices
from wildstrat.uea import UEAContext, acc
from conftest import gl_root_index
from test_linalg import unit_lower_inverse
from test_parab import gl3_ex_chain, gl3_ex_ft


# -- oracles ---------------------------------------------------------------------


def shift(p, k):
    """p * c^k."""
    return CPoly({d + k: v for d, v in p.c.items()})


def truncate_below(p, lo):
    """Drop the monomials of degree < lo (hbar-order truncation)."""
    return CPoly({d: v for d, v in p.c.items() if d >= lo})


_REFERENCES = weakref.WeakKeyDictionary()


def reference_action(mod):
    """The CPoly reference engine of a dilated module, once per module: the
    generator letters alone, each Cartan letter putting the CPoly lambda(H) c
    on the cyclic vector.  A scalar module's own action is returned."""
    if not mod.dilated:
        return mod.action
    ref = _REFERENCES.get(mod)
    if ref is None:
        scalar = {("H", t, i): {(): CPoly({1: v})}
                  for i in range(mod.depth) for t, v in enumerate(mod.ft[i]) if v}
        ref = _REFERENCES[mod] = UEAContext(mod.rd, mod.depth, mod.action.basis[:mod.c_pos],
                                            scalar)
    return ref


def fold_c(mod, vec):
    """A dilated module vector {word c^d: v} as {word: CPoly}."""
    out = {}
    for w, v in vec.items():
        word, d = mod.split_c(w)
        out.setdefault(word, {})[d] = v
    return {word: CPoly(p) for word, p in out.items()}


def assert_memo_matches_reference(mod):
    """Every entry (letter, word c^d) of the dilated action memo, folded into
    CPolys, equals c^d times the reference image of the generator word (whose
    values are CPolys or, off the character, rationals); c itself appends one c."""
    ref = reference_action(mod)
    c_letter = mod.action.basis[mod.c_pos]
    memo = list(mod.action._memo.items())
    assert memo
    for (letter, w), vec in memo:
        word, d = mod.split_c(w)
        if letter == c_letter:
            want = {word: CPoly({d + 1: 1})}
        else:
            want = {x: CPoly({d: 1}) * p for x, p in ref.act(letter, word).items()}
        assert fold_c(mod, vec) == want, (letter, w)


def letter_c_degrees(mod):
    """The c-degrees every one-letter image in the dilated action memo adds
    to the word it acts on."""
    return {mod.split_c(x)[1] - mod.split_c(w)[1]
            for (_, w), vec in mod.action._memo.items() for x in vec}


def cpoly_build_block(mod, mu, dual, blocks):
    """The block matrix at mu by the weight recursion on CPoly (dilated) or
    Fraction entries.  blocks maps (dual, weight) to the matrices built so
    far; the missing lower blocks are built first, into it."""
    words = mod.weight_basis(mu)
    if words == [()]:
        return [[CPoly.const(1) if mod.dilated else One]]
    rows_by_letter = {}
    for row, word in enumerate(words):
        rows_by_letter.setdefault(word[0], []).append(row)
    mat = [None] * len(words)
    zero = CPoly() if mod.dilated else Zero
    for g, rows in rows_by_letter.items():
        lower_mu = tuple(m - r for m, r in zip(mu, mod._letter_roots[g]))
        if (dual, lower_mu) not in blocks:
            blocks[(dual, lower_mu)] = cpoly_build_block(mod, lower_mu, dual, blocks)
        lower = blocks[(dual, lower_mu)]
        index = mod._positions(lower_mu)
        images = [[(index[w], c) for w, c in cpoly_letter_image(mod, g, x, dual).items()]
                  for x in words]
        for row in rows:
            lower_row = lower[index[words[row][1:]]]
            entries = []
            for img in images:
                val = zero
                for k, c in img:
                    v = lower_row[k]
                    if v:
                        val = val + c * v
                entries.append(-val if dual and val else val)
            mat[row] = entries
    return mat


def cpoly_letter_image(mod, g, word, dual):
    """L_g applied to the basis word: {word: coeff}, on the CPoly reference
    when mod is dilated."""
    act = reference_action(mod).act
    if not dual:
        return act(mod.transpose_letter(g), word)
    out = {}
    for coeff, letter in mod.dual_letters()[mod.gens[g]]:
        for w, c in act(letter, word).items():
            acc(out, w, coeff * c)
    return out


def assert_blocks_match_cpoly(mod, weights):
    """The Shapovalov blocks (dual blocks when the module is dilated) at the
    weights: .matrix of the integer rows equals the CPoly/Fraction recursion,
    and each dual block also equals the per-entry oracle."""
    blocks = {}
    for mu in weights:
        block = mod.dual_block(mu) if mod.dilated else mod.shapovalov_block(mu)
        assert block.matrix == cpoly_build_block(mod, mu, mod.dilated, blocks), mu
        if mod.dilated:
            assert block.matrix == oracle_dual_block(mod, mu, mod.dual_letters()), mu


def oracle_dual_block(mod, mu, duals):
    """Each entry by its own chain of dual letters from the column vector."""
    basis = mod.weight_basis(mu)
    return [[oracle_dual_entry(mod, y, x, duals) for x in basis]
            for y in basis]


def oracle_dual_entry(mod, y_gens, x, duals):
    vecs = {x: CPoly.const(1)}
    apply = reference_action(mod).apply
    for g in y_gens:
        a, i = mod.gens[g]
        new = {}
        for coeff, letter in duals[(a, i)]:
            for w, c in apply(letter, vecs).items():
                acc(new, w, coeff * c)
        vecs = new
        if not vecs:
            return CPoly()
    val = vecs.get((), CPoly())
    return -val if len(y_gens) % 2 else val


def oracle_factorize_block(block):
    """(D, C, Qtilde) with Qtilde = C^{-1} D^{-1} A by CPoly arithmetic."""
    lengths = block.lengths()
    n = block.dim()
    a = block.matrix
    d = [a[i][i].coeff(lengths[i]) for i in range(n)]
    dmat = [[CPoly({lengths[i]: d[i]}) if i == j else CPoly() for j in range(n)]
            for i in range(n)]
    cmat = [[a[i][j].coeff(lengths[i]) / d[i] for j in range(n)] for i in range(n)]
    cinv = inverse(cmat)
    qt = [[CPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = CPoly()
            for k in range(n):
                if cinv[i][k] != 0:
                    total = total + shift(a[k][j], -lengths[k]) * Fraction(cinv[i][k], d[k])
            qt[i][j] = total
    return dmat, cmat, qt


def oracle_reassemble(dmat, cmat, qt):
    """D*C*Qtilde by CPoly arithmetic: entry (i, j) gathers D[i][i] C[i][k]
    times the coefficients of Qtilde[k][j], each shifted up by the degree of
    D[i][i].  singmod.reassemble checks the same identity on integer rows."""
    n = len(dmat)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for shift_by, d in dmat[i][i].c.items():
            for k in range(n):
                if cmat[i][k]:
                    f = d * cmat[i][k]
                    for j in range(n):
                        for deg, v in qt[k][j].c.items():
                            acc(out[i][j], deg + shift_by, f * v)
    return [[CPoly(c) for c in row] for row in out]


def oracle_invert_block(block, N):
    """Qtilde^{-1} C^{-1} D^{-1} by the Neumann series sum_k (-Q)^k of CPoly
    matrices, Q = Qtilde - Id, truncated at hbar^N after every product."""
    _, c, qt = oracle_factorize_block(block)
    n = block.dim()
    lengths = block.lengths()
    cinv = inverse(c)
    negq = [[-(qt[i][j] - (CPoly.const(1) if i == j else CPoly())) for j in range(n)]
            for i in range(n)]
    total = [[CPoly.const(1) if i == j else CPoly() for j in range(n)] for i in range(n)]
    power = total
    for _ in range(N):
        power = oracle_mat_mul_trunc(power, negq, N)
        if all(not power[i][j] for i in range(n) for j in range(n)):
            break
        total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    out = [[CPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            val = CPoly()
            for k in range(n):
                if cinv[k][j] != 0:
                    val = val + total[i][k] * cinv[k][j]
            out[i][j] = truncate_below(shift(
                val * Fraction(1, block.matrix[j][j].coeff(lengths[j])), -lengths[j]), -N)
    return out


def recursion_invert_block(block, N):
    """A^{-1} = Qtilde^{-1} C^{-1} D^{-1} truncated at hbar^N, exact.

    With Qtilde = Id + sum_{k>=1} Q_k hbar^k (Q_k rational), the inverse is
    sum_k F_k hbar^k with F_0 = Id and F_k = -sum_{j=1..k} Q_j F_{k-j}.  Column
    j of D^{-1} is hbar^{l_j} / d_j, so entry (i, j) of A^{-1} has the
    coefficient (F_k C^{-1})[i][j] / d_j at hbar^{k + l_j}, kept for
    k + l_j <= N.
    """
    d, c, qt = oracle_factorize_block(block)
    n = block.dim()
    lengths = block.lengths()
    top = N - min(lengths, default=N)
    # Q_k as sparse rows: q[k][i] = [(l, Q_k[i][l]) for nonzero entries]
    q = [None] + [[[(l, e.c[-k]) for l, e in enumerate(row) if -k in e.c] for row in qt]
                  for k in range(1, top + 1)]
    f = [identity(n)]
    for k in range(1, top + 1):
        fk = [[Zero] * n for _ in range(n)]
        for j in range(1, k + 1):
            prev = f[k - j]
            for i, row in enumerate(q[j]):
                dst = fk[i]
                for l, v in row:
                    for t, p in enumerate(prev[l]):
                        if p:
                            dst[t] -= v * p
        f.append(fk)
    cinv = unit_lower_inverse(c)
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        col = [(t, cinv[t][j]) for t in range(n) if cinv[t][j] != 0]
        scale = 1 / d[j][j].coeff(lengths[j])
        for i in range(n):
            coeffs = {}
            for k in range(N - lengths[j] + 1):
                v = sum((f[k][i][t] * x for t, x in col), Zero)
                if v:
                    coeffs[-(k + lengths[j])] = v * scale
            out[i][j] = CPoly(coeffs)
    return out


def assert_inverse_matches_oracles(block, finv, N):
    assert finv == recursion_invert_block(block, N), block.mu
    assert finv == oracle_invert_block(block, N), block.mu


def oracle_mat_mul_trunc(a, b, N):
    n = len(a)
    out = [[CPoly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = CPoly()
            for k in range(n):
                if a[i][k] and b[k][j]:
                    total = total + a[i][k] * b[k][j]
            out[i][j] = truncate_below(total, -N)
    return out


# -- cases -----------------------------------------------------------------------


def _gl3_chain():
    gl3 = root_datum("gl", 3)
    return gl3_ex_chain(gl3), gl3_ex_ft(gl3, 1, 2, 4, 6, 3)


def _sl2_r3():
    sl2 = root_datum("sl", 2)
    e = mask_from_indices([sl2.root_index[(Fraction(2),)]])
    return ParabolicFiltration(sl2, [e] * 3), FormalType([(5,), (7,), (Fraction(-3, 2),)])


def _b2_tame():
    b2 = root_datum("B", 2)
    return ParabolicFiltration(b2, [mask_from_indices(b2.positive)]), FormalType([(9, 16)])


def _b2_borel_r2():
    b2 = root_datum("B", 2)
    pos = mask_from_indices(b2.positive)
    return ParabolicFiltration(b2, [pos] * 2), FormalType([(1, 3), (2, 5)])


def _gl2_r3():
    gl2 = root_datum("gl", 2)
    e = mask_from_indices([gl_root_index(gl2, 0, 1)])
    return (ParabolicFiltration(gl2, [e] * 3),
            FormalType([(Fraction(5, 2), 0), (3, 1), (1, 0)]))


def _sl2_r2():
    sl2 = root_datum("sl", 2)
    e = mask_from_indices([sl2.root_index[(Fraction(2),)]])
    return ParabolicFiltration(sl2, [e] * 2), FormalType([(5,), (7,)])


CASES = {
    "gl3 chain N=4": (_gl3_chain, 4),
    "sl2 r=3 N=4": (_sl2_r3, 4),
    "B2 tame N=3": (_b2_tame, 3),
    "B2 borel r=2 N=2": (_b2_borel_r2, 2),
    "gl2 r=3 N=3": (_gl2_r3, 3),
}
# the configs of the shapovalov and simplicity runs of the survey workload
SURVEY_CASES = {"gl3 chain height 5": (_gl3_chain, 5), "sl2 r=2 height 8": (_sl2_r2, 8)}


@pytest.mark.parametrize("label", list(CASES) + list(SURVEY_CASES))
def test_integer_blocks_match_cpoly_recursion(label):
    """Scalar and dilated modules, every weight of relative height up to the
    order (or the survey's height); the dual blocks at the root sums the
    series reads are compared in test_blocks_match_cpoly_oracles."""
    make, height = {**CASES, **SURVEY_CASES}[label]
    pf, ft = make()
    for dilated in (False, True):
        mod = SingularityModule(pf, ft, dilated=dilated)
        assert_blocks_match_cpoly(mod, mod.weights_up_to(height))


@pytest.mark.parametrize("label", list(CASES))
def test_blocks_match_cpoly_oracles(label):
    """Dual block (against the per-entry oracle and the CPoly recursion),
    (D, C, Qtilde) and the truncated inverse (against both inverse oracles),
    per weight.

    Some inverse entry reaches hbar^N, so the comparison covers the deepest
    step of the recursion.
    """
    make, N = CASES[label]
    pf, ft = make()
    mod = SingularityModule(pf, ft, dilated=True)
    duals = mod.dual_letters()
    degrees = set()
    blocks = {}
    for mu in mod.root_sums(N):
        block = mod.dual_block(mu)
        assert block.matrix == oracle_dual_block(mod, mu, duals), mu
        assert block.matrix == cpoly_build_block(mod, mu, True, blocks), mu
        assert factorize_block(block) == oracle_factorize_block(block), mu
        assert reassemble(*factor_rows(block)[2:]), mu
        finv = quant.invert_block(block, N)
        assert_inverse_matches_oracles(block, finv, N)
        degrees.update(-d for row in finv for entry in row for d in entry.c)
    assert max(degrees) == N


@pytest.mark.parametrize("label", list(SURVEY_CASES))
def test_integer_core_matches_oracles_on_survey_blocks(label):
    """Every dual block of the survey's shapovalov configs, up to their height:
    (D, C, Qtilde) against the CPoly oracle, whose product is the block, the
    integer exactness check, and the inverse at hbar-order up to the height
    against both inverse oracles."""
    make, height = SURVEY_CASES[label]
    mod = SingularityModule(*make(), dilated=True)
    for mu in mod.weights_up_to(height):
        block = mod.dual_block(mu)
        factors = factorize_block(block)
        assert factors == oracle_factorize_block(block), mu
        assert oracle_reassemble(*factors) == block.matrix, mu
        assert reassemble(*factor_rows(block)[2:]), mu
        assert_inverse_matches_oracles(block, quant.invert_block(block, height), height)


def _dilated_module_with_blocks(label):
    """The dilated module of a case with its dual and Shapovalov blocks at the
    root sums the series reads."""
    make, N = CASES[label]
    mod = SingularityModule(*make(), dilated=True)
    for mu in mod.root_sums(N):
        mod.dual_block(mu)
        mod.shapovalov_block(mu)
    return mod


@pytest.mark.parametrize("label", list(CASES))
def test_dilated_memo_matches_cpoly_reference(label):
    """Every entry of the dilated action memo, its c-words folded into CPolys,
    equals the CPoly reference engine's."""
    assert_memo_matches_reference(_dilated_module_with_blocks(label))


@pytest.mark.parametrize("label", list(CASES))
def test_letter_images_add_c_degree_at_most_one(label):
    """Every one-letter image in the dilated memo raises the c-degree of the
    word it acts on by 0 or 1 (only Cartan letters reach c, one at a time)."""
    assert letter_c_degrees(_dilated_module_with_blocks(label)) == {0, 1}


def first_letter_closure(mod, mu):
    """mu and the weights reached from it by steps nu - alpha_g, g the first
    letter of a basis word of nu."""
    seen, todo = {mu}, [mu]
    while todo:
        nu = todo.pop()
        for word in mod.weight_basis(nu):
            if word:
                lower = tuple(m - r for m, r in zip(nu, mod._letter_roots[word[0]]))
                if lower not in seen:
                    seen.add(lower)
                    todo.append(lower)
    return seen


@pytest.mark.parametrize("label, builds", [("gl3 chain N=4", 300), ("B2 tame N=3", 379),
                                           ("B2 borel r=2 N=2", 164), ("sl2 r=3 N=4", 20)])
def test_lone_block_builds_its_first_letter_closure(monkeypatch, label, builds):
    """A lone dual_block (dilated) or shapovalov_block (scalar) at each root
    sum of at most N + 1 roots, each on a fresh module, builds exactly the
    blocks of the weights its first letters reach, and the same block as a
    module that walked every root sum in order.  builds is the total over the
    weights; every earlier worded weight of the word table would make
    440, 509, 214 and 20."""
    make, N = CASES[label]
    pf, ft = make()
    built = []
    build = SingularityModule._build_block

    def counting(self, mu, dual):
        built.append(mu)
        return build(self, mu, dual)

    for dilated in (True, False):
        walked = SingularityModule(pf, ft, dilated=dilated)
        weights = walked.root_sums(N + 1)
        want = {mu: walked._block(mu, dilated) for mu in weights}
        monkeypatch.setattr(SingularityModule, "_build_block", counting)
        total = 0
        for mu in weights:
            mod = SingularityModule(pf, ft, dilated=dilated)
            block = mod.dual_block(mu) if dilated else mod.shapovalov_block(mu)
            assert (block.den, block.rows) == want[mu], mu
            assert sorted(built) == sorted(first_letter_closure(mod, mu)), mu
            total += len(built)
            built.clear()
        monkeypatch.undo()
        assert total == builds, dilated


@pytest.mark.parametrize("label", ["sl2 r=3 N=4", "gl3 chain N=4", "B2 tame N=3"])
def test_shapovalov_block_matches_entries(label):
    """The recursive block equals shapovalov_entry entry by entry, height <= 4."""
    pf, ft = CASES[label][0]()
    mod = SingularityModule(pf, ft)
    for mu in mod.weights_up_to(4):
        basis = mod.weight_basis(mu)
        block = mod.shapovalov_block(mu)
        assert block.matrix == [[mod.shapovalov_entry(y, x) for x in basis]
                                for y in basis], mu


@pytest.mark.parametrize("label", ["sl2 r=3 N=4", "gl3 chain N=4", "B2 tame N=3"])
def test_dual_block_top_weight_first(label):
    """On a fresh module the weight of the largest block, asked first, builds
    its lower blocks on demand; every block then equals the per-entry oracle."""
    make, N = CASES[label]
    pf, ft = make()
    mod = SingularityModule(pf, ft, dilated=True)
    weights = sorted(mod.weights_up_to(N), key=lambda mu: len(mod.weight_basis(mu)), reverse=True)
    assert len(mod.weight_basis(weights[0])) > 1
    duals = mod.dual_letters()
    for mu in weights:
        assert mod.dual_block(mu).matrix == oracle_dual_block(mod, mu, duals), mu
