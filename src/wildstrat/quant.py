"""Star products from the inverse Shapovalov form.

Pipeline: per-weight Shapovalov matrices over the dilated character, their
hbar-adic inversion from the row-scaled parts (hbar = 1/c), the first-order
Poisson check, V0 = U(g_r)/(U(g_r) l) (the uea engine over the neg and pos
letters, l acting by 0), and the exact truncated associativity identity
B^(12,3) = B^(1,23) in V0^(x)3, factored over the outer slot and run on V0
words of basis positions with integer coefficients (B times one denominator).

The series carries the dilated singularity module its blocks came from and
the V0 context that normal-ordered its dual letters; every later stage reads
those two and builds no second one.  The slots of F are V0 basis words, so
B = (p x p)(F) is F itself.

The dilated module acts on rationals, with c a central module letter (a
word may end in c^d), and check_invariance gathers its terms by c-degree;
CPoly appears only in the inverse block entries that invert_block returns.
V0 coefficients are ints, and every comparison is an exact identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import CPoly, One, acc
from .rootdata import all_letters
from .parab import (FormalType, ParabolicFiltration, SingularCharacterError,
                    is_nonsingular, require_admissible, triangular_split)
from .singmod import SingularityModule, lower_solve, row_scaled_parts
from .strat import ClaimViolation
from .uea import UEAContext


class UnbalancedFiltration(ValueError):
    pass


class TruncationError(ValueError):
    pass


class InverseShapovalov:
    """Truncated hbar-expansion of the inverse Shapovalov form.

    terms[h] is a dict mapping (neg_word, pos_word) -> Fraction, where the
    words are tuples of g_r letters: the first slot lives in U(u^-), the
    second in U(u^+) (dual letters already expanded and normal-ordered).
    Both slots are V0 basis words, so the series is also B = (p x p)(F).
    module is the dilated singularity module the blocks came from and v0 the
    V0 context that normal-ordered the dual letters.
    """

    def __init__(self, pf, ft, order, terms, per_weight, module, v0):
        self.pf = pf
        self.ft = ft
        self.order = order
        self.terms = terms
        self.per_weight = per_weight
        self.module = module
        self.v0 = v0

    def term_items(self):
        for h, d in sorted(self.terms.items()):
            for (lw, rw), c in sorted(d.items()):
                yield h, lw, rw, c


def _require_balanced(pf):
    if not pf.is_balanced():
        raise UnbalancedFiltration(
            "the parabolic filtration is not balanced; nilradicals are not subalgebras")


def inverse_shapovalov_series(pf: ParabolicFiltration, ft: FormalType, K, N):
    """Blockwise formal inverse, truncated at hbar^N.

    Completeness: hbar-degrees <= N only receive contributions from weights
    admitting a decomposition of size <= N, and exactly those are included -
    so recomputation with any K >= N returns identical coefficients.
    """
    _require_balanced(pf)
    require_admissible(pf, ft)
    if K < N:
        raise TruncationError("height bound K must be at least the hbar order N")
    if not is_nonsingular(pf, ft):
        raise SingularCharacterError("singular formal type: the B-pairing is degenerate")
    mod = SingularityModule(pf, ft, dilated=True)
    duals = mod.dual_letters()
    v0 = V0Context(pf)
    terms = {0: {((), ()): One}}
    per_weight = {}
    for mu in mod.root_sums(N):
        block = mod.dual_block(mu)
        finv = invert_block(block, N)
        per_weight[mu] = (block, finv)
        basis = block.basis
        for j in range(len(basis)):
            column = [(i, finv[i][j]) for i in range(len(basis)) if finv[i][j]]
            if not column:
                continue
            right = _expand_dual_mono(mod, v0, duals, basis[j]).items()
            for i, series in column:
                left = _neg_word(mod, basis[i])
                for rword, rc in right:
                    for deg, cv in series.c.items():
                        acc(terms.setdefault(-deg, {}), (left, rword), cv * rc)
    for h in list(terms):
        if not terms[h]:
            del terms[h]
    return InverseShapovalov(pf, ft, N, terms, per_weight, mod, v0)


def invert_block(block, N):
    """A^{-1} truncated at hbar^N, exact, for a dilated dual block
    A = c^L sum_k A_k hbar^k (singmod.row_scaled_parts).

    The inverse of sum_k A_k hbar^k is sum_k G_k hbar^k with G_0 = A_0^{-1}
    and G_k = -A_0^{-1} sum_{m=1..k} A_m G_{k-m}, one forward substitution
    each.  A^{-1} = (sum_k G_k hbar^k) hbar^L, so entry (i, j) has the
    coefficient G_k[i][j] at hbar^{k + l_j}, and column j of G_k is kept only
    for k + l_j <= N.
    """
    lengths, d, parts = row_scaled_parts(block)
    n = len(lengths)
    out = [[{} for _ in range(n)] for _ in range(n)]
    g = []
    for k in range(N - min(lengths, default=N) + 1):
        rhs = [{i: One} if k == 0 and lengths[i] <= N else {} for i in range(n)]
        for m in range(1, min(k, len(parts) - 1) + 1):
            for i, row in enumerate(parts[m]):
                dst = rhs[i]
                for t, v in row.items():
                    for j, w in g[k - m][t].items():
                        if lengths[j] + k <= N:
                            acc(dst, j, -v * w)
        g.append(lower_solve(parts[0], d, rhs))
        for i, row in enumerate(g[k]):
            for j, v in row.items():
                out[i][j][-(k + lengths[j])] = v
    return [[CPoly(e) for e in row] for row in out]


def _neg_word(mod, mono):
    return tuple(mod.gen_letter(mod.gens[g]) for g in mod.word_of(mono))


def _expand_dual_mono(mod, v0, duals, mono):
    """Y_{f,i} written in plain u^+ letters, normal-ordered: {word: coeff}.

    On a balanced chain brackets of pos letters stay pos, so the dual
    letters acting on V0's cyclic vector give the normal form in U(u^+).  Each
    dual combination is scaled to ints; the result is divided by the scales once.
    """
    vec, den = {(): 1}, 1
    for g in reversed(mod.word_of(mono)):
        d = math.lcm(*(Fraction(c).denominator for c, _ in duals[mod.gens[g]]))
        den *= d
        new = {}
        for c2, letter in duals[mod.gens[g]]:
            k = int(c2 * d)
            for word, c in v0.ctx.apply(letter, vec).items():
                acc(new, word, c * k)
        vec = new
    return {v0.letters(word): Fraction(c, den) for word, c in vec.items()}


# -- Poisson bivector and the first-order check ----------------------------------


def poisson_bivector(pf, ft):
    """Pi = sum X_{a,i} ^ Y_{a,i} over the mutually dual bases, as a tensor
    {(left_word, right_word): coeff} of single-letter words."""
    _require_balanced(pf)
    return _bivector(pf, SingularityModule(pf, ft).dual_letters())


def _bivector(pf, duals):
    out = {}
    for (a, i), combo in duals.items():
        x_letter = ("E", pf.rd.neg[a], i)
        for c, y_letter in combo:
            acc(out, ((x_letter,), (y_letter,)), c)
            acc(out, ((y_letter,), (x_letter,)), -c)
    return out


def first_order_check(series: InverseShapovalov):
    """Skew part of the hbar^1 coefficient equals Pi exactly.  A series
    truncated at N = 0 has no hbar^1 term to check: TruncationError."""
    if series.order < 1:
        raise TruncationError("the first-order check needs a series of order N >= 1")
    f1 = series.terms.get(1, {})
    skew = {}
    for (lw, rw), c in f1.items():
        acc(skew, (lw, rw), c)
        acc(skew, (rw, lw), -c)
    return skew == _bivector(series.pf, series.module.dual_letters())


# -- V0 and the star bidifferential ------------------------------------------------


class V0Context:
    """U(g_r)/(U(g_r) l) with the PBW normal form (neg block)(pos block).

    The straightening engine over the neg, then the pos letters in generator
    order, with every levi letter acting by 0: a V0 word is a nondecreasing
    tuple of positions in ctx.basis, and every coefficient is an int.  Every
    other letter of g_r must be levi, which is checked once here.
    """

    def __init__(self, pf):
        _require_balanced(pf)
        self.pf = pf
        rd = pf.rd
        gens = triangular_split(pf).gens
        basis = [("E", rd.neg[a], i) for a, i in gens] + [("E", a, i) for a, i in gens]
        self.ctx = UEAContext(rd, pf.depth, basis, {})
        for i, lm in enumerate(pf.levi_filtration().masks):
            for b in range(rd.num_roots):
                if ("E", b, i) not in self.ctx.rank and not (lm >> b) & 1:
                    raise ClaimViolation(f"letter E_{b} e^{i} escapes the triangular "
                                         f"classification of {pf!r}")

    def letters(self, word):
        """The letter word of a V0 word of basis positions."""
        return tuple(map(self.ctx.basis.__getitem__, word))

    def project_word(self, word):
        """p of a single product of letters: {v0_word: int}, letter words."""
        return {self.letters(w): c for w, c in self.ctx.normal_form(word).items()}


def star_bidiff(series: InverseShapovalov):
    """B = (p x p)(F): the formal bidifferential operator on the orbit.

    F's slots are already normal inside U(u^-) and U(u^+), so they are V0
    basis words, the projection p x p keeps F as it is, and B is the series.
    """
    return series


def associativity_check(bid: InverseShapovalov, N=None, return_sides=False):
    """(Delta x 1)(B) (B x 1) == (1 x Delta)(B) (1 x B) in V0^(x)3, truncated.

    Each slot of B is mapped once to its V0 word of basis positions, which
    must be nondecreasing (ClaimViolation otherwise).  The inner factor never
    touches the outer slot that Delta leaves alone, so _inner(z) is formed
    once per word z and layer h2, then scattered over the b paired with a = z
    (B^(12,3)) and the a paired with b = z (B^(1,23)).  B is scaled to
    integers by the lcm D of its denominators, so both sides carry D^2;
    return_sides divides it out and maps the keys back to letters.
    """
    if N is None:
        N = bid.order
    if N > bid.order:
        raise TruncationError("cannot check beyond the computed truncation order")
    ctx = bid.v0.ctx
    layers = {h: d for h, d in bid.terms.items() if h <= N}
    den = math.lcm(*(c.denominator for d in layers.values() for c in d.values()))
    slots = {}  # letter word -> its V0 word
    for h, d in layers.items():
        for term in d:
            for word in term:
                if word not in slots:
                    w = slots[word] = tuple(ctx.rank.get(letter, -1) for letter in word)
                    if -1 in w or w != tuple(sorted(w)):
                        raise ClaimViolation(f"the term {term} at hbar^{h} has the slot "
                                             f"{word}, which is no V0 basis word")
    terms = {h: {(slots[a], slots[b]): c.numerator * (den // c.denominator)
                 for (a, b), c in d.items()} for h, d in layers.items()}
    left, right = {}, {}
    for h2, d2 in terms.items():
        memo = {(): d2}  # V0 word z -> _inner of this layer only; B's slots are V0 words
        for h1, d1 in terms.items():
            if h1 + h2 > N:
                continue
            out_l = left.setdefault(h1 + h2, {})
            out_r = right.setdefault(h1 + h2, {})
            for (a, b), c1 in d1.items():
                for (w1, w2), v in _inner(ctx, a, memo).items():
                    acc(out_l, (w1, w2, b), c1 * v)
                for (w2, w3), v in _inner(ctx, b, memo).items():
                    acc(out_r, (a, w2, w3), c1 * v)
    left, right = ({h: d for h, d in side.items() if d} for side in (left, right))
    if return_sides:
        letters = bid.v0.letters
        left, right = ({h: {tuple(map(letters, k)): Fraction(v, den * den) for k, v in d.items()}
                        for h, d in side.items()} for side in (left, right))
        return left == right, left, right
    return left == right


def _inner(ctx, z, memo):
    """Delta(z) . B_h for a V0 word z, memo holding () -> B_h, one letter at
    a time from the right: Delta(l z') = (l x 1 + 1 x l) Delta(z'), one
    memoised ctx.act per letter and V0 word."""
    hit = memo.get(z)
    if hit is None:
        head = ctx.basis[z[0]]
        hit = {}
        for (w1, w2), c in _inner(ctx, z[1:], memo).items():
            for u, c1 in ctx.act(head, w1).items():
                acc(hit, (u, w2), c * c1)
            for u, c2 in ctx.act(head, w2).items():
                acc(hit, (w1, u), c * c2)
        memo[z] = hit
    return hit


def first_difference(left, right):
    """Diagnostic: first (hdeg, key) where the two composites differ."""
    for h in sorted(set(left) | set(right)):
        dl = left.get(h, {})
        dr = right.get(h, {})
        for key in sorted(set(dl) | set(dr)):
            if dl.get(key, 0) != dr.get(key, 0):
                return h, key, dl.get(key, 0), dr.get(key, 0)
    return None


# -- invariance of the inverse form ------------------------------------------------


def check_invariance(series: InverseShapovalov):
    """Delta(g) . F = 0 via the module actions, on coverage-closed components.

    Each term c hbar^h X (x) Y of F is X w^+ in M^+ (the series' module) and
    Y w^- in M^-, both through their module's normal form, with coefficient
    c^-h.  For every g_r basis letter g, the element sum_t (g X_t) (x) Y_t +
    X_t (x) (g Y_t) must vanish; it is gathered on rationals keyed by the two
    generator words and the total c-degree.  Components are compared only on
    weight pairs covered by the truncation (the weights of the left words, zero
    included), which is exact when the generator alphabet has single-letter
    heights (e.g. rank-one cases) and a sound partial check otherwise.
    """
    mod_plus = series.module
    mod_minus = SingularityModule(series.pf.opposite(), series.ft.scale(-1), dilated=True)
    pairs = [(mod_plus.action.normal_form(lw), mod_minus.action.normal_form(rw), h, c)
             for h, lw, rw, c in series.term_items()]
    weights = {mod_plus.weight_of_word(w) for xv, _, _, _ in pairs for w in xv}
    for g in all_letters(series.pf.rd, series.pf.depth):
        total = {}
        for xv, yv, h, series_cf in pairs:
            for left, right in ((mod_plus.apply_letter(g, xv), yv),
                                (xv, mod_minus.apply_letter(g, yv))):
                for wx, cx in left.items():
                    sx, dx = mod_plus.split_c(wx)
                    for wy, cy in right.items():
                        sy, dy = mod_minus.split_c(wy)
                        acc(total, (sx, sy, dx + dy - h), cx * cy * series_cf)
        # restrict to covered components: both slot weights must be computed
        for wl, wr, deg in total:
            mul = mod_plus.weight_of_word(wl)
            if mul not in weights or mul != tuple(-x for x in mod_minus.weight_of_word(wr)):
                continue
            if -deg <= series.order:
                return False
    return True
