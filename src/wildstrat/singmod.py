"""Finite generalised singularity modules and wild Shapovalov forms.

The module M^psi_lambda is realized on its PBW basis: products of the
generators X_{a,i} = E_{-a} e^i (a in nu_0, i < d_a) applied to the cyclic
vector, each one a nondecreasing word of generator positions, the only form
a basis element takes here (module vectors, word tables, block bases and
block indices all use it).  Bases, like blocks, come from recursion on the
weight: a basis word of M[mu] is g.w' for a basis word w' of M[mu - alpha_g]
(parab.weight_words).
The action is the straightening engine of uea over the generator letters:
Cartan letters act on the cyclic vector through the character lambda, every
other letter by 0.  The dilated module (character c lambda) runs the same
rational engine with one more basis letter, the central letter c after the
generators: a module vector is {word: rational}, a word being a generator
word followed by c^d, and Cartan letters put lambda(H) c w on w.  Readers
take the c-degree off the word (split_c); CPoly appears only at the API edge,
in the dilated block entries, the dilated cyclic coefficient and the
factorisation.

Shapovalov entries are the coefficient of the cyclic vector (the zero-weight
space is a line).  Blocks are integer rows over one denominator, built by
recursion on the weight: row g.y' of the block at mu pairs the letter images
of the columns with row y' of the block at mu - alpha_g, in the word table's
order.  Weights come from parab.weight_layers; no weight order is decided
here.  Blocks, radicals, the integer row-scaled parts of the dilated dual
blocks, the fraction-free solve on them (quant.invert_block shares it), their
D*C*Qtilde factorisation, the truncated-quotient criterion and the simplicity
probe all live here.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm

from .linalg import CPoly, One, Zero, acc, det, frac_str, nullspace, rank
from .rootdata import all_letters
from .strat import indices
from . import parab
from .parab import (FormalType, ParabolicFiltration, require_admissible,
                    triangular_split)
from .uea import UEAContext


C_LETTER = ("c", 0, 0)  # the dilation variable, a central letter of the dilated module


class SingularityModule:
    """Highest-weight side module for a polarisation and a formal type.

    With dilated=True the character is c * lambda: the central letter c
    follows the generators in the action's basis, at position c_pos, and
    module words may end in c^d.  Coefficients are rationals either way.
    """

    def __init__(self, pf: ParabolicFiltration, ft: FormalType, dilated=False):
        require_admissible(pf, ft)
        self.pf = pf
        self.ft = ft
        self.rd = pf.rd
        self.depth = pf.depth
        self.dilated = dilated
        self.split = triangular_split(pf)
        self.gens = self.split.gens            # [(alpha_idx, eps)], module alphabet
        self.gen_pos = self.split.gen_pos
        self.levels = self.split.levels
        self.nu0 = self.split.nu0
        self.c_pos = len(self.gens)
        c_word = (self.c_pos,) if dilated else ()
        scalar = {("H", t, i): {c_word: v}
                  for i in range(self.depth) for t, v in enumerate(ft[i]) if v}
        basis = [self.gen_letter(g) for g in self.gens] + ([C_LETTER] if dilated else [])
        self.action = UEAContext(self.rd, self.depth, basis, scalar)
        self._letter_roots = [self.rd.roots[a] for a, _ in self.gens]
        self._nu0_roots = [self.rd.roots[a] for a in self.nu0]
        self._word_table = {}  # mu -> generator words of weight mu, the PBW basis
        self._index = {}     # mu -> {word: position}
        self._blocks = {}    # (dual, mu) -> (den, rows) (no back reference, no cycle)
        self._duals = None

    def gen_letter(self, gen):
        a, i = gen
        return ("E", self.rd.neg[a], i)

    # -- module action -----------------------------------------------------------

    def apply_letter(self, letter, vec):
        """Action of a g_r basis letter on a module vector {word: coeff}."""
        return self.action.apply(letter, vec)

    def split_c(self, word):
        """(generator word, d) of a module word g_1 ... g_k c^d (d = 0 when scalar)."""
        k = bisect_left(word, self.c_pos)
        return word[:k], len(word) - k

    # -- words and weights ---------------------------------------------------------

    def weight_of_word(self, word):
        rd = self.rd
        tot = [Zero] * rd.dim_t
        for g in self.split_c(word)[0]:
            a, _ = self.gens[g]
            tot = [x + y for x, y in zip(tot, rd.roots[a])]
        return tuple(tot)

    def root_sums(self, n):
        """Nonzero sums of at most n generator roots, by first layer."""
        layers = parab.weight_layers(self._nu0_roots, self.split.xi, n)
        return list(dict.fromkeys(mu for layer in islice(layers, n) for mu in layer))

    def weights_up_to(self, K):
        """All monoid elements of relative height <= K, sorted deterministically.

        The relative height of mu (the length of its first basis word) is the
        last layer of parab.weight_layers that holds mu; no word is enumerated."""
        last = parab.relative_heights(self._nu0_roots, self.split.xi, K)
        return sorted((mu for mu, k in last.items() if k <= K), key=lambda mu: (last[mu], mu))

    def weight_basis(self, mu):
        """Ordered PBW basis of M[mu]: its nondecreasing generator words, by
        nonincreasing length, then by word."""
        return parab.weight_words(self._letter_roots, mu, self.split.xi, self._word_table)

    def _positions(self, mu):
        """{word: position} over the basis of M[mu], once per weight."""
        hit = self._index.get(mu)
        if hit is None:
            hit = self._index[mu] = {w: k for k, w in enumerate(self.weight_basis(mu))}
        return hit

    # -- Shapovalov forms -----------------------------------------------------------

    def transpose_letter(self, gen_index):
        a, i = self.gens[gen_index]
        return ("E", a, i)

    def _cyclic_coeff(self, letters, x):
        """The coefficient of w in the letters applied to X w (X the word x),
        first to last: a CPoly when dilated, gathered from the words c^d."""
        vec = {x: One}
        for letter in letters:
            vec = self.apply_letter(letter, vec)
        if self.dilated:
            return CPoly({len(w): v for w, v in vec.items() if not self.split_c(w)[0]})
        return vec.get((), Zero)

    def shapovalov_entry(self, y, x):
        """S(Y w, X w) = coefficient of w in (tY) . (X w) for the basis words y
        and x of Y and X, transpose variant."""
        return self._cyclic_coeff([self.transpose_letter(g) for g in y], x)

    def shapovalov_block(self, mu):
        """Matrix S(Y w, X w) over the PBW basis of M[mu], by the weight recursion."""
        return ShapovalovBlock(mu, self.weight_basis(mu), *self._block(mu, False), self)

    def radical_dim(self, mu):
        blk = self.shapovalov_block(mu)
        return len(blk.radical())

    def radical_profile(self, K):
        return {mu: self.radical_dim(mu) for mu in self.weights_up_to(K)}

    def is_simple_up_to(self, K):
        return all(d == 0 for d in self.radical_profile(K).values())

    # -- nonsymmetric (antipode) variant ----------------------------------------------

    def nonsymmetric_entry(self, plus_word, x):
        """S^iota(Y w^-, X w^+) for Y given as a word of u^+ letters and the
        basis word x of X.

        iota(Y_1...Y_k) = (-1)^k Y_k...Y_1 applied to X w^+ (rightmost first).
        """
        val = self._cyclic_coeff(plus_word, x)
        return -val if len(plus_word) % 2 else val

    def dual_letters(self):
        """Expansion of the dual-basis vectors Y_{a,i} into u^+ letters, once per module."""
        if self._duals is None:
            duals, _ = parab.dual_basis(self.pf, self.ft)
            self._duals = {(a, i): [(c, ("E", aa, j)) for c, (aa, j) in combo]
                           for (a, i), combo in duals.items()}
        return self._duals

    def dual_block(self, mu):
        """Matrix S_c(Y_{f,i} w^-, X_{g,j} w^+) over the mutually dual bases.

        Entry (y, x) is (-1)^len(y) times the coefficient of w in Y_{f_k} ...
        Y_{f_1} X w^+ for the word f_1 ... f_k of y, the dual letters applied
        first to last.
        """
        return ShapovalovBlock(mu, self.weight_basis(mu), *self._block(mu, True), self,
                               dual=True)

    def _block(self, mu, dual):
        """(den, rows) of the Shapovalov (dual=False) or signed dual block at
        mu, built and kept once, with the missing blocks below it.

        The letter L_g of generator g is its transpose letter, or its dual
        letter Y_g when dual.  Row y = g y' (g the first letter of the word of
        y) is the image L_g x of each column x paired with row y' of the block
        at mu - alpha_g, on integer numerators; the dual sign (-1)^len(y)
        flips once per letter.  The weight-zero block is [[1]].  The missing
        blocks are those at mu and at the weights a worklist reaches from mu
        by first-letter steps nu - alpha_g; they are built in the word table's
        order, which lists every weight below mu first.
        """
        blocks = self._blocks
        if (dual, mu) not in blocks:
            missing = set()
            todo = [mu]
            while todo:
                nu = todo.pop()
                if nu not in missing and (dual, nu) not in blocks:
                    missing.add(nu)
                    for g in {w[0] for w in self.weight_basis(nu) if w}:
                        todo.append(tuple(m - r for m, r in zip(nu, self._letter_roots[g])))
            for nu in self._word_table:
                if nu == mu:
                    break
                if nu in missing:
                    blocks[(dual, nu)] = self._build_block(nu, dual)
            blocks[(dual, mu)] = self._build_block(mu, dual)
        return blocks[(dual, mu)]

    def _build_block(self, mu, dual):
        """(den, rows) of the block at mu: rows[i] is the sparse row
        {j: {deg: int}} of the numerators over den of the coefficients of c^deg
        (degree 0 alone when scalar), reduced by their gcd."""
        words = self.weight_basis(mu)
        if words == [()]:
            return 1, [{0: {0: 1}}]
        by_letter = {}
        for row, word in enumerate(words):
            by_letter.setdefault(word[0], []).append(row)
        groups = []  # per first letter: (den, its rows, letter images, lower rows)
        for g, members in by_letter.items():
            lower_mu = tuple(m - r for m, r in zip(mu, self._letter_roots[g]))
            lower_den, lower = self._blocks[(dual, lower_mu)]
            index = self._positions(lower_mu)
            img_den, images = self._letter_images(g, words, index, dual)
            groups.append((img_den * lower_den, members, images,
                           [lower[index[words[row][1:]]] for row in members]))
        den = lcm(*(t[0] for t in groups))
        rows = [None] * len(words)
        for d, members, images, lower_rows in groups:
            f = den // d
            for row, lower_row in zip(members, lower_rows):
                out = rows[row] = {}
                for j, img in enumerate(images):
                    entry = {}
                    for k, p in img:
                        q = lower_row.get(k)
                        if q:
                            for d1, v1 in p.items():
                                for d2, v2 in q.items():
                                    acc(entry, d1 + d2, v1 * v2)
                    if entry:
                        out[j] = {deg: v * f for deg, v in entry.items()}
        common = gcd(den, *(v for row in rows for e in row.values() for v in e.values()))
        if common != 1:
            rows = [{j: {deg: v // common for deg, v in e.items()} for j, e in row.items()}
                    for row in rows]
        return den // common, rows

    def _letter_images(self, g, words, index, dual):
        """(den, images): images[j] lists (k, {deg: int}) for L_g applied to
        words[j], k the position of each image word, c^deg taken off, in the
        basis of the weight below; integer numerators over one den; the dual
        sign is folded in."""
        if dual:
            letters = [(-c, letter) for c, letter in self.dual_letters()[self.gens[g]]]
        else:
            letters = [(One, self.transpose_letter(g))]
        act, c_pos = self.action.act, self.c_pos
        terms = [[(index[w[:cut]], len(w) - cut, coeff.numerator * v.numerator,
                   coeff.denominator * v.denominator)
                  for coeff, letter in letters for w, v in act(letter, x).items()
                  for cut in (bisect_left(w, c_pos),)] for x in words]
        den = lcm(*(t[3] for col in terms for t in col))
        images = []
        for col in terms:
            img = {}
            for k, deg, num, d in col:
                acc(img.setdefault(k, {}), deg, num * (den // d))
            images.append(list(img.items()))
        return den, images


class ShapovalovBlock:
    """Per-weight Shapovalov matrix with its factorisation interface.

    basis is the PBW basis of M[mu] as generator words (weight_basis), and
    rows[i] is {j: {deg: int}}: entry (i, j) is sum_deg rows[i][j][deg] c^deg / den
    (degree 0 alone when scalar).  matrix, built on first use, holds the
    entries as Fractions, or as CPolys when the module is dilated.
    """

    def __init__(self, mu, basis, den, rows, module, dual=False):
        self.mu = mu
        self.basis = basis
        self.den = den
        self.rows = rows
        self.module = module
        self.dual = dual

    @cached_property
    def matrix(self):
        n, den = len(self.basis), self.den
        if self.module.dilated:
            return [[CPoly({d: Fraction(v, den) for d, v in row.get(j, {}).items()})
                     for j in range(n)] for row in self.rows]
        return [[Fraction(row[j][0], den) if j in row else Zero for j in range(n)]
                for row in self.rows]

    def _numerators(self):
        """den times the scalar block, as dense integer rows."""
        if self.module.dilated:
            raise ValueError("rank/radical need scalar entries: specialize c first")
        return [[row[j][0] if j in row else 0 for j in range(len(self.basis))]
                for row in self.rows]

    def lengths(self):
        return list(map(len, self.basis))

    def dim(self):
        return len(self.basis)

    def rank(self):
        return rank(self._numerators()) if self.basis else 0

    def radical(self):
        return nullspace(self._numerators(), cols=len(self.basis)) if self.basis else []

    def determinant(self):
        return det(self._numerators()) / self.den ** len(self.basis)


class FactorisationError(RuntimeError):
    """The degree bounds of the factorisation claim failed on actual data."""


def row_scaled_parts(block: ShapovalovBlock):
    """(lengths, d, parts) of a dilated dual block A = c^L sum_k A_k hbar^k.

    L = diag(l_i) holds the word lengths; row i of parts[k] = den A_k is
    {j: numerator over den of the coefficient of c^{l_i - k} in A[i][j]}, an
    int row for lower_solve.  Checked on the data, in this order: each entry
    has degree at most the min length of its row and column, strictly less off
    the diagonal between equal lengths; each d_i is a positive integer;
    A_0 = diag(d) C is lower triangular.
    """
    mu = "(" + ", ".join(frac_str(x) for x in block.mu) + ")"
    if not block.dual or not block.module.dilated:
        raise ValueError(f"block of weight mu = {mu}: factorisation applies to dilated "
                         f"dual-basis blocks")

    def fail(i, j, what):
        return FactorisationError(f"block of weight mu = {mu}, entry ({i},{j}): {what}")

    lengths = block.lengths()
    n = block.dim()
    den = block.den
    parts = [[{} for _ in range(n)]]
    for i, row in enumerate(block.rows):
        for j, entry in sorted(row.items()):
            dmax = max(entry)
            if dmax > min(lengths[i], lengths[j]):
                raise fail(i, j, f"degree {dmax} exceeds the min length "
                                 f"{min(lengths[i], lengths[j])}")
            if lengths[i] == lengths[j] and i != j and dmax >= lengths[i]:
                raise fail(i, j, "no strict degree drop off the diagonal")
            for deg, v in entry.items():
                k = lengths[i] - deg
                while len(parts) <= k:
                    parts.append([{} for _ in range(n)])
                parts[k][i][j] = v
    d = []
    for i, row in enumerate(block.rows):
        lead = row.get(i, {}).get(lengths[i], 0)
        if lead <= 0 or lead % den:
            g = gcd(lead, den)
            value = lead // g if g == den else f"{lead // g}/{den // g}"
            raise fail(i, i, f"diagonal leading coefficient {value} is not a positive integer")
        d.append(lead // den)
    for i, row in enumerate(parts[0]):
        for j in row:
            if j > i:
                raise fail(i, j, "upper-triangular leading coefficient is nonzero")
    return lengths, d, parts


def combine_rows(terms):
    """sum_t v_t * num_t / den_t over terms (v_t, (num_t, den_t)), with int v_t
    and sparse int rows num_t: (num, den), den the lcm of the den_t."""
    den = lcm(*(d for _, (_, d) in terms))
    out = {}
    for v, (num, d) in terms:
        f = v * (den // d)
        for j, w in num.items():
            acc(out, j, f * w)
    return out, den


def lower_solve(a0, rhs):
    """X = a0^{-1} B (a0 = parts[0]) by fraction-free forward substitution; rows are
    (numerators {j: int}, den > 0), X_i = (B_i - sum_{t<i} a0[i][t] X_t) / a0[i][i] reduced."""
    out = []
    for i, b in enumerate(rhs):
        num, den = combine_rows([(1, b)] + [(-v, out[t]) for t, v in a0[i].items() if t < i])
        den *= a0[i][i]
        g = gcd(den, *num.values())
        out.append(({j: w // g for j, w in num.items()}, den // g))
    return out


def factor_rows(block: ShapovalovBlock):
    """(lengths, d, parts, xs): row_scaled_parts and xs[k - 1] = A_0^{-1} A_k for k >= 1."""
    lengths, d, parts = row_scaled_parts(block)
    return lengths, d, parts, [lower_solve(parts[0], [(r, 1) for r in p]) for p in parts[1:]]


def factorize_block(block: ShapovalovBlock):
    """A[mu] = D C Qtilde: D diagonal d_i c^{l_i}, C unipotent lower triangular
    constant, Qtilde - Id with only negative powers of c.  Exact.

    With A = c^L sum_k A_k hbar^k (row_scaled_parts), D C = c^L A_0 and
    Qtilde = sum_k A_0^{-1} A_k hbar^k (factor_rows), built here as CPolys.
    """
    lengths, d, parts, xs = factor_rows(block)
    n = len(lengths)
    dmat = [[CPoly({lengths[i]: d[i]}) if i == j else CPoly() for j in range(n)] for i in range(n)]
    cmat = [[Fraction(row.get(j, 0), block.den * d[i]) for j in range(n)]
            for i, row in enumerate(parts[0])]
    qt = [[{0: One} if i == j else {} for j in range(n)] for i in range(n)]
    for k, x in enumerate(xs, 1):
        for i, (num, den) in enumerate(x):
            for j, v in num.items():
                qt[i][j][-k] = Fraction(v, den)
    return dmat, cmat, [[CPoly(e) for e in row] for row in qt]


def reassemble(parts, xs):
    """The exactness check of D C Qtilde = A on the integer rows: A_0 xs[k - 1]
    = A_k for every k >= 1 (the hbar^k part of c^{-L} D C Qtilde), in ints."""
    return len(xs) == len(parts) - 1 and all(
        num == {j: w * den for j, w in want.items()}
        for part, x in zip(parts[1:], xs) for i, want in enumerate(part)
        for num, den in (combine_rows([(v, x[t]) for t, v in parts[0][i].items()]),))


# -- module-level predicates ------------------------------------------------------


def truncated_quotient_proper(pf, ft, k):
    """I^{(k)} M proper iff lambda_k..lambda_{r-1} vanish on t cap [g, g]."""
    if not 1 <= k <= pf.depth - 1:
        raise ValueError("k must lie in 1..r-1")
    require_admissible(pf, ft)
    return all(ft.pair_coroot(pf.rd, i, a) == 0
               for i in range(k, pf.depth) for a in range(pf.rd.num_roots))


def truncated_quotient_saturation(pf, ft, k, K):
    """Directly test whether the cyclic vector lies in I^{(k)} M, exploring
    module vectors of weight height <= K.  Positive answers are exact."""
    mod = SingularityModule(pf, ft)
    rd = pf.rd
    gens = [vec for i in range(k, pf.depth) for a in indices(pf.nu(i))
            for vec in (mod.apply_letter(("E", rd.neg[a], i), {(): One}),) if vec]
    span = []  # (vector, lead word), in echelon form: no lead occurs in a later vector

    def reduce(vec):
        vec = {w: c for w, c in vec.items() if len(w) <= K}
        for basis_vec, lead in span:
            c = vec.get(lead)
            if c:
                f = c / basis_vec[lead]
                for w, cv in basis_vec.items():
                    acc(vec, w, -f * cv)
        return vec

    def insert(vec):
        """Whether vec, cut at height K, leaves the span; if so, it joins it."""
        vec = reduce(vec)
        if vec:
            span.append((vec, min(vec)))
        return bool(vec)

    letters = all_letters(rd, pf.depth)
    frontier = [g for g in gens if insert(g)]
    while frontier:
        images = ({w: c for w, c in mod.apply_letter(letter, vec).items() if len(w) <= K}
                  for vec in frontier for letter in letters)
        frontier = [img for img in images if img and insert(img)]
    return not reduce({(): One})  # an empty residue: w lies in the generated submodule


def conjecture_probe(pf, ft, K):
    """Evidence report for the simplicity conjecture; never asserts it."""
    require_admissible(pf, ft)
    cond1 = parab.is_nonsingular(pf, ft)
    lf = pf.levi_filtration()
    pairings = [ft.pair_coroot(pf.rd, 0, a) for a in indices(lf.mask(1) & ~lf.mask(0))]
    cond2 = not any(v.denominator == 1 and v > 0 for v in pairings)
    mod = SingularityModule(pf, ft)
    observed = mod.is_simple_up_to(K)
    predicted = cond1 and cond2
    if predicted == observed:
        verdict = f"consistent up to K={K}"
    elif predicted and not observed:
        verdict = f"counterexample candidate: conditions hold but radical found at K<={K}"
    else:
        verdict = f"undetermined: conditions fail, no radical up to K={K}"
    return {
        "cond1_nonsingular": cond1,
        "cond2_alcove": cond2,
        "observed_simple_up_to_K": observed,
        "verdict": verdict,
    }
