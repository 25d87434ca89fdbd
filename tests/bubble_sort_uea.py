"""Bubble-sort normal ordering in U(g_r): the independent straightening oracle.

The package straightens through one letter-insertion action
(`wildstrat.uea.UEAContext`).  This is the earlier rewriting of whole words:
it fixes a total order on every letter of g_r from the polarisation and a
block layout such as (neg, levi, pos) or (neg, pos, levi), swaps the first
out-of-order adjacent pair with its commutator, and caches by the whole word.
The module action, the V0 projection and the antipode test are checked
against it.
"""

from __future__ import annotations

from fractions import Fraction

from wildstrat.parab import ParabolicFiltration, triangular_split
from wildstrat.rootdata import letter_bracket
from wildstrat.strat import ClaimViolation, indices
from wildstrat.uea import acc


class BubbleSortUEA:
    """Letters: ('H', t, i) and ('E', root_idx, i); order fixed by `layout`.

    layout: tuple of block names from {"neg", "pos", "levi"} listed in
    increasing order.  neg/pos letters are ordered inside their block by the
    triangular-split generator order; levi letters by (eps, kind, index).
    """

    def __init__(self, pf: ParabolicFiltration, layout=("neg", "pos", "levi")):
        self.pf = pf
        self.rd = rd = pf.rd
        self.depth = pf.depth
        self.layout = layout
        ts = triangular_split(pf)
        self.split = ts
        lf = pf.levi_filtration()
        letters = []
        self.block = {}
        # classify every letter of g_r
        for i in range(self.depth):
            for t in range(rd.dim_t):
                self.block[("H", t, i)] = "levi"
            lm = lf.mask(i)
            nu = pf.nu(i)
            for b in range(rd.num_roots):
                if (nu >> b) & 1:
                    self.block[("E", b, i)] = "pos"
                elif (nu >> rd.neg[b]) & 1:
                    self.block[("E", b, i)] = "neg"
                elif (lm >> b) & 1:
                    self.block[("E", b, i)] = "levi"
                else:
                    raise ClaimViolation(f"letter E_{b} e^{i} escapes the triangular "
                                         f"classification of {pf!r}")
        order = {}
        pos_rank = {g: k for k, g in enumerate(ts.gens)}
        counter = 0
        for name in layout:
            if name == "neg":
                for a, i in ts.gens:
                    order[("E", rd.neg[a], i)] = counter
                    counter += 1
            elif name == "pos":
                for a, i in ts.gens:
                    order[("E", a, i)] = counter
                    counter += 1
            else:
                for i in range(self.depth):
                    for t in range(rd.dim_t):
                        order[("H", t, i)] = counter
                        counter += 1
                    for b in sorted(indices(lf.mask(i))):
                        order[("E", b, i)] = counter
                        counter += 1
        self.order = order
        self._nf_cache = {}
        self._bracket_cache = {}

    # -- Lie brackets of letters -------------------------------------------

    def bracket(self, a, b):
        """[a, b] as a list of (coeff, letter), cached per context."""
        key = (a, b)
        hit = self._bracket_cache.get(key)
        if hit is None:
            hit = self._bracket_cache[key] = letter_bracket(self.rd, self.depth, a, b)
        return hit

    # -- normal ordering ------------------------------------------------------

    def normal_form(self, word):
        """PBW normal form of a word (tuple of letters) as {word: coeff}."""
        word = tuple(word)
        hit = self._nf_cache.get(word)
        if hit is not None:
            return hit
        order = self.order
        k = next((t for t in range(len(word) - 1)
                  if order[word[t]] > order[word[t + 1]]), None)
        if k is None:
            result = {word: Fraction(1)}
        else:
            a, b = word[k], word[k + 1]
            result = {}
            swapped = word[:k] + (b, a) + word[k + 2:]
            for w, c in self.normal_form(swapped).items():
                acc(result, w, c)
            for coeff, letter in self.bracket(a, b):
                for w, c in self.normal_form(word[:k] + (letter,) + word[k + 2:]).items():
                    acc(result, w, coeff * c)
        self._nf_cache[word] = result
        return result

    def normal_form_of(self, element):
        """Normal form of {word: coeff}."""
        out = {}
        for word, c in element.items():
            for w, c2 in self.normal_form(word).items():
                acc(out, w, c * c2)
        return out

    def multiply(self, x, y):
        """Product of two normal-form elements, re-normalized."""
        out = {}
        for wx, cx in x.items():
            for wy, cy in y.items():
                for w, c in self.normal_form(wx + wy).items():
                    acc(out, w, cx * cy * c)
        return out

    def split_word(self, word):
        """Split a normal word into its (neg, pos, levi) blocks."""
        blocks = {"neg": [], "pos": [], "levi": []}
        for letter in word:
            blocks[self.block[letter]].append(letter)
        return tuple(blocks["neg"]), tuple(blocks["pos"]), tuple(blocks["levi"])

