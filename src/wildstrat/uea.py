"""The one straightening engine: letters acting on an induced module over
ordered basis letters.

Letters are basis elements of g_r (Cartan or root vectors at a fixed epsilon
degree), plus the central dilation letter c, which letter_bracket brackets
to zero.  A UEAContext fixes an ordered list of basis letters spanning a
complement of a subalgebra that acts on the cyclic vector by scalars (by
multiples of c when dilated); every other letter puts a given vector on the
cyclic vector (0 when absent).  A module vector is {word: coeff} over
nondecreasing words of basis positions, and a letter a acts by the single
rule a.(y.rest) = y.(a.rest) + [a, y].rest unless it is a basis letter that
may stand in front of y.  The singularity module (basis: its generators, then
c when dilated, so a word is a generator word followed by c^d; Cartan letters
put lambda(H) w, or lambda(H) c w when dilated, on w) and V0 = U(g_r)/U(g_r) l
(basis: the neg, then the pos letters) are its instances, and letters()
maps a word of either back to its letters.  The unit is the int 1 and
letter_bracket's structure constants are ints, so only scalars (lambda(H))
bring in rationals: V0 has none and stays integral.

The coefficient accumulator (acc) lives in linalg and the bracket of two
letters (letter_bracket) in rootdata, next to the tables it reads; both are
imported from there.
"""

from __future__ import annotations

from .linalg import acc
from .rootdata import letter_bracket


class UEAContext:
    """The action of g_r letters on the induced module with ordered `basis`.

    `scalar` maps each non-basis letter that does not kill the cyclic vector
    to the vector {word: coeff} it puts there.  The unit is the int 1.
    """

    def __init__(self, rd, depth, basis, scalar):
        self.rd = rd
        self.depth = depth
        self.basis = basis
        self.rank = {letter: k for k, letter in enumerate(basis)}
        self.scalar = scalar
        self._memo = {}  # (letter, word) -> {word: coeff}, shared, read only

    def act(self, letter, word):
        """letter . word for a nondecreasing word of basis positions.

        The suffixes of word that are neither cached nor immediate are
        straightened shortest first, by a.(y.rest) = y.(a.rest) + [a, y].rest,
        so no call recurses once per letter."""
        k = self.rank.get(letter)
        if k is not None and (not word or k <= word[0]):
            return {(k,) + word: 1}
        memo = self._memo
        key = (letter, word)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cold = [word]  # word and its cold suffixes, longest first
        while word:
            word = word[1:]
            if (letter, word) in memo or k is not None and (not word or k <= word[0]):
                break
            cold.append(word)
        for word in reversed(cold):
            if not word:
                memo[(letter, word)] = self.scalar.get(letter, {})
                continue
            head, rest = self.basis[word[0]], word[1:]
            result = {}
            for w, c in self.act(letter, rest).items():
                for w2, c2 in self.act(head, w).items():
                    acc(result, w2, c if c2 == 1 else c * c2)
            for coeff, b in letter_bracket(self.rd, self.depth, letter, head):
                for w, c in self.act(b, rest).items():
                    acc(result, w, c * coeff)
            memo[(letter, word)] = result
        return memo[key]

    def letters(self, word):
        """The letter word of a word of basis positions."""
        return tuple(map(self.basis.__getitem__, word))

    def apply(self, letter, vec):
        """letter . vec for a module vector {word: coeff}."""
        out = {}
        for word, c in vec.items():
            for w, c2 in self.act(letter, word).items():
                acc(out, w, c * c2)
        return out

    def normal_form(self, word):
        """A word of letters applied to the cyclic vector, rightmost first."""
        vec = {(): 1}
        for letter in reversed(word):
            vec = self.apply(letter, vec)
        return vec


def antipode(element):
    """iota on a normal-form element: reverse each word with sign (-1)^len."""
    out = {}
    for word, c in element.items():
        sign = -1 if len(word) % 2 else 1
        acc(out, tuple(reversed(word)), sign * c)
    return out
