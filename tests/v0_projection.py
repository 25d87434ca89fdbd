"""p: U(g_r) -> V0 on letter words, cached per V0 context.

The oracles and the V0 tests project word by word; quant's own check runs
on V0 words of basis positions and projects no letter word.  The cache is
keyed weakly by the context, so it dies with it.
"""

from weakref import WeakKeyDictionary

_CACHE = WeakKeyDictionary()  # V0Context -> {letter word: {v0_word: int}}


def project_word(v0, word):
    """p of a single product of letters: {v0_word: coeff}, integral.

    Cached per context by the word tuple: the dict returned is shared
    between calls, and every caller only reads it.
    """
    cache = _CACHE.setdefault(v0, {})
    word = tuple(word)
    hit = cache.get(word)
    if hit is None:
        hit = cache[word] = v0.project_word(word)
    return hit
