"""Parabolic subsets and filtrations, triangular splittings, characters.

A parabolic subset psi satisfies (psi+psi) cap Phi = psi and psi cup -psi =
Phi; its Levi factor is Lf(psi) = psi cap -psi and nu = psi minus Lf(psi)
indexes the nilradical.  Parabolic filtrations are nondecreasing chains of
these; they polarize the strata of the Levi-filtration stratification and
carry the character spaces that singularity modules are induced from.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from .linalg import One, Zero, dot, frac, frac_str, inverse, mat_vec, rank, solve
from .rootdata import letter_bracket
from . import strat
from .strat import (ClaimViolation, LeviFiltration, RootChain, full_mask, indices,
                    mask_from_indices, negate_mask, weyl_mask)


# -- parabolic subsets --------------------------------------------------------


def is_closed(rd, mask):
    members = indices(mask)
    return all((mask >> k) & 1 for i in members for j in members
               if (k := rd.root_sum.get((i, j))) is not None)


def is_parabolic(rd, mask):
    return (mask | negate_mask(rd, mask)) == full_mask(rd) and is_closed(rd, mask)


def levi_factor(rd, mask):
    return mask & negate_mask(rd, mask)


def nilradical_mask(rd, mask):
    return mask & ~levi_factor(rd, mask)


def enumerate_parabolic(rd):
    """All parabolic subsets, generated as w(Phi+ cup Phi^-_Sigma)."""
    out = sorted(m for cls in strat.standard_classes(rd, mask_from_indices(rd.positive))
                 for m in cls)
    for m in out:
        if not is_parabolic(rd, m):
            raise ClaimViolation("generated subset fails the parabolic axioms")
    return out


# -- parabolic filtrations ------------------------------------------------------


class ParabolicFiltration(RootChain):
    """Nondecreasing chain psi_0 <= ... <= psi_{r-1} of parabolic subsets."""

    __slots__ = ()

    @staticmethod
    def _check_member(rd, mask):
        if not is_parabolic(rd, mask):
            raise ValueError("chain member is not a parabolic subset")

    def levi_filtration(self):
        return LeviFiltration(self.rd, [levi_factor(self.rd, m) for m in self.masks])

    def nu(self, i):
        return nilradical_mask(self.rd, self.mask(i))

    def opposite(self):
        return ParabolicFiltration(self.rd, [negate_mask(self.rd, m) | levi_factor(self.rd, m)
                                             for m in self.masks])

    def is_balanced(self):
        """[u_{psi_i}, u_{psi_j}] inside u_{psi_{i+j}} for i + j <= r - 1: every
        root letter of [E_a e^i, E_b e^j], a in nu_i and b in nu_j, is in nu_{i+j}."""
        rd, r = self.rd, self.depth
        nus = [self.nu(i) for i in range(r)]
        return all((nus[i + j] >> k) & 1
                   for i in range(r) for j in range(r - i)
                   for a in indices(nus[i]) for b in indices(nus[j])
                   for _, (kind, k, _) in letter_bracket(rd, r, ("E", a, i), ("E", b, j))
                   if kind == "E")


def enumerate_parabolic_filtrations(rd, r):
    """Every depth-r nondecreasing chain of parabolic subsets."""
    return [ParabolicFiltration._verified(rd, chain)
            for chain in strat.nondecreasing_chains(enumerate_parabolic(rd), r)]


# -- relative heights and words by weight ----------------------------------------


def height_functional(rd, nu_mask):
    """xi in t with <a|xi> >= 1 on nu; certifies the pointed-cone precondition.

    xi is 1 on the simple roots w(Delta) of the first positive system w(Phi+)
    containing nu in the walk over W (the breadth-first order of rd.weyl).
    """
    systems = strat.weyl_orbit(rd, mask_from_indices(rd.positive), weyl_mask)
    pos = next((p for p in systems if nu_mask & ~p == 0), None)
    if pos is None:
        raise ValueError("nilradical roots do not generate a pointed cone")
    simples = rd.base(indices(pos))
    xi = solve([list(rd.roots[i]) for i in simples], [One] * len(simples))
    if xi is None:
        raise ValueError("no height functional")
    return tuple(xi)


def weight_words(letter_roots, mu, xi, table):
    """Nondecreasing words of weight mu over the alphabet letter_roots (letter
    g has root letter_roots[g]), by nonincreasing length, then by word.

    A word is g.w' for a word w' at mu - alpha_g that is empty or starts with
    a letter >= g.  Every letter has <alpha_g|xi> >= 1, so a nonzero weight
    with <mu|xi> <= 0 has no words.  The words of each weight are kept in the
    caller's table; missing lower weights are filled first, lowest <.|xi>
    first, from an explicit worklist, so every mu - alpha_g of a weight mu in
    the table comes before mu in the table's order.
    """
    table.setdefault(tuple(0 * m for m in mu), [()])
    hit = table.get(mu)
    if hit is not None:
        return hit
    if not letter_roots:
        return []
    letter_hts = mat_vec(letter_roots, xi)
    pending = {}  # weight -> <weight|xi>, for the weights to fill
    stack = [(mu, dot(mu, xi))]
    while stack:
        nu, ht = stack.pop()
        if ht <= 0 or nu in table or nu in pending:
            continue
        pending[nu] = ht
        for root, lht in zip(letter_roots, letter_hts):
            stack.append((tuple(m - a for m, a in zip(nu, root)), ht - lht))
    for nu in sorted(pending, key=pending.get):
        words = []
        for g, root in enumerate(letter_roots):
            for w in table.get(tuple(m - a for m, a in zip(nu, root)), ()):
                if not w or g <= w[0]:
                    words.append((g,) + w)
        words.sort(key=lambda w: (-len(w), w))
        table[nu] = words
    return table.get(mu, [])


def weight_layers(letter_roots, xi, n):
    """Layer k = 1, 2, ...: {mu: <mu|xi>} for the sums mu of exactly k letter
    roots with <mu|xi> at most n times the largest letter height.  The first
    n layers hold every sum of at most n letters; as <alpha_g|xi> >= 1, the
    walk ends, and a weight's relative height is the last layer holding it."""
    letter_hts = mat_vec(letter_roots, xi)
    top = n * max(letter_hts, default=0)
    layer = {root: ht for root, ht in zip(letter_roots, letter_hts) if ht <= top}
    while layer:
        yield layer
        layer = {tuple(m + a for m, a in zip(mu, root)): ht + lht
                 for mu, ht in layer.items()
                 for root, lht in zip(letter_roots, letter_hts) if ht + lht <= top}


def relative_heights(letter_roots, xi, n):
    """{mu: the last layer of weight_layers(letter_roots, xi, n) holding mu}."""
    last = {}
    for k, layer in enumerate(weight_layers(letter_roots, xi, n), 1):
        last.update(dict.fromkeys(layer, k))
    return last


# -- triangular splitting -------------------------------------------------------


class TriangularSplit:
    """Ordered bases of u^- and u^+ inside g_r for a parabolic filtration.

    The u^- generators are the module alphabet X_{a,i} = E_{-a} e^i for a in
    nu_0 and i < d_a, ordered by nondecreasing relative height of a (ties by
    root index) and then by epsilon degree.  Kept once per root datum and
    chain by triangular_split and read only; it holds no root datum.
    """

    def __init__(self, pf: ParabolicFiltration):
        rd = pf.rd
        self.depth = pf.depth
        lf = pf.levi_filtration()
        nu0 = indices(pf.nu(0))
        xi = height_functional(rd, pf.nu(0)) if nu0 else None
        self.xi = xi
        last = relative_heights([rd.roots[a] for a in nu0], xi, 1)
        heights = {a: last[rd.roots[a]] for a in nu0}
        self.nu0 = sorted(nu0, key=lambda a: (heights[a], a))
        self.heights = heights
        self.levels = {a: lf.level(a) for a in self.nu0}
        # generator list: (root index a in nu0, eps degree i), i < d_a
        self.gens = [(a, i) for a in self.nu0 for i in range(self.levels[a])]
        self.gen_pos = {g: k for k, g in enumerate(self.gens)}


_SPLITS = WeakKeyDictionary()  # root datum -> {masks: TriangularSplit}, dies with the datum


def triangular_split(pf):
    memo = _SPLITS.setdefault(pf.rd, {})
    hit = memo.get(pf.masks)
    if hit is None:
        hit = memo[pf.masks] = TriangularSplit(pf)
    return hit


# -- characters -----------------------------------------------------------------


class FormalType:
    """lambda = (lambda_0..lambda_{r-1}), covectors on the t basis."""

    __slots__ = ("lams",)

    def __init__(self, lams):
        self.lams = tuple(tuple(frac(x) for x in lam) for lam in lams)
        if len({len(lam) for lam in self.lams}) != 1:
            raise ValueError(f"lambdas: one or more covectors of one width are required, "
                             f"got widths {[len(lam) for lam in self.lams]}")

    @property
    def depth(self):
        return len(self.lams)

    def __getitem__(self, i):
        return self.lams[i]

    def __eq__(self, other):
        return isinstance(other, FormalType) and self.lams == other.lams

    def __hash__(self):
        return hash(self.lams)

    def scale(self, c):
        c = frac(c)
        return FormalType([tuple(c * x for x in lam) for lam in self.lams])

    def pair_cartan(self, i, h_coords):
        return dot(self.lams[i], h_coords)

    def pair_coroot(self, rd, i, root_idx):
        return self.pair_cartan(i, rd.coroots[root_idx])

    def to_json(self):
        return {"depth": self.depth,
                "lambdas": [[frac_str(x) for x in lam] for lam in self.lams]}

    def __repr__(self):
        return f"FormalType({self.lams})"


class InadmissibleCharacter(ValueError):
    pass


def character_space(pf):
    """Basis of Z_phi = sum of Ker(phi_i) e^i; returns list of (i, t-vector)."""
    lf = pf.levi_filtration()
    out = []
    for i in range(pf.depth):
        for v in strat.kernel_basis(pf.rd, lf.mask(i)):
            out.append((i, tuple(v)))
    return out


def character_space_dim(pf):
    return len(character_space(pf))


def is_admissible(pf, ft: FormalType):
    """lambda_i must annihilate span{H_a : a in phi_i} for every i."""
    if ft.depth != pf.depth or any(len(lam) != pf.rd.dim_t for lam in ft.lams):
        return False
    lf = pf.levi_filtration()
    return all(ft.pair_coroot(pf.rd, i, a) == 0
               for i in range(pf.depth) for a in indices(lf.mask(i)))


def require_admissible(pf, ft):
    """Raise InadmissibleCharacter naming a depth or width mismatch of the
    lambdas, or else their failure to extend to a character."""
    for what, got, want in (("depth", ft.depth, pf.depth), ("width", len(ft[0]), pf.rd.dim_t)):
        if got != want:
            raise InadmissibleCharacter(f"lambdas: formal type {what} {got}, expected {want}")
    if not is_admissible(pf, ft):
        raise InadmissibleCharacter(
            "formal type does not extend to a character of the singularity algebra")


# -- the nonsingularity pairing B -------------------------------------------------


def b_pairing_blocks(pf, ft):
    """B on u^+ x u^-, one Hankel block H_a per root a in nu_0.

    B(E_a e^i, E_{-b} e^j) = sum_k <lambda_k | pi_{phi_k}[E_a e^i, E_{-b} e^j]>
    keeps only the Cartan part of the bracket, which is nonzero only for
    b = a: then it is <lambda_{i+j} | a^v> (0 once i + j reaches the depth),
    for i, j < d_a.  So B is block diagonal over nu_0.
    """
    require_admissible(pf, ft)
    rd = pf.rd
    lf = pf.levi_filtration()
    blocks = {}
    for a in indices(pf.nu(0)):
        d = lf.level(a)
        hankel = [ft.pair_coroot(rd, k, a) if k < pf.depth else Zero
                  for k in range(2 * d - 1)]
        blocks[a] = [hankel[i:i + d] for i in range(d)]
    return blocks


def b_pairing_matrix(pf, ft):
    """Matrix of B over the triangular bases (rows u^+, columns u^-)."""
    blocks = b_pairing_blocks(pf, ft)
    ts = triangular_split(pf)
    n = len(ts.gens)
    mat = [[Zero] * n for _ in range(n)]
    for a, block in blocks.items():
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                mat[ts.gen_pos[(a, i)]][ts.gen_pos[(a, j)]] = v
    return mat, ts


def is_nonsingular(pf, ft):
    """Every Hankel block of B has full rank; cross-checked against
    dual-stratum membership."""
    by_rank = all(rank(h) == len(h) for h in b_pairing_blocks(pf, ft).values())
    by_stratum = strat.dual_stratum_contains(pf.rd, pf.levi_filtration(), list(ft.lams))
    if by_rank != by_stratum:
        raise ClaimViolation(
            f"nonsingularity rank test ({by_rank}) disagrees with dual-stratum "
            f"membership ({by_stratum}) for {pf!r}, {ft!r}")
    return by_rank


def dual_basis(pf, ft):
    """u^+ basis (Y_{a,i}) dual to (X_{a,i}) for the quantization pairing.

    Normalized so that the antipode-contragredient form satisfies
    S_c(Y_{a,i}, X_{a',j}) = c delta delta, i.e. B(Y_{a,i}, X_{a',j}) =
    -delta delta.  Each Y_{a,i} lives on the root line of a.
    """
    if not is_nonsingular(pf, ft):
        raise SingularCharacterError("dual bases require a nonsingular character")
    blocks = b_pairing_blocks(pf, ft)
    ts = triangular_split(pf)
    duals = {}
    for a in ts.nu0:
        coeffs = inverse(blocks[a])
        for i, row in enumerate(coeffs):
            duals[(a, i)] = [(-c, (a, j)) for j, c in enumerate(row) if c != 0]
    return duals, ts


class SingularCharacterError(ValueError):
    pass
