"""Levi subsystems, the Levi poset, Levi filtrations and stratifications.

Root subsets are integer bitmasks over the root list of a RootDatum.  All
predicates are exact linear algebra (span tests, kernel computations); no
thresholds anywhere.  Weyl quotients and the stratification axioms are
implemented as finite, testable procedures.
"""

from __future__ import annotations

from collections import namedtuple
from weakref import WeakKeyDictionary

from .linalg import Zero, dot, generic_point, nullspace


class ClaimViolation(RuntimeError):
    """A verified statement of the underlying theory failed on actual data."""


# -- bitmask helpers ---------------------------------------------------------


def mask_from_indices(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices(mask):
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def full_mask(rd):
    return (1 << rd.num_roots) - 1


def require_mask(rd, mask):
    """Raise a ValueError naming a mask that is not a set of roots of rd."""
    if not isinstance(mask, int) or mask < 0 or mask >> rd.num_roots:
        raise ValueError(f"mask {mask!r} is not a set of roots of {rd.label} "
                         f"(bits 0..{rd.num_roots - 1})")


def negate_mask(rd, mask):
    return mask_from_indices(rd.neg[i] for i in indices(mask))


def weyl_mask(w, mask):
    """w(mask): bit i of the mask (read lowest first off bin) moves to bit w.perm[i]."""
    return sum(1 << j for j, bit in zip(w.perm, reversed(bin(mask))) if bit == "1")


# -- Levi subsystems ---------------------------------------------------------


def _span_closure(vectors, mask):
    """Mask of the vectors lying in the Q-span of the masked ones.

    Double annihilator: a vector lies in the row span of the masked vectors
    iff it kills their common kernel, so the closure is the AND of the
    vanishing masks over one kernel basis (one echelon form per closure).
    """
    if not vectors:
        return 0
    rows = [list(vectors[i]) for i in indices(mask)]
    out = (1 << len(vectors)) - 1
    for k in nullspace(rows, cols=len(vectors[0])):
        out &= _vanishing_mask(vectors, _ints_where_integral(k))
    return out


def span_closure(rd, mask):
    """Phi_S: the roots inside the Q-span of the subset."""
    return _span_closure(rd.roots, mask)


def is_levi(rd, mask):
    """span(phi) intersect Phi == phi."""
    return span_closure(rd, mask) == mask


def _ints_where_integral(v):
    """The rational vector v as a tuple, its integral entries as ints (the
    same values), so that pairing it with the int roots stays in ints."""
    return tuple(x.numerator if x.denominator == 1 else x for x in v)


_KERNELS = WeakKeyDictionary()  # root datum -> {mask: kernel basis}, dies with the datum


def kernel_basis(rd, mask):
    """Basis of Ker(phi) = {X in t : <a|X> = 0 for a in phi}, as a tuple of
    tuples (integral entries as ints), echelonised once per root datum and mask."""
    memo = _KERNELS.get(rd)
    if memo is None:
        memo = _KERNELS[rd] = {}
    hit = memo.get(mask)
    if hit is None:
        rows = [list(rd.roots[i]) for i in indices(mask)]
        hit = memo[mask] = tuple(map(_ints_where_integral, nullspace(rows, cols=rd.dim_t)))
    return hit


def kernel_dim(rd, mask):
    return len(kernel_basis(rd, mask))


def levi_witness(rd, mask):
    """Deterministic rational X in t with phi_X == mask.

    X is linalg.generic_point over the kernel basis, avoiding the roots
    outside the mask; raises when the subset is not Levi (some avoided root
    then vanishes on the whole kernel, and no such point exists).
    """
    basis = kernel_basis(rd, mask) or [(Zero,) * rd.dim_t]  # a zero kernel holds X = 0
    avoid = [rd.roots[i] for i in range(rd.num_roots) if not (mask >> i) & 1]
    x = generic_point(basis, avoid)
    if x is None:
        raise ValueError("no witness point: subset is not Levi")
    return x


def _vanishing_mask(vectors, x):
    """Mask of the vectors v with <v|x> = 0."""
    return mask_from_indices(i for i, v in enumerate(vectors) if dot(v, x) == 0)


def levi_of_point(rd, x):
    """phi_X = {a in Phi : <a|X> = 0}; always a Levi subsystem."""
    return _vanishing_mask(rd.roots, x)


def weyl_orbit(rd, x, act, gens=None):
    """The orbit of x, each point once, breadth first from x over the reflections
    gens (the simple ones, so W, by default): act(s, y) is the image of y under s."""
    gens = rd.simple_reflections if gens is None else gens
    seen, queue = {x}, [x]
    for y in queue:
        yield y
        for s in gens:
            z = act(s, y)
            if z not in seen:
                seen.add(z)
                queue.append(z)


_REFLECTIONS = WeakKeyDictionary()  # root datum -> ({root: reflection}, {mask: order})


def reflection_order(rd, mask):
    """|W(phi)| for a Levi subsystem phi, memoised per root datum.

    With D the base of phi cap Phi+ and a a leaf of its Dynkin diagram, the
    roots of phi cap Phi+ outside span(D - a) are a standard parabolic
    nilradical, fixed by W(D - a) alone: |W(phi)| is its orbit size times |W(D - a)|.
    """
    reflections, orders = _REFLECTIONS.setdefault(rd, ({}, {0: 1}))
    if mask not in orders:
        pos = mask & mask_from_indices(rd.positive)
        delta = rd.base(indices(pos))
        a = min(delta, key=lambda b: sum(rd.root_sum[b, c] is not None for c in delta))
        rest = span_closure(rd, mask_from_indices(b for b in delta if b != a))
        gens = [reflections.get(b) or reflections.setdefault(b, rd.reflection(b)) for b in delta]
        orbit = sum(1 for _ in weyl_orbit(rd, pos & ~rest, weyl_mask, gens))
        orders[mask] = orbit * reflection_order(rd, rest)
    return orders[mask]


def weyl_order(rd):
    """|W| = |W(Phi)|."""
    return reflection_order(rd, full_mask(rd))


def weyl_orbits(rd, items, act, key=None):
    """The W-orbits met by the items under act(s, item), each orbit sorted by
    key, in the order the orbits are met."""
    remaining = set(items)
    orbits = []
    while remaining:
        orbit = set(weyl_orbit(rd, next(iter(remaining)), act))
        remaining -= orbit
        orbits.append(sorted(orbit, key=key))
    return orbits


_CLASSES = WeakKeyDictionary()  # root datum -> {extra: W-classes}, dies with the datum


def standard_classes(rd, extra=0):
    """The W-classes met by span(Sigma) | extra over the subsets Sigma of the
    simple roots, each a sorted tuple, walked once per root datum and extra:
    the Levi subsystems for extra = 0, the parabolic subsets for extra = Phi+."""
    memo = _CLASSES.get(rd)
    if memo is None:
        memo = _CLASSES[rd] = {}
    if extra not in memo:
        delta = rd.simple
        sigmas = (mask_from_indices(a for k, a in enumerate(delta) if (bits >> k) & 1)
                  for bits in range(1 << len(delta)))
        seeds = [span_closure(rd, sigma) | extra for sigma in sigmas]
        memo[extra] = tuple(map(tuple, weyl_orbits(rd, seeds, weyl_mask)))
    return memo[extra]


def enumerate_levi(rd):
    """All Levi subsystems, sorted: the W-classes of the standard Phi_Sigma."""
    return sorted(m for cls in standard_classes(rd) for m in cls)


class LeviPoset:
    """The graded poset of Levi subsystems under anti-inclusion."""

    def __init__(self, rd):
        self.rd = rd
        self.elements = enumerate_levi(rd)
        self.rank = {}  # kernel_dim is constant on W-classes
        for cls in standard_classes(rd):
            self.rank.update(dict.fromkeys(cls, kernel_dim(rd, cls[0])))
        self._covers = None

    def leq(self, a, b):
        """a <= b in the poset (anti-inclusion: a contains b as subsets)."""
        return (a | b) == a

    def covers(self):
        """Pairs a <= b one rank apart, a then b in element order: Levi
        subsystems are flats, graded by kernel_dim, and distinct flats have
        distinct kernels, so each a is compared with the rank above it only.
        Built once per poset."""
        if self._covers is None:
            by_rank = {}
            for m in self.elements:
                by_rank.setdefault(self.rank[m], []).append(m)
            self._covers = [(a, b) for a in self.elements
                            for b in by_rank.get(self.rank[a] + 1, ()) if self.leq(a, b)]
        return self._covers

    def hasse_dot(self):
        lines = ["digraph levi_poset {", "  rankdir=BT;"]
        for m in self.elements:
            label = "{" + ",".join(str(i) for i in indices(m)) + "}"
            lines.append(f'  "m{m}" [label="{label}\\nrank {self.rank[m]}"];')
        for a, b in self.covers():
            lines.append(f'  "m{a}" -> "m{b}";')
        lines.append("}")
        return "\n".join(lines)


# -- Levi filtrations --------------------------------------------------------


class RootChain:
    """Nondecreasing chain m_0 <= ... <= m_{s-1} of root masks (m_s = Phi
    implicit), on which W acts termwise.  A subclass checks its members in
    ``_check_member``."""

    __slots__ = ("rd", "depth", "masks")

    def __init__(self, rd, masks):
        self.rd = rd
        self.masks = tuple(masks)
        self.depth = len(self.masks)
        for m in self.masks:
            require_mask(rd, m)
            self._check_member(rd, m)
        for a, b in zip(self.masks, self.masks[1:]):
            if a & ~b:
                raise ValueError("chain is not nondecreasing")

    @staticmethod
    def _check_member(rd, mask):
        """Raise a ValueError for a mask that is no member of this kind of chain."""

    @classmethod
    def _verified(cls, rd, masks):
        """A chain whose members and order the caller has already checked."""
        self = object.__new__(cls)
        self.rd, self.masks = rd, tuple(masks)
        self.depth = len(self.masks)
        return self

    def mask(self, i):
        return self.masks[i] if i < self.depth else full_mask(self.rd)

    def __eq__(self, other):
        return (type(other) is type(self) and self.rd is other.rd
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.depth, self.masks))

    def weyl_image(self, w):
        """w maps Levi and parabolic chains to chains of the same kind."""
        return self._verified(self.rd, [weyl_mask(w, m) for m in self.masks])

    def __repr__(self):
        return type(self).__name__ + "(" + " <= ".join(
            "{" + ",".join(map(str, indices(m))) + "}" for m in self.masks) + ")"


class LeviFiltration(RootChain):
    """Nondecreasing chain phi_0 <= ... <= phi_{s-1} (phi_s = Phi implicit)."""

    __slots__ = ()

    def level(self, root_idx):
        """d_a = min{i : a in phi_i}, in {0..depth}."""
        for i, m in enumerate(self.masks):
            if (m >> root_idx) & 1:
                return i
        return self.depth

    def levels(self):
        return tuple(self.level(i) for i in range(self.rd.num_roots))

    def dimension(self):
        return sum(kernel_dim(self.rd, m) for m in self.masks)

    def leq(self, other):
        """Product order: phi <= phi' iff phi_i contains phi'_i for all i."""
        if self.depth != other.depth:
            raise ValueError("comparing filtrations of different depth")
        return all((a | b) == a for a, b in zip(self.masks, other.masks))


def stratum_of_tuple(rd, xs):
    """The unique Levi filtration whose stratum contains the tuple.

    Convention (stratification side): phi_i = intersection of phi_{X_j} over
    j >= i.  Orbit-side data enters through the duality swap X_i = A_{r-i};
    see the classification helpers for that convention.
    """
    filt = LeviFiltration(rd, _suffix_vanishing_masks(rd, rd.roots, xs))
    if not stratum_contains(filt, xs):
        raise ClaimViolation(f"membership re-verification failed: {xs!r} not in {filt!r}")
    return filt


def stratum_contains(filt, xs):
    """Exact membership in the product stratum (kernel and avoided hyperplanes)."""
    return _in_stratum(filt.rd.roots, filt, xs)


def _suffix_vanishing_masks(rd, vectors, xs):
    """phi_i = {v : <v|x_j> = 0 for all j >= i}, one mask per x_i."""
    masks = []
    m = full_mask(rd)
    for x in reversed(xs):
        m &= _vanishing_mask(vectors, x)
        masks.append(m)
    return masks[::-1]


def _in_stratum(vectors, filt, xs):
    """On each x_i the vectors of phi_i vanish and those of phi_{i+1} - phi_i do not."""
    return len(xs) == filt.depth and all(
        all(dot(vectors[a], x) == 0 for a in indices(filt.mask(i)))
        and all(dot(vectors[a], x) != 0 for a in indices(filt.mask(i + 1) & ~filt.mask(i)))
        for i, x in enumerate(xs))


def stratum_witness(filt):
    """A rational point of the stratum: X_i has phi_{X_i} exactly phi-determined."""
    rd = filt.rd
    return tuple(levi_witness(rd, m) for m in filt.masks)


def enumerate_filtrations(rd, s):
    """All depth-bounded Levi filtrations phi_0 <= ... <= phi_{s-1} (phi_s = Phi)."""
    return [LeviFiltration._verified(rd, chain)
            for chain in nondecreasing_chains(enumerate_levi(rd), s)]


def nondecreasing_chains(masks, s):
    """All chains m_0 <= ... <= m_{s-1} (as subsets) drawn from masks, in list order."""
    out = []

    def extend(chain):
        if len(chain) == s:
            out.append(chain)
            return
        for m in masks:
            if not chain or (chain[-1] | m) == m:
                extend(chain + [m])

    extend([])
    return out


def chain_count(classes, s):
    """len(nondecreasing_chains(masks, s)) for the masks of the W-classes: the
    count of chains topped by m, constant on classes, sums those one shorter in m."""
    inside = [[sum(m | top[0] == top[0] for m in cls) for cls in classes] for top in classes]
    counts = [1] * len(classes)
    for _ in range(s - 1):
        counts = [dot(row, counts) for row in inside]
    return dot(counts, list(map(len, classes))) if s else 1


def cardinality_bound(rd, s):
    """|W| (s+1)^{rk Phi}: the enumeration bound."""
    return weyl_order(rd) * (s + 1) ** len(rd.simple)


# -- Weyl quotients ----------------------------------------------------------


QuotientStratum = namedtuple("QuotientStratum", "orbit setwise_order pointwise_order out_order")


def weyl_orbits_and_quotient(rd, s):
    """Partition the depth-s filtrations into W-orbits, with stabilizer data.

    Out = setwise/pointwise stabilizer (of Ker(phi_0) x ... x Ker(phi_{s-1}), so
    W(phi_0) by Steinberg's theorem) must act freely on the stratum witness: the
    roots vanishing on all its points must be phi_0, else ClaimViolation.
    Returns (list of QuotientStratum, leq) where leq compares orbits in the
    quotient poset order (representative-wise comparability).
    """
    orbits = weyl_orbits(rd, enumerate_filtrations(rd, s), lambda w, f: f.weyl_image(w),
                         key=lambda g: g.masks)
    order = weyl_order(rd)
    strata = []
    for orbit in orbits:
        rep = orbit[0]
        setwise = order // len(orbit)
        pointwise = reflection_order(rd, rep.mask(0))
        psi = stratum_of_tuple(rd, stratum_witness(rep)).mask(0)
        if psi != rep.mask(0):
            raise ClaimViolation(f"Out does not act freely on the witness of {rep!r}: "
                                 f"{reflection_order(rd, psi)} Weyl elements fix it, "
                                 f"{pointwise} fix its kernels")
        strata.append(QuotientStratum(orbit, setwise, pointwise, setwise // pointwise))

    def leq(i, j):
        a = strata[i].orbit[0]
        return any(a.leq(b) for b in strata[j].orbit)

    return strata, leq


# -- dual strata --------------------------------------------------------------


def coroot_span_closure(rd, mask):
    """Coroots inside the Q-span of the masked coroots (dual-side span test)."""
    return _span_closure(rd.coroots, mask)


def is_levi_dual(rd, mask):
    return coroot_span_closure(rd, mask) == mask


def dual_stratum_of_covector(rd, lams):
    """phi^v_i = {a^v : <lambda_j | a^v> = 0 for all j >= i}, as a filtration."""
    filt = LeviFiltration(rd, _suffix_vanishing_masks(rd, rd.coroots, lams))
    for m in filt.masks:
        if not is_levi_dual(rd, m):
            raise ClaimViolation(f"dual stratum mask {indices(m)} of {lams!r} is not a "
                                 "dual Levi subsystem")
    return filt


def dual_stratum_contains(rd, filt, lams):
    """Membership of a covector tuple in the dual stratum of the filtration."""
    return _in_stratum(rd.coroots, filt, lams)


# -- stratification axioms -----------------------------------------------------


def verify_stratification_axioms(rd, filtrations):
    """Combinatorial check of the stratification axioms on a finite family.

    - partition: every sample point lies in exactly one member stratum;
    - closure order: termwise kernel inclusion iff filtration order.
    Returns a report dict; 'ok' is False with the first violated axiom named.
    """
    report = {"ok": True, "violations": []}
    if not filtrations:
        report["ok"] = False
        report["violations"].append("empty family")
        return report
    s = filtrations[0].depth
    # ambient sample: witnesses of every depth-s stratum, not just the family's
    points = [stratum_witness(f) for f in enumerate_filtrations(rd, s)]
    points.extend(stratum_witness(f) for f in filtrations)
    for xs in points:
        hits = [f for f in filtrations if stratum_contains(f, xs)]
        if len(hits) != 1:
            report["ok"] = False
            report["violations"].append(
                f"partition: point lies in {len(hits)} strata (expected 1)")
            break
    for f in filtrations:
        for g in filtrations:
            incl = all(_kernel_included(rd, fm, gm) for fm, gm in zip(f.masks, g.masks))
            if incl != f.leq(g):
                report["ok"] = False
                report["violations"].append("closure order does not match poset order")
                return report
    return report


def _kernel_included(rd, inner_mask, outer_mask):
    """Ker(inner) included in Ker(outer) iff outer roots vanish on Ker(inner)."""
    basis = kernel_basis(rd, inner_mask)
    return all(rd.pair(a, v) == 0 for v in basis for a in indices(outer_mask))
