"""The W-orbit walk over the simple reflections against the full list of W.

The functions under "full-group oracles" are the versions that scanned every
element of rd.weyl, kept as they were (with the mask action that decodes a
mask to indices and back); each test compares the walk-based code with them
exactly, on every type up to gl6, B4, C4 and D5.  _orbit_size is the walk
that gave the stabiliser orders before strat.reflection_order.
"""

import gc
import random
import weakref

import pytest

from wildstrat import parab, rootdata, strat
from wildstrat.elements import GElement, TcElement
from wildstrat.linalg import One, dot, solve
from wildstrat.orbit import classify_unmarked
from wildstrat.rootdata import parse_type
from wildstrat.strat import (enumerate_filtrations, full_mask, indices,
                             kernel_basis, mask_from_indices, span_closure)

TYPES = ["gl2", "gl3", "gl4", "gl5", "gl6", "sl3", "sl4", "B2", "B3", "B4",
         "C2", "C3", "C4", "D3", "D4", "D5"]


# -- full-group oracles ------------------------------------------------------


def full_weyl_mask(w, mask):
    return mask_from_indices(w.perm[i] for i in indices(mask))


def full_weyl_saturation(rd, extra=0):
    delta = rd.simple
    seen = set()
    for bits in range(1 << len(delta)):
        sigma = [delta[k] for k in range(len(delta)) if (bits >> k) & 1]
        base = span_closure(rd, mask_from_indices(sigma)) | extra
        seen.update(full_weyl_mask(w, base) for w in rd.weyl)
    return sorted(seen)


def full_weyl_orbits(rd, items, act, key=None):
    remaining = set(items)
    orbits = []
    while remaining:
        x = next(iter(remaining))
        orbit = {act(w, x) for w in rd.weyl}
        remaining -= orbit
        orbits.append(sorted(orbit, key=key))
    return orbits


def full_chain_image(w, chain):
    return type(chain)._verified(chain.rd, [full_weyl_mask(w, m) for m in chain.masks])


def full_setwise_stabilizer(rd, rep):
    return [w for w in rd.weyl if full_chain_image(w, rep) == rep]


def full_pointwise_stabilizer(rd, filt):
    ps = [_pairings(rd, v) for m in filt.masks for v in kernel_basis(rd, m)]
    return [w for w in rd.weyl if all(_fixes(w, p) for p in ps)]


def _pairings(rd, x):
    return [dot(r, x) for r in rd.roots]


def _fixes(w, p):
    return list(map(p.__getitem__, w.perm)) == p


def full_pointwise_order(rd, xs):
    ps = [_pairings(rd, x) for x in xs]
    return sum(1 for w in rd.weyl if all(_fixes(w, p) for p in ps))


def _orbit_size(rd, xs):
    """|W.xs| for a tuple of points of t.

    w.x - x lies in span(coroots), which the roots separate, so the orbit is
    walked on the roots' pairings with xs, numbered by value (one chr per
    root, in a str): w permutes them as it permutes the roots.
    """
    pairings = [tuple(dot(r, x) for x in xs) for r in rd.roots]
    number = {p: chr(k) for k, p in enumerate(dict.fromkeys(pairings))}
    state = "".join(number[p] for p in pairings)
    return sum(1 for _ in strat.weyl_orbit(rd, state,
                                           lambda s, p: "".join(map(p.__getitem__, s.perm))))


def full_height_functional(rd, nu_mask):
    pos = mask_from_indices(rd.positive)
    w = next((w for w in rd.weyl if nu_mask & ~full_weyl_mask(w, pos) == 0), None)
    if w is None:
        raise ValueError("nilradical roots do not generate a pointed cone")
    simples = sorted(w.perm[i] for i in rd.simple)
    xi = solve([list(rd.roots[i]) for i in simples], [One] * len(simples))
    if xi is None:
        raise ValueError("no height functional")
    return tuple(xi)


def full_classify_unmarked(x, y):
    rd = x.rd
    for z in (x, y):
        if not all(g.is_cartan() for g in z.coeffs):
            raise ValueError("classification requires r-semisimple markings in t_r")
    xt = [g.cartan for g in x.coeffs]
    yt = [g.cartan for g in y.coeffs]
    return any(all(w.apply_cartan(a) == tuple(b) for a, b in zip(xt, yt)) for w in rd.weyl)


# -- comparisons -------------------------------------------------------------


@pytest.mark.parametrize("label", TYPES)
def test_walk_lists_positive_systems_in_weyl_order(label):
    """The walk from Phi+ meets w(Phi+) in the breadth-first order of rd.weyl
    (W acts simply transitively on positive systems), so |W| is its length."""
    rd = parse_type(label)
    pos = mask_from_indices(rd.positive)
    walk = list(strat.weyl_orbit(rd, pos, strat.weyl_mask))
    assert walk == [full_weyl_mask(w, pos) for w in rd.weyl]
    assert strat.weyl_order(rd) == len(rd.weyl)
    assert strat.cardinality_bound(rd, 2) == len(rd.weyl) * 3 ** len(rd.simple)


@pytest.mark.parametrize("label", TYPES)
def test_weyl_mask_matches_the_decoded_action(label):
    rd = parse_type(label)
    rng = random.Random(7)
    masks = [0, full_mask(rd)] + [rng.getrandbits(rd.num_roots) for _ in range(20)]
    for w in rng.sample(rd.weyl, min(len(rd.weyl), 30)):
        for m in masks:
            assert strat.weyl_mask(w, m) == full_weyl_mask(w, m)


def as_partition(classes):
    return {frozenset(cls) for cls in classes}


@pytest.mark.parametrize("label", TYPES)
def test_saturation_and_orbits_match_the_full_group(label):
    """Levi subsystems and parabolic subsets in the same order, and their
    W-classes as the same partition (the order of the classes is printed nowhere)."""
    rd = parse_type(label)
    pos = mask_from_indices(rd.positive)
    levis = strat.enumerate_levi(rd)
    parabolics = parab.enumerate_parabolic(rd)
    assert levis == full_weyl_saturation(rd)
    assert parabolics == full_weyl_saturation(rd, pos)
    for extra, masks in ((0, levis), (pos, parabolics)):
        classes = strat.standard_classes(rd, extra)
        assert all(list(cls) == sorted(cls) for cls in classes)
        assert as_partition(classes) == as_partition(
            full_weyl_orbits(rd, masks, full_weyl_mask))


@pytest.mark.parametrize("label", TYPES)
def test_poset_rank_is_the_kernel_dimension(label):
    rd = parse_type(label)
    poset = strat.LeviPoset(rd)
    assert poset.rank == {m: strat.kernel_dim(rd, m) for m in poset.elements}


@pytest.mark.parametrize("lie_type, n", [("gl", 4), ("B", 3), ("D", 4)])
def test_classes_are_walked_once_per_root_datum(lie_type, n, monkeypatch):
    """LeviPoset, enumerate_levi, weyl_orbits_and_quotient and
    enumerate_parabolic(_filtrations) walk each Levi and parabolic class once
    between them, and LeviPoset takes one kernel_dim per Levi class."""
    rd = rootdata.root_datum.__wrapped__(lie_type, n)
    walks, dims = [], []
    walk, kernel_dim = strat.weyl_orbit, strat.kernel_dim

    def counted_walk(rd, x, act, gens=None):
        if isinstance(x, int) and gens is None:
            walks.append(x)
        return walk(rd, x, act, gens)

    def counted_dim(rd, mask):
        dims.append(mask)
        return kernel_dim(rd, mask)

    monkeypatch.setattr(strat, "weyl_orbit", counted_walk)
    monkeypatch.setattr(strat, "kernel_dim", counted_dim)
    poset = strat.LeviPoset(rd)
    levi_classes = as_partition(full_weyl_orbits(rd, poset.elements, full_weyl_mask))
    assert len(dims) == len(levi_classes)
    assert all(len(cls & set(dims)) == 1 for cls in levi_classes)
    assert strat.enumerate_levi(rd) == poset.elements
    strat.weyl_orbits_and_quotient(rd, 1)
    parabolics = parab.enumerate_parabolic(rd)
    parab.enumerate_parabolic_filtrations(rd, 1)
    parabolic_classes = full_weyl_orbits(rd, parabolics, full_weyl_mask)
    assert len(walks) == len(levi_classes) + len(parabolic_classes)


def test_classes_die_with_the_root_datum():
    rd = rootdata.root_datum.__wrapped__("gl", 3)
    classes = strat.standard_classes(rd)
    assert strat.standard_classes(rd) is classes
    ref = weakref.ref(rd)
    del rd
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("label", TYPES)
def test_quotient_matches_the_full_group(label):
    """Orbits of Levi filtrations with their setwise, pointwise and Out orders,
    at depth 1 on every type and at depth 2 where |W| is at most 48."""
    rd = parse_type(label)
    for depth in (1, 2) if len(rd.weyl) <= 48 else (1,):
        filts = enumerate_filtrations(rd, depth)
        strata, _ = strat.weyl_orbits_and_quotient(rd, depth)
        orbits = full_weyl_orbits(rd, filts, full_chain_image, key=lambda g: g.masks)
        assert [s.orbit for s in strata] == orbits
        for s in strata:
            setwise = full_setwise_stabilizer(rd, s.orbit[0])
            pointwise = full_pointwise_stabilizer(rd, s.orbit[0])
            assert (s.setwise_order, s.pointwise_order, s.out_order) == (
                len(setwise), len(pointwise), len(setwise) // len(pointwise))


@pytest.mark.parametrize("label", TYPES)
def test_reflection_order_matches_the_full_group(label):
    """|W(m)| is the order of the pointwise stabiliser of Ker(m) (Steinberg),
    counted over rd.weyl and by the orbit walk, for every Levi subsystem m."""
    rd = parse_type(label)
    for m in strat.enumerate_levi(rd):
        kernel = kernel_basis(rd, m)
        order = strat.reflection_order(rd, m)
        assert order == full_pointwise_order(rd, kernel)
        assert order == len(rd.weyl) // _orbit_size(rd, kernel)


@pytest.mark.parametrize("lie_type, n, order", [("gl", 8, 40320), ("D", 6, 23040),
                                                ("B", 6, 46080)])
def test_weyl_order_walks_short_orbits(lie_type, n, order, monkeypatch):
    """|W| of a fresh root datum takes fewer than 2 000 reflections of masks;
    walking the |W| positive systems took 40 320 x 7 on gl8."""
    rd = rootdata.root_datum.__wrapped__(lie_type, n)
    applied = []

    def counted(w, mask):
        applied.append(w)
        return full_weyl_mask(w, mask)

    monkeypatch.setattr(strat, "weyl_mask", counted)
    assert strat.weyl_order(rd) == order
    assert 0 < len(applied) < 2000


# every (type, depth) with at most about 10^5 chains of parabolic subsets
# (D5 has 177 605 at depth 2, gl6 367 927 at depth 3)
CHAIN_CASES = [(label, depth) for label in TYPES for depth in (1, 2, 3)
               if (label, depth) not in {("D5", 2), ("D5", 3), ("gl6", 3)}]


@pytest.mark.parametrize("label, depth", CHAIN_CASES)
def test_chain_count_matches_the_enumeration(label, depth):
    rd = parse_type(label)
    classes = strat.standard_classes(rd, mask_from_indices(rd.positive))
    assert strat.chain_count(classes, depth) == len(
        parab.enumerate_parabolic_filtrations(rd, depth))


@pytest.mark.parametrize("label", TYPES)
def test_height_functional_matches_the_full_group(label):
    """xi on the nilradicals of about 30 parabolic subsets per type (all of
    them where there are fewer)."""
    rd = parse_type(label)
    ps = parab.enumerate_parabolic(rd)
    for m in ps[::max(1, len(ps) // 30)]:
        nu = parab.nilradical_mask(rd, m)
        assert parab.height_functional(rd, nu) == full_height_functional(rd, nu)


@pytest.mark.parametrize("label", TYPES)
def test_classify_unmarked_matches_the_full_group(label):
    """Depth-2 Cartan markings with small entries (so that stabilisers are
    large), their images under seeded Weyl elements, and perturbations."""
    rd = parse_type(label)
    rng = random.Random(13)

    def marking(rows):
        return TcElement(rd, 2, [GElement.cartan_vec(rd, row) for row in rows])

    for _ in range(3):
        rows = [[rng.randint(-1, 1) for _ in range(rd.dim_t)] for _ in range(2)]
        w = rng.choice(rd.weyl)
        image = [w.apply_cartan(row) for row in rows]
        bumped = [list(image[0]), [x + (k == 0) for k, x in enumerate(image[1])]]
        x = marking(rows)
        for y in (marking(image), marking(bumped), marking(rows[::-1])):
            assert classify_unmarked(x, y) == full_classify_unmarked(x, y)
        assert classify_unmarked(x, marking(image))
