"""Transport along the low-rank isomorphisms A1 = B1 = C1, B2 = C2 and A3 = D3
(Humphreys, "Introduction to Lie Algebras and Representation Theory", section
11).  Type A and types B, C, D come from two independent builders, so an
invariant that agrees after transport checks both, blind to their sign and
normalisation conventions.  Block entries and series coefficients depend on
how the root vectors are normalised, so none is compared here."""

from itertools import permutations

import pytest

from wildstrat import parab
from wildstrat.linalg import solve, transpose
from wildstrat.rootdata import parse_type
from wildstrat.strat import (LeviFiltration, LeviPoset, indices, mask_from_indices,
                             weyl_orbits_and_quotient)

PAIRS = [("A1", "B1"), ("A1", "C1"), ("B1", "C1"), ("B2", "C2"), ("sl4", "A3"),
         ("sl4", "D3"), ("A3", "D3")]


def simple_coordinates(rd):
    """The coordinates of each root in the simple roots."""
    simple = transpose([rd.roots[a] for a in rd.simple])
    return [tuple(solve(simple, list(root))) for root in rd.roots]


def root_transport(src, dst):
    """phi[i]: the root of dst that root i of src goes to.

    A bijection sigma of the simple roots with dst.cartan_matrix[sigma i][sigma j]
    == src.cartan_matrix[i][j] (the first of at most 4! tries) extends to every
    root through its simple-root coordinates: c goes to c_i at position sigma i."""
    n = len(src.simple)
    assert len(dst.simple) == n
    sigma = next((p for p in permutations(range(n))
                  if all(dst.cartan_matrix[p[i]][p[j]] == src.cartan_matrix[i][j]
                         for i in range(n) for j in range(n))), None)
    assert sigma is not None, f"{src.label} and {dst.label} have no matching Cartan matrices"
    target = {c: k for k, c in enumerate(simple_coordinates(dst))}
    phi = []
    for c in simple_coordinates(src):
        moved = [None] * n
        for i, x in enumerate(c):
            moved[sigma[i]] = x
        phi.append(target[tuple(moved)])
    return phi


def transport_mask(phi, mask):
    """The mask with bit phi[i] for every bit i of mask."""
    return mask_from_indices(phi[i] for i in indices(mask))


def transport_chain(phi, masks):
    return tuple(transport_mask(phi, m) for m in masks)


@pytest.fixture(params=PAIRS, ids="/".join)
def pair(request):
    src, dst = (parse_type(t) for t in request.param)
    return src, dst, root_transport(src, dst)


def test_transport_is_a_root_system_isomorphism(pair):
    """phi is a bijection that commutes with negation and with root sums."""
    src, dst, phi = pair
    assert sorted(phi) == list(range(dst.num_roots))
    assert [phi[src.neg[i]] for i in range(src.num_roots)] == [dst.neg[k] for k in phi]
    assert sorted(phi[a] for a in src.positive) == sorted(dst.positive)
    for i in range(src.num_roots):
        for j in range(src.num_roots):
            k = src.root_sum.get((i, j))
            assert dst.root_sum.get((phi[i], phi[j])) == (None if k is None else phi[k])


def test_transport_maps_levis_covers_and_parabolics(pair):
    src, dst, phi = pair
    sp, dp = LeviPoset(src), LeviPoset(dst)
    moved = {transport_mask(phi, m): m for m in sp.elements}
    assert len(moved) == len(sp.elements) and set(moved) == set(dp.elements)
    assert all(dp.rank[m] == sp.rank[moved[m]] for m in dp.elements)
    assert ({(transport_mask(phi, a), transport_mask(phi, b)) for a, b in sp.covers()}
            == set(dp.covers()))
    src_parabolic, dst_parabolic = parab.enumerate_parabolic(src), parab.enumerate_parabolic(dst)
    assert len(src_parabolic) == len(dst_parabolic)
    assert {transport_mask(phi, m) for m in src_parabolic} == set(dst_parabolic)


def test_transported_strata_keep_their_invariants(pair):
    """Each depth-2 stratum maps onto one stratum, its whole W-orbit onto that
    stratum's orbit, with the same orbit size, setwise, pointwise and out
    orders, and dimension."""
    src, dst, phi = pair
    src_strata, _ = weyl_orbits_and_quotient(src, 2)
    dst_strata, _ = weyl_orbits_and_quotient(dst, 2)
    home = {f.masks: s for s in dst_strata for f in s.orbit}
    hit = []
    for s in src_strata:
        rep = s.orbit[0]
        moved = LeviFiltration(dst, transport_chain(phi, rep.masks))
        t = home[moved.masks]
        hit.append(t)
        assert {transport_chain(phi, f.masks) for f in s.orbit} == {f.masks for f in t.orbit}
        assert (len(s.orbit), s.setwise_order, s.pointwise_order, s.out_order) == (
            len(t.orbit), t.setwise_order, t.pointwise_order, t.out_order)
        assert moved.dimension() == rep.dimension() == t.orbit[0].dimension()
    assert len({id(t) for t in hit}) == len(dst_strata) == len(src_strata)
