import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

from wildstrat import strat
from wildstrat.elements import TcElement
from wildstrat.linalg import generic_point, rank as mat_rank
from wildstrat.parab import ParabolicFiltration
from wildstrat.rootdata import parse_type, root_datum
from wildstrat.strat import (LeviFiltration, LeviPoset, cardinality_bound,
                             dual_stratum_of_covector, enumerate_filtrations,
                             enumerate_levi, full_mask, indices, is_levi,
                             kernel_basis, kernel_dim, levi_of_point, levi_witness,
                             mask_from_indices,
                             stratum_contains, stratum_of_tuple, stratum_witness,
                             verify_stratification_axioms,
                             weyl_orbits_and_quotient)
from conftest import gl_root_index


def in_row_span(rows, v):
    """Is v in the Q-span of the given row vectors?"""
    if not rows:
        return all(x == 0 for x in v)
    return mat_rank(rows) == mat_rank(rows + [v])


def test_is_levi_examples(gl3, b2):
    # B2: the subsets of long or of short roots are not Levi
    long_idx = [i for i in range(b2.num_roots) if b2.e_pair[i] != 1]
    short_idx = [i for i in range(b2.num_roots) if b2.e_pair[i] == 1]
    # e_pair distinguishes lengths: short roots pair with constant 2 here
    assert len(long_idx) == 4 and len(short_idx) == 4
    assert not is_levi(b2, mask_from_indices(long_idx))
    assert not is_levi(b2, mask_from_indices(short_idx))
    assert is_levi(gl3, 0)
    pair = mask_from_indices([gl_root_index(gl3, 0, 1), gl_root_index(gl3, 1, 0)])
    assert is_levi(gl3, pair)


def test_three_levi_criteria_agree(gl3, b2):
    """Span closure, witness existence, and point recovery must coincide."""
    for rd in (gl3, b2):
        for mask in enumerate_levi(rd):
            assert is_levi(rd, mask)
            x = levi_witness(rd, mask)
            assert levi_of_point(rd, x) == mask
    # a non-Levi subset of B2 has no witness point
    long_idx = [i for i in range(b2.num_roots) if b2.e_pair[i] != 1]
    with pytest.raises(ValueError):
        levi_witness(b2, mask_from_indices(long_idx))


def test_levi_witness_rejects_one_root_masks_without_a_search():
    """{a} is never Levi: -a vanishes on Ker(a), so generic_point returns None
    and levi_witness raises at once."""
    for lie_type, n in (("gl", 3), ("B", 3), ("D", 4)):
        rd = root_datum(lie_type, n)
        for i in range(rd.num_roots):
            assert generic_point(kernel_basis(rd, 1 << i), [rd.roots[rd.neg[i]]]) is None
            with pytest.raises(ValueError, match="not Levi"):
                levi_witness(rd, 1 << i)


def test_enumerate_levi_counts(sl2, gl3, b2):
    assert len(enumerate_levi(gl3)) == 5
    assert enumerate_levi(sl2) == [0, full_mask(sl2)]
    levis = enumerate_levi(b2)
    assert len(levis) == 6
    # oracle: brute force over all 2^8 subsets testing span closure
    brute = [m for m in range(1 << b2.num_roots) if is_levi(b2, m)]
    assert sorted(brute) == levis


def test_levi_poset_gl3_hasse(gl3):
    poset = LeviPoset(gl3)
    assert len(poset.elements) == 5
    assert sorted(poset.rank.values()) == [1, 2, 2, 2, 3]
    covers = poset.covers()
    assert len(covers) == 6
    # every cover changes the rank by exactly one
    for a, b in covers:
        assert poset.rank[b] - poset.rank[a] == 1
    dot = poset.hasse_dot()
    assert dot.startswith("digraph") and dot.count("->") == 6


def test_levi_poset_sl2_chain(sl2):
    poset = LeviPoset(sl2)
    assert len(poset.elements) == 2
    assert poset.covers() == [(full_mask(sl2), 0)]


def cubic_covers(poset):
    """LeviPoset.covers as the search for pairs with nothing in between: the oracle."""
    out = []
    for a in poset.elements:
        for b in poset.elements:
            if a != b and poset.leq(a, b):
                if not any(c not in (a, b) and poset.leq(a, c) and poset.leq(c, b)
                           for c in poset.elements):
                    out.append((a, b))
    return out


COVER_TYPES = [("gl", 3), ("gl", 4), ("gl", 5), ("gl", 6), ("B", 3), ("B", 4), ("C", 3), ("D", 4)]


@pytest.mark.parametrize("lie_type, n", COVER_TYPES, ids=[f"{t}{n}" for t, n in COVER_TYPES])
def test_graded_covers_match_the_cubic_search(lie_type, n):
    poset = LeviPoset(root_datum(lie_type, n))
    assert poset.covers() == cubic_covers(poset)


def all_pairs_covers(poset):
    """LeviPoset.covers as the scan of every pair of elements: the oracle for
    its list and order (hasse_dot prints them in this order)."""
    return [(a, b) for a in poset.elements for b in poset.elements
            if poset.rank[b] == poset.rank[a] + 1 and poset.leq(a, b)]


ALL_PAIRS_TYPES = [("gl", 2), ("gl", 3), ("gl", 4), ("gl", 5), ("gl", 6),
                   ("B", 3), ("C", 3), ("D", 4)]


@pytest.mark.parametrize("lie_type, n", ALL_PAIRS_TYPES,
                         ids=[f"{t}{n}" for t, n in ALL_PAIRS_TYPES])
def test_rank_bucketed_covers_match_the_all_pairs_scan(lie_type, n):
    poset = LeviPoset(root_datum(lie_type, n))
    assert poset.covers() == all_pairs_covers(poset)


def test_gl4_rank_function_surjective(gl4=None):
    gl4 = root_datum("gl", 4)
    poset = LeviPoset(gl4)
    # oracle: kernel dims via rank-nullity on the root covector matrix
    assert set(poset.rank.values()) == {1, 2, 3, 4}
    for m in poset.elements:
        rows = [list(gl4.roots[i]) for i in indices(m)]
        assert poset.rank[m] == gl4.dim_t - (mat_rank(rows) if rows else 0)


def test_levi_of_point(sl2, gl3):
    assert levi_of_point(sl2, (1,)) == 0
    assert levi_of_point(sl2, (0,)) == full_mask(sl2)
    got = levi_of_point(gl3, (1, 1, 0))
    expected = mask_from_indices([gl_root_index(gl3, 0, 1), gl_root_index(gl3, 1, 0)])
    assert got == expected


def test_stratum_of_tuple(sl2, gl3):
    # sl2, (H, 0): the filtration (empty, Phi), i.e. t_reg x {0}
    f = stratum_of_tuple(sl2, [(1,), (0,)])
    assert f.masks == (0, full_mask(sl2))
    # all-zero tuple: the constant filtration Phi
    f0 = stratum_of_tuple(gl3, [(0, 0, 0)] * 3)
    assert f0.masks == (full_mask(gl3),) * 3
    # gl3: kernel-intersection oracle.  The tuple (diag(1,2,3), diag(1,1,0))
    # has phi_0 = phi_{X_0} cap phi_{X_1} = empty and phi_1 = phi_{X_1} = {a12, a21}
    f2 = stratum_of_tuple(gl3, [(1, 2, 3), (1, 1, 0)])
    pair = mask_from_indices([gl_root_index(gl3, 0, 1), gl_root_index(gl3, 1, 0)])
    assert f2.masks == (0, pair)
    assert stratum_contains(f2, [(1, 2, 3), (1, 1, 0)])
    assert not stratum_contains(f2, [(1, 1, 0), (1, 2, 3)])


def test_stratum_weyl_equivariance(gl3):
    rng = random.Random(17)
    for _ in range(5):
        xs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)]
        f = stratum_of_tuple(gl3, xs)
        for w in gl3.weyl:
            fw = stratum_of_tuple(gl3, [w.apply_cartan(x) for x in xs])
            assert fw == f.weyl_image(w)


def test_enumerate_filtrations(sl2, gl3):
    for s in range(1, 7):
        assert len(enumerate_filtrations(sl2, s)) == s + 1
    filts = enumerate_filtrations(gl3, 2)
    # oracle: filter all 5^2 ordered pairs for the chain condition
    levis = enumerate_levi(gl3)
    pairs = [(a, b) for a in levis for b in levis if (a | b) == b]
    assert len(filts) == len(pairs)
    constant = LeviFiltration(gl3, [full_mask(gl3)] * 2)
    assert constant in filts


def test_cardinality_bound(sl2, gl2, sl3, gl3, b2):
    for rd in (sl2, gl2, sl3, gl3, b2):
        for s in (1, 2, 3):
            assert len(enumerate_filtrations(rd, s)) <= cardinality_bound(rd, s)


def test_level_profile(sl2):
    f = LeviFiltration(sl2, [0, 0, full_mask(sl2)])
    assert f.levels() == (2, 2)
    assert f.dimension() == 2  # Ker(empty) twice, Ker(Phi) = 0


def test_quotient_gl3_tame(gl3):
    strata, leq = weyl_orbits_and_quotient(gl3, 1)
    assert len(strata) == 3
    by_size = sorted((len(s.orbit), s.out_order) for s in strata)
    # minimal stratum Phi: orbit size 1, Out trivial; middle: 3 strata, Out
    # trivial; regular: orbit size 1, Out = W
    assert by_size == [(1, 1), (1, 6), (3, 1)]
    # quotient poset is the chain Phi-bar < phi-bar < empty-bar
    order = sorted(range(3), key=lambda i: strata[i].orbit[0].dimension())
    assert leq(order[0], order[1]) and leq(order[1], order[2])
    assert not leq(order[2], order[0])


def test_quotient_sl2_depth2(sl2):
    # W = Z/2 fixes each of the three depth-2 filtrations: 3 orbits
    strata, _ = weyl_orbits_and_quotient(sl2, 2)
    assert len(strata) == 3
    assert all(len(s.orbit) == 1 for s in strata)
    # oracle: the nontrivial reflection fixes every filtration termwise
    w = next(w for w in sl2.weyl if w.perm != tuple(range(sl2.num_roots)))
    for f in enumerate_filtrations(sl2, 2):
        assert f.weyl_image(w) == f


def test_dual_strata(sl2, gl3):
    # sl2 r=1, lambda(H) = 0: the constant dual filtration
    assert dual_stratum_of_covector(sl2, [(0,)]).masks == (full_mask(sl2),)
    # sl2 r=2, lambda = (3, 1): nowhere vanishing, the dense dual stratum
    assert dual_stratum_of_covector(sl2, [(3,), (1,)]).masks == (0, 0)
    # gl3 r=2 with lt1 != lt2 and l1 != l2: dual filtration (empty, {a12-pair})
    lam0 = (1, 2, 4)       # pairs with coroots: distinct entries
    lam1 = (6, 6, 3)
    f = dual_stratum_of_covector(gl3, [lam0, lam1])
    pair = mask_from_indices([gl_root_index(gl3, 0, 1), gl_root_index(gl3, 1, 0)])
    assert f.masks == (0, pair)


def test_dual_matches_primal_under_musical_map(gl3):
    """alpha -> alpha^v preserves the stratification combinatorics: pairing a
    Cartan tuple against roots or its gram-image against coroots agree."""
    rng = random.Random(29)
    for _ in range(5):
        xs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(2)]
        lams = [tuple(sum(gl3.gram[a][t] * x[a] for a in range(3)) for t in range(3))
                for x in xs]
        primal = stratum_of_tuple(gl3, xs)
        dual = dual_stratum_of_covector(gl3, lams)
        assert primal.masks == dual.masks


def test_axioms(sl2, gl3):
    assert verify_stratification_axioms(gl3, enumerate_filtrations(gl3, 1))["ok"]
    fs = enumerate_filtrations(sl2, 3)
    assert verify_stratification_axioms(sl2, fs)["ok"]
    bad = verify_stratification_axioms(sl2, fs[:-1])
    assert not bad["ok"] and bad["violations"]


def test_span_closure_properties_hypothesis(gl3):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 6) - 1))
    def check(mask):
        closed = strat.span_closure(gl3, mask)
        assert strat.is_levi(gl3, closed)
        assert strat.span_closure(gl3, closed) == closed
        assert mask & ~closed == 0

    check()


def test_stratum_contains_its_tuple_hypothesis(gl3):
    from hypothesis import given, settings
    from hypothesis import strategies as st
    coords = st.tuples(*[st.integers(-3, 3)] * 3)

    @settings(max_examples=40, deadline=None)
    @given(coords, coords)
    def check(x0, x1):
        xs = [tuple(Fraction(v) for v in x0), tuple(Fraction(v) for v in x1)]
        filt = stratum_of_tuple(gl3, xs)
        assert stratum_contains(filt, xs)
        others = [f for f in enumerate_filtrations(gl3, 2)
                  if f != filt and stratum_contains(f, xs)]
        assert not others

    check()


def test_quotient_poset_is_partial_order(gl3):
    strata, leq = weyl_orbits_and_quotient(gl3, 2)
    n = len(strata)
    for i in range(n):
        assert leq(i, i)
        for j in range(n):
            if i != j:
                assert not (leq(i, j) and leq(j, i))
            for k in range(n):
                if leq(i, j) and leq(j, k):
                    assert leq(i, k)


def test_levi_counts_are_bell_numbers():
    """Levi subsystems of gl_n biject with set partitions of {1..n}."""
    from wildstrat.rootdata import root_datum
    bell = {2: 2, 3: 5, 4: 15, 5: 52}
    for n, b in bell.items():
        assert len(enumerate_levi(root_datum("gl", n))) == b


def _span_closure_oracle(vectors, mask):
    """One rank comparison per vector: the closure as the definition states it."""
    rows = [list(vectors[i]) for i in indices(mask)]
    return mask_from_indices(i for i, v in enumerate(vectors) if in_row_span(rows, list(v)))


@pytest.mark.parametrize("label", ["gl1", "gl2", "gl3", "gl4", "gl5", "sl2", "sl3", "B2",
                                   "B3", "C2", "C3", "D3", "D4"])
def test_span_closure_matches_rank_oracle(label):
    """Root and coroot span closures on every subset of the simple roots and on
    seeded random masks."""
    rd = parse_type(label)
    simple = rd.simple
    masks = [mask_from_indices(a for k, a in enumerate(simple) if (bits >> k) & 1)
             for bits in range(1 << len(simple))]
    rng = random.Random(41)
    masks += [rng.getrandbits(rd.num_roots) for _ in range(8)]
    for mask in masks:
        assert strat.span_closure(rd, mask) == _span_closure_oracle(rd.roots, mask)
        assert strat.coroot_span_closure(rd, mask) == _span_closure_oracle(rd.coroots, mask)


def _fixes_all(w, points):
    return all(w.apply_cartan(x) == tuple(x) for x in points)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("label", ["gl3", "gl4", "B2", "B3", "C3", "D4"])
def test_weyl_fixed_points_match_matrix_action(label, depth):
    """Setwise and pointwise stabiliser orders of every stratum representative,
    and the stabiliser order of its witness, against the full list of W
    acting by permutations of the roots and by matrices on t."""
    rd = parse_type(label)
    strata, _ = weyl_orbits_and_quotient(rd, depth)
    for s in strata:
        rep = s.orbit[0]
        kernel = [v for m in rep.masks for v in kernel_basis(rd, m)]
        setwise = [w for w in rd.weyl if rep.weyl_image(w) == rep]
        pointwise = [w for w in rd.weyl if _fixes_all(w, kernel)]
        fixing = [w for w in rd.weyl if _fixes_all(w, stratum_witness(rep))]
        assert (s.setwise_order, s.pointwise_order) == (len(setwise), len(pointwise))
        assert s.out_order == len(setwise) // len(pointwise)
        # Out acts freely on the witness: exactly the pointwise stabiliser fixes it
        assert {w.perm for w in fixing} == {w.perm for w in pointwise}


def test_out_freeness_violation_names_the_filtration(gl3, monkeypatch):
    """A witness fixed by more than the pointwise stabiliser (here the zero
    tuple, fixed by all of W) raises, naming the representative."""
    monkeypatch.setattr(strat, "stratum_witness",
                        lambda filt: tuple((0,) * filt.rd.dim_t for _ in filt.masks))
    with pytest.raises(strat.ClaimViolation,
                       match=r"witness of LeviFiltration\(.*: 6 Weyl elements fix it"):
        weyl_orbits_and_quotient(gl3, 1)


@pytest.mark.parametrize("label, order", [("gl3", 6), ("B2", 8)])
def test_depth_zero_is_one_stratum_fixed_by_w(label, order):
    """At depth 0 the one (empty) filtration is fixed by W setwise and pointwise."""
    strata, _ = weyl_orbits_and_quotient(parse_type(label), 0)
    assert [(s.setwise_order, s.pointwise_order, s.out_order) for s in strata] == [
        (order, order, 1)]


def test_reflection_orders_kept_per_root_datum():
    """|W(phi)| is memoised per root datum and freed with it."""
    rd = root_datum.__wrapped__("gl", 3)
    levi = strat.span_closure(rd, mask_from_indices([gl_root_index(rd, 0, 1)]))
    assert strat.reflection_order(rd, levi) == 2
    assert strat.reflection_order(rd, 0) == 1 and strat.weyl_order(rd) == 6
    ref = weakref.ref(rd)
    del rd
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("build, named", [
    (lambda rd: ParabolicFiltration(rd, [-1]), "mask -1"),
    (lambda rd: ParabolicFiltration(rd, [1 << 2]), "mask 4"),
    (lambda rd: LeviFiltration(rd, [1 << 2]), "mask 4"),
    (lambda rd: LeviFiltration(rd, [0, -2]), "mask -2"),
    (lambda rd: LeviFiltration(rd, ["1"]), "mask '1'"),
    (lambda rd: TcElement(rd, 1, [1]), "coefficient 0 (1)"),
], ids=["parabolic-negative", "parabolic-bit-past-roots", "levi-bit-past-roots",
        "levi-negative", "levi-not-int", "tc-not-gelement"])
def test_constructors_reject_bad_masks_and_coefficients(sl2, build, named):
    """A mask that is not a set of roots (sl2 has 2) and a coefficient that is
    not an element of g each raise a ValueError naming it."""
    with pytest.raises(ValueError, match=re.escape(named)):
        build(sl2)


def test_kernel_basis_kept_per_root_datum():
    """One immutable kernel basis per (root datum, mask), freed with the datum."""
    rd = root_datum.__wrapped__("gl", 3)
    mask = mask_from_indices([gl_root_index(rd, 0, 1)])
    basis = kernel_basis(rd, mask)
    assert kernel_basis(rd, mask) is basis
    assert isinstance(basis, tuple) and all(isinstance(v, tuple) for v in basis)
    assert len(basis) == 2 and all(rd.pair(gl_root_index(rd, 0, 1), v) == 0 for v in basis)
    ref = weakref.ref(rd)
    del rd
    gc.collect()
    assert ref() is None
