import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from wildstrat.linalg import acc, dot, frac_str, mat_mul, nullspace
from wildstrat.rootdata import (RootDatum, RootDatumError, all_letters, letter_bracket,
                                parse_type, root_datum)
from conftest import gl_root_index


def _commutator(a, b):
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def test_root_counts(sl2, gl2, sl3, gl3, b2):
    assert sl2.num_roots == 2 and gl2.num_roots == 2
    assert sl3.num_roots == 6 and gl3.num_roots == 6
    assert b2.num_roots == 8
    assert len(gl3.center_basis()) == 1 and len(sl3.center_basis()) == 0


def test_coroot_normalization(gl3, b2):
    for rd in (gl3, b2):
        for i in range(rd.num_roots):
            assert rd.pair(i, rd.coroots[i]) == 2
            for j in range(rd.num_roots):
                assert rd.cartan_integer(i, j).denominator == 1


def test_negation_involution(b2):
    for i in range(b2.num_roots):
        assert b2.neg[b2.neg[i]] == i
        assert b2.roots[b2.neg[i]] == tuple(-x for x in b2.roots[i])


def test_gl3_bracket_matches_matrix_commutator(gl3):
    # [E_12, E_23] = E_13 in the defining representation
    i12 = gl_root_index(gl3, 0, 1)
    i23 = gl_root_index(gl3, 1, 2)
    i13 = gl_root_index(gl3, 0, 2)
    assert gl3.root_sum[(i12, i23)] == i13
    assert gl3.nsc[(i12, i23)] == 1
    m = _commutator(gl3.defining_matrix(gl3.dim_t + i12), gl3.defining_matrix(gl3.dim_t + i23))
    assert m == gl3.defining_matrix(gl3.dim_t + i13)


def test_structure_constants_vs_defining_rep(gl3, b2):
    """Every table entry reproduces the honest matrix commutator."""
    for rd in (gl3, b2, root_datum("C", 3), root_datum("D", 4)):
        for (i, j), n in rd.nsc.items():
            k = rd.root_sum[(i, j)]
            lhs = _commutator(rd.defining_matrix(rd.dim_t + i), rd.defining_matrix(rd.dim_t + j))
            rhs = [[n * x for x in row] for row in rd.defining_matrix(rd.dim_t + k)]
            assert lhs == rhs


# every supported type up to rank 4
TABLE_TYPES = ["gl1", "gl2", "gl3", "gl4", "sl2", "sl3", "sl4", "A1", "A2", "A3", "A4",
               "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4", "D2", "D3", "D4"]


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_tables_match_dense_commutators(label):
    """coroots, root_sum and nsc against dense commutators of the defining matrices:
    [E_a, E_-a] = sum_t a^v_t H_t, and [E_a, E_b] = N(a,b) E_{a+b}, or 0 when a+b
    is no root (then N is absent)."""
    rd = parse_type(label)
    mats = [rd.defining_matrix(rd.dim_t + i) for i in range(rd.num_roots)]
    hs = [rd.defining_matrix(t) for t in range(rd.dim_t)]
    size = len(hs[0])
    zero = [[Fraction(0)] * size for _ in range(size)]
    for i in range(rd.num_roots):
        co = rd.coroots[i]
        h = [[sum((c * m[r][q] for c, m in zip(co, hs)), Fraction(0)) for q in range(size)]
             for r in range(size)]
        assert _commutator(mats[i], mats[rd.neg[i]]) == h
        for j in range(rd.num_roots):
            k = rd.root_index.get(tuple(a + b for a, b in zip(rd.roots[i], rd.roots[j])))
            assert rd.root_sum[(i, j)] == k
            if j == rd.neg[i]:
                assert (i, j) not in rd.nsc
                continue
            br = _commutator(mats[i], mats[j])
            if k is None:
                assert (i, j) not in rd.nsc and br == zero
            else:
                assert br == [[rd.nsc[(i, j)] * x for x in row] for row in mats[k]]


# sha256 of _realisation_dump, recorded before the B, C and D builders were merged
CLASSICAL_DIGESTS = {
    ("B", 2): "dbde65affc1ddd1d4a93bfd732fe6f4609d73a2052fb57e9a1e8d1a88f39c5f4",
    ("B", 3): "f9d31567d10f52032b5d3a0be83100bb3c06361d5855a8585b2b63f85293c769",
    ("B", 4): "7c47e280bd7fab12dd7d9e9a806ebf34e2be5a342b514d9922fb27a3aac7e661",
    ("C", 2): "f619930b34af86cca9de94c18410e52489f4fb80c84d32696bc6a9fc453b7bf3",
    ("C", 3): "d4107f7c0889a2a1c91920111a7f4814943f3e5d3f00517307af38a382070c39",
    ("C", 4): "fcf57426f55c8dc1bbfccf30ecd7e0ac8a8a7d10a3b0d05179663d61ffd58c0e",
    ("D", 3): "74450d8a23f551e3ada450f4084ea61440e7270a0a7fe6ec5a78b823702bbeef",
    ("D", 4): "9ad00c0f5a94d5f7f06a83fb687b7523416cbfef06925642127a832888bf721a",
    ("D", 5): "7e4c765281311fe0a37988070fe0f9975df68828709696d71d4cfe5462044b70",
}


def _realisation_dump(rd):
    """Everything a realisation determines: serialization, coroots, every
    defining matrix, the invariant form, the base and the Weyl permutations."""
    fs = lambda xs: [frac_str(x) for x in xs]  # noqa: E731
    return {"json": rd.to_json(), "coroots": [fs(c) for c in rd.coroots],
            "mats": [[fs(r) for r in rd.defining_matrix(k)] for k in range(rd.dim_g)],
            "e_pair": fs(rd.e_pair), "gram": [fs(r) for r in rd.gram],
            "simple": list(rd.simple), "positive": list(rd.positive),
            "weyl": [list(w.perm) for w in rd.weyl]}


@pytest.mark.parametrize("lie_type, n", list(CLASSICAL_DIGESTS),
                         ids=[f"{t}{n}" for t, n in CLASSICAL_DIGESTS])
def test_classical_realisations_pinned(lie_type, n):
    dump = json.dumps(_realisation_dump(root_datum(lie_type, n)), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == CLASSICAL_DIGESTS[(lie_type, n)]


def test_chevalley_root_strings(b2):
    """|N(a,b)| = p + 1 where p is the length of the descending root string."""
    for (i, j), n in b2.nsc.items():
        p = 0
        cur = b2.roots[j]
        while True:
            cur = tuple(a - x for a, x in zip(cur, b2.roots[i]))
            if cur in b2.root_index:
                p += 1
            else:
                break
        assert abs(n) == p + 1
    assert any(abs(n) == 2 for n in b2.nsc.values())


def test_transpose_sign_rule(gl3, b2):
    for rd in (gl3, b2):
        for (i, j), n in rd.nsc.items():
            assert rd.nsc[(rd.neg[i], rd.neg[j])] == -n


def test_weyl_group_orders(sl2, gl3, b2, sl4):
    assert len(sl2.weyl) == 2
    assert len(gl3.weyl) == 6
    assert len(b2.weyl) == 8
    assert len(sl4.weyl) == 24


def test_weyl_perm_matches_matrix_action(gl3, b2):
    for rd in (gl3, b2):
        for w in rd.weyl:
            for i in range(rd.num_roots):
                # pairing is preserved: <w(a) | w(H)> = <a | H>
                img = w.perm[i]
                h = rd.coroots[i]
                wh = w.apply_cartan(h)
                for j in range(rd.num_roots):
                    assert rd.pair(w.perm[j], wh) == rd.pair(j, h)
                assert tuple(wh) == rd.coroots[img]


def test_simple_roots_form_base(gl3):
    assert len(gl3.simple) == 2
    cm = gl3.cartan_matrix
    assert cm[0][0] == 2 and cm[1][1] == 2
    assert cm[0][1] in (-1,) and cm[1][0] in (-1,)


def test_serialization_shape(gl3):
    data = gl3.to_json()
    assert data["type"] == "gl" and data["rank"] == 3
    assert len(data["roots"]) == 6
    assert json.dumps(data, sort_keys=True)  # serializable
    parsed = {tuple(int(x) for x in k.split(",")): v
              for k, v in data["structure_constants"].items()}
    assert parsed  # nonempty table


def test_parse_type():
    assert parse_type("gl3").label == "gl3"
    assert parse_type("A2").num_roots == 6
    with pytest.raises(RootDatumError):
        parse_type("E8x")
    with pytest.raises(RootDatumError):
        root_datum("Z", 2)


def test_gl1_has_the_plain_trace_form():
    """GL_1 has no roots: the invariant form is the trace form on t, unscaled."""
    gl1 = root_datum("gl", 1)
    assert gl1.num_roots == 0 and gl1.simple == () and len(gl1.weyl) == 1
    assert gl1.gram == [[1]] and gl1.e_pair == ()
    assert gl1.center_basis() == [[1]]


@pytest.mark.parametrize("label", ["gl2", "gl3", "gl4", "sl3", "B2"])
def test_center_basis_is_the_root_nullspace_once(label):
    rd = parse_type(label)
    center = rd.center_basis()
    assert center == nullspace([list(r) for r in rd.roots], cols=rd.dim_t)
    assert rd.center_basis() is center
    assert len(center) == (1 if label.startswith("gl") else 0)


def _unit(i, j, c=1):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    m[i][j] = Fraction(c)
    return m


def _plus(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _direct_sum(a, b):
    """a + b in gl3 + gl3, block diagonal in gl6."""
    zero = [Fraction(0)] * 3
    return [ra + zero for ra in a] + [zero + rb for rb in b]


_ZERO = _unit(0, 0, 0)


def _gl3_realisation(tamper=None, doubled=False):
    """The gl3 realisation as RootDatum arguments: Cartan matrices E_ii and root
    matrices E_ij (i != j), each X as X + X in gl3 + gl3 when doubled.

    tamper maps "ij" to the matrix that replaces the root matrix of E_ij, or to
    None, which drops it.
    """
    lift = (lambda m: _direct_sum(m, m)) if doubled else (lambda m: m)
    tamper = tamper or {}
    root_mats = [tamper.get(f"{i}{j}", lift(_unit(i, j)))
                 for i in range(3) for j in range(3) if i != j]
    return {"t_mats": [lift(_unit(i, i)) for i in range(3)],
            "root_mats": [m for m in root_mats if m is not None]}


@pytest.mark.parametrize("tamper, doubled, message", [
    # [E_01 + E_01, E_10 + 0] = (E_00 - E_11) + 0 is no diagonal copy H + H
    ({"10": _direct_sum(_unit(1, 0), _ZERO)}, True, "not in the Cartan subalgebra"),
    # without +-(e0 - e2): [E_01, E_12] = E_02 but e0 - e2 is no root
    ({"02": None, "20": None}, False, "bracket escapes the root decomposition"),
    # [E_01 + E_01, E_12 + E_12] = E_02 + E_02 is no multiple of E_02 + 2 E_02
    ({"02": _direct_sum(_unit(0, 2), _unit(0, 2, 2)),
      "20": _direct_sum(_unit(2, 0), _unit(2, 0, Fraction(1, 2)))},
     True, "bracket not a multiple of a single root vector"),
    # [E_00, E_10 + E_00] = -E_10 is no multiple of E_10 + E_00: no root to read off
    ({"10": _plus(_unit(1, 0), _unit(0, 0))}, False, "not an eigenvector"),
], ids=["coroot", "escapes", "not-a-multiple", "eigenvector"])
def test_tampered_realisation_rejected(tamper, doubled, message):
    with pytest.raises(RootDatumError, match=message):
        RootDatum("gl", 3, **_gl3_realisation(tamper, doubled))


def test_tampered_structure_constants_fail_jacobi():
    """Flipping N(a,b) and N(-a,-b) keeps every Chevalley check but breaks Jacobi."""
    rd = RootDatum("gl", 3, **_gl3_realisation())
    i12, i23 = gl_root_index(rd, 0, 1), gl_root_index(rd, 1, 2)
    for i, j in ((i12, i23), (rd.neg[i12], rd.neg[i23])):
        rd.nsc[(i, j)] = -rd.nsc[(i, j)]
    rd._verify_chevalley()
    with pytest.raises(RootDatumError, match="Jacobi"):
        rd.verify()


# every type from rank 1 or 2 up to the ranks the survey and the tests use
INTEGRAL_TYPES = ([f"gl{n}" for n in range(1, 7)] + [f"sl{n}" for n in range(2, 6)]
                  + [f"A{n}" for n in range(1, 5)] + [f"B{n}" for n in range(2, 5)]
                  + [f"C{n}" for n in range(2, 5)] + [f"D{n}" for n in range(2, 6)])


@pytest.mark.parametrize("label", INTEGRAL_TYPES)
def test_root_data_are_ints(label):
    """Roots, coroots, N(a,b), the Cartan matrix and the realisation matrices
    are Python ints, not integer-valued Fractions."""
    rd = parse_type(label)
    assert all(type(r) is tuple for r in rd.roots + tuple(rd.coroots))
    assert all(type(x) is int for r in rd.roots for x in r)
    assert all(type(x) is int for r in rd.coroots for x in r)
    assert all(type(n) is int for n in rd.nsc.values())
    assert all(type(x) is int for row in rd.cartan_matrix for x in row)
    assert all(type(x) is int for k in range(rd.dim_g) for row in rd.defining_matrix(k)
               for x in row)


def test_root_index_hits_fraction_keys(gl3, b2):
    for rd in (gl3, b2):
        for i, r in enumerate(rd.roots):
            assert rd.root_index[tuple(Fraction(x) for x in r)] == i


def test_dot_of_int_vectors_is_an_int(b2):
    assert type(dot((1, -2, 3), (4, 5, -6))) is int
    assert dot((1, 0), (0, 1)) == 0 and type(dot((1, 0), (0, 1))) is int
    assert all(type(b2.pair(i, b2.coroots[j])) is int
               for i in range(b2.num_roots) for j in range(b2.num_roots))
    assert dot((Fraction(1, 2), 1), (1, 1)) == Fraction(3, 2)


@pytest.mark.parametrize("scale, name", [(Fraction(1, 2), "root 0"), (2, "coroot 0")],
                         ids=["half-cartan", "double-cartan"])
def test_non_integral_realisation_names_the_root(scale, name):
    """With H_t = E_tt / 2 the roots are (1/2, -1/2, 0), ...; with H_t = 2 E_tt
    the roots are integral but [E_01, E_10] = (H_0 - H_1) / 2."""
    realisation = _gl3_realisation()
    realisation["t_mats"] = [_unit(i, i, scale) for i in range(3)]
    with pytest.raises(RootDatumError, match=re.escape(name) + " of gl3 is not integral"):
        RootDatum("gl", 3, **realisation)


def _jacobi_failures(rd):
    """The Jacobi check over every basis triple a < b < c, unfiltered: the
    oracle.  Returns the triples with a nonzero total, and asserts that no
    triple whose weight sum is neither 0 nor a root has a term at all."""
    basis = all_letters(rd, 1)
    zero = (0,) * rd.dim_t
    weights = [zero] * rd.dim_t + list(rd.roots)
    failures = []
    for a, b, c in itertools.combinations(range(rd.dim_g), 3):
        total = {}
        terms = 0
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for co, w in letter_bracket(rd, 1, basis[x], basis[y]):
                for co2, v in letter_bracket(rd, 1, w, basis[z]):
                    acc(total, v, co * co2)
                    terms += 1
        weight = tuple(map(sum, zip(weights[a], weights[b], weights[c])))
        if weight != zero and weight not in rd.root_index:
            assert terms == 0, (a, b, c)
        if total:
            failures.append((a, b, c))
    return failures


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "gl5"])
def test_weight_filtered_jacobi_agrees_with_all_triples(label):
    rd = parse_type(label)
    assert _jacobi_failures(rd) == []
    rd._verify_jacobi()


def test_tampered_jacobi_fails_on_the_oracle_first_triple():
    """On the tampered gl3 table both checks raise, at the same first triple."""
    rd = RootDatum("gl", 3, **_gl3_realisation())
    i12, i23 = gl_root_index(rd, 0, 1), gl_root_index(rd, 1, 2)
    for i, j in ((i12, i23), (rd.neg[i12], rd.neg[i23])):
        rd.nsc[(i, j)] = -rd.nsc[(i, j)]
    failures = _jacobi_failures(rd)
    assert failures
    with pytest.raises(RootDatumError, match=re.escape(f"basis triple {failures[0]}")):
        rd._verify_jacobi()
