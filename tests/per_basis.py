"""The constructions that `elements` and `orbit` replaced, kept as oracles:
the bases of g and of g_r as elements; ad_x on g, on g_r and on Birkhoff's
iterated centraliser, each by bracketing x with every basis element; and the
Birkhoff step that read coordinates off an echelon form of the sub-basis and
split off the kernel of ad together with an image basis."""

from wildstrat.elements import GElement, NotSemisimpleError, TcElement, exp_ad, is_semisimple
from wildstrat.linalg import (One, Zero, identity, mat_mul, mat_vec, nullspace, rank, rref,
                              solve, transpose)


def g_basis(rd):
    """The basis of g as elements: the Cartan basis, then the root vectors."""
    for t in range(rd.dim_t):
        yield GElement(rd, cartan=tuple(One if k == t else Zero for k in range(rd.dim_t)))
    for i in range(rd.num_roots):
        yield GElement.root_vec(rd, i)


def tc_basis(rd, depth):
    """The basis of g_r as elements: the basis of g at each epsilon degree."""
    for d in range(depth):
        for g in g_basis(rd):
            yield TcElement.pure(rd, depth, d, g)


def oracle_ad_matrix(x):
    """Matrix of ad_x on g, one bracket per basis element of g."""
    return transpose([x.bracket(b).coords() for b in g_basis(x.rd)])


def oracle_ad_operator(x):
    """Matrix of ad_x on g_r, one bracket per basis element of g_r."""
    basis_elems = list(tc_basis(x.rd, x.depth))
    cols = [x.bracket(b).coords() for b in basis_elems]
    return transpose(cols)


def oracle_restricted_ad(xs, sub_basis, coords):
    """Birkhoff's ad_{X_s} on span(sub_basis), one bracket per vector of sub_basis."""
    rd = xs.rd
    return transpose([coords(xs.bracket(GElement.from_coords(rd, b)).coords())
                      for b in sub_basis])


def oracle_coordinate_reader(sub_basis):
    """Coordinates on sub_basis of a vector of its span, from one echelon form
    [R | E] of [sub_basis | I], R = E sub_basis: a span vector v is
    sum_i v[piv_i] R_i, so E^T v[piv] are its coordinates."""
    dim = len(sub_basis[0])
    red, piv = rref([b + e for b, e in zip(sub_basis, identity(len(sub_basis)))])
    to_sub = transpose([row[dim:] for row in red])
    return lambda v: mat_vec(to_sub, [v[p] for p in piv])


def oracle_semisimple_split(f, space_basis):
    """(Ker f, f(V)) for f on V = span(space_basis), in the coordinates of V:
    the kernel from f, the image as the row space of f^T, and a rank check
    that the two span V."""
    ker = nullspace(f, cols=len(space_basis))
    tr_red, tr_piv = rref(transpose(f))
    img = [tr_red[k] for k in range(len(tr_piv))]
    if rank(ker + img) != len(space_basis):
        raise NotSemisimpleError("kernel and image do not span: operator not semisimple")
    cols = transpose(space_basis)
    return [mat_vec(cols, v) for v in ker], [mat_vec(cols, v) for v in img]


def oracle_birkhoff_steps(x):
    """The Birkhoff loop on the echelon reader and the kernel/image split.

    Returns (steps, normal): per step s a dict with X_s, the sub-basis, its
    coordinate reader, ad_{X_s} on the sub-basis, the kernel coordinates and
    the deeper coefficient vectors as the step read them; and the normal form.
    """
    rd, r = x.rd, x.depth
    cur, steps = x, []
    sub_basis = identity(rd.dim_g)
    for s in range(r):
        xs = cur.coeffs[s]
        if not is_semisimple(xs):
            break
        coords = oracle_coordinate_reader(sub_basis)
        cols = transpose(sub_basis)
        full = xs.ad_matrix()
        ad = transpose([coords(col) for col in transpose(mat_mul(full, cols))])
        sq = mat_mul(ad, ad)
        ker, _ = oracle_semisimple_split(ad, sub_basis)
        step = {"xs": xs, "sub_basis": sub_basis, "coords": coords, "ad": ad,
                "kernel": nullspace(ad, cols=len(sub_basis)), "vectors": []}
        for k in range(s + 1, r):
            v = cur.coeffs[k].coords()
            step["vectors"].append(v)
            c = coords(v)
            z = solve(sq, mat_vec(ad, c))
            if all(a == 0 for a in mat_vec(ad, z)):
                continue
            gauge = TcElement.pure(rd, r, k - s, GElement.from_coords(rd, mat_vec(cols, z)))
            cur = exp_ad(gauge, cur)
        steps.append(step)
        sub_basis = ker
    return steps, cur
