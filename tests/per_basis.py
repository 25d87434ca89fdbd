"""The per-basis constructions that `elements` and `orbit` replaced, kept as
oracles: the bases of g and of g_r as elements, and ad_x on g, on g_r and on
Birkhoff's iterated centraliser, each by bracketing x with every basis
element."""

from wildstrat.elements import GElement, TcElement
from wildstrat.linalg import One, Zero, transpose


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
