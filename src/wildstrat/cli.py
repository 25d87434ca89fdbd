"""Command-line interface.

Subcommands: levi, parabolic, classify, character, shapovalov, simplicity,
quantize.  All numeric inputs are exact rationals ("p/q" strings or ints);
floats are rejected.  Outputs are deterministic JSON (and DOT for Hasse
diagrams).  Exit codes: 0 success, 2 validation error, 3 claim violation
(a verified statement of the theory failed on data - should never happen).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .linalg import frac, frac_str
from .rootdata import RootDatumError, parse_type
from .elements import GElement, TcElement
from . import strat, parab, orbit, singmod, quant
from .parab import (ClaimViolation, FormalType, InadmissibleCharacter,
                    ParabolicFiltration, SingularCharacterError)
from .singmod import FactorisationError, SingularityModule


class ValidationError(ValueError):
    pass


def _to_frac(x, field):
    if isinstance(x, (bool, float)):
        raise ValidationError(f"{field}: {x!r} is not an exact rational")
    try:
        return frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def _rationals(row, field):
    """A JSON list of rationals (a string is not read digit by digit)."""
    if not isinstance(row, list):
        raise ValidationError(f"{field}: a list of rationals is required, got {row!r}")
    return [_to_frac(x, field) for x in row]


def _load_config(path):
    with open(path) as fh:
        data = json.load(fh, parse_float=_reject_float)
    if not isinstance(data, dict):
        raise ValidationError("config: the top-level JSON value must be an object")
    return data


def _reject_float(s):
    raise ValidationError(f"floats are not accepted in config files: {s}")


def _emit(args, payload, suffix=""):
    _emit_text(args, json.dumps(payload, indent=2, sort_keys=True), suffix)


def _emit_text(args, text, suffix):
    out = getattr(args, "out", None)
    if out:
        with open(out + suffix, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- shared parsing ------------------------------------------------------------


def _root_datum(args):
    try:
        return parse_type(args.type)
    except RootDatumError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_filtration(rd, spec, depth):
    """spec: list of root-index lists, or the preset 'borel'."""
    if depth is not None and (type(depth) is not int or depth < 0):
        raise ValidationError("depth: must be a nonnegative integer")
    if spec == "borel" or spec is None:
        if depth is None:
            raise ValidationError("depth: required when no filtration is given")
        masks = [strat.mask_from_indices(rd.positive)] * depth
    else:
        if not isinstance(spec, list) or not all(isinstance(x, list) for x in spec):
            raise ValidationError("filtration must be a list of root-index lists")
        for i in (i for ix in spec for i in ix):
            if type(i) is not int or not 0 <= i < rd.num_roots:
                raise ValidationError(f"filtration: root index {i!r} is not an integer "
                                      f"in 0..{rd.num_roots - 1}")
        masks = [strat.mask_from_indices(ix) for ix in spec]
        if depth and len(masks) != depth:
            raise ValidationError("filtration length does not match the depth")
    try:
        return ParabolicFiltration(rd, masks)
    except ValueError as exc:
        raise ValidationError(f"filtration: {exc}") from exc


def _parse_formal_type(rd, data, depth):
    if not isinstance(data, dict):
        raise ValidationError("formal_type: an object is required")
    lams = data.get("lambdas", [])
    if not isinstance(lams, list):
        raise ValidationError("formal_type.lambdas: a list of lists of rationals is required")
    lams = [_rationals(lam, "formal_type.lambdas") for lam in lams]
    given = data.get("depth", len(lams))
    if type(given) is not int or given != len(lams):
        raise ValidationError(f"formal_type.depth: {given!r} is not the number of lambdas "
                              f"({len(lams)})")
    for lam in lams:
        if len(lam) != rd.dim_t:
            raise ValidationError(f"formal_type.lambdas: each entry needs {rd.dim_t} "
                                  f"values, one per Cartan coordinate")
    if depth and len(lams) != depth:
        raise ValidationError("formal_type.lambdas: the formal type depth does not match "
                              "the filtration depth")
    try:
        return FormalType(lams)
    except ValueError as exc:
        raise ValidationError(f"formal_type.{exc}") from exc


def _parse_element(rd, data):
    field = "coeffs" if isinstance(data, dict) and "coeffs" in data else "tuple"
    try:
        if field == "coeffs":
            if type(data["depth"]) is not int:
                raise ValidationError(f"depth: the element depth must be an integer, "
                                      f"got {data['depth']!r}")
            for entry in data["coeffs"]:
                _rationals(entry.get("cartan", []), "coeffs.cartan")
                _rationals(list(entry.get("roots", {}).values()), "coeffs.roots")
            x = TcElement.from_json(rd, data)
        else:
            rows = data["tuple"]
            x = TcElement(rd, len(rows), [GElement.cartan_vec(rd, _rationals(row, "tuple"))
                                          for row in rows])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ValidationError(f"{field}: bad element spec: {exc}") from exc
    if x.depth < 1:
        raise ValidationError(f"{field}: the element has depth {x.depth}, at least 1 is needed")
    return x


# -- subcommands -----------------------------------------------------------------


def cmd_levi(args):
    rd = _root_datum(args)
    poset = strat.LeviPoset(rd)
    payload = {
        "type": rd.label,
        "nodes": len(poset.elements),
        "ranks": sorted(poset.rank.values()),
        "covers": len(poset.covers()),
    }
    if args.depth:
        strata, _ = strat.weyl_orbits_and_quotient(rd, args.depth)
        payload["depth"] = args.depth
        payload["filtration_count"] = sum(len(s.orbit) for s in strata)
        payload["cardinality_bound"] = strat.cardinality_bound(rd, args.depth)
        payload["strata"] = [{
            "filtration": [sorted(strat.indices(m)) for m in s.orbit[0].masks],
            "dimension": s.orbit[0].dimension(),
            "orbit_size": len(s.orbit),
            "stabilizer_order": s.setwise_order,
            "out_order": s.out_order,
        } for s in strata]
    _emit(args, payload, ".json")
    if args.dot or args.out:
        _emit_text(args, poset.hasse_dot(), ".dot")
    return 0


def cmd_parabolic(args):
    rd = _root_datum(args)
    parab.enumerate_parabolic(rd)  # verifies every member
    classes = strat.standard_classes(rd, strat.mask_from_indices(rd.positive))
    payload = {
        "type": rd.label,
        "parabolic_subsets": sum(map(len, classes)),
        "weyl_classes": len(classes),
    }
    if args.depth:
        payload["depth"] = args.depth
        payload["filtration_count"] = strat.chain_count(classes, args.depth)
    _emit(args, payload)
    return 0


def cmd_classify(args):
    rd = _root_datum(args)
    config = _load_config(args.config) if args.config else {}
    data = config.get("element", config)
    if not isinstance(data, dict):
        raise ValidationError(f"element: an object is required, got {data!r}")
    x = _parse_element(rd, data)
    nf = orbit.birkhoff_normalize(x)
    rep = orbit.centralizer(x)
    payload = {
        "input": x.to_json(),
        "depth": x.depth,
        "strictness": nf.strictness,
        "normal_form": nf.normal.to_json(),
        "gauge_log": nf.gauge_log.to_json(),
        "centralizer": {
            "dim": rep.dim,
            "basis": [v.to_json() for v in rep.basis],
            "predicted_dim": rep.predicted_dim,
        },
        "marking_index": rep.marking_s,
        "filtration": ([sorted(strat.indices(m)) for m in rep.filtration.masks]
                       if rep.filtration else None),
        "conventions": {
            "filtration": "orbit side: phi_i collects roots vanishing on "
                          "X_0..X_{s-1-i}",
            "stratum_filtration": "stratification side: phi_i collects roots "
                                  "vanishing on X_j for j >= i (tuples are "
                                  "related by the swap X_i = A_{r-i})",
        },
    }
    if all(g.is_cartan() for g in x.coeffs):
        filt = strat.stratum_of_tuple(rd, [g.cartan for g in x.coeffs])
        payload["stratum_filtration"] = [sorted(strat.indices(m)) for m in filt.masks]
    _emit(args, payload)
    return 0


def cmd_character(args):
    rd = _root_datum(args)
    config = _load_config(args.config) if args.config else {}
    depth = args.depth or config.get("depth")
    pf = _parse_filtration(rd, config.get("filtration"), depth)
    payload = {
        "type": rd.label,
        "depth": pf.depth,
        "character_space_dim": parab.character_space_dim(pf),
        "balanced": pf.is_balanced(),
    }
    if config.get("formal_type"):
        ft = _parse_formal_type(rd, config["formal_type"], pf.depth)
        payload["admissible"] = parab.is_admissible(pf, ft)
        if payload["admissible"]:
            payload["nonsingular"] = parab.is_nonsingular(pf, ft)
    _emit(args, payload)
    return 0


def _module_inputs(args):
    """(rd, pf, ft) from --type, --depth and the config's filtration and formal type."""
    rd = _root_datum(args)
    config = _load_config(args.config) if args.config else {}
    pf = _parse_filtration(rd, config.get("filtration"), args.depth or config.get("depth"))
    return rd, pf, _parse_formal_type(rd, config.get("formal_type"), pf.depth)


def cmd_shapovalov(args):
    rd, pf, ft = _module_inputs(args)
    mod = SingularityModule(pf, ft)
    weights = mod.weights_up_to(args.height)
    blocks = []
    for mu in [(0,) * rd.dim_t] + weights:  # weight zero: the line through the cyclic vector
        blk = mod.shapovalov_block(mu)
        rank = blk.rank()
        blocks.append({
            "weight": [frac_str(x) for x in mu],
            "dim": blk.dim(),
            "rank": rank,
            "radical_dim": blk.dim() - rank,
            "determinant": frac_str(blk.determinant()) if blk.dim() else "1",
            "matrix": [[frac_str(v) for v in row] for row in blk.matrix],
        })
    payload = {
        "type": rd.label,
        "depth": pf.depth,
        "height": args.height,
        "blocks": blocks,
        "first_singular_weight": next((b["weight"] for b in blocks if b["radical_dim"]), None),
    }
    if parab.is_nonsingular(pf, ft):
        dil = SingularityModule(pf, ft, dilated=True)
        facts = []
        for mu in weights:
            blk = dil.dual_block(mu)
            lengths, d, parts, xs = singmod.factor_rows(blk)
            if not singmod.reassemble(parts, xs):
                raise ClaimViolation("factorisation does not reproduce the block")
            facts.append({
                "weight": [frac_str(x) for x in mu],
                "diagonal": [f"{v}*c^{l}" if l > 1 else f"{v}*c" if l else str(v)
                             for v, l in zip(d, lengths)],
                "exact": True,
            })
        payload["factorisation"] = facts
    _emit(args, payload)
    if args.out:
        # CSV determinant table for Kac-Kazhdan-style inspection
        lines = ["weight,dim,rank,radical_dim,determinant"]
        for b in blocks:
            lines.append('"%s",%d,%d,%d,%s' % (
                " ".join(b["weight"]), b["dim"], b["rank"], b["radical_dim"],
                b["determinant"]))
        _emit_text(args, "\n".join(lines), ".csv")
    return 0


def cmd_simplicity(args):
    rd, pf, ft = _module_inputs(args)
    probe = singmod.conjecture_probe(pf, ft, args.height)
    _emit(args, {"type": rd.label, "height": args.height, **probe})
    return 0


def cmd_quantize(args):
    rd, pf, ft = _module_inputs(args)
    series = quant.inverse_shapovalov_series(pf, ft, args.height, args.order)
    poisson_ok = quant.first_order_check(series) if series.order >= 1 else None
    bid = quant.star_bidiff(series)
    assoc_ok, left, right = quant.associativity_check(bid, args.order, return_sides=True)
    payload = {
        "type": rd.label,
        "depth": pf.depth,
        "order": args.order,
        "height": args.height,
        "poisson_check": poisson_ok,
        "associativity": assoc_ok,
        "terms": [
            {"hdeg": h, "weight": _left_weight(rd, lw), "left": _word_json(lw),
             "right": _word_json(rw), "coeff": frac_str(c)}
            for h, lw, rw, c in series.term_items()
        ],
    }
    if not assoc_ok:
        payload["first_difference"] = repr(quant.first_difference(left, right))
    _emit(args, payload)
    return 0


def _word_json(word):
    return [[k, i, d] for (k, i, d) in word]


def _left_weight(rd, word):
    """Weight of a u^- monomial word: the positive combination it lowers by."""
    tot = [Fraction(0)] * rd.dim_t
    for kind, b, _ in word:
        if kind == "E":
            tot = [x - y for x, y in zip(tot, rd.roots[b])]
    return [frac_str(x) for x in tot]


# -- entry point -------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="wildstrat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order=False):
        sp.add_argument("--type", required=True, help="Lie type label, e.g. gl3, sl2, B2")
        sp.add_argument("--depth", type=int, default=0)
        sp.add_argument("--height", "-K", dest="height", type=int, default=4)
        if order:
            sp.add_argument("--order", "-N", dest="order", type=int, default=2)
        sp.add_argument("--config", help="JSON config file (rationals as 'p/q' strings)")
        sp.add_argument("--out", help="output path prefix")

    sp = sub.add_parser("levi", help="Levi poset and filtration counts")
    common(sp)
    sp.add_argument("--dot", action="store_true", help="print the Hasse diagram as DOT")
    sp.set_defaults(func=cmd_levi)

    sp = sub.add_parser("parabolic", help="parabolic subsets and filtrations")
    common(sp)
    sp.set_defaults(func=cmd_parabolic)

    sp = sub.add_parser("classify", help="Birkhoff normal form and centraliser")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("character", help="character spaces and admissibility")
    common(sp)
    sp.set_defaults(func=cmd_character)

    sp = sub.add_parser("shapovalov", help="Shapovalov blocks, ranks, factorisation")
    common(sp)
    sp.set_defaults(func=cmd_shapovalov)

    sp = sub.add_parser("simplicity", help="simplicity conjecture probe")
    common(sp)
    sp.set_defaults(func=cmd_simplicity)

    sp = sub.add_parser("quantize", help="inverse Shapovalov series and star product")
    common(sp, order=True)
    sp.set_defaults(func=cmd_quantize)
    return p


def main(argv=None):
    # exact answers may run past CPython's int-to-str digit limit; lift it for
    # this call only, so that in-process callers keep their own setting
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for field in ("depth", "height", "order"):
            if getattr(args, field, 0) < 0:
                raise ValidationError(f"--{field} must be nonnegative")
        return args.func(args)
    except (ValidationError, InadmissibleCharacter, SingularCharacterError,
            quant.UnbalancedFiltration, quant.TruncationError, RootDatumError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClaimViolation, FactorisationError) as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
