"""The benchmark's three workloads: inputs from a seed, one op, exact checks.

Every workload is a fixed list of problems.  ``orbit`` and ``quantize`` fix
the structure of each problem (type, depth, strictness, Levi subset, order)
and draw its rational values from the seed, except for a few expensive
problems whose cost swings with the values: those are drawn once, the same
for every seed.  ``survey`` is the same list for every seed.

Sub-seeds come from ``zlib.crc32`` of a text naming the seed and the
problem, never from ``hash()``, which is randomised per process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import zlib
from fractions import Fraction


def digest(obj):
    """Short sha256 of canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sub_rng(*parts):
    return random.Random(zlib.crc32(":".join(map(str, parts)).encode()))


class Problem:
    """One op's input.  ``spec`` is canonical JSON naming the input exactly."""

    __slots__ = ("label", "spec", "data", "key")

    def __init__(self, label, spec, data):
        self.label = label
        self.spec = spec
        self.data = data
        self.key = digest(spec)


def _words_json(word):
    return [list(letter) for letter in word]


def _frac_json(x):
    return f"{x.numerator}/{x.denominator}"


def _gl_root(rd, i, j):
    """Index of the root e_i - e_j of a gl_n root datum."""
    cov = tuple(Fraction(1 if k == i else (-1 if k == j else 0)) for k in range(rd.dim_t))
    return rd.root_index[cov]


# -- orbit ------------------------------------------------------------------------


class Orbit:
    """Gauged Birkhoff normal forms: one op is birkhoff_normalize + centralizer.

    Each draw follows the recovery recipe of acceptance criterion 06: a normal
    form of constructed strictness s, gauged by exp(ad Y) with Y in eps*g_r.
    The Weyl twist is applied on gl types only, where root vectors permute
    without Chevalley signs, so the constructed s is the true strictness.
    """

    name = "orbit"
    # (lie type, rank, depth r, strictness cycle, ops per pass, drawn from the
    # seed).  gl4 and C3 (the tail) are drawn once, the same for every seed:
    # their cost swings by seconds with the drawn values, so seeding them
    # would swamp the pass time with the seed.
    CLASSES = (("gl", 3, 3, (0, 1, 2, 3), 12, True),
               ("B", 2, 3, (0, 1, 2, 3), 12, True),
               ("gl", 4, 2, (0, 1, 2), 4, False),
               ("C", 3, 2, (0,), 1, False))
    SMOKE = ("gl3 r=3", "B2 r=3")

    def types(self):
        return sorted({(t, n) for t, n, _, _, _, _ in self.CLASSES})

    def generate(self, W, seed):
        problems = []
        for lie_type, n, r, strictness, count, seeded in self.CLASSES:
            rd = W.rootdata.root_datum(lie_type, n)
            levis = [m for m in W.strat.enumerate_levi(rd) if m != 0]
            label = f"{rd.label} r={r}" + ("" if seeded else " fixed")
            for k in range(count):
                # the structure (s, Levi subset) is fixed; the values are drawn
                s = strictness[k % len(strictness)]
                mask = levis[k % len(levis)]
                rng = sub_rng("orbit", seed if seeded else "fixed", rd.label, r, s, k)
                normal0, x = self._draw(W, rd, r, s, mask, rng, twist=lie_type == "gl")
                spec = {"type": rd.label, "r": r, "s": s, "x": x.to_json()}
                problems.append(Problem(label, spec,
                                        {"rd": rd, "s": s, "x": x, "normal0": normal0}))
        sub_rng("orbit", seed, "order").shuffle(problems)
        return problems

    @staticmethod
    def _draw(W, rd, r, s, mask, rng, twist):
        GElement, TcElement = W.elements.GElement, W.elements.TcElement
        strat = W.strat
        full = strat.full_mask(rd)

        def cartan(basis=None):
            if basis is None:
                return GElement.cartan_vec(rd, tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rd.dim_t)))
            coords = [Fraction(0)] * rd.dim_t
            for b in basis:
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                coords = [a + c * v for a, v in zip(coords, b)]
            return GElement.cartan_vec(rd, tuple(coords))

        def levi_element(m):
            g = cartan()
            for i in strat.indices(m):
                g = g + GElement.root_vec(rd, i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            return g

        if s < r:
            # Cartan prefix inside Ker(phi), nilpotent stop from phi itself
            ker = strat.kernel_basis(rd, mask)
            prefix = [cartan(ker) for _ in range(s)]
            common = full
            for g in prefix:
                common &= strat.levi_of_point(rd, g.cartan)
            alpha = rng.choice(strat.indices(mask))
            stop = GElement.root_vec(rd, alpha) + cartan(ker)
            tail = [stop] + [levi_element(common) for _ in range(r - s - 1)]
        else:
            prefix = [cartan() for _ in range(r)]
            tail = []
        normal0 = TcElement(rd, r, prefix + tail)
        gauge = TcElement(rd, r, [GElement.zero(rd)] + [levi_element(full) for _ in range(r - 1)])
        x = W.elements.exp_ad(gauge, normal0)
        if twist:
            w = rng.choice(rd.weyl)
            x = TcElement(rd, r, [_weyl_apply(rd, w, g, GElement) for g in x.coeffs])
        return normal0, x

    def run(self, W, problem):
        x = problem.data["x"]
        return W.orbit.birkhoff_normalize(x), W.orbit.centralizer(x)

    def check(self, W, problem, result):
        nf, rep = result
        d = problem.data
        rd, s = d["rd"], d["s"]
        failed = []
        if nf.strictness != s:
            failed.append(f"strictness {nf.strictness} != constructed {s}")
        if not nf.verify_round_trip():
            failed.append("gauge round trip")
        GElement = W.elements.GElement
        tau = d["normal0"].truncate(s).coeffs
        recovered = nf.irregular_type().coeffs
        if not any(all(_weyl_apply(rd, u, g, GElement) == h for g, h in zip(tau, recovered))
                   for u in rd.weyl):
            failed.append("irregular type differs from the constructed one up to W")
        canonical = {
            "strictness": nf.strictness,
            "normal": nf.normal.to_json(),
            "gauge_log": nf.gauge_log.to_json(),
            "centralizer": {"dim": rep.dim, "marking": rep.marking_s,
                            "predicted": rep.predicted_dim,
                            "basis": [v.to_json() for v in rep.basis]},
        }
        return canonical, failed


def _weyl_apply(rd, w, g, GElement):
    return GElement(rd, w.apply_cartan(g.cartan), {w.perm[i]: c for i, c in g.root.items()})


# -- quantize ------------------------------------------------------------------------


class Quantize:
    """Star products: one op is the inverse Shapovalov series at order N, then
    first_order_check, star_bidiff and associativity_check at N."""

    name = "quantize"
    # (label, ops per pass, order N), drawn from the seed.  One B2 Borel
    # depth-2 problem (dual blocks up to 63 x 63) is added, the same for every
    # seed.  The gl3 chain at N = 4 (about 12 s) is left out: an op that long
    # cannot be repeated within a run, and one unrepeated timing of it swings
    # by 10-15 % on a shared machine.
    STREAM = (("gl3 chain N=3", 2, 3), ("B2 tame N=3", 2, 3), ("sl2 r=3 N=4", 3, 4))
    SMOKE = ("sl2 r=3 N=4", "gl3 chain N=3")

    def types(self):
        return [("gl", 3), ("B", 2), ("sl", 2)]

    def _filtrations(self, W):
        rd_gl3 = W.rootdata.root_datum("gl", 3)
        rd_b2 = W.rootdata.root_datum("B", 2)
        rd_sl2 = W.rootdata.root_datum("sl", 2)
        PF = W.parab.ParabolicFiltration
        m = W.strat.mask_from_indices
        # the depth-2 nongeneric chain of the rank-3 example: Borel+ <= P_12
        psi = m([_gl_root(rd_gl3, 0, 1), _gl_root(rd_gl3, 0, 2), _gl_root(rd_gl3, 1, 2)])
        chain = PF(rd_gl3, [psi, psi | m([_gl_root(rd_gl3, 1, 0)])])
        b2_pos = m(rd_b2.positive)
        sl2_e = m([rd_sl2.root_index[(Fraction(2),)]])
        return {
            "gl3 chain": chain,
            "B2 tame": PF(rd_b2, [b2_pos]),
            "sl2 r=3": PF(rd_sl2, [sl2_e] * 3),
            "B2 borel r=2": PF(rd_b2, [b2_pos] * 2),
        }

    def generate(self, W, seed):
        pfs = self._filtrations(W)
        FormalType = W.parab.FormalType
        problems = []
        for label, count, order in self.STREAM:
            pf = pfs[label.rsplit(" ", 1)[0]]
            space = W.parab.character_space(pf)
            for k in range(count):
                rng = sub_rng("quantize", seed, label, k)
                while True:
                    lams = [[Fraction(0)] * pf.rd.dim_t for _ in range(pf.depth)]
                    for i, v in space:
                        # nonzero coefficients: generic formal types, steadier op cost
                        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                        lams[i] = [a + c * b for a, b in zip(lams[i], v)]
                    ft = FormalType([tuple(lam) for lam in lams])
                    if W.parab.is_admissible(pf, ft) and W.parab.is_nonsingular(pf, ft):
                        break
                problems.append(self._problem(label, pf, ft, order))
        problems.append(self._problem("B2 borel r=2 N=2 fixed", pfs["B2 borel r=2"],
                                      FormalType([(1, 3), (2, 5)]), 2))
        sub_rng("quantize", seed, "order").shuffle(problems)
        return problems

    @staticmethod
    def _problem(label, pf, ft, order):
        spec = {"type": pf.rd.label, "masks": list(pf.masks), "order": order,
                "lambdas": [[_frac_json(Fraction(x)) for x in lam] for lam in ft.lams]}
        return Problem(label, spec, {"pf": pf, "ft": ft, "N": order})

    def run(self, W, problem):
        d = problem.data
        quant = W.quant
        series = quant.inverse_shapovalov_series(d["pf"], d["ft"], d["N"], d["N"])
        poisson = quant.first_order_check(series)
        bid = quant.star_bidiff(series)
        assoc = quant.associativity_check(bid, d["N"])
        return series, poisson, bid, assoc

    def check(self, W, problem, result):
        series, poisson, bid, assoc = result
        failed = []
        if series.terms.get(0) != {((), ()): 1}:
            failed.append("F_0 != 1 (x) 1")
        if not poisson:
            failed.append("first-order (Poisson) check")
        if not assoc:
            failed.append(f"associativity at N={problem.data['N']}")
        canonical = {
            "series": [[h, _words_json(lw), _words_json(rw), _frac_json(c)]
                       for h, lw, rw, c in series.term_items()],
            "bidiff": sorted([h, _words_json(lw), _words_json(rw), _frac_json(c)]
                             for h, d in bid.terms.items() for (lw, rw), c in d.items()),
        }
        return canonical, failed


# -- survey ---------------------------------------------------------------------------


class Survey:
    """CLI invocations in-process through ``wildstrat.cli.main(argv)``.

    The root-datum cache is cleared before each op, so every op pays what a
    fresh CLI process pays.  The list is the same for every seed.
    """

    name = "survey"
    SMOKE = ("character --type gl3", "simplicity --type sl2", "levi --type gl4 --depth 2")

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def types(self):
        return [("gl", 3), ("sl", 2)]

    def generate(self, W, seed):
        gl3 = W.rootdata.root_datum("gl", 3)
        sl2 = W.rootdata.root_datum("sl", 2)
        psi = sorted([_gl_root(gl3, 0, 1), _gl_root(gl3, 0, 2), _gl_root(gl3, 1, 2)])
        configs = {
            "gl3": {"filtration": [psi, sorted(psi + [_gl_root(gl3, 1, 0)])],
                    "formal_type": {"depth": 2, "lambdas": [["1", "2", "4"], ["6", "6", "3"]]}},
            "sl2": {"filtration": [[sl2.root_index[(Fraction(2),)]]] * 2,
                    "formal_type": {"depth": 2, "lambdas": [["5"], ["7"]]}},
        }
        paths = {}
        os.makedirs(self.work_dir, exist_ok=True)
        for name, config in configs.items():
            paths[name] = os.path.join(self.work_dir, f"survey-{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(config, fh, sort_keys=True)
        argvs = [["levi", "--type", t, "--depth", "2"] for t in ("gl4", "B3", "C3")]
        argvs += [["levi", "--type", t, "--depth", "1"] for t in ("gl5", "D4")]
        argvs += [["parabolic", "--type", t, "--depth", "2"] for t in ("gl4", "B3")]
        for cmd in ("shapovalov", "simplicity"):
            argvs.append([cmd, "--type", "gl3", "--depth", "2", "--height", "5", "--config", "gl3"])
            argvs.append([cmd, "--type", "sl2", "--depth", "2", "--height", "8", "--config", "sl2"])
        argvs.append(["character", "--type", "gl3", "--depth", "2", "--config", "gl3"])
        problems = []
        for argv in argvs:
            label = " ".join(argv[:3] if "--config" in argv else argv)
            spec = {"argv": argv, "config": configs.get(argv[-1])}
            real = argv[:-1] + [paths[argv[-1]]] if "--config" in argv else argv
            problems.append(Problem(label, spec, {"argv": real}))
        return problems

    def run(self, W, problem):
        W.rootdata.root_datum.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = W.cli.main(problem.data["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, W, problem, result):
        code, out, err = result
        if code != 0:
            return {"exit": code}, [f"exit code {code}: {err.strip()}"]
        payload = json.loads(out)
        failed = []
        if "filtration_count" in payload and "cardinality_bound" in payload:
            if payload["filtration_count"] > payload["cardinality_bound"]:
                failed.append("filtration_count > cardinality_bound")
        for fact in payload.get("factorisation", []):
            if fact["exact"] is not True:
                failed.append(f"inexact factorisation at weight {fact['weight']}")
        for block in payload.get("blocks", []):
            if (block["radical_dim"] > 0) != (block["determinant"] == "0"):
                failed.append(f"radical/determinant mismatch at weight {block['weight']}")
        return {"exit": code, "stdout": out}, failed
