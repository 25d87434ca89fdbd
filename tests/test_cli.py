import hashlib
import json
import math
import sys

import pytest

from wildstrat import orbit, parab, singmod, strat
from wildstrat.cli import main
from wildstrat.rootdata import parse_type
from test_singmod import bump_first_numerator


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_levi_gl3(capsys):
    code, out, _ = run_cli(capsys, "levi", "--type", "gl3")
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == 5


def test_levi_sl2_depth(capsys):
    code, out, _ = run_cli(capsys, "levi", "--type", "sl2", "--depth", "3")
    assert code == 0
    assert json.loads(out)["filtration_count"] == 4


def test_levi_b2(capsys):
    code, out, _ = run_cli(capsys, "levi", "--type", "B2")
    assert code == 0
    assert json.loads(out)["nodes"] == 6


def test_levi_gl1(capsys):
    """GL_1 has no roots: one Levi (itself) and one stratum of dimension r."""
    code, out, err = run_cli(capsys, "levi", "--type", "gl1", "--depth", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["nodes"] == 1 and data["covers"] == 0 and data["filtration_count"] == 1
    assert [s["dimension"] for s in data["strata"]] == [2]


def test_levi_dot_output(tmp_path, capsys):
    out_prefix = str(tmp_path / "levi_gl3")
    code, _, _ = run_cli(capsys, "levi", "--type", "gl3", "--out", out_prefix)
    assert code == 0
    dot = (tmp_path / "levi_gl3.dot").read_text()
    assert dot.startswith("digraph") and dot.count("->") == 6


def test_levi_dot_builds_the_covers_once(tmp_path, capsys, monkeypatch):
    """levi --out counts the covers and draws them from one build of them."""
    calls = []
    leq = strat.LeviPoset.leq

    def counted(self, a, b):
        calls.append((a, b))
        return leq(self, a, b)

    monkeypatch.setattr(strat.LeviPoset, "leq", counted)
    code, _, _ = run_cli(capsys, "levi", "--type", "gl4", "--out", str(tmp_path / "levi_gl4"))
    assert code == 0
    built = len(calls)
    calls.clear()
    strat.LeviPoset(parse_type("gl4")).covers()
    assert built == len(calls) > 0


def levi_invariants(capsys, type_, depth):
    """The levi payload up to labels: counts, ranks, and the sorted
    (dimension, orbit_size, stabilizer_order, out_order) of the strata."""
    code, out, _ = run_cli(capsys, "levi", "--type", type_, "--depth", str(depth))
    assert code == 0
    data = json.loads(out)
    keep = {k: data[k] for k in ("nodes", "ranks", "covers", "filtration_count",
                                 "cardinality_bound")}
    keep["strata"] = sorted((s["dimension"], s["orbit_size"], s["stabilizer_order"],
                             s["out_order"]) for s in data["strata"])
    return keep


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("types", [("B2", "C2"), ("sl4", "A3", "D3")], ids="/".join)
def test_levi_agrees_across_low_rank_isomorphisms(capsys, types, depth):
    """B2 = C2 and A3 = D3, built by different builders, give the same levi
    payload up to labels."""
    want = levi_invariants(capsys, types[0], depth)
    for t in types[1:]:
        assert levi_invariants(capsys, t, depth) == want, t


@pytest.mark.parametrize("depth", [1, 2])
def test_levi_gl4_is_sl4_plus_its_centre(capsys, depth):
    """gl4 matches sl4, except that its centre adds 1 to every rank and one
    dimension per epsilon degree to every stratum."""
    sl4 = levi_invariants(capsys, "sl4", depth)
    gl4 = levi_invariants(capsys, "gl4", depth)
    sl4["ranks"] = [r + 1 for r in sl4["ranks"]]
    sl4["strata"] = [(dim + depth, *rest) for dim, *rest in sl4["strata"]]
    assert gl4 == sl4


def partitions(n, largest=None):
    """The partitions of n as nonincreasing tuples."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in partitions(n - k, k)]


@pytest.mark.parametrize("n, bell", [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877),
                                     (8, 4140)])
def test_levi_gl_matches_partition_formulas(capsys, n, bell):
    """gl_n without listing W: the Levi subsystems are the set partitions of
    {1..n} (Bell many), and the depth-1 strata are the partitions lambda of n.
    With m_k parts of size k, the setwise stabiliser of a Levi of type lambda
    is prod k!^{m_k} m_k! (W_lambda, then the permutations of equal blocks),
    Out is prod m_k!, the orbit has n!/setwise elements, and the kernel (the
    block-scalar diagonals) has one dimension per part."""
    code, out, _ = run_cli(capsys, "levi", "--type", f"gl{n}", "--depth", "1")
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == bell
    expected = []
    for lam in partitions(n):
        parts = {k: lam.count(k) for k in lam}
        out_order = math.prod(math.factorial(m) for m in parts.values())
        setwise = out_order * math.prod(math.factorial(k) ** m for k, m in parts.items())
        expected.append((math.factorial(n) // setwise, setwise, out_order, len(lam)))
    got = [(s["orbit_size"], s["stabilizer_order"], s["out_order"], s["dimension"])
           for s in data["strata"]]
    assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("types", [("B2", "C2"), ("sl4", "gl4", "A3", "D3")], ids="/".join)
def test_parabolic_agrees_across_low_rank_isomorphisms(capsys, types):
    payloads = []
    for t in types:
        code, out, _ = run_cli(capsys, "parabolic", "--type", t, "--depth", "2")
        assert code == 0
        data = json.loads(out)
        assert data.pop("type") == t
        payloads.append(data)
    assert all(p == payloads[0] for p in payloads), payloads


def test_parabolic_gl3(capsys):
    code, out, _ = run_cli(capsys, "parabolic", "--type", "gl3")
    assert code == 0
    data = json.loads(out)
    assert data["parabolic_subsets"] == 13 and data["weyl_classes"] == 4


def test_classify(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"element": {"tuple": [["1"], ["0"]]}}))
    code, out, _ = run_cli(capsys, "classify", "--type", "sl2", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["strictness"] == 2
    assert data["filtration"] == [[], []]
    # the stratification-side filtration of (H, 0) is (empty, Phi)
    assert data["stratum_filtration"] == [[], [0, 1]]
    assert data["centralizer"]["dim"] == 2
    # zero input: the minimal stratum (everything in every Levi)
    cfg.write_text(json.dumps({"element": {"tuple": [["0"], ["0"]]}}))
    code, out, _ = run_cli(capsys, "classify", "--type", "sl2", "--config", str(cfg))
    data = json.loads(out)
    assert data["filtration"] == [[0, 1], [0, 1]]


def test_classify_gauge_round_trip(tmp_path, capsys):
    """A gauged fixture reports the same invariants as the fixture."""
    cfg = tmp_path / "c.json"
    element = {"depth": 2, "coeffs": [
        {"cartan": ["1"], "roots": {}},
        {"cartan": ["0"], "roots": {"0": "3/2"}},
    ]}
    cfg.write_text(json.dumps({"element": element}))
    code, out, _ = run_cli(capsys, "classify", "--type", "sl2", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["strictness"] == 2
    assert data["normal_form"]["coeffs"][0]["cartan"] == ["1"]


def test_shapovalov_first_singular(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 1, "lambdas": [["2"]]},
    }))
    code, out, _ = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "1",
                           "--height", "4", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["first_singular_weight"] == ["6"]  # weight 3 alpha
    assert all("matrix" in b for b in data["blocks"])
    assert all(f["exact"] for f in data["factorisation"])


def test_shapovalov_height_zero(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 1, "lambdas": [["2"]]},
    }))
    code, out, _ = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "1",
                           "--height", "0", "--config", str(cfg))
    assert code == 0
    # K = 0: the single 1x1 block [1] through the cyclic vector
    blocks = json.loads(out)["blocks"]
    assert len(blocks) == 1 and blocks[0]["matrix"] == [["1"]]


def test_quantize(tmp_path, capsys):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 1, "lambdas": [["3"]]},
    }))
    code, out, _ = run_cli(capsys, "quantize", "--type", "sl2", "--depth", "1",
                           "--order", "2", "--height", "2", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["poisson_check"] is True and data["associativity"] is True
    assert data["terms"][0]["hdeg"] == 0


@pytest.mark.parametrize("order, poisson", [("0", None), ("1", True)])
def test_quantize_poisson_check_needs_order_one(tmp_path, capsys, order, poisson):
    """At --order 0 the series has no hbar^1 term: the flag is null, not false."""
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({"formal_type": {"lambdas": [["1", "2", "3"]]}}))
    code, out, err = run_cli(capsys, "quantize", "--type", "gl3", "--depth", "1",
                             "--order", order, "--height", order, "--config", str(cfg))
    assert code == 0 and err == ""
    assert json.loads(out)["poisson_check"] is poisson


def test_quantize_singular_rejected(tmp_path, capsys):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 2, "lambdas": [["3"], ["0"]]},
    }))
    code, _, err = run_cli(capsys, "quantize", "--type", "sl2", "--depth", "2",
                           "--config", str(cfg))
    assert code == 2 and "singular" in err


def test_simplicity(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 1, "lambdas": [["1/2"]]},
    }))
    code, out, _ = run_cli(capsys, "simplicity", "--type", "sl2", "--depth", "1",
                           "--height", "4", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["observed_simple_up_to_K"] is True


def test_validation_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "levi", "--type", "nosuch")
    assert code == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 1, "lambdas": [[0.5]]},
    }))
    code, _, err = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "1",
                           "--config", str(cfg))
    assert code == 2
    # floats are rejected even as JSON numbers
    cfg.write_text('{"formal_type": {"depth": 1, "lambdas": [[0.5]]}}')
    code, _, err = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "1",
                           "--config", str(cfg))
    assert code == 2


def test_inadmissible_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({
        "filtration": [[0], [0, 1]],
        "formal_type": {"depth": 2, "lambdas": [["1"], ["1"]]},
    }))
    code, _, err = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "2",
                           "--config", str(cfg))
    assert code == 2


def test_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({
        "filtration": "borel",
        "formal_type": {"depth": 2, "lambdas": [["5"], ["7"]]},
    }))
    args = ("quantize", "--type", "sl2", "--depth", "2", "--order", "2",
            "--height", "2", "--config", str(cfg))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# sha256 of stdout on the survey configs (the depth-2 nongeneric gl3 chain of
# the README and the depth-2 sl2 Borel case), on four classify inputs and
# on three survey levi/parabolic invocations; any change to these bytes is an
# output change, not a refactor
GOLDEN = {
    "gl3": ({"filtration": [[0, 1, 3], [0, 1, 2, 3]],
             "formal_type": {"depth": 2, "lambdas": [["1", "2", "4"], ["6", "6", "3"]]}},
            ("quantize", "--type", "gl3", "--depth", "2", "--order", "2", "--height", "2"),
            "82ecd15d7f82b2adec6c6d984cc67d9fa536c806ea235e365f86bb8a3ceda555"),
    "sl2": ({"filtration": [[0], [0]],
             "formal_type": {"depth": 2, "lambdas": [["5"], ["7"]]}},
            ("shapovalov", "--type", "sl2", "--depth", "2", "--height", "8"),
            "8b7d12ab33f2beaa6c5cd4ff00b6209f7c96a098e436635463469e48a1c0f595"),
    # gauged depth-3 elements whose Birkhoff normalisation records nonzero gauge
    # factors: these pin gauge_log and normal_form byte for byte
    "classify-gl3": ({"element": {"depth": 3, "coeffs": [
        {"cartan": ["1", "1", "3"], "roots": {}},
        {"cartan": ["0", "2", "-1"], "roots": {"1": "2", "2": "-1/3", "4": "1", "5": "3/2"}},
        {"cartan": ["1/2", "0", "0"], "roots": {"0": "-1", "3": "2/5", "5": "1"}}]}},
        ("classify", "--type", "gl3"),
        "e0e58f487ef732494a6794c2ee38d8cd37883c11aa8c398ea3c05016a6d0b474"),
    "classify-B2": ({"element": {"depth": 3, "coeffs": [
        {"cartan": ["1", "0"], "roots": {}},
        {"cartan": ["-1", "2"], "roots": {"0": "1", "2": "-2", "5": "1/3", "7": "1"}},
        {"cartan": ["0", "1/3"], "roots": {"3": "1", "6": "-1/2"}}]}},
        ("classify", "--type", "B2"),
        "b9e7a4fbea5c5ad15fe66c16a84374c97b3bf8318145dd2a30de0195a5f6ab9f"),
    # a depth-2 C3 marking (s = 1 = r - 1) with mixed denominators: the
    # structural comparison runs on the 42 x 42 operator of ad_x on g_r
    "classify-C3": ({"element": {"depth": 2, "coeffs": [
        {"cartan": ["1", "1", "0"], "roots": {}},
        {"cartan": ["1/2", "-3", "2/5"], "roots": {"0": "3/4", "2": "-2", "16": "5/3", "17": "1/6"}}]}},
        ("classify", "--type", "C3"),
        "f4b9991403d04fad3d607551ca8a5d0bbb5b5c8f7ba8aaf71525c023751b247f"),
    # a depth-4 D4 element of strictness 4: three cleaning steps, so the
    # coordinates of each iterated centraliser compose across steps
    "classify-D4": ({"element": {"depth": 4, "coeffs": [
        {"cartan": ["1", "1", "0", "0"]},
        {"cartan": ["0", "2", "-1", "1/2"], "roots": {"0": "1", "3": "-2/3", "12": "1/2"}},
        {"cartan": ["1/3", "0", "0", "1"], "roots": {"1": "2", "5": "-1", "20": "3/4"}},
        {"cartan": ["0", "0", "1", "0"], "roots": {"2": "1", "7": "1/5"}}]}},
        ("classify", "--type", "D4"),
        "dd1a4ed8015064b6629e397bb7960d0190bcb5ff9ef0484b3c500dee1560b1e2"),
    # a 40-step chain of one-dimensional blocks, each built from the one below
    "sl2-height-40": ({"formal_type": {"lambdas": [["1/3"]]}},
                      ("shapovalov", "--type", "sl2", "--depth", "1", "--height", "40"),
                      "b8c38f976fbad83ad2e06dd2e0e1d554c34bce4282c243be3802a500bc01bc88"),
    # stratum reports and parabolic counts of the survey (levi and parabolic
    # take no config; the empty one is ignored)
    "levi-B3-depth-2": ({}, ("levi", "--type", "B3", "--depth", "2"),
                        "76657cdce05731fcb9f08f901beff1dd1d2c169456cbfdf17e8e7d48b03e2c17"),
    "levi-D4-depth-1": ({}, ("levi", "--type", "D4", "--depth", "1"),
                        "27716d0fc79d84d97d90ccd08a5254a4112feb3637f7ae9b0fe389c73480eb6d"),
    "parabolic-B3-depth-2": ({}, ("parabolic", "--type", "B3", "--depth", "2"),
                             "265c774b9e2ae98cad45d74eabfeef22df9e78c451e032594b1246d82cb89cbb"),
    "levi-C3-depth-2": ({}, ("levi", "--type", "C3", "--depth", "2"),
                        "3986a9123cf8e3b94066b891acf7a24ffa014edc1d13b812447cf92a3f8739ba"),
    "levi-gl4-depth-2": ({}, ("levi", "--type", "gl4", "--depth", "2"),
                         "06da2dd762c02b4f8accef7d0c7646988232da814af3cccdb2746e03b5dab02d"),
    "parabolic-gl4-depth-2": ({}, ("parabolic", "--type", "gl4", "--depth", "2"),
                              "3a3122585c852d01e88239b2ba9a5492b2c9321e60cd69c182609b1bb42745ff"),
}


def _float_in_payload(s):
    raise AssertionError(f"float {s} in a payload: every number must be exact")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stdout(tmp_path, capsys, name):
    config, argv, digest = GOLDEN[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    json.loads(out, parse_float=_float_in_payload)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("config, argv, field", [
    (None, ("levi", "--type", "gl2", "--depth", "-1"), "depth"),
    (None, ("quantize", "--type", "sl2", "--depth", "1", "--order", "-1"), "order"),
    ([{"tuple": [["1"], ["0"]]}], ("classify", "--type", "sl2"), "config"),
    (None, ("shapovalov", "--type", "sl2", "--depth", "0"), "depth"),
    ({"formal_type": [["1"]]}, ("shapovalov", "--type", "sl2", "--depth", "1"), "formal_type"),
    ({"depth": 1, "filtration": [[7]], "formal_type": {"lambdas": [["1"]]}},
     ("shapovalov", "--type", "sl2"), "filtration"),
    ({"depth": 1, "filtration": [[-1]], "formal_type": {"lambdas": [["1"]]}},
     ("quantize", "--type", "sl2"), "filtration"),
    ({"depth": 1, "filtration": [["a"]], "formal_type": {"lambdas": [["1"]]}},
     ("shapovalov", "--type", "sl2"), "filtration"),
    ({"tuple": [["1", "2", "3"]]}, ("classify", "--type", "sl2"), "tuple"),
    ({"depth": 1, "coeffs": [{"cartan": ["1", "2", "3"]}]}, ("classify", "--type", "sl2"),
     "coeffs"),
    ({"depth": 1, "coeffs": [{"cartan": ["1"], "roots": {"9": "1"}}]},
     ("classify", "--type", "sl2"), "coeffs"),
    ({"formal_type": {"lambdas": [["1/0"]]}},
     ("shapovalov", "--type", "sl2", "--depth", "1", "--height", "2"), "formal_type"),
    ({"depth": 1, "coeffs": [{"cartan": ["1"], "roots": {"0": "1/0"}}]},
     ("classify", "--type", "sl2"), "coeffs"),
    ({"tuple": [["1/0"]]}, ("classify", "--type", "sl2"), "tuple"),
    ({"tuple": []}, ("classify", "--type", "sl2"), "depth"),
    ({"depth": 0, "coeffs": []}, ("classify", "--type", "sl2"), "depth"),
    ({"depth": 1, "coeffs": "ab"}, ("classify", "--type", "sl2"), "coeffs"),
    ({"formal_type": {"lambdas": [1]}}, ("shapovalov", "--type", "sl2", "--depth", "1"),
     "formal_type.lambdas"),
    ({"filtration": [[0], []], "formal_type": {"lambdas": [["1"], ["1"]]}},
     ("character", "--type", "sl2", "--depth", "2"), "filtration:"),
    # a string row is not read digit by digit, and JSON booleans are not rationals
    ({"tuple": ["123"]}, ("classify", "--type", "gl3"), "tuple"),
    ({"depth": 1, "coeffs": [{"cartan": "123"}]}, ("classify", "--type", "gl3"),
     "coeffs.cartan"),
    ({"tuple": [[True, "0", "1"]]}, ("classify", "--type", "gl3"), "tuple"),
    ({"depth": 1, "coeffs": [{"cartan": [False, "1", "2"]}]}, ("classify", "--type", "gl3"),
     "coeffs.cartan"),
    ({"depth": 1, "coeffs": [{"cartan": ["1", "0", "0"], "roots": {"0": True}}]},
     ("classify", "--type", "gl3"), "coeffs.roots"),
    ({"depth": True, "coeffs": [{"cartan": ["1", "2", "3"]}]}, ("classify", "--type", "gl3"),
     "depth"),
    ({"filtration": "borel", "formal_type": {"lambdas": [[True, 1, 1]]}},
     ("character", "--type", "gl3", "--depth", "1"), "formal_type.lambdas"),
    ({"filtration": "borel", "formal_type": {"lambdas": [[1, 1, 1]], "depth": 5}},
     ("character", "--type", "gl3", "--depth", "1"), "formal_type.depth"),
    ({"filtration": "borel", "formal_type": {"lambdas": [[1, 2, 3]], "depth": True}},
     ("character", "--type", "gl3", "--depth", "1"), "formal_type.depth"),
    # a present element is read, never passed over for the top-level keys
    ({"element": 0, "tuple": [["1"]]}, ("classify", "--type", "sl2"), "element"),
    # a depth-0 chain has no formal type: one covector at least is required
    ({"depth": 0, "filtration": "borel", "formal_type": {"lambdas": []}},
     ("shapovalov", "--type", "sl2"), "formal_type.lambdas"),
], ids=["negative-depth", "negative-order", "array-config", "no-depth-no-filtration",
        "array-formal-type", "filtration-index-range", "filtration-index-negative",
        "filtration-index-type", "tuple-width", "coeffs-width", "coeffs-root-range",
        "lambda-zero-denominator", "coeffs-zero-denominator", "tuple-zero-denominator",
        "tuple-depth-0", "coeffs-depth-0", "coeffs-string", "lambda-not-a-list",
        "filtration-not-a-chain", "tuple-string-row", "coeffs-string-cartan", "tuple-bool",
        "coeffs-bool-cartan", "coeffs-bool-root", "coeffs-bool-depth", "lambda-bool",
        "formal-type-depth", "formal-type-depth-bool", "element-not-an-object",
        "formal-type-depth-0"])
def test_input_errors_exit_2(tmp_path, capsys, config, argv, field):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--workers", "--seed"])
def test_removed_flags_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["levi", "--type", "sl2", flag, "1"])
    assert exc.value.code == 2


def test_config_shapes_exit_0_or_2(tmp_path, capsys):
    """Malformed and well-formed configs for shapovalov, character, simplicity
    and quantize: every run exits 0 or 2 without a traceback, and repeats its
    stdout exactly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cfg = tmp_path / "cfg.json"
    parabolics = {t: [strat.indices(m) for m in parab.enumerate_parabolic(parse_type(t))]
                  for t in ("sl2", "gl2", "gl1", "gl3", "B2")}

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(["shapovalov", "character", "simplicity",
                                             "quantize"]))
        lie_type = data.draw(st.sampled_from(list(parabolics)))
        rd = parse_type(lie_type)
        rank = rd.dim_t
        depth = data.draw(st.integers(1, 2))
        # each field is either well formed or one of its malformed shapes
        value = st.one_of(st.integers(-2, 3), st.sampled_from(["1/3", "-5/2"]))
        row = st.lists(value, min_size=rank, max_size=rank)
        bad_row = st.one_of(value, st.lists(value, max_size=rank + 1),
                            st.sampled_from([["1/0"], ["x"], [""], [None]]))
        # listed twice: only a well-formed list reaches the module action
        well_formed = st.lists(row, min_size=depth, max_size=depth)
        lams = data.draw(st.one_of(well_formed, well_formed,
                                   st.lists(st.one_of(row, bad_row), max_size=3), value))
        filtration = data.draw(st.one_of(
            st.sampled_from([None, "borel", 0]),
            st.lists(st.lists(st.integers(-1, rd.num_roots), max_size=2), min_size=depth,
                     max_size=depth),
            st.lists(st.sampled_from(parabolics[lie_type]), min_size=depth, max_size=depth)))
        config = {"formal_type": {"lambdas": lams}}
        if filtration is not None:
            config["filtration"] = filtration
        cfg.write_text(json.dumps(config))
        argv = (command, "--type", lie_type, "--depth", str(depth), "--height", "2",
                "--config", str(cfg))
        runs = [run_cli(capsys, *argv) for _ in range(2)]
        for code, _, err in runs:
            assert code in (0, 2) and "Traceback" not in err
        assert runs[0] == runs[1]

    check()


def test_stratification_and_classify_exit_0_or_2(tmp_path, capsys):
    """levi and parabolic at depths 0..3, and classify on malformed and
    well-formed element configs, each with or without an --out prefix under
    tmp_path (in an existing directory, in a missing one, below a file, or an
    existing directory itself): every run exits 0 or 2 without a traceback,
    and repeats its stdout and stderr exactly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cfg = tmp_path / "cfg.json"
    (tmp_path / "outs").mkdir()
    (tmp_path / "a-file").write_text("")
    prefixes = [None, tmp_path / "outs" / "run", tmp_path / "missing" / "run",
                tmp_path / "a-file" / "run", tmp_path / "outs"]
    value = st.one_of(st.integers(-2, 3), st.sampled_from(["1/3", "-5/2", "0"]))
    bad = st.sampled_from(["1/0", "x", "", None, [], {}])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(["levi", "parabolic", "classify"]))
        lie_type = data.draw(st.sampled_from(["gl1", "gl2", "sl2", "B2"]))
        rd = parse_type(lie_type)
        argv = [command, "--type", lie_type]
        if command != "classify":
            argv += ["--depth", str(data.draw(st.integers(0, 3)))]
        else:
            depth = data.draw(st.integers(0, 3))
            cartan = st.lists(value, min_size=rd.dim_t, max_size=rd.dim_t)
            bad_cartan = st.one_of(bad, st.lists(st.one_of(value, bad), min_size=rd.dim_t + 1,
                                                 max_size=rd.dim_t + 1))
            keys = st.sampled_from([str(i) for i in range(-1, rd.num_roots + 1)] + ["a"])
            coeff = st.fixed_dictionaries({
                "cartan": st.one_of(cartan, cartan, bad_cartan),
                "roots": st.dictionaries(keys, st.one_of(value, value, bad), max_size=2)})
            element = data.draw(st.one_of(
                st.fixed_dictionaries({"depth": st.just(depth), "coeffs": st.one_of(
                    st.lists(coeff, min_size=depth, max_size=depth), st.lists(coeff, max_size=3))}),
                st.fixed_dictionaries({"tuple": st.lists(cartan, min_size=depth,
                                                         max_size=depth)}),
                st.one_of(value, bad)))
            config = data.draw(st.sampled_from([{"element": element}, element]))
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        prefix = data.draw(st.sampled_from(prefixes))
        if prefix is not None:
            argv += ["--out", str(prefix)]
        runs = [run_cli(capsys, *argv) for _ in range(2)]
        for code, _, err in runs:
            assert code in (0, 2) and "Traceback" not in err
        assert runs[0] == runs[1]

    check()
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert written <= {"cfg.json", "a-file", "outs", "outs/run", "outs/run.json",
                       "outs/run.dot", "outs.json", "outs.dot"}
    assert {"outs/run", "outs/run.json"} <= written


def test_long_exact_output_exits_0(tmp_path, capsys):
    """A determinant past CPython's 4300-digit int-to-str limit is printed in
    full, and the caller's limit is restored afterwards."""
    big = 10 ** 1000
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"depth": 1, "formal_type": {"lambdas": [[str(big)]]}}))
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "shapovalov", "--type", "sl2", "--depth", "1",
                             "--height", "5", "--config", str(cfg))
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    det = json.loads(out)["blocks"][-1]["determinant"]
    assert len(det) > 4300
    # the height-5 block of the sl2 Verma module: 5! lambda (lambda-1) ... (lambda-4)
    expected = math.factorial(5) * math.prod(big - j for j in range(5))
    sys.set_int_max_str_digits(0)
    try:
        assert int(det) == expected
    finally:
        sys.set_int_max_str_digits(limit)


_FACTOR_ROWS = singmod.factor_rows


def _bumped_factor_rows(blk):
    """singmod.factor_rows with the first numerator of the solved parts raised
    by 1 (test_singmod.bump_first_numerator), where some X_k is nonzero."""
    lengths, d, parts, xs = _FACTOR_ROWS(blk)
    return lengths, d, parts, bump_first_numerator(xs) or xs


@pytest.mark.parametrize("target, name, value, argv, config", [
    (orbit.BirkhoffNormalForm, "verify_round_trip", lambda self: False,
     ("classify", "--type", "sl2"), {"element": {"tuple": [["1"], ["0"]]}}),
    (strat, "stratum_contains", lambda filt, xs: False,
     ("classify", "--type", "sl2"), {"element": {"tuple": [["1"], ["0"]]}}),
    (strat, "dual_stratum_contains", lambda rd, filt, lams: False,
     ("character", "--type", "sl2", "--depth", "1"),
     {"formal_type": {"lambdas": [["1"]]}}),
    # all of W fixes a zero witness, more than fixes the kernels of most strata
    (strat, "stratum_witness",
     lambda filt: tuple((0,) * filt.rd.dim_t for _ in filt.masks),
     ("levi", "--type", "gl3", "--depth", "1"), {}),
    # a nilpotent X_0 let through the semisimplicity test fails the split of
    # the first Birkhoff step
    (orbit, "is_semisimple", lambda x: True,
     ("classify", "--type", "sl2"),
     {"element": {"depth": 1, "coeffs": [{"cartan": ["0"], "roots": {"0": "1"}}]}}),
    # one numerator of a solved X_k = A_0^{-1} A_k raised by 1 fails the
    # factorisation check of shapovalov
    (singmod, "factor_rows", _bumped_factor_rows,
     ("shapovalov", "--type", "sl2", "--depth", "2", "--height", "3"),
     {"formal_type": {"lambdas": [["5"], ["7"]]}}),
], ids=["round-trip", "stratum-membership", "dual-stratum", "out-freeness", "birkhoff-split",
        "factorisation"])
def test_failed_verification_exits_3(tmp_path, capsys, monkeypatch, target, name, value,
                                     argv, config):
    monkeypatch.setattr(target, name, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 3 and out == ""
    assert err.startswith("claim violation:") and "Traceback" not in err
