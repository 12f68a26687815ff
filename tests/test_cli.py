import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from eqcrit.cli import main, parse_t
from eqcrit.errors import FieldTooSmall
from eqcrit.family import SPECIAL_T, PairCase, classify_parameter
from eqcrit.fields import PRESETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_pair_t42_golden(capsys):
    code, doc = run_cli(capsys, "pair", "--t", "42")
    assert code == 0
    assert doc["case"] == "Generic"
    assert [c[0] for c in doc["f"]["coeffs"]] == [
        "0", "-592704", "-444528", "0", "1"]
    g = [c[0] for c in doc["g"]["coeffs"]]
    assert g[4] == "-307935007631307/234256"
    assert g[0] == "-44982677376"
    assert g[2] == "107230600008/11"
    reals = [v[0] for v in doc["display"]["critical_values"]]
    assert any(abs(r - 197568.1975316542) < 1e-6 for r in reals)
    assert doc["verified"] == {"equicritical_exact": True, "inequivalent": True}


def test_pair_byte_stable(capsys):
    code1 = main(["pair", "--t", "42"])
    out1 = capsys.readouterr().out
    code2 = main(["pair", "--t", "42"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


def test_pair_symbolic_tokens(capsys):
    code, doc = run_cli(capsys, "pair", "--t", "rho", "--field", "q-sqrt3")
    assert code == 0 and doc["case"] == "Rho"
    code, doc = run_cli(capsys, "pair", "--t", "omega-rho", "--field", "q-zeta12")
    assert code == 0 and doc["case"] == "OmegaRho"
    code, doc = run_cli(capsys, "pair", "--t", "inf")
    assert code == 0 and doc["case"] == "TInfinity" and doc["t"] == "inf"


# token -> (case, named elements in the order the value is built from them)
_TOKENS = {
    "0": ("T0", ()), "1": ("T1", ()), "-2": ("Tm2", ()),
    "rho": ("Rho", ("rho",)), "rho-bar": ("RhoBar", ("rho_bar",)),
    "omega": ("CuspOmega", ("omega",)), "omega2": ("CuspOmega", ("omega2",)),
    "m2omega": ("M2Omega", ("omega",)), "m2omega2": ("M2Omega2", ("omega2",)),
    "omega-rho": ("OmegaRho", ("omega", "rho")),
    "omega2-rho": ("Omega2Rho", ("omega2", "rho")),
    "omega-rho-bar": ("OmegaRhoBar", ("omega", "rho_bar")),
    "omega2-rho-bar": ("Omega2RhoBar", ("omega2", "rho_bar")),
}


def test_special_t_covers_every_finite_case():
    assert set(SPECIAL_T) == set(_TOKENS)
    cases = {case for _, case in SPECIAL_T.values()}
    assert cases | {PairCase.GENERIC, PairCase.T_INFINITY} == set(PairCase)


@pytest.mark.parametrize("field", PRESETS.values(), ids=list(PRESETS))
def test_every_token_on_every_preset(field):
    assert classify_parameter(parse_t("inf", field), field) is PairCase.T_INFINITY
    for token, (case, names) in _TOKENS.items():
        missing = [name for name in names if not field.has_named(name)]
        if missing:
            with pytest.raises(FieldTooSmall, match=f"^'{missing[0]}' is not "
                                                    f"representable in {field.name}$"):
                parse_t(token, field)
        else:
            assert classify_parameter(parse_t(token, field), field).value == case, token


def test_pair_no_pair_exit_2(capsys):
    code, doc = run_cli(capsys, "pair", "--t", "omega", "--field", "q-omega")
    assert code == 2 and doc["status"] == "no-pair"


def test_pair_field_too_small_exit_1(capsys):
    code, doc = run_cli(capsys, "pair", "--t", "rho")
    assert code == 1 and doc["error"]["type"] == "FieldTooSmall"


def test_pair_pipeline_flag(capsys):
    code, doc = run_cli(capsys, "pair", "--t", "3", "--pipeline")
    assert code == 0
    code2, doc2 = run_cli(capsys, "pair", "--t", "3")
    assert doc["f"] == doc2["f"] and doc["g"] == doc2["g"]


def test_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code, _ = run_cli(capsys, "pair", "--t", "5/7", "--out", str(out))
    assert code == 0
    code, doc = run_cli(capsys, "verify", "--file", str(out))
    assert code == 0
    assert doc["equicritical"] is True
    assert doc["verdict"]["status"] == "Inequivalent"


def test_cvpoly_and_jcv(tmp_path, capsys):
    out = tmp_path / "pair.json"
    run_cli(capsys, "pair", "--t", "42", "--out", str(out))
    poly_file = tmp_path / "f.json"
    poly_file.write_text(json.dumps(json.load(open(out))["f"]))
    code, doc = run_cli(capsys, "cvpoly", "--poly", str(poly_file))
    assert code == 0
    assert doc["cvpoly"]["coeffs"][2] == ["98802571392"]
    assert doc["is_morse"] is True
    code, doc = run_cli(capsys, "jcv", "--poly", str(poly_file))
    assert code == 0
    from fractions import Fraction
    from eqcrit.family import jt
    assert Fraction(doc["jcv"]) == jt(Fraction(42)).as_rational()


def test_pair_computes_each_cvpoly_once(capsys, monkeypatch):
    # one cvpoly per pair member (the display reuses the verified one), and
    # the depressed-form equivalence check needs no polynomial gcd here
    from eqcrit import critical, family
    calls = {"cvpoly": 0, "poly_gcd": 0}
    monkeypatch.setattr(family, "cvpoly", counted(calls, "cvpoly", family.cvpoly))
    monkeypatch.setattr(critical, "cvpoly",
                        counted(calls, "cvpoly", critical.cvpoly))
    monkeypatch.setattr(critical, "poly_gcd",
                        counted(calls, "poly_gcd", critical.poly_gcd))
    for argv in (["pair", "--t", "42"],
                 ["pair", "--t", "omega-rho", "--field", "q-zeta12"]):
        calls.update(cvpoly=0, poly_gcd=0)
        code, _ = run_cli(capsys, *argv)
        assert code == 0 and calls == {"cvpoly": 2, "poly_gcd": 0}


def test_jcv_rejects_other_degrees_before_cvpoly(tmp_path, capsys):
    # a degree-25 input fails at once, not after its whole cvpoly
    rng = random.Random(25)
    coeffs = [[str(rng.randint(-3, 3))] for _ in range(25)] + [["1"]]
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps({"field": "qq", "coeffs": coeffs}))
    start = time.perf_counter()
    code, doc = run_cli(capsys, "jcv", "--poly", str(poly_file))
    assert time.perf_counter() - start < 1.0
    expected = {"error": {"type": "ValueError",
                          "message": "j_of_cubic needs a monic cubic"}}
    assert code == 1 and doc == expected
    # the same document for every degree other than 4; below 2, cvpoly's own
    for coeffs, error in (([0, 0, 1], "ValueError"), ([0, 1, 0, 1], "ValueError"),
                          ([0, 1], "DegreeMismatch")):
        poly_file.write_text(json.dumps(
            {"field": "qq", "coeffs": [[str(c)] for c in coeffs]}))
        code, doc = run_cli(capsys, "jcv", "--poly", str(poly_file))
        assert code == 1 and doc["error"]["type"] == error


def test_cvpoly_degree_25_in_time(tmp_path, capsys):
    # the input of the jcv test above: cvpoly takes its characteristic
    # polynomial, the former resultant route took 18 s here
    rng = random.Random(25)
    coeffs = [[str(rng.randint(-3, 3))] for _ in range(25)] + [["1"]]
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps({"field": "qq", "coeffs": coeffs}))
    start = time.perf_counter()
    code, doc = run_cli(capsys, "cvpoly", "--poly", str(poly_file))
    assert time.perf_counter() - start < 10.0
    assert code == 0 and doc["source_degree"] == 25
    assert len(doc["cvpoly"]["coeffs"]) == 25 and doc["cvpoly"]["coeffs"][-1] == ["1"]


def test_cvpoly_over_an_algebra_with_zero_divisors(tmp_path, capsys):
    # Q[a]/(a^2 - a): a is a zero divisor, and the cvpoly needs no inverse
    # beyond that of the leading coefficient of f'
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps({"field": {"modulus": ["0", "-1", "1"]},
                                     "coeffs": [["0", "-1"], "-1", "0", "0", "1"]}))
    code, doc = run_cli(capsys, "cvpoly", "--poly", str(poly_file))
    assert code == 0
    assert doc["cvpoly"]["coeffs"] == [["27/256", "1"], ["0", "3"], ["0", "3"], ["1", "0"]]


def test_non_squarefree_modulus_exit_1(tmp_path, capsys):
    # Q[x]/(x^2) is not a reduced algebra: rejected before any arithmetic
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps({"field": {"modulus": ["0", "0", "1"]},
                                     "coeffs": ["0", "-1", "0", "0", "1"]}))
    code, doc = run_cli(capsys, "cvpoly", "--poly", str(poly_file))
    assert code == 1 and doc["error"]["type"] == "ValueError"


def test_maps(capsys):
    code, doc = run_cli(capsys, "maps", "--eval", "beta4", "--at", "1536")
    assert code == 0 and doc["value"] == "0"
    code, doc = run_cli(capsys, "maps", "--eval", "beta4", "--at", "1728")
    assert doc["value"] == "inf"
    code, doc = run_cli(capsys, "maps", "--eval", "pi3", "--at", "-3")
    assert doc["value"] == "0"
    code, doc = run_cli(capsys, "maps", "--eval", "psi4", "--at", "1728")
    assert doc["value"] == "0"
    code, doc = run_cli(capsys, "maps", "--eval", "jt", "--at", "2")
    assert doc["value"] == "884736/343"
    code, doc = run_cli(capsys, "maps", "--eval", "x1", "--at", "inf")
    assert doc["value"] == "0"


def test_fiber(capsys):
    code, doc = run_cli(capsys, "fiber", "--jcv", "0")
    assert code == 0
    assert doc["points"] == [["0", 1], ["1536", 3]]
    assert doc["total_multiplicity"] == 4
    code, doc = run_cli(capsys, "fiber", "--jcv", "inf")
    assert doc["points"] == [["1728", 1], ["inf", 3]]
    code, doc = run_cli(capsys, "fiber", "--jcv", "1728")
    assert doc["points"] == [] and doc["accounted_multiplicity"] == 0


def test_classify_and_lift(capsys):
    # theta([1, -2, 3]) critical values are realized by a rational quartic
    from eqcrit.critical import theta
    from eqcrit.jsonio import format_rational
    ys = [format_rational(v.as_rational()) for v in theta([1, -2, 3])]
    code, doc = run_cli(capsys, "classify", f"--y1={ys[0]}", f"--y2={ys[1]}",
                        f"--y3={ys[2]}")
    assert code == 0 and doc["exists"] is True and doc["witness_u"] is not None
    code, doc = run_cli(capsys, "lift", f"--y1={ys[0]}", f"--y2={ys[1]}",
                        f"--y3={ys[2]}")
    assert code == 0 and doc["lift"] is not None

    code, doc = run_cli(capsys, "classify", "--y1", "0", "--y2", "1",
                        "--y3=-1")
    assert code == 2 and doc["exists"] == "out-of-scope"

    code, doc = run_cli(capsys, "classify", "--y1", "0", "--y2", "1",
                        "--y3", "3")
    if doc["exists"] is False:
        code2, doc2 = run_cli(capsys, "lift", "--y1", "0", "--y2", "1",
                              "--y3", "3")
        assert code2 == 2 and doc2["lift"] is None


def test_classify_and_lift_search_one_fiber(capsys, monkeypatch):
    # the cubic's j-invariant and its fiber's rational roots are computed
    # once per op, and classify and lift both read them
    from eqcrit import moduli
    from eqcrit.critical import theta
    from eqcrit.jsonio import format_rational
    calls = {"j_of_cubic": 0, "rational_roots": 0}
    for name in calls:
        monkeypatch.setattr(moduli, name,
                            counted(calls, name, getattr(moduli, name)))
    ys = [format_rational(v.as_rational()) for v in theta([1, -2, 3])]
    triple = [f"--y1={ys[0]}", f"--y2={ys[1]}", f"--y3={ys[2]}"]
    code, doc = run_cli(capsys, "lift", *triple)
    assert code == 0 and calls == {"j_of_cubic": 1, "rational_roots": 1}
    for argv in (triple, ["--y1", "0", "--y2", "1", "--y3", "3"]):
        calls.update(j_of_cubic=0, rational_roots=0)
        run_cli(capsys, "classify", *argv)
        assert max(calls.values()) <= 1


def test_classify_and_lift_semiprime_denominator():
    # the denominator of j carries a 37-digit semiprime; the rational roots
    # that decide both commands need no factoring of it
    triple = ["--y1", "0", "--y2", "1",
              "--y3", "3000000000000000046000000000000000111"]
    for command in ("classify", "lift"):
        proc = subprocess.run([sys.executable, "-m", "eqcrit", command, *triple],
                              capture_output=True, text=True, timeout=10)
        doc = json.loads(proc.stdout)
        assert proc.returncode == 2 and doc["exists"] is False
    assert doc["lift"] is None and doc["obstruction"] == "NoRationalFiberPoint"


def test_pair_overflow_emits_exact_pair(capsys):
    # the float display of the critical values overflows at these sizes; the
    # exact pair is still emitted, against the closed forms of f_t and g_t
    for text in ("1e25", "1e40"):
        code, doc = run_cli(capsys, "pair", "--t", text)
        t = int(Fraction(text))
        assert code == 0 and doc["display"]["critical_values"] is None
        v = Fraction(t ** 4 * (t - 1) ** 3, t + 2)
        f = [0, -8 * t ** 3, -6 * t ** 3, 0, 1]
        g = [-8 * t ** 4 * (t ** 2 + t + 1), Fraction(8, 3) * v, 2 * v, 0,
             -(t - 1) ** 3 * v / (3 * (t + 2) ** 3)]
        assert doc["f"]["coeffs"] == [[str(c)] for c in f]
        assert doc["g"]["coeffs"] == [[str(c)] for c in g]
        assert doc["verified"] == {"equicritical_exact": True,
                                   "inequivalent": True}


def test_weyl_command(capsys):
    code, doc = run_cli(capsys, "weyl", "--t", "42", "--p", "101", "--a", "7")
    assert code == 0
    assert doc["exact_multiset_equal"] is True
    assert doc["exact_p2_multiset_equal"] is True
    assert doc["within_tolerance"] is True
    assert abs(doc["W_f"][0] - doc["W_g"][0]) < 1e-9
    code, doc = run_cli(capsys, "weyl", "--t", "42", "--p", "7", "--a", "2",
                        "--direct-only")
    assert code == 0 and "W_f" in doc and "reduced_f" not in doc


# Stdout bytes of two weyl runs, pinned: the floats carry every bit of
# weyl_direct, weyl_reduced and their difference.
_WEYL_T42_P1009_A7 = """\
{
 "W_f": [
  -0.9759696895815438,
  0.21790632165706766
 ],
 "W_g": [
  -0.9759696895815441,
  0.21790632165706755
 ],
 "a": 7,
 "crit_rational": [
  1,
  1
 ],
 "exact_multiset_equal": true,
 "exact_p2_multiset_equal": true,
 "guards": {
  "condition_p_ndiv_t(t-1)": true,
  "guard_p_ndiv_3(t+2)": true
 },
 "p": 1009,
 "pair_difference": 2.482534153247273e-16,
 "reduced_f": [
  -0.9759696895815393,
  0.21790632165706883
 ],
 "reduced_g": [
  -0.9759696895815393,
  0.21790632165706883
 ],
 "t": 42,
 "within_tolerance": true
}
"""

_WEYL_T42_P101_A7_DIRECT = """\
{
 "W_f": [
  -0.6161359436402087,
  0.7876398281921759
 ],
 "W_g": [
  -0.6161359436402091,
  0.7876398281921763
 ],
 "a": 7,
 "p": 101,
 "pair_difference": 4.710277376051325e-16,
 "t": 42
}
"""


def test_weyl_stdout_bytes_are_pinned(capsys):
    assert main(["weyl", "--t", "42", "--p", "1009", "--a", "7"]) == 0
    assert capsys.readouterr().out == _WEYL_T42_P1009_A7
    assert main(["weyl", "--t", "42", "--p", "101", "--a", "7",
                 "--direct-only"]) == 0
    assert capsys.readouterr().out == _WEYL_T42_P101_A7_DIRECT


def test_weyl_bad_prime_exit_1(capsys):
    code, doc = run_cli(capsys, "weyl", "--t", "42", "--p", "9", "--a", "1")
    assert code == 1 and doc["error"]["type"] == "NotPrime"


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--t-from", "-3", "--t-to", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["t", "case", "j1", "j2", "jt"]
    assert len(lines) == 8
    import csv
    rows = list(csv.DictReader(out.open()))
    cases = {r["t"]: r["case"] for r in rows}
    assert cases["0"] == "T0" and cases["1"] == "T1" and cases["-2"] == "Tm2"
    for r in rows:
        assert r["equicritical"] == "true"
        assert r["inequivalent"] == "true"


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "eqcrit", "maps", "--eval", "beta4", "--at", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "0"


def test_main_builds_one_parser(capsys, monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "eqcrit":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        code, doc = run_cli(capsys, "maps", "--eval", "jt", "--at", "2")
        assert code == 0 and doc["value"] == "884736/343"
    assert len(built) <= 1


def test_classify_does_not_import_numpy():
    # numpy is loaded only by the Weyl sums and the pair display
    code = ("import sys\n"
            "from eqcrit.cli import main\n"
            "main(['classify', '--y1', '0', '--y2', '1', '--y3', '3'])\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "False"


def test_sweep_writes_each_row_as_it_is_made(tmp_path, capsys, monkeypatch):
    # a range far too wide to hold: rows are written before the next is made
    from eqcrit import family

    class Stop(Exception):
        pass

    made = []
    pair = family.pair

    def three_rows(t, field):
        if len(made) == 3:
            raise Stop
        made.append(t)
        return pair(t, field)

    monkeypatch.setattr(family, "pair", three_rows)
    out = tmp_path / "rows.csv"
    with pytest.raises(Stop):
        main(["sweep", "--t-from", "2", "--t-to", "1000000000000000000",
              "--out", str(out)])
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["t", "2", "3", "4"]
