import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import airy, cli, descendents, frobenius, named_series
from tautrel.cli import dispatch
from tautrel.series import PowerSeries

# The verify suites by their least --order, None for those taking none.
LEAST_ORDER = {name: least for name, (_, _, least) in cli._SUITES.items()}
NO_ORDER = [name for name, least in LEAST_ORDER.items() if least is None]


class TestExitCodes:
    def test_invalid_relation_is_exit_1(self):
        code, out = dispatch(["fz", "--g", "4", "--r", "1"])
        assert code == 1
        assert "validity: g-1+|sigma| < 3r fails" in out

    def test_valid_relation_is_exit_0(self):
        code, _ = dispatch(["fz", "--g", "3", "--r", "2"])
        assert code == 0

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["no-such-command"])
        assert exc.value.code == 2

    def test_malformed_list_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["fz", "--g", "3", "--r", "2", "--sigma", "1,x"])
        assert exc.value.code == 2

    def test_pixton_inadmissible_is_exit_1(self):
        code, out = dispatch(["pixton", "--g", "2", "--n", "0", "--d", "0"])
        assert code == 1 and "validity" in out

    def test_pixton_above_dimension_is_exit_1(self):
        # Without the bound this builds kappa tables through degree 100.
        code, out = dispatch(
            ["pixton", "--g", "2", "--n", "0", "--d", "100", "--format", "json"]
        )
        report = json.loads(out)
        assert code == 1 and "dim = 3g-3+n = 3" in report["message"]
        assert report["location"] == {"g": 2, "n": 0, "a": [], "d": 100}

    @pytest.mark.parametrize("option", [["--format", "json"],
                                        ["--out", "report.txt"],
                                        ["--seed", "3"]])
    def test_option_before_descendents_mode_is_exit_2(self, option, tmp_path,
                                                      monkeypatch, capsys):
        # The modes take the common options; given before the mode, one
        # would be dropped for the mode's default.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            dispatch(["descendents"] + option + ["table", "--ks", "1"])
        assert exc.value.code == 2
        assert not (tmp_path / "report.txt").exists()
        err = capsys.readouterr().err
        assert "argument %s: given before the mode" % option[0] in err
        assert "options follow the mode" in err

    def test_descendents_table_too_deep_is_exit_1(self):
        # 1,000 string equations in a genus-1 chain, down to <tau_1>_1;
        # the genus-0 chain of 0 x 1000, 998 has a closed form.
        ks = [0] * 1000 + [1001]
        code, out = dispatch(["descendents", "table", "--ks",
                              ",".join(map(str, ks)), "--format", "json"])
        report = json.loads(out)
        assert code == 1 and not report["ok"]
        assert "recursion limit" in report["message"]
        assert report["location"] == {"ks": ks}

    @pytest.mark.parametrize(
        "ks,value",
        [([1000], Fraction(1, 24**334 * math.factorial(334))),
         ([1] * 1000, Fraction(math.factorial(999), 24)),
         ([0] * 1000 + [998], Fraction(1))],
        ids=["k1000", "1000_ones", "zeros_chain_genus0"])
    def test_descendents_table_closed_forms_at_depth(self, ks, value):
        code, out = dispatch(["descendents", "table", "--ks",
                              ",".join(map(str, ks)), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"ks": ks, "value": str(value)}

    def test_strata_unstable_is_exit_1(self):
        code, _ = dispatch(["strata", "--g", "0", "--n", "2"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["strata", "--g", "-1", "--n", "5"],
            ["strata", "--g", "2", "--n", "-1"],
            ["strata", "--g", "x", "--n", "1"],
            ["pixton", "--g", "-1", "--n", "5", "--a", "0,0,0,0,0", "--d", "1"],
            ["pixton", "--g", "1", "--n", "-1", "--d", "1"],
        ],
    )
    def test_negative_g_n_is_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["series", "--order", "-1"], "--order: expected a non-negative"),
            (["frobenius", "r-matrix", "--order", "0"], "r-matrix 3spin needs"),
            (["frobenius", "flatness", "--order", "1"], "flatness needs"),
            (["verify", "flatness", "--order", "0"], "flatness needs"),
            (["verify", "descendents", "--order", "3"], "descendents needs"),
            (["verify", "series", "--order", "0"], "series needs"),
            (["airy", "--x", "-1"], "--x: expected a finite positive"),
            (["airy", "--x", "nan"], "--x: expected a finite positive"),
            (["airy", "--precision-bits", "10"], "expected an integer >= 64"),
            (["airy", "--k", "-1"], "--k: expected a non-negative"),
            (["fz", "--g", "3", "--r", "2", "--sigma", "2"], "not 2 mod 3"),
            (["fz", "--g", "-1", "--r", "2"], "--g: expected a non-negative"),
            (["descendents", "closed", "--degree", "-3"], "--degree: expected"),
            (["airy", "--x", "1e20"], "--x: expected a finite positive number <= 500"),
            (["airy", "--x", "1e6"], "<= 500"),
            (["airy", "--x", "inf"], "<= 500"),
        ]
        # A suite taking no order rejects any, 0 included.
        + [(["verify", name, "--order", "1"], "verify %s takes no order" % name)
           for name in NO_ORDER + ["all"]]
        + [(["verify", "all", "--order", "0"], "verify all takes no order")]
        # Each suite rejects the order just below its least.
        + [(["verify", name, "--order", str(least - 1)],
            "%s needs an integer >= %d, got %d" % (name, least, least - 1))
           for name, least in LEAST_ORDER.items() if least]
        # Descendent exponents: none negative, and at least one.
        + [(["descendents", "table", "--ks", ks], "--ks: expected a nonempty")
           for ks in ("-1", "")],
    )
    def test_out_of_range_argument_is_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    # One bad value of each argument type, with the whole error line.
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["series", "--order", "-1"], "tautrel series: error: argument "
             "--order: expected a non-negative integer, got '-1'"),
            (["airy", "--precision-bits", "10"], "tautrel airy: error: argument "
             "--precision-bits: expected an integer >= 64, got '10'"),
            (["airy", "--x", "nan"], "tautrel airy: error: argument --x: "
             "expected a finite positive number <= 500, got 'nan'"),
            (["pixton", "--g", "1", "--n", "1", "--d", "1", "--a", "x"],
             "tautrel pixton: error: argument --a: expected a "
             "comma-separated integer list, got 'x'"),
            (["descendents", "table", "--ks", "x"], "tautrel descendents table: "
             "error: argument --ks: expected a comma-separated integer list, "
             "got 'x'"),
            (["descendents", "table", "--ks", "-1"], "tautrel descendents table: "
             "error: argument --ks: expected a nonempty list of non-negative "
             "integers, got '-1'"),
            (["fz", "--g", "3", "--r", "2", "--sigma", "2"], "tautrel fz: error: "
             "argument --sigma: parts must be positive and not 2 mod 3: 2"),
        ]
        # A list that starts with "-" is a value in either spelling, not
        # an unknown option.
        + [(["descendents", "table"] + ks, "tautrel descendents table: error: "
             "argument --ks: expected a nonempty list of non-negative "
             "integers, got '-1,2'") for ks in (["--ks", "-1,2"], ["--ks=-1,2"])]
        + [(["pixton", "--g", "2", "--n", "2", "--d", "1"] + a, "tautrel pixton: "
             "error: argument --a: expected a comma-separated list of 0s and "
             "1s, got '-1,0'") for a in (["--a", "-1,0"], ["--a=-1,0"])],
        ids=["order", "precision_bits", "x", "a", "ks_not_int", "ks_negative",
             "sigma", "ks_negative_list", "ks_negative_list_eq", "a_negative",
             "a_negative_eq"],
    )
    def test_bad_value_error_line(self, argv, line, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    # Values each fine alone that the command cannot use, with the whole
    # error line; {tmp} is a fresh directory.
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["series", "--order", "3", "--out", "{tmp}/missing/x.txt"],
             "tautrel: error: argument --out: can't open "
             "'{tmp}/missing/x.txt': No such file or directory"),
            (["series", "--order", "3", "--out", "{tmp}"],
             "tautrel: error: argument --out: can't open '{tmp}': "
             "Is a directory"),
            (["frobenius", "flatness", "--model", "cp1"], "tautrel: error: "
             "argument --model: flatness is computed for 3spin only, got cp1"),
            (["pixton", "--g", "2", "--n", "2", "--a", "1", "--d", "1"],
             "tautrel: error: argument --a: expected one entry per leg, --n 2, "
             "got 1"),
            (["pixton", "--g", "2", "--n", "2", "--d", "1"], "tautrel: error: "
             "argument --a: expected one entry per leg, --n 2, got 0"),
        ],
        ids=["out_missing_dir", "out_directory", "flatness_cp1", "pixton_a_short",
             "pixton_a_missing"],
    )
    def test_unusable_value_error_line(self, argv, line, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == line.format(tmp=tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [["verify", name, "--order", str(least)]
         for name, least in LEAST_ORDER.items() if least is not None]
        + [["frobenius", "r-matrix", "--model", "cp1", "--order", "0"],
           ["frobenius", "flatness", "--order", str(LEAST_ORDER["flatness"])],
           ["frobenius", "flatness", "--model", "3spin",
            "--order", str(LEAST_ORDER["flatness"])]],
    )
    def test_smallest_order_runs(self, argv):
        code, _ = dispatch(argv)
        assert code == 0

    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_omitted_order_is_table_default(self, suite):
        code, out = dispatch(["verify", suite, "--format", "json"])
        assert code == 0
        assert json.loads(out)["order"] == cli._SUITES[suite][1]

    @pytest.mark.parametrize(
        "argv, suite",
        [(["frobenius", "flatness"], "flatness"),
         (["frobenius", "r-matrix"], "frobenius"),
         (["frobenius", "r-matrix", "--model", "cp1"], "frobenius")],
    )
    def test_frobenius_omitted_order_follows_table(self, argv, suite,
                                                   monkeypatch):
        checks_of, _, least = cli._SUITES[suite]
        monkeypatch.setitem(cli._SUITES, suite, (checks_of, 3, least))
        code, out = dispatch(argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["order"] == 3

    def test_oracle_disagreement_is_exit_1(self, monkeypatch):
        def wrong_quadrature(x, precision_bits=128):
            return airy.airy_ode(x, precision_bits) * 2

        monkeypatch.setattr(airy, "airy_quadrature", wrong_quadrature)
        code, out = dispatch(["airy", "--x", "3", "--format", "json"])
        assert code == 1
        data = json.loads(out)
        assert data["location"] == {"x": 3.0, "prime": False}
        assert data["message"] == "the quadrature and ODE oracles disagree"
        ode = float(data["ode"])
        assert float(data["quadrature"]) == pytest.approx(2 * ode)
        assert ode == pytest.approx(float(airy.airy_ode(3)))

    def test_quadrature_budget_is_exit_1(self, monkeypatch):
        monkeypatch.setattr(airy, "MAX_EVALUATIONS", 50)
        code, out = dispatch(
            ["airy", "--x", "1e-12", "--prime", "--format", "json"]
        )
        assert code == 1
        data = json.loads(out)
        assert data["location"] == {"x": 1e-12, "prime": True}
        assert data["message"] == "the quadrature oracle did not converge"
        assert 0 < data["evaluations"] <= 50
        assert data["precision_bits"] == 128

    def test_small_x_report(self):
        code, _ = dispatch(
            ["airy", "--x", "0.001", "--k", "3", "--precision-bits", "64"]
        )
        assert code == 0


# Tokens argparse or the computations must turn away cleanly.
JUNK = ("", "x", "1.5", "nan", "-1")
# One draw in JUNK_ODDS is junk, so that most cases reach a computation.
JUNK_ODDS = 12


@st.composite
def _mostly(draw, valid, junk=JUNK):
    """A draw from ``valid``, or one time in JUNK_ODDS a junk token."""
    if draw(st.integers(0, JUNK_ODDS - 1)) == 0:
        return draw(st.sampled_from(junk))
    return draw(valid)


def _value(low, high):
    """An integer in [low, high] as a token, now and then junk."""
    return _mostly(st.integers(low, high).map(str))


_LISTS = st.sampled_from(("", "0", "1", "0,0", "1,0", "2", "3", "1,x", "x"))

# Each subcommand's leading words and its flags with their value
# strategies (None for a switch).  Sizes stay small so that a case
# takes well under a second: g, n <= 2 for strata and pixton, and airy
# --x either rejected by argparse or in [1, 20] at <= 128 bits, where a
# run takes a few tenths of a second at most.
_FUZZ = {
    ("series",): {"--which": st.sampled_from(("A", "B", "H0", "Q")),
                  "--order": _value(0, 8)},
    ("airy",): {"--x": _mostly(
                    st.integers(1, 20).map(str)
                    | st.floats(1, 20, allow_nan=False).map(repr),
                    JUNK + ("0", "-0.5", "inf", "1e20", "1e6", "500.5")),
                "--k": _value(0, 5), "--prime": None,
                "--precision-bits": _mostly(st.integers(64, 128).map(str),
                                            JUNK + ("10", "63"))},
    ("descendents", "closed"): {"--degree": _value(0, 6)},
    ("descendents", "open"): {"--degree": _value(0, 6)},
    ("descendents", "table"): {"--ks": _LISTS},
    ("fz",): {"--g": _value(0, 5), "--r": _value(0, 4),
              "--sigma": _LISTS},
    ("strata",): {"--g": _value(0, 2), "--n": _value(0, 2)},
    ("pixton",): {"--g": _value(0, 2), "--n": _value(0, 2),
                  "--a": _LISTS, "--d": _value(-1, 3)},
    ("frobenius",): {"--model": st.sampled_from(("3spin", "cp1", "x")),
                     "--order": _value(0, 6)},
    ("frobenius", "r-matrix"): {"--model": st.sampled_from(("3spin", "cp1")),
                                "--order": _value(0, 6)},
    ("frobenius", "flatness"): {"--order": _value(0, 6)},
}
# A verify suite's order is drawn between its least and default orders,
# and omitted for those that take none.
_FUZZ.update(
    {("verify", suite):
     {} if least is None else {"--order": _value(least, default)}
     for suite, (_, default, least) in cli._SUITES.items()}
)
_FUZZ[("verify", "all")] = {}
# Flags every case passes: argparse requires some, verify suites run
# for longer at orders above their defaults, and airy without --x runs
# its oracles at x = 10.
_REQUIRED = {
    "verify": {"--order"}, "airy": {"--x"}, "descendents": {"--ks"},
    "fz": {"--g", "--r"}, "strata": {"--g", "--n"},
    "pixton": {"--g", "--n", "--d"},
}
_COMMON = {"--format": _mostly(st.sampled_from(("json", "csv", "text")),
                               ("x",)),
           "--seed": _value(0, 9)}
# Half of the cases pick one of the subcommands that compute the
# paper's series and relations, the other half any subcommand.
_WORDS = st.sampled_from(sorted(_FUZZ)) | st.sampled_from(
    [("airy",), ("series",), ("fz",)])


@st.composite
def _argv(draw):
    words = draw(_WORDS)
    flags = dict(_FUZZ[words], **_COMMON)
    argv = list(words)
    for flag in sorted(flags):
        if flag in _REQUIRED.get(words[0], ()) or draw(st.booleans()):
            argv.append(flag)
            if flags[flag] is not None:
                argv.append(draw(flags[flag]))
    return argv


# Imports every module, as a benchmark job does, reports which of the
# heavy imports are loaded, then runs one Airy report.
_COLD_START = """
import json, sys
from tautrel import (airy, cli, descendents, frobenius, fz, named_series,
                     open_potential, pixton, series, strata)
loaded = sorted({"mpmath", "dataclasses"} & set(sys.modules))
code, out = cli.dispatch(["airy", "--x", "10", "--k", "3", "--format", "json"])
print(json.dumps({"loaded": loaded, "code": code, "report": json.loads(out)}))
"""


class TestColdStart:
    def test_import_skips_mpmath_until_airy_runs(self):
        import tautrel

        src = str(Path(tautrel.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        data = json.loads(done.stdout)
        assert data["loaded"] == []
        assert data["code"] == 0
        assert data["report"]["envelope_ok"] is True


class TestFreeze:
    def test_second_dispatch_leaves_the_freeze_alone(self):
        dispatch(["series", "--order", "0"])
        frozen = gc.get_freeze_count()
        dispatch(["series", "--order", "0"])
        assert frozen > 0 and gc.get_freeze_count() == frozen
        assert gc.isenabled()


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_exit_code_is_0_1_or_usage(self, argv):
        try:
            code, _ = dispatch(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 1), argv


class TestReports:
    def test_series_json(self):
        code, out = dispatch(
            ["series", "--which", "H0", "--order", "2", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["1", "-60", "27720"]

    def test_rationals_as_strings(self):
        code, out = dispatch(
            ["fz", "--g", "3", "--r", "2", "--format", "json"]
        )
        data = json.loads(out)
        assert data["relation"] == {"k1^2": "1800", "k2^1": "-25920"}

    def test_descendents_table(self):
        code, out = dispatch(
            ["descendents", "table", "--ks", "2,3", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["value"] == "29/5760"

    def test_strata_census(self):
        code, out = dispatch(
            ["strata", "--g", "2", "--n", "0", "--format", "json"]
        )
        data = json.loads(out)
        assert data["count"] == 7
        assert sorted(g["automorphisms"] for g in data["graphs"])[-1] == 12

    def test_pixton_class(self):
        code, out = dispatch(
            [
                "pixton", "--g", "1", "--n", "1", "--a", "1", "--d", "1",
                "--format", "json",
            ]
        )
        data = json.loads(out)
        coeffs = sorted(t["coeff"] for t in data["class"]["terms"])
        assert coeffs == ["-12", "60", "84"]

    def test_frobenius_r_matrix(self):
        code, out = dispatch(
            [
                "frobenius", "r-matrix", "--model", "3spin", "--order", "1",
                "--format", "json",
            ]
        )
        data = json.loads(out)
        assert data["r_matrix"]["entries"]["01"][1] == {"rho^-2": "-7/144"}

    def test_frobenius_cp1_leading(self):
        code, out = dispatch(
            ["frobenius", "r-matrix", "--model", "cp1", "--order", "2",
             "--format", "json"]
        )
        data = json.loads(out)
        want = [str(named_series.series_A(2)[k]) for k in range(3)]
        assert data["leading_limit"] == want

    def test_airy_report(self):
        code, out = dispatch(
            ["airy", "--x", "10", "--k", "3", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["envelope_ok"] is True
        assert data["precision_bits"] == 128

    def test_csv_format(self):
        code, out = dispatch(
            ["series", "--which", "A", "--order", "1", "--format", "csv"]
        )
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "coefficients.1,5/24" in lines

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out = dispatch(
            ["series", "--order", "1", "--format", "json", "--out", str(path)]
        )
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


class TestVerify:
    @pytest.mark.parametrize("order,at", [(8, 6), (12, 10), (20, 12)])
    def test_descendents_suite_specializes_once(self, monkeypatch, order, at):
        # Both Airy checks read one specialization of exp(F^c), through
        # x^min(order - 2, 12).
        calls = []
        shift = descendents._airy_shift

        def counted(Fc, top, xs):
            calls.append(top)
            return shift(Fc, top, xs)

        monkeypatch.setattr(descendents, "_airy_shift", counted)
        code, out = dispatch(["verify", "descendents", "--order", str(order),
                              "--format", "json"])
        checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
        assert code == 0 and calls == [at]
        assert checks["airy_specialization"] and checks["determinantal_N1"]

    def test_series_suite(self):
        code, out = dispatch(
            ["verify", "series", "--order", "20", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["order"] == 20
        assert {"seed", "wall_time_s"} <= set(data)
        names = [c["name"] for c in data["checks"]]
        assert "first_ode" in names and "reflection" in names

    # index = order (even order), the highest index the identity
    # constrains at an odd order, and odd indices.
    @pytest.mark.parametrize(
        "order,index", [(20, 20), (21, 20), (20, 7), (21, 19), (300, 300)]
    )
    def test_series_suite_catches_h1_perturbation(self, monkeypatch, order, index):
        real = named_series.series_H1

        def perturbed(n):
            coeffs = list(real(n).coeffs)
            coeffs[index] += 1
            return PowerSeries(coeffs, n)

        monkeypatch.setattr(named_series, "series_H1", perturbed)
        code, out = dispatch(
            ["verify", "series", "--order", str(order), "--format", "json"]
        )
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["failures"]]
        assert failed == ["reflection"]

    # H0 = A(-288T), H1 = -B(-288T) and calA = A(-x^3) are built from A
    # and B, so a perturbed A or B also breaks the reflection identity,
    # and a perturbed A breaks D's ODE when its index enters calA through
    # x^20 (index 5 does, index 7 does not).
    @pytest.mark.parametrize(
        "name,index,failed",
        [("series_B", 11, ["first_ode", "reflection"]),
         ("series_A", 7, ["first_ode", "second_ode", "reflection"]),
         ("series_A", 5,
          ["first_ode", "second_ode", "reflection", "d_series_ode"])],
    )
    def test_series_suite_catches_ode_perturbation(
        self, monkeypatch, name, index, failed
    ):
        real = getattr(named_series, name)

        def perturbed(n):
            coeffs = list(real(n).coeffs)
            if index <= n:
                coeffs[index] += 1
            return PowerSeries(coeffs, n)

        monkeypatch.setattr(named_series, name, perturbed)
        code, out = dispatch(
            ["verify", "series", "--order", "20", "--format", "json"]
        )
        assert code == 1
        assert [c["name"] for c in json.loads(out)["failures"]] == failed

    @pytest.mark.parametrize("total,n", [(0, 0), (4, 0), (0, 3), (3, 1), (3, 2), (4, 3)])
    def test_compositions_sum_at_most_total_in_order(self, total, n):
        # Every psi exponent tuple with sum <= total, lexicographic; the
        # leg-less case is the one empty tuple.
        box = itertools.product(range(total + 1), repeat=n)
        assert cli._compositions(total, n) == [e for e in box if sum(e) <= total]

    @pytest.mark.parametrize("order", [8, 9])
    def test_reflection_check_matches_two_product_oracle(self, order):
        # Perturb one coefficient of H0 or H1 at every index: the
        # half-size check agrees with the literal identity, including at
        # odd index = order, where both sides of the identity ignore it.
        def literal(H0, H1):
            lhs = H0 * H1.scale_argument(-1) + H0.scale_argument(-1) * H1
            return lhs == PowerSeries([1], order) * 2

        H = (named_series.series_H0(order), named_series.series_H1(order))
        verdicts = set()
        for which in (0, 1):
            for index in range(order + 1):
                coeffs = list(H[which].coeffs)
                coeffs[index] += 1
                pair = list(H)
                pair[which] = PowerSeries(coeffs, order)
                got = cli._reflection_holds(pair[0], pair[1], order)
                assert got == literal(*pair), (which, index)
                verdicts.add(got)
        assert cli._reflection_holds(H[0], H[1], order)
        assert verdicts == ({False, True} if order % 2 else {False})

    def test_flatness_suite(self):
        code, out = dispatch(
            ["verify", "flatness", "--order", "4", "--format", "json"]
        )
        data = json.loads(out)
        assert data["ok"]
        assert any(c["name"] == "branch-1_second_order" for c in data["checks"])

    def test_failure_payloads_of_a_broken_r_matrix(self, monkeypatch):
        # With d_2 of the canonical frame doubled, the failed checks carry
        # the rho-keyed residuals and the R-matrix report.
        solve = frobenius._canonical_components

        def doubled(order):
            a, beta, gamma, d = solve(order)
            return a, beta, gamma, d[:2] + [2 * d[2]] + d[3:]

        monkeypatch.setattr(frobenius, "_canonical_components", doubled)

        def failures(argv):
            code, out = dispatch(argv + ["--format", "json"])
            assert code == 1
            return {c["name"]: c["computed"]
                    for c in json.loads(out)["failures"]}

        assert failures(["verify", "flatness", "--order", "8"]) == {
            "branch-1_t1_1":
                [{}, {}, {}, {"rho^-8": "455/497664"}] + [{}] * 5,
            "branch-1_t1_0":
                [{}, {}, {}, {"rho^-7": "385/497664"}] + [{}] * 5,
            "branch-1_second_order":
                [{}, {}, {}, {"rho^-7": "35/20736"},
                 {"rho^-10": "-7735/5971968"}] + [{}] * 4,
        }
        assert failures(["verify", "frobenius"]) == {"r_matrix": {
            "order": 6,
            "entries": {
                "00": [{"rho^0": "1"}, {}, {"rho^-6": "-35/3072"}, {},
                       {"rho^-12": "-40415375/10319560704"}, {},
                       {"rho^-18": "-6183948445675/1283918464548864"}],
                "01": [{}, {"rho^-2": "-7/144"}, {"rho^-5": "-35/82944"},
                       {"rho^-8": "-95095/17915904"}, {},
                       {"rho^-14": "-5763232475/1486016741376"}, {}],
                "10": [{}, {"rho^-4": "5/144"}, {"rho^-7": "-35/82944"},
                       {"rho^-10": "85085/17915904"}, {},
                       {"rho^-16": "5391411025/1486016741376"}, {}],
                "11": [{"rho^0": "1"}, {}, {"rho^-6": "245/27648"}, {},
                       {"rho^-12": "37182145/10319560704"}, {},
                       {"rho^-18": "5849680962125/1283918464548864"}],
            },
        }}

    def test_frobenius_suite_deterministic(self):
        a = dispatch(["verify", "frobenius", "--format", "json", "--seed", "5"])
        b = dispatch(["verify", "frobenius", "--format", "json", "--seed", "5"])
        ja, jb = json.loads(a[1]), json.loads(b[1])
        ja.pop("wall_time_s"), jb.pop("wall_time_s")
        assert a[0] == 0 and ja == jb

    def test_strata_suite(self):
        code, out = dispatch(["verify", "strata", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["ok"]
        census = {c["name"]: c["computed"] for c in data["checks"]
                  if c["name"].startswith("census_")}
        assert census["census_3_0"] == 42

    def test_pixton_suite(self):
        code, out = dispatch(["verify", "pixton", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["ok"]
        pairings = {c["name"]: c["class_terms"] for c in data["checks"]
                    if c["name"].startswith("pairings_")}
        assert pairings["pairings_1_1_1_1"] == 3
        # The (2,1,(1),1) class is zero: its pairings vanish vacuously.
        assert pairings["pairings_2_1_1_1"] == 0

    def test_all_reports_every_failing_suite(self, monkeypatch):
        # Break the first check of two suites: both failures are listed,
        # and the suites after them still run.
        for suite in ("descendents", "frobenius"):
            checks_of, default, least = cli._SUITES[suite]

            def broken(order, seed, checks_of=checks_of):
                for i, check in enumerate(checks_of(order, seed)):
                    yield dict(check, ok=False) if i == 0 else check

            monkeypatch.setitem(cli._SUITES, suite, (broken, default, least))
        code, out = dispatch(["verify", "all", "--format", "json"])
        data = json.loads(out)
        assert code == 1 and not data["ok"]
        assert [c["name"] for c in data["failures"]] == [
            "virasoro_L-1", "r_matrix"]
        assert data["message"] == (
            "suite 'descendents', 'frobenius' failed 2 check(s)")
        suites = data["report"]["suites"]
        assert [s["suite"] for s in suites] == list(cli._SUITES)
        assert [s["suite"] for s in suites if not s["ok"]] == [
            "descendents", "frobenius"]
        assert not data["report"]["ok"]

    def test_all_runs_in_dependency_order(self):
        code, out = dispatch(["verify", "all", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [s["suite"] for s in data["suites"]] == [
            "series", "descendents", "open", "strata", "pixton", "frobenius",
            "flatness",
        ]



def _without_times(x):
    """The report with every ``*_time_s`` key removed, at any depth."""
    if isinstance(x, dict):
        return {k: _without_times(v) for k, v in x.items()
                if not k.endswith("_time_s")}
    if isinstance(x, list):
        return [_without_times(v) for v in x]
    return x


# SHA-256 of rendered reports: of the JSON without its *_time_s keys, or
# of the text as printed, less its *_time_s rows, when the command names
# its own --format.  They cover every verify suite at its default order,
# the closed and open potentials, the kappa relations and graph sums, the
# argument changes of A and B and the Airy asymptotics; changes to the
# arithmetic underneath must leave these reports byte for byte as they
# are.  The text cases pin the order of the relation's rows and of a
# verify report's keys, which the JSON's sorted keys do not show.
GOLDEN_REPORTS = {
    "verify all":
        "a946f19031973d15f0a0f71c1b3d6e303ff15a6df73fbebf688d85edec6fbf01",
    "verify all --format text":
        "715152a5b8cd0ee70b02f6a1eef2c9604ec7d005fb28c8ab029c891ef8dd6eaa",
    "verify descendents --order 12":
        "ed51bcbb6a46c1e6f326a310f0f889dfdefe8c05cc401640bf21f95891151b5b",
    "descendents closed --degree 12":
        "627a644cf3739d08de63c64a804b899f860e58dd7de83b3345398531b5127d95",
    "descendents table --ks 3,3,3":
        "d06677d269a0179289c872e8cdda27dffb3507c224e14309e50f27bb352a306e",
    "verify open --order 8":
        "9193f243189b33427ac8cad364dc7e0abfa5f5e7f21a6908a0d4b028e208b4f8",
    "descendents open --degree 6":
        "41ea6bf3e4e57f21c8c6e0db04198921b618d5bc483cd686b5a86da383a6e761",
    "fz --g 3 --r 2":
        "914ea427f76aaa6cfec2ec67ea894754f18ab960c384f93c34e35463b1f40bcf",
    "fz --g 7 --r 4":
        "2e91593eaa0595e06bb46623df6fb9d1a31e035071188c747bbb92283826a4df",
    "fz --g 5 --r 3 --sigma 1":
        "c3b9481eb4364afee51ade2cbe01356db60dc8eb27b0d50f26f97a8e28d14575",
    "pixton --g 3 --n 0 --d 4":
        "702313dd541f6203233583b5d33c7415e99dde51d1df74591dc04781f5cdfdfc",
    "pixton --g 2 --n 2 --a 1,0 --d 4":
        "45235f9948c44d9b4b86841af43e993b328182abd801c8c3935f4d3bc32561e1",
    "verify pixton":
        "d163f15b345bd865528fa02d3b90c29c5cce2c7762a76e0604710f4c17810a8a",
    "fz --g 7 --r 4 --format text":
        "b776d011e12c334d2be8195b2b1534aadafef5b78f5878ba6823179072be77ad",
    "series --which calA --order 60":
        "66150731c00b6d748bda534a07e8c29ff52d125e05d95dc0bbf7054bb3c3d77b",
    "series --which calB --order 60":
        "6ed5bde67be823ccf3a68d7bc7df234c174e349169d6b16cdda3aa40f40ab962",
    "series --which H0 --order 60":
        "1b6f8ea3fd9f500503da7275e212bc18c56425f6c7a2ee6a7aebff41b5dcf255",
    "series --which H1 --order 60":
        "ee783b23beb0ba9df26900b855bad743667306e3c20b8592c35a4f1a573bcf23",
    "series --which D --order 60":
        "74b0f27ea52fc18bff7c83bff9520a64f80b38c1323ebf462af5133211bd912f",
    # Orders not divisible by 3: the cubed series' known-zero tail past
    # the last power x^{3i} of its source.
    "series --which calA --order 61":
        "520019df8463d9794a5f295a89b8d3202524dfa586d6b21608c9ca5ef75fcbce",
    "series --which calB --order 62":
        "fae573fcd81fbcff9b20247d9339dbe583755b91f35a0013ab68f47193f2db52",
    "series --which D --order 61":
        "5afbef7d3dfd077ce0f332212cbdbc6b772cfb88ca05250620a7d150c3277a2b",
    "verify series --order 60":
        "e0be2360ab916b72ca32eda428dc87b12c202e53f5e53477ab47f000bd356ced",
    "airy --x 10 --k 5":
        "7608664eb52bfc911ac5a0814cb21019ccfe3fbe8f2d99ce0a8155e4e945d7bc",
    "airy --x 10 --k 5 --prime":
        "0957ba68f430c03defc2ddbc8f16b3c61740e329152689d7ce32808d3cac1812",
    "airy --x 10.5 --k 5 --precision-bits 384":
        "2eb6401fafd142f9c45affce89b0fbf968338877cc3e65c238ed5f3ee18dc7fd",
    "airy --x 10.5 --k 5 --precision-bits 384 --prime":
        "87a4345b158de62797ba240d11dab3085b3be61d669a340b8a189b79cfb3d300",
    "fz --g 7 --r 4 --sigma 1,3":
        "3340d38cca0e4137101f63b8edcbe75bb7949bb955a85d05cb363f641fa2a998",
    "fz --g 10 --r 6 --sigma 1,4":
        "3dfffef6af60a856589e8e57909668388e06b20f21046090b16d02759b50f474",
    # Repeated parts and five parts, of both classes mod 3: the p^sigma'
    # parts of log Psi with more than one factor u_j, and their row order.
    "fz --g 9 --r 5 --sigma 1,1,3":
        "3e53146e1ae9c27bd09df65da7e8fb765d6c1923f9378f4ba4cabcb7e3c8a49c",
    "fz --g 13 --r 8 --sigma 1,1,1,3,4":
        "57ec31a77d4cd842bb52223883d3b44b3b658acb0899f9405e78dc61b7b4076c",
    "fz --g 13 --r 8 --sigma 1,1,1,3,4 --format text":
        "a74c579638367fa1de206554f190c022e20f184e9d04c861b1c9c055e2e43cd0",
    # Four and nine parts at larger g and r: many sub-multisets of sigma,
    # and (1^7, 3, 4) the longest partition the CI step times.
    "fz --g 16 --r 10 --sigma 1,1,3,4":
        "268e6f54a9e4b9dcdf971f41086dceedc4b7925039d63e160450cc1352ad06ef",
    "fz --g 24 --r 13 --sigma 1,1,1,1,1,1,1,3,4":
        "b393117edb9331adabb05e8cc4bc2feb97d11eaecfd6c1d8d938f276cefcb5db",
    "fz --g 24 --r 13 --sigma 1,1,1,1,1,1,1,3,4 --format text":
        "3535028e997bc83a54a90a1116da17e6644566166569d3d443b152e07cadd15c",
    "frobenius r-matrix --order 20":
        "748640cd0a1e341bced8c9b2cd87dd66fb0522ecbc3e8da9e600a79b401240a7",
    "frobenius flatness --order 20":
        "f654150941b086b3da32f15a0736570ccaae963da95b890147607b09a031dc9f",
    "verify frobenius":
        "2d45e374ae54620efd95fa42bc49b162efd562b813a9c8d84f8c0bd4b38bc6ab",
    "verify flatness":
        "59388164d3a56049c4e4e1605b47eae34773a70f395a14994e10543fd35942bb",
    "verify open --order 20":
        "4b19a051ca7bc7573f2bb225c59835bf2765a498b0a493b0b3cafb6f45f1c4a9",
    "descendents open --degree 20":
        "d2bbf24009c6b559782c05ed0dfd871c39212603ac66eefb18fd66d9062feabf",
    # The deepest right sides of the open KdV system the CI step reaches.
    "verify open --order 28":
        "d5b328d6d9fbca1dfda28d3ae1696166b4fffdcdb8c34b3aea2decb28be20648",
    "descendents open --degree 28":
        "6686e9431111f146b02b6ccfd2bc950cd0cdf2de85cc1af608ce4ea271fc42c1",
    "verify strata":
        "cb5b9e921b2665e7d3521c12474e935284d69e691895cd06b6734b456fc41eb8",
    # Legs of both markings at a decoration budget of 2 and more.
    "pixton --g 3 --n 1 --a 1 --d 3":
        "d3e5db1658bdf049c33419e3ef803a1e9eda31450f4053734da919ea45f3874d",
    "pixton --g 3 --n 1 --a 0 --d 4":
        "001c18ede2ebe0b09d338e1d3fbed05c3a216eed1a308a617d6eb57d8205e342",
    # The vertex factor at a decoration budget of 5.
    "pixton --g 4 --n 0 --d 5":
        "154be9f15819069c028635213ca87dbe18ad8fb312fd50e22805c3f084406925",
}


class TestGoldenReports:
    @pytest.mark.parametrize("command", list(GOLDEN_REPORTS))
    def test_report_digest(self, command):
        argv = command.split()
        if "--format" in argv:
            code, text = dispatch(argv)
            text = "\n".join(line for line in text.split("\n")
                             if not line.split(":")[0].endswith("_time_s"))
        else:
            code, out = dispatch(argv + ["--format", "json"])
            text = cli.render(_without_times(json.loads(out)), "json")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[command]


class TestMain:
    def test_main_prints_and_returns(self, capsys):
        code = cli.main(["series", "--order", "0"])
        assert code == 0
        assert "coefficients" in capsys.readouterr().out

    def test_closed_pipe_ends_quietly(self):
        # The report (about 700 KB) outgrows the pipe's buffer, so the
        # write is still blocked when the reader closes its end.
        import tautrel

        src = str(Path(tautrel.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "tautrel.cli", "descendents", "closed",
             "--degree", "36"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline() == b"degree: 36\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
