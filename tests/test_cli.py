import json

import pytest

from tautrel import cli, named_series
from tautrel.cli import dispatch


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
            (["verify", "flatness", "--order", "1"], "flatness needs"),
            (["verify", "descendents", "--order", "3"], "descendents needs"),
            (["verify", "series", "--order", "1"], "series needs"),
            (["airy", "--x", "-1"], "--x: expected a finite positive"),
            (["airy", "--x", "nan"], "--x: expected a finite positive"),
            (["airy", "--precision-bits", "10"], "expected an integer >= 64"),
            (["airy", "--k", "-1"], "--k: expected a non-negative"),
            (["fz", "--g", "3", "--r", "2", "--sigma", "2"], "not 2 mod 3"),
            (["fz", "--g", "-1", "--r", "2"], "--g: expected a non-negative"),
            (["descendents", "closed", "--degree", "-3"], "--degree: expected"),
        ],
    )
    def test_out_of_range_argument_is_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobenius", "r-matrix", "--model", "cp1", "--order", "0"],
            ["verify", "descendents", "--order", "8"],
            ["verify", "flatness", "--order", "2"],
        ],
    )
    def test_smallest_order_runs(self, argv):
        code, _ = dispatch(argv)
        assert code == 0


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

    def test_descendents_table_bad_input(self):
        code, _ = dispatch(["descendents", "table", "--ks", "-1"])
        assert code == 1

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
    def test_series_suite(self):
        code, out = dispatch(
            ["verify", "series", "--order", "20", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["order"] == 20
        assert {"seed", "wall_time_s", "threads"} <= set(data)
        names = [c["name"] for c in data["checks"]]
        assert "first_ode" in names and "reflection" in names

    def test_flatness_suite(self):
        code, out = dispatch(
            ["verify", "flatness", "--order", "4", "--format", "json"]
        )
        data = json.loads(out)
        assert data["ok"]
        assert any(c["name"] == "branch-1_second_order" for c in data["checks"])

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

    def test_all_runs_in_dependency_order(self):
        code, out = dispatch(["verify", "all", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [s["suite"] for s in data["suites"]] == [
            "series", "descendents", "open", "strata", "pixton", "frobenius",
        ]

    def test_thread_env_respected(self, monkeypatch):
        monkeypatch.setenv("TAUTREL_THREADS", "2")
        code, out = dispatch(["verify", "strata", "--format", "json"])
        assert json.loads(out)["threads"] == 2

    def test_thread_env_invalid(self, monkeypatch):
        monkeypatch.setenv("TAUTREL_THREADS", "many")
        code, out = dispatch(["verify", "strata", "--format", "json"])
        assert code == 1
        assert "TAUTREL_THREADS" in out


class TestMain:
    def test_main_prints_and_returns(self, capsys):
        code = cli.main(["series", "--order", "0"])
        assert code == 0
        assert "coefficients" in capsys.readouterr().out
