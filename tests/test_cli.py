"""Command-line surface: formats, exit codes, determinism."""

import argparse
import hashlib
import json
import re
import time

import pytest

import zetasums.cli as cli
from zetasums import IdentityReport, Sign, StopRule, eulerian_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_closed_form_route(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "kappa", "--s", "4",
                             "--method", "closed")
        assert code == 0 and err == ""
        assert "method      CLOSED_FORM" in out
        assert "1.20205690" in out

    def test_direct_reference_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "kappa-alt", "--s", "2",
                           "--method", "direct")
        assert code == 0
        assert "value       1.23370055" in out
        assert "method      DIRECT" in out

    def test_auto_picks_transform_for_small_a(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "general-ab", "--s", "4",
                           "--a", "0.01", "--b", "1")
        assert code == 0
        assert "method      TRANSFORMED" in out
        terms = int(out.split("terms_used")[1].split()[0])
        assert terms <= 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "kappa", "--s", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "terms_used", "tail_bound", "method"}
        assert abs(doc["value"] - 1.2020569031595942) < 1e-10

    def test_domain_error_exit_two(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "moment", "--s", "4",
                             "--m", "3")
        assert code == 2
        assert err.startswith("error:")
        assert "requires s > 5" in err

    def test_m_on_unweighted_family_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "kappa", "--m", "2", "--s", "3")
        assert code == 2
        assert err.startswith("error:") and "moment" in err

    @pytest.mark.parametrize("argv, method", [
        (("kappa", "--s", "3"), "CLOSED_FORM"),
        (("kappa-alt", "--s", "1.5"), "CLOSED_FORM"),
        (("moment", "--m", "3", "--s", "6.5"), "CLOSED_FORM"),
        (("moment-alt", "--m", "2", "--s", "4"), "CLOSED_FORM"),
        (("moment-alt", "--m", "3", "--s", "5"), "CLOSED_FORM"),
        (("even-arg-moment", "--m", "1", "--s", "4"), "CLOSED_FORM"),
        (("even-arg-moment", "--m", "3", "--s", "6"), "CLOSED_FORM"),
        (("shifted", "--s", "3", "--a", "0.5"), "CLOSED_FORM"),
        (("shifted-alt", "--s", "2", "--a", "0.3"), "CLOSED_FORM"),
        (("general-ab", "--s", "4", "--a", "0.01"), "TRANSFORMED"),
        (("general-ab", "--s", "3", "--a", "9"), "DIRECT"),
        (("general-ab-alt", "--s", "3", "--a", "0.05"), "TRANSFORMED"),
        (("general-ab-alt", "--s", "3", "--a", "5"), "DIRECT"),
        (("exp-weighted", "--s", "3", "--a", "0.01", "--c", "0.01"), "TRANSFORMED"),
        (("exp-weighted", "--s", "3", "--a", "5", "--c", "0.01"), "DIRECT"),
    ])
    def test_auto_route(self, capsys, argv, method):
        code, out, _ = run(capsys, "eval", "--family", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["method"] == method

    @pytest.mark.parametrize("argv", [
        ("moment", "--m", "12", "--s", "14.5", "--tol", "1e-14"),
        ("moment-alt", "--m", "12", "--s", "13.5", "--tol", "1e-12"),
    ])
    def test_auto_falls_back_where_the_closed_form_cannot_certify_tol(self, capsys, argv):
        # the closed form's cancellation costs more than tol; the direct
        # route's exact tail certifies at its first term
        code, _, err = run(capsys, "eval", "--family", *argv, "--method", "closed")
        assert code == 2 and "unattainable" in err
        code, out, _ = run(capsys, "eval", "--family", *argv, "--format", "json")
        assert code == 0
        r = json.loads(out)
        assert r["method"] == "DIRECT" and r["terms_used"] == 1
        assert r["tail_bound"] <= float(argv[-1])

    def test_floor_count_beyond_double_range_is_a_typed_error(self, capsys, monkeypatch):
        # near s = 1 the floor crossing overflows a double; it counts as past
        # the budget instead of escaping as an OverflowError
        monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--family", "kappa-alt", "--s", "1.001",
                           "--stop", "term-floor", "--method", "direct")
        assert code == 2 and err.startswith("error:") and "term budget" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        # the Lerch floor count's power of a negative number was complex
        ("exp-weighted", "--s", "1e14", "--a", "1", "--c", "0.1", "--method", "transformed",
         "--stop", "term-floor"),
        # a NaN strip-integral width refused no check: the series ran on
        ("general-ab-alt", "--s", "1e30", "--a", "0.5", "--b", "1", "--method", "transformed"),
    ])
    def test_huge_s_refusal_exit_two(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ZS_TERM_BUDGET", "200")
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--family", *argv)
        assert code == 2 and out == "" and "unattainable" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv, method, other", [
        # two infinite floor counts tie, and ties go to the transformation
        (("general-ab-alt", "--s", "1.001", "--a", "0.5", "--b", "1"),
         "TRANSFORMED", "direct"),
        # the geometric cap keeps the direct count finite
        (("exp-weighted", "--s", "1.001", "--a", "0.5", "--c", "0.5"),
         "DIRECT", "transformed"),
    ])
    def test_auto_route_with_infinite_floor_count(self, capsys, argv, method, other):
        code, out, _ = run(capsys, "eval", "--family", *argv, "--format", "json")
        assert code == 0
        auto = json.loads(out)
        assert auto["method"] == method
        code, out, _ = run(capsys, "eval", "--family", *argv, "--format", "json",
                           "--method", other)
        assert code == 0
        ref = json.loads(out)
        assert abs(auto["value"] - ref["value"]) <= auto["tail_bound"] + ref["tail_bound"]

    @pytest.mark.parametrize("argv", [
        ("general-ab", "--a", "1e-10", "--b", "1", "--method", "transformed"),
        ("general-ab", "--a", "0.5", "--b", "1e-11", "--method", "auto"),
        ("general-ab", "--a", "0.5", "--b", "1e-11", "--method", "direct"),
        ("general-ab", "--a", "1e308", "--b", "1", "--method", "direct"),  # 2a + b = inf
        ("shifted", "--a", "1e-11", "--method", "closed"),
        # the closed route fails, and so does the direct one auto falls back to
        ("shifted", "--a", "1e-11", "--method", "auto"),
        ("exp-weighted", "--a", "0.5", "--b", "1e-11", "--c", "0.5", "--method", "auto"),
        ("exp-weighted", "--a", "0.5", "--b", "1e-11", "--c", "0.5", "--method", "direct"),
        ("exp-weighted", "--a", "0.5", "--b", "1e-11", "--c", "0.5", "--method", "transformed"),
    ])
    def test_sum_beyond_double_range_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "eval", "--family", *argv, "--s", "40")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "double range" in err

    @pytest.mark.parametrize("argv, error", [
        # the sum is ~1e87; a lattice spacing of 1e300 overflowed the
        # Euler-Maclaurin envelope's powers of h
        (("general-ab", "--a", "1e300", "--b", "1e-6", "--s", "14.5", "--tol", "2.3e-13",
          "--method", "direct"), "unattainable"),
        # b / a overflowed the Boole start; every lattice point rounds to b
        (("general-ab-alt", "--a", "1.5e-12", "--b", "1e300", "--s", "1.5", "--tol", "1e-4",
          "--method", "direct"), None),
        # auto: the transformation, whose lattice starts at inf, is no choice
        (("general-ab-alt", "--a", "1.5e-12", "--b", "1e300", "--s", "1.5", "--tol", "1e-4",
          "--method", "auto"), None),
        (("exp-weighted", "--a", "1.5e-12", "--b", "1e300", "--c", "0.01", "--sign", "minus",
          "--s", "2.5", "--tol", "1e-4", "--method", "direct"), None),
        # the reciprocal lattice (n + b)/(2a) starts at inf
        (("general-ab-alt", "--a", "1.5e-12", "--b", "1e300", "--s", "2.5", "--tol", "1e-4",
          "--method", "transformed"), "double range"),
        # a strip integral's (K + x)^-s, 5e-9^-40, overflowed on the reciprocal lattice
        (("general-ab-alt", "--a", "1", "--b", "1e-8", "--s", "40", "--method", "transformed"),
         "double range"),
        # a^8 overflowed Boole's walk in the tails of both routes
        *((("exp-weighted", "--a", "1e40", "--b", "1", "--c", "0.001", "--s", "1.01", "--tol",
            "1e-6", "--method", method), None) for method in ("auto", "direct", "transformed")),
    ])
    def test_extreme_affine_inputs_end_typed(self, capsys, argv, error):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--family", *argv, "--format", "json")
        assert time.perf_counter() - start < 5.0
        if error is not None:
            assert code == 2 and out == ""
            assert err.startswith("error:") and error in err
            return
        assert code == 0 and err == ""
        r = json.loads(out)
        mpmath = pytest.importorskip("mpmath")
        s, b = float(argv[argv.index("--s") + 1]), mpmath.mpf(1e300)
        c = float(argv[argv.index("--c") + 1]) if "--c" in argv else 0.0
        tol = float(argv[argv.index("--tol") + 1])
        with mpmath.workdps(40):
            z = mpmath.exp(-c)
            if "1e300" in argv:
                # the weights alternate on one point b: the sum is zeta(s, b)/(1 + e^-c),
                # and zeta(s, b) lies within b^-s (below 1e-450) above b^(1-s)/(s - 1)
                want = b ** (1 - s) / (s - 1) / (1 + z)
            else:
                # past k = 0, zeta(s, 1e40 k + 1) is (1e40 k)^(1-s)/(s - 1) within
                # 1e-40 of itself: the rest is a Lerch transcendent
                ms = mpmath.mpf(s)
                want = mpmath.zeta(ms) + mpmath.mpf(1e40) ** (1 - ms) * z * mpmath.lerchphi(
                    z, ms - 1, 1) / (ms - 1)
            assert abs(r["value"] - want) <= r["tail_bound"]
        assert r["tail_bound"] <= tol

    @pytest.mark.parametrize("budget", ["20000", None])
    def test_lerch_floor_count_past_budget_fails_at_once(self, capsys, monkeypatch, budget):
        # |Phi| on the reciprocal lattice reaches 10 * tol only ~1.2e7 terms out
        if budget is None:
            monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("ZS_TERM_BUDGET", budget)
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", "--family", "exp-weighted", "--s", "1.001",
                           "--a", "0.5", "--c", "0.5", "--method", "transformed",
                           "--stop", "term-floor")
        assert code == 2 and err.startswith("error:") and "term budget" in err
        assert time.perf_counter() - start < 1.0

    def test_unused_parameter_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "general-ab", "--s", "3",
                           "--a", "0.5", "--c", "0.7", "--method", "direct")
        assert code == 2
        assert err.startswith("error:") and "exp-weighted" in err

    def test_closed_unavailable_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "general-ab", "--s", "4",
                           "--a", "0.5", "--b", "1", "--method", "closed")
        assert code == 2
        assert "no closed form" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--family", "kappa", "--s", "3",
                           "--format", "json", "--output", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["method"] == "CLOSED_FORM" or doc["method"] == "DIRECT"

    def test_unwritable_output_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--family", "kappa", "--s", "3",
                           "--output", str(tmp_path / "missing" / "x.txt"))
        assert code == 2
        assert err.startswith("error:")


# a point of each family: general-ab where auto picks each series route, and
# exp-weighted at both signs and at c = 0, where its transformation is the
# unweighted one
_BYTE_POINTS = (
    ("kappa", "--s", "3"),
    ("kappa-alt", "--s", "2.5"),
    ("moment", "--m", "2", "--s", "5"),
    ("moment-alt", "--m", "2", "--s", "4"),
    ("even-arg-moment", "--m", "1", "--s", "4"),
    ("shifted", "--s", "3", "--a", "0.5"),
    ("shifted-alt", "--s", "2.5", "--a", "0.3"),
    ("general-ab", "--s", "4", "--a", "0.1", "--b", "1"),
    ("general-ab", "--s", "3", "--a", "9", "--b", "0.7"),
    ("general-ab-alt", "--s", "3", "--a", "0.25", "--b", "1"),
    ("exp-weighted", "--s", "3", "--a", "0.5", "--b", "1", "--c", "0.7"),
    ("exp-weighted", "--s", "2", "--a", "0.25", "--b", "0.5", "--c", "1.2", "--sign", "minus"),
    ("exp-weighted", "--s", "3", "--a", "0.5", "--b", "1", "--c", "0", "--sign", "minus"),
)

# points where some routes or all of them refuse, typed
_BYTE_ERRORS = (
    ("moment", "--m", "3", "--s", "4"),  # below s_min
    ("kappa", "--m", "2", "--s", "3"),  # a parameter the family does not take
    ("general-ab", "--s", "3", "--a", "0.5", "--c", "0.7"),
    ("moment", "--m", "12", "--s", "14.5", "--tol", "1e-14"),  # closed cannot certify
    ("shifted", "--a", "1e-11", "--s", "40"),  # closed and direct both fail
    ("general-ab", "--a", "0.5", "--b", "1e-11", "--s", "40"),
    ("general-ab-alt", "--a", "1", "--b", "1e-8", "--s", "40"),
    ("exp-weighted", "--a", "0.5", "--b", "1e-11", "--c", "0.5", "--s", "40"),
    ("kappa-alt", "--s", "1.001"),  # the floor count is past the term budget
)

# sha256 over every request's (argv, exit code, stdout, stderr), recorded
# while cmd_eval still held its own route ladder
_EVAL_BYTES_SHA256 = "ade7c5fbbb7ac73bc8617394ee7658315ea640f2d6f152f92ddbcae4cd84b8e2"


def test_eval_bytes_are_pinned(capsys, monkeypatch):
    # every family and --method, --stop and --format, and the typed
    # refusals: a route change that moves any byte of eval's output fails
    monkeypatch.delenv("ZS_TERM_BUDGET", raising=False)
    digest = hashlib.sha256()
    for point in _BYTE_POINTS + _BYTE_ERRORS:
        for method in ("auto", "direct", "closed", "transformed"):
            for stop in ("earliest", "term-floor"):
                for fmt in ("text", "json"):
                    argv = ("eval", "--family", *point, "--method", method, "--stop", stop,
                            "--format", fmt)
                    code, out, err = run(capsys, *argv)
                    digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == _EVAL_BYTES_SHA256


class TestIdentityCheck:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "identity-check", "2.1", "--s", "4")
        assert code == 0
        assert out.startswith("PASS 2.1 ")
        assert "1/1 identities passed" in out

    def test_alias_and_grid(self, capsys):
        code, out, _ = run(capsys, "identity-check", "moment-m1", "--grid", "default")
        assert code == 0
        assert "2/2 identities passed" in out

    def test_all_keys(self, capsys):
        code, out, _ = run(capsys, "identity-check", "all", "--grid", "default")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 69
        assert "69/69 identities passed" in out

    def test_unknown_identity_exit_two(self, capsys):
        code, _, err = run(capsys, "identity-check", "9.9", "--s", "4")
        assert code == 2
        assert "unknown identity" in err

    def test_failed_check_exit_one(self, capsys, monkeypatch):
        fake = IdentityReport(
            identity="2.1", params={"s": 4.0}, lhs_value=1.0, rhs_value=2.0,
            abs_diff=1.0, rel_diff=0.5, budget=1e-10, passed=False,
        )
        monkeypatch.setattr(cli, "check_identity", lambda *a, **k: fake)
        code, out, _ = run(capsys, "identity-check", "2.1", "--s", "4")
        assert code == 1
        assert out.startswith("FAIL 2.1 ")
        assert "0/1 identities passed" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "identity-check", "2.2", "--s", "1.5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["identity"] == "2.2"
        assert doc[0]["passed"] is True
        assert set(doc[0]) == {
            "identity", "params", "lhs_value", "rhs_value",
            "abs_diff", "rel_diff", "budget", "passed",
        }


class TestBenchmark:
    def test_json_shape_and_windows(self, capsys):
        code, out, _ = run(capsys, "benchmark", "--format", "json")
        assert code == 0
        rows = {row["a"]: row for row in json.loads(out)}
        assert set(rows) == {0.1, 0.01}
        for row in rows.values():
            assert row["status"] == "ok"
            assert row["report"]["agreement"] <= 1e-8
            assert "direct_ms" not in row and "_direct_ms" not in row
            assert set(row["report"]) == {
                "agreement", "lhs_terms", "lhs_value",
                "rhs_terms", "rhs_value", "speedup_estimate",
            }
        assert 1000 <= rows[0.1]["report"]["lhs_terms"] <= 2500
        assert rows[0.1]["report"]["rhs_terms"] <= 20
        assert 10000 <= rows[0.01]["report"]["lhs_terms"] <= 30000
        assert rows[0.01]["report"]["rhs_terms"] <= 3

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "benchmark", "--format", "json")
        _, out2, _ = run(capsys, "benchmark", "--format", "json")
        assert out1 == out2

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "benchmark", "--format", "csv", "--a-list", "0.2")
        assert code == 0
        head = out.splitlines()[0]
        assert head == ("a,direct_terms,transformed_terms,agreement,"
                        "speedup_estimate,direct_ms,transformed_ms,status")
        assert len(out.splitlines()) == 2

    # a = 0.1 and 0.001 pass the 1000-term budget on the direct route
    _BUDGET_ROW = (
        "direct evaluation of general-ab exceeded the term budget (1000); "
        "a transformed or closed route may be cheaper"
    )

    @pytest.mark.parametrize("fmt, want", [
        ("json", '[{"a": 0.1, "detail": "%s", "status": "term-budget-exceeded"}, '
                 '{"a": 0.001, "detail": "%s", "status": "term-budget-exceeded"}, '
                 '{"a": 2.0, "report": {"agreement": 2.220446049250313e-16, '
                 '"lhs_terms": 76, "lhs_value": 1.108367467381893, "rhs_terms": 300, '
                 '"rhs_value": 1.1083674673818933, "speedup_estimate": 0.25333333333333335}, '
                 '"status": "ok"}]\n' % (_BUDGET_ROW, _BUDGET_ROW)),
        ("csv", "a,direct_terms,transformed_terms,agreement,speedup_estimate,"
                "direct_ms,transformed_ms,status\n"
                "0.1,,,,,,,term-budget-exceeded\n"
                "0.001,,,,,,,term-budget-exceeded\n"
                "2.0,76,300,2.220446049250313e-16,0.25333333333333335,MS,MS,ok\n"),
        ("text", "a=0.1: term-budget-exceeded (%s)\n"
                 "a=0.001: term-budget-exceeded (%s)\n"
                 "a=2: direct 76 terms (MS ms), transformed 300 terms (MS ms), "
                 "agreement 2.220446049e-16, speedup 0.3x [ok]\n"
                 % (_BUDGET_ROW, _BUDGET_ROW)),
    ])
    def test_term_budget_row_bytes(self, capsys, monkeypatch, fmt, want):
        monkeypatch.setenv("ZS_TERM_BUDGET", "1000")
        code, out, err = run(capsys, "benchmark", "--a-list", "0.1,0.001,2",
                             "--format", fmt)
        assert code == 0 and err == ""
        out = re.sub(r"\d+\.\d+,\d+\.\d+,ok", "MS,MS,ok", out)
        assert re.sub(r"\(\d+\.\d+ ms\)", "(MS ms)", out) == want

    def test_text_row_shape(self, capsys):
        code, out, _ = run(capsys, "benchmark", "--a-list", "0.25", "--s", "3",
                           "--b", "0.5")
        assert code == 0
        assert "a=0.25:" in out and "[ok]" in out and "speedup" in out


class TestTable:
    def test_eulerian_matches_library(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "eulerian", "--m-max", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            want = eulerian_polynomial(row["m"])
            assert row["coefficients"] == [str(n) for n in want]

    def test_identity_sweep_csv_header(self, capsys):
        code, out, _ = run(capsys, "table", "--identity", "2.1",
                           "--s-grid", "3:5:1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "identity,s,lhs,rhs,abs_diff,pass"
        assert len(lines) == 4  # s = 3, 4, 5
        assert all(line.endswith(",true") for line in lines[1:])

    def test_c_grid_includes_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--identity", "4.4", "--s", "3",
                           "--c-grid", "0:1:0.5", "--format", "csv",
                           "--a", "0.5", "--b", "1")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        assert rows[0].split(",")[1] == "0.0"

    def test_identity_and_family_together_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--identity", "2.1",
                           "--family", "eulerian")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("family, fmt, want", [
        ("eulerian", "csv", "m,offset,coefficients\n1,0,1\n2,0,1 1\n3,0,1 4 1\n"),
        ("eulerian", "text", "m=1 offset=0: 1\nm=2 offset=0: 1, 1\nm=3 offset=0: 1, 4, 1\n"),
        ("faulhaber", "csv",
         "m,offset,coefficients\n0,1,1\n1,1,1/2 1/2\n2,1,1/6 1/2 1/3\n3,2,1/4 1/2 1/4\n"),
        ("faulhaber", "text", "m=0 offset=1: 1\nm=1 offset=1: 1/2, 1/2\n"
                              "m=2 offset=1: 1/6, 1/2, 1/3\nm=3 offset=2: 1/4, 1/2, 1/4\n"),
        ("bernoulli", "csv", "n,value\n0,1\n1,-1/2\n2,1/6\n3,0\n"),
        ("bernoulli", "text", "B_0 = 1\nB_1 = -1/2\nB_2 = 1/6\nB_3 = 0\n"),
        ("eulerian", "json",
         '{"family": "eulerian", "rows": [{"coefficients": ["1"], "m": 1, "offset": 0}, '
         '{"coefficients": ["1", "1"], "m": 2, "offset": 0}, '
         '{"coefficients": ["1", "4", "1"], "m": 3, "offset": 0}]}\n'),
        ("faulhaber", "json",
         '{"family": "faulhaber", "rows": [{"coefficients": ["1"], "m": 0, "offset": 1}, '
         '{"coefficients": ["1/2", "1/2"], "m": 1, "offset": 1}, '
         '{"coefficients": ["1/6", "1/2", "1/3"], "m": 2, "offset": 1}, '
         '{"coefficients": ["1/4", "1/2", "1/4"], "m": 3, "offset": 2}]}\n'),
        ("bernoulli", "json",
         '{"family": "bernoulli", "rows": [{"n": 0, "value": "1"}, {"n": 1, "value": "-1/2"}, '
         '{"n": 2, "value": "1/6"}, {"n": 3, "value": "0"}]}\n'),
    ])
    def test_coefficient_table_bytes(self, capsys, family, fmt, want):
        code, out, err = run(capsys, "table", "--family", family, "--m-max", "3",
                             "--format", fmt)
        assert code == 0 and err == ""
        assert out == want

    @pytest.mark.parametrize("fmt, want", [
        ("json", '[{"abs_diff": 0.0, "identity": "2.1", "lhs": 1.6449340668482264, '
                 '"pass": true, "rhs": 1.6449340668482264, "s": 3.0}, '
                 '{"abs_diff": 0.0, "identity": "2.1", "lhs": 1.2020569031595942, '
                 '"pass": true, "rhs": 1.2020569031595942, "s": 4.0}]\n'),
        ("text", "PASS 2.1 s=3.0 lhs=1.644934067 rhs=1.644934067 abs_diff=0 "
                 "budget=3.674269023e-15\n"
                 "PASS 2.1 s=4.0 lhs=1.202056903 rhs=1.202056903 abs_diff=0 "
                 "budget=2.387862305e-15\n"),
    ])
    def test_identity_table_bytes(self, capsys, fmt, want):
        code, out, err = run(capsys, "table", "--identity", "2.1", "--s-grid", "3:4:1",
                             "--format", fmt)
        assert code == 0 and err == ""
        assert out == want

    def test_bernoulli_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "bernoulli", "--m-max", "12",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        by_n = {row["n"]: row["value"] for row in doc["rows"]}
        assert by_n[12] == "-691/2730"


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (("identity-check", "all"), "requires --grid default"),
        (("identity-check", "2.1"), "needs --s"),
        (("table", "--identity", "2.1"), "exactly one of --s-grid or --c-grid"),
        (("table", "--identity", "2.1", "--s-grid", "3:4:1", "--c-grid", "0:1:1"),
         "exactly one of --s-grid or --c-grid"),
        (("table", "--identity", "4.4", "--c-grid", "0:1:0.5", "--a", "0.5", "--b", "1"),
         "needs a fixed --s"),
    ])
    def test_missing_or_conflicting_options_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    # a non-finite grid bound once looped until memory ran out (an infinite
    # hi) or swept nothing and exited 0 (a NaN, or an infinite step), and so
    # did an empty --a-list
    @pytest.mark.parametrize("argv, message", [
        (("eval", "--family", "bogus", "--s", "3"), "unknown family 'bogus'"),
        (("eval", "--family", "kappa", "--s", "3", "--tol", "-1"), "must be positive"),
        (("benchmark", "--a-list", ","), "expected comma-separated floats"),
        (("benchmark", "--a-list", "0.1,x"), "expected comma-separated floats"),
        (("table", "--identity", "2.1", "--s-grid", "3:5"), "grid must be lo:hi:step"),
        (("table", "--identity", "2.1", "--s-grid", "3:5:0"), "grid needs step > 0 and hi >= lo"),
        (("table", "--identity", "2.1", "--s-grid", "5:3:1"), "grid needs step > 0 and hi >= lo"),
    ] + [
        (("table", "--identity", "2.1", f"--s-grid={grid}"), "must be finite")
        for grid in ("3:inf:1", "-inf:3:1", "inf:inf:1", "3:nan:1", "nan:5:1", "3:5:inf",
                     "3:5:nan")
    ] + [
        (("table", "--identity", "4.4", "--s", "3", "--c-grid", "0:nan:0.5"), "must be finite"),
        # about 10^18 points: the grid is refused before any is built
        (("table", "--identity", "2.1", "--s-grid", "3:1e15:1e-3"),
         "grid has 1e+18 points; at most 10000 are allowed"),
        (("table", "--identity", "2.1", "--s-grid", "3:10003:1"),
         "grid has 10001 points; at most 10000 are allowed"),
    ])
    def test_bad_arguments_exit_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, None)
_FORMATS = ("text", "json")
_FORMATS_CSV = ("text", "json", "csv")

# every action of each subcommand, in order: option strings, dest, default,
# choices, required, type; the top-level parser holds only -h
_ACTIONS = {
    "eval": [
        _HELP,
        (("--family",), "family", None, None, True, cli._family),
        (("--s",), "s", None, None, True, float),
        (("--m",), "m", 0, None, False, int),
        (("--a",), "a", 1.0, None, False, cli._positive_float),
        (("--b",), "b", 1.0, None, False, cli._positive_float),
        (("--c",), "c", 0.0, None, False, float),
        (("--sign",), "sign", Sign.PLUS, None, False, cli._sign),
        (("--tol",), "tol", 1e-8, None, False, cli._positive_float),
        (("--method",), "method", "auto", ("auto", "direct", "closed", "transformed"), False,
         None),
        (("--stop",), "stop", StopRule.EARLIEST, None, False, cli._stop),
        (("--format",), "format", "text", _FORMATS, False, None),
        (("--output",), "output", None, None, False, None),
    ],
    "identity-check": [
        _HELP,
        ((), "identity", None, None, True, None),
        (("--s",), "s", None, None, False, float),
        (("--a",), "a", None, None, False, cli._positive_float),
        (("--b",), "b", None, None, False, cli._positive_float),
        (("--c",), "c", None, None, False, float),
        (("--sign",), "sign", None, None, False, cli._sign),
        (("--tol",), "tol", 1e-10, None, False, cli._positive_float),
        (("--grid",), "grid", None, ("default",), False, None),
        (("--format",), "format", "text", _FORMATS, False, None),
        (("--output",), "output", None, None, False, None),
    ],
    "benchmark": [
        _HELP,
        (("--s",), "s", 4.0, None, False, float),
        (("--b",), "b", 1.0, None, False, cli._positive_float),
        (("--tol",), "tol", 1e-8, None, False, cli._positive_float),
        (("--a-list",), "a_list", [0.1, 0.01], None, False, cli._float_list),
        (("--format",), "format", "text", _FORMATS_CSV, False, None),
        (("--output",), "output", None, None, False, None),
    ],
    "table": [
        _HELP,
        (("--identity",), "identity", None, None, False, None),
        (("--family",), "family_table", None, ("eulerian", "faulhaber", "bernoulli"), False,
         None),
        (("--m-max",), "m_max", 6, None, False, int),
        (("--s-grid",), "s_grid", None, None, False, cli._grid_range),
        (("--c-grid",), "c_grid", None, None, False, cli._grid_range),
        (("--s",), "s", None, None, False, float),
        (("--a",), "a", None, None, False, cli._positive_float),
        (("--b",), "b", None, None, False, cli._positive_float),
        (("--c",), "c", None, None, False, float),
        (("--sign",), "sign", None, None, False, cli._sign),
        (("--tol",), "tol", 1e-10, None, False, cli._positive_float),
        (("--format",), "format", "text", _FORMATS_CSV, False, None),
        (("--output",), "output", None, None, False, None),
    ],
}


def _rows(parser):
    return [
        (tuple(a.option_strings), a.dest, a.default, a.choices, a.required, a.type)
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


def test_parser_declares_the_pinned_options():
    # the structure, not the rendered --help, which argparse words
    # differently from one Python version to the next
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _rows(parser) == [_HELP]
    assert (sub.dest, sub.required) == ("subcommand", True)
    assert list(sub.choices) == list(_ACTIONS)
    for name, rows in _ACTIONS.items():
        assert _rows(sub.choices[name]) == rows, name


def _grid_by_loop(lo, hi, step):
    """The grid as the point-by-point loop builds it: the reference for _grid_range."""
    eps = min(1e-9 * max(1.0, abs(hi)), 1e-3 * step)
    out = []
    while lo + len(out) * step <= hi + eps:
        out.append(lo + len(out) * step)
    return out


@pytest.mark.parametrize("lo, hi, step", [
    (3.0, 5.0, 1.0), (0.0, 1.0, 0.1), (1.5, 1.5, 0.25), (0.0, 0.3, 0.1), (2.0, 2.95, 0.05),
    (-1e6, 1e6, 250.0), (1e-3, 1.0, 1e-3), (0.0, 9999.0, 1.0), (0.0, 0.9999, 1e-4),
    (1e6, 1e6 + 64.0, 8.0), (1e6, 1e6 + 1e-3, 1e-4), (-7.3, -1.1, 0.37),
])
def test_grid_range_keeps_the_loop_points(lo, hi, step):
    grid = cli._grid_range(f"{lo!r}:{hi!r}:{step!r}")
    assert grid == _grid_by_loop(lo, hi, step)
    assert len(grid) <= cli._GRID_MAX_POINTS


def test_fine_grid_at_large_hi_stops_at_hi():
    # the slack once scaled with hi alone: 1e-3 here, ten steps past hi
    grid = cli._grid_range("1000000:1000000.001:0.0001")
    assert len(grid) == 11 and grid[-1] == 1000000.001
