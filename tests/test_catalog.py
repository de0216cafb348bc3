"""Identity catalog: key resolution, dual-route checks, default grids."""

import math

import pytest

import zetasums.catalog as catalog
from zetasums import (
    ALIASES,
    IDENTITY_KEYS,
    DomainError,
    Sign,
    Tolerance,
    UnattainableError,
    check_identity,
    default_grid,
    eval_direct,
    resolve_key,
)


class TestKeyResolution:
    def test_all_keys_present(self):
        assert IDENTITY_KEYS == (
            "2.1", "2.2", "2.3", "2.4",
            "3.1", "3.2", "3.3", "3.7", "3.8",
            "even-m1", "even-m2",
            "4.2", "4.3", "4.4", "corollary",
        )

    def test_canonical_keys_fixed_point(self):
        for key in IDENTITY_KEYS:
            assert resolve_key(key) == key

    def test_aliases_resolve(self):
        for alias, key in ALIASES.items():
            assert resolve_key(alias) == key
        assert resolve_key("kappa") == "2.1"
        assert resolve_key("lerch") == "4.4"
        assert resolve_key("kappa3") == "3.3"

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(DomainError, match="known:"):
            resolve_key("nope")


class TestCheckIdentity:
    def test_simple_pass(self):
        rep = check_identity("2.1", s=4.0)
        assert rep.passed
        assert rep.abs_diff <= rep.budget
        assert rep.identity == "2.1"
        assert rep.params == {"s": 4.0}

    def test_alias_reports_canonical_key(self):
        rep = check_identity("kappa-alt", s=2.0)
        assert rep.identity == "2.2"
        assert rep.passed

    def test_parameterised_identities(self):
        assert check_identity("2.3", s=4.0, a=0.25).passed
        assert check_identity("4.2", s=4.0, a=0.1, b=1.0).passed
        assert check_identity("4.4", s=3.0, a=0.5, b=1.0, c=0.7, sign=Sign.PLUS).passed
        assert check_identity("corollary", s=2.0, a=1.5, sign=Sign.MINUS).passed
        # spacing 1e40: a^8 leaves double range inside both sides' Boole walks
        assert check_identity(
            "4.4", s=1.01, a=1e40, b=1.0, c=1e-3, sign=Sign.PLUS, tol=Tolerance(1e-6)
        ).passed

    def test_moment_keys_carry_m(self):
        rep = check_identity("3.2", s=4.5)
        assert rep.params["m"] == 2
        assert rep.passed

    def test_missing_parameter(self):
        with pytest.raises(DomainError, match="requires parameter a"):
            check_identity("2.3", s=4.0)
        with pytest.raises(DomainError, match="requires parameter b"):
            check_identity("4.2", s=4.0, a=0.1)

    def test_extraneous_parameter(self):
        with pytest.raises(DomainError, match="does not take parameter a"):
            check_identity("2.1", s=4.0, a=1.0)
        with pytest.raises(DomainError, match="does not take parameter c"):
            check_identity("4.2", s=4.0, a=0.1, b=1.0, c=0.5)

    def test_sign_must_be_a_sign(self):
        with pytest.raises(DomainError, match="sign must be a Sign"):
            check_identity("4.4", s=3.0, a=0.5, b=1.0, c=0.7, sign="plus")

    def test_ladder_reraises_when_no_rung_certifies(self):
        # 2^-52 sits below the rounding floor of zeta(2.001) ~ 1000 at every
        # rung of the relaxation ladder
        with pytest.raises(DomainError, match="unattainable"):
            check_identity("2.1", s=2.001, tol=Tolerance(2.0 ** -52))

    @staticmethod
    def _direct_tols(monkeypatch):
        """The tol of each left-hand side run, recorded as it is made."""
        tols = []

        def counted(spec, **kwargs):
            tols.append(spec.tol.abs_tol)
            return eval_direct(spec, **kwargs)

        monkeypatch.setattr(catalog, "eval_direct", counted)
        return tols

    def test_double_range_refusal_ends_at_the_first_rung(self, monkeypatch):
        tols = self._direct_tols(monkeypatch)
        # (1e-8)^-40 leaves double range whatever the tol: no rung can mend it
        with pytest.raises(DomainError, match="exceeds double range") as exc:
            check_identity("4.3", s=40.0, a=1.0, b=1e-8)
        assert not isinstance(exc.value, UnattainableError)
        assert tols == [1e-10]

    def test_unattainable_refusal_climbs_every_rung(self, monkeypatch):
        tols = self._direct_tols(monkeypatch)
        # the sum is about 0.02^-9 ~ 5e15: its rounding exceeds even 256 tol
        with pytest.raises(UnattainableError, match="unattainable"):
            check_identity("2.3", s=9.0, a=0.02, tol=Tolerance(1e-8))
        assert tols == [1e-8 * f for f in (1.0, 4.0, 16.0, 64.0, 256.0)]

    # each message as it read when every rung of either side built its own
    # SumSpec; 2.1 and 2.3 take the closed form on the right, 4.3, 4.4 and
    # the corollary the transformation
    @pytest.mark.parametrize("key, params, message", [
        ("2.1", dict(s=1.5), "family kappa requires s > 2, got s = 1.5"),
        ("2.3", dict(s=2.5, a=-1.0), "a must be > 0 (and not within 1e-12 of 0)"),
        ("4.3", dict(s=1.5, a=1.0, b=math.inf), "b must be finite"),
        ("4.4", dict(s=3.0, a=0.5, b=1.0, c=-0.1), "c must be >= 0"),
        ("corollary", dict(s=0.5, a=1.0, sign=Sign.MINUS),
         "family general-ab-alt requires s > 1, got s = 0.5"),
    ])
    def test_invalid_parameter_refuses_before_either_side(self, monkeypatch, key, params, message):
        ran = []
        monkeypatch.setattr(catalog, "eval_direct", lambda spec, **kw: ran.append("lhs"))
        monkeypatch.setattr(catalog, "evaluate", lambda spec, **kw: ran.append("rhs"))
        with pytest.raises(DomainError) as exc:
            check_identity(key, **params)
        assert str(exc.value) == message and not ran

    @pytest.mark.parametrize("key, params, tol, rungs", [
        # both sides certify at the first rung
        ("4.3", dict(s=1.5, a=1.0, b=1.0), 1e-10, 1),
        # the left-hand side climbs all five rungs
        ("2.3", dict(s=9.0, a=0.02), 1e-8, 5),
    ])
    def test_one_validated_spec_serves_every_rung(self, monkeypatch, key, params, tol, rungs):
        # rung 1 of each side runs the very spec check_identity built; only a
        # later rung makes a Tolerance, and its spec differs in tol alone
        built, specs, relaxed = [], [], []

        class Counted(catalog.SumSpec):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                spec = super().__new__(cls, *args, **kwargs)
                built.append(spec)
                return spec

        def counted_tolerance(abs_tol):
            relaxed.append(abs_tol)
            return Tolerance(abs_tol)

        def recorded(route):
            def run(spec, **kwargs):
                specs.append(spec)
                return route(spec, **kwargs)
            return run

        monkeypatch.setattr(catalog, "SumSpec", Counted)
        monkeypatch.setattr(catalog, "Tolerance", counted_tolerance)
        monkeypatch.setattr(catalog, "eval_direct", recorded(catalog.eval_direct))
        monkeypatch.setattr(catalog, "evaluate", recorded(catalog.evaluate))
        try:
            check_identity(key, tol=Tolerance(tol), **params)
        except UnattainableError:
            pass
        assert len(built) == 1 and len(specs) >= 2
        assert {spec._replace(tol=None) for spec in specs} == {specs[0]._replace(tol=None)}
        first = [spec for spec in specs if spec.tol.abs_tol == tol]
        assert first and all(spec is built[0] for spec in first)
        want = [tol * factor for factor in catalog._LADDER[1:rungs]]
        assert relaxed == [spec.tol.abs_tol for spec in specs if spec is not built[0]] == want

    def test_json_dict_shape(self):
        d = check_identity("2.2", s=1.5).to_json_dict()
        assert set(d) == {
            "identity", "params", "lhs_value", "rhs_value",
            "abs_diff", "rel_diff", "budget", "passed",
        }

    def test_json_dict_is_detached_from_the_report(self):
        rep = check_identity("4.4", s=3.0, a=0.5, b=1.0, c=0.7)
        d = rep.to_json_dict()
        d["params"]["s"] = 99.0
        d["params"]["extra"] = 1
        d["passed"] = None
        assert rep.params == {"s": 3.0, "a": 0.5, "b": 1.0, "c": 0.7, "sign": "plus"}
        assert rep.passed is True
        assert rep.to_json_dict()["params"] is not rep.params

    def test_report_is_conservative(self):
        # the recorded budget must dominate the observed discrepancy
        for key, kw in (
            ("2.4", dict(s=1.5, a=9.75)),
            ("3.7", dict(s=3.5)),
            ("even-m2", dict(s=5.0)),
            ("4.3", dict(s=1.5, a=1.0, b=1.0)),
        ):
            rep = check_identity(key, **kw)
            assert rep.passed and rep.abs_diff <= rep.budget, key


class TestDefaultGrids:
    def test_every_key_has_a_grid(self):
        for key in IDENTITY_KEYS:
            grid = default_grid(key)
            assert grid, key
            assert all("s" in row for row in grid)

    def test_shifted_grid_is_full_cross(self):
        grid = default_grid("2.3")
        assert len(grid) == 20  # 5 s-values x 4 a-values
        assert {row["a"] for row in grid} == {0.25, 1.0, 2.5, 9.75}

    def test_grid_rows_are_copies(self):
        g1 = default_grid("2.1")
        g1[0]["s"] = -99.0
        assert default_grid("2.1")[0]["s"] != -99.0

    def test_alias_grid(self):
        assert default_grid("ab") == default_grid("4.2")

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            default_grid("bogus")


class TestFullSweep:
    def test_all_default_grids_pass(self):
        failures = []
        for key in IDENTITY_KEYS:
            for row in default_grid(key):
                rep = check_identity(key, **row)
                if not rep.passed:
                    failures.append((key, row, rep.abs_diff, rep.budget))
        assert not failures, failures
