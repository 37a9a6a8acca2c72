from math import comb

import pytest

from gradedlimits.families import BlockSchedule
from gradedlimits.monomial import MonomialIdeal
from gradedlimits.specfiles import (
    SpecError,
    build_family,
    build_semigroup,
    build_series,
    load_ideal,
    parse_ideal_text,
    parse_spec,
)


def format_ideal(ideal: MonomialIdeal) -> str:
    return "".join(" ".join(str(e) for e in g) + "\n" for g in ideal.gens)


def dump_spec(spec: dict[str, list[str]]) -> str:
    return "".join(f"{key}: {v}\n" for key, values in spec.items() for v in values)


class TestIdealFiles:
    def test_parse_with_comments(self):
        text = "# staircase\n2 0\n1 1  # mixed\n\n"
        ideal = parse_ideal_text(text)
        assert ideal == MonomialIdeal(2, ((2, 0), (1, 1)))

    def test_round_trip(self):
        ideal = MonomialIdeal(3, ((2, 0, 1), (0, 3, 0), (1, 1, 1)))
        assert parse_ideal_text(format_ideal(ideal)) == ideal

    def test_ragged_rejected(self):
        with pytest.raises(SpecError, match="expected 2 exponents"):
            parse_ideal_text("1 0\n1 2 3\n")

    def test_empty_rejected(self):
        with pytest.raises(SpecError, match="no generators"):
            parse_ideal_text("# nothing\n")

    def test_load(self, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("4 0\n0 4\n")
        assert load_ideal(p) == MonomialIdeal(2, ((4, 0), (0, 4)))


class TestSpecFormat:
    def test_parse_repeated_keys(self):
        spec = parse_spec("kind: semigroup\ngenerator: 0 1\ngenerator: 1 2\n")
        assert spec["generator"] == ["0 1", "1 2"]

    def test_round_trip(self):
        spec = parse_spec("kind: family\nfamily: valuation\nlambda: 1 2\n"
                          "horizon: 100\n")
        assert parse_spec(dump_spec(spec)) == spec

    def test_round_trip_with_repeats(self):
        spec = {"kind": ["semigroup"], "generator": ["0 1", "1 1"]}
        assert parse_spec(dump_spec(spec)) == spec

    def test_bad_line(self):
        with pytest.raises(SpecError, match="key"):
            parse_spec("just some words\n")


class TestBuilders:
    def test_semigroup(self):
        s = build_semigroup(parse_spec("generator: 0 1\ngenerator: 1 2\n"))
        assert s.point_dim == 1
        assert s.level(2) == {(0,), (1,)}

    def test_semigroup_needs_generators(self):
        with pytest.raises(SpecError, match="generator"):
            build_semigroup(parse_spec("kind: semigroup\n"))

    def test_family_valuation(self):
        f = build_family(parse_spec("family: valuation\nlambda: 1 2\n"))
        assert f.name == "valuation" and f.dim == 2

    def test_family_inline_ideal(self):
        f = build_family(parse_spec("family: power\nideal: 2 0; 0 3\n"))
        assert f.ideal(1) == MonomialIdeal(2, ((2, 0), (0, 3)))

    def test_family_ideal_file(self, tmp_path):
        (tmp_path / "i.ideal").write_text("2 0\n0 3\n")
        f = build_family(parse_spec("family: power\nideal_file: i.ideal\n"),
                         base_dir=tmp_path)
        assert f.ideal(1) == MonomialIdeal(2, ((2, 0), (0, 3)))

    def test_family_unknown(self):
        with pytest.raises(SpecError, match="unknown family"):
            build_family(parse_spec("family: nonsense\n"))

    def test_series_sigma(self):
        s = build_series(parse_spec("series: sigma_growth\ns: 0\nr: 1\n"), 100)
        # the spec's default schedule is the one for horizon 210
        schedule = BlockSchedule.default(210)
        for n in (1, 2, 50, 100):
            sig = schedule.sigma_capped(n)
            assert len(s.level(n)) == s.dim(n) == comb(n, 0) + comb(n + sig + 1, 1)

    def test_series_neg_inf(self):
        s = build_series(parse_spec("series: sigma_growth\ns: -inf\nr: 1\n"), 50)
        from gradedlimits.series import kodaira_iitaka, NEG_INF
        assert kodaira_iitaka(s, 30)[0] == NEG_INF

    def test_series_tset(self):
        s = build_series(parse_spec("series: nil_hyperplane\ntset: mod 3 0\n"), 40)
        assert s.dim(3) == 4 and s.dim(4) == 0
        s2 = build_series(parse_spec("series: nil_hyperplane\ntset: set 2 5\n"), 40)
        assert s2.dim(2) == 3 and s2.dim(3) == 0

    def test_series_unknown(self):
        with pytest.raises(SpecError, match="unknown series"):
            build_series(parse_spec("series: nonsense\n"))

    def test_schedule_override(self):
        # n = 6 lies in an even block of the default 2 6 26 210, where tau is
        # 0, and in an odd block of 2 8 34, where tau is 1
        spec = "family: artin_tau\nt: 1\n"
        assert build_family(parse_spec(spec)).length(6) == 1
        assert build_family(parse_spec(spec + "schedule: 2 8 34\n")).length(6) == 2
