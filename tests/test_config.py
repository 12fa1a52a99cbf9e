import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ksdg import (ConfigError, PRESET_NAMES, ModelParams, RunConfig,
                  build_structured_mesh, dumps_config, evaluate_terms,
                  initial_fields, integrate_cellfield, load_config,
                  preset_initial_conditions)
from ksdg.config import (CosCosTerm, GaussianTerm, SinSinTerm, format_terms,
                         parse_terms)


class TestParsing:
    def test_empty_config_gives_model_defaults(self):
        cfg = load_config("")
        p = cfg.params
        assert (p.k0, p.k1, p.k2, p.k3, p.k4) == (1, 1, 1, 1, 1)
        assert p.tau == 1 and p.eps == 1e-10
        assert cfg.domain == (-0.5, 0.5, -0.5, 0.5)

    def test_preset_only_config(self):
        cfg = load_config("[initial]\npreset = one_bulge\n")
        assert cfg.preset == "one_bulge"
        assert cfg.params.tau == 1
        assert cfg.params.dt == 1e-6 and cfg.params.t_end == 1e-4
        assert len(cfg.u0_terms) == 1 and len(cfg.v0_terms) == 1
        assert (cfg.params.k0, cfg.params.eps) == (1.0, 1e-10)

    def test_three_bulges_selects_elliptic_equation(self):
        cfg = load_config("[initial]\npreset = three_bulges\n")
        assert cfg.params.tau == 0
        assert cfg.params.dt == 1e-5
        assert len(cfg.u0_terms) == 3 and cfg.v0_terms == ()

    def test_explicit_keys_override_preset(self):
        cfg = load_config(
            "[initial]\npreset = one_bulge\n[params]\nt_end = 1e-5\n")
        assert cfg.params.t_end == 1e-5
        assert cfg.params.dt == 1e-6

    def test_tau_two_rejected_with_line(self):
        with pytest.raises(ConfigError, match="tau"):
            load_config("[params]\ntau = 2\n")

    def test_unknown_key_reports_line_number(self):
        text = "[mesh]\npattern = mesh1\nwavelength = 3\n"
        with pytest.raises(ConfigError, match="line 3"):
            load_config(text)

    def test_unknown_section_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config("[solver]\n")

    def test_type_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_config("[mesh]\nn = many\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            load_config("n = 4\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            load_config("[mesh]\npattern mesh1\n")

    def test_domain_needs_four_numbers(self):
        with pytest.raises(ConfigError, match="line 2: domain: expects 4"):
            load_config("[mesh]\ndomain = 0 1 0\n")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError, match="pattern must be"):
            load_config("[mesh]\npattern = mesh3\n")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config("[initial]\npreset = four_bulges\n")

    def test_snapshot_times_must_fit_horizon(self):
        text = ("[params]\nt_end = 1e-5\n"
                "[output]\nsnapshot_times = 0 1e-3\n")
        with pytest.raises(ConfigError, match="snapshot"):
            load_config(text)

    def test_scheme_section_rejected(self):
        # the flux is the truncated upwind flux; no section selects it
        with pytest.raises(ConfigError,
                           match=r"^line 1: unknown section \[scheme\]$"):
            load_config("[scheme]\nflux = truncated\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = load_config("# header\n\n[mesh]\nn = 8  # squares\n")
        assert cfg.n == 8

    @pytest.mark.parametrize("text,line", [
        ("[newton]\ntol_residual = 1e-10\n", 1),
        ("[mesh]\nn = 8\n[newton]\nmax_iters = 30\n", 3),
        ("[initial]\npreset = one_bulge\n\n[newton]\ndamping = none\n", 4),
    ])
    def test_newton_section_rejected_at_its_line(self, text, line):
        # Newton stops at the round-off of its rows and needs no settings
        with pytest.raises(ConfigError,
                           match=r"^line %d: unknown section \[newton\]$"
                           % line):
            load_config(text)

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            RunConfig(pattern="hexes")
        with pytest.raises(ConfigError):
            RunConfig(snapshot_times=(2.0,))

    def test_non_integral_square_count_rejected(self):
        with pytest.raises(ConfigError, match="whole number"):
            RunConfig(n=3.7)

    @pytest.mark.parametrize("text,line", [
        ("[params]\nk0 = -1\n", 2),
        ("[params]\ntau = 1\nk0 = -1\n", 3),
        ("[mesh]\npattern = hexes\n", 2),
        ("[mesh]\nn = 0\n", 2),
        ("[params]\nt_end = 1e-5\n[output]\nsnapshot_times = 0 1e-3\n", 4),
        ("[initial]\npreset = one_bulge\n[params]\nk0 = -1\n", 4),
        ("[params]\nt_end = inf\n", 2),
        ("[params]\nk3 = inf\n", 2),
        ("[params]\neps = inf\n", 2),
        ("[params]\ndt = inf\n", 2),
        ("[params]\nt_end = 1e-3\ndt = 1\n", 3),
        ("[params]\ndt = 1e-3\nt_end = 1e-2\nk0 = -1\n", 4),
        ("[mesh]\nn = 3\n", 2),
        ("[mesh]\ndomain = 1 0 0 1\n", 2),
        ("[mesh]\npattern = mesh2\nn = 3\ndomain = 0 1 0 0.7\n", 4),
    ])
    def test_invalid_value_reports_its_line(self, text, line):
        with pytest.raises(ConfigError) as info:
            load_config(text)
        assert info.value.line == line

    def test_values_judged_together_load_in_any_order(self):
        # dt alone exceeds the default horizon; n = 3 alone is odd for mesh1
        cfg = load_config("[mesh]\nn = 3\npattern = mesh2\n"
                          "[params]\ndt = 1e-3\nt_end = 1e-2\n")
        assert (cfg.pattern, cfg.n) == ("mesh2", 3)
        assert (cfg.params.dt, cfg.params.t_end) == (1e-3, 1e-2)

    def test_repeated_key_rejected_at_second_occurrence(self):
        with pytest.raises(ConfigError, match="line 3: repeated key 'n'"):
            load_config("[mesh]\nn = 4\nn = 8\n")

    @pytest.mark.parametrize("path", ["out#1.csv", " out", "out ", "a\nb",
                                      "a\rb"])
    def test_paths_that_cannot_round_trip_rejected(self, path):
        with pytest.raises(ConfigError, match="csv_path"):
            RunConfig(csv_path=path)
        with pytest.raises(ConfigError, match="vtk_dir"):
            RunConfig(vtk_dir=path)

    def test_readme_example_names_every_key(self):
        from ksdg.config import _SCHEMA, _scan

        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```",
                          readme.read_text(encoding="utf-8"), re.S).group(1)
        load_config(block)
        named = {(row[0], row[1]) for row, _, _ in _scan(block)}
        assert named == {(row[0], row[1]) for row in _SCHEMA}


_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_number = st.floats(allow_nan=False)
_terms = st.lists(st.one_of(
    st.builds(GaussianTerm, _number, _number, _number, _number),
    st.builds(CosCosTerm, _number, _number),
    st.builds(SinSinTerm, _number, _number)), max_size=3).map(tuple)
_path = st.none() | st.text(max_size=12).filter(
    lambda p: "#" not in p and p == p.strip() and len(p.splitlines()) <= 1)


@st.composite
def run_configs(draw):
    dt = draw(st.floats(min_value=0.0, exclude_min=True, max_value=1e300))
    params = draw(st.builds(
        ModelParams, k0=_positive, k1=_positive, k2=_positive, k3=_positive,
        k4=_positive, tau=st.sampled_from([0, 1]), eps=_positive,
        dt=st.just(dt),
        t_end=st.integers(min_value=1, max_value=10**6).map(lambda k: k * dt)))
    times = st.floats(min_value=0.0, max_value=params.t_end)
    # whole multiples of a square side with 21 significant bits are exact,
    # so the rectangle is tiled exactly; mesh1 tiles in 2x2 blocks
    pattern = draw(st.sampled_from(["mesh1", "mesh2"]))
    block = 2 if pattern == "mesh1" else 1
    n, ny = (block * draw(st.integers(min_value=1, max_value=2**19))
             for _ in range(2))
    side = (draw(st.integers(min_value=1, max_value=2**20))
            * 2.0 ** draw(st.integers(min_value=-40, max_value=40)))
    x0, y0 = (draw(st.integers(min_value=-2**20, max_value=2**20))
              for _ in range(2))
    return RunConfig(
        pattern=pattern,
        n=n,
        domain=(x0 * side, (x0 + n) * side, y0 * side, (y0 + ny) * side),
        params=params,
        preset=draw(st.none() | st.sampled_from(PRESET_NAMES)),
        u0_terms=draw(_terms),
        v0_terms=draw(_terms),
        csv_path=draw(_path),
        vtk_dir=draw(_path),
        snapshot_times=tuple(draw(st.lists(times, max_size=4))))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "",
        "[initial]\npreset = one_bulge\n",
        "[initial]\npreset = three_bulges\n[mesh]\nn = 32\n",
        ("[mesh]\npattern = mesh2\nn = 12\ndomain = 0 2 0 1\n"
         "[params]\nk0 = 0.5\ntau = 0\ndt = 1e-4\nt_end = 2e-3\n"
         "[initial]\nu0 = gaussian(5, 20, 0.5, 0.5) + coscos(1, 2)\n"
         "[output]\ncsv = out.csv\nsnapshot_times = 0 1e-3\n"),
    ])
    def test_serialize_parse_identity(self, text):
        cfg = load_config(text)
        assert load_config(dumps_config(cfg)) == cfg

    # an exponent such as 1e+20 puts a "+" inside a term
    @example(RunConfig(u0_terms=(GaussianTerm(1e20, 1.0, 0.0, 0.0),)))
    @given(run_configs())
    def test_any_valid_config_survives_dumps_and_load(self, cfg):
        assert load_config(dumps_config(cfg)) == cfg


class TestTerms:
    def test_parse_sum(self):
        terms = parse_terms("gaussian(1, 2, 0, 0) + sinsin(3, 4)")
        assert terms == (GaussianTerm(1, 2, 0, 0), SinSinTerm(3, 4))

    def test_zero_keyword(self):
        assert parse_terms("zero") == ()

    def test_format_parse_identity(self):
        terms = (CosCosTerm(1000.0, 2.0), GaussianTerm(1.5, 2.5, -0.25, 0.125))
        assert parse_terms(format_terms(terms)) == terms

    def test_bad_arity_rejected(self):
        with pytest.raises(ConfigError, match="arguments"):
            parse_terms("gaussian(1, 2)")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_terms("ripple(1, 2)")

    def test_non_numeric_argument_rejected(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_terms("gaussian(1, 2, x, 0)")

    def test_gibberish_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_terms("gaussian(1,2,3,4) + 7")

    def test_evaluate_sum_of_gaussians(self):
        terms = parse_terms("gaussian(2, 1, 0, 0) + gaussian(3, 1, 1, 0)")
        got = evaluate_terms(terms, 0.0, 0.0)
        assert got == pytest.approx(2.0 + 3.0 * np.exp(-1.0))


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("one_bulge", "three_bulges", "multi_peak")

    def test_one_bulge_peak_values(self):
        cfg = load_config("[initial]\npreset = one_bulge\n")
        assert evaluate_terms(cfg.u0_terms, 0.0, 0.0) == pytest.approx(1000.0)
        assert evaluate_terms(cfg.v0_terms, 0.0, 0.0) == pytest.approx(500.0)

    def test_multi_peak_formula_value(self):
        cfg = load_config("[initial]\npreset = multi_peak\n")
        # cos(pi/2) = 0 at x = y = 1/4, leaving the constant offset
        assert evaluate_terms(cfg.u0_terms, 0.25, 0.25) == pytest.approx(
            1000.0)
        assert evaluate_terms(cfg.u0_terms, 0.0, 0.0) == pytest.approx(2000.0)

    def test_three_bulges_attractant_warns_and_zeroes(self):
        mesh = build_structured_mesh("mesh1", 4)
        with pytest.warns(UserWarning, match="zero"):
            u0, v0 = preset_initial_conditions("three_bulges", mesh)
        assert np.all(v0 == 0.0)
        assert np.min(u0) >= 0.0

    def test_preset_fields_sampled_on_mesh(self):
        mesh = build_structured_mesh("mesh1", 4)
        u0, v0 = preset_initial_conditions("one_bulge", mesh)
        assert u0.shape == (mesh.n_cells,)
        assert v0.shape == (mesh.n_vertices,)
        want = 1000.0 * np.exp(-100.0 * (mesh.barycenters[:, 0] ** 2
                                         + mesh.barycenters[:, 1] ** 2))
        assert np.allclose(u0, want, rtol=1e-14)

    def test_unknown_preset_name(self):
        mesh = build_structured_mesh("mesh1", 4)
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_initial_conditions("bulge", mesh)

    @pytest.mark.parametrize("n_coarse,n_fine", [(32, 64)])
    def test_bulge_mass_converges_to_analytic_integral(self, n_coarse,
                                                       n_fine):
        # the sampled bulge integrates to 10*pi in the refinement limit
        analytic = 10.0 * np.pi
        masses = {}
        for n in (n_coarse, n_fine):
            mesh = build_structured_mesh("mesh1", n)
            cfg = load_config("[initial]\npreset = one_bulge\n")
            u0, _ = initial_fields(cfg, mesh)
            masses[n] = integrate_cellfield(mesh, u0)
        for n, mass in masses.items():
            assert abs(mass - analytic) / analytic < 0.01
        assert abs(masses[n_fine] - masses[n_coarse]) / analytic < 0.01

    def test_initial_fields_elliptic_ignores_attractant_terms(self):
        mesh = build_structured_mesh("mesh1", 4)
        cfg = load_config("[params]\ntau = 0\n"
                          "[initial]\nv0 = gaussian(5, 1, 0, 0)\n")
        with pytest.warns(UserWarning, match="ignoring"):
            _, v0 = initial_fields(cfg, mesh)
        assert np.all(v0 == 0.0)
