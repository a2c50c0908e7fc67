import math

import numpy as np
import pytest

from dopplerkb import (
    TemperatureReading,
    Transition,
    constants,
    doppler_width,
    kb_from_width,
    uncertainty_budget,
)
from dopplerkb.boltzmann import format_budget_table

NH3 = Transition.nh3()
T_CELL = TemperatureReading(273.15, 0.0)


class TestKbFromWidth:
    def test_paper_width_gives_paper_kb(self):
        kb = kb_from_width(49.8831, NH3, T_CELL)
        assert kb == pytest.approx(1.38065e-23, rel=1e-5)

    def test_quadratic_in_width(self):
        base = kb_from_width(49.8831, NH3, T_CELL)
        assert kb_from_width(2 * 49.8831, NH3, T_CELL) == pytest.approx(
            4.0 * base, rel=1e-14)

    def test_inverse_of_doppler_width(self):
        for kb0 in (1.2e-23, constants.KB_CODATA_2002, 1.5e-23):
            dd = doppler_width(NH3, 273.15, kb0)
            assert kb_from_width(dd, NH3, T_CELL) == pytest.approx(kb0, rel=1e-12)

    def test_monotone_in_width_and_temperature(self):
        widths = np.linspace(40, 60, 7)
        kbs = [kb_from_width(w, NH3, T_CELL) for w in widths]
        assert all(a < b for a, b in zip(kbs, kbs[1:]))
        temps = np.linspace(200, 350, 7)
        kbs_t = [kb_from_width(49.8831, NH3, TemperatureReading(t, 0.0)) for t in temps]
        assert all(a > b for a, b in zip(kbs_t, kbs_t[1:]))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            kb_from_width(0.0, NH3, T_CELL)

    @pytest.mark.parametrize("width", [math.inf, math.nan])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(ValueError, match="positive and finite"):
            kb_from_width(width, NH3, T_CELL)


class TestTemperatureReading:
    @pytest.mark.parametrize("value_k, sigma_k", [
        (math.inf, 0.0), (math.nan, 0.0), (273.15, math.inf), (273.15, math.nan),
    ])
    def test_rejects_non_finite_value_or_sigma(self, value_k, sigma_k):
        with pytest.raises(ValueError, match="finite"):
            TemperatureReading(value_k, sigma_k)


class TestUncertaintyBudget:
    def test_paper_terms(self):
        # width 9.5e-5 relative and temperature 7e-5 relative, others zero
        temp = TemperatureReading(273.15, 7e-5 * 273.15)
        out = uncertainty_budget(49.8831, 9.5e-5 * 49.8831, NH3, temp,
                                 mass_sigma_rel=0.0, nu_sigma_rel=0.0)
        assert out.budget["width"] == pytest.approx(1.9e-4, rel=1e-12)
        assert out.budget["temperature"] == pytest.approx(7e-5, rel=1e-12)
        assert out.combined_relative == pytest.approx(
            math.hypot(1.9e-4, 7e-5), rel=1e-12)

    def test_all_zero_sigmas(self):
        out = uncertainty_budget(49.8831, 0.0, NH3, T_CELL,
                                 mass_sigma_rel=0.0, nu_sigma_rel=0.0)
        assert out.combined_relative == 0.0
        assert out.sigma_kb == 0.0

    def test_single_temperature_term(self):
        temp = TemperatureReading(273.15, 1e-4 * 273.15)
        out = uncertainty_budget(49.8831, 0.0, NH3, temp,
                                 mass_sigma_rel=0.0, nu_sigma_rel=0.0)
        assert out.combined_relative == pytest.approx(1e-4, rel=1e-12)

    def test_budget_closure(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            temp = TemperatureReading(273.15, rng.uniform(0, 0.1))
            out = uncertainty_budget(
                49.8831, rng.uniform(0, 0.01), NH3, temp,
                mass_sigma_rel=rng.uniform(0, 1e-6),
                nu_sigma_rel=rng.uniform(0, 1e-6),
            )
            rss = math.sqrt(sum(v**2 for v in out.budget.values()))
            assert out.combined_relative == pytest.approx(rss, rel=1e-12)
            assert out.sigma_kb == pytest.approx(out.kb * rss, rel=1e-12)

    def test_dominance_ordering_with_paper_inputs(self):
        temp = TemperatureReading(273.15, 0.020)
        out = uncertainty_budget(49.8831, 9.5e-5 * 49.8831, NH3, temp)
        b = out.budget
        assert b["width"] > b["temperature"] > b["frequency"] > b["mass"]

    def test_budget_table_lists_every_source(self):
        out = uncertainty_budget(49.8831, 0.0047, NH3, TemperatureReading(273.15, 0.02))
        table = format_budget_table(out)
        for source in ("width", "temperature", "frequency", "mass", "combined"):
            assert source in table

    def test_rejects_negative_sigmas(self):
        with pytest.raises(ValueError):
            uncertainty_budget(49.8831, -0.001, NH3, T_CELL)

    @pytest.mark.parametrize("name", ["delta_d_sigma_mhz", "mass_sigma_rel", "nu_sigma_rel"])
    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigmas_naming_them(self, name, sigma):
        kwargs = {"mass_sigma_rel": 0.0, "nu_sigma_rel": 0.0, name: sigma}
        width_sigma = kwargs.pop("delta_d_sigma_mhz", 0.001)
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
            uncertainty_budget(49.8831, width_sigma, NH3, T_CELL, **kwargs)
