import math

import numpy as np
import pytest

from dopplerkb import HyperfineStructure, ModulationComb, absorption, transmission, voigt
from dopplerkb.absorption import _bessel_j, _component_sum
from dopplerkb.config import CampaignConfig
from dopplerkb.errors import DataError
from dopplerkb.lineshape import Transition, doppler_width
from dopplerkb.simulator import ScanConfig

from _oracles import bessel_j_exact

DELTA = 49.883040330170026
CENTER = np.array([0.0])


class TestOpticalDepth:
    def test_bare_gaussian_peak(self):
        assert transmission(CENTER, DELTA, 0.0, 0.73)[0] == pytest.approx(math.exp(-0.73),
                                                                          rel=1e-15)

    def test_symmetric_doublet_at_center(self):
        s = 0.075  # components at +/- 75 kHz
        hf = HyperfineStructure(offsets_mhz=(-s, s), weights=(0.5, 0.5))
        expected = 0.5 * math.exp(-((s / DELTA) ** 2))
        t = transmission(CENTER, DELTA, 0.0, 0.5, hf)[0]
        assert t == pytest.approx(math.exp(-expected), rel=1e-13)

    def test_twelve_component_structure_matches_direct_sum(self):
        hf = HyperfineStructure.nh3_placeholder()
        comb = ModulationComb.paper_default()
        x = np.linspace(-120.0, 120.0, 7)
        # independent re-implementation: plain python double loop
        expected = np.zeros_like(x)
        for off_h, w_h in zip(hf.offsets_mhz, hf.weights):
            for off_c, w_c in zip(comb.offsets_mhz, comb.weights):
                expected += 0.8 * w_h * w_c * np.array(
                    [voigt(v - off_h - off_c, DELTA, 0.04) for v in x]
                )
        np.testing.assert_allclose(transmission(x, DELTA, 0.04, 0.8, hf, comb),
                                   np.exp(-expected), rtol=1e-12)

    def test_hyperfine_linearity_random_structures(self):
        # the optical depth -log(t) of a structure is the weighted sum of the
        # depths of its components
        rng = np.random.default_rng(5)
        x = np.linspace(-100, 100, 11)
        for _ in range(10):
            n = rng.integers(2, 8)
            offs = rng.uniform(-0.2, 0.2, n)
            w = rng.uniform(0.1, 1.0, n)
            hf = HyperfineStructure.from_pairs(list(zip(offs, w)))
            single = [-np.log(transmission(x - off, DELTA, 0.02, 1.1)) for off in hf.offsets_mhz]
            expected = np.tensordot(hf.weights, single, axes=1)
            np.testing.assert_allclose(-np.log(transmission(x, DELTA, 0.02, 1.1, hf)), expected,
                                       rtol=1e-12)


def direct_sum(x, delta, gamma, hyperfine, comb):
    """The component sum, one Voigt profile per (point, component) pair."""
    offs = np.add.outer(hyperfine.offsets_mhz, comb.offsets_mhz if comb else [0.0]).ravel()
    wts = np.multiply.outer(hyperfine.weights, comb.weights if comb else [1.0]).ravel()
    return voigt(x[:, None] - offs, delta, gamma) @ wts


# Nine components over 50 MHz: with delta/4 ~ 12.5 MHz they fall into five
# clusters, and the expansion needs its full order (13 terms).
WIDE = HyperfineStructure.from_pairs([(o, 1.0 + abs(o) / 10.0) for o in np.linspace(-25, 25, 9)])
PAPER = (HyperfineStructure.nh3_placeholder(), ModulationComb.paper_default())
STRUCTURES = pytest.mark.parametrize("structure", [PAPER, (WIDE, None), (WIDE, PAPER[1])],
                                     ids=["paper", "wide", "wide-comb"])
SCAN = ScanConfig().offsets_mhz()
WINGS = np.linspace(-1000.0, 1000.0, 2001)


class TestComponentExpansion:
    @pytest.mark.parametrize("pressure_pa", CampaignConfig().pressures_pa)
    def test_paper_comb_at_every_default_pressure(self, pressure_pa):
        cfg = CampaignConfig()
        delta = doppler_width(Transition.nh3(), cfg.temperature_k, cfg.kb_true)
        gamma = cfg.conditions(pressure_pa).gamma_mhz
        np.testing.assert_allclose(_component_sum(SCAN, delta, gamma, *PAPER),
                                   direct_sum(SCAN, delta, gamma, *PAPER), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("x", [SCAN, WINGS], ids=["scan", "1000MHz"])
    @STRUCTURES
    @pytest.mark.parametrize("gamma", [0.004, 0.2])
    def test_matches_the_direct_sum(self, x, structure, gamma):
        np.testing.assert_allclose(_component_sum(x, DELTA, gamma, *structure),
                                   direct_sum(x, DELTA, gamma, *structure), rtol=1e-12, atol=0)

    @STRUCTURES
    def test_matches_the_direct_sum_without_homogeneous_width(self, structure):
        # on the scan only: 1000 MHz out, the Gaussian sum of the wide table
        # is about 1e-167, far below the absolute truncation bound
        np.testing.assert_allclose(_component_sum(SCAN, DELTA, 0.0, *structure),
                                   direct_sum(SCAN, DELTA, 0.0, *structure), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("gamma", [0.0, 0.04, 3.0])
    @pytest.mark.parametrize("hyperfine", [None, HyperfineStructure((0.0,), (1.0,))])
    def test_one_component_is_bit_identical_to_one_profile(self, gamma, hyperfine):
        for depth in (0.0, 0.105, 0.73, 2.3):
            assert np.array_equal(transmission(WINGS, DELTA, gamma, depth, hyperfine),
                                  np.exp(-(depth * voigt(WINGS, DELTA, gamma))))

    def test_a_line_without_structure_takes_no_expansion(self, monkeypatch):
        # without hyperfine and comb the sum is one profile; a one-component
        # structure still goes through the expansion
        def no_expansion(*args):
            raise AssertionError("expansion reached")

        monkeypatch.setattr(absorption, "_expansion_order", no_expansion)
        assert np.array_equal(transmission(WINGS, DELTA, 0.04, 0.73),
                              np.exp(-(0.73 * voigt(WINGS, DELTA, 0.04))))
        with pytest.raises(AssertionError, match="expansion reached"):
            transmission(WINGS, DELTA, 0.04, 0.73, HyperfineStructure((0.0,), (1.0,)))


class TestTransmission:
    def test_no_absorber_flat_baseline(self):
        x = np.linspace(-125, 125, 501)
        np.testing.assert_array_equal(transmission(x, DELTA, 0.0, 0.0), np.full(501, 1.0))

    def test_ninety_percent_absorption(self):
        assert transmission(CENTER, DELTA, 0.0, math.log(10.0))[0] == pytest.approx(0.1,
                                                                                     rel=1e-14)

    def test_ten_percent_absorption_regime(self):
        assert transmission(CENTER, DELTA, 0.0, 0.105)[0] == pytest.approx(0.900, abs=5e-4)

    def test_bounded_by_baseline_when_slope_zero(self):
        rng = np.random.default_rng(11)
        x = np.linspace(-125, 125, 501)
        for _ in range(20):
            t = transmission(x, DELTA, rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.3))
            assert np.all(t > 0.0)
            assert np.all(t <= 1.0)


class TestHyperfineStructure:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HyperfineStructure(offsets_mhz=(0.0, 0.1), weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            HyperfineStructure(offsets_mhz=(0.0, 0.1), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            HyperfineStructure(offsets_mhz=(-0.1, 0.1), weights=(-0.5, 1.5))

    def test_from_pairs_normalizes_and_centers(self):
        hf = HyperfineStructure.from_pairs([(0.0, 2.0), (0.2, 2.0)])
        assert sum(hf.weights) == pytest.approx(1.0, abs=1e-15)
        assert np.dot(hf.weights, hf.offsets_mhz) == pytest.approx(0.0, abs=1e-12)

    def test_placeholder_spans_150_khz(self):
        hf = HyperfineStructure.nh3_placeholder()
        assert len(hf.weights) == 12
        assert max(hf.offsets_mhz) - min(hf.offsets_mhz) == pytest.approx(0.150, rel=1e-12)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "hyperfine.txt"
        path.write_text(
            "# offset_MHz  weight\n"
            "-0.06 1.0\n"
            " 0.02 2.0  # strongest\n"
            " 0.06 1.0\n"
        )
        hf = HyperfineStructure.from_file(path)
        assert len(hf.weights) == 3
        assert sum(hf.weights) == pytest.approx(1.0, abs=1e-15)

    def test_file_errors_name_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-0.06 1.0\n0.06\n")
        with pytest.raises(DataError, match="line 2"):
            HyperfineStructure.from_file(path)


class TestModulationComb:
    def test_paper_default_weights_sum_to_one(self):
        comb = ModulationComb.paper_default()
        assert comb.beta == pytest.approx(4.75)
        assert sum(comb.weights) == pytest.approx(1.0, abs=1e-10)

    def test_auto_cutoff_is_minimal(self):
        comb = ModulationComb(8.0, 38.0)
        assert comb == ModulationComb.paper_default() and comb.order_cutoff == 13
        smaller = np.arange(-(comb.order_cutoff - 1), comb.order_cutoff)
        from scipy.special import jv

        assert 1.0 - (jv(smaller, comb.beta) ** 2).sum() > 1e-10

    def test_weights_are_squared_bessel_values_with_the_same_cutoff(self):
        # scipy's jv is the oracle, with the cutoff search as it was written
        # on it; beta steps by 1/4 (at beta = 99.2 jv's own J_83 is 7e-15 off
        # 30-digit values, which moves its square by 1e-15)
        from scipy.special import jv

        for beta in np.arange(401) / 4.0:
            comb = ModulationComb(1.0, beta)
            total, n = jv(0, beta) ** 2, 0
            while 1.0 - total > 1e-10:
                n += 1
                total += 2.0 * jv(n, beta) ** 2
            assert comb.order_cutoff == n
            np.testing.assert_allclose(comb.weights, jv(comb.orders, beta) ** 2,
                                       rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("beta", [0.25, 4.75, 17.5, 63.25, 99.25])
    def test_bessel_values_match_the_exact_power_series(self, beta):
        # to 1e-15 absolute; node sines taken as sin(2 pi k / K), whose
        # angles near pi and 2 pi carry their rounding, are 4e-15 off
        orders = ModulationComb(1.0, beta).orders
        np.testing.assert_allclose(_bessel_j(orders, beta),
                                   [bessel_j_exact(int(n), beta) for n in orders],
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("beta", [999.0, 1000.5, 1e300])
    def test_refuses_a_comb_wider_than_1000_orders(self, beta):
        with pytest.raises(ValueError, match="cutoff search failed"):
            ModulationComb(1.0, beta)

    @pytest.mark.parametrize("args, name", [
        ((8.0, math.nan), "depth_khz"),
        ((8.0, math.inf), "depth_khz"),
        ((8.0, -1.0), "depth_khz"),
        ((math.nan, 38.0), "mod_freq_khz"),
        ((math.inf, 38.0), "mod_freq_khz"),
        ((0.0, 38.0), "mod_freq_khz"),
    ])
    def test_refuses_a_non_finite_or_out_of_range_argument_naming_it(self, args, name):
        # a NaN depth would give the weight [nan], an infinite frequency the offset [nan]
        with pytest.raises(ValueError, match=name):
            ModulationComb(*args)
