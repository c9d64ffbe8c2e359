"""Tests for the antenna array, OFDM synthesis and impairment models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.antenna import UniformLinearArray
from repro.channel.constants import (
    CHANNEL_11_CENTER_HZ,
    INTEL5300_SUBCARRIER_INDICES,
    center_wavelength,
    subcarrier_frequencies,
)
from repro.channel.geometry import Point
from repro.channel.noise import ImpairmentModel
from repro.channel.ofdm import dominant_tap_power, synthesize_cfr, total_subcarrier_power
from repro.channel.propagation import PropagationModel
from repro.channel.rays import Path


class TestUniformLinearArray:
    def test_default_is_half_wavelength_triple(self):
        array = UniformLinearArray()
        assert array.num_elements == 3
        assert array.spacing == pytest.approx(center_wavelength() / 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformLinearArray(num_elements=0)
        with pytest.raises(ValueError):
            UniformLinearArray(spacing=0.0)
        with pytest.raises(ValueError):
            UniformLinearArray(broadside=Point(0.0, 0.0))

    def test_element_positions_spacing(self):
        array = UniformLinearArray(num_elements=3, spacing=0.06, reference=Point(1.0, 1.0))
        positions = array.element_positions()
        assert len(positions) == 3
        assert positions[0].distance_to(positions[1]) == pytest.approx(0.06)
        assert positions[1].distance_to(positions[2]) == pytest.approx(0.06)

    def test_oriented_towards_points_broadside_at_target(self):
        array = UniformLinearArray(reference=Point(0.0, 0.0)).oriented_towards(Point(0.0, 5.0))
        assert array.broadside.x == pytest.approx(0.0)
        assert array.broadside.y == pytest.approx(1.0)

    def test_oriented_towards_same_point_rejected(self):
        array = UniformLinearArray(reference=Point(1.0, 1.0))
        with pytest.raises(ValueError):
            array.oriented_towards(Point(1.0, 1.0))

    def test_steering_vector_broadside_is_uniform(self):
        array = UniformLinearArray()
        vec = array.steering_vector(0.0, CHANNEL_11_CENTER_HZ)
        assert np.allclose(vec, 1.0)

    def test_steering_vector_half_wavelength_endfire(self):
        array = UniformLinearArray()
        vec = array.steering_vector(np.pi / 2, CHANNEL_11_CENTER_HZ)
        # Adjacent elements differ by pi at half-wavelength spacing, endfire.
        phase_diff = np.angle(vec[1] * np.conj(vec[0]))
        assert abs(abs(phase_diff) - np.pi) < 1e-2

    def test_steering_matrix_shape_and_consistency(self):
        array = UniformLinearArray()
        angles = np.radians([-30.0, 0.0, 45.0])
        matrix = array.steering_matrix(angles, CHANNEL_11_CENTER_HZ)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix[:, 1], array.steering_vector(0.0, CHANNEL_11_CENTER_HZ))

    def test_unambiguous_range_half_wavelength(self):
        low, high = UniformLinearArray().unambiguous_angle_range_deg()
        assert low == pytest.approx(-90.0, abs=1.0)
        assert high == pytest.approx(90.0, abs=1.0)

    def test_unambiguous_range_shrinks_with_wider_spacing(self):
        wide = UniformLinearArray(spacing=center_wavelength())
        low, high = wide.unambiguous_angle_range_deg()
        assert high < 35.0


class TestSynthesizeCfr:
    def _los_path(self, length: float = 4.0) -> Path:
        return Path(vertices=(Point(0.0, 0.0), Point(length, 0.0)), kind="los")

    def test_single_path_amplitude_matches_model(self):
        path = self._los_path()
        model = PropagationModel()
        cfr = synthesize_cfr([path], propagation=model)
        freqs = subcarrier_frequencies()
        assert cfr.shape == (1, 30)
        assert np.allclose(np.abs(cfr[0]), model.amplitude(4.0, freqs))

    def test_array_output_shape(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path()], array=array)
        assert cfr.shape == (3, 30)

    def test_broadside_path_identical_across_antennas(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path().with_aoa(0.0)], array=array)
        assert np.allclose(cfr[0], cfr[1])
        assert np.allclose(cfr[1], cfr[2])

    def test_oblique_path_differs_across_antennas(self):
        array = UniformLinearArray()
        cfr = synthesize_cfr([self._los_path().with_aoa(np.radians(40.0))], array=array)
        assert not np.allclose(cfr[0], cfr[1])
        # Only phases differ, not amplitudes, for a single path.
        assert np.allclose(np.abs(cfr[0]), np.abs(cfr[1]))

    def test_two_paths_superpose(self):
        los = self._los_path()
        wall = Path(
            vertices=(Point(0.0, 0.0), Point(2.0, 2.0), Point(4.0, 0.0)),
            kind="wall",
            amplitude_gain=0.5,
        )
        combined = synthesize_cfr([los, wall])
        alone = synthesize_cfr([los])
        assert not np.allclose(np.abs(combined), np.abs(alone))

    def test_empty_frequency_grid_rejected(self):
        with pytest.raises(ValueError):
            synthesize_cfr([self._los_path()], frequencies=np.array([]))

    def test_dominant_tap_power_reflects_los_strength(self):
        strong = synthesize_cfr([self._los_path(2.0)])[0]
        weak = synthesize_cfr([self._los_path(6.0)])[0]
        assert dominant_tap_power(strong) > dominant_tap_power(weak)

    def test_dominant_tap_power_requires_1d(self):
        with pytest.raises(ValueError):
            dominant_tap_power(np.zeros((3, 30), dtype=complex))

    def test_total_subcarrier_power(self):
        cfr = synthesize_cfr([self._los_path()])[0]
        assert np.allclose(total_subcarrier_power(cfr), np.abs(cfr) ** 2)


class TestImpairmentModel:
    def _clean(self) -> np.ndarray:
        rng = np.random.default_rng(0)
        return rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))

    def test_noiseless_copy_is_identity(self):
        clean = self._clean()
        model = ImpairmentModel().noiseless()
        noisy = model.apply(clean, np.asarray(INTEL5300_SUBCARRIER_INDICES), seed=1)
        assert np.allclose(noisy, clean)

    def test_apply_changes_csi(self):
        clean = self._clean()
        noisy = ImpairmentModel(snr_db=20.0).apply(
            clean, np.asarray(INTEL5300_SUBCARRIER_INDICES), seed=1
        )
        assert not np.allclose(noisy, clean)

    def test_snr_controls_noise_level(self):
        clean = self._clean()
        indices = np.asarray(INTEL5300_SUBCARRIER_INDICES)
        low = ImpairmentModel(snr_db=5.0, cfo_phase=False, sfo_slope_std=0.0, agc_std_db=0.0,
                              antenna_phase_offsets=False)
        high = ImpairmentModel(snr_db=40.0, cfo_phase=False, sfo_slope_std=0.0, agc_std_db=0.0,
                               antenna_phase_offsets=False)
        err_low = np.linalg.norm(low.apply(clean, indices, seed=2) - clean)
        err_high = np.linalg.norm(high.apply(clean, indices, seed=2) - clean)
        assert err_low > 5 * err_high

    def test_cfo_only_applies_common_phase(self):
        clean = self._clean()
        indices = np.asarray(INTEL5300_SUBCARRIER_INDICES)
        model = ImpairmentModel(snr_db=np.inf, cfo_phase=True, sfo_slope_std=0.0,
                                agc_std_db=0.0, antenna_phase_offsets=False)
        noisy = model.apply(clean, indices, seed=3)
        ratio = noisy / clean
        assert np.allclose(np.abs(ratio), 1.0)
        assert np.allclose(ratio, ratio[0, 0])

    def test_shape_validation(self):
        model = ImpairmentModel()
        with pytest.raises(ValueError):
            model.apply(np.zeros(30, dtype=complex), np.zeros(30))
        with pytest.raises(ValueError):
            model.apply(np.zeros((3, 30), dtype=complex), np.zeros(29))

    def test_deterministic_given_seed(self):
        clean = self._clean()
        indices = np.asarray(INTEL5300_SUBCARRIER_INDICES)
        model = ImpairmentModel()
        a = model.apply(clean, indices, seed=77)
        b = model.apply(clean, indices, seed=77)
        assert np.allclose(a, b)
