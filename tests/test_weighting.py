"""Tests for subcarrier weighting (Eq. 12-15) and path weighting (Eq. 17)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aoa.music import PseudoSpectrum
from repro.core.path_weighting import PathWeighting, uniform_path_weighting
from repro.core.subcarrier_weighting import SubcarrierWeighting, SubcarrierWeights
from repro.csi import CSITrace
from repro.csi.collector import PacketCollector


class TestSubcarrierWeights:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            SubcarrierWeights(weights=np.ones(30), mean_factor=np.ones(30), ratio=np.ones(30))
        with pytest.raises(ValueError):
            SubcarrierWeights(
                weights=-np.ones((1, 30)), mean_factor=np.ones((1, 30)), ratio=np.ones((1, 30))
            )

    def test_apply_broadcasts_over_packets(self):
        weights = SubcarrierWeights(
            weights=np.full((2, 30), 1.0 / 30), mean_factor=np.ones((2, 30)), ratio=np.ones((2, 30))
        )
        change = np.ones((5, 2, 30))
        out = weights.apply(change)
        assert out.shape == (5, 2, 30)
        assert np.allclose(out, 1.0 / 30)
        with pytest.raises(ValueError):
            weights.apply(np.ones(30))

    def test_top_subcarriers(self):
        values = np.zeros((1, 30))
        values[0, [3, 17, 22]] = [0.5, 0.3, 0.2]
        weights = SubcarrierWeights(weights=values, mean_factor=values, ratio=np.ones((1, 30)))
        assert weights.top_subcarriers(0, 3) == [3, 17, 22]
        with pytest.raises(IndexError):
            weights.top_subcarriers(5)


class TestSubcarrierWeighting:
    def test_weights_normalised_per_antenna(self, occupied_trace):
        weights = SubcarrierWeighting().weights_from_trace(occupied_trace)
        sums = weights.weights.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_weights_follow_mean_factor_ordering(self, occupied_trace):
        weighting = SubcarrierWeighting(use_stability_ratio=False)
        weights = weighting.weights_from_trace(occupied_trace)
        mean_factor = np.abs(weights.mean_factor[0])
        assert np.argmax(weights.weights[0]) == np.argmax(mean_factor)

    def test_stability_ratio_changes_weights(self, occupied_trace):
        with_ratio = SubcarrierWeighting(use_stability_ratio=True).weights_from_trace(
            occupied_trace
        )
        without_ratio = SubcarrierWeighting(use_stability_ratio=False).weights_from_trace(
            occupied_trace
        )
        assert not np.allclose(with_ratio.weights, without_ratio.weights)
        assert np.allclose(without_ratio.ratio, 1.0)

    def test_per_packet_weights_eq12(self, occupied_trace):
        weighting = SubcarrierWeighting()
        weights = weighting.weights_from_packet(occupied_trace.csi[0])
        assert weights.weights.shape == (3, 30)
        assert np.allclose(weights.weights.sum(axis=1), 1.0)
        with pytest.raises(ValueError):
            weighting.weights_from_packet(occupied_trace.csi)

    def test_factor_shape_validation(self):
        with pytest.raises(ValueError):
            SubcarrierWeighting().weights_from_factors(np.ones((5, 30)))

    def test_zero_factors_fall_back_to_uniform(self):
        factors = np.zeros((4, 1, 30))
        weights = SubcarrierWeighting().weights_from_factors(factors)
        assert np.allclose(weights.weights, 1.0 / 30)

    def test_sensitive_subcarriers_weighted_up(self, clean_simulator, human):
        """Weights concentrate on the subcarriers whose dB change is largest."""
        burst_empty = PacketCollector(clean_simulator, seed=1).collect(None, num_packets=10).csi
        burst_human = PacketCollector(clean_simulator, seed=2).collect(human, num_packets=10).csi
        trace = CSITrace(csi=burst_human)
        weights = SubcarrierWeighting(use_stability_ratio=False).weights_from_trace(trace)
        delta = 10 * np.log10(
            np.abs(burst_human).mean(axis=0) ** 2 / np.abs(burst_empty).mean(axis=0) ** 2
        )
        antenna = 0
        top_weighted = set(weights.top_subcarriers(antenna, 10))
        top_changed = set(np.argsort(np.abs(delta[antenna]))[::-1][:10])
        # Substantial overlap between the most-weighted and most-changed subcarriers.
        assert len(top_weighted & top_changed) >= 4


def _gaussian_spectrum(center: float, width: float = 8.0, floor: float = 0.02) -> PseudoSpectrum:
    angles = np.linspace(-90.0, 90.0, 181)
    values = floor + np.exp(-0.5 * ((angles - center) / width) ** 2)
    return PseudoSpectrum(angles, values)


class TestPathWeighting:
    def test_gate_validation(self):
        spectrum = _gaussian_spectrum(0.0)
        with pytest.raises(ValueError):
            PathWeighting(static_spectrum=spectrum, theta_min_deg=10, theta_max_deg=-10)
        with pytest.raises(ValueError):
            PathWeighting(static_spectrum=spectrum, floor=0.0)

    def test_weights_zero_outside_gate(self):
        weighting = PathWeighting(static_spectrum=_gaussian_spectrum(0.0))
        weights = weighting.weights()
        angles = weighting.static_spectrum.angles_deg
        assert np.all(weights[np.abs(angles) >= 60.0] == 0.0)
        assert np.all(weights[np.abs(angles) < 60.0] > 0.0)

    def test_weights_sum_to_one(self):
        weighting = PathWeighting(static_spectrum=_gaussian_spectrum(10.0))
        assert weighting.weights().sum() == pytest.approx(1.0)

    def test_weights_inverse_to_static_spectrum(self):
        weighting = PathWeighting(static_spectrum=_gaussian_spectrum(0.0))
        weights = weighting.weights()
        angles = weighting.static_spectrum.angles_deg
        los_weight = weights[np.argmin(np.abs(angles))]
        off_weight = weights[np.argmin(np.abs(angles - 45.0))]
        assert off_weight > los_weight

    def test_floor_caps_amplification(self):
        weighting = PathWeighting(static_spectrum=_gaussian_spectrum(0.0), floor=0.05)
        weights = weighting.weights()
        nonzero = weights[weights > 0]
        assert nonzero.max() / nonzero.min() <= 1.0 / 0.05 + 1e-6

    def test_apply_flattens_static_spectrum_inside_gate(self):
        spectrum = _gaussian_spectrum(0.0, floor=0.1)
        weighting = PathWeighting(static_spectrum=spectrum, floor=0.01)
        weighted = weighting.apply(spectrum)
        gate = weighting.angular_gate()
        inside = weighted[gate]
        assert inside.std() / inside.mean() < 0.05

    def test_weighted_distance_detects_new_path(self):
        static = _gaussian_spectrum(0.0)
        weighting = PathWeighting(static_spectrum=static)
        self_distance = weighting.weighted_distance(static)
        angles = static.angles_deg
        new_path = PseudoSpectrum(
            angles, static.values + 0.3 * np.exp(-0.5 * ((angles - 40.0) / 6.0) ** 2)
        )
        assert weighting.weighted_distance(new_path) > 5 * max(self_distance, 1e-12)

    def test_change_outside_gate_ignored(self):
        static = _gaussian_spectrum(0.0)
        weighting = PathWeighting(static_spectrum=static)
        angles = static.angles_deg
        outside = PseudoSpectrum(
            angles, static.values + 1.0 * np.exp(-0.5 * ((angles - 80.0) / 3.0) ** 2)
        )
        assert weighting.weighted_distance(outside) == pytest.approx(0.0, abs=1e-9)

    def test_with_gate_returns_new_instance(self):
        weighting = PathWeighting(static_spectrum=_gaussian_spectrum(0.0))
        wider = weighting.with_gate(-80.0, 80.0)
        assert wider.theta_max_deg == 80.0
        assert weighting.theta_max_deg == 60.0

    def test_uniform_path_weighting_open_gate(self):
        weighting = uniform_path_weighting(_gaussian_spectrum(0.0))
        assert np.all(weighting.weights() > 0.0)

    def test_interpolation_onto_static_grid(self):
        static = _gaussian_spectrum(0.0)
        weighting = PathWeighting(static_spectrum=static)
        coarse = PseudoSpectrum(np.linspace(-90, 90, 61), np.interp(
            np.linspace(-90, 90, 61), static.angles_deg, static.values))
        weighted = weighting.apply(coarse)
        assert weighted.shape == static.angles_deg.shape
