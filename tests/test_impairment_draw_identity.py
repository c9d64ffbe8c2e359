"""The two-call packet draw of :class:`ImpairmentDrawPlan`, pinned.

The plan draws each packet with one ``random()`` and one ``standard_normal``
row, where :meth:`ImpairmentModel.apply` makes up to six ``uniform`` /
``normal`` calls.  That is byte-identical only because of two NumPy
identities, pinned here first so that a NumPy upgrade breaking one fails
with a message naming it rather than as an unexplained sha256 pin mismatch:

* ``uniform(0, h) == 0.0 + h * random()``, with the same generator advance;
* ``normal(0, s, size) == 0.0 + s * standard_normal(size)``, with the same
  advance, and consecutive standard-normal draws concatenate.

The property test then fuzzes impairment settings and checks the plan —
drawn directly or through the simulator's ``sample_packet`` /
``sample_trajectory`` — against stacked sequential ``apply`` calls, output
bytes and final generator state alike.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import use_backend
from repro.channel.channel import ChannelSimulator
from repro.channel.constants import INTEL5300_SUBCARRIER_INDICES
from repro.channel.geometry import Point
from repro.channel.noise import ImpairmentModel
from repro.experiments.scenarios import evaluation_cases

INDICES = np.asarray(INTEL5300_SUBCARRIER_INDICES, dtype=float)

UNIFORM_IDENTITY = "uniform(0, h) == 0.0 + h * random()"
NORMAL_IDENTITY = "normal(0, s, size) == 0.0 + s * standard_normal(size), drawn as one block"


def _broken(identity: str, detail: str) -> str:
    return (
        f"NumPy identity `{identity}` no longer holds ({detail}); "
        "ImpairmentDrawPlan's two-call packet draw relies on it"
    )


class TestNumpyDrawIdentities:
    @pytest.mark.parametrize("seed", range(20))
    def test_uniform_is_offset_scaled_random(self, seed):
        high = 2.0 * np.pi
        reference = np.random.default_rng(seed)
        plan_side = np.random.default_rng(seed)
        for _ in range(50):
            want = np.float64(reference.uniform(0.0, high))
            got = np.float64(0.0 + high * plan_side.random())
            assert got.tobytes() == want.tobytes(), _broken(UNIFORM_IDENTITY, "values differ")
        assert (
            reference.bit_generator.state == plan_side.bit_generator.state
        ), _broken(UNIFORM_IDENTITY, "generator advance differs")

    @pytest.mark.parametrize("seed", range(20))
    def test_normal_is_offset_scaled_standard_normal_block(self, seed):
        # One packet of ImpairmentModel.apply: slope, 3 offsets, gain, then
        # the real and imaginary noise blocks, each its own normal() call.
        slope_std, gain_std, noise_std = 0.05, 0.5, 0.013
        reference = np.random.default_rng(seed)
        plan_side = np.random.default_rng(seed)
        for _ in range(20):
            want = np.concatenate(
                [
                    [reference.normal(0.0, slope_std)],
                    reference.normal(0.0, 0.1, size=3),
                    [reference.normal(0.0, gain_std)],
                    reference.normal(0.0, noise_std, size=(3, 30)).ravel(),
                    reference.normal(0.0, noise_std, size=(3, 30)).ravel(),
                ]
            )
            z = plan_side.standard_normal(185)
            scale = np.concatenate([[slope_std], [0.1] * 3, [gain_std], [noise_std] * 180])
            got = 0.0 + scale * z
            assert got.tobytes() == want.tobytes(), _broken(NORMAL_IDENTITY, "values differ")
        assert (
            reference.bit_generator.state == plan_side.bit_generator.state
        ), _broken(NORMAL_IDENTITY, "generator advance differs")


models = st.builds(
    ImpairmentModel,
    snr_db=st.one_of(st.just(np.inf), st.floats(min_value=-5.0, max_value=40.0)),
    cfo_phase=st.booleans(),
    sfo_slope_std=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5)),
    agc_std_db=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=3.0)),
    antenna_phase_offsets=st.booleans(),
)


def _draw_plan(model, cleans, chosen, bursts, rng):
    plan = model.draw_plan(cleans, INDICES, num_packets=len(chosen))
    if bursts:
        # Runs of one candidate draw as a burst, as lossless windows do.
        for candidate, run in itertools.groupby(chosen):
            plan.draw_next(rng, candidate, len(list(run)))
    else:
        for candidate in chosen:
            plan.draw_next(rng, candidate)
    return plan.apply()


def _sample(path, model, cleans, chosen, rng):
    """The simulator's draw path over *cleans*: synthesis stubbed, draws real."""
    simulator = ChannelSimulator(evaluation_cases()[0][1], impairments=model)
    if path == "sample_packet":
        packets = iter(cleans[chosen])
        simulator.clean_cfr = lambda humans: next(packets)
        return np.stack([simulator.sample_packet(None, seed=rng) for _ in chosen])
    simulator.clean_cfr_batch = lambda scenes: cleans[chosen]
    return simulator.sample_trajectory([Point(1.0, 1.0)] * len(chosen), seed=rng)


class TestDrawPlanProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        model=models,
        antennas=st.sampled_from([1, 3]),
        zero_power=st.booleans(),
        chosen=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
        bursts=st.booleans(),
        path=st.sampled_from(["plan", "sample_packet", "sample_trajectory"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_plan_is_byte_equal_to_sequential_apply(
        self, model, antennas, zero_power, chosen, bursts, path, seed
    ):
        cleans_rng = np.random.default_rng(seed ^ 0x5EED)
        cleans = cleans_rng.normal(size=(4, antennas, 30)) + 1j * cleans_rng.normal(
            size=(4, antennas, 30)
        )
        if zero_power:
            cleans[1] = 0.0  # apply() draws (and adds) no noise for it
        sequential = np.random.default_rng(seed)
        planned = np.random.default_rng(seed)
        expected = np.stack(
            [model.apply(cleans[c], INDICES, seed=sequential) for c in chosen]
        )
        with use_backend("exact"):
            if path == "plan":
                got = _draw_plan(model, cleans, chosen, bursts, planned)
            else:
                got = _sample(path, model, cleans, chosen, planned)
        assert got.tobytes() == expected.tobytes()
        assert planned.bit_generator.state == sequential.bit_generator.state

    def test_burst_validation(self):
        model = ImpairmentModel()
        plan = model.draw_plan(np.ones((2, 3, 30), dtype=complex), INDICES, num_packets=4)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="count"):
            plan.draw_next(rng, 0, 0)
        plan.draw_next(rng, 1, 3)
        with pytest.raises(RuntimeError, match="capacity"):
            plan.draw_next(rng, 0, 2)
        assert plan.num_drawn == 3
