"""Bit-identity of the performance paths against the reference semantics.

The window-cached fast path of :meth:`PacketCollector.collect` and the
process-parallel campaign of :func:`run_evaluation` are pure optimisations:
for any seed they must produce byte-identical traces and results versus the
historical per-packet / sequential implementations.  These tests pin that
contract down so future perf work cannot silently change the numbers.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.channel import ChannelSimulator, HumanBody, ImpairmentModel, Point
from repro.csi.collector import PacketCollector
from repro.csi.trace import CSITrace
from repro.experiments.runner import EvaluationConfig, run_evaluation
from repro.experiments.scenarios import evaluation_cases
from tests.reference.channel import impair


# --------------------------------------------------------------------------- #
# reference implementation: the seed repo's per-packet acquisition loop
# --------------------------------------------------------------------------- #
def reference_collect(
    simulator: ChannelSimulator,
    humans,
    *,
    num_packets: int,
    packet_rate_hz: float,
    loss_probability: float,
    rng: np.random.Generator,
    start_time: float = 0.0,
) -> CSITrace:
    """The uncached acquisition loop: one synthesis and one ``apply`` per ping."""
    interval = 1.0 / packet_rate_hz
    frames = []
    timestamps = []
    t = start_time
    while len(frames) < num_packets:
        t += interval
        if loss_probability > 0 and rng.random() < loss_probability:
            continue
        frames.append(impair(simulator, simulator.clean_cfr(humans), rng))
        timestamps.append(t)
    return CSITrace(csi=np.asarray(frames), timestamps=np.asarray(timestamps))


def _scenes(link):
    return {
        "empty": None,
        "one-person": HumanBody(position=Point(4.0, 3.0)),
        "two-people": [
            HumanBody(position=Point(4.0, 3.0)),
            HumanBody(position=Point(3.0, 4.5)),
        ],
    }


class TestCollectFastPathBitIdentity:
    @pytest.mark.parametrize("loss_probability", [0.0, 0.3])
    @pytest.mark.parametrize("scene", ["empty", "one-person", "two-people"])
    def test_collect_matches_per_packet_reference(self, link, loss_probability, scene):
        humans = _scenes(link)[scene]
        simulator = ChannelSimulator(link, seed=17)
        collector = PacketCollector(
            simulator,
            loss_probability=loss_probability,
            rng=np.random.default_rng(99),
        )
        fast = collector.collect(humans, num_packets=25, start_time=1.0)
        reference = reference_collect(
            simulator,
            humans,
            num_packets=25,
            packet_rate_hz=collector.packet_rate_hz,
            loss_probability=loss_probability,
            rng=np.random.default_rng(99),
            start_time=1.0,
        )
        assert np.array_equal(fast.csi, reference.csi)
        assert np.array_equal(fast.timestamps, reference.timestamps)

    def test_collect_matches_reference_with_noiseless_impairments(self, link):
        simulator = ChannelSimulator(
            link, impairments=ImpairmentModel().noiseless(), seed=17
        )
        collector = PacketCollector(simulator, rng=np.random.default_rng(1))
        fast = collector.collect(None, num_packets=10)
        reference = reference_collect(
            simulator,
            None,
            num_packets=10,
            packet_rate_hz=collector.packet_rate_hz,
            loss_probability=0.0,
            rng=np.random.default_rng(1),
        )
        assert np.array_equal(fast.csi, reference.csi)


# --------------------------------------------------------------------------- #
# parallel campaign parity
# --------------------------------------------------------------------------- #
def _tiny_config(**overrides) -> EvaluationConfig:
    """A minimal campaign that still produces positives and negatives."""
    defaults = dict(
        seed=11,
        grid_rows=1,
        grid_cols=2,
        windows_per_location=1,
        window_packets=8,
        calibration_packets=30,
        max_bounces=1,
        schemes=("baseline", "subcarrier"),
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


class TestParallelCampaignParity:
    def test_workers_do_not_change_the_result(self):
        cases = evaluation_cases()[:2]
        sequential = run_evaluation(_tiny_config(), cases=cases)
        parallel = run_evaluation(_tiny_config(max_workers=4), cases=cases)
        assert len(sequential.windows) == len(parallel.windows)
        for seq_window, par_window in zip(sequential.windows, parallel.windows):
            assert seq_window == par_window  # dataclass equality: exact floats
        assert sequential.headline() == parallel.headline()

    def test_explicit_parallel_flag_and_override(self):
        cases = evaluation_cases()[:1]
        sequential = run_evaluation(_tiny_config(), cases=cases, parallel=False)
        forced = run_evaluation(
            _tiny_config(), cases=cases, parallel=True, max_workers=2
        )
        assert sequential.windows == forced.windows

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            EvaluationConfig(max_workers=0)
        with pytest.raises(ValueError):
            run_evaluation(_tiny_config(), cases=evaluation_cases()[:1], max_workers=0)

    def test_max_workers_round_trips_through_dict(self):
        config = _tiny_config(max_workers=3)
        assert EvaluationConfig.from_dict(config.to_dict()) == config


class TestCliWorkers:
    def test_workers_flag_sets_max_workers(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(["--workers", "4", "headline"])
        assert _build_config(args).max_workers == 4

    def test_workers_default_leaves_config_untouched(self):
        from repro.cli import _build_config, build_parser

        args = build_parser().parse_args(["headline"])
        assert _build_config(args).max_workers == 1
