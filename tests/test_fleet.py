"""Tests for repro.fleet: traffic determinism, scheduler parity, fleet engine.

The load-bearing contracts:

* per-link traffic is a pure function of ``(fleet seed, link index)`` — any
  worker can rebuild any subset byte-identically;
* the cross-link batch scheduler emits events byte-for-byte identical to
  sequential per-link :meth:`~repro.api.session.StreamingSession.push`, for
  any batch-flush size;
* :func:`~repro.fleet.run_fleet` produces the same canonical event stream
  for any worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PipelineConfig
from repro.backend import use_backend
from repro.csi.trace import CSITrace
from repro.experiments.scenarios import evaluation_cases
from repro.fleet import (
    RATE_CLASSES,
    FleetConfig,
    FleetScheduler,
    LinkTraffic,
    derive_link_seed,
    poisson_arrival_times,
    run_fleet,
)
from repro.utils.rng import ensure_rng
from tests.reference.traffic import build_link_traffic
from tests.test_backend_parity import FAST_RELATIVE_TOLERANCE


def small_pipeline(**changes) -> PipelineConfig:
    settings = {
        "detector": "baseline",
        "window_packets": 10,
        "calibration_packets": 30,
    }
    settings.update(changes)
    return PipelineConfig(**settings)


def small_fleet(**changes) -> FleetConfig:
    settings = {
        "links": 8,
        "duration_s": 4.0,
        "seed": 11,
        "batch_windows": 8,
        "pool_packets": 20,
        "pipeline": small_pipeline(),
    }
    settings.update(changes)
    return FleetConfig(**settings)


def build_traffic(config: FleetConfig, index: int) -> LinkTraffic:
    cases = evaluation_cases()
    _, link = cases[index % len(cases)]
    return build_link_traffic(
        index,
        link,
        seed=config.seed,
        pipeline=config.pipeline,
        duration_s=config.duration_s,
        pool_packets=config.pool_packets,
        occupied_fraction=config.occupied_fraction,
        class_mix=config.class_mix,
        class_rates_hz=config.class_rates_hz,
    )


def sequential_events(config: FleetConfig, index: int):
    """The reference stream: fresh session, plain per-frame push."""
    cases = evaluation_cases()
    _, link = cases[index % len(cases)]
    traffic = build_traffic(config, index)
    session = config.pipeline.session(link, link_name=traffic.profile.name)
    session.calibrate(traffic.calibration)
    events = []
    for i in range(traffic.num_arrivals):
        event = session.push(traffic.frame(i))
        if event is not None:
            events.append(event)
    return events


def stream_digest(events) -> str:
    payload = json.dumps([event.to_dict() for event in events], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------------- #
class TestFleetConfig:
    def test_dict_round_trip(self):
        config = small_fleet(occupied_fraction=0.25, max_workers=3)
        restored = FleetConfig.from_dict(config.to_dict())
        assert restored == config
        assert isinstance(restored.pipeline, PipelineConfig)

    def test_json_round_trip(self):
        config = small_fleet()
        assert FleetConfig.from_json(config.to_json()) == config

    def test_from_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        config = small_fleet(links=5)
        path.write_text(config.to_json())
        assert FleetConfig.from_file(path) == config

    def test_nested_pipeline_dict_parsed(self):
        config = FleetConfig.from_dict(
            {"links": 3, "pipeline": {"detector": "baseline", "window_packets": 5}}
        )
        assert config.pipeline.detector == "baseline"
        assert config.pipeline.window_packets == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown FleetConfig keys"):
            FleetConfig.from_dict({"links": 3, "durration_s": 2.0})

    def test_unknown_pipeline_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown PipelineConfig keys"):
            FleetConfig.from_dict({"pipeline": {"detectr": "baseline"}})

    @pytest.mark.parametrize(
        "changes",
        [
            {"links": 0},
            {"links": True},
            {"duration_s": 0.0},
            {"batch_windows": 0},
            {"pool_packets": 0},
            {"max_workers": 0},
            {"occupied_fraction": 1.5},
            {"seed": "2015"},
            {"class_mix": {}},
            {"class_mix": {"vip": 1.0}},
            {"class_mix": {"normal": 0.0}},
            {"class_mix": {"normal": -1.0, "busy": 2.0}},
            {"class_mix": {"normal": 1.0}, "class_rates_hz": {"busy": 5.0}},
            {"class_rates_hz": {"normal": 0.0}},
            {"pipeline": "baseline"},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            small_fleet(**changes)

    def test_replace_validates(self):
        config = small_fleet()
        assert config.replace(links=50).links == 50
        with pytest.raises(ValueError):
            config.replace(batch_windows=0)


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
class TestTraffic:
    def test_derive_link_seed_convention(self):
        assert derive_link_seed(7, 0) == 7
        assert derive_link_seed(7, 3) == 3007

    def test_poisson_arrivals_sorted_and_bounded(self):
        times = poisson_arrival_times(ensure_rng(3), rate_hz=40.0, duration_s=5.0)
        assert times.shape[0] > 0
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0 and times[-1] < 5.0

    def test_poisson_rate_roughly_honoured(self):
        times = poisson_arrival_times(ensure_rng(4), rate_hz=50.0, duration_s=100.0)
        assert times.shape[0] == pytest.approx(5000, rel=0.1)

    def test_traffic_is_pure_function_of_seed_and_index(self):
        config = small_fleet()
        first = build_traffic(config, 4)
        second = build_traffic(config, 4)
        assert np.array_equal(first.arrivals, second.arrivals)
        assert np.array_equal(first.pool_csi, second.pool_csi)
        assert np.array_equal(first.calibration.csi, second.calibration.csi)
        assert first.profile == second.profile

    def test_different_links_draw_different_traffic(self):
        config = small_fleet()
        a, b = build_traffic(config, 0), build_traffic(config, 5)
        # Same case geometry (5 mod 5 == 0) but independent streams.
        assert a.profile.case_name == b.profile.case_name
        assert not np.array_equal(a.pool_csi, b.pool_csi)

    def test_single_class_mix_assigns_everyone(self):
        config = small_fleet(
            class_mix={"abusive": 1.0}, class_rates_hz={"abusive": 30.0}
        )
        for index in range(4):
            assert build_traffic(config, index).profile.rate_class == "abusive"

    def test_mix_census_tracks_weights(self):
        config = small_fleet(class_mix={"normal": 0.5, "busy": 0.5})
        classes = {build_traffic(config, i).profile.rate_class for i in range(12)}
        assert classes <= {"normal", "busy"}
        assert len(classes) == 2

    @pytest.mark.parametrize("fraction, expected", [(0.0, 0), (1.0, 20)])
    def test_occupied_fraction_extremes(self, fraction, expected):
        config = small_fleet(occupied_fraction=fraction)
        traffic = build_traffic(config, 1)
        assert int(traffic.pool_occupied.sum()) == expected

    def test_pool_validated_once_at_construction(self):
        traffic = build_traffic(small_fleet(), 2)

        def rebuild(pool_csi, subcarrier_indices=traffic.subcarrier_indices):
            return LinkTraffic(
                profile=traffic.profile,
                arrivals=traffic.arrivals,
                calibration=traffic.calibration,
                pool_csi=pool_csi,
                pool_occupied=traffic.pool_occupied,
                subcarrier_indices=subcarrier_indices,
            )

        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            pool = traffic.pool_csi.copy()
            pool[3, 1, 7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                rebuild(pool)
        with pytest.raises(ValueError, match="pool_csi must be"):
            rebuild(traffic.pool_csi[0])
        with pytest.raises(ValueError, match="subcarriers"):
            rebuild(traffic.pool_csi, traffic.subcarrier_indices[:-1])

    def test_window_equals_stacked_frames(self):
        config = small_fleet(pool_packets=5)
        traffic = build_traffic(config, 2)
        pool = traffic.pool_csi.shape[0]
        for end, packets in [(3, 4), (pool + 3, 7), (traffic.num_arrivals - 1, 1)]:
            window = traffic.window(end, packets, label="w")
            frames = [traffic.frame(i) for i in range(end - packets + 1, end + 1)]
            expected = CSITrace.from_frames(frames, label="w")
            assert window.csi.dtype == expected.csi.dtype
            assert np.array_equal(window.csi, expected.csi)
            assert np.array_equal(window.timestamps, expected.timestamps)
            assert window.subcarrier_indices == expected.subcarrier_indices
            assert window.label == "w"
        for end, packets in [(2, 4), (traffic.num_arrivals, 1), (5, 0)]:
            with pytest.raises(IndexError):
                traffic.window(end, packets)

    def test_frames_cycle_pool_with_arrival_timestamps(self):
        config = small_fleet(pool_packets=5)
        traffic = build_traffic(config, 2)
        assert traffic.num_arrivals > traffic.pool_csi.shape[0] + 3
        pool = traffic.pool_csi.shape[0]
        frame = traffic.frame(pool + 3)
        assert np.array_equal(frame.csi, traffic.pool_csi[3])
        assert frame.timestamp == float(traffic.arrivals[pool + 3])
        assert frame.sequence_number == pool + 3
        assert traffic.occupied_at(pool + 3) == bool(traffic.pool_occupied[3])


# --------------------------------------------------------------------------- #
# scheduler vs sequential parity
# --------------------------------------------------------------------------- #
class TestSchedulerParity:
    def fleet_streams(self, config):
        cases = evaluation_cases()
        streams = []
        for index in range(config.links):
            _, link = cases[index % len(cases)]
            traffic = build_traffic(config, index)
            session = config.pipeline.session(link, link_name=traffic.profile.name)
            session.calibrate(traffic.calibration)
            streams.append((session, traffic))
        return streams

    @pytest.mark.parametrize("batch_windows", [1, 3, 64])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_batched_events_bit_identical_to_sequential_push(self, seed, batch_windows):
        config = small_fleet(seed=seed, links=6)
        scheduler = FleetScheduler(batch_windows=batch_windows)
        events, stats = scheduler.run(self.fleet_streams(config))
        assert stats.windows == len(events) > 0
        assert len(stats.latencies_s) == len(events)
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        for index in range(config.links):
            reference = sequential_events(config, index)
            name = f"link-{index:05d}"
            got = sorted(by_link.get(name, []), key=lambda event: event.index)
            assert stream_digest(got) == stream_digest(reference)

    @pytest.mark.parametrize("backend", ["exact", "fast"])
    def test_parity_holds_for_non_batchable_detector(self, backend):
        # Subcarrier sessions score their own windows inside the batch
        # scorer.  Under exact the events match plain push byte for byte.
        # Under fast a flush holds several windows per session (batch_windows
        # > links), so each detector runs its stacked program over its own
        # window stack; a weights cache shared across stacks would hand one
        # link's weights to another and break the tolerance.
        config = small_fleet(
            links=3, pipeline=small_pipeline(detector="subcarrier")
        )
        with use_backend(backend):
            events, _ = FleetScheduler(batch_windows=12).run(self.fleet_streams(config))
            references = [sequential_events(config, index) for index in range(config.links)]
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        assert events
        for index, reference in enumerate(references):
            got = by_link.get(f"link-{index:05d}", [])
            if backend == "exact":
                assert stream_digest(got) == stream_digest(reference)
                continue
            assert len(got) == len(reference) > 1
            for event, expected in zip(got, reference):
                assert dataclasses.replace(event, score=expected.score) == expected
                relative = abs(event.score - expected.score) / abs(expected.score)
                assert relative < FAST_RELATIVE_TOLERANCE

    def test_deferred_packets_seen_matches_inline_push(self):
        # Regression: packets_seen must be captured at window completion,
        # not at deferred emission — a large batch delays scoring past many
        # subsequent arrivals.
        config = small_fleet(links=6, batch_windows=10_000)
        events, _ = FleetScheduler(batch_windows=10_000).run(self.fleet_streams(config))
        reference = {
            (event.link, event.index): event
            for index in range(config.links)
            for event in sequential_events(config, index)
        }
        assert events
        for event in events:
            assert event == reference[(event.link, event.index)]

    def test_scheduler_rejects_bad_batch_and_sessions(self):
        with pytest.raises(ValueError, match="batch_windows"):
            FleetScheduler(batch_windows=0)
        with pytest.raises(TypeError, match="StreamingSession"):
            FleetScheduler().run([(object(), None)])

    def test_scheduler_rejects_uncalibrated_session(self):
        config = small_fleet(links=2)
        streams = self.fleet_streams(config)
        _, link = evaluation_cases()[0]
        traffic = build_traffic(config, 0)
        fresh = config.pipeline.session(link, link_name=traffic.profile.name)
        with pytest.raises(RuntimeError, match="calibrated"):
            FleetScheduler().run(streams + [(fresh, traffic)])
        # Checked before any window is scored: no session moved.
        assert all(session.packets_seen == 0 for session, _ in streams)

    def test_scheduler_rejects_already_advanced_session(self):
        config = small_fleet(links=2)
        streams = self.fleet_streams(config)
        session, traffic = streams[1]
        session.push(traffic.frame(0))
        with pytest.raises(ValueError, match="already consumed 1 frames"):
            FleetScheduler().run(streams)
        assert streams[0][0].packets_seen == 0
        # A session that ran once is spent: a second run is rejected too.
        fresh = self.fleet_streams(config)
        FleetScheduler().run(fresh)
        with pytest.raises(ValueError, match="already consumed"):
            FleetScheduler().run(fresh)

    def test_push_after_run_waits_for_a_full_window(self):
        # The run queues windows without buffering frames, so the session
        # must refill its buffer before a pushed frame completes a window.
        config = small_fleet(links=1, pipeline=small_pipeline(window_stride=2))
        ((session, traffic),) = self.fleet_streams(config)
        FleetScheduler().run([(session, traffic)])
        window = session.window_packets
        pushed = [session.push(traffic.frame(i)) for i in range(2 * window)]
        assert pushed[: window - 1] == [None] * (window - 1)
        emitted = [event for event in pushed if event is not None]
        assert emitted
        assert all(event.window_packets == window for event in emitted)


# --------------------------------------------------------------------------- #
# window-stepped scheduler: property test against sequential push
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def property_traffic(index: int, pool_packets: int) -> LinkTraffic:
    """Busy links with a small pool, so windows wrap around the pool often."""
    config = small_fleet(
        duration_s=2.0,
        pool_packets=pool_packets,
        class_mix={"busy": 0.5, "abusive": 0.5},
    )
    return build_traffic(config, index)


def property_streams(pipeline: PipelineConfig, links: int, pool_packets: int):
    """Fresh calibrated sessions over the cached property traffic."""
    cases = evaluation_cases()
    streams = []
    for index in range(links):
        traffic = property_traffic(index, pool_packets)
        session = pipeline.session(
            cases[index % len(cases)][1], link_name=traffic.profile.name
        )
        session.calibrate(traffic.calibration)
        streams.append((session, traffic))
    return streams


class TestWindowSteppedScheduler:
    @pytest.mark.parametrize("backend", ["exact", "fast"])
    @settings(max_examples=25, deadline=None)
    @given(
        window_packets=st.integers(1, 8),
        window_stride=st.one_of(st.none(), st.integers(1, 12)),
        pool_packets=st.integers(1, 25),
        batch_windows=st.integers(1, 40),
        links=st.integers(1, 4),
        detector=st.sampled_from(["baseline", "subcarrier"]),
    )
    def test_events_match_sequential_push(
        self,
        backend,
        window_packets,
        window_stride,
        pool_packets,
        batch_windows,
        links,
        detector,
    ):
        pipeline = small_pipeline(
            detector=detector, window_packets=window_packets, window_stride=window_stride
        )
        with use_backend(backend):
            streams = property_streams(pipeline, links, pool_packets)
            events, stats = FleetScheduler(batch_windows=batch_windows).run(streams)
            references = []
            for session, traffic in property_streams(pipeline, links, pool_packets):
                pushed = [session.push(traffic.frame(i)) for i in range(traffic.num_arrivals)]
                references.append([event for event in pushed if event is not None])

        assert stats.arrivals == sum(traffic.num_arrivals for _, traffic in streams)
        assert stats.windows == len(events) == sum(map(len, references))
        assert len(stats.latencies_s) == len(events)
        by_link: dict[str, list] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        for (_, traffic), reference in zip(streams, references):
            got = by_link.get(traffic.profile.name, [])
            if backend == "exact":
                assert stream_digest(got) == stream_digest(reference)
                continue
            assert len(got) == len(reference)
            for event, expected in zip(got, reference):
                assert dataclasses.replace(event, score=expected.score) == expected
                assert abs(event.score - expected.score) <= (
                    FAST_RELATIVE_TOLERANCE * abs(expected.score)
                )


# --------------------------------------------------------------------------- #
# fleet engine determinism
# --------------------------------------------------------------------------- #
class TestRunFleet:
    def test_report_shape_and_census(self):
        config = small_fleet()
        report = run_fleet(config)
        assert report.links == config.links
        assert sum(report.per_class.values()) == config.links
        assert set(report.per_class) == set(RATE_CLASSES)
        assert report.windows_scored == len(report.events) > 0
        assert report.arrivals > 0
        assert report.windows_per_sec > 0
        assert 0.0 <= report.latency_p50_s <= report.latency_p99_s
        assert report.detected == sum(1 for e in report.events if e.detected)

    def test_events_canonically_ordered(self):
        report = run_fleet(small_fleet())
        keys = [(e.timestamp, e.link, e.index) for e in report.events]
        assert keys == sorted(keys)

    def test_same_config_same_digest(self):
        config = small_fleet()
        assert run_fleet(config).event_digest() == run_fleet(config).event_digest()

    def test_workers_do_not_change_the_event_stream(self):
        config = small_fleet()
        sequential = run_fleet(config)
        sharded = run_fleet(config, max_workers=4)
        assert sharded.workers == 4
        assert sharded.event_digest() == sequential.event_digest()
        assert [e.to_dict() for e in sharded.events] == [
            e.to_dict() for e in sequential.events
        ]

    @pytest.mark.parametrize("batch_windows", [1, 7, 500])
    def test_batch_flush_size_does_not_change_the_event_stream(self, batch_windows):
        config = small_fleet()
        assert (
            run_fleet(config.replace(batch_windows=batch_windows)).event_digest()
            == run_fleet(config).event_digest()
        )

    def test_report_to_dict_serialisable(self):
        report = run_fleet(small_fleet(links=3))
        summary = report.to_dict()
        assert "event_stream" not in summary
        json.dumps(summary)
        full = report.to_dict(include_events=True)
        assert len(full["event_stream"]) == len(report.events)
        json.dumps(full)

    def test_bad_worker_override_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_fleet(small_fleet(), max_workers=0)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestFleetCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_fleet_run_writes_events_and_report_agrees(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        config_path = tmp_path / "fleet.json"
        config_path.write_text(small_fleet(links=6, duration_s=5.0).to_json())
        assert (
            self.run_cli(
                [
                    "--config",
                    str(config_path),
                    "fleet",
                    "run",
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        run_payload = json.loads(capsys.readouterr().out)
        assert run_payload["links"] == 6
        assert run_payload["events"] > 0
        lines = [
            line for line in events_path.read_text().splitlines() if line.strip()
        ]
        assert len(lines) == run_payload["events"]

        assert self.run_cli(["fleet", "report", "--events", str(events_path)]) == 0
        report_payload = json.loads(capsys.readouterr().out)
        assert report_payload["events"] == run_payload["events"]
        # The digest recomputed from the persisted stream must match the
        # run's in-memory digest: the file is the canonical stream.
        assert report_payload["event_digest"] == run_payload["event_digest"]

    def test_fleet_run_flag_overrides(self, capsys, tmp_path):
        config_path = tmp_path / "fleet.json"
        config_path.write_text(small_fleet(links=3, duration_s=4.0).to_json())
        assert (
            self.run_cli(
                ["--config", str(config_path), "fleet", "run", "--links", "5"]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["links"] == 5

    def test_fleet_run_config_error_is_one_line_exit_2(self, capsys, tmp_path):
        config_path = tmp_path / "fleet.json"
        config_path.write_text(json.dumps({"linkz": 3}))
        assert (
            self.run_cli(["--config", str(config_path), "fleet", "run"]) == 2
        )
        err = capsys.readouterr().err
        assert "unknown FleetConfig keys" in err
        assert "Traceback" not in err

    def test_fleet_report_missing_file_exit_2(self, capsys, tmp_path):
        assert (
            self.run_cli(
                ["fleet", "report", "--events", str(tmp_path / "nope.jsonl")]
            )
            == 2
        )
        assert "no such events file" in capsys.readouterr().err

    def test_fleet_report_malformed_line_exit_2(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"score": 1.0}\nnot-json\n')
        assert self.run_cli(["fleet", "report", "--events", str(path)]) == 2
        assert "malformed event line" in capsys.readouterr().err
