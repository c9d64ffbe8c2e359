"""The window-by-window campaign loop ``run_case``'s array program replaced."""

from __future__ import annotations

from repro.backend import use_backend
from repro.channel.channel import Link
from repro.csi.trace import CSITrace
from repro.experiments.runner import (
    EvaluationConfig,
    ScoredWindow,
    _case_components,
    build_detectors,
)
from repro.experiments.scenarios import (
    grid_angle_to_receiver_deg,
    grid_distance_to_receiver,
    human_grid,
)


def run_case_reference(
    link: Link,
    config: EvaluationConfig,
    *,
    case_seed: int | None = None,
) -> list[ScoredWindow]:
    """The historical window-by-window campaign loop for one link case.

    The bit-parity reference for :func:`repro.experiments.runner.run_case`:
    it collects, sanitises and scores one window at a time with per-scheme
    ``score`` calls.  The parity suite asserts ``run_case`` reproduces these
    windows float for float.  Like ``run_case``, the whole case computes
    through ``config.backend``.
    """
    seed = config.seed if case_seed is None else case_seed
    with use_backend(config.backend):
        simulator, collector, background, drift = _case_components(link, config, seed)

        # Calibration: empty monitored area (background may be present far
        # away), no drift applied — it accumulates *after* calibration.
        calibration = collector.collect(
            background.people_for_window() + drift.clutter_for_window(),
            num_packets=config.calibration_packets,
            label=f"{link.name}/calibration",
        )
        detectors = build_detectors(link, config)
        for detector in detectors.values():
            detector.calibrate(calibration)

        grid = human_grid(
            link,
            rows=config.grid_rows,
            cols=config.grid_cols,
            lateral_extent_m=config.grid_lateral_extent_m,
            along_extent_m=config.grid_along_fraction * link.distance(),
        )

        windows: list[ScoredWindow] = []

        def score_window(
            trace: CSITrace,
            *,
            occupied: bool,
            distance: float | None,
            angle: float | None,
            location_index: int | None,
        ) -> None:
            for scheme, detector in detectors.items():
                windows.append(
                    ScoredWindow(
                        scheme=scheme,
                        case=link.name,
                        occupied=occupied,
                        score=float(detector.score(trace)),
                        distance_to_rx_m=distance,
                        angle_deg=angle,
                        location_index=location_index,
                        window_packets=trace.num_packets,
                    )
                )

        # Positive windows: every grid location, several bursts each.
        for location_index, position in enumerate(grid):
            distance = grid_distance_to_receiver(link, position)
            angle = grid_angle_to_receiver_deg(link, position)
            for _ in range(config.windows_per_location):
                scene = [config.human_at(position)]
                scene += background.people_for_window()
                scene += drift.clutter_for_window()
                trace = collector.collect(
                    scene,
                    num_packets=config.window_packets,
                    label=f"{link.name}/occupied",
                )
                trace = drift.apply_to_trace(trace, drift.gain_for_window())
                score_window(
                    trace,
                    occupied=True,
                    distance=distance,
                    angle=angle,
                    location_index=location_index,
                )

        # Negative windows: the same number, same ambient conditions, nobody
        # in the monitored area.
        num_negative = len(grid) * config.windows_per_location
        for _ in range(num_negative):
            scene = background.people_for_window() + drift.clutter_for_window()
            trace = collector.collect(
                scene, num_packets=config.window_packets, label=f"{link.name}/empty"
            )
            trace = drift.apply_to_trace(trace, drift.gain_for_window())
            score_window(
                trace, occupied=False, distance=None, angle=None, location_index=None
            )

    return windows
