"""String-keyed detector registry.

The paper compares three fixed schemes, and the seed codebase hard-coded that
triple everywhere a detector was constructed.  The registry makes schemes
pluggable: a factory registered under a name can be instantiated from any
:class:`~repro.api.config.PipelineConfig` that names it, so the runner, the
CLI and user code all construct detectors the same way — and new schemes drop
in without touching any of them::

    from repro.api import register_detector

    @register_detector("my-scheme")
    def build_my_scheme(config, link):
        return MyDetector(sanitize=config.sanitize)

A factory receives the :class:`~repro.api.config.PipelineConfig` and the
monitored :class:`~repro.channel.channel.Link` (which may be ``None`` for
detectors that do not need array geometry) and returns a calibratable
detector — any object with ``calibrate(trace)`` and ``score(window)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.music import MusicEstimator
from repro.core.detector import (
    BaselineDetector,
    SubcarrierPathWeightingDetector,
    SubcarrierWeightingDetector,
)

from repro.api.config import PipelineConfig
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channel.channel import Link

#: A detector factory: (config, link) -> detector instance.
DetectorFactory = Callable[[PipelineConfig, Optional["Link"]], object]


class DetectorRegistry(Registry[DetectorFactory]):
    """A mutable mapping from scheme names to detector factories."""

    kind = "detector"

    def create(
        self,
        name: str,
        *,
        config: PipelineConfig | None = None,
        link: "Link | None" = None,
    ):
        """Instantiate the detector registered under *name*.

        Parameters
        ----------
        name:
            Registered scheme name.
        config:
            Pipeline configuration handed to the factory; defaults to
            ``PipelineConfig(detector=name)``.
        link:
            The monitored link, for factories that need array geometry.
        """
        factory = self.get(name)
        if config is None:
            config = PipelineConfig(detector=name)
        return factory(config, link)


#: The process-wide registry used when no explicit registry is passed.
DEFAULT_REGISTRY = DetectorRegistry()


def register_detector(name: str, *, registry: DetectorRegistry | None = None):
    """Decorator registering a detector factory in the (default) registry::

        @register_detector("my-scheme")
        def build_my_scheme(config, link):
            return MyDetector()
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.register(name)


def available_detectors() -> tuple[str, ...]:
    """Names registered in the default registry (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()


# --------------------------------------------------------------------------- #
# built-in schemes (the paper's evaluation triple)
# --------------------------------------------------------------------------- #
@register_detector("baseline")
def _build_baseline(config: PipelineConfig, link: "Link | None"):
    """Euclidean distance of raw CSI amplitudes."""
    return BaselineDetector(sanitize=config.sanitize)


@register_detector("subcarrier")
def _build_subcarrier(config: PipelineConfig, link: "Link | None"):
    """Subcarrier-weighted RSS change (Eq. 15)."""
    return SubcarrierWeightingDetector(
        use_stability_ratio=config.use_stability_ratio, sanitize=config.sanitize
    )


@register_detector("combined")
def _build_combined(config: PipelineConfig, link: "Link | None"):
    """Subcarrier weighting + path-weighted angular spectra (the full scheme)."""
    if link is None or link.array is None:
        raise ValueError(
            "the 'combined' scheme needs a link with a receive array; "
            "pass link= when building the detector"
        )
    if config.spectrum == "music":
        estimator: object = MusicEstimator(array=link.array, num_sources=2)
    else:
        estimator = BartlettEstimator(array=link.array)
    return SubcarrierPathWeightingDetector(
        estimator,
        theta_min_deg=config.theta_min_deg,
        theta_max_deg=config.theta_max_deg,
        use_stability_ratio=config.use_stability_ratio,
        sanitize=config.sanitize,
    )
