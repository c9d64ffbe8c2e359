"""Device-free human detection pipelines (Section IV-C, Section V-A).

All detectors share the paper's two-stage structure:

* **Calibration** — collect N CSI packets of the empty environment, sanitise
  them, store the mean amplitude profile ``s^(0)`` and (for the combined
  scheme) the static angular pseudospectrum and its path weights.
* **Monitoring** — collect M packets, compute a scalar detection score and
  compare it against a threshold.

Three schemes are implemented, matching the evaluation's comparison:

* :class:`BaselineDetector` — Euclidean distance of raw CSI amplitudes.
* :class:`SubcarrierWeightingDetector` — Euclidean distance of
  subcarrier-weighted RSS changes (Eq. 15).
* :class:`SubcarrierPathWeightingDetector` — Euclidean distance of
  path-weighted angular pseudospectra computed from subcarrier-weighted CSI
  (the full scheme).

The single-antenna schemes report their score averaged across the available
antennas, exactly as the paper does "for fair comparison".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.aoa.bartlett import BartlettEstimator
from repro.aoa.music import MusicEstimator, PseudoSpectrum
from repro.core.path_weighting import PathWeighting
from repro.core.subcarrier_weighting import SubcarrierWeighting, SubcarrierWeights
from repro.csi.calibration import sanitize_trace
from repro.csi.trace import CSITrace
from repro.utils.convert import power_to_db

#: Per-capture hooks the batched ``pseudospectra`` path bypasses; an override
#: of any of them below the class defining ``pseudospectra`` disables batching.
_BATCH_BYPASSED_HOOKS = (
    "pseudospectrum",
    "pseudospectrum_from_covariance",
    "noise_subspace",
)


#: Per-class batching verdicts; weak keys so dynamically created estimator
#: classes (plugins, notebooks, per-test subclasses) are not pinned forever.
_BATCH_SAFE_VERDICTS: "WeakKeyDictionary[type, bool]" = WeakKeyDictionary()


def _batched_spectra_safe_for_class(cls: type) -> bool:
    """Whether a class's batched ``pseudospectra`` may replace two
    ``pseudospectrum`` calls (memoized per class: the verdict is a pure
    function of the class, and the check runs once per scored window
    otherwise).

    Safe only when ``pseudospectra`` is defined at (or below) every class
    that defines one of the per-capture hooks it bypasses: a subclass that
    overrides ``pseudospectrum``, ``pseudospectrum_from_covariance`` or
    ``noise_subspace`` (e.g. a custom covariance step or diagonal loading)
    while inheriting the parent's batched method must keep the per-capture
    path, or its override would be silently bypassed.
    """

    def defining_class(name: str):
        for klass in cls.__mro__:
            if name in vars(klass):
                return klass
        return None

    try:
        return _BATCH_SAFE_VERDICTS[cls]
    except KeyError:
        pass
    spectra_cls = defining_class("pseudospectra")
    verdict = spectra_cls is not None and defining_class("pseudospectrum") is not None
    if verdict:
        for hook in _BATCH_BYPASSED_HOOKS:
            hook_cls = defining_class(hook)
            if hook_cls is not None and not issubclass(spectra_cls, hook_cls):
                verdict = False
                break
    _BATCH_SAFE_VERDICTS[cls] = verdict
    return verdict


def _batched_spectra_safe(estimator) -> bool:
    """Batching verdict for one estimator instance.

    Class verdicts are memoized; an instance-level patch of any bypassed hook
    (``est.pseudospectrum = custom``) disables batching for that instance so
    the patch keeps being honoured, as it was by the per-capture call path.
    """
    instance_attrs = getattr(estimator, "__dict__", {})
    if any(hook in instance_attrs for hook in _BATCH_BYPASSED_HOOKS):
        return False
    return _batched_spectra_safe_for_class(type(estimator))


#: ``pseudospectra`` implementations whose CSI-to-covariance step is the
#: plain :func:`~repro.aoa.covariance.spatial_covariance` pipeline.  The
#: stacked whole-case scoring path computes those covariances itself (one
#: einsum over all windows), so it may only replace estimators that would
#: have done the same per capture.
_COVARIANCE_PIPELINE_SPECTRA = (
    BartlettEstimator.pseudospectra,
    MusicEstimator.pseudospectra,
)


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one monitoring window.

    Attributes
    ----------
    score:
        The detection statistic (larger = stronger evidence of a person).
    threshold:
        The threshold the score was compared against.
    detected:
        True when ``score > threshold``.
    """

    score: float
    threshold: float
    detected: bool

    def to_dict(self) -> dict[str, float | bool]:
        """The result as a plain JSON-serialisable dict."""
        return {
            "score": float(self.score),
            "threshold": float(self.threshold),
            "detected": bool(self.detected),
        }


class _BaseDetector:
    """Common calibration plumbing shared by the three schemes.

    The public entry points (:meth:`calibrate`, :meth:`score`) split into a
    *prepare* half (packet-count validation plus optional phase
    sanitisation) and a *compute* half (:meth:`_calibrate_prepared`,
    :meth:`_score_prepared`).  Schemes override only the compute half, which
    lets a scoring layer that already holds a sanitised view of a window —
    e.g. one batched :func:`~repro.csi.calibration.sanitize_csi_array` pass
    shared across every scheme — hand it in directly via
    :meth:`score_prepared` / :meth:`calibrate_prepared` without changing any
    detector's standalone behaviour.
    """

    def __init__(self, *, sanitize: bool = True) -> None:
        self.sanitize = sanitize
        self._profile_amplitude: np.ndarray | None = None
        self._calibration_trace: CSITrace | None = None

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_calibration_trace(baseline: CSITrace) -> None:
        if baseline.num_packets < 2:
            raise ValueError(
                "calibration requires at least 2 packets, "
                f"got {baseline.num_packets}"
            )

    def calibrate(self, baseline: CSITrace) -> None:
        """Store the static (no human) profile from a calibration trace."""
        self._check_calibration_trace(baseline)
        self._calibrate_prepared(
            sanitize_trace(baseline) if self.sanitize else baseline
        )

    def calibrate_prepared(self, baseline: CSITrace) -> None:
        """Calibrate from an already-prepared (sanitised) baseline.

        *baseline* must be exactly what :meth:`calibrate` would have
        produced internally — i.e. ``sanitize_trace(raw)`` for a sanitising
        detector.  Callers batching the sanitisation across several
        consumers (see :func:`repro.api.monitor.calibrate_shared`) use this
        to skip the redundant per-detector pass; the stored profile is
        bit-identical to :meth:`calibrate` on the raw trace.
        """
        self._check_calibration_trace(baseline)
        self._calibrate_prepared(baseline)

    def _calibrate_prepared(self, trace: CSITrace) -> None:
        """Store the profile from a prepared trace (schemes extend this)."""
        self._calibration_trace = trace
        self._profile_amplitude = trace.mean_amplitude()

    @property
    def is_calibrated(self) -> bool:
        """Whether :meth:`calibrate` has been called."""
        return self._profile_amplitude is not None

    def _require_calibration(self) -> None:
        if not self.is_calibrated:
            raise RuntimeError(
                f"{type(self).__name__} must be calibrated before monitoring"
            )

    def _prepare(self, window: CSITrace) -> CSITrace:
        if window.num_packets < 1:
            raise ValueError("monitoring window must contain at least one packet")
        return sanitize_trace(window) if self.sanitize else window

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #
    def score(self, window: CSITrace) -> float:
        """Detection statistic of a monitoring window (higher = human)."""
        self._require_calibration()
        return self._score_prepared(self._prepare(window))

    def score_prepared(self, window: CSITrace) -> float:
        """Score an already-prepared (sanitised) monitoring window.

        *window* must be exactly what :meth:`_prepare` would have produced —
        ``sanitize_trace(raw)`` for a sanitising detector.  The per-frame
        phase fits of :func:`~repro.csi.calibration.sanitize_csi_array` are
        independent, so a view sliced out of a larger batched sanitisation
        pass qualifies; the score is bit-identical to :meth:`score` on the
        raw window.
        """
        self._require_calibration()
        if window.num_packets < 1:
            raise ValueError("monitoring window must contain at least one packet")
        return self._score_prepared(window)

    def score_prepared_windows(
        self, windows: "Sequence[CSITrace]", *, cache: dict | None = None
    ) -> list[float]:
        """Scores of several prepared windows at once.

        The base implementation is the plain per-window loop (bit-identical
        to :meth:`score_prepared` per window).  The subcarrier and combined
        schemes override it with a stacked array program over same-shape
        windows that is tolerance-parity (not bitwise) with the loop,
        because stacked reductions reorder floating-point sums, so the
        batch-scoring layer only routes through them when the active backend
        advertises ``tolerance_parity`` (the ``fast`` backend — see
        :mod:`repro.backend`).

        *cache* is an optional scratch dict a caller scoring the same
        windows under several detectors may share between them; overrides
        use it to reuse window-only intermediates (the stacked subcarrier
        weights) across schemes.  One dict serves one window stack: a cache
        shared by calls over different windows would hand one stack's
        weights to another.
        """
        return [float(self.score_prepared(window)) for window in windows]

    def _score_prepared(self, window: CSITrace) -> float:
        """Detection statistic of a prepared window (schemes implement this)."""
        raise NotImplementedError

    def detect(self, window: CSITrace, threshold: float) -> DetectionResult:
        """Score a window and compare it against *threshold*."""
        value = self.score(window)
        return DetectionResult(score=value, threshold=threshold, detected=value > threshold)


#: Hooks whose override (on the class or the instance) makes a detector
#: opt out of the shared-sanitised-window path: a custom ``score`` or
#: ``calibrate`` may not consume a pre-sanitised view at all, and a custom
#: ``_prepare`` changes what "prepared" means.
_SHARED_VIEW_HOOKS = ("score", "calibrate", "_prepare")


def shares_sanitized_view(detector: object) -> bool:
    """Whether *detector* may be handed one shared sanitised window view.

    True only for sanitising :class:`_BaseDetector` instances that keep the
    base-class ``score`` / ``calibrate`` / ``_prepare`` plumbing (overriding
    just the ``_score_prepared`` / ``_calibrate_prepared`` compute hooks, as
    the built-in schemes do).  For such detectors
    ``score_prepared(sanitize_trace(w))`` is bit-identical to ``score(w)``,
    so one batched sanitisation pass can serve every scheme.  Detectors that
    override the plumbing — or patch it per instance — fall back to their
    own standalone path.
    """
    if not isinstance(detector, _BaseDetector) or not detector.sanitize:
        return False
    instance_attrs = getattr(detector, "__dict__", {})
    cls = type(detector)
    for hook in _SHARED_VIEW_HOOKS:
        if hook in instance_attrs or getattr(cls, hook) is not getattr(_BaseDetector, hook):
            return False
    return True


def _stacked_window_csi(windows: Sequence[CSITrace]) -> np.ndarray | None:
    """Stack same-shape prepared windows into ``(windows, packets, antennas,
    subcarriers)``, or None when the shapes are heterogeneous (the batched
    scoring overrides then fall back to the per-window loop)."""
    if not windows:
        return None
    shape = windows[0].csi.shape
    if any(window.csi.shape != shape for window in windows[1:]):
        return None
    if shape[0] < 1:
        raise ValueError("monitoring window must contain at least one packet")
    return np.stack([window.csi for window in windows])


def _shared_stacked_weights(
    weighting: SubcarrierWeighting, stacked: np.ndarray, cache: dict | None
) -> np.ndarray:
    """Stacked subcarrier weights, shared across detectors via *cache*.

    The subcarrier and combined schemes compute identical weights for the
    same window stack whenever their weighting parameters agree; a caller
    scoring both hands in one scratch dict so the second scheme reuses the
    first's result.  The key holds only the weighting parameters, so *cache*
    must belong to this one window stack.  Weightings with a custom
    frequency grid are not cached (the grid would need hashing)."""
    if cache is None or weighting.frequencies is not None:
        return weighting.stacked_weights(stacked)
    key = ("stacked_weights", weighting.use_stability_ratio)
    weights = cache.get(key)
    if weights is None:
        weights = weighting.stacked_weights(stacked)
        cache[key] = weights
    return weights


def _baseline_distance(mean_amplitude: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """The baseline scheme's one distance formula: Euclidean distance over
    subcarriers, mean over antennas; any leading axes index windows and are
    reduced row by row, so stacking windows never changes a score's bits."""
    return np.linalg.norm(mean_amplitude - profile, axis=-1).mean(axis=-1)


def baseline_scores(
    detectors: Sequence["BaselineDetector"], windows: Sequence[CSITrace]
) -> list[float]:
    """Baseline scores of prepared windows, window ``i`` under ``detectors[i]``.

    Each window's mean amplitude and its detector's calibration profile are
    stacked into ``(windows, antennas, subcarriers)`` arrays and reduced in
    one :func:`_baseline_distance` call, bit-identical to scoring every
    window on its own however many windows and detectors share the stack.
    Pairs of mixed shapes are scored one by one.
    """
    if not windows:
        return []
    for detector in detectors:
        detector._require_calibration()
    if any(window.num_packets < 1 for window in windows):
        raise ValueError("monitoring window must contain at least one packet")
    profiles = [detector._profile_amplitude for detector in detectors]
    means = [window.mean_amplitude() for window in windows]
    if len({array.shape for array in (*means, *profiles)}) > 1:
        scores = [_baseline_distance(mean, p) for mean, p in zip(means, profiles)]
    else:
        scores = _baseline_distance(np.stack(means), np.stack(profiles))
    return [float(score) for score in scores]


class BaselineDetector(_BaseDetector):
    """Euclidean distance of CSI amplitudes (the paper's baseline scheme).

    The score is the Euclidean distance between the mean CSI amplitude of the
    monitoring window and the calibration profile, averaged over antennas
    (see :func:`_baseline_distance`).
    """

    def _score_prepared(self, window: CSITrace) -> float:
        return float(_baseline_distance(window.mean_amplitude(), self._profile_amplitude))

    def score_prepared_windows(
        self, windows: Sequence[CSITrace], *, cache: dict | None = None
    ) -> list[float]:
        """Scores of several prepared windows in one stacked program.

        Unlike the other schemes' stacked overrides this one is bit-exact
        with :meth:`score_prepared` per window: :func:`baseline_scores`
        reduces every row on its own.
        """
        return baseline_scores([self] * len(windows), windows)


class SubcarrierWeightingDetector(_BaseDetector):
    """Euclidean distance of subcarrier-weighted RSS changes (Eq. 15).

    Parameters
    ----------
    use_stability_ratio:
        Forwarded to :class:`~repro.core.subcarrier_weighting.SubcarrierWeighting`;
        False gives the per-packet Eq. 12 ablation variant.
    sanitize:
        Whether to phase-sanitise traces before processing.
    """

    def __init__(
        self, *, use_stability_ratio: bool = True, sanitize: bool = True
    ) -> None:
        super().__init__(sanitize=sanitize)
        self.weighting = SubcarrierWeighting(use_stability_ratio=use_stability_ratio)

    def _score_prepared(self, window: CSITrace) -> float:
        assert self._profile_amplitude is not None
        weights = self.weighting.weights_from_trace(window)
        profile_rss = power_to_db(self._profile_amplitude**2)
        window_rss = power_to_db(window.mean_amplitude() ** 2)
        delta_s = window_rss - profile_rss
        weighted = weights.apply(delta_s)
        # Weighted RMS: dividing by the weight-vector norm makes the score a
        # weighted root-mean-square RSS change in dB, so one global threshold
        # (the paper applies a single threshold across all cases) remains
        # meaningful whether the weights concentrate on a few subcarriers or
        # spread evenly.
        weight_norms = np.linalg.norm(weights.weights, axis=1)
        distances = np.linalg.norm(weighted, axis=1) / np.maximum(weight_norms, 1e-12)
        return float(distances.mean())

    def score_prepared_windows(
        self, windows: Sequence[CSITrace], *, cache: dict | None = None
    ) -> list[float]:
        self._require_calibration()
        stacked = _stacked_window_csi(windows)
        if stacked is None:
            return super().score_prepared_windows(windows)
        assert self._profile_amplitude is not None
        weights = _shared_stacked_weights(self.weighting, stacked, cache)
        profile_rss = power_to_db(self._profile_amplitude**2)
        window_rss = power_to_db(np.abs(stacked).mean(axis=1) ** 2)
        delta_s = window_rss - profile_rss[None]
        weighted = weights * delta_s
        weight_norms = np.linalg.norm(weights, axis=2)
        distances = np.linalg.norm(weighted, axis=2) / np.maximum(weight_norms, 1e-12)
        return [float(score) for score in distances.mean(axis=1)]

    def last_weights(self, window: CSITrace) -> SubcarrierWeights:
        """Expose the weights computed for a window (diagnostics, figures)."""
        window = self._prepare(window)
        return self.weighting.weights_from_trace(window)


class SubcarrierPathWeightingDetector(_BaseDetector):
    """The full scheme: subcarrier weighting + path-weighted angular spectra.

    During calibration the static angular spectrum is computed and inverted
    into path weights (Eq. 17, gated to ±60° by default).  During monitoring
    the window's CSI is subcarrier-weighted, transformed into an angular
    spectrum, path-weighted, and compared with the equally processed static
    profile by Euclidean distance.

    Parameters
    ----------
    spectrum_estimator:
        Any estimator exposing ``pseudospectrum(csi) -> PseudoSpectrum``
        bound to the receive array — typically a
        :class:`~repro.aoa.bartlett.BartlettEstimator` (power-calibrated
        angular spectrum, the library default for detection) or a
        :class:`~repro.aoa.music.MusicEstimator` (the paper's literal choice;
        sharper peaks but scale-free values).  See DESIGN.md for the
        trade-off.
    theta_min_deg, theta_max_deg:
        Angular gate of the path weights.
    use_stability_ratio:
        Subcarrier weighting variant (see :class:`SubcarrierWeightingDetector`).
    sanitize:
        Whether to phase-sanitise traces before processing.
    """

    def __init__(
        self,
        spectrum_estimator,
        *,
        theta_min_deg: float = -60.0,
        theta_max_deg: float = 60.0,
        use_stability_ratio: bool = True,
        sanitize: bool = True,
    ) -> None:
        super().__init__(sanitize=sanitize)
        if not hasattr(spectrum_estimator, "pseudospectrum"):
            raise TypeError(
                "spectrum_estimator must provide a pseudospectrum(csi) method, "
                f"got {type(spectrum_estimator).__name__}"
            )
        self.spectrum_estimator = spectrum_estimator
        self.theta_min_deg = theta_min_deg
        self.theta_max_deg = theta_max_deg
        self.weighting = SubcarrierWeighting(use_stability_ratio=use_stability_ratio)
        self._path_weighting: PathWeighting | None = None

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def _calibrate_prepared(self, trace: CSITrace) -> None:
        super()._calibrate_prepared(trace)
        assert self._calibration_trace is not None
        # Path weights come from the *unweighted* static environment: this is
        # the calibration-stage MUSIC/Bartlett pass of Section IV-C, which
        # only needs to know where the static propagation paths arrive from.
        raw_static = self.spectrum_estimator.pseudospectrum(self._calibration_trace.csi)
        if float(np.sum(raw_static.values)) <= 0:
            raise ValueError("calibration produced a spectrum with no power")
        self._path_weighting = PathWeighting(
            static_spectrum=raw_static,
            theta_min_deg=self.theta_min_deg,
            theta_max_deg=self.theta_max_deg,
        )

    @property
    def path_weighting(self) -> PathWeighting:
        """The path weighting derived at calibration time."""
        self._require_calibration()
        assert self._path_weighting is not None
        return self._path_weighting

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #
    @staticmethod
    def _apply_subcarrier_weights(csi: np.ndarray, weights: SubcarrierWeights) -> np.ndarray:
        """Scale complex CSI by the per-subcarrier weights.

        Weights act on signal power, so amplitudes are scaled by the square
        root of the normalised weights before the spatial processing.
        """
        return csi * np.sqrt(weights.weights)[None, :, :]

    def _weighted_spectra(
        self, window: CSITrace
    ) -> tuple[PseudoSpectrum, PseudoSpectrum]:
        """(monitored, static) angular spectra under the window's weights.

        The subcarrier weights are measured at runtime from the monitoring
        window (Section IV-A2) and the *same* weights are applied to the
        stored calibration CSI "before subtracting them" (Section IV-C), so
        the two spectra differ only through genuine channel changes and not
        through the weighting itself.
        """
        self._require_calibration()
        assert self._calibration_trace is not None
        weights = self.weighting.weights_from_trace(window)
        monitored_csi = self._apply_subcarrier_weights(window.csi, weights)
        static_csi = self._apply_subcarrier_weights(self._calibration_trace.csi, weights)
        estimator = self.spectrum_estimator
        if _batched_spectra_safe(estimator):
            # Batched protocol: the estimator applies its own CSI-to-
            # covariance step and shares one steering-matrix evaluation;
            # bit-identical to two pseudospectrum() calls.
            monitored, static = estimator.pseudospectra([monitored_csi, static_csi])
        else:
            monitored = estimator.pseudospectrum(monitored_csi)
            static = estimator.pseudospectrum(static_csi)
        return monitored, static

    def monitored_spectrum(self, window: CSITrace) -> PseudoSpectrum:
        """Angular spectrum of a monitoring window after subcarrier weighting."""
        window = self._prepare(window)
        monitored, _ = self._weighted_spectra(window)
        return monitored

    def _spectra_batchable(self) -> bool:
        """Whether the stacked scoring path may bypass the estimator's own
        CSI-to-covariance step (it recomputes the plain
        :func:`~repro.aoa.covariance.spatial_covariance` as one einsum over
        every window, which is only faithful for the stock pipeline)."""
        estimator = self.spectrum_estimator
        if not _batched_spectra_safe(estimator):
            return False
        if "pseudospectra" in getattr(estimator, "__dict__", {}):
            return False
        return (
            getattr(type(estimator), "pseudospectra", None)
            in _COVARIANCE_PIPELINE_SPECTRA
        )

    def score_prepared_windows(
        self, windows: Sequence[CSITrace], *, cache: dict | None = None
    ) -> list[float]:
        self._require_calibration()
        assert self._path_weighting is not None
        assert self._calibration_trace is not None
        stacked = _stacked_window_csi(windows)
        if stacked is None or not self._spectra_batchable():
            return super().score_prepared_windows(windows)
        weights = _shared_stacked_weights(self.weighting, stacked, cache)
        sqrt_weights = np.sqrt(weights)  # amplitude scaling per window
        monitored = stacked * sqrt_weights[:, None, :, :]
        num_windows, packets, _, subcarriers = monitored.shape
        # Spatial covariances of every window's monitored CSI and of the
        # calibration CSI under that window's weights, without materialising
        # the (windows, cal_packets, antennas, subcarriers) weighted stack:
        # the weights factor out of the calibration Gram tensor.
        monitored_cov = np.einsum(
            "wpas,wpbs->wab", monitored, monitored.conj()
        ) / (packets * subcarriers)
        calibration = self._calibration_trace.csi
        cal_packets = calibration.shape[0]
        gram = np.einsum("cas,cbs->abs", calibration, calibration.conj())
        static_cov = np.einsum(
            "was,wbs,abs->wab", sqrt_weights, sqrt_weights, gram
        ) / (cal_packets * subcarriers)
        spectra = self.spectrum_estimator.pseudospectra_from_covariances(
            np.concatenate([monitored_cov, static_cov], axis=0)
        )
        static_grid = self._path_weighting.static_spectrum.angles_deg
        grid = spectra[0].angles_deg
        if grid.shape != static_grid.shape or not np.allclose(grid, static_grid):
            return super().score_prepared_windows(windows)
        path_weights = self._path_weighting.weights()
        values = np.stack([spectrum.values for spectrum in spectra])
        weighted_monitored = path_weights[None, :] * values[:num_windows]
        weighted_static = path_weights[None, :] * values[num_windows:]
        reference = weighted_static.max(axis=1)
        if np.any(reference <= 0):
            raise ValueError(
                "path-weighted static spectrum has no power inside the gate"
            )
        difference = (weighted_monitored - weighted_static) / reference[:, None]
        return [float(score) for score in np.linalg.norm(difference, axis=1)]

    def _score_prepared(self, window: CSITrace) -> float:
        assert self._path_weighting is not None
        monitored, static = self._weighted_spectra(window)
        weighted_monitored = self._path_weighting.apply(monitored)
        weighted_static = self._path_weighting.apply(static)
        # Express the distance in units of relative per-direction power
        # change (the path weights invert the static spectrum, so the
        # weighted static spectrum is flat inside the gate); dividing by its
        # peak makes one global threshold transfer across link cases with
        # very different absolute received powers.
        reference = float(np.max(weighted_static))
        if reference <= 0:
            raise ValueError("path-weighted static spectrum has no power inside the gate")
        difference = (weighted_monitored - weighted_static) / reference
        return float(np.linalg.norm(difference))
