"""Measurement impairments of commodity WiFi CSI.

Raw Intel 5300 CSI is far from the clean channel frequency response: each
packet carries a random common phase from residual carrier frequency offset
(CFO), a linear phase slope across subcarriers from sampling frequency offset
(SFO) and packet detection delay, an amplitude wobble from automatic gain
control (AGC), and thermal noise.  The paper calibrates the raw CSI "as in
[26]" (Sen et al.) to remove the phase artefacts; reproducing the impairments
here lets the calibration stage in :mod:`repro.csi.calibration` do real work.

:meth:`ImpairmentModel.apply` impairs one packet and is the reference the
plan is fuzzed against; :class:`ImpairmentDrawPlan` is the one production
path (the simulator's ``impair`` / ``sample_*`` and every collector).  It draws
each packet with two generator calls — one uniform, one block of standard
normals — in exactly the reference's consumption order, and impairs the
whole burst array at a time, byte-identical to stacked ``apply`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import active_backend
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class ImpairmentModel:
    """Per-packet impairments applied to a clean CFR.

    Parameters
    ----------
    snr_db:
        Average signal-to-noise ratio of the received CSI.  Thermal noise is
        complex Gaussian with power set relative to the mean subcarrier power
        of the clean CFR.
    cfo_phase:
        When True, a common random phase (uniform over ``[0, 2pi)``) is
        applied to the whole packet, identical across antennas driven by the
        same oscillator.
    sfo_slope_std:
        Standard deviation (radians per subcarrier index) of the random
        linear phase slope from SFO / packet detection delay.
    agc_std_db:
        Standard deviation of the per-packet log-normal amplitude jitter from
        automatic gain control.
    antenna_phase_offsets:
        When True, each antenna receives an additional small fixed-per-packet
        phase offset, modelling imperfect RF-chain phase alignment.
    """

    snr_db: float = 30.0
    cfo_phase: bool = True
    sfo_slope_std: float = 0.05
    agc_std_db: float = 0.5
    antenna_phase_offsets: bool = True

    def apply(
        self,
        cfr: np.ndarray,
        subcarrier_indices: np.ndarray,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Return a noisy copy of *cfr* (shape ``(antennas, subcarriers)``).

        Parameters
        ----------
        cfr:
            Clean channel frequency response.
        subcarrier_indices:
            Intel-5300 subcarrier indices (used for the SFO phase slope so it
            is linear in actual frequency offset, not array position).
        seed:
            Seed or generator controlling the random draws for this packet.
        """
        rng = ensure_rng(seed)
        cfr = np.asarray(cfr, dtype=complex)
        if cfr.ndim != 2:
            raise ValueError(
                f"cfr must have shape (antennas, subcarriers), got {cfr.shape}"
            )
        indices = np.asarray(subcarrier_indices, dtype=float)
        if indices.shape != (cfr.shape[1],):
            raise ValueError(
                f"subcarrier_indices has shape {indices.shape}, expected ({cfr.shape[1]},)"
            )
        noisy = cfr.copy()

        if self.cfo_phase:
            common_phase = rng.uniform(0.0, 2.0 * np.pi)
            noisy *= np.exp(1j * common_phase)

        if self.sfo_slope_std > 0:
            slope = rng.normal(0.0, self.sfo_slope_std)
            noisy *= np.exp(1j * slope * indices)[None, :]

        if self.antenna_phase_offsets and cfr.shape[0] > 1:
            offsets = rng.normal(0.0, 0.1, size=cfr.shape[0])
            noisy *= np.exp(1j * offsets)[:, None]

        if self.agc_std_db > 0:
            gain_db = rng.normal(0.0, self.agc_std_db)
            noisy *= 10.0 ** (gain_db / 20.0)

        mean_power = float(np.mean(np.abs(cfr) ** 2))
        if mean_power > 0 and np.isfinite(self.snr_db):
            noise_power = mean_power / (10.0 ** (self.snr_db / 10.0))
            noise = rng.normal(0.0, np.sqrt(noise_power / 2.0), size=cfr.shape) + 1j * rng.normal(
                0.0, np.sqrt(noise_power / 2.0), size=cfr.shape
            )
            noisy += noise

        return noisy

    def draw_plan(
        self,
        cleans: np.ndarray,
        subcarrier_indices: np.ndarray,
        *,
        num_packets: int | None = None,
    ) -> "ImpairmentDrawPlan":
        """A draw-order-compatible plan for a burst of per-packet impairments.

        The plan keeps the exact RNG consumption of sequential :meth:`apply`
        calls: the caller invokes :meth:`ImpairmentDrawPlan.draw_next` per
        received packet — interleaved with its own draws, for example a
        collector's loss process — or once per lossless burst, and every
        packet consumes the generator precisely as :meth:`apply` would.  The
        heavy array arithmetic then runs once for the whole burst in
        :meth:`ImpairmentDrawPlan.apply`, bit-identical to the sequential
        path.

        Parameters
        ----------
        cleans:
            Either one clean CFR of shape ``(antennas, subcarriers)`` (a
            static scene; *num_packets* is required) or a stack of candidate
            CFRs of shape ``(candidates, antennas, subcarriers)`` (for
            example one per trajectory position, or one per monitoring
            window of a whole case).
        subcarrier_indices:
            Intel-5300 subcarrier indices (for the SFO phase slope).
        num_packets:
            Plan capacity.  Required for the single-CFR form; for a
            candidate stack it defaults to one packet per candidate and may
            be set higher when candidates repeat (e.g. many packets of the
            same static window drawn against one shared plan).
        """
        return ImpairmentDrawPlan(self, cleans, subcarrier_indices, num_packets=num_packets)

    def noiseless(self) -> "ImpairmentModel":
        """A copy of this model with every impairment switched off.

        Useful in tests and analytic figures where the clean channel is
        needed for ground truth.
        """
        return ImpairmentModel(
            snr_db=np.inf,
            cfo_phase=False,
            sfo_slope_std=0.0,
            agc_std_db=0.0,
            antenna_phase_offsets=False,
        )


class ImpairmentDrawPlan:
    """Pre-drawn per-packet impairment randomness in the sequential order.

    Built by :meth:`ImpairmentModel.draw_plan`.  The plan splits
    :meth:`ImpairmentModel.apply` into its two halves: the *draws* (which
    must consume the generator in exactly the sequential per-packet order,
    interleaved with any caller-side draws such as a loss process) and the
    *application* (pure array arithmetic with no randomness, which runs
    once for the whole burst).

    A packet costs two generator calls where :meth:`ImpairmentModel.apply`
    makes up to six.  NumPy computes ``uniform(0, h)`` as
    ``0.0 + h * random()`` and ``normal(0, s, size)`` as
    ``0.0 + s * standard_normal(size)``, bit for bit and with the same
    generator advance, and consecutive standard-normal draws concatenate.
    So each packet stores one ``random()`` (the CFO phase) and one
    ``standard_normal`` row holding, in ``apply()``'s order, the SFO slope,
    the antenna offsets, the AGC gain and the real then imaginary noise;
    :meth:`apply` does the ``loc + scale * z`` scaling array at a time.

    Every multiplication then happens in the same order and with
    bit-identical factors as the sequential path — the AGC gain is routed
    through the backend ``power_elementwise`` kernel (libm-exact in
    ``exact`` mode) because NumPy's array ``**`` differs from the scalar
    libm ``pow`` in the last ulp — so ``plan.apply()`` is byte-identical to
    stacking sequential :meth:`ImpairmentModel.apply` calls.
    """

    def __init__(
        self,
        model: ImpairmentModel,
        cleans: np.ndarray,
        subcarrier_indices: np.ndarray,
        *,
        num_packets: int | None = None,
    ) -> None:
        cleans = np.asarray(cleans, dtype=complex)
        if cleans.ndim == 2:
            if num_packets is None:
                raise ValueError(
                    "num_packets is required when cleans has shape (antennas, subcarriers)"
                )
            if num_packets < 1:
                raise ValueError(f"num_packets must be >= 1, got {num_packets}")
            candidates = cleans[None, :, :]
            capacity = num_packets
        elif cleans.ndim == 3:
            if num_packets is not None and num_packets < 1:
                raise ValueError(f"num_packets must be >= 1, got {num_packets}")
            candidates = cleans
            capacity = cleans.shape[0] if num_packets is None else num_packets
        else:
            raise ValueError(
                "cleans must have shape (antennas, subcarriers) or "
                f"(candidates, antennas, subcarriers), got {cleans.shape}"
            )
        _, antennas, subcarriers = candidates.shape
        indices = np.asarray(subcarrier_indices, dtype=float)
        if indices.shape != (subcarriers,):
            raise ValueError(
                f"subcarrier_indices has shape {indices.shape}, expected ({subcarriers},)"
            )
        self._model = model
        self._candidates = candidates
        self._indices = indices
        self._antennas = antennas
        self._subcarriers = subcarriers
        self._count = 0
        self._chosen = np.empty(capacity, dtype=np.intp)
        self._uniforms = np.empty(capacity) if model.cfo_phase else None
        # Columns of a packet's standard-normal row, in apply()'s draw order.
        width = 0
        self._slope_col: int | None = None
        if model.sfo_slope_std > 0:
            self._slope_col, width = width, width + 1
        self._offset_cols: slice | None = None
        if model.antenna_phase_offsets and antennas > 1:
            self._offset_cols, width = slice(width, width + antennas), width + antennas
        self._gain_col: int | None = None
        if model.agc_std_db > 0:
            self._gain_col, width = width, width + 1
        self._noise_col = width
        # Per-candidate noise scale, exactly as apply() derives it: the noise
        # power tracks each candidate's own clean mean subcarrier power, and
        # a zero-power candidate draws (and receives) no noise at all.
        self._noise_scale = np.zeros(candidates.shape[0])
        self._noise_active = np.zeros(candidates.shape[0], dtype=bool)
        if np.isfinite(model.snr_db):
            for c, clean in enumerate(candidates):
                mean_power = float(np.mean(np.abs(clean) ** 2))
                if mean_power > 0:
                    self._noise_active[c] = True
                    self._noise_scale[c] = np.sqrt(
                        (mean_power / (10.0 ** (model.snr_db / 10.0))) / 2.0
                    )
        noise_width = 2 * antennas * subcarriers if self._noise_active.any() else 0
        self._widths = [
            width + noise_width if active else width
            for active in self._noise_active.tolist()
        ]
        self._normals = np.empty((capacity, width + noise_width))

    @property
    def num_drawn(self) -> int:
        """How many packets have been drawn so far."""
        return self._count

    @property
    def capacity(self) -> int:
        """Maximum number of packets this plan can hold."""
        return self._chosen.shape[0]

    def draw_next(
        self, rng: np.random.Generator, candidate: int = 0, count: int = 1
    ) -> None:
        """Draw the next *count* packets' impairments for *candidate*.

        Each packet consumes the generator exactly as one
        :meth:`ImpairmentModel.apply` call on that candidate would, and the
        plan makes no other draw, so interleaving single-packet calls with
        caller-side draws (a loss process) reproduces the sequential stream
        byte for byte, and a lossless burst draws in one tight loop.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        start = self._count
        end = start + count
        if end > self._chosen.shape[0]:
            raise RuntimeError(f"plan capacity {self._chosen.shape[0]} exhausted")
        if not 0 <= candidate < self._candidates.shape[0]:
            raise IndexError(f"candidate {candidate} out of range")
        self._chosen[start:end] = candidate
        rows = self._normals[start:end, : self._widths[candidate]]
        random, normal, uniforms = rng.random, rng.standard_normal, self._uniforms
        for p, row in zip(range(start, end), rows):
            if uniforms is not None:
                uniforms[p] = random()
            if row.size:
                normal(out=row)
        self._count = end

    def apply(self) -> np.ndarray:
        """The impaired burst, shape ``(num_drawn, antennas, subcarriers)``.

        Pure array arithmetic over the pre-drawn randomness.  Under the
        ``exact`` backend the in-place multiply sequence matches
        :meth:`ImpairmentModel.apply` factor for factor, so the result is
        bit-identical to the sequential path; a ``tolerance_parity`` backend
        (``fast``) rotates by the summed phase in one step instead — the
        same product up to float reassociation.
        """
        n = self._count
        model = self._model
        chosen = self._chosen[:n]
        z = self._normals[:n]
        noisy = self._candidates[chosen]
        # NumPy's scalar draws compute loc + scale * z; the 0.0 + is kept so
        # a -0.0 product becomes +0.0 here exactly as it does there.
        phases = None if self._uniforms is None else 0.0 + (2.0 * np.pi) * self._uniforms[:n]
        slopes = (
            None if self._slope_col is None else 0.0 + model.sfo_slope_std * z[:, self._slope_col]
        )
        offsets = None if self._offset_cols is None else 0.0 + 0.1 * z[:, self._offset_cols]
        backend = active_backend()
        if getattr(backend, "tolerance_parity", False):
            # Tolerance-parity backends collapse the per-factor unit-phasor
            # multiplies into one rotation by the summed phase — the same
            # product up to reassociation, at a third of the complex work.
            phase: np.ndarray | float = 0.0
            if phases is not None:
                phase = phases[:, None, None]
            if slopes is not None:
                phase = phase + slopes[:, None, None] * self._indices[None, None, :]
            if offsets is not None:
                phase = phase + offsets[:, :, None]
            if isinstance(phase, np.ndarray):
                noisy *= backend.cis(phase)
        else:
            if phases is not None:
                noisy *= np.exp(1j * phases)[:, None, None]
            if slopes is not None:
                noisy *= np.exp(1j * slopes[:, None, None] * self._indices[None, None, :])
            if offsets is not None:
                noisy *= np.exp(1j * offsets)[:, :, None]
        if self._gain_col is not None:
            gains = 0.0 + model.agc_std_db * z[:, self._gain_col]
            noisy *= backend.power_elementwise(10.0, gains / 20.0)[:, None, None]
        # Only packets whose candidate has noise enabled receive the add;
        # apply() skips the += entirely for zero-power cleans, and adding
        # an all-zero array is not a no-op at the bit level (-0.0 + 0.0).
        active = self._noise_active[chosen]
        if active.any():
            rows = slice(None) if active.all() else np.flatnonzero(active)
            block = self._antennas * self._subcarriers
            first = self._noise_col
            scale = self._noise_scale[chosen[rows]][:, None]
            real = 0.0 + scale * z[rows, first : first + block]
            imag = 0.0 + scale * z[rows, first + block : first + 2 * block]
            noisy[rows] += (real + 1j * imag).reshape(-1, *noisy.shape[1:])
        return noisy
