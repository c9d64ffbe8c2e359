"""The bit-parity backend: every kernel takes the scalar libm route.

This is the default backend and the one the campaign sha256 pins are taken
against.  NumPy's own ``np.exp`` / ``np.hypot`` / ``np.arccos`` / ``**`` use
SIMD kernels (or ``x*x`` strength reduction for squares) that differ from
CPython's libm-backed :mod:`math` functions in the last ulp, so replacing a
``math.exp`` loop with ``np.exp`` would silently change every downstream
float.  The elementwise transcendentals here therefore go through
:func:`numpy.frompyfunc` over :mod:`math` — the *same* libm calls the scalar
reference code makes, applied elementwise.  All surrounding arithmetic
(``+ - * /``, ``min``/``max``/``clip``) is correctly rounded per IEEE-754 and
identical between NumPy and Python scalars; only these kernels need the exact
route.  The cost is a Python-level call per element, which is fine for the
small arrays they appear in (person-to-segment offsets, per-scene angles).

The IFFT is NumPy's own (the scalar and batch paths share pocketfft, so there
is nothing to pin around), and the batched linear-phase fit replicates
``np.polyfit(deg=1)`` bit-for-bit through NumPy's private ``lstsq`` gufunc
with a per-row ``np.polyfit`` fallback.

DET001 (the determinism lint's libm-routing rule) is scoped to this module:
a bare NumPy transcendental here would silently break the sha256 pins, so the
lint keeps the libm routing honest.  The private-API rule DET006 is excluded
for this module in ``pyproject.toml`` — the gufunc import below is the one
sanctioned private-NumPy site in the tree, guarded by a try/except and the
``REPRO_FORCE_POLYFIT_FALLBACK`` escape hatch.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.backend.registry import register_backend

_EXP = np.frompyfunc(math.exp, 1, 1)
_HYPOT = np.frompyfunc(math.hypot, 2, 1)
_SIN = np.frompyfunc(math.sin, 1, 1)
_ACOS = np.frompyfunc(math.acos, 1, 1)
#: Python ``x ** p``: ``float.__pow__`` calls libm ``pow`` whereas
#: ``np.ndarray.__pow__`` strength-reduces small integral exponents to
#: repeated multiplication; the two differ in the last ulp for some inputs.
#: The first form takes one Python-float exponent for every element.
_POW = np.frompyfunc(lambda x, p: float(x) ** p, 2, 1)
_POW_ELEMENTWISE = np.frompyfunc(lambda x, p: float(x) ** float(p), 2, 1)


def _ieee_pow(x: float, p: float) -> float:
    """``x ** p`` with libm ``pow``'s ±inf or nan where Python raises or goes complex."""
    try:
        result = x**p
    except (OverflowError, ZeroDivisionError):
        if p != int(p):
            return math.nan if x < 0 else math.inf
        return math.copysign(math.inf, x) if int(p) % 2 else math.inf
    return math.nan if isinstance(result, complex) else result


_IEEE_POW = np.frompyfunc(lambda x, p: _ieee_pow(float(x), float(p)), 2, 1)


def _pow(kernel: np.ufunc, x: np.ndarray, p: np.ndarray | float) -> np.ndarray:
    """Run a ``pow`` kernel, redoing a call Python's ``**`` rejected with ``_IEEE_POW``.

    The normal path stays one ``frompyfunc`` call with no per-element work.
    """
    try:
        return kernel(x, p).astype(float)
    except (OverflowError, ZeroDivisionError, TypeError):
        return _IEEE_POW(x, p).astype(float)


#: Elementwise ``math.exp(-(r ** 2))`` — the Gaussian core of the human
#: shadowing profile, fused into one exact pass so the batched attenuation
#: reproduces the scalar expression bit-for-bit (both the libm ``pow`` of
#: ``r ** 2`` and the libm ``exp``).
_GAUSS_PROFILE = np.frompyfunc(lambda r: math.exp(-(float(r) ** 2)), 1, 1)

try:  # pragma: no cover - import guard exercised implicitly
    from numpy.linalg import _umath_linalg as _umath_linalg

    _LSTSQ_GUFUNC = getattr(_umath_linalg, "lstsq", None) or getattr(
        _umath_linalg, "lstsq_m", None
    )
except Exception:  # pragma: no cover - numpy layout change
    _LSTSQ_GUFUNC = None

# Deterministic escape hatch for CI: setting REPRO_FORCE_POLYFIT_FALLBACK
# (to anything but an explicit off value) makes the batched fits take the
# per-row np.polyfit path even when the private gufunc is available, so the
# fallback is exercised on every NumPy rather than only on layouts where the
# gufunc has moved.
if os.environ.get("REPRO_FORCE_POLYFIT_FALLBACK", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
):
    _LSTSQ_GUFUNC = None


@register_backend("exact")
class ExactBackend:
    """Libm-routed kernels, bit-identical to the scalar reference path."""

    name = "exact"
    #: Byte equality promised: no layer may substitute float-reassociated
    #: batch programs (stacked scoring, fused phase products) for the
    #: historical operation order the sha256 score pins depend on.
    tolerance_parity = False

    @property
    def real_dtype(self):
        return np.dtype(np.float64)

    @property
    def complex_dtype(self):
        return np.dtype(np.complex128)

    # -- elementwise transcendentals ------------------------------------- #
    def exp(self, x: np.ndarray) -> np.ndarray:
        return _EXP(np.asarray(x, dtype=float)).astype(float)

    def hypot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _HYPOT(np.asarray(x, dtype=float), np.asarray(y, dtype=float)).astype(float)

    def sin(self, x: np.ndarray) -> np.ndarray:
        return _SIN(np.asarray(x, dtype=float)).astype(float)

    def acos(self, x: np.ndarray) -> np.ndarray:
        return _ACOS(np.asarray(x, dtype=float)).astype(float)

    def power(self, x: np.ndarray, exponent: float) -> np.ndarray:
        return _pow(_POW, np.asarray(x, dtype=float), float(exponent))

    def power_elementwise(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _pow(_POW_ELEMENTWISE, np.asarray(x, dtype=float), np.asarray(p, dtype=float))

    def gauss(self, x: np.ndarray) -> np.ndarray:
        return _GAUSS_PROFILE(np.asarray(x, dtype=float)).astype(float)

    def cis(self, theta: np.ndarray) -> np.ndarray:
        # Bit-identical to the historical ``np.exp(1j * theta)`` call sites:
        # complex exp evaluates exp(re) * (cos(im) + 1j sin(im)) with
        # exp(+/-0.0) == 1.0 exactly, so the sign of the zero real part
        # (from ``1j * theta`` vs ``-1j * (-theta)``) never surfaces.
        return np.exp(1j * np.asarray(theta, dtype=float))

    # -- FFT entry points ------------------------------------------------ #
    def ifft(self, rows: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.ifft(rows, axis=axis)

    # -- batched linear algebra ------------------------------------------ #
    def linear_phase_fits(self, indices: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Per-row ``(slope, offset)`` fits, bit-identical to ``np.polyfit(deg=1)``.

        Replicates ``np.polyfit``'s preprocessing (Vandermonde matrix, column
        scaling, default ``rcond``) once for the shared abscissa, then solves
        all rows through the ``lstsq`` gufunc with a leading batch dimension:
        every row is still an independent single-RHS LAPACK solve on the same
        scaled matrix — exactly the computation ``np.polyfit(indices, row, 1)``
        runs — but the loop over rows happens in C.  Falls back to the literal
        per-row ``np.polyfit`` when the gufunc is unavailable.
        """
        # np.polyfit promotes x and y with `+ 0.0`, which also normalises any
        # negative zeros; repeat it so the fitted bits cannot differ.
        indices = np.asarray(indices, dtype=float) + 0.0
        phases = np.ascontiguousarray(phases, dtype=float) + 0.0
        if phases.shape[0] == 0:
            return np.zeros((0, 2), dtype=float)
        lhs = np.vander(indices, 2)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs_scaled = lhs / scale
        rcond = len(indices) * np.finfo(indices.dtype).eps
        if _LSTSQ_GUFUNC is not None:
            stacked = np.broadcast_to(
                lhs_scaled, (phases.shape[0], *lhs_scaled.shape)
            )
            coefficients = _LSTSQ_GUFUNC(stacked, phases[:, :, None], rcond)[0][:, :, 0]
            return coefficients / scale[None, :]
        return np.stack([np.polyfit(indices, row, 1) for row in phases])
