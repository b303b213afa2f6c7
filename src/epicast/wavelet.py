"""Maximal overlap discrete wavelet transform with periodic boundary.

Implements the forward transform with the MODWT pyramid (Percival & Walden
2000, section 5.5), O(N J L) for J levels of an L-tap filter pair; the additive
multiresolution analysis (details + smooth) by the transposed cascade, O(N J^2 L);
exact inverse reconstruction; and an O(N^2) circulant-matrix oracle built from
the level-j equivalent filters, used to cross-check the fast path in tests.

Locality: level j of the pyramid looks back (2^(j-1))(L - 1) points and the
transposed cascade looks forward as far, so every MRA value at t depends only
on y[t - r .. t + r] (mod N), with reach r = (2^J - 1)(L - 1); r = 2^J - 1 for
Haar. The transform of any circular window that covers t +/- r therefore gives
bitwise the same values at t as the transform of the whole series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal scaling/wavelet filter pair of common even width M.

    Construction validates unit energy, even-shift orthogonality, and the
    quadrature-mirror relation g_m = (-1)^(m+1) h_{M-1-m}.
    """

    scaling: np.ndarray
    wavelet: np.ndarray
    name: str

    def __post_init__(self):
        g = np.asarray(self.scaling, dtype=float)
        h = np.asarray(self.wavelet, dtype=float)
        if g.shape != h.shape or g.ndim != 1 or g.size < 2 or g.size % 2:
            raise ValueError("filters must share a common even length >= 2")
        for taps in (g, h):
            if abs(np.dot(taps, taps) - 1.0) > _ORTHO_TOL:
                raise ValueError(f"filter {self.name!r} violates unit energy")
            for shift in range(2, taps.size, 2):
                if abs(np.dot(taps[:-shift], taps[shift:])) > _ORTHO_TOL:
                    raise ValueError(f"filter {self.name!r} violates even-shift orthogonality")
        m = np.arange(g.size)
        mirror = (-1.0) ** (m + 1) * h[::-1]
        if np.max(np.abs(g - mirror)) > _ORTHO_TOL:
            raise ValueError(f"filter {self.name!r} violates the quadrature-mirror relation")
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "scaling", g)
        object.__setattr__(self, "wavelet", h)

    @property
    def width(self) -> int:
        return self.scaling.size


@dataclass(frozen=True)
class ModwtFilterPair:
    """Level-j equivalent MODWT filters, energy 2^-j, width (2^j - 1)(M - 1) + 1."""

    scaling: np.ndarray
    wavelet: np.ndarray
    level: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "scaling", np.asarray(self.scaling, dtype=float))
        object.__setattr__(self, "wavelet", np.asarray(self.wavelet, dtype=float))
        if self.scaling.size != self.width or self.wavelet.size != self.width:
            raise ValueError("filter width inconsistent")


@dataclass(frozen=True)
class WaveletDecomposition:
    """Additive MRA of a series: J detail series plus one smooth, all length N.

    The raw MODWT coefficient series are retained for reconstruction checks.
    """

    details: tuple[np.ndarray, ...]
    smooth: np.ndarray
    levels: int
    filter: str
    boundary: str = "periodic"
    wavelet_coeffs: tuple[np.ndarray, ...] = ()
    scaling_coeffs: np.ndarray | None = None

    def __post_init__(self):
        n = self.smooth.size
        if any(d.size != n for d in self.details):
            raise ValueError("component length mismatch")
        if len(self.details) != self.levels:
            raise ValueError("detail count must equal the number of levels")

    @property
    def n(self) -> int:
        return self.smooth.size

    def components(self) -> list[np.ndarray]:
        return list(self.details) + [self.smooth]


def haar_filter() -> FilterPair:
    """The 2-tap Haar pair: scaling (1/sqrt2, 1/sqrt2), wavelet (1/sqrt2, -1/sqrt2)."""
    root_half = 1.0 / math.sqrt(2.0)
    return FilterPair(
        scaling=np.array([root_half, root_half]),
        wavelet=np.array([root_half, -root_half]),
        name="haar",
    )


def _equivalent_dwt_filters(base: FilterPair, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-j equivalent DWT filters h_{j,m}, g_{j,m} via the filter cascade.

    The level-j wavelet filter is the level-(j-1) scaling cascade convolved with
    the base wavelet filter upsampled by 2^(j-1); similarly for scaling.
    """
    g_cascade = np.array([1.0])
    for j in range(1, level):
        up = np.zeros(2 ** (j - 1) * (base.width - 1) + 1)
        up[:: 2 ** (j - 1)] = base.scaling
        g_cascade = np.convolve(g_cascade, up)
    up_h = np.zeros(2 ** (level - 1) * (base.width - 1) + 1)
    up_h[:: 2 ** (level - 1)] = base.wavelet
    up_g = np.zeros_like(up_h)
    up_g[:: 2 ** (level - 1)] = base.scaling
    return np.convolve(g_cascade, up_h), np.convolve(g_cascade, up_g)


def modwt_filters(base: FilterPair, level: int) -> ModwtFilterPair:
    """Rescale the level-j equivalent DWT filters by 2^(-j/2)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    h_j, g_j = _equivalent_dwt_filters(base, level)
    scale = 2.0 ** (level / 2.0)
    return ModwtFilterPair(
        scaling=g_j / scale,
        wavelet=h_j / scale,
        level=level,
        width=(2 ** level - 1) * (base.width - 1) + 1,
    )


def _pyramid_stage(v: np.ndarray, taps: np.ndarray, shift: int) -> np.ndarray:
    """z_t = sum_l taps[l] * v[(t - shift * l) mod N] along the last axis.

    A negative ``shift`` applies the transpose of the stage with shift -shift.
    Each tap forms its products once and adds them in two slices, the part that
    wraps and the part that does not, instead of rolling a copy of ``v``.
    """
    n = v.shape[-1]
    out = taps[0] * v
    for l in range(1, taps.size):
        s = (shift * l) % n
        product = taps[l] * v
        out[..., s:] += product[..., :n - s]
        out[..., :s] += product[..., n - s:]
    return out


def _as_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    values = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"non-finite input {values.flat[bad]} at position {bad}")
    return values


def _check_levels(n: int, levels: int) -> None:
    if n < 2:
        raise ValueError("series must have at least 2 observations")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if levels > int(math.log2(n)):
        warnings.warn(
            f"decomposition level {levels} exceeds floor(log2(N))={int(math.log2(n))}; "
            "equivalent filters wrap around the series",
            stacklevel=3,
        )


def modwt_forward(series, levels: int, filter_pair: FilterPair | None = None) -> WaveletDecomposition:
    """Decompose a series into J details and one smooth with the MODWT pyramid.

    ``levels=0`` is the identity MRA: no details, and the smooth is the series.
    """
    y = _as_values(series)
    _check_levels(y.size, levels)
    base = filter_pair if filter_pair is not None else haar_filter()
    scaling = base.scaling / math.sqrt(2.0)
    wavelet = base.wavelet / math.sqrt(2.0)

    wave_coeffs: list[np.ndarray] = []
    scaling_coeff = y
    for j in range(1, levels + 1):
        wave_coeffs.append(_pyramid_stage(scaling_coeff, wavelet, 2 ** (j - 1)))
        scaling_coeff = _pyramid_stage(scaling_coeff, scaling, 2 ** (j - 1))

    # Row j-1 ends as detail D_j and row J as the smooth: every component passes
    # back through the transposed scaling stages of all finer levels.
    components = np.empty((levels + 1, y.size))
    components[levels] = scaling_coeff
    for j in range(levels, 0, -1):
        components[j:] = _pyramid_stage(components[j:], scaling, -(2 ** (j - 1)))
        components[j - 1] = _pyramid_stage(wave_coeffs[j - 1], wavelet, -(2 ** (j - 1)))

    return WaveletDecomposition(
        details=tuple(components[:levels]),
        smooth=components[levels],
        levels=levels,
        filter=base.name,
        wavelet_coeffs=tuple(wave_coeffs),
        scaling_coeffs=scaling_coeff,
    )


def _circulant(taps: np.ndarray, n: int) -> np.ndarray:
    """N x N matrix with row t holding taps at columns (t - m) mod N, filter taps wrapped."""
    wrapped = np.zeros(n)
    np.add.at(wrapped, np.arange(taps.size) % n, taps)
    return wrapped[(np.arange(n)[:, None] - np.arange(n)) % n]


def modwt_matrix_oracle(series, levels: int, filter_pair: FilterPair | None = None) -> WaveletDecomposition:
    """Brute-force MODWT via explicit circulant matrices; testing only, O(N^2) per level."""
    y = _as_values(series)
    if y.size > 512:
        raise ValueError("matrix oracle limited to N <= 512")
    _check_levels(y.size, levels)
    base = filter_pair if filter_pair is not None else haar_filter()

    details: list[np.ndarray] = []
    wave_coeffs: list[np.ndarray] = []
    for j in range(1, levels + 1):
        u_j = _circulant(modwt_filters(base, j).wavelet, y.size)
        coeff = u_j @ y
        wave_coeffs.append(coeff)
        details.append(u_j.T @ coeff)
    # Zero levels keep the series whole, as in modwt_forward: the filter is a unit impulse.
    v_top = _circulant(modwt_filters(base, levels).scaling if levels else np.ones(1), y.size)
    scaling_coeff = v_top @ y
    smooth = v_top.T @ scaling_coeff

    return WaveletDecomposition(
        details=tuple(details),
        smooth=smooth,
        levels=levels,
        filter=base.name,
        wavelet_coeffs=tuple(wave_coeffs),
        scaling_coeffs=scaling_coeff,
    )


def mra_reconstruct(decomp: WaveletDecomposition) -> np.ndarray:
    """Pointwise sum of all detail components and the smooth."""
    total = decomp.smooth.copy()
    for detail in decomp.details:
        total += detail
    return total
