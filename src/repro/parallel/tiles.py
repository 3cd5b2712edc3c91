"""Row-band tiling with overlap halos.

A frame is split into contiguous horizontal bands; each band is
extended by a *halo* of extra rows on its interior edges so that every
output pixel a band is responsible for sees exactly the input rows it
would see in whole-frame execution.  The matchers' vertical data
dependence is the box-filter (or census) window, so a halo of the
window radius makes band seams bit-identical — the disparity search
itself is horizontal and row bands keep the full image width, which is
why ``max_disp`` / ``radius`` never enter the halo.

>>> bands = split_rows(10, 3, halo=2)
>>> [(b.start, b.stop) for b in bands]   # payload rows: cover, no gaps
[(0, 3), (3, 6), (6, 10)]
>>> [(b.lo, b.hi) for b in bands]        # sliced rows: payload + halo
[(0, 5), (1, 8), (4, 10)]
>>> bands[1].crop                        # rows to keep of the slice
(2, 5)

Each kernel family declares its vertical footprint once, as a
:class:`Stencil` constant next to the kernels (``BLOCK_STENCIL``,
``CENSUS_STENCIL``, ``EXPANSION_STENCIL``, ``FLOW_STENCIL``), and the
executor computes every halo from that declaration.  The seam tests in
``tests/test_parallel.py`` run every banded kernel against its
whole-frame call, so a halo one row short fails them.

>>> Stencil.window("block_size").halo(block_size=9)
4
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "RowBand",
    "Stencil",
    "blur_tap_radius",
    "gaussian_support_radius",
    "split_rows",
]


def gaussian_support_radius(sigma: float) -> int:
    """Tap radius of a 3-sigma Gaussian moment filter.

    The single source of truth for the Farneback polynomial-expansion
    support (:func:`repro.flow.farneback.poly_expansion` and its tiled
    halo both delegate here).
    """
    return max(2, int(round(3.0 * sigma)))


def blur_tap_radius(sigma: float) -> int:
    """Tap radius of a ``gaussian_filter``-compatible blur.

    scipy truncates at ``4 * sigma`` (its default); this is the exact
    radius :func:`repro.flow.gaussian.blur_kernel1d` builds its taps
    with, so it is also the exact vertical halo a banded
    :func:`repro.flow.farneback.flow_iteration` needs.
    """
    return int(4.0 * sigma + 0.5)


@dataclass(frozen=True)
class RowBand:
    """One horizontal band of a frame.

    ``[start, stop)`` are the rows the band is responsible for (its
    payload); ``[lo, hi)`` are the rows actually sliced out of the
    frame — the payload plus up to ``halo`` extra rows on each side,
    clamped to the image.  At the image's top and bottom edge the halo
    is absent by construction, so the kernels' edge-replicated padding
    applies exactly where whole-frame execution would pad.
    """

    start: int
    stop: int
    lo: int
    hi: int

    @property
    def rows(self) -> int:
        """Payload height."""
        return self.stop - self.start

    @property
    def crop(self) -> tuple[int, int]:
        """Row range of the payload *within the sliced band*."""
        return (self.start - self.lo, self.stop - self.lo)


def split_rows(height: int, n_bands: int, halo: int) -> list[RowBand]:
    """Split ``height`` rows into ``n_bands`` haloed bands.

    Payloads tile ``[0, height)`` exactly (no gaps, no overlap); band
    heights differ by at most one row.  Asking for more bands than
    rows yields one band per row.

    >>> [b.rows for b in split_rows(7, 3, halo=1)]
    [2, 2, 3]
    >>> split_rows(2, 5, halo=0) == split_rows(2, 2, halo=0)
    True
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if halo < 0:
        raise ValueError("halo must be >= 0")
    n_bands = min(n_bands, height)
    edges = [(i * height) // n_bands for i in range(n_bands + 1)]
    return [
        RowBand(start=a, stop=b, lo=max(0, a - halo), hi=min(height, b + halo))
        for a, b in zip(edges, edges[1:])
    ]


@dataclass(frozen=True)
class Stencil:
    """A kernel's declared vertical data dependence.

    ``kind`` selects how the halo is computed from the kernel's own
    keyword arguments:

    * ``"window"`` — an odd ``param``-sized window (halo ``param // 2``,
      the box-filter / census case);
    * ``"gaussian"`` — 3-sigma moment-filter support of ``param``
      (:func:`gaussian_support_radius`), optionally overridden by an
      explicit tap-radius argument named ``override``;
    * ``"blur"`` — ``gaussian_filter``-compatible taps of ``param``
      (:func:`blur_tap_radius`).

    >>> Stencil.window("window").halo(window=5)
    2
    >>> Stencil.gaussian("sigma", override="radius").halo(sigma=1.5, radius=None)
    4
    >>> Stencil.gaussian("sigma", override="radius").halo(sigma=1.5, radius=7)
    7
    >>> Stencil.blur("window_sigma").halo(window_sigma=4.0)
    16
    """

    kind: str
    param: str
    override: str | None = None

    @classmethod
    def window(cls, param: str) -> "Stencil":
        return cls("window", param=param)

    @classmethod
    def gaussian(cls, param: str, override: str | None = None) -> "Stencil":
        return cls("gaussian", param=param, override=override)

    @classmethod
    def blur(cls, param: str) -> "Stencil":
        return cls("blur", param=param)

    def halo(self, **params: Any) -> int:
        """The halo rows this stencil needs for the given kernel kwargs."""
        if self.override is not None:
            explicit = params.get(self.override)
            if explicit is not None:
                return int(explicit)
        arg = params[self.param]
        if self.kind == "window":
            return int(arg) // 2
        if self.kind == "gaussian":
            return gaussian_support_radius(arg)
        if self.kind == "blur":
            return blur_tap_radius(arg)
        raise ValueError(f"unknown stencil kind {self.kind!r}")
