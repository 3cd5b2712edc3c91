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

The executor passes each matcher's window radius (``block_size // 2``
or ``window // 2``) as the halo.  The seam tests in
``tests/test_parallel.py`` run every banded kernel against its
whole-frame call, so a halo one row short fails them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RowBand", "split_rows"]


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
