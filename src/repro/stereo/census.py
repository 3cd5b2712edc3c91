"""Census-transform matching cost.

The census transform encodes each pixel as the bit pattern of
brightness comparisons against its neighbourhood; matching costs are
Hamming distances between the codes.  It is the standard
radiometrically-robust alternative to SAD in production stereo
pipelines (including the semi-global matchers the paper benchmarks
against), so the substrate provides it alongside SAD: it is invariant
to monotonic brightness changes, which the SAD cost is not — a
property the tests verify directly.

The hot loops are tuned for memory traffic: the transform accumulates
comparison bits into uint8 *byte planes* (the old loop's cast/shift/or
chain ran on full uint64 codes, eight times the traffic per bit), and
the Hamming distance uses the single-instruction
:func:`numpy.bitwise_count` where NumPy provides it.  Both paths are
pinned bit-for-bit against scalar references in
``tests/test_census.py``.
"""

from __future__ import annotations

import numpy as np

from repro.stereo.block_matching import (
    _BIG,
    _as_float,
    _subpixel_refine,
    resolve_precision,
    shift_right_image,
)

__all__ = [
    "census_transform",
    "hamming_cost_volume",
    "census_block_match",
]


def census_transform(img: np.ndarray, window: int = 5) -> np.ndarray:
    """Per-pixel census code as a uint64 bit pattern.

    Bit ``i`` is set when the i-th neighbour (row-major over the
    ``window x window`` patch, centre excluded) is darker than the
    centre pixel.  Windows must be odd (the code is centred on a
    pixel), so the largest that fits the 64-bit code is 7x7
    (48 comparison bits).
    """
    img = _as_float(img)
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and >= 3")
    if window * window - 1 > 64:
        raise ValueError("window too large for a 64-bit code")
    r = window // 2
    h, w = img.shape
    padded = np.pad(img, r, mode="edge")
    # comparison bit i lands in bit (i % 8) of byte plane (i // 8):
    # all shift/or accumulation runs on 1-byte planes instead of the
    # full 8-byte codes, and a plane's first bit is the comparison
    # itself (written straight into the plane viewed as bool)
    n_planes = (window * window - 1 + 7) // 8
    byteplanes = np.zeros((n_planes, h, w), dtype=np.uint8)
    bit_buf = np.empty((h, w), dtype=np.uint8)
    bit_bool = bit_buf.view(bool)
    i = 0
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            j, b = divmod(i, 8)
            neighbour = padded[r + dy : r + dy + h, r + dx : r + dx + w]
            if b == 0:
                np.less(neighbour, img, out=byteplanes[j].view(bool))
            else:
                np.less(neighbour, img, out=bit_bool)
                np.left_shift(bit_buf, b, out=bit_buf)
                np.bitwise_or(byteplanes[j], bit_buf, out=byteplanes[j])
            i += 1
    # merge the byte planes into the uint64 codes
    code = byteplanes[0].astype(np.uint64)
    for j in range(1, n_planes):
        code |= byteplanes[j].astype(np.uint64) << np.uint64(8 * j)
    return code


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

#: single-pass popcount ufunc (NumPy >= 2.0); the byte-table fallback
#: keeps older NumPy working
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorised population count of a uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(x)
    return _POPCOUNT_TABLE[  # pragma: no cover - pre-NumPy 2 fallback
        np.ascontiguousarray(x).view(np.uint8).reshape(x.shape + (8,))
    ].sum(axis=-1)


def hamming_cost_volume(
    left: np.ndarray,
    right: np.ndarray | None,
    max_disp: int,
    window: int = 5,
    precision: str = "float64",
    *,
    right_codes: np.ndarray | None = None,
) -> np.ndarray:
    """(D, H, W) Hamming-distance cost between census codes.

    Hamming distances are small integers (at most 48 for the largest
    7x7 window), so both ``precision`` dtypes represent them exactly;
    ``"float32"`` simply halves the volume's memory traffic.

    ``right_codes`` short-circuits the right image's census transform
    with precomputed codes — the replay paths in :mod:`repro.pipeline`
    and the tiled adapter in :mod:`repro.parallel` match against the
    same right frame repeatedly, and the codes only depend on it.
    When given, ``right`` is ignored (it may be ``None``).
    """
    if max_disp < 1:
        raise ValueError("max_disp must be >= 1")
    dtype = resolve_precision(precision)
    cl = census_transform(left, window)
    if right_codes is not None:
        right_codes = np.asarray(right_codes)
        if right_codes.dtype != np.uint64:
            raise ValueError(
                f"right_codes must be uint64 census codes, got {right_codes.dtype}"
            )
        if right_codes.shape != cl.shape:
            raise ValueError(
                f"right_codes shape {right_codes.shape} does not match "
                f"the left image {cl.shape}"
            )
        cr = right_codes
    else:
        if right is None:
            raise ValueError("either right or right_codes is required")
        cr = census_transform(right, window)
    d_levels = max_disp
    h, w = cl.shape
    cost = np.empty((d_levels, h, w), dtype=dtype)
    for d in range(d_levels):
        shifted = shift_right_image(cr, d)
        cost[d] = _popcount64(np.bitwise_xor(cl, shifted))
        if d:
            cost[d, :, w - d :] = _BIG
    return cost


def census_block_match(
    left: np.ndarray,
    right: np.ndarray | None,
    max_disp: int,
    window: int = 5,
    subpixel: bool = True,
    precision: str = "float64",
    *,
    right_codes: np.ndarray | None = None,
) -> np.ndarray:
    """Winner-takes-all disparity from the census/Hamming cost."""
    cost = hamming_cost_volume(
        left, right, max_disp, window, precision, right_codes=right_codes
    )
    disp = cost.argmin(axis=0).astype(np.float64)
    if subpixel:
        disp = _subpixel_refine(cost, disp)
    return disp
