"""Slow references for per-vertex edge masks and the label bit planes.

reference_edge_masks is how `cubetrees.hypercube` built edge masks before it
derived them from bit planes (`bit_planes`, `plane_masks`): every value
compares the whole label array again.  reference_bit_planes is how it filled
the planes before it filled them in vertex blocks: one whole-cube pass per
dimension over the rows asked for.  The property tests require the package's
planes and the masks derived from them to equal these.  all_planes fills
every plane of a label array as one block, for the tests that take their
masks from the planes.
"""

from __future__ import annotations

import numpy as np

from cubetrees.hypercube import bit_planes


def reference_edge_masks(labels: np.ndarray, values, n: int) -> np.ndarray:
    """Per-vertex bitmasks of the edges labelled each of values, one row per
    value, in the smallest unsigned dtype that holds n bits.

    Bit d of masks[i, x] is the edge x -- x ^ 1<<d when it is labelled
    values[i].  Dimension block d of the edge-id layout, cut into rows of
    2^d edges, has edge i of row r from vertex r * 2^(d+1) + i to the vertex
    2^d above it, so the block's comparison with a value, every row repeated
    twice, gives bit d to both ends of every edge in the block.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    values = np.asarray(values, dtype=labels.dtype).reshape(-1, 1, 1)
    half = 1 << (n - 1)
    masks = np.zeros((len(values), 1 << n), dtype=dtype)
    for d in reversed(range(n)):
        block = labels[d * half : (d + 1) * half].reshape(half >> d, 1 << d)
        masks <<= 1
        masks |= np.repeat(block == values, 2, axis=1).reshape(len(values), -1)
    return masks


def reference_bit_planes(labels: np.ndarray, n: int, planes: np.ndarray, rows) -> None:
    """Fill planes[rows] (rows a slice or a range) with per-vertex masks of
    the label bits: bit d of planes[b, x] is bit b of the label of the edge
    x -- x ^ 1<<d.

    Dimension block d, cut into rows of 2^d edges as in
    reference_edge_masks, gives its bit b, every row repeated twice, to both
    ends of every edge in the block; the bits go in from the highest
    dimension down.
    """
    rows = slice(rows.start, rows.stop, rows.step)
    stack = planes[rows]
    bits = (np.uint8(1) << np.arange(len(planes), dtype=np.uint8)[rows]).reshape(-1, 1, 1)
    half = 1 << (n - 1)
    stack[:] = 0
    for d in reversed(range(n)):
        block = labels[d * half : (d + 1) * half].reshape(half >> d, 1 << d)
        stack <<= 1
        stack |= np.repeat(block & bits != 0, 2, axis=1).reshape(stack.shape)


def all_planes(labels: np.ndarray, n: int) -> np.ndarray:
    """Every bit plane of labels, filled as one block of all 2^n vertices:
    one row per bit of labels.max(), in the smallest unsigned dtype that
    holds n bits, as the search driver sizes them."""
    planes = np.empty((int(labels.max(initial=0)).bit_length(), 1 << n), np.min_scalar_type((1 << n) - 1))
    bit_planes(labels, n, planes, range(1 << n))
    return planes
