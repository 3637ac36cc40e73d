"""Bit-exact decomposition files and text export formats.

Binary layout (little-endian), designed so identical decompositions produce
identical bytes:

    offset 0   magic     b"QDEC"
    offset 4   version   u16, currently 1
    offset 6   n         u8
    offset 7   k         u8, floor(n/2)
    offset 8   kind      u8, n mod 2 (0 = even, 1 = odd)
    offset 9   labels    n * 2^(n-1) bytes, one label per edge in dense
                         edge-id order, each value <= k

Both k and kind follow from n: the writer derives them from n and the reader
refuses a header that disagrees.  A file is written to a temporary file in
the target's directory and then moved onto the target, so a failed write
leaves no truncated file behind.  Files, pipes and bytes go through one
stream decoder, which reads a pipe no further than header + payload + 1 byte.

Export formats render the same labeling as DOT (edge attribute tree=j, with
tree=0 marking leftover edges), a plain "u v label" edge list, or a JSON
document mirroring the binary fields with explicit endpoints.  One table
holds each format's head, edge line and tail.  All three format 4096 edges
at a time in numpy: each edge is one row of uint32 words, the format's
literal text and the digits from two word tables, padded with NUL bytes,
and one bytes.translate deletes the padding.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import stat
import struct
from pathlib import Path
from typing import IO, BinaryIO, Iterator

import numpy as np

from .construct import Decomposition
from .hypercube import DIMENSION_CAP, edge_endpoints, num_edges

MAGIC = b"QDEC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBBB")


class DecompositionParseError(ValueError):
    """The bytes do not form a valid decomposition file."""


def _header(dec: Decomposition) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, dec.n, dec.n // 2, dec.n % 2)


def decomposition_to_bytes(dec: Decomposition) -> bytes:
    return _header(dec) + dec.labels.tobytes()


def _parse_header(header: bytes, size: int | None) -> int:
    """n from a header, checked against the input's size if known."""
    if len(header) < _HEADER.size:
        raise DecompositionParseError(
            f"file too short: {len(header)} bytes, header needs {_HEADER.size}"
        )
    magic, version, n, k, kind_code = _HEADER.unpack(header)
    if magic != MAGIC:
        raise DecompositionParseError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DecompositionParseError(f"unsupported format version {version}")
    if n < 1 or n > DIMENSION_CAP:
        raise DecompositionParseError(f"dimension {n} outside [1, {DIMENSION_CAP}]")
    if k != n // 2:
        raise DecompositionParseError(f"k={k} inconsistent with n={n}")
    if kind_code != n % 2:
        raise DecompositionParseError(f"kind code {kind_code} inconsistent with n={n}")
    expected = num_edges(n)
    if size is not None and size - _HEADER.size != expected:
        raise DecompositionParseError(
            f"label payload has {size - _HEADER.size} bytes, expected {expected}"
        )
    return n


def _decode(f: BinaryIO, size: int | None) -> Decomposition:
    """The decomposition in stream f, whose length is size if known.  The
    labels go into one preallocated array; f is read one byte past them."""
    n = _parse_header(f.read(_HEADER.size), size)
    labels = np.empty(num_edges(n), dtype=np.uint8)
    got = f.readinto(labels)
    if got < labels.size:
        raise DecompositionParseError(f"label payload has {got} bytes, expected {labels.size}")
    if f.read(1):
        raise DecompositionParseError(
            f"label payload has more than {got} bytes, expected {labels.size}"
        )
    if int(labels.max()) > n // 2:
        raise DecompositionParseError(f"label {int(labels.max())} exceeds tree count k={n // 2}")
    return Decomposition(n=n, labels=labels)


def decomposition_from_bytes(data: bytes) -> Decomposition:
    return _decode(io.BytesIO(data), len(data))


@contextlib.contextmanager
def open_replacing(path: str | Path, mode: str) -> Iterator[IO]:
    """Open path for writing so that it changes only once it is complete.

    The writes go to a temporary file in path's directory, which os.replace
    moves onto path after the last one; an exception on the way removes the
    temporary file and leaves path as it was.  A path that exists and is not
    a regular file, such as a FIFO or a symbolic link like /dev/stdout, is
    written directly.
    """
    path = os.fspath(path)
    try:
        info = os.lstat(path)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, mode) as f:
            yield f
        return
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as error:
        error.filename = path  # name the file asked for, not the hidden temporary one
        raise
    try:
        if info is not None:
            os.fchmod(fd, stat.S_IMODE(info.st_mode))
        with open(fd, mode) as f:
            yield f
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_decomposition(dec: Decomposition, path: str | Path) -> None:
    """Write the header, then the labels straight from the array's buffer,
    to a file that takes path's place once it is complete."""
    with open_replacing(path, "wb") as f:
        f.write(_header(dec))
        f.write(np.ascontiguousarray(dec.labels))


def read_decomposition(path: str | Path) -> Decomposition:
    """Parse a decomposition file or pipe.  A regular file's size is checked
    against its header before any label is read."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        return _decode(f, info.st_size if stat.S_ISREG(info.st_mode) else None)


# Edges are decoded and formatted this many at a time, so the arrays and
# strings alive at once stay bounded whatever n is.
_EXPORT_BLOCK = 4096


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Decimal digits as uint32 words of four ASCII bytes, NUL in place of a
    leading zero.

    low[x], for x below 2 * 10^4, holds the last four digits of x: below
    10^4 with its leading zeros as NUL (0 keeps its last digit), from 10^4
    up all four.  high[x], for x below 10^4, holds the digits of x with 0
    all NUL, for the high half of a wider value.
    """
    place = 10 ** np.arange(3, -1, -1)
    values = np.arange(20_000)[:, None]
    digits = (values // place % 10 + ord("0")).astype(np.uint8)
    low = np.where(values >= place, digits, np.uint8(0))
    high = low[:10_000].copy()
    low[0, -1] = ord("0")
    return low.view(np.uint32).ravel(), high.view(np.uint32).ravel()


def _edge_blocks(dec: Decomposition, line: str) -> list[str]:
    """line % (u, v, label) for every edge, in dense edge-id order, as one
    string per block of edges.

    A block is laid out as rows of uint32 words, one row per edge: the
    literal pieces of line, NUL-padded to whole words, fill fixed words, and
    each %d field is one word of digits, or two for a vertex of more than
    four digits (one below 2^24 has at most eight), with its leading zeros
    as NUL.  Deleting every NUL from the rows' bytes leaves the block's text.
    """
    low, high = _digit_words()
    wide = (1 << dec.n) > 10_000
    template, fields = [], []
    for piece, field_words in zip(line.encode().split(b"%d"), (1 + wide, 1 + wide, 1, 0)):
        padded = piece.ljust((len(piece) + 3) // 4 * 4, b"\0")
        template.extend(np.frombuffer(padded, dtype=np.uint32).tolist())
        fields.append(len(template))
        template.extend([0] * field_words)
    rows = np.empty((min(_EXPORT_BLOCK, dec.num_edges), len(template)), dtype=np.uint32)
    rows[:] = template

    blocks = []
    for start in range(0, dec.num_edges, _EXPORT_BLOCK):
        stop = min(start + _EXPORT_BLOCK, dec.num_edges)
        u, v = edge_endpoints(np.arange(start, stop), dec.n)
        m = stop - start
        for x, at in zip((u, v), fields):
            if wide:
                upper, lower = np.divmod(x, 10_000)
                rows[:m, at] = high[upper]
                # x itself below 10^4, else its last four digits, all kept.
                rows[:m, at + 1] = low[np.minimum(x, lower + 10_000)]
            else:
                rows[:m, at] = low[x]
        rows[:m, fields[2]] = low[dec.labels[start:stop]]
        blocks.append(rows[:m].tobytes().translate(None, b"\0").decode("ascii"))
    return blocks


# Per format: the text before the edges (str.format'd with the fields n, k,
# kind and version), one edge's line (% (u, v, label)), how many characters
# to cut from the end of the last line, and the text after the edges.
_EXPORTS = {
    "dot": ("graph q{n} {{\n", "  %d -- %d [tree=%d];\n", 0, "}\n"),
    "edgelist": ("", "%d %d %d\n", 0, ""),
    # json.dumps(doc, indent=2) plus a newline; the last edge has no comma.
    "json-doc": (
        '{{\n  "format_version": {version},\n  "n": {n},\n  "k": {k},\n'
        '  "kind": "{kind}",\n  "edges": [\n',
        '    {\n      "u": %d,\n      "v": %d,\n      "label": %d\n    },\n',
        len(",\n"),
        "\n  ]\n}\n",
    ),
}
EXPORT_FORMATS = tuple(_EXPORTS)


def export_decomposition(dec: Decomposition, fmt: str) -> str:
    """The decomposition as text in one of EXPORT_FORMATS, one edge per
    line (or JSON object) in dense edge-id order; label 0 is leftover."""
    if fmt not in _EXPORTS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    head, line, cut, tail = _EXPORTS[fmt]
    blocks = _edge_blocks(dec, line)
    blocks[-1] = blocks[-1][: len(blocks[-1]) - cut]
    head = head.format(n=dec.n, k=dec.k, kind=dec.kind, version=FORMAT_VERSION)
    return "".join([head, *blocks, tail])
