"""Bit-exact decomposition files and text export formats.

Binary layout (little-endian), designed so identical decompositions produce
identical bytes:

    offset 0   magic     b"QDEC"
    offset 4   version   u16, currently 1
    offset 6   n         u8
    offset 7   k         u8, must equal floor(n/2)
    offset 8   kind      u8, 0 = even, 1 = odd, must match the parity of n
    offset 9   labels    n * 2^(n-1) bytes, one label per edge in dense
                         edge-id order, each value <= k

Export formats render the same labeling as DOT (edge attribute tree=j, with
tree=0 marking leftover edges), a plain "u v label" edge list, or a JSON
document mirroring the binary fields with explicit endpoints.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

from .construct import EVEN, ODD, Decomposition
from .hypercube import DIMENSION_CAP, edge_endpoints, num_edges

MAGIC = b"QDEC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBBB")

_KIND_CODES = {EVEN: 0, ODD: 1}
_KIND_NAMES = {0: EVEN, 1: ODD}

EXPORT_FORMATS = ("dot", "edgelist", "json-doc")


class DecompositionParseError(ValueError):
    """The bytes do not form a valid decomposition file."""


def _header(dec: Decomposition) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, dec.n, dec.k, _KIND_CODES[dec.kind])


def decomposition_to_bytes(dec: Decomposition) -> bytes:
    return _header(dec) + dec.labels.tobytes()


def _parse_header(data: bytes, size: int) -> tuple[int, int, str]:
    """(n, k, kind) from a header, checked against the whole file's size."""
    if size < _HEADER.size:
        raise DecompositionParseError(
            f"file too short: {size} bytes, header needs {_HEADER.size}"
        )
    magic, version, n, k, kind_code = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DecompositionParseError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DecompositionParseError(f"unsupported format version {version}")
    if n < 1 or n > DIMENSION_CAP:
        raise DecompositionParseError(f"dimension {n} outside [1, {DIMENSION_CAP}]")
    if k != n // 2:
        raise DecompositionParseError(f"k={k} inconsistent with n={n}")
    if kind_code not in _KIND_NAMES:
        raise DecompositionParseError(f"unknown kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    if kind != (EVEN if n % 2 == 0 else ODD):
        raise DecompositionParseError(f"kind {kind!r} inconsistent with n={n}")
    payload = size - _HEADER.size
    expected = num_edges(n)
    if payload != expected:
        raise DecompositionParseError(
            f"label payload has {payload} bytes, expected {expected}"
        )
    return n, k, kind


def _checked(n: int, k: int, kind: str, labels: np.ndarray) -> Decomposition:
    if labels.size and int(labels.max()) > k:
        raise DecompositionParseError(
            f"label {int(labels.max())} exceeds tree count k={k}"
        )
    return Decomposition(n=n, k=k, kind=kind, labels=labels)


def decomposition_from_bytes(data: bytes) -> Decomposition:
    n, k, kind = _parse_header(data, len(data))
    return _checked(n, k, kind, np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size).copy())


def write_decomposition(dec: Decomposition, path: str | Path) -> None:
    """Write the header, then the labels straight from the array's buffer."""
    with open(path, "wb") as f:
        f.write(_header(dec))
        f.write(np.ascontiguousarray(dec.labels))


def read_decomposition(path: str | Path) -> Decomposition:
    """Parse a decomposition file.  A regular file's size is checked against
    its header before any label is read; a pipe has no size and is read whole."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            return decomposition_from_bytes(f.read())
        n, k, kind = _parse_header(f.read(_HEADER.size), info.st_size)
        labels = np.fromfile(f, dtype=np.uint8, count=num_edges(n))
    return _checked(n, k, kind, labels)


# Edges are decoded and formatted this many at a time, so the Python ints
# and strings alive at once stay bounded whatever n is.
_EXPORT_BLOCK = 4096


def _edge_lines(dec: Decomposition, line: str) -> str:
    """line % (u, v, label) for every edge, in dense edge-id order."""
    blocks = []
    for start in range(0, dec.num_edges, _EXPORT_BLOCK):
        stop = min(start + _EXPORT_BLOCK, dec.num_edges)
        u, v = edge_endpoints(np.arange(start, stop), dec.n)
        rows = zip(u.tolist(), v.tolist(), dec.labels[start:stop].tolist())
        blocks.append("".join([line % row for row in rows]))
    return "".join(blocks)


def export_dot(dec: Decomposition) -> str:
    """DOT graph with a tree=<label> attribute per edge (0 = leftover)."""
    return f"graph q{dec.n} {{\n" + _edge_lines(dec, "  %d -- %d [tree=%d];\n") + "}\n"


def export_edgelist(dec: Decomposition) -> str:
    """One "u v label" line per edge, dense edge-id order."""
    return _edge_lines(dec, "%d %d %d\n")


_JSON_EDGE = '    {\n      "u": %d,\n      "v": %d,\n      "label": %d\n    },\n'


def export_json_doc(dec: Decomposition) -> str:
    """JSON document mirroring the binary fields, with explicit endpoints.

    The text is json.dumps(doc, indent=2) plus a newline, with the edge
    objects formatted block-wise like the other exports.
    """
    edges = _edge_lines(dec, _JSON_EDGE)[: -len(",\n")]
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "n": {dec.n},\n  "k": {dec.k},\n'
        f'  "kind": "{dec.kind}",\n  "edges": [\n{edges}\n  ]\n}}\n'
    )


def export_decomposition(dec: Decomposition, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(dec)
    if fmt == "edgelist":
        return export_edgelist(dec)
    if fmt == "json-doc":
        return export_json_doc(dec)
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
