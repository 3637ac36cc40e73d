"""Slow reference for the text exports: one Python `%` format per edge.

This is the formatter `cubetrees.files` used before it laid out the digits
of a whole block in a byte matrix, with the wrappers of the three formats as
they were then.  It turns every endpoint and label into a Python int, so it
shares no formatting code with the library; the property tests require the
library's text to equal its text.
"""

from __future__ import annotations

import numpy as np

from cubetrees.construct import Decomposition
from cubetrees.hypercube import edge_endpoints

_EXPORT_BLOCK = 4096


def reference_edge_lines(dec: Decomposition, line: str) -> str:
    """line % (u, v, label) for every edge, in dense edge-id order."""
    blocks = []
    for start in range(0, dec.num_edges, _EXPORT_BLOCK):
        stop = min(start + _EXPORT_BLOCK, dec.num_edges)
        u, v = edge_endpoints(np.arange(start, stop), dec.n)
        rows = zip(u.tolist(), v.tolist(), dec.labels[start:stop].tolist())
        blocks.append("".join([line % row for row in rows]))
    return "".join(blocks)


def reference_export(dec: Decomposition, fmt: str) -> str:
    """The dot, edgelist or json-doc text, wrapped as the library wraps it."""
    if fmt == "dot":
        return f"graph q{dec.n} {{\n" + reference_edge_lines(dec, "  %d -- %d [tree=%d];\n") + "}\n"
    if fmt == "edgelist":
        return reference_edge_lines(dec, "%d %d %d\n")
    assert fmt == "json-doc"
    line = '    {\n      "u": %d,\n      "v": %d,\n      "label": %d\n    },\n'
    edges = reference_edge_lines(dec, line)[: -len(",\n")]
    return (
        f'{{\n  "format_version": 1,\n  "n": {dec.n},\n  "k": {dec.k},\n'
        f'  "kind": "{dec.kind}",\n  "edges": [\n{edges}\n  ]\n}}\n'
    )
