import itertools
import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubetrees.files as files
from cubetrees.construct import Decomposition, construct
from cubetrees.files import (
    DecompositionParseError,
    decomposition_from_bytes,
    decomposition_to_bytes,
    export_decomposition,
    read_decomposition,
    write_decomposition,
)
from cubetrees.hypercube import num_edges
from cube_reference import edge_from_id
from export_reference import reference_edge_lines, reference_export

FORMATS = ("dot", "edgelist", "json-doc")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_round_trip(n, tmp_path):
    dec = construct(n)
    path = tmp_path / f"q{n}.dec"
    write_decomposition(dec, path)
    back = read_decomposition(path)
    assert back.n == dec.n and back.k == dec.k and back.kind == dec.kind
    assert np.array_equal(back.labels, dec.labels)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_serialization_is_byte_deterministic(n):
    assert decomposition_to_bytes(construct(n)) == decomposition_to_bytes(construct(n))


def test_parse_errors():
    blob = decomposition_to_bytes(construct(4))
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:5])  # truncated header
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:-1])  # truncated payload
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob + b"\x00")  # trailing garbage
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(b"XXXX" + blob[4:])  # bad magic
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:4] + b"\x02\x00" + blob[6:])  # bad version
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:7] + b"\x03" + blob[8:])  # k != floor(n/2)
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:8] + b"\x01" + blob[9:])  # kind/parity clash
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(blob[:8] + b"\x07" + blob[9:])  # kind byte not 0 or 1
    bad_label = bytearray(blob)
    bad_label[-1] = 9  # beyond k = 2
    with pytest.raises(DecompositionParseError):
        decomposition_from_bytes(bytes(bad_label))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_header_k_and_kind_bytes_are_n_div_2_and_n_mod_2(n):
    blob = decomposition_to_bytes(construct(n))
    assert blob[7:9] == bytes([n // 2, n % 2])
    assert decomposition_to_bytes(decomposition_from_bytes(blob)) == blob
    for byte in range(256):
        if byte != n // 2:
            with pytest.raises(DecompositionParseError, match=f"^k={byte} inconsistent"):
                decomposition_from_bytes(blob[:7] + bytes([byte]) + blob[8:])
        if byte != n % 2:
            with pytest.raises(DecompositionParseError, match=f"^kind code {byte} inconsistent"):
                decomposition_from_bytes(blob[:8] + bytes([byte]) + blob[9:])


def test_bad_k_or_kind_byte_is_refused_before_the_payload_size():
    # Bare headers of Q_24: a bad k or kind byte gets its own message, and
    # only the consistent header gets as far as the missing 201 MB payload.
    tracemalloc.start()
    try:
        for k, kind, message in [
            (11, 0, "^k=11 inconsistent with n=24$"),
            (12, 1, "^kind code 1 inconsistent with n=24$"),
            (12, 0, "^label payload has 0 bytes, expected 201326592$"),
        ]:
            with pytest.raises(DecompositionParseError, match=message):
                decomposition_from_bytes(struct.pack("<4sHBBB", b"QDEC", 1, 24, k, kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dimension_cap_respected_at_parse_time():
    # A bare header for n = 25, k = 12, odd: refused before any payload.
    header = struct.pack("<4sHBBB", b"QDEC", 1, 25, 12, 1)
    assert len(header) == 9
    with pytest.raises(DecompositionParseError, match="dimension 25"):
        decomposition_from_bytes(header)


def test_oversized_file_is_refused_before_its_payload_is_read(tmp_path):
    # A valid n = 4 header (32 labels) followed by a 64 MB sparse payload.
    path = tmp_path / "huge.dec"
    with open(path, "wb") as f:
        f.write(struct.pack("<4sHBBB", b"QDEC", 1, 4, 2, 0))
        f.truncate(9 + (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionParseError, match="has 67108864 bytes, expected 32"):
            read_decomposition(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def read_through_a_pipe(tmp_path, chunks):
    """read_decomposition of a FIFO that another thread writes chunks to; the
    writer stops quietly if the reader closes the pipe first."""
    path = tmp_path / "pipe.dec"
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read_decomposition(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_read_from_a_pipe(tmp_path):
    # A pipe has no size to check first; its labels are read into one array.
    blob = decomposition_to_bytes(construct(5))
    assert decomposition_to_bytes(read_through_a_pipe(tmp_path, [blob])) == blob


def test_pipe_one_byte_short_is_refused(tmp_path):
    blob = decomposition_to_bytes(construct(5))
    with pytest.raises(DecompositionParseError, match="has 79 bytes, expected 80"):
        read_through_a_pipe(tmp_path, [blob[:-1]])


def test_oversized_pipe_is_refused_one_byte_past_its_payload(tmp_path):
    # The 64 MB payload above, through a pipe: reading stops one byte past
    # the 32 labels, so the rest is never held in memory.
    header = struct.pack("<4sHBBB", b"QDEC", 1, 4, 2, 0)
    chunks = [header, *itertools.repeat(bytes(1 << 16), 1024)]
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionParseError, match="expected 32"):
            read_through_a_pipe(tmp_path, chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_write_makes_no_copy_of_the_labels(tmp_path):
    dec = construct(18)  # 2.4 MB of labels
    path = tmp_path / "q18.dec"
    tracemalloc.start()
    try:
        write_decomposition(dec, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dec.labels.nbytes // 16
    assert path.read_bytes() == decomposition_to_bytes(dec)


def test_write_to_a_pipe_and_from_a_strided_array(tmp_path):
    # A pipe has no file position, and a strided view has no flat buffer.
    path = tmp_path / "pipe.dec"
    os.mkfifo(path)
    dec = construct(9)
    strided = Decomposition(n=9, labels=np.repeat(dec.labels, 2)[::2])
    assert not strided.labels.flags.c_contiguous
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(path.read_bytes()), daemon=True)
    reader.start()
    try:
        write_decomposition(strided, path)
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert chunks == [decomposition_to_bytes(dec)]


DOT_EDGE = re.compile(r"^  (\d+) -- (\d+) \[tree=(\d+)\];$")


def test_dot_export_smoke():
    dec = construct(3)
    lines = export_decomposition(dec, "dot").strip().splitlines()
    assert lines[0] == "graph q3 {"
    assert lines[-1] == "}"
    body = lines[1:-1]
    assert len(body) == num_edges(3)
    for line in body:
        m = DOT_EDGE.match(line)
        assert m, f"unparseable dot line: {line!r}"
        assert int(m.group(3)) <= dec.k


def test_edgelist_export():
    dec = construct(5)
    lines = export_decomposition(dec, "edgelist").strip().splitlines()
    assert len(lines) == num_edges(5)
    first_u, first_v, first_label = map(int, lines[0].split())
    assert (first_u, first_v) == edge_from_id(0, 5).endpoints()
    assert first_label == dec.labels[0]


def test_q2_export_label_multiset():
    labels = [int(line.split()[2]) for line in export_decomposition(construct(2), "edgelist").strip().splitlines()]
    assert sorted(labels) == [0, 1, 1, 1]
    assert len(labels) == 4


def test_json_doc_export():
    dec = construct(4)
    doc = json.loads(export_decomposition(dec, "json-doc"))
    assert doc["format_version"] == 1
    assert doc["n"] == 4 and doc["k"] == 2 and doc["kind"] == "even"
    assert len(doc["edges"]) == num_edges(4)
    for eid in (0, 7, 31):
        e = doc["edges"][eid]
        assert (e["u"], e["v"]) == edge_from_id(eid, 4).endpoints()
        assert e["label"] == dec.labels[eid]


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_json_doc_export_is_json_dumps(n):
    dec = construct(n)
    doc = {
        "format_version": 1,
        "n": n,
        "k": dec.k,
        "kind": dec.kind,
        "edges": [
            {"u": u, "v": v, "label": int(dec.labels[eid])}
            for eid in range(num_edges(n))
            for u, v in [edge_from_id(eid, n).endpoints()]
        ],
    }
    assert_same_text(export_decomposition(dec, "json-doc"), json.dumps(doc, indent=2) + "\n")


def test_unknown_export_format():
    with pytest.raises(ValueError):
        export_decomposition(construct(2), "yaml")


def assert_same_text(got: str, want: str) -> None:
    """Equal strings, or a failure that quotes the first difference (pytest's
    own diff of two multi-MB strings takes minutes)."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")


@st.composite
def labelled_cubes(draw):
    """Random label arrays, or construct(n) with one label changed, for n <= 10."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        top = draw(st.sampled_from([n // 2, 12, 255]))
        labels = rng.integers(0, top, size=num_edges(n), endpoint=True).astype(np.uint8)
    else:
        labels = construct(n).labels.copy()
        labels[draw(st.integers(0, num_edges(n) - 1))] = draw(st.integers(0, 255))
    return Decomposition(n=n, labels=labels)


@settings(max_examples=60, deadline=None)
@given(labelled_cubes())
def test_exports_equal_the_reference_on_random_labels(dec):
    for fmt in FORMATS:
        assert_same_text(export_decomposition(dec, fmt), reference_export(dec, fmt))


@pytest.mark.parametrize("n", [9, 10, 12, 14])
def test_exports_equal_the_reference_over_many_blocks(n):
    # n = 10 ends in a partial block; n = 14 has five-digit vertices.
    dec = construct(n)
    for fmt in FORMATS:
        assert_same_text(export_decomposition(dec, fmt), reference_export(dec, fmt))


def test_digits_of_values_at_every_width():
    values = np.array([0, 9, 10, 99, 100, 9999, 10000, 99999, 100000, (1 << 24) - 1])
    for width in range(1, 9):
        fits = values[values < 10**width]
        chars = np.empty((fits.size, width), dtype=np.uint8)
        keep = np.empty((fits.size, width), dtype=bool)
        files._decimal(fits, chars, keep)
        assert [row[mask].tobytes().decode() for row, mask in zip(chars, keep)] == [
            str(v) for v in fits.tolist()
        ]


def test_two_digit_labels():
    # Labels 10..12 occur only at n >= 20; here they sit beside one-digit ones.
    labels = np.resize(np.array([0, 10, 3, 11, 12, 9], dtype=np.uint8), num_edges(4))
    dec = Decomposition(n=4, labels=labels)
    for _, line, _, _ in files._EXPORTS.values():
        assert_same_text("".join(files._edge_blocks(dec, line)), reference_edge_lines(dec, line))


class Exploding:
    """Labels whose buffer fails after the header has been written."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("disk gone")


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "q5.dec"
    write_decomposition(construct(5), path)
    old = path.read_bytes()
    dec = construct(6)
    object.__setattr__(dec, "labels", Exploding())
    with pytest.raises(RuntimeError, match="disk gone"):
        write_decomposition(dec, path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_failed_first_write_leaves_no_file(tmp_path):
    dec = construct(6)
    object.__setattr__(dec, "labels", Exploding())
    with pytest.raises(RuntimeError):
        write_decomposition(dec, tmp_path / "q6.dec")
    assert list(tmp_path.iterdir()) == []


def test_rewrite_keeps_the_mode_and_writes_through_a_link(tmp_path):
    path = tmp_path / "q5.dec"
    path.write_bytes(b"old")
    path.chmod(0o640)
    write_decomposition(construct(5), path)
    assert path.stat().st_mode & 0o777 == 0o640
    assert path.read_bytes() == decomposition_to_bytes(construct(5))
    link = tmp_path / "link.dec"
    link.symlink_to(path)
    write_decomposition(construct(3), link)
    assert link.is_symlink()
    assert path.read_bytes() == decomposition_to_bytes(construct(3))
