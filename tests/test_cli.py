import json
import subprocess
import sys

import pytest

import cubetrees.cli as cli
from cubetrees.cli import (
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from cubetrees.files import read_decomposition, write_decomposition
from cubetrees.construct import Decomposition, construct
from cubetrees.hypercube import num_edges


def run(*argv):
    return main(list(argv))


def q3_edge_lines():
    return [
        f"{v} {v | 1 << d}" for v in range(8) for d in range(3) if not v & (1 << d)
    ]


def test_construct_writes_and_summarizes(tmp_path, capsys):
    out = tmp_path / "q6.dec"
    assert run("construct", "-n", "6", "-o", str(out)) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "3 edge-disjoint spanning trees" in stdout
    dec = read_decomposition(out)
    assert dec.n == 6 and dec.labels.size == 192


def test_construct_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.dec", tmp_path / "b.dec"
    assert run("construct", "-n", "5", "-o", str(a)) == EXIT_OK
    assert run("construct", "-n", "5", "-o", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_construct_is_byte_identical_across_processes(tmp_path):
    a, b = tmp_path / "a.dec", tmp_path / "b.dec"
    for path in (a, b):
        proc = subprocess.run(
            [sys.executable, "-m", "cubetrees.cli", "construct", "-n", "5", "-o", str(path)],
            capture_output=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_construct_usage_errors(capsys):
    assert run("construct", "-n", "0") == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert run("construct", "-n", "25") == EXIT_CAP
    assert run("construct", "-n", "30") == EXIT_CAP
    with pytest.raises(SystemExit) as exc:
        run("construct")  # missing -n
    assert exc.value.code == 2


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "q7.dec"
    assert run("construct", "-n", "7", "-o", str(out)) == EXIT_OK
    capsys.readouterr()
    assert run("verify", str(out)) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert run("verify", str(out), "--format", "json") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is True and doc["n"] == 7


def test_verify_detects_mutation(tmp_path, capsys):
    out = tmp_path / "q4.dec"
    dec = construct(4)
    labels = dec.labels.copy()
    labels[0] = 0
    write_decomposition(Decomposition(n=4, labels=labels), out)
    assert run("verify", str(out)) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_parse_and_io_errors(tmp_path):
    bad = tmp_path / "trunc.dec"
    good = tmp_path / "q4.dec"
    assert run("construct", "-n", "4", "-o", str(good)) == EXIT_OK
    bad.write_bytes(good.read_bytes()[:10])
    assert run("verify", str(bad)) == EXIT_PARSE
    bad.write_bytes(good.read_bytes()[:5])  # shorter than the header
    assert run("verify", str(bad)) == EXIT_PARSE
    bad.write_bytes(good.read_bytes()[:-1] + b"\x09")  # label 9 > k = 2
    assert run("verify", str(bad)) == EXIT_PARSE
    bad.write_bytes(b"QDEC\x01\x00" + bytes([25, 12, 1]))  # header of Q_25, over the cap
    assert run("verify", str(bad)) == EXIT_PARSE
    blob = bytearray(good.read_bytes())
    blob[8] = 1  # kind byte odd, n = 4 even
    bad.write_bytes(bytes(blob))
    assert run("verify", str(bad)) == EXIT_PARSE
    assert run("verify", str(tmp_path / "missing.dec")) == EXIT_IO


def assert_write_names_its_target(capsys, target, *argv):
    """A write into a missing directory exits EXIT_IO and names the file
    asked for, not the temporary file it would have been written to first."""
    capsys.readouterr()
    assert run(*argv, "-o", str(target)) == EXIT_IO
    err = capsys.readouterr().err
    assert f"No such file or directory: '{target}'" in err and ".tmp" not in err


def test_construct_io_error(tmp_path, capsys):
    assert_write_names_its_target(capsys, tmp_path / "not-a-dir" / "q2.dec", "construct", "-n", "2")


def test_export_io_error(tmp_path, capsys):
    source = tmp_path / "q5.dec"
    assert run("construct", "-n", "5", "-o", str(source)) == EXIT_OK
    assert_write_names_its_target(capsys, tmp_path / "not-a-dir" / "x.dot", "export", str(source), "--format", "dot")


def test_info_reports_bounds(capsys):
    assert run("info", "-n", "9") == EXIT_OK
    stdout = capsys.readouterr().out
    assert "packing: 4" in stdout
    assert "arboricity:            5" in stdout
    assert "leftover edges:        260" in stdout
    assert run("info", "-n", "2") == EXIT_OK
    stdout = capsys.readouterr().out
    assert "packing: 1" in stdout and "leftover edges:        1" in stdout
    assert run("info", "-n", "1") == EXIT_OK
    assert "packing: 0" in capsys.readouterr().out
    assert run("info", "-n", "0") == EXIT_USAGE
    assert run("info", "-n", "25") == EXIT_CAP
    assert run("info", "-n", "99") == EXIT_CAP


@pytest.mark.parametrize("command", ["info", "construct", "broadcast"])
def test_a_dimension_far_above_the_cap_exits_with_the_cap_code(command, capsys):
    assert run(command, "-n", "20000") == EXIT_CAP
    assert capsys.readouterr().err == (
        "error: dimension 20000 exceeds cap 24 (Q_24 has 201326592 edge labels)\n"
    )


def test_export_formats(tmp_path, capsys):
    dec_path = tmp_path / "q2.dec"
    assert run("construct", "-n", "2", "-o", str(dec_path)) == EXIT_OK
    capsys.readouterr()
    assert run("export", str(dec_path), "--format", "dot") == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("graph q2 {") and dot.rstrip().endswith("}")
    assert run("export", str(dec_path), "--format", "edgelist") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == num_edges(2)
    out_file = tmp_path / "q2.json"
    assert run("export", str(dec_path), "--format", "json-doc", "-o", str(out_file)) == EXIT_OK
    doc = json.loads(out_file.read_text())
    assert sorted(e["label"] for e in doc["edges"]) == [0, 1, 1, 1]
    with pytest.raises(SystemExit) as exc:
        run("export", str(dec_path), "--format", "yaml")
    assert exc.value.code == 2


def test_oracle_command(tmp_path, capsys):
    edges = tmp_path / "q3.txt"
    edges.write_text("# 3-cube\n" + "\n".join(q3_edge_lines()) + "\n")
    assert run("oracle", str(edges), "--which", "arboricity") == EXIT_OK
    assert "arboricity: 2" in capsys.readouterr().out
    assert run("oracle", str(edges), "--which", "packing") == EXIT_OK
    assert "packing: 1" in capsys.readouterr().out

    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert run("oracle", str(k4), "--which", "packing") == EXIT_OK
    assert "packing: 2" in capsys.readouterr().out


def test_oracle_cap_and_parse_errors(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("\n".join(f"{i} {i + 1}" for i in range(16)) + "\n")  # 17 vertices
    assert run("oracle", str(big), "--which", "arboricity") == EXIT_CAP
    assert "cap" in capsys.readouterr().err
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("0 1 2\n")
    assert run("oracle", str(garbled), "--which", "packing") == EXIT_PARSE
    undecodable = tmp_path / "utf16.txt"
    undecodable.write_bytes(b"\xff\xfe0\x00 \x001\x00\n\x00")  # UTF-16 with its BOM
    capsys.readouterr()
    assert run("oracle", str(undecodable), "--which", "packing") == EXIT_PARSE
    assert "not a text edge list" in capsys.readouterr().err


def test_broadcast_command(tmp_path, capsys):
    assert run("broadcast", "-n", "4", "--root", "0", "--parts", "2") == EXIT_OK
    stdout = capsys.readouterr().out
    assert "tree depths: [7, 5]" in stdout
    assert "max link load: 1" in stdout
    dec_path = tmp_path / "q4.dec"
    run("construct", "-n", "4", "-o", str(dec_path))
    capsys.readouterr()
    assert run("broadcast", str(dec_path), "--hop-cost", "2.0") == EXIT_OK
    assert "14.0" in capsys.readouterr().out
    assert run("broadcast", "-n", "1") == EXIT_USAGE  # zero trees: model undefined
    capsys.readouterr()
    assert run("broadcast") == EXIT_USAGE  # neither input nor -n
    assert "give exactly one of a decomposition file or -n" in capsys.readouterr().err
    assert run("broadcast", str(dec_path), "-n", "4") == EXIT_USAGE  # both
    assert "give exactly one of a decomposition file or -n" in capsys.readouterr().err
    assert run("broadcast", "-n", "4", "--hop-cost", "-2") == EXIT_USAGE


def test_memory_error_exits_with_cap_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("cubetrees.cli.construct", exhausted)
    assert run("construct", "-n", "6") == EXIT_CAP
    assert run("broadcast", "-n", "6") == EXIT_CAP
    err = capsys.readouterr().err
    assert err.count("error: out of memory") == 2
    assert "Traceback" not in err


def test_one_parser_serves_every_call(tmp_path):
    cli._build_parser.cache_clear()
    dec_path = tmp_path / "q4.dec"
    assert run("construct", "-n", "4", "-o", str(dec_path)) == EXIT_OK
    assert run("verify", str(dec_path)) == EXIT_OK
    assert run("info", "-n", "4") == EXIT_OK
    assert run("export", str(dec_path)) == EXIT_OK
    assert run("broadcast", "-n", "3") == EXIT_OK
    assert run("construct", "-n", "0") == EXIT_USAGE
    assert cli._build_parser.cache_info().misses == 1


def exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["export", "--help"],
    ["construct"],  # missing -n
    ["export", "q2.dec", "--format", "yaml"],
    ["frobnicate"],
])
def test_reused_parser_answers_like_a_fresh_one(argv, capsys):
    run("info", "-n", "3")  # the process's parser has been used before
    capsys.readouterr()
    reused = exit_and_output(main, argv, capsys)
    fresh = exit_and_output(cli._build_parser.__wrapped__().parse_args, argv, capsys)
    assert reused == fresh
    assert reused[0] == (0 if "--help" in argv else EXIT_USAGE)


def test_failed_export_keeps_the_old_output(monkeypatch, tmp_path):
    dec_path, out = tmp_path / "q3.dec", tmp_path / "q3.txt"
    assert run("construct", "-n", "3", "-o", str(dec_path)) == EXIT_OK
    assert run("export", str(dec_path), "-o", str(out)) == EXIT_OK
    old = out.read_bytes()
    monkeypatch.setattr(cli, "export_decomposition", lambda dec, fmt: 42)  # not a str
    with pytest.raises(TypeError):
        run("export", str(dec_path), "--format", "dot", "-o", str(out))
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q3.dec", "q3.txt"]
