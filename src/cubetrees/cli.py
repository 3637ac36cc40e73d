"""Command-line surface: construct, verify, info, export, oracle, broadcast.

Exit codes are stable per failure class so scripts can branch on them:

    0  success
    1  I/O failure (unreadable or unwritable paths)
    2  usage errors, including invalid dimensions and bad model arguments
    3  file parse errors (corrupt or truncated inputs)
    4  size cap exceeded (cube dimension or oracle vertex caps), or out of
       memory (a MemoryError ends the command with an error line, not a
       traceback)
    5  verification failed (file parsed fine but a structural check failed,
       or a broadcast tree does not reach every vertex)

The argument parser is built by the first `main` call and reused by every
later one in the process, so an in-process caller pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import bounds_for
from .broadcast import broadcast_metrics
from .construct import LEFTOVER, construct
from .files import (
    EXPORT_FORMATS,
    DecompositionParseError,
    export_decomposition,
    open_replacing,
    read_decomposition,
    write_decomposition,
)
from .hypercube import CapExceededError, check_dimension
from .oracle import EdgeListParseError, load_edge_list, nw_arboricity, packing_upper_bound
from .verify import MalformedDecompositionError, verify_decomposition

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_VERIFY = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubetrees",
        description="Maximum edge-disjoint spanning tree decompositions of hypercubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a decomposition")
    p.add_argument("-n", "--dimension", type=int, required=True)
    p.add_argument("-o", "--output", type=Path, help="write the binary decomposition file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a decomposition file")
    p.add_argument("input", type=Path)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", help="closed-form invariants for Q_n")
    p.add_argument("-n", "--dimension", type=int, required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("export", help="render a decomposition file")
    p.add_argument("input", type=Path)
    p.add_argument("--format", choices=EXPORT_FORMATS, default="edgelist")
    p.add_argument("-o", "--output", type=Path, help="default: stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("oracle", help="brute-force value for a small edge-list graph")
    p.add_argument("input", type=Path, help="edge list: one 'u v' per line, '#' comments")
    p.add_argument("--which", choices=("arboricity", "packing"), required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("broadcast", help="multi-tree broadcast metrics")
    p.add_argument("input", type=Path, nargs="?", help="decomposition file")
    p.add_argument("-n", "--dimension", type=int, help="construct instead of reading a file")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--hop-cost", type=float, default=1.0)
    p.set_defaults(func=cmd_broadcast)

    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    dec = construct(args.dimension)
    if args.output is not None:
        write_decomposition(dec, args.output)
        target = f", written to {args.output}"
    else:
        target = ""
    leftover = int(np.count_nonzero(dec.labels == LEFTOVER))
    print(
        f"Q_{dec.n}: {dec.k} edge-disjoint spanning trees, kind={dec.kind}, "
        f"leftover {leftover} edges{target}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    dec = read_decomposition(args.input)
    report = verify_decomposition(dec)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return EXIT_OK if report.overall else EXIT_VERIFY


def cmd_info(args: argparse.Namespace) -> int:
    n = check_dimension(args.dimension)
    report = bounds_for(n)
    print(f"Q_{n}: {report.vertices} vertices, {report.edges} edges")
    print(f"  spanning tree packing: {report.tree_packing}")
    print(f"  arboricity:            {report.arboricity}")
    print(f"  tree number:           {report.tree_number}")
    print(f"  leftover edges:        {report.leftover}")
    print(
        "  bound chain: "
        f"packing {report.tree_packing} <= floor |E|/(|V|-1) = {report.trivial_upper} "
        f"<= ceil |E|/(|V|-1) = {report.trivial_lower} "
        f"<= arboricity {report.arboricity} <= tree number {report.tree_number}"
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    dec = read_decomposition(args.input)
    rendered = export_decomposition(dec, args.format)
    if args.output is None:
        sys.stdout.write(rendered)
    else:
        with open_replacing(args.output, "w") as f:
            f.write(rendered)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        text = args.input.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"{args.input}: not a text edge list ({exc.reason})") from None
    graph = load_edge_list(text)
    if args.which == "arboricity":
        value = nw_arboricity(graph)
    else:
        value = packing_upper_bound(graph)
    print(f"{args.which}: {value}")
    return EXIT_OK


def cmd_broadcast(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.dimension is None):
        raise ValueError("give exactly one of a decomposition file or -n")
    if args.input is not None:
        dec = read_decomposition(args.input)
    else:
        dec = construct(args.dimension)
    metrics = broadcast_metrics(dec, args.root, parts=args.parts, hop_cost=args.hop_cost)
    print(f"Q_{dec.n}, k={dec.k}, parts={args.parts}, hop cost={args.hop_cost}")
    print(metrics.to_text())
    return EXIT_OK if metrics.ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except (DecompositionParseError, EdgeListParseError, MalformedDecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
