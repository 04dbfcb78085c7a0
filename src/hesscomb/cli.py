"""
Command line interface.

Subcommands:
  weyl-subsets   list the Weyl-type subsets for h with class extremes and size
  fixed-points   fixed point set of an opposite cell closure, by either route
  graph          incomparability graph, optionally oriented, as JSON or DOT
  verify         run the named property checks at a given rank

All JSON output uses sorted keys and ends with a newline; identical inputs
produce byte-identical output regardless of --jobs.  fixed-points lists each
set in lexicographic order.  With --method both it builds each route's
family of allowed prefix sets and grows only the reachability listing: equal
families grow equal sets, so that listing is sorted and encoded once and
printed under both keys.  Only when the families differ is the interval
listing grown, and the verdict is then the equality of the two listings.
Exit codes: 0 success, 1 verification failure or route disagreement, 2 usage
error (including an unwritable --output or stdout, buffered or not, both or
neither of two exclusive options, and a rank above MAX_SCAN_N for
weyl-subsets and fixed-points).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional

from .fixed_points import (
    fixed_points_by_reachability,
    fixed_points_by_translation,
    interval_family,
    reachability_family,
)
from .hessenberg import Hessenberg, hessenberg_roots, validate_hessenberg
from .perms import Perm, validate_perm
from .verify import MAX_N, lemma_names, run_suite
from .weyl import (
    WeylSubset,
    class_size,
    enumerate_weyl_subsets,
    make_weyl_subset,
    max_element,
    min_element,
)


# neither scans S_n (weyl-subsets counts classes on order ideals), but at h = (n, ..., n)
# weyl-subsets lists n! singleton classes and fixed-points at w = e all n! permutations
MAX_SCAN_N = 8


def _cap_scan_rank(h: Hessenberg, parser: argparse.ArgumentParser) -> None:
    if len(h) > MAX_SCAN_N:
        parser.error(f"rank must be at most {MAX_SCAN_N} for this command, "
                     f"whose work or output can reach n! permutations; got {len(h)}")


def _parse_h(text: str) -> Hessenberg:
    try:
        return validate_hessenberg(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad Hessenberg function {text!r}: {exc}")


def _parse_w(text: str) -> Perm:
    try:
        return validate_perm(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad permutation {text!r}: {exc}")


def _parse_root_list(text: str) -> list[tuple[int, int]]:
    """Semicolon-separated pairs "i,j", each meaning the root t_i - t_j; the
    empty string is the empty subset."""
    roots = []
    for chunk in text.split(";") if text else ():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad root {chunk!r}: expected \"i,j\"")
        try:
            roots.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad root {chunk!r}: expected integers")
    return roots


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _sorted_json(perms) -> str:
    """A permutation set as its JSON array, in lexicographic order."""
    return json.dumps(sorted(perms))


def _cmd_weyl_subsets(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    _cap_scan_rank(args.h, parser)
    records = [
        {
            "S": [list(r) for r in sorted(S.roots)],
            "class_size": class_size(S),
            "w_max": list(max_element(S)),
            "z_min": list(min_element(S)),
        }
        for S in enumerate_weyl_subsets(args.h)
    ]
    return _json(records), 0


def _cmd_fixed_points(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    _cap_scan_rank(args.h, parser)
    if args.S is not None:
        try:
            S = make_weyl_subset(args.S, args.h)
        except ValueError as exc:
            parser.error(str(exc))
        w = max_element(S)
    else:
        w = args.w
        if len(w) != len(args.h):
            parser.error(f"--w has {len(w)} entries but h has {len(args.h)}")

    if args.method == "chl":
        return _sorted_json(fixed_points_by_reachability(w, args.h)) + "\n", 0
    if args.method == "interval":
        return _sorted_json(fixed_points_by_translation(w, args.h)) + "\n", 0
    direct = fixed_points_by_reachability(w, args.h)
    chl = _sorted_json(direct)
    # both routes grow their sets from their families by with_prefix_sets, so
    # equal families grow equal sets; only differing ones need the interval listing
    if reachability_family(w, args.h) != interval_family(w, args.h):
        interval = fixed_points_by_translation(w, args.h)
        if direct != interval:
            return f'{{"agree": false, "chl": {chl}, "interval": {_sorted_json(interval)}}}\n', 1
    # the agreed listing is sorted and encoded once, and laid out as _json would
    return f'{{"agree": true, "chl": {chl}, "interval": {chl}}}\n', 0


def _graph_dot(h: Hessenberg, S: Optional[WeylSubset]) -> str:
    n = len(h)
    lines = []
    if S is None:
        lines.append("graph incomparability {")
        lines.extend(f"  {v};" for v in range(1, n + 1))
        lines.extend(f"  {a} -- {b};" for a, b in sorted(hessenberg_roots(h)))
    else:
        lines.append("digraph orientation {")
        lines.extend(f"  {v};" for v in range(1, n + 1))
        lines.extend(f"  {tail} -> {head};" for tail, head in sorted(S.arcs()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    S = None
    if args.S is not None:
        try:
            S = make_weyl_subset(args.S, args.h)
        except ValueError as exc:
            parser.error(str(exc))
    if args.format == "dot":
        return _graph_dot(args.h, S), 0
    payload = {
        "h": list(args.h),
        "n": len(args.h),
        "edges": [list(e) for e in sorted(hessenberg_roots(args.h))],
    }
    if S is not None:
        payload["arcs"] = [list(a) for a in sorted(S.arcs())]
    return _json(payload), 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    top = args.n if args.n is not None else args.max_n
    if not 1 <= top <= MAX_N:
        parser.error(f"rank must be between 1 and {MAX_N}, got {top}")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    ranks = [args.n] if args.n is not None else list(range(1, args.max_n + 1))
    summaries = []
    discrepancies = []
    for n in ranks:
        summary, found = run_suite(n, lemma=args.paper_lemma, jobs=args.jobs)
        summaries.append(summary)
        discrepancies.extend(found)
    for record in discrepancies:
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    payload = summaries[0] if args.n is not None else summaries
    return _json(payload), 0 if not discrepancies else 1


@cache  # built once per process, on first use: main parses far faster than it builds
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesscomb",
        description="Combinatorics of Hessenberg Schubert varieties in type A.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "weyl-subsets",
        help="list the Weyl-type subsets for h with class extremes and size "
             f"(the classes cover all n! permutations; rank capped at {MAX_SCAN_N})",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H",
                   help="Hessenberg function values, e.g. 3,4,4,4")
    p.add_argument("--output", metavar="PATH", help="write output to a file")
    p.set_defaults(run=_cmd_weyl_subsets, parser=p)

    p = sub.add_parser(
        "fixed-points",
        help="fixed point set of the closed opposite cell of w (or of the "
             f"class maximum of S; up to n! members, so rank capped at {MAX_SCAN_N})",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--w", type=_parse_w, metavar="W",
                     help="permutation in one-line notation, e.g. 2,3,1,4")
    one.add_argument("--S", type=_parse_root_list, metavar="S",
                     help="Weyl-type subset as semicolon-separated roots, e.g. "
                          "\"2,3;1,3\"; \"\" is the empty subset")
    p.add_argument("--method", choices=("chl", "interval", "both"), default="both",
                   help="chl: reachability route; interval: translated Bruhat "
                        "interval route; both: run both and compare")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=_cmd_fixed_points, parser=p)

    p = sub.add_parser(
        "graph",
        help="incomparability graph of h, oriented when S is given",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H")
    p.add_argument("--S", type=_parse_root_list, metavar="S")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=_cmd_graph, parser=p)

    p = sub.add_parser(
        "verify",
        help=f"run the property checks over every h at a rank (capped at {MAX_N})",
    )
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--n", type=int, metavar="N", help="single rank to check")
    one.add_argument("--max-n", type=int, metavar="N",
                     help="check every rank from 1 up to N")
    p.add_argument("--paper-lemma", choices=lemma_names(), metavar="NAME",
                   help="run one named check instead of the whole suite "
                        f"(known: {', '.join(lemma_names())})")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="worker processes for the sweep")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(run=_cmd_verify, parser=p)

    return parser


def _write_stdout(text: str) -> None:
    """Write all of text to stdout, or raise OSError.

    Under python -u the text layer passes its bytes to the raw file in one
    write and drops the count of a short write, so the bytes go to the binary
    layer here, again and again until all of them are out.
    """
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        out.flush()
        return
    out.flush()
    data = memoryview(text.encode(out.encoding))
    while data:
        data = data[binary.write(data):]
    binary.flush()


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    text, code = args.run(args, args.parser)
    if args.output is None:
        try:
            _write_stdout(text)
        except OSError as exc:
            sys.stdout = None  # it still holds the text, and would fail again at exit
            args.parser.error(f"cannot write stdout: {exc.strerror}")
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        args.parser.error(f"cannot write --output {args.output}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
