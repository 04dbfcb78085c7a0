"""
Command line interface.

Subcommands:
  weyl-subsets   list the Weyl-type subsets for h with class extremes and size
  fixed-points   fixed point set of an opposite cell closure, by either route
  graph          incomparability graph, optionally oriented, as JSON or DOT
  verify         run the named property checks at a given rank

All JSON output uses sorted keys and ends with a newline; identical inputs
produce byte-identical output regardless of --jobs.  Exit codes: 0 success,
1 verification failure or route disagreement, 2 usage error (including an
unwritable --output).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .fixed_points import (
    fixed_points_by_reachability,
    fixed_points_by_translation,
)
from .hessenberg import Hessenberg, incomparability_graph, validate_hessenberg
from .perms import Perm, validate_perm
from .verify import MAX_N, lemma_names, run_suite
from .weyl import (
    Orientation,
    class_of,
    make_weyl_subset,
    max_element,
    min_element,
    orientation_of,
    weyl_subsets_sorted,
)


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


def _sorted_perms(perms) -> list[list[int]]:
    return [list(p) for p in sorted(perms)]


def _cmd_weyl_subsets(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    records = [
        {
            "S": [list(r) for r in sorted(S.roots)],
            "class_size": len(class_of(S)),
            "w_max": list(max_element(S)),
            "z_min": list(min_element(S)),
        }
        for S in weyl_subsets_sorted(args.h)
    ]
    return _json(records), 0


def _cmd_fixed_points(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    if (args.w is None) == (args.S is None):
        parser.error("exactly one of --w and --S is required")
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
        return _json(_sorted_perms(fixed_points_by_reachability(w, args.h))), 0
    if args.method == "interval":
        return _json(_sorted_perms(fixed_points_by_translation(w, args.h))), 0
    direct = fixed_points_by_reachability(w, args.h)
    interval = fixed_points_by_translation(w, args.h)
    agree = direct == interval
    payload = {
        "agree": agree,
        "chl": _sorted_perms(direct),
        "interval": _sorted_perms(interval),
    }
    return _json(payload), 0 if agree else 1


def _graph_dot(h: Hessenberg, o: Optional[Orientation]) -> str:
    n = len(h)
    lines = []
    if o is None:
        lines.append("graph incomparability {")
        lines.extend(f"  {v};" for v in range(1, n + 1))
        lines.extend(f"  {a} -- {b};" for a, b in sorted(incomparability_graph(h).edges))
    else:
        lines.append("digraph orientation {")
        lines.extend(f"  {v};" for v in range(1, n + 1))
        lines.extend(f"  {tail} -> {head};" for tail, head in sorted(o.arcs()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    o = None
    if args.S is not None:
        try:
            o = orientation_of(make_weyl_subset(args.S, args.h))
        except ValueError as exc:
            parser.error(str(exc))
    if args.format == "dot":
        return _graph_dot(args.h, o), 0
    payload = {
        "h": list(args.h),
        "n": len(args.h),
        "edges": [list(e) for e in sorted(incomparability_graph(args.h).edges)],
    }
    if o is not None:
        payload["arcs"] = [list(a) for a in sorted(o.arcs())]
    return _json(payload), 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    if args.n is None and args.max_n is None:
        parser.error("one of --n and --max-n is required")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesscomb",
        description="Combinatorics of Hessenberg Schubert varieties in type A.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "weyl-subsets",
        help="list the Weyl-type subsets for h with class extremes and size",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H",
                   help="Hessenberg function values, e.g. 3,4,4,4")
    p.add_argument("--output", metavar="PATH", help="write output to a file")

    p = sub.add_parser(
        "fixed-points",
        help="fixed point set of the closed opposite cell of w (or of the "
             "class maximum of S)",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H")
    p.add_argument("--w", type=_parse_w, metavar="W",
                   help="permutation in one-line notation, e.g. 2,3,1,4")
    p.add_argument("--S", type=_parse_root_list, metavar="S",
                   help="Weyl-type subset as semicolon-separated roots, e.g. "
                        "\"2,3;1,3\"; \"\" is the empty subset")
    p.add_argument("--method", choices=("chl", "interval", "both"), default="both",
                   help="chl: reachability route; interval: translated Bruhat "
                        "interval route; both: run both and compare")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser(
        "graph",
        help="incomparability graph of h, oriented when S is given",
    )
    p.add_argument("--h", type=_parse_h, required=True, metavar="H")
    p.add_argument("--S", type=_parse_root_list, metavar="S")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser(
        "verify",
        help=f"run the property checks over every h at a rank (capped at {MAX_N})",
    )
    p.add_argument("--n", type=int, metavar="N", help="single rank to check")
    p.add_argument("--max-n", type=int, metavar="N",
                   help="check every rank from 1 up to N")
    p.add_argument("--paper-lemma", choices=lemma_names(), metavar="NAME",
                   help="run one named check instead of the whole suite "
                        f"(known: {', '.join(lemma_names())})")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="worker processes for the sweep")
    p.add_argument("--output", metavar="PATH")

    return parser


_COMMANDS = {
    "weyl-subsets": _cmd_weyl_subsets,
    "fixed-points": _cmd_fixed_points,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    text, code = _COMMANDS[args.command](args, parser)
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write --output {args.output}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
