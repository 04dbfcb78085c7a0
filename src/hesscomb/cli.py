"""
Command line interface.

Subcommands:
  weyl-subsets   list the Weyl-type subsets for h with class extremes and size
  fixed-points   fixed point set of an opposite cell closure, by either route
  graph          incomparability graph, optionally oriented, as JSON or DOT
  verify         run the named property checks at a given rank

All JSON output uses sorted keys and ends with a newline; identical inputs
produce byte-identical output regardless of --jobs.  fixed-points prints
every listing as the JSON text grown from its route's family of allowed
prefix sets (perms.prefix_listing_json), already in lexicographic order, so
nothing is sorted.  With --method both, equal families grow equal listings:
the reachability text is grown once and printed under both keys.  Only when
the families differ is the interval text grown too, and the verdict is then
the equality of the two texts, which are duplicate-free lexicographic
listings of the two sets.
Plain fixed-points and weyl-subsets argv, the subcommand and then each option
once by its exact name with an accepted value, is read straight into the
Namespace argparse would build (_plain_args); every other argv, help and every
usage error included, is parsed by argparse, which alone prints their text.
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

from .fixed_points import interval_family, reachability_family
from .hessenberg import Hessenberg, hessenberg_roots, validate_hessenberg
from .perms import Perm, prefix_listing_json, validate_perm
from .verify import MAX_N, UNIT_CACHES, lemma_names, run_suite
from .weyl import WeylSubset, list_classes, make_weyl_subset, max_element


# neither scans S_n (weyl-subsets counts classes as it grows them), but at h = (n, ..., n)
# weyl-subsets lists n! singleton classes and fixed-points at w = e all n! permutations
MAX_SCAN_N = 8


def _cap_scan_rank(h: Hessenberg, parser: argparse.ArgumentParser) -> None:
    if len(h) > MAX_SCAN_N:
        parser.error(f"rank must be at most {MAX_SCAN_N} for this command, "
                     f"whose work or output can reach n! permutations; got {len(h)}")


def _parse_values(text: str, what: str, validate):
    """validate's tuple of the comma-separated integers in text, or an
    ArgumentTypeError naming what text should have been."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected comma-separated integers")
    try:
        return validate(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}")


def _parse_h(text: str) -> Hessenberg:
    return _parse_values(text, "Hessenberg function", validate_hessenberg)


def _parse_w(text: str) -> Perm:
    return _parse_values(text, "permutation", validate_perm)


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


def _weyl_subset(args, parser: argparse.ArgumentParser) -> Optional[WeylSubset]:
    """args.S as a WeylSubset of args.h (None without --S); not of Weyl type is a usage error."""
    try:
        return None if args.S is None else make_weyl_subset(args.S, args.h)
    except ValueError as exc:
        parser.error(str(exc))


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_weyl_subsets(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    _cap_scan_rank(args.h, parser)
    records = [
        {"S": image, "class_size": size, "w_max": w, "z_min": z}
        for image, size, w, z in list_classes(args.h)
    ]
    return _json(records), 0


def _cmd_fixed_points(args, parser: argparse.ArgumentParser) -> tuple[str, int]:
    _cap_scan_rank(args.h, parser)
    if args.S is not None:
        w = max_element(_weyl_subset(args, parser))
    else:
        w = args.w
        if len(w) != len(args.h):
            parser.error(f"--w has {len(w)} entries but h has {len(args.h)}")

    if args.method == "interval":
        return prefix_listing_json(interval_family(w, args.h)) + "\n", 0
    family = reachability_family(w, args.h)
    chl = prefix_listing_json(family)
    if args.method == "chl":
        return chl + "\n", 0
    # equal families grow equal listings, so only differing ones need the interval text;
    # both texts list their sets without repeats in one order, so equal text is equal sets
    interval = interval_family(w, args.h)
    if family != interval:
        text = prefix_listing_json(interval)
        if text != chl:
            return f'{{"agree": false, "chl": {chl}, "interval": {text}}}\n', 1
    # the agreed listing is grown as text once, and laid out as _json would
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
    S = _weyl_subset(args, parser)
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


def _plain_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace build_parser().parse_args(argv) returns, read directly off
    a plain fixed-points or weyl-subsets argv; None for any other argv.

    Plain means the subcommand, then option/value pairs: each option the exact
    name of one of the subcommand's store options, given once, each value
    not starting with "-" and accepted by its option's type and choices, with
    the required options and the exclusive groups satisfied.  Abbreviations,
    "--opt=value", repeats, conflicts, -h, "--" and unknown or rejected tokens
    get None, so that argparse parses them and prints its help or its error.
    """
    if len(argv) % 2 == 0 or argv[0] not in ("fixed-points", "weyl-subsets"):
        return None
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    sub = commands.choices[argv[0]]
    given = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        action = sub._option_string_actions.get(option)
        if (not isinstance(action, argparse._StoreAction) or action in given
                or text.startswith("-")):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(action.required and action not in given for action in sub._actions):
        return None
    for group in sub._mutually_exclusive_groups:
        count = sum(action in given for action in group._group_actions)
        if count > 1 or (group.required and not count):
            return None
    args = argparse.Namespace(**sub._defaults)
    setattr(args, commands.dest, argv[0])
    for action in sub._actions:
        if action.default is not argparse.SUPPRESS:  # the help action sets nothing
            setattr(args, action.dest, given.get(action, action.default))
    return args


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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        text, code = args.run(args, args.parser)
    finally:
        # a command is a unit of work, as one h is in a sweep, usage errors included
        for cache in UNIT_CACHES:
            cache.cache_clear()
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
