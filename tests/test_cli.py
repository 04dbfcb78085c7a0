"""Command line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hesscomb import cli, verify, weyl
from hesscomb.cli import main
from hesscomb.fixed_points import (
    fixed_points_by_reachability,
    fixed_points_by_translation,
    interval_family,
    reachability_family,
)
from hesscomb.hessenberg import enumerate_hessenberg
from hesscomb.perms import prefix_listing, prefix_listing_json
from hesscomb.weyl import enumerate_weyl_subsets

RANK_NINE = ",".join(["9"] * 9)


def sorted_lists(perms):
    return [list(p) for p in sorted(perms)]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestWeylSubsets:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(["weyl-subsets", "--h", "3,4,4,4"], capsys)
        assert code == 0
        assert out.endswith("\n")
        records = json.loads(out)
        assert len(records) == 18
        keyed = {json.dumps(r["S"]): r for r in records}
        rec = keyed[json.dumps([[1, 3], [2, 3]])]
        assert rec["w_max"] == [2, 3, 1, 4]
        assert rec["z_min"] == [2, 3, 1, 4]
        assert rec["class_size"] == 1

    def test_records_sorted_by_subset(self, capsys):
        _, out, _ = run_cli(["weyl-subsets", "--h", "3,4,4,4"], capsys)
        records = json.loads(out)
        keys = [r["S"] for r in records]
        assert keys == sorted(keys)

    def test_minimal_function_single_record(self, capsys):
        code, out, _ = run_cli(["weyl-subsets", "--h", "1,2,3,4"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["S"] == []
        assert records[0]["class_size"] == 24

    def test_malformed_h_is_usage_error(self, capsys):
        code, _, err = run_cli(["weyl-subsets", "--h", "3,4,2,4"], capsys)
        assert code == 2
        assert "nondecreasing" in err

    def test_rank_eight_without_enumeration(self, capsys, no_enumeration):
        code, out, _ = run_cli(["weyl-subsets", "--h", "3,4,5,6,7,8,8,8"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2 * 3 ** 6
        assert sum(r["class_size"] for r in records) == 40320

    def test_listing_counts_classes_without_listing_them(self, capsys, monkeypatch,
                                                          no_enumeration):
        # one class of all 8! permutations: it is counted, never built
        def forbidden(S):
            raise AssertionError("class_of was called")

        monkeypatch.setattr(weyl, "class_of", forbidden)
        monkeypatch.setattr(cli, "class_of", forbidden, raising=False)
        code, out, _ = run_cli(["weyl-subsets", "--h", "1,2,3,4,5,6,7,8"], capsys)
        assert code == 0
        [record] = json.loads(out)
        assert record["class_size"] == 40320

    def test_rank_above_cap_is_usage_error(self, capsys, no_enumeration):
        code, out, err = run_cli(["weyl-subsets", "--h", RANK_NINE], capsys)
        assert code == 2
        assert out == ""
        assert "at most 8" in err


class TestFixedPoints:
    def test_both_agree_on_worked_example(self, capsys):
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4", "--method", "both"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["chl"] == payload["interval"]
        assert len(payload["chl"]) == 12
        # the hand-written layout is that of json.dumps with sorted keys
        listing = sorted_lists(fixed_points_by_reachability((2, 3, 1, 4), (3, 4, 4, 4)))
        payload = {"agree": True, "chl": listing, "interval": listing}
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_longest_element_is_alone(self, capsys):
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "4,3,2,1", "--method", "chl"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == [[4, 3, 2, 1]]

    def test_methods_byte_identical(self, capsys):
        _, chl, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "3,1,2,4", "--method", "chl"],
            capsys,
        )
        _, interval, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "3,1,2,4", "--method", "interval"],
            capsys,
        )
        assert chl == interval

    def test_subset_input(self, capsys):
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--S", "2,3;1,3", "--method", "interval"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)) == 12

    @pytest.mark.parametrize(
        "S, diagnostic",
        [
            ("1,2,3", 'argument --S: bad root \'1,2,3\': expected "i,j"'),
            ("a,b", "argument --S: bad root 'a,b': expected integers"),
            ("1,2;2,3", "subset not closed under root addition: (1,2) + (2,3) = (1,3)"),
        ],
        ids=["three-entries", "not-integers", "not-weyl-type"],
    )
    def test_bad_subset_is_usage_error(self, capsys, S, diagnostic):
        code, out, err = run_cli(["fixed-points", "--h", "3,4,4,4", "--S", S], capsys)
        assert code == 2
        assert out == ""
        usage, _, message = err.partition("\nhesscomb fixed-points: error: ")
        assert usage.startswith("usage: hesscomb fixed-points ")
        assert message.startswith(diagnostic)

    def test_empty_subset(self, capsys):
        # for h = (3,4,4,4) the empty subset's class is the identity alone
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--S", "", "--method", "both"], capsys
        )
        assert code == 0
        _, by_w, _ = run_cli(["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3,4"], capsys)
        assert out == by_w
        assert len(json.loads(out)["chl"]) == 24

    def test_requires_exactly_one_of_w_and_s(self, capsys):
        code, _, _ = run_cli(["fixed-points", "--h", "3,4,4,4"], capsys)
        assert code == 2
        code, _, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4", "--S", "2,3"],
            capsys,
        )
        assert code == 2

    def test_rank_above_cap_is_usage_error(self, capsys, no_enumeration):
        for rest in (["--w", "9,8,7,6,5,4,3,2,1"], ["--S", ""]):
            code, out, err = run_cli(["fixed-points", "--h", RANK_NINE, *rest], capsys)
            assert code == 2
            assert out == ""
            assert "at most 8" in err

    def test_bad_permutation_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "1,1,2,3"], capsys
        )
        assert code == 2
        assert "permutation" in err
        code, _, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "rest, diagnostic",
        [
            (["--h", "3,x,4,4", "--w", "1,2,3,4"], "argument --h: bad Hessenberg function "
             "'3,x,4,4': expected comma-separated integers"),
            (["--h", "3,4,4,4", "--w", "1,,2,3"], "argument --w: bad permutation "
             "'1,,2,3': expected comma-separated integers"),
            (["--h", "3,2,3", "--w", "1,2,3"], "argument --h: bad Hessenberg function "
             "'3,2,3': not nondecreasing at position 1"),
            (["--h", "1,1,3", "--w", "1,2,3"], "argument --h: bad Hessenberg function "
             "'1,1,3': h(2) = 1 is below the diagonal"),
            (["--h", "2,3,4", "--w", "1,2,3"], "argument --h: bad Hessenberg function "
             "'2,3,4': h(3) = 4 exceeds n = 3"),
            (["--h", "3,3,3", "--w", "1,1,2"], "argument --w: bad permutation "
             "'1,1,2': not a permutation of 1..3"),
            (["--h", "3,4,4,4", "--w", "1,2,3"], "--w has 3 entries but h has 4"),
        ],
        ids=["h-not-integers", "w-not-integers", "h-decreasing", "h-below-diagonal",
             "h-above-n", "w-not-a-permutation", "w-wrong-length"],
    )
    def test_bad_h_or_w_is_usage_error(self, capsys, rest, diagnostic):
        code, out, err = run_cli(["fixed-points", *rest], capsys)
        assert code == 2
        assert out == ""
        usage, _, message = err.partition("\nhesscomb fixed-points: error: ")
        assert usage.startswith("usage: hesscomb fixed-points ")
        assert message.startswith(diagnostic)

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        # force the interval route wrong to confirm the agreement gate: its
        # family becomes the prefixes {1, ..., k} of the identity, so that the
        # families differ and the listings decide
        monkeypatch.setattr(
            "hesscomb.cli.interval_family",
            lambda w, h: [{(2 << k) - 2} for k in range(1, len(w) + 1)],
        )
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4", "--method", "both"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["agree"] is False
        # each side is grown from its own family and printed as its own text
        payload = {
            "agree": False,
            "chl": sorted_lists(fixed_points_by_reachability((2, 3, 1, 4), (3, 4, 4, 4))),
            "interval": [[1, 2, 3, 4]],
        }
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_families_differ_but_listings_agree(self, capsys, monkeypatch):
        # a dead-end mask ({1} at k = 1, which no allowed 2-set extends) makes
        # the families differ while growing the same set: the listings decide
        argv = ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4", "--method", "both"]
        want = run_cli(argv, capsys)
        family = interval_family((2, 3, 1, 4), (3, 4, 4, 4))
        patched = [family[0] | {0b10}, *family[1:]]
        assert patched != family
        assert frozenset(prefix_listing(patched)) == frozenset(prefix_listing(family))
        monkeypatch.setattr("hesscomb.cli.interval_family", lambda w, h: patched)
        listed = []

        def counted(allowed):
            listed.append(allowed)
            return prefix_listing_json(allowed)

        monkeypatch.setattr("hesscomb.cli.prefix_listing_json", counted)
        assert run_cli(argv, capsys) == want
        assert want[0] == 0
        assert json.loads(want[1])["agree"] is True
        # the reachability listing, then the interval listing, each grown once
        assert listed == [reachability_family((2, 3, 1, 4), (3, 4, 4, 4)), patched]

    def test_one_dropped_reachable_mask_fails_the_agreement(self, capsys, monkeypatch):
        # a mutation of the per-class pass: at k = 1 it loses its largest mask;
        # every reachable set lies on a full chain, so each listing loses members
        import hesscomb.fixed_points
        import hesscomb.reach
        from hesscomb import verify

        real = hesscomb.reach.reachable_masks

        def dropped(S):
            levels = list(real(S))
            levels[1] = levels[1] - {max(levels[1])}
            return tuple(levels)

        for module in (hesscomb.fixed_points, hesscomb.reach):
            monkeypatch.setattr(module, "reachable_masks", dropped)
        for cache in verify.UNIT_CACHES:
            cache.cache_clear()
        code, out, _ = run_cli(
            ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4", "--method", "both"], capsys)
        assert code == 1
        assert json.loads(out)["agree"] is False
        for check in ("main-theorem", "cell-translation"):
            code, out, err = run_cli(["verify", "--n", "4", "--paper-lemma", check], capsys)
            assert code == 1
            assert json.loads(out)["lemmas"][check]["failures"] > 0
            assert check in err


class TestGraph:
    def test_json_edges(self, capsys):
        code, out, _ = run_cli(["graph", "--h", "2,4,4,4", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["edges"] == [[1, 2], [2, 3], [2, 4], [3, 4]]
        assert "arcs" not in payload

    def test_oriented_dot(self, capsys):
        code, out, _ = run_cli(
            ["graph", "--h", "3,4,4,4", "--S", "2,3;1,3", "--format", "dot"], capsys
        )
        assert code == 0
        assert out.startswith("digraph")
        for arc in ("1 -> 2;", "3 -> 1;", "3 -> 2;", "2 -> 4;", "3 -> 4;"):
            assert arc in out

    def test_unoriented_dot(self, capsys):
        code, out, _ = run_cli(["graph", "--h", "2,4,4,4", "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("graph")
        assert "1 -- 2;" in out
        assert "->" not in out

    def test_edgeless(self, capsys):
        _, out, _ = run_cli(["graph", "--h", "1,2,3", "--format", "json"], capsys)
        assert json.loads(out)["edges"] == []

    def test_empty_subset_points_every_edge_up(self, capsys):
        code, out, _ = run_cli(
            ["graph", "--h", "2,4,4,4", "--S", "", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["arcs"] == payload["edges"]

    def test_non_weyl_subset_diagnosed(self, capsys):
        code, _, err = run_cli(
            ["graph", "--h", "3,4,4,4", "--S", "1,2;2,3", "--format", "dot"], capsys
        )
        assert code == 2
        assert "not closed" in err


class TestVerify:
    def test_rank_four_passes(self, capsys):
        code, out, err = run_cli(["verify", "--n", "4"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] is True
        assert summary["hessenberg_count"] == 14
        assert err == ""

    def test_single_lemma(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n", "4", "--paper-lemma", "main-theorem"], capsys
        )
        assert code == 0
        summary = json.loads(out)
        assert list(summary["lemmas"]) == ["main-theorem"]

    def test_unknown_lemma_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--n", "4", "--paper-lemma", "nope"], capsys
        )
        assert code == 2

    def test_max_n_sweep(self, capsys):
        code, out, _ = run_cli(["verify", "--max-n", "2"], capsys)
        assert code == 0
        summaries = json.loads(out)
        assert [s["n"] for s in summaries] == [1, 2]

    def test_rank_cap(self, capsys):
        code, _, _ = run_cli(["verify", "--n", "7"], capsys)
        assert code == 2
        code, _, _ = run_cli(["verify", "--max-n", "0"], capsys)
        assert code == 2

    def test_requires_a_rank(self, capsys):
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 2

    def test_both_rank_options_is_usage_error(self, capsys):
        code, out, err = run_cli(["verify", "--n", "2", "--max-n", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    def test_jobs_below_one_is_usage_error(self, capsys):
        for jobs in ("0", "-2"):
            code, out, err = run_cli(["verify", "--n", "2", "--jobs", jobs], capsys)
            assert code == 2
            assert out == ""
            assert "--jobs" in err

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(["verify", "--n", "3"], capsys)
        _, parallel, _ = run_cli(["verify", "--n", "3", "--jobs", "2"], capsys)
        assert serial == parallel

    def test_failures_exit_one_with_discrepancy_lines(self, capsys, monkeypatch):
        # no check genuinely fails, so fake one to pin the failure wiring:
        # exit code 1 and one JSON line per discrepancy on stderr
        record = {"n": 4, "h": [3, 4, 4, 4], "S": [[1, 3], [2, 3]],
                  "operation": "main-theorem"}
        summary = {
            "n": 4,
            "hessenberg_count": 14,
            "lemmas": {"main-theorem": {"checked": 105, "failures": 1}},
            "failures": 1,
            "ok": False,
        }
        monkeypatch.setattr(
            "hesscomb.cli.run_suite", lambda n, lemma=None, jobs=1: (summary, [record])
        )
        code, out, err = run_cli(["verify", "--n", "4"], capsys)
        assert code == 1
        assert json.loads(out)["ok"] is False
        lines = [json.loads(line) for line in err.splitlines()]
        assert lines == [record]
        assert set(lines[0]) == {"n", "h", "S", "operation"}


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl-subsets", "--h", RANK_NINE],
        ["graph", "--h", "3,4,4,4", "--S", "1,2;2,3"],
        ["verify", "--n", "2", "--output", "{tmp}/missing/out.json"],
    ],
    ids=["rank-cap", "bad-subset", "unwritable-output"],
)
def test_late_usage_error_names_the_subcommand(argv, capsys, tmp_path):
    # errors found after parsing print the subcommand's usage line, as
    # argparse does for its own errors
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"usage: hesscomb {argv[0]} ")


PLAIN_OPTIONS = ("--h", "--w", "--S", "--method", "--output")
# each option's values that its type and choices accept, then ones they reject
PLAIN_VALUES = {
    "--h": (("3,4,4,4", "4,5,6,7,7,7,7", "1", "2,2", RANK_NINE),
            ("3,4,2,4", "3,x,4,4", "", "1,1,3")),
    "--w": (("1,2,3,4", "3,1,4,7,5,2,6", "2,1", "1", "1,2,3"), ("1,1,2", "1,,2", "")),
    "--S": (("", "1,2", "1,2;1,3", "1,2;2,3"), ("a,b", "1,2,3")),
    "--method": (("both", "chl", "interval"), ("bogus", "bot", "")),
    "--output": (("out.json", "", "both"), ()),
}
# values argparse takes as an option (-o, --, -h) or, when they look like a
# negative number or are "-" alone, as a value
DASHED_VALUES = ("-", "-1", "-o", "--", "-h")
IRREGULAR_TOKENS = ("--meth", "--met", "--o", "--out", "--he", "-h", "--help", "--", "-1",
                    "--x", "--n", "--format", "--h=3,4,4,4", "--w=1,2,3,4", "--w=1,1",
                    "--S=", "--method=chl", "--meth=both", "--h=", "3,4,4,4")


def _draw_pair(draw, option):
    accepted, rejected = PLAIN_VALUES[option]
    bad = draw(st.integers(min_value=0, max_value=5)) == 0
    return [option, draw(st.sampled_from(rejected + DASHED_VALUES if bad else accepted))]


@st.composite
def cli_argvs(draw):
    """A subcommand and, in any order, mostly the options it takes, each
    dropped now and then and mostly with an accepted value; then, now and
    then, one more option/value pair, or an abbreviated, "="-joined, help,
    "--" or unknown token, put in anywhere."""
    command = draw(st.sampled_from(("fixed-points", "fixed-points", "weyl-subsets",
                                    "graph", "fixed", "")))
    options = ["--h", "--output"]
    if command != "weyl-subsets":
        options += [*draw(st.sampled_from((("--w",), ("--S",), ("--w",), ("--S",),
                                           ("--w", "--S")))), "--method"]
    argv = [command]
    for option in draw(st.permutations(options)):
        if draw(st.integers(min_value=0, max_value=7)):
            argv += _draw_pair(draw, option)
    for _ in range(max(0, draw(st.integers(min_value=-4, max_value=2)))):
        if draw(st.booleans()):
            at = 1 + 2 * draw(st.integers(min_value=0, max_value=(len(argv) - 1) // 2))
            argv[at:at] = _draw_pair(draw, draw(st.sampled_from(PLAIN_OPTIONS)))
        else:
            token = draw(st.sampled_from(IRREGULAR_TOKENS + PLAIN_OPTIONS))
            argv.insert(draw(st.integers(min_value=1, max_value=len(argv))), token)
    return argv


def argparse_outcome(argv):
    """vars() of argparse's Namespace for argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@seed(23)
@settings(max_examples=1000)
@given(cli_argvs())
def test_plain_args_is_argparse_or_defers(argv):
    # the plain path either builds argparse's Namespace or leaves argv to it;
    # every argv argparse rejects, or answers with help, must be left to it
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == argparse_outcome(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3,4", "--meth", "chl"],
        ["fixed-points", "--h=3,4,4,4", "--w", "1,2,3,4"],
        ["weyl-subsets", "--h", "3,4,4,4", "--h", "3,4,4,4"],
        ["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3,4", "--S", ""],
        ["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3,4", "-h", "x"],
        ["weyl-subsets", "--h", "3,4,4,4", "--help", "x"],
        ["fixed-points", "--h", "3,4,4,4", "--", "--w", "1,2,3,4"],
        ["weyl-subsets", "--h", "3,4,4,4", "--output", "-1"],
        ["weyl-subsets", "--h", "3,4,4,4", "--n", "5"],
        ["graph", "--h", "3,4,4,4"],
        ["weyl-subsets", "--h", "3,x,4,4"],
        ["fixed-points", "--h", "3,4,4,4", "--w", "1,2,3,4", "--method", "bogus"],
    ],
    ids=["empty", "abbreviated", "joined", "repeated", "conflicting", "short-help", "help",
         "double-dash", "dashed-value", "unknown", "other-command", "rejected-value",
         "unknown-choice"],
)
def test_irregular_argv_is_left_to_argparse(argv):
    assert cli._plain_args(argv) is None


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["fixed-points", "--h", "4,5,6,7,7,7,7", "--w", "3,1,4,7,5,2,6", "--method", "both"],
         "add1da9a99185f34405741b80f2a004b37bab9f9b8f93f76cfec21ca1daee8b5"),
        (["weyl-subsets", "--h", "3,4,4,4"],
         "0ac81298a801a94055bae93daf9893ac81e2dfd36fac4f7f51367bc7b11e7f64"),
    ],
    ids=["fixed-points", "weyl-subsets"],
)
def test_plain_argv_is_not_parsed_by_argparse(argv, digest, capsys, monkeypatch):
    # the digests are of the output when argparse parsed these argv
    def forbidden(*args, **kwargs):
        raise AssertionError("argparse parsed the argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", forbidden)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(AssertionError, match="argparse parsed"):
        main([argv[0], f"{argv[1]}={argv[2]}", *argv[3:]])


# SHA-256 of every output below.  The byte-exact output of these commands is
# part of the CLI contract, so a change to it must update this value on purpose.
OUTPUT_DIGEST_RANKS_1_TO_5 = "d4ed26f2ce4434ef3354645f81abb7a5222d5f7955f93987a172a8fa640f0ae5"


def test_output_digest_ranks_one_to_five(capsys):
    # weyl-subsets, and graph in JSON and DOT with no --S and with every
    # Weyl-type subset as --S, for every h at ranks 1-5 (2,330 outputs)
    digest = hashlib.sha256()
    for n in range(1, 6):
        for h in enumerate_hessenberg(n):
            hs = ",".join(map(str, h))
            runs = [["weyl-subsets", "--h", hs]]
            given = [[]] + [
                ["--S", ";".join(f"{a},{b}" for a, b in sorted(S.roots))]
                for S in enumerate_weyl_subsets(h)
            ]
            for S in given:
                for fmt in ("json", "dot"):
                    runs.append(["graph", "--h", hs, "--format", fmt, *S])
            for argv in runs:
                code, out, _ = run_cli(argv, capsys)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGEST_RANKS_1_TO_5


# SHA-256 of `weyl-subsets --h H` for every rank-6 h, in enumerate_hessenberg order.
OUTPUT_DIGEST_RANK_6 = "b2b2c685bbcc4c458af2e5e4553495558a4623d57ff46f3c517d3604d3c923ca"


def test_weyl_subsets_digest_rank_six(capsys):
    digest = hashlib.sha256()
    for h in enumerate_hessenberg(6):
        code, out, _ = run_cli(["weyl-subsets", "--h", ",".join(map(str, h))], capsys)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGEST_RANK_6


# SHA-256 of `weyl-subsets --h H` for 40 rank-7 h drawn by random.Random(7).sample
# from enumerate_hessenberg(7), in the order drawn.
OUTPUT_DIGEST_RANK_7_SAMPLE = "e5b38cac397e1de8f91829cdb5b5b7c3052db6d7521964eb48802d23a49ce3a9"


def test_weyl_subsets_digest_rank_seven_sample(capsys):
    digest = hashlib.sha256()
    for h in random.Random(7).sample(list(enumerate_hessenberg(7)), 40):
        code, out, _ = run_cli(["weyl-subsets", "--h", ",".join(map(str, h))], capsys)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGEST_RANK_7_SAMPLE


# SHA-256 of every `fixed-points` output and exit code below, in enumerate_hessenberg
# and lexicographic order.
OUTPUT_DIGEST_FIXED_POINTS = "9c5f5a3518e2253310a48745973dd98e543b8d4ac84076966872c4ecd0d5680a"


def test_fixed_points_digest_ranks_one_to_five(capsys):
    # every (h, w) at ranks 1-4 with each --method, every Weyl-type subset at
    # ranks 1-4 as --S, and every rank-5 (h, w) with --method both (6,277 outputs)
    digest = hashlib.sha256()
    for n in range(1, 6):
        methods = ("chl", "interval", "both") if n < 5 else ("both",)
        for h in enumerate_hessenberg(n):
            hs = ",".join(map(str, h))
            runs = [
                ["--w", ",".join(map(str, w)), "--method", method]
                for w in itertools.permutations(range(1, n + 1))
                for method in methods
            ]
            if n < 5:
                runs += [
                    ["--S", ";".join(f"{a},{b}" for a, b in sorted(S.roots))]
                    for S in enumerate_weyl_subsets(h)
                ]
            for rest in runs:
                code, out, _ = run_cli(["fixed-points", "--h", hs, *rest], capsys)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == OUTPUT_DIGEST_FIXED_POINTS


def test_interval_listing_is_the_sorted_translation_set_at_rank_five(capsys):
    # the digest above covers --method interval through rank 4; here every rank-5
    # (h, w) prints the direct witness's set, sorted and encoded
    for h in enumerate_hessenberg(5):
        hs = ",".join(map(str, h))
        for w in itertools.permutations(range(1, 6)):
            code, out, _ = run_cli(
                ["fixed-points", "--h", hs, "--w", ",".join(map(str, w)), "--method", "interval"],
                capsys,
            )
            assert code == 0
            assert out == json.dumps(sorted(fixed_points_by_translation(w, h))) + "\n"


# SHA-256 of `fixed-points --h 8,8,8,8,8,8,8,8 --w 1,2,3,4,5,6,7,8 --method both`:
# all 40,320 permutations, listed under both keys.
OUTPUT_DIGEST_RANK_8_BOTH = "083e292e7dd3d4f8c308781a69f390a76e5ba2fc786c3bba7d44e6f2a0ae7cdc"


def _forbid_in_package(monkeypatch, names, message):
    """Make every loaded hesscomb module's binding of each name fail the test."""
    def forbidden(*args):
        raise AssertionError(message)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hesscomb":
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)


def test_rank_eight_agreement_lists_once(capsys, monkeypatch, no_enumeration):
    # equal families decide the agreement: the interval listing is never grown
    _forbid_in_package(monkeypatch, ["bruhat_interval"], "the interval listing was grown")
    listed = []

    def counted(allowed):
        listed.append(allowed)
        return prefix_listing_json(allowed)

    monkeypatch.setattr("hesscomb.cli.prefix_listing_json", counted)
    code, out, _ = run_cli(
        ["fixed-points", "--h", ",".join(["8"] * 8), "--w", "1,2,3,4,5,6,7,8",
         "--method", "both"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGEST_RANK_8_BOTH
    assert len(listed) == 1


# SHA-256 of `fixed-points --h 8,8,8,8,8,8,8,8 --w 1,2,3,4,5,6,7,8 --method interval`:
# all 40,320 permutations, as printed when the interval set was sorted and encoded.
OUTPUT_DIGEST_RANK_8_INTERVAL = "70add85ebe7dc9368e8e809379973516ebcc1b69cce164b78604570c59f7b269"


def test_rank_eight_interval_listing_grows_from_its_family(capsys, monkeypatch, no_enumeration):
    # the interval route prints its family's text, through no interval set
    _forbid_in_package(monkeypatch, ["bruhat_interval", "fixed_points_by_translation"],
                       "the interval set was built")
    code, out, _ = run_cli(
        ["fixed-points", "--h", ",".join(["8"] * 8), "--w", "1,2,3,4,5,6,7,8",
         "--method", "interval"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGEST_RANK_8_INTERVAL


# SHA-256 of `fixed-points --h 4,5,6,7,7,7,7 --w 3,1,4,7,5,2,6 --method chl` (816 members),
# as printed when the listing was still grown as tuples and encoded by json.dumps.
OUTPUT_DIGEST_RANK_7_CHL = "4dc2880903cfd7722fd13a7808bc261231c626af5e77e20a28231f4a19db2b53"


def test_agreeing_path_grows_no_tuple_listing(capsys, monkeypatch):
    # --method chl and an agreeing --method both print the listing grown as text
    _forbid_in_package(monkeypatch, ["prefix_listing"], "a tuple listing was grown")
    code, out, _ = run_cli(
        ["fixed-points", "--h", ",".join(["8"] * 8), "--w", "1,2,3,4,5,6,7,8",
         "--method", "both"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGEST_RANK_8_BOTH
    code, out, _ = run_cli(
        ["fixed-points", "--h", "4,5,6,7,7,7,7", "--w", "3,1,4,7,5,2,6", "--method", "chl"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGEST_RANK_7_CHL


def _unit_cache_sizes() -> dict:
    return {cache.__name__: cache.cache_info().currsize for cache in verify.UNIT_CACHES}


def test_a_long_run_of_distinct_queries_keeps_no_class(capsys):
    # a command is a unit of work, so each one empties the per-h caches when
    # it ends, and a caller running many commands keeps none of their classes
    rng = random.Random(30)
    hs = [",".join(map(str, h)) for h in enumerate_hessenberg(7)]
    queries = {}
    while len(queries) < 2000:
        queries[rng.choice(hs), ",".join(map(str, rng.sample(range(1, 8), 7)))] = None
    for h, w in queries:
        assert main(["fixed-points", "--h", h, "--w", w, "--method", "both"]) == 0
        capsys.readouterr()
    assert main(["weyl-subsets", "--h", "3,4,5,6,7,7,7"]) == 0
    assert _unit_cache_sizes() == dict.fromkeys(_unit_cache_sizes(), 0)


@pytest.mark.parametrize("argv", [
    ["fixed-points", "--h", "3,2,4,4", "--w", "2,3,1,4"],  # refused while parsing
    ["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1"],  # refused by the command
])
def test_a_usage_error_ends_the_unit_too(argv, capsys):
    assert reachability_family((2, 3, 1, 4), (3, 4, 4, 4))  # a library caller fills them
    assert any(_unit_cache_sizes().values())
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "error:" in err
    assert _unit_cache_sizes() == dict.fromkeys(_unit_cache_sizes(), 0)


class TestOutputPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run_cli(
            ["graph", "--h", "2,4,4,4", "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(["graph", "--h", "2,4,4,4"], capsys)
        assert target.read_text(encoding="utf-8") == direct

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "graph.json"
        code, out, err = run_cli(
            ["graph", "--h", "2,4,4,4", "--output", str(target)], capsys
        )
        assert code == 2
        assert out == ""
        assert "cannot write --output" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_unwritable_stdout_is_usage_error(self, capsys, monkeypatch, failing):
        class FullStdout(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code, _, err = run_cli(["weyl-subsets", "--h", "2,2"], capsys)
        assert code == 2
        assert "cannot write stdout: No space left on device" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device_exits_two(self, unbuffered):
        # the status of the whole process: Python flushes stdout again at
        # exit, and a failure there would turn the status into 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "hesscomb", "weyl-subsets", "--h", "2,2"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 2
        assert "cannot write stdout: No space left on device" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exits_two(self, unbuffered):
        # the 116 kB listing outgrows a 64 KiB pipe, so the reader closes it while
        # the writer still has bytes to send; unbuffered, the first write is short
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hesscomb", "fixed-points", "--h", "7,7,7,7,7,7,7",
             "--w", "1,2,3,4,5,6,7", "--method", "chl"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(10) == b"[[1, 2, 3,"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert "cannot write stdout: Broken pipe" in err
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(["weyl-subsets", "--h", "3,4,4,4"], capsys)
        _, second, _ = run_cli(["weyl-subsets", "--h", "3,4,4,4"], capsys)
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hesscomb", "graph", "--h", "2,4,4,4",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["edges"] == [[1, 2], [2, 3], [2, 4], [3, 4]]

    def test_byte_identical_across_processes(self):
        # fresh interpreters get fresh hash seeds; output must not care
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hesscomb", "weyl-subsets", "--h", "3,4,4,4"],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
