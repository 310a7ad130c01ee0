"""Tests for the command-line surface: exit codes, JSON-lines records,
and the round-trip property (records re-verify from their own data)."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import parafree.cli as cli
from parafree.cli import main
from parafree.exact import ExpWord, eval_word, parse_rational
from parafree.freeness import SearchEffort
from parafree.halfrel import build_relation, defect
from parafree.search import DEFAULT_RESULT_LIMIT, SearchReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


def word_of(payload):
    return ExpWord(payload["start"], tuple(payload["exponents"]))


def reverify_witness(payload):
    tau = parse_rational(payload["word_tau"])
    return eval_word(word_of(payload["lhs"]), tau) == \
        eval_word(word_of(payload["rhs"]), tau)


# --- verify ------------------------------------------------------------

def test_verify_half_relation(capsys):
    code, recs = run(capsys, "verify", "--tau", "9/4", "--seq", "1,-1,1,14,2")
    assert code == 0
    (rec,) = recs
    assert rec["verified"] is True
    assert rec["result"]["is_half_relation"] is True
    assert rec["result"]["defect"] == "0"
    witness = rec["result"]["witness"]
    assert witness["kind"] == "group_nontrivial"
    assert witness["tau"] == witness["word_tau"] == "9/4"
    assert witness["verified"] is True
    lhs, rhs = word_of(witness["lhs"]), word_of(witness["rhs"])
    tau = Fraction(9, 4)
    assert eval_word(lhs, tau) == eval_word(rhs, tau)
    # half-relations that induce no relation: tau = 0, and a zero entry
    for tau, seq in (("0", "1,2"), ("7/5", "1,0,-1,5")):
        code, recs = run(capsys, "verify", "--tau", tau, "--seq", seq)
        assert code == 0
        (rec,) = recs
        assert rec["result"]["is_half_relation"] is True
        assert not {"witness", "lhs", "rhs", "matrix"} & set(rec["result"])


def test_verify_prints_the_witness_record(capsys):
    # the witness record that family and classify print, equal to
    # `_witness_json` of build_relation's witness, and no record-level kind
    code, recs = run(capsys, "verify", "--tau", "9/4", "--seq", "1,-1,1,14,2")
    result = recs[0]["result"]
    assert set(result) == {"defect", "is_half_relation", "witness", "matrix"}
    assert result["witness"] == cli._witness_json(build_relation((1, -1, 1, 14, 2), Fraction(9, 4)))


def test_verify_states_no_kind_its_words_do_not_prove(capsys):
    # (1, -1, 1, -1, 2) alternates, so its sign class is a semigroup
    # relation at -3, but the printed words prove a group relation at 3
    code, recs = run(capsys, "verify", "--tau", "3", "--seq", "1,-1,1,-1,2")
    assert code == 0 and recs[0]["verified"] is True
    result = recs[0]["result"]
    assert "kind" not in result
    assert result["witness"]["kind"] == "group_nontrivial"
    assert result["witness"]["word_tau"] == "3"
    assert reverify_witness(result["witness"])


def test_verify_prints_the_lhs_matrix(capsys):
    # the one place a Mat2 reaches stdout: M(lhs) at tau, row by row
    code, recs = run(capsys, "verify", "--tau", "9/4", "--seq", "1,-1,1,14,2")
    assert code == 0
    assert recs[0]["result"]["matrix"] == [["-73/8", "-37/2"], ["-333/8", "-169/2"]]


def test_verify_non_half_relation(capsys):
    code, recs = run(capsys, "verify", "--tau", "2", "--seq", "1,1,1")
    assert code == 1
    (rec,) = recs
    assert rec["verified"] is False
    assert rec["result"]["defect"] == "6"
    assert not {"witness", "lhs", "rhs", "matrix"} & set(rec["result"])


def test_verify_malformed_inputs(capsys):
    assert main(["verify", "--tau", "1/0", "--seq", "1"]) == 2
    assert main(["verify", "--tau", "2", "--seq", "1,a"]) == 2


def test_malformed_sequences_and_k_ranges_exit_two(capsys):
    # an empty sequence is a malformed one; a k range needs '..' and two
    # integers
    for argv, message in (
        (["verify", "--tau", "1", "--seq="], "error: malformed integer sequence"),
        (["verify", "--tau", "1", "--seq", "1,,2"], "error: malformed integer sequence"),
        (["poly", "--seq="], "error: malformed integer sequence"),
        (["family", "--name", "b", "--sigma=", "--k", "1"], "error: malformed integer sequence"),
        (["family", "--name", "d", "--k-range", "5"], "error: malformed k range"),
        (["family", "--name", "d", "--k-range", "a..b"], "error: malformed k range"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message), argv


def test_verify_negative_values(capsys):
    code, recs = run(capsys, "verify", "--tau", "1", "--seq", "-1,-1,1,-1,-1,1")
    assert code == 0
    assert recs[0]["inputs"]["seq"] == [-1, -1, 1, -1, -1, 1]
    assert recs[0]["result"]["is_half_relation"] is True
    code, recs = run(capsys, "verify", "--tau", "-9/4", "--seq", "1,-1,-2,12")
    assert code == 1
    assert recs[0]["inputs"] == {"tau": "-9/4", "seq": [1, -1, -2, 12]}


def test_verify_round_trip(capsys):
    code, recs = run(capsys, "verify", "--tau", "16/25", "--seq", "1,3,50,1")
    (rec,) = recs
    tau = parse_rational(rec["inputs"]["tau"])
    assert defect(tuple(rec["inputs"]["seq"]), tau) == 0
    witness = rec["result"]["witness"]
    assert parse_rational(witness["word_tau"]) == tau
    assert eval_word(word_of(witness["lhs"]), tau) == \
        eval_word(word_of(witness["rhs"]), tau)


# --- family ------------------------------------------------------------

def test_family_d_ladder(capsys):
    code, recs = run(capsys, "family", "--name", "d", "--k-range", "2..7")
    assert code == 0
    assert [r["result"]["tau"] for r in recs] == \
        ["3", "5/2", "8/3", "13/5", "21/8", "34/13"]
    for rec in recs:
        assert rec["verified"] is True
        assert reverify_witness(rec["result"]["witness"])


def test_family_b_n_column(capsys):
    code, recs = run(capsys, "family", "--name", "b", "--sigma", "2,3",
                     "--k-range=-3..3")
    assert code == 0
    # k = 0 (n = 1) is skipped inside a range sweep
    assert [r["result"]["n"] for r in recs] == [1105, 51, 3, 5, 95, 2071]


def test_family_excluded_k_is_an_error_when_explicit(capsys):
    assert main(["family", "--name", "d", "--k", "-2"]) == 2
    assert main(["family", "--name", "d", "--k", "0"]) == 2
    assert main(["family", "--name", "b", "--sigma", "2,3", "--k", "0"]) == 2


def test_family_c_variants(capsys):
    code, recs = run(capsys, "family", "--name", "c", "--variant", "even",
                     "--k", "2")
    assert code == 0
    assert recs[0]["result"]["tau"] == "5/2"
    assert main(["family", "--name", "c", "--variant", "even", "--k", "3"]) == 2


def test_family_exceptional_record(capsys):
    code, recs = run(capsys, "family", "--name", "a", "--k=-1")
    assert code == 0
    assert recs[0]["result"]["exceptional"] is True
    assert recs[0]["result"]["candidate"] == [1, -1, 1, 14, 2]


def test_family_bad_sigma(capsys):
    assert main(["family", "--name", "b", "--sigma", "1", "--k", "1"]) == 2
    assert main(["family", "--name", "b", "--sigma", "4,1", "--k", "1"]) == 2
    assert main(["family", "--name", "b", "--sigma", "-1,2", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_family_bad_sigma_in_range(capsys):
    # a bad or missing sigma is an input error before any k is tried, not
    # a reason to skip every k of the sweep
    for argv in (["--sigma", "4,1"], ["--sigma", "1,1"], []):
        code, recs = run(capsys, "family", "--name", "b", *argv, "--k-range", "1..3")
        assert code == 2 and recs == []
    assert main(["family", "--name", "b", "--sigma", "4,1", "--k-range", "1..3"]) == 2
    assert "error: sigma must be" in capsys.readouterr().err


def test_family_reversed_k_range_is_an_error(capsys):
    # lo > hi would sweep no k and exit 1 without a word
    code, recs = run(capsys, "family", "--name", "c", "--variant", "quad", "--k-range", "5..1")
    assert code == 2 and recs == []
    assert main(["family", "--name", "c", "--variant", "quad", "--k-range", "5..1"]) == 2
    assert "error: empty k range" in capsys.readouterr().err
    # a one-k range is not reversed
    code, recs = run(capsys, "family", "--name", "d", "--k-range", "3..3")
    assert code == 0 and [r["inputs"]["k"] for r in recs] == [3]


def test_family_negative_k_range(capsys):
    code, recs = run(capsys, "family", "--name", "d", "--k-range", "-3..-1")
    assert code == 0
    # k = -2 (tau = 0) is skipped inside a range sweep
    assert [r["inputs"]["k"] for r in recs] == [-3, -1]


def test_family_zero_x_is_an_error(capsys):
    # x = 0 would put a zero entry in the candidate: an input error before
    # any k, not a skipped k or a traceback
    for name in ("e", "c"):
        for ks in (["--k", "2"], ["--k-range", "1..3"]):
            code, recs = run(capsys, "family", "--name", name, *ks, "--x", "0")
            assert code == 2 and recs == []
            assert main(["family", "--name", name, *ks, "--x", "0"]) == 2
            assert "error: family " in capsys.readouterr().err


def test_family_rejects_options_it_does_not_use(capsys):
    # each was accepted and dropped (exit 0) before
    for argv in (
        ["--name", "a", "--k", "2", "--x", "5", "--sigma", "1,2", "--variant", "quad"],
        ["--name", "a", "--k", "2", "--sigma", "1,2"],
        ["--name", "d", "--k-range", "1..3", "--sigma", "2,3"],
        ["--name", "c", "--k", "3", "--sigma", "1,2"],
        ["--name", "a", "--k", "2", "--variant", "quad"],
        ["--name", "e", "--k-range", "1..3", "--variant", "general"],
        ["--name", "a", "--k", "2", "--x", "5"],
        ["--name", "b", "--sigma", "2,3", "--k", "1", "--x", "5"],
        ["--name", "c", "--variant", "even", "--k", "2", "--x", "5"],
        ["--name", "c", "--variant", "quad", "--k-range", "1..9", "--x", "5"],
        ["--name", "d", "--k", "2", "--k-range", "1..3"],
    ):
        code, recs = run(capsys, "family", *argv)
        assert code == 2 and recs == [], argv
        assert main(["family", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    # the options each family does use still work
    for argv in (["--name", "c", "--variant", "general", "--k", "3", "--x", "5"],
                 ["--name", "e", "--k", "2", "--x", "5"],
                 ["--name", "b", "--sigma", "2,3", "--k", "1"]):
        code, recs = run(capsys, "family", *argv)
        assert code == 0 and len(recs) == 1


def test_family_witness_kind_is_what_it_proves(capsys):
    # C_general k = 3 alternates: its sign class is a semigroup relation at
    # -7/3, but its symmetric words prove a group relation at 7/3; D k = 1's
    # candidate has a zero entry (sign class trivial), but its relator words
    # prove a nontrivial group relation at 2.  The record states only the
    # witness's kind
    for argv, tau in ((["--name", "c", "--k", "3"], "7/3"), (["--name", "d", "--k", "1"], "2")):
        code, recs = run(capsys, "family", *argv)
        assert code == 0 and recs[0]["verified"] is True
        result = recs[0]["result"]
        assert "kind" not in result
        assert result["witness"]["kind"] == "group_nontrivial"
        assert result["witness"]["word_tau"] == tau
        assert result["witness"]["verified"] is True
    code, recs = run(capsys, "classify", "--tau", "7/3")
    assert recs[0]["result"]["group_witness"]["kind"] == "group_nontrivial"


family_argv = st.tuples(
    st.sampled_from("abcde"),
    st.one_of(st.none(), st.sampled_from(["general", "even", "quad"])),
    st.one_of(
        st.none(),
        st.integers(-8, 8).map(lambda k: ["--k", str(k)]),
        st.tuples(st.integers(-6, 6), st.integers(-1, 4)).map(
            lambda r: ["--k-range", f"{r[0]}..{r[0] + r[1]}"]),
    ),
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.sampled_from(
        ["1,2", "2,3", "3,1", "2,1", "1,1", "4,1", "-1,2", "1", "1,2,3", "a", ""])),
)


@settings(max_examples=200, deadline=None)
@given(family_argv)
def test_family_never_raises(args):
    name, variant, ks, x, sigma = args
    argv = ["family", "--name", name]
    if variant is not None:
        argv += ["--variant", variant]
    argv += ks or []
    if x is not None:
        argv += ["--x", str(x)]
    if sigma is not None:
        argv += ["--sigma", sigma]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert all(r["verified"] is True for r in records)
    assert (code == 0) == bool(records)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# --- search ------------------------------------------------------------

def test_search_records_and_summary(capsys):
    code, recs = run(capsys, "search", "--tau", "9/4", "--max-len", "5",
                     "--bound", "14")
    assert code == 0
    hits = [tuple(r["result"]["hit"]) for r in recs if "hit" in r["result"]]
    assert (1, -1, 1, 14, 2) in hits
    assert all(r["verified"] is True for r in recs if "hit" in r["result"])
    summary = recs[-1]["result"]
    assert summary["hit_count"] == len(hits)
    assert summary["exhausted"] is True


def test_search_no_hits_exit_one(capsys):
    code, recs = run(capsys, "search", "--tau", "5", "--max-len", "4",
                     "--bound", "6")
    assert code == 1
    assert recs[-1]["result"]["hit_count"] == 0


def test_search_summary_verified_means_rechecked(capsys, monkeypatch):
    code, recs = run(capsys, "search", "--tau", "2", "--max-len", "2",
                     "--bound", "1")
    assert code == 1 and recs[-1]["result"]["hit_count"] == 0
    assert recs[-1]["verified"] is False
    code, recs = run(capsys, "search", "--tau", "2", "--max-len", "3",
                     "--bound", "2")
    assert code == 0 and recs[-1]["result"]["hit_count"] == len(recs) - 1 > 0
    assert recs[-1]["verified"] is True
    # one forged hit among true ones makes the summary unverified
    import parafree.cli as cli
    real = cli.search_half_relations
    monkeypatch.setattr(cli, "search_half_relations", lambda query, workers: SearchReport(
        query, real(query, workers).hits + ((1, 1),), True))
    code, recs = run(capsys, "search", "--tau", "2", "--max-len", "3",
                     "--bound", "2")
    assert [r["verified"] for r in recs[-2:]] == [False, False]
    assert all(r["verified"] for r in recs[:-2])


def test_search_worker_determinism(capsys):
    outs = []
    for w in ("1", "2", "8"):
        code, recs = run(capsys, "search", "--tau", "2", "--max-len", "3",
                         "--bound", "2", "--workers", w)
        outs.append([r["result"].get("hit") for r in recs[:-1]])
    assert outs[0] == outs[1] == outs[2]


def test_search_invalid_query(capsys):
    assert main(["search", "--tau", "2", "--max-len", "0"]) == 2
    assert main(["search", "--tau", "2", "--max-len", "13"]) == 2
    assert main(["search", "--tau", "x"]) == 2
    assert main(["search", "--tau", "2", "--workers", "-3"]) == 2
    assert main(["search", "--tau", "2", "--workers", "0"]) == 2
    assert "error: workers must be >= 1" in capsys.readouterr().err
    # the query checks tau and max_len first, then the effort with workers,
    # also where no length is walked (|tau| >= 4)
    for argv, message in (
            (["--tau", "9/2", "--workers", "0"], "workers must be >= 1"),
            (["--tau", "0", "--workers", "0"],
             "tau must be nonzero (every tuple is a half-relation at 0)"),
            (["--tau", "1/4", "--max-len", "13", "--workers", "0"], "max_len must be in [1, 12]")):
        assert main(["search", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_search_tau_zero_is_an_error(capsys):
    assert main(["search", "--tau", "0", "--max-len", "4", "--bound", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tau must be nonzero")


def test_search_and_classify_default_to_the_library_effort():
    parser, library = cli.build_parser(), SearchEffort()
    for command in ("search", "classify"):
        args = parser.parse_args([command, "--tau=1/2"])
        assert (args.max_len, args.bound, args.workers) == \
            (library.max_len, library.bound, library.workers)
    assert parser.parse_args(["search", "--tau=1/2"]).limit == DEFAULT_RESULT_LIMIT


# --- classify ----------------------------------------------------------

def test_classify_family_value(capsys):
    code, recs = run(capsys, "classify", "--tau", "17/5")
    assert code == 0
    res = recs[0]["result"]
    assert res["group_status"] == "non_free"
    assert reverify_witness(res["group_witness"])
    assert res["semigroup_status"] == "free_schottky"


def test_classify_schottky(capsys):
    code, recs = run(capsys, "classify", "--tau", "-4")
    assert code == 0
    res = recs[0]["result"]
    assert res["group_status"] == "free_schottky"
    assert res["group_witness"] is None


def test_classify_semigroup_witness(capsys):
    code, recs = run(capsys, "classify", "--tau", "64/81")
    res = recs[0]["result"]
    assert res["semigroup_status"] == "non_semigroup_free"
    w = res["semigroup_witness"]
    assert all(a > 0 for a in w["lhs"]["exponents"])
    assert reverify_witness(w)


def test_classify_verified_means_rechecked(capsys, monkeypatch):
    code, recs = run(capsys, "classify", "--tau", "2/3")
    assert code == 0 and recs[0]["verified"] is True
    # a printed witness whose re-check fails is not reported as verified:
    # the builders prove every witness, so the printed ones are forged
    real = cli.classify_tau

    def forge(w):
        if w is None:
            return None
        *rest, last = w.rhs.exponents
        return dataclasses.replace(w, rhs=ExpWord(w.rhs.start, (*rest, last + 1)))

    def forged(tau, effort):
        cls = real(tau, effort)
        return dataclasses.replace(cls, group_witness=forge(cls.group_witness),
                                   semigroup_witness=forge(cls.semigroup_witness))

    monkeypatch.setattr(cli, "classify_tau", forged)
    code, recs = run(capsys, "classify", "--tau", "2/3")
    assert code == 0
    assert recs[0]["result"]["group_witness"]["verified"] is False
    assert recs[0]["verified"] is False
    # no witness printed: nothing was re-checked
    code, recs = run(capsys, "classify", "--tau", "-4")
    assert code == 0 and recs[0]["verified"] is False


def test_classify_malformed(capsys):
    assert main(["classify", "--tau", "7/"]) == 2
    # bad effort is rejected even where no search would run (|tau| >= 4)
    for tau in ("7/13", "9/2"):
        assert main(["classify", "--tau", tau, "--max-len", "0"]) == 2
        assert main(["classify", "--tau", tau, "--max-len", "13"]) == 2
        assert main(["classify", "--tau", tau, "--bound", "0"]) == 2
        assert main(["classify", "--tau", tau, "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(line.startswith("error:") for line in err.splitlines())


def test_classify_negative_tau(capsys):
    code, recs = run(capsys, "classify", "--tau", "-5/2")
    assert code == 0
    assert recs[0]["inputs"]["tau"] == "-5/2"
    assert recs[0]["result"]["group_status"] == "non_free"
    assert reverify_witness(recs[0]["result"]["group_witness"])


# --- poly --------------------------------------------------------------

def test_poly_rendering(capsys):
    code, recs = run(capsys, "poly", "--seq", "1,-1,1,-1,7")
    assert code == 0
    assert recs[0]["result"]["rendering"] == "7*tau^2 - 23*tau + 11"
    assert recs[0]["result"]["coefficients"] == [11, -23, 7]


def test_poly_constant(capsys):
    code, recs = run(capsys, "poly", "--seq", "5")
    assert code == 0
    assert recs[0]["result"]["rendering"] == "5"


def test_poly_verified_is_a_recheck(capsys, monkeypatch):
    for seq in ("1,-1,1,-1,7", "5", "2,3", "1,6,27,1", "3,-2,0,4,-1,2"):
        code, recs = run(capsys, "poly", "--seq", seq)
        assert code == 0 and recs[0]["verified"] is True
    # a wrong polynomial must not be reported as verified
    import parafree.cli as cli
    real = cli.poly_hr
    monkeypatch.setattr(cli, "poly_hr", lambda seq: real(seq) + 1)
    code, recs = run(capsys, "poly", "--seq", "1,-1,1,-1,7")
    assert recs[0]["verified"] is False


def test_poly_malformed(capsys):
    assert main(["poly", "--seq", "a?"]) == 2


# --- table mode --------------------------------------------------------

def test_table_mode_renders_columns(capsys):
    code = main(["family", "--name", "d", "--k-range", "2..4", "--table"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("command")
    assert "result.tau" in lines[0]
    assert len(lines) == 4  # header + three rows


def test_json_lines_are_standalone(capsys):
    code, recs = run(capsys, "family", "--name", "e", "--k-range", "1..4")
    assert code == 0
    assert len(recs) == 4
    for rec in recs:
        assert set(rec) == {"command", "inputs", "result", "verified"}
    # every command's records are the one envelope, on success and on no
    # result alike
    for argv in (
        ["verify", "--tau", "9/4", "--seq", "1,-1,1,14,2"],
        ["verify", "--tau", "2", "--seq", "1,1,1"],
        ["family", "--name", "b", "--sigma", "2,3", "--k-range", "1..2"],
        ["search", "--tau", "2", "--max-len", "3", "--bound", "2"],
        ["search", "--tau", "5", "--max-len", "4", "--bound", "6"],
        ["classify", "--tau", "64/81"],
        ["classify", "--tau", "-4"],
        ["poly", "--seq", "1,-1,1,-1,7"],
    ):
        code, recs = run(capsys, *argv)
        assert code in (0, 1) and recs, argv
        for rec in recs:
            assert set(rec) == {"command", "inputs", "result", "verified"}, argv
            assert rec["command"] == argv[0]


def test_every_printed_witness_is_the_one_witness_record(capsys):
    # verify's, family's and classify's witnesses have the keys of the one
    # record `_witness_json` builds
    keys = set(cli._witness_json(build_relation((1, -1, 1, 14, 2), Fraction(9, 4))))
    code, recs = run(capsys, "verify", "--tau", "16/25", "--seq", "1,3,50,1")
    witnesses = [recs[0]["result"]["witness"]]
    code, recs = run(capsys, "family", "--name", "a", "--k-range", "-1..1")
    witnesses += [r["result"]["witness"] for r in recs]
    for tau in ("64/81", "17/5", "-5/2"):
        code, recs = run(capsys, "classify", "--tau", tau)
        result = recs[0]["result"]
        witnesses += [w for w in (result["group_witness"], result["semigroup_witness"]) if w]
    assert len(witnesses) >= 7
    for w in witnesses:
        assert set(w) == keys
        assert w["verified"] is True and reverify_witness(w)


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the search writes about 574 KB; the reader takes one line and closes
    # the pipe, so a later write raises BrokenPipeError
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "parafree.cli", "search", "--tau", "1/4", "--max-len", "5",
         "--bound", "8", "--limit", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(proc.stdout.readline())["command"] == "search"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in stderr, stderr
