"""Command-line interface: output formats, exit codes, error handling."""

import json
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from sigmagroups import cli, harness
from sigmagroups.cli import main
from sigmagroups.corpus import builtin_entry, parse_corpus_file
from sigmagroups.errors import InvariantError
from sigmagroups.harness import (STATEMENTS, CampaignConfig, report_from_rows, run_campaign,
                                 verify_group)
from sigmagroups.permcore import clear_intern_cache

MINI_CORPUS = """\
group S3-copy deg 3
gen (1 2 3)
gen (1 2)
order 6
tags demo
"""


@pytest.fixture()
def mini_corpus(tmp_path):
    path = tmp_path / "mini.corpus"
    path.write_text(MINI_CORPUS)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify

def test_classify_human(capsys):
    code, out, err = run(capsys, "classify", "--group", "S3")
    assert code == 0 and err == ""
    assert "group S3 (order 6, degree 3)" in out
    assert "sigma sigma1" in out
    assert "sigma-soluble: yes" in out
    assert "sigma-nilpotent: no" in out
    assert "PsigmaT: yes" in out
    assert "complete Hall sigma-set: yes (orders 2, 3)" in out
    assert "sigma-nilpotent residual order: 3" in out


def test_classify_trivial_group_prints_empty_markers(capsys):
    code, out, _ = run(capsys, "classify", "--group", "C1")
    assert code == 0
    assert "sigma(G): -" in out
    assert "complete Hall sigma-set: yes (orders empty)" in out


def test_classify_reports_missing_hall_set(capsys):
    code, out, _ = run(capsys, "classify", "--group", "A5",
                       "--sigma", "[2,5][3]")
    assert code == 0
    assert "complete Hall sigma-set: none" in out
    assert "sigma-soluble: no" in out
    assert "sigma-nilpotent residual order: 60" in out


def test_classify_machine(capsys):
    code, out, _ = run(capsys, "classify", "--group", "S3",
                       "--format", "machine")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"complete_hall_set": [2, 3], "group": "S3",
                     "psigma_t": True, "residual_order": 3, "sigma": "sigma1",
                     "sigma_of": ["2", "3"], "sigma_primary": False,
                     "sigma_nilpotent": False, "sigma_soluble": True}]


def test_classify_degrades_gracefully_under_tight_limits():
    # Subprocess: in-process tests may have cached S4's lattice already,
    # which would legitimately satisfy the query within any bound.
    proc = subprocess.run(
        [sys.executable, "-m", "sigmagroups.cli", "classify",
         "--group", "S4", "--subgroup-bound", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PsigmaT: skipped: subgroup enumeration exceeds" in proc.stdout
    # predicates that avoid subgroup enumeration still report normally
    assert "sigma-soluble: yes" in proc.stdout
    assert "sigma-nilpotent residual order: 12" in proc.stdout


def test_classify_answers_lattice_free_fields_under_tight_limits(capsys):
    # a sigma-nilpotent group whose Hall subgroups are generated by the
    # elements of each block: no field needs the subgroup lattice
    clear_intern_cache()  # a lattice cached by an earlier test would hide a lattice read
    code, out, _ = run(capsys, "classify", "--group", "C5xA4", "--sigma", "[2,3][5]",
                       "--subgroup-bound", "2")
    assert code == 0
    assert "skipped" not in out
    assert "PsigmaT: yes" in out
    assert "complete Hall sigma-set: yes (orders 12, 5)" in out
    assert "sigma-nilpotent residual order: 1" in out


CAPS = ["--subgroup-bound", "--table-order-bound"]


@pytest.mark.parametrize("knob", CAPS)
def test_cap_below_one_is_usage_error(capsys, knob):
    for value in ("0", "-3"):
        code, out, err = run(capsys, "classify", "--group", "S4", knob, value)
        assert (code, out) == (2, "")
        assert err.strip() == f"usage error: {knob} must be at least 1, got {value}"


@pytest.mark.parametrize("command", [("classify", "--group", "S4"), ("campaign",)])
def test_table_order_bound_above_16_bits_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--table-order-bound", "65537")
    assert (code, out) == (2, "")
    assert err.strip() == ("usage error: table order bound 65537 is above 65536, "
                           "the largest group order whose table indices fit 16 bits")


def test_hall_set_cap_is_not_a_cli_flag(capsys):
    # no command enumerates complete Hall sigma-sets, so there is no cap
    # for them to take; nor is there a bound on listing elements besides
    # the table bound, the one bound on a group's order
    for flag in ("--hall-set-cap", "--element-cache-bound"):
        for argv in (("classify", "--group", "S4"),
                     ("verify", "--group", "S4", "--statement", "ThmA.i")):
            code, out, err = run(capsys, *argv, flag, "1")
            assert (code, out) == (2, "")
            assert f"unrecognized arguments: {flag} 1" in err


@pytest.mark.parametrize("knob", CAPS)
def test_every_cli_cap_takes_effect(capsys, knob):
    """At 1, each cap changes what classify prints or how it exits, even
    after a default run has cached the group's lattices and verdicts."""
    default = run(capsys, "classify", "--group", "S4", "--format", "machine")
    assert default[0] == 0
    capped = run(capsys, "classify", "--group", "S4", "--format", "machine", knob, "1")
    assert capped[:2] != default[:2]


def test_element_cache_bound_trips(capsys, mini_corpus):
    """The table bound is the bound on listing a group's elements: a group
    over it is refused before it is listed, by classify and by a campaign."""
    code, out, err = run(capsys, "classify", "--group", "S5",
                         "--table-order-bound", "10")
    assert (code, out) == (3, "")
    assert err.strip() == \
        "capacity abort: group order 120 exceeds multiplication-table bound 10"
    code, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                       "--no-timestamp", "--table-order-bound", "5")
    assert code == 3
    assert "confirmed: 0   counterexamples: 0   skipped: 32" in out


C504_CORPUS = """\
group C7xC8xC9 deg 24
gen (1 2 3 4 5 6 7)
gen (8 9 10 11 12 13 14 15)
gen (16 17 18 19 20 21 22 23 24)
order 504
"""


def test_table_order_bound_trips(capsys, tmp_path):
    path = tmp_path / "c504.corpus"
    path.write_text(C504_CORPUS)
    code, out, err = run(capsys, "classify", "--group", "C7xC8xC9",
                         "--corpus-file", str(path), "--table-order-bound", "100")
    assert (code, out) == (3, "")
    assert err.strip() == \
        "capacity abort: group order 504 exceeds multiplication-table bound 100"
    code, out, _ = run(capsys, "campaign", "--corpus", str(path),
                       "--no-timestamp", "--table-order-bound", "100")
    assert code == 3
    assert "confirmed: 0   counterexamples: 0" in out


# ---------------------------------------------------------------------------
# residual / permutable

def test_residual_human(capsys):
    code, out, _ = run(capsys, "residual", "--group", "SL(2,3)")
    assert code == 0
    assert out.startswith(
        "sigma-nilpotent residual of SL(2,3) under sigma1: order 8, generators ")


def test_permutable_verdicts(capsys):
    code, out, _ = run(capsys, "permutable", "--group", "S3",
                       "--gen", "(1 2)")
    assert code == 0
    assert out.strip() == \
        "subgroup of order 2 is not sigma-permutable in S3 under sigma1"
    code, out, _ = run(capsys, "permutable", "--group", "S3",
                       "--gen", "(1 2 3)")
    assert code == 0
    assert out.strip() == \
        "subgroup of order 3 is sigma-permutable in S3 under sigma1"


def test_permutable_rejects_generator_outside_group(capsys):
    code, _, err = run(capsys, "permutable", "--group", "A4",
                       "--gen", "(1 2)")
    assert code == 2
    assert err.strip() == "usage error: generator (1 2) is not in the ambient group"


def test_permutable_capacity_abort_exits_3(capsys, fresh_cap_group):
    name, path = fresh_cap_group
    code, out, err = run(capsys, "permutable", "--group", name,
                         "--corpus-file", path,
                         "--gen", "(2 12)(3 11)(4 10)(5 9)(6 8)",
                         "--subgroup-bound", "2")
    assert code == 3
    assert "capacity abort: subgroup enumeration exceeds" in err


def test_normal_lattice_over_the_subgroup_bound_is_a_capacity_skip(capsys, tmp_path):
    """C2^6 has 2825 normal subgroups, over the default subgroup bound, so
    Lem2.4 cannot list them and its row is skipped with exit 3."""
    path = tmp_path / "c2-6.corpus"
    path.write_text("group C2^6 deg 12\n"
                    + "".join(f"gen ({2 * i + 1} {2 * i + 2})\n" for i in range(6))
                    + "order 64\n")
    code, out, _ = run(capsys, "verify", "--group", "C2^6", "--corpus-file", str(path),
                       "--statement", "Lem2.4", "--sigma", "[2]")
    assert code == 3
    assert out.split("—")[0].split() == ["Lem2.4", "C2^6", "[2]", "skipped"]
    assert "capacity: subgroup enumeration exceeds subgroup-enumeration bound 2000" in out


@pytest.fixture()
def fresh_cap_group(tmp_path):
    """A group no other test interns, so no cached lattice can satisfy it."""
    path = tmp_path / "cap.corpus"
    path.write_text("group CAP-D12 deg 12\ngen (1 2 3 4 5 6 7 8 9 10 11 12)\n"
                    "gen (2 12)(3 11)(4 10)(5 9)(6 8)\norder 24\n")
    return "CAP-D12", str(path)


# ---------------------------------------------------------------------------
# verify

def test_verify_single_statement(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A4",
                       "--statement", "ThmA.ii")
    assert code == 0
    assert out.split() == ["ThmA.ii", "A4", "sigma1", "confirmed"]


def test_verify_marks_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--group", "C6",
                       "--statement", "ThmA.iii")
    assert code == 0
    assert "confirmed (vacuous)" in out


def test_verify_skip_on_unmet_premise_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "--group", "S4",
                       "--statement", "Lem2.5.fwd")
    assert code == 0
    assert "skipped (vacuous)" in out
    assert "premise not satisfied" in out


def test_verify_sigma_all_expands_partitions(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A5",
                       "--statement", "ThmA.i", "--sigma", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # Bell(3) partitions of {2,3,5} plus sigma1
    assert all("confirmed" in line for line in lines)
    assert any("[2,5][3]" in line for line in lines)


def test_verify_pi_restricts_lemma_2_2(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A5",
                       "--statement", "Lem2.2", "--pi", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split() == ["Lem2.2", "A5", "[5]", "confirmed"]


def test_lemma_2_2_row_label_does_not_depend_on_the_verdict(capsys):
    """A pi row is labelled by pi n pi(G) whether it is confirmed or skipped
    for capacity: 7 does not divide |S4|, so both rows carry no block."""
    argv = ("verify", "--group", "S4", "--statement", "Lem2.2", "--pi", "7",
            "--format", "machine")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    confirmed = json.loads(out)
    code, out, _ = run(capsys, *argv, "--subgroup-bound", "1")
    assert code == 3
    skipped = json.loads(out)
    assert [r["verdict"] for r in confirmed + skipped] == ["confirmed", "skipped"]
    assert [r["sigma"] for r in skipped] == [r["sigma"] for r in confirmed] == ["[]"]


def test_verify_capacity_skip_exits_3(capsys, fresh_cap_group):
    name, path = fresh_cap_group
    code, out, _ = run(capsys, "verify", "--group", name,
                       "--corpus-file", path, "--statement", "Lem2.1",
                       "--subgroup-bound", "2")
    assert code == 3
    assert "skipped — capacity: subgroup enumeration exceeds" in out


def test_verify_capacity_skips_carry_their_own_sigma(capsys):
    clear_intern_cache()  # a lattice cached by an earlier test would not trip the bound
    code, out, _ = run(capsys, "verify", "--group", "S4", "--statement", "Lem2.1",
                       "--sigma", "all", "--subgroup-bound", "3", "--format", "machine")
    assert code == 3
    rows = json.loads(out)
    assert [r["sigma"] for r in rows] == ["[2,3]", "[2][3]", "sigma1"]
    assert {r["verdict"] for r in rows} == {"skipped"}


@pytest.mark.parametrize("group", ["C6", "S4"])
@pytest.mark.parametrize("statement", STATEMENTS)
def test_verify_rows_equal_verify_group_rows(capsys, group, statement):
    """verify and the campaign run a statement through the same registry and
    row runner, so they give the same rows."""
    code, out, _ = run(capsys, "verify", "--group", group, "--statement", statement,
                       "--sigma", "all", "--format", "machine")
    expected = [r.to_json() for r in verify_group(
        builtin_entry(group), CampaignConfig(statements=(statement,), zero_millis=True))]
    assert code == 0
    assert json.loads(out) == expected


def test_verifiers_are_looked_up_on_the_harness_module(capsys, monkeypatch):
    """A wrapper bound onto harness.verify_* (as the benchmark tracer binds
    one) sees the calls of both the campaign and verify, with ThmA's class
    as the third positional argument."""
    calls = []

    def recorder(original):
        def record(*args, **kwargs):
            calls.append((original.__name__, args[2] if len(args) > 2 else None))
            return original(*args, **kwargs)
        return record

    for fn in ("verify_lemma_2_4", "verify_theorem_A"):
        monkeypatch.setattr(harness, fn, recorder(getattr(harness, fn)))
    verify_group(builtin_entry("C6"), CampaignConfig(statements=("ThmA.ii", "Lem2.4")))
    assert calls == [("verify_theorem_A", "sigma-nilpotent"), ("verify_lemma_2_4", "C6")] * 3
    calls.clear()
    assert run(capsys, "verify", "--group", "C6", "--statement", "ThmA.iii")[0] == 0
    assert run(capsys, "verify", "--group", "C6", "--statement", "Lem2.4")[0] == 0
    assert calls == [("verify_theorem_A", "sigma-soluble-psigma-t"),
                     ("verify_lemma_2_4", "C6")]


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize("statement, pi", [
    ("Lem2.2", "a,b"), ("Lem2.2", "4"), ("Lem2.2", "-3"), ("Lem2.2", "2,"),
    ("Lem2.2", "1000000007000"), ("Lem2.4", "2"), ("Cor1.2", "2")])
def test_verify_bad_pi_is_usage_error(capsys, statement, pi):
    code, out, err = run(capsys, "verify", "--group", "A5", "--statement", statement,
                         "--pi", pi)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --pi ")


ZEROS = "0" * 5000


@pytest.mark.parametrize("pi", ["0000000002", ZEROS + "2"], ids=["ten-digits", "5001-digits"])
def test_verify_pi_reads_leading_zeros_as_sigma_does(capsys, pi):
    """A --pi token is read as a --sigma block number is: leading zeros do
    not count toward its digits, so the row is that of --pi 2."""
    expected = run(capsys, "verify", "--group", "S3", "--statement", "Lem2.2", "--pi", "2",
                   "--format", "machine")
    assert expected[0] == 0
    assert run(capsys, "verify", "--group", "S3", "--statement", "Lem2.2", "--pi", pi,
               "--format", "machine") == expected


def test_verify_pi_with_leading_zeros_past_the_digit_bound_is_usage_error(capsys):
    """Past its leading zeros, a --pi token still has at most 9 digits: the
    value is refused with the --pi usage message, never read by int."""
    code, out, err = run(capsys, "verify", "--group", "S3", "--statement", "Lem2.2",
                         "--pi", ZEROS + "1000000007")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --pi takes comma-separated primes of at most 9 digits")


@pytest.mark.parametrize("statement, sigma", [("Lem2.2", "junk"), ("Cor1.2", "[2,3]")])
def test_verify_sigma_outside_sigma_scope_is_usage_error(capsys, statement, sigma):
    code, out, err = run(capsys, "verify", "--group", "A5", "--statement", statement,
                         "--sigma", sigma)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: --sigma does not apply to {statement}")


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--group", "ZZZ",
                       "--statement", "Lem2.4")
    assert code == 2
    assert err.strip() == "usage error: no builtin group named 'ZZZ'"


def test_bad_sigma_text_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3", "--sigma", "junk")
    assert code == 2
    assert "usage error: bad partition text 'junk'" in err


@pytest.mark.parametrize("block", ["100000000000031", "1" * 5000],
                         ids=["15-digit prime", "5000 ones"])
def test_overlong_block_number_is_usage_error(capsys, block):
    code, out, err = run(capsys, "classify", "--group", "S3", "--sigma", f"[{block}]")
    assert (code, out) == (2, "")
    assert err == "usage error: a block number has more than 9 digits\n"


@pytest.mark.parametrize("order", ["\u00b2", "9" * 5000], ids=["superscript two", "5000 nines"])
def test_unreadable_corpus_order_is_usage_error(capsys, tmp_path, order):
    # both pass str.isdigit, and int refuses both
    path = tmp_path / "order.corpus"
    path.write_text(f"group X deg 3\ngen (1 2)\norder {order}\n", encoding="utf-8")
    code, out, err = run(capsys, "campaign", "--corpus", str(path))
    assert (code, out) == (2, "")
    assert err == f"usage error: line 3: bad order line 'order {order}'\n"


@pytest.mark.parametrize("degree", ["1_0", "+3", "\u00b3", "9" * 5000],
                         ids=["underscore", "plus sign", "superscript three", "5000 nines"])
def test_unreadable_corpus_degree_is_usage_error(capsys, tmp_path, degree):
    # int reads the first two, refuses the last two; a degree is decimal digits only
    path = tmp_path / "degree.corpus"
    path.write_text(f"group X deg {degree}\ngen (1 2)\norder 2\n", encoding="utf-8")
    code, out, err = run(capsys, "campaign", "--corpus", str(path))
    assert (code, out) == (2, "")
    assert err == f"usage error: line 1: bad degree {degree!r}\n"


def test_overlong_cycle_point_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "permutable", "--group", "S3", "--gen", f"({'9' * 5000})")
    assert (code, out) == (2, "")
    assert err == f"usage error: point {'9' * 5000} outside 1..3\n"
    # in a corpus file the point refuses its entry, and naming that entry
    # is the usage error
    path = tmp_path / "gen.corpus"
    path.write_text(f"group X deg 3\ngen (1 {'1' * 5000})\norder 2\n")
    code, out, err = run(capsys, "classify", "--corpus-file", str(path), "--group", "X")
    assert (code, out) == (2, "")
    assert err == f"usage error: line 2: point {'1' * 5000} outside 1..3\n"
    assert run(capsys, "campaign", "--corpus", str(path))[0] == 4


def test_sigma_all_rejected_outside_verify(capsys):
    for command in ("classify", "residual", "permutable"):
        assert run(capsys, command, "--group", "S3", "--sigma", "all") == \
            (2, "", "usage error: --sigma all is only valid for verify\n")


def test_one_shot_commands_build_the_group_before_refusing_sigma_all(capsys):
    for command in ("classify", "residual", "permutable"):
        assert run(capsys, command, "--group", "NOPE", "--sigma", "all") == \
            (2, "", "usage error: no builtin group named 'NOPE'\n")


def test_missing_corpus_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "campaign", "--corpus",
                       str(tmp_path / "nope.corpus"))
    assert code == 2
    assert err.startswith("i/o error:")


def test_group_missing_from_corpus_file(capsys, mini_corpus):
    code, _, err = run(capsys, "classify", "--group", "NOPE",
                       "--corpus-file", mini_corpus)
    assert code == 2
    assert "usage error" in err


# ---------------------------------------------------------------------------
# campaign

def test_campaign_human_summary(capsys, mini_corpus):
    code, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                       "--no-timestamp")
    assert code == 0
    assert "groups: 1   outcomes: 32" in out
    assert "confirmed: 32   counterexamples: 0   skipped: 0" in out
    assert "ThmA.iii    confirmed=   3 counterexample=0 skipped=0" in out


def test_campaign_machine_report(capsys, mini_corpus):
    code, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                       "--no-timestamp", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["outcomes", "schema", "summary"]
    assert report["schema"] == "sigmagroups-report/1"
    assert len(report["outcomes"]) == 32
    assert report["summary"]["confirmed"] == 32
    assert all(row["millis"] == 0 for row in report["outcomes"])


def test_campaign_timestamp_present_unless_suppressed(capsys, mini_corpus):
    _, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                    "--format", "machine")
    assert "generated_at" in json.loads(out)


def test_campaign_out_file_and_rerun_byte_identical(capsys, mini_corpus,
                                                    tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "campaign", "--corpus", mini_corpus,
               "--no-timestamp", "--out", str(a))[0] == 0
    assert run(capsys, "campaign", "--corpus", mini_corpus, "--jobs", "2",
               "--no-timestamp", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["summary"]["counterexample"] == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_campaign_jobs_below_one_is_usage_error(capsys, mini_corpus, value):
    code, out, err = run(capsys, "campaign", "--corpus", mini_corpus, "--jobs", value)
    assert (code, out) == (2, "")
    assert err.strip() == f"usage error: --jobs must be at least 1, got {value}"


S7_AND_S3_CORPUS = """\
group S7 deg 7
gen (1 2 3 4 5 6 7)
gen (1 2)
order 5040

group S3 deg 3
gen (1 2 3)
gen (1 2)
order 6
"""


def test_corpus_file_group_over_the_table_bound_skips_only_its_rows(capsys, tmp_path):
    # reading the file builds no group; only building S7 meets the default
    # table bound, so S3 is still verified and classified
    path = tmp_path / "s7s3.corpus"
    path.write_text(S7_AND_S3_CORPUS)
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "campaign", "--corpus", str(path), "--no-timestamp",
                       "--out", str(report_path))
    assert code == 3 and err == ""
    rows = json.loads(report_path.read_text())["outcomes"]
    s7 = [r for r in rows if r["group"] == "S7"]
    s3 = [r for r in rows if r["group"] == "S3"]
    assert s7 and all(r["verdict"] == "skipped" and r["reason"] ==
                      "capacity: group order 5040 exceeds multiplication-table bound 4096"
                      for r in s7)
    assert len(s3) == 32 and {r["verdict"] for r in s3} == {"confirmed"}
    code, out, _ = run(capsys, "classify", "--corpus-file", str(path), "--group", "S3")
    assert code == 0 and "group S3 (order 6, degree 3)" in out


S3_AND_BAD_CORPUS = """\
group S3 deg 3
gen (1 2 3)
gen (1 2)
order 6

group BAD deg 3
gen (1 2 3)
order 6
"""


def test_corpus_file_entry_of_a_wrong_order_errors_only_its_rows(capsys, tmp_path):
    """Reading a file builds no group, so a declared order that the
    generators do not give is found when BAD is built: its rows are error
    rows, S3's are those of a campaign over S3 alone, and the campaign exits 4."""
    path = tmp_path / "s3bad.corpus"
    path.write_text(S3_AND_BAD_CORPUS)
    alone = tmp_path / "s3.corpus"
    alone.write_text(S3_AND_BAD_CORPUS.split("\n\n")[0] + "\n")
    report_path, alone_path = tmp_path / "report.json", tmp_path / "alone.json"
    code, _, err = run(capsys, "campaign", "--corpus", str(path), "--no-timestamp",
                       "--out", str(report_path))
    assert code == 4 and err == ""
    assert run(capsys, "campaign", "--corpus", str(alone), "--no-timestamp",
               "--out", str(alone_path))[0] == 0
    rows = json.loads(report_path.read_text())["outcomes"]
    assert [r for r in rows if r["group"] == "S3"] == \
        json.loads(alone_path.read_text())["outcomes"]
    bad = [r for r in rows if r["group"] == "BAD"]
    assert len(bad) == 9 * 3 + 1 + 4
    assert {r["verdict"] for r in bad} == {"error"}
    assert {r["reason"] for r in bad} == {
        "GroupInputError: corpus entry 'BAD': generated order 3, declared 6"}
    # a command builds only the group it names
    assert run(capsys, "classify", "--corpus-file", str(path), "--group", "S3") == \
        run(capsys, "classify", "--group", "S3")
    code, out, err = run(capsys, "classify", "--corpus-file", str(path), "--group", "BAD")
    assert (code, out) == (2, "")
    assert err == "usage error: corpus entry 'BAD': generated order 3, declared 6\n"


def test_corpus_file_generator_that_does_not_fit_errors_only_its_entry(capsys, tmp_path):
    """A generator outside its entry's degree refuses that entry alone, with
    its line number: Z gets one error row per statement, S3 answers as it
    does alone, and naming Z is the usage error."""
    s3 = S3_AND_BAD_CORPUS.split("\n\n")[0] + "\n"
    path = tmp_path / "s3z.corpus"
    path.write_text(s3 + "\ngroup Z deg 0\ngen (1 2)\norder 2\n")
    alone = tmp_path / "s3.corpus"
    alone.write_text(s3)
    report_path, alone_path = tmp_path / "report.json", tmp_path / "alone.json"
    code, _, err = run(capsys, "campaign", "--corpus", str(path), "--no-timestamp",
                       "--out", str(report_path))
    assert code == 4 and err == ""
    assert run(capsys, "campaign", "--corpus", str(alone), "--no-timestamp",
               "--out", str(alone_path))[0] == 0
    rows = json.loads(report_path.read_text())["outcomes"]
    assert [r for r in rows if r["group"] == "S3"] == \
        json.loads(alone_path.read_text())["outcomes"]
    message = "line 7: point 1 outside 1..0"
    bad = [r for r in rows if r["group"] == "Z"]
    assert sorted(r["statement_id"] for r in bad) == sorted(STATEMENTS)
    assert {(r["verdict"], r["sigma"], r["reason"]) for r in bad} == {
        ("error", "[]", f"GroupInputError: {message}")}
    assert run(capsys, "classify", "--corpus-file", str(path), "--group", "S3") == \
        run(capsys, "classify", "--group", "S3")
    assert run(capsys, "classify", "--corpus-file", str(path), "--group", "Z") == \
        (2, "", f"usage error: {message}\n")


def test_corpus_file_entry_with_refused_values_errors_only_its_rows(capsys, tmp_path):
    """A declared order with a prime above the degree is refused when the
    file is read, but only for its own entry: BAD7 gets one error row per
    statement, labelled with no block since a refused order is not
    factored, and S3 answers as it does alone."""
    s3 = S3_AND_BAD_CORPUS.split("\n\n")[0] + "\n"
    path = tmp_path / "s3bad7.corpus"
    path.write_text(s3 + "\ngroup BAD7 deg 3\ngen (1 2 3)\norder 7\n")
    alone = tmp_path / "s3.corpus"
    alone.write_text(s3)
    report_path, alone_path = tmp_path / "report.json", tmp_path / "alone.json"
    code, _, err = run(capsys, "campaign", "--corpus", str(path), "--no-timestamp",
                       "--out", str(report_path))
    assert code == 4 and err == ""
    assert run(capsys, "campaign", "--corpus", str(alone), "--no-timestamp",
               "--out", str(alone_path))[0] == 0
    rows = json.loads(report_path.read_text())["outcomes"]
    assert [r for r in rows if r["group"] == "S3"] == \
        json.loads(alone_path.read_text())["outcomes"]
    message = "corpus entry 'BAD7': declared order 7 has a prime factor above the degree 3"
    bad = [r for r in rows if r["group"] == "BAD7"]
    assert sorted(r["statement_id"] for r in bad) == sorted(STATEMENTS)
    assert {(r["verdict"], r["sigma"], r["reason"]) for r in bad} == {
        ("error", "[]", f"GroupInputError: {message}")}
    assert run(capsys, "classify", "--corpus-file", str(path), "--group", "S3") == \
        run(capsys, "classify", "--group", "S3")
    assert run(capsys, "classify", "--corpus-file", str(path), "--group", "BAD7") == \
        (2, "", f"usage error: {message}\n")


def test_corpus_file_entry_with_an_order_no_group_of_its_degree_has(capsys, tmp_path):
    """2^13 does not divide 3!, so BIG is refused when the file is read: one
    error row per statement and exit 4, not capacity skips and exit 3."""
    path = tmp_path / "big.corpus"
    path.write_text("group BIG deg 3\ngen (1 2 3)\norder 8192\n")
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "campaign", "--corpus", str(path), "--no-timestamp",
                       "--out", str(report_path))
    assert code == 4 and err == ""
    rows = json.loads(report_path.read_text())["outcomes"]
    assert sorted(r["statement_id"] for r in rows) == sorted(STATEMENTS)
    assert {(r["verdict"], r["reason"]) for r in rows} == {
        ("error", "GroupInputError: corpus entry 'BIG': declared order 8192 does not divide 3!")}


def test_campaign_only_filters_statements(capsys, mini_corpus):
    code, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                       "--only", "Lem2.4,Lem2.2", "--no-timestamp",
                       "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert {r["statement_id"] for r in report["outcomes"]} == \
        {"Lem2.4", "Lem2.2"}
    assert len(report["outcomes"]) == 7  # 3 sigmas + 4 prime subsets


def test_campaign_unknown_statement_id(capsys):
    code, _, err = run(capsys, "campaign", "--only", "Nope")
    assert code == 2
    assert "unknown statement ids: Nope" in err


def test_campaign_empty_statement_ids_are_named(capsys, mini_corpus):
    code, _, err = run(capsys, "campaign", "--corpus", mini_corpus, "--only", ",")
    assert code == 2
    assert "unknown statement ids: '', ''" in err


@pytest.mark.parametrize("argv", [
    ("campaign", "--only", ""),
    ("campaign", "--out", ""),
    ("classify", "--group", "S3", "--corpus-file", ""),
], ids=["only", "out", "corpus-file"])
def test_empty_option_value_is_usage_error(capsys, mini_corpus, argv):
    """An empty --only, --out or --corpus-file is refused, never read as
    "every statement", "no report" or "the builtin corpus"."""
    option = argv[-2]
    if argv[0] == "campaign":
        argv += ("--corpus", mini_corpus)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}: must not be empty" in err


def test_planted_fault_counterexample_exits_1(capsys, tmp_path, lying_class_member):
    """Under a lying class predicate, verify and campaign report the
    refuted Theorem A row and exit 1."""
    code, out, _ = run(capsys, "verify", "--group", "D8", "--statement", "ThmA.i")
    assert code == 1
    assert "ThmA.i      D8           sigma1       counterexample" in out
    path = tmp_path / "d8.corpus"
    entry = builtin_entry("D8")
    path.write_text(f"group D8 deg {entry.degree}\n"
                    + "".join(f"gen {g}\n" for g in entry.generators)
                    + f"order {entry.expected_order}\n")
    code, out, _ = run(capsys, "campaign", "--corpus", str(path), "--only", "ThmA.i",
                       "--no-timestamp")
    assert code == 1
    assert "COUNTEREXAMPLE: ThmA.i D8 [2]" in out.splitlines()
    assert "COUNTEREXAMPLE: ThmA.i D8 sigma1" in out.splitlines()


def test_engine_error_becomes_error_rows_and_exits_4(capsys, tmp_path, monkeypatch):
    """An InvariantError planted in Lem2.4 on S4 makes exactly S4's three
    Lem2.4 rows error rows in a --jobs 2 campaign on a fork pool, which
    inherits the plant; every other row is the clean run's, and both verify
    and campaign exit 4.  So does a pair of S4's rows that fails the
    class-monotonicity check: exactly those two rows become error rows."""
    path = tmp_path / "three.corpus"
    path.write_text("\n".join(
        f"group {e.name} deg {e.degree}\n" + "".join(f"gen {g}\n" for g in e.generators)
        + f"order {e.expected_order}\n" for e in map(builtin_entry, ("S3", "S4", "D8"))))
    clean = run_campaign(parse_corpus_file(path.read_text()), CampaignConfig(zero_millis=True))
    assert '"error"' not in json.dumps(report_from_rows(clean))
    original = harness.verify_lemma_2_4

    def planted(G, sigma, name, limits):
        if name == "S4":
            raise InvariantError("planted")
        return original(G, sigma, name, limits)

    monkeypatch.setattr(harness, "verify_lemma_2_4", planted)
    monkeypatch.setattr(harness, "_process_pool", lambda workers: ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")))
    code, out, _ = run(capsys, "verify", "--group", "S4", "--statement", "Lem2.4")
    assert code == 4
    assert "error — InvariantError: planted" in out
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "campaign", "--corpus", str(path), "--jobs", "2",
                       "--no-timestamp", "--out", str(report))
    assert code == 4
    rows = json.loads(report.read_text())["outcomes"]
    planted_rows = [r["statement_id"] == "Lem2.4" and r["group"] == "S4" for r in clean]
    assert sum(planted_rows) == 3
    for row, was, hit in zip(rows, clean, planted_rows):
        assert row == ({**was, "verdict": "error", "vacuous": False, "witness": None,
                        "reason": "InvariantError: planted"} if hit else was)
    summary = json.loads(report.read_text())["summary"]
    assert summary["error"] == 3 and summary["by_statement"]["Lem2.4"]["error"] == 3
    assert "error" not in summary["by_statement"]["Lem2.3"]
    assert "errors: 3" in out.splitlines()[1]
    assert "ERROR: Lem2.4 S4 [2,3] — InvariantError: planted" in out.splitlines()

    # a pair of rows that fails the class-monotonicity check: S4's ThmA.i
    # made non-vacuous at [2,3], where its ThmA.ii is vacuous
    monkeypatch.setattr(harness, "verify_lemma_2_4", original)
    theorem_a = harness.verify_theorem_A

    def non_vacuous(G, sigma, cls, name, limits):
        out = theorem_a(G, sigma, cls, name, limits)
        planted = (name, cls, sigma.text()) == ("S4", "sigma-soluble", "[2,3]")
        return replace(out, vacuous=False) if planted else out

    monkeypatch.setattr(harness, "verify_theorem_A", non_vacuous)
    code, out, _ = run(capsys, "campaign", "--corpus", str(path), "--jobs", "2",
                       "--no-timestamp", "--out", str(report))
    assert code == 4
    rows = json.loads(report.read_text())["outcomes"]
    refuted = [(r["group"], r["sigma"], r["statement_id"]) in
               {("S4", "[2,3]", "ThmA.i"), ("S4", "[2,3]", "ThmA.ii")} for r in clean]
    assert sum(refuted) == 2
    reason = "InvariantError: S4/[2,3]: ThmA.i non-vacuous but ThmA.ii vacuous"
    for row, was, hit in zip(rows, clean, refuted):
        assert row == ({**was, "verdict": "error", "vacuous": False, "witness": None,
                        "reason": reason} if hit else was)


@pytest.mark.parametrize("command", ["classify", "residual"])
def test_engine_error_of_a_command_exits_4(capsys, monkeypatch, command):
    """An exception that is not an input, capacity or i/o error exits 4
    with one stderr line, never 1 with a traceback: 1 means a counterexample."""
    def planted(*args):
        raise InvariantError("planted")

    monkeypatch.setattr(cli, "sigma_nilpotent_residual", planted)
    code, out, err = run(capsys, command, "--group", "S4")
    assert (code, out, err) == (4, "", "engine error: InvariantError: planted\n")


# ---------------------------------------------------------------------------
# corpus-list

def test_corpus_list_human(capsys):
    code, out, _ = run(capsys, "corpus-list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 45
    assert lines[0] == \
        "C1           deg   1 order    1  cyclic abelian nilpotent trivial"


def test_corpus_list_machine(capsys):
    code, out, _ = run(capsys, "corpus-list", "--format", "machine")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 45
    assert rows[0] == {"degree": 1, "name": "C1", "order": 1,
                       "tags": ["cyclic", "abelian", "nilpotent", "trivial"]}
    assert len({r["name"] for r in rows}) == 45
