"""Command-line interface: output formats, exit codes, error handling."""

import json
import subprocess
import sys

import pytest

from sigmagroups import harness
from sigmagroups.cli import main
from sigmagroups.corpus import builtin_entry
from sigmagroups.harness import STATEMENTS, CampaignConfig, verify_group
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


CAPS = ["--element-cache-bound", "--subgroup-bound", "--table-order-bound"]


@pytest.mark.parametrize("knob", CAPS)
def test_cap_below_one_is_usage_error(capsys, knob):
    for value in ("0", "-3"):
        code, out, err = run(capsys, "classify", "--group", "S4", knob, value)
        assert (code, out) == (2, "")
        assert err.strip() == f"usage error: {knob} must be at least 1, got {value}"


def test_hall_set_cap_is_not_a_cli_flag(capsys):
    # no command enumerates complete Hall sigma-sets, so the cap would be
    # ignored; it is the library constant sigma.HALL_SET_CAP
    for argv in (("classify", "--group", "S4"),
                 ("verify", "--group", "S4", "--statement", "ThmA.i")):
        code, out, err = run(capsys, *argv, "--hall-set-cap", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --hall-set-cap 1" in err


@pytest.mark.parametrize("knob", CAPS)
def test_every_cli_cap_takes_effect(capsys, knob):
    """At 1, each cap changes what classify prints or how it exits, even
    after a default run has cached the group's lattices and verdicts."""
    default = run(capsys, "classify", "--group", "S4", "--format", "machine")
    assert default[0] == 0
    capped = run(capsys, "classify", "--group", "S4", "--format", "machine", knob, "1")
    assert capped[:2] != default[:2]


def test_element_cache_bound_trips(capsys, mini_corpus):
    code, out, err = run(capsys, "classify", "--group", "S5",
                         "--element-cache-bound", "10")
    assert (code, out) == (3, "")
    assert err.strip() == \
        "capacity abort: group order 120 exceeds element-cache bound 10"
    code, out, _ = run(capsys, "campaign", "--corpus", mini_corpus,
                       "--no-timestamp", "--element-cache-bound", "5")
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


def test_sigma_all_rejected_outside_verify_and_campaign(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3", "--sigma", "all")
    assert code == 2
    assert "--sigma all is only valid for verify and campaign" in err


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
    # S7 passes its order check when the file is read; only building it
    # meets the default table bound, so S3 is still verified and classified
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
