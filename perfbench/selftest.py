"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted; that each correctness check
passes on true answers and trips on one corrupted output (a flipped report
byte, a wrong verdict, a wrong order, a wrong membership answer, a wrong
query field); and that the benchmark refuses to run where the package
sources are missing.  Exits 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import common

common.use_checkout()

import campaign  # noqa: E402  (needs the checkout on sys.path)
import chains  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

FAILURES: list[str] = []

TINY_CORPUS = """\
group C2 deg 2
gen (1 2)
order 2
group S3 deg 3
gen (1 2 3)
gen (1 2)
order 6
group A4 deg 4
gen (1 2 3)
gen (1 2)(3 4)
order 12
"""
TINY_GROUPS = ("C1", "C4", "S3", "D8", "A4", "Q8", "F20", "S4")
TINY_CHAINS = (("S", 6), ("A", 7), ("W", 2, 3), ("W", 3, 2), ("AGL", 7))


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def benchmark_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metric_names(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    expect(e2e == set(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layer == {m["name"] for m in spans.metric_specs()},
           "BENCHMARK.json per_layer matches spans.metric_specs()")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expect(all(units[m["name"]] == m["unit"] for m in spans.metric_specs()),
           "per-layer units agree with BENCHMARK.json")
    expect(all(units[name] == unit for name, (unit, _) in run.END_TO_END.items()),
           "end-to-end units agree with BENCHMARK.json")


def emitted(label: str, out, names: set[str]) -> None:
    got = set(out.metrics)
    expect(got == names, f"{label}: emits exactly its metrics (missing "
                         f"{sorted(names - got)}, extra {sorted(got - names)})")
    expect(out.correct, f"{label}: correctness checks pass on true answers")


def use_tiny_inputs() -> None:
    corpus = common.out_path("selftest-corpus.txt")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(TINY_CORPUS)
    campaign.CORPUS = corpus
    # the tiny campaign's own report defines what its check expects
    report = common.out_path("selftest-report.json")
    code, *_ = campaign.run_cli(campaign._fresh(report), common.Speedometer())
    with open(report, "rb") as fh:
        data = fh.read()
    parsed = json.loads(data)
    premise = [r["statement_id"] for r in parsed["outcomes"]
               if (r["reason"] or "").startswith(campaign.PREMISE)]
    campaign.EXPECTED = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": len(parsed["outcomes"]),
        "summary": {k: parsed["summary"][k] for k in ("confirmed", "counterexample", "skipped")},
        "premise_skips": {sid: premise.count(sid) for sid in sorted(set(premise))},
    }
    expect(code == 0, "tiny CLI campaign exits 0")
    tiny = [e for e in queries._entries() if e.name in TINY_GROUPS]
    queries._entries = lambda: tiny
    queries.MIN_QUERIES = 2 * len(tiny)
    chains.ROUND = TINY_CHAINS
    chains.MIN_GROUPS = len(TINY_CHAINS)


def check_campaign_gate() -> None:
    with open(common.out_path("selftest-report.json"), "rb") as fh:
        data = fh.read()
    attempted, failed, problems = campaign.check_report(data)
    expect(failed == 0 and not problems and attempted > 0, "campaign: true report passes")
    flipped = bytearray(data)
    at = flipped.index(b'"vacuous": ')
    flipped[at + 1] ^= 0x20          # "vacuous" -> "Vacuous": one flipped byte
    _, _, problems = campaign.check_report(bytes(flipped))
    expect(any("sha256" in p for p in problems), "campaign: one flipped byte trips the hash")
    report = json.loads(data)
    report["outcomes"][0]["verdict"] = "counterexample"
    _, failed, problems = campaign.check_report(json.dumps(report).encode())
    expect(failed == 1 and problems, "campaign: a counterexample row counts as failed")
    report = json.loads(data)
    row = next(r for r in report["outcomes"] if r["verdict"] == "confirmed")
    row.update(verdict="skipped", reason="capacity: bound exceeded")
    _, failed, _ = campaign.check_report(json.dumps(report).encode())
    expect(failed == 1, "campaign: a capacity skip counts as failed")
    _, failed, problems = campaign.read_checked(common.out_path("no-such-report.json"))
    expect(failed == 1 and problems, "campaign: a missing report fails")


def check_queries_gate() -> None:
    results = queries.run_pass(queries.setup(1, 0), common.Speedometer())
    failed, problems = queries.check(results)
    expect(failed == 0 and not problems, "queries: true answers agree with the oracle")
    for field, wrong in (("sigma_nilpotent", lambda v: not v), ("residual_order", lambda v: v + 1),
                         ("order", lambda v: v * 2), ("complete_hall_set", lambda v: None)):
        target = next(r for r in results
                      if r.ok and all(len(b) == 1 for b in r.query.blocks)
                      and r.value["fields"]["order"] > 1
                      and r.value["fields"]["complete_hall_set"] is not None)
        corrupted = [dataclasses.replace(r, value={**r.value, "fields": dict(r.value["fields"])})
                     for r in results]
        bad = corrupted[results.index(target)]
        bad.value["fields"][field] = wrong(bad.value["fields"][field])
        failed, _ = queries.check(corrupted)
        expect(failed == 1, f"queries: one wrong {field} counts as one failure")
    crashed = results[:1] + [dataclasses.replace(results[1], ok=False, value="Boom: x")]
    failed, _ = queries.check(crashed)
    expect(failed == 1, "queries: a query that raised counts as failed")


def check_chains_gate() -> None:
    results = chains.run_pass(chains.setup(1, 0), common.Speedometer())
    failed, problems = chains.check(results)
    expect(failed == 0 and not problems, "chains: true orders and memberships pass")
    members = [chains.family_member(r.inp.spec, r.inp.relabel, t)
               for r in results for t in r.inp.test_images]
    expect(any(members) and not all(members), "chains: tests include members and non-members")
    wrong_order = [dataclasses.replace(r) for r in results]
    wrong_order[0].order += 1
    failed, _ = chains.check(wrong_order)
    expect(failed == 1, "chains: one wrong order counts as one failure")
    wrong_member = [dataclasses.replace(r, answers=list(r.answers)) for r in results]
    wrong_member[-1].answers[0] = not wrong_member[-1].answers[0]
    failed, _ = chains.check(wrong_member)
    expect(failed == 1, "chains: one wrong membership answer counts as one failure")


def check_speed_samples() -> None:
    """A long child is paused for speed samples, its pauses are left out of
    its time, and it is never left paused."""
    common.pin_to_one_cpu()
    speedo = common.Speedometer()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "sum(range(30_000_000))"])
    common.wait_sampled(proc.pid, speedo)
    _, status, _ = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    speedo.sample()
    paused = sum(b - a for a, b in speedo.pauses)
    expect(status == 0 and speedo.pauses and len(speedo.speeds) >= len(speedo.pauses) + 2,
           "a long child is paused for speed samples and exits normally")
    expect(abs(speedo.scaled(t0, t1) / speedo.speed(t0, t1) - (t1 - t0 - paused)) < 1e-9,
           "scaled time leaves out the child's pauses")


def check_emitted() -> None:
    e2e = set(run.END_TO_END) - {"setup_s"}   # run.py adds setup_s from its own timing
    layer = {m["name"] for m in spans.metric_specs()}
    for name, module in (("campaign", campaign), ("queries", queries), ("chains", chains)):
        emitted(name, module.run(1, 0, common.Speedometer()), e2e)
        traced = module.traced(1, 0)
        emitted(f"{name} traced", traced, layer)
        calls = traced.metrics
        if name != "campaign":
            expect(all(v == 0 for k, v in ((k, s.value) for k, s in calls.items())
                       if k.startswith("harness.") and k.endswith(".calls")),
                   f"{name} traced: no harness calls")
        if name == "chains":
            expect(all(s.value == 0 for k, s in calls.items()
                       if k.startswith(("structure.", "sigma.")) and k.endswith(".calls")),
                   "chains traced: no structure or sigma calls")
        else:
            expect(calls["layer.structure.self_s"].value > 0, f"{name} traced: structure seen")
        expect(calls["permcore.PermGroup.calls"].value > 0, f"{name} traced: chain builds seen")
        with open(common.out_path(f"{name}-seed1-layers.json"), encoding="utf-8") as fh:
            pairs = json.load(fh)["pairs"]
        operations = {"campaign": TINY_CORPUS.count("group "), "queries": len(queries.setup(1, 0)),
                      "chains": len(chains.setup(1, 0))}[name]
        expect(pairs == operations, f"{name} traced: one untraced/traced pair per operation")


def check_bare_directory() -> None:
    """Without the package sources the benchmark must fail without a result."""
    bare = common.out_path("selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chains",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a directory without src/ exits non-zero and prints no result")


def main() -> int:
    check_metric_names(benchmark_spec())
    use_tiny_inputs()
    check_campaign_gate()
    check_queries_gate()
    check_chains_gate()
    check_speed_samples()
    check_emitted()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
