"""The `campaign` workload: the full builtin campaign through the real CLI.

`sigmagroups campaign --corpus builtin --no-timestamp --jobs 1` runs in a
fresh interpreter: all 45 groups, every partition and all 11 statements,
1438 outcome rows.  Each group's lattice, normal lattice and Hall data are
computed once and reused hundreds of times, so the harness, structure
re-wrapping and Subgroup construction dominate.  The campaign is fixed by the
builtin corpus: the seed does not change it, and one run is one campaign,
however short the time budget.

The report must be byte-identical to the one the seed commit writes, and its
summary must read 1374 confirmed, 0 counterexamples and 64 skipped, all of
them premise skips (Lem2.1: 20, Lem2.5.fwd: 44).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

from common import SRC, Outcome, Sample, Speedometer, out_path, rss_mib, wait_sampled

CORPUS = "builtin"
# what the seed commit's --no-timestamp report of the builtin campaign holds
EXPECTED = {
    "sha256": "4853b522f438cefacf41b618387ffb754f74ee710642b1e3397fcb41c038732b",
    "rows": 1438,
    "summary": {"confirmed": 1374, "counterexample": 0, "skipped": 64},
    "premise_skips": {"Lem2.1": 20, "Lem2.5.fwd": 44},
}
PREMISE = "premise not satisfied"


def cli_args(out_file: str) -> list[str]:
    return ["campaign", "--corpus", CORPUS, "--no-timestamp", "--jobs", "1",
            "--out", out_file]


def setup(seed: int, seconds: float) -> None:
    """The campaign's inputs: the CLI module and every builtin group, built."""
    from sigmagroups import builtin_corpus, cli  # noqa: F401  (import cost is set-up)
    for entry in builtin_corpus():
        entry.build()


def run_cli(out_file: str, speedo: Speedometer) -> tuple[int, float, float, float]:
    """Run the CLI campaign, paused for speed samples while it runs; returns
    exit code, wall and CPU reference seconds, and peak RSS MiB."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sigmagroups.cli", *cli_args(out_file)],
                            env=env, stdout=subprocess.DEVNULL)
    try:
        wait_sampled(proc.pid, speedo)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    t1 = time.perf_counter()
    speedo.sample()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, speedo.scaled(t0, t1),
            speedo.scaled(t0, t1, usage.ru_utime + usage.ru_stime), rss_mib(usage.ru_maxrss))


def check_report(data: bytes) -> tuple[int, int, list[str]]:
    """Rows attempted, rows failed and failed checks of one --no-timestamp report.

    A row fails if it is a counterexample or a skip other than a premise skip
    (a capacity skip).  The report must also match the seed commit's bytes.
    """
    want = EXPECTED
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != want["sha256"]:
        problems.append(f"report sha256 {digest} != {want['sha256']}")
    try:
        report = json.loads(data)
        rows, summary = report["outcomes"], report["summary"]
        premise = [r["statement_id"] for r in rows if r["verdict"] == "skipped"
                   and (r["reason"] or "").startswith(PREMISE)]
        failed = sum(1 for r in rows if r["verdict"] != "confirmed") - len(premise)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return 0, 1, problems + [f"unreadable report: {exc}"]
    if len(rows) != want["rows"]:
        problems.append(f"{len(rows)} rows, expected {want['rows']}")
    got = {k: summary.get(k) for k in want["summary"]}
    if got != want["summary"]:
        problems.append(f"summary {got} != {want['summary']}")
    skips = {sid: premise.count(sid) for sid in sorted(set(premise))}
    if skips != want["premise_skips"]:
        problems.append(f"premise skips {skips} != {want['premise_skips']}")
    return len(rows), failed, problems


def read_checked(path: str) -> tuple[int, int, list[str]]:
    """check_report on the report at path."""
    try:
        with open(path, "rb") as fh:
            return check_report(fh.read())
    except OSError as exc:
        return 0, 1, [f"no report: {exc}"]


def _fresh(path: str) -> str:
    """path, with any report an earlier run left there removed."""
    if os.path.exists(path):
        os.remove(path)
    return path


def run(seed: int, seconds: float, speedo: Speedometer) -> Outcome:
    report = _fresh(out_path("campaign-report.json"))
    code, wall, cpu, rss = run_cli(report, speedo)
    attempted, failed, problems = read_checked(report)
    if code != 0:
        problems.append(f"CLI exit code {code}")
    out = Outcome(attempted=max(attempted, 1), failed=failed, base="campaign rows",
                  problems=problems)
    out.metrics = {
        "latency_s_p50": Sample(wall, "s", 1),
        "latency_s_p90": Sample(wall, "s", 1),
        "throughput_per_s": Sample(attempted / wall, "1/s", attempted),
        "cpu_s_per_op": Sample(cpu, "s", 1),
        "peak_rss_mib": Sample(rss, "MiB", 1),
    }
    out.aliases = {"campaign_wall_s": "latency_s_p50", "campaign_cpu_s": "cpu_s_per_op"}
    return out


def _timed(verify_group, entry, config) -> tuple[float, list]:
    """One group's outcome rows, and the wall seconds verify_group took."""
    t0 = time.perf_counter()
    rows = verify_group(entry, config)
    return time.perf_counter() - t0, rows


def traced(seed: int, seconds: float) -> Outcome:
    """sigmagroups.cli.main on the campaign in this process, traced.

    Each group's verify_group call first runs untraced in a child forked just
    before it, then traced here, so the pairs give the tracer's overhead; both
    must give the same rows.  The traced half runs in this process, so that
    groups share the intern table as they do in the CLI.
    """
    from sigmagroups import cli, harness
    from spans import Tracer, report_traced, shared_pages
    report = _fresh(out_path("campaign-traced.json"))
    pairs: list[tuple[float, float]] = []
    problems: list[str] = []
    untraced_verify = harness.verify_group
    tracer = Tracer()
    tracer.install()
    traced_verify = harness.verify_group

    def paired(entry, config):
        t0 = time.perf_counter()
        plain = tracer.untraced_in_child(_timed, untraced_verify, entry, config)
        with shared_pages():
            traced_s, rows = _timed(traced_verify, entry, config)
        if not plain.ok:
            problems.append(f"{entry.name} untraced: {plain.value}")
        else:
            plain_s, plain_rows = plain.value
            pairs.append((plain_s, traced_s))
            if [r.to_json() for r in plain_rows] != [r.to_json() for r in rows]:
                problems.append(f"{entry.name}: traced rows differ from untraced rows")
        # the untraced child and the row check are not cli.main's own time
        tracer.exclude(time.perf_counter() - t0 - traced_s)
        return rows

    tracer.patch(harness, "verify_group", paired)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_args(report))
    finally:
        tracer.uninstall()
    attempted, failed, more_problems = read_checked(report)
    problems += more_problems
    if code != 0:
        problems.append(f"CLI exit code {code}")
    out = Outcome(attempted=max(attempted, 1), failed=failed, base="campaign rows",
                  problems=problems)
    return report_traced(tracer, "campaign", seed, out, pairs)
