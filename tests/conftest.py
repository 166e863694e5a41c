"""Shared fixtures: the builtin corpus, lazily-built oracle groups, and one
full campaign run reused by every test that needs campaign rows."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from sigmagroups import CampaignConfig, builtin_corpus, run_campaign

ROOT = Path(__file__).resolve().parent.parent
SELFTEST = pytest.StashKey[subprocess.Popen]()


def start_benchmark_selftest() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def pytest_collection_finish(session):
    """Start the benchmark self-test, a few seconds in its own process, as
    soon as collection ends if its test is selected: it then runs on another
    core beside the rest of the suite, and the test only waits for it."""
    if any(item.name == "test_benchmark_selftest_passes" for item in session.items):
        session.config.stash[SELFTEST] = start_benchmark_selftest()


def pytest_sessionfinish(session):
    proc = session.config.stash.get(SELFTEST, None)
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.communicate()


@pytest.fixture()
def benchmark_selftest(request) -> subprocess.Popen:
    """The benchmark self-test process, started early or, failing that, now."""
    proc = request.config.stash.get(SELFTEST, None)
    return proc if proc is not None else start_benchmark_selftest()


@pytest.fixture(scope="session")
def corpus():
    """name -> CorpusEntry for every builtin group."""
    return {e.name: e for e in builtin_corpus()}


@pytest.fixture(scope="session")
def oracle_group(corpus):
    """Callable name -> TupleGroup, built once per group."""
    cache = {}

    def get(name):
        if name not in cache:
            e = corpus[name]
            gens = [tuple(p.images) for p in e.generators]
            cache[name] = oracles.TupleGroup(gens, e.degree)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def campaign():
    """One full single-process campaign over the builtin corpus.

    Returns {"rows": [row dicts], "elapsed": seconds}.  zero_millis keeps the
    rows deterministic so assertions can compare them structurally.
    """
    entries = builtin_corpus()
    t0 = time.perf_counter()
    rows = run_campaign(entries, CampaignConfig(jobs=1, zero_millis=True))
    return {"rows": rows, "elapsed": time.perf_counter() - t0}
