"""Shared fixtures: the builtin corpus, lazily-built oracle groups, one full
campaign run reused by every test that needs campaign rows, and spies on
chain and element-table builds."""

import subprocess
import sys
import time
from itertools import compress
from pathlib import Path

import pytest

import oracles
from sigmagroups import CampaignConfig, PermGroup, builtin_corpus, run_campaign
from sigmagroups import harness, structure

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


def image_set(table, mask):
    """The image tuples of the members of ``mask`` on an element table."""
    return frozenset(p.images for p in compress(table.perms, table.flags(mask)))


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


@pytest.fixture()
def chain_builds(monkeypatch):
    """Every PermGroup whose Schreier-Sims chain is built from now on."""
    built = []
    original = PermGroup._build_chain

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PermGroup, "_build_chain", counting)
    return built


@pytest.fixture()
def table_builds(monkeypatch):
    """Every group an element table is built for from now on."""
    built = []
    original = structure._ElementTable.__init__

    def counting(self, K):
        built.append(K)
        original(self, K)

    monkeypatch.setattr(structure._ElementTable, "__init__", counting)
    return built


@pytest.fixture()
def lying_class_member(monkeypatch):
    """A planted fault: every proper subgroup of its root counts as lying in
    the class and the root itself does not, so each Theorem A scan over a
    group with a proper supplement to every candidate V is refuted."""
    monkeypatch.setattr(harness, "class_member",
                        lambda cls, T, sigma, limits=None: T.order < T.root.order)
