"""The `queries` workload: cold one-shot classification questions.

A query is one builtin group, presented by random words in its generators
(drawn until they generate the whole group), paired with one partition of its
primes (or sigma1).  It computes the five `classify` fields: sigma-soluble,
sigma-nilpotent, PsigmaT, the complete Hall sigma-set (member orders) and the
residual order.  Every query runs in a process forked from this one, which
has imported sigmagroups and computed nothing with it, so no cache carries
from one query to the next.  Timing starts inside the child.

A round asks one query per builtin group, in corpus order; the number of
queries follows from the time budget alone, never from how fast the code
runs, and the last round stops at that count (at --seconds 20: two rounds
and the first ten groups of a third, 100 queries).  Each group walks through
its partitions in a fixed order, one per round, the same for every seed: a
query's cost depends mostly on its group and partition (the six partitions
of PSL(2,7) take 3.4 to 6.2 reference seconds), and seeded partitions made
the run's figures depend on the draw.  The seed draws the presentations.
Every query is asked once, and every answer is checked against
tests/oracles.py after all queries ran.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from common import Outcome, Sample, Speedometer, p50, p90, run_forked

MIN_QUERIES = 100
NOMINAL_ROUND_S = 9.0   # one round at reference speed
WORD_TRIES = 100


def set_partitions(items: list) -> list[list[list]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
        out.append([[first]] + part)
    return out


def sigma_choices(primes: list[int]) -> list[tuple[str, list]]:
    """(partition text, blocks) for every partition of the primes, and sigma1."""
    out = [("".join("[" + ",".join(map(str, sorted(b))) + "]" for b in part) or "[]",
            sorted((sorted(b) for b in part), key=min)) for part in set_partitions(primes)]
    out.append(("sigma1", [[p] for p in primes]))
    return out


@dataclass
class Query:
    label: str
    degree: int
    words: list          # generator image tuples, generating the whole group
    sigma: str           # partition text, as the CLI takes it
    blocks: list         # the partition's blocks restricted to the group's primes
    elements: frozenset  # the group's elements, closed by the oracle


def _entries():
    from sigmagroups import builtin_corpus
    return builtin_corpus()


def generating_words(rng: random.Random, gens: list[tuple], degree: int,
                     order: int) -> list[tuple]:
    """Random words in gens, as many as gens, redrawn until they generate all."""
    import oracles
    for _ in range(WORD_TRIES):
        words = []
        for _ in gens:
            w = gens[rng.randrange(len(gens))]
            for _ in range(rng.randint(0, 7)):
                w = oracles.compose(w, gens[rng.randrange(len(gens))])
            words.append(w)
        if len(oracles.close_tuples(words, degree)) == order:
            return words
    return list(gens)


def count_for(seconds: float, entries: int) -> int:
    """Queries in a run: the budget at the nominal round time, at least MIN_QUERIES."""
    return max(MIN_QUERIES, round(seconds / NOMINAL_ROUND_S * entries))


def setup(seed: int, seconds: float) -> list[Query]:
    """The run's queries, round after round: one per builtin group in each
    round, in corpus order, the last round cut short at the run's count."""
    import oracles
    entries = _entries()
    count = count_for(seconds, len(entries))
    rounds: list[list[Query]] = [[] for _ in range(-(-count // len(entries)))]
    for i, e in enumerate(entries):
        gens = [g.images for g in e.generators]
        elements = oracles.close_tuples(gens, e.degree)
        choices = sigma_choices(oracles.prime_factors(len(elements)))
        for r, queries in enumerate(rounds):
            if r * len(entries) + i >= count:
                break
            rng = random.Random(f"queries:{seed}:{r}:{e.name}")
            sigma, blocks = choices[r % len(choices)]
            queries.append(Query(f"r{r}.{e.name}", e.degree,
                                 generating_words(rng, gens, e.degree, len(elements)),
                                 sigma, blocks, elements))
    return [q for queries in rounds for q in queries]


# ---------------------------------------------------------------------------
# one query, in the forked child

def answer(degree: int, words: list, sigma_text: str) -> dict:
    from sigmagroups import (Perm, PermGroup, complete_hall_sigma_set, interned,
                             is_psigma_t, is_sigma_nilpotent, is_sigma_soluble,
                             parse_sigma, sigma_nilpotent_residual)
    c0 = time.process_time()
    t0 = time.perf_counter()
    G = interned(PermGroup(degree, [Perm(w) for w in words]))
    sigma = parse_sigma(sigma_text)
    hall = complete_hall_sigma_set(G, sigma)
    fields = {
        "order": G.order,
        "sigma_soluble": is_sigma_soluble(G, sigma),
        "sigma_nilpotent": is_sigma_nilpotent(G, sigma),
        "psigma_t": is_psigma_t(G, sigma),
        "complete_hall_set": None if hall is None else list(hall.member_orders()),
        "residual_order": sigma_nilpotent_residual(G, sigma).order,
    }
    t1 = time.perf_counter()
    c1 = time.process_time()
    return {"fields": fields, "s": t1 - t0, "cpu_s": c1 - c0, "span": (t0, t1)}


def _timed_answer(degree: int, words: list, sigma_text: str) -> tuple[float, dict]:
    out = answer(degree, words, sigma_text)
    return out["s"], out


@dataclass
class QueryResult:
    query: Query
    ok: bool
    value: object        # the child's answer dict, or the error text
    peak_rss_mib: float


def run_pass(queries: list[Query], speedo: Speedometer) -> list[QueryResult]:
    """Fork one child per query, in order; its times come back in reference
    seconds, its pauses for speed samples left out."""
    results: list[QueryResult] = []
    for q in queries:
        res = run_forked(answer, q.degree, q.words, q.sigma, speedo=speedo)
        results.append(QueryResult(q, res.ok, res.value, res.peak_rss_mib))
        speedo.sample()
    for r in results:
        if r.ok:
            t0, t1 = r.value["span"]
            r.value["s"] = speedo.scaled(t0, t1)
            r.value["cpu_s"] = speedo.scaled(t0, t1, r.value["cpu_s"])
    return results


# ---------------------------------------------------------------------------
# oracle check

class OracleAnswers:
    """Oracle facts about one subgroup, computed once per element set."""

    def __init__(self, degree: int, elements: frozenset):
        import oracles
        self.tg = oracles.TupleGroup(sorted(elements), degree)
        self.order = self.tg.order
        self._oracles = oracles
        self._residual = None
        self.subgroup_orders = {len(s) for s in self.tg.mt.all_subgroups()}
        self.normal_orders = {len(s) for s in self.tg.mt.normal_subgroups()}
        self.soluble = self.tg.mt.is_soluble()
        self.nilpotent = self.tg.mt.is_nilpotent()

    def residual_order(self) -> int:
        if self._residual is None:
            self._residual = self._oracles.nilpotent_residual_order(self.tg)
        return self._residual


def _block_part(order: int, primes: list) -> int:
    """Largest divisor of order supported on the given primes."""
    part = 1
    for p in primes:
        while (order // part) % p == 0:
            part *= p
    return part


def check(results: list[QueryResult]) -> tuple[int, list[str]]:
    """Failed queries and descriptions, wherever the oracle decides a field.

    At sigma1, or any partition that separates the subgroup's primes, the
    oracle decides solubility, nilpotency and the nilpotent residual order.
    For every partition it decides sigma-nilpotency (a normal subgroup of each
    block's order exists) and the complete Hall sigma-set (a subgroup of each
    block's order exists; the member orders are those block orders).
    """
    cache: dict[tuple, OracleAnswers] = {}
    problems = []
    for res in results:
        q = res.query
        if not res.ok:
            problems.append(f"{q.label} {q.sigma}: {res.value}")
            continue
        key = (q.degree, q.elements)
        if key not in cache:
            cache[key] = OracleAnswers(q.degree, q.elements)
        orc = cache[key]
        f = res.value["fields"]
        parts = [_block_part(orc.order, b) for b in q.blocks]
        checks = [
            ("order", orc.order),
            ("sigma_nilpotent", all(part in orc.normal_orders for part in parts)),
            ("complete_hall_set", (parts if all(part in orc.subgroup_orders for part in parts)
                                   else None)),
        ]
        if all(len(b) == 1 for b in q.blocks):
            checks += [("sigma_soluble", orc.soluble), ("sigma_nilpotent", orc.nilpotent),
                       ("residual_order", orc.residual_order())]
        wrong = [f"{k}={f[k]!r} (oracle {v!r})" for k, v in checks if f[k] != v]
        if wrong:
            problems.append(f"{q.label} {q.sigma}: " + ", ".join(wrong))
    return len(problems), problems


# ---------------------------------------------------------------------------
# run

def run(seed: int, seconds: float, speedo: Speedometer) -> Outcome:
    results = run_pass(setup(seed, seconds), speedo)
    failed, problems = check(results)
    return summarize(results, failed, problems)


def traced(seed: int, seconds: float) -> Outcome:
    """Each query in two children forked back to back, one untraced and one
    traced (spans.Tracer.pair); the traced child's spans come back under the
    query's operation id."""
    from spans import Tracer, report_traced
    queries = setup(seed, seconds)
    tracer = Tracer()
    results: list[QueryResult] = []
    pairs: list[tuple[float, float]] = []
    for q in queries:
        halves = tracer.pair(q.label, _timed_answer, q.degree, q.words, q.sigma)
        results += [QueryResult(q, res.ok, res.value[1] if res.ok else res.value,
                                res.peak_rss_mib) for res in halves]
        if all(res.ok for res in halves):
            pairs.append((halves[0].value[0], halves[1].value[0]))
    failed, problems = check(results)
    out = Outcome(attempted=len(results), failed=failed, base="query answers",
                  problems=problems)
    return report_traced(tracer, "queries", seed, out, pairs)


def summarize(results: list[QueryResult], failed: int, problems: list[str]) -> Outcome:
    """Figures over the answered queries; counts over every query."""
    ok = [r.value for r in results if r.ok]
    times = [v["s"] for v in ok] or [0.0]
    out = Outcome(attempted=len(results), failed=failed, base="query answers",
                  problems=problems)
    out.metrics = {
        "latency_s_p50": Sample(p50(times), "s", len(times)),
        "latency_s_p90": Sample(p90(times), "s", len(times)),
        "throughput_per_s": Sample(len(ok) / sum(times) if ok else 0.0, "1/s", len(ok)),
        "cpu_s_per_op": Sample(sum(v["cpu_s"] for v in ok) / max(len(ok), 1), "s", len(ok)),
        "peak_rss_mib": Sample(max(r.peak_rss_mib for r in results), "MiB", len(results)),
    }
    out.aliases = {"query_s_p50": "latency_s_p50", "query_s_p90": "latency_s_p90",
                   "queries_per_s": "throughput_per_s"}
    return out
