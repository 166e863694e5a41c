"""The `chains` workload: Schreier-Sims chain builds and membership sifts.

Each group comes from a family with a closed-form order: S_n, A_n, the
imprimitive wreath product S_k wr S_m and AGL(1, p), at degrees 16 to 40.  It
is relabelled by a seeded random point permutation, and its generating set is
padded with random words in its generators.  Each group gets seeded membership
tests: half are words in the generators, half uniform random permutations.
Answers are checked against the closed-form order and an independent family
test (parity, the relabelled block system, affinity).

Groups run in rounds of one group per entry of ROUND, in this process, each
group once.  The number of rounds follows from the time budget alone, never
from how fast the code runs, so the same seed and budget always give the
same groups.  A group's build time depends on its random generators (an
S_16 build's by half or more from one draw to the next), and the median
build falls among the S_16 builds, so a run holds many rounds: the median
of many S_16 builds depends little on the draw.  Building each round three
times and keeping each group's fastest repeat, over four rounds, spread the
median twice as wide.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from common import Outcome, Sample, Speedometer, p50, p90, self_peak_rss_mib

MIN_GROUPS = 100
NOMINAL_ROUND_S = 2.0   # one round at reference speed
TESTS_PER_GROUP = 40
PADDING = 2             # random words added to each generating set
ROUND = (("S", 16), ("S", 18), ("S", 20), ("S", 22),
         ("A", 17), ("A", 19), ("A", 21), ("A", 23),
         ("W", 2, 8), ("W", 4, 4), ("W", 3, 6), ("W", 5, 4), ("W", 2, 12),
         ("W", 4, 6), ("W", 3, 10), ("W", 6, 5), ("W", 2, 16), ("W", 2, 10),
         ("AGL", 17), ("AGL", 19), ("AGL", 23), ("AGL", 29), ("AGL", 31), ("AGL", 37),
         ("AGL", 41))


# ---------------------------------------------------------------------------
# families, as image tuples on 0..n-1 (composition applies p, then q)

def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(q[i] for i in p)


def _cycle(n: int, points: list[int]) -> tuple:
    img = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return tuple(img)


def family_generators(spec: tuple) -> tuple[int, list[tuple]]:
    kind = spec[0]
    if kind == "S":
        n = spec[1]
        return n, [_cycle(n, [0, 1]), _cycle(n, list(range(n)))]
    if kind == "A":
        n = spec[1]  # odd: a 3-cycle and an n-cycle generate A_n
        return n, [_cycle(n, [0, 1, 2]), _cycle(n, list(range(n)))]
    if kind == "W":
        k, m = spec[1], spec[2]
        n = k * m
        base = [_cycle(n, [0, 1]), _cycle(n, list(range(k)))]
        swap = list(range(n))
        for i in range(k):
            swap[i], swap[k + i] = k + i, i
        shift = tuple(((x // k + 1) % m) * k + x % k for x in range(n))
        return n, base + [tuple(swap), shift]
    if kind == "AGL":
        p = spec[1]
        root = next(a for a in range(2, p)
                    if len({pow(a, e, p) for e in range(1, p)}) == p - 1)
        return p, [tuple((x + 1) % p for x in range(p)), tuple(root * x % p for x in range(p))]
    raise ValueError(f"unknown family {spec!r}")


def family_order(spec: tuple) -> int:
    kind = spec[0]
    if kind == "S":
        return math.factorial(spec[1])
    if kind == "A":
        return math.factorial(spec[1]) // 2
    if kind == "W":
        k, m = spec[1], spec[2]
        return math.factorial(k) ** m * math.factorial(m)
    return spec[1] * (spec[1] - 1)


def _parity(p: tuple) -> int:
    seen = [False] * len(p)
    odd = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        odd ^= (length - 1) & 1
    return odd


def family_member(spec: tuple, relabel: tuple, p: tuple) -> bool:
    """Membership in the relabelled family group, decided without a chain."""
    kind = spec[0]
    n = len(p)
    # undo the relabelling: q = relabel p relabel^-1 acts on the original points
    inv = [0] * n
    for i, j in enumerate(relabel):
        inv[j] = i
    q = tuple(inv[p[relabel[x]]] for x in range(n))
    if kind == "S":
        return True
    if kind == "A":
        return _parity(q) == 0
    if kind == "W":
        k = spec[1]
        return all(q[x] // k == q[x - x % k] // k for x in range(n))
    b = q[0]
    a = (q[1] - b) % n
    return a != 0 and all(q[x] == (a * x + b) % n for x in range(n))


# ---------------------------------------------------------------------------
# inputs

@dataclass
class ChainInput:
    label: str
    spec: tuple
    degree: int
    relabel: tuple
    generators: list        # Perm objects, padding words included
    tests: list             # Perm objects to test for membership
    test_images: list       # the same, as image tuples, for the family check


def _word(rng: random.Random, gens: list[tuple], length: int) -> tuple:
    w = gens[rng.randrange(len(gens))]
    for _ in range(length - 1):
        w = _compose(w, gens[rng.randrange(len(gens))])
    return w


def make_round(seed: int, round_no: int) -> list[ChainInput]:
    from sigmagroups import Perm
    rng = random.Random(f"chains:{seed}:{round_no}")
    out = []
    for spec in ROUND:
        n, gens = family_generators(spec)
        relabel = list(range(n))
        rng.shuffle(relabel)
        inv = [0] * n
        for i, j in enumerate(relabel):
            inv[j] = i
        # relabel^-1 g relabel, so point relabel[x] goes where x went under g
        gens = [tuple(relabel[g[inv[y]]] for y in range(n)) for g in gens]
        gens += [_word(rng, gens, rng.randint(2, 6)) for _ in range(PADDING)]
        tests = [_word(rng, gens, rng.randint(10, 30)) for _ in range(TESTS_PER_GROUP // 2)]
        for _ in range(TESTS_PER_GROUP - len(tests)):
            p = list(range(n))
            rng.shuffle(p)
            tests.append(tuple(p))
        rng.shuffle(tests)
        out.append(ChainInput(
            label=f"r{round_no}." + "-".join(str(x) for x in spec),
            spec=spec, degree=n, relabel=tuple(relabel),
            generators=[Perm(g) for g in gens], tests=[Perm(t) for t in tests],
            test_images=tests))
    return out


def rounds_for(seconds: float) -> int:
    """Rounds in a run: the budget at the nominal round time, at least MIN_GROUPS."""
    return max(-(-MIN_GROUPS // len(ROUND)), math.ceil(seconds / NOMINAL_ROUND_S))


def setup(seed: int, seconds: float) -> list[ChainInput]:
    """The run's groups, round after round."""
    return [inp for r in range(rounds_for(seconds)) for inp in make_round(seed, r)]


# ---------------------------------------------------------------------------
# run

@dataclass
class ChainResult:
    inp: ChainInput
    build_s: float
    build_cpu_s: float
    sift_s: float
    order: int | None = None
    answers: list | None = None
    error: str | None = None


def measure(inp: ChainInput) -> ChainResult:
    """Build one group's chain and sift its membership tests."""
    from sigmagroups import PermGroup
    res = ChainResult(inp, 0.0, 0.0, 0.0)
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        G = PermGroup(inp.degree, inp.generators)
        t1 = time.perf_counter()
        c1 = time.process_time()
        answers = [p in G for p in inp.tests]
        t2 = time.perf_counter()
        res.build_s, res.build_cpu_s, res.sift_s = t1 - t0, c1 - c0, t2 - t1
        res.order, res.answers = G.order, answers
    except Exception as exc:  # a failed operation, counted by check()
        res.error = f"{type(exc).__name__}: {exc}"
    return res


def _measured_fields(inp: ChainInput) -> tuple:
    """measure(inp) as (seconds, fields), without the input, which holds
    unpicklable Perm objects."""
    res = measure(inp)
    return (res.build_s + res.sift_s,
            (res.build_s, res.build_cpu_s, res.sift_s, res.order, res.answers, res.error))


def run_pass(inputs: list[ChainInput], speedo: Speedometer) -> list[ChainResult]:
    """measure() on each input, its times then scaled to reference seconds."""
    results, spans = [], []
    for inp in inputs:
        t0 = time.perf_counter()
        results.append(measure(inp))
        spans.append((t0, time.perf_counter()))
        speedo.sample()
    for res, (t0, t1) in zip(results, spans):
        speed = speedo.speed(t0, t1)
        res.build_s *= speed
        res.build_cpu_s *= speed
        res.sift_s *= speed
    return results


def check(results: list[ChainResult]) -> tuple[int, list[str]]:
    """Failed groups and their descriptions: wrong order, wrong membership, error."""
    problems = []
    for res in results:
        inp = res.inp
        if res.error is not None:
            problems.append(f"{inp.label}: {res.error}")
            continue
        if res.order != family_order(inp.spec):
            problems.append(f"{inp.label}: order {res.order} != {family_order(inp.spec)}")
            continue
        for img, got in zip(inp.test_images, res.answers):
            if got != family_member(inp.spec, inp.relabel, img):
                problems.append(f"{inp.label}: membership of {img} answered {got}")
                break
    return len(problems), problems


def run(seed: int, seconds: float, speedo: Speedometer) -> Outcome:
    results = run_pass(setup(seed, seconds), speedo)
    failed, problems = check(results)
    done = [r for r in results if r.error is None]
    builds = [r.build_s for r in done] or [0.0]
    sifts = sum(len(r.inp.tests) for r in done)
    sift_s = sum(r.sift_s for r in done)
    out = Outcome(attempted=len(results), failed=failed, base="chain builds",
                  problems=problems)
    out.metrics = {
        "latency_s_p50": Sample(p50(builds), "s", len(builds)),
        "latency_s_p90": Sample(p90(builds), "s", len(builds)),
        "throughput_per_s": Sample(sifts / sift_s if sift_s else 0.0, "1/s", sifts),
        "cpu_s_per_op": Sample(sum(r.build_cpu_s for r in done) / max(len(done), 1), "s",
                               len(done)),
        "peak_rss_mib": Sample(self_peak_rss_mib(), "MiB", 1),
    }
    out.aliases = {"chain_build_s_p50": "latency_s_p50", "chain_build_s_p90": "latency_s_p90",
                   "sifts_per_s": "throughput_per_s"}
    return out


def traced(seed: int, seconds: float) -> Outcome:
    """Each group's build and sift in two children forked back to back, one
    untraced and one traced (spans.Tracer.pair); each group is one operation
    id in the trace."""
    from spans import Tracer, report_traced
    inputs = setup(seed, seconds)
    results: list[ChainResult] = []
    pairs: list[tuple[float, float]] = []
    tracer = Tracer()
    for inp in inputs:
        halves = tracer.pair(inp.label, _measured_fields, inp)
        for res in halves:
            results.append(ChainResult(inp, *res.value[1]) if res.ok
                           else ChainResult(inp, 0.0, 0.0, 0.0, error=str(res.value)))
        if all(res.ok for res in halves):
            pairs.append((halves[0].value[0], halves[1].value[0]))
    failed, problems = check(results)
    out = Outcome(attempted=len(results), failed=failed, base="chain builds",
                  problems=problems)
    return report_traced(tracer, "chains", seed, out, pairs)
