"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the sigmagroups modules from outside the
package: each wrapped call records one span (id, name, start, end, parent span,
operation id) and bumps the per-name call count, self time and inclusive time.
Self time is the span's duration minus the time covered by its child spans.

Spans are kept in memory in flat arrays and written out when the run ends.
Wrappers are installed on a module attribute or class attribute and removed by
``uninstall``, so an untraced pass in the same process sees the original code.

The tracer's overhead is measured in pairs: each operation (a campaign group,
a query, a chain group) runs untraced and then traced, back to back and from
the same state, and the overhead is the sum of traced minus untraced seconds
over the pairs.  Pairing in time keeps the host's drift in speed, which runs
over seconds to minutes, out of the difference.  The untraced half always
runs in a forked child.  The traced half runs in a second child (``pair``,
which alternates the order of the two), or after it in this process while an
idle forked child keeps its pages shared (``untraced_in_child`` and
``shared_pages``), so that both halves pay the same copy-on-write costs.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import os
import time
from array import array

from common import Sample, out_path, run_forked

# Layer -> (module attribute or "Class.method", short metric name) pairs.
# Module functions are wrapped in their home module and in every sigmagroups
# module that imported them by name, so no call goes uncounted.
PERMCORE = [("PermGroup.__init__", "PermGroup"), ("Subgroup.__init__", "Subgroup"),
            ("PermGroup.elements", "elements"), ("PermGroup.__contains__", "contains"),
            ("interned", "interned")]
STRUCTURE = ["all_subgroups", "normal_subgroups", "subgroup_from_images",
             "quotient_group", "supplements", "sylow_subgroup", "hall_subgroup",
             "chief_series", "conjugate_image_sets", "maximal_subgroups_of_p_group",
             "frattini_subgroup", "intersection_subgroup", "is_normal"]
SIGMA = ["is_sigma_permutable", "sigma_permutable_sets", "psigma_t_violation",
         "is_sigma_soluble", "is_sigma_nilpotent", "sigma_nilpotent_residual",
         "sigma_full_sylow_type_violation", "complete_hall_sigma_set",
         "induces_power_automorphisms", "largest_normal_block_subgroup",
         "is_pi_separable"]
# statement id -> harness function; ThmA.* share verify_theorem_A, split by class
STATEMENTS = {"ThmA.i": "verify_theorem_A", "ThmA.ii": "verify_theorem_A",
              "ThmA.iii": "verify_theorem_A", "Cor1.1": "verify_cor_1_1",
              "Cor1.2": "verify_cor_1_2", "Lem2.1": "verify_lemma_2_1",
              "Lem2.2": "verify_lemma_2_2", "Lem2.3": "verify_lemma_2_3",
              "Lem2.4": "verify_lemma_2_4", "Lem2.5.fwd": "verify_lemma_2_5_forward",
              "Lem2.5.conv": "verify_lemma_2_5_converse_search"}
LAYERS = ("permcore", "structure", "sigma", "harness", "corpus", "cli")


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    specs = []

    def add(name, unit, better):
        specs.append({"name": name, "unit": unit, "better": better})

    for _, short in PERMCORE:
        add(f"permcore.{short}.calls", "count", "lower")
        add(f"permcore.{short}.self_s", "s", "lower")
    add("permcore.interned.hit_ratio", "ratio", "higher")
    for layer, names in (("structure", STRUCTURE), ("sigma", SIGMA)):
        for fn in names:
            add(f"{layer}.{fn}.calls", "count", "lower")
            add(f"{layer}.{fn}.self_s", "s", "lower")
    for sid in STATEMENTS:
        add(f"harness.{sid}.calls", "count", "lower")
        add(f"harness.{sid}.s", "s", "lower")
    add("harness.verify_group.self_s", "s", "lower")
    add("corpus.build.calls", "count", "lower")
    add("corpus.build.self_s", "s", "lower")
    add("cli.main.self_s", "s", "lower")
    for layer in LAYERS:
        add(f"layer.{layer}.self_s", "s", "lower")
    add("trace.spans", "count", "lower")
    add("trace.overhead_s", "s", "lower")
    return specs


class Tracer:
    """Records spans and per-name call counts, self and inclusive seconds."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.ops: list[str] = []
        self._op_idx: dict[str, int] = {}
        self.op = -1
        # one span per index: id is the index; parent is -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op_of = array("l")
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, inclusive_s]
        self.interned_hits = 0
        self._stack: list[list] = []       # [span id, child seconds]
        self._installed: list[tuple] = []
        self._pairs = 0                    # calls of pair() so far

    # -- identifiers

    def _intern_name(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return idx

    def set_op(self, op: str) -> None:
        idx = self._op_idx.get(op)
        if idx is None:
            idx = self._op_idx[op] = len(self.ops)
            self.ops.append(op)
        self.op = idx

    # -- wrapping

    def wrap(self, fn, name, on_result=None):
        """Wrap fn; name is a string or a callable of the call's arguments."""
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        fixed = None if callable(name) else self._intern_name(name)

        def traced(*args, **kwargs):
            idx = fixed if fixed is not None else tracer._intern_name(name(*args, **kwargs))
            sid = len(tracer.start)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.name.append(idx)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_of.append(tracer.op)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                st = tracer.stats[tracer.names[idx]]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function of the sigmagroups package."""
        import sigmagroups
        from sigmagroups import cli, corpus, harness, permcore, sigma, structure
        modules = [sigmagroups, permcore, structure, sigma, harness, corpus, cli]

        def everywhere(home, attr, wrapper):
            original = getattr(home, attr)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self.patch(mod, attr, wrapper)

        for attr, short in PERMCORE:
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(permcore, cls)
                self.patch(owner, meth, self.wrap(getattr(owner, meth), f"permcore.{short}"))
        everywhere(permcore, "interned",
                   self.wrap(permcore.interned, "permcore.interned",
                             on_result=self._count_intern_hit))
        for fn in STRUCTURE:
            everywhere(structure, fn, self.wrap(getattr(structure, fn), f"structure.{fn}"))
        for fn in SIGMA:
            everywhere(sigma, fn, self.wrap(getattr(sigma, fn), f"sigma.{fn}"))
        thma = {cls: sid for sid, cls in harness._THMA_CLASS.items()}
        everywhere(harness, "verify_theorem_A", self.wrap(
            harness.verify_theorem_A, lambda G, sigma, cls, *a, **k: f"harness.{thma[cls]}"))
        for sid, fn in STATEMENTS.items():
            if fn != "verify_theorem_A":
                everywhere(harness, fn, self.wrap(getattr(harness, fn), f"harness.{sid}"))
        everywhere(harness, "verify_group", self._with_op(
            self.wrap(harness.verify_group, "harness.verify_group"),
            lambda entry, *a, **k: entry.name))
        self.patch(corpus.CorpusEntry, "build",
                   self.wrap(corpus.CorpusEntry.build, "corpus.build"))
        self.patch(cli, "main", self.wrap(cli.main, "cli.main"))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def pair(self, op: str, fn, *args):
        """fn(*args) in two children forked back to back from this process's
        state: one untraced, one traced by a fresh tracer whose spans are
        merged here under operation op.  Returns the untraced and the traced
        common.ForkResult, each holding fn's return value.  The order of the
        two alternates from call to call: the second child runs on CPU caches
        the first warmed, which favours it."""
        order = (True, False) if self._pairs % 2 else (False, True)
        self._pairs += 1
        halves = {traced: run_forked(_child, self, traced, fn, args) for traced in order}
        plain, traced = halves[False], halves[True]
        if plain.ok:
            plain.value = plain.value[0]
        if traced.ok:
            traced.value, spans = traced.value
            self.merge(spans, op)
        return plain, traced

    def untraced_in_child(self, fn, *args):
        """fn(*args) with every wrapper removed, in a child forked from this
        process's current state; returns the common.ForkResult."""
        res = run_forked(_child, self, False, fn, args)
        if res.ok:
            res.value = res.value[0]
        return res

    def exclude(self, seconds: float) -> None:
        """Count seconds spent outside the traced code as child time of the
        open span, so that they add to no span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _with_op(self, fn, op_of):
        def scoped(*args, **kwargs):
            saved = self.op
            self.set_op(op_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.op = saved
        return scoped

    def _count_intern_hit(self, args, result) -> None:
        if result is not args[0]:
            self.interned_hits += 1

    # -- merging and reporting

    def export(self) -> dict:
        """Plain-data form, for sending a child's spans to its parent."""
        return {"names": self.names, "ops": self.ops, "start": self.start.tobytes(),
                "end": self.end.tobytes(), "name": self.name.tobytes(),
                "parent": self.parent.tobytes(), "op_of": self.op_of.tobytes(),
                "stats": self.stats, "interned_hits": self.interned_hits}

    def merge(self, data: dict, op: str) -> None:
        """Append a child's exported spans, all under the given operation id."""
        self.set_op(op)
        offset = len(self.start)
        name_map = [self._intern_name(n) for n in data["names"]]
        cols = {}
        for key, code in (("start", "d"), ("end", "d"), ("name", "l"), ("parent", "l")):
            cols[key] = array(code)
            cols[key].frombytes(data[key])
        self.start.extend(cols["start"])
        self.end.extend(cols["end"])
        self.name.extend(array("l", (name_map[i] for i in cols["name"])))
        self.parent.extend(array("l", (p + offset if p >= 0 else -1 for p in cols["parent"])))
        self.op_of.extend(array("l", [self.op]) * len(cols["start"]))
        for name, (calls, self_s, incl) in data["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += self_s
            st[2] += incl
        self.interned_hits += data["interned_hits"]

    def metrics(self, overhead_s: float) -> dict[str, float]:
        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        out: dict[str, float] = {}
        for _, short in PERMCORE:
            calls, self_s, _ = stat(f"permcore.{short}")
            out[f"permcore.{short}.calls"] = calls
            out[f"permcore.{short}.self_s"] = self_s
        calls = stat("permcore.interned")[0]
        out["permcore.interned.hit_ratio"] = self.interned_hits / calls if calls else 0.0
        for layer, names in (("structure", STRUCTURE), ("sigma", SIGMA)):
            for fn in names:
                calls, self_s, _ = stat(f"{layer}.{fn}")
                out[f"{layer}.{fn}.calls"] = calls
                out[f"{layer}.{fn}.self_s"] = self_s
        for sid in STATEMENTS:
            calls, _, incl = stat(f"harness.{sid}")
            out[f"harness.{sid}.calls"] = calls
            out[f"harness.{sid}.s"] = incl
        out["harness.verify_group.self_s"] = stat("harness.verify_group")[1]
        calls, self_s, _ = stat("corpus.build")
        out["corpus.build.calls"] = calls
        out["corpus.build.self_s"] = self_s
        out["cli.main.self_s"] = stat("cli.main")[1]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                st[1] for name, st in self.stats.items() if name.split(".")[0] == layer)
        out["trace.spans"] = len(self.start)
        out["trace.overhead_s"] = overhead_s
        return out

    def table(self) -> list[dict]:
        """Per-function rows: layer, name, calls, self and inclusive seconds."""
        rows = [{"layer": name.split(".")[0], "name": name, "calls": st[0],
                 "self_s": st[1], "inclusive_s": st[2]}
                for name, st in self.stats.items()]
        rows.sort(key=lambda r: (LAYERS.index(r["layer"]), -r["self_s"]))
        return rows

    def write_spans(self, path: str) -> None:
        """Tab-separated spans (id, name, start, end, parent, op), gzipped."""
        t0 = min(self.start) if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            names, ops = self.names, self.ops
            for sid in range(len(self.start)):
                op = self.op_of[sid]
                fh.write(f"{sid}\t{names[self.name[sid]]}\t{self.start[sid] - t0:.7f}\t"
                         f"{self.end[sid] - t0:.7f}\t{self.parent[sid]}\t"
                         f"{ops[op] if op >= 0 else '-'}\n")


@contextlib.contextmanager
def shared_pages():
    """Keep an idle forked child alive for the duration, so that this
    process's memory writes pay the same copy-on-write faults as those of a
    child forked from it."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the idle child: waits for the pipe to close, then exits
        os.close(wfd)
        os.read(rfd, 1)
        os._exit(0)
    os.close(rfd)
    try:
        yield
    finally:
        os.close(wfd)
        os.waitpid(pid, 0)


def _child(outer: Tracer, traced: bool, fn, args) -> tuple:
    """The body of one half of Tracer.pair, in the forked child: drops the
    parent's wrappers, then runs fn(*args), traced by a fresh tracer or not.
    Returns fn's value and the exported spans (None when untraced)."""
    outer.uninstall()
    if not traced:
        return fn(*args), None
    tracer = Tracer()
    tracer.install()
    try:
        value = fn(*args)
    finally:
        tracer.uninstall()
    return value, tracer.export()


def report_traced(tracer: Tracer, workload: str, seed: int, outcome,
                  pairs: list[tuple[float, float]]):
    """Replace the outcome's metrics by the per-layer ones and write the spans
    and the per-layer table as run artifacts.  pairs holds each operation's
    (untraced, traced) wall seconds, measured back to back; the overhead is
    the sum of their differences."""
    untraced_s = sum(u for u, _ in pairs)
    traced_s = sum(t for _, t in pairs)
    overhead = traced_s - untraced_s
    units = {spec["name"]: spec["unit"] for spec in metric_specs()}
    outcome.metrics = {name: Sample(value, units[name], 1)
                       for name, value in tracer.metrics(overhead).items()}
    stem = f"{workload}-seed{seed}"
    tracer.write_spans(out_path(f"{stem}-spans.tsv.gz"))
    with open(out_path(f"{stem}-layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "pairs": len(pairs),
                   "untraced_s": untraced_s, "traced_s": traced_s, "overhead_s": overhead,
                   "metrics": {k: s.value for k, s in outcome.metrics.items()},
                   "functions": tracer.table()}, fh, indent=1)
    return outcome
