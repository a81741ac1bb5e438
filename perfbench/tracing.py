"""Out-of-program tracing of pktsched's public functions.

The tracer rebinds each traced function in every ``pktsched`` module
namespace that holds it (``pktsched.engine.oblivious_schedule`` as well as
``pktsched.offline.oblivious_schedule``), so calls made between modules and
calls made from the benchmark are both seen.  Spans (name, start, end,
parent, size) are kept in flat arrays and written out when the run ends;
self time is a span's duration minus the durations of its direct children.
``model.is_feasible_set`` is only counted, to keep the overhead down.
"""

from __future__ import annotations

import gzip
import time
from array import array

# Functions timed with a span, as (module, function).
SPANNED = (
    ("offline", "opt_schedule"),
    ("offline", "oblivious_schedule"),
    ("offline", "conforming_clairvoyant"),
    ("policies", "decide"),
    ("engine", "run_policy"),
    ("engine", "run_rg_exact"),
    ("engine", "run_rg_mc"),
    ("analysis", "check_facts"),
    ("analysis", "adversary_search"),
    ("analysis", "enumerate_two_bounded"),
    ("cli", "parse_instance"),
    ("cli", "main"),
)
COUNTED = (("model", "is_feasible_set"),)

# Spans of these functions own the oblivious_schedule calls made below them.
CONTEXTS = ("engine.run_rg_exact", "engine.run_rg_mc", "analysis.adversary_search")


# What the ``size`` column of a span holds, from the call's positional
# arguments and its result.
SIZES = {
    "offline.opt_schedule": lambda args, result: len(args[0]),  # packets
    "offline.oblivious_schedule": lambda args, result: len(args[0]),  # pending
    "analysis.check_facts": lambda args, result: len(result.steps),
    "engine.run_rg_exact": lambda args, result: result[1],  # leaves
    "engine.run_rg_mc": lambda args, result: args[1],  # trials
    "analysis.adversary_search": lambda args, result: result.nodes,
    "cli.parse_instance": lambda args, result: len(result),  # packets
}


class Tracer:
    """Span recorder installed around the traced functions of one package."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.names = [f"{m}.{f}" for m, f in SPANNED]
        self.name_id = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack = [-1]
        self.counts = {f"{m}.{f}": 0 for m, f in COUNTED}
        self.bindings = []  # (module, attribute, original, wrapper)
        for nid, (module, func) in enumerate(SPANNED):
            original = getattr(modules[module], func)
            if func == "enumerate_two_bounded":
                self._bind(original, self._span_generator(original, nid))
            else:
                self._bind(original, self._span(original, nid, SIZES.get(self.names[nid])))
        for module, func in COUNTED:
            original = getattr(modules[module], func)
            self._bind(original, self._count(original, f"{module}.{func}"))

    def _bind(self, original, wrapper):
        for module in self.modules.values():
            for attr, value in vars(module).items():
                if value is original:
                    self.bindings.append((module, attr, original, wrapper))

    def install(self):
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def _open(self, nid):
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(0)
        self.stack.append(index)
        return index

    def _span(self, function, nid, size_of):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            index = self._open(nid)
            began = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                finished = clock()
                stack.pop()
                self.start[index] = began
                self.end[index] = finished
            if size_of is not None:
                self.size[index] = size_of(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _span_generator(self, function, nid):
        """A generator is traced over its whole consumption: the wrapper
        drains it inside the span and hands back an iterator."""
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            index = self._open(nid)
            began = clock()
            try:
                items = list(function(*args, **kwargs))
            finally:
                finished = clock()
                stack.pop()
                self.start[index] = began
                self.end[index] = finished
            self.size[index] = len(items)
            return iter(items)

        traced.__wrapped__ = function
        return traced

    def _count(self, function, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        counted.__wrapped__ = function
        return counted

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, self time, total time and size sums, plus the
        oblivious_schedule calls made under each context function."""
        n = len(self.start)
        count = len(self.names)
        child = [0.0] * n
        context = [-1] * n
        context_ids = {self.names.index(name) for name in CONTEXTS}
        oblivious_id = self.names.index("offline.oblivious_schedule")
        calls = [0] * count
        total = [0.0] * count
        self_time = [0.0] * count
        size = [0] * count
        under = {name: 0 for name in CONTEXTS}
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            nid = name_id[i]
            context[i] = i if nid in context_ids else (context[p] if p >= 0 else -1)
            if nid == oblivious_id and context[i] >= 0:
                under[self.names[name_id[context[i]]]] += 1
        for i in range(n - 1, -1, -1):
            duration = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += duration
            nid = name_id[i]
            calls[nid] += 1
            total[nid] += duration
            self_time[nid] += duration - child[i]
            size[nid] += self.size[i]
        functions = {
            name: {
                "calls": calls[k],
                "self_s": self_time[k],
                "total_s": total[k],
                "size": size[k],
            }
            for k, name in enumerate(self.names)
        }
        return {"functions": functions, "counts": dict(self.counts), "oblivious_under": under}

    def write(self, path):
        """Spans as gzipped TSV: name, start, end, parent index, size."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart\tend\tparent\tsize\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.size[i]}\n"
                )


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a trace summary.

    ``us_per_call`` is inclusive time per call; ``self_s`` excludes the
    time of traced callees.  A function the workload never calls reports
    zero for each of its metrics.
    """
    fn = summary["functions"]
    under = summary["oblivious_under"]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def us_per_call(name):
        return per(fn[name]["total_s"] * 1e6, fn[name]["calls"])

    opt = fn["offline.opt_schedule"]
    obl = fn["offline.oblivious_schedule"]
    facts = fn["analysis.check_facts"]
    exact = fn["engine.run_rg_exact"]
    mc = fn["engine.run_rg_mc"]
    search = fn["analysis.adversary_search"]
    parse = fn["cli.parse_instance"]
    enum = fn["analysis.enumerate_two_bounded"]
    return {
        "offline.opt_schedule.calls": opt["calls"],
        "offline.opt_schedule.self_s": opt["self_s"],
        "offline.opt_schedule.us_per_call": us_per_call("offline.opt_schedule"),
        "offline.opt_schedule.mean_packets": per(opt["size"], opt["calls"]),
        "offline.oblivious_schedule.calls": obl["calls"],
        "offline.oblivious_schedule.self_s": obl["self_s"],
        "offline.oblivious_schedule.us_per_call": us_per_call("offline.oblivious_schedule"),
        "offline.oblivious_schedule.mean_pending": per(obl["size"], obl["calls"]),
        "model.is_feasible_set.calls": summary["counts"]["model.is_feasible_set"],
        "offline.conforming_clairvoyant.calls": fn["offline.conforming_clairvoyant"]["calls"],
        "offline.conforming_clairvoyant.self_s": fn["offline.conforming_clairvoyant"]["self_s"],
        "analysis.check_facts.calls": facts["calls"],
        "analysis.check_facts.self_s": facts["self_s"],
        "analysis.check_facts.us_per_call": us_per_call("analysis.check_facts"),
        "analysis.check_facts.steps": facts["size"],
        "engine.run_policy.calls": fn["engine.run_policy"]["calls"],
        "engine.run_policy.self_s": fn["engine.run_policy"]["self_s"],
        "engine.run_policy.us_per_call": us_per_call("engine.run_policy"),
        "policies.decide.calls": fn["policies.decide"]["calls"],
        "policies.decide.self_s": fn["policies.decide"]["self_s"],
        "engine.run_rg_exact.calls": exact["calls"],
        "engine.run_rg_exact.self_s": exact["self_s"],
        "engine.run_rg_exact.us_per_call": us_per_call("engine.run_rg_exact"),
        "engine.run_rg_exact.leaves": exact["size"],
        "engine.run_rg_exact.states": under["engine.run_rg_exact"],
        "engine.run_rg_mc.trials": mc["size"],
        "engine.run_rg_mc.self_s": mc["self_s"],
        "engine.run_rg_mc.oblivious_per_trial": per(under["engine.run_rg_mc"], mc["size"]),
        "analysis.adversary_search.nodes": search["size"],
        "analysis.adversary_search.self_s": search["self_s"],
        "analysis.adversary_search.oblivious_per_node": per(
            under["analysis.adversary_search"], search["size"]
        ),
        "cli.parse_instance.calls": parse["calls"],
        "cli.parse_instance.self_s": parse["self_s"],
        "cli.parse_instance.packets_per_s": per(parse["size"], parse["self_s"]),
        "cli.main.self_s": fn["cli.main"]["self_s"],
        "analysis.enumerate_two_bounded.instances": enum["size"],
        "analysis.enumerate_two_bounded.self_s": enum["self_s"],
    }
