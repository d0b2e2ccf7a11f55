"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the sepstore modules from outside the
program: each wrapper records a span (name, start, end, parent) at the
layer boundary.  Spans are aggregated in memory as they close -- a traced
fuzz pass makes millions of `Tester.member` calls, far too many to keep
one record each -- into, per span name:

    calls      number of spans
    incl_s     time of outermost spans (recursive re-entry is not counted
               twice)
    self_s     span time minus the time of the child spans it encloses

`semantics` and `logic` import most helpers by name, so a function is
rebound in every loaded sepstore module that holds it, not just in the
module that defines it.
"""

import sys
import time


class Tracer:
    def __init__(self):
        self.stats = {}       # span name -> [calls, incl_s, self_s]
        self.counts = {}      # counter name -> int
        self._stack = []      # child time of each open span
        self._depth = {}      # span name -> open spans of that name

    def wrap(self, name, fn, on_result=None):
        """A traced stand-in for `fn` that records span `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._depth.setdefault(name, 0)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dt - child[0]
                if not depth[name]:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def rebind(self, module_name, attr, name, on_result=None):
        """Replace `module.attr` by a traced wrapper wherever a loaded
        sepstore module imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("sepstore"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
        return traced

    def patch_method(self, cls, attr, name):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def patch_dict(self, table, name_of):
        for key, fn in list(table.items()):
            table[key] = self.wrap(name_of(key), fn)

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def install(testers):
    """Instrument the sepstore layers; every Tester created afterwards is
    appended to `testers` so its caches and counters can be read."""
    from sepstore import fuzz, interp, logic, semantics

    tracer = Tracer()
    tracer.rebind("sepstore.grammar", "parse", "grammar.parse")
    for attr in ("canon_key", "substitute", "free_vars"):
        tracer.rebind("sepstore.syntax", attr, f"syntax.{attr}")

    def fuel_check(out):
        if isinstance(out, interp.OutOfFuel):
            tracer.count("interp.out_of_fuel")

    for attr in ("exec_cmd", "run_codeval"):
        tracer.rebind("sepstore.interp", attr, "interp.exec", fuel_check)

    Tester = semantics.Tester
    tracer.patch_method(Tester, "member", "semantics.member")
    tracer.patch_method(Tester, "sem_triple_at", "semantics.sem_triple")
    tracer.patch_method(Tester, "universe", "semantics.universe")
    init = Tester.__init__

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        testers.append(self)

    Tester.__init__ = register

    for attr in ("check_proof", "entail_basic", "apply_rule"):
        tracer.rebind("sepstore.logic", attr, f"logic.{attr}")
    tracer.patch_dict(logic.RULES, lambda rule: f"logic.rule.{rule}")

    tracer.rebind("sepstore.fuzz", "judge", "fuzz.judge")
    tracer.patch_dict(fuzz.GENERATORS, lambda rule: "fuzz.generate")
    return tracer


def tester_counts(testers):
    """Counters the semantic layer keeps itself, summed over testers."""
    return {
        "semantics.member_cache_entries":
            sum(len(t._member_cache) for t in testers),
        "semantics.universe_heaps":
            sum(len(t._universe) for t in testers if t._universe is not None),
        "semantics.samples": sum(t.samples for t in testers),
        "semantics.inconclusive": sum(t.inconclusive for t in testers),
    }
