"""Outside-in tracing of regpow: timing wrappers around each layer's public functions.

Nothing under src/ knows about this module.  `install()` replaces every
binding of a traced function -- the defining module, each `from ... import`
copy in another regpow module, the package namespace, or the class for a
method -- with a wrapper that counts calls and measures inclusive time and
self time (time not spent inside another traced call).  Memo traffic is read
from the `cache_info()` of the engine's lru caches.

`snapshot()` returns plain JSON-able numbers; `layer_metrics` turns snapshots
of the setup, cold and warm phases into the named per-layer metrics.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

NEG_INF = float("-inf")

LAYERS = ("monomials", "modules", "betti", "regfun", "families", "specfile", "cli")


def _bind_everywhere(original, replacement):
    """Point every regpow module attribute that is `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "regpow" or name.startswith("regpow."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self_s, inclusive_s, depth]
        self.counts = Counter()
        self.memos = {}
        self._stack = []  # [name, time spent in traced children]

    def _wrap(self, name, fn, on_return=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            stat[0] += 1
            stat[3] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[3] -= 1
                stat[1] += elapsed - frame[1]
                if not stat[3]:
                    stat[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, result, stack[-1][0] if stack else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _function(self, module, attr, on_return=None):
        original = getattr(module, attr)
        layer = module.__name__.rpartition(".")[2]
        _bind_everywhere(original, self._wrap(f"{layer}.{attr}", original, on_return))

    def _method(self, layer, cls, attr, on_return=None):
        setattr(cls, attr, self._wrap(f"{layer}.{attr}", getattr(cls, attr), on_return))

    def install(self):
        m = importlib.import_module("regpow.monomials")
        mod = importlib.import_module("regpow.modules")
        b = importlib.import_module("regpow.betti")
        rf = importlib.import_module("regpow.regfun")
        fam = importlib.import_module("regpow.families")
        spec = importlib.import_module("regpow.specfile")
        cli = importlib.import_module("regpow.cli")
        counts = self.counts
        saturate_stat = self.stats.setdefault("monomials.saturate", [0, 0.0, 0.0, 0])

        def power_out(args, result, parent):
            counts["monomials.power.gens_out"] += len(result.gens)

        def colon_round(args, result, parent):
            if saturate_stat[3]:
                counts["monomials.saturate.colon_calls"] += 1

        def scanned(args, result, parent):
            counts["monomials.contains.gens_scanned"] += len(args[0].gens)

        def kept(args, result, parent):
            counts["monomials.minimalize.gens_out"] += len(result.gens)

        def resolved(args, result, parent):
            if result != NEG_INF:
                counts["betti.regularity.nonzero"] += 1

        def by_top_degree(args, result, parent):
            if parent == "betti.regularity":
                counts["betti.regularity.artinian"] += 1

        def by_table(args, result, parent):
            if parent == "betti.regularity":
                counts["betti.regularity.by_table"] += 1

        self._method("monomials", m.MonomialIdeal, "power", power_out)
        self._method("monomials", m.MonomialIdeal, "saturate")
        self._method("monomials", m.MonomialIdeal, "colon_ideal", colon_round)
        self._method("monomials", m.MonomialIdeal, "intersect")
        self._method("monomials", m.MonomialIdeal, "contains", scanned)

        original_minimalize = m.minimalize

        def minimalize(ring, gens):
            gens = list(gens)
            counts["monomials.minimalize.gens_in"] += len(gens)
            return original_minimalize(ring, gens)

        _bind_everywhere(original_minimalize, self._wrap("monomials.minimalize", minimalize, kept))

        self._function(mod, "is_artinian")
        self._function(mod, "top_degree", by_top_degree)
        self._function(mod, "hilbert")

        memo = b._betti_table_memo
        original_table = b.betti_table

        def betti_table(module, *args, **kwargs):
            misses = memo.cache_info().misses
            table = original_table(module, *args, **kwargs)
            if memo.cache_info().misses > misses:
                counts["betti.box_points"] += box_points(module)
            return table

        _bind_everywhere(original_table, self._wrap("betti.betti_table", betti_table, by_table))
        self._function(b, "regularity", resolved)

        for fn in ("reg_power", "reg_quotient", "reg_diff", "sdeg"):
            self._method("regfun", rf.PresentedIdeal, fn)
        self._function(rf, "defect_report")
        self._function(fam, "build")
        self._function(spec, "parse_spec")
        self._function(cli, "main")
        self.memos = {
            "standard_monomials": mod.standard_monomials,
            "basis": mod.basis,
            "betti_table": memo,
        }
        return self

    def snapshot(self) -> dict:
        snap = {name: list(stat[:3]) for name, stat in self.stats.items()}
        snap.update({name: [n, 0.0, 0.0] for name, n in self.counts.items()})
        for name, fn in self.memos.items():
            info = fn.cache_info()
            snap[f"memo.{name}.hits"] = [info.hits, 0.0, 0.0]
            snap[f"memo.{name}.misses"] = [info.misses, 0.0, 0.0]
            snap[f"memo.{name}.entries"] = [info.currsize, 0.0, 0.0]
        return snap


def box_points(module) -> int:
    """Multidegrees in the lcm box of the module's generators: the box the Betti table enumerates."""
    points = 1
    for a, b in zip(module.numerator.lcm_exponents(), module.denominator.lcm_exponents()):
        points *= max(a, b) + 1
    return points


def combine(snaps, sign=1) -> dict:
    """Sum (or with sign=-1, subtract from the first) snapshots entry by entry."""
    out = {}
    for k, snap in enumerate(snaps):
        s = 1 if k == 0 else sign
        for name, row in snap.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += s * row[i]
    return out


def layer_self_s(phase: dict) -> dict:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in phase.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += row[1]
    return totals


def layer_metrics(setup: dict, cold: dict, warm: dict, end: dict) -> dict:
    """Named per-layer metrics from phase snapshots (deltas) and the end-of-cold-pass state.

    Work counts and self times describe the cold pass (the `wall_s` region);
    `warm_self_s` the warm pass; `families`, `specfile` and `cli` cover every
    phase, because they are set-up work.
    """
    every = combine([setup, cold, warm])

    def get(phase, name, i=0):
        return phase.get(name, [0, 0.0, 0.0])[i]

    def calls(name):
        return get(cold, name)

    def self_s(name):
        return get(cold, name, 1)

    def incl_s(name):
        return get(cold, name, 2)

    out = {}

    out["betti.betti_table.calls"] = calls("betti.betti_table")
    out["betti.betti_table.self_s"] = self_s("betti.betti_table")
    out["betti.betti_table.warm_self_s"] = get(warm, "betti.betti_table", 1)
    points = calls("betti.box_points")
    out["betti.box_points"] = points
    out["betti.us_per_box_point"] = 1e6 * self_s("betti.betti_table") / points if points else 0.0
    nonzero = calls("betti.regularity.nonzero")
    out["betti.regularity.calls"] = calls("betti.regularity")
    out["betti.regularity.artinian_share"] = calls("betti.regularity.artinian") / nonzero if nonzero else 0.0
    for name in ("power", "saturate", "colon_ideal", "intersect", "minimalize", "contains"):
        out[f"monomials.{name}.calls"] = calls(f"monomials.{name}")
    out["monomials.power.self_s"] = self_s("monomials.power")
    out["monomials.power.gens_out"] = calls("monomials.power.gens_out")
    out["monomials.saturate.s"] = incl_s("monomials.saturate")
    sat = calls("monomials.saturate")
    out["monomials.saturate.rounds"] = calls("monomials.saturate.colon_calls") / sat if sat else 0.0
    out["monomials.intersect.self_s"] = self_s("monomials.intersect")
    out["monomials.minimalize.self_s"] = self_s("monomials.minimalize")
    gens_in = calls("monomials.minimalize.gens_in")
    out["monomials.minimalize.keep_ratio"] = calls("monomials.minimalize.gens_out") / gens_in if gens_in else 0.0
    out["monomials.contains.self_s"] = self_s("monomials.contains")
    out["monomials.contains.gens_scanned"] = calls("monomials.contains.gens_scanned")
    for name in ("is_artinian", "top_degree"):
        out[f"modules.{name}.calls"] = calls(f"modules.{name}")
        out[f"modules.{name}.self_s"] = self_s(f"modules.{name}")
    out["modules.hilbert.calls"] = calls("modules.hilbert")
    out["modules.standard_monomials.hits"] = calls("memo.standard_monomials.hits")
    out["modules.standard_monomials.misses"] = calls("memo.standard_monomials.misses")
    out["modules.basis.misses"] = calls("memo.basis.misses")
    out["modules.memo_entries"] = get(end, "memo.standard_monomials.entries") + get(end, "memo.basis.entries")
    for fn in ("reg_power", "reg_quotient", "reg_diff", "sdeg"):
        out[f"regfun.{fn}.calls"] = calls(f"regfun.{fn}")
        out[f"regfun.{fn}.s"] = incl_s(f"regfun.{fn}")
    layers = layer_self_s(cold)
    for layer in ("monomials", "modules", "betti", "regfun"):
        out[f"{layer}.self_s"] = layers[layer]
    out["families.build.s"] = get(every, "families.build", 2)
    out["specfile.parse_spec.s"] = get(every, "specfile.parse_spec", 2)
    out["cli.main.self_s"] = get(every, "cli.main", 1)
    return out
