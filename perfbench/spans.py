"""Span tracing around the calls the benchmark makes into elastika.

`Tracer.install` replaces the package's public functions with timing
wrappers, in every namespace that calls them (for example both
`elastika.buffering.apply` and the `apply` that `elastika.bench` imported),
and `restore` puts the originals back.  Each call leaves one span: name,
tag (policy or mode), start, end, parent span and operation id.  Spans stay
in memory until the run ends; `layer_metrics` turns them into the per-layer
figures and `dump` writes them out.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

LAYERS = ("frontend", "depgraph", "buffering", "sim", "metrics", "netlist",
          "bench", "harness")

# Span fields, by index.
NAME, TAG, START, END, PARENT, OP, COUNT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        self.events: list[tuple[int, float]] = []   # async runs: (seq, s)
        self._patched: list[tuple[object, object, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, tag: str = "") -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, tag, time.perf_counter(), 0.0, parent,
                           self.op, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int, count=None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][COUNT] = count
        self.stack.pop()

    def wrap(self, name: str, fn, tag=None, count=None, refused=()):
        """fn with a span around each call.  tag(args, kwargs) and
        count(result) label the span; an exception listed in `refused`
        marks it "refused", any other "raised"."""
        def traced(*args, **kwargs):
            idx = self.begin(name, tag(args, kwargs) if tag else "")
            try:
                result = fn(*args, **kwargs)
            except refused:
                self.end(idx, "refused")
                raise
            except BaseException:
                self.end(idx, "raised")
                raise
            self.end(idx, count(result) if count else None)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self, ek) -> None:
        """Wrap the public entry points of every layer of the package `ek`."""
        def policy(name):
            return lambda a, kw: name

        def mode(a, kw):
            return a[1].mode

        fe, bn, bf, mt = ek.frontend, ek.bench, ek.buffering, ek.metrics
        parse = self.wrap("frontend.parse", fe.parse)
        lower = self.wrap("frontend.lower", fe.compile,
                          count=lambda net: len(net.links))
        for owner, attr, fn in ((fe, "parse", parse), (fe, "compile", lower),
                                (bn, "parse", parse),
                                (bn, "compile_module", lower)):
            self._patch(owner, attr, fn)
        self._patch(ek.depgraph, "build", self.wrap(
            "depgraph.build", ek.depgraph.build,
            count=lambda g: len(g.edges)))
        for name in ("simple", "loop", "pac"):
            fn = self.wrap("buffering.plan", getattr(bf, f"policy_{name}"),
                           tag=policy(name))
            self._patch(bf, f"policy_{name}", fn)
            self._patch(bn.POLICIES, name, fn)
        # An apply span's tag is the size of the plan it splices.
        apply = self.wrap("buffering.apply", bf.apply,
                          tag=lambda a, kw: str(len(a[1])))
        self._patch(bf, "apply", apply)
        self._patch(bn, "apply", apply)
        run = self.wrap("sim.run", ek.sim.run, tag=mode, count=lambda rep: (
            sum(len(v) for v in rep.results.values()),
            len(rep.occupancy_series)))
        self._patch(ek.sim, "run", run)
        self._patch(bn, "run", run)
        sim_run = ek.engine.Simulation.run

        def counted_run(sim):
            t0 = time.perf_counter()
            report = sim_run(sim)
            if sim.cfg.mode == "async":
                self.events.append((sim.seq, time.perf_counter() - t0))
            return report
        self._patch(ek.engine.Simulation, "run", counted_run)
        power = self.wrap("metrics.power", mt.power)
        self._patch(mt, "power", power)
        self._patch(bn, "power", power)
        self._patch(mt, "area", self.wrap("metrics.area", mt.area))
        self._patch(mt, "analytic_throughput", self.wrap(
            "metrics.bound", mt.analytic_throughput,
            refused=mt.TooManyCycles))
        self._patch(ek.netlist, "dumps", self.wrap(
            "netlist.dumps", ek.netlist.dumps, count=len))
        self._patch(ek.netlist, "loads", self.wrap(
            "netlist.loads", ek.netlist.loads))
        self._patch(bn, "run_cell", self.wrap("bench.run_cell", bn.run_cell))

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        fields = ("name", "tag", "start", "end", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures: mean inclusive ms per call and mean counts per
        call (set-up included), and each layer's self time as a share of
        the measured operations."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        self_time = {layer: 0.0 for layer in LAYERS}
        total = 0.0
        calls: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            calls.setdefault(span[NAME], []).append(span)
            if span[OP] == "setup":
                continue   # shares cover the measured operations only
            dur = span[END] - span[START]
            self_time[span[NAME].split(".")[0]] += dur - child[i]
            if span[PARENT] < 0:
                total += dur

        def mean_ms(spans) -> float:
            return (1000.0 * sum(s[END] - s[START] for s in spans) / len(spans)
                    if spans else 0.0)

        def mean(values) -> float:
            return sum(values) / len(values) if values else 0.0

        def tagged(name, tag):
            return [s for s in calls.get(name, []) if s[TAG] == tag]

        applies = calls.get("buffering.apply", [])
        buffers = sum(int(s[TAG]) for s in applies)
        runs = [s for s in calls.get("sim.run", []) if s[COUNT] != "raised"]
        bounds = calls.get("metrics.bound", [])
        events = sum(n for n, _ in self.events)
        event_s = sum(t for _, t in self.events)
        ms = "ms"
        out = {
            "buffering.apply_ms": (mean_ms(applies), ms),
            "buffering.apply_ms_per_buffer": (
                1000.0 * sum(s[END] - s[START] for s in applies) / buffers
                if buffers else 0.0, ms),
            "buffering.buffers": (buffers / len(applies) if applies else 0.0,
                                  "count"),
        }
        for name in ("simple", "loop", "pac"):
            out[f"buffering.plan_ms.{name}"] = (
                mean_ms(tagged("buffering.plan", name)), ms)
        out["depgraph.build_ms"] = (mean_ms(calls.get("depgraph.build", [])),
                                    ms)
        out["depgraph.edges"] = (mean([s[COUNT] for s in calls.get(
            "depgraph.build", []) if s[COUNT] != "raised"]), "count")
        for m in ("async", "sync"):
            out[f"sim.run_ms.{m}"] = (mean_ms(tagged("sim.run", m)), ms)
        out["sim.results"] = (mean([s[COUNT][0] for s in runs]), "count")
        out["sim.buffer_transitions"] = (mean([s[COUNT][1] for s in runs]),
                                         "count")
        out["sim.events"] = (mean([n for n, _ in self.events]), "count")
        out["sim.events_per_s"] = (events / event_s if event_s else 0.0,
                                   "1/s")
        out["metrics.bound_ms"] = (mean_ms(bounds), ms)
        out["metrics.bound_refused"] = (
            float(sum(1 for s in bounds if s[COUNT] == "refused")), "count")
        out["metrics.power_ms"] = (mean_ms(calls.get("metrics.power", [])), ms)
        out["metrics.area_ms"] = (mean_ms(calls.get("metrics.area", [])), ms)
        out["frontend.parse_ms"] = (mean_ms(calls.get("frontend.parse", [])),
                                    ms)
        out["frontend.lower_ms"] = (mean_ms(calls.get("frontend.lower", [])),
                                    ms)
        out["ir.links"] = (mean([s[COUNT] for s in calls.get(
            "frontend.lower", []) if s[COUNT] != "raised"]), "count")
        out["netlist.dumps_ms"] = (mean_ms(calls.get("netlist.dumps", [])), ms)
        out["netlist.loads_ms"] = (mean_ms(calls.get("netlist.loads", [])), ms)
        out["netlist.bytes"] = (mean([s[COUNT] for s in calls.get(
            "netlist.dumps", []) if s[COUNT] != "raised"]), "count")
        out["bench.verify_ms"] = (mean_ms(calls.get("bench.verify", [])), ms)
        for layer in LAYERS:
            out[f"share.{layer}"] = (
                100.0 * self_time[layer] / total if total else 0.0, "%")
        out["trace.spans"] = (float(len(self.spans)), "count")
        return out
