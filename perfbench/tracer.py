"""Call tracing for the benchmark's traced runs, installed from outside.

The tracer replaces functions where their callers look them up (a module
global or a class attribute) with timed wrappers, and puts every original
back on exit. Hot per-observation calls only add to aggregated counters:
the number of calls and the self time, which is a call's duration minus the
part of it spent in other traced calls. Coarse boundaries (suite stages,
episodes, stream passes) also record a span with its parent, kept in
memory until the run writes them out.

Nothing here changes what the wrapped functions compute, so a traced run
must reproduce the untraced output bytes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self._frames = [0.0]  # child time of each open traced call
        self._open_spans: list[int | None] = [None]
        self._patches: list[tuple] = []
        self._origin = clock()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        stat = self._stat(name)
        frames = self._frames

        def timed(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - frames.pop()
                frames[-1] += elapsed

        return timed

    @contextmanager
    def span(self, name: str):
        stat = self._stat(name)
        span = [len(self.spans), self._open_spans[-1], name, 0.0, 0.0]
        self.spans.append(span)
        self._open_spans.append(span[0])
        self._frames.append(0.0)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            elapsed = end - start
            stat[0] += 1
            stat[1] += elapsed - self._frames.pop()
            self._frames[-1] += elapsed
            self._open_spans.pop()
            span[3] = start - self._origin
            span[4] = end - self._origin

    def wrap_span(self, name: str, fn):
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _trace(self, owner, attr: str, name: str, span: bool = False) -> None:
        original = getattr(owner, attr)
        self.patch(owner, attr, (self.wrap_span if span else self.wrap)(name, original))

    @contextmanager
    def installed(self):
        """Wrap every traced layer of nodeban for the duration of the block."""
        from nodeban import belief, cli, experiments, hiper, model, policies, simulator

        try:
            for stage in ("run_suite", "smooth_records", "emit_csv"):
                self._trace(experiments, stage, f"experiments.{stage}", span=True)
            self._trace(experiments, "run_episode", "simulator.run_episode", span=True)
            self._trace(experiments, "sample_experiment", "simulator.sample_experiment")
            self._trace(experiments.PolicySpec, "build", "experiments.policy_build")
            self._trace(simulator, "node_rng", "simulator.node_rng")
            self.patch(
                simulator,
                "simulate_node",
                self._simulate_node(simulator.simulate_node, model.NodeType.HONEST),
            )
            self._trace(simulator, "realized_loss", "model.realized_loss")
            for module in (belief, policies):
                self._trace(module, "posterior", "belief.posterior")
                self._trace(module, "update", "belief.update")
            self._trace(policies, "lookahead_value", "policies.lookahead_value")
            self._trace(hiper.HiperPolicy, "observe", "hiper.observe")
            self._trace(policies.MyopicPolicy, "observe", "policies.observe")
            self._trace(policies.OptimisticPolicy, "observe", "policies.observe")
            self._trace(policies.LookaheadPolicy, "observe", "policies.lookahead.observe")
            self.patch(cli, "json", _TracedJson(self, cli.json))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _simulate_node(self, simulate_node, honest):
        """Trace simulate_node and count the observations it draws, which it
        does up front for the node's whole stay: the horizon for a malicious
        node, departure - 1 steps (capped at the horizon) for an honest one,
        none when the policy removes the node before any observation."""
        timed = self.wrap("simulator.simulate_node", simulate_node)

        def counted(policy, node_type, draw, rng, node_id=0):
            record = timed(policy, node_type, draw, rng, node_id)
            if record.removal_step != 0.0:
                drawn = draw.horizon
                if node_type is honest and record.departure_step <= draw.horizon:
                    drawn = int(record.departure_step) - 1
                self.count("obs_drawn", drawn)
            return record

        return counted

    def write(self, path) -> None:
        """Write the spans and counters as JSON."""
        doc = {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start_s": s[3], "end_s": s[4]}
                for s in self.spans
            ],
            "stats": {name: {"calls": c, "self_s": t} for name, (c, t) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        os.replace(tmp, path)


class _TracedJson:
    """Stands in for the json module inside nodeban.cli: times parsing of
    input events and serialising of verdicts, passes everything else on."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._module = module
        self.loads = tracer.wrap("cli.json_parse", module.loads)
        self.dumps = tracer.wrap("cli.json_write", module.dumps)

    def __getattr__(self, name):
        return getattr(self._module, name)
