"""Span tracing for the benchmark's traced mode.

Tracing is installed from outside the package: every mfqec module binding
of a traced function is replaced by a wrapper, and the engine returned by
``make_engine`` is wrapped in a proxy.  Nothing under ``src/`` changes.

Layer boundaries become spans (name, start, end, parent id, trial id)
kept in memory; the per-cycle and per-sample calls are too many for one
span each, so they are aggregated into call counts and seconds.  A span's
self time is its duration minus the time its child spans and aggregated
calls cover.

Trials that run in pool workers are traced in the worker: the wrapped
``_run_trial_block`` returns its block's spans and counters with the
result, and they are merged into the point's span in the parent.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import inspect
import os
import sys
from collections import deque
from time import perf_counter

import numpy as np

from mfqec import cli, montecarlo, threshold

# Pool workers look the tracer up here: a forked worker inherits it with the
# patched modules, a spawned worker installs its own on its first block.
_ACTIVE = None


class Patches:
    """Replaces a function wherever an mfqec module (or an extra module)
    binds it, and puts every binding back on ``undo``."""

    def __init__(self):
        self._undo = []

    def replace(self, old, new, extra_modules=()):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mfqec" or name.startswith("mfqec.")]
        for mod in modules + list(extra_modules):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))

    def undo(self):
        for mod, attr, old in reversed(self._undo):
            setattr(mod, attr, old)
        self._undo.clear()


def _snapshot(state):
    """Hashable copy of an engine state taken before the engine mutates it."""
    return tuple(state) if isinstance(state, list) else state


def _stable_digest(key) -> int:
    """Process-independent 64-bit id of a cycle key (``hash`` of a str is
    salted per process, so worker sets could not be merged by it)."""
    return int.from_bytes(
        hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "little")


class TracedEngine:
    """Engine proxy that times and counts every ``run_cycle`` call and
    records its (selector, state, events) key."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_cycle(self, state, selector, events, rng=None):
        tr = self._tracer
        key = (selector, _snapshot(state),
               tuple((ev.site, ev.paulis) for ev in events))
        t0 = perf_counter()
        try:
            return self._inner.run_cycle(state, selector, events, rng)
        finally:
            d = perf_counter() - t0
            eng = tr.engine
            eng["calls"] += 1
            eng["seconds"] += d
            if events:
                eng["noisy"] += 1
                eng["events"] += len(events)
            else:
                eng["zero"] += 1
            tr.keys.add(key)
            if tr.stack:
                tr.stack[-1][3] += d


class Tracer:
    """Spans and counters of one process.  ``install`` patches the package;
    ``uninstall`` restores it."""

    LEAVES = {
        "trial.seed": (montecarlo, "trial_seed"),
        "errors.clean_run": (montecarlo, "sample_clean_run_length"),
        "errors.count_given_any": (montecarlo, "sample_error_count_given_any"),
        "errors.draw_paulis": (montecarlo, "draw_event_paulis"),
    }

    def __init__(self):
        self.pid = os.getpid()
        self.patches = Patches()
        self.block = None  # the unwrapped _run_trial_block
        self.spans = []    # [id, name, parent id, trial id, start, end, child seconds]
        self.stack = []    # open spans: [id, name, parent id, child seconds]
        self.leaf = {name: [0, 0.0] for name in self.LEAVES}
        self.engine = {}
        self.keys = set()
        self.key_digests = set()
        self.trial_ids = deque()
        self.sim_cycles = 0
        self.pools = 0
        self.inbox = []    # worker blocks, appended by the pool's result thread
        self._next_id = 0
        self._clear_counters()

    def _clear_counters(self):
        for stat in self.leaf.values():
            stat[0], stat[1] = 0, 0.0
        self.engine.update(calls=0, seconds=0.0, noisy=0, zero=0, events=0)
        self.keys.clear()
        self.key_digests.clear()
        self.sim_cycles = 0

    # -- installation -------------------------------------------------------

    def install(self):
        global _ACTIVE
        p = self.patches
        for name, (mod, attr) in self.LEAVES.items():
            fn = getattr(mod, attr)
            p.replace(fn, self._leaf(name, fn))
        p.replace(cli.run_command, self._span("cli", cli.run_command))
        p.replace(threshold.sweep_point,
                  self._span("threshold.sweep_point", threshold.sweep_point))
        p.replace(threshold.find_threshold_crossing,
                  self._span("threshold.crossing", threshold.find_threshold_crossing))
        p.replace(montecarlo.aggregate_rate_estimate,
                  self._span("estimate.bootstrap", montecarlo.aggregate_rate_estimate))
        est = montecarlo.estimate_logical_error_rate
        est_sig = inspect.signature(est)

        def enter_estimate(args, kwargs):
            n = est_sig.bind(*args, **kwargs).arguments["n_trials"]
            self.trial_ids = deque(range(n))

        p.replace(est, self._span("estimate", est, enter=enter_estimate,
                                  leave=self._merge_inbox))

        def enter_trial(args, kwargs):
            return self.trial_ids.popleft() if self.trial_ids else None

        def leave_trial(result, sid):
            self.sim_cycles += result.cycles_to_failure

        p.replace(montecarlo.run_trial,
                  self._span("trial", montecarlo.run_trial,
                             enter=enter_trial, leave=leave_trial))
        make = montecarlo.make_engine

        def traced_make_engine(*args, **kwargs):
            eng = make(*args, **kwargs)
            return eng if isinstance(eng, TracedEngine) else TracedEngine(eng, self)

        p.replace(make, traced_make_engine)
        self.block = montecarlo._run_trial_block
        p.replace(self.block, traced_trial_block)
        p.replace(concurrent.futures.ProcessPoolExecutor, _CountingPool,
                  extra_modules=[concurrent.futures])
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        self.patches.undo()
        _ACTIVE = None

    # -- wrappers -----------------------------------------------------------

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stat = self.leaf[name]
                stat[0] += 1
                stat[1] += d
                if self.stack:
                    self.stack[-1][3] += d
        return wrapper

    def _span(self, name, fn, enter=None, leave=None):
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            frame = [sid, name, parent[0] if parent else None, 0.0]
            trial = enter(args, kwargs) if enter else None
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent[3] += t1 - t0
                self.spans.append([sid, name, frame[2], trial, t0, t1, frame[3]])
            if leave:
                leave(result, sid)
            return result
        return wrapper

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    # -- worker blocks --------------------------------------------------------

    def drain(self) -> dict:
        """This process's counters and spans since the last drain, for
        shipping to the parent; the counters restart from zero."""
        data = {
            "leaf": {k: list(v) for k, v in self.leaf.items()},
            "engine": dict(self.engine),
            "key_digests": self.key_digests | {_stable_digest(k) for k in self.keys},
            "sim_cycles": self.sim_cycles,
            "trials": [s for s in self.spans if s[1] == "trial"],
        }
        self.spans.clear()
        self._clear_counters()
        return data

    def _merge_inbox(self, result, parent_sid):
        """Fold worker blocks received during one estimate into this
        process, parenting their trial spans on that estimate's span."""
        while self.inbox:
            data = self.inbox.pop()
            for name, (calls, secs) in data["leaf"].items():
                self.leaf[name][0] += calls
                self.leaf[name][1] += secs
            for name, value in data["engine"].items():
                self.engine[name] += value
            self.key_digests |= data["key_digests"]
            self.sim_cycles += data["sim_cycles"]
            for span in data["trials"]:
                self.spans.append([self._new_id(), "trial", parent_sid] + span[3:])

    # -- summary --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values (without units) from everything traced so far."""
        digests = self.key_digests | {_stable_digest(k) for k in self.keys}
        eng = self.engine
        calls = eng["calls"]

        def self_s(name):
            return sum(s[5] - s[4] - s[6] for s in self.spans if s[1] == name)

        def total(name):
            return sum(s[5] - s[4] for s in self.spans if s[1] == name)

        trial_ms = np.array([(s[5] - s[4]) * 1e3
                             for s in self.spans if s[1] == "trial"])
        out = {
            "engine.run_cycle.calls": calls,
            "engine.run_cycle.self_s": eng["seconds"],
            "engine.run_cycle.us_per_call": eng["seconds"] / calls * 1e6 if calls else 0.0,
            "engine.noisy_cycles": eng["noisy"],
            "engine.zero_event_cycles": eng["zero"],
            "engine.zero_event_share": eng["zero"] / calls if calls else 0.0,
            "engine.distinct_key_share": len(digests) / calls if calls else 0.0,
            "engine.events_applied": eng["events"],
        }
        for name, (n, secs) in self.leaf.items():
            if name == "trial.seed":
                out["trial.seed.self_s"] = secs
            else:
                out[f"{name}.calls"] = n
                out[f"{name}.self_s"] = secs
        out.update({
            "trial.calls": int(trial_ms.size),
            "trial.self_s": self_s("trial"),
            "trial.ms_p50": float(np.percentile(trial_ms, 50)) if trial_ms.size else 0.0,
            "trial.ms_p90": float(np.percentile(trial_ms, 90)) if trial_ms.size else 0.0,
            "trial.ms_max": float(trial_ms.max()) if trial_ms.size else 0.0,
            "trial.engine_cycle_share": calls / self.sim_cycles if self.sim_cycles else 0.0,
            "pool.pools_started": self.pools,
            "estimate.bootstrap.self_s": self_s("estimate.bootstrap"),
            "threshold.sweep_point.calls": sum(s[1] == "threshold.sweep_point" for s in self.spans),
            "threshold.sweep_point.total_s": total("threshold.sweep_point"),
            "threshold.crossing.self_s": self_s("threshold.crossing"),
            "cli.self_s": self_s("cli"),
        })
        return out

    def span_records(self) -> list:
        return [dict(zip(("id", "name", "parent", "trial", "start", "end", "child_s"), s))
                for s in self.spans]


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        if _ACTIVE is not None:
            _ACTIVE.pools += 1
        super().__init__(*args, **kwargs)


class _Block(list):
    """A worker's trial block that carries its trace data; unpickling it
    in the parent hands the data to the parent's tracer."""

    def __init__(self, items, data):
        super().__init__(items)
        self.data = data

    def __reduce__(self):
        return _receive_block, (list(self), self.data)


def _receive_block(items, data):
    if _ACTIVE is not None:
        _ACTIVE.inbox.append(data)
    return items


def traced_trial_block(args):
    """Stand-in for ``montecarlo._run_trial_block`` in pool workers."""
    tracer = _ACTIVE
    if tracer is None:  # spawned worker: trace this process from here on
        tracer = Tracer()
        tracer.install()
    elif tracer.pid != os.getpid():  # forked worker: drop the parent's data
        tracer.pid = os.getpid()
        tracer.stack.clear()
        tracer.inbox.clear()
        tracer.spans.clear()
        tracer._clear_counters()
    tracer.trial_ids = deque(args[-1])
    out = tracer.block(args)
    return _Block(out, tracer.drain())
