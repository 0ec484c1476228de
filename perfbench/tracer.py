"""Outside-in tracer for tomebench: spans around the calls each module makes into the next.

A target names the attribute a *consumer* module looks up at call time, for
example ``tomebench.unet`` / ``matmul`` is how ``unet`` reaches
``tensor.matmul``. Wrapping the consumer's reference (not the defining
module's) is what makes the wrap visible, because ``from .tensor import
matmul`` copied the function object into ``unet``. Methods are wrapped on
their class (``UNetModel.forward``), which every caller sees.

Spans are recorded per thread (the sweep's pool threads run the U-Net
concurrently), kept in memory as flat arrays, and turned into per-layer
figures once the traced invocation has ended. A target that does not exist
at the traced commit is reported as absent and never fails the run.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array
from contextlib import contextmanager

# (span name, consumer module, attribute path in that module). The span name
# is "<defining module>.<function>"; one span may be reached through several
# consumers. `cli.main` is the root: the benchmark calls `tomebench.cli.main`.
TARGETS = (
    ("cli.main", "tomebench.cli", "main"),
    ("config.harness_from_mapping", "tomebench.cli", "harness_from_mapping"),
    ("runner.execute_run", "tomebench.cli", "execute_run"),
    ("runner.execute_run", "tomebench.runner", "execute_run"),
    ("runner.run_sweep", "tomebench.cli", "run_sweep"),
    ("runner.write_run_artifacts", "tomebench.cli", "write_run_artifacts"),
    ("runner.write_run_artifacts", "tomebench.runner", "write_run_artifacts"),
    ("unet.init_unet", "tomebench.runner", "init_unet"),
    ("diffusion.denoise", "tomebench.runner", "denoise"),
    ("diffusion.compare_to_baseline", "tomebench.runner", "compare_to_baseline"),
    ("metrics.aggregate", "tomebench.runner", "aggregate"),
    ("flops.run_flops", "tomebench.metrics", "run_flops"),
    ("unet.forward", "tomebench.unet", "UNetModel.forward"),
    ("partition.make_partition", "tomebench.unet", "make_partition"),
    ("matching.build_merge_plan", "tomebench.unet", "build_merge_plan"),
    ("matching.cosine_similarity", "tomebench.matching", "cosine_similarity"),
    ("merging.reduce_tokens", "tomebench.unet", "reduce_tokens"),
    ("merging.apply_unmerge", "tomebench.unet", "apply_unmerge"),
    ("rng.stream", "tomebench.rng", "StreamRng.stream"),
    ("tensor.matmul", "tomebench.unet", "matmul"),
    ("tensor.softmax_rows", "tomebench.unet", "softmax_rows"),
    ("tensor.layernorm_rows", "tomebench.unet", "layernorm_rows"),
)

_NO_PARENT = -1
_THREAD_SHIFT = 40  # global span id = thread index << 40 | index within the thread


class _ThreadLog:
    """Spans and events of one thread, in the order they happened."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []  # open span ids (global), innermost last
        self.span_name = array("H")  # per span: index into Tracer.names
        self.span_parent = array("q")  # per span: global id of the causing span, or -1
        self.event_ns = array("q")  # perf_counter_ns per event
        self.event_span = array("q")  # local span index for an open, ~index for a close
        self.work: dict[str, float] = {}
        self.keys: dict[str, list] = {}


class Tracer:
    """Installs span wrappers on `targets`; one instance traces one invocation.

    `work` maps a span name to a function of the call's (args, kwargs) that
    returns an amount of work (FLOPs, elements), summed per span name. `keys`
    maps a span name to a function returning a hashable key or None; the keys
    seen are collected so a caller can count distinct inputs.
    """

    def __init__(self, targets=TARGETS, work=None, keys=None):
        self.targets = tuple(targets)
        self.work_fns = dict(work or {})
        self.key_fns = dict(keys or {})
        self.names: list[str] = []
        self.absent: list[str] = []
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        self._owner: _ThreadLog | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, fn, name: str):
        name_id = self.names.index(name)
        work_fn = self.work_fns.get(name)
        key_fn = self.key_fns.get(name)
        tracer = self

        def traced(*args, **kwargs):
            log = tracer._log()
            if work_fn is not None:
                log.work[name] = log.work.get(name, 0.0) + work_fn(args, kwargs)
            if key_fn is not None:
                log.keys.setdefault(name, []).append(key_fn(args, kwargs))
            local = len(log.span_name)
            if log.stack:
                parent = log.stack[-1]
            else:
                owner = tracer._owner
                parent = owner.stack[-1] if owner is not None and owner.stack else _NO_PARENT
            log.span_name.append(name_id)
            log.span_parent.append(parent)
            log.stack.append((log.index << _THREAD_SHIFT) | local)
            log.event_span.append(local)
            log.event_ns.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                log.event_ns.append(time.perf_counter_ns())
                log.event_span.append(~local)
                log.stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block, then restore."""
        self._owner = self._log()
        try:
            for name, module_name, path in self.targets:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{name} ({module_name}:{path})")
                    continue
                if name not in self.names:
                    self.names.append(name)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(self.names, 0)
        for log in self._logs:
            for name_id in log.span_name:
                counts[self.names[name_id]] += 1
        return counts

    def work(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for log in self._logs:
            for name, amount in log.work.items():
                totals[name] = totals.get(name, 0.0) + amount
        return totals

    def keys(self, name: str) -> list:
        return [key for log in self._logs for key in log.keys.get(name, [])]

    def self_times(self, begin_ns: int, end_ns: int) -> tuple[dict[str, float], float]:
        """Split the wall interval [begin_ns, end_ns] among spans; returns (self_s, untraced_s).

        Each instant goes to the innermost open span of every thread that is
        working; when k threads work at once each gets 1/k of the instant. A
        thread whose innermost span only waits for spans it caused in other
        threads (the sweep's caller blocked on its pool) is not working. Time
        no span covers is untraced. The parts add up to the interval exactly.
        """
        events = []
        for log in self._logs:
            for seq, (t, code) in enumerate(zip(log.event_ns, log.event_span)):
                events.append((t, log.index, seq, code))
        events.sort()

        stacks: dict[int, list[int]] = {log.index: [] for log in self._logs}
        names = {log.index: log.span_name for log in self._logs}
        parents = {log.index: log.span_parent for log in self._logs}
        waiting: dict[int, int] = {}  # global span id -> open spans it caused in other threads
        self_ns = [0.0] * len(self.names)
        untraced = 0.0
        prev = begin_ns

        for t, thread, _, code in events:
            t = min(max(t, begin_ns), end_ns)
            if t > prev:
                leaves = [stack[-1] for stack in stacks.values()
                          if stack and not waiting.get(stack[-1])]
                if leaves:
                    share = (t - prev) / len(leaves)
                    for gid in leaves:
                        self_ns[names[gid >> _THREAD_SHIFT][gid & ((1 << _THREAD_SHIFT) - 1)]] += share
                else:
                    untraced += t - prev
                prev = t
            stack = stacks[thread]
            local = code if code >= 0 else ~code
            gid = (thread << _THREAD_SHIFT) | local
            parent = parents[thread][local]
            if code >= 0:
                if not stack and parent != _NO_PARENT:
                    waiting[parent] = waiting.get(parent, 0) + 1
                stack.append(gid)
            else:
                stack.pop()
                if not stack and parent != _NO_PARENT:
                    waiting[parent] -= 1
        if end_ns > prev:
            untraced += end_ns - prev
        return ({name: self_ns[i] / 1e9 for i, name in enumerate(self.names)}, untraced / 1e9)

    def span_arrays(self) -> dict:
        """All spans as flat columns, for writing out once the run has ended."""
        gid, thread, name, parent, start, end = (array("q") for _ in range(6))
        for log in self._logs:
            opened: dict[int, int] = {}
            for t, code in zip(log.event_ns, log.event_span):
                if code >= 0:
                    opened[code] = t
                else:
                    local = ~code
                    gid.append((log.index << _THREAD_SHIFT) | local)
                    thread.append(log.index)
                    name.append(log.span_name[local])
                    parent.append(log.span_parent[local])
                    start.append(opened.pop(local))
                    end.append(t)
        return {"names": list(self.names), "id": gid, "thread": thread, "name": name,
                "parent": parent, "start_ns": start, "end_ns": end}
