"""Spans around calls into each layer, installed from outside the program.

Nothing here edits ``src/``: the traced run wraps public entry points
(class methods, the substrate's scheduling calls, the datagram
service's ``send``/``register``, module-level codec functions) with
timing shims, and removes the class- and module-level ones again when
the run is done. Untraced runs import this module but install nothing.

A *span* is ``(name, start_ns, end_ns, parent)``; spans nest on a
stack (the whole program runs on one thread), so a layer's self time
is its duration minus the time its child spans cover. Spans are kept
in memory (compact arrays) and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns

#: Spans kept for the output file; aggregates cover every span.
SPAN_FILE_CAP = 400_000

#: Process-name prefixes -> the layer whose code the process runs.
PROCESS_LAYERS = (
    ("session-manager", "session.proc"),
    ("session:", "bench.relay"),
    ("tokshard-", "tokens.proc"),
    ("token-agent", "tokens.proc"),
    ("export:", "rpc.proc"),
    ("rpc-proxy:", "rpc.proc"),
    ("lease-agent", "discovery.proc"),
    ("dir-", "discovery.proc"),
    ("store-", "catalog.proc"),
    ("manifest-agent", "catalog.proc"),
)


def process_layer(name: str) -> str:
    tail = name.rsplit("/", 1)[-1]
    for prefix, layer in PROCESS_LAYERS:
        if tail.startswith(prefix):
            return layer
    return "bench.proc"


def callback_layer(fn) -> str:
    """Which layer scheduled a ``call_later`` callback."""
    code = getattr(fn, "__code__", None)
    qual = getattr(code, "co_qualname", "") if code is not None else ""
    if qual.startswith("Endpoint."):
        return "endpoint.timer"
    if qual.startswith("DatagramNetwork."):
        return "net.deliver"
    return "timer.other"


class SpanRecorder:
    """Nested wall-clock spans plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list[int]] = []   # [name_id, start, child_ns, idx]
        self.count: dict[int, int] = defaultdict(int)
        self.total: dict[int, int] = defaultdict(int)
        self.self_ns: dict[int, int] = defaultdict(int)
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        #: Spans that are not on the stack: waits measured by the
        #: client around a generator (``yield from establish(...)``).
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.kept = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        idx = -1
        if self.kept < SPAN_FILE_CAP:
            idx = self.kept
            self.kept += 1
            self._name.append(nid)
            self._start.append(0)
            self._end.append(0)
            self._parent.append(self._stack[-1][3] if self._stack else -1)
        frame = [nid, 0, 0, idx]
        self._stack.append(frame)
        frame[1] = _now()

    def exit(self) -> None:
        end = _now()
        nid, start, child, idx = self._stack.pop()
        dur = end - start
        self.count[nid] += 1
        self.total[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self._start[idx] = start
            self._end[idx] = end

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, body):
        """Re-drive ``body`` so each of its steps is a span."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit
        send, throw = body.send, body.throw
        value, error = None, None
        while True:
            enter(nid)
            try:
                target = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value, error = (yield target), None
            except GeneratorExit:
                body.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded
                value, error = None, exc

    # -- summaries ----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, int, int]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.count[nid], self.total[nid], self.self_ns[nid]

    def mean_us(self, name: str) -> float:
        n, total, _ = self.stat(name)
        return total / n / 1e3 if n else 0.0

    def table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_ms, self_ms)``, largest self time first."""
        rows = [(name, self.count[i], self.total[i] / 1e6,
                 self.self_ns[i] / 1e6)
                for i, name in enumerate(self.names) if self.count[i]]
        return sorted(rows, key=lambda r: -r[3])

    def write(self, path: Path) -> None:
        """One JSON header line (the name table), then one span a line:
        ``name_id start_ns end_ns parent`` (parent -1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names,
                                  "kept": self.kept}) + "\n")
            for i in range(self.kept):
                out.write(f"{self._name[i]} {self._start[i]} "
                          f"{self._end[i]} {self._parent[i]}\n")


class Instrumentation:
    """Installs and removes the layer shims for one traced run."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Class- and module-level shims (once per traced run)."""
        import repro.mailbox.inbox as inbox_mod
        import repro.mailbox.outbox as outbox_mod
        import repro.runtime.aio as aio_mod
        from repro.discovery.resolver import Resolver
        from repro.mailbox.inbox import Inbox
        from repro.mailbox.outbox import Outbox
        from repro.net.endpoint import Endpoint
        from repro.registry.registry import Registry
        from repro.store.backend import MemoryBackend
        from repro.store.durable import DurableState

        rec = self.rec
        counters = rec.counters

        def sized(name, fn, counter):
            wrapped = rec.wrap(name, fn)

            def measure(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                counters[counter] += len(out)
                return out
            return measure

        self._patch(outbox_mod, "dumps",
                    sized("messages.encode", outbox_mod.dumps,
                          "messages.bytes"))
        self._patch(inbox_mod, "loads",
                    rec.wrap("messages.decode", inbox_mod.loads))
        # The UDP substrate is the codec's only caller in these workloads.
        self._patch(aio_mod, "encode_frame",
                    sized("wire.encode", aio_mod.encode_frame, "wire.bytes"))
        self._patch(aio_mod, "decode_frame",
                    rec.wrap("wire.decode", aio_mod.decode_frame))
        self._patch(Outbox, "send", rec.wrap("mailbox.send", Outbox.send))
        deliver = rec.wrap("mailbox.deliver", Inbox.deliver_local)

        def deliver_local(inbox, message):
            deliver(inbox, message)
            depth = len(inbox)
            if depth > counters["mailbox.queue_peak"]:
                counters["mailbox.queue_peak"] = depth
        self._patch(Inbox, "deliver_local", deliver_local)
        self._patch(Endpoint, "send", rec.wrap("endpoint.send", Endpoint.send))
        self._patch(Endpoint, "inbox_drained",
                    rec.wrap("endpoint.inbox_drained",
                             Endpoint.inbox_drained))
        self._patch(Registry, "check",
                    rec.wrap("registry.check", Registry.check))
        self._patch(DurableState, "journal",
                    rec.wrap("store.append", DurableState.journal))
        backend_append = MemoryBackend.append

        def append(backend, key, data):
            counters["store.bytes"] += len(data)
            return backend_append(backend, key, data)
        self._patch(MemoryBackend, "append", append)
        resolve = Resolver.resolve
        latencies = rec.latencies

        def timed_resolve(resolver, name):
            t0 = time.perf_counter()
            address = yield from resolve(resolver, name)
            latencies["discovery.resolve"].append(time.perf_counter() - t0)
            return address
        self._patch(Resolver, "resolve", timed_resolve)

    def instrument_substrate(self, substrate) -> None:
        """Instance-level shims on one freshly built substrate (before
        any endpoint registers with its datagram service)."""
        rec, counters = self.rec, self.rec.counters
        if hasattr(substrate, "step"):          # the simulator kernel
            substrate.step = rec.wrap("kernel.event", substrate.step)
        else:
            # The asyncio substrate has no public per-event entry point;
            # its event dispatch stands in for the kernel's step.
            substrate._process_event = rec.wrap("kernel.event",
                                                substrate._process_event)
            loop = substrate.loop
            loop_call_later, loop_call_soon = loop.call_later, loop.call_soon

            def call_later(*args, **kwargs):
                counters["aio.timers"] += 1
                return loop_call_later(*args, **kwargs)

            def call_soon(*args, **kwargs):
                counters["aio.callbacks"] += 1
                return loop_call_soon(*args, **kwargs)
            loop.call_later, loop.call_soon = call_later, call_soon

        call_later_orig = substrate.call_later
        enter, leave = rec.enter, rec.exit

        def call_later(delay, fn):
            span = rec.name_id(callback_layer(fn))

            def timed():
                enter(span)
                try:
                    fn()
                finally:
                    leave()
            return call_later_orig(delay, timed)
        substrate.call_later = call_later

        process_orig = substrate.process

        def process(body, name=None):
            layer = process_layer(name or getattr(body, "__name__", ""))
            return process_orig(rec.wrap_generator(layer, body), name=name)
        substrate.process = process

        net = substrate.datagrams
        net_send = rec.wrap("net.send", net.send)

        def send(datagram):
            kind = datagram.header.get("kind")
            counters[f"net.frames.{kind}"] += 1
            return net_send(datagram)
        net.send = send
        register = net.register

        def register_handler(address, handler):
            return register(address, rec.wrap("endpoint.recv", handler))
        net.register = register_handler

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
