"""Bulk workloads: one producer, one consumer, one long burst.

``bulk_sim`` runs on the virtual-time simulator in its default
in-memory mode; ``bulk_udp`` runs the same burst over real loopback
UDP on the asyncio substrate. Both use the E13 ``run_wire`` settings:
flow control on, a 4 KiB initial congestion window, a 64 kB receive
window and a consumer that drains as fast as it is woken (no pacing).

One *round* builds a fresh substrate with its two endpoints, sends the
whole burst from a tight loop, and runs the substrate until the
consumer holds every message. An *op* on these workloads is one
message, timed from just before its ``send`` call to the consumer's
wake-up with it.
"""

from __future__ import annotations

import random
import string
import time
import zlib

from repro.errors import SimulationError
from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import ConstantLatency, NodeAddress
from repro.net.endpoint import Endpoint
from repro.runtime import AsyncioSubstrate, SimSubstrate

HUB = NodeAddress("hub.edu", 1000)
SRC = NodeAddress("src.edu", 1000)

#: Messages per burst, per substrate.
BURST = {"sim": 16000, "udp": 8000}
#: Payload text length range (before the ``NNNNNN:`` index prefix).
PAYLOAD_CHARS = (8, 48)
#: One-way delay of the simulated link.
SIM_LATENCY = 0.005
#: Bound on one real-UDP round, so a wedged socket cannot hang a run.
UDP_WALL_TIMEOUT = 60.0

_ALPHABET = string.ascii_letters + string.digits


def make_inputs(seed: int, n: int) -> list[str]:
    """The burst: message ``i`` is ``"%06d:" % i`` plus seeded text."""
    rng = random.Random(seed)
    lo, hi = PAYLOAD_CHARS
    return [f"{i:06d}:" + "".join(rng.choices(_ALPHABET,
                                              k=rng.randint(lo, hi)))
            for i in range(n)]


def expected_sequence(payloads: list[str]) -> list[tuple[int, int]]:
    """What the consumer must see: ``(index, crc32)`` in send order,
    recorded by the generator before anything is sent."""
    return [(i, zlib.crc32(p.encode())) for i, p in enumerate(payloads)]


def observed_sequence(texts: list[str]) -> list[tuple[int, int]]:
    return [(int(t[:6]), zlib.crc32(t.encode())) for t in texts]


def check_sequence(expected, texts: list[str]) -> list[str]:
    """Errors found comparing the consumer's view with the generator's
    record: missing, extra, duplicated, reordered or altered messages."""
    observed = observed_sequence(texts)
    if observed == expected:
        return []
    errors = []
    indices = [i for i, _ in observed]
    if len(set(indices)) != len(indices):
        errors.append("duplicate deliveries")
    if len(observed) != len(expected):
        errors.append(f"delivered {len(observed)} of {len(expected)}")
    if indices != sorted(indices):
        errors.append("deliveries out of FIFO order")
    want = dict(expected)
    if any(want.get(i) != crc for i, crc in observed):
        errors.append("payload CRC mismatch")
    return errors or ["delivered sequence differs from the sent one"]


def run_round(kind: str, seed: int, payloads: list[str], expected,
              instrumentation=None, drop_index: int | None = None) -> dict:
    """One burst on a fresh substrate; returns the round's figures.

    ``drop_index`` swallows that message at the consumer's inbox (the
    self-test of the sequence check)."""
    n = len(payloads)
    t_setup = time.perf_counter()
    if kind == "sim":
        substrate = SimSubstrate(seed=seed,
                                 latency=ConstantLatency(SIM_LATENCY))
    else:
        substrate = AsyncioSubstrate(seed=seed)
    try:
        if instrumentation is not None:
            instrumentation.instrument_substrate(substrate)
        events = [0]

        def count_event(_now, _event):
            events[0] += 1
        substrate.trace_hooks.append(count_event)
        consumer_ep = Endpoint(substrate, substrate.datagrams, HUB,
                               rto_initial=0.1, flow_control=True,
                               recv_window=64000)
        producer_ep = Endpoint(substrate, substrate.datagrams, SRC,
                               rto_initial=0.1, flow_control=True,
                               cwnd_initial=4096)
        inbox = Inbox(substrate, consumer_ep, 0)
        outbox = Outbox(substrate, producer_ep, 0)
        outbox.add(inbox.address)
        if drop_index is not None:
            victim = f"{drop_index:06d}:"
            inbox.delivery_hooks.append(
                lambda m: None if m.text.startswith(victim) else m)
        texts: list[str] = []
        recv_wall: list[float] = []
        recv_virtual: list[float] = []
        finished = substrate.event()

        def consumer():
            perf = time.perf_counter
            for _ in range(n):
                msg = yield inbox.receive()
                recv_wall.append(perf())
                recv_virtual.append(substrate.now)
                texts.append(msg.text)
            finished.succeed(None)

        substrate.process(consumer(), name="consumer")
        setup_s = time.perf_counter() - t_setup

        sent_at: list[float] = []
        perf = time.perf_counter
        start_virtual = substrate.now
        for p in payloads:
            sent_at.append(perf())
            outbox.send(Text(p))
        errors: list[str] = []
        try:
            if kind == "sim":
                substrate.run(finished)
                substrate.run()          # drain the last acks and timers
            else:
                substrate.run(finished, wall_timeout=UDP_WALL_TIMEOUT)
        except SimulationError as exc:
            errors.append(f"burst did not complete: {exc}")
        errors += check_sequence(expected, texts)
        delivered = len(texts)
        span = (recv_wall[-1] - sent_at[0]) if recv_wall else float("nan")
        virtual_span = ((recv_virtual[-1] - start_virtual)
                        if recv_virtual else float("nan"))
        stats = _sum_stats(producer_ep.stats.snapshot(),
                           consumer_ep.stats.snapshot())
        net = substrate.datagrams.stats.snapshot()
        counters = {
            "virtual_end_s": substrate.now if kind == "sim" else None,
            "datagrams": net["sent"],
            "bytes": net["bytes_sent"],
            "kernel_events": events[0],
            "delivered": delivered,
        }
        return {
            "setup_s": setup_s,
            "attempted": n,
            "failed": n - delivered,
            "errors": errors,
            "msgs_per_s": delivered / span if delivered else 0.0,
            "op_ms": [(r - s) * 1e3 for s, r in zip(sent_at, recv_wall)],
            "sim_msgs_per_s": (delivered / virtual_span
                               if kind == "sim" and delivered else 0.0),
            "sim_op_ms": [(v - start_virtual) * 1e3 for v in recv_virtual]
            if kind == "sim" else [],
            "ops": delivered,
            "counters": counters,
            "endpoint": stats,
        }
    finally:
        substrate.close()


def _sum_stats(*snapshots: dict) -> dict:
    total: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            total[key] = total.get(key, 0) + value
    return total
