"""``collab_sim``: the paper's collaborative session, end to end.

A closed loop with one client on the virtual-time simulator. The world
holds a 3-replica directory, a 2-replica DAppStore, 4 token shards, a
durable ``MemoryBackend`` store, 24 member dapplets owned by 3
principals, and a ledger dapplet whose exported ``book`` method writes
durable state. One *op* is, in order:

1. establish a 3-member session (members resolved through the
   directory, each member's session gate checks the initiator's
   capability grant);
2. relay one message around the session's ring;
3. one synchronous RPC that journals a booking in the ledger;
4. request two token colours (homed across the shards) and release them;
5. look the ledger up in the DAppStore catalog;
6. terminate the session.

A *round* builds the world, warms it up until every lease and manifest
is granted, then runs ``OPS_PER_ROUND`` ops from one client process.
"""

from __future__ import annotations

import random
import time

from repro import Dapplet, Initiator, SessionSpec, World
from repro.errors import ReproError
from repro.messages import Text
from repro.net import ConstantLatency
from repro.registry import TOKEN_RESOURCE
from repro.rpc import RemoteProxy, export
from repro.store import DurableState, MemoryBackend

#: Ops per round (every round runs the same ops on a fresh world).
OPS_PER_ROUND = 125
MEMBERS = 24
PRINCIPALS = (("alice", "acme"), ("bob", "bobco"), ("carol", "carolco"))
COLOURS = tuple(f"c{i}" for i in range(8))
TOKENS_PER_COLOUR = 4
BOOKING_SLOTS = 64
LATENCY = 0.01
#: Virtual seconds the world runs after the last op, so the last
#: token release reaches its shards before conservation is checked.
SETTLE_S = 2.0
#: Warm-up polls replica tables at this virtual-time step.
WARMUP_STEP_S = 0.25
TIMEOUT = 30.0


class Member(Dapplet):
    """A session member: the origin keeps its context; the others relay
    the one message they receive to their ``out`` port and finish."""

    kind = "member"

    def setup(self) -> None:
        self.contexts = {}

    def on_session_start(self, ctx):
        self.contexts[ctx.session_id] = ctx
        if ctx.params.get("origin") == ctx.member:
            return None
        return self._relay(ctx)

    def _relay(self, ctx):
        msg = yield ctx.inbox("in").receive()
        ctx.outbox("out").send(msg)

    def on_session_end(self, ctx) -> None:
        self.contexts.pop(ctx.session_id, None)


class Plain(Dapplet):
    kind = "desk"


class Ledger(Dapplet):
    kind = "ledger"
    schema = "ledger/v1"
    exports = ("book",)


class Book:
    """The exported ledger object: one durable region of bookings."""

    def __init__(self, region) -> None:
        self.region = region

    def book(self, slot: str, who: str) -> int:
        self.region.set(slot, who)
        return len(self.region)


def make_inputs(seed: int, n: int = OPS_PER_ROUND) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        members = rng.sample(range(MEMBERS), 3)
        ops.append({
            "members": [f"m{j:02d}" for j in members],
            "relay": f"relay-{i}-{rng.getrandbits(32):08x}",
            "slot": f"slot{rng.randrange(BOOKING_SLOTS):02d}",
            "who": f"m{members[0]:02d}@{i}",
            "colours": rng.sample(COLOURS, 2),
        })
    return ops


def _spec(members: list[str]) -> SessionSpec:
    origin = members[0]
    spec = SessionSpec("collab", params={"origin": origin})
    for name in members:
        spec.add_member(name, inboxes=("in",))
    for src, dst in zip(members, members[1:] + members[:1]):
        spec.bind(src, "out", dst, "in")
    return spec


def build_world(seed: int, instrumentation=None) -> dict:
    """The world of one round, warmed up until every lease is granted."""
    world = World(seed=seed, latency=ConstantLatency(LATENCY),
                  store=MemoryBackend())
    if instrumentation is not None:
        instrumentation.instrument_substrate(world.substrate)
    events = [0]

    def count_event(_now, _event):
        events[0] += 1
    world.substrate.trace_hooks.append(count_event)
    registry = world.registry
    owners = [registry.principal(name, org=org) for name, org in PRINCIPALS]
    alice, bob, _ = owners
    for _, org in PRINCIPALS[1:]:
        registry.grant(alice, f"{org}/**",
                       ("session.establish", "rpc.call:book"))
    registry.grant(alice, TOKEN_RESOURCE, ("token.request:*",))
    world.host_directory(3)
    world.host_dappstore(2)
    tokens = world.host_token_shards(
        4, dict.fromkeys(COLOURS, TOKENS_PER_COLOUR))
    # Dapplets join one by one over a second of virtual time, so their
    # once-a-second lease and manifest renewals do not all land on the
    # same op.
    joins = MEMBERS + 3
    for i in range(MEMBERS):
        owner = owners[i % len(owners)]
        world.dapplet(Member, f"h{i:02d}.{owner.org}.org", f"m{i:02d}",
                      owner=owner)
        world.run(until=world.now + 1.0 / joins)
    initiator = world.dapplet(Initiator, "init.acme.org", "init", owner=alice)
    world.run(until=world.now + 1.0 / joins)
    ledger = world.dapplet(Ledger, "ledger.bobco.org", "ledger", owner=bob)
    remote = export(ledger, Book(ledger.state.region("bookings")),
                    name="ledger")
    world.run(until=world.now + 1.0 / joins)
    desk = world.dapplet(Plain, "desk.acme.org", "desk", owner=alice)
    waits = [d.lease_agent.registered for d in world.dapplets()
             if getattr(d, "lease_agent", None) is not None]
    waits += [d.manifest_agent.published for d in world.dapplets()
              if getattr(d, "manifest_agent", None) is not None]
    world.run(until=world.substrate.all_of(waits))
    # Granted at the home replica is not yet known everywhere: run on
    # until gossip has spread every lease and manifest to every replica.
    leases = {d.name for d in world.dapplets()
              if getattr(d, "lease_agent", None) is not None}
    manifests = {d.manifest_name for d in world.dapplets()
                 if getattr(d, "manifest_agent", None) is not None}
    while not (all(leases <= set(r.live_entries())
                   for r in world.directory_replicas)
               and all(manifests <= set(r.live_manifests())
                       for r in world.dappstore_replicas)):
        world.run(until=world.now + WARMUP_STEP_S)
    return {
        "world": world, "events": events, "initiator": initiator,
        "ledger": ledger, "tokens": tokens,
        "proxy": RemoteProxy(desk, remote.pointer),
        "agent": tokens.attach(desk),
        "catalog": world.store_client_for(desk),
    }


def _delivered(world) -> int:
    return sum(d.endpoint.stats.delivered + d.endpoint.stats.unreliable_delivered
               for d in world.dapplets())


def run_round(seed: int, ops: list[dict], latencies: dict,
              instrumentation=None, on_op=None,
              alter_booking: bool = False) -> dict:
    """Build, warm up, and run every op of ``ops`` once.

    ``latencies`` collects per-step wall and virtual waits (lists keyed
    by step name). ``on_op(i)`` is called after each op. With
    ``alter_booking`` one journaled booking is changed behind the
    client's back (the self-test of the ledger check)."""
    perf = time.perf_counter
    t_setup = perf()
    parts = build_world(seed, instrumentation)
    setup_s = perf() - t_setup
    world = parts["world"]
    substrate = world.substrate
    initiator, ledger = parts["initiator"], parts["ledger"]
    proxy, agent, catalog = parts["proxy"], parts["agent"], parts["catalog"]
    net = substrate.datagrams.stats
    bookings: dict[str, str] = {}
    errors: list[str] = []
    op_wall: list[float] = []
    op_virtual: list[float] = []
    done = {"sessions": 0, "failed": 0}

    def step(name: str, t0: float, v0: float) -> None:
        latencies[name].append(perf() - t0)
        latencies[name + "_sim"].append(substrate.now - v0)

    def one_op(op: dict):
        members = op["members"]
        t0, v0, d0 = perf(), substrate.now, net.sent
        session = yield from initiator.establish(_spec(members),
                                                 timeout=TIMEOUT)
        step("session.establish", t0, v0)
        latencies["session.establish_datagrams"].append(net.sent - d0)
        origin = world.get(members[0]).contexts[session.session_id]
        origin.outbox("out").send(Text(op["relay"]))
        back = yield origin.inbox("in").receive(timeout=TIMEOUT)
        if back.text != op["relay"]:
            errors.append(f"relay altered: {back.text!r} != {op['relay']!r}")
        t0, v0 = perf(), substrate.now
        count = yield proxy.call("book", op["slot"], op["who"],
                                 timeout=TIMEOUT)
        step("rpc.call", t0, v0)
        bookings[op["slot"]] = op["who"]
        if count != len(bookings):
            errors.append(f"ledger reports {count} bookings, "
                          f"client holds {len(bookings)}")
        want = dict.fromkeys(op["colours"], 1)
        t0, v0 = perf(), substrate.now
        granted = yield agent.request(want)
        step("tokens.request", t0, v0)
        if dict(granted) != want:
            errors.append(f"granted {dict(granted)} for {want}")
        agent.release(dict(granted))
        t0, v0 = perf(), substrate.now
        manifest = yield from catalog.lookup(ledger.manifest_name)
        step("catalog.lookup", t0, v0)
        if (manifest is None or manifest.owner != "bob"
                or manifest.dapplet != "ledger"
                or tuple(manifest.methods) != ("book",)):
            errors.append(f"catalog lookup returned {manifest!r}")
        t0, v0 = perf(), substrate.now
        yield from session.terminate(timeout=TIMEOUT)
        step("session.terminate", t0, v0)
        if session.terminated:
            done["sessions"] += 1

    def client():
        for i, op in enumerate(ops):
            t0, v0 = perf(), substrate.now
            try:
                yield from one_op(op)
            except ReproError as exc:
                done["failed"] += 1
                errors.append(f"op {i} failed: {exc!r}")
                continue
            op_wall.append(perf() - t0)
            op_virtual.append(substrate.now - v0)
            if on_op is not None:
                on_op(i)

    delivered_before = _delivered(world)
    v_start = substrate.now
    t_start = perf()
    world.run(until=world.process(client()))
    wall = perf() - t_start
    virtual = substrate.now - v_start
    msgs = _delivered(world) - delivered_before
    counters = {
        "virtual_end_s": substrate.now,
        "datagrams": net.sent,
        "bytes": net.bytes_sent,
        "kernel_events": parts["events"][0],
        "delivered": _delivered(world),
    }
    endpoint: dict = {}
    for d in world.dapplets():
        for key, value in d.endpoint.stats.snapshot().items():
            endpoint[key] = endpoint.get(key, 0) + value
    world.run(until=substrate.now + SETTLE_S)

    if alter_booking:
        slot = sorted(bookings)[0]
        ledger.state.region("bookings").set(slot, "forged")
    errors += _check_world(parts, bookings)
    if done["sessions"] != len(ops) - done["failed"]:
        errors.append(f"{done['sessions']} sessions completed for "
                      f"{len(ops) - done['failed']} successful ops")
    tokens = parts["tokens"]
    requests = len(ops) - done["failed"]
    resolver = initiator.resolver.stats
    registry = world.registry.stats
    return {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": done["failed"],
        "errors": errors,
        "msgs_per_s": msgs / wall,
        "ops_per_s": len(op_wall) / wall,
        "op_ms": [t * 1e3 for t in op_wall],
        "sim_msgs_per_s": msgs / virtual,
        "sim_op_ms": [t * 1e3 for t in op_virtual],
        "ops": len(op_wall),
        "counters": counters,
        "endpoint": endpoint,
        "forwards_per_request": tokens.forwards / requests if requests else 0.0,
        "resolver_hits": (resolver.hits, resolver.misses),
        "registry_hits": (registry.cache_hits, registry.cache_misses),
    }


def _check_world(parts: dict, bookings: dict) -> list[str]:
    """Invariants checked after the round, against the client's records."""
    errors = []
    tokens = parts["tokens"]
    try:
        tokens.check_conservation()
    except ReproError as exc:
        errors.append(f"token conservation: {exc}")
    held = {shard.name: shard.holders for shard in tokens.shards
            if any(any(c.values()) for c in shard.holders.values())}
    if held or parts["agent"].holds or not tokens.quiescent:
        errors.append(f"tokens still held or reserved at the end: {held}")
    ledger = parts["ledger"]
    recovered = DurableState(ledger.state.durable.backend,
                             name=ledger.state.durable.name).recover()
    if recovered.get("bookings", {}) != bookings:
        errors.append("ledger recovered from the WAL differs from the "
                      "client's bookings")
    return errors
