#!/usr/bin/env python3
"""The dapplet stack's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first repeats that untraced measurement for half the
time, then runs the same rounds again with spans around every layer and
reports the per-layer metrics, the per-layer self-time table, and the
tracing overhead (the traced rate against the untraced one). Every run
checks every output and prints, last, one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Two more modes check the benchmark itself (see README.md):
``--self-test`` and ``--check-determinism``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("bulk_sim", "bulk_udp", "collab_sim")
#: Where traced runs write their spans (inside the checkout).
OUT_DIR = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "msgs_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

PER_LAYER = {
    "messages.encode_us": "us",
    "messages.decode_us": "us",
    "messages.bytes_per_msg": "B",
    "mailbox.send_us": "us",
    "mailbox.queue_peak": "count",
    "endpoint.send_us": "us",
    "endpoint.timer_us_per_msg": "us",
    "endpoint.datagrams_per_msg": "count",
    "endpoint.payloads_per_batch": "count",
    "endpoint.acks_per_msg": "count",
    "endpoint.rtx_per_msg": "count",
    "endpoint.window_stalls": "count",
    "net.datagrams_per_msg": "count",
    "net.bytes_per_msg": "B",
    "kernel.events_per_msg": "count",
    "kernel.events_per_op": "count",
    "kernel.self_us_per_msg": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.bytes_per_msg": "B",
    "aio.timers_per_msg": "count",
    "aio.callbacks_per_msg": "count",
    "endpoint.inbox_drained_us": "us",
    "endpoint.inbox_drained_us_q1": "us",
    "endpoint.inbox_drained_us_q4": "us",
    "session.establish_ms": "ms",
    "session.terminate_ms": "ms",
    "session.datagrams_per_establish": "count",
    "discovery.resolve_us": "us",
    "discovery.cache_hit_ratio": "ratio",
    "rpc.call_ms": "ms",
    "tokens.request_ms": "ms",
    "tokens.forwards_per_request": "count",
    "store.append_us": "us",
    "store.bytes_per_append": "B",
    "registry.check_us": "us",
    "registry.cache_hit_ratio": "ratio",
    "catalog.lookup_ms": "ms",
    # Virtual time: "vms" is a virtual millisecond, "1/vs" a rate per
    # virtual second; both repeat exactly for a seed.
    "session.establish_sim_ms": "vms",
    "rpc.call_sim_ms": "vms",
    "tokens.request_sim_ms": "vms",
    "sim.msgs_per_s": "1/vs",
    "sim.op_p50_ms": "vms",
    "trace.overhead_pct": "%",
}


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- running rounds ---------------------------------------------------------------


def workload_rounds(workload: str, seed: int):
    """Make the workload's inputs from ``seed``; return ``one_round(instr,
    latencies, on_op)``, which runs them once on a fresh world."""
    if workload == "collab_sim":
        import collab
        ops = collab.make_inputs(seed)

        def one_round(instr, latencies, on_op):
            return collab.run_round(seed, ops, latencies,
                                    instrumentation=instr, on_op=on_op)
        return one_round
    import bulk
    kind = "sim" if workload == "bulk_sim" else "udp"
    payloads = bulk.make_inputs(seed, bulk.BURST[kind])
    expected = bulk.expected_sequence(payloads)

    def one_round(instr, latencies, on_op):
        return bulk.run_round(kind, seed, payloads, expected,
                              instrumentation=instr)
    return one_round


def run_for(seconds: float, one_round, instr=None, latencies=None,
            on_op=None) -> list[dict]:
    """Whole rounds (at least one) until ``seconds`` of wall time have
    passed."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        gc.collect()
        rounds.append(one_round(instr, latencies
                                if latencies is not None
                                else defaultdict(list), on_op))
    gc.collect()
    return rounds


def round_percentile(rounds: list[dict], q: float) -> float:
    """Op latency percentile in ms: the median over rounds of each
    round's own percentile (every round has >= 100 ops, so >= 10 lie
    beyond its p90)."""
    return statistics.median(percentile(r["op_ms"], q) for r in rounds)


def summarize(rounds: list[dict]) -> dict:
    """The end-to-end metrics of a list of rounds."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "msgs_per_s": statistics.median(r["msgs_per_s"] for r in rounds),
        "ops_per_s": statistics.median(
            r.get("ops_per_s", r["msgs_per_s"]) for r in rounds),
        "op_p50_ms": round_percentile(rounds, 0.5),
        "op_p90_ms": round_percentile(rounds, 0.9),
    }


def check_rounds(workload: str, rounds: list[dict]) -> list[str]:
    """Errors of every round, plus (on the simulator) any round whose
    deterministic counters differ from the first round's."""
    errors = [e for r in rounds for e in r["errors"]]
    if workload.endswith("_sim"):
        first = rounds[0]["counters"]
        for i, r in enumerate(rounds[1:], 1):
            if r["counters"] != first:
                errors.append(f"round {i} counters {r['counters']} differ "
                              f"from round 0 {first}")
    return errors


def deterministic_record(workload: str, rounds: list[dict]) -> dict:
    """Counters and ``sim_*`` figures that must repeat exactly."""
    r = rounds[0]
    record = dict(r["counters"])
    if workload.endswith("_sim"):
        record["sim_msgs_per_s"] = r["sim_msgs_per_s"]
        record["sim_op_p50_ms"] = percentile(r["sim_op_ms"], 0.5)
    return record


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(workload: str, rounds: list[dict], rec,
                  quarters: dict) -> dict:
    # Per-message and per-op figures cover whole rounds: set-up and
    # warm-up included, as the spans are.
    msgs = sum(r["counters"]["delivered"] for r in rounds)
    ops = sum(r["ops"] for r in rounds)
    kernel_events = sum(r["counters"]["kernel_events"] for r in rounds)
    ep: dict = defaultdict(int)
    for r in rounds:
        for k, v in r["endpoint"].items():
            ep[k] += v
    c = rec.counters
    lat = rec.latencies

    def per(x, base):
        return x / base if base else 0.0

    def med_ms(name):
        return statistics.median(lat[name]) * 1e3 if lat.get(name) else 0.0

    def ratio(pairs):
        hits = sum(h for h, _ in pairs)
        total = sum(h + m for h, m in pairs)
        return per(hits, total)

    n_enc = rec.stat("messages.encode")[0]
    n_append = rec.stat("store.append")[0]
    sim = workload.endswith("_sim")
    m = {
        "messages.encode_us": rec.mean_us("messages.encode"),
        "messages.decode_us": rec.mean_us("messages.decode"),
        "messages.bytes_per_msg": per(c["messages.bytes"], n_enc),
        "mailbox.send_us": rec.mean_us("mailbox.send"),
        "mailbox.queue_peak": c["mailbox.queue_peak"],
        "endpoint.send_us": rec.mean_us("endpoint.send"),
        "endpoint.timer_us_per_msg":
            per(rec.stat("endpoint.timer")[1] / 1e3, msgs),
        "endpoint.datagrams_per_msg": per(c["net.frames.DATA"], msgs),
        "endpoint.payloads_per_batch":
            per(ep["batched_payloads"], ep["batches_sent"]),
        "endpoint.acks_per_msg": per(c["net.frames.ACK"], msgs),
        "endpoint.rtx_per_msg": per(ep["data_retransmitted"], msgs),
        "endpoint.window_stalls": per(ep["window_stalls"], len(rounds)),
        "net.datagrams_per_msg":
            per(sum(r["counters"]["datagrams"] for r in rounds), msgs),
        "net.bytes_per_msg":
            per(sum(r["counters"]["bytes"] for r in rounds), msgs),
        "kernel.events_per_msg": per(kernel_events, msgs),
        "kernel.events_per_op": per(kernel_events, ops),
        "kernel.self_us_per_msg":
            per(rec.stat("kernel.event")[2] / 1e3, msgs),
        "wire.encode_us": rec.mean_us("wire.encode"),
        "wire.decode_us": rec.mean_us("wire.decode"),
        "wire.bytes_per_msg": per(c["wire.bytes"], msgs),
        "aio.timers_per_msg": per(c["aio.timers"], msgs),
        "aio.callbacks_per_msg": per(c["aio.callbacks"], msgs),
        "endpoint.inbox_drained_us": rec.mean_us("endpoint.inbox_drained"),
        "endpoint.inbox_drained_us_q1": quarters.get("q1", 0.0),
        "endpoint.inbox_drained_us_q4": quarters.get("q4", 0.0),
        "session.establish_ms": med_ms("session.establish"),
        "session.terminate_ms": med_ms("session.terminate"),
        "session.datagrams_per_establish":
            statistics.mean(lat["session.establish_datagrams"])
            if lat.get("session.establish_datagrams") else 0.0,
        "discovery.resolve_us":
            statistics.mean(lat["discovery.resolve"]) * 1e6
            if lat.get("discovery.resolve") else 0.0,
        "discovery.cache_hit_ratio":
            ratio([r["resolver_hits"] for r in rounds
                   if "resolver_hits" in r]),
        "rpc.call_ms": med_ms("rpc.call"),
        "tokens.request_ms": med_ms("tokens.request"),
        "tokens.forwards_per_request":
            statistics.mean(r["forwards_per_request"] for r in rounds)
            if "forwards_per_request" in rounds[0] else 0.0,
        "store.append_us": rec.mean_us("store.append"),
        "store.bytes_per_append": per(c["store.bytes"], n_append),
        "registry.check_us": rec.mean_us("registry.check"),
        "registry.cache_hit_ratio":
            ratio([r["registry_hits"] for r in rounds
                   if "registry_hits" in r]),
        "catalog.lookup_ms": med_ms("catalog.lookup"),
        "session.establish_sim_ms": med_ms("session.establish_sim"),
        "rpc.call_sim_ms": med_ms("rpc.call_sim"),
        "tokens.request_sim_ms": med_ms("tokens.request_sim"),
        "sim.msgs_per_s": rounds[0]["sim_msgs_per_s"] if sim else 0.0,
        "sim.op_p50_ms":
            percentile(rounds[0]["sim_op_ms"], 0.5) if sim else 0.0,
    }
    return m


def print_layer_table(rec, wall_s: float) -> None:
    print(f"per-layer spans ({wall_s:.2f} s traced wall time; self = "
          "duration minus child spans)")
    print(f"  {'span':28s} {'calls':>9s} {'total ms':>10s} "
          f"{'self ms':>10s} {'self %':>7s} {'us/call':>8s}")
    for name, calls, total, self_ms in rec.table():
        print(f"  {name:28s} {calls:9d} {total:10.1f} {self_ms:10.1f} "
              f"{100 * self_ms / 1e3 / wall_s:7.1f} "
              f"{1e3 * total / calls:8.2f}")


# -- the modes ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    one_round = workload_rounds(workload, seed)
    if not trace:
        rounds = run_for(seconds, one_round)
        errors = check_rounds(workload, rounds)
        metrics = summarize(rounds)
        units = END_TO_END
    else:
        from tracing import Instrumentation, SpanRecorder
        plain = run_for(seconds / 2, one_round)
        rec = SpanRecorder()
        instr = Instrumentation(rec)
        quarters: dict = {}
        total_ops = plain[0]["attempted"]

        def on_op(i):
            # Mean inbox_drained cost over the first and last quarter
            # of the first traced round's ops.
            n, total, _ = rec.stat("endpoint.inbox_drained")
            if i + 1 == total_ops // 4 and "q1" not in quarters:
                quarters["q1"] = total / n / 1e3 if n else 0.0
            if i + 1 == 3 * total_ops // 4 and "mark" not in quarters:
                quarters["mark"] = (n, total)
            if i + 1 == total_ops and "q4" not in quarters:
                n0, t0 = quarters["mark"]
                quarters["q4"] = ((total - t0) / (n - n0) / 1e3
                                  if n > n0 else 0.0)

        instr.install()
        t0 = time.perf_counter()
        try:
            rounds = run_for(seconds / 2, one_round, instr, rec.latencies,
                             on_op=on_op if workload == "collab_sim"
                             else None)
        finally:
            instr.remove()
        traced_wall = time.perf_counter() - t0
        errors = check_rounds(workload, plain) + check_rounds(workload,
                                                             rounds)
        if workload.endswith("_sim") and \
                rounds[0]["counters"] != plain[0]["counters"]:
            errors.append("tracing changed the deterministic counters: "
                          f"{rounds[0]['counters']} vs "
                          f"{plain[0]['counters']}")
        metrics = layer_metrics(workload, rounds, rec, quarters)
        untraced, traced = (statistics.median(
            r.get("ops_per_s", r["msgs_per_s"]) for r in rs)
            for rs in (plain, rounds))
        metrics["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
        print_layer_table(rec, traced_wall)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.txt"
        rec.write(path)
        print(f"spans written to {path.relative_to(ROOT)} "
              f"({rec.kept} of {sum(rec.count.values())} kept)")
        rounds = plain + rounds
        units = PER_LAYER
    # Only the simulator's counters are deterministic; the UDP ones are
    # printed for information under another key.
    key = "deterministic" if workload.endswith("_sim") else "counters"
    print(json.dumps({key: deterministic_record(workload, rounds)}))
    print(f"{workload}: {len(rounds)} rounds, "
          + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
    print(json.dumps({"rounds": [
        {"setup_s": r["setup_s"], "msgs_per_s": r["msgs_per_s"],
         "ops_per_s": r.get("ops_per_s", r["msgs_per_s"]),
         "op_p50_ms": percentile(r["op_ms"], 0.5)} for r in rounds]}))
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "errors": errors,
    }


def self_test() -> int:
    """The checks must catch a dropped message and a forged booking."""
    import bulk
    import collab
    payloads = bulk.make_inputs(7, 500)
    expected = bulk.expected_sequence(payloads)
    clean = bulk.run_round("sim", 7, payloads, expected)
    dropped = bulk.run_round("sim", 7, payloads, expected, drop_index=123)
    ops = collab.make_inputs(7, 20)
    lat = defaultdict(list)
    honest = collab.run_round(7, ops, lat)
    forged = collab.run_round(7, ops, lat, alter_booking=True)
    outcomes = {
        "clean burst passes": not clean["errors"],
        "dropped message fails": bool(dropped["errors"]),
        "honest ledger passes": not honest["errors"],
        "forged booking fails": bool(forged["errors"]),
    }
    for name, ok in outcomes.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"  dropped: {dropped['errors']}")
    print(f"  forged: {forged['errors']}")
    return 0 if all(outcomes.values()) else 1


def check_determinism(seed: int) -> int:
    """Counters and ``sim_*`` figures of the simulator workloads must
    repeat exactly: twice with one hash seed, once with another."""
    failures = 0
    for workload in ("bulk_sim", "collab_sim"):
        records = []
        for hash_seed in ("0", "0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", "0"],
                env=env, capture_output=True, text=True, timeout=170,
                cwd=ROOT)
            line = next((ln for ln in proc.stdout.splitlines()
                         if ln.startswith('{"deterministic"')), None)
            records.append(json.loads(line)["deterministic"]
                           if line else proc.stderr[-400:])
        same = records[0] == records[1] == records[2]
        failures += not same
        print(f"{'ok  ' if same else 'FAIL'} {workload}: {records[0]}")
        if not same:
            print(f"     others: {records[1:]}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    bootstrap()
    if args.self_test:
        return self_test()
    if args.check_determinism:
        return check_determinism(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in result.pop("errors")[:20]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
