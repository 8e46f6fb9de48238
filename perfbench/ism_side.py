"""The ISM process: the system under test.

One single-threaded ``IsmServer`` over an ``InstrumentationManager``
serves on a thread of its own; the process's main thread only answers
the node process over a socket-pair pipe (mark CPU time, wait
for the last delivery, stop and report).  Everything the workload does
not name keeps its product default.

After the server stops, the same process checks every delivered record
against the regenerated inputs, measures the commit-log read path, and
sends back a summary (and, traced, its spans).
"""

from __future__ import annotations

import operator
import os
import resource
import select as select_module
import shutil
import sys
import threading
import time
from bisect import bisect_left
from collections import defaultdict, deque
from itertools import islice

import inputs
import tracing
from stats import SpeedProbe, summary

from repro.core.consumers import LogConsumer
from repro.core.filtering import FieldTest, FilterSpec
from repro.core.ism import InstrumentationManager
from repro.core.records import EventRecord
from repro.log import CommitLog, LogConfig
from repro.runtime import ism_proc
from repro.runtime.ism_proc import IsmServer
from repro.wire import protocol
from repro.wire.tcp import MessageConnection, MessageListener


#: What the oracle keeps of a delivered record: plain tuples of numbers
#: and strings, which the cyclic GC stops tracking after their first
#: collection.  The product's record objects are not kept alive, so the
#: ISM's own GC work is what it would be without the benchmark.
_ROW = operator.attrgetter("event_id", "node_id", "timestamp", "values")
_TYPES = operator.attrgetter("field_types")
_EV_VALUES = operator.attrgetter("event_id", "values")
_NODE = operator.attrgetter("node_id")


class CountingConsumer:
    """Keeps each delivered record as a row for the oracle, with the time
    of its delivery; flags the moment the expected number of records has
    been delivered.  ``own_ns`` is the thread CPU time spent keeping the
    rows, which is the benchmark's work and not the ISM's."""

    def __init__(self) -> None:
        #: ``(event_id, node_id, timestamp, values)`` per delivered record.
        self.rows: list[tuple] = []
        #: The field types of each delivered record (interned: one tuple
        #: object per distinct schema is kept).
        self.types: list[tuple] = []
        self._schemas: dict[tuple, tuple] = {}
        #: ``(delivery time, records delivered)`` per delivery.
        self.times: list[tuple[int, int]] = []
        self.delivered = 0
        self.own_ns = 0
        self.target: int | None = None
        #: ``(time.time_ns, process CPU, own_ns)`` at the last expected delivery.
        self.done_at: tuple[int, float, int] | None = None
        self.done = threading.Event()

    def deliver(self, record) -> None:
        self.deliver_many((record,))

    def deliver_many(self, records) -> None:
        t = time.time_ns()
        c0 = time.thread_time_ns()
        self.rows.extend(map(_ROW, records))
        types = list(map(_TYPES, records))
        self.types.extend(map(self._schemas.setdefault, types, types))
        self.times.append((t, len(records)))
        self.delivered += len(records)
        self.own_ns += time.thread_time_ns() - c0
        if self.target is not None and self.done_at is None and self.delivered >= self.target:
            self.done_at = (time.time_ns(), time.process_time(), self.own_ns)
            self.done.set()

    def chunks(self):
        """The delivered stream rebuilt as one list of records per
        delivery, for the log built after the drain."""
        pos = 0
        for _t, n in self.times:
            yield [
                EventRecord(event_id, ts, types, values, node_id)
                for (event_id, node_id, ts, values), types
                in zip(self.rows[pos:pos + n], self.types[pos:pos + n])
            ]
            pos += n


def ism_main(pipe) -> None:
    """Serve one round, then report.  The first message on *pipe* is the
    round's config."""
    cfg = pipe.recv()
    if cfg["cpu"] is not None:
        os.sched_setaffinity(0, {cfg["cpu"]})
    try:
        _serve_round(pipe, cfg)
    except Exception as exc:  # report instead of leaving the node waiting
        import traceback

        pipe.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
    finally:
        pipe.close()


def _serve_round(pipe, cfg: dict) -> None:
    listener = MessageListener("127.0.0.1", 0)
    counting = CountingConsumer()
    consumers: list = [counting]
    log = sink = None
    if cfg["durable"]:
        log = CommitLog(cfg["log_dir"], LogConfig())
        sink = LogConsumer(log)
        consumers.append(sink)
    manager = InstrumentationManager(consumers=consumers)
    server = IsmServer(manager, listener, durable_sink=sink)
    batches: list = []
    real_on_batch = manager.on_batch

    def on_batch(batch, now):
        # Batch membership, for ack latency per record; the CPU time is
        # the benchmark's, like the counting consumer's.
        c0 = time.thread_time_ns()
        batches.append((batch.exs_id, batch.seq, list(map(_EV_VALUES, batch.records))))
        counting.own_ns += time.thread_time_ns() - c0
        return real_on_batch(batch, now)

    manager.on_batch = on_batch
    if cfg["filter_cut"] is not None:
        # Set before the EXS connects: the server holds it as the desired
        # steering state and pushes it right behind the HelloReply.
        server.set_filter(
            cfg["filter_exs"],
            FilterSpec(field_tests=(FieldTest(1, "ge", cfg["filter_cut"]),)),
        )
    tracer = IsmTrace(server, manager, log) if cfg["trace"] else None
    thread = threading.Thread(target=server.serve, name="ism-serve", daemon=True)
    thread.start()
    pipe.send(("ready", listener.address[1]))
    cpu0 = probe = None
    while True:
        cmd, arg = pipe.recv()
        if cmd == "start":
            probe = SpeedProbe()
            t_start = time.time_ns()
            counting.target = arg["expected"]
            cpu0 = time.process_time()
            own0 = counting.own_ns
            if tracer is not None:
                tracer.window_start = time.time_ns()
            pipe.send(("started", None))
        elif cmd == "wait":
            ok = counting.done.wait(arg)
            pipe.send(("waited", ok))
        elif cmd == "finish":
            server.stop()
            thread.join()
            listener.close()
            try:
                report = _report(cfg, arg, manager, server, counting, batches, log, tracer,
                                 cpu0, own0, probe, t_start)
            finally:
                if probe is not None:
                    probe.stop()
            pipe.send(("report", report))
            return


def _g(event_id: int, values: tuple) -> int:
    """The global index a delivered record carries."""
    return inputs.index_of(inputs.EVENT_OF_KIND.index(event_id), values)


def check_stream(ops: list[tuple], workload: str, seed: int, src_node: dict,
                 rows: list[tuple], types: list[tuple]) -> tuple[dict, list]:
    """Check a delivered stream against the round's inputs.

    *rows* holds ``(event_id, node_id, timestamp, values)`` and *types*
    the field types of each delivered record, in delivery order.  Returns
    the failures by kind (sets of global indices) and the global index of
    each delivery (``None`` where it cannot be attributed)."""
    failures: dict[str, set] = defaultdict(set)
    seen: dict[int, int] = {}
    delivered_ts: dict[int, int] = {}
    last_g: dict[int, int] = {}
    gs: list = []
    for pos, ((event_id, node_id, ts, values), ftypes) in enumerate(zip(rows, types)):
        gs.append(None)
        if event_id not in inputs.EVENT_OF_KIND:
            failures["unexpected_event"].add(f"delivery {pos}")
            continue
        kind = inputs.EVENT_OF_KIND.index(event_id)
        g = inputs.index_of(kind, values)
        if type(g) is not int or not 0 <= g < len(ops):
            failures["unknown_index"].add(f"delivery {pos}")
            continue
        gs[pos] = g
        if g in seen:
            failures["duplicate"].add(g)
        seen[g] = pos
        delivered_ts[g] = ts
        src, okind, expected = ops[g]
        # Python's == lets 5, 5.0 and True pass for one another: the
        # value types and the wire field types are compared as well.
        if (
            okind != kind
            or node_id != src_node[src]
            or tuple(values) != expected
            or tuple(map(type, values)) != tuple(map(type, expected))
            or tuple(ftypes) != inputs.FIELD_TYPES[kind]
        ):
            failures["wrong_value"].add(g)
        if kind != inputs.CONSEQ:
            if g <= last_g.get(node_id, -1):
                failures["out_of_order"].add(g)
            last_g[node_id] = g
    for g, (src, kind, values) in enumerate(ops):
        keep = inputs.kept_by_filter(workload, seed, src, values)
        if keep and g not in seen:
            failures["missing"].add(g)
        elif not keep and g in seen:
            failures["filter_leak"].add(g)
        if kind == inputs.CONSEQ and g in seen:
            reason_g = g - 1
            if reason_g not in seen or seen[reason_g] > seen[g] or delivered_ts[g] <= delivered_ts[reason_g]:
                failures["causal_order"].add(g)
    return failures, gs


def _report(cfg, node_info, manager, server, counting, batches, log, tracer,
            cpu0, own0, probe, t_start) -> dict:
    params = inputs.Params(**cfg["params"])
    workload, seed = cfg["workload"], cfg["seed"]
    ops = inputs.generate(seed, workload, cfg["round"], params)
    if counting.done_at:
        done_t, done_cpu, done_own = counting.done_at
    else:
        done_t, done_cpu, done_own = time.time_ns(), time.process_time(), counting.own_ns
    due0 = node_info["due0"]

    def due_of(g: int) -> int:
        """When record *g* was due: the drain start for bursts, its
        pacing slot for the paced workload."""
        if not params.rate:
            return due0
        return due0 + (g // params.block) * params.block * 1_000_000_000 // params.rate

    # -- oracle over the delivered stream --------------------------------
    failures, gs = check_stream(ops, workload, seed, cfg["src_node"], counting.rows, counting.types)
    seen = {g for g in gs if g is not None}
    deliver_lat: list[float] = []
    pos = 0
    for t, n in counting.times:
        for g in gs[pos:pos + n]:
            if g is not None:
                deliver_lat.append((t - due_of(g)) / 1e6)
        pos += n

    # -- ack latency: each record's batch, acked when the EXS heard it --
    acks: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for exs_id, up_to, t in node_info["acks"]:
        acks[exs_id].append((up_to, t))
    ack_seqs = {e: [u for u, _ in sorted(v)] for e, v in acks.items()}
    ack_times = {e: [t for _, t in sorted(v)] for e, v in acks.items()}
    ack_lat: list[float] = []
    batch_ack: dict[tuple[int, int], int] = {}
    for exs_id, seq, records in batches:
        seqs = ack_seqs.get(exs_id, [])
        i = bisect_left(seqs, seq)
        if i == len(seqs):
            continue  # never acked: the node side counts that
        t_ack = ack_times[exs_id][i]
        batch_ack[(exs_id, seq)] = t_ack
        for event_id, values in records:
            ack_lat.append((t_ack - due_of(_g(event_id, values))) / 1e6)

    # -- commit log: read back (durable) or build from the delivery -----
    replay_dir = None
    if log is None:
        replay_dir = cfg["log_dir"]
        log = CommitLog(replay_dir, LogConfig())
        sink = LogConsumer(log)
        if tracer is not None:
            tracer.wrap_log(log)
        for chunk in counting.chunks():
            sink.deliver_many(chunk)
            sink.sync()
    # Three reads (the page cache is warm for all of them), each with the
    # ISM CPU's slowdown while it ran; the run keeps the median: one read
    # is short enough for a host hiccup to dominate it.
    reads = []
    for _ in range(3):
        frame = tracer.tracer.open("log.read") if tracer is not None else None
        w0 = time.time_ns()
        t0 = time.perf_counter()
        replayed = list(log.iter_from(log.start_offset))
        rate = len(replayed) / (time.perf_counter() - t0)
        reads.append((rate, probe.slowdown(w0, time.time_ns())))
        if frame is not None:
            tracer.tracer.close(frame, len(replayed))
    logged = [_g(record.event_id, record.values) for record in replayed]
    if cfg["durable"]:
        counts: dict[int, int] = defaultdict(int)
        for g in logged:
            counts[g] += 1
        for g in seen:
            if counts.get(g, 0) != 1:
                failures["log_readback"].add(g)
        acked_upto = node_info["acked_upto"]
        for exs_id, seq, records in batches:
            if seq <= acked_upto.get(exs_id, -1):
                for g in (_g(e, v) for e, v in records):
                    if counts.get(g, 0) == 0:
                        failures["acked_not_logged"].add(g)
    elif len(logged) != counting.delivered:
        failures["log_readback"].add("log size")

    stats = manager.stats
    sorter = manager.sorter
    cre = manager.cre
    if stats.duplicate_batches:
        failures["duplicate_batches"].add("duplicate batches")
    if stats.seq_gaps:
        failures["seq_gaps"].add("sequence gaps")
    tachyons_expected = sum(1 for op in ops if op[1] == inputs.CONSEQ)
    if cre.stats.tachyons_fixed != tachyons_expected:
        failures["tachyon_count"].add("tachyon count")
    counters = {
        "ism.duplicate_batches": stats.duplicate_batches,
        "ism.seq_gaps": stats.seq_gaps,
        "ism.batches_received": stats.batches_received,
        "ism.records_delivered": stats.records_delivered,
        "ism.durable_sync_errors": int(server.durable_sync_errors),
        "cre.tachyons_corrected": cre.stats.tachyons_fixed,
        "cre.tachyons_expected": tachyons_expected,
        "sorter.out_of_order": sorter.stats.out_of_order,
        "sorter.forced": sorter.stats.forced,
        "sorter.hold_mean_us": sorter.stats.hold_time_us.mean,
        "log.fsyncs": int(log.fsyncs),
        "log.records_appended": int(log.records_appended),
        "log.bytes_appended": int(log.bytes_appended),
    }
    out = {
        "delivered": counting.delivered,
        "done_t": done_t,
        "cpu_s": done_cpu - cpu0 - (done_own - own0) / 1e9 - probe.cpu_s(t_start, done_t),
        "oracle_cpu_s": (done_own - own0) / 1e9,
        "probe_cpu_s": probe.cpu_s(t_start, done_t),
        "deliver_ms": deliver_lat,
        "ack_ms": ack_lat,
        "replay": reads,
        "speed": {
            "ism": probe.slowdown(t_start, done_t),
            "ism_elapsed": probe.slowdown(due0, done_t, elapsed=True),
        },
        "failures": {k: list(v) for k, v in failures.items()},
        "counters": counters,
    }
    if tracer is not None:
        out["trace"] = tracer.report(manager, log, counting, batches, batch_ack, done_t)
    log.close()
    if replay_dir is not None:
        shutil.rmtree(replay_dir, ignore_errors=True)
    return out


class IsmTrace:
    """Span wrappers around the ISM-side public calls of one round."""

    def __init__(self, server, manager, log) -> None:
        self.tracer = tr = tracing.Tracer("ism")
        self.conns: set = set()
        self.frame_max_us = 0.0
        self.held_max = 0
        self.parked_max = 0
        self.ticks = 0
        self.empty_ticks = 0
        self.cycles = 0
        self.empty_cycles = 0
        self.flushed = 0
        self.window_start = 0
        self._pushed: list[tuple] = []
        self._released: list[tuple] = []
        sorter = manager.sorter

        def batch_n(args, out):
            return len(out.records) if isinstance(out, protocol.Batch) else 0

        def batch_id(args, out):
            return (out.exs_id, out.seq) if isinstance(out, protocol.Batch) else None

        tracing.wrap_span(tr, protocol, "decode_message", "ism.decode", batch_n, batch_id)
        real_recv = MessageConnection.recv_frames
        conns = self.conns

        def recv_frames(conn, *args, **kwargs):
            conns.add(conn)
            frame = tr.open("ism.recv")
            frames = []
            try:
                frames = real_recv(conn, *args, **kwargs)
                return frames
            finally:
                tr.close(frame, len(frames))

        MessageConnection.recv_frames = recv_frames

        class _Select:
            @staticmethod
            def select(*args):
                frame = tr.open("ism.select")
                try:
                    return select_module.select(*args)
                finally:
                    tr.close(frame)

        ism_proc.select = _Select
        real_pump = server._pump_connections

        def pump():
            frame = tr.open("ism.pump")
            try:
                return real_pump()
            finally:
                tr.close(frame)

        server._pump_connections = pump
        tracing.wrap_span(
            tr, manager, "on_batch", "ism.on_batch",
            lambda a, o: len(a[0].records), lambda a, o: (a[0].exs_id, a[0].seq),
        )
        real_push = sorter.push_many

        def push_many(exs_id, records, now):
            frame = tr.open("sorter.push", (exs_id,))
            try:
                real_push(exs_id, records, now)
            finally:
                tr.close(frame, len(records))
            if records:
                self._pushed.append((exs_id, records[0].node_id, len(records), now))
            self.held_max = max(self.held_max, sorter.held)

        sorter.push_many = push_many
        real_extract = sorter.extract_ready_batch

        def extract(now):
            frame = tr.open("sorter.extract")
            out = []
            try:
                out = real_extract(now)
                return out
            finally:
                tr.close(frame, len(out))
                self._released.append((list(map(_NODE, out)), now))
                self.frame_max_us = max(self.frame_max_us, sorter.frame_us)

        sorter.extract_ready_batch = extract
        real_flush = sorter.flush

        def flush(now):
            out = real_flush(now)
            self.flushed += len(out)
            self._released.append((list(map(_NODE, out)), now))
            return out

        sorter.flush = flush
        real_cre = manager.cre.process_many

        def cre_process(records, now):
            frame = tr.open("cre.process")
            try:
                return real_cre(records, now)
            finally:
                tr.close(frame, len(records))
                self.parked_max = max(self.parked_max, manager.cre.parked_now)

        manager.cre.process_many = cre_process
        real_tick = manager.tick

        def tick(now):
            frame = tr.open("ism.tick")
            n = 0
            try:
                n = real_tick(now)
                return n
            finally:
                tr.close(frame, n)
                self.ticks += 1
                self.empty_ticks += n == 0

        manager.tick = tick
        for consumer in manager.consumers:
            name = "deliver.log" if isinstance(consumer, LogConsumer) else "deliver.count"
            tracing.wrap_span(tr, consumer, "deliver_many", name, lambda a, o: len(a[0]))
        if log is not None:
            self.wrap_log(log)

    def wrap_log(self, log) -> None:
        tracing.wrap_span(self.tracer, log, "append_many", "log.append", lambda a, o: len(a[0]))
        tracing.wrap_span(self.tracer, log, "sync", "log.sync")

    def hold_times_us(self) -> list[int]:
        """Hold time per record, worked out after the round from the
        arrival and release events: per source the sorter is FIFO, so the
        released records of a source leave in the order they arrived."""
        events = [(now, 0, exs_id, node, n) for exs_id, node, n, now in self._pushed]
        events += [(now, 1, -1, -1, out) for out, now in self._released]
        node_src = {node: exs_id for _now, kind, exs_id, node, _n in events if kind == 0}
        arrivals: dict[int, deque] = defaultdict(deque)
        hold: list[int] = []
        for now, kind, exs_id, _node, payload in sorted(events, key=lambda e: (e[0], e[1])):
            if kind == 0:
                arrivals[exs_id].append([now, payload])
                continue
            for node in payload:
                queue = arrivals[node_src[node]]
                slot = queue[0]
                hold.append(now - slot[0])
                slot[1] -= 1
                if not slot[1]:
                    queue.popleft()
        return hold

    def report(self, manager, log, counting, batches, batch_ack, window_end) -> dict:
        tr = self.tracer
        spans = tr.spans
        # Pump cycles, and those that received no frame at all.
        frames_of: dict[int, int] = defaultdict(int)
        pumps = []
        window_ns = 0
        for sid, name, start, end, parent, _ident, n, _agg in spans:
            if name == "ism.pump":
                pumps.append(sid)
            elif name == "ism.recv":
                frames_of[parent] += n
            # Serve-loop time inside the measured window, select waits out.
            if self.window_start <= start and end <= window_end:
                if parent < 0 and name in ("ism.pump", "ism.tick", "log.sync"):
                    window_ns += end - start
                elif name == "ism.select":
                    window_ns -= end - start
        names = tracing.analyze(spans)["names"]
        hold_us = self.hold_times_us()
        stats = manager.stats
        sorter = manager.sorter
        checks = {
            "on_batch.calls=batches_received": (names.get("ism.on_batch", {}).get("spans", 0), stats.batches_received),
            "sorter.push.n=sorter.pushed": (names.get("sorter.push", {}).get("n", 0), sorter.stats.pushed),
            "sorter.extract.n+flush=sorter.released": (
                names.get("sorter.extract", {}).get("n", 0) + self.flushed, sorter.stats.released),
            "deliver.count.n=records_delivered": (
                names.get("deliver.count", {}).get("n", 0), stats.records_delivered),
            "recv.n=frames_received": (
                names.get("ism.recv", {}).get("n", 0), sum(c.frames_received for c in self.conns)),
            "log.append.n=records_appended": (names.get("log.append", {}).get("n", 0), int(log.records_appended)),
            "hold_samples=sorter.released": (len(hold_us), sorter.stats.released),
        }
        hold_mean = sum(hold_us) / len(hold_us) if hold_us else 0.0
        checks["hold_mean=sorter.hold_time_us.mean"] = (hold_mean, sorter.stats.hold_time_us.mean)
        # Wait from a batch's last delivery to the moment its EXS heard
        # the ack covering it (after fsync, on the durable path).
        t_of_g = {}
        rows = iter(counting.rows)
        for t, n in counting.times:
            for event_id, _node, _ts, values in islice(rows, n):
                t_of_g[_g(event_id, values)] = t
        ack_wait = []
        for exs_id, seq, records in batches:
            t_ack = batch_ack.get((exs_id, seq))
            times = [t_of_g.get(_g(e, v)) for e, v in records]
            if t_ack is not None and records and None not in times:
                ack_wait.append((t_ack - max(times)) / 1e6)
        return {
            "names": names,
            "rows": tracing.spans_as_rows(tr),
            "checks": checks,
            "sorter.hold_ms": summary([h / 1000 for h in hold_us]),
            "sorter.frame_ms.max": self.frame_max_us / 1000,
            "sorter.held_max": self.held_max,
            "cre.parked_max": self.parked_max,
            "ism.tick.empty_frac": self.empty_ticks / self.ticks if self.ticks else 0.0,
            "ism.ticks": self.ticks,
            "log.sync_ms": summary([
                (e - s) / 1e6 for _sid, nm, s, e, *_ in spans if nm == "log.sync"
            ]),
            "ack.wait_ms": summary(ack_wait),
            "ism.pump.cycles": len(pumps),
            "ism.pump.empty_frac": sum(1 for p in pumps if not frames_of[p]) / len(pumps) if pumps else 0.0,
            "window_spans_ns": window_ns,
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


if __name__ == "__main__":
    # Started by ``workloads._Ism`` with its end of a socket pair.
    from multiprocessing.connection import Connection

    ism_main(Connection(int(sys.argv[1])))
