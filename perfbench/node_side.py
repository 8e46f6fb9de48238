"""The node process's pieces: sensors and rings, and one EXS per node
driven by the product's ``ExsProcess`` loop on a thread of its own.

The benchmark observes the EXS from outside: an ``ExsOutbox`` subclass
notes when each Ack arrives, a wrapper on ``conn.recv`` notes the
HelloReply, and a wrapper on ``ExternalSensor.poll`` can park the EXS so
a burst fill runs with no EXS draining.
"""

from __future__ import annotations

import threading
import time

import tracing

from repro.clocksync.clocks import CorrectedClock
from repro.core import native
from repro.core.exs import ExternalSensor
from repro.core.ringbuffer import HEADER_SIZE, RingBuffer
from repro.core.sensor import Sensor
from repro.runtime.exs_proc import ExsOutbox, ExsProcess
from repro.util.timebase import now_micros
from repro.wire import protocol
from repro.wire.tcp import connect


class TimedOutbox(ExsOutbox):
    """The product outbox, noting when each Ack frame arrived."""

    def __init__(self, exs_id: int) -> None:
        super().__init__()
        self.exs_id = exs_id
        self.acks: list[tuple[int, int, int]] = []
        self.ack_frames = 0
        self.unacked_max = 0
        self.full_checks = 0
        self.full_true = 0
        self.unsent: list[int] = []
        #: Called after every Ack that released batches.
        self.on_ack = None

    @property
    def full(self) -> bool:
        full = super().full
        self.full_checks += 1
        self.full_true += full
        return full

    def append(self, seq: int, payload: bytes) -> None:
        super().append(seq, payload)
        self.unsent.append(seq)
        if len(self) > self.unacked_max:
            self.unacked_max = len(self)

    def ack(self, up_to_seq: int) -> int:
        released = super().ack(up_to_seq)
        self.ack_frames += 1
        if released:
            self.acks.append((self.exs_id, up_to_seq, time.time_ns()))
            if self.on_ack is not None:
                self.on_ack()
        return released


class Node:
    """One BRISK node: its sensors' rings, its EXS, its ISM connection."""

    def __init__(self, exs_id: int, node_id: int, n_rings: int, ring_bytes: int,
                 clock_offset_us: int = 0) -> None:
        self.exs_id = exs_id
        self.node_id = node_id
        self.clock_offset_us = clock_offset_us
        self.rings = [RingBuffer(bytearray(HEADER_SIZE + ring_bytes)) for _ in range(n_rings)]
        if clock_offset_us:
            def clock(offset=clock_offset_us):
                return now_micros() + offset
        else:
            clock = now_micros
        self.sensors = [Sensor(ring, node_id, clock=clock) for ring in self.rings]
        self.exs = ExternalSensor(exs_id, node_id, self.rings, CorrectedClock(now_micros))
        self.outbox = TimedOutbox(exs_id)
        self.hello_done = threading.Event()
        self.go = threading.Event()
        self.parked = threading.Event()
        self.hold = False
        self.conn = None
        self.proc = None
        self.thread = None
        #: What the gate calls: the product poll, or a traced wrapper of it
        #: (inside the gate, so a parked EXS is not charged to the poll).
        self.inner_poll = self.exs.poll

        def poll(now_local=None):
            if self.hold and not self.go.is_set():
                self.parked.set()
                self.go.wait()
            return self.inner_poll(now_local)

        self.exs.poll = poll

    def open(self, port: int) -> None:
        """Connect to the ISM (the EXS loop starts with :meth:`start`)."""
        self.conn = conn = connect("127.0.0.1", port)
        real_recv = conn.recv

        def recv(timeout=None):
            msg = real_recv(timeout=timeout)
            if isinstance(msg, protocol.HelloReply):
                self.hello_done.set()
            return msg

        conn.recv = recv
        self.proc = ExsProcess(self.exs, conn, outbox=self.outbox)

    def start(self) -> None:
        """Run the EXS loop: Hello → HelloReply, then drain and ship."""
        self.thread = threading.Thread(target=self.proc.run, name=f"exs-{self.exs_id}")
        self.thread.start()

    def ready(self, want_filter: bool) -> bool:
        return self.hello_done.is_set() and (not want_filter or self.exs.filter_epoch > 0)

    def park(self, timeout: float) -> bool:
        """Park the EXS inside its next poll (it wakes every select timeout)."""
        self.hold = True
        return self.parked.wait(timeout)

    def cpu_s(self) -> float:
        """CPU time of this node's EXS thread so far."""
        return time.clock_gettime(time.pthread_getcpuclockid(self.thread.ident))

    def stop(self, timeout: float) -> None:
        self.go.set()
        if self.proc is not None:
            self.proc.stop()
        if self.thread is not None:
            self.thread.join(timeout)
        if self.conn is not None:
            self.conn.close()

    def lost(self) -> int:
        """Records the rings rejected or overwrote."""
        return sum(r.dropped + r.overwritten for r in self.rings) + sum(s.dropped for s in self.sensors)


class NodeTrace:
    """Span wrappers around the node-side public calls of one round."""

    def __init__(self, tracer: tracing.Tracer, nodes: list[Node]) -> None:
        self.tracer = tr = tracer
        self._drained: list[tuple] = []
        self.batch_wait_ms: list[float] = []
        self.polls = 0
        self.empty_polls = 0
        self.admit_false = 0
        self.control_frames: dict[int, int] = {}
        self._drains: dict[int, list] = {n.exs_id: [] for n in nodes}
        self._pack_real = native.pack_record
        tracing.wrap_agg(tr, native, "pack_record", "sensor.pack")

        self._encode_real = protocol.encode_batch_records
        real_encode = protocol.encode_batch_records
        drains = self._drains
        batch_wait = self.batch_wait_ms

        def encode(exs_id, seq, records, **kwargs):
            frame = tr.open("exs.encode", (exs_id, seq))
            try:
                return real_encode(exs_id, seq, records, **kwargs)
            finally:
                tr.close(frame, len(records))
                # The batch's records came, in order, from the oldest
                # drains with admitted records still unbatched; each
                # record waited from its drain until this encode.
                queue = drains[exs_id]
                left = len(records)
                while left and queue:
                    take = min(left, queue[0][1])
                    batch_wait.extend([(frame[2] - queue[0][0]) / 1e6] * take)
                    queue[0][1] -= take
                    left -= take
                    if not queue[0][1]:
                        queue.pop(0)

        protocol.encode_batch_records = encode
        for node in nodes:
            self._wrap_node(node)

    def ring_wait_ms(self) -> list[float]:
        """How long each drained record sat in its ring."""
        ts = native.timestamp_of
        return [
            (t_ns // 1000 - ts(p) + offset) / 1000
            for t_ns, offset, payloads in self._drained
            for p in payloads
        ]

    def restore(self) -> None:
        native.pack_record = self._pack_real
        protocol.encode_batch_records = self._encode_real

    def _wrap_node(self, node: Node) -> None:
        tr = self.tracer
        exs = node.exs
        drains = self._drains[node.exs_id]
        for ring in node.rings:
            tracing.wrap_agg(tr, ring, "push_bytes", "ring.push")
            real_drain = ring.drain_bytes

            def drain(limit=None, real_drain=real_drain):
                frame = tr.open("ring.drain")
                out = []
                try:
                    out = real_drain(limit)
                    return out
                finally:
                    tr.close(frame, len(out))
                    if out:
                        # Ring waits are worked out after the round, so
                        # the work is not charged to the enclosing poll.
                        self._drained.append((frame[2], node.clock_offset_us, out))
                        drains.append([frame[2], len(out) if exs.filter is None else 0])

            ring.drain_bytes = drain
        real_poll = node.inner_poll

        def poll(now_local=None):
            before = exs.stats.records_drained
            frame = tr.open("exs.poll", (node.exs_id,))
            out = []
            try:
                out = real_poll(now_local)
                return out
            finally:
                drained = exs.stats.records_drained - before
                tr.close(frame, drained)
                self.polls += 1
                self.empty_polls += not drained and not out

        node.inner_poll = poll
        real_send_many = node.conn.send_many
        outbox = node.outbox

        def send_many(payloads):
            seqs, outbox.unsent = outbox.unsent, []
            frame = tr.open("exs.send", (node.exs_id, seqs[0] if seqs else -1, seqs[-1] if seqs else -1))
            try:
                real_send_many(payloads)
            finally:
                tr.close(frame, len(payloads))

        node.conn.send_many = send_many
        real_send = node.conn.send
        self.control_frames[node.exs_id] = 0

        def send(msg, **kw):
            self.control_frames[node.exs_id] += 1
            return real_send(msg, **kw)

        node.conn.send = send
        real_ack = outbox.ack

        def ack(up_to_seq):
            frame = tr.open("exs.ack", (node.exs_id, up_to_seq))
            try:
                return real_ack(up_to_seq)
            finally:
                tr.close(frame)

        outbox.ack = ack

    def wrap_filter(self, node: Node) -> None:
        """Time the pushed predicate once the EXS has installed it."""
        drains = self._drains[node.exs_id]

        def counted(admitted):
            if admitted:
                if drains:
                    drains[-1][1] += 1
            else:
                self.admit_false += 1

        tracing.wrap_agg(self.tracer, node.exs.filter, "admit_payload", "predicate.admit", counted)
