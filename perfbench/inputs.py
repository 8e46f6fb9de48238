"""Workload inputs, generated deterministically from the workload seed.

Every record carries its *global index* ``g`` (unique within one round),
so the oracle can look up what a delivered record should be without any
side channel: both processes call the same generator with the same
``(seed, workload, round)`` and get the same operation list.

An operation is a tuple ``(src, kind, values)``:

* ``FIXED``  — six ``X_INT`` fields ``(g, klass, a, b, c, d)`` issued with
  ``Sensor.notice_ints`` (eligible for the fixed-size codec paths);
* ``DYN``    — ``(g, klass, text, x)`` as ``X_INT, X_INT, X_STRING,
  X_DOUBLE`` issued with the dynamic ``Sensor.notice``;
* ``REASON`` — ``(rid, klass, g)`` issued with ``Sensor.notice_reason``;
* ``CONSEQ`` — ``(rid, klass, g)`` issued with ``Sensor.notice_conseq``.

Field 1 is always an ``X_INT`` "class" in ``[0, 100)``: the steering
filter of ``mixed-causal`` tests it, so the share it drops follows from
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.records import FieldType

FIXED, DYN, REASON, CONSEQ = 0, 1, 2, 3

EV_FIXED = 0x101
EV_DYN = 0x102
EV_REASON = 0x103
EV_CONSEQ = 0x104
EVENT_OF_KIND = (EV_FIXED, EV_DYN, EV_REASON, EV_CONSEQ)

#: The field types a delivered record of each kind must carry.
FIELD_TYPES = {
    FIXED: (FieldType.X_INT,) * 6,
    DYN: (FieldType.X_INT, FieldType.X_INT, FieldType.X_STRING, FieldType.X_DOUBLE),
    REASON: (FieldType.X_REASON, FieldType.X_INT, FieldType.X_INT),
    CONSEQ: (FieldType.X_CONSEQ, FieldType.X_INT, FieldType.X_INT),
}

#: Node B's sensor clock runs this far behind node A's (mixed-causal), so
#: every consequence issued on B right after its reason on A is stamped
#: earlier than the reason: a tachyon the ISM's CRE must correct.
SKEW_US = 50_000

#: Batches close at the EXS default of 256 records; burst sizes are a
#: multiple of it so the drain never waits on the flush timeout.
EXS_BATCH = 256


@dataclass(frozen=True)
class Params:
    """Size and shape of one workload's rounds."""

    #: Records issued per round.
    records: int
    #: Paced rate, records per second (0 = burst: fill, then drain).
    rate: int = 0
    #: Records issued back to back per pacing step (paced workloads).
    block: int = 20
    #: mixed-causal: share of steps that issue a reason/consequence pair.
    pair_frac: float = 0.0
    #: mixed-causal: share of non-pair records issued with dynamic notice.
    dyn_frac: float = 0.0


SIZES: dict[str, dict[str, Params]] = {
    "full": {
        "e3-burst": Params(records=EXS_BATCH * 160),
        "durable-paced": Params(records=24_000, rate=8_000, block=20),
        "mixed-causal": Params(records=15_000, rate=5_000, block=20, pair_frac=0.08, dyn_frac=0.4),
    },
    "smoke": {
        "e3-burst": Params(records=EXS_BATCH * 8),
        "durable-paced": Params(records=2_000, rate=8_000, block=20),
        "mixed-causal": Params(records=2_000, rate=5_000, block=20, pair_frac=0.08, dyn_frac=0.4),
    },
}


def _rng(seed: int, workload: str, round_idx: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_idx}")


def filter_cut(seed: int) -> int:
    """mixed-causal: node A keeps records whose class is >= this value
    (so the filter drops 22-30% of node A's plain records)."""
    return 22 + seed % 9


def _text(rng: random.Random) -> str:
    # Mostly short strings with a long tail, as log messages tend to be.
    length = min(96, int(rng.expovariate(1 / 14)))
    return (("%08x" % rng.getrandbits(32)) * (length // 8 + 1))[:length]


def generate(seed: int, workload: str, round_idx: int, params: Params) -> list[tuple]:
    """The operation list of one round (same inputs for the same seed)."""
    rng = _rng(seed, workload, round_idx)
    bits = rng.getrandbits
    ops: list[tuple] = []
    n = params.records
    if workload == "e3-burst":
        for g in range(n):
            ops.append((0, FIXED, (g, bits(7) % 100, bits(31), bits(31), bits(31), bits(31))))
        return ops
    if workload == "durable-paced":
        # Two application processes on one node: each record goes to one
        # of the two rings, chosen by the seed.
        for g in range(n):
            ops.append((bits(1), FIXED, (g, bits(7) % 100, bits(31), bits(31), bits(31), bits(31))))
        return ops
    if workload != "mixed-causal":
        raise ValueError(f"unknown workload {workload!r}")
    cut = filter_cut(seed)
    g = 0
    rid = 1
    while g < n:
        # A pair never straddles two pacing steps: issued back to back,
        # the consequence (on a clock SKEW_US behind) is stamped before its
        # reason even when the generator stalls between two steps for
        # longer than the skew.
        if rng.random() < params.pair_frac and g % params.block != params.block - 1:
            # Reason on node A (its class always passes A's filter), the
            # consequence on node B right after it.
            ops.append((0, REASON, (rid, cut + rng.randrange(100 - cut), g)))
            ops.append((1, CONSEQ, (rid, rng.randrange(100), g + 1)))
            rid += 1
            g += 2
            continue
        src = bits(1)
        klass = rng.randrange(100)
        if rng.random() < params.dyn_frac:
            ops.append((src, DYN, (g, klass, _text(rng), g * 0.5 + rng.randrange(1000) / 8)))
        else:
            ops.append((src, FIXED, (g, klass, bits(31), bits(31), bits(31), bits(31))))
        g += 1
    return ops


def index_of(kind: int, values: tuple) -> int:
    """The global index ``g`` carried by a record of *kind*."""
    return values[2] if kind >= REASON else values[0]


def kept_by_filter(workload: str, seed: int, src: int, values: tuple) -> bool:
    """Whether the steering filter lets a record through (mixed-causal
    filters node A only, on field 1)."""
    if workload != "mixed-causal" or src != 0:
        return True
    return values[1] >= filter_cut(seed)


def properties(workload: str, seed: int, ops: list[tuple], rings_per_exs: int) -> dict:
    """Measured shares of the input properties later optimisations may
    depend on."""
    n = len(ops)
    fixed = sum(1 for op in ops if op[1] == FIXED)
    pairs = sum(1 for op in ops if op[1] == REASON)
    dropped = sum(1 for op in ops if not kept_by_filter(workload, seed, op[0], op[2]))
    lengths = sorted(len(op[2][2]) for op in ops if op[1] == DYN)

    def q(frac: float) -> int:
        return lengths[min(len(lengths) - 1, int(frac * len(lengths)))] if lengths else 0

    return {
        "input.fixed_schema_frac": fixed / n,
        "input.causal_pair_frac": 2 * pairs / n,
        "input.filter_drop_frac": dropped / n,
        "input.dyn_frac": sum(1 for op in ops if op[1] == DYN) / n,
        "input.str_len.p50": q(0.5),
        "input.str_len.p90": q(0.9),
        "input.str_len.max": lengths[-1] if lengths else 0,
        "input.rings_per_exs": rings_per_exs,
    }
