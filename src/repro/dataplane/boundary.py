"""Host encapsulation boundary: packets crossing shards as envelopes.

A :class:`~repro.net.packet.Packet` is a mutable object full of local
bookkeeping (stage timestamps, path ids, pool identity) that must never
leak across a shard boundary — two worker processes do not share a
:class:`~repro.net.packet.PacketFactory`, and a pid that is unique on
one host is meaningless on another.  This module defines the wire
format between shards: a flat, schema-versioned **envelope** carrying
exactly the header fields the destination host needs to rebuild an
equivalent packet, and nothing that depends on the source host's
runtime state.

Envelopes are rows of numpy structured arrays (:data:`ENVELOPE_DTYPE`,
one column per field), in memory and on disk between the cluster
engine's two phases.  A host's *local* emissions travel in the
same columns as rows with ``dst_host == src_host`` and ``arrive_time ==
send_time``, so :func:`host_ingress` can merge everything a host takes
in into one stream, which :class:`IngressReplay` feeds to its NIC.

Identity remapping is deterministic and collision-free, and done in
numpy by :func:`host_ingress`:

* ``ftuple`` becomes ``(REMOTE_BASE + src_host, REMOTE_BASE + dst_host,
  sport, dport)`` so classifiers on the destination see a distinct
  address space per source host; a local row gets back the source's own
  ``(LOCAL_SRC, LOCAL_DST, sport, dport)``,
* ``flow_id`` becomes ``FLOW_STRIDE * (src_host + 1) + flow_id`` so
  remote flows never collide with the destination's local flows (local
  flow ids stay well under :data:`FLOW_STRIDE`, and keep their value)
  and per-flow seq ordering survives the crossing intact.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Sequence

import numpy as np

from ..net.packet import FiveTuple
from ..net.traffic import REPLAY_BATCH, Replay, SourceStats

#: Offset added to host indices to form remote ftuple addresses.
REMOTE_BASE = 1000

#: Stride separating per-source-host remote flow-id ranges.
FLOW_STRIDE = 1_000_000

#: Addresses a scenario's traffic source stamps into every five-tuple
#: (the defaults of :mod:`repro.net.traffic` sources); a local row's
#: packet is rebuilt with them.
LOCAL_SRC, LOCAL_DST = 0, 1

#: Envelope fields, in column order.
ENVELOPE_FIELDS = (
    "env_seq",      # per-source-host monotonic sequence number; on a
                    # local row, the envelopes its host sent before it
    "src_host",
    "dst_host",
    "flow_id",      # source-local flow id (remapped on arrival)
    "seq",          # per-flow sequence number, preserved end to end
    "size",
    "priority",
    "sport",
    "dport",
    "t_created",    # source emission time (e2e latency baseline)
    "send_time",    # when the packet entered the fabric
    "arrive_time",  # send_time + fabric delay (>= send + base_latency)
    "spine",        # fabric spine the steering policy chose
    "dropped",      # True: lost in-fabric; receiver accounts, not delivers
)

#: The envelope columns, field for field.
ENVELOPE_DTYPE = np.dtype(list(zip(ENVELOPE_FIELDS, (
    "<i8", "<i4", "<i4", "<i8", "<i8", "<i4", "<i4", "<i4", "<i4",
    "<f8", "<f8", "<f8", "<i4", "?",
))))


# ----------------------------------------------------------------------
# Phase 2: one merged ingress stream per host, replayed at exact times
# ----------------------------------------------------------------------
#: One replayed record, in the column order of
#: :class:`~repro.net.traffic.Replay`: arrival time, pid floor (the
#: host's own envelopes emitted before it, see
#: :class:`~repro.net.traffic.ReplayFactory`), the flow's index in
#: ``IngressReplay.flows``, then the packet's ``seq``, ``size``,
#: ``priority`` and ``t_created``.
REPLAY_DTYPE = np.dtype([
    ("time", "<f8"), ("floor", "<i8"), ("flow", "<i4"), ("seq", "<i8"),
    ("size", "<i4"), ("priority", "<i4"), ("t_created", "<f8"),
])



def host_ingress(incoming: Sequence[str], outgoing: Sequence[str],
                 host_id: int, offered: int) -> "IngressReplay":
    """Read and merge one host's ingress into an unbound
    :class:`IngressReplay`.

    ``incoming`` are the row files addressed to ``host_id``, one per
    source host in host order (its own local rows among them), each in
    emission order; ``outgoing`` the files of the envelopes the host
    sent.  A missing file holds no rows.  Files are read one at a time
    into one buffer, keeping only what a record needs.  Dropped
    envelopes are counted, not replayed.  The rest replays in the
    canonical ``(arrive_time, src_host, env_seq)`` order, a local row
    ranking as an envelope of its own host; rows equal on all three keep
    their file order, which for local rows is emission order.
    """
    incoming = [p for p in incoming if os.path.exists(p)]
    outgoing = [p for p in outgoing if os.path.exists(p)]
    size = {p: os.path.getsize(p) // ENVELOPE_DTYPE.itemsize
            for p in incoming + outgoing}
    buf = np.empty(max(size.values(), default=0), dtype=ENVELOPE_DTYPE)

    def read(path: str) -> np.ndarray:
        raw = buf[:size[path]]
        with open(path, "rb") as fh:
            fh.readinto(raw.view(np.uint8))
        return raw

    ing = IngressReplay(host_id, offered)
    ing.sends = np.sort(np.concatenate(
        [np.empty(0)] + [read(p)["send_time"].copy() for p in outgoing]))
    rows = np.empty(sum(size[p] for p in incoming), dtype=REPLAY_DTYPE)
    n = 0
    for path in incoming:
        n += ing._take(read(path), rows[n:])
    ing.rows = rows[:n]
    # Files come in (src_host, env_seq) order, so a stable sort on the
    # arrival time alone gives the canonical order.
    ing.order = np.argsort(ing.rows["time"], kind="stable")
    return ing


class IngressReplay(Replay):
    """A cluster host's phase-2 traffic source: its merged ingress.

    Built by :func:`host_ingress`, then :meth:`bind`-ed to the host.
    ``rows`` (:data:`REPLAY_DTYPE`) holds the records as read and
    ``order`` lists them in replay order.  They are replayed as columns
    :data:`~repro.net.traffic.REPLAY_BATCH` at a time, so no sorted copy
    is ever held, and both are let go once the replay ends.  Every record
    of one timestamp goes out back to back in replay order, so an exact
    tie between a local emission and a fabric arrival follows the
    canonical order.  ``flows`` holds each flow's remapped
    ``(FiveTuple, flow_id)``.  Packet ids are the ones the host would
    allocate with its source running (pid floors over ``sends``).

    ``stats.packets`` is what the host's source generated in phase 1;
    ``local``, ``received`` and ``fabric_dropped`` count its local rows
    and, per source host, the envelopes that reached it or were lost on
    the way.
    """

    __slots__ = ("host_id", "stats", "local", "received", "fabric_dropped",
                 "rows", "order")

    def __init__(self, host_id: int, offered: int) -> None:
        super().__init__(None, None, None, [])
        self.host_id = host_id
        self.stats = SourceStats()
        self.stats.packets = offered
        self.local = 0
        self.received: Counter = Counter()
        self.fabric_dropped: Counter = Counter()

    def _take(self, raw: np.ndarray, out: np.ndarray) -> int:
        """Count one file's rows and write the ones to replay to the head
        of ``out``, remapped per the module contract, with one new
        entry in ``flows`` per flow; returns how many.  A flow's rows all
        come from one source host, so all sit in one file."""
        if np.any(np.diff(raw["env_seq"]) < 0):
            raise ValueError("ingress rows must come in emission order")
        src, dropped = raw["src_host"], raw["dropped"]
        local = src == self.host_id
        self.local += int(np.count_nonzero(local))
        self.received.update(_counts(src[~local & ~dropped]))
        self.fabric_dropped.update(_counts(src[dropped]))
        kept = ~dropped
        src, local = src[kept], local[kept]
        out = out[:len(src)]
        for field in ("seq", "size", "priority", "t_created"):
            out[field] = raw[field][kept]
        out["time"] = raw["arrive_time"][kept]
        # A local row knows its floor; an arrival counts the host's
        # envelopes sent strictly before it arrives.
        out["floor"] = np.where(local, raw["env_seq"][kept],
                                np.searchsorted(self.sends, out["time"]))
        flow_id = raw["flow_id"][kept]
        flow_id[~local] += FLOW_STRIDE * (src[~local].astype(np.int64) + 1)
        _, first, flow = np.unique(flow_id, return_index=True,
                                   return_inverse=True)
        sport, dport = raw["sport"][kept], raw["dport"][kept]
        if (np.any(sport != sport[first][flow])
                or np.any(dport != dport[first][flow])):
            raise ValueError(f"host {self.host_id}: a flow id arrives with "
                             f"more than one port pair")
        out["flow"] = flow + len(self.flows)
        self.flows.extend(
            (FiveTuple(LOCAL_SRC, LOCAL_DST, sp, dp) if s == self.host_id
             else FiveTuple(REMOTE_BASE + s, REMOTE_BASE + self.host_id,
                            sp, dp), fid)
            for s, fid, sp, dp in zip(src[first].tolist(),
                                      flow_id[first].tolist(),
                                      sport[first].tolist(),
                                      dport[first].tolist()))
        return len(out)

    def bind(self, sim, host) -> "IngressReplay":
        """Make this the traffic source of a freshly built ``host``,
        feeding ``host.nic``; the host's factory becomes a
        :class:`~repro.net.traffic.ReplayFactory` on the same free
        list."""
        self.sim, self.sink = sim, host.nic.on_wire
        self.adopt(host)
        return self

    def _records(self):
        for lo in range(0, len(self.order), REPLAY_BATCH):
            batch = self.rows[self.order[lo:lo + REPLAY_BATCH]]
            yield [batch[f].tolist() for f in REPLAY_DTYPE.names]
        self.rows = self.order = None


def _counts(hosts: np.ndarray) -> Counter:
    """``{host: rows}`` over a column of host ids (present hosts only)."""
    return Counter({h: c for h, c in enumerate(np.bincount(hosts).tolist())
                    if c})
