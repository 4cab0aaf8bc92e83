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

Envelopes are plain tuples in memory and numpy structured arrays
(:data:`ENVELOPE_DTYPE`, one column per field) on disk between the
cluster engine's two phases; :func:`envelope_to_dict` produces the
JSON/schema form used by artifacts and ``repro.schemas``.

Identity remapping at decode time is deterministic and collision-free:

* ``ftuple`` becomes ``(REMOTE_BASE + src_host, REMOTE_BASE + dst_host,
  sport, dport)`` so classifiers on the destination see a distinct
  address space per source host,
* ``flow_id`` becomes ``FLOW_STRIDE * (src_host + 1) + flow_id`` so
  remote flows never collide with the destination's local flows (local
  flow ids stay well under :data:`FLOW_STRIDE`) and per-flow seq
  ordering survives the crossing intact.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..net.packet import FiveTuple, Packet, PacketFactory

_NAN = Packet.NAN

#: Envelope wire-format version (bump on any field change).
ENVELOPE_VERSION = "1.0"

#: Offset added to host indices to form remote ftuple addresses.
REMOTE_BASE = 1000

#: Stride separating per-source-host remote flow-id ranges.
FLOW_STRIDE = 1_000_000

#: Positional layout of the tuple form (doc + test introspection).
ENVELOPE_FIELDS = (
    "env_seq",      # per-source-host monotonic sequence number
    "src_host",
    "dst_host",
    "flow_id",      # source-local flow id (remapped at decode)
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

#: Columnar form of the tuple layout, field for field: ``tolist()`` on
#: an array of this dtype gives back the tuples, with plain Python
#: values.
ENVELOPE_DTYPE = np.dtype(list(zip(ENVELOPE_FIELDS, (
    "<i8", "<i4", "<i4", "<i8", "<i8", "<i4", "<i4", "<i4", "<i4",
    "<f8", "<f8", "<f8", "<i4", "?",
))))

#: Index of ``arrive_time`` in the tuple form (canonical sort key).
ARRIVE_IDX = ENVELOPE_FIELDS.index("arrive_time")
SRC_IDX = ENVELOPE_FIELDS.index("src_host")
DST_IDX = ENVELOPE_FIELDS.index("dst_host")
DROPPED_IDX = ENVELOPE_FIELDS.index("dropped")


def encode_envelope(
    packet: Packet,
    src_host: int,
    dst_host: int,
    env_seq: int,
    send_time: float,
    arrive_time: float,
    spine: int,
    dropped: bool,
) -> Tuple:
    """Flatten a departing packet into the inter-shard tuple form."""
    ft = packet.ftuple
    return (
        env_seq,
        src_host,
        dst_host,
        packet.flow_id,
        packet.seq,
        packet.size,
        packet.priority,
        ft.sport,
        ft.dport,
        packet.t_created,
        send_time,
        arrive_time,
        spine,
        dropped,
    )


def decode_envelope(env: Tuple, factory: PacketFactory) -> Packet:
    """Rebuild a destination-local packet from an envelope.

    The packet gets a fresh pid from the *destination's* factory; flow
    and address identities are remapped per the module contract so the
    rebuilt packet can enter the destination's last-mile data plane as
    ordinary ingress.  ``t_created`` is preserved: end-to-end latency is
    measured from the original source emission.

    Like a traffic source, decoding reuses a packet from the factory's
    free list when one is parked there, resetting every field a fresh
    packet carries; pid and ``created`` accounting match
    :meth:`PacketFactory.make` either way.
    """
    (_env_seq, src_host, dst_host, flow_id, seq, size, priority,
     sport, dport, t_created, _send, _arrive, _spine, _dropped) = env
    ft = FiveTuple(REMOTE_BASE + src_host, REMOTE_BASE + dst_host,
                   sport, dport)
    flow_id = FLOW_STRIDE * (src_host + 1) + flow_id
    free = factory.free
    if not free:
        return factory.make(ft, size, t_created, flow_id=flow_id, seq=seq,
                            priority=priority)
    pkt = free.pop()
    pkt.pid = factory.next_pid()
    pkt.ftuple = ft
    pkt.flow_id = flow_id
    pkt.seq = seq
    pkt.size = size
    pkt.priority = priority
    pkt.t_created = t_created
    pkt.t_nic = _NAN
    pkt.t_enq = _NAN
    pkt.t_deq = _NAN
    pkt.t_done = _NAN
    pkt.path_id = -1
    pkt.copy_of = -1
    pkt.dropped = None
    pkt.meta = None
    return pkt


def envelope_to_dict(env: Tuple) -> Dict:
    """Schema-versioned dict form of an envelope (artifacts, debugging)."""
    d = dict(zip(ENVELOPE_FIELDS, env))
    d["schema_version"] = ENVELOPE_VERSION
    return d


def envelope_from_dict(data: Dict) -> Tuple:
    """Inverse of :func:`envelope_to_dict` (drops ``schema_version``)."""
    missing = [f for f in ENVELOPE_FIELDS if f not in data]
    if missing:
        raise ValueError(f"envelope dict missing field(s) {missing}")
    return tuple(data[f] for f in ENVELOPE_FIELDS)
