"""Cross-shard conservation: no packet vanishes between hosts.

The single-host invariant engine (:mod:`repro.check.invariants`)
accounts every packet *inside* one data plane.  This module extends the
conservation family across the shard boundary of a cluster run, over
the router counters each host reports:

* **pairwise envelope conservation** -- for every host pair ``(i, j)``:
  ``sent_i[j] == received_j[i] + fabric_dropped_j[i]``.  Fabric loss is
  drawn at the *source* and the envelope still travels (flagged), so a
  lost packet is accounted at its destination rather than silently
  never materializing; any mismatch means the engine dropped or
  duplicated an envelope between its two phases.
* **per-host generation split** -- every generated packet went exactly
  one way: ``generated_i == local_i + sum_j sent_i[j]``.  ``generated``
  and ``sent`` are counted in the engine's routing phase and ``local``
  from the local rows its simulation phase replayed, so this also
  checks that every local emission reached the host's data plane.

:func:`check_cluster_conservation` is pure post-run arithmetic over the
result payload (no runtime hooks), so it can run on a live
:class:`~repro.cluster.ClusterResult` or one round-tripped from JSON.
"""

from __future__ import annotations

from typing import Dict, List


def check_cluster_conservation(result) -> Dict:
    """Verify the cross-shard conservation identities.

    Accepts a :class:`~repro.cluster.ClusterResult` or its
    :meth:`to_dict` payload.  Returns a report dict with ``ok``,
    per-identity totals and a (possibly empty) list of human-readable
    ``violations``; :func:`repro.cluster.run_cluster` raises
    :class:`~repro.check.invariants.InvariantViolation` when checking
    is armed and ``ok`` is false.
    """
    hosts = result["hosts"] if isinstance(result, dict) else result.hosts
    violations: List[str] = []
    total_sent = total_received = total_dropped = 0
    for h in hosts:
        hid = h["host_id"]
        router = h["router"]
        gen = router["generated"]
        local = router["local"]
        sent_total = sum(router["sent"].values())
        total_sent += sent_total
        total_received += sum(router["received"].values())
        total_dropped += sum(router["fabric_dropped"].values())
        if gen != local + sent_total:
            violations.append(
                f"host {hid}: generated {gen} != local {local} + "
                f"sent {sent_total}"
            )
    by_id = {h["host_id"]: h["router"] for h in hosts}
    for i, src_router in sorted(by_id.items()):
        for j_str, n_sent in sorted(src_router["sent"].items()):
            j = int(j_str)
            dst_router = by_id.get(j)
            if dst_router is None:
                violations.append(
                    f"host {i} sent {n_sent} envelopes to unknown host {j}"
                )
                continue
            got = dst_router["received"].get(str(i), 0)
            lost = dst_router["fabric_dropped"].get(str(i), 0)
            if n_sent != got + lost:
                violations.append(
                    f"pair ({i}->{j}): sent {n_sent} != received {got} "
                    f"+ fabric_dropped {lost}"
                )
    # The reverse direction: nothing received that was never sent.
    for j, dst_router in sorted(by_id.items()):
        seen = set(dst_router["received"]) | set(dst_router["fabric_dropped"])
        for i_str in sorted(seen):
            i = int(i_str)
            src_router = by_id.get(i)
            sent = 0 if src_router is None else \
                src_router["sent"].get(str(j), 0)
            got = dst_router["received"].get(i_str, 0)
            lost = dst_router["fabric_dropped"].get(i_str, 0)
            if sent == 0 and got + lost > 0:
                violations.append(
                    f"pair ({i}->{j}): accounted {got + lost} envelopes "
                    f"that host {i} never sent"
                )
    return {
        "ok": not violations,
        "envelopes_sent": total_sent,
        "envelopes_received": total_received,
        "fabric_dropped": total_dropped,
        "violations": violations,
    }
