"""Click-style packet-processing elements and NF chains.

The authors' prototype lineage (ParaGraph and follow-ups) builds data
planes from **Click** elements running over DPDK.  This subpackage models
that layer: an :class:`~repro.elements.base.Element` consumes a packet,
mutates it (headers, drops, marks) and reports its *service cost* in µs;
an :class:`~repro.elements.graph.ElementGraph` composes elements into a
validated DAG and compiles linear :class:`~repro.elements.base.Chain`
pipelines that the data-plane paths execute per packet.

The NF library (:mod:`~repro.elements.nf`) implements the standard
middlebox set used by NFV evaluations: classifier, ACL firewall, NAT,
token-bucket rate limiter, flow monitor (with a count-min sketch), L4 load
balancer, DPI, and VXLAN-style encap/decap.
"""

from repro.elements.base import Element, Chain, StatelessElement, PASS, DROP
from repro.elements.graph import ElementGraph, GraphError
from repro.elements.nf import (
    Classifier,
    AclFirewall,
    AclRule,
    Nat,
    RateLimiter,
    FlowMonitor,
    LoadBalancer,
    Dpi,
    VxlanEncap,
    VxlanDecap,
    Delay,
    standard_chain,
    STANDARD_CHAINS,
)
from repro.elements.sketch import CountMinSketch
from repro.elements.parallel import StageParallelChain

__all__ = [
    "Element",
    "Chain",
    "StatelessElement",
    "PASS",
    "DROP",
    "ElementGraph",
    "GraphError",
    "Classifier",
    "AclFirewall",
    "AclRule",
    "Nat",
    "RateLimiter",
    "FlowMonitor",
    "LoadBalancer",
    "Dpi",
    "VxlanEncap",
    "VxlanDecap",
    "Delay",
    "standard_chain",
    "STANDARD_CHAINS",
    "CountMinSketch",
    "StageParallelChain",
]
