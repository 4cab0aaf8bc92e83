"""Path-selection policies.

A policy answers one question per ingress packet: *which path(s) does
this packet take?*  ``select`` returns a non-empty list of path ids --
the first is the primary, any further ids receive replicas (first copy
to complete wins).

The zoo spans the design space the paper's evaluation compares:

======================  =========================  ====================
policy                  granularity                signal used
======================  =========================  ====================
:class:`SinglePath`     none (baseline)            --
:class:`RandomHash`     per flow (ECMP-like)       hash only
:class:`RoundRobin`     per packet                 none
:class:`RandomSpray`    per packet                 none
:class:`FlowletSwitching` per flowlet              queue/latency at boundary
:class:`LeastLoaded`    per packet                 expected wait
:class:`PowerOfTwo`     per packet                 depth of 2 samples
:class:`RedundantK`     per packet, r copies       none
:class:`AdaptiveMultipath` per flowlet + selective  health + wait + budget
                        replication
======================  =========================  ====================

``needs_reorder`` declares whether a policy can reorder packets within a
flow, letting :class:`~repro.core.mpdp.MultipathDataPlane` skip the
reorder buffer when it provably cannot (single path, per-flow hashing).

Under fault injection the controller may *eject* dead paths from the
live set (see :class:`~repro.core.controller.PathController`).  Health-
aware policies mask ejected paths automatically -- the shared detector
marks them unhealthy and zeroes their weights -- while oblivious ones
(single, hash, rr, spray, po2, redundant) keep selecting them and rely
on the controller re-steering the dead queue each tick.  Every selector
must survive ``n_paths -> n_paths-1 -> n_paths`` live-set transitions
without raising; the all-ejected corner is guarded in the data plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import DetectorConfig, StragglerDetector
from repro.core.flowlet import FlowletTable
from repro.dataplane.path import DataPath
from repro.net.packet import Packet

#: Batch size for pre-sampled random draws.
_BATCH = 4096


class Policy:
    """Base class; subclasses implement :meth:`select`."""

    name = "base"
    #: True if the policy may send packets of one flow over different
    #: paths close together in time (=> reorder buffer required).
    needs_reorder = True

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        """Choose path ids for ``packet`` (primary first)."""
        raise NotImplementedError

    def on_feedback(self, packet: Packet, now: float) -> None:
        """Optional completion feedback hook (default: ignore)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Policy {self.name}>"


class SinglePath(Policy):
    """Everything on one fixed path -- the status-quo baseline."""

    name = "single"
    needs_reorder = False

    def __init__(self, path_id: int = 0) -> None:
        self.path_id = path_id

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        return [self.path_id]


class RandomHash(Policy):
    """Per-flow hashing (the intra-host analogue of ECMP).

    Flow affinity means no reordering, but elephant collisions and the
    inability to move away from a stalled path cap its tail benefit.
    """

    name = "hash"
    needs_reorder = False

    def __init__(self, salt: int = 0x5BD1E995) -> None:
        self.salt = salt

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        h = (hash(packet.ftuple) ^ self.salt) * 0x9E3779B97F4A7C15
        return [(h >> 16) % len(paths)]


class RoundRobin(Policy):
    """Per-packet round-robin spraying: perfect balance, max reordering."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        pid = self._next
        self._next = (pid + 1) % len(paths)
        return [pid]


class RandomSpray(Policy):
    """Per-packet uniform random spraying."""

    name = "spray"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        #: The current batch of draws, as Python ints.
        self._draws: List[int] = []
        self._i = 0
        self._k = 0

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        k = len(paths)
        if self._i >= len(self._draws) or k != self._k:
            self._draws = self.rng.integers(0, k, _BATCH).tolist()
            self._i = 0
            self._k = k
        pid = self._draws[self._i]
        self._i += 1
        return [pid]


def _rotating_argmin(paths, now, offset: int) -> int:
    """Least expected wait with a rotating tie-break.

    A plain ``min`` resolves ties toward the lowest path id, which pins
    all idle-system traffic onto path 0 (and then flags it as the
    slowest path).  Starting the scan at a rotating offset spreads
    equal-wait choices evenly at zero cost.
    """
    k = len(paths)
    i = offset % k
    best = paths[i].path_id
    best_wait = float("inf")
    for _ in range(k):
        p = paths[i]
        # Inlined DataPath.expected_wait (called k times per decision).
        m = p._mean_cost
        if m == 0.0:
            m = p._mean_cost = p.chain.mean_cost()
        w = len(p.queue) * m
        pending_cpu = p.vcpu._free_at - now
        if pending_cpu > 0.0:
            w += pending_cpu
        if w < best_wait:
            best_wait = w
            best = p.path_id
        i += 1
        if i == k:
            i = 0
    return best


class LeastLoaded(Policy):
    """Per-packet join-the-shortest-expected-wait (rotating tie-break)."""

    name = "leastload"

    def __init__(self) -> None:
        self._rr = 0

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        self._rr += 1
        return [_rotating_argmin(paths, now, self._rr)]


class PowerOfTwo(Policy):
    """JSQ(2): sample two random paths, join the shorter queue.

    Classic load-balancing result: almost all of least-loaded's benefit
    at a fraction of its state-inspection cost.
    """

    name = "po2"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        #: The current batch of ``[a, b]`` draws, as Python ints.
        self._draws: List[List[int]] = []
        self._i = 0
        self._k = 0

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        k = len(paths)
        if k == 1:
            return [0]
        if self._i >= len(self._draws) or k != self._k:
            self._draws = self.rng.integers(0, k, size=(_BATCH, 2)).tolist()
            self._i = 0
            self._k = k
        a, b = self._draws[self._i]
        self._i += 1
        if a == b:
            b = (b + 1) % k
        return [a if paths[a].expected_wait(now) <= paths[b].expected_wait(now) else b]


class FlowletSwitching(Policy):
    """Re-pick the path only at flowlet boundaries.

    At a boundary the new flowlet joins the path with the least expected
    wait; within a flowlet, affinity holds.  Reordering is possible only
    when the inter-flowlet gap underestimates path skew, so it is rare
    with a well-chosen timeout (ablation A1 sweeps it).
    """

    name = "flowlet"

    def __init__(self, timeout: float = 100.0) -> None:
        self.table = FlowletTable(timeout=timeout)
        self._rr = 0

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        fid = packet.flow_id
        self._rr += 1
        if fid < 0:
            # Flow-less packet: treat as its own flowlet boundary.
            return [_rotating_argmin(paths, now, self._rr)]
        current = self.table.lookup(fid, now)
        if current is not None:
            return [current]
        chosen = _rotating_argmin(paths, now, self._rr)
        self.table.assign(fid, chosen, now)
        return [chosen]


class WeightedRandom(Policy):
    """Flowlet-granularity weighted-random selection from control-plane
    weights.

    The controller publishes normalized per-path weights every tick
    (inverse expected wait among healthy paths); new flowlets sample a
    path from that distribution.  Randomization avoids the synchronized
    herding a deterministic argmin can cause when many flowlet
    boundaries coincide (e.g. at burst onset), at the cost of sometimes
    picking a slower-but-healthy path.

    The policy needs :meth:`bind_controller` before traffic flows; the
    :class:`~repro.core.mpdp.MultipathDataPlane` facade does this
    automatically.
    """

    name = "weighted"

    def __init__(
        self,
        rng: np.random.Generator,
        flowlet_timeout: float = 100.0,
    ) -> None:
        self.rng = rng
        self.table = FlowletTable(timeout=flowlet_timeout)
        self.controller = None
        #: The current batch of uniform draws, as Python floats.
        self._draws: List[float] = []
        self._i = 0

    def bind_controller(self, controller) -> None:
        """Attach the weight source (done by the MPDP facade)."""
        self.controller = controller

    def _pick(self, k: int) -> int:
        if self._i >= len(self._draws):
            self._draws = self.rng.random(_BATCH).tolist()
            self._i = 0
        u = self._draws[self._i]
        self._i += 1
        if self.controller is None:
            return int(u * k) % k  # uniform fallback before binding
        weights = self.controller.weights
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u <= acc:
                return i
        return k - 1

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        fid = packet.flow_id
        if fid >= 0:
            current = self.table.lookup(fid, now)
            if current is not None:
                return [current]
        chosen = self._pick(len(paths))
        if fid >= 0:
            self.table.assign(fid, chosen, now)
        return [chosen]


class RedundantK(Policy):
    """Full redundancy: every packet goes down ``r`` distinct paths.

    Round-robin rotates the primary so replicas spread evenly.
    """

    name = "redundant"

    def __init__(self, r: int = 2) -> None:
        if r < 2:
            raise ValueError(f"redundancy requires r >= 2, got {r}")
        self.r = r
        self._next = 0
        #: Each primary's choice list for ``len(paths)`` paths (read-only).
        self._choices: List[List[int]] = []

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        k = len(paths)
        choices = self._choices
        if len(choices) != k:
            r = min(self.r, k)
            choices = self._choices = [[(first + i) % k for i in range(r)]
                                       for first in range(k)]
        first = self._next
        self._next = (first + 1) % k
        return choices[first % k]


class AdaptiveMultipath(Policy):
    """The paper-style policy: flowlet granularity + straggler avoidance
    + budgeted selective replication.

    Decision per packet:

    1. Live flowlet whose path is still healthy -> stay (no reordering).
    2. Otherwise pick the healthy path with the least expected wait and
       rebind the flowlet.
    3. If the packet is *latency-critical* (small size or elevated
       priority) and the replication budget allows, add one replica on
       the next-best healthy path: insurance against a stall that begins
       after steering.

    The replication budget is a fraction of total traffic, enforced by a
    self-correcting counter, so redundancy cannot snowball under load --
    the failure mode of :class:`RedundantK`.
    """

    name = "adaptive"

    def __init__(
        self,
        flowlet_timeout: float = 100.0,
        detector: Optional[StragglerDetector] = None,
        replication_budget: float = 0.05,
        critical_size: int = 300,
        min_healthy_for_replication: int = 2,
        health_refresh: float = 10.0,
    ) -> None:
        if not 0.0 <= replication_budget <= 1.0:
            raise ValueError("replication_budget must be in [0, 1]")
        if health_refresh < 0:
            raise ValueError("health_refresh must be >= 0")
        self.table = FlowletTable(timeout=flowlet_timeout)
        self.detector = detector or StragglerDetector(DetectorConfig())
        self.replication_budget = replication_budget
        self.critical_size = critical_size
        self.min_healthy_for_replication = min_healthy_for_replication
        #: Health evaluations are cached this many µs (a real controller
        #: polls path state, it does not recompute it per packet).  Keep
        #: well below the detector's hol_threshold so reaction time is
        #: unaffected; 0 disables caching.
        self.health_refresh = health_refresh
        self.total = 0
        self.replicated = 0
        self.rerouted_flowlets = 0
        self._rr = 0
        self._health_t = float("-inf")
        self._health_cache: List[int] = []
        self._health_set: frozenset = frozenset()
        # Cached single-path results: select() returns the same list
        # object for repeat picks of one path (callers only read it).
        self._single: dict = {}

    # ------------------------------------------------------------------
    def _healthy(self, paths: Sequence[DataPath], now: float) -> List[int]:
        if now - self._health_t <= self.health_refresh and self._health_cache:
            return self._health_cache
        healthy = [h.path_id for h in self.detector.evaluate(paths, now) if h.healthy]
        if not healthy:
            # Every path ejected (all-fault corner): degrade to the full
            # set rather than raise.  The data plane's no-live-path guard
            # normally drops traffic before selection reaches here.
            healthy = [p.path_id for p in paths]
        self._health_t = now
        self._health_cache = healthy
        self._health_set = frozenset(healthy)
        return healthy

    def select(self, packet: Packet, paths: Sequence[DataPath], now: float) -> List[int]:
        self.total += 1
        healthy = self._healthy(paths, now)
        fid = packet.flow_id

        primary: Optional[int] = None
        if fid >= 0:
            # Inlined FlowletTable.lookup (same bookkeeping).
            table = self.table
            entry = table._table.get(fid)
            if entry is not None and now - entry[1] <= table.timeout:
                entry[1] = now
                table.hits += 1
                current = entry[0]
                if current in self._health_set:
                    primary = current
                else:
                    # Mid-flowlet escape from a straggler.
                    self.rerouted_flowlets += 1
            else:
                table.boundaries += 1
        if primary is None:
            self._rr += 1
            # Path ids ascend with position, so the full healthy set can
            # scan `paths` directly without building a sublist.
            pool = paths if len(healthy) == len(paths) else [paths[i] for i in healthy]
            primary = _rotating_argmin(pool, now, self._rr)
            if fid >= 0:
                self.table.assign(fid, primary, now)

        # Selective replication for latency-critical packets.
        if (
            self.replication_budget > 0.0
            and len(healthy) >= self.min_healthy_for_replication
            and (packet.priority > 0 or packet.size <= self.critical_size)
            and self.replicated < self.replication_budget * self.total
        ):
            others = [i for i in healthy if i != primary]
            if others:
                backup = min(
                    (paths[i] for i in others), key=lambda p: p.expected_wait(now)
                ).path_id
                self.replicated += 1
                return [primary, backup]
        single = self._single.get(primary)
        if single is None:
            single = self._single[primary] = [primary]
        return single


#: Policy registry: name -> (class, needs_rng, fixed constructor kwargs).
#: ``make_policy`` resolves every spec form through this single table, so
#: adding a policy is one entry here -- sweeps, the CLI and
#: ``ScenarioConfig.validate`` all pick it up automatically.
POLICY_REGISTRY: Dict[str, Tuple[type, bool, Dict[str, object]]] = {
    "single": (SinglePath, False, {}),
    "hash": (RandomHash, False, {}),
    "rr": (RoundRobin, False, {}),
    "spray": (RandomSpray, True, {}),
    "flowlet": (FlowletSwitching, False, {}),
    "leastload": (LeastLoaded, False, {}),
    "po2": (PowerOfTwo, True, {}),
    "weighted": (WeightedRandom, True, {}),
    "redundant2": (RedundantK, False, {"r": 2}),
    "redundant3": (RedundantK, False, {"r": 3}),
    "redundant": (RedundantK, False, {}),
    "adaptive": (AdaptiveMultipath, False, {}),
}

#: Names the benchmark harness sweeps over (the parametric base entry
#: ``redundant`` is constructible but not part of the standard sweep).
POLICY_NAMES = tuple(n for n in POLICY_REGISTRY if n != "redundant")


def make_policy(spec, rng: Optional[np.random.Generator] = None, **kw) -> Policy:
    """Instantiate a policy from a registry-style spec.

    ``spec`` may be:

    * a registry name (``"adaptive"``) -- see :data:`POLICY_REGISTRY`;
    * a mapping ``{"name": <registry name>, **params}`` -- the form sweep
      axes produce, so grids can axis over parametrized policies without
      special cases;
    * an already-built :class:`Policy`, returned as-is (no overrides
      allowed -- construct it with the parameters you want).

    ``rng`` is required for the randomized policies (``spray``, ``po2``,
    ``weighted``).  Extra keyword arguments (and mapping params) are
    forwarded to the policy constructor.
    """
    if isinstance(spec, Policy):
        if kw:
            raise ValueError(
                "cannot apply constructor overrides to an already-built "
                f"Policy instance ({type(spec).__name__})"
            )
        return spec
    if isinstance(spec, dict):
        params = dict(spec)
        name = params.pop("name", None)
        if name is None:
            raise ValueError(
                f"policy spec mapping needs a 'name' key, got {sorted(spec)}"
            )
        params.update(kw)
        return make_policy(name, rng=rng, **params)
    try:
        cls, needs_rng, fixed = POLICY_REGISTRY[spec]
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown policy {spec!r}; available: {POLICY_NAMES}"
        ) from None
    merged = {**fixed, **kw}
    if needs_rng:
        if rng is None:
            raise ValueError(f"{spec} policy requires an rng")
        return cls(rng, **merged)
    return cls(**merged)
