"""Tests for multi-class queue disciplines (prio / DRR)."""

import pytest

from repro.dataplane.path import DataPath, PathConfig
from repro.dataplane.scheduler import DrrPathQueue, PriorityPathQueue
from repro.elements import Chain, Delay


class TestPriorityQueue:
    def test_higher_class_served_first(self, sim, mk_packet):
        q = PriorityPathQueue(sim, n_classes=2)
        bulk = mk_packet(seq=0, priority=0)
        urgent = mk_packet(seq=1, priority=1)
        q.push(bulk)
        q.push(urgent)
        assert q.pop() is urgent
        assert q.pop() is bulk

    def test_fifo_within_class(self, sim, mk_packet):
        q = PriorityPathQueue(sim, n_classes=2)
        a, b = mk_packet(seq=0, priority=1), mk_packet(seq=1, priority=1)
        q.push(a)
        q.push(b)
        assert q.pop() is a

    def test_priority_clamped_to_classes(self, sim, mk_packet):
        q = PriorityPathQueue(sim, n_classes=2)
        bulk = mk_packet(seq=0, priority=0)
        high = mk_packet(seq=1, priority=99)  # clamped to class 1
        low = mk_packet(seq=2, priority=-3)  # clamped to class 0
        for p in (bulk, high, low):
            q.push(p)
        assert [q.pop() for _ in range(3)] == [high, bulk, low]

    def test_overflow_evicts_bulk_for_urgent(self, sim, mk_packet):
        q = PriorityPathQueue(sim, capacity_pkts=2, n_classes=2)
        q.push(mk_packet(seq=0, priority=0))
        q.push(mk_packet(seq=1, priority=0))
        urgent = mk_packet(seq=2, priority=1)
        assert q.push(urgent)
        assert q.evicted == 1
        assert len(q) == 2
        assert q.pop() is urgent

    def test_overflow_drops_bulk_when_no_victim(self, sim, mk_packet):
        q = PriorityPathQueue(sim, capacity_pkts=1, n_classes=2)
        q.push(mk_packet(seq=0, priority=1))
        extra = mk_packet(seq=1, priority=0)
        assert not q.push(extra)
        assert extra.dropped and "overflow" in extra.dropped

    def test_head_wait_across_classes(self, sim, mk_packet):
        q = PriorityPathQueue(sim)
        old = mk_packet(priority=0)
        q.push(old)  # t_enq = 0
        assert q.head_wait(40.0) == 40.0

    def test_pop_empty_raises(self, sim):
        with pytest.raises(IndexError):
            PriorityPathQueue(sim).pop()

    def test_pop_batch(self, sim, mk_packet):
        q = PriorityPathQueue(sim)
        for i in range(3):
            q.push(mk_packet(seq=i, priority=i % 2))
        batch = q.pop_batch(10)
        assert len(batch) == 3
        assert batch[0].priority == 1  # urgent first

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            PriorityPathQueue(sim, capacity_pkts=0)
        with pytest.raises(ValueError):
            PriorityPathQueue(sim, n_classes=0)


class TestDrrQueue:
    def test_byte_fair_between_classes(self, sim, mk_packet):
        q = DrrPathQueue(sim, quanta=(1500, 1500))
        # 6 bulk + 6 urgent, same size: service alternates fairly.
        for i in range(6):
            q.push(mk_packet(seq=i, priority=0, size=1000))
            q.push(mk_packet(seq=100 + i, priority=1, size=1000))
        served = [q.pop().priority for _ in range(12)]
        # Equal quanta, equal sizes: equal service, short alternation runs.
        assert served.count(0) == 6 and served.count(1) == 6
        from itertools import groupby

        max_run = max(len(list(g)) for _k, g in groupby(served))
        assert max_run <= 2

    def test_weighted_quanta_favor_class(self, sim, mk_packet):
        q = DrrPathQueue(sim, quanta=(1000, 3000))
        for i in range(20):
            q.push(mk_packet(seq=i, priority=0, size=1000))
            q.push(mk_packet(seq=100 + i, priority=1, size=1000))
        first12 = [q.pop().priority for _ in range(12)]
        # Class 1 has 3x the quantum -> ~3x the service share.
        assert first12.count(1) >= 2 * first12.count(0)

    def test_idle_class_accumulates_no_credit(self, sim, mk_packet):
        q = DrrPathQueue(sim, quanta=(1500, 1500))
        for i in range(4):
            q.push(mk_packet(seq=i, priority=0, size=1000))
        for _ in range(4):
            assert q.pop().priority == 0
        # Now class 1 arrives; it must not have banked rounds of credit.
        q.push(mk_packet(seq=10, priority=1, size=1000))
        q.push(mk_packet(seq=11, priority=0, size=1000))
        got = {q.pop().priority, q.pop().priority}
        assert got == {0, 1}

    def test_pop_empty_raises(self, sim):
        with pytest.raises(IndexError):
            DrrPathQueue(sim).pop()

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            DrrPathQueue(sim, quanta=(0, 100))


class TestDataPathIntegration:
    @pytest.mark.parametrize("qdisc", ["prio", "drr"])
    def test_qdisc_selectable(self, sim, rng, mk_packet, qdisc):
        done = []
        dp = DataPath(
            sim, 0, Chain([Delay("d", base_cost=1.0)]), done.append,
            rng=rng, config=PathConfig(qdisc=qdisc),
        )
        dp.enqueue(mk_packet(priority=1))
        dp.enqueue(mk_packet(seq=1, priority=0))
        sim.run()
        assert len(done) == 2

    def test_prio_lowers_urgent_latency_under_backlog(self, sim, rng, mk_packet):
        done = []
        dp = DataPath(
            sim, 0, Chain([Delay("d", base_cost=2.0)]), done.append,
            rng=rng, config=PathConfig(qdisc="prio", batch_size=4),
        )
        # 20 bulk packets then one urgent: urgent must overtake.
        for i in range(20):
            dp.enqueue(mk_packet(seq=i, priority=0))
        urgent = mk_packet(seq=99, priority=1)
        dp.enqueue(urgent)
        sim.run()
        finished = [p.seq for p in done]
        assert finished.index(99) < 6  # served within the first batches

    def test_unknown_qdisc_rejected(self, sim, rng):
        with pytest.raises(ValueError):
            DataPath(sim, 0, Chain([Delay("d")]), lambda p: None, rng=rng,
                     config=PathConfig(qdisc="wfq"))
