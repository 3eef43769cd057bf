"""Work items and the canonical-order work queue."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.queue import WorkItem, WorkQueue, build_items
from repro.campaign.spec import CampaignSpec
from repro.workloads.ace import count


def ace_items(n, seq=1):
    return [WorkItem.ace(seq, i, i) for i in range(n)]


class TestWorkItem:
    def test_ace_item_id_is_stable(self):
        assert WorkItem.ace(2, 7, 7).item_id == "ace:2:000007"

    def test_fuzz_item_id(self):
        assert WorkItem.fuzz(13, 25, 0).item_id == "fuzz:13"

    def test_round_trip(self):
        for item in (WorkItem.ace(2, 7, 9), WorkItem.fuzz(3, 25, 1)):
            assert WorkItem.from_dict(item.to_dict()) == item


class TestBuildItems:
    def test_ace_full_space(self):
        spec = CampaignSpec(fs="nova", seq=1)
        items = build_items(spec)
        assert len(items) == count(1)
        assert [i.ordinal for i in items] == list(range(count(1)))

    def test_ace_cap_is_per_sequence_like_the_serial_path(self):
        # ``cmd_ace --seq 2 --max-workloads 10`` runs 10 seq-1 plus
        # 10 seq-2 workloads; the campaign item list must match.
        spec = CampaignSpec(fs="nova", seq=2, max_workloads=10)
        items = build_items(spec)
        assert len(items) == 20
        assert [(i.seq, i.index) for i in items[:3]] == [(1, 0), (1, 1), (1, 2)]
        assert [(i.seq, i.index) for i in items[10:13]] == [(2, 0), (2, 1), (2, 2)]

    def test_item_ids_unique(self):
        spec = CampaignSpec(fs="nova", seq=2, max_workloads=30)
        items = build_items(spec)
        assert len({i.item_id for i in items}) == len(items)

    def test_fuzz_segments_split_seed_space(self):
        spec = CampaignSpec(fs="pmfs", generator="fuzz", seed=5, segments=3,
                            executions=7)
        items = build_items(spec)
        assert [i.seed for i in items] == [5, 6, 7]
        assert all(i.executions == 7 for i in items)


class TestWorkQueue:
    def test_batches_are_head_runs_in_ordinal_order(self):
        q = WorkQueue(2, ace_items(6))
        assert [i.ordinal for i in q.next_batch(2)] == [0, 1]
        assert [i.ordinal for i in q.next_batch(2)] == [2, 3]
        assert q.dispatched == 4

    def test_batch_is_capped_at_a_fair_share_of_pending(self):
        # Four fuzz segments, two workers, --batch 8: a naive FIFO would
        # hand the first ready worker all four.
        q = WorkQueue(2, ace_items(4))
        assert len(q.next_batch(8)) == 2
        assert len(q.next_batch(8)) == 1
        assert len(q.next_batch(8)) == 1

    def test_tail_shrinks_to_single_items(self):
        q = WorkQueue(3, ace_items(20))
        sizes = []
        while len(q):
            sizes.append(len(q.next_batch(4)))
        assert sizes[:3] == [4, 4, 4]
        assert sizes[-1] == 1
        assert sizes == sorted(sizes, reverse=True)

    def test_empty_queue_yields_empty_batch(self):
        q = WorkQueue(2, [])
        assert q.next_batch(8) == []
        assert len(q) == 0

    def test_requeue_goes_to_the_head_in_order(self):
        q = WorkQueue(1, ace_items(6))
        taken = q.next_batch(3)
        q.requeue(taken[1:])
        q.requeue(taken[:1])
        assert [i.ordinal for i in q.next_batch(8)] == [0, 1, 2, 3, 4, 5]
        assert q.requeues == 3

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkQueue(0, [])


class TestWorkQueueProperties:
    @given(n_items=st.integers(0, 60), workers=st.integers(1, 6),
           batch_size=st.integers(1, 10), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_every_item_dealt_once_per_requeue_in_head_runs(
            self, n_items, workers, batch_size, data):
        q = WorkQueue(workers, ace_items(n_items))
        dealt, requeued = Counter(), Counter()
        while len(q):
            pending = len(q)
            head = list(q.items)
            batch = q.next_batch(batch_size)
            assert 1 <= len(batch) <= min(batch_size, -(-pending // workers))
            assert batch == head[:len(batch)]
            dealt.update(i.ordinal for i in batch)
            if sum(requeued.values()) < 20 and data.draw(st.booleans()):
                back = batch[:data.draw(st.integers(0, len(batch)))]
                q.requeue(back)
                requeued.update(i.ordinal for i in back)
        assert dealt == Counter(range(n_items)) + requeued
        assert q.requeues == sum(requeued.values())
