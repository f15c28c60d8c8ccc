"""Trace combinators: mixing, phasing, remapping, sharding, record/replay."""

from __future__ import annotations

import pytest

from repro.traces import dilate, mix, phased, record, remap, replay, shard
from repro.traces.combinators import MAX_SLOTS, TENANT_STRIDE
from repro.workloads import make_workload


def _bfs(max_refs=400, seed=1):
    return make_workload("bfs", max_refs=max_refs, seed=seed)


def _rnd(max_refs=200, seed=2):
    return make_workload("rnd", max_refs=max_refs, seed=seed)


class TestRemap:
    def test_addresses_and_regions_shift_by_slot(self):
        plain = list(_rnd().bounded())
        shifted = list(remap(_rnd(), 3).bounded())
        assert len(plain) == len(shifted)
        for before, after in zip(plain, shifted):
            assert after.vaddr == before.vaddr + 3 * TENANT_STRIDE
            assert after.is_write == before.is_write
            assert after.instruction_gap == before.instruction_gap
        assert remap(_rnd(), 3).memory_regions() == [
            (base + 3 * TENANT_STRIDE, size)
            for base, size in _rnd().memory_regions()]

    def test_slot_zero_is_identity_on_addresses(self):
        assert [r.vaddr for r in remap(_rnd(), 0).bounded()] == \
            [r.vaddr for r in _rnd().bounded()]

    def test_slot_bounds(self):
        with pytest.raises(ValueError):
            remap(_rnd(), MAX_SLOTS + 1)
        with pytest.raises(ValueError):
            remap(_rnd(), -1)


class TestMix:
    def test_total_refs_and_name(self):
        mixed = mix([_bfs(), _rnd()], weights=[2, 1], seed=7)
        refs = list(mixed.bounded())
        assert len(refs) == 400 + 200
        assert mixed.name == "mix(bfs+rnd@1)"

    def test_deterministic(self):
        first = list(mix([_bfs(), _rnd()], weights=[2, 1], seed=7).bounded())
        second = list(mix([_bfs(), _rnd()], weights=[2, 1], seed=7).bounded())
        assert first == second

    def test_seed_changes_schedule(self):
        first = [r.vaddr for r in mix([_bfs(), _rnd()], seed=1).bounded()]
        second = [r.vaddr for r in mix([_bfs(), _rnd()], seed=2).bounded()]
        assert first != second

    def test_tenants_occupy_disjoint_slots(self):
        mixed = mix([_bfs(), _rnd()], seed=7)
        lo = [r for r in mixed.bounded() if r.vaddr < TENANT_STRIDE * 2]
        assert 0 < len(lo) < 600
        regions = mixed.memory_regions()
        assert any(base >= 2 * TENANT_STRIDE for base, _ in regions)
        assert any(base < 2 * TENANT_STRIDE for base, _ in regions)

    def test_each_tenant_stream_preserved_in_order(self):
        mixed = mix([_bfs(), _rnd()], weights=[1, 1], seed=3)
        tenant1 = [r.vaddr - 1 * TENANT_STRIDE for r in mixed.bounded()
                   if r.vaddr >= 2 * TENANT_STRIDE]
        expected = [r.vaddr for r in _rnd().bounded()]
        assert tenant1 == expected

    def test_rejects_shared_instances_and_bad_weights(self):
        shared = _bfs()
        with pytest.raises(ValueError):
            mix([shared, shared])
        with pytest.raises(ValueError):
            mix([_bfs(), _rnd()], weights=[1])
        with pytest.raises(ValueError):
            mix([_bfs(), _rnd()], weights=[1, 0])
        with pytest.raises(ValueError):
            mix([])

    def test_huge_page_fraction_averaged_and_overridable(self):
        mixed = mix([_bfs(), _rnd()], seed=1)
        components = [_bfs(), _rnd()]
        expected = sum(w.huge_page_fraction for w in components) / 2
        assert mixed.huge_page_fraction == pytest.approx(expected)
        pinned = mix([_bfs(), _rnd()], seed=1, huge_page_fraction=0.9)
        assert pinned.huge_page_fraction == 0.9


class TestPhased:
    def test_phases_run_sequentially(self):
        first, second = _bfs(max_refs=50), _rnd(max_refs=30)
        expected = list(_bfs(max_refs=50).bounded()) + list(_rnd(max_refs=30).bounded())
        assert list(phased([first, second]).bounded()) == expected

    def test_name_and_budget(self):
        ph = phased([_bfs(max_refs=50), _rnd(max_refs=30)])
        assert ph.name == "phased(bfs->rnd)"
        assert ph.config.max_refs == 80


class TestDilateAndShard:
    def test_dilate_scales_gaps(self):
        plain = list(_rnd(max_refs=100).bounded())
        dilated = list(dilate(_rnd(max_refs=100), 4.0).bounded())
        for before, after in zip(plain, dilated):
            assert after.instruction_gap == max(1, round(before.instruction_gap * 4.0))
            assert after.vaddr == before.vaddr

    def test_dilate_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            dilate(_rnd(), 0.0)

    def test_shards_partition_the_stream(self):
        full = list(_rnd(max_refs=100).bounded())
        shards = [list(shard(_rnd(max_refs=100), i, 4).bounded()) for i in range(4)]
        assert [r for chunk in zip(*shards) for r in chunk] == full

    def test_shard_bounds(self):
        with pytest.raises(ValueError):
            shard(_rnd(), 4, 4)
        with pytest.raises(ValueError):
            shard(_rnd(), 0, 0)


class TestZeroBudget:
    """A budget of zero references yields none, in both stream forms.

    ``TestRecordReplay.test_replay_truncation`` checks the same for replay.
    """

    @pytest.mark.parametrize("build", [
        lambda: _rnd(max_refs=0),
        lambda: _bfs(max_refs=0),
        lambda: remap(_bfs(max_refs=0), 1),
        lambda: dilate(_rnd(max_refs=0), 2.0),
        lambda: mix([_bfs(), _rnd()], max_refs=0),
        lambda: phased([_bfs(), _rnd()], max_refs=0),
    ], ids=["rnd", "bfs", "remap", "dilate", "mix", "phased"])
    def test_yields_nothing(self, build):
        assert list(build().bounded()) == []
        assert list(build().bounded_batches()) == []


class TestRecordReplay:
    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "rnd.trace")
        count = record(_rnd(max_refs=300, seed=3), path)
        assert count == 300
        replayed = replay(path)
        reference = _rnd(max_refs=300, seed=3)
        assert list(replayed.bounded()) == list(reference.bounded())
        assert replayed.memory_regions() == reference.memory_regions()
        assert replayed.huge_page_fraction == reference.huge_page_fraction
        assert replayed.name == "rnd"
        assert replayed.trace_refs == 300

    def test_replay_truncation(self, tmp_path):
        path = str(tmp_path / "rnd.trace")
        record(_rnd(max_refs=100), path)
        assert len(list(replay(path, max_refs=40).bounded())) == 40
        assert replay(path, max_refs=0).config.max_refs == 0
        assert list(replay(path, max_refs=0).bounded()) == []
        assert list(replay(path, max_refs=0).bounded_batches()) == []

    def test_mix_rejects_nested_mix(self):
        inner = mix([_bfs(max_refs=60), _rnd(max_refs=40)], seed=5)
        with pytest.raises(ValueError, match="cannot be tenants"):
            mix([inner, make_workload("xs", max_refs=50)])

    def test_composed_streams_record_too(self, tmp_path):
        path = str(tmp_path / "mix.trace")
        record(mix([_bfs(max_refs=60), _rnd(max_refs=40)], seed=5), path)
        replayed = list(replay(path).bounded())
        expected = list(mix([_bfs(max_refs=60), _rnd(max_refs=40)], seed=5).bounded())
        assert replayed == expected

    def test_rejects_non_trace_files(self, tmp_path):
        from repro.common.errors import ConfigurationError

        path = tmp_path / "bogus.trace"
        path.write_bytes(b"not a trace")
        with pytest.raises(ConfigurationError):
            replay(str(path))
