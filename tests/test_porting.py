"""Tests for the porting strategies and containers (repro.porting)."""

import numpy as np
import pytest

from repro.core.allocators import AllocatorKind
from repro.hw.config import MiB, PAGE_SIZE
from repro.porting.containers import UnifiedVector
from repro.porting.strategies import (
    ChunkSchedule,
    DoubleBuffer,
    StackFlag,
    event_synchronised_swap,
    merged_pipeline,
    naive_free_memory,
    reliable_free_memory,
)
from repro.runtime.kernels import BufferAccess, KernelSpec


class TestDoubleBuffer:
    def _pair(self, hip):
        return (
            hip.array(64, np.float32, "hipMalloc"),
            hip.array(64, np.float32, "hipMalloc"),
        )

    def test_swap_exchanges_roles(self, hip):
        front, back = self._pair(hip)
        db = DoubleBuffer(front, back)
        assert db.front is front
        db.swap()
        assert db.front is back
        assert db.back is front
        assert db.swaps == 1

    def test_no_data_movement_on_swap(self, hip):
        front, back = self._pair(hip)
        db = DoubleBuffer(front, back)
        before = hip.apu.clock.now_ns
        db.swap()
        assert hip.apu.clock.now_ns == before

    def test_mismatched_halves_rejected(self, hip):
        a = hip.array(64, np.float32, "hipMalloc")
        b = hip.array(32, np.float32, "hipMalloc")
        with pytest.raises(ValueError):
            DoubleBuffer(a, b)

    def test_memory_equals_explicit_pair(self, hip):
        """The paper's heartwall observation: double buffering costs the
        same footprint as host+device buffer pairs."""
        front, back = self._pair(hip)
        db = DoubleBuffer(front, back)
        assert db.memory_bytes == 2 * front.allocation.size_bytes

    def test_event_synchronised_swap(self, hip):
        front, back = self._pair(hip)
        db = DoubleBuffer(front, back)
        stream = hip.hipStreamCreate()
        hip.launchKernel(
            KernelSpec("k", [BufferAccess(db.front.allocation, "read")]), stream
        )
        event = event_synchronised_swap(hip, db, stream)
        assert event.recorded
        assert db.swaps == 1


class TestMemoryCounters:
    def test_reliable_counter_sees_all_allocators(self, apu):
        before = reliable_free_memory(apu)
        apu.memory.hip_host_malloc(4 * MiB)
        assert before - reliable_free_memory(apu) == 4 * MiB

    def test_naive_counter_misses_pinned_memory(self, hip):
        before = naive_free_memory(hip)
        hip.hipHostMalloc(4 * MiB)
        assert naive_free_memory(hip) == before  # the porting pitfall

    def test_naive_counter_sees_hipmalloc(self, hip):
        before = naive_free_memory(hip)
        hip.hipMalloc(4 * MiB)
        assert before - naive_free_memory(hip) == 4 * MiB


class TestChunkSchedule:
    def test_covers_buffer_exactly(self):
        sched = ChunkSchedule(10 * MiB, 4 * MiB)
        chunks = list(sched.chunks())
        assert chunks == [(0, 4 * MiB), (4 * MiB, 4 * MiB), (8 * MiB, 2 * MiB)]

    def test_merged_pipeline_same_coverage(self):
        sched = ChunkSchedule(10 * MiB, 4 * MiB)
        assert merged_pipeline(sched) == list(sched.chunks())

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ChunkSchedule(0, 1)
        with pytest.raises(ValueError):
            ChunkSchedule(4, 8)


class TestStackFlag:
    def test_read_synchronises_pending_writes(self, hip):
        stream = hip.hipStreamCreate()
        stream.enqueue(1_000.0)
        flag = StackFlag(hip, initial=1.0)
        flag.gpu_write(0.0, stream)
        assert flag.read() == 0.0
        assert hip.apu.clock.now_ns >= 1_000.0

    def test_foreign_stream_rejected(self, hip):
        from repro.runtime.hip import (
            HipError,
            hipErrorInvalidResourceHandle,
            make_runtime,
        )

        other = make_runtime(memory_gib=1)
        foreign = other.hipStreamCreate("theirs")
        foreign.enqueue(5_000.0)
        flag = StackFlag(hip, initial=1.0)
        with pytest.raises(HipError, match="theirs") as failure:
            flag.gpu_write(0.0, foreign)
        assert failure.value.code == hipErrorInvalidResourceHandle
        assert flag.read() == 1.0
        assert other.apu.clock.now_ns == 0.0

    def test_scope_exit_with_pending_write_rejected(self, hip):
        flag = StackFlag(hip)
        flag.gpu_write(1.0)
        with pytest.raises(RuntimeError, match="out of scope"):
            flag.close()

    def test_context_manager_synchronises(self, hip):
        with StackFlag(hip, initial=1.0) as flag:
            flag.gpu_write(2.0)
        # Exiting cleanly implies the writes were synchronised.
        assert flag.value == 2.0


class TestUnifiedVector:
    def test_push_back_growth(self, hip):
        vec = UnifiedVector(hip, np.float32, initial_capacity=2)
        for i in range(10):
            vec.push_back(float(i))
        assert vec.size == 10
        assert vec.capacity >= 10
        assert vec.reallocations >= 2
        assert np.array_equal(vec.data, np.arange(10, dtype=np.float32))

    def test_extend(self, hip):
        vec = UnifiedVector(hip, np.float32, initial_capacity=4)
        vec.extend(range(100))
        assert vec.size == 100
        assert vec.data[99] == 99.0

    def test_default_allocator_is_pageable(self, hip):
        vec = UnifiedVector(hip)
        vec.extend(range(10))
        assert vec.allocation.kind is AllocatorKind.MALLOC

    def test_hip_allocator_variant(self, hip):
        vec = UnifiedVector(hip, allocator="hipMalloc")
        vec.extend(range(10))
        assert vec.allocation.kind is AllocatorKind.HIP_MALLOC

    def test_growth_frees_old_buffer(self, hip):
        vec = UnifiedVector(hip, np.float32, initial_capacity=2)
        old_allocation = vec.allocation
        vec.extend(range(100))
        assert old_allocation not in hip.apu.memory.allocations

    def test_cpu_pages_touched(self, hip):
        vec = UnifiedVector(hip, np.float64, initial_capacity=1024)
        vec.extend(range(1024))
        assert vec.allocation.vma.resident_pages() >= 2

    def test_reserve_avoids_reallocation(self, hip):
        vec = UnifiedVector(hip, np.float32, initial_capacity=4)
        vec.reserve(1000)
        grows_before = vec.reallocations
        vec.extend(range(1000))
        assert vec.reallocations == grows_before

    def test_unsupported_allocator_rejected(self, hip):
        with pytest.raises(ValueError):
            UnifiedVector(hip, allocator="stack")

    def test_free(self, hip):
        vec = UnifiedVector(hip)
        vec.extend(range(10))
        vec.free()
        assert len(vec) == 0
