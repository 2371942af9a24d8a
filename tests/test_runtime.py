"""Tests for the runtime layer: streams, SDMA, arrays, APU helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.allocators import AllocatorKind
from repro.hw.clock import SimClock
from repro.hw.config import KiB, MiB
from repro.perf.latency import ic_hit_fraction_for_frames
from repro.runtime.arrays import DeviceArray
from repro.runtime.kernels import BufferAccess, KernelSpec
from repro.runtime.sdma import memcpy_bandwidth_bytes_per_s, memcpy_time_ns
from hypothesis import given, settings, strategies as st

from repro.runtime.stream import (
    Event,
    Stream,
    StreamRegistry,
    UnrecordedEventError,
)


class TestStreams:
    def test_enqueue_is_async(self):
        clock = SimClock()
        stream = Stream(clock)
        start, end = stream.enqueue(1000.0)
        assert clock.now_ns == 0.0
        assert (start, end) == (0.0, 1000.0)

    def test_back_to_back_work_queues(self):
        clock = SimClock()
        stream = Stream(clock)
        stream.enqueue(100.0)
        start, end = stream.enqueue(50.0)
        assert start == 100.0
        assert end == 150.0

    def test_enqueue_after_idle_starts_at_host_time(self):
        clock = SimClock()
        stream = Stream(clock)
        stream.enqueue(10.0)
        clock.advance(500.0)
        start, _ = stream.enqueue(10.0)
        assert start == 500.0

    def test_synchronize_advances_host(self):
        clock = SimClock()
        stream = Stream(clock)
        stream.enqueue(750.0)
        stream.synchronize()
        assert clock.now_ns == 750.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Stream(SimClock()).enqueue(-1.0)

    def test_idle_property(self):
        clock = SimClock()
        stream = Stream(clock)
        assert stream.idle
        stream.enqueue(10.0)
        assert not stream.idle
        stream.synchronize()
        assert stream.idle


class TestEvents:
    def test_record_captures_stream_horizon(self):
        clock = SimClock()
        stream = Stream(clock)
        stream.enqueue(300.0)
        event = Event("e")
        stream.record_event(event)
        assert event.recorded
        assert event.timestamp_ns == 300.0

    def test_wait_event_orders_streams(self):
        clock = SimClock()
        producer, consumer = Stream(clock), Stream(clock)
        producer.enqueue(400.0)
        event = Event()
        producer.record_event(event)
        consumer.wait_event(event)
        start, _ = consumer.enqueue(10.0)
        assert start == 400.0

    def test_wait_unrecorded_rejected(self):
        with pytest.raises(UnrecordedEventError, match="unrecorded"):
            Stream(SimClock()).wait_event(Event("orphan"))

    def test_wait_unrecorded_names_the_event(self):
        with pytest.raises(UnrecordedEventError, match="orphan"):
            Stream(SimClock()).wait_event(Event("orphan"))

    def test_elapsed_between_events(self):
        clock = SimClock()
        stream = Stream(clock)
        e1, e2 = Event(), Event()
        stream.enqueue(100.0)
        stream.record_event(e1)
        stream.enqueue(250.0)
        stream.record_event(e2)
        assert e2.elapsed_since(e1) == pytest.approx(250.0)

    def test_elapsed_requires_recorded(self):
        with pytest.raises(UnrecordedEventError):
            Event().elapsed_since(Event())

    def test_elapsed_names_the_unrecorded_event(self):
        clock = SimClock()
        stream = Stream(clock)
        recorded = Event("done")
        stream.record_event(recorded)
        with pytest.raises(UnrecordedEventError, match="ghost"):
            recorded.elapsed_since(Event("ghost"))
        with pytest.raises(UnrecordedEventError, match="ghost"):
            Event("ghost").elapsed_since(recorded)

    def test_host_event_synchronize_unrecorded_rejected(self):
        from repro.runtime.hip import (
            HipError,
            hipErrorInvalidResourceHandle,
            make_runtime,
        )

        hip = make_runtime(memory_gib=1)
        with pytest.raises(HipError, match="limbo") as failure:
            hip.hipEventSynchronize(hip.hipEventCreate("limbo"))
        assert failure.value.code == hipErrorInvalidResourceHandle
        assert hip.hipPeekAtLastError() == hipErrorInvalidResourceHandle

    def test_stream_wait_unrecorded_event_is_typed(self):
        from repro.runtime.hip import (
            HipError,
            hipErrorInvalidResourceHandle,
            make_runtime,
        )

        hip = make_runtime(memory_gib=1)
        stream = hip.hipStreamCreate("s")
        with pytest.raises(HipError, match="orphan") as failure:
            hip.hipStreamWaitEvent(stream, hip.hipEventCreate("orphan"))
        assert failure.value.code == hipErrorInvalidResourceHandle
        assert hip.hipPeekAtLastError() == hipErrorInvalidResourceHandle
        assert stream.available_at_ns == hip.apu.clock.now_ns

    def test_host_event_synchronize_advances_clock(self):
        from repro.runtime.hip import make_runtime

        hip = make_runtime(memory_gib=1)
        stream = hip.hipStreamCreate("s")
        stream.enqueue(2_000.0)
        event = hip.hipEventCreate("mid")
        hip.hipEventRecord(event, stream)
        hip.hipEventSynchronize(event)
        assert hip.apu.clock.now_ns >= 2_000.0

    @pytest.mark.parametrize(
        "call",
        ["record", "wait", "sync", "memcpy_async", "launch"],
    )
    def test_foreign_stream_rejected(self, call):
        """A stream from another runtime is an invalid handle here.

        No call may read or move the other runtime's timeline, nor its
        own: both clocks and both streams stay where they were.
        """
        from repro.runtime.hip import (
            HipError,
            hipErrorInvalidResourceHandle,
            make_runtime,
        )

        a, b = make_runtime(memory_gib=1), make_runtime(memory_gib=1)
        foreign = b.hipStreamCreate("theirs")
        foreign.enqueue(5_000.0)
        done = a.hipEventCreate("done")
        a.hipEventRecord(done)
        buf = a.hipMalloc(4096)
        spec = KernelSpec("k", [BufferAccess(buf, "read")])
        calls = {
            "record": lambda: a.hipEventRecord(a.hipEventCreate("e"), foreign),
            "wait": lambda: a.hipStreamWaitEvent(foreign, done),
            "sync": lambda: a.hipStreamSynchronize(foreign),
            "memcpy_async": lambda: a.hipMemcpyAsync(buf, buf, 4096, foreign),
            "launch": lambda: a.launchKernel(spec, foreign),
        }
        clock_a = a.apu.clock.now_ns
        with pytest.raises(HipError, match="theirs") as failure:
            calls[call]()
        assert failure.value.code == hipErrorInvalidResourceHandle
        assert a.hipPeekAtLastError() == hipErrorInvalidResourceHandle
        assert a.apu.clock.now_ns == clock_a
        assert b.apu.clock.now_ns == 0.0
        assert foreign.available_at_ns == 5_000.0


class TestCrossStreamOrdering:
    @given(
        before=st.lists(
            st.floats(min_value=1.0, max_value=1e5), min_size=0, max_size=6
        ),
        waiter_head=st.lists(
            st.floats(min_value=1.0, max_value=1e5), min_size=0, max_size=6
        ),
        after_ns=st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_wait_event_is_a_happens_before_edge(
        self, before, waiter_head, after_ns
    ):
        """Work enqueued after a wait never starts before the event.

        Record an event on stream A after arbitrary work; make stream B
        (with its own arbitrary backlog) wait on it; every subsequent
        enqueue on B starts at or after both the event's timestamp and
        B's own prior horizon — the edge the hipsan vector clocks model.
        """
        clock = SimClock()
        producer, consumer = Stream(clock), Stream(clock, uid="s1")
        for duration in before:
            producer.enqueue(duration)
        event = Event("edge")
        producer.record_event(event)
        backlog_end = 0.0
        for duration in waiter_head:
            _, backlog_end = consumer.enqueue(duration)
        consumer.wait_event(event)
        start, end = consumer.enqueue(after_ns)
        assert start >= event.timestamp_ns
        assert start >= backlog_end
        assert end == start + after_ns


class TestStreamRegistry:
    def test_default_stream_exists(self):
        reg = StreamRegistry(SimClock())
        assert reg.resolve(None) is reg.default

    def test_device_synchronize_waits_all(self):
        clock = SimClock()
        reg = StreamRegistry(clock)
        s1 = reg.create()
        reg.default.enqueue(100.0)
        s1.enqueue(900.0)
        reg.device_synchronize()
        assert clock.now_ns == 900.0

    def test_created_streams_named(self):
        reg = StreamRegistry(SimClock())
        assert reg.create("copy").name == "copy"
        assert reg.create().name.startswith("stream")


class TestSDMA:
    def test_d2d_uses_fast_path(self, apu):
        src = apu.memory.hip_malloc(1 * MiB)
        dst = apu.memory.hip_malloc(1 * MiB)
        bw = memcpy_bandwidth_bytes_per_s(apu.config, dst, src)
        assert bw == pytest.approx(1.9e12)

    def test_host_device_sdma_slow(self, apu):
        src = apu.memory.malloc(1 * MiB)
        dst = apu.memory.hip_malloc(1 * MiB)
        assert memcpy_bandwidth_bytes_per_s(apu.config, dst, src) == \
            pytest.approx(58e9)

    def test_sdma_disabled_blit_path(self, apu):
        src = apu.memory.hip_host_malloc(1 * MiB)
        dst = apu.memory.hip_malloc(1 * MiB)
        assert memcpy_bandwidth_bytes_per_s(
            apu.config, dst, src, sdma_enabled=False
        ) == pytest.approx(850e9)

    def test_direction_symmetric(self, apu):
        a = apu.memory.malloc(1 * MiB)
        b = apu.memory.hip_malloc(1 * MiB)
        assert memcpy_bandwidth_bytes_per_s(apu.config, a, b) == \
            memcpy_bandwidth_bytes_per_s(apu.config, b, a)

    def test_memcpy_time_includes_overhead(self, apu):
        src = apu.memory.hip_malloc(64 * KiB)
        dst = apu.memory.hip_malloc(64 * KiB)
        t = memcpy_time_ns(apu.config, dst, src, 64 * KiB)
        assert t > 5_000.0
        assert memcpy_time_ns(apu.config, dst, src, 0) == pytest.approx(5_000.0)

    def test_negative_size_rejected(self, apu):
        src = apu.memory.hip_malloc(4096)
        with pytest.raises(ValueError):
            memcpy_time_ns(apu.config, src, src, -1)


class TestDeviceArray:
    def test_shape_dtype(self, apu):
        alloc = apu.memory.hip_malloc(1 * MiB)
        arr = DeviceArray(alloc, (256, 256), np.float32)
        assert arr.shape == (256, 256)
        assert arr.dtype == np.float32
        assert arr.nbytes == 256 * 256 * 4
        assert arr.size == 256 * 256

    def test_must_fit_allocation(self, apu):
        alloc = apu.memory.hip_malloc(1024)
        with pytest.raises(ValueError):
            DeviceArray(alloc, 1024, np.float64)

    def test_fill_and_copy(self, apu):
        a = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        b = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        a.fill(5.0)
        b.copy_from(a)
        assert (b.np == 5.0).all()

    def test_partial_copy(self, apu):
        a = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        b = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        a.fill(3.0)
        b.copy_from(a, nbytes=8 * 4)
        assert (b.np[:8] == 3.0).all()
        assert (b.np[8:] == 0.0).all()

    def test_mismatched_full_copy_rejected(self, apu):
        a = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        b = DeviceArray(apu.memory.hip_malloc(4096), 8, np.float32)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_unaligned_partial_copy_rejected(self, apu):
        a = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        b = DeviceArray(apu.memory.hip_malloc(4096), 16, np.float32)
        with pytest.raises(ValueError):
            b.copy_from(a, nbytes=7)


class TestAPUHelpers:
    def test_buffer_traits_hipmalloc(self, apu):
        buf = apu.memory.hip_malloc(1 * MiB)
        t = apu.buffer_traits(buf)
        assert not t.on_demand
        assert not t.uncached
        assert t.average_fragment_bytes >= 32 * KiB
        assert t.balanced

    def test_buffer_traits_untouched_malloc(self, apu):
        buf = apu.memory.malloc(1 * MiB)
        t = apu.buffer_traits(buf)
        assert t.on_demand
        assert t.average_fragment_bytes == 0.0
        assert t.channel_balance == 1.0  # nothing resident yet

    def test_buffer_traits_touched_malloc_biased(self, apu16):
        buf = apu16.memory.malloc(64 * MiB)
        apu16.touch(buf, "cpu")
        t = apu16.buffer_traits(buf)
        assert not t.balanced

    def test_touch_advances_clock(self, apu):
        buf = apu.memory.malloc(1 * MiB)
        before = apu.clock.now_ns
        apu.touch(buf, "cpu")
        assert apu.clock.now_ns > before

    def test_touch_subrange(self, apu):
        buf = apu.memory.malloc(16 * 4096)
        apu.touch(buf, "cpu", offset_bytes=4096, size_bytes=8192)
        assert buf.vma.resident_pages() == 2

    def test_ic_hit_fraction_prefix(self, apu):
        buf = apu.memory.hip_malloc(8 * MiB)
        frames = buf.vma.resident_frames()
        ic = apu.infinity_cache
        assert ic_hit_fraction_for_frames(ic, frames, 8 * MiB) == \
            pytest.approx(1.0)
        assert ic_hit_fraction_for_frames(ic, frames, 1 * MiB) == \
            pytest.approx(1.0)

    def test_prefault_cpu(self, apu):
        # The paper's recommended pre-faulting: touch from 12 CPU cores.
        buf = apu.memory.malloc(1 * MiB)
        report = apu.touch(buf, "cpu", concurrency=12)
        assert report.cpu_faulted_pages == 256


def test_runtime_imports_without_networkx():
    """``repro`` and the APU it wires together need numpy alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.runtime.apu, sys; "
         "assert 'networkx' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
