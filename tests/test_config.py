"""Unit tests for the hardware configuration (repro.hw.config)."""

import dataclasses
import pathlib
import re
import typing

import pytest

from repro.hw.config import (
    GiB,
    KiB,
    MAX_FRAGMENT_EXPONENT,
    MI300AConfig,
    MiB,
    PAGE_SIZE,
    default_config,
    small_config,
)


class TestUnits:
    def test_byte_units_scale(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB

    def test_page_size_is_4k(self):
        assert PAGE_SIZE == 4 * KiB

    def test_fragment_field_is_five_bits(self):
        assert MAX_FRAGMENT_EXPONENT == 31


class TestDefaultConfig:
    def test_matches_paper_testbed(self):
        cfg = default_config()
        assert cfg.gpu_compute_units == 228
        assert cfg.cpu_cores == 24
        assert cfg.memory_capacity_bytes == 128 * GiB
        assert cfg.hbm.peak_bandwidth_bytes_per_s == pytest.approx(5.3e12)

    def test_chiplet_counts(self):
        cfg = default_config()
        assert cfg.xcd_count == 6
        assert cfg.ccd_count == 3
        assert cfg.iod_count == 4

    def test_hbm_organisation(self):
        hbm = default_config().hbm
        assert hbm.stacks == 8
        assert hbm.channels_per_stack == 16
        assert hbm.channels == 128
        assert hbm.capacity_bytes == 128 * GiB

    def test_infinity_cache_geometry(self):
        ic = default_config().infinity_cache
        assert ic.capacity_bytes == 256 * MiB
        assert ic.slices == 128
        assert ic.slice_capacity_bytes == 2 * MiB
        assert ic.peak_bandwidth_bytes_per_s == pytest.approx(17.2e12)

    def test_total_pages(self):
        cfg = default_config()
        assert cfg.total_pages == 128 * GiB // PAGE_SIZE

    def test_cache_latencies_ordered(self):
        cfg = default_config()
        assert cfg.cpu_l1.latency_ns < cfg.cpu_l2.latency_ns
        assert cfg.cpu_l2.latency_ns < cfg.cpu_l3.latency_ns
        assert cfg.cpu_l3.latency_ns < cfg.cpu_ic_latency_ns
        assert cfg.cpu_ic_latency_ns < cfg.cpu_hbm_latency_ns
        assert cfg.gpu_l1.latency_ns < cfg.gpu_l2.latency_ns
        assert cfg.gpu_l2.latency_ns < cfg.gpu_ic_latency_ns
        assert cfg.gpu_ic_latency_ns < cfg.gpu_hbm_latency_ns

    def test_cpu_l3_capacity_is_96_mib(self):
        assert default_config().cpu_l3.capacity_bytes == 96 * MiB

    def test_gpu_l1_tlb_is_fragment_aware(self):
        cfg = default_config()
        assert cfg.gpu_l1_tlb.fragment_aware
        assert not cfg.gpu_l2_tlb.fragment_aware

    def test_config_is_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cpu_cores = 48  # type: ignore[misc]

    def test_replace_produces_modified_copy(self):
        cfg = default_config()
        other = cfg.replace(cpu_cores=48)
        assert other.cpu_cores == 48
        assert cfg.cpu_cores == 24

    def test_describe_mentions_parts(self):
        text = default_config().describe()
        assert "6 XCD" in text
        assert "3 CCD" in text
        assert "228" in text


class TestSmallConfig:
    def test_scales_memory_only(self):
        cfg = small_config(2 * GiB)
        assert cfg.memory_capacity_bytes == 2 * GiB
        assert cfg.gpu_compute_units == 228
        assert cfg.hbm.channels == 128

    def test_policies_preserved(self):
        assert small_config().policy == default_config().policy


class TestCostModelSanity:
    def test_fault_latencies_match_paper(self):
        fc = default_config().fault_costs
        assert fc.cpu_single_latency_ns == pytest.approx(9_000)
        assert fc.gpu_minor_single_latency_ns == pytest.approx(16_000)
        assert fc.gpu_major_single_latency_ns == pytest.approx(18_000)

    def test_fault_plateau_rates(self):
        fc = default_config().fault_costs
        assert 1e9 / fc.cpu_batched_page_ns == pytest.approx(872e3, rel=0.01)
        assert 1e9 / fc.gpu_major_batched_page_ns == pytest.approx(1.1e6, rel=0.01)
        assert 1e9 / fc.gpu_minor_batched_page_ns == pytest.approx(9.0e6, rel=0.01)

    def test_bandwidth_tiers_ordered(self):
        bw = default_config().bandwidth
        assert bw.gpu_peak_stream_bytes_per_s > bw.gpu_peak_stream_bytes_per_s * \
            bw.gpu_small_fragment_factor
        assert bw.gpu_small_fragment_factor > bw.gpu_on_demand_factor
        assert bw.gpu_managed_static_bytes_per_s < 0.1 * bw.gpu_peak_stream_bytes_per_s

    def test_memcpy_tiers_match_section_4_3(self):
        bw = default_config().bandwidth
        assert bw.memcpy_sdma_bytes_per_s == pytest.approx(58e9)
        assert bw.memcpy_no_sdma_bytes_per_s == pytest.approx(850e9)
        assert bw.memcpy_d2d_bytes_per_s == pytest.approx(1900e9)


ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_PY = ROOT / "src" / "repro" / "hw" / "config.py"


def _sub_models():
    """Dataclass types of :class:`MI300AConfig`'s nested fields."""
    hints = typing.get_type_hints(MI300AConfig)
    return sorted(
        {hints[f.name] for f in dataclasses.fields(MI300AConfig)
         if dataclasses.is_dataclass(hints[f.name])},
        key=lambda t: t.__name__,
    )


class TestEveryFieldIsRead:
    """A settable config field that nothing reads is a dead knob: setting
    it changes nothing, so its documented calibration is fiction."""

    def test_sub_model_fields_are_read_outside_config(self):
        sources = "\n".join(
            path.read_text()
            for top in ("src", "tests", "benchmarks", "examples")
            for path in (ROOT / top).rglob("*.py")
            if path != CONFIG_PY
        )
        read = set(re.findall(r"\.(\w+)", sources))
        models = _sub_models()
        assert models, "MI300AConfig has no sub-models to check"
        unread = [
            f"{model.__name__}.{f.name}"
            for model in models
            for f in dataclasses.fields(model)
            if f.name not in read
        ]
        assert not unread, f"config fields nothing reads: {unread}"
