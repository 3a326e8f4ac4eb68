"""Hash workloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.silicon.aging import AgingProfile
from repro.silicon.core import Core, credit_whole
from repro.silicon.defects import StuckBitDefect
from repro.silicon.errors import CoreOfflineError
from repro.silicon.golden import set_golden_cache
from repro.silicon.units import FunctionalUnit, Op
from repro.workloads.base import OpCountingCore
from repro.workloads.hashing import (
    crc64,
    fnv1a,
    hash_stream,
    hashing_workload,
    host_crc64,
    mix64,
)


class TestGoldenHashes:
    def test_fnv1a_reference_value(self, healthy_core):
        # Independently computed FNV-1a 64 of b"a".
        assert fnv1a(healthy_core, b"a") == 0xAF63DC4C8601EC8C

    def test_fnv1a_empty_is_offset_basis(self, healthy_core):
        assert fnv1a(healthy_core, b"") == 0xCBF29CE484222325

    def test_crc64_deterministic(self, healthy_core, reference_core):
        data = b"the quick brown fox"
        assert crc64(healthy_core, data) == crc64(reference_core, data)

    def test_crc64_detects_single_bit_change(self, healthy_core):
        a = crc64(healthy_core, b"hello world")
        b = crc64(healthy_core, b"hello worle")
        assert a != b

    def test_mix64_is_bijective_looking(self, healthy_core):
        outputs = {mix64(healthy_core, x) for x in range(200)}
        assert len(outputs) == 200

    def test_hash_stream_matches_pointwise(self, healthy_core):
        seeds = [1, 2, 3]
        assert hash_stream(healthy_core, seeds) == [
            mix64(healthy_core, s) for s in seeds
        ]


class TestHashingWorkload:
    def test_healthy_run_clean(self, healthy_core):
        result = hashing_workload(healthy_core, b"payload" * 20)
        assert not result.app_detected
        assert not result.crashed
        assert result.units == 140

    def test_intermittent_defect_detected_by_double_compute(self):
        core = Core(
            "t/bad",
            defects=[
                StuckBitDefect("d", bit=9, base_rate=5e-3,
                               unit=FunctionalUnit.MUL_DIV)
            ],
            rng=np.random.default_rng(1),
        )
        detections = sum(
            hashing_workload(core, bytes([i]) * 300).app_detected
            for i in range(10)
        )
        assert detections >= 1

    def test_output_digest_differs_on_corruption(self, reference_core):
        core = Core(
            "t/bad2",
            defects=[
                StuckBitDefect("d", bit=3, base_rate=1.0,
                               unit=FunctionalUnit.MUL_DIV)
            ],
            rng=np.random.default_rng(2),
        )
        good = hashing_workload(reference_core, b"data")
        bad = hashing_workload(core, b"data")
        assert good.output_digest != bad.output_digest


def _per_op(kernel, arg, core=None):
    """Result and ops of ``kernel`` with whole-kernel crediting off."""
    core = core or Core("whole/ref")
    before = core.ops_executed
    set_golden_cache(False)
    try:
        result = kernel(core, arg)
    finally:
        set_golden_cache(True)
    return result, core.ops_executed - before


def _pre_onset_core(seed=3):
    return Core(
        "whole/pre",
        defects=[
            StuckBitDefect("d", bit=5, base_rate=0.5,
                           unit=FunctionalUnit.ALU,
                           aging=AgingProfile(onset_days=400.0))
        ],
        rng=np.random.default_rng(seed),
    )


class TestWholeCrc64:
    """A healthy core's whole crc64 equals the per-op path exactly."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_parity(self, data):
        want, want_ops = _per_op(crc64, data)
        core = Core("whole/h")
        assert crc64(core, data) == want == host_crc64(data)
        assert core.ops_executed == want_ops == 4 * len(data)

    def test_offline_healthy_core_still_raises(self):
        core = Core("whole/off")
        core.set_online(False)
        with pytest.raises(CoreOfflineError):
            crc64(core, b"x")
        assert core.ops_executed == 0

    def test_offline_core_with_empty_input_returns_like_per_op(self):
        core = Core("whole/off")
        core.set_online(False)
        assert crc64(core, b"") == 0

    def test_pre_onset_mercurial_core_stays_per_op(self):
        data = b"pre-onset payload" * 4
        fast = _pre_onset_core()
        assert not credit_whole(fast, 0)
        result = crc64(fast, data)
        reference = _pre_onset_core()
        want, want_ops = _per_op(crc64, data, core=reference)
        assert result == want
        assert fast.ops_executed == want_ops
        # Pre-onset defects still draw rng per op: crediting the kernel
        # whole would leave the stream behind where per-op leaves it.
        untouched = _pre_onset_core().rng.bit_generator.state
        assert fast.rng.bit_generator.state == \
            reference.rng.bit_generator.state != untouched

    def test_op_counting_core_tallies_every_op(self):
        inner = Core("whole/inner")
        counting = OpCountingCore(inner)
        data = b"tally me"
        assert crc64(counting, data) == host_crc64(data)
        assert counting.total_ops == inner.ops_executed == 4 * 8
        assert counting.counts[Op.XOR] == 2 * 8

    def test_disabling_the_golden_cache_forces_per_op(self):
        core = Core("whole/h")
        set_golden_cache(False)
        try:
            assert not credit_whole(core, 5)
        finally:
            set_golden_cache(True)
        assert core.ops_executed == 0
        assert credit_whole(core, 5)
        assert core.ops_executed == 5
