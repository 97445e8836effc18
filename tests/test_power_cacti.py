"""Tests for the Cacti-style scaling model."""

import numpy as np
import pytest

from repro.power import ArrayCosts, CactiModel


def costs(entries: int, entry_bits: int, read_ports: int = 1,
          write_ports: int = 1, **cam) -> ArrayCosts:
    """The costs of one array, as a batch of one."""
    return CactiModel().batch_costs(np.array([entries]), entry_bits,
                                    read_ports, write_ports, **cam)


def cache_costs(size_kib: int, ports: int = 1) -> ArrayCosts:
    return costs(size_kib * 1024 // 64, 64 * 8 + 40, ports, ports)


class TestGeometry:
    def test_total_bits(self):
        # 6T cells plus two transistors per bit for the second port.
        assert costs(128, 64).transistors[0] == 8.0 * 128 * 64

    def test_cam_adds_tag_bits(self):
        assert costs(32, 64, is_cam=True, tag_bits=16).transistors[0] == \
            8.0 * 32 * 80


class TestScalingLaws:
    def test_latency_grows_with_size(self):
        assert cache_costs(128).latency_ns[0] > cache_costs(8).latency_ns[0]

    def test_latency_grows_with_ports(self):
        few = costs(160, 64, 2, 1)
        many = costs(160, 64, 16, 8)
        assert many.latency_ns[0] > few.latency_ns[0]

    def test_cam_latency_grows_with_entries(self):
        small = costs(8, 64, is_cam=True, tag_bits=16)
        large = costs(80, 64, is_cam=True, tag_bits=16)
        assert large.latency_ns[0] > small.latency_ns[0]

    def test_energy_grows_with_size(self):
        assert cache_costs(128).read_energy_pj[0] > \
            cache_costs(8).read_energy_pj[0]

    def test_write_costs_more_than_read(self):
        l1 = cache_costs(32)
        assert l1.write_energy_pj[0] > l1.read_energy_pj[0]

    def test_port_energy_superlinear(self):
        one = costs(160, 64, 1, 1)
        eight = costs(160, 64, 8, 8)
        assert eight.read_energy_pj[0] / one.read_energy_pj[0] > 2.0

    def test_leakage_proportional_to_bits(self):
        ratio = cache_costs(1024).leakage_mw[0] / cache_costs(256).leakage_mw[0]
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_transistor_count_scales(self):
        assert cache_costs(64).transistors[0] > cache_costs(8).transistors[0]

    def test_absolute_plausibility(self):
        """A 32KB L1 should read in ~1ns for tens of pJ."""
        l1 = cache_costs(32)
        assert 0.4 < l1.latency_ns[0] < 3.0
        assert 10 < l1.read_energy_pj[0] < 400
        l2 = cache_costs(4096)
        assert l2.latency_ns[0] < 10.0
        assert l2.leakage_mw[0] > 100  # a 4MB array leaks watts-ish
