"""Seeded YCSB-style workload generation."""

import pytest

from repro.store import MIXES, generate_workload
from repro.store.layout import OP_DELETE, OP_GET, OP_PUT, OP_SCAN
from repro.store.workload import MAX_SCAN_SPAN, zipfian_cdf


class TestGeneration:
    def test_load_phase_covers_every_key(self):
        reqs = generate_workload("ycsb-a", 50, keyspace=16, seed=1)
        load = reqs[:16]
        assert [op for op, _, _ in load] == [OP_PUT] * 16
        assert sorted(key for _, key, _ in load) == list(range(1, 17))
        assert len(reqs) == 16 + 50

    def test_deterministic_per_seed(self):
        a = generate_workload("crud", 80, keyspace=16, seed=5)
        b = generate_workload("crud", 80, keyspace=16, seed=5)
        c = generate_workload("crud", 80, keyspace=16, seed=6)
        assert a == b
        assert a != c

    def test_mix_composition(self):
        reqs = generate_workload("ycsb-c", 40, keyspace=8, seed=0)
        assert all(op == OP_GET for op, _, _ in reqs[8:])
        reqs = generate_workload("ycsb-b", 400, keyspace=8, seed=0)
        puts = sum(1 for op, _, _ in reqs[8:] if op == OP_PUT)
        assert 0 < puts < 60  # ~5% of 400

    def test_every_mix_generates_valid_ops(self):
        valid = {OP_PUT, OP_GET, OP_DELETE, OP_SCAN}
        for mix in MIXES:
            for op, key, arg in generate_workload(mix, 30, 8, seed=2):
                assert op in valid
                assert 1 <= key <= 8
                if op == OP_SCAN:
                    assert 1 <= arg <= MAX_SCAN_SPAN
                if op == OP_PUT:
                    assert arg >= 1

    def test_unknown_mix_and_dist_rejected(self):
        with pytest.raises(ValueError):
            generate_workload("ycsb-z", 10, 8)
        with pytest.raises(ValueError):
            generate_workload("ycsb-a", 10, 8, dist="pareto")

    def test_empty_keyspace_rejected(self):
        # no key for the load phase or the sampler to draw
        for dist in ("zipfian", "uniform"):
            with pytest.raises(ValueError, match="keyspace"):
                generate_workload("ycsb-a", 10, 0, dist=dist)

    def test_zipfian_skews_toward_popular_keys(self):
        from collections import Counter

        reqs = generate_workload(
            "ycsb-c", 600, keyspace=32, seed=3, dist="zipfian"
        )
        counts = Counter(key for _, key, _ in reqs[32:])
        top = counts.most_common(4)
        # the 4 hottest of 32 keys draw well over uniform share (4/32)
        assert sum(n for _, n in top) > 600 * 0.3

    def test_zipfian_cdf_monotone_normalized(self):
        cdf = zipfian_cdf(16)
        assert len(cdf) == 16
        assert all(b > a for a, b in zip(cdf, cdf[1:]))
        assert abs(cdf[-1] - 1.0) < 1e-12
