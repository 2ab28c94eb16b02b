"""Tests for the workload archetype kernels: termination, correctness of
their computed results, and the dynamic properties the suite relies on."""



from repro.compiler import run_single, run_threads
from repro.trace import count_events
from repro.workloads import archetypes as A


def single(prog, max_steps=4_000_000):
    return run_single(prog, max_steps=max_steps)


class TestStreaming:
    def test_writes_expected_values(self):
        prog = A.streaming(n_words=64, sweeps=1, compute_per_element=2)
        events, mem = single(prog)
        y = prog.base_of("y")
        # x is zero-initialized; compute adds 1+2
        assert mem.read(y + 10) == 3

    def test_store_density_scales_with_parameter(self):
        lean = count_events(single(A.streaming(64, 1, stores_per_element=1))[0])
        fat = count_events(single(A.streaming(64, 1, stores_per_element=3))[0])
        assert fat.data_stores == 3 * lean.data_stores


class TestStencil:
    def test_stencil_sums_neighbours(self):
        prog = A.stencil(n_words=16, sweeps=1)
        events, mem = single(prog)
        # x all zeros -> y all zeros; just verify termination + stores
        stats = count_events(events)
        assert stats.data_stores == 15


class TestRandomUpdate:
    def test_total_increments_conserved(self):
        prog = A.random_update(n_words=64, ops=100, read_ratio=0)
        _, mem = single(prog)
        table = prog.base_of("table")
        total = sum(mem.read(table + i) for i in range(64))
        assert total == 100


class TestPointerChase:
    def test_ring_is_complete_permutation_cycle(self):
        prog = A.pointer_chase(n_words=32, hops=40, stride=7)
        _, mem = single(prog)
        ring = prog.base_of("ring")
        seen = set()
        node = 0
        for _ in range(32):
            node = mem.read(ring + node)
            seen.add(node)
        assert len(seen) == 32  # stride coprime with n -> full cycle

    def test_low_store_density(self):
        stats = count_events(single(A.pointer_chase(64, 200))[0])
        # after the init phase, ~1 store per 16 hops
        assert stats.data_stores < stats.loads


class TestReduction:
    def test_reduction_value(self):
        prog = A.reduction(n_words=16, sweeps=1)
        _, mem = single(prog)
        out = prog.base_of("out")
        assert mem.read(out) == 0  # zeros in, zero out

    def test_read_heavy(self):
        stats = count_events(single(A.reduction(128, 2))[0])
        assert stats.loads > 20 * stats.data_stores


class TestComputeBound:
    def test_low_memory_traffic(self):
        stats = count_events(single(A.compute_bound(500, 12, 256))[0])
        memory_ops = stats.loads + stats.data_stores
        assert memory_ops < stats.instructions / 5


class TestHistogram:
    def test_counts_conserved(self):
        prog = A.histogram(n_buckets=32, ops=200)
        _, mem = single(prog)
        base = prog.base_of("buckets")
        assert sum(mem.read(base + i) for i in range(32)) == 200


class TestBlockedMatrix:
    def test_zero_times_zero(self):
        prog = A.blocked_matrix(dim=8)
        _, mem = single(prog)
        c = prog.base_of("C")
        assert mem.read(c) == 0

    def test_store_count_is_dim_squared(self):
        prog = A.blocked_matrix(dim=8)
        stats = count_events(single(prog)[0])
        assert stats.data_stores == 64


class TestMultithreadedArchetypes:
    def test_transactional_conserves_increments(self):
        n, txns, writes = 4, 20, 3
        prog = A.transactional(
            n_threads=n, txns_per_thread=txns, table_words=1024,
            writes_per_txn=writes, n_locks=4,
        )
        _, mem = run_threads(
            prog, [("worker", (t,)) for t in range(n)], max_steps=4_000_000
        )
        table = prog.base_of("table")
        total = sum(mem.read(table + i) for i in range(1024))
        assert total == n * txns * writes

    def test_parallel_for_progress_counter(self):
        n = 4
        prog = A.parallel_for(n_threads=n, words_per_thread=32)
        _, mem = run_threads(
            prog, [("worker", (t,)) for t in range(n)], max_steps=4_000_000
        )
        assert mem.read(prog.base_of("progress")) == n

    def test_parallel_for_partitions_disjoint(self):
        n = 2
        prog = A.parallel_for(n_threads=n, words_per_thread=16, stores_per_elem=1)
        events, _ = run_threads(
            prog, [("worker", (t,)) for t in range(n)], max_steps=4_000_000
        )
        stores_by_tid = {}
        for e in events:
            if e.kind == "store":
                stores_by_tid.setdefault(e.tid, set()).add(e.addr)
        assert not (stores_by_tid[0] & stores_by_tid[1])

    def test_producer_consumer_cursor_advances(self):
        n = 2
        prog = A.producer_consumer(n_threads=n, items_per_thread=10)
        _, mem = run_threads(
            prog, [("worker", (t,)) for t in range(n)], max_steps=4_000_000
        )
        cursor = prog.base_of("cursor")
        assert mem.read(cursor) == 20  # every produce bumped the head
