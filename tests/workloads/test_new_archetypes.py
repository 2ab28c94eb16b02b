"""Tests for the sort and strided archetypes."""


from repro.compiler import compile_program, run_single
from repro.config import CompilerConfig
from repro.trace import count_events
from repro.workloads.archetypes import sort_kernel, strided


class TestSortKernel:
    def test_segments_end_up_sorted(self):
        prog = sort_kernel(n_words=128, segments=4)
        _, mem = run_single(prog, max_steps=4_000_000)
        data = prog.base_of("data")
        seg = 128 // 4
        for s in range(4):
            values = [mem.read(data + s * seg + i) for i in range(seg)]
            assert values == sorted(values), "segment %d unsorted" % s

    def test_values_are_a_permutation(self):
        prog = sort_kernel(n_words=64, segments=2)
        _, mem = run_single(prog, max_steps=4_000_000)
        data = prog.base_of("data")
        after = sorted(mem.read(data + i) for i in range(64))
        expected = sorted(
            ((i * 2654435761) >> 20) % 997 for i in range(64)
        )
        assert after == expected

    def test_store_heavy(self):
        events, _ = run_single(sort_kernel(n_words=128), max_steps=4_000_000)
        stats = count_events(events)
        assert stats.data_stores > 128  # fills + shifts + placements

    def test_compiles_and_recovers(self):
        from repro.core.failure import crash_sweep

        compiled = compile_program(
            sort_kernel(n_words=32, segments=2), CompilerConfig(store_threshold=8)
        )
        assert crash_sweep(compiled, stride=23) == []


class TestStrided:
    def test_terminates_and_writes(self):
        prog = strided(n_words=256, stride=32, passes=2)
        events, mem = run_single(prog, max_steps=4_000_000)
        stats = count_events(events)
        assert stats.data_stores == 2 * 256 * 2  # 2 stores/elem * passes

    def test_pairs_conserve_sum_per_pass(self):
        """With compute=0 each butterfly writes (a+b... ) — use compute=0
        so the pass is a pure pairwise exchange of derived values."""
        prog = strided(n_words=16, stride=4, passes=1, compute=0)
        _, mem = run_single(prog, max_steps=100_000)
        # zeros in -> zeros out
        data = prog.base_of("data")
        assert all(mem.read(data + i) == 0 for i in range(16))

    def test_compiles(self):
        compiled = compile_program(strided(n_words=64, stride=8, passes=1))
        assert compiled.stats.boundaries > 0
        assert compiled.stats.converged
