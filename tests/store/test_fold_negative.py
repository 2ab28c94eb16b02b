"""Negative tests for the store server's fold: an executor that loses or
corrupts part of one batch's result must be flagged.  A check that
cannot fail is not checking anything.

Every case tampers with the first batch the server runs (shard 0's
load-phase batch) by wrapping the executor where the server looks it
up, then serves the same small run the serving tests use."""

import pytest

import repro.cluster.shard as shard_mod
from repro.store import run_serve
from repro.store.layout import META_CURSOR


def serve_tampered(monkeypatch, workload, tamper):
    honest = shard_mod.execute_shard_epoch
    tampered = []

    def wrapped(shard, compiled, layout, *args, **kwargs):
        result = honest(shard, compiled, layout, *args, **kwargs)
        if not tampered:
            tamper(result, layout)
            tampered.append(shard)
        return result

    monkeypatch.setattr(shard_mod, "execute_shard_epoch", wrapped)
    report = run_serve(
        workload=workload, ops=120, shards=2, seed=7,
        keyspace=24, value_words=2, batch=24,
    )
    assert tampered == [0]
    return report.violations


def first_claim_marker(result, layout):
    return min(
        w for w in result.image
        if layout.idx_keys <= w < layout.idx_keys + layout.capacity
    )


#: region -> (workload, the word dropped from the delta, a phrase of the
#: violation that must flag it).  Each input is one where the lost word
#: stays observable:
#:
#: * index, ycsb-a: a key's slot claim is lost, so its next GET misses.
#:   A later PUT claims a slot again and the final state heals, so only
#:   the per-batch results check sees it.
#: * heap, ycsb-c: the first record's header is lost.  GET sums only the
#:   value words, so no result changes; ycsb-c never rewrites the key,
#:   so the final index walk finds the header mismatch.  Under ycsb-a
#:   the key is rewritten first and the loss heals unseen.
#: * meta, ycsb-a: the heap cursor is lost, so the next PUT appends over
#:   a live record.  ycsb-c has no PUT after the load phase and never
#:   reads the stale cursor.
DROPS = {
    "index": ("ycsb-a", first_claim_marker, "durable results"),
    "heap": ("ycsb-c", lambda result, layout: layout.heap, "header"),
    "meta": (
        "ycsb-a", lambda result, layout: layout.meta + META_CURSOR,
        "final state diverged",
    ),
}


class TestLossyFold:
    @pytest.mark.parametrize("region", sorted(DROPS))
    def test_dropped_delta_word_is_flagged(self, monkeypatch, region):
        workload, word_of, flagged_by = DROPS[region]

        def drop(result, layout):
            word = word_of(result, layout)
            assert word in result.image
            del result.image[word]

        violations = serve_tampered(monkeypatch, workload, drop)
        assert violations
        assert any(flagged_by in v for v in violations), violations[:4]

    def test_changed_durable_result_is_flagged(self, monkeypatch):
        # the results list is nowhere else: the image still holds the
        # true result word, so only the per-batch check against the
        # model can see this
        def corrupt(result, layout):
            result.results[0] += 1

        violations = serve_tampered(monkeypatch, "ycsb-c", corrupt)
        assert len(violations) == 1
        assert "durable results" in violations[0]
