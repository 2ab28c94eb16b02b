"""The per-epoch shard executor: purity, the sequence fence,
crash-means-finish recovery, and the write delta it returns."""

import pytest

import repro.cluster.shard as shard_mod
from repro.cluster import execute_shard_epoch
from repro.compiler import compile_program
from repro.config import DEFAULT_CONFIG
from repro.faults.model import FaultEvent
from repro.store import StoreLayout, StoreModel, build_store_program
from repro.store.layout import DATA_FLOOR, OP_DELETE, OP_GET, OP_PUT


@pytest.fixture(scope="module")
def compiled_store():
    sizing = StoreLayout.sized(16, value_words=2, max_batch=8)
    prog, layout = build_store_program(sizing)
    return compile_program(prog, DEFAULT_CONFIG.compiler), layout


def batch_of(n, base_key=1):
    # PUT key=i seed=i+10, so every request has a nonzero durable result
    return [(OP_PUT, base_key + i, 11 + i) for i in range(n)]


def run_epoch(compiled_store, **kwargs):
    compiled, layout = compiled_store
    defaults = dict(
        shard=0, compiled=compiled, layout=layout, image={}, served=0,
        batch=batch_of(4), first_id=0, base_model=StoreModel(layout),
        backend="lightwsp-lrpo",
    )
    defaults.update(kwargs)
    return execute_shard_epoch(**defaults)


class TestCleanEpoch:
    def test_applies_and_acks_every_request(self, compiled_store):
        result = run_epoch(compiled_store)
        assert result.outcome == "ok"
        assert result.acked_local == [0, 1, 2, 3]
        assert result.late_local == []
        assert not result.violations
        assert result.image  # durable data words survive

    def test_results_match_the_model(self, compiled_store):
        _, layout = compiled_store
        batch = batch_of(4) + [(OP_GET, 2, 0)]
        model = StoreModel(layout)
        want = model.apply_all(list(batch))
        result = run_epoch(compiled_store, batch=batch,
                           base_model=StoreModel(layout))
        assert result.results == want

    def test_pure_in_its_arguments(self, compiled_store):
        a = run_epoch(compiled_store)
        b = run_epoch(compiled_store)
        assert a.image == b.image
        assert a.results == b.results
        assert a.steps == b.steps

    def test_chains_epochs_through_the_image(self, compiled_store):
        _, layout = compiled_store
        first = run_epoch(compiled_store)
        model = StoreModel(layout)
        model.apply_all(batch_of(4))
        second = run_epoch(
            compiled_store, image=first.image, served=4,
            batch=[(OP_GET, 1, 0)], first_id=4, base_model=model,
        )
        assert second.outcome == "ok"
        model2 = StoreModel(layout)
        model2.apply_all(batch_of(4))
        assert second.results == [model2.apply((OP_GET, 1, 0))]


class TestSequenceFence:
    def test_replayed_epoch_is_refused(self, compiled_store):
        image = {100: 1}
        stale = run_epoch(compiled_store, served=4, first_id=0,
                          image=image)
        assert stale.outcome == "replay_rejected"
        assert stale.image == {}  # an empty write delta
        assert image == {100: 1}  # the caller's image is untouched
        assert stale.acked_local == []
        assert stale.steps == 0  # refused before booting the machine

    def test_skipping_ahead_is_refused(self, compiled_store):
        assert run_epoch(
            compiled_store, served=0, first_id=8,
        ).outcome == "replay_rejected"


class TestCrashMeansFinish:
    def test_cut_mid_epoch_resumes_and_completes(self, compiled_store):
        clean = run_epoch(compiled_store)
        cut = clean.steps // 2
        result = run_epoch(
            compiled_store, cut=FaultEvent(kind="cut", step=cut)
        )
        assert result.outcome == "crashed"
        assert result.crash_step > 0
        assert not result.violations
        # whole-system persistence: the interrupted batch completed on
        # restored power, so durably everything is applied...
        assert result.image == clean.image
        assert result.results == clean.results
        # ...but only a prefix was acked before the cut; the rest are
        # late acks the coordinator delivers at rejoin
        assert sorted(result.acked_local + result.late_local) == [0, 1, 2, 3]
        assert result.late_local, "a mid-epoch cut precedes some acks"

    def test_every_cut_point_is_loss_free(self, compiled_store):
        clean = run_epoch(compiled_store)
        for frac in (8, 4, 2, 1.3):
            step = max(1, int(clean.steps / frac))
            result = run_epoch(
                compiled_store, cut=FaultEvent(kind="cut", step=step)
            )
            assert result.outcome == "crashed", step
            assert not result.violations, (step, result.violations)
            assert result.image == clean.image, step


class TestWriteDelta:
    def test_input_plus_delta_is_the_durable_image(self, compiled_store,
                                                   monkeypatch):
        # capture each machine's whole durable image just before the
        # executor releases it: the input image updated with the delta
        # must equal it, clean or cut mid-batch, clears included
        _, layout = compiled_store
        durable = []
        release = shard_mod._release

        def capture(machine):
            durable.append({
                w: v for w, v in machine.pm.items()
                if w >= DATA_FLOOR and v
            })
            release(machine)

        monkeypatch.setattr(shard_mod, "_release", capture)
        batches = [
            batch_of(4),
            [(OP_DELETE, 2, 0), (OP_GET, 1, 0)],
            batch_of(3, base_key=5),
        ]
        model, image, served = StoreModel(layout), {}, 0
        for batch in batches:
            clean = run_epoch(
                compiled_store, image=image, served=served, batch=batch,
                first_id=served, base_model=model.copy(),
            )
            cut = run_epoch(
                compiled_store, image=image, served=served, batch=batch,
                first_id=served, base_model=model.copy(),
                cut=FaultEvent(kind="cut", step=clean.steps // 2),
            )
            assert cut.outcome == "crashed" and not cut.violations
            for result, whole in zip((clean, cut), durable[-2:]):
                merged = dict(image)
                merged.update(result.image)
                assert {w: v for w, v in merged.items() if v} == whole
            if batch[0][0] == OP_DELETE:
                assert 0 in clean.image.values(), "a clear is a 0"
            # as ClusterSession._commit does: cleared words stay as zeros
            image = dict(image)
            image.update(clean.image)
            model.apply_all(batch)
            served += len(batch)
