"""Chaos test for the serving tier: hot-swap storm with corrupt snapshots.

The snapshot lifecycle's operational contract under fire: when a swap
discovers corrupt serving tables (in-place mutation of the supposedly
frozen snapshot — the in-process stand-in for a torn shm write), the swap
is *rejected*: ``swap_errors`` increments, the service rolls back to the
newest archived good snapshot (``rollbacks`` increments), ``/healthz``
stays green the whole time, and responses bit-match the last good tables.
The storm then keeps going — the next clean poll swaps forward again.
"""

import http.client
import json

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split
from repro.serve import (
    RecommendationHTTPServer,
    RecommendationService,
    SnapshotIntegrityError,
)


@pytest.fixture(scope="module")
def split(small_taobao):
    return leave_one_out_split(small_taobao)


def _get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _bump(model) -> None:
    model.user_embeddings.data += 0.25
    model.on_step_end()


def _corrupt(store) -> None:
    """Flip bits in the frozen serving tables (a torn write, in-process)."""
    store.user_matrix[0, 0] += 1.0


class TestStoreLifecycle:
    """Retention, rollback, and verify-on-transition, asked of the
    service: stores are immutable, the archive lives beside the pointer."""

    @staticmethod
    def _service(split, seed, retain=2):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=seed))
        return model, RecommendationService(model, train=split.train,
                                            k_default=5, retain=retain)

    def test_refresh_archives_and_retention_caps_history(self, split):
        model, service = self._service(split, seed=0)
        versions = [service.snapshot_version]
        for _ in range(3):
            _bump(model)
            assert service.refresh() is True
            versions.append(service.snapshot_version)
        # keep-last-2: the first version fell off the archive
        assert service.archived_versions() == versions[1:3]

    def test_rollback_restores_bit_exact_tables(self, split):
        model, service = self._service(split, seed=1)
        old_version = service.snapshot_version
        old_users = np.array(service.store.user_matrix)
        old_hash = service.store.content_hash
        _bump(model)
        service.refresh()
        assert service.snapshot_version != old_version
        assert service.recover() == old_version
        np.testing.assert_array_equal(service.store.user_matrix, old_users)
        assert service.store.content_hash == old_hash

    def test_rollback_to_specific_version_discards_newer(self, split):
        model, service = self._service(split, seed=2, retain=4)
        first = service.snapshot_version
        for _ in range(2):
            _bump(model)
            service.refresh()
        assert service.recover(first) == first
        assert service.archived_versions() == []

    def test_rollback_with_empty_archive_raises(self, split):
        model, service = self._service(split, seed=3)
        with pytest.raises(ValueError, match="no archived snapshot"):
            service.recover()
        with pytest.raises(ValueError, match="available"):
            _bump(model)
            service.refresh()
            service.recover(version=-12345)

    def test_refresh_rejects_mutated_outgoing_tables(self, split):
        model, service = self._service(split, seed=4)
        corrupt = service.store
        _corrupt(corrupt)
        _bump(model)
        with pytest.raises(SnapshotIntegrityError):
            service.refresh()
        # nothing corrupt was archived as "good", nothing was installed
        assert service.archived_versions() == []
        assert service.store is corrupt

    def test_retain_zero_disables_archive(self, split):
        model, service = self._service(split, seed=6, retain=0)
        _bump(model)
        service.refresh()
        assert service.archived_versions() == []
        with pytest.raises(ValueError, match="retain must be >= 0"):
            RecommendationService(model, retain=-1)

    def test_service_recover_rewires_retriever(self, split):
        model, service = self._service(split, seed=7)
        reference = service.recommend([0, 1, 2])
        _bump(model)
        service.reload()
        old_retriever = service.retriever
        restored = service.recover()
        assert restored == service.snapshot_version == reference.version
        assert service.retriever is not old_retriever
        after = service.recommend([0, 1, 2])
        np.testing.assert_array_equal(reference.items, after.items)
        np.testing.assert_array_equal(reference.scores, after.scores)

    def test_archive_rotted_in_memory_is_not_restored(self, split):
        model, service = self._service(split, seed=8)
        live = service.store
        _bump(model)
        service.refresh()
        _corrupt(live)  # the archived copy shares the outgoing tables
        current = service.store
        with pytest.raises(SnapshotIntegrityError):
            service.recover()
        assert service.store is current


class TestHotSwapStorm:
    """The full chaos loop over a live HTTP server."""

    def test_corrupt_swap_storm_keeps_serving_last_good(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=20))
        service = RecommendationService(model, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            # the initial snapshot is the good state every rollback will
            # restore: each corruption destroys the *current* tables, so
            # the archived copy of this one is always the last good
            status, good_reference = _get(server.port,
                                          "/recommend?user=1&k=5")
            assert status == 200
            good_rollback_version = service.snapshot_version
            # one clean swap so the archive holds that known-good snapshot
            _bump(model)
            assert server.check_freshness() is True

            swaps = 1
            swap_errors = rollbacks = 0
            for _ in range(4):
                # torn write lands in the live tables, model moves on
                _corrupt(service.store)
                _bump(model)
                assert server.check_freshness() is False  # rejected
                swap_errors += 1
                rollbacks += 1
                counters = server.stats.snapshot()["snapshot"]
                assert counters["swap_errors"] == swap_errors
                assert counters["rollbacks"] == rollbacks

                # healthz stays green and responses bit-match the last
                # good snapshot the rollback restored
                status, health = _get(server.port, "/healthz")
                assert status == 200 and health["status"] == "ok"
                assert service.snapshot_version == good_rollback_version
                status, payload = _get(server.port, "/recommend?user=1&k=5")
                assert status == 200
                assert payload["items"] == good_reference["items"]

                # the next clean poll swaps forward again
                assert server.check_freshness() is True
                swaps += 1
            good_version = service.snapshot_version

            counters = server.stats.snapshot()["snapshot"]
            assert counters["swaps"] == swaps
            assert counters["swap_errors"] == swap_errors
            assert counters["rollbacks"] == rollbacks
            assert service.snapshot_version == good_version
            # after the storm the served tables verify clean
            service.store.verify()
        finally:
            server.close()

    def test_corruption_with_empty_archive_still_counts(self, split):
        """First-ever swap finds corrupt tables and nothing archived: the
        error is counted, recovery is impossible, serving continues."""
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=21))
        service = RecommendationService(model, train=split.train, k_default=5)
        server = RecommendationHTTPServer(service, port=0,
                                          poll_interval_ms=60_000.0).start()
        try:
            _corrupt(service.store)
            _bump(model)
            assert server.check_freshness() is False
            counters = server.stats.snapshot()["snapshot"]
            assert counters["swap_errors"] == 1
            assert counters["rollbacks"] == 0
            assert _get(server.port, "/healthz")[0] == 200
        finally:
            server.close()
