"""Tests of the per-epoch training history."""

from repro.train import HistoryRecorder


class TestHistoryRecorder:
    def test_record_and_series(self):
        history = HistoryRecorder()
        history.record(loss=1.0, metric=0.5)
        history.record(loss=0.5)
        assert history.series("loss") == [1.0, 0.5]
        assert history.series("metric") == [0.5]

    def test_last(self):
        history = HistoryRecorder()
        assert history.last() == {}
        history.record(loss=2.0)
        assert history.last() == {"loss": 2.0}

    def test_len(self):
        history = HistoryRecorder()
        history.record(a=1)
        history.record(a=2)
        assert len(history) == 2
