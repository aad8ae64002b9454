"""Tests of training callbacks."""

import pytest

from repro.train import EarlyStopping, HistoryRecorder


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2, mode="max")
        assert not stopper.update(0.5)
        assert not stopper.update(0.4)
        assert stopper.update(0.3)

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2, mode="max")
        stopper.update(0.5)
        stopper.update(0.4)
        assert not stopper.update(0.6)  # improvement
        assert stopper.best == 0.6
        assert not stopper.update(0.5)
        assert stopper.update(0.4)

    def test_min_mode(self):
        stopper = EarlyStopping(patience=1, mode="min")
        assert not stopper.update(1.0)
        assert not stopper.update(0.5)
        assert stopper.update(0.7)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, mode="max", min_delta=0.1)
        stopper.update(0.5)
        assert stopper.update(0.55)  # not enough improvement

    def test_best_step_tracked(self):
        stopper = EarlyStopping(patience=5, mode="max")
        for value in [0.1, 0.9, 0.3]:
            stopper.update(value)
        assert stopper.best_step == 1

    def test_state_round_trip_continues_the_count(self):
        stopper = EarlyStopping(patience=2, mode="max")
        for value in [0.1, 0.9, 0.3]:
            stopper.update(value)
        state = stopper.state_dict()
        # the keys training-state files have always carried
        assert state == {"best": 0.9, "best_step": 1, "bad_checks": 1,
                         "step": 3}
        resumed = EarlyStopping(patience=2, mode="max")
        resumed.load_state_dict(state)
        assert resumed.update(0.2)  # the second bad check, not the first
        assert resumed.best_step == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(mode="sideways")
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


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
