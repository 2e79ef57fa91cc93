"""The unified PhasePredictor protocol: every predictor family
conforms to ``advance() -> PhaseObservation``."""

import pytest

from repro.prediction import (
    CHANGE_PREDICTOR_KINDS,
    LastValuePredictor,
    MarkovChangePredictor,
    PerfectMarkovPredictor,
    PhaseLengthPredictor,
    PhaseObservation,
    PhasePredictor,
    RLEChangePredictor,
    change_predictor_from_spec,
)
from repro.errors import SnapshotError

ALL_PREDICTORS = [
    lambda: LastValuePredictor(),
    lambda: RLEChangePredictor(2),
    lambda: MarkovChangePredictor(1, entry_kind="top4"),
    lambda: PerfectMarkovPredictor(1),
    lambda: PhaseLengthPredictor(),
]


@pytest.mark.parametrize("build", ALL_PREDICTORS)
def test_conforms_to_protocol(build):
    predictor = build()
    assert isinstance(predictor, PhasePredictor)


@pytest.mark.parametrize("build", ALL_PREDICTORS)
def test_advance_returns_uniform_observation(build):
    predictor = build()
    first = predictor.advance(3)
    assert isinstance(first, PhaseObservation)
    assert first.phase_id == 3
    assert first.phase_changed is False  # seeding never reports a change
    same = predictor.advance(3)
    assert same.phase_changed is False
    changed = predictor.advance(5)
    assert changed.phase_changed is True
    assert changed.phase_id == 5


@pytest.mark.parametrize("build", ALL_PREDICTORS)
def test_reset_restarts_the_stream(build):
    predictor = build()
    for phase in (3, 3, 5):
        predictor.advance(phase)
    predictor.reset()
    assert predictor.advance(7).phase_changed is False


def test_change_observation_carries_completed_run():
    predictor = RLEChangePredictor(2)
    predictor.advance(3)
    predictor.advance(3)
    observation = predictor.advance(5)
    assert observation.completed_run == (3, 2)


def test_perfect_observation_carries_oracle_verdict():
    predictor = PerfectMarkovPredictor(1)
    predictor.advance(3)
    observation = predictor.advance(5)
    assert observation.phase_changed is True
    assert observation.oracle_correct is False  # cold start


class TestChangePredictorRegistry:
    def test_registry_round_trips_specs(self):
        for kind, cls in CHANGE_PREDICTOR_KINDS.items():
            assert cls.snapshot_kind == kind
        rebuilt = change_predictor_from_spec(
            {"kind": "rle", "kwargs": RLEChangePredictor(2).snapshot_kwargs()}
        )
        assert isinstance(rebuilt, RLEChangePredictor)

    def test_none_spec_means_no_predictor(self):
        assert change_predictor_from_spec(None) is None

    def test_unknown_kind_raises(self):
        with pytest.raises(SnapshotError):
            change_predictor_from_spec({"kind": "nope", "kwargs": {}})

    def test_bad_kwargs_raise(self):
        with pytest.raises(SnapshotError):
            change_predictor_from_spec(
                {"kind": "rle", "kwargs": {"bogus": 1}}
            )
