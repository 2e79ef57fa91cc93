"""Ablation: last-value confidence counter geometry (paper §5.1).

The paper "experimented with a variety of confidence counter
configurations" but shows only the 3-bit/threshold-6 point. This sweep
reproduces the whole accuracy/coverage trade-off curve.
"""

from repro.core import ClassifierConfig
from repro.harness.cache import cached_classified
from repro.prediction.last_value import LastValuePredictor
from repro.workloads import BENCHMARK_NAMES

GEOMETRIES = ((1, 1), (2, 2), (2, 3), (3, 6), (3, 7), (4, 14))


def _curve(scale):
    config = ClassifierConfig.paper_default()
    points = {}
    for bits, threshold in GEOMETRIES:
        confident = correct_confident = total = 0
        for name in BENCHMARK_NAMES:
            run = cached_classified(name, config, scale)
            predictor = LastValuePredictor(
                confidence_bits=bits, confidence_threshold=threshold
            )
            ids = run.phase_ids
            predictor.advance(int(ids[0]))
            for actual in ids[1:]:
                prediction = predictor.predict()
                total += 1
                if prediction.confident:
                    confident += 1
                    correct_confident += (
                        prediction.phase_id == int(actual)
                    )
                predictor.advance(int(actual))
        coverage = confident / total
        accuracy = correct_confident / max(confident, 1)
        points[(bits, threshold)] = (accuracy, coverage)
    return points


def test_ablation_confidence_geometry(benchmark, warm_caches):
    points = benchmark.pedantic(
        lambda: _curve(warm_caches), rounds=1, iterations=1
    )
    print()
    print("  bits/thresh  conf-accuracy  coverage")
    for (bits, threshold), (accuracy, coverage) in points.items():
        print(f"  {bits}b/{threshold:2d}      {accuracy * 100:12.1f}"
              f"  {coverage * 100:8.1f}")
    # Stricter confidence must not reduce accuracy, and must reduce
    # coverage, relative to the most permissive geometry.
    loose_acc, loose_cov = points[(1, 1)]
    strict_acc, strict_cov = points[(4, 14)]
    assert strict_acc >= loose_acc - 0.01
    assert strict_cov <= loose_cov + 0.01
