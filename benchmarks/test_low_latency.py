"""Ultra-low-latency conversion — accuracy-vs-T sweep (headline artifact).

Timesteps are the single biggest serving-cost multiplier in the stack: every
precision profile and serving path pays per-timestep, so equal
accuracy at T=8 instead of T=32 is a ~4× wall-clock win that composes with
everything else.  The low-latency conversion mode
(``Converter(...).latency("low", timesteps=8)``) buys that with three
compiler passes — the expected-error-minimizing threshold shift
(``2T/(2T+1)``), λ/2 membrane initialization, and residual error
compensation on the calibration batch (Bu et al., arXiv 2303.04347;
arXiv 2506.01968).

Asserted shape (the PR's acceptance gate): the low-latency conversion at
T=8 reaches the accuracy of the *unshifted standard conversion at T=32*
within 1 % top-1 — ≥4× fewer timesteps at equal accuracy — and the measured
simulation wall-clock shrinks accordingly.
"""

import time

import pytest

from repro.core import Converter, ExperimentConfig
from repro.core.pipeline import prepare_data, train_ann
from repro.training import TrainingConfig

from bench_utils import print_benchmark_header

#: Simulation budgets swept (the low-latency conversion is calibrated at
#: LOW_T; the standard baseline's reference accuracy is read at BASE_T).
SWEEP_T = (4, 8, 16, 32)
LOW_T = 8
BASE_T = 32
#: The acceptance gate: low@T=8 within 1 % top-1 of standard@T=32.
MAX_ACCURACY_DELTA = 0.01


def _sweep_config() -> ExperimentConfig:
    """A small but properly trained ConvNet-4: big enough that accuracy is
    stable (128 test samples), small enough to train in well under a minute."""

    return ExperimentConfig(
        model="convnet4",
        dataset="cifar",
        model_kwargs={"channels": (8, 8, 16, 16), "hidden_features": 32},
        training=TrainingConfig(epochs=6, learning_rate=0.05, milestones=(4,), weight_decay=1e-4),
        timesteps=BASE_T,
        checkpoints=SWEEP_T,
        train_per_class=32,
        test_per_class=32,
        num_classes=4,
        image_size=12,
        seed=7,
    )


@pytest.fixture(scope="module")
def low_latency_sweep():
    """Train once, convert both arms, and sweep accuracy over SWEEP_T."""

    config = _sweep_config()
    train_images, train_labels, test_images, test_labels = prepare_data(config)
    model, ann_accuracy, _ = train_ann(
        config, train_images, train_labels, test_images, test_labels, clip_enabled=True
    )

    standard = Converter(model).strategy("tcl").calibrate(train_images).convert()
    low = (
        Converter(model)
        .strategy("tcl")
        .latency("low", timesteps=LOW_T)
        .calibrate(train_images)
        .convert()
    )

    accuracy = {"standard": {}, "low": {}}
    result = standard.snn.simulate(test_images, max(SWEEP_T), checkpoints=SWEEP_T)
    for t in SWEEP_T:
        accuracy["standard"][t] = result.accuracy(test_labels, at=t)
    result = low.snn.simulate(test_images, max(SWEEP_T), checkpoints=SWEEP_T)
    for t in SWEEP_T:
        accuracy["low"][t] = result.accuracy(test_labels, at=t)

    return {
        "ann_accuracy": ann_accuracy,
        "accuracy": accuracy,
        "standard": standard,
        "low": low,
        "test_images": test_images,
        "test_labels": test_labels,
    }


class TestLowLatencySweep:
    def test_equal_accuracy_at_4x_fewer_timesteps(self, low_latency_sweep):
        """The acceptance gate: low@T=8 within 1 % of standard@T=32."""

        accuracy = low_latency_sweep["accuracy"]
        print_benchmark_header("accuracy vs T — standard vs low-latency conversion")
        print(f"ANN reference accuracy: {low_latency_sweep['ann_accuracy']:.4f}")
        print(f"{'T':>4}  {'standard':>10}  {'low':>10}")
        for t in SWEEP_T:
            print(f"{t:>4}  {accuracy['standard'][t]:>10.4f}  {accuracy['low'][t]:>10.4f}")
        baseline = accuracy["standard"][BASE_T]
        reached = accuracy["low"][LOW_T]
        print(
            f"gate: low@T={LOW_T} = {reached:.4f} vs standard@T={BASE_T} = {baseline:.4f} "
            f"(delta {baseline - reached:+.4f}, allowed {MAX_ACCURACY_DELTA})"
        )
        assert reached >= baseline - MAX_ACCURACY_DELTA, (
            f"low-latency conversion at T={LOW_T} ({reached:.4f}) fell more than "
            f"{MAX_ACCURACY_DELTA:.0%} below the standard T={BASE_T} baseline ({baseline:.4f})"
        )

    def test_low_mode_never_trails_standard_across_sweep(self, low_latency_sweep):
        """The shifted conversion dominates (within noise) at *every* budget,
        not just at its calibration point — the shift factor tends to 1 with
        T, so nothing is given up in the long-latency limit."""

        accuracy = low_latency_sweep["accuracy"]
        for t in SWEEP_T:
            assert accuracy["low"][t] >= accuracy["standard"][t] - MAX_ACCURACY_DELTA, (
                f"low-latency accuracy at T={t} ({accuracy['low'][t]:.4f}) trails the "
                f"standard conversion ({accuracy['standard'][t]:.4f}) beyond the gate"
            )

    def test_wall_clock_tracks_timestep_budget(self, low_latency_sweep):
        """The point of the exercise: simulating T=8 instead of T=32 cuts
        wall-clock nearly linearly (≥2.5× measured, ~4× ideal)."""

        low = low_latency_sweep["low"].snn
        standard = low_latency_sweep["standard"].snn
        images = low_latency_sweep["test_images"]

        def best_wall(network, timesteps: int, repeats: int = 3) -> float:
            network.simulate(images, timesteps, collect_statistics=False)  # warm-up
            walls = []
            for _ in range(repeats):
                started = time.perf_counter()
                network.simulate(images, timesteps, collect_statistics=False)
                walls.append(time.perf_counter() - started)
            return min(walls)

        wall_low = best_wall(low, LOW_T)
        wall_base = best_wall(standard, BASE_T)
        speedup = wall_base / wall_low
        print_benchmark_header("wall-clock — T=8 low-latency vs T=32 standard")
        print(f"standard @ T={BASE_T}: {wall_base * 1000:.1f} ms")
        print(f"low      @ T={LOW_T}: {wall_low * 1000:.1f} ms")
        print(f"speedup: {speedup:.2f}× (ideal {BASE_T / LOW_T:.0f}×)")
        assert speedup >= 2.5, (
            f"T={LOW_T} simulation only {speedup:.2f}× faster than T={BASE_T}; "
            "expected ≥2.5× from the 4× timestep reduction"
        )

    def test_recommended_timesteps_round_trips(self, low_latency_sweep, tmp_path):
        """The calibrated budget travels with the artifact and sizes serving
        defaults (AdaptiveConfig.for_artifact) instead of the 200-step default."""

        from repro.serve import AdaptiveConfig, load_artifact

        low = low_latency_sweep["low"]
        assert low.recommended_timesteps == LOW_T
        bundle = low.save(tmp_path / "low-latency")
        artifact = load_artifact(bundle)
        assert artifact.latency == "low"
        assert artifact.recommended_timesteps == LOW_T
        config = AdaptiveConfig.for_artifact(artifact)
        assert config.max_timesteps == LOW_T
        assert config.min_timesteps <= LOW_T

        # And the round-tripped network scores exactly like the original.
        images = low_latency_sweep["test_images"]
        labels = low_latency_sweep["test_labels"]
        original = low.snn.simulate(images, LOW_T).accuracy(labels)
        reloaded = artifact.network.simulate(images, LOW_T).accuracy(labels)
        assert reloaded == pytest.approx(original)
