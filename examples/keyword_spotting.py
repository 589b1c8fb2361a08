"""Always-on keyword spotting on a battery budget.

The paper's introduction motivates Neuro-C with battery-powered BLE nodes
that detect events locally.  This example builds that scenario end to end:

- a synthetic keyword-spotting task: 40-bin x 16-frame "spectrograms" of
  four keywords plus background noise, generated procedurally (formant
  trajectories + noise),
- a Neuro-C classifier trained, quantized, and deployed to the simulated
  Cortex-M0,
- a duty-cycle analysis: at one inference per second, what fraction of
  the MCU's time (≈ energy, §5.1) does wake-word detection cost?

Run:  python examples/keyword_spotting.py
"""

import numpy as np

from repro.core import NeuroCConfig, train_neuroc
from repro.datasets.base import Dataset, generate_rows
from repro.deploy import deploy
from repro.mcu import STM32F072RB

FRAMES = 16
BINS = 40
KEYWORDS = ("yes", "no", "stop", "go", "_noise_")

#: Formant-trajectory sketches per keyword: (start_bin, end_bin, strength)
#: per formant.  Distinct trajectories, shared frequency range — the
#: classifier must use the *shape*, not just energy.
_FORMANTS = {
    "yes": [(8, 20, 1.0), (26, 30, 0.7)],
    "no": [(18, 6, 1.0), (30, 24, 0.6)],
    "stop": [(12, 12, 0.9), (4, 22, 0.8)],
    "go": [(22, 10, 1.0), (10, 10, 0.5)],
}


def _render_keyword(word: str, rng: np.random.Generator) -> np.ndarray:
    spectrogram = rng.normal(0.08, 0.05, (FRAMES, BINS)).clip(0, None)
    if word != "_noise_":
        stretch = rng.uniform(0.8, 1.2)
        shift = rng.uniform(-2.5, 2.5)
        for start, end, strength in _FORMANTS[word]:
            for frame in range(FRAMES):
                t = min(frame * stretch / (FRAMES - 1), 1.0)
                center = start + (end - start) * t + shift
                bins = np.arange(BINS)
                track = strength * np.exp(
                    -((bins - center) ** 2) / (2 * rng.uniform(1.2, 2.2) ** 2)
                )
                spectrogram[frame] += track * rng.uniform(0.7, 1.1)
    else:
        # Background noise bursts: energy without keyword structure.
        for _ in range(rng.integers(1, 4)):
            frame = rng.integers(0, FRAMES)
            spectrogram[frame] += rng.uniform(0.2, 0.9, BINS) * (
                rng.random(BINS) < 0.3
            )
    return np.clip(spectrogram / spectrogram.max(), 0.0, 1.0)


def make_kws_dataset(n_train=2500, n_test=600, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    def batch(count):
        return generate_rows(
            count, len(KEYWORDS), FRAMES * BINS, rng,
            lambda label, rng: _render_keyword(KEYWORDS[label], rng),
            lambda labels, images: np.stack(images).reshape(len(images), -1),
        )

    x_train, y_train = batch(n_train)
    x_test, y_test = batch(n_test)
    return Dataset(
        name="kws", x_train=x_train, y_train=y_train,
        x_test=x_test, y_test=y_test,
        num_classes=len(KEYWORDS), image_shape=(FRAMES, BINS),
    )


def main() -> None:
    print("Generating the synthetic keyword-spotting task "
          f"({FRAMES}x{BINS} spectrograms, {len(KEYWORDS)} classes)...")
    dataset = make_kws_dataset()

    print("Training Neuro-C...")
    config = NeuroCConfig(
        n_in=dataset.num_features, n_out=dataset.num_classes,
        hidden=(96,), threshold=0.9, name="kws",
    )
    trained = train_neuroc(config, dataset, epochs=40, lr=0.006)
    print(f"int8 accuracy: {trained.quantized_accuracy:.4f}")

    deployment = deploy(trained.quantized, format_name="block")
    print(f"program memory: {deployment.program_memory.total_kb:.1f} KB, "
          f"latency: {deployment.latency_ms:.2f} ms per inference")

    # Duty-cycle analysis: the paper uses latency as the energy proxy.
    inferences_per_second = 1.0
    duty = deployment.latency_ms * inferences_per_second / 1000.0
    print(f"\nAlways-on budget at {inferences_per_second:.0f} Hz:")
    print(f"  CPU duty cycle for inference: {duty * 100:.2f} %")
    print(f"  -> {100 - duty * 100:.2f} % of the time available for "
          "sensing, radio, and sleep")

    result = deployment.model.infer(dataset.x_test[0])
    word = KEYWORDS[result.label]
    print(f"\nSample detection: heard {word!r} "
          f"(true {KEYWORDS[dataset.y_test[0]]!r}) "
          f"in {result.latency_ms:.2f} ms")


if __name__ == "__main__":
    main()
