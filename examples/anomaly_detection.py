"""Vibration anomaly detection on a bare-metal sensor node.

A predictive-maintenance scenario from the paper's motivation (§2): an
MCU strapped to a motor samples a 3-axis accelerometer, extracts a tiny
spectral feature vector, and must flag bearing faults locally — shipping
raw vibration data over BLE would cost far more energy than the inference.

The example generates a synthetic vibration dataset (healthy machines vs
three fault types, expressed as harmonic signatures over a 64-bin
spectrum), trains Neuro-C, deploys it, and reports the paper's metrics
plus a bytes-saved-over-radio estimate.

Run:  python examples/anomaly_detection.py
"""

import numpy as np

from repro.core import NeuroCConfig, train_neuroc
from repro.datasets.base import Dataset, generate_rows
from repro.deploy import deploy

SPECTRUM_BINS = 64
CLASSES = ("healthy", "imbalance", "bearing_wear", "misalignment")

#: Harmonic signatures: (harmonic multiple of the shaft frequency,
#: relative amplitude) pairs that each condition adds to the spectrum.
_SIGNATURES = {
    "healthy": [(1, 1.0)],
    "imbalance": [(1, 2.2)],
    "bearing_wear": [(1, 1.0), (3.2, 0.9), (4.8, 0.7), (6.4, 0.5)],
    "misalignment": [(1, 1.0), (2, 1.6), (3, 0.8)],
}


def _render_spectrum(condition: str, rng: np.random.Generator) -> np.ndarray:
    shaft_bin = rng.uniform(4.0, 7.0)  # operating speed varies
    spectrum = np.abs(rng.normal(0.0, 0.05, SPECTRUM_BINS))
    bins = np.arange(SPECTRUM_BINS)
    for multiple, amplitude in _SIGNATURES[condition]:
        center = shaft_bin * multiple
        if center >= SPECTRUM_BINS:
            continue
        width = rng.uniform(0.6, 1.1)
        spectrum += (
            amplitude
            * rng.uniform(0.7, 1.2)
            * np.exp(-((bins - center) ** 2) / (2 * width**2))
        )
    # Broadband noise floor rises with any fault.
    if condition != "healthy":
        spectrum += np.abs(rng.normal(0.0, 0.03, SPECTRUM_BINS))
    return np.clip(spectrum / 3.0, 0.0, 1.0)


def make_vibration_dataset(n_train=2400, n_test=600, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)

    def batch(count):
        return generate_rows(
            count, len(CLASSES), SPECTRUM_BINS, rng,
            lambda label, rng: _render_spectrum(CLASSES[label], rng),
            lambda labels, rows: np.stack(rows),
        )

    x_train, y_train = batch(n_train)
    x_test, y_test = batch(n_test)
    return Dataset(
        name="vibration", x_train=x_train, y_train=y_train,
        x_test=x_test, y_test=y_test,
        num_classes=len(CLASSES), image_shape=(SPECTRUM_BINS,),
    )


def main() -> None:
    print(f"Generating vibration spectra ({SPECTRUM_BINS} bins, "
          f"{len(CLASSES)} machine conditions)...")
    dataset = make_vibration_dataset()

    print("Training Neuro-C...")
    config = NeuroCConfig(
        n_in=SPECTRUM_BINS, n_out=len(CLASSES), hidden=(40,),
        threshold=0.85, name="vibration",
    )
    trained = train_neuroc(config, dataset, epochs=35, lr=0.008)
    print(f"int8 accuracy: {trained.quantized_accuracy:.4f}")

    deployment = deploy(trained.quantized, format_name="block")
    print(f"program memory: {deployment.program_memory.total_kb:.1f} KB, "
          f"latency {deployment.latency_ms:.2f} ms per inference")

    # Local classification vs shipping the raw window over the radio.
    raw_window_bytes = SPECTRUM_BINS * 2          # int16 spectrum
    verdict_bytes = 1
    print("\nPer measurement event:")
    print(f"  radio payload if raw data is shipped: {raw_window_bytes} B")
    print(f"  radio payload with on-device inference: {verdict_bytes} B "
          f"({raw_window_bytes / verdict_bytes:.0f}x less airtime)")

    result = deployment.model.infer(dataset.x_test[1])
    print(f"\nSample verdict: {CLASSES[result.label]!r} "
          f"(true {CLASSES[dataset.y_test[1]]!r}) "
          f"in {result.latency_ms:.2f} ms")


if __name__ == "__main__":
    main()
