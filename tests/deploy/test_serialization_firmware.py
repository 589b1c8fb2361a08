"""Model persistence and firmware-image packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.artifact import DeployedModel
from repro.deploy.firmware import (
    HEADER_BYTES,
    FirmwareImage,
    pack_firmware_image,
    verify_firmware_image,
)
from repro.deploy.serialization import (
    FORMAT_VERSION,
    load_quantized_model,
    save_quantized_model,
)
from repro.errors import ConfigurationError


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, trained_neuroc,
                                             digits_small, tmp_path):
        model = trained_neuroc.quantized
        path = save_quantized_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        loaded = load_quantized_model(path)
        x = digits_small.x_test[:30]
        assert np.array_equal(loaded.predict(x), model.predict(x))
        assert loaded.input_scale == model.input_scale
        assert loaded.act_width == model.act_width

    def test_roundtrip_preserves_specs_exactly(self, trained_neuroc,
                                               tmp_path):
        model = trained_neuroc.quantized
        loaded = load_quantized_model(
            save_quantized_model(model, tmp_path / "m.npz")
        )
        for original, restored in zip(model.specs, loaded.specs):
            assert np.array_equal(original.adjacency, restored.adjacency)
            assert np.array_equal(original.bias, restored.bias)
            assert original.shift == restored.shift
            assert original.relu == restored.relu
            if isinstance(original.mult, np.ndarray):
                assert np.array_equal(original.mult, restored.mult)
            else:
                assert original.mult == restored.mult

    def test_dense_models_roundtrip_too(self, trained_mlp, digits_small,
                                        tmp_path):
        model = trained_mlp.quantized
        loaded = load_quantized_model(
            save_quantized_model(model, tmp_path / "mlp")
        )
        x = digits_small.x_test[:20]
        assert np.array_equal(loaded.predict(x), model.predict(x))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no model file"):
            load_quantized_model(tmp_path / "nope.npz")

    def test_non_model_npz_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ConfigurationError, match="not a Neuro-C"):
            load_quantized_model(path)

    def test_wrong_version_rejected(self, trained_neuroc, tmp_path):
        path = save_quantized_model(trained_neuroc.quantized,
                                    tmp_path / "m")
        with np.load(path) as data:
            arrays = dict(data)
        arrays["__meta__"] = np.array(
            [FORMAT_VERSION + 1, len(trained_neuroc.quantized.specs), 1],
            dtype=np.int32,
        )
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="format"):
            load_quantized_model(path)

    def test_truncated_file_rejected(self, trained_neuroc, tmp_path):
        path = save_quantized_model(trained_neuroc.quantized,
                                    tmp_path / "m")
        with np.load(path) as data:
            arrays = {
                k: v for k, v in data.items()
                if not k.startswith("layer1_")
            }
        np.savez(path, **arrays)
        with pytest.raises(ConfigurationError, match="truncated"):
            load_quantized_model(path)


class TestMalformedModelFiles:
    """A truncated, junk or ill-typed file raises a typed error that
    names it, never numpy's or zipfile's own exception."""

    @pytest.fixture()
    def saved(self, trained_neuroc, tmp_path):
        return save_quantized_model(trained_neuroc.quantized,
                                    tmp_path / "m")

    def _rejected(self, path):
        with pytest.raises(ConfigurationError) as excinfo:
            load_quantized_model(path)
        assert str(path) in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_every_truncation_is_rejected(self, saved):
        raw = saved.read_bytes()
        cuts = sorted(set(np.linspace(1, len(raw) - 1, 60).astype(int)))
        assert len(cuts) == 60
        for cut in cuts:
            saved.write_bytes(raw[:cut])
            self._rejected(saved)

    def test_empty_file_is_rejected(self, saved):
        saved.write_bytes(b"")
        self._rejected(saved)

    def test_junk_bytes_are_rejected(self, saved):
        saved.write_bytes(b"not a model!")
        self._rejected(saved)

    @pytest.mark.parametrize("key, value", [
        ("layer0_bias", np.array([None, 1], dtype=object)),
        ("__meta__", np.array([FORMAT_VERSION, 2], dtype=np.int32)),
        ("layer0_flags", np.array([8, 8, 1], dtype=np.int32)),
        ("__input_scale__", np.array([], dtype=np.float64)),
    ], ids=["object-array", "meta-2-entries", "flags-3-entries",
            "empty-input-scale"])
    def test_ill_typed_member_is_rejected(self, saved, key, value):
        with np.load(saved) as data:
            arrays = dict(data)
        arrays[key] = value
        np.savez(saved, **arrays)
        self._rejected(saved)

    @pytest.mark.parametrize("dtype, entry", [
        (np.int16, 300), (np.int8, 5),
    ], ids=["int16-matrix", "ternary-entry-5"])
    def test_matrix_outside_the_kernel_contract_is_rejected(
        self, saved, dtype, entry
    ):
        # Kernels take int8 matrices, and a ternary layer's entries are
        # -1, 0 or 1; the reference's exact product relies on both.
        with np.load(saved) as data:
            arrays = dict(data)
        matrix = arrays["layer0_matrix"].astype(dtype)
        matrix[0, 0] = entry
        arrays["layer0_matrix"] = matrix
        np.savez(saved, **arrays)
        self._rejected(saved)


class TestFirmware:
    @pytest.fixture(scope="class")
    def image(self, trained_neuroc) -> FirmwareImage:
        deployed = DeployedModel(trained_neuroc.quantized, "block")
        return pack_firmware_image(deployed)

    def test_sizes_match_deployment_accounting(self, image,
                                               trained_neuroc):
        deployed = DeployedModel(trained_neuroc.quantized, "block")
        assert image.text_bytes == deployed.text_bytes
        assert image.data_bytes >= deployed.flash_data_bytes
        assert image.n_layers == len(deployed.images)
        assert image.total_bytes == (
            HEADER_BYTES + image.text_bytes + image.data_bytes
        )

    def test_verification_accepts_intact_image(self, image):
        info = verify_firmware_image(image.blob)
        assert info.text_bytes == image.text_bytes
        assert info.n_layers == image.n_layers

    def test_bitflip_detected_by_crc(self, image):
        corrupted = bytearray(image.blob)
        corrupted[HEADER_BYTES + 5] ^= 0x40
        with pytest.raises(ConfigurationError, match="checksum"):
            verify_firmware_image(bytes(corrupted))

    def test_layer_count_is_under_the_crc(self, image):
        corrupted = bytearray(image.blob)
        corrupted[16] ^= 0x01                  # the n_layers word
        with pytest.raises(ConfigurationError, match="checksum"):
            verify_firmware_image(bytes(corrupted))

    def test_header_tamper_rejected(self, image):
        bad_magic = b"XXXX" + image.blob[4:]
        with pytest.raises(ConfigurationError, match="magic"):
            verify_firmware_image(bad_magic)
        truncated = image.blob[: HEADER_BYTES - 4]
        with pytest.raises(ConfigurationError, match="header"):
            verify_firmware_image(truncated)
        bad_size = (
            image.blob[:4]
            + (999).to_bytes(4, "little")
            + image.blob[8:]
        )
        with pytest.raises(ConfigurationError, match="size"):
            verify_firmware_image(bad_size)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_mutant_is_refused(self, image, data):
        """A flipped bit anywhere, a truncation and an extension each
        raise the typed error; none parses."""
        blob = image.blob
        kind = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
        if kind == "flip":
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            mutant = bytearray(blob)
            mutant[bit // 8] ^= 1 << (bit % 8)
        elif kind == "truncate":
            mutant = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            mutant = blob + data.draw(st.binary(min_size=1, max_size=64))
        with pytest.raises(ConfigurationError):
            verify_firmware_image(bytes(mutant))

    def test_packing_is_deterministic(self, trained_neuroc):
        a = pack_firmware_image(
            DeployedModel(trained_neuroc.quantized, "block")
        )
        b = pack_firmware_image(
            DeployedModel(trained_neuroc.quantized, "block")
        )
        assert a.blob == b.blob
