"""Model registry: content addressing, kernel cache, replicas."""

import numpy as np

from repro.serve import ModelRegistry, content_hash


class TestContentHash:
    def test_stable_across_calls(self, small_trained):
        first = content_hash(small_trained.quantized)
        second = content_hash(small_trained.quantized)
        assert first == second
        assert len(first) == 64          # sha256 hex

    def test_sensitive_to_deploy_parameters(self, small_trained):
        quantized = small_trained.quantized
        assert content_hash(quantized, "block") != \
            content_hash(quantized, "csc")
        assert content_hash(quantized, block_size=256) != \
            content_hash(quantized, block_size=128)

    def test_sensitive_to_weights(self, small_trained, trained_neuroc):
        assert content_hash(small_trained.quantized) != \
            content_hash(trained_neuroc.quantized)

    def test_board_identity_is_the_full_profile(self, small_trained):
        """ISSUE-9 satellite (pre-fix failing): two boards sharing a
        name and clock but differing in wait states, memory budget, or
        capability flags are different latency models and must never
        collide to one model_id."""
        from dataclasses import replace

        from repro.mcu import STM32F072RB, CycleCosts

        quantized = small_trained.quantized
        base = content_hash(quantized, board=STM32F072RB)
        wait_states = replace(
            STM32F072RB, costs=CycleCosts(fetch_extra=1)
        )
        assert content_hash(quantized, board=wait_states) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, flash_kb=256)
        ) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, ram_kb=32)
        ) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, has_fpu=True)
        ) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, has_dsp=True)
        ) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, has_muls=False)
        ) != base
        assert content_hash(
            quantized, board=replace(STM32F072RB, ram_base=0x8000_0000)
        ) != base

    def test_registering_on_two_cost_tables_yields_two_artifacts(
        self, small_trained
    ):
        """End-to-end: the registry serves distinct artifacts (and so
        distinct per-board latency models) for wait-state variants."""
        from dataclasses import replace

        from repro.mcu import STM32F072RB, CycleCosts
        from repro.serve import ModelRegistry

        registry = ModelRegistry()
        m0 = registry.register(small_trained.quantized)
        slow_flash = registry.register(
            small_trained.quantized,
            board=replace(
                STM32F072RB, name=STM32F072RB.name,
                costs=CycleCosts(fetch_extra=1),
            ),
        )
        assert m0.model_id != slow_flash.model_id
        assert len(registry) == 2
        assert slow_flash.deployment.latency_ms > m0.deployment.latency_ms


class TestRegistryCache:
    def test_identical_content_never_recodegens(self, small_trained):
        registry = ModelRegistry()
        first = registry.register(small_trained.quantized)
        second = registry.register(small_trained.quantized)
        assert first is second           # same artifact object: cached
        assert registry.cache_hits == 1
        assert len(registry) == 1

    def test_verified_by_construction(self, small_artifact):
        assert small_artifact.deployment.verified


class TestReplicas:
    def test_replica_is_independent_state(self, small_artifact,
                                           digits_small):
        a = small_artifact.replica()
        b = small_artifact.replica()
        assert a is not b
        assert a.memory is not b.memory  # own RAM per board
        x = digits_small.x_test[0]
        ra, rb = a.infer(x), b.infer(x)
        assert ra.label == rb.label
        assert ra.cycles == rb.cycles

    def test_replica_shares_what_flashing_froze(self, small_artifact):
        deployed = small_artifact.deployed
        replica = small_artifact.replica()
        assert replica.quantized is deployed.quantized
        assert len(replica.images) == len(deployed.images)
        for mine, theirs in zip(replica.images, deployed.images):
            assert mine is not theirs
            assert mine.program is theirs.program
            assert mine.memory is replica.memory
        assert replica.memory is not deployed.memory
        assert replica.timer is not deployed.timer

    def test_running_a_replica_leaves_the_artifact_ram_alone(
        self, small_artifact, digits_small
    ):
        def ram(model):
            return [
                bytes(region.data) for region in model.memory.regions
                if region.writable
            ]

        deployed = small_artifact.deployed
        before = ram(deployed)
        replica = small_artifact.replica(engine="interpreter")
        replica.infer(digits_small.x_test[0])
        assert ram(replica) != before          # the kernels ran
        assert ram(deployed) == before

    def test_replica_matches_reference_backend(self, small_artifact,
                                               small_trained,
                                               digits_small):
        replica = small_artifact.replica()
        x = digits_small.x_test[:10]
        on_device = np.array([replica.infer(row).label for row in x])
        reference = small_trained.quantized.predict(x)
        assert np.array_equal(on_device, reference)


class TestContentIdentity:
    def test_fresh_registry_rebuilds_bit_identically(
        self, small_trained, digits_small
    ):
        """A second, fresh registry rebuilds the same content under the
        same id, with the same flash bits and the same inference."""
        first = ModelRegistry().register(small_trained.quantized)
        flash_before = [
            bytes(image.program.encode())
            if hasattr(image.program, "encode") else None
            for image in first.deployed.images
        ]
        x = digits_small.x_test[0]
        result_before = first.replica().infer(x)

        second = ModelRegistry().register(small_trained.quantized)
        assert second.model_id == first.model_id  # same content hash
        assert second is not first               # genuinely rebuilt
        result_after = second.replica().infer(x)
        assert result_after.label == result_before.label
        assert result_after.cycles == result_before.cycles
        assert np.array_equal(result_after.logits, result_before.logits)
        flash_after = [
            bytes(image.program.encode())
            if hasattr(image.program, "encode") else None
            for image in second.deployed.images
        ]
        assert flash_after == flash_before
