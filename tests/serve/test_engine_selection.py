"""Engine selection through the deploy/serve stack.

The fastpath engine is the deploy default and ``verified`` the serve
default; these tests pin the switch points — ``DeployedModel(engine=
...)``, ``replica(engine=...)``, ``ServeConfig.engine`` — and that
fleets on every engine produce the same simulated numbers (the engines
only differ in host wall-clock, never in simulated cycles).
"""

import pytest

from repro.errors import ConfigurationError
from repro.mcu.cpu import CPU
from repro.mcu.fastpath import (
    FastCPU,
    clear_translation_cache,
    translation_cache_stats,
)
from repro.serve import ServeConfig, ServeRuntime, synthetic_trace


class TestDeployedModelEngine:
    def test_fastpath_is_the_default(self, small_artifact):
        replica = small_artifact.replica()
        assert isinstance(replica._cpu, FastCPU)

    def test_replica_engine_override(self, small_artifact):
        replica = small_artifact.replica(engine="interpreter")
        assert type(replica._cpu) is CPU

    def test_set_engine_switches_and_validates(self, small_artifact,
                                               digits_small):
        replica = small_artifact.replica()
        x = digits_small.x_test[0]
        fast = replica.infer(x)
        replica.set_engine("interpreter")
        assert type(replica._cpu) is CPU
        interp = replica.infer(x)
        assert (fast.label, fast.cycles) == (interp.label, interp.cycles)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            replica.set_engine("jit")

    def test_engines_agree_per_sample(self, small_artifact, digits_small):
        fast = small_artifact.replica()
        interp = small_artifact.replica(engine="interpreter")
        for row in digits_small.x_test[:8]:
            rf, ri = fast.infer(row), interp.infer(row)
            assert rf.label == ri.label
            assert rf.cycles == ri.cycles
            assert rf.logits.tolist() == ri.logits.tolist()

    def test_replicas_share_translations(self, small_artifact):
        # The first replica to warm pays the translation misses; every
        # later replica resolves the same programs as cache hits.
        clear_translation_cache()
        warmed = small_artifact.replica().warm_translations()
        assert warmed > 0
        before = translation_cache_stats()
        assert before["misses"] == warmed
        assert small_artifact.replica().warm_translations() == warmed
        after = translation_cache_stats()
        assert after["entries"] == before["entries"]
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + warmed

    def test_interpreter_model_warms_nothing(self, small_artifact):
        replica = small_artifact.replica(engine="interpreter")
        assert replica.warm_translations() == 0


class TestServeConfigEngine:
    def test_default_and_validation(self):
        assert ServeConfig().engine == "verified"
        assert ServeConfig(engine="interpreter").engine == "interpreter"
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ServeConfig(engine="jit")

    def test_runtime_labels_metrics_and_report(self, small_artifact,
                                               digits_small):
        trace = synthetic_trace(
            24, 400.0, 64, seed=0, inputs=digits_small.x_test
        )
        reports = {}
        for engine in ("verified", "fastpath", "interpreter"):
            runtime = ServeRuntime(
                small_artifact,
                ServeConfig(n_devices=2, engine=engine),
            )
            report = runtime.replay(trace)
            assert report.engine == engine
            assert report.metrics["labels"]["engine"] == engine
            reports[engine] = report
        # Same model semantics regardless of engine: every request gets
        # the same label and the same per-inference cycle count.
        def by_id(report):
            return {
                o.request_id: (o.status, o.label, o.cycles)
                for o in report.outcomes
            }
        interp = reports["interpreter"]
        assert interp.conserved and interp.completed == 24
        for report in reports.values():
            assert by_id(report) == by_id(interp)

    def test_fleet_devices_share_translations(self, small_artifact,
                                              digits_small):
        clear_translation_cache()
        small_artifact.replica().warm_translations()
        warmed = translation_cache_stats()
        runtime = ServeRuntime(
            small_artifact, ServeConfig(n_devices=4, engine="fastpath")
        )
        trace = synthetic_trace(
            8, 400.0, 64, seed=1, inputs=digits_small.x_test
        )
        runtime.replay(trace)
        stats = translation_cache_stats()
        # Replicas reuse the warmed entries; no per-device re-translation.
        assert stats["entries"] == warmed["entries"]
        assert stats["misses"] == warmed["misses"]
        assert stats["declined"] == 0
