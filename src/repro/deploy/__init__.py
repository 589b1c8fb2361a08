"""Deployment: flash sizing, simulated flashing, and C code export."""

from repro.deploy.artifact import (
    BatchInferenceResult,
    DeployedModel,
    InferenceResult,
    analytic_model_cycles,
    analytic_model_latency_ms,
)
from repro.deploy.cgen import generate_c_source
from repro.deploy.deployer import Deployment, deploy
from repro.deploy.planner import (
    CatalogCandidate,
    CatalogPlan,
    DeploymentPlan,
    DeploySLO,
    PlanCandidate,
    plan_deployment,
    plan_from_catalog,
)
from repro.deploy.firmware import (
    FirmwareImage,
    FirmwareInfo,
    pack_firmware_image,
    verify_firmware_image,
)
from repro.deploy.serialization import (
    load_quantized_model,
    save_quantized_model,
)
from repro.deploy.size import (
    STARTUP_TEXT_BYTES,
    ProgramMemoryReport,
    layer_program_memory,
    model_program_memory,
    scratch_memory,
)

__all__ = [
    "BatchInferenceResult",
    "CatalogCandidate",
    "CatalogPlan",
    "DeploySLO",
    "DeployedModel",
    "Deployment",
    "DeploymentPlan",
    "FirmwareImage",
    "FirmwareInfo",
    "InferenceResult",
    "PlanCandidate",
    "ProgramMemoryReport",
    "plan_deployment",
    "plan_from_catalog",
    "STARTUP_TEXT_BYTES",
    "analytic_model_cycles",
    "analytic_model_latency_ms",
    "deploy",
    "generate_c_source",
    "load_quantized_model",
    "pack_firmware_image",
    "save_quantized_model",
    "verify_firmware_image",
    "layer_program_memory",
    "model_program_memory",
    "scratch_memory",
]
