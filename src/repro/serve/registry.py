"""Model registry: verified deploy artifacts keyed by content hash.

The serving runtime never trusts a caller-supplied name: a model is
identified by the SHA-256 of its full integer content (every spec's
matrices, bias, multipliers, activation widths) plus the deployment
parameters (encoding, board, block size).  Registering byte-identical
content twice therefore hits the compiled-kernel cache — codegen and the
full static-verification suite run exactly once per distinct artifact,
no matter how many callers or devices ask for it.

Replicas are produced by deep-copying the cached
:class:`~repro.deploy.artifact.DeployedModel`: the flashed memory image
and assembled programs are duplicated byte-for-byte onto a simulated
board without re-running code generation or verification (the simulator
analogue of flashing a board from one signed firmware image).  A
replay's :class:`~repro.serve.pool.Answers` flashes one per (artifact,
engine), which answers for every device of every runtime sharing it.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.deploy.artifact import VERIFIED_ENGINE, DeployedModel
from repro.deploy.deployer import Deployment, deploy
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.quantize.ptq import QuantizedModel

#: The block encoding's block size of every registered artifact.
BLOCK_SIZE = 256


def content_hash(
    quantized: QuantizedModel,
    format_name: str = "block",
    board: BoardProfile = STM32F072RB,
    block_size: int = 256,
) -> str:
    """SHA-256 over the model's integer content + deployment parameters.

    The board contribution covers the *full* profile — cost table, memory
    budgets and bases, capability flags — not just name and clock.  Two
    boards differing only in flash wait states (``CycleCosts.fetch_extra``)
    or RAM budget are different latency models and must never dedupe to
    one ``model_id``.
    """
    digest = hashlib.sha256()
    board_key = (
        f"board={board.name};core={board.core};clock={board.clock_hz};"
        f"flash={board.flash_kb}@{board.flash_base:#x};"
        f"ram={board.ram_kb}@{board.ram_base:#x};"
        f"costs={board.costs!r};"
        f"fpu={board.has_fpu};dsp={board.has_dsp};muls={board.has_muls}"
    )
    digest.update(
        f"fmt={format_name};{board_key};"
        f"block={block_size};in_scale={quantized.input_scale!r};"
        f"act={quantized.act_width}".encode()
    )
    for spec in quantized.specs:
        matrix = spec.weights if spec.weights is not None else spec.adjacency
        digest.update(
            f"|{spec.n_in},{spec.n_out},{spec.act_in_width},"
            f"{spec.act_out_width},{spec.relu},{spec.shift}".encode()
        )
        digest.update(np.ascontiguousarray(matrix).tobytes())
        digest.update(np.ascontiguousarray(spec.bias).tobytes())
        if isinstance(spec.mult, np.ndarray):
            digest.update(np.ascontiguousarray(spec.mult).tobytes())
        else:
            digest.update(repr(spec.mult).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class ModelArtifact:
    """One registered, verified, cached deployment."""

    model_id: str                 # content hash (hex)
    deployment: Deployment
    format_name: str
    board: BoardProfile
    block_size: int

    @property
    def deployed(self) -> DeployedModel:
        assert self.deployment.model is not None
        return self.deployment.model

    def replica(self, engine: str | None = None) -> DeployedModel:
        """A fresh board flashed with this artifact (no re-codegen).

        A replica has its own memory map (flash contents copied
        verbatim), CPU state, and kernel images pointing at them.  The
        quantized model (with its memoized encodings) and the compiled
        programs never change after flashing, so every replica
        shares the artifact's; fastpath translations are shared too
        (they are immutable and cached process-wide by program content,
        so N replicas compile each layer exactly once).  ``engine``
        overrides the execution engine for this replica only.  A
        ``verified`` replica copies the artifact's WCET bounds, so an
        unverified artifact verifies once here rather than once per
        replica.
        """
        deployed = self.deployed
        if (engine or deployed.engine) == VERIFIED_ENGINE:
            deployed.layer_cycle_bounds()
        frozen = [deployed.quantized]
        frozen += [image.program for image in deployed.images]
        replica = copy.deepcopy(deployed, {id(obj): obj for obj in frozen})
        if engine is not None:
            replica.set_engine(engine)
        return replica


class ModelRegistry:
    """Content-addressed store of verified deploy artifacts."""

    def __init__(self) -> None:
        self._artifacts: dict[str, ModelArtifact] = {}
        #: Number of register() calls answered from cache (observable so
        #: tests and benchmarks can prove the no-re-codegen property).
        self.cache_hits = 0

    def register(
        self,
        quantized: QuantizedModel,
        format_name: str = "block",
        board: BoardProfile = STM32F072RB,
        verify: bool = True,
    ) -> ModelArtifact:
        """Deploy + verify the model once; identical content is cached.

        Artifacts use :data:`BLOCK_SIZE` and the default engine.  Fastpath
        translations are warmed here, next to codegen and
        verification, so they too run exactly once per distinct artifact
        — every later replica reuses the process-wide translation cache.
        """
        model_id = content_hash(quantized, format_name, board, BLOCK_SIZE)
        artifact = self._artifacts.get(model_id)
        if artifact is not None:
            self.cache_hits += 1
        else:
            deployment = deploy(
                quantized, format_name=format_name, board=board,
                block_size=BLOCK_SIZE, require_fit=True, verify=verify,
            )
            assert deployment.model is not None
            deployment.model.warm_translations()
            artifact = ModelArtifact(
                model_id=model_id,
                deployment=deployment,
                format_name=format_name,
                board=board,
                block_size=BLOCK_SIZE,
            )
            self._artifacts[model_id] = artifact
        return artifact

    def __len__(self) -> int:
        return len(self._artifacts)
