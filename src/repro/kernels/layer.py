"""One layer's kernel and its operation counts, by layer kind.

A dense spec gets the dense kernel; a ternary spec gets the sparse
kernel of ``format_name``, and ``block_size`` reaches the ``block``
encoding only.  The deployed artifact, the size model, the analytic
cycle model and intermittent execution all build or price layers
through this pair, so a layer's kernel and its cost twin are always
chosen by the same rule.
"""

from __future__ import annotations

from repro.kernels.codegen_common import KernelImage
from repro.kernels.codegen_dense import count_dense, generate_dense
from repro.kernels.codegen_sparse import count_sparse, generate_sparse
from repro.kernels.opcount import OpCount
from repro.kernels.spec import LayerKernelSpec


def _encoding_options(format_name: str, block_size: int) -> dict:
    return {"block_size": block_size} if format_name == "block" else {}


def layer_kernel(
    spec: LayerKernelSpec, format_name: str, block_size: int, **placement
) -> KernelImage:
    """Generate the layer's kernel program and place its data.

    ``placement`` (``memory``, ``input_addr``, ``output_addr``) chains
    the kernel into a deployment's memory map, as for the generators.
    """
    if spec.is_dense:
        return generate_dense(spec, **placement)
    return generate_sparse(
        spec, format_name, **placement,
        **_encoding_options(format_name, block_size),
    )


def layer_opcount(
    spec: LayerKernelSpec, format_name: str, block_size: int
) -> OpCount:
    """Exact operation counts of :func:`layer_kernel`'s program."""
    if spec.is_dense:
        return count_dense(spec)
    return count_sparse(
        spec, format_name, **_encoding_options(format_name, block_size)
    )
