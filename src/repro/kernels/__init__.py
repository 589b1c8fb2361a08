"""Inference kernels: NumPy reference, ISA code generators, cost models.

Three mutually-validating backends compute every layer:

1. :mod:`repro.kernels.ref` — bit-exact NumPy integer reference,
2. ``generate_*`` — ISA programs executed by the Cortex-M0 interpreter,
3. ``count_*`` — analytical :class:`~repro.kernels.opcount.OpCount`
   formulas priced by a board's cycle table.

The layer generators (dense, at any ``unroll`` factor, and the four
sparse encodings) share one frame in
:mod:`~repro.kernels.codegen_common`: the data placement, the column
loop's registers, the Eq. 1 epilogue with its count, and the
assemble-verify-wrap step; each adds only its traversal.

:func:`~repro.kernels.layer.layer_kernel` and
:func:`~repro.kernels.layer.layer_opcount` pick a layer's generator and
its ``count_*`` twin; every deploy-side consumer goes through them.

Tests assert (2) matches (1) on outputs and (3) on cycles; benchmarks then
use the fast analytical path.
"""

from repro.kernels.codegen_cnn import (
    ConvKernelSpec,
    count_conv,
    generate_conv,
)
from repro.kernels.codegen_common import KernelImage, RELU_CYCLES
from repro.kernels.codegen_dense import count_dense, generate_dense
from repro.kernels.codegen_sparse import (
    SPARSE_FORMATS,
    count_sparse,
    encode_for_kernel,
    generate_sparse,
)
from repro.kernels.layer import layer_kernel, layer_opcount
from repro.kernels.opcount import OpCount, countdown_loop
from repro.kernels.ref import (
    conv2d_forward,
    conv_macc_count,
    fc_macc_count,
    im2col,
    layer_forward,
    model_forward,
    model_predict,
)
from repro.kernels.spec import (
    LayerKernelSpec,
    make_dense_spec,
    make_neuroc_spec,
)

__all__ = [
    "ConvKernelSpec",
    "KernelImage",
    "LayerKernelSpec",
    "OpCount",
    "RELU_CYCLES",
    "SPARSE_FORMATS",
    "conv2d_forward",
    "conv_macc_count",
    "count_conv",
    "count_dense",
    "count_sparse",
    "countdown_loop",
    "encode_for_kernel",
    "fc_macc_count",
    "generate_conv",
    "generate_dense",
    "generate_sparse",
    "im2col",
    "layer_forward",
    "layer_kernel",
    "layer_opcount",
    "make_dense_spec",
    "make_neuroc_spec",
    "model_forward",
    "model_predict",
]
