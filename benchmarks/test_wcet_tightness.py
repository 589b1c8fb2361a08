"""Static WCET bound vs measured cycles, per kernel encoding.

The §4.1 discipline promises input-independent latency; the verifier
framework (:mod:`repro.analysis`) turns that into a *static* cycle bound
per kernel.  This bench reports how tight the bound is against the
interpreter's measured cycle count for every encoding — the acceptance
bar is ``measured <= bound <= 1.05 * measured``, and because verified
kernels have exactly one execution path, the ratio lands on 1.000.
"""

import json

import numpy as np

from _output import RESULTS_DIR, emit
from repro.analysis import verify_kernel_image
from repro.core.adjacency import clustered_adjacency
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.spec import make_dense_spec, make_neuroc_spec


def _ternary_spec(seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(64, 16, 0.12, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, 16).astype(np.int32),
        mult=rng.integers(50, 200, 16).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _dense_spec(seed=0):
    rng = np.random.default_rng(seed)
    return make_dense_spec(
        rng.integers(-30, 30, (64, 16)).astype(np.int8),
        rng.integers(-50, 50, 16).astype(np.int32),
        40, shift=9, act_in_width=1, act_out_width=2, relu=True,
    )


def _images():
    for fmt in SPARSE_FORMATS:
        yield fmt, generate_sparse(_ternary_spec(), fmt)
    yield "dense", generate_dense(_dense_spec())
    yield "unrolled", generate_dense(_dense_spec(), unroll=4)


def test_wcet_tightness():
    rng = np.random.default_rng(7)
    rows = []
    for name, image in _images():
        report = verify_kernel_image(image)
        assert report.ok, report.format()
        bound = report.cycle_bound
        image.write_input(rng.integers(-60, 60, image.input_count))
        measured = image.run().cycles
        assert measured <= bound <= 1.05 * measured
        rows.append({
            "encoding": name,
            "bound": bound,
            "measured": measured,
            "ratio": bound / measured,
            "loops": len(report.wcet.loops),
        })

    lines = [
        f"{'encoding':10s} {'bound':>8s} {'measured':>9s} "
        f"{'ratio':>6s} {'loops':>5s}"
    ]
    for row in rows:
        lines.append(
            f"{row['encoding']:10s} {row['bound']:8d} "
            f"{row['measured']:9d} {row['ratio']:6.3f} {row['loops']:5d}"
        )
    emit("wcet_tightness", "\n".join(lines))
    (RESULTS_DIR / "wcet_tightness.json").write_text(
        json.dumps(rows, indent=2) + "\n"
    )
