"""Board matrix: per-board exactness, pricing, and mixed-fleet goodput.

For every profile in ``BOARD_PROFILES`` the reference block-sparse
kernel is regenerated inside the board's own memory map (the RISC-V
part moves both the flash and RAM windows) and run on all three
engines under the board's cost table; the matrix rows record that the
engines agree bit-identically on cycles, that the static WCET bound is
exact, and what one inference costs in wall-clock milliseconds on that
board.  A reduced mixed-board cluster soak — one fleet per board class
behind a ``least-queue-wait`` router — then prices the same model as a
heterogeneous serving fleet.

Everything lands in ``benchmarks/results/board_matrix.json`` (CI
uploads it as an artifact).  Set ``REPRO_BOARD_MATRIX_REQUESTS`` to
shrink the cluster soak (the CI job uses 150; the default is 300).
"""

import json
import os

import numpy as np

from _output import RESULTS_DIR, emit
from repro.analysis import verify_kernel_image
from repro.cluster import Cluster, ClusterConfig, verify_cluster_invariants
from repro.core.adjacency import clustered_adjacency
from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.datasets import load
from repro.kernels.codegen_sparse import generate_sparse
from repro.kernels.spec import make_neuroc_spec
from repro.mcu.board import BOARD_PROFILES, classify_board
from repro.mcu.fastpath import make_cpu
from repro.serve import ModelRegistry, ServeConfig, synthetic_trace

N_REQUESTS = int(os.environ.get("REPRO_BOARD_MATRIX_REQUESTS", "300"))
ENGINES = ("interpreter", "fastpath", "fastpath-v2")


def _spec(n_in=256, n_out=32, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _merge_results(update: dict) -> None:
    path = RESULTS_DIR / "board_matrix.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(update)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def test_board_matrix_exactness_and_pricing():
    spec = _spec()
    rng = np.random.default_rng(1)
    x = rng.integers(-2, 2, 256)

    rows = []
    for board in BOARD_PROFILES.values():
        cycles_by_engine = {}
        for engine in ENGINES:
            image = generate_sparse(
                spec, "block", memory=board.make_memory()
            )
            image.write_input(x)
            cpu = make_cpu(
                image.memory, costs=board.costs,
                engine=board.resolve_engine(engine),
            )
            cycles_by_engine[engine] = cpu.run(image.program).cycles
        assert len(set(cycles_by_engine.values())) == 1, (
            board.name, cycles_by_engine,
        )
        cycles = cycles_by_engine["interpreter"]

        image = generate_sparse(spec, "block", memory=board.make_memory())
        report = verify_kernel_image(image, board)
        assert report.ok, report.format()
        assert report.cycle_bound == cycles, board.name

        rows.append({
            "board": board.name,
            "core": board.core,
            "clock_mhz": board.clock_hz / 1e6,
            "class": classify_board(board).name,
            "engines": list(board.supported_engines()),
            "cycles": cycles,
            "wcet_bound": report.cycle_bound,
            "latency_ms": board.cycles_to_ms(cycles),
            "engines_bit_identical": True,
            "wcet_exact": True,
        })

    # Same program, four distinct wait-state models: the cycle totals
    # must not all collapse to one number.
    assert len({row["cycles"] for row in rows}) > 1

    lines = [
        f"{'board':14s} {'core':12s} {'class':9s} {'cycles':>9s} "
        f"{'bound':>9s} {'latency ms':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row['board']:14s} {row['core']:12s} {row['class']:9s} "
            f"{row['cycles']:9d} {row['wcet_bound']:9d} "
            f"{row['latency_ms']:11.4f}"
        )
    emit("board_matrix", "\n".join(lines))
    _merge_results({"kernel": "sparse-block", "boards": rows})


def test_board_matrix_mixed_cluster_soak():
    """Reduced heterogeneous soak: one fleet per board class."""
    dataset = load("digits_like", n_train=600, n_test=200, seed=3)
    registry = ModelRegistry()
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="board-matrix", seed=0,
    )
    trained = train_neuroc(config, dataset, epochs=10, lr=0.01)
    boards = list(BOARD_PROFILES.values())
    artifacts = [
        registry.register(trained.quantized, board=board)
        for board in boards
    ]
    assert len({a.model_id for a in artifacts}) == len(boards)

    # Offered load: 4x the SLOWEST fleet's capacity — overload for the
    # M0, headroom for the M7, so routing on per-board cycles_to_ms is
    # what decides goodput.
    slowest = max(artifacts, key=lambda a: a.deployment.latency_ms)
    capacity = 2 * 1e3 / slowest.deployment.latency_ms
    trace = synthetic_trace(
        N_REQUESTS, 4.0 * capacity, 64, seed=71, inputs=dataset.x_test,
    )
    cluster = Cluster(
        artifacts,
        ClusterConfig(
            n_fleets=len(boards),
            serve=ServeConfig(n_devices=2, max_queue_depth=16),
            router_policy="least-queue-wait",
            tick_ms=max(0.5, trace[-1].arrival_ms / 20.0),
        ),
    )
    report = cluster.replay(trace)
    violations = verify_cluster_invariants(report, cluster.submitted_ids)
    assert not violations, "\n".join(violations)
    assert report.completed > 0

    per_fleet = {}
    for gen in report.generations:
        counters = gen.report.metrics["counters"]
        per_fleet[gen.fleet] = {
            "board": boards[
                int(gen.fleet.split("-")[-1]) % len(boards)
            ].name,
            "completed": int(counters.get("requests.completed", 0)),
        }
    _merge_results({
        "mixed_cluster": {
            "requests": N_REQUESTS,
            "router_policy": "least-queue-wait",
            "offered": report.offered,
            "completed": report.completed,
            "rejected": report.rejected,
            "goodput_rps": report.goodput_rps,
            "latency_p50_ms": report.latency_ms["p50"],
            "latency_p99_ms": report.latency_ms["p99"],
            "fleets": per_fleet,
        },
    })
