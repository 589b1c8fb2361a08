"""Command-line interface: train, evaluate, deploy, export.

The paper's workflow as shell commands::

    python -m repro datasets
    python -m repro train --dataset digits_like --hidden 48 \
        --threshold 0.85 --epochs 35 --lr 0.01 --out model.npz
    python -m repro evaluate --model model.npz --dataset digits_like
    python -m repro deploy --model model.npz --format block \
        --c-out engine.c --firmware-out image.bin
    python -m repro encodings --model model.npz
    python -m repro verify --model model.npz --format block
    python -m repro serve-bench --model model.npz --devices 4 \
        --requests 1000 --rate 2000
    python -m repro report --jobs 4
    python -m repro search --boards STM32F072RB Kinetis-K64F \
        --count 24 --jobs 4 --out frontier.json
    python -m repro cache-prune --stale-schemas
    python -m repro zoo

Every command prints human-readable results to stdout and exits non-zero
on failure, so the CLI scripts cleanly.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _cmd_datasets(_args) -> int:
    from repro.datasets import dataset_names, load

    for name in dataset_names():
        dataset = load(name, n_train=10, n_test=10)
        print(
            f"{name:14s} features={dataset.num_features:5d} "
            f"classes={dataset.num_classes} "
            f"image_shape={dataset.image_shape}"
        )
    return 0


def _cmd_zoo(_args) -> int:
    from repro.core.zoo import BEST_DEPLOYABLE, NEUROC_ZOO

    for key, entry in NEUROC_ZOO.items():
        config = entry.config
        role = [
            f"best for {ds}" for ds, k in BEST_DEPLOYABLE.items() if k == key
        ]
        print(
            f"{key:14s} hidden={'x'.join(map(str, config.hidden)):9s} "
            f"threshold={config.threshold} epochs={entry.epochs} "
            f"{'(' + role[0] + ')' if role else ''}"
        )
    return 0


def _cmd_train(args) -> int:
    from repro.core.neuroc import NeuroCConfig, train_neuroc
    from repro.datasets import load
    from repro.deploy.serialization import save_quantized_model

    dataset = load(args.dataset)
    config = NeuroCConfig(
        n_in=dataset.num_features,
        n_out=dataset.num_classes,
        hidden=tuple(args.hidden),
        threshold=args.threshold,
        seed=args.seed,
        name=f"cli-{args.dataset}",
    )
    print(f"training Neuro-C {config.layer_dims} on {args.dataset} ...")
    trained = train_neuroc(
        config, dataset, epochs=args.epochs, lr=args.lr
    )
    print(f"float accuracy: {trained.float_accuracy:.4f}")
    print(f"int8  accuracy: {trained.quantized_accuracy:.4f}")
    path = save_quantized_model(trained.quantized, args.out)
    print(f"saved quantized model to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.datasets import load
    from repro.deploy.serialization import load_quantized_model

    model = load_quantized_model(args.model)
    dataset = load(args.dataset)
    if dataset.num_features != model.n_in:
        raise ReproError(
            f"model expects {model.n_in} features but {args.dataset} "
            f"has {dataset.num_features}"
        )
    accuracy = model.accuracy(dataset.x_test, dataset.y_test)
    print(f"int8 accuracy on {args.dataset}: {accuracy:.4f}")
    return 0


def _cmd_boards(args) -> int:
    from repro.mcu.board import format_board_profile_table

    print(format_board_profile_table())
    return 0


def _cmd_deploy(args) -> int:
    from repro.deploy.deployer import deploy
    from repro.deploy.planner import DeploySLO, plan_deployment
    from repro.deploy.serialization import load_quantized_model
    from repro.mcu.board import board_by_name

    model = load_quantized_model(args.model)
    if args.slo_latency_ms is not None or args.slo_flash_kb is not None:
        # SLO mode: the planner searches every encoding on every
        # reference profile and builds the winner.
        plan = plan_deployment(
            model,
            DeploySLO(
                max_latency_ms=args.slo_latency_ms,
                max_flash_kb=args.slo_flash_kb,
            ),
        )
        chosen = plan.chosen
        print(f"SLO plan: encoding={chosen.format_name} "
              f"engine={chosen.engine} board={chosen.board.name} "
              f"({len(plan.feasible)}/{len(plan.considered)} candidates "
              f"feasible)")
        deployment = plan.deployment
        board = chosen.board
        format_name = chosen.format_name
    else:
        board = board_by_name(args.board)
        format_name = args.format
        deployment = deploy(model, format_name=format_name, board=board)
    report = deployment.program_memory
    print(f"target: {board.name} ({board.core} @ "
          f"{board.clock_hz // 10**6} MHz), encoding: {format_name}")
    print(f"program memory: {report.total_kb:.1f} KB "
          f"(fits {board.flash_kb} KB flash: {report.fits(board)})")
    print(f"inference latency: {deployment.latency_ms:.2f} ms")
    if not deployment.deployable:
        print("model does NOT fit the board", file=sys.stderr)
        return 2
    if args.c_out:
        from repro.deploy.cgen import generate_c_source

        source = generate_c_source(model)   # may refuse: write nothing
        with open(args.c_out, "w") as handle:
            handle.write(source)
        print(f"wrote C inference engine to {args.c_out}")
    if args.firmware_out:
        from repro.deploy.firmware import pack_firmware_image

        image = pack_firmware_image(deployment.model)
        with open(args.firmware_out, "wb") as handle:
            handle.write(image.blob)
        print(f"wrote firmware image ({image.total_bytes} B) to "
              f"{args.firmware_out}")
    return 0


def _cmd_verify(args) -> int:
    from repro.analysis import verify_deployed_model
    from repro.deploy.deployer import deploy
    from repro.deploy.serialization import load_quantized_model

    model = load_quantized_model(args.model)
    from repro.mcu.board import board_by_name

    deployment = deploy(
        model, format_name=args.format,
        board=board_by_name(args.board), verify=False,
    )
    if not deployment.deployable:
        print("model does NOT fit the board; nothing to verify",
              file=sys.stderr)
        return 2
    report = verify_deployed_model(deployment.model)
    board = deployment.board
    for entry, image in zip(report.layers, deployment.model.images):
        print(entry.report.format())
        bound = entry.report.cycle_bound
        if bound is not None:
            measured = image.run(board).cycles
            print(f"  measured    {measured} cycles "
                  f"(bound/measured = {bound / measured:.3f})")
    total = report.total_cycle_bound
    if report.ok and total is not None:
        latency_ms = total / board.clock_hz * 1e3
        print(f"model verified: total bound {total} cycles "
              f"({latency_ms:.2f} ms at {board.clock_hz // 10**6} MHz)")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 2


def _cmd_serve_bench(args) -> int:
    """Replay a synthetic open-loop trace through the serving runtime."""
    import json

    from repro.deploy.serialization import load_quantized_model
    from repro.mcu.intermittent import PowerBudget
    from repro.serve import (
        FaultPlan,
        ModelRegistry,
        ServeConfig,
        ServeRuntime,
        synthetic_trace,
        verify_trace_invariants,
    )

    model = load_quantized_model(args.model)
    registry = ModelRegistry()
    artifact = registry.register(model, format_name=args.format)
    print(f"model {artifact.model_id[:12]} on {artifact.board.name}: "
          f"{artifact.deployment.latency_ms:.2f} ms/inference, "
          f"verified={artifact.deployment.verified}")

    inputs = None
    if args.dataset:
        from repro.datasets import load

        dataset = load(args.dataset)
        if dataset.num_features != model.n_in:
            raise ReproError(
                f"model expects {model.n_in} features but {args.dataset} "
                f"has {dataset.num_features}"
            )
        inputs = dataset.x_test
    trace = synthetic_trace(
        args.requests, args.rate, model.n_in,
        seed=args.seed, deadline_ms=args.deadline_ms, inputs=inputs,
    )

    fault_plan = None
    # NaN and negative rates reach FaultPlan's check, and any device list
    # reaches ServeConfig's range check, even at rate 0.
    if args.brownout_rate != 0.0 or args.faulty_devices is not None:
        faulty = (
            frozenset(args.faulty_devices)
            if args.faulty_devices else None
        )
        fault_plan = FaultPlan(
            brownout_rate=args.brownout_rate,
            faulty_devices=faulty,
            seed=args.seed,
        )
    config = ServeConfig(
        n_devices=args.devices,
        policy=args.policy,
        max_queue_depth=args.queue_depth,
        max_batch=args.batch,
        max_retries=args.retries,
        max_queue_wait_ms=args.max_queue_wait_ms,
        power_budget=(
            PowerBudget(args.charge_cycles)
            if args.charge_cycles is not None else None
        ),
        fault_plan=fault_plan,
        engine=args.engine,
    )
    runtime = ServeRuntime(artifact, config)
    print(f"replaying {args.requests} requests at {args.rate:.0f} req/s "
          f"over {args.devices} simulated {artifact.board.core} devices "
          f"(engine={args.engine}, policy={args.policy}, "
          f"batch<={args.batch}, queue<={args.queue_depth})")
    report = runtime.replay(trace)
    print(report.format())
    if not report.conserved:
        print("request conservation VIOLATED", file=sys.stderr)
        return 2
    violations = verify_trace_invariants(report)
    if violations:
        for violation in violations:
            print(f"trace invariant VIOLATED: {violation}",
                  file=sys.stderr)
        return 2
    if args.trace:
        report.trace.write_chrome_trace(
            args.trace,
            labels={"model_id": artifact.model_id,
                    "engine": report.engine},
        )
        print(f"wrote Chrome trace JSON to {args.trace} "
              f"({len(report.trace)} spans; open in "
              f"https://ui.perfetto.dev)")
    if args.trace_request is not None:
        print(report.trace.timeline(args.trace_request))
    if args.json_out:
        payload = {"model_id": artifact.model_id, **report.to_dict()}
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote metrics JSON to {args.json_out}")
    return 0


def _cmd_cluster_bench(args) -> int:
    """Sweep fleet counts x router policies under cluster overload."""
    import json

    from repro.cluster import format_scaling, run_cluster_scaling
    from repro.deploy.serialization import load_quantized_model
    from repro.serve import ModelRegistry

    model = load_quantized_model(args.model)
    registry = ModelRegistry()
    artifact = registry.register(model, format_name=args.format)
    print(f"model {artifact.model_id[:12]} on {artifact.board.name}: "
          f"{artifact.deployment.latency_ms:.2f} ms/inference")

    inputs = None
    if args.dataset:
        from repro.datasets import load

        dataset = load(args.dataset)
        if dataset.num_features != model.n_in:
            raise ReproError(
                f"model expects {model.n_in} features but {args.dataset} "
                f"has {dataset.num_features}"
            )
        inputs = dataset.x_test
    result = run_cluster_scaling(
        artifact,
        fleet_counts=args.fleets,
        policies=args.policies,
        requests=args.requests,
        load_factor=args.load_factor,
        devices_per_fleet=args.devices,
        queue_depth=args.queue_depth,
        seed=args.seed,
        inputs=inputs,
        engine=args.engine,
    )
    print(format_scaling(result))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result, handle, indent=1)
        print(f"wrote scaling JSON to {args.json_out}")
    return 0


def _cmd_report(args) -> int:
    """Render the paper-vs-measured report, training in parallel."""
    import os

    from repro.experiments import runner
    from repro.experiments.report import generate_report

    if args.jobs is not None:
        # Propagate through the environment so every figure — and every
        # worker process — resolves the same job count.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    jobs = runner.resolve_jobs()
    runner.reset_timings()
    body = generate_report(figures=args.figures)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(body + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(body)
    # Timing summary on stderr: the report body on stdout stays clean
    # (and byte-comparable across job counts).
    print(f"\n[jobs={jobs}]", file=sys.stderr)
    print(runner.format_timing_summary(), file=sys.stderr)
    if args.timings_out:
        runner.write_timings(args.timings_out)
        print(f"wrote timing JSON to {args.timings_out}",
              file=sys.stderr)
    return 0


def _cmd_search(args) -> int:
    """Staged multi-fidelity architecture search over board profiles."""
    import os

    from repro.experiments import runner
    from repro.search import SearchSettings, run_search

    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    jobs = runner.resolve_jobs()
    runner.reset_timings()
    settings = SearchSettings(
        dataset=args.dataset,
        n_train=args.n_train,
        n_test=args.n_test,
        boards=tuple(args.boards),
        count=args.count,
        seed=args.seed,
        stage2_epochs=args.stage2_epochs,
        qat_epochs=args.epochs,
        lr=args.lr,
        promote_fraction=args.promote_frac,
        max_latency_ms=args.slo_latency_ms,
        max_flash_kb=args.slo_flash_kb,
        mode="flat" if args.flat else "staged",
    )
    report = run_search(settings, jobs=jobs)
    print(f"searched {report.count} candidates on {args.dataset} "
          f"(mode={report.mode}, stage2={report.stage2_epochs} ep, "
          f"qat={report.qat_epochs} ep, jobs={jobs})")
    funnels = [report.funnels[name] for name in sorted(report.funnels)]
    print(f"{'board':14s} {'enum':>5s} {'admit':>5s} {'proxy':>5s} "
          f"{'promo':>5s} {'qat':>5s} {'front':>5s}")
    for funnel in funnels:
        c = funnel.counts
        print(f"{funnel.board:14s} {c['enumerated']:5d} "
              f"{c['stage1_admitted']:5d} {c['stage2_evaluated']:5d} "
              f"{c['promoted']:5d} {c['stage3_trained']:5d} "
              f"{c['frontier']:5d}")
    empty = True
    for funnel in funnels:
        if not funnel.frontier:
            continue
        empty = False
        print(f"\n{funnel.board} frontier "
              f"(accuracy x cycles x flash):")
        for point in funnel.frontier:
            print(f"  {point.key:36s} acc={point.accuracy:.4f} "
                  f"cycles={point.cycles:7d} "
                  f"flash={point.flash_kb:6.1f} KB")
    if args.out:
        report.write_artifact(args.out)
        print(f"\nwrote frontier artifact to {args.out}")
    print(f"\n[jobs={jobs}]", file=sys.stderr)
    print(runner.format_timing_summary(), file=sys.stderr)
    if args.timings_out:
        runner.write_timings(args.timings_out)
        print(f"wrote timing JSON to {args.timings_out}", file=sys.stderr)
    if empty:
        print("no candidate reached the frontier on any board",
              file=sys.stderr)
        return 2
    return 0


def _cmd_cache_prune(args) -> int:
    """List or delete disk-cache entries by prefix / schema staleness."""
    from repro.experiments.cache import cache_dir, prune_cache

    dry_run = args.dry_run or args.list
    report = prune_cache(
        prefix=args.prefix, stale_only=args.stale_schemas, dry_run=dry_run,
    )
    verb = "would delete" if dry_run else "deleted"
    for key in report.deleted:
        print(f"{verb}: {key}")
    if args.list:
        for key in report.kept:
            print(f"kept: {key}")
    suffix = "" if dry_run else f", {report.bytes_reclaimed} B reclaimed"
    print(f"{cache_dir()}: scanned {report.scanned} entries, "
          f"{verb} {report.deleted_count}, kept {len(report.kept)}"
          f"{suffix}")
    return 0


def _cmd_encodings(args) -> int:
    from repro.deploy.artifact import analytic_model_latency_ms
    from repro.deploy.serialization import load_quantized_model
    from repro.deploy.size import model_program_memory
    from repro.kernels.codegen_sparse import SPARSE_FORMATS

    model = load_quantized_model(args.model)
    if any(spec.is_dense for spec in model.specs):
        raise ReproError("encoding comparison requires a ternary model")
    print(f"{'format':8s} {'latency ms':>11s} {'flash KB':>9s}")
    for fmt in SPARSE_FORMATS:
        latency = analytic_model_latency_ms(model, fmt)
        memory = model_program_memory(model.specs, format_name=fmt)
        print(f"{fmt:8s} {latency:11.2f} {memory.total_kb:9.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neuro-C reproduction: train, quantize, and deploy "
                    "MAC-free neural inference for Cortex-M0 MCUs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    from repro.kernels.codegen_sparse import SPARSE_FORMATS
    from repro.mcu.board import BOARD_PROFILES, STM32F072RB

    board_names = tuple(BOARD_PROFILES)
    # The serving engines: the proof-backed default and two CPU engines.
    SERVE_ENGINES = ("verified", "fastpath", "interpreter")

    commands.add_parser("datasets", help="list the procedural datasets")
    commands.add_parser("zoo", help="list the pinned paper configurations")
    commands.add_parser(
        "boards", help="list the reference board profiles (Table 1 classes)"
    )

    train = commands.add_parser("train", help="train + quantize a model")
    train.add_argument("--dataset", default="digits_like")
    train.add_argument("--hidden", type=int, nargs="+", default=[48])
    train.add_argument("--threshold", type=float, default=0.85)
    train.add_argument("--epochs", type=int, default=35)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="model.npz")

    evaluate = commands.add_parser("evaluate",
                                   help="accuracy of a saved model")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--dataset", default="digits_like")

    deploy = commands.add_parser(
        "deploy", help="size/latency on the simulated board + exports"
    )
    deploy.add_argument("--model", required=True)
    deploy.add_argument("--format", default="block",
                        choices=SPARSE_FORMATS)
    deploy.add_argument("--board", default=STM32F072RB.name,
                        choices=board_names,
                        help="target board profile (see `repro boards`)")
    deploy.add_argument("--slo-latency-ms", type=float, default=None,
                        help="plan mode: pick the best (encoding, engine, "
                             "board) meeting this latency SLO")
    deploy.add_argument("--slo-flash-kb", type=float, default=None,
                        help="plan mode: cap the device flash budget (KB)")
    deploy.add_argument("--c-out", help="write a C inference engine here")
    deploy.add_argument("--firmware-out",
                        help="write a packed firmware image here")

    encodings = commands.add_parser(
        "encodings", help="compare the four sparse encodings on a model"
    )
    encodings.add_argument("--model", required=True)

    report = commands.add_parser(
        "report",
        help="render the paper-vs-measured report (the EXPERIMENTS.md "
             "body); training units run across --jobs worker processes "
             "sharing the disk cache",
    )
    report.add_argument("--jobs", type=int, default=None,
                        help="worker processes for training units "
                             "(default: $REPRO_JOBS or 1; 0 = all cores)")
    report.add_argument("--out", default=None,
                        help="write the report body here instead of "
                             "stdout")
    report.add_argument("--figures", nargs="+", default=None,
                        metavar="SECTION",
                        help="render only these sections (e.g. fig2 fig5)")
    report.add_argument("--timings-out", default=None,
                        help="write the per-unit/per-figure timing "
                             "summary JSON here")

    verify = commands.add_parser(
        "verify",
        help="statically verify the deployed kernels (control flow, "
             "memory safety, registers, WCET bound)",
    )
    verify.add_argument("--model", required=True)
    verify.add_argument("--format", default="block",
                        choices=SPARSE_FORMATS)
    verify.add_argument("--board", default=STM32F072RB.name,
                        choices=board_names,
                        help="target board profile (see `repro boards`)")

    serve = commands.add_parser(
        "serve-bench",
        help="replay a synthetic open-loop trace over a pool of "
             "simulated devices and report fleet throughput/latency",
    )
    serve.add_argument("--model", required=True)
    serve.add_argument("--format", default="block",
                       choices=SPARSE_FORMATS)
    serve.add_argument("--devices", type=int, default=4)
    serve.add_argument("--requests", type=int, default=1000)
    serve.add_argument("--rate", type=float, default=2000.0,
                       help="offered load, requests per simulated second")
    serve.add_argument("--engine", default="verified",
                       choices=SERVE_ENGINES,
                       help="execution engine for device replicas: the "
                            "reference forward charged the verified WCET "
                            "cycles (default), the basic-block "
                            "translating engine, or the interpreter")
    serve.add_argument("--policy", default="fifo", choices=("fifo", "edf"))
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--batch", type=int, default=4)
    serve.add_argument("--retries", type=int, default=2)
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="relative deadline applied to every request")
    serve.add_argument("--max-queue-wait-ms", type=float, default=50.0,
                       help="shed requests queued longer than this "
                            "(simulated ms); pass a large value to "
                            "disable shedding")
    serve.add_argument("--brownout-rate", type=float, default=0.0,
                       help="per-request brown-out probability on "
                            "faulty devices")
    serve.add_argument("--faulty-devices", type=int, nargs="*",
                       default=None,
                       help="device ids the fault plan applies to "
                            "(default: all)")
    serve.add_argument("--charge-cycles", type=int, default=None,
                       help="run devices on an intermittent power "
                            "budget of this many cycles per charge")
    serve.add_argument("--dataset", default=None,
                       help="draw request inputs from this dataset's "
                            "test split instead of random vectors")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json-out", default=None,
                       help="write the full metrics snapshot here")
    serve.add_argument("--trace", default=None,
                       help="write per-request span tracing as Chrome "
                            "trace-event JSON here (view in Perfetto)")
    serve.add_argument("--trace-request", type=int, default=None,
                       help="print the plain-text span timeline of one "
                            "request id after the replay")

    cluster = commands.add_parser(
        "cluster-bench",
        help="replay an open-loop trace at a multiple of single-fleet "
             "capacity across a sweep of fleet counts and router "
             "policies; verifies cluster invariants and reports "
             "goodput/tail-latency scaling",
    )
    cluster.add_argument("--model", required=True)
    cluster.add_argument("--format", default="block",
                         choices=SPARSE_FORMATS)
    cluster.add_argument("--fleets", type=int, nargs="+",
                         default=[1, 2, 4],
                         help="fleet counts to sweep")
    cluster.add_argument("--policies", nargs="+",
                         default=["hash", "least-queue-wait"],
                         choices=("hash", "least-queue-wait",
                                  "deadline-p2c"),
                         help="router policies to sweep")
    cluster.add_argument("--devices", type=int, default=4,
                         help="devices per fleet")
    cluster.add_argument("--requests", type=int, default=400)
    cluster.add_argument("--load-factor", type=float, default=10.0,
                         help="offered load as a multiple of one "
                              "fleet's ideal capacity (10-100x is the "
                              "overload regime this bench targets)")
    cluster.add_argument("--queue-depth", type=int, default=64)
    cluster.add_argument("--engine", default="verified",
                         choices=SERVE_ENGINES,
                         help="execution engine for every fleet's "
                              "device replicas")
    cluster.add_argument("--dataset", default=None,
                         help="draw request inputs from this dataset's "
                              "test split instead of random vectors")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--json-out", default=None,
                         help="write the scaling sweep JSON here "
                              "(the cluster_scaling.json schema)")

    search = commands.add_parser(
        "search",
        help="staged multi-fidelity architecture search: analytic "
             "screen -> PTQ proxy -> promoted full QAT, emitting a "
             "per-board Pareto frontier artifact the deploy planner "
             "consumes as a model catalog",
    )
    search.add_argument("--dataset", default="digits_like")
    search.add_argument("--n-train", type=int, default=None,
                        help="training rows (default: dataset default)")
    search.add_argument("--n-test", type=int, default=None,
                        help="test rows (default: dataset default)")
    search.add_argument("--boards", nargs="+",
                        default=[STM32F072RB.name], choices=board_names,
                        help="board profiles to search for")
    search.add_argument("--count", type=int, default=24,
                        help="candidates to sample "
                             "(env: REPRO_SEARCH_COUNT)")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--jobs", type=int, default=None,
                        help="worker processes for stage-2/3 units "
                             "(default: $REPRO_JOBS or 1; 0 = all cores)")
    search.add_argument("--stage2-epochs", type=int, default=8,
                        help="short-budget float epochs for the PTQ "
                             "proxy (env: REPRO_SEARCH_STAGE2_EPOCHS)")
    search.add_argument("--epochs", type=int, default=24,
                        help="full QAT epochs for promoted candidates")
    search.add_argument("--lr", type=float, default=0.004)
    search.add_argument("--promote-frac", type=float, default=0.25,
                        help="fraction of proxy-scored candidates "
                             "promoted to full QAT")
    search.add_argument("--slo-latency-ms", type=float, default=None,
                        help="stage-1 screen: drop candidates whose "
                             "analytic latency exceeds this")
    search.add_argument("--slo-flash-kb", type=float, default=None,
                        help="stage-1 screen: drop candidates whose "
                             "analytic flash exceeds this")
    search.add_argument("--flat", action="store_true",
                        help="skip stages 1-2 and fully train every "
                             "candidate (the full-fidelity baseline)")
    search.add_argument("--out", default=None,
                        help="write the frontier artifact JSON here")
    search.add_argument("--timings-out", default=None,
                        help="write the per-unit timing summary JSON "
                             "here")

    prune = commands.add_parser(
        "cache-prune",
        help="list or delete stale result-cache entries by key prefix "
             "or superseded schema version",
    )
    prune.add_argument("--prefix", default="",
                       help="only touch cache keys starting with this "
                            "(e.g. 'search-v1-')")
    prune.add_argument("--stale-schemas", action="store_true",
                       help="only delete entries whose 'name-vN-' "
                            "schema version is superseded by a newer "
                            "one present on disk")
    prune.add_argument("--dry-run", action="store_true",
                       help="print what would be deleted, delete "
                            "nothing")
    prune.add_argument("--list", action="store_true",
                       help="list every scanned entry (implies "
                            "--dry-run)")

    return parser


_HANDLERS = {
    "datasets": _cmd_datasets,
    "zoo": _cmd_zoo,
    "boards": _cmd_boards,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "deploy": _cmd_deploy,
    "encodings": _cmd_encodings,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "cache-prune": _cmd_cache_prune,
    "serve-bench": _cmd_serve_bench,
    "cluster-bench": _cmd_cluster_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
