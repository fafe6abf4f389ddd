"""Command-line entry point: ``python -m repro.harness <experiment>``.

Examples::

    python -m repro.harness table1
    python -m repro.harness fig10 --quick
    python -m repro.harness fig12 --workloads sgemm histo
    python -m repro.harness all --workers 4 --out campaign --resume
    python -m repro.harness trace sgemm --scheme wd-commit --block-switching
    python -m repro.harness chaos saxpy --seed 11
    python -m repro.harness chaos --workloads all --seeds 0 1 2 --workers 4
    python -m repro.harness figures
    python -m repro.harness chaos --workloads all --seeds 0 1 \\
        --out soak --coordinate 8420
    python -m repro.harness worker --coordinator 127.0.0.1:8420
    python -m repro.harness mc --campaign --workers 2
    python -m repro.harness chaos --workloads all --seeds 0 1 --dry-run

Campaign subcommands (``all``/``chaos``/``mc --campaign``)
share one execution tail: ``--dry-run`` prints the cell matrix with
duration estimates, ``--coordinate PORT`` serves the matrix to remote
``worker`` processes over the :mod:`repro.wire` frame protocol
(work-stealing leases, validated checkpoint uploads, byte-identical
merged output — docs/ROBUSTNESS.md),
and the default runs shards on local supervisor threads.

The ``trace`` subcommand runs one workload with telemetry enabled and
writes a Chrome ``trace_event`` JSON (open in chrome://tracing / Perfetto)
plus a hierarchical counter dump — see docs/OBSERVABILITY.md.

The ``chaos`` subcommand runs a seeded fault-injection campaign with the
watchdog and invariant sanitizer enabled — see docs/ROBUSTNESS.md.  It
is a campaign too: ``chaos <workload> --seed N`` is the one-cell soak
``chaos --workloads <workload> --seeds N``.

Experiments run as a campaign of crash-isolated shards (see
:mod:`repro.harness.runner` and :mod:`repro.harness.isolation`): a
crashing, hanging or timed-out shard is retried with backoff when the
failure is transient and reported as a structured failure otherwise,
``--keep-going`` lets the remaining shards complete, ``--workers N``
runs shards in parallel (bit-identical output for any N), ``--out``
checkpoints every finished shard so ``--resume`` skips completed work,
and the harness exits nonzero when any shard failed.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from . import (
    ALL_EXPERIMENTS,
    DEFAULT_TIME_SCALE,
    run_table1,
)
from .diagrams import render_all
from .runner import CampaignRunner, build_all_cells


def _trace_main(argv) -> int:
    """The ``trace`` subcommand: one telemetry-enabled run, two artifacts."""
    from repro.system import PAGING_MODES

    from .tracing import run_traced

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description=(
            "Run one workload with telemetry enabled; writes a Chrome "
            "trace_event JSON and a counter dump (docs/OBSERVABILITY.md)."
        ),
    )
    parser.add_argument("workload", help="benchmark name (e.g. sgemm, lbm)")
    parser.add_argument(
        "--scheme", default="replay-queue",
        help="pipeline scheme (baseline, wd-commit, wd-lastcheck, "
             "replay-queue, operand-log)",
    )
    parser.add_argument(
        "--paging", default="demand",
        choices=list(PAGING_MODES),
        help="paging mode (demand modes actually take faults)",
    )
    parser.add_argument(
        "--interconnect", default="nvlink", choices=["nvlink", "pcie"],
    )
    parser.add_argument("--local-handling", action="store_true",
                        help="use case 2: GPU-local first-touch handling")
    parser.add_argument("--block-switching", action="store_true",
                        help="use case 1: context switch faulted blocks")
    parser.add_argument("--ideal-switch", action="store_true",
                        help="1-cycle context save/restore")
    parser.add_argument("--time-scale", type=float,
                        default=DEFAULT_TIME_SCALE)
    parser.add_argument("--out", default="traces",
                        help="output directory (default: traces/)")
    parser.add_argument("--capacity", type=int, default=1 << 16,
                        help="event ring-buffer capacity")
    parser.add_argument("--sample-interval", type=float, default=1000.0,
                        help="counter sampling period in cycles")
    args = parser.parse_args(argv)

    try:
        run = run_traced(
            args.workload,
            scheme=args.scheme,
            paging=args.paging,
            interconnect=args.interconnect,
            local_handling=args.local_handling,
            block_switching=args.block_switching,
            ideal_switch=args.ideal_switch,
            time_scale=args.time_scale,
            out_dir=args.out,
            capacity=args.capacity,
            sample_interval=args.sample_interval,
        )
    except (KeyError, ValueError) as exc:
        # unknown workload/scheme, bad capacity: argparse-style diagnostics
        parser.error(str(exc).strip('"'))
    print(run.table().render(fmt="{:.0f}"))
    print(f"\nopen {run.paths['trace']} in chrome://tracing or "
          "https://ui.perfetto.dev")
    return 0


def _workers_spec(value: str):
    """``--workers`` values: a positive int or the literal ``auto``
    (resolved from ``os.cpu_count()`` by the runner, logged)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def _add_campaign_flags(parser) -> None:
    """The campaign-runner knobs shared by the experiment and chaos-soak
    paths: parallelism, checkpoint directory, resume, retry policy."""
    parser.add_argument(
        "--workers", type=_workers_spec, default="auto", metavar="N|auto",
        help="parallel shards (output is bit-identical for any N); "
             "'auto' derives the count from os.cpu_count(), clamped "
             "(default: auto)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="campaign directory: per-shard checkpoints, manifest.json "
             "and merged counters.json are written here",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip shards with a valid checkpoint under --out; failed or "
             "stale (config-changed) shards re-run",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per shard for transient failures "
             "(timeout, hang, child crash) before recording the failure",
    )
    parser.add_argument(
        "--adaptive-timeout", action=argparse.BooleanOptionalAction,
        default=True,
        help="derive per-shard wall-clock timeouts from the previous "
             "manifest's durations under --out (4x the known-good "
             "duration, floor 10s, capped at --timeout; timeout retries "
             "double the allowance)",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.5,
        help="base of the exponential retry backoff in seconds",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the cell matrix in canonical (merge) order with "
             "per-cell duration estimates from the timeout history "
             "under --out, then exit without executing anything",
    )
    parser.add_argument(
        "--coordinate", type=int, default=None, metavar="PORT",
        help="instead of running cells locally, serve this campaign to "
             "remote workers on TCP port PORT (0 = ephemeral port), in "
             "the NDJSON frame protocol the serve daemon speaks; "
             "requires --out — the campaign directory is the workers' "
             "checkpoint store (docs/ROBUSTNESS.md); start workers with "
             "'python -m repro.harness worker --coordinator HOST:PORT'",
    )
    parser.add_argument(
        "--bind", default="127.0.0.1", metavar="HOST",
        help="coordinator bind address (default: loopback only; bind a "
             "routable address to accept remote workers — workers fully "
             "trust the coordinator, see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=15.0, metavar="S",
        help="coordinator lease duration: a cell unacknowledged for this "
             "long is re-leased to another worker (workers heartbeat at "
             "a third of it)",
    )


def _campaign_dispatch(args, cells, parser, *, keep_going: bool = True):
    """The shared execution tail of every cell-building subcommand:
    ``--dry-run`` prints the matrix and estimates, ``--coordinate``
    serves the matrix to remote workers (docs/ROBUSTNESS.md), the
    default runs it on the local parallel runner.  Returns an exit code
    (int) for dry-run, else the :class:`CampaignResult`."""
    from .runner import render_dry_run

    if getattr(args, "dry_run", False):
        print(render_dry_run(cells, args.out))
        return 0
    if getattr(args, "coordinate", None) is not None:
        from .dist import CampaignCoordinator

        if args.out is None:
            parser.error(
                "--coordinate requires --out: the campaign directory is "
                "the checkpoint store workers upload into"
            )
        try:
            coordinator = CampaignCoordinator(
                cells,
                out_dir=args.out,
                resume=args.resume,
                timeout=getattr(args, "timeout", None),
                adaptive_timeout=args.adaptive_timeout,
                max_attempts=args.max_attempts,
                backoff_base=args.backoff_base,
                lease_seconds=args.lease_seconds,
                host=args.bind,
                port=args.coordinate,
            )
        except ValueError as exc:
            parser.error(str(exc))
        return coordinator.run()
    try:
        runner = CampaignRunner(
            cells,
            workers=args.workers,
            out_dir=args.out,
            resume=args.resume,
            timeout=getattr(args, "timeout", None),
            adaptive_timeout=args.adaptive_timeout,
            max_attempts=args.max_attempts,
            backoff_base=args.backoff_base,
            keep_going=keep_going,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return runner.run()


def _report_campaign(result, fmt: str = "{:.3f}") -> None:
    """Print a campaign's merged tables (stdout) and failures (stderr)."""
    for group, table in result.tables.items():
        print(table.render(fmt=fmt))
        print(f"  ({result.group_seconds.get(group, 0.0):.1f}s)\n")
    for failure in result.failures:
        print(failure.render(), file=sys.stderr)
        print(file=sys.stderr)
    if result.manifest_path:
        print(f"[campaign] manifest: {result.manifest_path}",
              file=sys.stderr)


def _chaos_soak(args, parser) -> int:
    """Soak mode of the ``chaos`` subcommand: one campaign cell per
    (workload, seed) pair, executed by the parallel runner with
    checkpoints/resume; exits 0 only when every shard completed and every
    chaotic run matched its clean architectural state."""
    from repro.workloads import HALLOC_NAMES, MICRO_NAMES, PARBOIL_NAMES

    from .chaos_campaign import build_chaos_cells

    workloads = list(args.workloads)
    if workloads == ["all"]:
        workloads = list(MICRO_NAMES) + list(PARBOIL_NAMES) + list(
            HALLOC_NAMES
        )
    cells = build_chaos_cells(
        workloads,
        seeds=args.seeds,
        schemes=tuple(args.schemes),
        paging=args.paging,
        interconnect=args.interconnect,
        time_scale=args.time_scale,
        intensity=args.intensity,
        cycle_budget=args.cycle_budget,
        stream_policies=tuple(args.stream_policies),
    )
    result = _campaign_dispatch(args, cells, parser)
    if isinstance(result, int):
        return result
    _report_campaign(result, fmt="{:.1f}")
    table = result.tables.get("chaos")
    clean = table is not None and all(
        row[-1] == 1.0 for row in table.rows.values()
    )
    if not clean:
        print("chaos soak: state mismatch detected", file=sys.stderr)
    if not result.ok:
        print(
            f"chaos soak: {len(result.failures)} shard(s) failed, "
            f"{len(result.not_run)} not run",
            file=sys.stderr,
        )
    return 0 if (result.ok and clean) else 1


def _chaos_main(argv) -> int:
    """The ``chaos`` subcommand: a sharded soak campaign run by the
    parallel campaign runner — one cell per ``--workloads`` x
    ``--seeds`` pair, or the one cell of ``<workload> --seed N``."""
    from repro.system import PAGING_MODES

    from .chaos_campaign import DEFAULT_CAMPAIGN_SCHEMES

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness chaos",
        description=(
            "Run a seeded, deterministic fault-injection campaign: each "
            "scheme runs clean and chaotic with the watchdog + invariant "
            "sanitizer enabled; injection must perturb timing only "
            "(docs/ROBUSTNESS.md). Exits 0 when every scheme's chaotic "
            "run matched the clean architectural state, 1 otherwise."
        ),
    )
    parser.add_argument("workload", nargs="?", default=None,
                        help="benchmark name (e.g. saxpy, sgemm); omit "
                             "when using --workloads")
    parser.add_argument("--seed", type=int, default=0,
                        help="injection RNG seed (same seed => "
                             "bit-identical campaign)")
    parser.add_argument(
        "--workloads", nargs="+", default=None, metavar="NAME",
        help="soak mode: run one shard per (workload, seed) pair through "
             "the parallel campaign runner ('all' = every benchmark)",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0],
        help="soak mode: injection seeds (one shard per workload x seed)",
    )
    parser.add_argument(
        "--stream-policies", nargs="+", default=[], metavar="POLICY",
        choices=["partition", "interleave"],
        help="soak mode: also soak each multi-kernel stream scenario "
             "overlapped under these SM assignment policies (one shard "
             "per scenario x policy x seed)",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=list(DEFAULT_CAMPAIGN_SCHEMES),
        help="pipeline schemes to exercise",
    )
    parser.add_argument(
        "--paging", default="demand",
        choices=list(PAGING_MODES),
        help="paging mode (demand modes actually take faults)",
    )
    parser.add_argument(
        "--interconnect", default="nvlink", choices=["nvlink", "pcie"],
    )
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="scale every hook's firing rate")
    parser.add_argument("--time-scale", type=float,
                        default=DEFAULT_TIME_SCALE)
    parser.add_argument("--cycle-budget", type=float, default=None,
                        help="watchdog no-progress window in cycles")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock timeout in seconds per shard "
                             "(runs crash-isolated)")
    _add_campaign_flags(parser)
    args = parser.parse_args(argv)

    if args.workloads is None:
        if args.workload is None:
            parser.error(
                "a workload (or --workloads for soak mode) is required"
            )
        args.workloads, args.seeds = [args.workload], [args.seed]
    return _chaos_soak(args, parser)


def _streams_main(argv) -> int:
    """The ``streams`` subcommand: serial-vs-overlapped multi-kernel runs
    (docs/CONCURRENCY.md, EXPERIMENTS.md 'Multi-stream contention')."""
    from repro.workloads import STREAM_SCENARIO_NAMES

    from .streams import run_streams

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness streams",
        description=(
            "Run each multi-kernel stream scenario twice — kernels "
            "launched serially, then overlapped on one stream each — and "
            "print the serial-sum vs overlapped-makespan table.  The "
            "overlapped run is replayed to prove bit-reproducibility "
            "unless --no-verify-repro."
        ),
    )
    parser.add_argument(
        "scenarios", nargs="*", default=None,
        metavar="SCENARIO",
        help=f"scenario names (default: all of "
             f"{list(STREAM_SCENARIO_NAMES)})",
    )
    parser.add_argument(
        "--scheme", default="replay-queue",
        help="pipeline scheme (must be preemptible for --block-switching)",
    )
    parser.add_argument(
        "--interconnect", default="nvlink", choices=["nvlink", "pcie"],
    )
    parser.add_argument(
        "--policy", default="partition", choices=["partition", "interleave"],
        help="SM-to-stream assignment policy",
    )
    parser.add_argument("--block-switching", action="store_true",
                        help="use case 1: context switch faulted blocks "
                             "(switch-ins may come from another kernel)")
    parser.add_argument("--time-scale", type=float,
                        default=DEFAULT_TIME_SCALE)
    parser.add_argument(
        "--no-verify-repro", action="store_true",
        help="skip the determinism replay of the overlapped run",
    )
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the table as JSON")
    args = parser.parse_args(argv)

    try:
        table = run_streams(
            scenarios=args.scenarios or None,
            scheme=args.scheme,
            interconnect=args.interconnect,
            time_scale=args.time_scale,
            policy=args.policy,
            block_switching=args.block_switching,
            verify_reproducible=not args.no_verify_repro,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc).strip('"'))
    print(table.render(fmt="{:.1f}", label_width=26))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(table.to_dict(), fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _golden_main(argv) -> int:
    """The ``golden`` subcommand: regenerate or verify the bit-identity
    digest fixture (tests/golden_digests.json, docs/PERFORMANCE.md)."""
    from . import golden

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness golden",
        description=(
            "Verify (default) or regenerate the golden end-state digest "
            "fixture that pins the timing simulator's bit-identity "
            "contract.  Regenerate only when an intentional model change "
            "lands — never to make a performance PR pass."
        ),
    )
    parser.add_argument("--update", action="store_true",
                        help="recompute every digest and rewrite the fixture")
    parser.add_argument("--fast", action="store_true",
                        help="restrict to the fast subset tier-1 runs")
    parser.add_argument("--fixture", default=None,
                        help=f"fixture path (default: {golden.fixture_path()})")
    args = parser.parse_args(argv)

    if args.update:
        fixture = golden.generate(full=not args.fast)
        path = golden.save_fixture(fixture, args.fixture)
        print(f"wrote {len(fixture['cases'])} case digests to {path}")
        return 0
    fixture = golden.load_fixture(args.fixture)
    problems = golden.verify(fixture, full=not args.fast)
    for p in problems:
        print(p, file=sys.stderr)
    scope = "fast subset" if args.fast else "full matrix"
    if problems:
        print(f"golden: {len(problems)} mismatch(es) in the {scope}",
              file=sys.stderr)
        return 1
    print(f"golden: {scope} bit-identical to the committed fixture")
    return 0


def _parse_tenant_spec(value: str):
    """``--tenant`` values: ``NAME[:WEIGHT[:PRIORITY]]``."""
    parts = value.split(":")
    if not parts[0] or len(parts) > 3:
        raise argparse.ArgumentTypeError(
            f"expected NAME[:WEIGHT[:PRIORITY]], got {value!r}"
        )
    try:
        weight = int(parts[1]) if len(parts) > 1 else 1
        priority = int(parts[2]) if len(parts) > 2 else 0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"WEIGHT and PRIORITY must be integers in {value!r}"
        )
    return parts[0], weight, priority


def _serve_smoke() -> int:
    """The ``serve --smoke`` self-test: daemon on a temp unix socket
    with the daemon's default forked execution, one client registers a
    tenant, runs one workload under two schemes over the wire (the
    second run decodes the trace the first one handed back —
    docs/SERVING.md "Trace hand-off"), reads stats, drains the daemon.
    Exit 0 iff all of it worked (the CI serve-wire-smoke step)."""
    import tempfile

    from repro.serve import GpuService, ServeClient, ServeDaemon

    def spec(scheme):
        return {"workload": "saxpy", "scheme": scheme, "time_scale": 2.0,
                "seed": 0}

    schemes = ("replay-queue", "operand-log")
    with tempfile.TemporaryDirectory() as tmp:
        service = GpuService(gpu_slots=2)
        daemon = ServeDaemon(service, path=f"{tmp}/serve.sock")
        with daemon:
            with ServeClient(daemon.address) as client:
                client.ping()
                client.register("smoke", weight=2, max_streams=2)
                results = [client.request("smoke", spec(schemes[0]),
                                          wait=60.0)]
                held = service.held_traces
                results.append(client.request("smoke", spec(schemes[1]),
                                              wait=60.0))
                stats = client.stats()
        for result in results:
            if not result["ok"]:
                print(f"serve smoke: kernel failed: {result['failure']}",
                      file=sys.stderr)
                return 1
        if held != ["saxpy"]:
            print("serve smoke: the first run handed back no trace",
                  file=sys.stderr)
            return 1
        wire = stats["wire"]
        cycles = ", ".join(
            f"{scheme}={result['value'].get('cycles', 0):.0f}"
            for scheme, result in zip(schemes, results)
        )
        print(
            f"serve smoke: ok — {len(results)} forked kernels over the "
            f"wire, the second from the held trace (cycles {cycles}, "
            f"frames_in={wire['frames_in']:.0f}, "
            f"frames_out={wire['frames_out']:.0f}), clean drain"
        )
        return 0


def _serve_main(argv) -> int:
    """The ``serve`` subcommand: run the NDJSON wire daemon over the
    multi-tenant service (docs/SERVING.md), or the ``--smoke``
    self-test."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description=(
            "Serve the multi-tenant GPU service over a unix socket or "
            "loopback TCP (newline-delimited JSON frames).  Clients "
            "connect with repro.serve.ServeClient; tenants may be "
            "pre-registered here or via the wire 'register' op.  See "
            "docs/SERVING.md for the protocol and a walkthrough."
        ),
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on this unix socket path")
    group.add_argument("--port", type=int, metavar="N", default=None,
                       help="serve on loopback TCP (0 = ephemeral port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: loopback only)")
    parser.add_argument(
        "--tenant", action="append", type=_parse_tenant_spec, default=[],
        metavar="NAME[:WEIGHT[:PRIORITY]]",
        help="pre-register a tenant (repeatable); weight defaults to 1, "
             "priority to 0",
    )
    parser.add_argument("--max-streams", type=int, default=2,
                        help="per-tenant concurrent stream slots")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="per-tenant admitted wait-queue bound")
    parser.add_argument(
        "--gpu-slots", type=int, default=None, metavar="N",
        help="shared GPU pool size; grants go in weighted-fair "
             "(DRR + priority) order (default: unbounded)",
    )
    parser.add_argument(
        "--no-isolated", action="store_true",
        help="execute kernels in-process instead of forked children "
             "(faster, no timeout enforcement — tests/smoke only)",
    )
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-kernel wall-clock timeout (isolated "
                             "execution only)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test: temp unix-socket daemon with forked "
             "execution + one client running two kernels, then exit "
             "(CI serve-wire-smoke)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return _serve_smoke()
    if (args.socket is None) == (args.port is None):
        parser.error("exactly one of --socket PATH or --port N is "
                     "required (or --smoke)")

    from repro.serve import (
        GpuService, ServeDaemon, TenantPolicy,
    )

    service = GpuService(
        isolated=not args.no_isolated,
        timeout=args.timeout,
        gpu_slots=args.gpu_slots,
    )
    for name, weight, priority in args.tenant:
        service.register_tenant(name, TenantPolicy(
            max_streams=args.max_streams,
            max_queue_depth=args.queue_depth,
            weight=weight,
            priority=priority,
        ))
    if args.socket is not None:
        daemon = ServeDaemon(service, path=args.socket)
    else:
        daemon = ServeDaemon(service, host=args.host, port=args.port)
    daemon.start()
    addr = daemon.address
    shown = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    tenants = ", ".join(t[0] for t in args.tenant) or "none (register "\
        "via the wire 'register' op)"
    print(f"serving on {shown} — tenants: {tenants}", flush=True)
    print("Ctrl-C (or the wire 'shutdown' op) drains and exits",
          flush=True)
    try:
        daemon.join()
    except KeyboardInterrupt:
        print("\ndraining...", flush=True)
        daemon.shutdown(drain=True)
    return 0


def _worker_main(argv) -> int:
    """The ``worker`` subcommand: join a coordinator's campaign as N
    remote supervisors (docs/ROBUSTNESS.md).  Exits 0 when the matrix
    completed, 3 when the coordinator became unreachable (in-flight
    cells are cancelled, nothing is left half-written), 2 when it
    refused the handshake (a protocol version mismatch) or answered it
    with something that is not a frame."""
    from .dist import DistWorker

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness worker",
        description=(
            "Work a distributed campaign: lease cells from the "
            "coordinator, run them through the standard crash-isolated "
            "retry loop, upload validated checkpoints.  The worker "
            "imports and executes the callables the coordinator names — "
            "only point it at coordinators you trust "
            "(docs/ROBUSTNESS.md)."
        ),
    )
    parser.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT",
        help="where the coordinator serves (e.g. 127.0.0.1:8420, the "
             "host and the PORT given to --coordinate)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="supervisor threads (each babysits one crash-isolated "
             "child at a time, exactly like the local runner)",
    )
    parser.add_argument(
        "--name", default=None,
        help="worker identity in leases/logs (default: host-pid)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="S",
        help="idle back-off between lease attempts when every cell is "
             "leased elsewhere",
    )
    args = parser.parse_args(argv)
    try:
        worker = DistWorker(
            args.coordinator,
            workers=args.workers,
            name=args.name,
            poll_interval=args.poll_interval,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return worker.run()


def _mc_main(argv) -> int:
    """The ``mc`` subcommand: bounded model checking of stream/fault
    schedules (docs/MODELCHECK.md).  Explores each scenario's choice-trace
    space within budget, verifying every interleaving with the invariant
    sanitizer and cross-checking the functional/architectural digests."""
    from repro.mc import (
        DEFAULT_MC_SCENARIOS,
        MC_SCENARIOS,
        get_mc_scenario,
        replay_trace,
        run_mc_scenario,
    )
    from repro.mc.scenarios import MC_CYCLE_BUDGET
    from repro.telemetry import CounterRegistry

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness mc",
        description=(
            "Bounded model checking of stream/fault schedules: enumerate "
            "the simulator's schedule decision points (steal order, fault "
            "service order, chaos injection) DFS-style under budgets, "
            "verify every interleaving with the invariant sanitizer, and "
            "cross-check functional/architectural digests "
            "(docs/MODELCHECK.md).  Exits 0 when every scenario met its "
            "expectation: all interleavings clean with consistent digests "
            "— or, for a negative-control scenario, a counterexample "
            "found."
        ),
    )
    parser.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help=f"mc scenarios (default: {list(DEFAULT_MC_SCENARIOS)}; "
             f"known: {sorted(MC_SCENARIOS)})",
    )
    parser.add_argument("--max-executions", type=int, default=64,
                        help="executions explored per scenario")
    parser.add_argument("--max-depth", type=int, default=48,
                        help="deepest decision point branched from")
    parser.add_argument("--max-branch", type=int, default=3,
                        help="alternatives tried per decision point")
    parser.add_argument("--scheme", default="replay-queue",
                        help="pipeline scheme the executions run under")
    parser.add_argument(
        "--policy", default="partition", choices=["partition", "interleave"],
        help="SM-to-stream assignment policy",
    )
    parser.add_argument("--time-scale", type=float, default=DEFAULT_TIME_SCALE)
    parser.add_argument("--cycle-budget", type=float,
                        default=MC_CYCLE_BUDGET,
                        help="watchdog no-progress window per execution")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the full exploration reports as JSON")
    parser.add_argument(
        "--replay", default=None, metavar="TRACE",
        help="replay one comma-separated choice trace (e.g. '0,0,1') "
             "instead of exploring; requires exactly one scenario; exits "
             "0 iff the replayed execution is clean",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="run the scenarios as campaign cells (one shard per "
             "scenario) through the parallel runner: checkpoints, "
             "--resume, --workers, --dry-run and --coordinate all apply",
    )
    parser.add_argument("--timeout", type=float, default=None,
                        help="campaign mode: wall-clock timeout in "
                             "seconds per scenario cell")
    _add_campaign_flags(parser)
    args = parser.parse_args(argv)

    names = list(args.scenarios) or list(DEFAULT_MC_SCENARIOS)
    for name in names:
        if name not in MC_SCENARIOS:
            parser.error(f"unknown mc scenario {name!r}; "
                         f"known: {sorted(MC_SCENARIOS)}")

    if args.campaign:
        from repro.mc.cells import build_mc_cells

        cells = build_mc_cells(
            names,
            max_executions=args.max_executions,
            max_depth=args.max_depth,
            max_branch=args.max_branch,
            scheme=args.scheme,
            policy=args.policy,
            time_scale=args.time_scale,
            cycle_budget=args.cycle_budget,
        )
        result = _campaign_dispatch(args, cells, parser)
        if isinstance(result, int):
            return result
        _report_campaign(result, fmt="{:.0f}")
        table = result.tables.get("mc")
        met = table is not None and all(
            row[-1] == 1.0 for row in table.rows.values()
        )
        if not met:
            print("mc campaign: scenario expectation not met",
                  file=sys.stderr)
        return 0 if (result.ok and met) else 1

    if args.replay is not None:
        if len(names) != 1:
            parser.error("--replay requires exactly one scenario")
        try:
            trace = tuple(
                int(tok) for tok in args.replay.split(",") if tok.strip()
            )
        except ValueError:
            parser.error(f"--replay expects comma-separated ints, got "
                         f"{args.replay!r}")
        execution = replay_trace(
            names[0], trace, scheme=args.scheme, policy=args.policy,
            time_scale=args.time_scale, cycle_budget=args.cycle_budget,
        )
        print(f"mc:{names[0]} replay of {len(trace)} forced choice(s): "
              f"verdict={execution.verdict}")
        if execution.error:
            print(f"  error: {execution.error}")
        for point in execution.points:
            print(f"  {point.describe()}")
        return 0 if execution.clean else 1

    counters = CounterRegistry()
    reports = {}
    ok = True
    for name in names:
        report = run_mc_scenario(
            name,
            max_executions=args.max_executions,
            max_depth=args.max_depth,
            max_branch=args.max_branch,
            scheme=args.scheme,
            policy=args.policy,
            time_scale=args.time_scale,
            cycle_budget=args.cycle_budget,
            counters=counters,
        )
        reports[name] = report
        print(report.summary())
        scenario = get_mc_scenario(name)
        if scenario.expect_counterexample:
            passed = bool(report.counterexamples)
            if not passed:
                print("  FAIL: negative control found no counterexample",
                      file=sys.stderr)
            else:
                cx = report.counterexamples[0]
                print(f"  counterexample (minimized, {len(cx.minimized)} "
                      f"choice(s), {cx.replays} replay(s)): "
                      f"{','.join(map(str, cx.minimized))}")
        else:
            passed = report.all_clean and report.digest_consistent()
            if not passed:
                print("  FAIL: non-clean interleaving or digest divergence",
                      file=sys.stderr)
        ok = ok and passed
        print()
    print("mc counters:")
    for path, value in sorted(counters.snapshot().items()):
        print(f"  {path} = {value:.0f}")
    if args.json:
        import json

        payload = {
            "scenarios": {n: r.to_dict() for n, r in reports.items()},
            "counters": counters.snapshot(),
            "budgets": {
                "max_executions": args.max_executions,
                "max_depth": args.max_depth,
                "max_branch": args.max_branch,
            },
            "ok": ok,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if ok else 1


#: every dispatchable subcommand and its handler, ``main(argv)`` of the
#: rest of the command line; a string names the module (relative to
#: this package) whose ``main`` is imported on use.
#: tools/check_doc_links.py parses the keys (textually, no import) to
#: reject docs naming unknown subcommands.
SUBCOMMANDS = {
    "trace": _trace_main,
    "chaos": _chaos_main,
    "golden": _golden_main,
    "streams": _streams_main,
    "hotloop": ".hotloop_bench",
    "figures": ".figures",
    "serve": _serve_main,
    "serve-bench": ".serve_bench",
    "mc": _mc_main,
    "worker": _worker_main,
    "dist-bench": ".dist_bench",
}


def main(argv=None) -> int:
    """Dispatch to a subcommand of :data:`SUBCOMMANDS` or an experiment
    runner; returns the process exit code (nonzero when any experiment
    failed)."""
    if argv is None:
        argv = sys.argv[1:]
    handler = SUBCOMMANDS.get(argv[0]) if argv else None
    if isinstance(handler, str):
        handler = importlib.import_module(handler, __package__).main
    if handler is not None:
        return handler(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
        epilog="See also: python -m repro.harness trace <workload> "
               "(telemetry-enabled run; writes Chrome trace + counters) "
               "and python -m repro.harness chaos <workload> "
               "(seeded fault-injection campaign; docs/ROBUSTNESS.md).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["table1", "diagrams", "all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="representative benchmark subset instead of the full suite",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None,
        help="explicit benchmark names (overrides --quick)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock timeout in seconds per experiment (a timed-out "
             "experiment is terminated and reported as a failure)",
    )
    parser.add_argument(
        "--keep-going", action=argparse.BooleanOptionalAction, default=None,
        help="continue past a failed experiment and report all failures "
             "at the end (default: on for 'all', off for a single "
             "experiment); the exit code is nonzero if any experiment "
             "failed either way",
    )
    _add_campaign_flags(parser)
    args = parser.parse_args(argv)

    if args.experiment == "table1":
        print(run_table1())
        return 0
    if args.experiment == "diagrams":
        print(render_all())
        return 0

    names = (
        sorted(ALL_EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    keep_going = (
        args.keep_going
        if args.keep_going is not None
        else args.experiment == "all"
    )
    cells = build_all_cells(
        {name: ALL_EXPERIMENTS[name] for name in names},
        quick=args.quick,
        workloads=args.workloads,
    )
    result = _campaign_dispatch(args, cells, parser, keep_going=keep_going)
    if isinstance(result, int):
        return result
    _report_campaign(result)
    if result.failures:
        done = None
        if keep_going:
            groups = {cell.group for cell in cells}
            done = len(groups) - len(result.failed_groups)
        summary = ", ".join(f.name for f in result.failures)
        print(
            f"{len(result.failures)} experiment(s) failed: {summary}"
            + (f" ({done} completed)" if done is not None else ""),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
