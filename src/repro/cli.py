"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``classify "<query>"``
    Run the dichotomy decision procedure and print the verdict with the
    full structural explanation (triads, domination, patterns).

``solve "<query>" <database.json>``
    Compute resilience over a database given as JSON
    ``{"relations": {"R": {"arity": 2, "exogenous": false,
    "tuples": [[1,2], ...]}}}`` and print the value, a minimum
    contingency set, and the algorithm used.  When some witness uses
    only exogenous tuples no contingency set exists: the command prints
    one ``repro: error: ...`` line to stderr and exits 2.

``zoo``
    List every named query from the paper with its paper verdict and
    the classifier's verdict.

``ijp "<query>"``
    Search for an Independent Join Path (Appendix C.2) within a small
    budget and report the endpoints if found.

``ijp sweep``
    Run the standing open-conjecture sweep (``docs/ijp.md``): shard the
    partition spaces of the paper's OPEN queries (``--queries`` picks
    others, ``--random N`` adds seeded three-occurrence samples) across
    ``--workers`` processes, print the open-query table, and — with
    ``--cache-dir`` — checkpoint every completed shard so an
    interrupted sweep resumes without re-enumerating (``--no-resume``
    forces a recompute).  ``--json OUT`` writes the full report.

``bench``
    Solve a randomized workload through :func:`repro.core.solve_batch`
    and report per-stage timings (enumerate / reduce / solve) plus the
    witness-preprocessing reduction statistics; ``--compare`` also
    times naive per-pair solving and prints the batch speedup.
    ``--mode approx`` / ``--mode anytime`` run the certified bounded
    tier instead of exact solving (``--budget-seconds`` /
    ``--budget-nodes`` cap the anytime refinement), and ``--scale N``
    swaps the workload for the thousands-of-tuples NP-hard scaling
    workload that exact solving cannot touch.  ``--workers N`` solves
    the batch on a process pool with deterministic sharding, and
    ``--cache-dir PATH`` persists results on disk so reruns skip solved
    instances (see ``docs/parallelism.md``).  ``--weighted`` assigns
    skewed per-tuple deletion costs and solves the min-cost weighted
    objective (see ``docs/solvers.md``).  ``--updates N`` switches
    to the dynamic workload: a randomized N-op insert/delete stream
    solved through an :class:`repro.incremental.IncrementalSession`
    after every update (``--compare`` then times naive per-update
    recomputation and checks equality; see ``docs/incremental.md``).

``serve``
    Run the resilience HTTP daemon (``POST /solve`` / ``/solve_batch``,
    ``GET /health`` / ``/metrics``) with request coalescing, admission
    control, and optional on-disk result caching; ``--check`` binds,
    probes ``/health``, and exits (the CI smoke path).  See
    ``docs/serving.md``.

``planner explain "<query>" <database.json>``
    Print the features the cost-based planner extracts from the
    instance, the plan it would run, and the model that priced it
    (see ``docs/planner.md``).

``planner calibrate [records...]``
    Fit a planner cost model offline from committed ``BENCH_*.json``
    trajectory records (default: the checked-in E18/E19/E20 records)
    and print it, or write it with ``--json OUT`` for use via
    ``REPRO_PLANNER_MODEL``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.core.analyzer import ResilienceAnalyzer, solve_batch
from repro.db.database import Database
from repro.ijp.search import ijp_search
from repro.query.parser import parse_query
from repro.query.zoo import ALL_QUERIES, PAPER_VERDICTS
from repro.structure.classifier import classify
from repro.witness import UnbreakableQueryError


def load_database(path: str) -> Database:
    """Load a database from the JSON schema documented in the module.

    The file format is exactly the serving tier's wire form, so a
    database file works unchanged as the ``"database"`` field of a
    ``POST /solve`` payload (and vice versa).
    """
    from repro.serving.wire import database_from_spec

    with open(path) as handle:
        spec = json.load(handle)
    return database_from_spec(spec)


def cmd_classify(args) -> int:
    analyzer = ResilienceAnalyzer(args.query)
    print(analyzer.explain())
    return 0


def cmd_solve(args) -> int:
    query = parse_query(args.query)
    db = load_database(args.database)
    analyzer = ResilienceAnalyzer(query)
    try:
        result = analyzer.solve(db)
    except UnbreakableQueryError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(f"rho = {result.value}")
    print(f"contingency set: {sorted(result.contingency_set)}")
    print(f"method: {result.method}")
    return 0


def cmd_zoo(args) -> int:
    short = {"P": "P", "NP-complete": "NPC", "OPEN": "OPEN"}
    print(f"{'query':20s} {'paper':6s} {'classifier':11s} rule")
    for name in sorted(ALL_QUERIES):
        res = classify(ALL_QUERIES[name])
        paper = PAPER_VERDICTS.get(name, "-")
        print(f"{name:20s} {paper:6s} {short[res.verdict.value]:11s} {res.rule}")
    return 0


def cmd_ijp(args) -> int:
    if args.query == "sweep":
        return _cmd_ijp_sweep(args)
    query = parse_query(args.query)
    report = ijp_search(
        query,
        max_joins=args.max_joins,
        partition_budget=20000 if args.budget is None else args.budget,
    )
    if report is None:
        print("no IJP found within the budget "
              "(not a proof of impossibility — Conjecture 49's converse is open)")
        return 1
    print(f"IJP found: endpoints {report.pair[0]} / {report.pair[1]}")
    print(f"resilience of the gadget: {report.resilience}")
    for reason in report.reasons:
        print(f"  {reason}")
    return 0


def _cmd_ijp_sweep(args) -> int:
    """``repro ijp sweep``: the standing distributed certificate sweep."""
    import random

    from repro.ijp.sweep import OPEN_QUERIES, sweep
    from repro.workloads.random_queries import random_three_occurrence_cq

    if args.queries is None:
        names = list(OPEN_QUERIES)
    else:
        names = [n.strip() for n in args.queries.split(",") if n.strip()]
        unknown = [n for n in names if n not in ALL_QUERIES]
        if unknown:
            print(f"unknown zoo queries: {', '.join(unknown)}", file=sys.stderr)
            return 2
    population = [(name, ALL_QUERIES[name]) for name in names]
    rng = random.Random(args.seed)
    for i in range(args.random):
        population.append(
            (f"rand_3occ_{args.seed}_{i}", random_three_occurrence_cq(rng=rng))
        )
    report = sweep(
        population,
        copies=args.copies,
        budget=args.budget,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=not args.no_resume,
    )
    print(report.render())
    print(
        f"{len(report.sweeps)} ranges, {report.shards_resumed} shards "
        f"resumed, {report.workers} workers, {report.seconds:.1f}s"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


# Queries sharing one vocabulary (A, C unary; R binary) so a single
# random database serves the whole set.  q_vc is excluded: it uses a
# unary R, clashing with the binary R here.
DEFAULT_BENCH_QUERIES = (
    "q_chain,q_sj1_rats,q_perm,q_Aperm,q_ACconf,q_z3,q_conf,q_a_chain"
)


def _warm_imports() -> None:
    """Pay one-time library import costs (HiGHS, networkx, csgraph)
    before timing anything, so whichever strategy runs first is not
    penalized."""
    import networkx  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401


def _engine_backends() -> dict:
    """The engine backend selection in effect (for ``--json`` records)."""
    from repro.query.columnar import join_backend
    from repro.resilience.flownet import flow_backend
    from repro.witness.structure import _kernel_backend

    return {
        "join": join_backend(),
        "kernel": _kernel_backend(),
        "flow": flow_backend(),
    }


def _stats_payload(stats) -> dict:
    """A :class:`~repro.core.analyzer.BatchStats` as plain JSON data."""
    r = stats.reductions
    return {
        "pairs": stats.pairs,
        "unique_pairs": stats.unique_pairs,
        "mode": stats.mode,
        "methods": dict(sorted(stats.methods.items())),
        "plans": dict(sorted(stats.plans.items())),
        "structures": stats.structures,
        "time_total": stats.time_total,
        "workers": stats.workers,
        "shards": stats.shards,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "intervals_exact": stats.intervals_exact,
        "gap_total": stats.gap_total,
        "reductions": {
            "witnesses_raw": r.witnesses_raw,
            "witnesses_distinct": r.witnesses_distinct,
            "witnesses_minimal": r.witnesses_minimal,
            "witnesses_final": r.witnesses_final,
            "tuples_raw": r.tuples_raw,
            "tuples_final": r.tuples_final,
            "forced_tuples": r.forced_tuples,
            "dominated_tuples": r.dominated_tuples,
            "components": r.components,
            "rounds": r.rounds,
            "time_enumerate": r.time_enumerate,
            "time_reduce": r.time_reduce,
        },
    }


def _write_bench_json(path: str, payload: dict) -> None:
    """Write one machine-readable benchmark record (the ``BENCH_*.json``
    trajectory format; see ``docs/performance.md``)."""
    import repro
    from repro.query.columnar import backend_counters

    record = {
        "schema": 1,
        "bench": "repro-bench-cli",
        "version": repro.__version__,
        "backends": _engine_backends(),
        "join_backend_counters": backend_counters(),
    }
    record.update(payload)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def cmd_bench(args) -> int:
    """Randomized batch-solving benchmark with reduction statistics."""
    from repro.resilience.solver import dispatch_plan, solve
    from repro.resilience.types import Budget
    from repro.witness import clear_witness_cache
    from repro.workloads import (
        HARD_SCALING_QUERIES,
        assign_skewed_costs,
        hard_scaling_workload,
        random_database_for_queries,
        weighted_hard_scaling_workload,
    )

    budget = Budget(
        time_limit=args.budget_seconds, node_limit=args.budget_nodes
    )
    if args.compare and args.mode != "exact":
        print("--compare only applies to --mode exact", file=sys.stderr)
        return 2
    if not budget.unlimited and args.mode != "anytime":
        print(
            "--budget-seconds/--budget-nodes only apply to --mode anytime",
            file=sys.stderr,
        )
        return 2
    if args.updates is not None:
        if args.scale:
            print("--updates and --scale are mutually exclusive", file=sys.stderr)
            return 2
        if args.repeat is not None:
            print("--repeat does not apply to --updates", file=sys.stderr)
            return 2
        if args.weighted:
            print("--weighted does not apply to --updates", file=sys.stderr)
            return 2
        return _bench_updates(args, budget)
    if args.scale:
        if args.mode == "exact":
            print(
                "--scale generates instances exact solving cannot touch; "
                "use --mode approx or --mode anytime",
                file=sys.stderr,
            )
            return 2
        if args.mode == "anytime" and budget.unlimited:
            # An unlimited anytime search IS an exact solve — the very
            # thing --scale instances are built to defeat.
            print(
                "--mode anytime --scale needs --budget-seconds or "
                "--budget-nodes (an unlimited budget is an exact solve)",
                file=sys.stderr,
            )
            return 2
        ignored = [
            flag
            for flag, value in (
                ("--queries", args.queries),
                ("--domain-size", args.domain_size),
                ("--density", args.density),
                ("--repeat", args.repeat),
            )
            if value is not None
        ]
        if ignored:
            print(
                f"--scale uses its own fixed NP-hard workload; "
                f"not compatible with {', '.join(ignored)}",
                file=sys.stderr,
            )
            return 2
        if args.weighted:
            pairs = weighted_hard_scaling_workload(
                n_tuples=args.scale, n_databases=args.databases, seed=args.seed
            )
        else:
            pairs = hard_scaling_workload(
                n_tuples=args.scale, n_databases=args.databases, seed=args.seed
            )
        print(
            f"workload: {len(HARD_SCALING_QUERIES)} NP-hard queries x "
            f"{args.databases} shared databases of ~{args.scale} tuples per "
            f"binary relation = {len(pairs)} pairs (seed {args.seed}"
            f"{', skewed costs' if args.weighted else ''})"
        )
    else:
        queries_spec = (
            args.queries if args.queries is not None else DEFAULT_BENCH_QUERIES
        )
        domain_size = args.domain_size if args.domain_size is not None else 5
        density = args.density if args.density is not None else 0.4
        repeat = args.repeat if args.repeat is not None else 2
        names = [n.strip() for n in queries_spec.split(",") if n.strip()]
        unknown = [n for n in names if n not in ALL_QUERIES]
        if unknown:
            print(f"unknown zoo queries: {', '.join(unknown)}", file=sys.stderr)
            return 2
        queries = [ALL_QUERIES[n] for n in names]
        # The cross product query x database: every database is shared by
        # all queries, which is the workload shape batch solving amortizes.
        try:
            dbs = [
                random_database_for_queries(
                    queries,
                    domain_size=domain_size,
                    density=density,
                    seed=args.seed + i,
                )
                for i in range(args.databases)
            ]
        except ValueError as exc:
            # e.g. q_chain (binary R) mixed with q_vc (unary R)
            print(f"incompatible query set: {exc}", file=sys.stderr)
            return 2
        if args.weighted:
            for i, db in enumerate(dbs):
                assign_skewed_costs(db, seed=args.seed + 7919 * (i + 1))
        pairs = [(db, q) for db in dbs for q in queries] * repeat
        print(
            f"workload: {len(queries)} queries x {len(dbs)} shared databases "
            f"x {repeat} repeats = {len(pairs)} pairs "
            f"(domain {domain_size}, density {density}, seed {args.seed}"
            f"{', skewed costs' if args.weighted else ''})"
        )

    _warm_imports()

    planner = None if args.planner is None else (args.planner == "on")
    clear_witness_cache()
    dispatch_plan.cache_clear()
    batch = solve_batch(
        pairs,
        mode=args.mode,
        budget=budget,
        workers=args.workers,
        cache_dir=args.cache_dir,
        weighted=args.weighted,
        planner=planner,
    )
    for line in batch.stats.summary_lines():
        print(line)
    if args.json:
        _write_bench_json(
            args.json,
            {
                "command": "bench",
                "workload": {
                    "kind": "scale" if args.scale else "static",
                    "pairs": len(pairs),
                    "databases": args.databases,
                    "seed": args.seed,
                    "scale": args.scale,
                    "weighted": bool(args.weighted),
                    "planner": args.planner,
                },
                "stats": _stats_payload(batch.stats),
                "values": batch.values(),
            },
        )

    if args.compare:
        # Fresh caches so the per-pair loop pays the same cold costs the
        # batch just paid.
        clear_witness_cache()
        dispatch_plan.cache_clear()
        t0 = time.perf_counter()
        singles = [solve(db, q, weighted=args.weighted) for db, q in pairs]
        t_single = time.perf_counter() - t0
        if [r.value for r in singles] != batch.values():
            print("MISMATCH between batch and per-pair values!", file=sys.stderr)
            return 1
        speedup = t_single / batch.stats.time_total if batch.stats.time_total else 0
        print(
            f"per-pair solve: {t_single:.3f}s -> batch speedup {speedup:.2f}x"
        )
    return 0


def _bench_updates(args, budget) -> int:
    """The ``repro bench --updates N`` dynamic-workload benchmark.

    Generates a reproducible N-op insert/delete stream over the query
    set, solves every query after every update through an
    :class:`~repro.incremental.IncrementalSession`, and (with
    ``--compare``) times naive per-update recomputation and verifies
    the values agree op by op.
    """
    from repro.incremental import IncrementalSession
    from repro.resilience.solver import dispatch_plan, solve
    from repro.witness import clear_witness_cache
    from repro.workloads import apply_update, update_stream

    queries_spec = (
        args.queries if args.queries is not None else DEFAULT_BENCH_QUERIES
    )
    names = [n.strip() for n in queries_spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in ALL_QUERIES]
    if unknown:
        print(f"unknown zoo queries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    queries = [ALL_QUERIES[n] for n in names]
    domain_size = args.domain_size if args.domain_size is not None else 5
    density = args.density if args.density is not None else 0.4
    try:
        db, stream = update_stream(
            queries,
            n_ops=args.updates,
            seed=args.seed,
            domain_size=domain_size,
            density=density,
        )
    except ValueError as exc:
        print(f"incompatible query set: {exc}", file=sys.stderr)
        return 2
    print(
        f"workload: {args.updates}-op update stream over {len(queries)} "
        f"queries, initial n={len(db)} (domain {domain_size}, "
        f"density {density}, seed {args.seed})"
    )

    _warm_imports()

    solve_budget = budget if args.mode == "anytime" else None
    session = IncrementalSession(
        db, queries, cache_dir=args.cache_dir, workers=args.workers
    )
    t0 = time.perf_counter()
    per_op_values: List[List[int]] = []
    for update in stream:
        session.apply([update])
        results = session.solve_all(mode=args.mode, budget=solve_budget)
        per_op_values.append([r.value for r in results])
    t_incremental = time.perf_counter() - t0
    rate = len(stream) / t_incremental if t_incremental else float("inf")
    print(
        f"incremental: {len(stream)} updates x {len(queries)} queries in "
        f"{t_incremental:.3f}s ({rate:.0f} updates/s, mode {args.mode})"
    )
    for line in session.stats.summary_lines():
        print(line)
    if args.json:
        _write_bench_json(
            args.json,
            {
                "command": "bench --updates",
                "workload": {
                    "kind": "updates",
                    "updates": args.updates,
                    "queries": len(queries),
                    "seed": args.seed,
                },
                "mode": args.mode,
                "incremental_seconds": t_incremental,
                "updates_per_second": rate if t_incremental else None,
            },
        )

    if args.compare:
        shadow = db.copy()
        clear_witness_cache()
        dispatch_plan.cache_clear()
        t0 = time.perf_counter()
        for i, update in enumerate(stream):
            apply_update(shadow, update)
            values = [solve(shadow, q).value for q in queries]
            if values != per_op_values[i]:
                print(
                    f"MISMATCH at op {i} ({update!r}): incremental "
                    f"{per_op_values[i]} vs recompute {values}",
                    file=sys.stderr,
                )
                return 1
        t_recompute = time.perf_counter() - t0
        speedup = t_recompute / t_incremental if t_incremental else 0
        print(
            f"per-update recompute: {t_recompute:.3f}s -> incremental "
            f"speedup {speedup:.2f}x"
        )
    return 0


def cmd_planner_explain(args) -> int:
    """Print the planner's features, plan, and model for one instance."""
    from repro.planner import active_model, extract_features, plan_instance
    from repro.resilience.types import Budget

    query = parse_query(args.query) if args.query not in ALL_QUERIES else (
        ALL_QUERIES[args.query]
    )
    db = load_database(args.database)
    budget = Budget(
        time_limit=args.budget_seconds, node_limit=args.budget_nodes
    )
    budget_arg = None if budget.unlimited else budget
    model = active_model()
    features = extract_features(
        db, query, mode=args.mode, budget=budget_arg, weighted=args.weighted
    )
    plan = plan_instance(
        db, query, mode=args.mode, budget=budget_arg, weighted=args.weighted
    )
    print(f"model: {model.version}"
          + (f" (source: {', '.join(model.source)})" if model.source else ""))
    print("features:")
    for name, value in features.as_dict().items():
        print(f"  {name}: {value}")
    if features.kernel_size is not None:
        print(f"  kernel_size: {features.kernel_size}")
    print(f"plan: {plan.signature()}")
    print(
        "note: explicit solve() arguments and REPRO_* backend env vars "
        "override the plan (see docs/planner.md)"
    )
    return 0


# The checked-in trajectory records `repro planner calibrate` reads by
# default (relative to the current directory, i.e. the repo root).
DEFAULT_CALIBRATION_RECORDS = (
    "BENCH_e18_hotpaths.json",
    "BENCH_e19_serving.json",
    "BENCH_e20_weighted.json",
)


def cmd_planner_calibrate(args) -> int:
    """Fit a cost model from BENCH_*.json records and print/write it."""
    from repro.planner import calibrate

    paths = args.records if args.records else list(DEFAULT_CALIBRATION_RECORDS)
    records = []
    for path in paths:
        try:
            with open(path) as handle:
                records.append((path, json.load(handle)))
        except (OSError, ValueError) as exc:
            print(f"cannot read record {path}: {exc}", file=sys.stderr)
            return 2
    try:
        model = calibrate(records)
    except ValueError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        model.save(args.json)
        print(f"wrote {args.json} (version {model.version})")
        print(f"use it with REPRO_PLANNER_MODEL={args.json}")
    else:
        print(json.dumps(model.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    """Run the serving daemon (``repro serve``)."""
    from repro.serving import AdmissionPolicy, ResilienceServer, ServingClient

    server = ResilienceServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        policy=AdmissionPolicy.from_env(),
        workers=args.workers,
    )
    print(
        f"serving resilience on {server.address} "
        f"(workers={server.app.workers}, "
        f"cache={'on: ' + args.cache_dir if args.cache_dir else 'off'})"
    )
    if args.check:
        # CI smoke: bind, round-trip /health over a real socket, exit.
        server.start()
        try:
            payload = ServingClient(server.address, timeout=10).health()
        finally:
            server.stop()
        print(f"health: {json.dumps(payload, sort_keys=True)}")
        return 0 if payload.get("status") == "ok" else 1
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resilience of conjunctive queries with self-joins (PODS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify RES(q) as P / NP-complete / OPEN")
    p.add_argument("query", help='e.g. "R(x,y), R(y,z)"')
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="compute resilience over a JSON database")
    p.add_argument("query")
    p.add_argument("database", help="path to a database JSON file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("zoo", help="list the paper's queries and verdicts")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "ijp",
        help="search for an Independent Join Path, or run the standing "
        "'sweep' over the open queries",
    )
    p.add_argument("query", help='a query string, or "sweep"')
    p.add_argument("--max-joins", type=int, default=2)
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="partition budget (default: 20000 for a single search, "
        "full coverage for a sweep; counts covered = enumerated + "
        "pruned partitions per copy count)",
    )
    p.add_argument(
        "--queries",
        default=None,
        help="sweep: comma-separated zoo names (default: the seven "
        "OPEN queries)",
    )
    p.add_argument(
        "--copies", type=int, default=3, help="sweep: max join copies"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep: worker processes (results are bit-identical to "
        "serial for any count)",
    )
    p.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="N",
        help="sweep: add N seeded random three-occurrence queries",
    )
    p.add_argument("--seed", type=int, default=0, help="sweep: random seed")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="sweep: checkpoint shards and probe results here (enables "
        "resume)",
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="sweep: ignore existing shard checkpoints",
    )
    p.add_argument(
        "--json", default=None, metavar="OUT", help="sweep: write the report"
    )
    p.set_defaults(func=cmd_ijp)

    p = sub.add_parser(
        "bench", help="batch-solve a random workload and report timings"
    )
    p.add_argument(
        "--queries",
        default=None,
        help="comma-separated zoo query names (default: a shared-vocabulary "
        "mix; incompatible with --scale)",
    )
    p.add_argument(
        "--databases", type=int, default=10, help="shared databases to generate"
    )
    p.add_argument(
        "--domain-size", type=int, default=None, help="default 5; not with --scale"
    )
    p.add_argument(
        "--density", type=float, default=None, help="default 0.4; not with --scale"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="solve each pair this many times (default 2; benchmark suites "
        "cross-check pairs repeatedly; the batch memoizes duplicates); "
        "not with --scale",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="also time naive per-pair solving and print the speedup",
    )
    p.add_argument(
        "--mode",
        choices=("exact", "approx", "anytime"),
        default="exact",
        help="solving tier: exact values, certified approx intervals, or "
        "budgeted anytime refinement",
    )
    p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="anytime refinement wall-clock budget (default unlimited)",
    )
    p.add_argument(
        "--budget-nodes",
        type=int,
        default=None,
        help="anytime refinement branch-and-bound node budget",
    )
    p.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="N",
        help="replace the workload with the NP-hard scaling workload "
        "(~N tuples per binary relation; requires a bounded --mode)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="solve the batch on N worker processes with deterministic "
        "sharding (default: serial, or the REPRO_WORKERS env var)",
    )
    p.add_argument(
        "--weighted",
        action="store_true",
        help="assign skewed per-tuple deletion costs and solve the "
        "min-cost (weighted resilience) objective; not with --updates",
    )
    p.add_argument(
        "--updates",
        type=int,
        default=None,
        metavar="N",
        help="benchmark the incremental engine on a randomized N-op "
        "insert/delete stream, solving after every update "
        "(--compare times per-update recomputation; not with --scale)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist results in a content-hash-keyed on-disk cache; "
        "reruns over the same instances are served from disk",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write a machine-readable benchmark record (the "
        "BENCH_*.json trajectory format, see docs/performance.md): "
        "workload, engine backends, batch statistics, values",
    )
    p.add_argument(
        "--planner",
        choices=("on", "off"),
        default=None,
        help="force the cost-based backend planner on or off for the "
        "batch (default: the REPRO_PLANNER env var, which defaults on; "
        "see docs/planner.md)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "planner",
        help="inspect or calibrate the cost-based backend planner",
    )
    planner_sub = p.add_subparsers(dest="planner_command", required=True)

    pe = planner_sub.add_parser(
        "explain",
        help="print the features, plan, and model for one instance",
    )
    pe.add_argument("query", help='zoo name or e.g. "R(x,y), R(y,z)"')
    pe.add_argument("database", help="path to a database JSON file")
    pe.add_argument(
        "--mode", choices=("exact", "approx", "anytime"), default="exact"
    )
    pe.add_argument("--weighted", action="store_true")
    pe.add_argument("--budget-seconds", type=float, default=None)
    pe.add_argument("--budget-nodes", type=int, default=None)
    pe.set_defaults(func=cmd_planner_explain)

    pc = planner_sub.add_parser(
        "calibrate",
        help="fit a cost model from BENCH_*.json trajectory records",
    )
    pc.add_argument(
        "records",
        nargs="*",
        help="trajectory record paths (default: the checked-in "
        "E18/E19/E20 records in the current directory)",
    )
    pc.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="write the fitted model here (load it back via "
        "REPRO_PLANNER_MODEL) instead of printing it",
    )
    pc.set_defaults(func=cmd_planner_calibrate)

    p = sub.add_parser(
        "serve", help="run the resilience HTTP serving daemon"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8421,
        help="listening port (0 binds an ephemeral port)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size for /solve_batch (default 1: batches "
        "solve in the request thread)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist solved results across restarts (content-hash keyed)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="bind, probe /health over a real socket, and exit (CI smoke)",
    )
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
