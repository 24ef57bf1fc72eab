"""The repro benchmark: one workload, timed end to end, every answer checked.

    python3 perfbench/run.py --workload zoo_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` for why each exists and what it should
move): ``zoo_small``, ``np_exact`` and ``np_approx`` call
``repro.resilience.solver.solve`` in this process; ``http_small`` sends
``POST /solve`` to a ``repro serve --port 0`` process sharing its CPU.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
three set-ups, each from process start through imports and warm-up
solves until ready; for ``http_small``, spawning the server through its
first ``/health`` and warm-up requests), ``pairs_per_s``,
``latency_p50_ms``, ``latency_p90_ms`` and ``peak_rss_mb`` (this
process, or the server for ``http_small``).

``--trace 1`` takes the first half of the untraced run's instances and
times every chunk of them twice, in alternating order: once with
recording off and once with spans recorded around each layer's public
functions (``spans.py``).  It reports per-layer calls,
self time and share of the traced wall time, the layer counts, and the
tracing overhead; the two passes must give identical answers.

The last line of standard output is the result object; the line before
it is the run record (counts, digests, the host-speed probe).  Guards
that fail are written to standard error and make the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from stats import Digest, percentile, samples_beyond  # noqa: E402

SETUP_SAMPLES = 3
SERVER_START_TIMEOUT = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric names: "<layer>.calls|self_ms|share", except the two
# exact backends, which report as "resilience.exact.bnb_*" / "ilp_*".
_PREFIX = {
    "resilience.exact.bnb": "resilience.exact.bnb_",
    "resilience.exact.ilp": "resilience.exact.ilp_",
}
LAYER_COUNTS = (
    ("query.columnar.columnar", "count"),
    ("query.columnar.reference", "count"),
    ("query.columnar.fallback", "count"),
    ("witness.structure.tuples_raw", "count"),
    ("witness.structure.tuples_final", "count"),
    ("witness.structure.witnesses_final", "count"),
    ("witness.structure.tuple_survival", "fraction"),
    ("witness.cache.hits", "count"),
    ("resilience.approx.closed", "count"),
    ("resilience.approx.gap_per_pair", "tuples"),
    ("serving.admission.rerouted", "count"),
    ("trace.pairs_per_s_untraced", "1/s"),
    ("trace.pairs_per_s_traced", "1/s"),
    ("trace.overhead", "fraction"),
)


def per_layer_names():
    """``[(metric, unit)]`` reported by ``--trace 1``, in order."""
    out = []
    for layer in spans.LAYERS:
        prefix = _PREFIX.get(layer, layer + ".")
        out += [(prefix + "calls", "count"), (prefix + "self_ms", "ms"),
                (prefix + "share", "fraction")]
    return out + list(LAYER_COUNTS)


def host_probe_ms(reps: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a diagnostic of host
    speed, stored in the run record and never used to scale a metric."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ---------------------------------------------------------------------------
# Answer checks (outside every timed interval)
# ---------------------------------------------------------------------------

def check_answer(db, query, result):
    """``None`` when ``result`` is certified by ``db``; else the reason."""
    from repro.resilience import is_contingency_set

    gamma = result.contingency_set
    if not gamma <= db.endogenous_tuples():
        return "contingency set holds a tuple that is not endogenous"
    bounded = hasattr(result, "upper_bound")
    if bounded and result.lower_bound > result.upper_bound:
        return f"interval [{result.lower_bound}, {result.upper_bound}] is empty"
    size = result.upper_bound if bounded else result.value
    if len(gamma) != size:
        return f"|contingency set| = {len(gamma)} but the answer is {size}"
    if not is_contingency_set(db, query, set(gamma)):
        return "the contingency set leaves the query satisfied"
    return None


def answer_of(result):
    if hasattr(result, "upper_bound"):
        return (result.lower_bound, result.upper_bound)
    return result.value


class Tally:
    """Failures, guard breaches and the deterministic counts of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.guards = []
        self.methods = {}
        self.gap = 0
        self.answers = Digest()
        self.instances = Digest()

    def fail(self, key, reason):
        self.failures.append(f"{key}: {reason}")

    def guard(self, message):
        self.guards.append(message)


def settle(chunk, outcomes, queries, tally, count=True, http=False):
    """Check one pass over ``chunk``; returns its answers digest."""
    digest = Digest()
    for (name, db, key), out in zip(chunk, outcomes):
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(key, f"raised {out!r}")
            digest.add((key, "error"))
            continue
        result, meta = out if http else (out, None)
        if meta is not None and (
            meta.get("rerouted") or meta.get("coalesced")
            or meta.get("cache") != "miss" or meta.get("tier") != "interactive"
        ):
            tally.guard(f"{key}: served outside the interactive solve path {meta}")
        problem = check_answer(db, queries[name], result)
        if problem is not None:
            tally.fail(key, problem)
        digest.add((key, answer_of(result)))
        if count:
            tally.methods[result.method] = tally.methods.get(result.method, 0) + 1
            if hasattr(result, "upper_bound"):
                tally.gap += result.upper_bound - result.lower_bound
    return digest.hexdigest()


def timed_pass(chunk, call):
    """One closed-loop pass: ``(start, end, latencies_s, outcomes)``."""
    gc.collect()
    latencies, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    for name, db, _ in chunk:
        t0 = clock()
        try:
            out = call(name, db)
        except Exception as exc:  # a failed operation, counted by settle()
            out = exc
        latencies.append(clock() - t0)
        outcomes.append(out)
    return start, clock(), latencies, outcomes


# ---------------------------------------------------------------------------
# The program: in process, or a `repro serve` process
# ---------------------------------------------------------------------------

# The program's counters are read where it still has them: a later change
# may fold them into other telemetry, and the benchmark must keep running.
def witness_cache_hits():
    info = getattr(importlib.import_module("repro.witness"), "witness_cache_info", None)
    return info()[0] if info is not None else 0


def clear_witness_cache():
    clear = getattr(importlib.import_module("repro.witness"), "clear_witness_cache", None)
    if clear is not None:
        clear()


def columnar_counters():
    counters = getattr(
        importlib.import_module("repro.query.columnar"), "backend_counters", None
    )
    return counters() if counters is not None else {}


def inproc_caller(mode):
    """``call(name, db)`` through the solver module's current ``solve``
    (so installed span wrappers are seen)."""
    solver = importlib.import_module("repro.resilience.solver")
    queries = importlib.import_module("repro.query.zoo").ALL_QUERIES
    solve = solver.solve
    if mode == "exact":
        return lambda name, db: solve(db, queries[name])
    return lambda name, db: solve(db, queries[name], mode=mode)


def prepare_inproc(workload, seed):
    """Imports, warm-up inputs, warm-up solves; returns the seconds spent
    generating inputs (the benchmark's own work)."""
    importlib.import_module("repro.resilience.solver")
    t0 = time.perf_counter()
    warmup = workload.warmup(workloads.stream(workload.name, seed, "warmup"))
    gen_s = time.perf_counter() - t0
    call = inproc_caller(workload.mode)
    for name, db, _ in warmup:
        call(name, db)
    return gen_s


def setup_probe(workload, seed):
    """Child side of a set-up sample: prepare, then report."""
    gen_s = prepare_inproc(workload, seed)
    print(json.dumps({"ready": True, "gen_s": gen_s}), flush=True)


def inproc_setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
            timeout=120, text=True,
        )
        elapsed = time.perf_counter() - t0
        report = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(elapsed - report["gen_s"])
    return samples


class Server:
    """A ``repro serve --port 0`` process (or the traced launcher)."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._first_line()
            self.address = line.split(" on ", 1)[1].split()[0]
            from repro.serving import ServingClient

            self.client = ServingClient(self.address, timeout=120)
            self.client.health()
        except BaseException:
            self.stop()
            raise

    def _first_line(self):
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("serving resilience on "):
                    return line
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError("repro serve did not start")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def solves(self):
        return self.client.metrics()["solves_total"]

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def share_one_cpu():
    """Keep this process, and every process it spawns, on one CPU.

    Every http_small round trip hands the CPU from client to server and
    back.  On two CPUs each handoff wakes an idle virtual CPU, whose
    wake-up latency follows the host's load: p90 swung by 80% between
    runs on a 2-core VM.  On one CPU the handoff is a plain context
    switch.  The in-process workloads and every set-up sample run on the
    same single CPU, so all runs see one machine; the helper threads
    HiGHS and OpenBLAS start do no measurable work in them.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def serve_argv():
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def start_server(argv, warmup, queries):
    """``(server, seconds from spawn to ready)``: first ``/health`` and
    the warm-up requests included."""
    t0 = time.perf_counter()
    server = Server(argv)
    try:
        for name, db, _ in warmup:
            server.client.solve(db, queries[name])
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def http_caller(server, queries):
    client = server.client
    return lambda name, db: client.solve(db, queries[name])


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(workload, seed, seconds, tally, record):
    queries = importlib.import_module("repro.query.zoo").ALL_QUERIES
    http = workload.transport == "http"
    servers = []
    try:
        if http:
            warmup = workload.warmup(workloads.stream(workload.name, seed, "warmup"))
            setup = []
            for _ in range(SETUP_SAMPLES):
                if servers:
                    servers.pop().stop()
                server, elapsed = start_server(serve_argv(), warmup, queries)
                servers.append(server)
                setup.append(elapsed)
            call = http_caller(servers[0], queries)
            solves_before = servers[0].solves()
        else:
            setup = inproc_setup_samples(workload, seed)
            prepare_inproc(workload, seed)
            call = inproc_caller(workload.mode)
            columnar_before = columnar_counters()
        record["setup_samples_s"] = setup

        _, chunks, count = workloads.build(workload, seed, seconds)
        wall, latencies, hits = 0.0, [], 0
        for chunk in chunks:
            check_sizes(workload, chunk, tally)
            for _, _, key in chunk:
                tally.instances.add(key)
            clear_witness_cache()
            hits_before = witness_cache_hits()
            start, end, lat, outcomes = timed_pass(chunk, call)
            hits += witness_cache_hits() - hits_before
            wall += end - start
            latencies += lat
            tally.answers.add(settle(chunk, outcomes, queries, tally, http=http))
        if http:
            server = servers[0]
            record["server_solves"] = server.solves() - solves_before
            if record["server_solves"] != count:
                tally.guard(
                    f"server ran {record['server_solves']} solves for {count} requests"
                )
            peak_rss = server.peak_rss_mb()
        else:
            after = columnar_counters()
            record["columnar_counters"] = {
                k: after[k] - columnar_before.get(k, 0) for k in after
            }
            record["witness_cache_hits"] = hits
            if hits:
                tally.guard(f"the witness cache answered {hits} timed requests")
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        for server in servers:
            server.stop()

    latencies.sort()
    record["timed_wall_s"] = wall
    record["samples"] = len(latencies)
    record["samples_beyond_p90"] = samples_beyond(len(latencies), 0.90)
    return {
        "setup_s": statistics.median(setup),
        "pairs_per_s": len(latencies) / wall,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "peak_rss_mb": peak_rss,
    }


def check_sizes(workload, chunk, tally):
    if workload.transport != "http":
        return
    for _, db, key in chunk:
        if len(db) > workloads.MAX_HTTP_TUPLES:
            tally.guard(f"{key}: {len(db)} tuples, above {workloads.MAX_HTTP_TUPLES}")


def run_traced(workload, seed, seconds, tally, record):
    recorder = spans.Recorder()
    record["missing_span_targets"] = spans.install(recorder)
    queries = importlib.import_module("repro.query.zoo").ALL_QUERIES
    http = workload.transport == "http"
    servers = {}
    server_spans_path = SCRATCH / f"server-spans-{os.getpid()}.json"
    try:
        if http:
            SCRATCH.mkdir(parents=True, exist_ok=True)
            warmup = workload.warmup(workloads.stream(workload.name, seed, "warmup"))
            servers["off"], _ = start_server(serve_argv(), warmup, queries)
            servers["on"], _ = start_server(
                [sys.executable, str(HERE / "traced_server.py"),
                 str(server_spans_path), "serve", "--port", "0"],
                warmup, queries,
            )
            calls = {k: http_caller(s, queries) for k, s in servers.items()}
        else:
            prepare_inproc(workload, seed)
            call = inproc_caller(workload.mode)
            calls = {"off": call, "on": call}

        _, chunks, count = workloads.build(workload, seed, run_seconds(seconds, 1))
        walls = {"off": 0.0, "on": 0.0}
        windows, hits = [], 0
        for i, chunk in enumerate(chunks):
            check_sizes(workload, chunk, tally)
            digests = {}
            # The second pass gets fresh copies of the databases, so it
            # cannot reuse memos the first pass left on them.
            passes = (chunk, fresh_copies(chunk))
            sides = ("off", "on") if i % 2 == 0 else ("on", "off")
            for side, batch in zip(sides, passes):
                clear_witness_cache()
                hits_before = witness_cache_hits()
                recorder.enabled = side == "on"
                start, end, _, outcomes = timed_pass(batch, calls[side])
                recorder.enabled = False
                hits += witness_cache_hits() - hits_before
                walls[side] += end - start
                if side == "on":
                    windows.append((start, end))
                digests[side] = settle(
                    batch, outcomes, queries, tally, count=side == "off", http=http
                )
            for _, _, key in chunk:
                tally.instances.add(key)
            tally.answers.add(digests["off"])
            if digests["on"] != digests["off"]:
                tally.guard(f"chunk {i}: traced and untraced answers differ")
    finally:
        for server in servers.values():
            server.stop()

    totals = spans.layer_totals(recorder.spans)
    if http:
        with open(server_spans_path) as fh:
            served = json.load(fh)
        remove_scratch(server_spans_path)
        server_spans = served["spans"]
        transport = totals.get("serving.transport")
        if transport is not None:
            transport["self_s"] -= spans.root_seconds(server_spans, windows)
        spans.merge_into(totals, spans.layer_totals(server_spans, windows))
        hits += served["witness_cache_hits"]
    if hits:
        tally.guard(f"the witness cache answered {hits} timed requests")
    record["witness_cache_hits"] = hits
    record["timed_wall_s"] = walls
    return layer_metrics(totals, walls, count, hits)


def run_seconds(seconds, trace):
    """The share of ``--seconds`` that sizes the instance list: a traced
    run times every instance twice, so it takes the first half of the
    untraced run's list and lasts about as long."""
    return seconds / 2 if trace else seconds


def fresh_copies(chunk):
    """``chunk`` over copied databases; pairs that shared a database
    share its copy."""
    copies = {}
    return [
        (name, copies.setdefault(id(db), db.copy()), key) for name, db, key in chunk
    ]


def remove_scratch(path):
    path.unlink()
    try:
        path.parent.rmdir()
        path.parent.parent.rmdir()
    except OSError:
        pass


def layer_metrics(totals, walls, count, hits):
    wall = walls["on"]
    values = {}
    extra = {}
    for layer in spans.LAYERS:
        t = totals.get(layer, {"calls": 0, "self_s": 0.0, "extra": {}})
        prefix = _PREFIX.get(layer, layer + ".")
        values[prefix + "calls"] = t["calls"]
        values[prefix + "self_ms"] = t["self_s"] * 1e3
        values[prefix + "share"] = t["self_s"] / wall
        for k, v in t["extra"].items():
            extra[k] = extra.get(k, 0) + v
    for name in ("columnar", "reference", "fallback"):
        values[f"query.columnar.{name}"] = extra.get(f"query.columnar.{name}", 0)
    for name in ("tuples_raw", "tuples_final", "witnesses_final"):
        values[f"witness.structure.{name}"] = extra.get(f"witness.structure.{name}", 0)
    raw = values["witness.structure.tuples_raw"]
    values["witness.structure.tuple_survival"] = (
        values["witness.structure.tuples_final"] / raw if raw else 0.0
    )
    values["witness.cache.hits"] = hits
    approx_calls = totals.get("resilience.approx", {}).get("calls", 0)
    values["resilience.approx.closed"] = extra.get("resilience.approx.closed", 0)
    values["resilience.approx.gap_per_pair"] = (
        extra.get("resilience.approx.gap", 0) / approx_calls if approx_calls else 0.0
    )
    values["serving.admission.rerouted"] = extra.get("serving.admission.rerouted", 0)
    values["trace.pairs_per_s_untraced"] = count / walls["off"]
    values["trace.pairs_per_s_traced"] = count / walls["on"]
    values["trace.overhead"] = walls["on"] / walls["off"] - 1.0
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    share_one_cpu()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    tally = Tally()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "instances": workload.count(run_seconds(args.seconds, args.trace))}
    probe_before = host_probe_ms()
    if args.trace:
        values = run_traced(workload, args.seed, args.seconds, tally, record)
        units = dict(per_layer_names())
    else:
        values = run_untraced(workload, args.seed, args.seconds, tally, record)
        units = dict(END_TO_END)
    record["host_probe_ms"] = {"before": probe_before, "after": host_probe_ms()}
    record.update(
        instances_digest=tally.instances.hexdigest(),
        answers_digest=tally.answers.hexdigest(),
        methods=dict(sorted(tally.methods.items())),
        total_gap=tally.gap,
        gap_per_pair=tally.gap / record["instances"],
        failures=tally.failures[:20],
        guards=tally.guards[:20],
    )
    for line in tally.failures[:20] + tally.guards[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures and not tally.guards,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 1 if tally.guards else 0


if __name__ == "__main__":
    sys.exit(main())
