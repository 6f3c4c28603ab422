#!/usr/bin/env python3
"""The repo benchmark: amalgamd under the hot_replay, cold_build and
store_mixed workloads (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_replay --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds amalgamd and the
in-process layer tool from source into .bench_build/perfbench (Release).
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. Earlier lines carry the
host context, the workload's input properties and its exact work counts.
"""

import argparse
import collections
import gc
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory as committed

import workloads  # noqa: E402

THREADS = 4  # daemon workers; the client never holds more connections
# The CPUs this process may use when it starts. The benchmark then pins
# itself, and so every process it starts, to the last of them: on a host
# whose vCPUs are time-shared, wake-ups across vCPUs made the same round's
# p99 swing 3-10x between runs, while one CPU keeps it steady.
ALL_CPUS = sorted(os.sched_getaffinity(0))
# The host-speed probe's time in ms (`perfbench_layers probe`) on the
# 4-vCPU machine the benchmark was tuned on. Each round's times are divided
# by the host's slowdown against it, measured around the round; see
# README.md.
PROBE_REF_MS = 18.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- build ----

def build_dir():
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the two binaries; refuses non-Release."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "amalgamd.cc")):
        if not os.path.exists(os.path.join(REPO, needed)):
            raise BenchError("not a source checkout: %s is missing" % needed)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(THREADS), "--target",
                    "amalgamd", "perfbench_layers"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise BenchError("refusing a %r build; the benchmark needs Release"
                         % build_type)
    return (os.path.join(bdir, "amalgam", "amalgamd"),
            os.path.join(bdir, "perfbench_layers"), build_type)


# ---- the daemon ----

def cpu_ns(pid):
    """utime + stime of every thread of `pid`, in ns (schedstat)."""
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def store_bytes(store_dir):
    """Bytes of the store's pack, index and loose files."""
    total = 0
    for name in os.listdir(store_dir):
        if name.endswith((".amg", ".amgp", ".idx")):
            total += os.path.getsize(os.path.join(store_dir, name))
    return total


class Daemon:
    """One amalgamd process on a Unix socket inside the run directory."""

    def __init__(self, binary, rundir, store_dir, cache_max):
        self.sock_rel = os.path.relpath(os.path.join(rundir, "d.sock"))
        if os.path.exists(self.sock_rel):
            os.unlink(self.sock_rel)
        args = [binary, "--uds", self.sock_rel, "--threads", str(THREADS)]
        if store_dir:
            args += ["--store-dir", store_dir]
        if cache_max:
            args += ["--cache-max-entries", str(cache_max)]
        self.err = open(os.path.join(rundir, "daemon.log"), "ab")
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        self.pid = self.proc.pid
        try:
            self.admin = self.wait_listening()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.err.close()
            raise

    def wait_listening(self):
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise BenchError("amalgamd exited with %d at start"
                                 % self.proc.returncode)
            try:
                return self.connect()
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("amalgamd did not listen within 30 s")
                time.sleep(0.002)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock_rel)
        except OSError:
            s.close()
            raise
        return Conn(s)

    def op(self, obj):
        return self.admin.request(obj)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.admin.request({"op": "shutdown"})
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired, BenchError):
                self.proc.kill()
                self.proc.wait()
        self.admin.close()
        self.err.close()


class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, data):
        self.sock.sendall(data)

    def read_lines(self):
        """Reads what the socket has; returns the complete lines."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise BenchError("amalgamd closed a connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return lines

    def request(self, obj):
        return self.request_raw((json.dumps(obj) + "\n").encode())

    def request_raw(self, line):
        self.send(line)
        while True:
            lines = self.read_lines()
            if lines:
                if len(lines) > 1 or self.buf:
                    raise BenchError("unexpected extra response")
                return json.loads(lines[0])

    def close(self):
        self.sock.close()


def encode(spec, line_id, trace=False):
    """The wire line: the id first, then the spec (plus "trace":true)."""
    body = spec[1:-1] + (',"trace":true' if trace else "")
    return ('{"id":%d,%s}\n' % (line_id, body)).encode()


def drive(daemon, conn_count, wire, conns_of):
    """Sends line i on connection conns_of[i]. Returns per line (client
    latency s, response bytes) and the wall time from the first send to
    the last response."""
    conns = [daemon.connect() for _ in range(conn_count)]
    queues = [[] for _ in range(conn_count)]
    for i, c in enumerate(conns_of):
        queues[c].append(i)
    gc.disable()  # no collector pauses inside the timed loop
    try:
        results, wall = closed_loop(conns, queues, wire)
    finally:
        gc.enable()
        for conn in conns:
            conn.close()
    if any(r is None for r in results):
        raise BenchError("missing responses")
    return results, wall


def closed_loop(conns, queues, wire):
    """One thread polls every connection; each sends its next line once the
    previous response arrived."""
    clock = time.perf_counter
    sel = selectors.DefaultSelector()
    sent_at = [0.0] * len(wire)
    results = [None] * len(wire)
    pos = [0] * len(conns)
    start = clock()
    for c, conn in enumerate(conns):
        if queues[c]:
            sel.register(conn.sock, selectors.EVENT_READ, c)
            i = queues[c][0]
            sent_at[i] = clock()
            conn.send(wire[i])
    while sel.get_map():
        events = sel.select(timeout=60)
        if not events:
            raise BenchError("no response within 60 s")
        for key, _ in events:
            c = key.data
            conn = conns[c]
            for line in conn.read_lines():
                i = queues[c][pos[c]]
                results[i] = (clock() - sent_at[i], line)
                pos[c] += 1
                if pos[c] < len(queues[c]):
                    j = queues[c][pos[c]]
                    sent_at[j] = clock()
                    conn.send(wire[j])
                else:
                    sel.unregister(conn.sock)
    wall = clock() - start
    sel.close()
    return results, wall


def replay(daemon, specs):
    """Sends set-up lines one at a time on the admin connection."""
    for i, spec in enumerate(specs):
        r = daemon.admin.request_raw(encode(spec, 900000 + i))
        if not r.get("ok"):
            raise BenchError("set-up line failed: %s" % r.get("error"))


# ---- one round: set-up, measured phase, counters ----

class Round:
    pass


def run_round(w, binary, rundir, store, specs, trace, with_store,
              snapshot=None):
    """Starts a fresh daemon (on the new directory `store` when
    `with_store`), runs the workload's set-up, then its measured sequence.
    `snapshot`, when set and not there yet, receives a copy of the store
    directory as the measured phase starts it (store_mixed).

    Nothing is deleted (see main)."""
    os.makedirs(store)
    r = Round()
    r.store_dir = store
    t0 = time.perf_counter()
    daemon = Daemon(binary, rundir, store if with_store else None, w.cache_max)
    try:
        if w.populate:
            replay(daemon, [workloads.spec_bytes(q) for q, _, _ in w.populate])
            m = daemon.op({"op": "maintain"})
            if not m.get("ok"):
                raise BenchError("maintain failed: %s" % m.get("error"))
            daemon.stop()
            if snapshot and not os.path.exists(snapshot):
                shutil.copytree(store, snapshot)
            daemon = Daemon(binary, rundir, store, w.cache_max)
        replay(daemon, [workloads.spec_bytes(q) for q, _, _ in w.setup])
        r.setup_s = time.perf_counter() - t0
        before = daemon.op({"op": "stats"})
        cpu0 = cpu_ns(daemon.pid)
        wire = [encode(s, i, trace) for i, s in enumerate(specs)]
        r.results, r.wall = drive(daemon, w.connections, wire,
                                  [m["conn"] for m in w.meta])
        r.cpu_ms = (cpu_ns(daemon.pid) - cpu0) / 1e6
        after = daemon.op({"op": "stats"})
        r.rss_mb = peak_rss_mb(daemon.pid)
        r.stats_before, r.stats_after = before, after
        r.version, r.build_type = after.get("version"), after.get("build_type")
    finally:
        daemon.stop()
    r.store_bytes = store_bytes(store)
    r.store_writes = stat_delta(r, "store_writes")
    return r


def durability_check(w, binary, rundir, store, specs, reference):
    """Restarts a daemon on a round's store and checks that one line per
    acknowledged key loads from the store with the reference verdict."""
    daemon = Daemon(binary, rundir, store, w.cache_max)
    bad = 0
    seen = set()
    try:
        for spec, meta in zip(specs, w.meta):
            if meta["key"] in seen:
                continue
            seen.add(meta["key"])
            r = daemon.admin.request_raw(encode(spec, len(seen)))
            if not (r.get("ok") and r.get("from_cache")
                    and r.get("nonempty") == reference[spec]["nonempty"]):
                bad += 1
                log("durability: key not served from the store as "
                    "acknowledged: %s" % json.dumps(r)[:300])
    finally:
        daemon.stop()
    return bad, len(seen)


# ---- checks ----

def reference_verdicts(layers_bin, rundir, specs):
    """Spec bytes -> reference result, solving each distinct spec once."""
    distinct = sorted(set(specs))
    path = os.path.join(rundir, "reference_in.jsonl")
    out = os.path.join(rundir, "reference_out.jsonl")
    with open(path, "w") as f:
        for spec in distinct:
            f.write(spec + "\n")
    subprocess.run([layers_bin, "reference", path, out], check=True,
                   stdout=sys.stderr)
    with open(out) as f:
        rows = [json.loads(line) for line in f]
    if len(rows) != len(distinct):
        raise BenchError("reference tool answered %d of %d lines"
                         % (len(rows), len(distinct)))
    return {distinct[row["i"]]: row for row in rows}


def check_round(r, specs, reference):
    """Parses every response; returns (responses, failed line count)."""
    responses = []
    failed = 0
    for i, (spec, (_, raw)) in enumerate(zip(specs, r.results)):
        try:
            resp = json.loads(raw)
        except ValueError:
            resp = {}
        ref = reference[spec]
        why = None
        if resp.get("id") != i:
            why = "response id %r out of order" % resp.get("id")
        elif not resp.get("ok"):
            why = "error: %s" % resp.get("error")
        elif not ref.get("ok"):
            why = "reference failed: %s" % ref.get("error")
        elif resp.get("nonempty") != ref["nonempty"]:
            why = "verdict %s, reference %s" % (resp.get("nonempty"),
                                                ref["nonempty"])
        elif ref.get("witness") == "invalid":
            why = "reference witness fails ValidateAcceptingRun"
        if why:
            failed += 1
            if failed <= 5:
                log("line %d: %s" % (i, why))
        responses.append(resp)
    return responses, failed


def work_counts(responses):
    keys = ("members_generated", "members", "edges", "configs")
    return {k: sum(int(resp.get(k, 0)) for resp in responses) for k in keys}


def stat_delta(r, name):
    return int(r.stats_after.get(name, 0)) - int(r.stats_before.get(name, 0))


# ---- input properties and host context ----

def input_properties(w, specs, reference):
    seen = set(workloads.spec_bytes(q) for q, _, _ in w.setup + w.populate)
    repeats = 0
    for spec in specs:
        repeats += spec in seen
        seen.add(spec)
    keys = set(m["key"] for m in w.meta)
    persisted = set(k for _, k, _ in w.populate + w.setup)

    def mix(field):
        out = {}
        for m in w.meta:
            out[str(m[field])] = out.get(str(m[field]), 0) + 1
        return out
    verdicts = {"nonempty": 0, "empty": 0}
    for spec in specs:
        verdicts["nonempty" if reference[spec].get("nonempty") else "empty"] += 1
    return {
        "workload": w.name,
        "lines": len(specs),
        "connections": w.connections,
        "spec_repeat_share": round(repeats / len(specs), 4),
        "distinct_specs": len(set(specs)),
        "distinct_graph_keys": len(keys),
        "distinct_guard_sets": len(set(m["guard_set"] for m in w.meta)),
        "keys_built_in_setup": len(keys & persisted),
        "memory_tier_cap": w.cache_max or "unbounded",
        "keys_per_cap": round(len(keys | persisted) / w.cache_max, 2)
        if w.cache_max else None,
        "witness_share": round(sum(m["witness"] for m in w.meta) / len(specs), 4),
        "front_doors": mix("kind"),
        "strategies": mix("strategy"),
        "registers": mix("k"),
        "verdicts": verdicts,
    }


def host_slowdown(layers_bin):
    """How many times slower than the reference machine the host runs now."""
    return float(subprocess.run([layers_bin, "probe"], check=True,
                                capture_output=True,
                                text=True).stdout) / PROBE_REF_MS


def host_context(layers_bin, build_type, r, probes):
    # The calibration runs on every CPU: it measures the host, not the pin.
    cal = json.loads(subprocess.run(
        [layers_bin, "calibrate"], check=True, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, ALL_CPUS)).stdout)
    if r.build_type != "Release":
        raise BenchError("refusing a %r daemon; the benchmark needs Release"
                         % r.build_type)
    return {"nproc": os.cpu_count(), "pinned_cpu": ALL_CPUS[-1],
            "library_build_type": build_type,
            "daemon_version": r.version, "daemon_build_type": r.build_type,
            "calibration": cal,
            "host_slowdown_median": statistics.median(probes)}


# ---- end-to-end metrics ----

def end_to_end(rounds, failed, attempted, store_kb, scaled=True):
    """Every metric is a median over rounds, so one round that a busy host
    slowed down does not move it. With `scaled`, each round's times are
    first scaled to the reference host speed (Round.scale)."""
    med = statistics.median

    def scale(r):
        return r.scale if scaled else 1.0

    def latency_ms(percent):
        return med(statistics.quantiles([lat for lat, _ in r.results], n=100,
                                        method="inclusive")[percent - 1]
                   * 1e3 * scale(r) for r in rounds)

    def metric(value, unit):
        return {"value": value, "unit": unit}
    return {
        "setup_s": metric(med(r.setup_s * scale(r) for r in rounds), "s"),
        "qps": metric(med(len(r.results) / r.wall / scale(r)
                          for r in rounds), "1/s"),
        "latency_p50_ms": metric(latency_ms(50), "ms"),
        "latency_p99_ms": metric(latency_ms(99), "ms"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        "daemon_cpu_ms_per_query":
            metric(med(r.cpu_ms / len(r.results) * scale(r) for r in rounds),
                   "ms"),
        "peak_rss_mb": metric(med(r.rss_mb for r in rounds), "MB"),
        "store_kb_per_graph": metric(store_kb, "KB"),
    }


# ---- per-layer metrics (traced run) ----

# The per-layer metrics of a traced run, with their units (BENCHMARK.json
# lists the same names).
PER_LAYER_UNITS = {
    "protocol.parse_us": "us", "protocol.format_us": "us",
    "net.transport_us": "us", "service.queue_wait_us": "us",
    "service.coalesced_wait_us": "us", "service.overhead_us": "us",
    "service.frontdoor_us": "us", "service.coalesced_joins": "count",
    "service.resume_leads": "count", "service.single_flight_leads": "count",
    "cache.key_us": "us", "cache.lookup_us": "us", "cache.hit_rate": "ratio",
    "cache.evictions": "count", "store.load_us": "us", "store.save_us": "us",
    "store.load_probe_us": "us", "store.save_probe_us": "us",
    "store.loads": "count", "store.pack_loads": "count",
    "store.loose_loads": "count", "store.writes": "count",
    "store.save_skips": "count", "store.load_failures": "count",
    "store.bytes": "bytes", "engine.bfs_us": "us", "engine.witness_us": "us",
    "graph.sweep_us": "us", "graph.build_full_us": "us",
    "graph.members_generated": "count", "graph.members_enumerated": "count",
    "graph.edges": "count", "graph.shapes": "count", "engine.configs": "count",
    "graph.enumerated_per_generated": "ratio",
    "graph.edges_per_guard_eval": "ratio", "logic.guard_evals": "count",
    "logic.guard_eval_ns": "ns", "intern.project_ns": "ns",
    "intern.raw_memo_hit_frac": "ratio", "fraisse.generate_us": "us",
    "words.generate_us": "us", "trees.generate_us": "us",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}

SWEEP_SPANS = ("sweep_initial", "sweep_joint", "frontier_sweep", "full_build")


def span_selfs(tree, out):
    """Adds each span's self time (us) to out[name], depth-first."""
    for span in tree:
        children = span.get("children", [])
        out[span["name"]] = out.get(span["name"], 0.0) + span["dur_us"] - sum(
            c["dur_us"] for c in children)
        span_selfs(children, out)


def load_spans(path):
    """In-process spans -> ({request: {name: self us}}, {name: total us})."""
    rows = []
    with open(path) as f:
        for line in f:
            req, name, start, end, parent = line.rstrip("\n").split("\t")
            rows.append([int(req), name, (int(end) - int(start)) / 1e3,
                         int(parent)])
    selfs = [row[2] for row in rows]
    for row in rows:
        if row[3] >= 0:
            selfs[row[3]] -= row[2]
    per_req, totals = {}, {}
    for row, own in zip(rows, selfs):
        d = per_req.setdefault(row[0], {})
        d[row[1]] = d.get(row[1], 0.0) + own
        totals[row[1]] = totals.get(row[1], 0.0) + own
    return per_req, totals


def run_layers(w, layers_bin, rundir, specs, snapshot):
    """The in-process replay; its cache has a store exactly when the
    daemon's rounds do."""
    paths = {n: os.path.join(rundir, n) for n in
             ("setup.jsonl", "lines.jsonl", "spans.tsv", "summary.jsonl",
              "inproc_store", "probe_store")}
    with open(paths["setup.jsonl"], "w") as f:
        for q, _, _ in w.setup:
            f.write(workloads.spec_bytes(q) + "\n")
    with open(paths["lines.jsonl"], "w") as f:
        for i, spec in enumerate(specs):
            f.write(encode(spec, i).decode())
    if snapshot:
        shutil.copytree(snapshot, paths["inproc_store"])
    store = paths["inproc_store"] if w.store_in_rounds else "-"
    subprocess.run([layers_bin, "layers", "--setup", paths["setup.jsonl"],
                    "--lines", paths["lines.jsonl"], "--store", store,
                    "--probe-store", paths["probe_store"],
                    "--cache-max", str(w.cache_max),
                    "--spans", paths["spans.tsv"],
                    "--summary", paths["summary.jsonl"]],
                   check=True, stdout=sys.stderr)
    per_req, totals = load_spans(paths["spans.tsv"])
    with open(paths["summary.jsonl"]) as f:
        summary = [json.loads(line) for line in f]
    return per_req, totals, summary


def per_layer(w, plain, traced, inproc, persisted):
    """`plain`/`traced`: lists of (round, responses) of untraced and traced
    rounds over the same lines; `inproc`: the in-process replay;
    `persisted`: the round whose store holds the workload's graphs."""
    per_req, totals, summary = inproc
    n = len(w.meta)
    med = statistics.median
    mean = statistics.fmean

    def per_line(rounds, fn):
        return [med(fn(r, resps, i) for r, resps in rounds) for i in range(n)]
    client_plain = per_line(plain, lambda r, _, i: r.results[i][0] * 1e6)
    client_traced = per_line(traced, lambda r, _, i: r.results[i][0] * 1e6)
    resp_lat = per_line(plain, lambda _, resps, i: resps[i]["latency_ms"] * 1e3)

    def spans_of(resps, i):
        out = {}
        span_selfs(resps[i].get("trace", []), out)
        return out
    daemon_spans = [{} for _ in range(n)]
    for i in range(n):
        rolls = [spans_of(resps, i) for _, resps in traced]
        for name in set().union(*rolls):
            daemon_spans[i][name] = med(roll.get(name, 0.0) for roll in rolls)

    def ds(i, *names):
        return sum(daemon_spans[i].get(name, 0.0) for name in names)

    def ip(i, name):
        return per_req.get(i, {}).get(name, 0.0)
    frontdoor = [sum(v for k, v in per_req.get(i, {}).items()
                     if k.startswith("frontdoor.")) for i in range(n)]
    transport = [client_plain[i] - resp_lat[i] - ip(i, "protocol.parse")
                 - ip(i, "protocol.format") - ds(i, "queue_wait")
                 for i in range(n)]
    covered = [ip(i, "protocol.parse") + ip(i, "protocol.format")
               + ip(i, "cache.key")
               + ds(i, "queue_wait", "coalesced_wait", "cache_lookup",
                    "store_load", "store_save", "bfs", "bfs_replay",
                    "witness", "fixpoint", *SWEEP_SPANS) for i in range(n)]
    unattributed = [client_traced[i] - covered[i] for i in range(n)]

    last, last_responses = traced[-1]
    counts = work_counts(last_responses)
    ok_rows = [s for s in summary if s.get("ok")]
    dec = [s["decomposed"] for s in summary if "decomposed" in s]
    fam = collections.Counter(s["family"] for s in summary if "decomposed" in s)
    enumerated = sum(s["members_enumerated"] for s in ok_rows)
    generated = sum(s["members_generated"] for s in ok_rows)
    guard_evals = sum(s["guard_evals"] for s in ok_rows)
    edges = sum(s["edges"] for s in ok_rows)
    hits, misses = stat_delta(last, "cache_hits"), stat_delta(last, "cache_misses")
    evals = sum(d["evals"] for d in dec)
    projections = sum(d["projections"] for d in dec)
    loads = sum(1 for i in range(n) if "store.load" in per_req.get(i, {}))
    saves = sum(1 for i in range(n) if "store.save" in per_req.get(i, {}))

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "protocol.parse_us": mean(ip(i, "protocol.parse") for i in range(n)),
        "protocol.format_us": mean(ip(i, "protocol.format") for i in range(n)),
        "net.transport_us": mean(transport),
        "service.queue_wait_us": mean(ds(i, "queue_wait") for i in range(n)),
        "service.coalesced_wait_us":
            mean(ds(i, "coalesced_wait") for i in range(n)),
        "service.overhead_us":
            mean(resp_lat[i] - frontdoor[i] for i in range(n)),
        "service.frontdoor_us": mean(frontdoor),
        "service.coalesced_joins": stat_delta(last, "coalesced_joins"),
        "service.resume_leads": stat_delta(last, "resume_leads"),
        "service.single_flight_leads": stat_delta(last, "single_flight_leads"),
        "cache.key_us": mean(ip(i, "cache.key") for i in range(n)),
        "cache.lookup_us": mean(ds(i, "cache_lookup") for i in range(n)),
        "cache.hit_rate": ratio(hits, hits + misses),
        "cache.evictions": stat_delta(last, "cache_evictions"),
        "store.load_us": mean(ds(i, "store_load") for i in range(n)),
        "store.save_us": mean(ds(i, "store_save") for i in range(n)),
        "store.load_probe_us": ratio(totals.get("store.load", 0.0), loads),
        "store.save_probe_us": ratio(totals.get("store.save", 0.0), saves),
        "store.loads": stat_delta(last, "store_loads"),
        "store.pack_loads": stat_delta(last, "store_pack_loads"),
        "store.loose_loads": stat_delta(last, "store_loose_loads"),
        "store.writes": stat_delta(last, "store_writes"),
        "store.save_skips": stat_delta(last, "store_save_skips"),
        "store.load_failures": stat_delta(last, "store_load_failures"),
        "store.bytes": persisted.store_bytes,
        "engine.bfs_us": mean(ds(i, "bfs", "bfs_replay") for i in range(n)),
        "engine.witness_us": mean(ds(i, "witness") for i in range(n)),
        "graph.sweep_us": mean(ds(i, *SWEEP_SPANS) for i in range(n)),
        "graph.build_full_us":
            ratio(totals.get("graph.build_full", 0.0), len(dec)),
        "graph.members_generated": counts["members_generated"],
        "graph.members_enumerated": counts["members"],
        "graph.edges": counts["edges"],
        "graph.shapes": sum(d["shapes"] for d in dec),
        "engine.configs": counts["configs"],
        "graph.enumerated_per_generated": ratio(enumerated, generated),
        "graph.edges_per_guard_eval": ratio(edges, guard_evals),
        "logic.guard_evals": guard_evals,
        "logic.guard_eval_ns":
            ratio(totals.get("logic.guard_eval", 0.0) * 1e3, evals),
        "intern.project_ns":
            ratio(totals.get("intern.project", 0.0) * 1e3, projections),
        "intern.raw_memo_hit_frac":
            ratio(sum(d["raw_hits"] for d in dec), projections),
        "fraisse.generate_us":
            ratio(totals.get("fraisse.generate", 0.0), fam.get("fraisse", 0)),
        "words.generate_us":
            ratio(totals.get("words.generate", 0.0), fam.get("words", 0)),
        "trees.generate_us":
            ratio(totals.get("trees.generate", 0.0), fam.get("trees", 0)),
        "trace.overhead_frac": med(client_traced) / med(client_plain) - 1.0,
        "trace.unattributed_frac": med(unattributed) / med(client_traced),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


# ---- main ----

def run_all(args):
    """Runs every workload in turn and prints each metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("%s: failed (exit %d)" % (name, out.returncode))
            status = 1
            continue
        result = json.loads(lines[-1])
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for metric, v in result["metrics"].items():
            print("  %-32s %14.6g %s" % (metric, v["value"], v["unit"]))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its daemons (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)

    try:
        binary, layers_bin, build_type = build()
        os.sched_setaffinity(0, {ALL_CPUS[-1]})
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    # The run directory is left in place: on the development VM, deleting a
    # run's few thousand store files (the file system frees blocks with
    # discard) halved the speed of the store workload for the next minute,
    # so every run after it measured the deletion instead of the daemon.
    rundir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(rundir)
    log("run directory: %s" % os.path.relpath(rundir))
    try:
        return measure(args, binary, layers_bin, build_type, rundir)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("run failed: %s" % e)
        return 1


def measure(args, binary, layers_bin, build_type, rundir):
    w = workloads.WORKLOADS[args.workload](args.seed)
    specs = [workloads.spec_bytes(q) for q in w.lines]
    all_specs = specs + [workloads.spec_bytes(q) for q, _, _ in
                         w.setup + w.populate]
    reference = reference_verdicts(layers_bin, rundir, all_specs)
    graphs = len(set(m["key"] for m in w.meta)
                 | set(k for _, k, _ in w.setup + w.populate))

    plain, traced = [], []
    failed = attempted = 0
    snapshot = os.path.join(rundir, "snapshot") if w.populate else None

    # A probe before the first round and after every round: a round's scale
    # uses the two around it.
    probes = [host_slowdown(layers_bin)]

    def checked_round(trace, with_store):
        nonlocal failed, attempted
        store = os.path.join(rundir, "store%d" % len(probes))
        r = run_round(w, binary, rundir, store, specs, trace, with_store,
                      snapshot)
        probes.append(host_slowdown(layers_bin))
        r.scale = 2.0 / (probes[-2] + probes[-1])
        responses, bad = check_round(r, specs, reference)
        failed += bad
        attempted += len(specs)
        return r, responses

    deadline = time.monotonic() + args.seconds
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            (traced if trace else plain).append(
                checked_round(trace, w.store_in_rounds))
        if time.monotonic() >= deadline and len(plain) >= 2:
            break
    # The store the workload's graphs persist to: the rounds' own, or for a
    # workload measured without one, one more round with a store attached.
    if w.store_in_rounds:
        persisted = plain[-1][0]
        store_kb = statistics.median(r.store_bytes for r, _ in plain)
    else:
        persisted = checked_round(False, True)[0]
        store_kb = persisted.store_bytes
    store_kb /= 1024.0 * graphs

    # Exact work counts: every round of a single-connection workload must
    # reproduce the same totals.
    counts = [work_counts(resps) for _, resps in plain]
    work = dict(counts[0])
    last = plain[-1][0]
    work.update(store_bytes=persisted.store_bytes,
                store_writes=persisted.store_writes,
                rounds=len(plain))
    if w.connections == 1 and any(c != counts[0] for c in counts):
        failed += 1
        log("work counts differ between same-seed rounds: %s" % counts)
    durability = None
    if w.populate:
        bad, keys = durability_check(w, binary, rundir, persisted.store_dir,
                                     specs, reference)
        failed += bad
        durability = {"keys_checked": keys, "not_served": bad}

    print(json.dumps({"host": host_context(layers_bin, build_type, last,
                                           probes)}))
    print(json.dumps({"inputs": input_properties(w, specs, reference)}))
    print(json.dumps({"work": work, "durability": durability}))

    if args.trace:
        inproc = run_layers(w, layers_bin, rundir, specs, snapshot)
        metrics = per_layer(w, plain, traced, inproc, persisted)
    else:
        rounds = [r for r, _ in plain]
        print(json.dumps({"unscaled": end_to_end(rounds, failed, attempted,
                                                 store_kb, scaled=False)}))
        metrics = end_to_end(rounds, failed, attempted, store_kb)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if not correct:
        log("FAILED: %d of %d lines wrong" % (failed, attempted))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
