#!/usr/bin/env python3
"""End-to-end smoke pass over the built binaries (the CI `smoke` job).

Phases, in order:
  telemetry    Table I at ci scale and an async run with --telemetry-out:
               Chrome trace, JSONL gauges and latency histograms; Table I's
               CSV must equal the committed bench_results/table1.csv byte
               for byte (the ci-scale table is deterministic).
  convergence  seq/sync/async/coll/hybrid and simulated async with the
               anytime recorder: convergence.jsonl schema, monotone
               hypervolume, per-worker insertion attribution.
  obs          a one-shot `--serve -1` run: /metrics exposition, live
               /status front, /healthz, /buildinfo, and the partial
               RunResult flushed on SIGINT (DESIGN.md §10).
  jobs         one `--serve-jobs` server with JSONL debug logging: the job
               lifecycle, causal tracing, the golden RunResult, p99
               submit-to-first-front < 2 s over a burst, and the log
               plane's trace correlation (DESIGN.md §12, §13).
  profile      a server with --profile-hz: folded stacks, speedscope,
               introspection (DESIGN.md §14).
  perf         the 400-customer end-to-end sweep: pruned sampling reaches
               the uniform reference no slower (DESIGN.md §11).
  overheads    one micro_telemetry run writing the four overhead records;
               each guard is then its own phase.
  perfbench    the benchmark's output checks on a short pruned-1000 pass.

Build first (Release, into build/):
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j --target solver_cli table1_400_small_tw \\
      micro_telemetry micro_evaluation

Run from anywhere:
  python3 scripts/smoke.py [--write-golden]

Every output goes to smoke/ at the repository root, which each run empties
first.  A failed check fails its phase and the remaining phases still run;
the script then lists every failed phase and exits 1.  --write-golden
refreshes tests/golden/job_smoke_result.golden.json from this build instead
of comparing against it.
"""

import argparse
import contextlib
import copy
import difflib
import functools
import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = "smoke"
SOLVER_CLI = "build/examples/solver_cli"
MICRO_TELEMETRY = "build/bench/micro_telemetry"
GOLDEN = "tests/golden/job_smoke_result.golden.json"
TABLE1_CSV = "bench_results/table1.csv"
COMMAND_TIMEOUT_S = 1200

GOLDEN_JOB = {
    "instance": "R1_1_1",
    "algorithm": "seq",
    "params": {
        "evaluations": 3000,
        "neighborhood": 40,
        "restart_after": 15,
        "seed": 7,
    },
}

QUICK_JOB = {
    "instance": "R1_1_1",
    "algorithm": "seq",
    "params": {
        "evaluations": 2000,
        "neighborhood": 40,
        "restart_after": 15,
        "seed": 11,
    },
}

LONG_JOB = {
    "instance": "R1_1_1",
    "algorithm": "async",
    "processors": 3,
    "params": {"evaluations": 500000000, "neighborhood": 60, "seed": 3},
}

BURST_JOBS = 24
P99_BOUND_S = 2.0


class CheckFailed(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailed(message)
    print(f"ok: {message}")


def out(name):
    return os.path.join(OUT, name)


def save(name, text):
    with open(out(name), "w") as fh:
        fh.write(text)


def load_json(name):
    with open(out(name)) as fh:
        return json.load(fh)


def load_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def run(*argv, env=None, cwd=None):
    """Runs one command to completion; a non-zero exit fails the phase."""
    print("$", " ".join(argv))
    full_env = dict(os.environ, **env) if env else None
    code = subprocess.run(argv, env=full_env, cwd=cwd,
                          timeout=COMMAND_TIMEOUT_S).returncode
    check(code == 0, f"{os.path.basename(argv[0])} exited 0 (got {code})")


def check_same_bytes(got_path, want_path):
    """Fails unless the two files are byte-identical; prints a diff."""
    with open(got_path, "rb") as fh:
        got = fh.read()
    with open(want_path, "rb") as fh:
        want = fh.read()
    if got != want:
        sys.stdout.writelines(difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            got.decode(errors="replace").splitlines(keepends=True),
            want_path, got_path))
    check(got == want, f"{got_path} equals the committed {want_path}")


# ---------------------------------------------------------------- HTTP


def fetch(port, method, path, payload=None):
    """Returns (status, body text). Never raises on HTTP errors."""
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as res:
            return res.status, res.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def request(port, method, path, payload=None):
    """Returns (status, parsed JSON or the raw text)."""
    status, text = fetch(port, method, path, payload)
    try:
        return status, json.loads(text)
    except json.JSONDecodeError:
        return status, text


def archive(port, path, name):
    """GETs `path`, keeps the body as smoke/<name>, returns it."""
    status, text = fetch(port, "GET", path)
    check(status == 200, f"GET {path} answered 200 (got {status})")
    save(name, text)
    return text


@contextlib.contextmanager
def serving(name, *flags):
    """Runs `solver_cli flags` with its output in smoke/<name>.log and
    yields the port it announces.  On exit the server gets SIGINT, a
    bounded wait and must exit 0; the log's tail is printed either way."""
    log_path = out(f"{name}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([SOLVER_CLI, *flags], stdout=log,
                                stderr=subprocess.STDOUT)
    try:
        yield announced_port(proc, log_path)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        with open(log_path) as fh:
            tail = fh.readlines()[-5:]
        print(f"-- {log_path} (last {len(tail)} lines)")
        print("".join(tail), end="")
    check(code == 0, f"{name} server exited 0 on SIGINT (got {code})")


def announced_port(proc, log_path):
    """Waits up to 10 s for the 'on http://127.0.0.1:<port>' line both
    server kinds print once they listen; returns the port."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with open(log_path) as fh:
            m = re.search(r"on http://127\.0\.0\.1:(\d+)", fh.read())
        if m:
            print(f"{log_path}: serving on port {m.group(1)}")
            return int(m.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    raise CheckFailed(f"{log_path}: no port announced within 10 s "
                      f"(exit status {proc.poll()})")


# ----------------------------------------------------- telemetry phase


def phase_telemetry():
    # Table I writes bench_results/table1.csv under its working directory,
    # so it runs in smoke/table1 and its table is compared, not rewritten.
    table_dir = out("table1")
    os.makedirs(table_dir)
    run(os.path.join(ROOT, "build/bench/table1_400_small_tw"),
        "--telemetry-out", os.path.join(ROOT, out("table1_trace.json")),
        env={"TSMO_BENCH_SCALE": "ci"}, cwd=table_dir)
    check_same_bytes(os.path.join(table_dir, TABLE1_CSV), TABLE1_CSV)
    run(SOLVER_CLI, "--instance", "R1_1_1", "--algorithm", "async",
        "--processors", "3", "--evaluations", "4000", "--quiet",
        "--telemetry-out", out("async_trace.json"),
        "--json", out("async_run.json"))

    trace = load_json("table1_trace.json")
    events = trace["traceEvents"]
    check(isinstance(events, list) and events, "Table I trace is non-empty")
    kinds = {e["ph"] for e in events}
    check("X" in kinds and "M" in kinds,
          f"Table I trace has X and M events (got {sorted(kinds)})")
    lines = load_jsonl(out("table1_trace.jsonl"))
    gauges = {l["name"] for l in lines if l["kind"] == "gauge"}
    for suffix in (".busy_ns", ".idle_ns"):
        check(any(g.startswith("worker.") and g.endswith(suffix)
                  for g in gauges),
              f"a worker.<id>{suffix} gauge is present")
    hists = {l["name"]: l for l in lines if l["kind"] == "histogram"}
    for name in ("move.price_ns", "archive.insert_ns"):
        h = hists[name]
        check(h["count"] > 0 and h["p50_ns"] > 0
              and h["p99_ns"] >= h["p50_ns"],
              f"{name} histogram is populated and ordered ({h})")
    run_doc = load_json("async_run.json")
    check(run_doc["iterations_per_second"] > 0,
          "async run reports iterations_per_second")
    check(run_doc["telemetry_path"] == out("async_trace.json"),
          f"async run names its trace ({run_doc['telemetry_path']})")
    load_json("async_trace.json")
    print("telemetry output OK:", len(events), "events,", len(gauges),
          "gauges,", len(hists), "histograms")


# --------------------------------------------------- convergence phase


def first_decrease(samples, key):
    """First sample whose `key` falls more than 1e-9 below its
    predecessor's, or None."""
    prev = 0.0
    for s in samples:
        if s[key] < prev - 1e-9:
            return s
        prev = s[key]
    return None


def phase_convergence():
    os.makedirs(out("convergence"))
    for algo in ("seq", "sync", "async", "coll", "hybrid"):
        run(SOLVER_CLI, "--instance", "R1_1_1", "--algorithm", algo,
            "--processors", "4", "--evaluations", "12000", "--seed", "3",
            "--quiet", "--sample-iters", "10",
            "--convergence-out", out(f"convergence/{algo}.jsonl"))
    run(SOLVER_CLI, "--instance", "R1_1_1", "--algorithm", "async",
        "--simulate", "--processors", "4", "--evaluations", "12000",
        "--seed", "3", "--quiet", "--sample-iters", "10",
        "--convergence-out", out("convergence/sim-async.jsonl"))

    fields = ("searcher", "iteration", "evaluations", "t_ns", "hv",
              "hv_global", "archive_size", "spacing", "eps_to_final")
    required = {"meta", "engine_start", "engine_finish", "sample",
                "insertion", "attribution"}
    for path in sorted(glob.glob(out("convergence/*.jsonl"))):
        lines = load_jsonl(path)
        check(lines and lines[0]["event"] == "meta",
              f"{path}: starts with a meta event")
        meta = lines[0]
        check(meta["version"] == 1 and meta["finalized"]
              and len(meta["reference"]) == 3,
              f"{path}: meta is version 1, finalized, 3-d reference")
        kinds = {l["event"] for l in lines}
        check(required <= kinds,
              f"{path}: every event kind present (got {sorted(kinds)})")
        samples = [l for l in lines if l["event"] == "sample"]
        incomplete = [l for l in samples if not all(f in l for f in fields)]
        check(not incomplete,
              f"{path}: every sample carries all fields {incomplete[:1]}")
        bad = first_decrease(samples, "hv_global")
        check(bad is None,
              f"{path}: hv_global monotone within 1e-9 ({bad})")
        by_searcher = {}
        for s in samples:
            by_searcher.setdefault(s["searcher"], []).append(s)
        bad = next(filter(None, (first_decrease(v, "hv")
                                 for v in by_searcher.values())), None)
        check(bad is None,
              f"{path}: per-searcher hv monotone within 1e-9 ({bad})")
        bad = next((s for s in samples if s["eps_to_final"] < 0), None)
        check(bad is None, f"{path}: eps_to_final never negative ({bad})")
        inserts = [l for l in lines if l["event"] == "insertion"]
        rows = [l for l in lines if l["event"] == "attribution"]
        check(sum(r["insertions"] for r in rows) == len(inserts),
              f"{path}: attribution sums to the {len(inserts)} insertions")
        check(any(i["survived"] for i in inserts),
              f"{path}: some insertion survived")
        print(f"{path}: {len(inserts)} insertions, {len(samples)} samples "
              f"over {len(by_searcher)} searchers")
    # The threaded engines must attribute insertions to generation
    # workers, not only to the masters themselves.
    workers = {l["worker"]
               for algo in ("async", "hybrid")
               for l in load_jsonl(out(f"convergence/{algo}.jsonl"))
               if l["event"] == "insertion"}
    check(any(w >= 0 for w in workers),
          f"async/hybrid attribute insertions to workers {sorted(workers)}")


# ----------------------------------------------------------- obs phase


def phase_obs():
    with serving("obs", "--instance", "R1_2_1", "--algorithm", "async",
                 "--processors", "4", "--evaluations", "60000000",
                 "--seed", "3", "--quiet", "--serve", "-1",
                 "--postmortem", out("postmortem.json"),
                 "--json", out("run.json")) as port:
        # The server answers before the search starts: wait for the
        # recorder to attach and the front to fill.
        deadline = time.monotonic() + 30
        status = {}
        while time.monotonic() < deadline:
            _, status = request(port, "GET", "/status")
            if status.get("attached") and status.get("front_size", 0) > 0:
                break
            time.sleep(0.05)
        check(status.get("attached") and status.get("front_size", 0) > 0,
              "the live run attached and has a front")
        metrics = archive(port, "/metrics", "metrics.prom")
        status = json.loads(archive(port, "/status", "status.json"))
        health = json.loads(archive(port, "/healthz", "healthz.json"))
        build = json.loads(archive(port, "/buildinfo", "buildinfo.json"))

    families = set()
    malformed = []
    for line in filter(None, metrics.splitlines()):
        m = re.match(r"# (HELP|TYPE) (\S+)", line)
        if m:
            families.add(m.group(2))
        # RED duration buckets may carry an OpenMetrics-style exemplar
        # suffix: ... <value> # {trace_id="0x..."} <seconds>
        elif not re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+"
                          r"( # \{[^}]*\} \S+)?$", line):
            malformed.append(line)
    check(not malformed, f"every /metrics sample line is well-formed "
                         f"{malformed[:1]}")
    for needed in ("tsmo_obs_scrapes_total", "tsmo_pareto_hypervolume",
                   "tsmo_pareto_front_size"):
        check(needed in families, f"/metrics has the {needed} family")
    check(status["attached"] and status["engine"] == "async",
          f"/status attached to the async engine ({status['engine']})")
    check(status["front_size"] == len(status["front"]) > 0,
          f"/status front_size {status['front_size']} matches its front")
    check(health["status"] in ("ok", "stalled"),
          f"/healthz status is ok or stalled ({health['status']})")
    check(build["git_sha"], "/buildinfo carries a git sha")
    run_doc = load_json("run.json")
    check(run_doc["stopped_early"] and run_doc["front"],
          "SIGINT flushed a partial RunResult with a front")
    check(run_doc["build"]["git_sha"] == build["git_sha"],
          "the RunResult's build block matches /buildinfo")
    print("obs endpoints OK:", len(families), "metric families,",
          status["front_size"], "front points at interrupt")


# ---------------------------------------------------------- jobs phase


def submit(port, payload):
    status, doc = request(port, "POST", "/jobs", payload)
    check(status == 202, f"submit accepted with 202 (got {status}: {doc})")
    return doc["id"]


def wait_terminal(port, job_id):
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, doc = request(port, "GET", f"/jobs/{job_id}")
        if status == 200 and doc.get("state") in ("done", "failed",
                                                  "cancelled"):
            return doc
        time.sleep(0.02)
    raise CheckFailed(f"{job_id} not terminal within 120 s")


def first_front_latency(port, job_id, submitted_at):
    """Seconds from submit until a non-empty Pareto front is observable
    (live front while running, or the final front_size once done)."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, doc = request(port, "GET", f"/jobs/{job_id}")
        if status != 200:
            break
        if doc.get("live", {}).get("front_size", 0) > 0:
            return time.monotonic() - submitted_at
        if doc.get("state") == "done" and doc.get("front_size", 0) > 0:
            return time.monotonic() - submitted_at
        if doc.get("state") in ("failed", "cancelled"):
            break
        time.sleep(0.01)
    raise CheckFailed(f"no front ever observed for {job_id}")


def lifecycle_checks(port):
    status, doc = request(port, "GET", "/jobs")
    check(status == 200 and "jobs" in doc, "GET /jobs lists the job table")
    status, _ = request(port, "GET", "/jobs/job-999999")
    check(status == 404, "unknown job id is 404")
    status, _ = request(port, "POST", "/jobs", {"nonsense": True})
    check(status == 400, "malformed submission is 400")

    # Mid-run cancel: a job with an absurd budget must stop cooperatively
    # and still serve a partial result.
    job_id = submit(port, LONG_JOB)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        _, doc = request(port, "GET", f"/jobs/{job_id}")
        if doc.get("state") == "running":
            break
        time.sleep(0.02)
    status, _ = request(port, "DELETE", f"/jobs/{job_id}")
    check(status == 202, "DELETE on a running job is accepted")
    doc = wait_terminal(port, job_id)
    check(doc["state"] == "cancelled", "cancelled job reaches 'cancelled'")
    status, result = request(port, "GET", f"/jobs/{job_id}/result")
    check(status == 200 and result.get("stopped_early") is True,
          "cancelled job serves a partial result with stopped_early")
    check(result["evaluations"] < LONG_JOB["params"]["evaluations"],
          "partial result used only a fraction of the budget")


def trace_checks(port):
    """Causal tracing (DESIGN.md §13): the submit receipt advertises the
    trace endpoint, /jobs/<id>/trace serves Chrome-trace JSON whose parent
    links form a tree rooted at the 'job' span, and the RED histograms on
    /metrics carry a trace exemplar.  Returns the traced job's id."""
    body = copy.deepcopy(QUICK_JOB)
    body["params"]["telemetry"] = True  # engine spans join the skeleton
    status, doc = request(port, "POST", "/jobs", body)
    check(status == 202, "traced submit accepted")
    job_id = doc["id"]
    trace_id = doc.get("trace_id", "")
    zero = "0x" + 16 * "0"
    check(trace_id.startswith("0x") and trace_id != zero,
          f"submit receipt carries a non-zero trace_id ({trace_id})")
    check(doc.get("trace_url") == f"/jobs/{job_id}/trace",
          "submit receipt advertises the trace endpoint")
    final = wait_terminal(port, job_id)
    check(final["state"] == "done", "traced job completed")

    status, trace = request(port, "GET", f"/jobs/{job_id}/trace")
    check(status == 200 and isinstance(trace, dict),
          "/jobs/<id>/trace serves a JSON document")
    events = trace.get("traceEvents")
    check(isinstance(events, list) and events,
          "traceEvents is a non-empty array")
    spans = [e for e in events if e.get("ph") in ("X", "i")]
    names = {e["name"] for e in spans}
    check({"job", "job.run", "job.queue_wait"} <= names,
          f"manager skeleton spans present (got {sorted(names)})")
    span_ids = {e["args"]["span"] for e in spans}
    roots = [e for e in spans if e["args"]["parent"] == zero]
    check(len(roots) == 1 and roots[0]["name"] == "job",
          "exactly one root span, and it is 'job'")
    dangling = [e["name"] for e in spans
                if e["args"]["parent"] != zero
                and e["args"]["parent"] not in span_ids]
    check(not dangling,
          f"every parent link resolves inside the trace ({dangling})")
    check(all(e["args"]["trace"] == trace_id for e in spans),
          "every span is tagged with the job's trace id")
    other = trace.get("otherData", {})
    check(other.get("trace_id") == trace_id,
          "otherData repeats the trace id")
    check(other.get("spans") == len(spans) and "span_budget" in other,
          "otherData reports span counts and the budget")

    status, metrics = request(port, "GET", "/metrics")
    check(status == 200, "/metrics served")
    check("tsmo_http_requests_total{" in metrics,
          "RED request counters present")
    check("tsmo_http_request_duration_seconds_bucket{" in metrics,
          "RED duration histograms present")
    check(' # {trace_id="0x' in metrics,
          "slowest duration bucket carries a trace exemplar")
    return job_id


def validate_golden(result, write_golden):
    if write_golden:
        with open(GOLDEN, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote golden: {GOLDEN}")
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    check(result["algorithm"] == golden["algorithm"], "algorithm matches")
    check(result["instance"]["name"] == golden["instance"]["name"],
          "instance matches golden")
    check(result["instance"]["customers"] == golden["instance"]["customers"],
          "customer count matches golden")
    check(result["evaluations"] == golden["evaluations"],
          "evaluation budget fully consumed as in the golden")
    check(not result.get("stopped_early"), "golden job ran to completion")
    front = result["front"]
    check(front, "front is non-empty")
    best = min(p["distance"] for p in front)
    gbest = min(p["distance"] for p in golden["front"])
    check(abs(best - gbest) <= 0.10 * gbest,
          f"best distance {best:.1f} within 10% of golden {gbest:.1f}")
    veh = min(p["vehicles"] for p in front)
    gveh = min(p["vehicles"] for p in golden["front"])
    check(abs(veh - gveh) <= 1,
          f"min vehicles {veh} within +/-1 of golden {gveh}")
    # Fingerprints are bit-exact per build but drift across compilers /
    # stdlibs, so a mismatch is a warning, not a failure.
    for key in ("archive_fingerprint", "trace_fingerprint"):
        if result.get(key) != golden.get(key):
            print(f"warn: {key} {result.get(key)} != golden "
                  f"{golden.get(key)} (cross-build drift is expected)")
        else:
            print(f"ok: {key} matches golden bit-for-bit")


def submit_with_backoff(port, payload):
    """Submits, honoring 429 admission control: backs off for the
    advertised Retry-After (capped for smoke speed) and retries."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, doc = request(port, "POST", "/jobs", payload)
        if status == 202:
            return doc["id"]
        check(status == 429,
              f"only 429 may defer a well-formed submit (got {status})")
        time.sleep(min(0.05, float(doc.get("retry_after_seconds", 1))))
    raise CheckFailed("queue never drained below capacity")


def percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def latency_burst(port):
    """Submits a burst of quick jobs back-to-back, writes throughput and
    submit-to-first-front percentiles to smoke/job_api_latency.json and
    guards the p99."""
    submitted = []
    t0 = time.monotonic()
    for i in range(BURST_JOBS):
        body = copy.deepcopy(QUICK_JOB)
        body["params"]["seed"] = 11 + i  # distinct runs, same shape
        submitted.append((submit_with_backoff(port, body), time.monotonic()))
    latencies = [first_front_latency(port, job_id, at)
                 for job_id, at in submitted]
    for job_id, _ in submitted:
        doc = wait_terminal(port, job_id)
        check(doc["state"] == "done", f"{job_id} completed")
    elapsed = time.monotonic() - t0
    p99 = percentile(latencies, 0.99)
    record = {
        "instance": QUICK_JOB["instance"],
        "burst_jobs": BURST_JOBS,
        "jobs_per_second": round(BURST_JOBS / elapsed, 3),
        "submit_to_first_front_seconds": {
            "p50": round(percentile(latencies, 0.50), 4),
            "p99": round(p99, 4),
            "max": round(max(latencies), 4),
        },
        "p99_bound_seconds": P99_BOUND_S,
        "within_bound": p99 < P99_BOUND_S,
    }
    save("job_api_latency.json", json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    check(record["within_bound"],
          f"p99 submit-to-first-front {p99:.3f}s < {P99_BOUND_S}s")


def phase_jobs(write_golden):
    with serving("jobs", "--serve-jobs", "--serve", "0", "--job-workers",
                 "2", "--log-level", "debug", "--log-out",
                 out("server.jsonl"), "--quiet") as port:
        lifecycle_checks(port)
        traced = trace_checks(port)
        trace = json.loads(archive(port, f"/jobs/{traced}/trace",
                                   f"{traced}.trace.json"))
        metrics = archive(port, "/metrics", "jobs_metrics.prom")

        job_id = submit(port, GOLDEN_JOB)
        doc = wait_terminal(port, job_id)
        check(doc["state"] == "done", "golden job completed")
        status, result = request(port, "GET", f"/jobs/{job_id}/result")
        check(status == 200, "golden job result served")
        validate_golden(result, write_golden)

        latency_burst(port)

    # The log plane, read once the server has stopped and flushed it.
    lines = load_jsonl(out("server.jsonl"))
    check(lines, "log plane emitted events")
    partial = [l for l in lines
               if not {"t_ns", "level", "component", "msg"} <= set(l)]
    check(not partial, f"every log event has t_ns/level/component/msg "
                       f"{partial[:1]}")
    trace_id = trace["otherData"]["trace_id"]
    correlated = [l for l in lines if l.get("trace_id") == trace_id]
    check(correlated, f"log events correlate to {traced}'s trace {trace_id}")
    states = {l["msg"] for l in correlated}
    check({"accepted", "finish"} <= states,
          f"correlated events include accepted and finish ({states})")
    check(' # {trace_id="0x' in metrics,
          "archived /metrics carries a trace exemplar")
    print(f"log plane OK: {len(lines)} events, {len(correlated)} "
          f"correlated to {trace_id}")


# ------------------------------------------------------- profile phase


def validate_folded(text, context):
    """Folded-stack syntax (DESIGN.md §14): every non-empty line is
    "frame(;frame)* <count>" with no empty frame and a positive integer
    count; returns the total sample count."""
    lines = list(filter(None, text.splitlines()))

    def well_formed(line):
        stack, _, count = line.rpartition(" ")
        return (stack != "" and count.isdigit() and int(count) > 0
                and all(stack.split(";")))

    bad = next((line for line in lines if not well_formed(line)), None)
    check(bad is None, f"{context}: every folded line is well-formed "
                       f"with no empty frame name ({bad!r})")
    return sum(int(line.rpartition(" ")[2]) for line in lines)


def profile_checks(port):
    """The server (started with --profile-hz) serves whole-process folded
    stacks on /debug/profile, per-job stacks on /jobs/<id>/profile
    filtered to that job's trace, speedscope JSON on ?format=speedscope,
    and live introspection on /jobs/<id>/introspect.  Returns the profiled
    job's id."""
    status, health = request(port, "GET", "/healthz")
    check(status == 200 and "profiler" in health,
          "/healthz reports a profiler section")
    profiler = health["profiler"]
    check(profiler.get("supported"), "profiler supported on this platform")
    check(profiler.get("enabled") and profiler.get("rate_hz", 0) > 0,
          "profiler armed (serve with --profile-hz)")

    body = copy.deepcopy(QUICK_JOB)
    body["params"]["evaluations"] = 400000
    body["params"]["introspect"] = True
    status, doc = request(port, "POST", "/jobs", body)
    check(status == 202, "profiled submit accepted")
    job_id = doc["id"]
    check(doc.get("profile_url") == f"/jobs/{job_id}/profile",
          "submit receipt advertises the profile endpoint")
    check(doc.get("introspect_url") == f"/jobs/{job_id}/introspect",
          "submit receipt advertises the introspect endpoint")

    # Whole-process window while the job burns CPU.
    status, folded = request(port, "GET", "/debug/profile?seconds=2")
    check(status == 200 and isinstance(folded, str),
          "/debug/profile serves folded text")
    total = validate_folded(folded, "/debug/profile")
    check(total > 0, f"windowed profile captured samples ({total})")

    final = wait_terminal(port, job_id)
    check(final["state"] == "done", "profiled job completed")

    status, folded = request(port, "GET", f"/jobs/{job_id}/profile")
    check(status == 200 and isinstance(folded, str),
          "/jobs/<id>/profile serves folded text")
    total = validate_folded(folded, f"/jobs/{job_id}/profile")
    check(total > 0, f"per-job profile captured samples ({total})")

    status, ss = request(port, "GET",
                         f"/jobs/{job_id}/profile?format=speedscope")
    check(status == 200 and isinstance(ss, dict),
          "speedscope format serves JSON")
    check(ss.get("profiles") and ss["profiles"][0].get("type") == "sampled",
          "speedscope document holds a sampled profile")

    status, intro = request(port, "GET", f"/jobs/{job_id}/introspect")
    check(status == 200 and isinstance(intro, dict),
          "/jobs/<id>/introspect serves JSON")
    check(intro.get("search", {}).get("steps", 0) > 0,
          "introspection counted search steps")
    ops = intro.get("operators", {})
    check(ops and all("proposed" in v for v in ops.values()),
          f"per-operator funnel present ({sorted(ops)})")
    return job_id


def phase_profile():
    with serving("profile", "--serve-jobs", "--serve", "0", "--job-workers",
                 "2", "--profile-hz", "199", "--quiet") as port:
        job_id = profile_checks(port)
        process = archive(port, "/debug/profile?seconds=0",
                          "process.folded")
        job = archive(port, f"/jobs/{job_id}/profile", f"{job_id}.folded")
        ss = json.loads(archive(port,
                                f"/jobs/{job_id}/profile?format=speedscope",
                                f"{job_id}.speedscope.json"))
        intro = json.loads(archive(port, f"/jobs/{job_id}/introspect",
                                   f"{job_id}.introspect.json"))
        metrics = archive(port, "/metrics", "profile_metrics.prom")

    check(process.strip(), "archived whole-process profile is non-empty")
    validate_folded(process, "archived process.folded")
    check(job.strip(), "archived per-job profile is non-empty")
    prof = ss["profiles"][0]
    check(prof["type"] == "sampled", "archived speedscope is sampled")
    check(len(prof["samples"]) == len(prof["weights"]) > 0,
          f"speedscope samples and weights pair up "
          f"({len(prof['samples'])}, {len(prof['weights'])})")
    check(intro["search"]["steps"] > 0, "archived introspection has steps")
    check(intro["operators"], "archived introspection has operators")
    for family in ("tsmo_profiler_samples_total",
                   "tsmo_process_resident_memory_bytes",
                   "tsmo_process_cpu_seconds_total"):
        check(family in metrics, f"/metrics has {family}")
    print("profile bodies OK:", len(process.splitlines()),
          "process stacks,", len(prof["samples"]), "speedscope samples,",
          len(intro["operators"]), "operators")


# ---------------------------------------------------------- perf phase


def phase_perf():
    run("build/bench/micro_evaluation", out("delta_eval_speedup.json"),
        "--benchmark_filter=^$", env={"TSMO_PERF_SIZES": "400"})
    check(os.path.getsize(out("delta_eval_speedup.json")) > 0,
          "speedup record written")
    e2e = load_json("delta_eval_speedup.json")["end_to_end"]
    check(e2e["instances"], "end-to-end instances recorded")
    for inst in e2e["instances"]:
        pr = inst["pruned"]
        check(pr["reached_target"],
              f"{inst['instance']}: pruned reached the reference "
              f"hypervolume in {pr['iterations']} it / "
              f"{pr['seconds']:.4f}s")
        check(pr["speedup"] >= 1.0,
              f"{inst['instance']}: pruned speedup x{pr['speedup']:.1f} "
              f">= 1.0")
    print("geomean speedup at 400 customers: "
          f"x{e2e['speedup_by_customers']['400']:.1f}")


# ------------------------------------------------- overhead guard phases

# (guard, record, reading) in micro_telemetry's positional record order.
GUARDS = (
    ("recorder", "anytime_overhead.json",
     "recorder overhead {overhead_percent:.2f}%"),
    ("obs scrape", "obs_overhead.json",
     "1 Hz scrape overhead {overhead_percent:.2f}% "
     "({scrapes_answered} scrapes answered)"),
    ("trace", "trace_overhead.json",
     "tracing overhead {overhead_percent:.2f}% ({spans_seen} spans)"),
    ("profiler", "profiler_overhead.json",
     "sampling overhead {overhead_percent:.2f}% at {rate_hz} Hz "
     "({samples_captured} samples)"),
)


def phase_overheads():
    run(MICRO_TELEMETRY, "--benchmark_min_time=0.5",
        "--benchmark_filter=BM_hot_loop|BM_span|BM_prometheus_render",
        *(out(record) for _, record, _ in GUARDS))


def guard(record, reading):
    rec = load_json(record)
    check(rec["within_bound"],
          f"{reading.format(**rec)} < {rec['bound_percent']}% bound")


def phase_perfbench():
    # Builds perfbench from this checkout and runs its output checks:
    # every front re-evaluated bitwise from its routes, every repeated
    # solve's fingerprint equal.
    run(sys.executable, "perfbench/run.py", "--workload", "pruned-1000",
        "--seed", "1", "--seconds", "5", "--trace", "0")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    ap.add_argument("--write-golden", action="store_true",
                    help=f"refresh {GOLDEN} from this build")
    args = ap.parse_args()

    sys.stdout.reconfigure(line_buffering=True)
    os.chdir(ROOT)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)

    phases = [
        ("telemetry", phase_telemetry),
        ("convergence", phase_convergence),
        ("obs", phase_obs),
        ("jobs", lambda: phase_jobs(args.write_golden)),
        ("profile", phase_profile),
        ("perf", phase_perf),
        ("overheads", phase_overheads),
        *((f"guard: {name}", functools.partial(guard, record, reading))
          for name, record, reading in GUARDS),
        ("perfbench", phase_perfbench),
    ]
    failed = []
    t_start = time.monotonic()
    for name, phase in phases:
        print(f"\n=== {name}")
        t0 = time.monotonic()
        try:
            phase()
            verdict = "ok"
        except CheckFailed as err:
            verdict = f"FAIL: {err}"
        except Exception as err:  # a crash or a timeout fails the phase too
            verdict = f"FAIL: {type(err).__name__}: {err}"
        print(f"=== {name}: {verdict} ({time.monotonic() - t0:.1f} s)")
        if verdict != "ok":
            failed.append((name, verdict))

    print(f"\nsmoke: {len(phases) - len(failed)} of {len(phases)} phases "
          f"passed in {time.monotonic() - t_start:.0f} s")
    for name, verdict in failed:
        print(f"  {name}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
