#!/usr/bin/env python3
"""Benchmark of the Choreographer tool chain, run through its executables.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads (see perfbench/DESIGN.md for why each exists):
  uml_roundtrip  choreographer pipeline on a seeded PDA journey + Tomcat project
  daemon_mix     a seeded request mix against choreographerd, two connections
  exact_solve    pepa-workbench solve --method bicgstab on a 3-station tandem;
                 traced in every --trace 1 run, but not one of
                 BENCHMARK.json's workloads (DESIGN.md, "Steadiness")

With --trace 0 the last stdout line is the end-to-end result; with
--trace 1 it carries the per-layer numbers of all three workloads,
timed around the layers' public calls by perfbench/perfbench.exe.
One-shot timings are scaled to a reference host speed (HostSpeed).
"""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

BIN = os.path.join("_build", "default", "bin")
HELPER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CHOREOGRAPHER = os.path.join(BIN, "choreographer_main.exe")
WORKBENCH = os.path.join(BIN, "workbench_main.exe")
DAEMON = os.path.join(BIN, "choreographerd_main.exe")
ASSETS = os.path.join("examples", "assets")
WORKLOADS = ("uml_roundtrip", "exact_solve", "daemon_mix")
SOURCES = ("dune-project", "bin", "lib", ASSETS, os.path.join("perfbench", "dune"))

# daemon_mix is bounded by request count, not time: the daemon keeps
# every solve's telemetry, so its memory and per-request cost grow with
# the number of requests served (DESIGN.md, finding 2).  A run is a
# series of daemon sessions of about SESSION_REQUESTS requests each,
# REQUESTS_PER_SECOND requests per second of --seconds in all, which
# fills the run at this commit; setup_s and peak_rss_mib are medians
# over the sessions.
REQUESTS_PER_SECOND = 80
SESSION_REQUESTS = 720


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and processes


def build(tmp):
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        raise BenchError("not a source checkout: missing " + ", ".join(missing))
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    # No shared dune cache, and the compilers' temporary files stay in
    # the checkout too.
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    targets = [CHOREOGRAPHER, WORKBENCH, DAEMON, HELPER]
    targets = [os.path.relpath(t, os.path.join("_build", "default")) for t in targets]
    r = subprocess.run(["dune", "build", "--root", ".", *targets], env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BenchError("build failed")


def child_env():
    # Every op runs the default configuration: no inherited switches
    # for the ledger, socket or runtime.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CHOREOGRAPHER_") and k != "OCAMLRUNPARAM"}


ENV = None


def timed_run(argv, cwd):
    """Run argv in cwd with stdout/stderr to files there; return
    (seconds, exit status, peak RSS in KiB) from the child's rusage."""
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=ENV)
        _, status, rusage = os.wait4(p.pid, 0)
        t1 = time.monotonic()
    p.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, p.returncode, rusage.ru_maxrss


# On a 2-vCPU KVM guest (Intel Xeon, 300 MiB L3) every CPU-bound process
# ran at one of two speeds ~1.4x apart, in phases of seconds to minutes
# (DESIGN.md, finding 1): raw one-shot medians moved 0.45 of their
# median between 30 s windows.  The one-shot workloads therefore time a
# fixed Python loop, which shares no code with the program, before and
# after every invocation, and scale its latency to a reference host
# speed: latency x PROBE_REFERENCE_S / (mean of the two probes).  That
# cut the window-to-window range to 0.05 for the pipeline and 0.14 for
# the tandem solve.  The unscaled median is printed beside the result.
PROBE_LOOPS = 150000
PROBE_REFERENCE_S = 0.008


def probe():
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Probes taken between invocations: mark() probes before one,
    factor() after it and returns the scale for it; that probe is also
    the one before the next invocation."""

    def __init__(self):
        self.before = probe()
        self.factors = []

    def mark(self):
        self.before = probe()

    def factor(self):
        after = probe()
        f = PROBE_REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        self.factors.append(f)
        return f

    def summary(self):
        q = quantiles(self.factors, n=4) if len(self.factors) > 1 else self.factors * 3
        return "host speed factor p25/p50/p75 %.3f/%.3f/%.3f" % tuple(q)


def helper(args, cwd=None, timeout=170):
    r = subprocess.run([os.path.abspath(HELPER), *map(str, args)], cwd=cwd, env=ENV,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("perfbench %s failed: %s" % (args[0], r.stderr.decode(errors="replace")[-2000:]))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def read(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Statistics


def tail(xs):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(xs)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def rotation(rng, k, n):
    """n op indices over k inputs in blocks, each block a seeded
    permutation holding the middle input twice and the others once, so
    every run has the same mix and the median op is a middle-sized one."""
    order = []
    while len(order) < n:
        block = list(range(k)) + [k // 2]
        rng.shuffle(block)
        order.extend(block)
    return order[:n]


# ---------------------------------------------------------------------------
# One-shot workloads


def op_argv(workload, inp):
    if workload == "uml_roundtrip":
        return [os.path.abspath(CHOREOGRAPHER), "pipeline", "-i", inp["xmi"], "-r", inp["rates"],
                "-o", "out.xmi", "--ledger", "ledger.jsonl"]
    return [os.path.abspath(WORKBENCH), "solve", inp["pepa"], "--method", "bicgstab",
            "--ledger", "ledger.jsonl"]


OUTPUTS = {"uml_roundtrip": ("stdout.txt", "stderr.txt", "out.xmi"),
           "exact_solve": ("stdout.txt", "stderr.txt")}


def tagged(xmi, tag):
    return [float(v) for v in re.findall(r'tag="%s" value="([^"]+)"' % tag, xmi)]


def table(stdout, heading):
    """name -> value rows of a rendered table ("throughput:" ...)."""
    rows, inside = {}, False
    for line in stdout.splitlines():
        if line == heading:
            inside = True
        elif inside and line.startswith("  "):
            name, value = line.split()
            rows[name] = float(value)
        elif inside:
            inside = False
    return rows


def verify_reference(workload, inp, d, direct):
    """Check the outputs of an input's first set-up invocation, which
    every later invocation on that input must reproduce byte for byte."""
    if workload == "uml_roundtrip":
        xmi = read(os.path.join(d, "out.xmi")).decode()
        tps = tagged(xmi, "throughput")
        want = inp["journey_throughput"]
        if len(tps) != inp["actions"]:
            return "%d reflected throughputs, expected %d" % (len(tps), inp["actions"])
        bad = [t for t in tps if abs(t - want) > 5e-6 * want]
        if bad:
            return "journey throughput %g, expected 1/sum(1/rate) = %.7g" % (bad[0], want)
        probs = tagged(xmi, "steadyStateProbability")
        if not probs or len(probs) != len(direct) or any(
                abs(a - b) > 1e-6 * max(b, 1e-12) for a, b in zip(probs, direct)):
            return "statechart probabilities differ from the --method direct run"
        return None
    tps = table(read(os.path.join(d, "stdout.txt")).decode(), "throughput:")
    flows = [tps.get(a) for a in ("arrive", "move1", "move2", "depart")]
    if None in flows or max(flows) - min(flows) > 2e-6 * max(flows):
        return "throughputs break flow conservation: %s" % flows
    return None


# Set-up is every input's first invocation, in a directory with no
# earlier output or ledger.  One set-up pass makes the reference
# outputs before the first measured op; the others are spread over the
# run, so that setup_s, their median, samples the host at several
# moments rather than at one (DESIGN.md, finding 1).
SETUP_PASSES = 4


def setup_pass(workload, inputs, d, host):
    """Run every input once, each in a fresh directory under d.
    Returns (scaled seconds for the whole pass, peak RSS KiB,
    directories)."""
    os.makedirs(d)
    total, rss, dirs = 0.0, 0, []
    host.mark()
    for i, inp in enumerate(inputs):
        sub = os.path.join(d, str(i))
        os.mkdir(sub)
        seconds, status, maxrss = timed_run(op_argv(workload, inp), sub)
        seconds *= host.factor()
        if status != 0:
            raise BenchError("%s set-up invocation exited %d: %s"
                             % (workload, status, read(os.path.join(sub, "stderr.txt"))[-500:]))
        total += seconds
        rss = max(rss, maxrss)
        dirs.append(sub)
    return total, rss, dirs


def setup_oneshot(workload, seed, wd, host):
    """Generate inputs, run the first set-up pass, whose outputs are the
    references, and verify them.  Returns (inputs, reference bytes,
    per-input reference failure, set-up seconds, peak RSS KiB,
    problems)."""
    inputs = helper(["gen", workload, seed, wd, os.path.abspath(ASSETS)])["inputs"]
    seconds, rss, refs = setup_pass(workload, inputs, os.path.join(wd, "setup0"), host)
    # Verification runs: not part of set-up time.
    problems = []
    direct = {}
    if workload == "uml_roundtrip":
        for i, inp in enumerate(inputs):
            d = os.path.join(wd, "direct%d" % i)
            os.mkdir(d)
            _, status, _ = timed_run(op_argv(workload, inp) + ["--method", "direct"], d)
            direct[i] = tagged(read(os.path.join(d, "out.xmi")).decode(), "steadyStateProbability") if status == 0 else []
    else:
        mid = inputs[len(inputs) // 2]["pepa"]
        x = helper(["xcheck", mid])
        # pi agrees to 1.4e-11 at this commit; throughputs, sums over
        # ~10^5 transitions of rate x pi, to 2.2e-10 on values near 1.5.
        if not (x["max_pi_diff"] <= 1e-10 and x["max_throughput_diff"] <= 1e-9):
            problems.append("gauss-seidel cross-check: %s" % x)
    ref_failures = [verify_reference(workload, inp, refs[i], direct.get(i)) for i, inp in enumerate(inputs)]
    problems += [f for f in ref_failures if f]
    ref_bytes = [{f: read(os.path.join(r, f)) for f in OUTPUTS[workload]} for r in refs]
    return inputs, ref_bytes, ref_failures, seconds, rss, problems


def op_failure(workload, k, d, status, ref_bytes, ref_failures):
    """Why the op on input k whose outputs are in d is wrong, or None."""
    if status != 0:
        return "exit %d" % status
    if ref_failures[k]:
        return ref_failures[k]
    if any(read(os.path.join(d, f)) != ref_bytes[k][f] for f in OUTPUTS[workload]):
        return "output differs from the verified first output"
    return None


def oneshot(workload, seed, seconds, wd):
    """Closed loop, one client: run ops back to back for `seconds`, with
    the remaining set-up passes at even intervals between them.  Every
    latency is scaled to the reference host speed (HostSpeed)."""
    host = HostSpeed()
    inputs, ref_bytes, ref_failures, setup0, rss, problems = setup_oneshot(workload, seed, wd, host)
    order = rotation(random.Random(seed), len(inputs), 100000)
    d = os.path.join(wd, "op")
    os.mkdir(d)
    setups = [setup0]
    lat, raw, failures, busy, attempted = [], [], [], 0.0, 0
    host.mark()
    t_start = time.monotonic()
    while attempted == 0 or time.monotonic() < t_start + seconds:
        due = t_start + seconds * len(setups) / SETUP_PASSES
        if len(setups) < SETUP_PASSES and time.monotonic() >= due:
            s, r, dirs = setup_pass(workload, inputs, os.path.join(wd, "setup%d" % len(setups)), host)
            setups.append(s)
            rss = max(rss, r)
            problems += [f for f in (op_failure(workload, i, sub, 0, ref_bytes, ref_failures)
                                     for i, sub in enumerate(dirs)) if f]
            continue
        k = order[attempted % len(order)]
        seconds_op, status, maxrss = timed_run(op_argv(workload, inputs[k]), d)
        scaled = seconds_op * host.factor()
        attempted += 1
        busy += scaled
        rss = max(rss, maxrss)
        f = op_failure(workload, k, d, status, ref_bytes, ref_failures)
        if f:
            failures.append(f)
        else:
            lat.append(scaled)
            raw.append(seconds_op)
    if not lat:
        raise BenchError("%s: no op succeeded: %s" % (workload, failures[:3]))
    t, pct, n = tail(lat)
    print("%s: %d ops, %d failed, %d set-up passes; op_tail_ms is p%.1f of %d samples; "
          "unscaled op p50 %.1f ms; %s; failures: %s"
          % (workload, attempted, len(failures), len(setups), pct, n, 1000 * median(raw),
             host.summary(), (problems + failures)[:3]))
    metrics = {
        "ops_per_s": metric(len(lat) / busy, "1/s"),
        "op_p50_ms": metric(1000 * median(lat), "ms"),
        "op_tail_ms": metric(1000 * t, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mib": metric(rss / 1024.0, "MiB"),
    }
    return not problems and not failures, attempted, len(failures), metrics


# ---------------------------------------------------------------------------
# daemon_mix


def daemon_setup_files(seed, wd):
    """The hot set as files, and the one-shot CLI's output for each."""
    hot_dir = os.path.join(wd, "hot")
    os.mkdir(hot_dir)
    hot = helper(["gen", "daemon_mix", seed, hot_dir, os.path.abspath(ASSETS)])["hot"]
    for h in hot:
        argv = [os.path.abspath(WORKBENCH), "solve", h["path"], "--aggregate", h["aggregate"],
                "--ledger", "ledger.jsonl"]
        _, status, _ = timed_run(argv, hot_dir)
        if status != 0:
            raise BenchError("CLI solve of %s exited %d" % (h["name"], status))
        os.replace(os.path.join(hot_dir, "stdout.txt"), h["path"] + ".out")
        os.replace(os.path.join(hot_dir, "stderr.txt"), h["path"] + ".err")
    return hot_dir


def daemon_instance(seed, requests, wd, hot_dir):
    """Start the client, which builds the sequence and its checks and
    says "ready"; then start choreographerd and hand the client its pid.
    The client checks the daemon answers stats, primes the hot set, sends
    `requests` requests, reads the daemon's memory and shuts it down.
    Returns (set-up seconds: daemon start to primed, client result)."""
    client = subprocess.Popen([os.path.abspath(HELPER), "client", str(seed), str(requests), "d.sock",
                               hot_dir, os.path.abspath(ASSETS)], cwd=wd, env=ENV,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    daemon = None
    try:
        if client.stdout.readline().strip() != b"ready":
            raise BenchError("perfbench client did not start: %s" % client.stderr.read()[-2000:])
        t0 = time.monotonic()
        with open(os.path.join(wd, "daemon.log"), "ab") as logf:
            daemon = subprocess.Popen([os.path.abspath(DAEMON), "--socket", "d.sock",
                                       "--ledger", "daemon-ledger.jsonl"],
                                      cwd=wd, stdout=logf, stderr=logf, env=ENV)
        out, err = client.communicate(b"%d\n" % daemon.pid, timeout=150)
        if client.returncode != 0:
            raise BenchError("perfbench client failed: %s" % err.decode(errors="replace")[-2000:])
        status = daemon.wait(timeout=20)
    finally:
        for p in (client, daemon):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
    if status != 0:
        raise BenchError("choreographerd exited %d after shutdown" % status)
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result["t_primed"] - t0, result


def sessions(seconds):
    """(number of sessions, requests per session) for a run."""
    total = REQUESTS_PER_SECOND * seconds
    n = max(1, int(round(total / SESSION_REQUESTS)))
    return n, max(20, int(round(total / n)))


def daemon_mix(seed, seconds, wd):
    hot_dir = daemon_setup_files(seed, wd)
    setups, hwm, lat, failures = [], [], [], []
    attempted, failed, phase = 0, 0, 0.0
    count, per_session = sessions(seconds)
    for session in range(count):
        s, r = daemon_instance(seed * 1000 + session, per_session, wd, hot_dir)
        setups.append(s)
        hwm.append(r["hwm_kib"])
        lat += [x for x, ok in zip(r["latency_s"], r["ok"]) if ok]
        attempted += len(r["latency_s"])
        failed += r["failed"]
        failures += r["failures"]
        phase += r["phase_s"]
    t, pct, n = tail(lat)
    print("daemon_mix: %d sessions, %d requests, %d failed; op_tail_ms is p%.1f of %d samples; failures: %s"
          % (count, attempted, failed, pct, n, failures[:3]))
    metrics = {
        "ops_per_s": metric((attempted - failed) / phase, "1/s"),
        "op_p50_ms": metric(1000 * median(lat), "ms"),
        "op_tail_ms": metric(1000 * t, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mib": metric(median(hwm) / 1024.0, "MiB"),
    }
    return failed == 0, attempted, failed, metrics


# ---------------------------------------------------------------------------
# Traced run: per-layer numbers of every workload


def layer_sums(op, scale=1.0):
    """Per-op totals of the top-level spans by name, times scaled by
    `scale`: (ms by layer, words by layer)."""
    ms, words = {}, {}
    for name, parent, t0, t1, w in op["spans"]:
        if parent == -1:
            ms[name] = ms.get(name, 0.0) + 1000 * (t1 - t0) * scale
            words[name] = words.get(name, 0.0) + w
    return ms, words


def traced_oneshot(workload, seed, seconds, wd, out):
    """Alternate an untraced CLI op with a traced op on the same input,
    so both see the same host conditions, for `seconds`.  The traced op
    is one `perfbench trace-op` process; both must write the verified
    reference outputs.  Both are scaled to the reference host speed,
    as in the untraced run."""
    host = HostSpeed()
    inputs, ref_bytes, ref_failures, _, _, problems = setup_oneshot(workload, seed, wd, host)
    order = rotation(random.Random(seed), len(inputs), 100000)
    cli_dir, traced_dir = os.path.join(wd, "cli"), os.path.join(wd, "traced")
    os.mkdir(cli_dir)
    os.mkdir(traced_dir)
    good, failures, pairs = [], [], 0
    host.mark()
    end = time.monotonic() + seconds
    while pairs == 0 or time.monotonic() < end:
        k = order[pairs]
        pairs += 1
        inp = inputs[k]
        cli_s, status, _ = timed_run(op_argv(workload, inp), cli_dir)
        cli_s *= host.factor()
        f = op_failure(workload, k, cli_dir, status, ref_bytes, ref_failures)
        if f is None:
            args = [inp["xmi"], inp["rates"]] if workload == "uml_roundtrip" else [inp["pepa"]]
            try:
                traced = helper(["trace-op", workload, *args, traced_dir])
            except BenchError as e:
                traced, f = None, str(e)
            scale = host.factor()
            if f is None and op_failure(workload, k, traced_dir, 0, ref_bytes, ref_failures):
                f = "traced output differs from the CLI's"
        if f:
            failures.append(f)
        else:
            good.append(dict(traced, input_index=k, cli_s=cli_s, scale=scale))
    if not good:
        raise BenchError("%s traced run: no op succeeded: %s" % (workload, failures[:3]))
    per_op = [layer_sums(o, o["scale"]) for o in good]
    p = workload + "."
    for name in sorted({name for ms, _ in per_op for name in ms}):
        out[p + name + "_ms"] = metric(median([ms.get(name, 0.0) for ms, _ in per_op]), "ms")
        out[p + name + "_words"] = metric(median([w.get(name, 0.0) for _, w in per_op]), "words")
    out[p + "unattributed_ms"] = metric(
        median([1000 * o["cli_s"] - sum(ms.values()) for o, (ms, _) in zip(good, per_op)]), "ms")
    # Counts of the middle input, so they repeat exactly across seeds.
    mid = len(inputs) // 2
    counts = next((o["counts"] for o in good if o["input_index"] == mid), good[0]["counts"])
    for name, v in counts.items():
        if name != "markov.bytes_per_sweep":
            out[p + name] = metric(v, "count")
    if workload == "exact_solve":
        out[p + "pepa.states_per_s"] = metric(median(
            [o["counts"]["pepa.states"] / (ms["pepa.derive"] / 1000) for o, (ms, _) in zip(good, per_op)]), "1/s")
        out[p + "markov.ns_per_nnz_sweep"] = metric(median(
            [ms["markov.solve"] * 1e6 / (o["counts"]["markov.nnz"] * o["counts"]["markov.iterations"])
             for o, (ms, _) in zip(good, per_op)]), "ns")
        out[p + "markov.bytes_per_sweep"] = metric(counts["markov.bytes_per_sweep"], "bytes")
    print("%s traced: %d op pairs, %d failed" % (workload, pairs, len(failures)))
    return not problems and not failures, 2 * pairs, len(failures)


def traced_daemon(seed, seconds, wd, out):
    # One session of the untraced run's length, then the same sequence
    # in-process.
    hot_dir = daemon_setup_files(seed, wd)
    _, requests = sessions(seconds)
    _, r = daemon_instance(seed * 1000, requests, wd, hot_dir)
    e = helper(["engine", seed * 1000, requests, hot_dir, os.path.abspath(ASSETS)], cwd=wd)["ops"]
    cls = r["cls"]
    n = len(cls)
    # Each request's one top-level span is its Engine.handle call.
    engine = [layer_sums(o) for o in e]
    engine_ms = [sum(ms.values()) for ms, _ in engine]
    engine_words = [sum(w.values()) for _, w in engine]
    p = "daemon_mix."
    for c in ("cached", "method", "cold", "sweep"):
        idx = [i for i in range(n) if cls[i] == c and r["ok"][i]]
        out[p + "service.engine_%s_ms" % c] = metric(median([engine_ms[i] for i in idx]), "ms")
        out[p + "service.%s_p50_ms" % c] = metric(1000 * median([r["latency_s"][i] for i in idx]), "ms")
        out[p + "service.%s_words" % c] = metric(median([engine_words[i] for i in idx]), "words")
    out[p + "service.transport_ms"] = metric(
        median([1000 * r["latency_s"][i] - engine_ms[i] for i in range(n)]), "ms")
    out[p + "service.codec_us"] = metric(1e6 * median([o["codec_s"] for o in e]), "us")
    out[p + "unattributed_ms"] = metric(
        median([1000 * (r["latency_s"][i] - e[i]["codec_s"]) - engine_ms[i] for i in range(n)]), "ms")
    hits, misses = r["hits"], r["misses"]
    out[p + "service.hits"] = metric(hits, "count")
    out[p + "service.misses"] = metric(misses, "count")
    out[p + "service.evictions"] = metric(r["evictions"], "count")
    out[p + "service.hit_ratio"] = metric(hits / (hits + misses), "ratio")
    out[p + "markov.sweep_iterations_warm"] = metric(r["sweep_iterations_warm"], "count")
    out[p + "markov.sweep_iterations_cold"] = metric(r["sweep_iterations_cold"], "count")
    out[p + "service.rss_growth_kib_per_1k"] = metric(
        (r["rss_end_kib"] - r["rss_start_kib"]) * 1000.0 / n, "KiB")
    tenth = max(1, n // 10)
    first = [r["latency_s"][i] for i in range(tenth) if cls[i] == "cached"]
    last = [r["latency_s"][i] for i in range(n - tenth, n) if cls[i] == "cached"]
    out[p + "service.cached_drift_ms"] = metric(1000 * (median(last) - median(first)), "ms")
    failed = r["failed"] + sum(1 for o in e if o["failure"])
    print("daemon_mix traced: %d requests each way, %d failed" % (n, failed))
    return failed == 0, 2 * n, failed


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, wd):
    if not trace:
        if workload == "daemon_mix":
            correct, attempted, failed, metrics = daemon_mix(seed, seconds, wd)
        else:
            correct, attempted, failed, metrics = oneshot(workload, seed, seconds, wd)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    # Every traced run reports the layers of all three workloads: the
    # one-shots for a third of the run each, daemon_mix for one session.
    out, correct, attempted, failed = {}, True, 0, 0
    for w in WORKLOADS:
        sub = os.path.join(wd, w)
        os.mkdir(sub)
        if w == "daemon_mix":
            c, a, f = traced_daemon(seed, seconds, sub, out)
        else:
            c, a, f = traced_oneshot(w, seed, seconds / 3, sub, out)
        correct, attempted, failed = correct and c, attempted + a, failed + f
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


def self_check(wd):
    """One op of every workload with all output checks."""
    ok = True
    for w in WORKLOADS:
        sub = os.path.join(wd, w)
        os.mkdir(sub)
        if w == "daemon_mix":
            correct, attempted, failed, _ = daemon_mix(1, 0.25, sub)
        else:
            correct, attempted, failed, _ = oneshot(w, 1, 0.0, sub)
        print("self-check %-14s %s (%d attempted, %d failed)" % (w, "ok" if correct else "FAILED", attempted, failed))
        ok = ok and correct
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    global ENV
    ENV = child_env()
    root = os.path.abspath(".perfbench_work")
    tmp = os.path.join(root, "tmp")
    wd = os.path.join(root, "run-%d" % os.getpid())
    try:
        build(tmp)
        os.makedirs(wd)
        if args.self_check:
            return 0 if self_check(wd) else 1
        result = run(args.workload, args.seed, args.seconds, args.trace, wd)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("%s: %s" % (type(e).__name__, e))
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
