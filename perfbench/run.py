#!/usr/bin/env python3
"""Repository benchmark for the `lb` load-balancing engine.

Run from the repository root:

    python3 perfbench/run.py --workload steady_seq --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --steady 5 --workloads churn_sos

One run builds the release `lb` binary and the traced-run binary from
source, derives the workload's scenario from `--seed`, and then:

* `--trace 0` launches `lb` as a fresh process per repetition until
  `--seconds` of measuring are spent, checks every result document byte
  for byte, and prints the end-to-end metrics;
* `--trace 1` runs the workload's scenario, and the scenarios that cover
  the layers its own path leaves idle, through the traced loop
  (`perfbench/tracer`), checks each traced document against the untraced
  sequential `lb run` of its scenario, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md for
the metric definitions and the workloads.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_scratch")
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
# A process is killed (and its operation counted as failed) after this long.
PROCESS_TIMEOUT_S = 45
TRACER_TIMEOUT_S = 60
MIN_REPS = 3
MAX_REPS = 20
SAMPLE = re.compile(r"^round\s+(\d+):")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- workloads

def base_scenario(name, seed, n, rounds, sample_every):
    return {
        "name": name,
        "seed": seed,
        "rounds": rounds,
        "sample_every": sample_every,
        "algorithm": "alg1",
        "model": "fos",
        "topology": {"family": "hypercube", "target_n": n},
        "speeds": {"model": "powers_of_two", "classes": 3},
        "initial": {
            "distribution": {"model": "uniform_random"},
            "tokens_per_node": 8,
            "pad": "degree",
        },
        "arrivals": {"model": "poisson", "rate_per_node": 0.5, "max_weight": 1},
        "completions": {"model": "uniform", "weight_per_speed": 1},
        "churn": [],
    }


def churn_events(seed, n, rounds, every, deltas):
    """Frequent same-family rewires (an empty edge delta on a hypercube, so
    the patch path) plus `deltas` explicit edge swaps (a real delta, so a
    SOS beta re-estimate; the next rewire reverts it, a second one)."""
    rng = random.Random(seed)
    dim = n.bit_length() - 1
    events = [
        {"round": r, "kind": "rewire", "seed": rng.randrange(1 << 32)}
        for r in range(2, rounds, every)
    ]
    for i in range(deltas):
        # Rewires sit at 2 mod `every`; deltas at multiples of `every`.
        at = (i + 1) * rounds // (deltas + 1) // every * every
        u = rng.randrange(n)
        k = rng.randrange(dim)
        j = rng.randrange(dim - 1)
        events.append({
            "round": at,
            "kind": "delta",
            "add": [[u, u ^ (3 << j)]],
            "remove": [[u, u ^ (1 << k)]],
        })
    events.sort(key=lambda e: e["round"])
    return events


def steady_seq(seed):
    return base_scenario("steady_seq", seed, 65536, 120, 10)


def churn_sos(seed, rounds=200):
    s = base_scenario("churn_sos", seed, 8192, rounds, 10)
    s["algorithm"] = "alg2"
    s["model"] = "sos"
    s["churn"] = churn_events(seed, 8192, rounds, 4, 2)
    return s


def federate_2p(seed, rounds):
    return base_scenario("federate_2p", seed, 16384, rounds, 10)


# Each workload: the scenario, how `lb` runs and resumes it, and the
# checkpoint cadence (one mid-run checkpoint; `resume_s` resumes from it).
# None keeps more than 2 threads busy (see perfbench/README.md).
WORKLOADS = {
    "steady_seq": {
        "scenario": steady_seq,
        "run": [], "checkpoint_every": 100,
    },
    "churn_sos": {
        "scenario": churn_sos,
        "run": ["--producer", "channel"], "resume": ["--producer", "channel"],
        "checkpoint_every": 150,
    },
}

# Rounds of the shortened `churn_sos` scenario, and of the federated
# scenario, that a traced run borrows for the layers its own scenario cannot
# reach. The federated scenario is traced only (see perfbench/README.md).
BORROWED_ROUNDS = {"churn_sos": 60, "federate_2p": 30}


# ------------------------------------------------------------------ running

class Failure(Exception):
    """An operation that failed: nonzero exit, timeout or a wrong document."""


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(traced):
    """Builds `lb`, and for a traced run the tracer, which is the only part
    of the benchmark that depends on library APIs."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmds = [["cargo", "build", "--release", "--offline", "-q", "-p", "lb-bench", "--bin", "lb"]]
    if traced:
        cmds.append(["cargo", "build", "--release", "--offline", "-q",
                     "--manifest-path", os.path.join(BENCH, "tracer", "Cargo.toml")])
    for cmd in cmds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "lb"), os.path.join(release, "perfbench-tracer")


class Proc:
    """A child process in its own process group with a kill timer; `finish`
    reaps it with rusage. `live` holds every child not yet reaped."""

    live = set()

    def __init__(self, argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                 timeout=PROCESS_TIMEOUT_S):
        self.p = subprocess.Popen(argv, stdout=stdout, stderr=stderr, text=True,
                                  start_new_session=True)
        self.timer = threading.Timer(timeout, self.kill)
        self.timer.daemon = True
        self.timer.start()
        self.timed_out = False
        Proc.live.add(self)

    def kill(self):
        self.timed_out = True
        try:
            os.killpg(self.p.pid, 9)
        except ProcessLookupError:
            pass

    def finish(self):
        """Waits; returns (user+sys seconds, max RSS in MB)."""
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        Proc.live.discard(self)
        if self.timed_out:
            raise Failure(f"{self.p.args[1]} timed out")
        if self.p.returncode != 0:
            raise Failure(f"{' '.join(self.p.args[:2])} exited {self.p.returncode}")
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def stream_samples(proc, t0):
    """Reads the sample stream; returns (first sample time, last sample
    time, last sampled round), times relative to `t0`."""
    first = last = None
    last_round = -1
    tail = []
    for line in proc.p.stderr:
        now = time.perf_counter() - t0
        m = SAMPLE.match(line)
        if m:
            if first is None:
                first = now
            last, last_round = now, int(m.group(1))
        else:
            tail.append(line.rstrip())
    if first is None and tail:
        log("\n".join(tail[-5:]))
    return first, last, last_round


def expected_doc(reference, shards=1, parts=1):
    """The sequential reference document with the executor fields the run
    echoes (`shards`, `federation`) set to the run's values: every other
    byte must match."""
    text = reference
    for key, value in (("shards", shards), ("federation", parts)):
        if value != 1:
            old, new = f'"{key}": 1,', f'"{key}": {value},'
            if text.count(old) != 1:
                raise Failure(f"reference document has no single {key} field")
            text = text.replace(old, new)
    return text


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def run_once(lb, spec, scen, seed, rounds, work, checkpoint=None):
    """One run of the workload's scenario: setup, loop rate, CPU and RSS of
    its process, and the rendered document."""
    out = os.path.join(work, "doc.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [lb, "run", scen, "--seed", str(seed), "--out", out] + spec.get("run", [])
    if checkpoint:
        argv += ["--checkpoint", checkpoint, "--checkpoint-every", str(spec["checkpoint_every"])]
    t0 = time.perf_counter()
    proc = Proc(argv)
    try:
        first, last, last_round = stream_samples(proc, t0)
    finally:
        cpu_s, rss_mb = proc.finish()
    if first is None or last_round != rounds or last <= first:
        raise Failure("the run did not stream its samples from round 0 to the end")
    return {
        "setup_s": first,
        "rounds_per_s": rounds / (last - first),
        "cpu_ms_per_round": cpu_s * 1e3 / rounds,
        "peak_rss_mb": rss_mb,
        "doc": read(out),
    }


def resume_once(lb, spec, checkpoint, work):
    """Resumes the mid-run checkpoint with `lb run --resume`; returns the
    time to the first post-resume sample and the finished document."""
    out = os.path.join(work, "resumed.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [lb, "run", "--resume", checkpoint, "--out", out] + spec.get("resume", [])
    t0 = time.perf_counter()
    proc = Proc(argv)
    try:
        first, _, _ = stream_samples(proc, t0)
    finally:
        proc.finish()
    if first is None:
        raise Failure("the resumed run streamed no sample")
    return first, read(out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args):
        """Runs one operation; a Failure counts and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as err:
            self.failed += 1
            log(f"FAILED: {err}")
            return None


def workdir(workload, seed):
    """This invocation's scratch directory, removed when it ends."""
    work = os.path.join(SCRATCH, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    return work


def prepare(workload, seed):
    spec = WORKLOADS[workload]
    work = workdir(workload, seed)
    scenario = spec["scenario"](seed)
    scen = os.path.join(work, "scenario.json")
    with open(scen, "w", encoding="utf-8") as f:
        json.dump(scenario, f, indent=2)
    return spec, scenario, scen, work


def trimmed_mean(values):
    """The mean without the lowest and the highest value. The host swings
    between fast and slow spells of tens of seconds: a median jumps between
    the two levels when a run straddles them, a mean moves in proportion,
    and dropping the extremes keeps one stalled repetition out."""
    values = sorted(values)
    if len(values) > 2:
        values = values[1:-1]
    return sum(values) / len(values)


def measure(workload, seed, seconds, lb):
    spec, scenario, scen, work = prepare(workload, seed)
    rounds = scenario["rounds"]
    tally = Tally()
    ckpt = os.path.join(work, "checkpoint.snap")
    # The sequential reference: events inline, no checkpoint. It also warms
    # the page cache and is not measured.
    ref = tally.op(run_once, lb, {}, scen, seed, rounds, work)
    reference = ref and ref["doc"]
    reps = []
    start = time.perf_counter()
    while reference is not None and len(reps) < MAX_REPS and not tally.failed:
        if os.path.exists(ckpt):
            os.remove(ckpt)
        rep = tally.op(run_once, lb, spec, scen, seed, rounds, work, ckpt)
        if rep is None:
            break
        if rep.pop("doc") != reference:
            tally.failed += 1
            log("FAILED: the run's document differs from the sequential reference")
        resumed = tally.op(resume_once, lb, spec, ckpt, work)
        if resumed is None:
            break
        rep["resume_s"], doc = resumed
        if doc != reference:
            tally.failed += 1
            log("FAILED: the resumed document differs from the sequential reference")
        reps.append(rep)
        spent = time.perf_counter() - start
        if len(reps) >= MIN_REPS and spent * (len(reps) + 1) / len(reps) > seconds:
            break
    if not reps:
        return tally, {}
    metrics = {
        name: trimmed_mean([r[name] for r in reps])
        for name in ("setup_s", "rounds_per_s", "cpu_ms_per_round", "resume_s", "peak_rss_mb")
    }
    metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    log(f"{workload}: {len(reps)} repetitions, seed {seed}")
    return tally, metrics


# ------------------------------------------------------------- traced run

def traced(tracer, scen, work, extra, checkpoint_every, tag, seed):
    doc = os.path.join(work, f"{tag}.traced.json")
    spans = os.path.join(SCRATCH, f"spans-{tag}-{seed}.jsonl")
    argv = [tracer, "--scenario", scen, "--scratch", work, "--doc", doc,
            "--spans", spans] + extra
    if checkpoint_every:
        argv += ["--checkpoint-every", str(checkpoint_every)]
    proc = Proc(argv, stdout=subprocess.PIPE, stderr=None, timeout=TRACER_TIMEOUT_S)
    report = proc.p.stdout.read()
    proc.finish()
    return json.loads(report.strip().splitlines()[-1])["metrics"], read(doc)


def trace_plan(workload, seed):
    """The traced runs of one workload, in order of precedence: (tag,
    scenario, tracer arguments, checkpoint cadence).

    First the workload itself, on its own executor. Then its own scenario
    at 2 shards with a sequential engine in lockstep, which measures the
    shard layer. Churn, SOS and the ingest channel cannot be applied to
    every scenario; a workload that lacks them borrows `churn_sos`,
    shortened. Federation belongs to no end-to-end workload, so every
    workload borrows the federated scenario, at 2 parts."""
    spec = WORKLOADS[workload]
    own = spec["scenario"](seed)
    plan = [
        (workload, own, spec["run"], spec["checkpoint_every"]),
        (workload + "-2shard", own, ["--shards", "2"], None),
    ]
    if not own["churn"]:
        plan.append(("churn_sos-short", churn_sos(seed, BORROWED_ROUNDS["churn_sos"]),
                     WORKLOADS["churn_sos"]["run"], None))
    plan.append(("federate_2p-short", federate_2p(seed, BORROWED_ROUNDS["federate_2p"]),
                 ["--parts", "2"], None))
    return plan


def trace(workload, seed, lb, tracer, per_layer):
    """Runs the trace plan. Each scenario's sequential `lb run` is the
    reference that every traced document of it must reproduce byte for
    byte; the first traced run that measures a metric supplies it."""
    work = workdir(workload, seed)
    tally = Tally()
    references = {}
    metrics = {}
    for tag, scenario, extra, every in trace_plan(workload, seed):
        key = json.dumps(scenario, sort_keys=True)
        scen = os.path.join(work, f"{tag}.scenario.json")
        with open(scen, "w", encoding="utf-8") as f:
            json.dump(scenario, f, indent=2)
        if key not in references:
            ref = tally.op(run_once, lb, {}, scen, seed, scenario["rounds"], work)
            references[key] = ref and ref["doc"]
        result = tally.op(traced, tracer, scen, work, extra, every, tag, seed)
        if references[key] is None or result is None:
            continue
        report, doc = result
        shards = int(extra[1]) if extra[:1] == ["--shards"] else 1
        parts = int(extra[1]) if extra[:1] == ["--parts"] else 1
        try:
            expected = expected_doc(references[key], shards, parts)
        except Failure as err:
            tally.failed += 1
            log(f"FAILED: {err}")
            continue
        if doc != expected:
            tally.failed += 1
            log(f"FAILED: the traced {tag} document differs from lb's")
        for name, value in report.items():
            metrics.setdefault(name, value)
    missing = [m for m in per_layer if m not in metrics]
    if missing and tally.failed == 0:
        tally.attempted += 1
        tally.failed += 1
        log(f"FAILED: no value for {', '.join(missing)}")
    return tally, {m: metrics[m] for m in per_layer if m in metrics}


# -------------------------------------------------------------- steadiness

def steadiness(args, workloads):
    """Runs each chosen workload `--steady` times, interleaved (the order
    rotates every round), each run a fresh process with its own seed
    (1..K), and prints median and quartiles per metric."""
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in workloads]
    values = {w: {} for w in names}
    for i, seed in enumerate(range(1, args.steady + 1)):
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
                    str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            if done.returncode != 0 or not result["correct"]:
                log(f"{w} seed {seed}: run failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    summary = {}
    for w in names:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[f"{w}/{name}"] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "runs": len(vals)}
            print(f"{w:14s} {name:18s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}  n={len(vals)}")
    print(json.dumps(summary))


# ------------------------------------------------------------------- main

def stop(signum, _frame):
    """Kills and reaps every child still running, then exits."""
    for proc in list(Proc.live):
        proc.kill()
        os.waitpid(proc.p.pid, 0)
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--workloads", help="steadiness mode: comma-separated workloads")
    args = parser.parse_args()

    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "bench"))
            and os.path.isfile(config_path)):
        log("run from the repository root: the workspace sources are missing")
        return 2
    if args.steady:
        steadiness(args, json.loads(read(config_path))["workloads"])
        return 0
    if not args.workload:
        parser.error("--workload is required")
    config = json.loads(read(config_path))
    lb, tracer = build(args.trace)
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in config["per_layer"]}
            tally, values = trace(args.workload, args.seed, lb, tracer, list(units))
        else:
            units = {m["name"]: m["unit"] for m in config["end_to_end"]}
            tally, values = measure(args.workload, args.seed, args.seconds, lb)
    finally:
        shutil.rmtree(workdir(args.workload, args.seed), ignore_errors=True)
    correct = tally.failed == 0 and set(values) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
