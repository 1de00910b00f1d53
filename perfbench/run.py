#!/usr/bin/env python3
"""Repository benchmark: one workload per run (see README.md here).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The first run builds the
program from source into .bench_build/perfbench. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both).
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DODAD = BUILD / "doda" / "dodad"
TRACE_RECORD = BUILD / "doda" / "trace_record"

IN_PROCESS = ("paper_sweep", "huge_n_gathering", "replay_cost")
WORKLOADS = IN_PROCESS + ("dodad_stream",)
SETUP_REPS = 5
RUN_TIMEOUT = 170

# dodad_stream: CLIENTS connections at once, each submitting one job,
# subscribing to its progress stream and fetching its result before
# submitting the next. The server runs WORKERS jobs at a time, so jobs
# queue. A batch is BATCH_ROUNDS rounds of the job kinds per client. The
# mix is assumed, not observed traffic; README.md says why it was chosen.
CLIENTS = 4
WORKERS = 1
STORE_N = 64
STORE_TRIALS = 64
STORE_LENGTH = 1 << 15
REPLAY_WINDOW = 16
VERIFY_PER_KIND = 2
BATCH_ROUNDS = 2


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no doda sources under {ROOT}; run from a checkout's root")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 8))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "dodad", "trace_record", "-j", jobs],
                   check=True, stdout=sys.stderr)


def pinned_to(cpu):
    """A preexec_fn that pins the child process to `cpu`."""
    return lambda: os.sched_setaffinity(0, {cpu})


def time_set_ups(args, workdir):
    """Times SETUP_REPS set-ups of an in-process workload, each in a fresh
    driver process (which times itself) on the next CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    seconds = []
    for rep in range(SETUP_REPS):
        proc = subprocess.run(
            [str(DRIVER), "setup", "--workload", args.workload,
             "--seed", str(args.seed), "--rep", str(rep),
             "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT,
            preexec_fn=pinned_to(cpus[rep % len(cpus)]))
        if proc.returncode != 0:
            log(f"driver set-up exited with {proc.returncode}")
            sys.exit(1)
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
    return seconds


def run_in_process(args, workdir):
    """Runs an in-process workload in the driver and returns its result,
    with setup_s added to the end-to-end metrics."""
    setup = time_set_ups(args, workdir) if args.trace == 0 else []
    proc = subprocess.run(
        [str(DRIVER), "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    return result


# ------------------------------------------------------------ dodad_stream

class Server:
    """A dodad process on an ephemeral port, stopped by SIGTERM."""

    def __init__(self, store_root):
        self.proc = subprocess.Popen(
            [str(DODAD), "--port", "0", "--workers", str(WORKERS),
             "--max-open", str(4 * CLIENTS), "--store-root", str(store_root)],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("dodad listening on "):
            self.stop()
            raise RuntimeError(f"dodad did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(RUN_TIMEOUT)
        self.reader = self.sock.makefile("rb")
        self.next_id = 1

    def send(self, method, params):
        request = {"id": self.next_id, "method": method, "params": params}
        self.next_id += 1
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        return request["id"]

    def frame(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("dodad closed the connection")
        return json.loads(line)

    def call(self, method, params):
        request_id = self.send(method, params)
        reply = self.frame()
        if reply.get("id") != request_id:
            raise RuntimeError(f"out-of-order reply {reply!r}")
        return reply

    def close(self):
        self.reader.close()
        self.sock.close()


KINDS = ("randomized", "cost", "replay")


def draw_job(kind, rng):
    """One job of the stream; `spec` is its driver `expect` line."""
    seed = rng.randrange(1, 1 << 62)
    if kind == "randomized":
        params = {"kind": kind, "algorithm": "gathering", "n": 128,
                  "trials": 32, "seed": seed, "threads": 1}
        spec = f"randomized gathering 128 32 {seed}"
    elif kind == "cost":
        length = 1 << 16
        params = {"kind": kind, "algorithm": "waiting-greedy", "n": 128,
                  "trials": 16, "seed": seed, "threads": 1,
                  "length_hint": length}
        spec = f"cost waiting-greedy 128 16 {seed} {length}"
    else:
        first = rng.randrange(0, STORE_TRIALS - REPLAY_WINDOW + 1)
        last = first + REPLAY_WINDOW
        params = {"kind": kind, "store": "store", "algorithm": "gathering",
                  "compute_cost": True, "first": first, "last": last,
                  "threads": 1}
        spec = f"replay gathering {{store}} {first} {last}"
    return kind, params, spec


def run_job(conn, params):
    """Submit, subscribe, stream to completion, fetch; client-side spans."""
    t_send = time.perf_counter()
    ack = conn.call("job.submit", params)
    t_ack = time.perf_counter()
    if "error" in ack:
        return {"ok": False, "error": ack["error"]}
    job = ack["result"]["job"]
    conn.call("job.subscribe", {"job": job})
    frames = 0
    t_first = None
    while True:
        frame = conn.frame()
        frames += 1
        if t_first is None:
            t_first = time.perf_counter()
        if frame.get("method") == "job.complete":
            break
    t_complete = time.perf_counter()
    result = conn.call("job.result", {"job": job})
    t_result = time.perf_counter()
    if "error" in result:
        return {"ok": False, "error": result["error"]}
    return {"ok": True, "stats": result["result"]["stats"], "frames": frames,
            "wire": (t_ack - t_send) + (t_result - t_complete),
            "queue": t_first - t_ack, "exec": t_complete - t_first}


def job_interactions(kind, stats):
    """Workload interactions of a job: replayed interactions for a replay,
    dispatched interactions otherwise (as the in-process workloads count)."""
    if kind == "replay":
        return REPLAY_WINDOW * STORE_LENGTH
    summary = stats["interactions"]
    return summary["count"] * summary["mean"]


def pin_server(pid, cpus):
    """Moves every thread of the server onto `cpus`."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return  # the server has exited; its clients report it
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread has exited


def run_batch(conns, plan, cpus):
    """Every client runs its planned jobs in order on its own connection,
    all clients at once and on `cpus`; returns the jobs per client."""
    results = [None] * len(conns)
    errors = []

    def client(index):
        try:
            os.sched_setaffinity(0, cpus)
            results[index] = [run_job(conns[index], params)
                              for _, params, _ in plan[index]]
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def expected_results(specs, store):
    lines = "".join(spec.format(store=store) + "\n" for spec in specs)
    proc = subprocess.run([str(DRIVER), "expect"], input=lines,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT, check=True)
    return proc.stdout.splitlines()


def matches(stats, expected_line):
    count, failed, mean, stddev, cost_mean = expected_line.split()
    summary = stats["interactions"]
    same = (summary["count"] == int(count)
            and stats["failed_trials"] == int(failed)
            and float.fromhex(summary["mean_hex"]) == float.fromhex(mean)
            and float.fromhex(summary["stddev_hex"]) == float.fromhex(stddev))
    if "cost" in stats:
        same = same and (float.fromhex(stats["cost"]["mean_hex"])
                         == float.fromhex(cost_mean))
    return same


def run_dodad(args, workdir):
    cpus = sorted(os.sched_getaffinity(0))
    setup = []
    server = None
    try:
        for rep in range(SETUP_REPS if args.trace == 0 else 1):
            if server is not None:
                server.stop()
            store = workdir / "store"
            shutil.rmtree(store, ignore_errors=True)
            start = time.perf_counter()
            # Each set-up records on the next CPU, as the in-process
            # workloads set up (time_set_ups). No timeout: a timed wait
            # polls the child with sleeps of up to 50 ms, which rounded this
            # set-up up to the next poll.
            subprocess.run(
                [str(TRACE_RECORD), "--out", str(store),
                 "--n", str(STORE_N), "--trials", str(STORE_TRIALS),
                 "--length", str(STORE_LENGTH), "--seed", str(args.seed),
                 "--shards", "4"],
                check=True, stdout=subprocess.DEVNULL,
                preexec_fn=pinned_to(cpus[rep % len(cpus)]))
            server = Server(workdir)
            setup.append(time.perf_counter() - start)

        # The seed plans one batch: each client submits BATCH_ROUNDS rounds
        # of the three kinds, starting at a different kind, so the jobs in
        # flight keep an even mix. The run repeats that batch, each time
        # with the server on the next CPU and the clients on the others,
        # the way the in-process workloads move each op to the next CPU
        # (driver.cpp, quietRate), and every repeat must reproduce the
        # first.
        rng = random.Random(args.seed)
        plan = [[draw_job(KINDS[(client + turn) % len(KINDS)], rng)
                 for turn in range(BATCH_ROUNDS * len(KINDS))]
                for client in range(CLIENTS)]
        conns = [Connection(server.port) for _ in range(CLIENTS)]
        batches, rates = [], []
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                cpu = cpus[len(rates) % len(cpus)]
                pin_server(server.proc.pid, {cpu})
                batch_start = time.perf_counter()
                batch = run_batch(conns, plan, set(cpus) - {cpu} or {cpu})
                elapsed = time.perf_counter() - batch_start
                batches.append(batch)
                rates.append(sum(job_interactions(kind, job["stats"])
                                 for client, jobs in zip(plan, batch)
                                 for (kind, _, _), job in zip(client, jobs)
                                 if job["ok"]) / elapsed)
            wall = time.perf_counter() - start
        finally:
            for conn in conns:
                conn.close()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    jobs = [(kind, spec, job)
            for batch in batches
            for client, results in zip(plan, batch)
            for (kind, _, spec), job in zip(client, results)]
    done = [(kind, spec, job) for kind, spec, job in jobs if job["ok"]]
    failed = len(jobs) - len(done) + sum(
        1 for _, _, job in done if job["stats"]["failed_trials"] > 0)
    first = [job.get("stats") for _, _, job in jobs[:len(jobs) // len(batches)]]
    repeats = all(job.get("stats") == first[i % len(first)]
                  for i, (_, _, job) in enumerate(jobs))
    if not repeats:
        log("a repeated batch differs from the first")
    correct = bool(done) and failed == 0 and repeats
    # Served statistics must be bit-identical to the offline run of the
    # same job: check the first jobs of every kind.
    sample = []
    for kind in KINDS:
        sample += [entry for entry in done if entry[0] == kind][
            :VERIFY_PER_KIND]
    expected = expected_results([spec for _, spec, _ in sample],
                                workdir / "store")
    for (kind, spec, job), line in zip(sample, expected):
        if not matches(job["stats"], line):
            log(f"served result differs from offline: {spec}")
            correct = False

    interactions = sum(job_interactions(kind, job["stats"])
                       for kind, _, job in done)
    if args.trace == 0:
        rates.sort()
        metrics = {
            "interactions_per_s": (rates[len(rates) * 19 // 20], "1/s"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        spans = {name: sum(job[name] for _, _, job in done)
                 for name in ("queue", "exec", "wire")}
        total = sum(spans.values())
        metrics = {f"{layer}_pct": (0.0, "%") for layer in
                   ("gen", "decode", "engine", "cost", "fold")}
        metrics.update({f"{name}_pct": (100.0 * spans[name] / total, "%")
                        for name in ("queue", "exec", "wire")})
        metrics.update({
            "traced_ns_per_interaction": (1e9 * wall / interactions, "ns"),
            "generated_per_dispatched": (0.0, "ratio"),
            "decoded_per_dispatched": (0.0, "ratio"),
            "indexed_per_dispatched": (0.0, "ratio"),
            "frames_per_job": (statistics.mean(
                job["frames"] for _, _, job in done), "count"),
            "peak_rss_mb": (rss, "MB"),
        })
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    workdir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload in IN_PROCESS:
            result = run_in_process(args, workdir)
        else:
            result = run_dodad(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
