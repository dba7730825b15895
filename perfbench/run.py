#!/usr/bin/env python3
"""Benchmark of the league-ties exact counter, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload count-n6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is one closed-loop client in this process: the next operation
starts only when the previous one has returned.  Every operation's result is
checked exactly and a wrong or raising operation counts as failed.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half traced (see ``tracer.py``) and reports
the per-layer metrics plus the tracing overhead.  Times are reported at
reference speed (see ``calib.py``).

The package is imported from ``src/`` of the checkout this file sits in, and
all files the run writes stay under ``perfbench/out/``.  The second-to-last
line of standard output is the full record (environment, samples, failures,
layer map); the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import Probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up (import and workload preparation) is repeated this often per run
#: and the median is reported.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

#: Run in a fresh interpreter; prints when the package's import started and ended.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import league_ties; "
    "print(repr(t0), repr(time.perf_counter()))"
)


def check_report(lt, report, n: int = 6) -> str | None:
    """Gate shared by the counting workloads; ``None`` when exact."""
    want = lt.KNOWN_TOTALS[n]
    if report.total != want:
        return f"total {report.total} != KNOWN_TOTALS[{n}] = {want}"
    parts = sum(st.contribution for st in report.class_breakdown.values())
    if parts != report.total:
        return f"class contributions sum to {parts}, total is {report.total}"
    return None


class Workload:
    """One closed-loop client: ``prepare``, then ``run`` back to back.

    ``next_input`` builds an operation's input outside the timed region,
    ``run`` is the timed operation and ``check`` gates its result.
    """

    name = ""
    uses_seed = False
    uses_all_cpus = False  # operations run worker processes on every CPU
    ledger_bytes = 0

    def __init__(self, lt, seed: int, workdir: Path):
        self.lt = lt
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def next_input(self, i: int):
        return None

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> str | None:
        raise NotImplementedError


class CountN6(Workload):
    name = "count-n6"

    def run(self, inp):
        return self.lt.count_tied(6)

    def check(self, inp, result):
        return check_report(self.lt, result)


class Oracle(Workload):
    """Season sweep of n=4 plus one completion sweep per n=5 SEARCH profile.

    Each operation sweeps a fresh seeded ordering of every profile's takes;
    the expected value is the optimised search of the sorted profile,
    computed once in ``prepare``.
    """

    name = "oracle"
    uses_seed = True

    def prepare(self):
        lt = self.lt
        self.cases = [
            (p.takes, lt.count_completions(p))
            for p in lt.iter_profiles(5)
            if lt.classify_profile(p) is lt.ProfileClass.SEARCH
        ]
        self.rng = random.Random(self.seed)

    def next_input(self, i):
        return [tuple(self.rng.sample(takes, len(takes))) for takes, _ in self.cases]

    def run(self, orderings):
        lt = self.lt
        season = lt.count_tied_bruteforce(4)
        return season, [lt.count_completions_bruteforce(o, 5) for o in orderings]

    def check(self, orderings, result):
        season, counts = result
        if season != self.lt.KNOWN_TOTALS[4]:
            return f"season sweep n=4 gave {season}, want {self.lt.KNOWN_TOTALS[4]}"
        for ordering, got, (takes, want) in zip(orderings, counts, self.cases):
            if got != want:
                return f"completion sweep of {ordering} gave {got}; search of {takes} gave {want}"
        return None


class PoolLedgerN6(Workload):
    name = "pool-ledger-n6"
    uses_all_cpus = True

    def prepare(self):
        self.dir = self.workdir / "pool-ledger"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def next_input(self, i):
        return self.dir / f"ledger-{i}.jsonl"

    def run(self, path):
        return self.lt.count_tied(6, workers=2, checkpoint=path)

    def check(self, path, report):
        data = path.read_bytes()
        path.unlink()
        self.ledger_bytes = len(data)
        lines = data.count(b"\n")
        if lines != report.searched_profiles + 1:
            return f"ledger holds {lines} lines for {report.searched_profiles} searched profiles"
        return check_report(self.lt, report)


class ResumeN6(Workload):
    name = "resume-n6"

    def prepare(self):
        self.path = self.workdir / "complete-n6.jsonl"
        self.path.unlink(missing_ok=True)
        fresh = self.lt.count_tied(6, checkpoint=self.path)
        error = check_report(self.lt, fresh)
        if error is not None:
            raise RuntimeError(f"writing the n=6 ledger: {error}")
        self.fresh_total = fresh.total
        self.ledger_bytes = self.path.stat().st_size

    def next_input(self, i):
        return self.path

    def run(self, path):
        return self.lt.resume(path)

    def check(self, path, report):
        if report.total != self.fresh_total:
            return f"resumed total {report.total} != fresh total {self.fresh_total}"
        return check_report(self.lt, report)


WORKLOADS = {w.name: w for w in (CountN6, Oracle, PoolLedgerN6, ResumeN6)}

#: Per-layer metric -> (unit, spans it needs, what it should move).
LAYER_METRICS = {
    "profiles.enumerate_s": ("s", ["profiles.iter_profiles"], "op_s_p50 on resume-n6"),
    "profiles.classify_s": ("s", ["profiles.classify_profile"], "op_s_p50 on resume-n6"),
    "profiles.weights_s": (
        "s", ["profiles.representation_factor", "profiles.doubling_factor"],
        "op_s_p50 on resume-n6"),
    "profiles.profiles_n": ("count", ["profiles.classify_profile"], "op_s_p50 on resume-n6"),
    "profiles.search_n": ("count", ["profiles.classify_profile"], "op_s_p50 on resume-n6"),
    "search.count_completions_s": (
        "s", ["search.count_completions"], "op_s_p50, ops_per_s, cpu_s_per_op on count-n6"),
    "search.calls_n": (
        "count", ["search.count_completions"], "op_s_p50, ops_per_s, cpu_s_per_op on count-n6"),
    "search.profile_s_max": ("s", ["search.count_completions"], "op_s_p50 on pool-ledger-n6"),
    "search.dead_ratio": ("ratio", ["search.count_completions"], "op_s_p50 on count-n6"),
    "eulerian.eulerian_count_s": ("s", ["eulerian.eulerian_count"], "op_s_p50 on resume-n6"),
    "engine.count_tied_self_s": ("s", ["engine.count_tied"], "op_s_p50 on pool-ledger-n6"),
    "engine.tasks_n": ("count", ["search.split_prefixes"], "op_s_p50 on pool-ledger-n6"),
    "engine.ledger_append_s": (
        "s", ["engine.CheckpointLedger.append"], "op_s_p50 on pool-ledger-n6"),
    "engine.ledger_append_n": (
        "count", ["engine.CheckpointLedger.append"], "op_s_p50 on pool-ledger-n6"),
    "engine.ledger_bytes": ("bytes", [], "op_s_p50 on pool-ledger-n6"),
    "engine.ledger_load_s": ("s", ["engine.CheckpointLedger.load"], "op_s_p50 on resume-n6"),
    "brute.season_sweep_s": ("s", ["brute.count_tied_bruteforce"], "op_s_p50 on oracle"),
    "brute.encodings_per_s": ("1/s", ["brute.count_tied_bruteforce"], "op_s_p50 on oracle"),
    "brute.completion_sweep_s": (
        "s", ["brute.count_completions_bruteforce"], "op_s_p50 on oracle"),
    "brute.assignments_per_s": (
        "1/s", ["brute.count_completions_bruteforce"], "op_s_p50 on oracle"),
    "trace.overhead_s": ("s", [], "none: traced minus untraced op_s_p50 of this workload"),
}


def layer_values(fold: dict, ledger_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced operation (times in seconds)."""
    incl = {k: v / 1e9 for k, v in fold["inclusive"].items()}
    calls = fold["calls"]
    op = fold["op"]
    searched = op.profile_completions
    season_s = incl.get("brute.count_tied_bruteforce", 0.0)
    sweep_s = incl.get("brute.count_completions_bruteforce", 0.0)
    return {
        "profiles.enumerate_s": incl.get("profiles.iter_profiles", 0.0),
        "profiles.classify_s": incl.get("profiles.classify_profile", 0.0),
        "profiles.weights_s": incl.get("profiles.representation_factor", 0.0)
        + incl.get("profiles.doubling_factor", 0.0),
        "profiles.profiles_n": calls.get("profiles.classify_profile", 0),
        "profiles.search_n": op.counts["search_profiles"],
        "search.count_completions_s": incl.get("search.count_completions", 0.0),
        "search.calls_n": calls.get("search.count_completions", 0),
        "search.profile_s_max": max(op.profile_ns.values(), default=0) / 1e9,
        "search.dead_ratio": (
            sum(1 for c in searched.values() if c == 0) / len(searched) if searched else 0.0),
        "eulerian.eulerian_count_s": incl.get("eulerian.eulerian_count", 0.0),
        "engine.count_tied_self_s": fold["self"].get("engine.count_tied", 0) / 1e9,
        "engine.tasks_n": op.counts["tasks"],
        "engine.ledger_append_s": incl.get("engine.CheckpointLedger.append", 0.0),
        "engine.ledger_append_n": calls.get("engine.CheckpointLedger.append", 0),
        "engine.ledger_bytes": ledger_bytes,
        "engine.ledger_load_s": incl.get("engine.CheckpointLedger.load", 0.0),
        "brute.season_sweep_s": season_s,
        "brute.encodings_per_s": op.counts["encodings"] / season_s if season_s else 0.0,
        "brute.completion_sweep_s": sweep_s,
        "brute.assignments_per_s": op.counts["assignments"] / sweep_s if sweep_s else 0.0,
    }


class Window:
    """Raw intervals of one closed-loop measuring window.

    ``ops`` holds ``(start, end, cpu seconds)`` per operation, with
    ``perf_counter`` times that the speed scale converts afterwards.
    """

    def __init__(self):
        self.ops: list[tuple[float, float, float]] = []
        self.failures: list[str] = []
        self.layer_ops: list[dict[str, float]] = []


def at_reference_speed(value: float, unit: str, factor: float) -> float:
    """Scale a per-layer time or rate measured during one operation."""
    if unit == "s":
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def interval(fn) -> tuple[float, float]:
    t0 = time.perf_counter()
    fn()
    return t0, time.perf_counter()


def measure(w: Workload, seconds: float, first: int, tracer=None) -> Window:
    """Run operations back to back until ``seconds`` have passed (at least one)."""
    win = Window()
    t_end = time.perf_counter() + seconds
    i = first
    while True:
        inp = w.next_input(i)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = w.run(inp)
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        t1 = time.perf_counter()
        win.ops.append((t0, t1, cpu_seconds() - cpu0))
        if error is None:
            try:
                error = w.check(inp, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            win.failures.append(error)
        if tracer is not None:
            win.layer_ops.append(layer_values(tracer.end_op(), w.ledger_bytes))
        i += 1
        if t1 >= t_end:
            return win


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for q in (0.9, 0.99, 0.999):
        if len(ordered) * (1 - q) >= 10:
            best = {"q": q, "value": ordered[math.ceil(q * len(ordered)) - 1]}
    return best


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def import_interval() -> tuple[float, float]:
    """Start and end of the package's import in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    t0, t1 = proc.stdout.split()
    return float(t0), float(t1)


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mounts."""
    real = os.path.realpath(path)
    best_mount, best_type = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return best_type
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m.group(1), 8)), fields[1])
        inside = real == mount or real.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best_mount):
            best_mount, best_type = mount, fields[2]
    return best_type


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "league_ties").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not (SRC / "league_ties" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import league_ties as lt
    import_self_s = time.perf_counter() - t

    from tracer import Tracer

    cls = WORKLOADS[args.workload]
    usable = sorted(os.sched_getaffinity(0))
    # The client and its import probes run on one CPU, which fixes where the
    # speed probe must look; pool workers forked by the package get every
    # CPU back.
    client_cpu = usable[-1]
    os.sched_setaffinity(0, {client_cpu})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, usable))
    cpus = usable if cls.uses_all_cpus else [client_cpu]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probes = Probes(cpus)
    try:
        w = cls(lt, args.seed, workdir)
        imports = [import_interval() for _ in range(SETUP_REPEATS)]
        prepares = [interval(w.prepare) for _ in range(SETUP_REPEATS)]
        warm = measure(w, 0, first=0)  # one untimed operation, still gated
        if args.trace:
            half = args.seconds / 2
            plain = measure(w, half, first=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(w, half, first=1 + len(plain.ops), tracer=tracer)
            finally:
                tracer.uninstall()
            windows = [warm, plain, traced]
        else:
            timed = measure(w, args.seconds, first=1)
            windows = [warm, timed]
        speed = probes.stop()
    finally:
        probes.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    def op_seconds(win: Window) -> list[float]:
        return [speed.seconds(t0, t1) for t0, t1, _ in win.ops]

    import_s = [speed.seconds(*span) for span in imports]
    prepare_s = [speed.seconds(*span) for span in prepares]
    attempted = sum(len(win.ops) for win in windows)
    failures = [f for win in windows for f in win.failures]
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seed_note": ("orderings of the n=5 profile takes come from the seed"
                      if w.uses_seed else "inputs are deterministic; the seed is unused"),
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": lt.BACKEND,
        "nproc": len(usable),
        "client_cpu": client_cpu,
        "probed_cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "ledger_dir_fs": fs_type(OUT),
        "client": "one closed-loop client in one process",
        "time_scale": "reference seconds from the speed probes (calib.py)",
        "probe_samples": len(speed.speeds),
        "probe_loop_s_min_median_max": [1 / max(speed.speeds),
                                         1 / statistics.median(speed.speeds),
                                         1 / min(speed.speeds)],
        "setup": {"import_s": import_s, "prepare_s": prepare_s,
                  "wall_import_s": [t1 - t0 for t0, t1 in imports],
                  "wall_prepare_s": [t1 - t0 for t0, t1 in prepares],
                  "wall_import_in_process_s": import_self_s},
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": metric(len(failures) / attempted, "ratio"),
        "failures": failures[:5],
    }
    correct = not failures

    if args.trace:
        plain_p50 = statistics.median(op_seconds(plain))
        traced_p50 = statistics.median(op_seconds(traced))
        layer = {}
        for name, (unit, needs, moves) in LAYER_METRICS.items():
            if any(span in tracer.absent for span in needs):
                layer[name] = {"value": None, "unit": unit, "absent": True}
            elif name == "trace.overhead_s":
                layer[name] = metric(traced_p50 - plain_p50, unit)
            else:
                layer[name] = metric(statistics.median_low(
                    at_reference_speed(op[name], unit, speed.factor(t0, t1))
                    for op, (t0, t1, _) in zip(traced.layer_ops, traced.ops)), unit)
        correct = correct and not tracer.nesting_errors
        trace_file = OUT / f"trace-{w.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "span_fields": ["id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": tracer.kept,
            "truncated": tracer.kept_truncated,
        }))
        record.update({
            "untraced_op_s_p50": plain_p50,
            "traced_op_s_p50": traced_p50,
            "traced_ops": len(traced.ops),
            "absent_spans": tracer.absent,
            "nesting_errors": tracer.nesting_errors[:5],
            "hook_errors": tracer.hook_errors[:5],
            "trace_file": str(trace_file.relative_to(ROOT)),
            "layer_map": {name: moves for name, (_, _, moves) in LAYER_METRICS.items()},
            "per_layer": layer,
        })
        if w.name == "pool-ledger-n6":
            record["note"] = ("the kernel runs in 2 pool workers, which are not traced: "
                              "its time shows as engine.count_tied_self_s (pool wait) and "
                              "search.* read 0 in this process")
        metrics = layer
    else:
        samples = op_seconds(timed)
        cpu = [c * speed.factor(t0, t1) for t0, t1, c in timed.ops]
        record.update({
            "samples": len(samples),
            "op_s_quartiles": statistics.quantiles(samples, n=4) if len(samples) > 1 else samples,
            "op_s_tail": tail_percentile(samples),
            "wall_op_s_p50": statistics.median(t1 - t0 for t0, t1, _ in timed.ops),
        })
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(prepare_s),
            "op_s_p50": statistics.median(samples),
            "ops_per_s": len(samples) / sum(samples),
            "cpu_s_per_op": sum(cpu) / len(samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        record["end_to_end"] = metrics

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {"record": record, "result": result}
        status |= 0 if result["correct"] else 1
        print(f"{name}  (backend {record['backend']}, nproc {record['nproc']}, "
              f"attempted {result['attempted']}, failed {result['failed']})")
        rows = dict(result["metrics"], failed_ratio=record["failed_ratio"])
        for metric_name, m in rows.items():
            value = "absent" if m.get("absent") else f"{m['value']:.6g}"
            print(f"  {metric_name:<28} {value:>14} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
