"""The squarecodes benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 bench/run.py --workload design_scale --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: jobs run back to back, one
job being one design question (see jobs.py), until the jobs have taken
``--seconds`` seconds.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it runs the same jobs once more with a span
around every call into the package, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object; a
fuller record (failing jobs, determinism digest, machine facts and, when
traced, every span) goes to ``bench/results/``.

Exit status: 0 when every gate passed, 1 when a gate failed or a job failed
unexpectedly, 2 when the run could not start (no package, ``python -O``).
``python3 bench/run.py --manifest`` prints the BENCHMARK.json this file
defines.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One process and one thread: pin the numpy/BLAS pools before numpy loads,
# and measure the package's default budgets, not an override.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SQUARECODES_BUDGET", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
MODULES = ("gf", "expsets", "evalcode", "families", "bounds", "certify", "cli")
SETUPS = 7  # set-ups per run; setup_s is their median
DIGEST_JOBS = 40  # the determinism digest covers this many leading jobs
MIN_SOLVED = 100  # so that at least ten solved jobs lie beyond p90
RUN_SECONDS = 30
# The CPUs this process may run on.  Jobs and set-ups take them in turn: on a
# shared machine one CPU can be slower than another for minutes at a time,
# and a run that stayed on one of them would measure that luck.
CPUS = sorted(os.sched_getaffinity(0))

WHY = {
    "design_scale": "large lower sets from every family at q^m up to 2^16: families, square support and box certificates",
    "exact_oracle": "small codes through the exhaustive distance oracle and the Schur identity: evalcode's walks and rref",
    "irregular_sets": "non-lower sets in four shapes: the general square path and the divisor, shifted and none certificates",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solved_per_s", "jobs/s", "higher", 0.25),
    ("job_s_p50", "s", "lower", 0.25),
    ("job_s_p90", "s", "lower", 0.25),
    ("solved_ratio", "ratio", "higher", 0.05),
    ("exact_ratio", "ratio", "higher", 0.15),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

# layers timed from spans: metric <layer>_s is the total self time,
# <layer>_s.share its share of job time, <layer>_s.p50 the per-call median
TIMED_LAYERS = (
    "gf.field",
    "families.construct",
    "families.contain",
    "families.alg1",
    "expsets.square",
    "expsets.set_build",
    "expsets.is_lower",
    "bounds.fb",
    "certify.cert",
    "evalcode.genmat",
    "evalcode.exact",
    "evalcode.schur",
    "evalcode.rowspace",
    "cli.golden",
)

# name, unit, better; "computed" marks counts worked out from input sizes
COUNTS = (
    ("families.construct_calls", "count", "lower", False),
    ("families.box_points", "count", "lower", True),
    ("families.alg1_points", "count", "lower", True),
    ("expsets.square_pairs", "count", "lower", True),
    ("expsets.square_k", "count", "lower", False),
    ("bounds.fb_calls", "count", "lower", False),
    ("certify.kind.box", "count", "higher", False),
    ("certify.kind.divisor", "count", "higher", False),
    ("certify.kind.shifted", "count", "higher", False),
    ("certify.kind.none", "count", "lower", False),
    ("certify.verify_points", "count", "lower", True),
    ("certify.budget_exceeded", "count", "lower", False),
    ("evalcode.genmat_entries", "count", "lower", True),
    ("evalcode.route.primal", "count", "lower", True),
    ("evalcode.route.dual", "count", "lower", True),
    ("evalcode.classes", "count", "lower", True),
    ("evalcode.classes_per_s", "1/s", "higher", False),
    ("evalcode.budget_exceeded", "count", "lower", False),
    ("evalcode.schur_rows", "count", "lower", True),
    ("cli.golden_ok", "count", "higher", False),
    ("trace.overhead_pct", "%", "lower", False),
    ("trace.jobs", "count", "higher", False),
    ("trace.spans", "count", "higher", False),
)


def per_layer_defs():
    out = []
    for layer in TIMED_LAYERS:
        out += [(f"{layer}_s", "s", "lower"), (f"{layer}_s.share", "%", "lower"), (f"{layer}_s.p50", "s", "lower")]
    out += [(name, unit, better) for name, unit, better, _ in COUNTS]
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_defs()],
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, tr):
    """Import the package afresh, build the workload's field tables, warm up."""
    for name in [n for n in sys.modules if n == "squarecodes" or n.startswith("squarecodes.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(
        **{mod: importlib.import_module(f"squarecodes.{mod}") for mod in MODULES}
    )
    tr.job = "setup"
    for q in workloads.FIELDS[workload]:
        with tr.span("gf.field", q=q):
            pkg.gf.field(q).tables()
    for job in workloads.warmup_jobs(workload):
        jobs.run_job(pkg, job, spans.NullTracer())
    return pkg


def set_up_repeatedly(workload: str, tr):
    """Set up SETUPS times; the last set-up (traced when tr records) is kept."""
    times = []
    start = PROCESS_START
    for i in range(SETUPS):
        take_turn(i)
        pkg = set_up(workload, tr if i == SETUPS - 1 else spans.NullTracer())
        end = time.perf_counter()
        times.append(end - start)
        start = end
    return pkg, times


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def take_turn(i: int) -> None:
    """Move this single-threaded process to the next CPU in turn."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def timed_loop(pkg, stream, tr, seconds=None, count=None, gates=None):
    """Run jobs back to back until their latencies add up to ``seconds`` and
    MIN_SOLVED jobs are solved (but no longer than 2 * ``seconds``), or until
    ``count`` jobs have run.  Gates run between jobs, off the clock."""
    outcomes = []
    busy = 0.0
    solved = 0

    def more():
        if count is not None:
            return len(outcomes) < count
        return busy < seconds or (solved < MIN_SOLVED and busy < 2 * seconds)

    while more():
        take_turn(len(outcomes))
        oc = jobs.run_job(pkg, next(stream), tr)
        busy += oc.latency
        if gates is not None and oc.error is None:
            before = len(gates.problems)
            jobs.check_job(pkg, oc, gates)
            oc.problems = gates.problems[before:]
        # keep the summaries, drop the sets
        oc.out = {k: v for k, v in oc.out.items() if k.endswith("_leaf")}
        outcomes.append(oc)
        solved += oc.status == "solved"
    return outcomes, busy


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for oc in outcomes:
        h.update(repr(oc.digest_record()).encode())
    return h.hexdigest()


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(outcomes, busy: float, setup_times) -> dict:
    solved = [oc for oc in outcomes if oc.status == "solved"]
    lat = sorted(oc.latency for oc in solved)
    exact = sum(oc.out["A_leaf"].exact and oc.out["S_leaf"].exact for oc in solved)
    return {
        "setup_s": statistics.median(setup_times),
        "solved_per_s": len(solved) / busy,
        "job_s_p50": statistics.median(lat) if lat else float("nan"),
        "job_s_p90": percentile(lat, 90) if lat else float("nan"),
        "solved_ratio": len(solved) / len(outcomes),
        "exact_ratio": exact / len(solved) if solved else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr, untraced_busy: float, traced_busy: float, golden_ok: int) -> dict:
    sp = tr.spans
    own = spans.self_times(sp)
    job_time = sum(s.end - s.start for s in sp if s.name == "job")
    out = {}
    for layer in TIMED_LAYERS:
        calls = [own[i] for i, s in enumerate(sp) if s.name == layer]
        total = sum(calls)
        out[f"{layer}_s"] = total
        out[f"{layer}_s.share"] = 100 * total / job_time if job_time else 0.0
        out[f"{layer}_s.p50"] = statistics.median(calls) if calls else 0.0

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in sp if s.name == name)

    def calls(name, key=None, value=None):
        if key == "error":
            return sum(1 for s in sp if s.name == name and s.error == value)
        return sum(1 for s in sp if s.name == name and (key is None or s.attrs.get(key) == value))

    exact_ok = [(i, s) for i, s in enumerate(sp) if s.name == "evalcode.exact" and s.error is None]
    classes = sum(s.attrs["classes"] for _, s in exact_ok)
    exact_busy = sum(own[i] for i, _ in exact_ok)
    out.update(
        {
            "families.construct_calls": calls("families.construct"),
            "families.box_points": total("families.construct", "points"),
            "families.alg1_points": total("families.alg1", "points"),
            "expsets.square_pairs": total("expsets.square", "pairs"),
            "expsets.square_k": total("expsets.square", "k"),
            "bounds.fb_calls": calls("bounds.fb"),
            "certify.kind.box": calls("certify.cert", "kind", "box"),
            "certify.kind.divisor": calls("certify.cert", "kind", "divisor"),
            "certify.kind.shifted": calls("certify.cert", "kind", "shifted"),
            "certify.kind.none": calls("certify.cert", "kind", "none"),
            "certify.verify_points": total("certify.cert", "verify_points"),
            "certify.budget_exceeded": calls("certify.cert", "error", "BudgetExceeded"),
            "evalcode.genmat_entries": total("evalcode.genmat", "entries"),
            "evalcode.route.primal": calls("evalcode.exact", "route", "primal"),
            "evalcode.route.dual": calls("evalcode.exact", "route", "dual"),
            "evalcode.classes": classes,
            "evalcode.classes_per_s": classes / exact_busy if exact_busy else 0.0,
            "evalcode.budget_exceeded": calls("evalcode.exact", "error", "BudgetExceeded"),
            "evalcode.schur_rows": total("evalcode.schur", "rows"),
            "cli.golden_ok": golden_ok,
            "trace.overhead_pct": 100 * (traced_busy - untraced_busy) / untraced_busy,
            "trace.jobs": calls("job"),
            "trace.spans": len(sp),
        }
    )
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def machine_facts(loadavg) -> dict:
    return {
        "git_sha": _git_sha(Path.cwd()),
        "nproc": os.cpu_count(),
        "cpus_used": len(CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": loadavg,
        "platform": platform.platform(),
    }


def _git_sha(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, fixtures: Path) -> tuple[dict, dict]:
    """One run; returns (result line, full record)."""
    loadavg = os.getloadavg()
    tr = spans.Tracer() if trace else spans.NullTracer()
    pkg, setup_times = set_up_repeatedly(workload, tr)
    gates = jobs.Gates()
    outcomes, busy = timed_loop(
        pkg, workloads.jobs(workload, seed), spans.NullTracer(), seconds=seconds, gates=gates
    )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(loadavg),
        "setup_times_s": setup_times,
        "busy_s": busy,
        "digest": digest(outcomes[:DIGEST_JOBS]),
        "digest_jobs": min(DIGEST_JOBS, len(outcomes)),
    }
    if trace:
        traced, traced_busy = timed_loop(pkg, workloads.jobs(workload, seed), tr, count=len(outcomes))
        if digest(traced) != digest(outcomes):
            gates.problems.append("trace: the traced jobs gave other outputs than the untraced ones")
        tr.job = "golden"
        golden_ok = jobs.check_golden(pkg, fixtures, tr, gates)
        metrics = per_layer(tr, busy, traced_busy, golden_ok)
        record["spans"] = [s.to_json() for s in tr.spans]
        first = [s for s in tr.spans if s.job == 0 and s.name != "job"]
        record["job0_calls_s"] = [(s.name, s.end - s.start) for s in first]
        defs = per_layer_defs()
    else:
        golden_ok = jobs.check_golden(pkg, fixtures, tr, gates)
        metrics = end_to_end(outcomes, busy, setup_times)
        defs = [(n, u, b) for n, u, b, _ in END_TO_END]
    refused = [oc for oc in outcomes if oc.status == "refused"]
    failed = [oc for oc in outcomes if oc.status == "failed"]
    record.update(
        {
            "attempted": len(outcomes),
            "solved": len(outcomes) - len(refused) - len(failed),
            "fail_ratio": (len(refused) + len(failed)) / len(outcomes),
            "refused": [_failure(oc) for oc in refused],
            "failed": [_failure(oc) for oc in failed],
            "jobs": [
                {**oc.job.to_json(), "latency_s": oc.latency, "status": oc.status} for oc in outcomes
            ],
            "golden_ok": golden_ok,
            "gate_problems": gates.problems,
            "metrics": metrics,
        }
    )
    line = {
        "correct": is_correct(outcomes, gates),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _ in defs},
    }
    return line, record


def is_correct(outcomes, gates) -> bool:
    """A run is correct when no gate failed and no job failed unexpectedly."""
    return not gates.problems and all(oc.status != "failed" for oc in outcomes)


def _failure(oc) -> dict:
    return {
        **oc.job.to_json(),
        "error": oc.error,
        "where": oc.error_trace.strip().splitlines()[-3:] if oc.error_trace else None,
        "gates": oc.problems,
    }


def report(line: dict, record: dict) -> str:
    """Readable summary printed above the result line."""
    out = [
        f"{record['workload']} seed {record['seed']}: {record['attempted']} jobs attempted, "
        f"{record['solved']} solved, {len(record['refused'])} refused (BudgetExceeded), "
        f"{len(record['failed'])} failed; fail_ratio {record['fail_ratio']:.4f}",
        f"digest {record['digest']} over the first {record['digest_jobs']} jobs",
    ]
    computed = {name for name, _, _, is_computed in COUNTS if is_computed}
    for name, m in line["metrics"].items():
        note = " (computed from input sizes)" if name in computed else ""
        if name == "job_s_p90":
            note = f" (nearest rank over {record['solved']} solved jobs)"
        out.append(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if "job0_calls_s" in record:
        calls = ", ".join(f"{name} {t:.3g} s" for name, t in record["job0_calls_s"])
        out.append(f"  job 0 ({record['jobs'][0]['set']}) calls: {calls}")
    for kind in ("refused", "failed"):
        for f in record[kind]:
            out.append(f"  {kind} job {f['job']} [{f['stratum']}] {f['set']}: {f['error'] or f['gates']}")
    out += [f"  gate: {p}" for p in record["gate_problems"]]
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if sys.flags.optimize:
        print("error: python -O strips the package's verification asserts; run without -O", file=sys.stderr)
        return 2
    root = Path.cwd()
    fixtures = root / "tests" / "fixtures"
    if not (root / "src" / "squarecodes" / "__init__.py").is_file() or not fixtures.is_dir():
        print(f"error: no squarecodes source tree (src/, tests/fixtures/) under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace), fixtures)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(report(line, record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
