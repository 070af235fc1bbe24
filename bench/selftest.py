"""Self-test of the benchmark: tiny runs prove that the gates can fail.

Run from the repository root:

    python3 bench/selftest.py

For each workload it runs that workload's tiny warm-up jobs through the job
runner and the gates.  Untouched, the run must be correct.  Then, for each
gate those jobs reached, it runs them again with that gate's expected value
made wrong on purpose, and the run must come out incorrect.  The golden CLI
gate is tampered with in the same way.  It also checks that one seed gives
the same job stream twice, and that the benchmark refuses to start under
``python -O`` or outside a source tree.  Exit status 0 when all of this holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import run  # sets the environment up the way a benchmark run does
import jobs
import spans
import workloads


def tiny_run(pkg, workload: str, tamper: str | None = None):
    job_list = workloads.warmup_jobs(workload)
    gates = jobs.Gates(tamper)
    outcomes, _ = run.timed_loop(pkg, iter(job_list), spans.NullTracer(), count=len(job_list), gates=gates)
    return run.is_correct(outcomes, gates), gates


def check_workload(workload: str, fixtures: Path) -> list[str]:
    errors = []
    pkg = run.set_up(workload, spans.NullTracer())
    correct, gates = tiny_run(pkg, workload)
    if not correct:
        errors.append(f"{workload}: the untouched tiny run failed: {gates.problems}")
    reached = sorted(set(gates.checked))
    for gate in reached:
        correct, tampered = tiny_run(pkg, workload, tamper=gate)
        if correct or not any(p.startswith(f"{gate}:") for p in tampered.problems):
            errors.append(f"{workload}: a wrong expected value for {gate} did not fail the run")
    golden = jobs.Gates(tamper="golden.table_reference.csv")
    jobs.check_golden(pkg, fixtures, spans.NullTracer(), golden)
    if len(golden.problems) != 1:
        errors.append(f"{workload}: a wrong golden fixture did not fail the run: {golden.problems}")
    if list(islice(workloads.jobs(workload, 7), 12)) != list(islice(workloads.jobs(workload, 7), 12)):
        errors.append(f"{workload}: seed 7 gave two different job streams")
    print(f"{workload}: {len(reached)} gates reached, each trips on a wrong expected value")
    return errors


def check_refusals(root: Path) -> list[str]:
    errors = []
    script = str(Path(run.__file__).resolve())
    cases = {
        "python -O": ([sys.executable, "-O", script, "--workload", "exact_oracle", "--seconds", "1"], root),
        "no source tree": ([sys.executable, script, "--workload", "exact_oracle", "--seconds", "1"], run.BENCH_DIR),
    }
    for label, (argv, cwd) in cases.items():
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"{label}: expected a nonzero exit and no result, got {proc.returncode}")
    return errors


def main() -> int:
    root = Path.cwd()
    fixtures = root / "tests" / "fixtures"
    sys.path.insert(0, str(root / "src"))
    errors = check_refusals(root)
    for workload in workloads.WORKLOADS:
        errors += check_workload(workload, fixtures)
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    if manifest != run.manifest():
        errors.append("BENCHMARK.json differs from `python3 bench/run.py --manifest`")
    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
