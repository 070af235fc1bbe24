"""The job runner: the ``params_report`` pipeline unrolled, and its gates.

A job runs, for its set A and then for the square support S of A, the
steps of ``params_report``: footprint bound, certified distance and, on
exact_oracle, the generator matrix and the exhaustive distance.  Then come
the workload's extra checks.  Every call goes to a public function of the
package, each inside a span named after its layer.  The correctness gates
run after the job's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from workloads import EXACT_BUDGET, Job, box_points, folded_square, route_classes

# fixture file -> argv, the same pairs the CLI golden tests use
GOLDEN = (
    ("table_reference.csv", ["table", "--preset", "reference"]),
    ("compare_11_6.csv", ["compare", "--q", "11", "--d", "6"]),
    ("compare_11_12.csv", ["compare", "--q", "11", "--d", "12"]),
    ("construct_hyp_11_6.json", ["construct", "--family", "hyp", "--q", "11", "--m", "2", "--d", "6"]),
    ("construct_halfhyp_11_12.json", ["construct", "--family", "halfhyp", "--q", "11", "--m", "2", "--d", "12"]),
    ("square_counterexample_7.json", ["square", "--family", "wrm", "--q", "7", "--m", "2", "--s", "5", "--weights", "3,2"]),
    ("certify_wrm_11_15.json", ["certify", "--family", "wrm", "--q", "11", "--m", "2", "--s", "15", "--weights", "5,3"]),
    ("params_rm_11_6.json", ["params", "--family", "rm", "--q", "11", "--m", "2", "--s", "6"]),
)


@dataclass
class Leaf:
    """What the pipeline learned about one set (A or its square)."""

    k: int
    fb: int
    cert: object  # certify.CertifiedDistance
    exhaustive: int | None = None

    @property
    def d(self) -> int:
        return self.exhaustive if self.exhaustive is not None else self.cert.d

    @property
    def d_source(self) -> str:
        if self.cert.exact:
            return "certificate"
        return "exhaustive" if self.exhaustive is not None else "none"

    @property
    def exact(self) -> bool:
        return self.cert.exact or self.exhaustive is not None


@dataclass
class Outcome:
    """A job's latency and results, or the error that ended it.

    The error is kept as text: the exception's traceback would keep the
    job's sets alive for the rest of the run."""

    job: Job
    latency: float
    out: dict = field(default_factory=dict)
    error: str | None = None  # "ExceptionType: message"
    error_trace: str | None = None
    problems: list = field(default_factory=list)  # the gates this job failed

    @property
    def refused(self) -> bool:
        """The package declined the work under its budget (BudgetExceeded)."""
        return self.error is not None and self.error.startswith("BudgetExceeded:")

    @property
    def status(self) -> str:
        """solved, refused (BudgetExceeded), or failed (any other error or a gate)."""
        if self.problems or (self.error is not None and not self.refused):
            return "failed"
        return "refused" if self.refused else "solved"

    def digest_record(self) -> tuple:
        if self.error is not None:
            return (self.job.jid, "failed", self.error.split(":")[0])
        a, s = self.out["A_leaf"], self.out["S_leaf"]
        return (self.job.jid, a.k, a.fb, a.d, a.d_source, a.cert.certificate.kind, s.k, s.fb)


def run_job(pkg, job: Job, tr) -> Outcome:
    outcome = Outcome(job, 0.0)
    tr.job = job.jid
    start = perf_counter()
    try:
        with tr.span("job"):
            _pipeline(pkg, job, tr, outcome.out)
    except Exception as exc:  # a job boundary: record the failure and go on
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.error_trace = traceback.format_exc(limit=-3)
    outcome.latency = perf_counter() - start
    return outcome


def _pipeline(pkg, job: Job, tr, out: dict) -> None:
    q, m = job.q, job.m
    if job.family is not None:
        with tr.span("families.construct", points=box_points(job.family, q, m)):
            A = getattr(pkg.families, job.family)(*job.args)
    else:
        with tr.span("expsets.set_build"):
            A = pkg.expsets.MonomialSet(q, m, job.exponents)
    out["A"] = A
    out["A_leaf"] = _leaf(pkg, job, A, tr)
    with tr.span("expsets.square", pairs=len(A) ** 2) as sp:
        S = pkg.expsets.square_support(A)
        sp["k"] = len(S)
    out["S"] = S
    out["S_leaf"] = _leaf(pkg, job, S, tr)
    _EXTRA[job.workload](pkg, job, tr, out)


def _leaf(pkg, job: Job, X, tr) -> Leaf:
    with tr.span("bounds.fb"):
        fb = pkg.bounds.footprint_bound(X)
    with tr.span("certify.cert") as sp:
        res = pkg.certify.certified_min_distance(X)
        sp["kind"] = res.certificate.kind
        sp["verify_points"] = X.q**X.m if res.exact else 0
    leaf = Leaf(len(X), fb, res)
    if job.workload == "exact_oracle":
        G = _genmat(pkg, X, tr)
        route, classes = route_classes(X.q, X.q**X.m, len(X))
        with tr.span("evalcode.exact", route=route, classes=classes):
            leaf.exhaustive = pkg.evalcode.exact_min_distance(G, budget=EXACT_BUDGET)
    return leaf


def _genmat(pkg, X, tr):
    with tr.span("evalcode.genmat", entries=len(X) * X.q**X.m):
        return pkg.evalcode.generator_matrix(X)


def _design_checks(pkg, job: Job, tr, out: dict) -> None:
    if job.design_d is None:
        return
    q, m, d = job.q, job.m, job.design_d
    with tr.span("families.construct", points=q**m):
        B = pkg.families.hyperbolic_set(q, m, d)
    with tr.span("families.contain"):
        out["designed"] = pkg.families.check_square_designed(out["A"], B)
    region = pkg.families.ConvexRegion(m, (), None, d)
    with tr.span("families.alg1", points=(2 * q - 1) ** m):
        out["alg1"] = pkg.families.algorithm1_verify(region, B)


def _irregular_checks(pkg, job: Job, tr, out: dict) -> None:
    q, m, A = job.q, job.m, out["A"]
    fb = out["S_leaf"].fb
    with tr.span("expsets.is_lower"):
        out["A_lower"] = pkg.expsets.is_lower_set(A)
    with tr.span("families.construct", points=q**m):
        H0 = pkg.families.hyperbolic_set(q, m, fb)
    with tr.span("families.construct", points=q**m):
        H1 = pkg.families.hyperbolic_set(q, m, fb + 1)
    with tr.span("families.contain"):
        out["violation_fb"] = pkg.families.square_design_violation(A, H0)
    with tr.span("families.contain"):
        out["violation_fb1"] = pkg.families.square_design_violation(A, H1)
    with tr.span("families.contain"):
        out["necessary"] = pkg.families.necessary_condition_check(A, H0)


def _schur_check(pkg, job: Job, tr, out: dict) -> None:
    q, vecs = job.companion
    with tr.span("expsets.set_build"):
        C = pkg.expsets.MonomialSet(q, 2, vecs)
    G = _genmat(pkg, C, tr)
    with tr.span("expsets.square", pairs=len(C) ** 2) as sp:
        SC = pkg.expsets.square_support(C)
        sp["k"] = len(SC)
    GS = _genmat(pkg, SC, tr)
    with tr.span("evalcode.schur", rows=len(C) * (len(C) + 1) // 2):
        P = pkg.evalcode.schur_square_matrix(G)
    with tr.span("evalcode.rowspace"):
        out["schur"] = pkg.evalcode.row_space_equal(P, GS)


_EXTRA = {
    "design_scale": _design_checks,
    "exact_oracle": _schur_check,
    "irregular_sets": _irregular_checks,
}


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _off_by_one(value):
    """A deliberately wrong expected value, for the self-test."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 1,)
    if value is None:
        return ()
    return value + "\n"


class Gates:
    """Collects gate results; ``tamper`` names a gate whose expected value is
    made wrong on purpose, to prove that the gate can fail."""

    def __init__(self, tamper: str | None = None):
        self.tamper = tamper
        self.checked: list[str] = []
        self.problems: list[str] = []

    def expect(self, gate: str, actual, expected) -> None:
        self.checked.append(gate)
        if gate == self.tamper:
            expected = _off_by_one(expected)
        if actual != expected:
            self.problems.append(f"{gate}: got {actual!r}, expected {expected!r}")


def check_job(pkg, outcome: Outcome, gates: Gates) -> None:
    """Gates for one solved job: the package's public functions, and a square
    support worked out here, apart from the package."""
    job, out = outcome.job, outcome.out
    A = out["A"]
    gates.expect("square_support", set(out["S"].exponents) == folded_square(A.exponents, A.q, A.m), True)
    for tag in ("A", "S"):
        X, leaf = out[tag], out[f"{tag}_leaf"]
        res = leaf.cert
        gates.expect(f"{tag}.fb_le_d", leaf.fb <= leaf.d, True)
        if res.exact:
            gates.expect(f"{tag}.witness_weight", pkg.evalcode.weight_of_witness(res.certificate, X), res.d)
        if leaf.exhaustive is not None and res.certificate.kind == "box":
            gates.expect(f"{tag}.exhaustive_is_box_weight", leaf.exhaustive, res.certificate.weight)
        lower = out.get(f"{tag}_lower")
        if lower is None:
            lower = pkg.expsets.is_lower_set(X)
        if lower:  # the sharpness theorem: on lower sets d = FB
            gates.expect(f"{tag}.lower_d_is_fb", leaf.d, leaf.fb)
            gates.expect(f"{tag}.lower_exact", leaf.exact, True)
    if job.workload == "design_scale" and job.design_d is not None:
        gates.expect("square_designed", out["designed"], True)
        gates.expect("algorithm1", out["alg1"], True)
    elif job.workload == "irregular_sets":
        S = out["S"]
        gates.expect("violation_at_fb", out["violation_fb"], None)
        gates.expect("violation_at_fb1", out["violation_fb1"], pkg.bounds.footprint_argmins(S)[0])
        gates.expect("necessary_condition", out["necessary"], True)
    elif job.workload == "exact_oracle":
        gates.expect("schur_identity", out["schur"], True)


def check_golden(pkg, fixtures, tr, gates: Gates) -> int:
    """Run every golden CLI command once; return how many matched byte for byte."""
    ok = 0
    for name, argv in GOLDEN:
        buf = io.StringIO()
        with tr.span("cli.golden"), contextlib.redirect_stdout(buf):
            code = pkg.cli.main(list(argv))
        before = len(gates.problems)
        gates.expect(f"golden.{name}.exit", code, 0)
        gates.expect(f"golden.{name}", buf.getvalue(), (fixtures / name).read_text())
        ok += len(gates.problems) == before
    return ok
