"""The package's cross-checks still run under python -O.

Each check compares two independent computations (the staircase against its
weighted-degree witness, the half-hyperbolic dimension formula against
enumeration, the designed square footprint against the one computed, a
certificate's claimed weight against its evaluation over the grid, the
promised dimension win against both dimensions, a report's footprint bound
against its exact distance, a MacWilliams sum against |C|, a field's exp
table against the size of its unit group).  A subprocess under
``python -O`` runs each path once as is, then once with one side forced
wrong, and reports what was raised.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys
from itertools import product
from squarecodes import bounds, certify, evalcode, families, gf
from squarecodes.errors import CrossCheckFailed
from squarecodes.expsets import MonomialSet

asserts_run = False
try:
    assert False
except AssertionError:
    asserts_run = True

def full_box(q, m):
    return MonomialSet(q, m, product(range(q), repeat=m))

# path -> (call, module, name patched there, wrong stand-in)
forced = {
    "staircase": (lambda: families.wrm_even_optimal_set(11, 6), families,
                  "weighted_rm_set", lambda *args: full_box(11, 2)),
    "halfhyp_dimension": (lambda: bounds.halfhyp_dimension_formula(11, 12), bounds,
                          "half_hyperbolic_set", lambda *args: full_box(11, 2)),
    "square_design": (lambda: bounds.best_wrm_square_design(11, 4), bounds,
                      "square_support", lambda A: full_box(A.q, A.m)),
    "certificate": (lambda: certify.certified_min_distance(families.reed_muller_set(11, 2, 6)),
                    evalcode, "weight_of_witness", lambda poly, A: 0),
    "wrm_beats_halfhyp": (lambda: bounds.wrm_beats_halfhyp(11, 2), bounds,
                          "half_hyperbolic_set", lambda *args: full_box(11, 2)),
    "fb_at_most_d": (lambda: bounds.params_report(families.reed_muller_set(11, 2, 6)), bounds,
                     "footprint_bound", lambda A: 10**9),
    # 364 classes in the code and 13 in its dual: a budget of 13 takes the dual route
    "macwilliams": (lambda: evalcode.exact_min_distance(
                        evalcode.generator_matrix(families.reed_muller_set(3, 2, 2)), budget=13),
                    evalcode, "weight_distribution_exhaustive",
                    lambda H, budget=None: [1, 1] + [0] * (H.n - 1)),
    # 2 = -1 has order 2 in GF(9)
    "generator": (lambda: gf.FieldSpec(9), gf.FieldSpec, "_find_primitive", lambda self: 2),
}
report = {"optimize": sys.flags.optimize, "asserts_run": asserts_run}
for name, (call, module, attr, wrong) in forced.items():
    call()  # unpatched, both sides agree
    original = getattr(module, attr)
    setattr(module, attr, wrong)
    try:
        call()
        report[name] = None
    except CrossCheckFailed as exc:
        report[name] = type(exc).__name__
    finally:
        setattr(module, attr, original)
print(json.dumps(report))
"""


def test_forced_mismatches_raise_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["optimize"] == 1 and not report["asserts_run"]
    for name in (
        "staircase", "halfhyp_dimension", "square_design", "certificate",
        "wrm_beats_halfhyp", "fb_at_most_d", "macwilliams", "generator",
    ):
        assert report[name] == "CrossCheckFailed", (name, report)
