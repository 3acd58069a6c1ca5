"""Self-test of the benchmark's output checks and metric names.

Each check must accept a real output of the library and reject the same
output perturbed; the metric names the benchmark prints must be the ones
BENCHMARK.json declares.  Exits 1 on any mismatch.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from berkpot import affable, battery, green, measures, places, points, rmaps, sweeps  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ARC = places.Place.archimedean()
RESULTS = []


def expect(name: str, good: bool, bad: bool):
    """`good` is the check on a real output, `bad` on a perturbed one."""
    ok = good is True and bad is False
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: accepts real output={good}, accepts perturbed={bad}")


def arch_checks():
    cheb = rmaps.HomogeneousLift.polynomial([-2, 0, 1])
    z = complex(0.7, 1.3)
    st = green.lambda_limit(ARC, cheb, points.classical(z), workloads.ARCH_TOL)
    expect("closed form of z^2-2", checks.closed_form_ok(z, st.value, st.certified_error),
           checks.closed_form_ok(z, st.value + 10 * st.certified_error, st.certified_error))

    coeffs = [workloads.RABBIT_C, 0, 1]
    rabbit = rmaps.HomogeneousLift.polynomial(coeffs)
    x = complex(0.4, -0.2)
    fx = x * x + workloads.RABBIT_C
    a = green.lambda_limit(ARC, rabbit, points.classical(x), workloads.ARCH_TOL)
    b = green.lambda_limit(ARC, rabbit, points.classical(fx), workloads.ARCH_TOL)
    g = checks.poly_deviation(coeffs, x)
    slack = 2 * a.certified_error + b.certified_error
    expect("rabbit functional equation",
           checks.functional_equation_ok(2, a.value, a.certified_error, b.value, b.certified_error, g),
           checks.functional_equation_ok(2, a.value + slack, a.certified_error, b.value,
                                         b.certified_error, g))

    values = [0.184, 0.0201, 0.00075]
    expect("pairings decrease in k", all(checks.pairings_ok(values)),
           all(checks.pairings_ok([values[0], values[2], values[1]])))
    expect("pairings nonnegative", all(checks.pairings_ok(values)),
           all(checks.pairings_ok(values[:2] + [-1e-5])))

    rows = green.contraction_ratios(ARC, rmaps.HomogeneousLift.polynomial([1, 0, 1]),
                                    sweeps.circle_sample(16), workloads.CONTRACTION_N)
    expect("contraction ratios", checks.contraction_ok(rows), checks.contraction_ok(rows + [(99, 0.6)]))


def sweep_checks():
    row = {"place_kind": "arch", "place_param": "1/2", "fn_id": "clip_log_T_minus_2",
           "value": 0.5 * math.log(2), "cert_err": 1e-6}
    expect("finite row", checks.finite_row(row), checks.finite_row(dict(row, value=math.nan)))
    expect("rows agree within errors", checks.rows_agree(row, dict(row, value=row["value"] + 1e-6)),
           checks.rows_agree(row, dict(row, value=row["value"] + 3e-6)))
    expect("values agree within the eps-corrected errors",
           checks.values_agree(row, dict(row, value=row["value"] + 3e-6)),
           checks.values_agree(row, dict(row, value=row["value"] + 5e-6)))
    expect("criterion 1 on the arch branch", checks.criterion_1_ok(row),
           checks.criterion_1_ok(dict(row, value=row["value"] + 5e-3)))
    end = dict(row, place_kind="trivial", place_param="", value=0.0)
    expect("criterion 1 at the trivial end", checks.criterion_1_ok(end),
           checks.criterion_1_ok(dict(end, value=1e-3)))
    one = dict(row, fn_id="one", value=math.log(3), cert_err=4e-8)
    expect("mass row", checks.mass_row_ok(one, math.log(3)),
           checks.mass_row_ok(dict(one, value=1.0), math.log(3)))


def padic_checks():
    place = places.Place.padic(3)
    disks = [points.GAUSS, points.disk(9, -4), points.disk(5, -1)]
    graph = points.build_skeleton(place, disks)
    expect("skeleton keeps its inputs",
           checks.skeleton_ok(lambda x: graph.vertex_of_point(place, x), disks),
           checks.skeleton_ok(lambda x: graph.vertex_of_point(place, x), disks + [points.disk(2, -2)]))

    fn = battery.standard_battery()[2]
    u, _ = affable.restrict_to_skeleton(place, fn, graph)
    expected = [affable.affable_eval(place, fn, x) for x in graph.labels]
    expect("restriction values", checks.restriction_ok(u.values, expected),
           checks.restriction_ok([u.values[0] + Fraction(1, 10**9)] + list(u.values[1:]), expected))

    lift = rmaps.HomogeneousLift.from_coeffs(2, [0, 0, Fraction(1, 3)], [1])
    mu, report = measures.equilibrium_nonarch(place, lift, sweeps.default_skeleton(place), 1e-4)
    expect("unit mass", checks.unit_mass_ok(report.total_mass),
           checks.unit_mass_ok(report.total_mass + Fraction(1, 10**12)))

    good = rmaps.HomogeneousLift.from_coeffs(2, [3, 0, 1], [1])
    mu, _ = measures.equilibrium_nonarch(place, good, graph, 1e-4)

    def is_gauss(x):
        return points.same_point(place, x, points.GAUSS)

    expect("single Gauss atom", checks.gauss_atom_ok(mu.atoms, is_gauss),
           checks.gauss_atom_ok([(mu.atoms[0][0], Fraction(1, 2)), (graph.labels[1], Fraction(1, 2))],
                                is_gauss))


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    fake = [{"setup_s": 0.1, "wall_s": 1.0, "latencies_ms": [1.0] * 30, "attempted": 1,
             "failed": 0, "peak_rss_mb": 1.0}] * run.SETUP_SAMPLES
    e2e, _ = run.end_to_end("arch-potential", 0, fake)
    layers = dict(spans.Tracer().summary())
    layer_names = list(run.per_layer([{"wall_s": 1.0}], [{"wall_s": 1.0, "layers": layers}]))
    for kind, names in (("end_to_end", list(e2e)), ("per_layer", layer_names)):
        have = [m["name"] for m in declared[kind]]
        ok = have == names
        RESULTS.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json {kind} names match the printed metrics"
              + ("" if ok else f": missing {sorted(set(names) - set(have))}, "
                 f"extra {sorted(set(have) - set(names))}"))


def main() -> int:
    arch_checks()
    sweep_checks()
    padic_checks()
    metric_names()
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
