"""The three workloads: set-up, seeded inputs, the fixed job list, checks.

A job is one public call into berkpot.  Jobs call through module
attributes (``green.lambda_limit``), so the wrappers of a traced run see
them.  ``setup`` is timed as set-up; ``jobs`` generates every input from the
seed and returns the job list; ``check`` runs after the timed loop, with
tracing removed, and marks the jobs and sweep rows whose output is wrong.
"""

from __future__ import annotations

import cmath
import collections
import csv
import json
import math
import os
import random
from fractions import Fraction

from berkpot import affable, battery, cli, green, measures, places, points, rmaps, sweeps

import checks

ARC = places.Place.archimedean()
ROWS_PER_SWEEP = 12 * 8  # 11 fibers plus the ultrametric endpoint, 8 battery functions


class Job:
    """One timed public call; ``attempts`` is 1, or the row count of a sweep."""

    def __init__(self, name: str, call, attempts: int = 1, **meta):
        self.name = name
        self.call = call
        self.attempts = attempts
        self.meta = meta
        self.out = None
        self.error = ""
        self.failures = 0  # attempts that failed, set by the worker and the checks
        self.wrong = 0     # of those, outputs that failed a check
        self.reasons = collections.Counter()  # failures the checks named, by reason

    def fail(self, count: int = 1, wrong: bool = False, reason: str = ""):
        count = min(count, self.attempts - self.failures)
        self.failures += count
        if wrong:
            self.wrong += count
        if reason and count:
            self.reasons[reason] += count


# -- arch-potential -------------------------------------------------------------

ARCH_TOL = 1e-8
CHEB_GRID = (64, 32)            # jittered cells over [-3, 3]^2: 2,048 points
RABBIT_C = complex(-0.1226, 0.7449)
RABBIT_POINTS = 10              # each point and its image: 20 lambda_limit jobs
PAIRING_KS = (1, 4, 8)          # z^2 + 2^-k, criterion 10's family
PAIRING_N, PAIRING_TOL = 10, 1e-7
CONTRACTION_SAMPLE, CONTRACTION_N = 64, 12


def arch_setup():
    poly = rmaps.HomogeneousLift.polynomial
    return {
        "cheb": poly([-2, 0, 1]),
        "rabbit": poly([RABBIT_C, 0, 1]),
        "z2": poly([0, 0, 1]),
        "pert": [poly([Fraction(1, 2**k), 0, 1]) for k in PAIRING_KS],
        "z2p1": poly([1, 0, 1]),
    }


def arch_jobs(ctx, seed: int, workdir: str):
    rng = random.Random(seed)
    jobs = []
    cols, rows = CHEB_GRID
    for i in range(cols):
        for j in range(rows):
            z = complex(-3 + 6 * (i + rng.random()) / cols, -3 + 6 * (j + rng.random()) / rows)
            x = points.classical(z)
            jobs.append(Job("cheb", lambda x=x: green.lambda_limit(ARC, ctx["cheb"], x, ARCH_TOL), z=z))
    for i in range(RABBIT_POINTS):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        for w in (z, z * z + RABBIT_C):  # the point, then its image
            x = points.classical(w)
            jobs.append(Job("rabbit", lambda x=x: green.lambda_limit(ARC, ctx["rabbit"], x, ARCH_TOL),
                            z=z))
    for k, lift in zip(PAIRING_KS, ctx["pert"]):
        jobs.append(Job("pairing", lambda lift=lift: measures.energy_pairing(
            ARC, ctx["z2"], lift, n=PAIRING_N, tol=PAIRING_TOL), k=k))
    sample = [points.classical(cmath.exp(2j * math.pi * rng.random()))
              for _ in range(CONTRACTION_SAMPLE)]
    jobs.append(Job("contraction", lambda: green.contraction_ratios(
        ARC, ctx["z2p1"], sample, CONTRACTION_N)))
    return jobs


def arch_check(ctx, jobs):
    for job in jobs:
        if job.error:
            continue
        if job.name == "cheb":
            if not checks.closed_form_ok(job.meta["z"], job.out.value, job.out.certified_error):
                job.fail(wrong=True)
        elif job.name == "contraction" and not checks.contraction_ok(job.out):
            job.fail(wrong=True)
    rabbit = [j for j in jobs if j.name == "rabbit"]
    for base, image in zip(rabbit[::2], rabbit[1::2]):
        if base.error or image.error:
            continue
        g = checks.poly_deviation([RABBIT_C, 0, 1], base.meta["z"])
        if not checks.functional_equation_ok(2, base.out.value, base.out.certified_error,
                                             image.out.value, image.out.certified_error, g):
            base.fail(wrong=True)
    pairings = [j for j in jobs if j.name == "pairing"]
    if not any(j.error for j in pairings):
        for job, good in zip(pairings, checks.pairings_ok([j.out for j in pairings])):
            if not good:
                job.fail(wrong=True)


# -- hybrid-sweep ---------------------------------------------------------------

HYBRID_DEPTH = 10
HYBRID_ATOMS = 1 << 13


def hybrid_setup():
    poly = rmaps.HomogeneousLift.polynomial
    return {"z2": poly([0, 0, 1]), "z2m1": poly([-1, 0, 1])}


def hybrid_jobs(ctx, seed: int, workdir: str):
    # no seeded inputs: the configs keep the CLI default preimage-tree seed
    # point 2+0i, because the number of z^2 rows that fail their check
    # depends on it, and ok_frac must not move with the seed
    jobs = []
    specs = [("sweep-eq", "z2"), ("sweep-eq", "z2m1"), ("sweep-chi", "z2")]
    for command, name in specs:
        cfg_path = os.path.join(workdir, f"{name}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"base": "hybrid", "depth": HYBRID_DEPTH, "atom_budget": HYBRID_ATOMS,
                       "map": rmaps.lift_to_json(ctx[name])}, fh)
        out = os.path.join(workdir, f"{command}-{name}.csv")
        argv = [command, "--config", cfg_path, "--out", out, "--quiet"]
        jobs.append(Job(command, lambda argv=argv: cli.main(argv), attempts=ROWS_PER_SWEEP,
                        map=name, csv=out))
    return jobs


def _read_rows(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["value"] = float(row["value"])
        row["cert_err"] = float(row["cert_err"])
    return rows


def hybrid_check(ctx, jobs):
    tables = {}
    for job in jobs:
        if job.error:
            continue
        if job.out != 0:
            job.fail(job.attempts)
            continue
        tables[job.name, job.meta["map"]] = _read_rows(job.meta["csv"])
    chi = {(r["place_kind"], r["place_param"], r["fn_id"]): r
           for r in tables.get(("sweep-chi", "z2"), [])}
    for job in jobs:
        rows = tables.get((job.name, job.meta["map"]))
        if rows is None:
            continue
        # a CSV row carries no error text: an errored row is written as nan
        errored = [r for r in rows if not checks.finite_row(r)]
        wrong = [r for r in rows if checks.finite_row(r) and not checks.mass_row_ok(r)]
        uncovered = []
        if (job.name, job.meta["map"]) == ("sweep-eq", "z2"):
            # mu_{z^2} = chi_{0,1}: the two z^2 tables agree row by row.  A
            # value outside the eps-corrected certificate is wrong; a value
            # inside it but outside the printed cert_err is a failure of the
            # certificate (cert_err is eps times too small), counted apart
            for row in rows:
                if not checks.finite_row(row) or row in wrong:
                    continue
                other = chi.get((row["place_kind"], row["place_param"], row["fn_id"]))
                if (other is None or not checks.values_agree(row, other)
                        or not checks.criterion_1_ok(row)):
                    wrong.append(row)
                elif not checks.rows_agree(row, other):
                    uncovered.append(row)
        job.fail(len(errored) + max(0, job.attempts - len(rows)), reason="errored row")
        job.fail(len(wrong), wrong=True, reason="wrong value")
        job.fail(len(uncovered), reason="cert_err below the z^2 row's error against chi_{0,1}")


# -- padic-skeleton -------------------------------------------------------------

PRIMES = (2, 3)
SKELETONS_PER_PRIME = 6
# basin disks of the superattracting point 0 of T^2/p: their exact orbits
# double the height of the centre at every step
BASIN_DISK = {2: (4, -4), 3: (9, -4)}
PADIC_TOL = 1e-4


def padic_setup():
    lifts = {}
    for p in PRIMES:
        inv = Fraction(1, p)
        lifts[p] = {
            "T^2/p": rmaps.HomogeneousLift.from_coeffs(2, [0, 0, inv], [1]),
            "(T^3-T)/p": rmaps.HomogeneousLift.from_coeffs(3, [0, -inv, 0, inv], [1]),
            "T^2+p": rmaps.HomogeneousLift.from_coeffs(2, [p, 0, 1], [1]),
        }
    return {"lifts": lifts, "battery": battery.standard_battery()}


def padic_jobs(ctx, seed: int, workdir: str):
    rng = random.Random(seed)
    jobs = []
    for p in PRIMES:
        place = places.Place.padic(p)
        units = [c for c in range(1, p**3) if c % p]
        for _ in range(SKELETONS_PER_PRIME):
            # a seeded branching set eta_{c,-1} > eta_{c,q}, eta_{c',q} with unit
            # centres, c' = c mod p but not mod p^2: every skeleton has the same
            # shape and exactly one basin disk, the fixed one
            c = rng.choice(units)
            c2 = (c + p * rng.randrange(1, p)) % p**3
            q = rng.randint(-4, -2)
            disks = [points.GAUSS, points.disk(*BASIN_DISK[p]), points.disk(c, -1),
                     points.disk(c, q), points.disk(c2, q)]
            built = {}

            def build(place=place, disks=disks, built=built):
                built["graph"] = points.build_skeleton(place, disks)
                return built["graph"]

            jobs.append(Job("build_skeleton", build, place=place, disks=disks))
            for name, lift in ctx["lifts"][p].items():
                jobs.append(Job("equilibrium_nonarch", lambda place=place, lift=lift, built=built:
                                measures.equilibrium_nonarch(place, lift, built["graph"], PADIC_TOL),
                                place=place, map=name))
            for fn in ctx["battery"]:
                jobs.append(Job("restrict_to_skeleton", lambda place=place, fn=fn, built=built:
                                affable.restrict_to_skeleton(place, fn, built["graph"]),
                                place=place, fn=fn, built=built))
    for p in PRIMES:
        cfg = sweeps.SweepConfig(grid=sweeps.padic_branch_grid(p, 10), battery=ctx["battery"],
                                 lift=ctx["lifts"][p]["T^2/p"])
        jobs.append(Job("sweep_equilibrium", lambda cfg=cfg: sweeps.sweep_equilibrium(cfg),
                        attempts=ROWS_PER_SWEEP, grid=cfg.grid))
    return jobs


def padic_check(ctx, jobs):
    for job in jobs:
        if job.error:
            continue
        place = job.meta.get("place")
        if job.name == "build_skeleton":
            if not checks.skeleton_ok(lambda x: job.out.vertex_of_point(place, x), job.meta["disks"]):
                job.fail(wrong=True)
        elif job.name == "equilibrium_nonarch":
            mu, report = job.out
            good = checks.unit_mass_ok(report.total_mass) and checks.unit_mass_ok(mu.total_mass)
            if job.meta["map"] == "T^2+p":
                good = good and checks.gauss_atom_ok(
                    mu.atoms, lambda x: points.same_point(place, x, points.GAUSS))
            if not good:
                job.fail(wrong=True)
        elif job.name == "restrict_to_skeleton":
            u, _inserted = job.out
            labels = job.meta["built"]["graph"].labels
            expected = [affable.affable_eval(place, job.meta["fn"], x) for x in labels]
            if not checks.restriction_ok(u.values, expected):
                job.fail(wrong=True)
        elif job.name == "sweep_equilibrium":
            grid, width = job.meta["grid"], len(ctx["battery"])
            rows = [({"fn_id": r.fn_id, "value": r.value, "cert_err": r.cert_err},
                     grid[i // width].log_unit)
                    for i, r in enumerate(job.out.rows) if not r.error]
            job.fail(job.attempts - len(rows))
            job.fail(sum(1 for r, unit in rows
                         if not (checks.finite_row(r) and checks.mass_row_ok(r, unit))), wrong=True)


WORKLOADS = {
    "arch-potential": (arch_setup, arch_jobs, arch_check),
    "hybrid-sweep": (hybrid_setup, hybrid_jobs, hybrid_check),
    "padic-skeleton": (padic_setup, padic_jobs, padic_check),
}
