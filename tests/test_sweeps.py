import csv
import dataclasses
import json
import math
import os
import re
from fractions import Fraction as F

import pytest

from berkpot.affable import PIECE_ZERO, AffableError, AffableFn, affable_real, mass_bound, piece_max_log
from berkpot.battery import standard_battery
from berkpot.cli import main
from berkpot.green import contraction_ratios
from berkpot.measures import equilibrium_nonarch, integrate
from berkpot.places import Place, PlaceError
from berkpot.points import build_skeleton, disk
from berkpot.rmaps import HomogeneousLift, lift_to_json
from berkpot.sweeps import (
    ROW_ERRORS,
    RadiusSpec,
    SweepConfig,
    SweepError,
    _chi_at,
    _eq_measure_at,
    circle_sample,
    default_grid,
    default_skeleton,
    padic_branch_grid,
    sweep_chi,
    sweep_equilibrium,
    validate_grid,
)

BAT = standard_battery()
F1 = [BAT[0]]
Z2 = HomogeneousLift.polynomial([0, 0, 1])


def test_default_grid_shape():
    grid = default_grid(4)
    assert len(grid) == 6
    assert grid[0] == Place.archimedean(F(1))
    assert grid[-1] == Place.trivial()
    validate_grid(grid)
    validate_grid(padic_branch_grid(3, 3))
    with pytest.raises(SweepError):
        validate_grid([Place.trivial(), Place.archimedean()])
    with pytest.raises(SweepError):
        validate_grid([])


def test_sweep_chi_scaling_rows():
    cfg = SweepConfig(grid=default_grid(6), battery=F1)
    table = sweep_chi(cfg)
    for place in cfg.grid[:-1]:
        val = table.value(place, F1[0].fn_id)
        assert val == pytest.approx(float(place.eps) * math.log(2), abs=1e-9)
    assert table.value(cfg.grid[-1], F1[0].fn_id) == 0
    diffs = table.modulus[F1[0].fn_id][:-1]
    for a, b in zip(diffs, diffs[1:]):
        assert b == pytest.approx(a / 2, rel=1e-6)


def test_modulus_follows_grid_positions_when_a_place_repeats():
    # a revisited place takes its own slot: rows 1.0986, 0.5493, 1.0986, 0
    fn = [f for f in BAT if f.fn_id == "clip_log_T_minus_2"]
    arc, half = Place.archimedean(1), Place.archimedean(F(1, 2))
    cfg = SweepConfig(grid=[arc, half, arc, Place.trivial()], battery=fn,
                      radius=RadiusSpec.parse({"pow_eps": "3"}))
    table = sweep_chi(cfg)
    log3 = math.log(3)
    assert [r.value for r in table.rows] == pytest.approx([log3, log3 / 2, log3, 0.0], abs=1e-12)
    assert table.modulus[fn[0].fn_id] == pytest.approx([log3 / 2, log3 / 2, log3], abs=1e-12)


def test_value_refuses_a_revisited_place():
    # value() cannot tell the rows of arch 1 apart: it names the place and its
    # grid positions; a place seen once, or not at all, reads as before
    fn = [f for f in BAT if f.fn_id == "clip_log_T_minus_2"]
    arc, half = Place.archimedean(1), Place.archimedean(F(1, 2))
    cfg = SweepConfig(grid=[arc, half, arc, Place.trivial()], battery=fn,
                      radius=RadiusSpec.parse({"pow_eps": "3"}))
    table = sweep_chi(cfg)
    with pytest.raises(SweepError, match=r"place arch 1 occurs at grid positions \[0, 2\]"):
        table.value(arc, fn[0].fn_id)
    assert table.value(half, fn[0].fn_id) == table.rows[1].value
    assert table.value(Place.trivial(), fn[0].fn_id) == table.rows[3].value
    with pytest.raises(KeyError):
        table.value(Place.archimedean(F(1, 4)), fn[0].fn_id)


@pytest.mark.parametrize("p", [2, 3])
def test_padic_cert_err_is_tail_times_slope_sum(p):
    # T^2/p at tol 0.7: every skeleton potential is certified at n = 0, with
    # tail log 2 at p = 2 and (1/2) log 3 at p = 3; log_ratio_3_2 has slope
    # sum 4, and the Laplacian mass takes no second log p
    place = Place.padic(p)
    fn = [f for f in BAT if f.fn_id == "log_ratio_3_2"]
    cfg = SweepConfig(grid=[place], battery=fn, lift=HomogeneousLift.from_coeffs(2, [0, 0, F(1, p)], [1]),
                      tol=0.7)
    tail = _eq_measure_at(place, cfg)[2]
    assert tail == pytest.approx({2: math.log(2), 3: math.log(3) / 2}[p], rel=1e-12)
    (row,) = sweep_equilibrium(cfg).rows
    assert not row.error and row.cert_err == tail * 4
    assert row.cert_err == pytest.approx({2: 4 * math.log(2), 3: 2 * math.log(3)}[p], rel=1e-12)


def test_sweep_chi_probability_rows():
    one = [f for f in BAT if f.fn_id == "one"]
    cfg = SweepConfig(grid=default_grid(4), battery=one)
    table = sweep_chi(cfg)
    assert all(abs(r.value - 1.0) <= 1e-9 for r in table.rows)


def test_sweep_chi_log_T_row_vanishes():
    # |T| = 1 on the support of every circle-family member
    f3 = [f for f in BAT if f.fn_id == "log_plus_T"]
    cfg = SweepConfig(grid=default_grid(4), battery=f3)
    table = sweep_chi(cfg)
    assert all(abs(r.value) <= 1e-9 for r in table.rows)


def test_sweep_equilibrium_scaling_pair():
    lift = HomogeneousLift.polynomial([1, 0, 1])
    grid = [Place.archimedean(F(1)), Place.archimedean(F(1, 2)), Place.trivial()]
    cfg = SweepConfig(grid=grid, battery=F1, lift=lift, tol=1e-4, atom_budget=1 << 12)
    table = sweep_equilibrium(cfg)
    v1 = table.value(grid[0], F1[0].fn_id)
    v2 = table.value(grid[1], F1[0].fn_id)
    assert v1 == pytest.approx(2 * v2, abs=2e-3)


def test_sweep_equilibrium_rejects_complex_maps():
    lift = HomogeneousLift.from_coeffs(2, [complex(0, 1), 0, 1], [1])
    cfg = SweepConfig(grid=default_grid(2), battery=F1, lift=lift)
    with pytest.raises(SweepError):
        sweep_equilibrium(cfg)


# "halves": the disks sit at every half unit of eps
@pytest.mark.parametrize("place", [Place.padic(2), Place.padic(3, 2), Place.padic(2, 1024), Place.trivial(),
                                   Place.residue(3)],
                         ids=["halves-p2", "halves-p3-eps2", "halves-p2-eps1024", "halves-trivial", "halves-res3"])
def test_default_skeleton_is_the_hull_of_its_disks(place):
    disks = [disk(0, F(k, 2) * place.eps) for k in range(-4, 5)]
    assert default_skeleton(place) == build_skeleton(place, disks)
    with pytest.raises(PlaceError):
        default_skeleton(Place.archimedean())


def test_sweep_config_from_json():
    obj = {
        "base": "hybrid",
        "depth": 3,
        "map": lift_to_json(Z2),
        "tol": 1e-5,
        "center": "0",
        "radius": "1",
    }
    cfg = SweepConfig.from_json(obj)
    assert len(cfg.grid) == 5
    assert cfg.lift.d == 2
    with pytest.raises(SweepError):
        SweepConfig.from_json({"grid": [{"kind": "nope"}]})


def test_report_contraction_rows():
    rows = contraction_ratios(Place.archimedean(), Z2, circle_sample(8), 4)
    assert [n for n, _ in rows] == [1, 2, 3]
    assert all(r is None for _, r in rows)


def _write(tmp_path, name, obj):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def test_cli_green_and_columns(tmp_path, capsys):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    rc = main(["green", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--points", pts])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "point_id,lambda,n_used,certified_error"


def test_cli_green_ultrametric_units(tmp_path, capsys):
    # lambda at the Gauss point for T^2/3 over Q_3 is -log 3 in real units
    lift = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 3)], [1])
    m = _write(tmp_path, "m.json", lift_to_json(lift))
    pts = _write(tmp_path, "pts.json", [{"t": "disk", "center": "0", "logr": "0"}])
    rc = main(["green", "--map", m, "--place", '{"kind":"padic","p":3,"eps":"1"}',
               "--points", pts])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    _, lam, _, err = out[1].split(",")
    assert abs(float(lam) + math.log(3)) < 1e-12 and float(err) == 0.0


def _map_text(tmp_path, f0, f1):
    """A degree-2 map JSON written as text, so non-finite literals survive."""
    def form(coeffs):
        return ", ".join(f'[{{"re": {c.real!r}, "im": {c.imag!r}}}, "{j},{2 - j}"]' for j, c in enumerate(coeffs))
    text = '{"d": 2, "F0": [%s], "F1": [%s]}' % (form(f0), form(f1))
    text = text.replace("inf", "1e400").replace("nan", "NaN")
    path = os.path.join(tmp_path, "m.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, text


@pytest.mark.parametrize("bad", [complex(math.inf, 0), complex(math.nan, 0)])
def test_cli_non_finite_map_is_a_config_error(tmp_path, capsys, bad):
    m, text = _map_text(tmp_path, [bad, 0, 1], [1, 0, 0])
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    arc = '{"kind":"arch","eps":"1"}'
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write('{"depth": 1, "map": %s}' % text)
    for argv in (["green", "--map", m, "--place", arc, "--points", pts],
                 ["contraction", "--map", m, "--place", arc],
                 ["equilibrium", "--map", m, "--place", arc, "--n", "2"],
                 ["pairing", "--map", m, "--map2", m, "--place", arc, "--n", "2"],
                 ["sweep-eq", "--config", cfg]):
        assert main(argv) == 2, argv[0]
        assert "config error" in capsys.readouterr().err


def test_cli_green_degenerate_complex_lift(tmp_path, capsys):
    # (T - a)(T - b) and c (T - a) share the root a: Res = 0 exactly
    a, b, c = complex(0.5, 0.25), complex(-1.5, 2), complex(1.25, -0.375)
    m, _ = _map_text(tmp_path, [a * b, -(a + b), 1], [-c * a, c, 0])
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    assert main(["green", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--points", pts]) == 2
    assert "Res(F0, F1) = 0" in capsys.readouterr().err


def test_cli_sweep_csv_columns(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"depth": 2, "map": lift_to_json(Z2), "tol": 1e-3,
                                        "atom_budget": 256})
    out_path = os.path.join(tmp_path, "rows.csv")
    rc = main(["sweep-eq", "--config", cfg, "--out", out_path, "--quiet"])
    assert rc == 0
    header = open(out_path).readline().strip()
    assert header == "place_kind,place_param,fn_id,value,cert_err,n_used"


def test_cli_equilibrium_nonarch(tmp_path, capsys):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    rc = main(["equilibrium", "--map", m, "--place", '{"kind":"padic","p":2,"eps":"1"}'])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "kind,point_or_center,logr_or_radius,weight"
    assert out[1].startswith("atom,0,0,")


def test_cli_graph_ops(tmp_path, capsys):
    g = _write(tmp_path, "g.json", {
        "vertices": [None, None, None, None],
        "edges": [[0, 1, "1"], [0, 2, "1"], [0, 3, "2"]],
        "boundary": [1, 2, 3],
    })
    vals = _write(tmp_path, "bv.json", {"1": "0", "2": "0", "3": "4"})
    rc = main(["graph", "--op", "dirichlet", "--graph", g, "--boundary-values", vals])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1] == "0,4/5"


@pytest.mark.parametrize("op, flag, value, message", [
    ("laplacian", None, None, "--values must name a JSON list"),
    ("dirichlet", None, None, "--boundary-values must name a JSON object"),
    ("laplacian", "--values", ["0", "1/0"], "bad --values"),
    ("dirichlet", "--boundary-values", {"1": "1/0"}, "bad --boundary-values"),
    ("dirichlet", "--boundary-values", ["0", "4"], "--boundary-values must name a JSON object"),
    ("laplacian", "--values", {"0": "1"}, "--values must name a JSON list"),
], ids=["missing-values", "missing-boundary-values", "zero-denominator-values",
        "zero-denominator-boundary-values", "list-for-object", "object-for-list"])
def test_cli_graph_values_are_typed(tmp_path, capsys, op, flag, value, message):
    # each reader is a GraphError, so a config error (exit 2), not a traceback
    # or a numeric failure
    g = _write(tmp_path, "g.json", {"vertices": [None, None], "edges": [[0, 1, "1"]], "boundary": [0, 1]})
    argv = ["graph", "--op", op, "--graph", g]
    if flag:
        argv += [flag, _write(tmp_path, "v.json", value)]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [[0, 5, "1"], [1, -1, "1"]], ids=["past-the-end", "negative"])
def test_cli_graph_edge_endpoints_in_range(tmp_path, capsys, edge):
    # an endpoint outside [0, n) was an IndexError, or (negative) an edge to the last vertex
    g = _write(tmp_path, "g.json", {"vertices": [None, None, None], "edges": [[0, 1, "1"], [1, 2, "1"], edge]})
    assert main(["graph", "--op", "laplacian", "--graph", g, "--values", _write(tmp_path, "v.json", ["0"] * 3)]) == 2
    assert "needs endpoints in [0, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["equilibrium", "--seed", "abc"], "complex() arg is a malformed string"),
    (["contraction", "--sample", "circle:x"], "invalid literal for int() with base 10: 'x'"),
    (["contraction", "--sample", "circle:4:abc"], "could not convert string to float: 'abc'"),
    (["green", "--points", None], "'utf-8' codec can't decode byte 0xff"),
    (["contraction", "--sample", "circle:0"], "sample 'circle:0' has no points"),
    (["contraction", "--sample", "circle:-3"], "sample 'circle:-3' has no points"),
], ids=["seed", "sample-count", "sample-radius", "non-utf8-map", "no-points", "negative-count"])
def test_cli_malformed_inputs_are_config_errors(tmp_path, capsys, argv, message):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    if argv[0] == "green":  # a map file that is not UTF-8
        m = os.path.join(tmp_path, "latin1.json")
        with open(m, "wb") as fh:
            fh.write(b'{"d": 2, "F0": [["\xff", "2,0"]], "F1": [["1", "0,2"]]}')
        argv = argv[:-1] + [_write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])]
    assert main(argv[:1] + ["--map", m, "--place", '{"kind":"arch","eps":"1"}'] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_cli_points_file_must_be_a_list(tmp_path, capsys):
    # a JSON object iterates over its keys, strings that name no point
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    assert main(["green", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--points", m]) == 2
    assert "config error: bad point JSON 'd'" in capsys.readouterr().err


def test_cli_lets_a_library_value_error_propagate(tmp_path, monkeypatch):
    # a bare ValueError is a bug, not a config error: it leaves cli.main with
    # its traceback instead of exiting 2
    import berkpot.cli as cli

    def bug(*args):
        raise ValueError("a bug in the library")

    monkeypatch.setattr(cli, "lambda_limit", bug)
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    with pytest.raises(ValueError, match="a bug in the library"):
        main(["green", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--points", pts])


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["sweep-chi", "--config", os.path.join(tmp_path, "missing.json")]) == 2
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    assert main(["green", "--map", m]) == 2  # missing required flags
    bad = _write(tmp_path, "bad.json", {"d": 2, "F0": [["1", "2,0"]], "F1": [["1", "2,0"]]})
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    assert main(["green", "--map", bad, "--place", '{"kind":"arch","eps":"1"}', "--points", pts]) == 2
    capsys.readouterr()


def test_cli_graph_laplacian(tmp_path, capsys):
    g = _write(tmp_path, "g.json", {
        "vertices": [None, None],
        "edges": [[0, 1, "1"]],
        "boundary": [0, 1],
    })
    vals = _write(tmp_path, "v.json", ["0", "1"])
    rc = main(["graph", "--op", "laplacian", "--graph", g, "--values", vals])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[:3] == ["vertex_id,weight", "0,1", "1,-1"]


def test_installed_entry_point():
    # the console script when installed, else the same CLI through `python -m`
    import shutil
    import subprocess
    import sys

    import berkpot

    exe = shutil.which("berkpot")
    cmd = [exe] if exe else [sys.executable, "-m", "berkpot"]
    src = os.path.dirname(os.path.dirname(berkpot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sweep-eq" in proc.stdout


def test_cli_pairing(tmp_path, capsys):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    rc = main(["pairing", "--map", m, "--map2", m, "--place", '{"kind":"arch","eps":"1"}', "--n", "4"])
    out = capsys.readouterr().out.strip()
    assert rc == 0 and float(out) == 0.0


def test_sweep_chi_centered_circle_constant_rows():
    # circle about 2 of constant place-radius 1/2: |T-2| = 1/2 on the support
    # at every place, and the mean of log|T-3| clamps to 0, so the log-ratio
    # rows are log 2 uniformly across the whole grid, endpoint included
    f4 = [f for f in BAT if f.fn_id == "log_ratio_3_2"]
    from berkpot.sweeps import RadiusSpec
    from fractions import Fraction as FF

    cfg = SweepConfig(grid=default_grid(4), battery=f4, center=FF(2),
                      radius=RadiusSpec("const", FF(1, 2)))
    table = sweep_chi(cfg)
    for place in cfg.grid:
        assert table.value(place, f4[0].fn_id) == pytest.approx(math.log(2), abs=1e-6)


def test_sweep_chi_pow_eps_radius_family():
    # base^eps radii keep the Euclidean circle fixed at the base over the
    # archimedean branch and reach the Gauss point at the trivial end
    f1 = F1
    from berkpot.sweeps import RadiusSpec
    from fractions import Fraction as FF

    cfg = SweepConfig(grid=default_grid(5), battery=f1,
                      radius=RadiusSpec("pow_eps", FF(1, 2)))
    table = sweep_chi(cfg)
    for place in cfg.grid[:-1]:
        # mean of max(0, eps log|z-2|) over |z| = 1/2: log|z-2| in [log 3/2, log 5/2]
        want = float(place.eps) * math.log(2)  # Jensen: log max(|2|, 1/2)
        assert table.value(place, f1[0].fn_id) == pytest.approx(want, abs=1e-8)
    assert table.value(cfg.grid[-1], f1[0].fn_id) == 0


@pytest.mark.parametrize("base, logr", [("3", 1024), ("1/3", -1024)], ids=["3", "1/3"])
def test_padic_pow_eps_radius_from_the_log_radius(base, logr):
    # at |.|_3^1024 the radius 3^1024 overflows a float and (1/3)^1024
    # underflows to 0; the log radius eps log(base) places the atom exactly
    cfg = SweepConfig(grid=padic_branch_grid(3, 10), battery=BAT, radius=RadiusSpec.parse({"pow_eps": base}))
    table = sweep_chi(cfg)
    assert len(table.rows) == 12 * len(BAT)
    assert [row for row in table.rows if row.error] == []
    assert _chi_at(Place.padic(3, 1024), F(0), cfg.radius).atoms == [(disk(0, logr), 1)]


def test_sweep_config_radius_json():
    assert RadiusSpec.parse("2/3").kind == "const"
    assert RadiusSpec.parse({"pow_eps": "2"}).kind == "pow_eps"
    with pytest.raises(SweepError):
        RadiusSpec.parse({"nope": 1})


@pytest.mark.parametrize("radius", [0, "-1/2", {"pow_eps": 0}, {"pow_eps": "-2"}],
                         ids=["zero", "negative", "pow_eps-zero", "pow_eps-negative"])
@pytest.mark.parametrize("base", ["hybrid", {"branch": "padic", "p": 3}], ids=["hybrid", "padic"])
def test_nonpositive_radius_rejected(tmp_path, capsys, radius, base):
    with pytest.raises(SweepError, match="radius must be positive"):
        RadiusSpec.parse(radius)
    with pytest.raises(SweepError, match="radius must be positive"):
        SweepConfig.from_json({"base": base, "depth": 2, "radius": radius})
    cfg = _write(tmp_path, "cfg.json", {"base": base, "depth": 2, "radius": radius})
    assert main(["sweep-chi", "--config", cfg, "--quiet"]) == 2  # a config error, not a crash
    capsys.readouterr()


@pytest.mark.parametrize("target", ["affable_real", "_eq_measure_at"])
def test_typed_row_failure_is_recorded(monkeypatch, target):
    import berkpot.sweeps as sweeps

    def fail(*args):
        raise AffableError("typed failure")

    monkeypatch.setattr(sweeps, target, fail)
    cfg = SweepConfig(grid=default_grid(2), battery=F1, lift=Z2)
    tables = [sweep_equilibrium(cfg)] + ([sweep_chi(cfg)] if target == "affable_real" else [])
    for table in tables:
        assert len(table.rows) == 4
        assert all(r.error == "typed failure" and math.isnan(r.value) for r in table.rows)


@pytest.mark.parametrize("target", ["affable_real", "_eq_measure_at"])
def test_untyped_row_failure_propagates(monkeypatch, target):
    import berkpot.sweeps as sweeps

    def bug(*args):
        raise RuntimeError("a bug, not a row failure")

    monkeypatch.setattr(sweeps, target, bug)
    cfg = SweepConfig(grid=default_grid(2), battery=F1, lift=Z2)
    with pytest.raises(RuntimeError, match="a bug"):
        sweep_equilibrium(cfg)
    if target == "affable_real":
        with pytest.raises(RuntimeError, match="a bug"):
            sweep_chi(cfg)


def test_a_zero_denominator_in_json_is_a_config_error(tmp_path, capsys):
    # "1/0" is a Fraction with a zero denominator: each JSON reader types it,
    # so every command exits 2, as for any other malformed input
    arc, q2 = '{"kind":"arch","eps":"1"}', '{"kind":"padic","p":2,"eps":"1"}'
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0}])
    bad_pts = _write(tmp_path, "bad_pts.json", [{"t": "cls", "q": "1/0"}])
    bad_lift = {"d": 2, "F0": [["1/0", "2,0"]], "F1": [["1", "0,2"]]}
    bad_map = _write(tmp_path, "bad_map.json", bad_lift)
    vertex = {"t": "disk", "center": "0", "logr": "1/0"}
    bad_graphs = [_write(tmp_path, f"g{k}.json", obj) for k, obj in enumerate([
        {"vertices": [None, None], "edges": [[0, 1, "1/0"]]},
        {"vertices": [vertex, None], "edges": [[0, 1, "1"]]}])]
    vals = _write(tmp_path, "vals.json", ["0", "1"])
    piece = {"branches": [{"c": "1/0"}]}
    bad_battery = _write(tmp_path, "bat.json", {"functions": [
        {"chart0": {"plus": piece, "minus": piece}, "chartInf": {"plus": piece, "minus": piece}}]})
    configs = [{"center": "1/0"}, {"radius": "1/0"}, {"radius": {"pow_eps": "1/0"}}, {"battery": bad_battery},
               {"grid": [{"kind": "padic", "p": 2, "eps": "1/0"}]}, {"map": bad_lift}]
    cases = [["green", "--map", m, "--place", arc, "--points", bad_pts],
             ["green", "--map", bad_map, "--place", arc, "--points", pts],
             ["green", "--map", m, "--place", '{"kind":"arch","eps":"1/0"}', "--points", pts]]
    cases += [["equilibrium", "--map", m, "--place", q2, "--skeleton", g] for g in bad_graphs]
    cases += [["graph", "--op", "laplacian", "--graph", g, "--values", vals] for g in bad_graphs]
    cases += [["sweep-eq", "--config", _write(tmp_path, f"c{k}.json", {"depth": 1, **cfg})]
              for k, cfg in enumerate(configs)]
    for argv in cases:
        assert main(argv + ["--quiet"]) == 2, argv
        assert "config error" in capsys.readouterr().err


def test_a_key_error_from_the_library_leaves_the_cli(tmp_path, monkeypatch):
    # a KeyError raised inside a sweep is a bug, not a config error: no exit
    # code hides it
    import berkpot.sweeps as sweeps

    def bug(*args):
        raise KeyError("a bug")

    monkeypatch.setattr(sweeps, "affable_real", bug)
    with pytest.raises(KeyError, match="a bug"):
        main(["sweep-chi", "--config", _write(tmp_path, "c.json", {"depth": 1})])


def test_cli_contraction_rows(tmp_path, capsys):
    # z^2 + 1 contracts over C with ratios in (0, 1); over Q_3 it has good
    # reduction, the deviation vanishes, and every row is exactly zero
    m = _write(tmp_path, "m.json", lift_to_json(HomogeneousLift.polynomial([1, 0, 1])))
    arc, q3 = '{"kind":"arch","eps":1}', '{"kind":"padic","p":3,"eps":1}'
    for place, row_ok in ((arc, lambda r: 0 < float(r) < 1), (q3, lambda r: r == "exact-0")):
        assert main(["contraction", "--map", m, "--place", place, "--n", "6"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert all(row_ok(r["ratio"]) for r in rows), rows


def test_cli_equilibrium_json_and_the_row_at_infinity(tmp_path, capsys):
    # z/(z^2 + 1) sends 0 and infinity to 0: the depth-2 tree of the seed 0
    # holds the atom at infinity, which the rows print last
    m = _write(tmp_path, "m.json", lift_to_json(HomogeneousLift.from_coeffs(2, [0, 1, 0], [1, 0, 1])))
    argv = ["equilibrium", "--map", m, "--place", '{"kind":"arch","eps":1}', "--seed", "0", "--n", "2"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert list(rows[-1].values()) == ["atom", "inf", "", "0.25"]
    out = os.path.join(tmp_path, "mu.json")
    assert main(argv + ["--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    with open(out, encoding="utf-8") as fh:
        got = json.load(fh)
    assert got == [{**r, "weight": float(r["weight"])} for r in rows]


def _piece(c="0", terms=()):
    return {"branches": [{"c": c, "terms": [list(t) for t in terms]}]}


@pytest.mark.parametrize("branch", [("1e400", ()), ("0", [("1e400", ["1", "1"])]), ("0", [("1", ["1e400", "1"])])],
                         ids=["const", "weight", "coeff"])
def test_battery_past_the_float_range_fails_rows(tmp_path, capsys, branch):
    # an exact battery value past the float range fails the rows that read it
    # as a float, and the sweeps still exit 0
    fn = {"id": "big", "chart0": {"plus": _piece(*branch), "minus": _piece()},
          "chartInf": {"plus": _piece(*branch), "minus": _piece()}}
    battery = _write(tmp_path, "b.json", {"functions": [fn]})
    for cmd, extra in (("sweep-chi", {}), ("sweep-eq", {"map": lift_to_json(Z2), "atom_budget": 256})):
        out = os.path.join(tmp_path, f"{cmd}.csv")
        cfg = _write(tmp_path, "cfg.json", {"depth": 2, "battery": battery, **extra})
        assert main([cmd, "--config", cfg, "--out", out]) == 0
        assert "failed rows" in capsys.readouterr().err
        with open(out, encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 4


def test_values_past_the_float_range_keep_their_exit_codes(tmp_path, capsys):
    # an exact input past the float range at an archimedean place is a numeric
    # failure (exit 3), or a failed row in a sweep
    huge = HomogeneousLift.polynomial([F(10**400), 0, 1])
    m, z2 = _write(tmp_path, "m.json", lift_to_json(huge)), _write(tmp_path, "z2.json", lift_to_json(Z2))
    arc = '{"kind":"arch","eps":"1"}'
    big_q = _write(tmp_path, "q.json", [{"t": "cls", "q": "1e400"}])
    two = _write(tmp_path, "two.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    assert main(["green", "--map", z2, "--place", arc, "--points", big_q, "--quiet"]) == 3
    assert main(["green", "--map", m, "--place", arc, "--points", two, "--quiet"]) == 3
    assert main(["equilibrium", "--map", m, "--place", arc, "--n", "3", "--quiet"]) == 3
    # a zero denominator is a malformed config, not a numeric failure
    assert main(["sweep-chi", "--config", _write(tmp_path, "c.json", {"depth": 2, "center": "1/0"})]) == 2
    capsys.readouterr()
    # a hybrid sweep fails the archimedean rows of that map and keeps its exact endpoint row
    rows = sweep_equilibrium(SweepConfig(grid=default_grid(2), battery=F1, lift=huge, atom_budget=256)).rows
    assert [not row.error for row in rows] == [False, False, False, True]


@pytest.mark.parametrize("grid, lift", [
    (padic_branch_grid(2, 3), HomogeneousLift.from_coeffs(2, [0, 0, F(1, 2)], [1])),  # T^2/2
    (default_grid(3), HomogeneousLift.polynomial([-1, 0, 1])),  # z^2 - 1
], ids=["padic-t2/2", "hybrid-z2m1"])
def test_ultrametric_places_never_read_an_arch_depth(monkeypatch, grid, lift):
    import berkpot.sweeps as sweeps

    places = []
    original = sweeps._arch_depth
    monkeypatch.setattr(sweeps, "_arch_depth", lambda place, cfg: places.append(place) or original(place, cfg))
    table = sweep_equilibrium(SweepConfig(grid=grid, battery=F1, lift=lift, atom_budget=256))
    assert len(table.rows) == len(grid)
    assert set(places) == {place for place in grid if not place.is_ultrametric}


def test_sweep_chi_padic_branch_with_residue_endpoint():
    cfg = SweepConfig(grid=padic_branch_grid(3, 3), battery=F1)
    table = sweep_chi(cfg)
    # the circle family is Dirac at the Gauss point along the whole branch,
    # where |T - 2| = 1 at every one of these places
    assert all(r.value == 0 and not r.error for r in table.rows)


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    rc = main(["contraction", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--n", "2"])
    assert rc == 3  # contraction report needs at least three iterates
    capsys.readouterr()


@pytest.mark.parametrize("tol", [0, -1, "nan"])
def test_nonpositive_or_nan_sweep_tol_is_a_config_error(tmp_path, capsys, tol):
    # a NaN tol passes every `tail > tol` test and would fix every
    # archimedean tree at depth 1
    with pytest.raises(SweepError, match="tol must be positive"):
        SweepConfig.from_json({"depth": 2, "tol": tol})
    cfg = _write(tmp_path, "cfg.json", {"depth": 2, "map": lift_to_json(Z2), "tol": tol, "atom_budget": 256})
    assert main(["sweep-eq", "--config", cfg, "--quiet"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_nonpositive_or_nan_tol_rejected_by_a_direct_config(tol):
    with pytest.raises(SweepError, match="tol must be positive"):
        SweepConfig(grid=default_grid(2), battery=F1, lift=Z2, tol=tol)


def test_cli_green_nan_tol_is_a_numeric_failure(tmp_path, capsys):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    pts = _write(tmp_path, "pts.json", [{"t": "cls", "re": 2.0, "im": 0.0}])
    for tol in ("nan", "0", "-1"):
        rc = main(["green", "--map", m, "--place", '{"kind":"arch","eps":"1"}', "--points", pts, f"--tol={tol}"])
        assert rc == 3 and "tolerance must be positive" in capsys.readouterr().err


def test_sweep_quadrature_doubling_within_cert():
    cfg_a = SweepConfig(grid=default_grid(3), battery=F1, quad_n=32)
    cfg_b = SweepConfig(grid=default_grid(3), battery=F1, quad_n=64)
    ta, tb = sweep_chi(cfg_a), sweep_chi(cfg_b)
    for ra, rb in zip(ta.rows, tb.rows):
        assert abs(ra.value - rb.value) <= max(ra.cert_err, 1e-12)


def test_squaring_map_rows_within_summed_certificates():
    # mu_{z^2} is the unit-circle Haar measure: every sweep-eq row agrees
    # with its sweep-chi row within the two certificates, also at small eps
    grid = [Place.archimedean(F(1, 2**k)) for k in range(5, 11)]
    cfg = SweepConfig(grid=grid, battery=BAT, lift=Z2, atom_budget=1 << 13)
    eq, chi = sweep_equilibrium(cfg), sweep_chi(cfg)
    assert len(eq.rows) == len(chi.rows) == len(grid) * len(BAT)
    for a, b in zip(eq.rows, chi.rows):
        assert (a.place_param, a.fn_id) == (b.place_param, b.fn_id) and not a.error
        assert abs(a.value - b.value) <= a.cert_err + b.cert_err, (a, b)


def test_constant_rows_are_exact_along_the_grid():
    # Delta 1 = 0, so the tail adds nothing to the total-mass rows of z^2 - 1
    one = [f for f in BAT if f.fn_id == "one"]
    lift = HomogeneousLift.polynomial([-1, 0, 1])
    table = sweep_equilibrium(SweepConfig(grid=default_grid(10), battery=one, lift=lift,
                                          atom_budget=1 << 13))
    assert len(table.rows) == 12
    for row in table.rows:
        assert not row.error and row.cert_err == 0.0 and abs(row.value - 1.0) <= 1e-12, row


def test_cli_equilibrium_matches_reference_rows(tmp_path):
    # rows of `equilibrium --n 8` at |.| for z^2 - 1, as written by the
    # scalar preimage solver this library used before its batched one
    ref_path = os.path.join(os.path.dirname(__file__), "data", "equilibrium_z2m1_n8.csv")
    m = _write(tmp_path, "m.json", lift_to_json(HomogeneousLift.polynomial([-1, 0, 1])))
    out_path = os.path.join(tmp_path, "eq.csv")
    assert main(["equilibrium", "--map", m, "--place", '{"kind":"arch","eps":"1"}',
                 "--n", "8", "--out", out_path, "--quiet"]) == 0
    with open(ref_path, newline="") as fh:
        ref = list(csv.reader(fh))
    with open(out_path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ref[0] and len(got) == len(ref) == 257
    for g, r in zip(got[1:], ref[1:]):
        assert g[0] == r[0] == "atom" and g[2] == r[2] == ""
        assert abs(complex(g[1]) - complex(r[1])) <= 1e-12
        assert abs(float(g[3]) - float(r[3])) <= 1e-12


def test_residue_rows_fail_with_typed_bound_error():
    t2p = HomogeneousLift.from_coeffs(2, [0, 0, F(1, 2)], [1])  # T^2/2
    table = sweep_equilibrium(SweepConfig(grid=padic_branch_grid(2, 10), battery=BAT, lift=t2p))
    failed = [r for r in table.rows if r.error]
    assert [r.place_kind for r in failed] == ["res"] * len(BAT)
    assert all(r.error == "deviation bound is infinite at this place (coefficients blow up)"
               for r in failed)


@pytest.mark.parametrize("p", [2, 3])
def test_padic_branch_rows_follow_the_flow(p):
    # the Julia set of T^2/p at |.|_p^eps is the point eta_{0,-eps} (coefficient
    # units), so every row is f there; it lies on the flowed default skeleton
    t2p = HomogeneousLift.from_coeffs(2, [0, 0, F(1, p)], [1])
    grid = padic_branch_grid(p, 10)
    table = sweep_equilibrium(SweepConfig(grid=grid, battery=BAT, lift=t2p))
    for place in grid[:-1]:
        julia = disk(0, -place.eps)
        for fn in BAT:
            row = next(r for r in table.rows
                       if (r.place_kind, r.place_param, r.fn_id) == (*place.describe(), fn.fn_id))
            assert abs(row.value - affable_real(place, fn)(julia)) <= row.cert_err, (place, fn.fn_id)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ultrametric_tail_is_largest_vertex_error(p):
    place = Place.padic(p)
    t2p = HomogeneousLift.from_coeffs(2, [0, 0, F(1, p)], [1])
    cfg = SweepConfig(grid=[place], battery=BAT, lift=t2p)
    _mu, _n, tail = _eq_measure_at(place, cfg)
    _mu, report = equilibrium_nonarch(place, t2p, default_skeleton(place), cfg.tol)
    kinds = [st.certificate for st in report.states]
    # every vertex orbit escapes or falls into a disk that T^2/p maps into itself
    assert (kinds.count("certified"), kinds.count("exact")) == (0, 9)
    assert tail == max(st.certified_error for st in report.states) == 0.0


@pytest.mark.parametrize("place, flags", [
    ('{"kind":"arch","eps":"1"}', ["--skeleton", "nonexistent.json"]),
    ('{"kind":"arch","eps":"1"}', ["--tol", "5"]),
    ('{"kind":"padic","p":2,"eps":"1"}', ["--n", "3"]),
    ('{"kind":"padic","p":2,"eps":"1"}', ["--seed", "5+0i"]),
], ids=["arch-skeleton", "arch-tol", "padic-n", "padic-seed"])
def test_cli_equilibrium_rejects_flags_of_the_other_regime(tmp_path, capsys, place, flags):
    m = _write(tmp_path, "m.json", lift_to_json(Z2))
    assert main(["equilibrium", "--map", m, "--place", place] + flags) == 2
    assert f"places only: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("place, defaults", [
    ('{"kind":"arch","eps":"1"}', ["--n", "10", "--seed", "2+0i"]),
    ('{"kind":"padic","p":2,"eps":"1"}', ["--tol", "1e-9"]),
], ids=["arch", "padic"])
def test_cli_equilibrium_defaults_unchanged(tmp_path, capsys, place, defaults):
    m = _write(tmp_path, "m.json", lift_to_json(HomogeneousLift.polynomial([-1, 0, 1])))
    assert main(["equilibrium", "--map", m, "--place", place]) == 0
    implicit = capsys.readouterr().out
    assert main(["equilibrium", "--map", m, "--place", place] + defaults) == 0
    assert capsys.readouterr().out == implicit


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [-1, 0, 1]], ids=["z2", "z2-1"])
def test_one_preimage_tree_per_hybrid_sweep(monkeypatch, coeffs):
    # mu_phi is the same at every archimedean eps, and the atom budget fixes
    # the tree depth along the whole default grid
    import berkpot.sweeps as sweeps

    calls = []
    build = sweeps.equilibrium_arch
    monkeypatch.setattr(sweeps, "equilibrium_arch", lambda *args: calls.append(args) or build(*args))
    cfg = SweepConfig(grid=default_grid(10), battery=F1, lift=HomogeneousLift.polynomial(coeffs),
                      atom_budget=1 << 13)
    table = sweep_equilibrium(cfg)
    assert len(calls) == 1
    assert {r.n_used for r in table.rows[:-1]} == {calls[0][3]}
    assert not any(r.error for r in table.rows)


def test_one_pullback_chain_per_sweep(monkeypatch):
    # default_grid(20) needs the depths 14 down to 8 for z^2 - 1: one chain to
    # depth 14 keeps each level, where a tree per depth pulled back 77 times
    import berkpot.measures as measures
    import berkpot.sweeps as sweeps

    calls = []
    pull = measures.pullback_measure
    monkeypatch.setattr(measures, "pullback_measure", lambda *args: calls.append(args) or pull(*args))
    cfg = SweepConfig(grid=default_grid(20), battery=F1, lift=HomogeneousLift.polynomial([-1, 0, 1]))
    table = sweep_equilibrium(cfg)
    assert len(calls) == 14
    assert sorted({r.n_used for r in table.rows[:-1]}) == list(range(8, 15))
    # the rows of a tree built from the seed for each place
    per_place = sweeps._sweep(cfg, lambda place: _eq_measure_at(place, cfg))
    assert not any(r.error for r in table.rows) and table.rows == per_place.rows


def test_cli_sweep_eq_matches_reference_bytes(tmp_path):
    # `sweep-eq` rows as written once preimage levels with at most two finite
    # roots were solved in closed form (z^2 - 1 at depth 3, atom budget 256), and
    # before the solver read coefficient columns (the benchmark's hybrid sweeps:
    # depth 10, atom budget 8192, a tree of depth 13)
    for ref, f0, depth, budget in (("sweep_eq_z2m1_depth3.csv", [-1, 0, 1], 3, 256),
                                   ("sweep_eq_z2_depth10.csv", [0, 0, 1], 10, 8192),
                                   ("sweep_eq_z2m1_depth10.csv", [-1, 0, 1], 10, 8192)):
        cfg = _write(tmp_path, "cfg.json", {"depth": depth, "atom_budget": budget,
                                            "map": lift_to_json(HomogeneousLift.polynomial(f0))})
        out_path = os.path.join(tmp_path, "rows.csv")
        assert main(["sweep-eq", "--config", cfg, "--out", out_path, "--quiet"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "data", ref), "rb") as want, open(out_path, "rb") as got:
            assert got.read() == want.read(), ref


def test_exceptional_seed_warns_once_per_sweep():
    # 0 is exceptional for z^2: the tree, built once for the three
    # archimedean places, collapses and warns once
    import warnings

    from berkpot.measures import ExceptionalSeedWarning

    cfg = SweepConfig(grid=default_grid(2), battery=F1, lift=Z2, atom_budget=16, seed_point=0j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = sweep_equilibrium(cfg)
    assert [w.category for w in caught] == [ExceptionalSeedWarning]
    # the collapsed tree is delta_0, not mu_phi: every archimedean row fails
    # with the reason, and the ultrametric endpoint is unaffected
    arch = [r for r in table.rows if r.place_kind == "arch"]
    assert len(arch) == 3 * len(F1)
    for row in arch:
        assert math.isnan(row.value) and row.n_used == 0
        assert row.error == "preimage tree collapsed to 1 points at depth 4; seed looks exceptional"
    assert all(not r.error and math.isfinite(r.value) for r in table.rows if r.place_kind != "arch")


# -- one memo per sweep: rows equal to per-place integration ------------------


def _arch_rows(table):
    return [(r.place_kind, r.place_param, r.fn_id, None if r.error else (r.value, r.cert_err), r.n_used,
             r.error) for r in table.rows if r.place_kind == "arch"]


def _fresh_arch_rows(cfg, measure_at):
    """The archimedean rows as each place alone gives them: its own measure
    and a fresh ``integrate`` per function, with nothing shared."""
    rows = []
    for place in cfg.grid:
        if place.is_ultrametric:
            continue
        mu, n_used, tail = measure_at(place)
        for fn in cfg.battery:
            try:
                val, qerr = integrate(place, mu, affable_real(place, fn), cfg.quad_n)
                cert = qerr + (tail * mass_bound(fn) if tail else 0.0)
                rows.append((*place.describe(), fn.fn_id, (val, cert), n_used, ""))
            except ROW_ERRORS as exc:
                rows.append((*place.describe(), fn.fn_id, None, n_used, str(exc)))
    return rows


def _fresh_eq(cfg):
    return _fresh_arch_rows(cfg, lambda place: _eq_measure_at(place, cfg))  # a tree per place


def _fresh_chi(cfg):
    return _fresh_arch_rows(cfg, lambda place: (_chi_at(place, cfg.center, cfg.radius), 0, 0.0))


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [-1, 0, 1]], ids=["z2", "z2-1"])
def test_sweep_equilibrium_rows_equal_per_place_integration(coeffs):
    # z^2 integrates the unit circle (its potential vanishes), z^2 - 1 a tree
    cfg = SweepConfig(grid=default_grid(10), battery=BAT, lift=HomogeneousLift.polynomial(coeffs),
                      atom_budget=1 << 10)
    rows = _arch_rows(sweep_equilibrium(cfg))
    assert len(rows) == 11 * len(BAT) and not any(r[5] for r in rows)
    assert rows == _fresh_eq(cfg)


@pytest.mark.parametrize("radius", [{"pow_eps": "3"}, "1/2", "1"], ids=["pow_eps3", "const1/2", "const1"])
def test_sweep_chi_rows_equal_per_place_integration(radius):
    # the constant radius 1/2 names the Euclidean circle 2^(-1/eps), a new
    # node set at every eps; 3^eps names the circle of radius 3 at every eps
    cfg = SweepConfig.from_json({"depth": 10, "radius": radius, "center": "1/4", "atom_budget": 4096})
    rows = _arch_rows(sweep_chi(cfg))
    assert len(rows) == 11 * len(BAT)
    assert rows == _fresh_chi(cfg)


LOG_T_MINUS_1 = AffableFn(piece_max_log(None, [(1, [-1, 1])]), PIECE_ZERO,
                          piece_max_log(None, [(1, [1, -1])]), piece_max_log(None, [(1, [0, 1])]),
                          fn_id="log_T_minus_1")


def test_pole_on_the_support_fails_the_same_rows():
    # seeded at -1, the tree of z^2 - 1 holds the atom 1 exactly (-1 <- 0 <- 1),
    # a pole of log|T - 1|; the other function's rows are unaffected
    cfg = SweepConfig(grid=default_grid(4), battery=[LOG_T_MINUS_1, F1[0]],
                      lift=HomogeneousLift.polynomial([-1, 0, 1]), seed_point=-1 + 0j, atom_budget=256)
    rows = _arch_rows(sweep_equilibrium(cfg))
    assert rows == _fresh_eq(cfg)
    failed = [r for r in rows if r[5]]
    assert [r[2] for r in failed] == ["log_T_minus_1"] * 5
    assert all(r[5] == "affable value is -inf at Pt((1+0j))" for r in failed)


def test_cli_sweep_reports_failed_rows_on_stderr(tmp_path, capsys):
    # the same pole through the CLI: one stderr line per distinct reason with
    # its row count; --quiet prints none, and the CSV and exit code are alike
    log_t_minus_1 = {"id": "log_T_minus_1",
                     "chart0": {"plus": {"branches": [{"c": "0", "terms": [["1", ["-1", "1"]]]}]},
                                "minus": {"branches": [{"c": "0", "terms": []}]}},
                     "chartInf": {"plus": {"branches": [{"c": "0", "terms": [["1", ["1", "-1"]]]}]},
                                  "minus": {"branches": [{"c": "0", "terms": [["1", ["0", "1"]]]}]}}}
    bat = _write(tmp_path, "bat.json", {"functions": [log_t_minus_1]})
    cfg = _write(tmp_path, "cfg.json", {"base": "hybrid", "depth": 4, "atom_budget": 256, "battery": bat,
                                        "map": lift_to_json(HomogeneousLift.polynomial([-1, 0, 1])),
                                        "seed_point": {"re": -1, "im": 0}})
    csvs = []
    for quiet in ([], ["--quiet"]):
        out = os.path.join(tmp_path, f"rows{len(quiet)}.csv")
        assert main(["sweep-eq", "--config", cfg, "--out", out] + quiet) == 0
        with open(out, encoding="utf-8") as fh:
            csvs.append(fh.read())
        err = capsys.readouterr().err
        assert err == ("" if quiet else "failed rows (5): affable value is -inf at Pt((1+0j))\n")
    assert csvs[0] == csvs[1] and csvs[0].count(",nan,nan,") == 5


def test_back_to_back_sweeps_share_nothing():
    # the second battery reuses the first one's ids on other functions
    first = BAT[:4]
    second = [AffableFn(f.chart0_plus, f.chart0_minus, f.chartinf_plus, f.chartinf_minus, fn_id=g.fn_id)
              for f, g in zip(BAT[4:], first)]
    lift = HomogeneousLift.polynomial([-1, 0, 1])
    for sweep, fresh in ((sweep_equilibrium, _fresh_eq), (sweep_chi, _fresh_chi)):
        cfgs = [SweepConfig(grid=default_grid(4), battery=bat, lift=lift, atom_budget=512)
                for bat in (first, second)]
        tables = [sweep(cfg) for cfg in cfgs]
        assert [_arch_rows(t) for t in tables] == [fresh(cfg) for cfg in cfgs]


def test_point_tables_kept_only_under_the_atom_budget(monkeypatch):
    # log_plus_T on the circle |T - 1| = 1 doubles to 32768 nodes: the three
    # copies share each level up to the budget and build each later one anew
    import berkpot.sweeps as sweeps

    built = []
    make = sweeps.PointTable
    monkeypatch.setattr(sweeps, "PointTable", lambda z: built.append(len(z)) or make(z))
    fn = next(f for f in BAT if f.fn_id == "log_plus_T")
    copies = [dataclasses.replace(fn, fn_id=f"{fn.fn_id}_{k}") for k in range(3)]
    cfg = SweepConfig(grid=[Place.archimedean(), Place.trivial()], battery=copies, center=F(1),
                      atom_budget=1024)
    sweep_chi(cfg)
    levels = [64 << k for k in range(10)]
    assert built == levels[:5] + levels[5:] * 3


def test_eps_free_work_is_done_once_per_table(monkeypatch):
    # every archimedean fiber of z^2 - 1 reads the one depth-14 tree: its
    # log|g| arrays are filled once per distinct term and its plans once per
    # function, and a longer grid adds fibers but no fills
    import berkpot.sweeps as sweeps

    counts = {}

    class Counting(sweeps.PointTable):
        def __init__(self, z):
            super().__init__(z)
            counts["tables"] = counts.get("tables", 0) + 1

        def log_abs(self, chart, u, coeffs):
            counts["fills"] = counts.get("fills", 0) + ((chart, coeffs) not in self.logs)
            return super().log_abs(chart, u, coeffs)

        def plan(self, fn):
            counts["plans"] = counts.get("plans", 0) + (id(fn) not in self.plans)
            return super().plan(fn)

    monkeypatch.setattr(sweeps, "PointTable", Counting)
    terms = {(chart, g) for fn in BAT for chart in ("0", "inf") for piece in fn.pieces(chart)
             for b in piece.branches if b.const is not None for q, g in b.terms if q != 0}
    seen = []
    for depth in (10, 14):
        counts.clear()
        table = sweep_equilibrium(SweepConfig(grid=default_grid(depth), battery=BAT,
                                              lift=HomogeneousLift.polynomial([-1, 0, 1])))
        assert not any(r.error for r in table.rows)
        assert counts == {"tables": 1, "fills": len(terms), "plans": len(BAT)}
        seen.append(counts.copy())
    assert seen[0] == seen[1]


def test_repeated_battery_ids_are_a_config_error(tmp_path, capsys, monkeypatch):
    # rows and the modulus are keyed by id, and a battery entry without one
    # reads "": the sweep refuses a repeated id before it computes any row
    import berkpot.sweeps as sweeps

    monkeypatch.setattr(sweeps, "integrate", lambda *args: pytest.fail("a row was computed"))
    by_id = {f.fn_id: f for f in BAT}
    bat = [dataclasses.replace(by_id[i], fn_id="") for i in ("clip_log_T_minus_2", "log_plus_T")]
    for sweep in (sweep_chi, sweep_equilibrium):
        with pytest.raises(SweepError, match=re.escape("repeated: ['']")):
            sweep(SweepConfig(grid=default_grid(3), battery=bat, lift=Z2))
    piece = {"branches": [{"c": "0"}]}
    entry = {"chart0": {"plus": piece, "minus": piece}, "chartInf": {"plus": piece, "minus": piece}}
    bat_path = _write(tmp_path, "bat.json", {"functions": [entry, entry]})
    cfg = _write(tmp_path, "cfg.json", {"depth": 3, "battery": bat_path})
    assert main(["sweep-chi", "--config", cfg]) == 2
    assert "repeated: ['']" in capsys.readouterr().err


def test_slope_sum_is_computed_once_per_function(monkeypatch):
    # a circle sweep and then an equilibrium sweep of one battery: each
    # function's slope sum is computed on its first read and kept on it
    import berkpot.affable as affable

    calls = []
    slope = affable._piece_slope
    monkeypatch.setattr(affable, "_piece_slope", lambda piece: calls.append(piece) or slope(piece))
    bat = [dataclasses.replace(f) for f in BAT]  # fresh functions: nothing cached yet
    cfg = SweepConfig(grid=default_grid(2), battery=bat, lift=Z2, atom_budget=256)
    for sweep in (sweep_chi, sweep_equilibrium):
        assert not any(row.error for row in sweep(cfg).rows)
    assert len(calls) == 4 * len(bat)  # the four pieces of each function, once
    assert [f.slope_sum for f in bat] == [mass_bound(f) for f in BAT]
