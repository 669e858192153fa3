import ast
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightwalk import DomainError, cli, embedded_table1
from lightwalk.cli import EXIT_DOMAIN, EXIT_FILE, EXIT_OK, EXIT_USAGE, _table, main, run
from lightwalk.errors import MAX_ARRAY_LEN

# a command's exit code must not depend on the warnings filter
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def rows_of(document):
    lines = document.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_speeds_embedded_table():
    code, out = run(["speeds"])
    assert code == EXIT_OK
    header, rows = rows_of(out)
    assert header == ["name", "mass_u", "wavelength_nm", "vbar_mps"]
    assert len(rows) == 24
    lithium = next(r for r in rows if r[0] == "Li-7")
    assert float(lithium[3]) == pytest.approx(0.042153, rel=5e-4)


def test_speeds_codata_differs():
    _, paper = run(["speeds"])
    _, codata = run(["speeds", "--constants", "codata"])
    assert paper != codata


def test_speeds_from_catalog_file(tmp_path):
    path = tmp_path / "two.csv"
    full = embedded_table1()
    path.write_text(
        "name,mass_u,transition,wavelength_nm\n"
        f"Rb-85,{full.get('Rb-85').mass_u!r},x,{full.get('Rb-85').wavelength_nm!r}\n"
        f"Rb-87,{full.get('Rb-87').mass_u!r},x,{full.get('Rb-87').wavelength_nm!r}\n",
        encoding="utf-8",
    )
    code, out = run(["speeds", "--catalog", str(path)])
    assert code == EXIT_OK
    _, rows = rows_of(out)
    assert [r[0] for r in rows] == ["Rb-85", "Rb-87"]


@pytest.mark.parametrize(
    "command",
    ["speeds", "separate --t 1e-4", "simulate --species A-1 --t-max 1e-6", "bands --species A-1"],
)
def test_catalog_mass_that_underflows_in_kg_exits_4(tmp_path, command):
    # 1e-320 u is a positive catalog mass but 0 kg once converted; 1e-290 u is a
    # subnormal kg mass, whose inverse overflows in the separation planner
    for mass_u in ("1e-320", "1e-290"):
        path = tmp_path / f"tiny-{mass_u}.csv"
        path.write_text(
            f"name,mass_u,transition,wavelength_nm\nA-1,{mass_u},x,500.0\nB-2,2.0,x,500.0\n",
            encoding="utf-8",
        )
        assert run([*command.split(), "--catalog", str(path)]) == (EXIT_DOMAIN, "")


def test_catalog_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"name,mass_u,transition,wavelength_nm\nA-1,2.0,x,500.0\nB-2,2.0,\xff,500.0\n")
    assert run(["speeds", "--catalog", str(path)]) == (EXIT_FILE, "")
    err = capsys.readouterr().err
    assert err.startswith("lightwalk: line 3: ") and err.count("\n") == 1
    assert str(path) in err and "0xff" in err


def test_missing_catalog_file_is_file_error(tmp_path):
    code, _ = run(["speeds", "--catalog", str(tmp_path / "nope.csv")])
    assert code == EXIT_FILE


def test_malformed_catalog_is_file_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,mass_u,transition,wavelength_nm\nA-1,zzz,x,500\n", encoding="utf-8")
    code, _ = run(["speeds", "--catalog", str(path)])
    assert code == EXIT_FILE


def test_simulate_uncoupled_is_free_flight():
    code, out = run(
        ["simulate", "--species", "Mg-24", "--omega", "0", "--t-max", "1e-5", "--steps", "20"]
    )
    assert code == EXIT_OK
    header, rows = rows_of(out)
    assert header == ["t_s", "mean_p_kgmps", "mean_v_mps", "mean_x_m", "norm", "pop_excited"]
    assert len(rows) == 21
    # at rest and uncoupled the packet never moves (to float dust, way below nm)
    assert all(abs(float(r[3])) < 1e-18 for r in rows)
    assert all(float(r[4]) == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_simulate_uncoupled_without_steps_uses_200(capsys):
    code, out = run(["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--omega", "0"])
    assert code == EXIT_OK
    _, rows = rows_of(out)
    assert len(rows) == 201
    assert float(rows[-1][0]) == 1e-6
    assert capsys.readouterr().err == ""


def test_simulate_default_steps_are_200_per_period_clipped_to_2_and_the_cap(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_AUTO_STEPS", 50)  # the real cap takes 100,001 rows to reach
    cases = [
        ("1e-6", "1e6", 33),  # ceil(200 * 1e-6 s / 6.28e-6 s) = 32 steps
        ("1e-2", "1e6", 51),  # 318,310 steps by the rule, clipped to the cap
        ("1e-6", "1e-300", 3),  # under one step by the rule, raised to 2
    ]
    for t_max, omega, n_rows in cases:
        argv = ["simulate", "--species", "Rb-87", "--t-max", t_max, "--omega", omega,
                "--grid-points", "64"]
        code, out = run(argv)
        assert code == EXIT_OK
        assert len(rows_of(out)[1]) == n_rows


def test_separate_magnesium_pair():
    code, out = run(["separate", "--pair", "Mg-24,Mg-25", "--t", "42e-6"])
    assert code == EXIT_OK
    header, rows = rows_of(out)
    assert header[:4] == ["name_a", "name_b", "dvbar_mps", "gap_m"]
    assert len(rows) == 1
    assert float(rows[0][3]) == pytest.approx(48.8e-9, abs=0.5e-9)


def test_separate_time_required_beyond_ten_seconds():
    # a narrow momentum spread lets the pair resolve, but only after 10 s
    code, out = run(["separate", "--pair", "Rb-85,Rb-87", "--t", "100", "--pi-hbark", "1e-4"])
    assert code == EXIT_OK
    _, rows = rows_of(out)
    assert rows[0][6] == "true"
    t_required = float(rows[0][7])
    assert 10.0 < t_required <= 100.0
    # at that time the gap is exactly kappa = 2 times the summed widths
    code, out = run(
        ["separate", "--pair", "Rb-85,Rb-87", "--t", rows[0][7], "--pi-hbark", "1e-4"]
    )
    assert code == EXIT_OK
    _, rows = rows_of(out)
    gap, width_a, width_b = map(float, rows[0][3:6])
    assert gap == pytest.approx(2.0 * (width_a + width_b), rel=1e-6)


def test_separate_whole_catalog_pair_count():
    code, out = run(["separate", "--t", "1e-5"])
    assert code == EXIT_OK
    _, rows = rows_of(out)
    assert len(rows) == 24 * 23 // 2


def test_bands_structure():
    code, out = run(["bands", "--species", "Rb-87", "--points", "41"])
    assert code == EXIT_OK
    header, rows = rows_of(out)
    assert header == [
        "p_kgmps", "w_low_radps", "w_high_radps", "bare_ground_radps", "bare_excited_radps"
    ]
    assert len(rows) == 41
    assert all(float(r[2]) - float(r[1]) >= 1e6 * (1 - 1e-9) for r in rows)


def test_output_file(tmp_path):
    target = tmp_path / "speeds.csv"
    code, out = run(["speeds", "--output", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("name,mass_u")


def test_output_naming_a_directory_exits_3(tmp_path, capsys):
    assert run(["speeds", "--output", str(tmp_path)]) == (EXIT_FILE, "")
    err = capsys.readouterr().err
    assert err.startswith("lightwalk: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_deterministic_output():
    for argv in (
        ["speeds"],
        ["simulate", "--species", "Rb-87", "--t-max", "3e-6", "--steps", "40"],
        ["separate", "--pair", "Rb-85,Rb-87", "--t", "5e-4"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[1].encode("utf-8") == second[1].encode("utf-8")


# sha256 of the stdout of deterministic commands; simulate is left out because
# its cos/sin and matrix-product kernels round differently across CPUs
PINNED_OUTPUTS = {
    "speeds": "76a44ff9f265b8ffc325e746355035dc35838b30209db0a779a31fd04468892a",
    "speeds --constants codata":
        "57efb69dbb18ded47e59191c7a1443dc441ae28ebfede2d3c31b06446c1a0b51",
    "bands --species Rb-87": "213b7cad3946f1c333f5bc2d0829229b9df12218d18264d48c9473e34c3b5072",
    "bands --species Rb-87 --direction -1 --delta 3e5 --constants codata":
        "77484604ed899ec93c48fe074331d88ef48454f8afd2d2dd89c8b5f2bd2eb11f",
    "separate --t 1e-4": "e88e97a79160e4b5962987f15383a731b325e22605ce2b852637af391b3faa9a",
    "separate --pair Mg-24,Mg-25,Mg-26 --t 42e-6":
        "c227108c6f2e96cd56f61ea462b5fc48ecc045815fb7f752c89bb6cb87680fb4",
    "separate --t 1e-4 --c0sq 0.25 --constants codata":
        "14fde034230d43db2174ae49e5c091e59335222d5602e8db4d062751a04f9569",
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
def test_output_bytes_are_pinned(command):
    code, out = run(command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS[command]


def test_usage_errors_exit_2():
    assert run(["unknown-command"])[0] == EXIT_USAGE
    assert run(["simulate", "--species", "Mg-24"])[0] == EXIT_USAGE  # missing --t-max
    assert run(["simulate", "--species", "Nope-1", "--t-max", "1e-6"])[0] == EXIT_USAGE
    assert run(["separate", "--pair", "Mg-24", "--t", "1e-6"])[0] == EXIT_USAGE
    assert run(["validate", "--only", "no-such-check"])[0] == EXIT_USAGE
    # validate reads neither a catalog nor a constant set, so it takes neither flag
    argv = ["validate", "--catalog", "/nonexistent", "--constants", "codata", "--only", "figure3-gaps"]
    assert run(argv)[0] == EXIT_USAGE


def test_every_raise_names_an_exit_code_class():
    # every exception the package raises maps to one documented exit code:
    # UsageError and KeyError 2, CatalogError 3, DomainError 4
    allowed = {"DomainError", "CatalogError", "UsageError", "KeyError"}
    offenders = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "lightwalk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the script guard's SystemExit carries main's exit code; it is not an error
        tree.body = [stmt for stmt in tree.body if not (
            isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"
        )]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} raises {ast.unparse(exc)}")
    assert offenders == []


def test_domain_errors_exit_4():
    assert run(["simulate", "--species", "Mg-24", "--omega", "-5", "--t-max", "1e-6"])[0] == EXIT_DOMAIN
    assert run(["simulate", "--species", "Mg-24", "--c0sq", "1.5", "--t-max", "1e-6"])[0] == EXIT_DOMAIN
    assert run(["separate", "--pair", "Mg-24,Mg-25", "--t", "-1"])[0] == EXIT_DOMAIN


def test_c0sq_refusal_reads_the_same_in_every_command(capsys):
    # both commands apply the one ground-fraction rule
    assert run(["simulate", "--species", "Mg-24", "--c0sq", "1.5", "--t-max", "1e-6"]) == (
        EXIT_DOMAIN, "")
    simulate_err = capsys.readouterr().err
    assert run(["separate", "--pair", "Mg-24,Mg-25", "--c0sq", "1.5", "--t", "1e-6"]) == (
        EXIT_DOMAIN, "")
    assert capsys.readouterr().err == simulate_err
    assert simulate_err == "lightwalk: ground fraction must lie in [0, 1], got 1.5\n"


def test_non_finite_center_momentum_is_named(capsys):
    # the packet is checked before its grid, so the refusal names the field at fault
    argv = ["simulate", "--species", "Mg-24", "--pc-hbark", "nan", "--t-max", "1e-6"]
    assert run(argv) == (EXIT_DOMAIN, "")
    assert "center momentum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--species", "Mg-24", "--omega", "nan", "--t-max", "1e-6", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--omega", "inf", "--t-max", "1e-6", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--omega", "inf", "--t-max", "1e-6"],
        ["simulate", "--species", "Mg-24", "--delta", "nan", "--t-max", "1e-6", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--delta=-inf", "--t-max", "1e-6", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--t-max", "nan"],
        ["simulate", "--species", "Mg-24", "--t-max", "inf"],
        ["simulate", "--species", "Mg-24", "--t-max", "nan", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--x0", "nan", "--t-max", "1e-6", "--steps", "20"],
        ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--pi-hbark", "1e200"],
        ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--grid-span", "1e300"],
        ["simulate", "--species", "Mg-24", "--omega", "1e8", "--t-max", "1e300"],
        ["separate", "--pair", "Mg-24,Mg-25", "--t", "nan"],
        ["separate", "--pair", "Mg-24,Mg-25", "--t", "inf"],
        # packet widths whose envelope under- or overflows on the grid
        ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--pi-hbark", "1e-140"],
        ["simulate", "--species", "Mg-24", "--t-max", "1e-300", "--pi-hbark", "1e200"],
        # squared grid offsets that overflow while the width squared does not
        ["simulate", "--species", "Mg-24", "--t-max", "1e-200", "--pi-hbark", "2e180"],
        ["separate", "--t", "1e-4", "--kappa", "inf"],
    ],
)
def test_non_finite_input_exits_4(argv):
    assert run(argv) == (EXIT_DOMAIN, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--species", "Rb-87", "--delta", "1.7e308"],
        ["bands", "--species", "Rb-87", "--delta=-1.7e308"],
        ["bands", "--species", "Rb-87", "--p-min-hbark=-1e300"],
        ["bands", "--species", "Rb-87", "--p-min-hbark=-1.7e308"],
        ["bands", "--species", "Rb-87", "--p-min-hbark=-inf"],
        ["bands", "--species", "Rb-87", "--p-max-hbark", "1e300"],
        ["bands", "--species", "Rb-87", "--p-max-hbark", "1.7e308"],
        ["bands", "--species", "Rb-87", "--p-max-hbark", "inf"],
        ["separate", "--pi-hbark", "inf", "--t", "1e-4"],
    ],
)
def test_non_finite_result_exits_4(argv, capsys):
    assert run(argv) == (EXIT_DOMAIN, "")
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["simulate", "--species", "Mg-24", "--t-max", "1"], "aliasing horizon"),
        (["simulate", "--species", "Mg-24", "--t-max", "1e300"], "rounding error"),
        (["simulate", "--species", "Mg-24", "--omega", "1e300", "--t-max", "1e-6"],
         "rounding error"),
        # once exited 0 with a final pop_excited of 0.0414, against 0.0351 at 4096 points
        (["simulate", "--species", "Mg-24", "--t-max", "2e-6", "--delta", "3e6", "--pc-hbark",
          "0.3", "--pi-hbark", "0.5", "--steps", "4", "--grid-points", "5"], "too coarse"),
        # an envelope that is 0 on both points was blamed on an ordinary width
        (["simulate", "--species", "Mg-24", "--t-max", "1e-5", "--grid-points", "2",
          "--grid-span", "40"], "off by 1.00e+00"),
        # linspace rounds the middle sample to 0; the refusal once named no sample
        (["simulate", "--species", "Mg-24", "--t-max", "5e-324", "--steps", "2"],
         "times[1] = 0.0 s does not follow times[0] = 0.0 s"),
    ],
)
def test_simulate_refuses_runs_the_grid_or_float_phase_cannot_resolve(argv, reason, capsys):
    assert run(argv) == (EXIT_DOMAIN, "")
    assert reason in capsys.readouterr().err


def test_a_grid_whose_points_all_miss_the_packet_is_too_coarse(capsys):
    # the fault is the grid, not a packet width out of float range
    argv = ["simulate", "--species", "Mg-24", "--t-max", "1e-5", "--grid-points", "2",
            "--grid-span", "40"]
    assert run(argv) == (EXIT_DOMAIN, "")
    err = capsys.readouterr().err
    assert "too coarse" in err and "out of float range" not in err


def test_aliasing_refusal_names_the_grid_points_that_suffice(capsys):
    argv = ["simulate", "--species", "Mg-24", "--t-max", "1e-3", "--steps", "20"]
    assert run([*argv, "--grid-points", "64"]) == (EXIT_DOMAIN, "")
    needed = int(re.search(r"--grid-points (\d+)", capsys.readouterr().err).group(1))
    assert run([*argv, "--grid-points", str(needed - 1)]) == (EXIT_DOMAIN, "")
    code, out = run([*argv, "--grid-points", str(needed)])
    assert code == EXIT_OK
    assert len(rows_of(out)[1]) == 21


def test_a_coarse_grid_is_refused_before_the_aliasing_horizon_names_one(capsys):
    # a 2-point grid once got the advice --grid-points 4, itself too coarse for the packet
    argv = ["simulate", "--species", "Mg-24", "--delta", "3e6", "--pc-hbark", "0.3",
            "--pi-hbark", "0.5", "--steps", "4"]
    assert run([*argv, "--t-max", "2e-6", "--grid-points", "2"]) == (EXIT_DOMAIN, "")
    assert "too coarse" in capsys.readouterr().err
    argv += ["--t-max", "1.3e-5"]
    assert run([*argv, "--grid-points", "16"]) == (EXIT_DOMAIN, "")
    needed = re.search(r"--grid-points (\d+)", capsys.readouterr().err).group(1)
    assert run([*argv, "--grid-points", needed])[0] == EXIT_OK


def test_center_momentum_beside_which_the_width_vanishes_is_named(capsys):
    # center +- 6 widths round to the center itself: the fault is their ratio, not the bounds
    argv = ["simulate", "--species", "Mg-24", "--pc-hbark", "1e300", "--t-max", "1e-6"]
    assert run(argv) == (EXIT_DOMAIN, "")
    err = capsys.readouterr().err
    assert "p_max must exceed p_min" not in err
    assert "momentum width 1.1616e-28 vanishes beside the center momentum 2.3232e+273" in err
    assert "center/width = 2e+301" in err
    # a grid span that is not positive, or that underflows to 0, is named by its half span
    for half_span in ("0", "-1", "1e-300"):
        argv = ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--grid-span", half_span]
        assert run(argv) == (EXIT_DOMAIN, "")
        err = capsys.readouterr().err
        assert "p_max must exceed p_min" not in err
        assert f"half span {half_span}," in err


# the bytes _table must keep: text as it is, one 9-digit format per number
def _table_per_value(header, *columns):
    def cell(value):
        if isinstance(value, str):
            return value
        if not math.isfinite(value):
            raise DomainError(f"a result is not finite ({value}): an input is out of float range")
        return f"{value:.9g}"

    return "\n".join([header, *(",".join(map(cell, row)) for row in zip(*columns))]) + "\n"


TABLE_EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1 + 0.2, 1.0000000005, 1.0000000015, 2.0000000005,
    123456789.5, 123456788.5, 0.1234567895, 99999999.95, 999999999.5, 9.9999999995e-5,
    1e16, 1e-5, 1e-4, 123456789, 6.02214076e23, 1.602176634e-19, 299792458.0, 1.0, -1.0,
]


def test_table_bytes_equal_the_per_value_path():
    rng = np.random.default_rng(3)
    mixed = rng.normal(size=1200) * 10.0 ** rng.integers(-300, 300, size=1200)
    ties = np.round(rng.uniform(1.0, 10.0, size=1200), 8) + 5e-9  # near 9-digit ties
    values = np.concatenate([TABLE_EDGE_VALUES * 6, mixed, ties])
    columns = list(values.reshape(6, -1))  # 426 rows: more than one block of rows
    # a text column is printed as it is, beside the numbers
    columns.insert(2, np.array([f"Sp{i}-{i % 7}" for i in range(len(columns[0]))]))
    header = "a,b,name,c,d,e,f"
    assert _table(header, *columns) == _table_per_value(header, *columns)
    # rows of one column, and plain lists
    assert _table("a", TABLE_EDGE_VALUES) == _table_per_value("a", TABLE_EDGE_VALUES)


def test_table_refusal_names_the_first_non_finite_value_in_row_order():
    # row 1 holds -inf, row 2 nan: a column-major search would name the nan
    columns = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, np.nan]),
               np.array([1.0, -np.inf, 3.0])]
    with pytest.raises(DomainError) as err:
        _table("a,b,c", *columns)
    with pytest.raises(DomainError) as expected:
        _table_per_value("a,b,c", *columns)
    assert str(err.value) == str(expected.value)
    assert "(-inf)" in str(err.value)


# arrays of 1e15 or more doubles exceed the 47-bit address space, so each run fails
# at its first allocation; 1e30 is past what numpy can size and is refused before it
@pytest.mark.parametrize("count", [10**15, 10**30])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--steps"],
        ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--grid-points"],
        ["bands", "--species", "Rb-87", "--points"],
    ],
)
def test_a_count_too_large_for_memory_exits_4(argv, count, capsys):
    assert run([*argv, str(count)]) == (EXIT_DOMAIN, "")
    err = capsys.readouterr().err
    assert err.startswith("lightwalk: ") and err.count("\n") == 1
    assert "Unable to allocate" in err or str(count) in err


@pytest.mark.parametrize("steps", [1, 0, -5])
def test_too_few_steps_exits_4_like_every_count_flag(steps, capsys):
    argv = ["simulate", "--species", "Mg-24", "--t-max", "1e-6", "--steps", str(steps)]
    assert run(argv) == (EXIT_DOMAIN, "")
    err = capsys.readouterr().err
    assert err == f"lightwalk: simulate needs 2 to {MAX_ARRAY_LEN - 1} time steps, got {steps}\n"


def test_separate_repeated_name_is_usage_error():
    assert run(["separate", "--pair", "Mg-24,Mg-24", "--t", "42e-6"]) == (EXIT_USAGE, "")
    assert run(["separate", "--pair", "Mg-24,Mg-25,Mg-24", "--t", "42e-6"]) == (EXIT_USAGE, "")


def test_validate_single_check():
    code, out = run(["validate", "--only", "catalog-roundtrip"])
    assert code == EXIT_OK
    assert out.startswith("PASS catalog-roundtrip:")
    assert out.strip().endswith("passed 1/1 checks")


def test_validate_runs_a_check_named_twice_once():
    argv = ["validate", "--only", "figure3-gaps", "--only", "resonant-rabi", "--only", "figure3-gaps"]
    code, out = run(argv)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS figure3-gaps", "PASS resonant-rabi", "passed 2/2 checks"
    ]
    code, out = run(["validate", "--only", "figure3-gaps", "--only", "figure3-gaps"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("PASS figure3-gaps:")
    assert lines[1] == "passed 1/1 checks"


def test_the_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    # build_parser builds one parser per process; every run must start clean
    for _ in range(2):
        code, out = run(["validate", "--only", "figure3-gaps"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("PASS figure3-gaps:")
        assert lines[1] == "passed 1/1 checks"

    fresh = run(["speeds"])
    assert run(["speeds", "--no-such-flag"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("usage: lightwalk")
    assert run(["speeds"]) == fresh

    target = tmp_path / "speeds.csv"
    assert run(["speeds", "--output", str(target)]) == (EXIT_OK, "")
    assert target.read_text(encoding="utf-8") == fresh[1]
    assert run(["speeds"]) == fresh


def test_main_writes_stdout(capsys):
    assert main(["speeds"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("name,mass_u")


EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, math.nan]).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)
FUZZED_FLAGS = {
    "simulate": ["--omega", "--delta", "--pi-hbark", "--pc-hbark", "--c0sq", "--x0",
                 "--t-max", "--grid-span"],
    "bands": ["--omega", "--delta", "--p-min-hbark", "--p-max-hbark"],
    "separate": ["--t", "--kappa", "--pi-hbark", "--c0sq"],
}
# small fixed sizes keep every example fast
FIXED_ARGS = {
    "simulate": ["--species", "Mg-24", "--t-max", "1e-6", "--steps", "3", "--grid-points", "64"],
    "bands": ["--species", "Rb-87", "--points", "16"],
    "separate": ["--pair", "Mg-24,Mg-25,Rb-87", "--t", "1e-4"],
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    flags = draw(st.lists(st.sampled_from(FUZZED_FLAGS[command]), min_size=1, max_size=3,
                          unique=True))
    # a later flag overrides the fixed one; "--flag=value" keeps "-1e300" a value
    return [command, *FIXED_ARGS[command], *(f"{flag}={draw(EXTREME_FLOATS)!r}" for flag in flags)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fuzzed_argv())
def test_extreme_numeric_flags_exit_with_a_documented_code(argv):
    code, out = run(argv)  # an escaping exception fails the example
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_FILE, EXIT_DOMAIN)
    assert "nan" not in out.lower() and "inf" not in out.lower()
    assert code == EXIT_OK or out == ""
