import re

import pytest

from lightwalk import embedded_table1
from lightwalk.cli import EXIT_DOMAIN, EXIT_FILE, EXIT_OK, EXIT_USAGE, main, run


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


def test_usage_errors_exit_2():
    assert run(["unknown-command"])[0] == EXIT_USAGE
    assert run(["simulate", "--species", "Mg-24"])[0] == EXIT_USAGE  # missing --t-max
    assert run(["simulate", "--species", "Nope-1", "--t-max", "1e-6"])[0] == EXIT_USAGE
    assert run(["separate", "--pair", "Mg-24", "--t", "1e-6"])[0] == EXIT_USAGE
    assert run(["validate", "--only", "no-such-check"])[0] == EXIT_USAGE


def test_domain_errors_exit_4():
    assert run(["simulate", "--species", "Mg-24", "--omega", "-5", "--t-max", "1e-6"])[0] == EXIT_DOMAIN
    assert run(["simulate", "--species", "Mg-24", "--c0sq", "1.5", "--t-max", "1e-6"])[0] == EXIT_DOMAIN
    assert run(["separate", "--pair", "Mg-24,Mg-25", "--t", "-1"])[0] == EXIT_DOMAIN


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
    ],
)
def test_non_finite_input_exits_4(argv):
    assert run(argv) == (EXIT_DOMAIN, "")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["simulate", "--species", "Mg-24", "--t-max", "1"], "aliasing horizon"),
        (["simulate", "--species", "Mg-24", "--t-max", "1e300"], "rounding error"),
        (["simulate", "--species", "Mg-24", "--omega", "1e300", "--t-max", "1e-6"],
         "rounding error"),
    ],
)
def test_simulate_refuses_runs_the_grid_or_float_phase_cannot_resolve(argv, reason, capsys):
    assert run(argv) == (EXIT_DOMAIN, "")
    assert reason in capsys.readouterr().err


def test_aliasing_refusal_names_the_grid_points_that_suffice(capsys):
    argv = ["simulate", "--species", "Mg-24", "--t-max", "1e-3", "--steps", "20"]
    assert run([*argv, "--grid-points", "64"]) == (EXIT_DOMAIN, "")
    needed = int(re.search(r"--grid-points (\d+)", capsys.readouterr().err).group(1))
    assert run([*argv, "--grid-points", str(needed - 1)]) == (EXIT_DOMAIN, "")
    code, out = run([*argv, "--grid-points", str(needed)])
    assert code == EXIT_OK
    assert len(rows_of(out)[1]) == 21


def test_separate_repeated_name_is_usage_error():
    assert run(["separate", "--pair", "Mg-24,Mg-24", "--t", "42e-6"]) == (EXIT_USAGE, "")
    assert run(["separate", "--pair", "Mg-24,Mg-25,Mg-24", "--t", "42e-6"]) == (EXIT_USAGE, "")


def test_validate_single_check():
    code, out = run(["validate", "--only", "catalog-roundtrip"])
    assert code == EXIT_OK
    assert out.startswith("PASS catalog-roundtrip:")
    assert out.strip().endswith("passed 1/1 checks")


def test_main_writes_stdout(capsys):
    assert main(["speeds"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("name,mass_u")
