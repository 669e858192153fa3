"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The table1-speeds criterion is red in ``lightwalk validate`` by design: its
published Eu-153 speed, 0.0028011 m/s, does not follow from the Eu-153 mass
and wavelength it is printed with, but it is h/(2 M lambda) at the Eu-152
mass. ``validate`` reports that row as FAIL at the stated 0.05% bound
instead of loosening it. For this criterion the test asserts that verdict
and its cause: the formula reproduces the other 23 published speeds, it
reproduces the Eu-153 one at the Eu-152 mass, and the check names exactly
the Eu-153 row.
"""

import ast
import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lightwalk import validation
from lightwalk.catalog import CATALOG_HEADER, Catalog, embedded_table1
from lightwalk.constants import H_PLANCK, U_ROUNDED
from lightwalk.planner import average_speed
from lightwalk.errors import CatalogError

_RESULTS: dict[str, validation.CheckResult] = {}

CRITERIA = [
    "table1-speeds",
    "oracle-equivalence",
    "strong-coupling-forms",
    "conservation",
    "figure3-gaps",
    "resonant-rabi",
    "catalog-roundtrip",
    "cli-determinism",
]

TABLE1_BOUND = 5e-4  # the check's stated 0.05% relative bound
TABLE1_GATE_S = 1.0  # the check's own wall-clock gate
# Atomic mass of Eu-152 in u, 151.9217445(18), from the 2020 Atomic Mass
# Evaluation (AME2020).
EU152_MASS_U = 151.9217445


def result_for(name: str) -> validation.CheckResult:
    if name not in _RESULTS:
        _RESULTS[name] = validation.ALL_CHECKS[name]()
    return _RESULTS[name]


def named_rows(detail: str) -> set[str]:
    """Species the table1-speeds detail reports as outside the bound."""
    return set(re.findall(r"([A-Z][a-z]?-\d+) off by", detail))


def assert_table1_verdict(result: validation.CheckResult) -> None:
    catalog = embedded_table1()
    reference = validation.REFERENCE_SPEEDS

    # h/(2 M lambda) reproduces every published speed but Eu-153's.
    for species in catalog:
        if species.name == "Eu-153":
            continue
        published = reference[species.name]
        residual = abs(average_speed(species) - published) / published
        assert residual <= TABLE1_BOUND, (species.name, residual)

    # The published Eu-153 speed is h/(2 M lambda) at the Eu-152 mass, and
    # the program's Eu-153 speed sits below it by exactly the mass ratio.
    europium = catalog.get("Eu-153")
    eu152_speed = H_PLANCK / (
        2.0 * EU152_MASS_U * U_ROUNDED * europium.wavelength_nm * 1e-9
    )
    published = reference["Eu-153"]
    assert abs(eu152_speed - published) / published <= TABLE1_BOUND
    mass_gap = 1.0 - EU152_MASS_U / europium.mass_u
    assert mass_gap == pytest.approx(6.54e-3, abs=5e-6)
    assert 1.0 - average_speed(europium) / eu152_speed == pytest.approx(mass_gap, rel=1e-9)

    # The check's verdict is the documented one: red, naming only Eu-153,
    # with the other 23 rows inside the bound and within its time gate.
    assert result.passed is False
    assert named_rows(result.detail) == {"Eu-153"}
    assert result.detail.startswith("23/24 rows within 0.05%")
    elapsed = re.search(r"; (\d+\.\d+)s$", result.detail)
    assert elapsed is not None, result.detail
    assert float(elapsed.group(1)) < TABLE1_GATE_S


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = result_for(name)
    print(validation.format_line(result))
    if name == "table1-speeds":
        assert_table1_verdict(result)
    else:
        assert result.passed, result.detail


def test_figure3_discrepancy_is_reported():
    # the Rb-85/Rb-87 gap note must be surfaced, pass or fail
    result = result_for("figure3-gaps")
    assert "34.4" in result.detail
    assert "not" in validation.RB_GAP_NOTE
    assert validation.RB_GAP_NOTE in result.detail


def test_table1_detail_names_the_inconsistent_row():
    result = result_for("table1-speeds")
    assert named_rows(result.detail) == {"Eu-153"}
    assert validation.EU_NOTE in result.detail


def test_table1_reports_fail_when_no_row_passes(monkeypatch):
    monkeypatch.setattr(validation, "average_speed", lambda sp: 2.0 * average_speed(sp))
    result = validation.check_table1_speeds()
    assert result.passed is False
    assert result.detail.startswith(f"0/{len(embedded_table1())} rows within 0.05%;")
    assert len(named_rows(result.detail)) == len(embedded_table1())


def test_validate_command_prints_one_line_per_check():
    from lightwalk.cli import run

    code, out = run(["validate", "--only", "figure3-gaps", "--only", "resonant-rabi"])
    lines = out.strip().split("\n")
    assert code == 0
    assert len(lines) == 3
    assert lines[0].startswith("PASS figure3-gaps:")
    assert lines[1].startswith("PASS resonant-rabi:")
    assert lines[2] == "passed 2/2 checks"


def test_strong_coupling_fails_on_a_velocity_off_by_one_percent_in_frequency(monkeypatch):
    # a velocity that oscillates 1% fast is 0.19 rad out of phase after the
    # check's three Rabi periods
    velocity = validation.closed_form_velocity
    monkeypatch.setattr(validation, "closed_form_velocity",
                        lambda t, *rest: velocity(1.01 * t, *rest))
    result = validation.check_strong_coupling()
    assert result.passed is False
    error = float(re.search(r"velocity within (\S+) of the drift speed", result.detail).group(1))
    assert error > 1e-2
    assert result.detail.startswith("displacement within ")


def test_catalog_roundtrip_fails_on_a_lossy_serializer(monkeypatch):
    def lossy(catalog):
        rows = [f"{sp.name},{sp.mass_u:.15g},{sp.transition},{sp.wavelength_nm:.15g}"
                for sp in catalog]
        return "\n".join([CATALOG_HEADER, *rows]) + "\n"

    monkeypatch.setattr(validation, "serialize_catalog", lossy)
    result = validation.check_catalog_roundtrip()
    assert result.passed is False
    mismatches = int(re.search(r"\((\d+) mismatches\)", result.detail).group(1))
    assert mismatches > 0


def test_catalog_roundtrip_fails_on_a_lossy_parser(monkeypatch):
    # a parser that keeps 15 significant digits of each mass hands the
    # serializer a catalog that is already rounded
    parse = validation.parse_catalog

    def lossy(text):
        catalog = parse(text)
        entries = [replace(sp, mass_u=float(f"{sp.mass_u:.15g}")) for sp in catalog]
        return Catalog(tuple(entries), catalog.source_tag)

    monkeypatch.setattr(validation, "parse_catalog", lossy)
    result = validation.check_catalog_roundtrip()
    assert result.passed is False
    mismatches = int(re.search(r"\((\d+) mismatches\)", result.detail).group(1))
    assert mismatches > 0


def test_catalog_roundtrip_fails_on_a_misplaced_line_number(monkeypatch):
    parse = validation.parse_catalog

    def off_by_one(text):
        try:
            return parse(text)
        except CatalogError as exc:
            exc.line += 1
            raise

    monkeypatch.setattr(validation, "parse_catalog", off_by_one)
    result = validation.check_catalog_roundtrip()
    assert result.passed is False
    assert "(0 mismatches); 0/50 malformed lines" in result.detail


def test_catalog_roundtrip_draws():
    count = 1050  # the check's 1,000 round-trips and 50 malformed-line trials
    rows, texts = validation._random_catalogs(np.random.default_rng(7), count)
    texts = list(texts)
    assert len(rows) == len(texts) == count
    row_pattern = re.compile(r"Sp(\d+)-(\d+),([^,]+),([1-7])s ([1-3])S1/2,([^,]+)")
    for n, text in zip(rows, texts):
        assert 0 <= n <= 11
        assert len(validation.parse_catalog(text)) == n
        lines = text.splitlines()
        assert lines[0] == CATALOG_HEADER and len(lines) == n + 1
        for i, line in enumerate(lines[1:]):
            index, suffix, mass, _, _, wavelength = row_pattern.fullmatch(line).groups()
            assert int(index) == i and 1 <= int(suffix) < 300
            assert 1.0 <= float(mass) < 300.0 and 100.0 <= float(wavelength) < 2000.0
    _, again = validation._random_catalogs(np.random.default_rng(7), count)
    assert list(again) == texts
    # every byte: a rewrite of the writer must keep each draw, its order and its digits
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "50709991b0fa01e4eee7402877609adf835c777d14202403e9c0e1911503cd63"
    )


def test_every_list_of_check_names_agrees():
    # the order validate runs, the --only choices, the benchmark's traced checks
    # (read from its source, not imported) and the criteria here
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    check_names = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CHECK_NAMES"
    )
    ran = [result.name for result in validation.run_checks()]
    assert ran == list(validation.ALL_CHECKS) == list(check_names) == CRITERIA
