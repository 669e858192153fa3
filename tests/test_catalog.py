import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import lightwalk.catalog
from lightwalk import (
    CATALOG_HEADER,
    Catalog,
    CatalogError,
    DomainError,
    Species,
    embedded_table1,
    load_catalog,
    parse_catalog,
    serialize_catalog,
)

HEADER = CATALOG_HEADER + "\n"


def test_parse_single_line():
    text = HEADER + "Li-7,7.016004,2s 2S1/2 - 2p 2P0 1/2,670.7926\n"
    catalog = parse_catalog(text)
    assert len(catalog) == 1
    species = catalog.entries[0]
    assert species == Species("Li-7", 7.016004, "2s 2S1/2 - 2p 2P0 1/2", 670.7926)


def test_header_only_is_empty_catalog():
    catalog = parse_catalog(HEADER)
    assert len(catalog) == 0


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + HEADER + "\n# middle\nA-1,1.0,label,500.0\n\n"
    assert parse_catalog(text).names() == ("A-1",)


def test_missing_header_rejected():
    with pytest.raises(CatalogError) as err:
        parse_catalog("A-1,1.0,label,500.0\n")
    assert err.value.line == 1


def test_duplicate_name_reports_line():
    text = HEADER + "U-238,238.05,label,358.5\nU-238,238.05,label,358.5\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text)
    assert err.value.line == 3
    assert "U-238" in str(err.value)


def test_non_numeric_mass_reports_line_and_column():
    text = HEADER + "Li-7,abc,label,670.0\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text)
    assert err.value.line == 2
    assert err.value.column == 6  # mass field starts after "Li-7,"


def test_wrong_field_count_rejected():
    with pytest.raises(CatalogError) as err:
        parse_catalog(HEADER + "Li-7,7.0,670.0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("value", ["0", "-5.0", "inf", "nan"])
def test_nonpositive_or_nonfinite_wavelength_rejected(value):
    with pytest.raises(CatalogError):
        parse_catalog(HEADER + f"A-1,1.0,label,{value}\n")


def test_empty_name_rejected():
    with pytest.raises(CatalogError) as err:
        parse_catalog(HEADER + " ,1.0,label,500.0\n")
    assert err.value.column == 1


def test_embedded_table_shape():
    catalog = embedded_table1()
    assert len(catalog) == 24
    assert catalog.source_tag == "table1-embedded"
    cs = catalog.get("Cs-133")
    assert cs.mass_u == 132.905429
    assert cs.wavelength_nm == 852.113
    magnesium = [catalog.get(n) for n in ("Mg-24", "Mg-25", "Mg-26")]
    assert {sp.wavelength_nm for sp in magnesium} == {285.21251}
    assert catalog.names()[0] == "Li-7"
    assert catalog.names()[-1] == "U-238"


def test_embedded_round_trip_is_exact():
    catalog = embedded_table1()
    again = parse_catalog(serialize_catalog(catalog))
    assert again.entries == catalog.entries


def test_serialize_empty_catalog():
    empty = Catalog(entries=(), source_tag="x")
    assert serialize_catalog(empty) == HEADER
    assert parse_catalog(serialize_catalog(empty)).entries == ()


def test_unknown_name_lookup():
    with pytest.raises(KeyError):
        embedded_table1().get("Xx-999")


@pytest.mark.parametrize(
    "mass_u, wavelength_nm", [(math.inf, 500.0), (1.0, math.inf), (math.nan, 500.0)]
)
def test_species_refuses_a_non_finite_mass_or_wavelength(mass_u, wavelength_nm):
    # an infinite mass would give average_speed exactly 0 m/s
    with pytest.raises(DomainError):
        Species("A-1", mass_u, "x", wavelength_nm)


def test_get_finds_every_name_of_a_large_catalog():
    entries = tuple(Species(f"Sp{i}-{i % 299 + 1}", 1.0 + i, "x", 500.0) for i in range(3000))
    catalog = Catalog(entries, source_tag="large")
    assert all(catalog.get(sp.name) is sp for sp in entries)
    with pytest.raises(KeyError) as err:
        catalog.get("Sp3000-1")
    assert str(err.value) == "\"no species named 'Sp3000-1' in catalog 'large'\""


def test_duplicate_entries_rejected_by_name():
    twice = Species("A-1", 1.0, "x", 500.0)
    with pytest.raises(CatalogError) as err:
        Catalog((twice, Species("B-2", 2.0, "x", 500.0), twice), source_tag="x")
    assert str(err.value) == "duplicate species name 'A-1'"
    assert err.value.line is None


def test_load_catalog_from_file(tmp_path):
    path = tmp_path / "species.csv"
    path.write_text(serialize_catalog(embedded_table1()), encoding="utf-8")
    catalog = load_catalog(str(path))
    assert catalog.entries == embedded_table1().entries
    assert catalog.source_tag == str(path)


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_+\-]{0,10}", fullmatch=True)
_numbers = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False)
_labels = st.text(
    alphabet="abcdefgSPDF0123456789 []()/-", max_size=24
).map(str.strip)
_species = st.builds(Species, name=_names, mass_u=_numbers, transition=_labels,
                     wavelength_nm=_numbers)
_catalogs = st.lists(_species, max_size=8, unique_by=lambda sp: sp.name).map(
    lambda entries: Catalog(tuple(entries), source_tag="fuzz")
)


@given(_catalogs)
def test_round_trip_property(catalog):
    assert parse_catalog(serialize_catalog(catalog)).entries == catalog.entries


def test_species_is_a_frozen_value_with_four_fields():
    sp = Species("A-1", 1.5, "x", 500.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.mass_u = 2.0
    with pytest.raises(DomainError):
        dataclasses.replace(sp, mass_u=-1.0)
    assert dataclasses.replace(sp, mass_u=3.0) == Species("A-1", 3.0, "x", 500.0)
    assert [f.name for f in dataclasses.fields(Species)] == [
        "name", "mass_u", "transition", "wavelength_nm"
    ]
    twin = Species(name="A-1", mass_u=1.5, transition="x", wavelength_nm=500.0)
    assert sp == twin and hash(sp) == hash(twin)
    assert sp != Species("A-1", 1.5, "y", 500.0)
    assert pickle.loads(pickle.dumps(sp)) == sp
    assert repr(sp) == "Species(name='A-1', mass_u=1.5, transition='x', wavelength_nm=500.0)"


@pytest.mark.parametrize(
    "fields, message",
    [
        ((" ", 1.0, "x", 500.0), "species name must be nonempty"),
        (("A-1", 0.0, "x", 500.0), "mass must be finite and positive, got 0.0"),
        (("A-1", 1.0, "x", math.nan), "wavelength must be finite and positive, got nan"),
    ],
)
def test_species_refusal_messages(fields, message):
    with pytest.raises(DomainError) as err:
        Species(*fields)
    assert str(err.value) == message


_FIELD_MESSAGE = "does not fit a catalog line"


@pytest.mark.parametrize(
    "name, transition",
    [
        ("A-1", "5s, 2S1/2"),  # a comma splits the row into five fields
        ("A,1", "x"),
        ("A-1", "5s\u20282S1/2"),  # every splitlines separator ends the row
        ("A-1", "5s\n2S1/2"),
        ("A-1", "5s\r"),
        ("A\x1c1", "x"),
        ("A-1", "5s\x852S1/2"),
        ("A-1", " padded "),  # the parser strips each field
        ("A-1 ", "x"),
        ("A-1", "x\t"),
        ("A-1", "\xa0x"),
        ("#Eu-153", "x"),  # the parser skips the row as a comment
    ],
)
def test_species_refuses_a_name_or_label_a_catalog_line_cannot_carry(name, transition):
    with pytest.raises(DomainError) as err:
        Species(name, 1.0, transition, 500.0)
    assert _FIELD_MESSAGE in str(err.value)


@pytest.mark.parametrize("name, transition", [
    ("A-1", ""), ("A-1", "5s\t2S1/2"), ("A\xa0#1", "x #y"), ("\ufeffA-1", "\u00e9 \u2003 \u00e9"),
])
def test_species_keeps_inner_whitespace_and_a_later_hash(name, transition):
    species = Species(name, 1.0, transition, 500.0)
    catalog = Catalog((species,), source_tag="x")
    assert parse_catalog(serialize_catalog(catalog)).entries == (species,)


# names and labels from all of Unicode; half of them hold one character, at any
# place, that the text format splits, strips or skips
_field_text = st.builds(
    lambda text, hazard, at: text[:at] + hazard + text[at:],
    st.text(max_size=8),
    st.just("") | st.sampled_from(" ,#\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u2029"),
    st.integers(0, 8),
)
# Python floats, and numpy float64 and float32 values, which Species also holds
_positive = (
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(np.float64)
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, width=32).map(np.float32)
)
_rows = st.lists(st.tuples(_field_text, _positive, _field_text, _positive), max_size=12)


@given(_rows)
@example([("A-1", 2.0, "5s, label", 500.0)])
@example([("A-1", 2.0, "5s\u2028label", 500.0)])
@example([("A-1", 2.0, " padded ", 500.0)])
@example([("#Eu-153", 152.9, "x", 466.2), ("B-2", 2.0, "x", 500.0)])
@example([("A-1", np.float64(2.0), "x", np.float32(466.2)), ("B-2", np.float32(2.1), "x",
                                                              np.float64(500.0))])
def test_every_catalog_the_constructors_accept_round_trips(rows):
    entries = {}
    for row in rows:
        try:
            species = Species(*row)
        except DomainError:
            continue
        entries.setdefault(species.name, species)
    catalog = Catalog(tuple(entries.values()), source_tag="fuzz")
    assert parse_catalog(serialize_catalog(catalog)).entries == catalog.entries


def test_a_refusal_the_row_checks_do_not_locate_still_raises(monkeypatch):
    # the parser cannot build a row Species refuses for its text; were one refused
    # anyway, the row must raise, not repeat the previous row's species
    def refusing(name, *fields):
        if name == "B-2":
            raise DomainError("refused for a test")
        return Species(name, *fields)

    monkeypatch.setattr(lightwalk.catalog, "Species", refusing)
    with pytest.raises(CatalogError) as err:
        parse_catalog(HEADER + "A-1,1.0,x,500.0\nB-2,2.0,x,500.0\n")
    assert (err.value.line, err.value.column) == (3, 1)
    assert str(err.value) == "line 3, column 1: refused for a test"
