"""Species catalog: parse, validate and serialize lists of optical transitions.

File format
-----------
Comma-delimited UTF-8 text with the fixed header::

    name,mass_u,transition,wavelength_nm

One species per line, exactly four fields. A name or transition label
holds no comma, line break or surrounding whitespace, and a name does not
start with ``#`` (:class:`Species` refuses any other). Lines starting with
``#`` and blank lines are ignored. Masses are in atomic mass units,
wavelengths in nanometres; both parsed at full double precision.

The default dataset (24 ground-state resonance transitions from Li-7 to
U-238) is embedded below and served by :func:`embedded_table1`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NoReturn

from .errors import CatalogError, DomainError

CATALOG_HEADER = "name,mass_u,transition,wavelength_nm"


def _fits_a_field(text: str) -> bool:
    """Whether a catalog field reads ``text`` back (each line break is whitespace)."""
    return "," not in text and text.strip() == text and (
        text.isprintable() or len(text.splitlines()) < 2)


@dataclass(frozen=True, init=False)
class Species:
    """One element or isotope with its purification transition."""

    name: str
    mass_u: float
    transition: str
    wavelength_nm: float

    def __init__(self, name: str, mass_u: float, transition: str, wavelength_nm: float) -> None:
        # checks, then stores that bypass the frozen __setattr__: the catalog
        # parser builds one Species per row, and validate parses about 5,950 rows
        if not name.strip():
            raise DomainError("species name must be nonempty")
        if not (_fits_a_field(name) and _fits_a_field(transition)) or name[0] == "#":
            raise DomainError(f"species {name!r} ({transition!r}) does not fit a catalog line: no "
                              "comma, line break or surrounding whitespace, no '#' leading a name")
        if not 0 < mass_u < math.inf:
            raise DomainError(f"mass must be finite and positive, got {mass_u}")
        if not 0 < wavelength_nm < math.inf:
            raise DomainError(f"wavelength must be finite and positive, got {wavelength_nm}")
        fields = self.__dict__  # one store per key keeps the dict smaller than update() does
        fields["name"] = name
        fields["mass_u"] = mass_u
        fields["transition"] = transition
        fields["wavelength_nm"] = wavelength_nm


@dataclass(frozen=True)
class Catalog:
    entries: tuple[Species, ...]
    source_tag: str
    _by_name: dict[str, Species] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {sp.name: sp for sp in self.entries}
        if len(by_name) != len(self.entries):
            names = [sp.name for sp in self.entries]
            duplicate = next(n for i, n in enumerate(names) if n in names[:i])
            raise CatalogError(f"duplicate species name {duplicate!r}")
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Species]:
        return iter(self.entries)

    def get(self, name: str) -> Species:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no species named {name!r} in catalog {self.source_tag!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sp.name for sp in self.entries)


def _refuse_row(fields: list[str], line_no: int, refusal: ValueError) -> NoReturn:
    """Raise the :class:`CatalogError` that locates the fault in a refused row."""
    if len(fields) != 4:
        raise CatalogError(f"expected 4 comma-separated fields, got {len(fields)}", line_no, 1)
    # 1-based start column of each field in the raw line
    columns = list(itertools.accumulate((len(f) + 1 for f in fields[:-1]), initial=1))
    if not fields[0].strip():
        raise CatalogError("species name is empty", line_no, columns[0])
    for i, what in ((1, "mass_u"), (3, "wavelength_nm")):
        token = fields[i].strip()
        try:
            value = float(token)
        except ValueError:
            raise CatalogError(f"{what} is not a number: {token!r}", line_no, columns[i]) from None
        if not math.isfinite(value):
            raise CatalogError(f"{what} must be finite, got {token!r}", line_no, columns[i])
        if not value > 0:
            raise CatalogError(f"{what} must be positive, got {token!r}", line_no, columns[i])
    raise CatalogError(str(refusal), line_no, 1)  # a refusal the checks above do not locate


def parse_catalog(text: str, source_tag: str = "<string>") -> Catalog:
    """Parse catalog text into a :class:`Catalog`.

    Raises :class:`CatalogError` for malformed lines (with 1-based line
    and column) and for duplicate names (with the line).
    """
    entries: list[Species] = []
    seen: dict[str, int] = {}
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.replace(" ", "") != CATALOG_HEADER:
                raise CatalogError(
                    f"expected header {CATALOG_HEADER!r}, got {line!r}", line_no, 1
                )
            header_seen = True
            continue
        fields = raw.split(",")
        try:
            name, mass, transition, wavelength = fields
            name = name.strip()
            # float() ignores the same surrounding whitespace that str.strip() removes
            species = Species(name, float(mass), transition.strip(), float(wavelength))
        except ValueError as refusal:  # a wrong field count, a non-number, or a refused row
            _refuse_row(fields, line_no, refusal)
        if name in seen:
            raise CatalogError(
                f"duplicate species name {name!r} (first defined on line {seen[name]})",
                line_no,
            )
        seen[name] = line_no
        entries.append(species)
    if not header_seen:
        raise CatalogError(f"missing header {CATALOG_HEADER!r}", 1, 1)
    return Catalog(entries=tuple(entries), source_tag=source_tag)


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to text; floats use repr so parsing is lossless.

    Each number is written as the repr of ``float(x)``, so a numpy float or a
    bool that ``Species`` holds reads back as the equal Python float.
    """
    rows = [
        f"{sp.name},{float(sp.mass_u)!r},{sp.transition},{float(sp.wavelength_nm)!r}"
        for sp in catalog.entries
    ]
    return "\n".join([CATALOG_HEADER, *rows]) + "\n"


def load_catalog(path: str) -> Catalog:
    """Read and parse a catalog file; a file that is not UTF-8 is a :class:`CatalogError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "?" stands in for it, so the last
        # of the lines parse_catalog would count is the line that holds it
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise CatalogError(
            f"{path} is not UTF-8 text: byte {data[exc.start]:#04x} cannot be decoded", line
        ) from None
    return parse_catalog(text, source_tag=path)


# Default dataset: ground-state resonance transitions of 24 species.
# The Cd-114 lower-term label reads "2S0" verbatim from the source data
# (almost certainly a typo for 1S0); labels are stored as-is, never parsed.
_TABLE1_TEXT = """\
name,mass_u,transition,wavelength_nm
Li-7,7.016004,2s 2S1/2 - 2p 2P0 1/2,670.7926
C-12,12.000000,2s2 2p2 3P0 - 2s2 2p(2P0)3s 3P0 1,165.6928
Ne-20,19.992435,2p6 1S0 - 2p5(2P0 1/2)4s 2[1/2]0,626.8232
Mg-24,23.985042,3s2 1S0 - 3s3p 1P0 1,285.21251
Mg-25,24.985837,3s2 1S0 - 3s3p 1P0 1,285.21251
Mg-26,25.982593,3s2 1S0 - 3s3p 1P0 1,285.21251
Si-28,27.976927,3s2 3p2 3P0 - 3s2 3p4s 3P0 1,251.4316
Ca-40,39.962591,4s2 1S0 - 4s4p 1P0 1,422.6727
Ti-48,47.947947,3d2 4s2 a3F2 - 3d2(3F)4s4p(3P0) z3D0 1,501.4186
Fe-56,55.934939,3d6 4s2 a5D4 - 3d6(5D)4s4p(3P) z5P0 3,248.32708
Co-59,58.933198,3d7 4s2 a4F9/2 - 3d7(4F)4s4p(3P0) z4F0 9/2,352.6850
Ga-69,68.925580,4s2 4p 2P0 1/2 - 4s2 5s 2S1/2,403.2984
Rb-85,84.911794,5s 2S1/2 - 5p 2P0 3/2,780.027
Rb-87,86.909187,5s 2S1/2 - 5p 2P0 3/2,780.027
Sr-87,86.908884,5s2 1S0 - 5s5p 1P0 1,460.733
Nb-93,92.906377,4d4(a5D)5s a6D1/2 - 4d3 5s(a5P)5p y6P0 3/2,353.530
Ag-107,106.905092,4d10(1S)5s 2S1/2 - 4d10(1S)5p 2P0 3/2,328.0680
Cd-114,113.903357,5s2 2S0 - 5s5p 1P0 1,228.8022
In-115,114.903800,5p 2P0 1/2 - 6s 2S1/2,410.17504
Cs-133,132.905429,6s 2S1/2 - 6p 2P0 3/2,852.113
Eu-153,152.921225,4f7 6s2 a8S0 7/2 - 4f7(8S0)6s6p(1P0) y8P5/2,466.188
Yb-173,172.938208,4f14(1S)6s2 1S0 - 4f14(1S)6s6p 1P0 1,555.6466
Au-197,196.966543,5d10 6s 2S1/2 - 5d10 6p 2P0 1/2,267.5954
U-238,238.050784,5f3(4I0)6d7s2 5L0 6 - 5f3 6d2 7p 7N7,358.48774
"""


@lru_cache(maxsize=1)
def embedded_table1() -> Catalog:
    """The embedded 24-row default dataset."""
    return parse_catalog(_TABLE1_TEXT, source_tag="table1-embedded")
