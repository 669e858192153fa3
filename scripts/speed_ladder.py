#!/usr/bin/env python3
"""Print the speed ladder: drift speeds grouped by element-number ranges."""

import argparse

from lightwalk import DomainError, embedded_table1, load_catalog, speed_table

# Element symbols in order of atomic number: Z is the index plus one.
ELEMENTS = """
H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn
Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce
Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn
Fr Ra Ac Th Pa U
""".split()

# Atomic-number ranges of the ladder groups, lightest to heaviest.
GROUPS = (
    ("H-He", 1, 2),
    ("Li-F", 3, 9),
    ("Ne-Ar", 10, 18),
    ("K-Kr", 19, 36),
    ("Rb-Xe", 37, 54),
    ("Cs-Rn", 55, 86),
    ("Fr-U", 87, 92),
)


def atomic_number(name: str) -> int:
    symbol = name.split("-", 1)[0].strip()
    if symbol not in ELEMENTS:
        raise DomainError(f"unknown element symbol in species name {name!r}")
    return ELEMENTS.index(symbol) + 1


def speed_ladder(catalog) -> list[tuple[str, float, tuple[str, ...]]]:
    """Mean ground-state speed per ladder group, lightest group first.

    Groups with no catalog members are omitted. Individual members may
    cross group boundaries (a heavy atom on a short transition can outrun
    a lighter one), but the group means step monotonically downward.
    """
    table = speed_table(catalog)
    numbers = {name: atomic_number(name) for name in table}
    ladder = []
    for label, z_lo, z_hi in GROUPS:
        members = tuple(name for name in table if z_lo <= numbers[name] <= z_hi)
        if members:
            ladder.append((label, sum(table[name] for name in members) / len(members), members))
    return ladder


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--catalog", default=None, help="catalog file (default: embedded)")
    args = parser.parse_args()

    catalog = embedded_table1() if args.catalog is None else load_catalog(args.catalog)
    speeds = speed_table(catalog)
    for label, mean, members in speed_ladder(catalog):
        print(f"{label:6s} mean {mean:.6f} m/s")
        for name in sorted(members, key=lambda n: -speeds[n]):
            print(f"    {name:8s} {speeds[name]:.7f} m/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
