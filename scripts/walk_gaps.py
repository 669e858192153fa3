#!/usr/bin/env python3
"""Generate displacement-versus-time data for the separation panels.

Writes three plot-ready CSVs (whole catalog, Mg isotopes, Rb isotopes)
with one displacement column per species, built from the period-averaged
drift speeds, and prints the closing gap of each isotope pair.
"""

import argparse
from pathlib import Path

import numpy as np

from lightwalk import embedded_table1, pairwise_gap, speed_table


def write_panel(path: Path, names, times, speeds):
    header = "t_s," + ",".join(f"x_{name}_m" for name in names)
    lines = [header]
    for t in times:
        row = [f"{t:.9g}"] + [f"{speeds[name] * t:.9g}" for name in names]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(names)} species, {len(times)} samples)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out", help="directory for the CSVs")
    parser.add_argument("--points", type=int, default=201, help="time samples per panel")
    args = parser.parse_args()

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    catalog = embedded_table1()
    speeds = speed_table(catalog)

    write_panel(out / "walk_all_species.csv", catalog.names(),
                np.linspace(0.0, 42e-6, args.points), speeds)
    write_panel(out / "walk_mg_isotopes.csv", ("Mg-24", "Mg-25", "Mg-26"),
                np.linspace(0.0, 42e-6, args.points), speeds)
    write_panel(out / "walk_rb_isotopes.csv", ("Rb-85", "Rb-87"),
                np.linspace(0.0, 500e-6, args.points), speeds)

    for a, b, t in (("Mg-24", "Mg-25", 42e-6), ("Mg-25", "Mg-26", 42e-6),
                    ("Rb-85", "Rb-87", 500e-6), ("U-238", "Yb-173", 30e-6)):
        gap = pairwise_gap(catalog.get(a), catalog.get(b), t)
        print(f"{a} vs {b} after {t * 1e6:g} us: gap {gap * 1e9:.2f} nm")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
