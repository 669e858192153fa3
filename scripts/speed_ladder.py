#!/usr/bin/env python3
"""Print the speed ladder: drift speeds grouped by element-number ranges."""

import argparse

from lightwalk import embedded_table1, load_catalog, speed_ladder, speed_table


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
