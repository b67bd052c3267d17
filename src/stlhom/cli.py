"""Command-line front end: verify one ring at one size.

``verify --ring ground --scalar f2 --n 4 --check homology`` prints the JSON
report to stdout; with ``--out`` the JSON goes to the file and stdout gets
the human-readable summary lines instead.  Exit code 0 means every check
passed (or was skipped), 1 means some check failed, raised an error or was
refused by the budget guard, 2 means the request itself was malformed.
"""

from __future__ import annotations

import argparse
import sys

from .campaign import (CHECK_NAMES, DEFAULT_MAX_CUBE, CampaignConfig,
                       CampaignConfigError, run_campaign)
from .domains import SCALARS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run correctness checks on the Steinberg Leibniz algebra "
                    "stl_n(R) for a catalog ring or a ring JSON file.")
    parser.add_argument("--ring", required=True,
                        help="catalog ring name or path to a ring JSON file")
    parser.add_argument("--scalar", required=True, choices=sorted(SCALARS),
                        help="scalar domain the ring lives over")
    parser.add_argument("--n", required=True, type=int, choices=(3, 4, 5),
                        help="matrix size")
    parser.add_argument("--check", required=True,
                        choices=CHECK_NAMES + ("all",),
                        help="which verification to run")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report to this file")
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the (n, predicted, computed) CSV "
                             "summary to this file")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="run the (ring, n) units in up to K worker "
                             "processes, started only when there are at "
                             "least two units (default 1)")
    parser.add_argument("--max-cube", type=int, default=DEFAULT_MAX_CUBE,
                        metavar="ROWS",
                        help="refuse checks whose tensor cube exceeds this "
                             f"many rows (default {DEFAULT_MAX_CUBE})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = CampaignConfig(
            rings=[(args.ring, args.scalar)], ns=[args.n],
            checks=[args.check], out=args.out, csv_out=args.csv,
            jobs=args.jobs, max_cube=args.max_cube)
    except CampaignConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(config)
    if args.out:
        for line in report.lines():
            print(line)
    else:
        sys.stdout.write(report.to_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
