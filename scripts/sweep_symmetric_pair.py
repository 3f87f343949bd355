#!/usr/bin/env python3
"""Sweep the symmetric two-user pair and report where the bounds close.

For H = [[1, g], [g, 1]] the treat-interference-as-noise rate is optimal in
the weak-coupling regime, and the two outer-bound families trade off as g
grows.  Prints one row per grid point with the binding family, the gap to the
achievable rate, and the certification verdict; optionally writes the same
table as CSV.
"""

import argparse
import csv
import sys

import numpy as np

import ifcbounds as ifc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--start", type=float, default=0.0, help="first cross gain")
    ap.add_argument("--stop", type=float, default=2.0, help="last cross gain")
    ap.add_argument("--steps", type=int, default=21, help="grid points")
    ap.add_argument("--csv", type=str, default=None, help="also write CSV here")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be positive")

    cfg = ifc.OptimizerConfig()
    header = ("g", "upper_kra", "upper_etw", "tin_lower", "gap", "binding", "verdict")
    print(f"{'g':>6}  {'KRA':>10}  {'ETW':>10}  {'TIN':>10}  {'gap':>10}  binding  verdict")
    rows = []
    for g in np.linspace(args.start, args.stop, args.steps):
        ch = ifc.validate_channel(np.array([[1.0, g], [g, 1.0]], dtype=complex))
        rep = ifc.region(ch, cfg, sum_rate_only=True)
        kra = rep.per_family_sum_rate[ifc.FAMILY_KRA]
        etw = rep.per_family_sum_rate[ifc.FAMILY_ETW]
        tin = rep.lower_bounds["TIN"]
        gap = rep.sum_rate_upper - tin
        binding = ifc.FAMILY_KRA if kra <= etw else ifc.FAMILY_ETW
        cert = ifc.certify_sum_capacity(ch, cfg)
        rows.append((f"{g:.4f}", f"{kra:.6f}", f"{etw:.6f}", f"{tin:.6f}",
                     f"{gap:.6f}", binding, cert.status))
        print(f"{g:6.3f}  {kra:10.6f}  {etw:10.6f}  {tin:10.6f}  {gap:10.6f}"
              f"  {binding:<7}  {cert.status}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
