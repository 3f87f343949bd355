#!/usr/bin/env python3
"""Batch-certify randomly generated layered channels.

Each instance is built by seeding the recursive construction with a random
unit-diagonal noise correlation, so its sum capacity is known by
construction.  The script runs the full certification pipeline end to end on
every instance and summarizes how many close, which paths fired, and the
worst observed gap.
"""

import argparse
import json
import time

import numpy as np

import ifcbounds as ifc


def random_correlation(rng, K, eig_floor=5e-3):
    """Unit-diagonal PSD matrix, blended toward identity if ill conditioned."""
    z = rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K))
    L = np.tril(z)
    L /= np.linalg.norm(L, axis=1, keepdims=True)
    sig = L @ L.conj().T
    np.fill_diagonal(sig, 1.0)
    e0 = float(np.linalg.eigvalsh(sig)[0])
    if e0 < eig_floor:
        t = (eig_floor - e0) / (1.0 - e0)
        sig = (1.0 - t) * sig + t * np.eye(K)
    return ifc.validate_noise_correlation(sig)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users", type=int, default=3, help="number of users K")
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0, help="seed of the channel sampler")
    ap.add_argument("--json", type=str, default=None, help="write summary here")
    args = ap.parse_args(argv)
    if args.users < 1 or args.trials < 1:
        ap.error("--users and --trials must be positive")

    rng = np.random.default_rng(args.seed)
    paths = {}
    gaps = []
    slowest = (0.0, -1)
    for i in range(args.trials):
        sig = random_correlation(rng, args.users)
        gains = np.exp(rng.uniform(np.log(0.25), np.log(4.0), args.users))
        ch = ifc.build_z_channel(sig, gains)
        t0 = time.monotonic()
        cert = ifc.certify_sum_capacity(ch)
        dt = time.monotonic() - t0
        paths[cert.path] = paths.get(cert.path, 0) + 1
        gaps.append(cert.gap_bits)
        if dt > slowest[0]:
            slowest = (dt, i)
        tag = "ok" if cert.status == ifc.CERTIFIED else "OPEN"
        print(f"trial {i:3d}: {cert.status:10s} path={cert.path} "
              f"gap={cert.gap_bits:.3e} bits  [{dt:.2f} s]  {tag}")

    n_cert = sum(v for k, v in paths.items() if k is not None)
    summary = {
        "users": args.users,
        "trials": args.trials,
        "seed": args.seed,
        "certified": n_cert,
        "paths": {str(k): v for k, v in paths.items()},
        "worst_gap_bits": max(gaps),
        "slowest_trial": slowest[1],
        "slowest_seconds": round(slowest[0], 3),
    }
    print(f"\ncertified {n_cert}/{args.trials}; worst gap {max(gaps):.3e} bits; "
          f"slowest trial {slowest[1]} at {slowest[0]:.2f} s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
