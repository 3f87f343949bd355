"""Correctness gate, run on captured CLI output outside the timed region.

Each check returns a list of failure messages; an empty list means the output
passed.  Witnesses are re-scored through the reference evaluators
``kra_term_value`` / ``etw_term_value`` (joint law plus conditional mutual
informations), not through the optimiser's lean objective.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import List

import numpy as np

import ifcbounds as ifc

TOL = 1e-9


def _pairs_to_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def rescore(ch: ifc.ChannelMatrix, ineq: dict) -> float:
    """Value of one reported inequality at its own witness, via the reference path."""
    w = ineq["witness"]
    t = ifc.BoundTerm(tuple(ineq["subset"]), tuple(w["perm"]))
    if ineq["family"] == ifc.FAMILY_KRA:
        noise = ifc.validate_noise_correlation(_pairs_to_matrix(w["sigma"]))
        return ifc.kra_term_value(ch, noise, t)
    return ifc.etw_term_value(ch, t, [complex(re, im) for re, im in w["rhos"]])


def check_evaluate(ch: ifc.ChannelMatrix, code: int, text: str) -> List[str]:
    if code != 0:
        return [f"evaluate exited {code}"]
    doc = json.loads(text)
    fails = []
    users = range(1, ch.K + 1)
    want = [s for k in users for s in combinations(users, k)]
    got = [tuple(q["subset"]) for q in doc["inequalities"]]
    if got != want:
        fails.append(f"inequality subsets {got} != {want}")
    for q in doc["inequalities"]:
        try:
            val = rescore(ch, q)
        except ifc.IfcError as exc:
            fails.append(f"subset {q['subset']}: witness does not re-score ({exc})")
            continue
        if not abs(val - q["value_bits"]) <= TOL:
            fails.append(f"subset {q['subset']}: reported {q['value_bits']!r}, "
                         f"witness re-scores to {val!r}")
    upper = doc["sum_rate_upper_bits"]
    lower = max(doc["lower_bounds_bits"].values())
    if not upper >= lower - TOL:
        fails.append(f"sum-rate upper bound {upper!r} below achievable {lower!r}")
    return fails


def check_certify(code: int, text: str, capacity=None) -> List[str]:
    """``capacity`` is the construction-known sum capacity, None for a generic channel."""
    if code not in (0, 1):
        return [f"certify exited {code}"]
    doc = json.loads(text)
    fails = []
    if (code == 0) != (doc["status"] == ifc.CERTIFIED):
        fails.append(f"exit code {code} disagrees with status {doc['status']}")
    if not doc["upper_bits"] >= doc["lower_bits"] - TOL:
        fails.append(f"upper {doc['upper_bits']!r} below lower {doc['lower_bits']!r}")
    if capacity is not None:
        if doc["status"] != ifc.CERTIFIED:
            fails.append(f"constructed channel not certified ({doc['status']})")
        for side in ("upper_bits", "lower_bits"):
            if not abs(doc[side] - capacity) <= TOL:
                fails.append(f"{side} {doc[side]!r} != known capacity {capacity!r}")
    return fails
