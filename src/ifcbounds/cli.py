"""Command-line front end: it parses arguments, loads JSON files and routes
each subcommand to the library, whose own checks (family names, size caps,
document schema) decide what is valid.

Subcommands: evaluate, construct, certify, sweep, verify, count-bounds.
All output goes to stdout in a single write (JSON reports, CSV sweeps);
errors go to stderr.  Exit codes: 0 success / certified, 1 not certified or
oracle mismatch, 2 invalid input (bad arguments, undecodable or invalid JSON,
an unreadable file), 3 problem too large, 4 internal inconsistency or any
unexpected error, which also prints its traceback.

Every input is a flag or a file.  ``--families`` defaults to every family
and ``verify --seed`` to 0; the bound solves themselves take no settings.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import traceback
from typing import Optional, Sequence, Tuple

import numpy as np

from .certify import CERTIFIED, certify_sum_capacity
from .construct import build_z_channel, many_to_one, rank_one_channel
from .errors import IfcError, InternalConsistencyError, SchemaError, TooLarge
from .gaussian_info import build_joint, conditional_mi
from .model import (
    SCHEMA_VERSION,
    ChannelMatrix,
    _decode_json,
    _to_pairs,
    _want_matrix,
    _want_number,
    _want_vector,
    parse_channel_spec,
    validate_noise_correlation,
)
from .oracle import mc_mutual_information
from .outer_bound import (
    FAMILIES,
    FAMILY_ETW,
    FAMILY_KRA,
    FULL_REGION_MAX_K,
    count_bounds,
    region,
)

GAP_SNAP = 1e-12

#: exit code of a failure, looked up along its class's MRO so the most
#: specific entry wins; a failure matching no entry exits 4 with a traceback
EXIT_CODES = {TooLarge: 3, InternalConsistencyError: 4, IfcError: 2, OSError: 2}

#: CPython's default limit on the digits of a printed int, used where the
#: interpreter predates sys.get_int_max_str_digits or has the limit switched off
DEFAULT_MAX_STR_DIGITS = 4300


# ---------------------------------------------------------------------------
# input files

def _load_json(path: str):
    with open(path, "rb") as fh:
        return _decode_json(fh.read())


def _load_channel(path: str) -> ChannelMatrix:
    return parse_channel_spec(_load_json(path))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_evaluate(args: argparse.Namespace) -> Tuple[str, int]:
    ch = _load_channel(args.channel)
    rep = region(ch, families=args.families, sum_rate_only=args.sum_rate_only)
    out = json.dumps(rep.to_json_dict(), indent=2) + "\n"
    return out, 0 if rep.consistent else 4


def _cmd_construct(args: argparse.Namespace) -> Tuple[str, int]:
    params = _load_json(args.params)
    if not isinstance(params, dict):
        raise SchemaError("", "parameter file must contain a JSON object")
    if args.mode == "z":
        sigma = validate_noise_correlation(_want_matrix(params.get("sigma"), None, "/sigma"))
        if "diag_gains" in params:
            gains = _want_vector(params["diag_gains"], "/diag_gains", _want_number)
        else:
            gains = np.ones(sigma.K)
        ch = build_z_channel(sigma, gains)
        prov = {
            "mode": "z",
            "sigma": _to_pairs(sigma.sigma),
            "diag_gains": [float(g) for g in gains],
        }
    elif args.mode == "many-to-one":
        v = _want_vector(params.get("v"), "/v")
        if "diag_gains" in params:
            gains = _want_vector(params["diag_gains"], "/diag_gains", _want_number)
        else:
            gains = np.ones(v.size + 1)
        ch = many_to_one(v, gains)
        prov = {
            "mode": "many-to-one",
            "v": _to_pairs(v),
            "diag_gains": [float(g) for g in gains],
        }
    else:  # rank-one
        a = _want_vector(params.get("a"), "/a")
        b = _want_vector(params.get("b"), "/b")
        ch = rank_one_channel(a, b)
        prov = {
            "mode": "rank-one",
            "a": _to_pairs(a),
            "b": _to_pairs(b),
        }
    doc = ch.to_spec_dict()
    doc["provenance"] = prov
    return json.dumps(doc, indent=2) + "\n", 0


def _cmd_certify(args: argparse.Namespace) -> Tuple[str, int]:
    ch = _load_channel(args.channel)
    cert = certify_sum_capacity(ch)
    out = json.dumps(cert.to_json_dict(), indent=2) + "\n"
    return out, 0 if cert.status == CERTIFIED else 1


def _pointer_key(node, tok: str, pointer: str):
    """The list index or dict key that pointer token tok selects in node."""
    if isinstance(node, list):
        # RFC 6901: a non-negative decimal without leading zeros
        if not re.fullmatch(r"0|[1-9][0-9]*", tok) or int(tok) >= len(node):
            raise SchemaError(pointer, f"bad array index {tok!r}")
        return int(tok)
    if isinstance(node, dict):
        if tok not in node:
            raise SchemaError(pointer, f"missing key {tok!r}")
        return tok
    raise SchemaError(pointer, "pointer descends past a leaf")


def _set_pointer(doc, pointer: str, value: float) -> None:
    if not pointer.startswith("/"):
        raise SchemaError(pointer, "parameter pointer must start with '/'")
    tokens = [t.replace("~1", "/").replace("~0", "~") for t in pointer.split("/")[1:]]
    node = doc
    for tok in tokens[:-1]:
        node = node[_pointer_key(node, tok, pointer)]
    key = _pointer_key(node, tokens[-1], pointer)
    prev = node[key]
    if isinstance(prev, bool) or not isinstance(prev, (int, float)):
        raise SchemaError(pointer, "pointer must target a number leaf")
    node[key] = value


def _fmt(x: float) -> str:
    return "%.12g" % x


def _cmd_sweep(args: argparse.Namespace) -> Tuple[str, int]:
    if args.steps < 1:
        raise SchemaError("/steps", "steps must be a positive integer")
    template = _load_json(args.template)
    pointers = [p.strip() for p in args.param.split(",") if p.strip()]
    if not pointers:
        raise SchemaError("/param", "at least one parameter pointer required")
    values = np.linspace(args.start, args.stop, args.steps)
    lines = ["parameter,upper_kra,upper_etw,tin_lower,gap"]
    for v in values:
        doc = json.loads(json.dumps(template))
        for ptr in pointers:
            _set_pointer(doc, ptr, float(v))
        ch = parse_channel_spec(doc)
        rep = region(ch, sum_rate_only=True)
        up_kra = rep.per_family_sum_rate[FAMILY_KRA]
        up_etw = rep.per_family_sum_rate[FAMILY_ETW]
        tin = rep.lower_bounds["TIN"]
        gap = min(up_kra, up_etw) - tin
        if abs(gap) < GAP_SNAP:
            gap = 0.0
        lines.append(",".join(_fmt(x) for x in (float(v), up_kra, up_etw, tin, gap)))
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args: argparse.Namespace) -> Tuple[str, int]:
    ch = _load_channel(args.channel)
    seed, n = args.seed, args.mc_samples
    joint = build_joint(ch)
    xs = [f"X{k}" for k in range(1, ch.K + 1)]
    ys = [f"Y{k}" for k in range(1, ch.K + 1)]
    queries = [([ys[k]], [xs[k]], []) for k in range(ch.K)]
    if ch.K >= 2:
        queries.append(([ys[0]], xs, []))
        queries.append(([ys[-1]], [xs[-1]], xs[:-1]))
    rows = []
    all_ok = True
    for qi, (a, b, c) in enumerate(queries):
        exact = conditional_mi(joint, a, b, c)
        est, se = mc_mutual_information(joint, a, b, c, n, seed + qi)
        ok = abs(est - exact) <= 3.0 * se + 1e-12
        all_ok = all_ok and ok
        rows.append({"a": a, "b": b, "c": c, "exact": exact,
                     "estimate": est, "se": se, "ok": ok})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_samples": n,
        "seed": seed,
        "queries": rows,
        "all_ok": all_ok,
    }
    return json.dumps(doc, indent=2) + "\n", 0 if all_ok else 1


def _cmd_count_bounds(args: argparse.Namespace) -> Tuple[str, int]:
    limit = getattr(sys, "get_int_max_str_digits", int)() or DEFAULT_MAX_STR_DIGITS
    lines = []
    for k in args.K:
        # N(K) = floor(e K!) - 1 has floor(log10(e K!)) + 1 digits
        if k >= 1 and (math.lgamma(k + 1) + 1.0) / math.log(10.0) >= limit:
            raise TooLarge(f"N({k}) has more than {limit} decimal digits, "
                           "past Python's integer printing limit")
        lines.append(f"N({k})={count_bounds(k)}")
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifcbounds",
        description="capacity outer bounds and sum-capacity certificates "
                    "for Gaussian interference channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate the outer bound for a channel spec")
    p_eval.add_argument("channel", help="path to a channel spec JSON file")
    p_eval.add_argument("--families", default=FAMILIES,
                        help="comma-separated bound families (kra, etw; any case); "
                             "default: both")
    p_eval.add_argument("--sum-rate-only", action="store_true",
                        help="bound only the sum rate (required for K > "
                             f"{FULL_REGION_MAX_K})")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_con = sub.add_parser("construct", help="build a channel with known sum capacity")
    p_con.add_argument("mode", choices=["z", "many-to-one", "rank-one"])
    p_con.add_argument("params", help="path to a parameter JSON file")
    p_con.set_defaults(func=_cmd_construct)

    p_cert = sub.add_parser("certify", help="attempt a sum-capacity certificate")
    p_cert.add_argument("channel", help="path to a channel spec JSON file")
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="sweep a scalar channel parameter, emit CSV")
    p_sweep.add_argument("template", help="path to a channel spec JSON template")
    p_sweep.add_argument("--param", required=True,
                         help="JSON pointer(s) to the swept number leaf, comma-separated")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="Monte-Carlo spot checks of the analytic engine")
    p_ver.add_argument("channel", help="path to a channel spec JSON file")
    p_ver.add_argument("--mc-samples", type=int, default=200_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_cb = sub.add_parser("count-bounds", help="print the bound count N(K)")
    p_cb.add_argument("K", type=int, nargs="+")
    p_cb.set_defaults(func=_cmd_count_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        out, code = args.func(args)
    except Exception as exc:
        code = next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES), None)
        if code is None:
            traceback.print_exc()
            return 4
        print(f"error: {exc}", file=sys.stderr)
        return code
    sys.stdout.write(out)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
