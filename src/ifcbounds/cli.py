"""Command-line front end.

Subcommands: evaluate, construct, certify, sweep, verify, count-bounds.
All output goes to stdout in a single write (JSON reports, CSV sweeps);
errors go to stderr.  Exit codes: 0 success / certified, 1 not certified or
oracle mismatch, 2 parse or validation failure, 3 problem too large,
4 internal inconsistency.

Two flags have environment-variable fallbacks: ``--families`` falls back to
``IFC_FAMILIES`` and ``verify --seed`` to ``IFC_SEED``; an explicit flag always
wins over the environment.  The bound solves themselves take no settings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .achievability import tin_sum_rate
from .certify import CERTIFIED, certify_sum_capacity
from .construct import build_z_channel, many_to_one, rank_one_channel
from .errors import (
    ComputationError,
    InternalConsistencyError,
    SchemaError,
    TooLarge,
    ValidationError,
)
from .gaussian_info import build_joint, conditional_mi
from .model import (
    SCHEMA_VERSION,
    ChannelMatrix,
    _want_matrix,
    _want_number,
    _want_vector,
    identity_noise,
    parse_channel_spec,
    validate_noise_correlation,
)
from .oracle import mc_mutual_information
from .outer_bound import (
    FAMILY_ETW,
    FAMILY_KRA,
    count_bounds,
    region,
)

FULL_REGION_MAX_K = 6

GAP_SNAP = 1e-12


# ---------------------------------------------------------------------------
# option plumbing

def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("/" + name, f"environment override {name}={raw!r} is not an integer")


def _resolve_families(raw: Optional[str]) -> Tuple[str, ...]:
    if raw is None:
        raw = os.environ.get("IFC_FAMILIES", "kra,etw")
    names = [p.strip().lower() for p in raw.split(",") if p.strip()]
    table = {"kra": FAMILY_KRA, "etw": FAMILY_ETW}
    fams = []
    for n in names:
        if n not in table:
            raise SchemaError("/families", f"unknown family {n!r} (expected kra, etw)")
        if table[n] not in fams:
            fams.append(table[n])
    if not fams:
        raise SchemaError("/families", "at least one family required")
    return tuple(fams)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_channel(doc) -> ChannelMatrix:
    """parse_channel_spec, refusing a noise-correlation document."""
    ch = parse_channel_spec(doc)
    if not isinstance(ch, ChannelMatrix):
        raise SchemaError("/H", "expected a channel document with 'H', not a noise correlation")
    return ch


def _load_channel(path: str) -> ChannelMatrix:
    return _parse_channel(_load_json(path))


def _pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_evaluate(args: argparse.Namespace) -> Tuple[str, int]:
    ch = _load_channel(args.channel)
    fams = _resolve_families(args.families)
    if not args.sum_rate_only and ch.K > FULL_REGION_MAX_K:
        raise TooLarge(
            f"full-region evaluation supports K <= {FULL_REGION_MAX_K}; "
            "pass --sum-rate-only for larger channels")
    rep = region(ch, families=fams, sum_rate_only=args.sum_rate_only)
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
            "sigma": [[_pair(complex(v)) for v in row] for row in sigma.sigma],
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
            "v": [_pair(complex(x)) for x in v],
            "diag_gains": [float(g) for g in gains],
        }
    else:  # rank-one
        a = _want_vector(params.get("a"), "/a")
        b = _want_vector(params.get("b"), "/b")
        ch = rank_one_channel(a, b)
        prov = {
            "mode": "rank-one",
            "a": [_pair(complex(x)) for x in a],
            "b": [_pair(complex(x)) for x in b],
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
    if args.steps == 1:
        values = np.array([args.start])
    else:
        values = np.linspace(args.start, args.stop, args.steps)
    lines = ["parameter,upper_kra,upper_etw,tin_lower,gap"]
    for v in values:
        doc = json.loads(json.dumps(template))
        for ptr in pointers:
            _set_pointer(doc, ptr, float(v))
        ch = _parse_channel(doc)
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
    seed = args.seed if args.seed is not None else _env_int("IFC_SEED", 0)
    n = args.mc_samples
    joint = build_joint(ch, identity_noise(ch.K))
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
    lines = [f"N({k})={count_bounds(k)}" for k in args.K]
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
    p_eval.add_argument("--families", default=None,
                        help="comma-separated bound families (kra, etw)")
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
    p_ver.add_argument("--seed", type=int, default=None)
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
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
