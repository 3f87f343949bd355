"""In-memory span tracing of ifcbounds, installed from outside the package.

``Tracer.install`` wraps the public functions of each module and rebinds
every ``ifcbounds.*`` module attribute that holds the same function object,
because modules import each other's functions by name (``certify`` holds its
own reference to ``region``, ``outer_bound`` to ``build_joint`` and to scipy's
``minimize``, ``cli`` to almost everything).  A span is
``[name, start, end, parent, request, tag]``; ``parent`` is the index of the
enclosing span and ``request`` the id of the CLI call it belongs to.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import ifcbounds.achievability as achievability
import ifcbounds.certify as certify
import ifcbounds.cli as cli
import ifcbounds.construct as construct
import ifcbounds.gaussian_info as gaussian_info
import ifcbounds.model as model
import ifcbounds.outer_bound as outer_bound
from ifcbounds.errors import BudgetExhaustedWarning
from ifcbounds.model import BOUND_ONLY, PATH_DEGRADED, PATH_MAC, PATH_NUMERIC, PATH_Z

NAME, START, END, PARENT, REQUEST, TAG = range(6)

#: certify outcomes, by the path a certificate reports (BOUND_ONLY has none)
ROUTES = (PATH_Z, PATH_DEGRADED, PATH_MAC, PATH_NUMERIC, BOUND_ONLY)


def _by_size(prefix: str) -> Callable:
    return lambda args, kwargs: f"{prefix}.s{(args[1] if len(args) > 1 else kwargs['t']).size}"


def _region_name(args, kwargs) -> str:
    sum_rate_only = args[3] if len(args) > 3 else kwargs.get("sum_rate_only", False)
    return "outer_bound.region." + ("sum_rate_only" if sum_rate_only else "full")


def _route_tag(args, kwargs, result) -> str:
    return result.path or result.status


def _minimize_tag(args, kwargs, result) -> Tuple[int, bool]:
    maxfev = kwargs.get("options", {}).get("maxfev")
    return int(result.nfev), maxfev is not None and result.nfev >= maxfev


#: (owner, attribute, span name or namer, tagger)
TARGETS = [
    (cli, "main", "cli.main", None),
    (model, "parse_channel_spec", "model.parse_channel_spec", None),
    (model.BoundReport, "to_json_dict", "model.to_json_dict", None),
    (model.Certificate, "to_json_dict", "model.to_json_dict", None),
    (certify, "certify_sum_capacity", "certify.certify_sum_capacity", _route_tag),
    (certify, "degradedness_witness", "certify.degradedness_witness", None),
    (outer_bound, "region", _region_name, None),
    (outer_bound, "kra_term_min", _by_size("outer_bound.kra_term_min"), None),
    (outer_bound, "etw_term_min", _by_size("outer_bound.etw_term_min"), None),
    (outer_bound, "kra_term_value", "outer_bound.kra_term_value", None),
    (outer_bound, "etw_term_value", "outer_bound.etw_term_value", None),
    (outer_bound, "minimize", "outer_bound.minimize", _minimize_tag),
    (gaussian_info, "build_joint", "gaussian_info.build_joint", None),
    (gaussian_info, "conditional_mi", "gaussian_info.conditional_mi", None),
    (gaussian_info, "conditional_entropy", "gaussian_info.conditional_entropy", None),
    (achievability, "tin_sum_rate", "achievability.tin_sum_rate", None),
    (achievability, "tin_sum_rate_general", "achievability.tin_sum_rate_general", None),
    (achievability, "mac_feasibility", "achievability.mac_feasibility", None),
    (achievability, "degraded_sum_capacity", "achievability.degraded_sum_capacity", None),
    (construct, "build_z_channel", "construct", None),
    (construct, "many_to_one", "construct", None),
    (construct, "rank_one_channel", "construct", None),
]

#: layers reported with .calls, .busy_s and .self_s
LAYERS = (
    ["cli.main", "model.parse_channel_spec", "model.to_json_dict",
     "certify.certify_sum_capacity", "certify.degradedness_witness",
     "outer_bound.region.full", "outer_bound.region.sum_rate_only"]
    + [f"outer_bound.{f}_term_min.s{s}" for f in ("kra", "etw") for s in range(1, 5)]
    + ["outer_bound.kra_term_value", "outer_bound.etw_term_value", "outer_bound.minimize",
       "gaussian_info.build_joint", "gaussian_info.conditional_mi",
       "gaussian_info.conditional_entropy",
       "achievability.tin_sum_rate", "achievability.tin_sum_rate_general",
       "achievability.mac_feasibility", "achievability.degraded_sum_capacity"])


def _ifc_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "ifcbounds" or n.startswith("ifcbounds.")) and m is not None]


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self.budget_warnings = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name, tagger) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None, self.request, None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][END] = clock()
            if tagger is not None:
                spans[sid][TAG] = tagger(args, kwargs, result)
            return result
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> Dict[str, int]:
        """Wrap every target; returns the number of bindings replaced per span."""
        sites: Dict[str, int] = Counter()
        for owner, attr, name, tagger in TARGETS:
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name, tagger)
            key = f"{getattr(owner, '__name__', owner)}.{attr}"
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
                sites[key] += 1
                continue
            for mod in _ifc_modules():
                for a, v in list(vars(mod).items()):
                    if v is fn:
                        self._rebind(mod, a, wrapped)
                        sites[key] += 1

        real_warn = warnings.warn

        def counting_warn(message, category=None, *args, **kwargs):
            if isinstance(message, BudgetExhaustedWarning) or category is BudgetExhaustedWarning:
                self.budget_warnings += 1
            return real_warn(message, category, *args, **kwargs)
        self._rebind(warnings, "warn", counting_warn)
        return dict(sites)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# aggregation

def layer_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """calls, busy and self seconds per span name.  Self time is a span's
    duration minus that of its direct children (which nest strictly inside
    it, the program being single-threaded)."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        row = out[s[NAME]]
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child[i]
    return out


def route_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    out = {r: {"count": 0, "busy_s": 0.0} for r in ROUTES}
    for s in spans:
        if s[NAME] == "certify.certify_sum_capacity":
            out[s[TAG]]["count"] += 1
            out[s[TAG]]["busy_s"] += s[END] - s[START]
    return out


def minimize_totals(spans: List[list]) -> Tuple[int, int, int]:
    """(runs, evaluations, runs stopped by the evaluation cap)."""
    tags = [s[TAG] for s in spans if s[NAME] == "outer_bound.minimize"]
    return len(tags), sum(n for n, _ in tags), sum(1 for _, capped in tags if capped)


def top_level_seconds(spans: List[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)
