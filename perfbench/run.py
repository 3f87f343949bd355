"""Benchmark of the ifcbounds command line, driven in-process.

    python3 perfbench/run.py --workload {region-k3,etw-k4,certify-cli} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One client issues requests in a closed loop from one
process: each request is ``ifcbounds.cli.main(argv)`` with stdout captured,
sent only after the previous one returned.  BLAS/OpenMP threads are pinned to
one.  Spec files are generated from ``--seed`` during set-up.

``--trace 0`` runs passes over the workload's fixed request list until
``--seconds`` have elapsed (at least two, so outputs can be compared across
passes) and reports the end-to-end metrics as medians over passes.  Request
times are scaled to a reference host speed by a probe timed between requests
(speed.py); the raw figures are printed and recorded beside them.
``setup_s`` is raw.
``--trace 1`` runs a traced, an untraced and a traced pass and reports
per-layer calls, busy and self time, route and optimiser counters, and the
tracing overhead.  Every output passes the correctness gate (gate.py)
outside the timed region; the command exits 1 when any check fails.

The last stdout line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, plus the error rate, certified share and the run's environment.  A
fuller record (and, when tracing, every span) is written to ``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("region-k3", "etw-k4", "certify-cli")
MIN_PASSES = 2
SETUP_LAUNCHES = 5
#: percentiles considered for the tail; the highest with >= 10 requests beyond it wins
PERCENTILES = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# measurement

def measure_setup() -> List[float]:
    """Wall seconds for fresh interpreters to import ifcbounds and answer
    ``count-bounds 2``, the cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "ifcbounds", "count-bounds", "2"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0 or res.stdout != "N(2)=4\n":
            raise RuntimeError(f"set-up probe failed: exit {res.returncode}, "
                               f"stdout {res.stdout!r}, stderr {res.stderr[-500:]!r}")
    return times


def run_pass(cli, requests, tracer=None, host=None) -> dict:
    """One closed-loop pass; per request (exit code or None, stdout or the
    traceback, seconds, stderr, start).  With ``host`` (a speed.Speed), the
    host-speed reference is timed between requests; ``wall_s`` leaves that
    time out."""
    results = []
    probing = 0.0
    t_pass = time.perf_counter()
    for i, req in enumerate(requests):
        if host is not None:
            probing += host.between_requests()
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except Exception:  # an escaped exception is a failed request, not a crash
            code, text = None, traceback.format_exc()
        else:
            text = out.getvalue()
        results.append((code, text, time.perf_counter() - t0, err.getvalue(), t0))
    wall = time.perf_counter() - t_pass - probing
    if host is not None:
        host.between_requests()
    return {"wall_s": wall, "results": results}


def warm_up(cli, requests) -> Tuple[int, tuple]:
    """Issue the smallest request once, untimed, so that first-call costs
    inside the process are not billed to the first pass."""
    i = min(range(len(requests)), key=lambda k: requests[k].K)
    return i, run_pass(cli, [requests[i]])["results"][0]


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest listed percentile with at least
    TAIL_BEYOND requests beyond it, or the slowest request when there are
    too few requests for any."""
    s = sorted(latencies)
    n = len(s)
    best = (s[-1], 100.0)
    for p in PERCENTILES:
        idx = math.ceil(p / 100.0 * n) - 1
        if n - 1 - idx >= TAIL_BEYOND:
            best = (s[idx], float(p))
    return best


# ---------------------------------------------------------------------------
# correctness

def gate_passes(requests, passes, warm) -> List[Tuple[int, int, str]]:
    """(pass, request, message) for every failed check.  The first pass is
    checked in full; later passes and the warm-up request must repeat its
    output byte for byte."""
    import gate

    fails = []
    first = passes[0]["results"]
    i, result = warm
    if result[:2] != first[i][:2]:
        fails.append((0, i, "warm-up output differs from the first pass"))
    for i, (req, (code, text, _, err, _)) in enumerate(zip(requests, first)):
        if code is None:
            fails.append((0, i, "raised: " + text.strip().splitlines()[-1]))
            continue
        try:
            if req.argv[0] == "evaluate":
                msgs = gate.check_evaluate(req.channel, code, text)
            else:
                msgs = gate.check_certify(code, text, req.capacity)
        except (ValueError, KeyError, TypeError) as exc:  # unparseable output
            msgs = [f"output not understood: {exc!r}"]
        if msgs and err.strip():
            msgs[0] += " (stderr: " + err.strip().splitlines()[-1] + ")"
        fails.extend((0, i, m) for m in msgs)
    for p, later in enumerate(passes[1:], start=1):
        for i, (r0, r1) in enumerate(zip(first, later["results"])):
            if r1[:2] != r0[:2]:
                fails.append((p, i, "output differs from the first pass"))
    return fails


def bound_bits_sum(requests, results, skip) -> float:
    """Tightness figure over the requests whose output passed the gate."""
    total = 0.0
    for i, (req, (code, text, *_)) in enumerate(zip(requests, results)):
        if i in skip:
            continue
        doc = json.loads(text)
        if req.argv[0] == "evaluate":
            total += sum(q["value_bits"] for q in doc["inequalities"])
        else:
            total += doc["upper_bits"]
    return total


def certified(requests, results, skip) -> int:
    return sum(1 for i, (req, (code, text, *_)) in enumerate(zip(requests, results))
               if i not in skip and req.argv[0] == "certify" and code == 0
               and json.loads(text)["status"] == "CERTIFIED")


# ---------------------------------------------------------------------------
# tracing

def n_terms(K: int) -> int:
    """(subset, ordering) pairs for K users, computed here rather than taken
    from the package under test."""
    return sum(math.comb(K, k) * math.factorial(k) for k in range(1, K + 1))


def expected_term_calls(requests) -> Optional[Dict[str, int]]:
    """kra/etw term minimisations a pass must make; None when certify
    requests make the count depend on the route taken."""
    if any(r.argv[0] != "evaluate" for r in requests):
        return None
    out = {"kra": 0, "etw": 0}
    for r in requests:
        fams = r.argv[r.argv.index("--families") + 1].split(",") if "--families" in r.argv \
            else ["kra", "etw"]
        for f in fams:
            out[f] += n_terms(r.K)
    return out


def counters(tracing, spans, budget_warnings: int) -> Dict[str, float]:
    """Deterministic counts of one traced pass."""
    c = {f"{name}.calls": row["calls"] for name, row in tracing.layer_totals(spans).items()}
    for route, row in tracing.route_totals(spans).items():
        c[f"certify.route.{route}.count"] = row["count"]
    runs, nfev, capped = tracing.minimize_totals(spans)
    c["outer_bound.minimize.nfev"] = nfev
    c["outer_bound.minimize.capped_share"] = capped / runs if runs else 0.0
    c["outer_bound.budget_warnings.count"] = budget_warnings
    return c


def per_layer(tracing, traced, untraced_wall, setup_spans, n_certified, n_requests):
    """Per-layer metrics: counts from the first traced pass (both passes
    agree exactly, which trace_checks verifies), times as the median of the two."""
    med = statistics.median
    m: Dict[str, Tuple[float, str]] = {}
    totals = [tracing.layer_totals(t["spans"]) for t in traced]
    for name in tracing.LAYERS:
        rows = [t.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}) for t in totals]
        m[f"{name}.calls"] = (rows[0]["calls"], "count")
        m[f"{name}.busy_s"] = (med([r["busy_s"] for r in rows]), "s")
        m[f"{name}.self_s"] = (med([r["self_s"] for r in rows]), "s")
    routes = [tracing.route_totals(t["spans"]) for t in traced]
    for route in tracing.ROUTES:
        m[f"certify.route.{route}.count"] = (routes[0][route]["count"], "count")
        m[f"certify.route.{route}.busy_s"] = (med([r[route]["busy_s"] for r in routes]), "s")
    c = traced[0]["counters"]
    m["certify.certified_share"] = (n_certified / n_requests, "ratio")
    m["outer_bound.minimize.nfev"] = (c["outer_bound.minimize.nfev"], "count")
    m["outer_bound.minimize.capped_share"] = (c["outer_bound.minimize.capped_share"], "ratio")
    m["outer_bound.budget_warnings.count"] = (c["outer_bound.budget_warnings.count"], "count")
    setup = tracing.layer_totals(setup_spans).get("construct", {"calls": 0, "busy_s": 0.0})
    m["setup.construct.calls"] = (setup["calls"], "count")
    m["setup.construct.busy_s"] = (setup["busy_s"], "s")
    traced_wall = med([t["wall_s"] for t in traced])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.top_level_share"] = (
        med([t["top_level"] / t["wall_s"] for t in traced]), "ratio")
    return m


def trace_checks(requests, traced) -> List[str]:
    fails = []
    c0, c1 = traced[0]["counters"], traced[1]["counters"]
    for key in sorted(set(c0) | set(c1)):
        if c0.get(key) != c1.get(key):
            fails.append(f"counter {key} differs between traced passes: "
                         f"{c0.get(key)} vs {c1.get(key)}")
    if c0.get("cli.main.calls") != len(requests):
        fails.append(f"cli.main traced {c0.get('cli.main.calls')} times for "
                     f"{len(requests)} requests: the wrappers missed a binding")
    want = expected_term_calls(requests)
    if want is not None:
        for fam, n in want.items():
            got = sum(c0.get(f"outer_bound.{fam}_term_min.s{s}.calls", 0)
                      for s in range(1, 9))
            if got != n:
                fails.append(f"{fam}_term_min traced {got} calls, expected {n}")
    for t in traced:
        share = t["top_level"] / t["wall_s"]
        if share < 0.95:
            fails.append(f"top-level spans cover only {share:.1%} of the traced pass")
    return fails


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu_model(), "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": workload, "seed": seed, "commit": git_commit()}


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny K=2 evaluate + certify input for the benchmark's own tests")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.smoke == (args.workload is not None):
        ap.error("give exactly one of --workload and --smoke")
    return args


def build_requests(workloads, name: str, seed: int, workdir: Path):
    if name == "smoke":
        return workloads.smoke_requests(workdir)
    if name == "certify-cli":
        return workloads.certify_requests(seed, workdir)
    return workloads.region_requests(name, seed, workdir)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ifcbounds" / "__init__.py").is_file():
        print(f"error: no ifcbounds sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ifcbounds.cli as cli
    import speed
    import tracing
    import workloads

    name = "smoke" if args.smoke else args.workload
    OUT.mkdir(exist_ok=True)
    env = environment(name, args.seed)
    metrics: Dict[str, Tuple[float, str]] = {}
    extra: Dict[str, object] = {}
    checks: List[str] = []

    with tempfile.TemporaryDirectory(prefix=f"specs-{name}-", dir=OUT) as tmp:
        if args.trace:
            setup_tracer = tracing.Tracer()
            setup_tracer.install()
            try:
                requests = build_requests(workloads, name, args.seed, Path(tmp))
            finally:
                setup_tracer.uninstall()
            # traced, untraced, traced: the overhead estimate is then not
            # biased by warm-up or by a steady drift in machine speed
            warm = warm_up(cli, requests)
            traced = []
            for k in range(3):
                if k == 1:
                    untraced = run_pass(cli, requests)
                    continue
                tracer = tracing.Tracer()
                extra["bindings"] = tracer.install()
                try:
                    p = run_pass(cli, requests, tracer)
                finally:
                    tracer.uninstall()
                p["spans"] = tracer.spans
                p["top_level"] = tracing.top_level_seconds(tracer.spans)
                p["counters"] = counters(tracing, tracer.spans, tracer.budget_warnings)
                traced.append(p)
            passes = [traced[0], untraced, traced[1]]
            checks = trace_checks(requests, traced)
        else:
            setup = measure_setup()
            host = speed.Speed()
            requests = build_requests(workloads, name, args.seed, Path(tmp))
            warm = warm_up(cli, requests)
            passes = []
            t0 = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
                passes.append(run_pass(cli, requests, host=host))

    fails = gate_passes(requests, passes, warm)
    failed_requests = {(p, i) for p, i, _ in fails}
    attempted = len(passes) * len(requests)
    first = passes[0]["results"]
    skip = {i for p, i in failed_requests if p == 0}
    n_cert = certified(requests, first, skip)
    extra.update({"passes": len(passes), "requests": len(requests),
                  "error_rate": len(failed_requests) / attempted,
                  "certified": n_cert,
                  "failures": [f"pass {p} request {i} ({requests[i].kind}, K={requests[i].K}): {m}"
                               for p, i, m in fails[:50]],
                  "self_check_failures": checks})

    if args.trace:
        metrics = per_layer(tracing, traced, untraced["wall_s"],
                            setup_tracer.spans, n_cert, len(requests))
    else:
        med = statistics.median
        raw = [[r[2] for r in p["results"]] for p in passes]
        scaled = [[r[2] * host.factor(r[4], r[4] + r[2]) for r in p["results"]]
                  for p in passes]
        tails = [tail(lat) for lat in scaled]
        raw_tails = [tail(lat) for lat in raw]
        extra["raw"] = {
            "wall_s": med(p["wall_s"] for p in passes),
            "request_p50_ms": 1e3 * med(med(lat) for lat in raw),
            "request_tail_ms": 1e3 * med(v for v, _ in raw_tails)}
        probes = [d for _, d in host.samples]
        extra["host"] = {"probes": len(probes), "probe_median_s": med(probes),
                         "nominal_s": speed.NOMINAL_S}
        metrics = {
            "setup_s": (med(setup), "s"),
            "wall_s": (med(p["wall_s"] * sum(s) / sum(r)
                           for p, s, r in zip(passes, scaled, raw)), "s"),
            "request_p50_ms": (1e3 * med(med(lat) for lat in scaled), "ms"),
            "request_tail_ms": (1e3 * med(v for v, _ in tails), "ms"),
            "bound_bits_sum": (bound_bits_sum(requests, first, skip), "bits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra.update({"tail_percentile": tails[0][1], "tail_n": len(requests),
                      "setup_launches_s": setup,
                      "pass_wall_s": [p["wall_s"] for p in passes],
                      "pass_tail_ms": [1e3 * v for v, _ in tails]})

    correct = not fails and not checks
    print(f"workload {name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(requests)} requests")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "request_tail_ms":
            note = f"  (p{extra['tail_percentile']:g} of n={extra['tail_n']} requests per pass)"
        print(f"{key} {value:.6g} {unit}{note}")
    if "raw" in extra:
        print("raw, with the host's drift: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extra["raw"].items()))
        print(f"host speed: median probe {1e3 * extra['host']['probe_median_s']:.4g} ms "
              f"of {extra['host']['probes']} (nominal {1e3 * speed.NOMINAL_S:.4g} ms)")
    print(f"error_rate {extra['error_rate']:.6g}  ({len(failed_requests)}/{attempted} requests)")
    if any(r.argv[0] == "certify" for r in requests):
        print(f"certified_share {n_cert / len(requests):.6g}  ({n_cert}/{len(requests)})")
    for msg in extra["failures"] + checks:
        print("FAIL " + msg)

    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "correct": correct, "extra": extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for k, t in enumerate(traced):
                for s in t["spans"]:
                    fh.write(json.dumps({"pass": k, "name": s[0], "start": s[1], "end": s[2],
                                         "parent": s[3], "request": s[4]}) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_requests),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
