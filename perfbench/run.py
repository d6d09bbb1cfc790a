"""quatperiods benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload,
                                                         # untraced and traced

Run from the root of a checkout; the package is imported from ./src. Each
workload runs in fresh worker processes, one after another, never two at a
time. With --trace 0 the run measures the end-to-end metrics: one worker
runs the ops for --seconds, and SETUPS - 1 more stop where timing would
start, so that setup_s is a median of SETUPS set-ups. Their times are
scaled to reference speed by each worker's speed probes (see
op_slowdowns() and setup_slowdown()).
With --trace 1 it runs the workload untraced for half the time and traced for
the other half on the same seed, and reports the per-layer metrics of the
traced half and the tracing overhead. All cache directories live under
./.perfbench_tmp (removed at exit); span files go to ./.perfbench_out.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics with their units. Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import (LSeriesReference, check_brandt, check_queries,  # noqa
                     check_scan, lvalue_checked, read_golden)
from inputs import BLOCK_OPS, LVALUE_DMAX, MEASURED_OPS  # noqa
from tracer import LAYERS  # noqa

WORKLOADS = ("scan", "brandt", "queries")
SETUPS = 5                   # set-ups per untraced run (the timed process and
                             # SETUPS - 1 that stop at the first op); setup_s
                             # is their median
RUN_LIMIT = 170              # seconds for the whole run; a worker past it dies
REF_PROBE_S = 0.0018         # probe.loop()'s median time at reference speed
PROBE_WINDOW = 2             # probes on each side of an op's own two that
                             # set its slowdown
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


deadline = time.monotonic() + RUN_LIMIT     # reset for each workload


def spawn_worker(workload, seed, seconds, trace, tmp, tag, spans=None,
                 setup_only=False):
    out = tmp / f"{tag}.json"
    wtmp = tmp / tag
    wtmp.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", str(wtmp), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(out) as fh:
        res = json.load(fh)
    shutil.rmtree(wtmp, ignore_errors=True)
    return res


@functools.lru_cache(maxsize=None)
def golden():
    return read_golden(HERE / "golden" / "scan_q11_p7.csv")


@functools.lru_cache(maxsize=None)
def lseries():
    """The reference L-series, built once for every |D| the draw can give."""
    return LSeriesReference(LVALUE_DMAX, tail=1e-11)


def check(res) -> dict:
    """{op index: reason} for the ops whose output an oracle rejects."""
    recs = res["records"]
    if res["workload"] == "scan":
        return check_scan(recs, golden())
    if res["workload"] == "brandt":
        return check_brandt(recs, res.get("sessions", {}))
    return check_queries(recs, golden(), lseries())


def tail(lat):
    """(value, percentile): the highest percentile with ten samples above."""
    xs = sorted(lat)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def counted(res, lat):
    """The latencies the metrics count: emitted rows on scan, else all."""
    if res["workload"] == "scan":
        return [t for t, r in zip(lat, res["records"]) if r.get("emitted")]
    return lat


def measured_ops(res) -> int:
    """How many leading ops the metrics cover: MEASURED_OPS when the run
    completed that many, else all completed ops cut to whole blocks of
    BLOCK_OPS (see inputs.py) when there is one. A fixed count keeps the
    percentile of op_tail_s and the mix of ops the same on a fast machine
    and a slow one."""
    n = len(res["latency_s"])
    w = res["workload"]
    if n >= MEASURED_OPS[w]:
        return MEASURED_OPS[w]
    return n - n % BLOCK_OPS[w] if n >= BLOCK_OPS[w] else n


def op_slowdowns(res) -> list:
    """How much slower than the reference speed the machine ran during each
    op: the median of the probes around it (the one before it, the one
    after it and PROBE_WINDOW more on each side) over REF_PROBE_S."""
    probes, at = res["probe_s"], res["probe_op"]
    out = []
    for i in range(len(res["latency_s"])):
        j = bisect.bisect_right(at, i) - 1        # the probe before op i
        near = probes[max(0, j - PROBE_WINDOW):j + 2 + PROBE_WINDOW]
        out.append(statistics.median(near) / REF_PROBE_S)
    return out


def setup_slowdown(res) -> float:
    """The slowdown just after set-up: the median of the probes the worker
    took in a row there over REF_PROBE_S."""
    return statistics.median(res["setup_probe_s"]) / REF_PROBE_S


def summarise(res, setups):
    """End-to-end metrics of one timed process, as measured ("raw") and at
    reference speed (each op's time divided by its op_slowdowns(), each
    set-up time by its setup_slowdown(); the metrics). ops_per_s divides
    the counted ops by the summed latencies of all ops covered; setups are
    the (set-up time, slowdown) of each process."""
    n = measured_ops(res)
    lat = res["latency_s"][:n]
    ks = op_slowdowns(res)[:n]
    scaled = [t / k for t, k in zip(lat, ks)]
    recs = dict(res, records=res["records"][:n])
    timed, timed_scaled = counted(recs, lat), counted(recs, scaled)
    if not timed:
        raise BenchError(f"{res['workload']}: no counted op completed")

    def figures(lat, timed, setup):
        t, pct = tail(timed)
        return {"setup_s": setup, "ops_per_s": len(timed) / sum(lat),
                "op_p50_s": statistics.median(timed), "op_tail_s": t,
                "peak_rss_mb": res["peak_rss_mb"]}, pct

    raw, pct = figures(lat, timed, statistics.median(s for s, _ in setups))
    m, _ = figures(scaled, timed_scaled,
                   statistics.median(s / f for s, f in setups))
    info = {"n": len(timed), "tail_pct": pct, "ops": n, "wall": sum(lat),
            "setups": setups, "slowdown": statistics.median(ks), "raw": raw}
    return m, info


def report_checks(res, bad):
    w = res["workload"]
    attempted = len(res["records"])
    print(f"  {w} seed {res['seed']} {'traced' if res['trace'] else 'untraced'}"
          f" process: {attempted} ops over {res['timed_wall_s']:.2f} s, "
          f"fail_ratio {len(bad) / attempted:.4f} ({len(bad)} failed)")
    if w == "queries":
        split = sum(1 for r in res["records"] if r.get("kind") == "lvalue"
                    and "error" not in r and not lvalue_checked(r["D"]))
        print(f"    lvalue ops on split D (timed, value unchecked): {split}")
    for i, why in sorted(bad.items())[:20]:
        print(f"    FAILED op {i}: {res['records'][i].get('argv') or ''} "
              f"{why}")
    return attempted, len(bad)


def report(workload, m, info, attempted, failed):
    what = "emitted rows" if workload == "scan" else "ops"
    raw = info["raw"]
    print(f"{workload}: the first {info['ops']} ops ({info['n']} {what}, "
          f"{info['wall']:.2f} s in all); times at reference speed, as "
          f"measured in brackets; slowdown {info['slowdown']:.3f}")
    print(f"  setup_s      {m['setup_s']:.4f} s    ({raw['setup_s']:.4f}) "
          f"set-ups {[round(s, 3) for s, _ in info['setups']]}, slowdowns "
          f"{[round(f, 3) for _, f in info['setups']]}")
    print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s  ({raw['ops_per_s']:.4f})")
    print(f"  op_p50_s     {m['op_p50_s']:.4f} s    ({raw['op_p50_s']:.4f}) "
          f"n = {info['n']}")
    print(f"  op_tail_s    {m['op_tail_s']:.4f} s    ({raw['op_tail_s']:.4f}) "
          f"p{info['tail_pct']:.1f}, n = {info['n']}, 10 samples above")
    print(f"  fail_ratio   {failed / attempted:.4f}      {failed} of "
          f"{attempted} ops attempted")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")


def unit(name):
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_checked(workload, seed, seconds, trace, tmp, tag, spans=None):
    res = spawn_worker(workload, seed, seconds, trace, tmp, tag, spans=spans)
    attempted, failed = report_checks(res, check(res))
    return res, attempted, failed


def run_untraced(workload, seed, seconds, tmp):
    setups = []
    for k in range(SETUPS - 1):
        res = spawn_worker(workload, seed, 0, 0, tmp, f"setup{k}",
                           setup_only=True)
        setups.append((res["setup_s"], setup_slowdown(res)))
    res, attempted, failed = run_checked(workload, seed, seconds, 0, tmp,
                                         "timed")
    setups.append((res["setup_s"], setup_slowdown(res)))
    m, info = summarise(res, setups)
    report(workload, m, info, attempted, failed)
    return m, attempted, failed


def run_traced(workload, seed, seconds, tmp):
    """Untraced then traced, each for half the time, same seed."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-seed{seed}.jsonl.gz"
    plain, a1, f1 = run_checked(workload, seed, seconds / 2, 0, tmp, "plain")
    traced, a2, f2 = run_checked(workload, seed, seconds / 2, 1, tmp,
                                 "traced", spans)
    layers = dict(traced["layers"])
    fast, slow = (len(counted(r, r["latency_s"])) / r["timed_wall_s"]
                  for r in (plain, traced))
    layers["trace.untraced_ops_per_s"] = fast
    layers["trace.ops_per_s"] = slow
    layers["trace.overhead_ops_per_s"] = fast - slow
    selfsum = sum(layers[f"{k}.self_s"] for k in LAYERS)
    print(f"{workload}: traced run, per-layer metrics")
    print(f"  layer self times {selfsum:.4f} s + unattributed "
          f"{layers['unattributed_s']:.4f} s = op wall "
          f"{layers['op_wall_s']:.4f} s; spans in {spans.relative_to(ROOT)}")
    print(f"  tracing overhead: {fast:.4f} - {slow:.4f} = "
          f"{fast - slow:.4f} ops/s")
    for k in sorted(layers):
        print(f"  {k:48s} {layers[k]:.6g} {unit(k)}")
    return layers, a1 + a2, f1 + f2


def main(argv=None):
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quatperiods" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'quatperiods'}; "
              "run from the root of a quatperiods checkout", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        metrics, attempted, failed = {}, 0, 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for w in names:
            deadline = time.monotonic() + RUN_LIMIT
            wtmp = tmp / w
            wtmp.mkdir()
            prefix = f"{w}." if args.workload == "all" else ""
            if args.trace == 0 or args.workload == "all":
                m, a, f = run_untraced(w, args.seed, args.seconds, wtmp)
                metrics.update({prefix + k: {"value": v, "unit": END_TO_END[k]}
                                for k, v in m.items()})
                attempted += a
                failed += f
            if args.trace == 1 or args.workload == "all":
                layers, a, f = run_traced(w, args.seed, args.seconds, wtmp)
                metrics.update({prefix + k: {"value": v, "unit": unit(k)}
                                for k, v in layers.items()})
                attempted += a
                failed += f
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
