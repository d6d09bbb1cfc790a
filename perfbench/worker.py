"""One workload in one fresh process: set up, run ops until time is up,
then (outside the timed region) replay what the checks need and write the
op records as JSON.

    python3 perfbench/worker.py --workload scan --seed 1 --seconds 30 \
        --trace 0 --t0 <time.monotonic() of the parent at spawn> \
        --tmp <scratch dir> --out <result.json> [--setup-only]

setup_s is measured from the parent's spawn time (`--t0`, on the
system-wide monotonic clock) to the start of the first timed op, so it
includes interpreter start-up and the package import. Once set-up is
over it starts a speed probe process (probe.py) and asks it for
SETUP_PROBES probe times in a row, then for one every PROBE_EVERY_S between
timed ops, so that the parent can scale times to reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from probe import Probe  # noqa: E402

GOLDEN = HERE / "golden" / "scan_q11_p7.csv"


PROBE_EVERY_S = 0.25         # time between speed probes in the timed region
SETUP_PROBES = 9             # probes in a row right after set-up


def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class Scan:
    """One op: PeriodPipeline.row(D) at q = 11, p = 7, both certificates on."""

    def __init__(self, tmp, seed):
        import csv
        from oracles import read_golden
        from inputs import scan_ops
        from quatperiods.cache import Cache, get_shimura_set
        from quatperiods.curves import curve_11a1
        from quatperiods.periods import PeriodPipeline

        self.csv = csv
        self.ops = scan_ops(seed, read_golden(GOLDEN))
        X = get_shimura_set(Cache(os.path.join(tmp, "cache")), 11)
        self.pipe = PeriodPipeline(curve_11a1(), 7, X=X)

    def run(self, D):
        r = self.pipe.row(D)
        buf = io.StringIO()
        # the CLI's own CSV formatting, so rows compare byte for byte
        self.csv.writer(buf).writerow([r.D, r.h, r.ellK, r.orbit_count,
                                       f"{r.log_bound:.6f}", r.reason])
        return {"D": D, "csv": buf.getvalue(), "emitted": r.emitted}

    def after(self, records):
        return {}


class Brandt:
    """One op: `brandt --q q --n n` through cli.main, one fresh cache
    directory per drawn prime. The replay on the warm caches runs after the
    timed region."""

    def __init__(self, tmp, seed):
        from inputs import brandt_ops
        from quatperiods.cli import main

        self.main = main
        self.tmp = tmp
        self.ops = brandt_ops(seed)

    def cache_dir(self, session, q):
        return os.path.join(self.tmp, f"s{session}-q{q}")

    def run(self, op):
        session, q, n = op
        code, out = run_cli(self.main, ["brandt", "--q", str(q), "--n", str(n),
                                        "--cache-dir",
                                        self.cache_dir(session, q)])
        return {"session": session, "q": q, "n": n, "code": code, "out": out}

    def after(self, records):
        sessions = {}
        for r in records:
            if "error" in r:
                continue
            d = self.cache_dir(r["session"], r["q"])
            r["warm_code"], r["warm_out"] = run_cli(
                self.main, ["brandt", "--q", str(r["q"]), "--n", str(r["n"]),
                            "--cache-dir", d])
            key = str(r["session"])      # JSON object keys are strings
            if key not in sessions:
                code, out = run_cli(self.main, ["shimura-set", "--q",
                                                str(r["q"]), "--cache-dir", d])
                sessions[key] = {"code": code, "out": out}
        return {"sessions": sessions}


class Queries:
    """One op: an in-process cli.main(argv) on a warm q = 11 cache."""

    def __init__(self, tmp, seed):
        from inputs import queries_ops
        from quatperiods.cli import main

        self.main = main
        self.ops = queries_ops(seed)
        self.cache = os.path.join(tmp, "cache")
        code, _ = run_cli(main, ["shimura-set", "--q", "11",
                                 "--cache-dir", self.cache])
        if code != 0:
            raise RuntimeError(f"warming the q = 11 cache exited {code}")

    def run(self, op):
        kind, argv, key = op
        code, out = run_cli(self.main, argv + ["--cache-dir", self.cache])
        rec = {"kind": kind, "argv": argv, "code": code, "out": out}
        if kind == "stability":
            rec["orders"], rec["q"] = key
        else:
            rec["D"] = key
        return rec

    def after(self, records):
        return {}


WORKLOADS = {"scan": Scan, "brandt": Brandt, "queries": Queries}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the trace spans here (gzip)")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first timed op would start")
    args = ap.parse_args(argv)
    os.environ.pop("TPL_CACHE", None)    # it would override --cache-dir

    tracer = None
    if args.trace:
        import quatperiods.cli  # noqa: F401  (imports every module)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.tmp, args.seed)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace}
    start = time.monotonic()
    result["setup_s"] = start - args.t0
    probe = Probe()
    try:
        result["setup_probe_s"] = [probe.time() for _ in range(SETUP_PROBES)]
        if not args.setup_only:
            timed_ops(wl, args, tracer, result, probe)
    finally:
        probe.close()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def timed_ops(wl, args, tracer, result, probe):
    """Run ops until args.seconds are up; fill in the result."""
    records, lat = [], []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    end = next_probe = t_start
    probes, probe_ops = [], []
    for i, op in enumerate(wl.ops):
        if end >= next_probe:
            probes.append(probe.time())
            probe_ops.append(i)
            next_probe = time.perf_counter() + PROBE_EVERY_S
        if tracer:
            tracer.op = i
        s = time.perf_counter()
        try:
            rec = wl.run(op)
        except Exception as err:          # a raising op is a failed op
            rec = {"op": repr(op), "error": f"raised {err!r}"}
        end = time.perf_counter()
        lat.append(end - s)
        records.append(rec)
        if end >= deadline:
            break
    result["timed_wall_s"] = end - t_start
    result["probe_s"] = probes
    result["probe_op"] = probe_ops       # the op each probe came before
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer, lat)
        if args.spans:
            tracer.dump(args.spans)
    result.update(wl.after(records))
    result["latency_s"] = lat
    result["records"] = records


if __name__ == "__main__":
    main()
