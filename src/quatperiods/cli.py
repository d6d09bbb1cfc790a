"""Command-line interface.

Subcommands: classgroup, shimura-set, brandt, eigenform, special-points,
periods, scan, equidist, stability, ledger, lvalue. All results are JSON
on stdout; `scan` additionally writes a CSV when --csv is given.

Options may come from a flat config file of `key = value` lines (with #
comments); command-line flags override config values, and the TPL_CACHE
environment variable overrides both for the cache directory.

Exit codes: 0 success, 1 configuration error or a cache locked by a running
writer, 2 precondition violation (inputs outside the supported range, or a
cache file that is not valid JSON), 3 certification failure (an internal
exactness check did not hold).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .bqf import check_fundamental, class_group_structure
from .cache import (Cache, CacheBusy, get_brandt, get_shimura_set,
                    resolve_cache_dir)
from .charfield import (
    min_stable_generating_set,
    stable_generation_lower_bound,
)
from .curves import curve_11a1
from .embeddings import optimal_embedding, phi_map
from .ledger import (
    central_lvalue,
    excluded_primes,
    ideal_I_gcd,
    ideal_I_profile,
    kolyvagin_exponent,
    sha_exponent,
)
from .periods import (
    PeriodPipeline,
    check_prime,
    equidist_stats,
    horizontal_scan,
    scan_summary,
    skip_reason,
)
from .quatalg import build_algebra


class ConfigError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def read_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    return out


def setting(args, config: dict, key: str, default=None, cast=int):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ConfigError(f"config key {key}: bad value {config[key]!r}")
    if default is None:
        raise ConfigError(f"missing required setting: {key}")
    return default


def make_curve(q: int):
    if q == 11:
        return curve_11a1()
    raise ConfigError(f"no built-in eigenform curve for q = {q}; "
                      "only conductor 11 ships with the package")


def build_pipeline(args, config, check_d=None) -> PeriodPipeline:
    """The pipeline for the configured q and p. q, p and, through
    check_d(D, q, p), the discriminant are validated before the cache is
    opened, so a rejected request leaves the cache untouched."""
    q = setting(args, config, "q", 11)
    p = setting(args, config, "p", 7)
    build_algebra(q)        # a q that is not an odd prime exits 2 first
    curve = make_curve(q)
    check_prime(curve, p)
    if check_d is not None:
        check_d(setting(args, config, "d"), q, p)
    cache = Cache(resolve_cache_dir(getattr(args, "cache_dir", None), config))
    X = get_shimura_set(cache, q)
    return PeriodPipeline(curve, p, X=X)


def emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_classgroup(args, config):
    D = setting(args, config, "d")
    cg = class_group_structure(D)
    emit({"D": D, "h": cg.h, "orders": list(cg.orders),
          "forms": [[f.a, f.b, f.c] for f in cg.forms]})


def cmd_shimura_set(args, config):
    q = setting(args, config, "q", 11)
    cache = Cache(resolve_cache_dir(args.cache_dir, config))
    X = get_shimura_set(cache, q)
    emit({"q": q, "H": X.H, "weights": list(X.weights),
          "mass": [X.mass().numerator, X.mass().denominator]})


def cmd_brandt(args, config):
    q = setting(args, config, "q", 11)
    n = setting(args, config, "n")
    cache = Cache(resolve_cache_dir(args.cache_dir, config))
    X = get_shimura_set(cache, q)
    emit({"q": q, "n": n, "matrix": get_brandt(cache, X, n)})


def cmd_eigenform(args, config):
    pipe = build_pipeline(args, config)
    emit({"q": pipe.q, "p": pipe.p, "coords": list(pipe.f.coords),
          "eigenvalues": {str(k): v for k, v in pipe.f.eigenvalues.items()}})


def cmd_special_points(args, config):
    pipe = build_pipeline(args, config,
                          check_d=lambda D, q, p: check_fundamental(D))
    D = setting(args, config, "d")
    cg = class_group_structure(D)
    pm = phi_map(optimal_embedding(pipe.X, D), cg, pipe.X)
    emit({"q": pipe.q, "D": D, "h": cg.h, "orders": list(cg.orders),
          "points": {",".join(map(str, s)): x for s, x in sorted(pm.items())}})


def check_row(D: int, q: int, p: int) -> None:
    """Reject a D whose row is skipped, with the row's skip reason."""
    reason = skip_reason(D, q, p)
    if reason:
        raise PreconditionError(f"D = {D} skipped: {reason}")


def cmd_periods(args, config):
    pipe = build_pipeline(args, config, check_d=check_row)
    D = setting(args, config, "d")
    row = pipe.row(D)
    emit({"q": pipe.q, "p": pipe.p, "D": D, "h": row.h, "q0": row.q0,
          "ellK": row.ellK, "orbits": row.orbit_count,
          "xi_set": [list(e) for e in row.xi_set],
          "log_bound": round(row.log_bound, 6)})


def cmd_scan(args, config):
    pipe = build_pipeline(args, config)
    dmax = setting(args, config, "dmax")
    eps = setting(args, config, "eps", 0.1, cast=float)
    rows = horizontal_scan(pipe, dmax, eps)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["D", "h", "ellK", "orbits", "log_bound", "reason"])
            for r in rows:
                w.writerow([r.D, r.h, r.ellK, r.orbit_count,
                            f"{r.log_bound:.6f}", r.reason])
    emit(scan_summary(rows))


def cmd_equidist(args, config):
    pipe = build_pipeline(args, config)
    dmax = setting(args, config, "dmax")
    dmin = setting(args, config, "dmin", 5)
    index_bound = setting(args, config, "index_bound", 4)
    rows = []
    for D in range(-dmin, -dmax - 1, -1):
        if pipe.skip_reason(D):
            continue
        rows.append(equidist_stats(pipe, D, index_bound))
    payload = [{"D": r.D, "h": r.h, "tv": float(r.tv),
                "subgroup_tvs": [[i, float(t)] for i, t in r.subgroup_tvs]}
               for r in rows]
    mean = sum(r.tv for r in rows) / len(rows) if rows else Fraction(0)
    emit({"rows": payload, "mean_tv": float(mean), "count": len(rows)})


def cmd_stability(args, config):
    orders = tuple(int(t) for t in args.orders.split(",") if t)
    if any(n < 1 for n in orders):
        raise PreconditionError(f"--orders needs entries >= 1, got {orders}")
    q = setting(args, config, "q")
    out = {"orders": list(orders), "q": q,
           "lower_bound": stable_generation_lower_bound(orders, q)}
    if math.prod(orders) <= args.witness_bound:
        m, witness = min_stable_generating_set(orders, q, args.witness_bound)
        out["minimum"] = m
        out["witness"] = [list(w) for w in witness]
    emit(out)


def cmd_ledger(args, config):
    q = setting(args, config, "q", 11)
    curve = make_curve(q)
    bound = setting(args, config, "bound", 100)
    out = {"q": q,
           "excluded_primes": sorted(excluded_primes(curve)),
           "ideal_I_gcd": ideal_I_gcd(curve, bound),
           "ideal_I_profile": ideal_I_profile(curve, bound)[-3:]}
    if args.kolyvagin:
        cs = [int(t) for t in args.kolyvagin.split(",")]
        if len(cs) != 6:
            raise ConfigError("--kolyvagin needs C2,C4,C5,C6,C7,C8")
        out["kolyvagin_exponent"] = kolyvagin_exponent(
            *cs, p=setting(args, config, "p", 2),
            I=args.ideal, hK=args.class_number)
    if args.sha is not None:
        head, _, tail = args.sha.partition(":")
        locals_ = [int(t) for t in tail.split(",") if t]
        out["sha_exponent"] = sha_exponent(int(head), locals_)
    emit(out)


def cmd_lvalue(args, config):
    q = setting(args, config, "q", 11)
    D = setting(args, config, "d", 1)
    tail_target = setting(args, config, "tail_target", 1e-8, cast=float)
    L = central_lvalue(make_curve(q), D, tail_target=tail_target)
    emit({"q": q, "D": D, "value": L.value, "tail": L.tail,
          "terms": L.terms})


def build_parser() -> Parser:
    parser = Parser(prog="quatperiods")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--cache-dir", dest="cache_dir")
    common.add_argument("--q", type=int)
    common.add_argument("--p", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classgroup", parents=[common])
    sp.add_argument("--d", type=int)
    sp.set_defaults(func=cmd_classgroup)

    sp = sub.add_parser("shimura-set", parents=[common])
    sp.set_defaults(func=cmd_shimura_set)

    sp = sub.add_parser("brandt", parents=[common])
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=cmd_brandt)

    sp = sub.add_parser("eigenform", parents=[common])
    sp.set_defaults(func=cmd_eigenform)

    sp = sub.add_parser("special-points", parents=[common])
    sp.add_argument("--d", type=int)
    sp.set_defaults(func=cmd_special_points)

    sp = sub.add_parser("periods", parents=[common])
    sp.add_argument("--d", type=int)
    sp.set_defaults(func=cmd_periods)

    sp = sub.add_parser("scan", parents=[common])
    sp.add_argument("--dmax", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--csv", help="write per-discriminant rows here")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("equidist", parents=[common])
    sp.add_argument("--dmax", type=int)
    sp.add_argument("--dmin", type=int)
    sp.add_argument("--index-bound", dest="index_bound", type=int)
    sp.set_defaults(func=cmd_equidist)

    sp = sub.add_parser("stability", parents=[common])
    sp.add_argument("--orders", required=True,
                    help="invariant factors, e.g. 2,4")
    sp.add_argument("--witness-bound", type=int, default=64)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("ledger", parents=[common])
    sp.add_argument("--bound", type=int)
    sp.add_argument("--kolyvagin", help="C2,C4,C5,C6,C7,C8")
    sp.add_argument("--ideal", type=int, default=1)
    sp.add_argument("--class-number", dest="class_number", type=int,
                    default=1)
    sp.add_argument("--sha", help="ord:local1,local2,...")
    sp.set_defaults(func=cmd_ledger)

    sp = sub.add_parser("lvalue", parents=[common])
    sp.add_argument("--d", type=int)
    sp.add_argument("--tail-target", dest="tail_target", type=float)
    sp.set_defaults(func=cmd_lvalue)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = read_config(args.config) if args.config else {}
        args.func(args, config)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except CacheBusy as err:
        print(f"cache busy: {err}", file=sys.stderr)
        return 1
    except (PreconditionError, ValueError) as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"certification failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
