"""On-disk JSON cache for per-prime class data and Brandt matrices.

Layout: <root>/q<q>/classes.json holds the right-ideal classes, weights,
and left orders; <root>/q<q>/brandt_<n>.json holds one Brandt matrix.
Integers that may not fit in 64 bits are stored as decimal strings so the
files stay portable across JSON readers. A lock file in each per-prime
directory keeps the cache single-writer; readers never take the lock. The
lock holds the writer's pid, and a lock whose pid no longer exists (its
writer was killed) is broken and taken over. Data read back is checked
before it is trusted: class data against the Eichler mass formula, a Brandt
matrix for its shape, its n, the row sums sigma(n) when n is prime to q, and
the symmetry w_j B_ij = w_i B_ji. A payload that fails a check, lacks a key
or holds a value of the wrong type is recomputed and rewritten, with a note
on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager, suppress
from fractions import Fraction
from math import gcd

import sympy

from .quatalg import (
    Lattice,
    ShimuraSet,
    brandt_matrix,
    build_algebra,
    maximal_order,
    right_ideal_classes,
)

_BIG = 1 << 63


def encode_int(v: int):
    return str(v) if abs(v) >= _BIG else v


def decode_int(v) -> int:
    """The integer encode_int wrote: a JSON integer or a decimal string."""
    if type(v) is int:
        return v
    if type(v) is str:
        return int(v)
    raise TypeError(f"expected an integer, found {v!r}")


def _encode_lattice(L: Lattice) -> dict:
    return {"rows": [[encode_int(c) for c in row] for row in L.rows],
            "den": encode_int(L.den)}


def _decode_lattice(d: dict) -> Lattice:
    rows = [[decode_int(c) for c in row] for row in d["rows"]]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("lattice basis is not 4 x 4")
    return Lattice.make(rows, decode_int(d["den"]))


class CacheBusy(RuntimeError):
    """Another process holds the writer lock for this cache directory."""


def _holder_is_dead(lock: str) -> bool:
    """True when the lock file names a process that no longer exists."""
    try:
        with open(lock) as fh:
            pid = int(fh.read())
    except (OSError, ValueError):
        return False        # gone already, or its pid is not written yet
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass                # alive, owned by another user
    return False


class Cache:
    def __init__(self, root: str):
        self.root = root

    def qdir(self, q: int) -> str:
        return os.path.join(self.root, f"q{q}")

    def path(self, q: int, name: str) -> str:
        return os.path.join(self.qdir(q), name)

    @contextmanager
    def writer_lock(self, q: int, timeout: float = 5.0):
        os.makedirs(self.qdir(q), exist_ok=True)
        lock = self.path(q, ".lock")
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if _holder_is_dead(lock):
                    # two writers that find the same stale lock at once
                    # may both go ahead: breaking it is not atomic
                    with suppress(FileNotFoundError):
                        os.unlink(lock)
                    continue
                if time.monotonic() >= deadline:
                    raise CacheBusy(
                        f"another process holds the writer lock {lock}")
                time.sleep(0.05)
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            os.unlink(lock)

    def load(self, q: int, name: str):
        path = self.path(q, name)
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError as err:
            raise ValueError(f"corrupt cache file {path}: {err}") from None

    def store(self, q: int, name: str, payload: dict):
        with self.writer_lock(q):
            tmp = self.path(q, name + ".tmp")
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path(q, name))


def shimura_payload(X: ShimuraSet) -> dict:
    return {
        "q": X.alg.q,
        "order": _encode_lattice(X.order),
        "classes": [_encode_lattice(L) for L in X.classes],
        "left_orders": [_encode_lattice(L) for L in X.left_orders],
        "weights": list(X.weights),
    }


def shimura_from_payload(payload: dict) -> ShimuraSet:
    alg = build_algebra(decode_int(payload["q"]))
    return ShimuraSet(
        alg,
        _decode_lattice(payload["order"]),
        [_decode_lattice(d) for d in payload["classes"]],
        [decode_int(w) for w in payload["weights"]],
        [_decode_lattice(d) for d in payload["left_orders"]],
    )


def get_shimura_set(cache: Cache, q: int) -> ShimuraSet:
    payload = cache.load(q, "classes.json")
    if payload is not None:
        try:
            X = shimura_from_payload(payload)
            problem = _shimura_problem(X, q)
        except _MALFORMED as err:
            problem = _malformed(err)
        if not problem:
            return X
        print(f"cache: {cache.path(q, 'classes.json')} {problem}; "
              "recomputing", file=sys.stderr)
    alg = build_algebra(q)
    X = right_ideal_classes(maximal_order(alg), alg)
    cache.store(q, "classes.json", shimura_payload(X))
    return X


def _shimura_problem(X: ShimuraSet, q: int) -> str:
    """Why cached class data cannot be trusted, or "" when it checks out."""
    if X.alg.q != q:
        return f"holds the classes for q = {X.alg.q}"
    if not len(X.classes) == len(X.weights) == len(X.left_orders):
        return "has lists of different lengths"
    if any(w < 1 for w in X.weights) or X.mass() != Fraction(q - 1, 24):
        return "fails the mass formula"
    return ""


# what decoding a payload of the wrong shape or types raises
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


def _malformed(err: Exception) -> str:
    return f"is malformed ({type(err).__name__}: {err})"


def get_brandt(cache: Cache, X: ShimuraSet, n: int):
    if n < 1:
        raise ValueError(f"Brandt matrices need n >= 1, not n = {n}")
    q = X.alg.q
    name = f"brandt_{n}.json"
    payload = cache.load(q, name)
    if payload is not None:
        try:
            B = [[decode_int(c) for c in row] for row in payload["matrix"]]
            problem = _brandt_problem(B, decode_int(payload["n"]), X, n)
        except _MALFORMED as err:
            problem = _malformed(err)
        if not problem:
            return B
        print(f"cache: {cache.path(q, name)} {problem}; recomputing",
              file=sys.stderr)
    B = brandt_matrix(X, n)
    cache.store(q, name, {
        "n": n, "matrix": [[encode_int(c) for c in row] for row in B]})
    return B


def _brandt_problem(B, stored_n: int, X: ShimuraSet, n: int) -> str:
    """Why a cached B(n) cannot be trusted, or "" when it checks out."""
    H, w = X.H, X.weights
    if stored_n != n:
        return f"holds the matrix for n = {stored_n}"
    if len(B) != H or any(len(row) != H for row in B):
        return f"is not a {H} x {H} matrix"
    if any(c < 0 for row in B for c in row):
        return "has a negative entry"
    if gcd(n, X.alg.q) == 1 and \
            any(sum(row) != sympy.divisor_sigma(n) for row in B):
        return "fails the row sums sigma(n)"
    if any(w[j] * B[i][j] != w[i] * B[j][i]
           for i in range(H) for j in range(H)):
        return "fails the symmetry w_j B_ij = w_i B_ji"
    return ""


def resolve_cache_dir(flag_value, config: dict) -> str:
    """Precedence: TPL_CACHE environment > command-line flag > config key."""
    env = os.environ.get("TPL_CACHE")
    if env:
        return env
    if flag_value:
        return flag_value
    return config.get("cache_dir", "cache")
