"""Tests for the cache layer and the command-line interface: round-trips,
lock discipline, config precedence, exit codes, and byte-identical scan
output on a warm cache."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from quatperiods.cache import (
    Cache,
    CacheBusy,
    decode_int,
    encode_int,
    get_brandt,
    get_shimura_set,
    resolve_cache_dir,
    shimura_from_payload,
    shimura_payload,
)
from quatperiods.cli import main, read_config
from quatperiods.quatalg import brandt_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_big_int_encoding():
    assert encode_int(5) == 5
    big = 2 ** 80 + 7
    assert encode_int(big) == str(big)
    assert decode_int(encode_int(big)) == big
    assert decode_int(encode_int(-big)) == -big
    assert decode_int(5) == 5


def test_shimura_payload_roundtrip(tmp_path):
    cache = Cache(str(tmp_path))
    X = get_shimura_set(cache, 11)
    assert os.path.exists(tmp_path / "q11" / "classes.json")
    Y = shimura_from_payload(shimura_payload(X))
    assert Y.H == X.H and Y.weights == X.weights
    assert Y.classes == X.classes and Y.left_orders == X.left_orders
    # warm load agrees
    Z = get_shimura_set(cache, 11)
    assert Z.classes == X.classes


@pytest.mark.parametrize("q,digest", [
    (11, "133d0ed863a0e59cc9aad24217dfbe91bf14916b3c91281f2252a27af3d7427a"),
    (37, "ad03231199f776922b3668cc228b521640f842630ab856406772399f7cdb2ecd"),
    (97, "46fb1ab9fc55e306aea54519b112ba4c6d9b68ef23943a6e9ca113d547529dcb"),
])
def test_class_cache_bytes_are_pinned(tmp_path, q, digest):
    # the class representatives, their order, weights and left orders, as
    # written on an empty cache
    get_shimura_set(Cache(str(tmp_path)), q)
    data = (tmp_path / f"q{q}" / "classes.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_brandt_cache_roundtrip(tmp_path):
    cache = Cache(str(tmp_path))
    X = get_shimura_set(cache, 11)
    B = get_brandt(cache, X, 2)
    assert B == brandt_matrix(X, 2)
    assert get_brandt(cache, X, 2) == B  # from disk


def test_writer_lock_exclusive(tmp_path):
    cache = Cache(str(tmp_path))
    with cache.writer_lock(11):
        with pytest.raises(CacheBusy):
            with cache.writer_lock(11, timeout=0.2):
                pass
    with cache.writer_lock(11):  # released properly
        pass


def dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_cli_breaks_stale_lock(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    (cache_dir / "q11").mkdir(parents=True)
    lock = cache_dir / "q11" / ".lock"
    lock.write_text(str(dead_pid()))
    code = main(["shimura-set", "--q", "11", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["H"] == 2
    assert (cache_dir / "q11" / "classes.json").exists()
    assert not lock.exists()


def test_cli_live_lock_holder_exits_1(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    (cache_dir / "q11").mkdir(parents=True)
    (cache_dir / "q11" / ".lock").write_text(str(os.getpid()))
    code = main(["shimura-set", "--q", "11", "--cache-dir", str(cache_dir)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cache busy: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def cached_classes(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["shimura-set", "--q", "11",
                 "--cache-dir", str(cache_dir)]) == 0
    good = capsys.readouterr().out
    return cache_dir, cache_dir / "q11" / "classes.json", good


def test_cli_corrupt_cache_names_file(tmp_path, capsys):
    cache_dir, path, _ = cached_classes(tmp_path, capsys)
    path.write_text("{not json")
    code = main(["shimura-set", "--q", "11", "--cache-dir", str(cache_dir)])
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("tamper, problem", [
    (lambda d: d.update(weights=[1, 1]), "mass formula"),
    (lambda d: d["left_orders"].pop(), "different lengths"),
])
def test_cli_tampered_cache_is_recomputed(tmp_path, capsys, tamper, problem):
    cache_dir, path, good = cached_classes(tmp_path, capsys)
    original = path.read_text()
    data = json.loads(original)
    tamper(data)
    path.write_text(json.dumps(data))
    code = main(["shimura-set", "--q", "11", "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == good
    assert problem in captured.err and str(path) in captured.err
    assert path.read_text() == original


@pytest.mark.parametrize("payload", [{}, [], {"q": "eleven"}])
def test_cli_malformed_class_cache_is_recomputed(tmp_path, capsys, payload):
    cache_dir, path, good = cached_classes(tmp_path, capsys)
    original = path.read_text()
    path.write_text(json.dumps(payload))
    code = main(["shimura-set", "--q", "11", "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == good
    assert "is malformed" in captured.err and str(path) in captured.err
    assert captured.err.count("\n") == 1
    assert path.read_text() == original


@pytest.mark.parametrize("tamper, problem", [
    (lambda d: d.update(matrix=[[9, 9], [9, 9]]), "row sums"),
    (lambda d: d.update(n=3), "n = 3"),
    (lambda d: d.update(matrix=[[1, 2]]), "2 x 2"),
    (lambda d: d.update(matrix=[[2, 1], [1, 2]]), "symmetry"),
    (lambda d: d.pop("matrix"), "is malformed"),
    (lambda d: d.update(matrix=[[1, "x"], [3, 0]]), "is malformed"),
])
def test_cli_tampered_brandt_cache_is_recomputed(tmp_path, capsys, tamper,
                                                 problem):
    cache_dir = tmp_path / "cache"
    argv = ["brandt", "--q", "11", "--n", "2", "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    good = capsys.readouterr().out
    path = cache_dir / "q11" / "brandt_2.json"
    original = path.read_text()
    data = json.loads(original)
    tamper(data)
    path.write_text(json.dumps(data))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == good
    assert problem in captured.err and str(path) in captured.err
    assert captured.err.count("\n") == 1
    assert path.read_text() == original


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_brandt_nonpositive_n_exits_2(tmp_path, capsys, n):
    code = main(["brandt", "--q", "11", "--n", n,
                 "--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["periods", "--d", "-23", "--p", "4"],       # not a prime
    ["periods", "--d", "-23", "--p", "5"],       # an excluded prime of 11a1
    ["periods", "--d", "-23", "--p", "11"],      # p = q
    ["stability", "--orders", "0", "--q", "5"],
    ["stability", "--orders", "-2", "--q", "5"],
    ["lvalue", "--d", "-28"],                    # not fundamental
    ["lvalue", "--d", "0"],
])
def test_cli_invalid_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,err", [
    (["periods", "--d", "-23", "--p", "4"],
     "p = 4 must be a prime outside [2, 3, 5, 11]"),
    (["eigenform", "--p", "9"], "p = 9 must be a prime outside [2, 3, 5, 11]"),
    (["periods", "--d", "-23", "--q", "4", "--p", "4"],
     "q must be an odd prime"),
    (["scan", "--dmax", "50", "--p", "5"],
     "p = 5 must be a prime outside [2, 3, 5, 11]"),
    (["periods", "--d", "-28"], "D = -28 skipped: non-fundamental"),
    (["periods", "--d", "0"], "D = 0 skipped: not imaginary"),
    (["periods", "--d", "5"], "D = 5 skipped: not imaginary"),
    (["periods", "--d", "-7"], "D = -7 skipped: split"),
    (["periods", "--d", "-11"], "D = -11 skipped: ramified"),
    (["periods", "--d", "-3"], "D = -3 skipped: excluded field"),
    (["periods", "--d", "-71"], "D = -71 skipped: p|h"),
    (["special-points", "--d", "-28"],
     "-28 is not a fundamental imaginary quadratic discriminant"),
    (["special-points", "--d", "-44"],
     "-44 is not a fundamental imaginary quadratic discriminant"),
    (["special-points", "--d", "0"],
     "0 is not a fundamental imaginary quadratic discriminant"),
    (["special-points", "--d", "5"],
     "5 is not a fundamental imaginary quadratic discriminant"),
    (["classgroup", "--d", "5"],
     "5 is not a fundamental imaginary quadratic discriminant"),
], ids=["periods-p4", "eigenform-p9", "periods-q4", "scan-p5", "periods-d-28",
        "periods-d0", "periods-d5", "periods-d-7-split",
        "periods-d-11-ramified", "periods-d-3-excluded", "periods-d-71-p|h",
        "special-points-d-28", "special-points-d-44", "special-points-d0",
        "special-points-d5", "classgroup-d5"])
def test_cli_rejects_input_before_opening_the_cache(tmp_path, capsys,
                                                    monkeypatch, argv, err):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("TPL_CACHE", str(cache_dir))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"precondition violated: {err}\n"
    assert not cache_dir.exists()


def test_cli_stability_orders_need_not_form_a_chain(capsys):
    code, out = run_cli(capsys, "stability", "--orders", "6,2", "--q", "5")
    assert code == 0
    code2, out2 = run_cli(capsys, "stability", "--orders", "2,6", "--q", "5")
    assert code2 == 0
    assert json.loads(out)["minimum"] == json.loads(out2)["minimum"] == 3


def test_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("TPL_CACHE", raising=False)
    assert resolve_cache_dir(None, {}) == "cache"
    assert resolve_cache_dir(None, {"cache_dir": "abc"}) == "abc"
    assert resolve_cache_dir("flag", {"cache_dir": "abc"}) == "flag"
    monkeypatch.setenv("TPL_CACHE", str(tmp_path))
    assert resolve_cache_dir("flag", {"cache_dir": "abc"}) == str(tmp_path)


def test_read_config(tmp_path):
    cfg = tmp_path / "c.conf"
    cfg.write_text("# comment\nq = 11\np=7 # trailing\n\ncache_dir = xyz\n")
    assert read_config(str(cfg)) == {"q": "11", "p": "7",
                                     "cache_dir": "xyz"}


def test_cli_classgroup(capsys):
    code, out = run_cli(capsys, "classgroup", "--d", "-23")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == 3 and data["orders"] == [3]


def test_cli_config_and_flag_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    cfg = tmp_path / "c.conf"
    cfg.write_text("d = -23\n")
    code, out = run_cli(capsys, "classgroup", "--config", str(cfg))
    assert code == 0 and json.loads(out)["D"] == -23
    code, out = run_cli(capsys, "classgroup", "--config", str(cfg),
                        "--d", "-31")
    assert code == 0 and json.loads(out)["D"] == -31


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    # 1: config errors
    assert main(["classgroup"]) == 1                       # missing d
    assert main(["classgroup", "--config", "/nope"]) == 1
    assert main(["nonsense"]) == 1
    # 2: precondition violations
    assert main(["classgroup", "--d", "-12"]) == 2         # non-fundamental
    assert main(["periods", "--d", "-7"]) == 2             # split at 11
    assert main(["periods", "--d", "-71"]) == 2            # 7 | h
    capsys.readouterr()


def test_cli_shimura_brandt_eigenform(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    code, out = run_cli(capsys, "shimura-set", "--q", "11")
    assert code == 0
    data = json.loads(out)
    assert data["H"] == 2 and data["mass"] == [5, 12]
    code, out = run_cli(capsys, "brandt", "--q", "11", "--n", "3")
    assert code == 0
    B = json.loads(out)["matrix"]
    assert all(sum(row) == 4 for row in B)
    code, out = run_cli(capsys, "eigenform", "--q", "11", "--p", "7")
    assert code == 0
    assert json.loads(out)["eigenvalues"]["2"] == -2


def test_cli_periods_and_special_points(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    code, out = run_cli(capsys, "special-points", "--d", "-23")
    assert code == 0
    assert len(json.loads(out)["points"]) == 3
    code, out = run_cli(capsys, "periods", "--d", "-23")
    assert code == 0
    data = json.loads(out)
    assert data["h"] == 3 and len(data["xi_set"]) == data["ellK"]


def test_cli_scan_deterministic_with_warm_cache(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    csv1 = tmp_path / "scan1.csv"
    csv2 = tmp_path / "scan2.csv"
    code, out1 = run_cli(capsys, "scan", "--dmax", "60",
                         "--csv", str(csv1))
    assert code == 0
    code, out2 = run_cli(capsys, "scan", "--dmax", "60",
                         "--csv", str(csv2))
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert out1 == out2
    header = csv1.read_text().splitlines()[0]
    assert header == "D,h,ellK,orbits,log_bound,reason"


def test_cli_stability_ledger_lvalue(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TPL_CACHE", str(tmp_path / "cache"))
    code, out = run_cli(capsys, "stability", "--orders", "3,3", "--q", "7")
    assert code == 0
    data = json.loads(out)
    assert data["lower_bound"] == 2 and data["minimum"] == 2
    code, out = run_cli(capsys, "ledger", "--q", "11", "--bound", "100",
                        "--kolyvagin", "1,1,1,1,1,1", "--sha", "0:")
    assert code == 0
    data = json.loads(out)
    assert data["excluded_primes"] == [2, 3, 5, 11]
    assert data["ideal_I_gcd"] == 5
    assert data["sha_exponent"] == 0
    code, out = run_cli(capsys, "lvalue", "--q", "11", "--d", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 0.253841860855911) < data["tail"] + 1e-6
