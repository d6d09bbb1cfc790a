"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

They show that every output check rejects a deliberately wrong result, that
the oracles agree with known values, that the tracer rebinds every binding
and accounts for all op time, and that each workload at a tiny size prints
every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

GOLDEN = oracles.read_golden(HERE / "golden" / "scan_q11_p7.csv")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# oracles against known values

def test_class_number_formula_known_values():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -15: 2, -20: 2, -23: 3, -47: 5,
             -56: 4, -71: 7, -84: 4, -163: 1, -1155: 8}
    for D, h in known.items():
        assert oracles.class_number(D) == h


def test_class_number_formula_matches_golden_rows():
    rows = [(D, int(f["h"])) for D, (_, f) in GOLDEN.items()
            if f["reason"] == ""]
    assert len(rows) > 100
    spf = oracles.smallest_prime_factors(1000)
    for D, h in rows:
        assert oracles.class_number(D, spf) == h


def test_fundamental_and_character():
    assert [D for D in range(-30, 0) if oracles.is_fundamental(D)] == \
        [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3]
    # 11 is inert in Q(sqrt -23) and splits in Q(sqrt -7)
    assert oracles.chi_prime(-23, 11) == -1 and oracles.chi_prime(-7, 11) == 1


def test_an_11a1_known_coefficients():
    # 11a1: q - 2q^2 - q^3 + 2q^4 + q^5 + 2q^6 - 2q^7 - 2q^9 - 2q^10 + q^11
    a = oracles.an_11a1(11)
    assert a[1:] == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1]


def test_invariant_chains():
    chains = inputs.invariant_chains(8)
    assert sorted(chains) == sorted([(2,), (3,), (4,), (5,), (6,), (7,), (8,),
                                     (2, 2), (2, 4), (2, 2, 2)])


def test_streams_are_seeded():
    def first(gen, k=40):
        return list(islice(gen, k))
    for make in (lambda s: inputs.scan_ops(s, GOLDEN),
                 inputs.brandt_ops,
                 inputs.queries_ops):
        assert first(make(3)) == first(make(3))
        assert first(make(3)) != first(make(4))


# ---------------------------------------------------------------------------
# every check rejects a wrong result

@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def test_scan_check_rejects_wrong_row(tmp):
    wl = worker.Scan(tmp + "/scan", 1)
    recs = [wl.run(-23), wl.run(-24)]
    assert oracles.check_scan(recs, GOLDEN) == {}
    wrong = copy.deepcopy(recs)
    wrong[0]["csv"] = wrong[0]["csv"].replace("-23,3,", "-23,4,")
    assert set(oracles.check_scan(wrong, GOLDEN)) == {0}
    assert set(oracles.check_scan([{"error": "raised"}], GOLDEN)) == {0}


def brandt_records(tmp, q=11, ns=(1, 2, 3, 4)):
    wl = worker.Brandt(tmp, 1)
    recs = [wl.run((0, q, n)) for n in ns]
    sessions = wl.after(recs)["sessions"]
    return recs, sessions


def set_matrix(rec, B, warm_too=True):
    out = json.loads(rec["out"])
    out["matrix"] = B
    rec["out"] = json.dumps(out)
    if warm_too:
        rec["warm_out"] = rec["out"]


def test_brandt_checks_reject_wrong_matrices(tmp):
    recs, sessions = brandt_records(tmp + "/brandt")
    assert oracles.check_brandt(recs, sessions) == {}
    B2 = json.loads(recs[1]["out"])["matrix"]

    wrong = copy.deepcopy(recs)                  # row sum != sigma(2)
    set_matrix(wrong[1], [[B2[0][0] + 1, B2[0][1]], B2[1]])
    assert "sigma" in oracles.check_brandt(wrong, sessions)[1]

    wrong = copy.deepcopy(recs)                  # same row sums, not w-symmetric
    set_matrix(wrong[1], [B2[0][::-1], B2[1]])
    assert "w_j" in oracles.check_brandt(wrong, sessions)[1]

    wrong = copy.deepcopy(recs)                  # warm replay differs
    set_matrix(wrong[2], B2, warm_too=False)
    assert "warm" in oracles.check_brandt(wrong, sessions)[2]

    wrong = copy.deepcopy(recs)
    wrong[3]["code"] = 3
    assert set(oracles.check_brandt(wrong, sessions)) == {3}

    bad_weights = {k: {"code": 0, "out": json.dumps({"weights": [1, 1]})}
                   for k in sessions}
    assert set(oracles.check_brandt(recs, bad_weights)) == {0, 1, 2, 3}


def test_brandt_check_rejects_non_commuting_matrices():
    # q = 37 has three classes of weight 1; both matrices below pass the
    # row-sum and symmetry checks but do not commute
    A = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]        # row sums sigma(2) = 3
    B = [[1, 3, 0], [3, 0, 1], [0, 1, 3]]        # row sums sigma(3) = 4
    recs = []
    for n, M in ((2, A), (3, B)):
        out = json.dumps({"q": 37, "n": n, "matrix": M})
        recs.append({"session": 0, "q": 37, "n": n, "code": 0, "out": out,
                     "warm_code": 0, "warm_out": out})
    sessions = {"0": {"code": 0, "out": json.dumps({"weights": [1, 1, 1]})}}
    bad = oracles.check_brandt(recs, sessions)
    assert set(bad) == {0, 1} and "commute" in bad[0]


def queries_records(tmp):
    wl = worker.Queries(tmp, 1)
    ops = [("periods", -23), ("periods", -7), ("periods", 12),
           ("special-points", -23), ("special-points", -7),
           ("classgroup", -10007), ("lvalue", -23), ("lvalue", -7)]
    recs = [wl.run((k, [k, "--d", str(D)], D)) for k, D in ops]
    recs.append(wl.run(("stability", ["stability", "--orders", "2,2,6",
                                      "--q", "5"], [[2, 2, 6], 5])))
    return recs


def test_queries_checks_reject_wrong_outputs(tmp):
    recs = queries_records(tmp + "/queries")
    lref = oracles.LSeriesReference(23, tail=1e-11)
    assert oracles.check_queries(recs, GOLDEN, lref) == {}
    assert [r["code"] for r in recs] == [0, 2, 2, 0, 2, 0, 0, 0, 0]

    def rejected(i, edit):
        wrong = copy.deepcopy(recs)
        edit(wrong[i])
        return set(oracles.check_queries(wrong, GOLDEN, lref)) == {i}

    def bump(key, by=1):
        def edit(r):
            out = json.loads(r["out"])
            out[key] += by
            r["out"] = json.dumps(out)
        return edit

    assert rejected(0, bump("ellK"))                    # periods value
    assert rejected(1, lambda r: r.update(code=0))      # periods exit code
    assert rejected(3, bump("h"))                       # special points
    assert rejected(4, lambda r: r.update(code=3))
    assert rejected(5, bump("h"))                       # class number
    assert rejected(6, bump("value", 1e-6))             # inert L-value
    assert rejected(8, bump("minimum"))                 # stability

    def witness(w):
        def edit(r):
            out = json.loads(r["out"])
            out["witness"] = w
            r["out"] = json.dumps(out)
        return edit

    # generates Z/2 + Z/2 + Z/6 but is not closed under x -> 5x
    assert rejected(8, witness([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 3]]))
    # closed under x -> 5x but generates only the 2-torsion
    assert rejected(8, witness([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 3]]))
    # a split-D L-value is timed but deliberately not checked
    assert not oracles.lvalue_checked(-7)
    assert not rejected(7, bump("value", 1.0))


# ---------------------------------------------------------------------------
# tracer

def test_tracer_rebinds_every_binding_and_restores():
    import quatperiods.cli  # noqa: F401
    from tracer import TRACED, Tracer
    mods = {k: m for k, m in sys.modules.items()
            if k.startswith("quatperiods")}
    originals = {f"{m}.{f}": getattr(mods[f"quatperiods.{m}"], f)
                 for m, f in TRACED}
    t = Tracer()
    t.install()
    try:
        for mod in mods.values():
            for attr, val in vars(mod).items():
                assert all(val is not fn for fn in originals.values()), \
                    f"{mod.__name__}.{attr} still unwrapped"
        assert mods["quatperiods.embeddings"].qf_solutions is \
            mods["quatperiods.linalg"].qf_solutions
    finally:
        t.uninstall()
    for name, fn in originals.items():
        m, f = name.split(".")
        assert getattr(mods[f"quatperiods.{m}"], f) is fn


def test_empty_ratio_counts_only_orders_without_omega():
    from tracer import Tracer, layer_metrics
    t = Tracer()
    t.op = 0
    name = "embeddings.embedding_candidates"

    def raises(err):
        def fn():
            raise err
        return fn

    for fn in (raises(ArithmeticError("no omega")),
               raises(ValueError("split: a precondition")),
               lambda: [(1, 0, 0, 0), (0, 1, 0, 0)]):
        try:
            t.call(name, fn, (), {})
        except (ArithmeticError, ValueError):
            pass
    m = layer_metrics(t, [1.0])
    assert m[f"{name}.calls"] == 3 and m[f"{name}.solutions"] == 2
    assert m[f"{name}.empty_ratio"] == pytest.approx(1 / 3)


def test_each_op_is_scaled_by_the_probes_around_it():
    import run
    ref = run.REF_PROBE_S
    # probes before ops 0, 4 and 8; the middle one reads twice as slow
    res = {"probe_s": [ref, 2 * ref, ref], "probe_op": [0, 4, 8],
           "latency_s": [1.0] * 10}
    ks = run.op_slowdowns(res)
    assert len(ks) == 10
    assert ks[0] == pytest.approx(1.0)      # median of all three probes
    run.PROBE_WINDOW, window = 0, run.PROBE_WINDOW
    try:
        ks = run.op_slowdowns(res)
    finally:
        run.PROBE_WINDOW = window
    assert ks[3] == pytest.approx(1.5)      # between probes 0 and 1
    assert ks[9] == pytest.approx(1.0)      # after the last probe


def test_metrics_cover_a_fixed_number_of_ops():
    import run
    w = "queries"
    full, block = inputs.MEASURED_OPS[w], inputs.BLOCK_OPS[w]
    assert run.measured_ops({"workload": w,
                             "latency_s": [0.1] * (full + 7)}) == full
    assert run.measured_ops({"workload": w,
                             "latency_s": [0.1] * (block + 1)}) == block


# ---------------------------------------------------------------------------
# whole runs at a tiny size

def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_print_every_metric(workload):
    want = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for trace in (0, 1):
        proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                         "3", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        got = res["metrics"]
        assert set(got) == {m["name"] for m in want[trace]}
        for m in want[trace]:
            assert got[m["name"]]["unit"] == m["unit"]
            assert isinstance(got[m["name"]]["value"], (int, float))
        text = "\n".join(lines[:-1])
        assert "fail_ratio" in text
        if trace == 0:
            assert "10 samples above" in text
            assert all(got[m["name"]]["value"] > 0 for m in want[0])
        else:
            layers = sum(got[f"{k}.self_s"]["value"] for k in
                         ("linalg", "quatalg", "embeddings", "periods",
                          "charfield", "bqf", "ledger", "curves", "cache",
                          "cli"))
            wall = got["op_wall_s"]["value"]
            assert layers + got["unattributed_s"]["value"] == \
                pytest.approx(wall, rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_cli_scan_is_byte_stable(tmp_path):
    from quatperiods.cli import main
    csv_path = tmp_path / "scan.csv"
    code = main(["scan", "--dmax", "60", "--csv", str(csv_path),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    golden = (HERE / "golden" / "scan_q11_p7.csv").read_bytes()
    assert golden.startswith(csv_path.read_bytes())
