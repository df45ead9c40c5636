"""Self-test of the benchmark's correctness checks.

    python3 -m pytest -q perfbench/test_checks.py
    python3 perfbench/test_checks.py

Each workload's default-seed cycle must pass its checks, including the
comparison with ``pinned.json``, and a copy of a report with one count
altered must fail them.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import pin  # noqa: E402
import workloads  # noqa: E402

_cache: dict = {}


def _cycle(workload: str):
    if workload not in _cache:
        with tempfile.TemporaryDirectory(dir=HERE) as work:
            _cache[workload] = pin.cycle_reports(workload, workloads.DEFAULT_SEED, work)
    return _cache[workload]


def _problems(workload: str, altered_pos=None, alter=None) -> list[list[str]]:
    """Check the default-seed cycle, with the report at `altered_pos`
    passed through `alter` first; return the problems per op."""
    params, ops = _cycle(workload)
    pinned = checks.load_pinned()[workload]
    state: dict = {}
    out = []
    for pos, (command, rc, rep) in enumerate(ops):
        if pos == altered_pos:
            rep = copy.deepcopy(rep)
            alter(rep)
        out.append(checks.check_op(workload, pos, command, rc, rep, params, state, pinned))
    return out


def test_default_cycles_pass():
    for w in workloads.NAMES:
        assert _problems(w) == [[]] * len(_cycle(w)[1]), w


def test_altered_verify_atom_count_is_caught():
    def bump(rep):
        rep["atoms"][3]["counts"][-1] += 1

    probs = _problems("rotation-verify", 1, bump)
    assert any("sum to" in p for p in probs[1])
    assert any("construct counts" in p for p in probs[1])
    assert any("pinned" in p for p in probs[1])


def test_altered_construct_count_is_caught():
    def bump(rep):
        rep["sets"][0]["estimate"]["counts"][2] += 1

    probs = _problems("rotation-verify", 0, bump)
    assert any("pinned" in p for p in probs[0])
    # the next op's cross-check sees the altered member count as well
    assert any("construct counts" in p for p in probs[1])


def test_altered_thin_count_is_caught():
    def bump(rep):
        rep["check"]["atoms"][0]["counts"][0] -= 1

    probs = _problems("rotation-verify", 2, bump)
    assert any("thin atom" in p for p in probs[2])


def test_altered_multiplicity_is_caught():
    def bump(rep):
        rep["values"][100]["multiplicity"] += 1

    probs = _problems("gap-image", 0, bump)
    assert any("multiplicities sum" in p for p in probs[0])
    assert any("pinned" in p for p in probs[0])


def test_unflagged_witness_is_caught():
    def unflag(rep):
        rep["witness"]["flagged"] = False

    assert any("not flagged" in p for p in _problems("coin-stream", 1, unflag)[1])


def test_altered_coin_count_is_caught_by_pin():
    def bump(rep):
        rep["estimate"]["counts"][0] += 1

    assert any("pinned" in p for p in _problems("coin-stream", 1, bump)[1])


def test_gap_product_matches_declared_densities():
    # the family's declared densities multiply to the independent product
    _, ops = _cycle("gap-image")
    rep = ops[0][2]
    values = [v["fraction"] for v in rep["values"]]
    prod = checks.gap_product(rep["spec"]["family"][0]["target"])
    assert f"{prod.numerator}/{prod.denominator}" in values


def test_benchmark_json_names_match_run_output():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, run.per_layer_units(n)) for n in run.PER_LAYER_NAMES]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {name}: {e!r}")
    sys.exit(1 if failures else 0)
