"""End-to-end command-line behavior: exit codes, formats, determinism."""

import gc
import hashlib
import json
import time
from pathlib import Path

import pytest

from densfam import cli, constructors, fixedpoint
from densfam.cli import main
from densfam.sets import CHUNK_BITS

KW3 = {
    "family": [
        {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"},
        {"name": "A1", "kind": "kw", "radicand": 3, "threshold": "0.5"},
        {"name": "A2", "kind": "kw", "radicand": 5, "threshold": "0.7"},
    ],
    "schedule": {"start": 2000, "ratio": "2", "count": 3},
}

FAST = ["--schedule", "2000,2,3"]


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- exit codes ---------------------------------------------------------------


def test_construct_ok(tmp_path, capsys):
    assert main(["construct", write_spec(tmp_path, KW3)]) == 0
    out = capsys.readouterr()
    rep = json.loads(out.out)
    assert rep["command"] == "construct"
    assert rep["passed"] is True
    assert len(rep["sets"]) == 3
    assert "construct: PASS" in out.err


def test_verify_ok(tmp_path):
    assert main(["verify", write_spec(tmp_path, KW3)]) == 0


def test_verify_fails_under_absurd_tolerance(tmp_path):
    code = main(["verify", write_spec(tmp_path, KW3), "--tol", "1/100000000"])
    assert code == 1


def test_construct_fails_when_oscillation_exceeds_tolerance(tmp_path):
    code = main(["construct", write_spec(tmp_path, KW3), "--tol", "1/100000000"])
    assert code == 1


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["verify", str(p)]) == 2


def test_missing_file_is_parse_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_empty_family_is_parse_error(tmp_path, capsys):
    assert main(["verify", write_spec(tmp_path, {"family": []})]) == 2
    assert "family must be nonempty" in capsys.readouterr().err


def test_duplicate_name_is_parse_error(tmp_path):
    doc = {"family": [
        {"name": "A", "kind": "kw", "radicand": 2, "threshold": "0.5"},
        {"name": "A", "kind": "kw", "radicand": 3, "threshold": "0.5"},
    ]}
    assert main(["verify", write_spec(tmp_path, doc)]) == 2


def test_bad_schedule_flag_is_parse_error(tmp_path):
    assert main(["verify", write_spec(tmp_path, KW3), "--schedule", "10,2"]) == 2


def test_unknown_reap_set_is_precondition_error(tmp_path):
    assert main(["reap", write_spec(tmp_path, KW3), "NOPE", "A0"]) == 3


def test_reap_without_targets_is_precondition_error(tmp_path):
    assert main(["reap", write_spec(tmp_path, KW3), "A0"]) == 3


def test_seedless_random_entry_is_parse_error(tmp_path):
    doc = {"family": [
        {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.5"},
        {"name": "B", "kind": "random-ext", "family": ["A0"],
         "distinguished": "A0", "target": "0.5"},
    ]}
    path = write_spec(tmp_path, doc)
    assert main(["construct", path] + FAST) == 2
    # a command-line default seed fills the hole
    assert main(["construct", path, "--seed", "7"] + FAST) == 0


# -- subcommand outputs ---------------------------------------------------------


def test_verify_table_format(tmp_path, capsys):
    assert main(["verify", write_spec(tmp_path, KW3), "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern\twindow\tcount\tdensity\texpected"
    assert len(lines) == 1 + 8 * 3  # eight atoms, three windows


def test_image_report(tmp_path, capsys):
    assert main(["image", write_spec(tmp_path, KW3), "--grid", "0.05"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["element_count"] == 256
    mults = sum(v["multiplicity"] for v in rep["values"])
    assert mults == 256
    assert rep["scan"]["delta"]["fraction"] == "1/20"


def test_image_member_subset(tmp_path, capsys):
    assert main(["image", write_spec(tmp_path, KW3), "A0", "A1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["element_count"] == 16
    assert rep["members"] == ["A0", "A1"]


GAP4 = {
    "family": [{"name": "G", "kind": "gap", "target": "9/10", "size": 4}],
    "schedule": {"start": 2000, "ratio": "2", "count": 3},
}

# sha256 of stdout, recorded from the Fraction-arithmetic image path; the
# integer-numerator path must reproduce every byte of every form
IMAGE_GOLDEN = [
    (KW3, ["--grid", "0.05"], "report",
     "f7b6a5a9ac5df2aa463138eee534650c5207f40088bcc1cd2079715360c370e8"),
    (KW3, ["--grid", "0.05"], "table",
     "78f639b58ed30fe606187feea81d48206b944323c2356cb6d99d5488f0d336ff"),
    (KW3, ["A0", "A1"], "report",
     "7b4589a57fa2fca3dfc641f6943abbf9c10f2f0bf949d014cdb3eca0daf0a751"),
    (KW3, ["A0", "A1"], "table",
     "b7093d9794d238cdbe01052a6da167ac97a823e79e1746e57dc634262ad80639"),
    (GAP4, ["--grid", "0.01"], "report",
     "030a2003d5cf6178a2c145aec2214911cef56bf75c4fbd94fd518ff1ede212f9"),
    (GAP4, ["--grid", "0.01"], "table",
     "a7f9bfa71327abf97bbfc7580b24167f64dcd794137cac271a338405f506797f"),
]


@pytest.mark.parametrize(
    "doc, extra, fmt, digest", IMAGE_GOLDEN,
    ids=["kw3-grid-report", "kw3-grid-table", "kw3-subset-report",
         "kw3-subset-table", "gap4-report", "gap4-table"],
)
def test_image_output_bytes_pinned(tmp_path, capsys, doc, extra, fmt, digest):
    assert main(["image", write_spec(tmp_path, doc), *extra, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (argv after the spec path, exit code, sha256 of stdout, stderr summary),
# recorded before the commands shared one report/summary/exit tail
COMMAND_GOLDEN = [
    (["construct"], 0,
     "dd5dc6e580379f5f69bde55cca5b71947d2fa3c704c31fd209a4c2654dc4a947",
     "construct: PASS (3 sets, max window 8000)"),
    (["construct", "--format", "table"], 0,
     "cfe268bd8fb21ef305b403a1c05556291b6b3d28415310e6fa20555b5352cdf7",
     "construct: PASS (3 sets, max window 8000)"),
    (["construct", "--tol", "1/100000000"], 1,
     "7cbdc9278d9c97edda3a364e886668ed244af4d5996124bd1fc9ea70ef724f31",
     "construct: FAIL (3 sets, max window 8000)"),
    (["verify"], 0,
     "ca2f48f58eed2b1240a3d758ca5606f3c01f3102974c8475c21c488d39fe00dc",
     "verify: PASS (8 patterns, tol 0.005, worst deviation 0.000375 at A0=1,A1=0,A2=0)"),
    (["verify", "A0", "A2", "--prefix", "50000", "--format", "table"], 0,
     "6f8d739cac726b9468199ea9b57a9495f39f707fad180cebe2fd1d287de8fb68",
     "verify: PASS (4 patterns, tol 0.005, worst deviation 0.0005 at A0=0,A2=0)"),
    (["reap", "A1", "--intersections", "A0,A2"], 0,
     "06926dfad9e13d4f5824ff61afd04db984f482e62d4f785766c04f94bee11311",
     "reap: PASS (3 targets, worst deviation 0.00118906 at A0&A2)"),
    (["reap", "A1", "A0", "--tol", "0.01", "--format", "table"], 0,
     "48778858db869f4c488fc4855c63437b05e6ba3f630e17fa1c2e75b0c2108a33",
     "reap: PASS (1 targets, worst deviation 0.00041632 at A0)"),
    (["extend", "--mode", "thin", "--name", "T", "--family", "A0,A1"], 0,
     "49f94b6135937be9b5194710104025c47a83f6f0f81a23eb9d54bea0502e7eaf",
     "extend[thin]: PASS (enlarged verify PASS)"),
    (["extend", "--mode", "random", "--distinguished", "A1", "--seed", "20260816"], 0,
     "e31fcdede3f92db41462a1d3d484e298db91a936ab2a8b5225723b5b733d1083",
     "extend[random]: PASS (witness gap 0.1255 vs margin 0.0625 (flagged), "
     "density estimate converged)"),
    (["pack", "--side", "1", "--target", "0.3"], 0,
     "fbec2afba4da513c015c514369573fe57418d5e40ed1d33af21a22e49c4643e1",
     "pack: PASS (3 patterns, total 0.195 < target 0.3)"),
    (["pack", "--side", "0", "--target", "0.5", "--members", "A0,A1", "--format", "table"], 0,
     "6daa0608f9cc7dd81dbd2c2557189a47a95077cd2f384c81b1b48f3a88802762",
     "pack: PASS (1 patterns, total 0.35 < target 0.5)"),
]


@pytest.mark.parametrize("argv, code, digest, summary", COMMAND_GOLDEN,
                         ids=[" ".join(g[0]) for g in COMMAND_GOLDEN])
def test_command_output_bytes_pinned(tmp_path, capsys, argv, code, digest, summary):
    assert main([argv[0], write_spec(tmp_path, KW3), *argv[1:]]) == code
    out = capsys.readouterr()
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    assert out.err == summary + "\n"


def test_main_leaves_no_argparse_cycles_to_the_collector(tmp_path, capsys):
    spec = write_spec(tmp_path, KW3)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(["image", spec, "A0"]) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_main_dispatches_through_module_attributes(tmp_path, capsys, monkeypatch):
    # perfbench/tracer.py wraps cli.cmd_* long after the parser was built
    calls = []
    real = cli.cmd_image
    monkeypatch.setattr(cli, "cmd_image", lambda args: calls.append(args.command) or real(args))
    assert main(["image", write_spec(tmp_path, KW3), "A0"]) == 0
    assert calls == ["image"]


def test_reap_intersections(tmp_path, capsys):
    code = main(["reap", write_spec(tmp_path, KW3), "A1",
                 "--intersections", "A0,A2"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert [t["name"] for t in rep["targets"]] == ["A0", "A2", "A0&A2"]


def test_extend_thin(tmp_path, capsys):
    assert main(["extend", write_spec(tmp_path, KW3), "--mode", "thin",
                 "--name", "T", "--family", "A0,A1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["descriptor"] == {"name": "T", "kind": "thin-ext",
                                 "family": ["A0", "A1"]}
    assert rep["check"]["passed"] is True


def test_extend_random(tmp_path, capsys):
    code = main(["extend", write_spec(tmp_path, KW3), "--mode", "random",
                 "--distinguished", "A1", "--seed", "20260816"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["eps"] == "1/8"
    assert rep["witness"]["flagged"] is True
    # the emitted descriptor can be appended to a spec and re-built
    d = rep["descriptor"]
    doc = {"family": KW3["family"] + [d], "schedule": KW3["schedule"]}
    assert main(["construct", write_spec(tmp_path, doc, "extended.json")]) == 0


def test_extend_random_requires_seed(tmp_path):
    assert main(["extend", write_spec(tmp_path, KW3), "--mode", "random",
                 "--distinguished", "A1"]) == 3


def test_pack_report(tmp_path, capsys):
    assert main(["pack", write_spec(tmp_path, KW3), "--side", "1",
                 "--target", "0.3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["patterns"] == [[1, 0, 0], [1, 0, 1], [1, 1, 0]]
    assert rep["total"]["fraction"] == "39/200"
    assert rep["passed"] is True


def test_pack_members_subset(tmp_path, capsys):
    assert main(["pack", write_spec(tmp_path, KW3), "--side", "0",
                 "--target", "0.5", "--members", "A0,A1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(len(p) == 2 and p[0] == 0 for p in rep["patterns"])


# -- determinism ------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path):
    spec = write_spec(tmp_path, KW3)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", spec, "--out", a]) == 0
    assert main(["verify", spec, "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_reports_are_byte_identical_across_workers(tmp_path):
    spec = write_spec(tmp_path, KW3)
    a, b = str(tmp_path / "w1.json"), str(tmp_path / "w8.json")
    assert main(["verify", spec, "--workers", "1", "--out", a]) == 0
    assert main(["verify", spec, "--workers", "8", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_extend_random_reports_are_byte_identical_across_workers(tmp_path):
    # the coin and the block member it is drawn over are computed in pool
    # workers; a fresh spec load per run shares no set between runs
    doc = {"family": [
        {"name": "C0", "kind": "coded", "sigma": "0110", "depth_limit": 4},
        {"name": "B0", "kind": "block", "classical": "C0"},
        {"name": "R", "kind": "random-ext", "family": ["B0"],
         "distinguished": "B0", "target": "2/5", "seed": 11},
    ], "schedule": {"start": 50000, "ratio": "2", "count": 4}}
    spec = write_spec(tmp_path, doc)
    outs = []
    for w in ("1", "2"):
        outs.append(str(tmp_path / f"w{w}.json"))
        assert main(["extend", spec, "--mode", "random", "--name", "X",
                     "--distinguished", "B0", "--seed", "7", "--target", "3/5",
                     "--workers", w, "--out", outs[-1]]) == 0
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


@pytest.mark.parametrize("command", [
    ["verify"],
    ["extend", "--mode", "thin", "--name", "T", "--family", "A0,A1"],
    ["reap", "A0", "--intersections", "A1,A2"],
], ids=["verify", "extend-thin", "reap-intersections"])
def test_chunked_reports_are_byte_identical_across_workers(tmp_path, command):
    # each worker process sweeps its own range of the 16 chunks; the thin
    # extension's workers first rank each atom below their range
    spec = write_spec(tmp_path, KW3)
    outs = []
    for w in ("1", "2", "3", "8"):
        outs.append(tmp_path / f"w{w}.json")
        assert main([command[0], spec, *command[1:], "--prefix", str(16 * CHUNK_BITS),
                     "--workers", w, "--out", str(outs[-1])]) in (0, 1)
    assert len({o.read_bytes() for o in outs}) == 1


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", [["verify"], ["extend", "--mode", "thin", "--name", "T"]],
                         ids=["verify", "extend-thin"])
def test_each_rotation_chunk_is_computed_once_per_op(tmp_path, monkeypatch, command):
    # one chunk-major sweep: every atom reads its three leaves' chunk
    # from their one-chunk slots, so each leaf chunk is computed once
    calls = _count_calls(monkeypatch, fixedpoint, "orbit_chunk_mask")
    k = 3
    assert main([command[0], write_spec(tmp_path, KW3), *command[1:],
                 "--prefix", str(k * CHUNK_BITS), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 3 * k


def test_random_extension_draws_each_chunk_once(tmp_path, monkeypatch):
    # the new member and its joint with the distinguished one share a sweep
    calls = _count_calls(monkeypatch, constructors, "u64_range")
    k = 3
    assert main(["extend", write_spec(tmp_path, KW3), "--mode", "random", "--name", "X",
                 "--distinguished", "A1", "--seed", "7", "--target", "2/5",
                 "--prefix", str(k * CHUNK_BITS), "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(lo for _, lo, _ in calls) == [ci * CHUNK_BITS for ci in range(k)]


def test_replay_from_embedded_spec(tmp_path):
    spec = write_spec(tmp_path, KW3)
    first = str(tmp_path / "first.json")
    assert main(["construct", spec, "--out", first]) == 0
    rep = json.loads(Path(first).read_text())
    replay_spec = write_spec(tmp_path, rep["spec"], "replay-spec.json")
    second = str(tmp_path / "second.json")
    assert main(["construct", replay_spec, "--out", second]) == 0
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_seed_recorded_in_report(tmp_path, capsys):
    doc = {"family": [
        {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.5"},
        {"name": "B", "kind": "random-ext", "family": ["A0"],
         "distinguished": "A0", "target": "0.5", "seed": 11},
    ], "schedule": {"start": 2000, "ratio": "2", "count": 3}}
    assert main(["construct", write_spec(tmp_path, doc)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rng"] == {"algorithm": "philox4x64", "seeds": {"B": 11}}


def test_report_has_no_timestamp_keys(tmp_path, capsys):
    # byte-identical replay depends on reports carrying no wall-clock state
    assert main(["verify", write_spec(tmp_path, KW3)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) <= {"tool", "command", "spec_digest", "spec", "rng",
                        "schedule", "tol", "members", "atoms",
                        "band_diagnostics", "passed"}


# -- output routing -----------------------------------------------------------------


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DENSFAM_OUT_DIR", str(tmp_path / "outs"))
    (tmp_path / "outs").mkdir()
    assert main(["pack", write_spec(tmp_path, KW3), "--side", "1",
                 "--target", "0.3", "--out", "pack.json"]) == 0
    assert (tmp_path / "outs" / "pack.json").exists()


def test_absolute_out_ignores_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DENSFAM_OUT_DIR", str(tmp_path / "outs"))
    target = tmp_path / "direct.json"
    assert main(["pack", write_spec(tmp_path, KW3), "--side", "1",
                 "--target", "0.3", "--out", str(target)]) == 0
    assert target.exists()


def test_prefix_pins_largest_window(tmp_path, capsys):
    assert main(["construct", write_spec(tmp_path, KW3), "--prefix", "30000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schedule"]["windows"][-1] == 30000


def test_construct_rotation_family_at_1e12_within_a_second(tmp_path, capsys):
    path = write_spec(tmp_path, KW3)
    t0 = time.perf_counter()
    assert main(["construct", path, "--prefix", str(10**12)]) == 0
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schedule"]["windows"][-1] == 10**12
    assert all(s["band"]["ok"] for s in rep["sets"])
    assert elapsed < 1.0


@pytest.mark.parametrize("command", [["construct"], ["verify"], ["extend", "--mode", "thin"]])
def test_window_past_rotation_validity_limit_is_precondition_error(tmp_path, capsys, command):
    path = write_spec(tmp_path, KW3)
    assert main([command[0], path, *command[1:], "--prefix", str(2**40 + 1)]) == 3
    assert "2**40" in capsys.readouterr().err


# -- remaining descriptor kinds through the CLI -------------------------------

BLOCK1 = {
    "family": [
        {"name": "C0", "kind": "coded", "sigma": "0", "depth_limit": 4},
        {"name": "B0", "kind": "block", "classical": "C0"},
    ],
    "schedule": {"start": 2000, "ratio": "2", "count": 3},
}


def test_block_spec_constructs_and_verifies(tmp_path, capsys):
    spec = write_spec(tmp_path, BLOCK1)
    assert main(["construct", spec]) == 0
    rep = json.loads(capsys.readouterr().out)
    # the coded classical set carries no density, so only B0 is estimated
    assert [e["name"] for e in rep["sets"]] == ["B0"]
    assert rep["sets"][0]["declared"]["fraction"] == "1/2"
    assert main(["verify", spec]) == 0


def test_gap_spec_image_has_unhit_cells_inside_gap(tmp_path, capsys):
    doc = {
        "family": [{"name": "G", "kind": "gap", "target": "0.9", "size": 4}],
        "schedule": {"start": 2000, "ratio": "2", "count": 3},
    }
    assert main(["image", write_spec(tmp_path, doc), "--grid", "0.01"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["members"] == ["G0", "G1", "G2", "G3"]
    scan = rep["scan"]
    unhit = [c for c in scan["cells"] if not c["hit"]]
    assert len(unhit) == scan["unhit_count"] == 80

    from densfam import gap_family

    prod = 1.0
    for d in gap_family(0.9, 4).densities:
        prod *= float(d)
    # every unhit cell sits strictly inside the open gap interval
    for c in unhit:
        assert float(c["lo"]["decimal"]) >= 1 - prod
        assert float(c["hi"]["decimal"]) <= prod


def test_expr_spec_declares_intersection_density(tmp_path, capsys):
    doc = {
        "family": [
            {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3"},
            {"name": "A1", "kind": "kw", "radicand": 3, "threshold": "0.5"},
            {
                "name": "E",
                "kind": "expr",
                "density": "0.15",
                "expr": {"op": "intersect", "args": [{"ref": "A0"}, {"ref": "A1"}]},
            },
        ],
        "schedule": {"start": 2000, "ratio": "2", "count": 3},
    }
    assert main(["construct", write_spec(tmp_path, doc)]) == 0
    rep = json.loads(capsys.readouterr().out)
    entry = {e["name"]: e for e in rep["sets"]}["E"]
    assert entry["declared"]["fraction"] == "3/20"
    assert float(entry["declared_gap"]["decimal"]) < 0.05


def test_reap_target_empty_below_first_window_is_precondition_error(tmp_path, capsys):
    doc = {
        "family": [
            {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.5"},
            {
                "name": "Z",
                "kind": "expr",
                "expr": {"op": "complement", "args": [{"op": "omega"}]},
            },
        ],
        "schedule": {"start": 2000, "ratio": "2", "count": 3},
    }
    assert main(["reap", write_spec(tmp_path, doc), "A0", "Z"]) == 3
    err = capsys.readouterr().err
    assert "Z" in err and "no members" in err


def test_verify_zero_tolerance_fails_and_lists_deviations(tmp_path, capsys):
    assert main(["verify", write_spec(tmp_path, KW3), "--tol", "0"]) == 1
    err = capsys.readouterr().err
    assert "verify: FAIL" in err


# -- flags: zero values, flags a command does not take, bad rationals ---------


THIN2 = {
    "family": [
        {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "3/10"},
        {"name": "A1", "kind": "kw", "radicand": 3, "threshold": "1/2"},
        {"name": "T", "kind": "thin-ext", "family": ["A0", "A1"]},
    ],
    "schedule": {"start": 2000, "ratio": "2", "count": 3},
}


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_reap_zero_tolerance_is_kept(tmp_path, capsys, where):
    # T bisects A1 only up to 1/8002, so a zero tolerance must fail
    doc, extra = (THIN2, ["--tol", "0"]) if where == "flag" else ({**THIN2, "tol": "0"}, [])
    assert main(["reap", write_spec(tmp_path, doc), "T", "A0", "A1", *extra]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["tol"] == {"fraction": "0/1", "decimal": "0"}
    assert rep["passed"] is False


@pytest.mark.parametrize("prefix", ["-5", "0", "2"])
def test_prefix_that_fits_no_schedule_is_parse_error_naming_it(tmp_path, capsys, prefix):
    # at ratio 2, 3 is the least prefix with three increasing windows (1, 2, 3)
    assert main(["construct", write_spec(tmp_path, KW3), "--prefix", prefix]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --prefix: cannot fit a 3-window schedule below {prefix}\n"


@pytest.mark.parametrize("command, tol, spec_tol", [
    (["verify"], "-1", None),
    (["construct"], "-1", None),
    (["reap", "A1", "A0"], "-1", None),
    (["extend", "--mode", "thin"], "-0.01", None),
    (["construct"], None, "-1/100"),
    (["verify"], None, "-1/100"),
], ids=["verify-flag", "construct-flag", "reap-flag", "extend-flag", "construct-spec",
        "verify-spec"])
def test_negative_tolerance_is_parse_error_naming_it(tmp_path, capsys, command, tol, spec_tol):
    doc = KW3 if spec_tol is None else {**KW3, "tol": spec_tol}
    flags = [] if tol is None else ["--tol", tol]
    assert main([command[0], write_spec(tmp_path, doc), *command[1:], *flags]) == 2
    name = "tol" if tol is None else "--tol"
    assert capsys.readouterr().err == f"error: {name} must be nonnegative\n"


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as e:
        main(argv)
    return e.value.code


@pytest.mark.parametrize("flag", ["--prefix", "--tol", "--schedule", "--workers"])
@pytest.mark.parametrize("command", [["image"], ["pack", "--side", "1", "--target", "0.3"]],
                         ids=["image", "pack"])
def test_counting_flags_are_rejected_where_nothing_is_counted(tmp_path, capsys, command, flag):
    value = {"--schedule": "2000,2,3", "--tol": "0.01"}.get(flag, "2")
    argv = [command[0], write_spec(tmp_path, KW3), *command[1:], flag, value]
    assert _exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_extend_rejects_format(tmp_path, capsys):
    argv = ["extend", write_spec(tmp_path, KW3), "--mode", "thin", "--format", "report"]
    assert _exit_code(argv) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1/0"])
@pytest.mark.parametrize("command, flag", [
    (["construct"], "--tol"),
    (["verify"], "--tol"),
    (["reap", "A1", "A0"], "--tol"),
    (["extend", "--mode", "thin"], "--tol"),
    (["image"], "--grid"),
    (["extend", "--mode", "random", "--distinguished", "A1", "--seed", "7"], "--target"),
    (["pack", "--side", "1"], "--target"),
], ids=["construct", "verify", "reap", "extend-thin", "image", "extend-random", "pack"])
def test_bad_rational_flag_is_parse_error_naming_it(tmp_path, capsys, command, flag, value):
    argv = [command[0], write_spec(tmp_path, KW3), *command[1:], flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} is not a rational: {value!r}\n"


@pytest.mark.parametrize("command, flag, value, message", [
    (["extend", "--mode", "random", "--distinguished", "A1"], "--seed", "-1",
     "--seed must be an integer in [0, 2**128)"),
    (["extend", "--mode", "random", "--distinguished", "A1"], "--seed", str(1 << 128),
     "--seed must be an integer in [0, 2**128)"),
    (["image"], "--grid", "0", "--grid must lie strictly in (0,1)"),
    (["image"], "--grid", "2", "--grid must lie strictly in (0,1)"),
    (["pack", "--side", "1"], "--target", "1.5", "--target must lie strictly in (0,1)"),
    (["extend", "--mode", "random", "--distinguished", "A1", "--seed", "7"], "--target", "0",
     "--target must lie strictly in (0,1)"),
], ids=["extend-seed-negative", "extend-seed-2**128", "image-grid-0", "image-grid-2",
        "pack-target", "extend-random-target"])
def test_out_of_range_flag_is_parse_error_naming_it(tmp_path, capsys, command, flag, value,
                                                     message):
    argv = [command[0], write_spec(tmp_path, KW3), *command[1:], flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_schedule_ratio_with_zero_denominator_is_parse_error(tmp_path, capsys):
    path = write_spec(tmp_path, KW3)
    assert main(["verify", path, "--schedule", "2000,1/0,3"]) == 2
    assert "bad --schedule" in capsys.readouterr().err
    doc = {**KW3, "schedule": {"start": 2000, "ratio": "1/0", "count": 3}}
    assert main(["verify", write_spec(tmp_path, doc, "zero.json")]) == 2
    assert "bad schedule" in capsys.readouterr().err


def _kw(**fields):
    return {"name": "A0", "kind": "kw", "radicand": 2, "threshold": "0.3", **fields}


@pytest.mark.parametrize("doc, message", [
    ({"family": [_kw(radicand=2.7)]}, "A0 radicand is not an integer: 2.7"),
    ({"family": [_kw(radicand="abc")]}, "A0 radicand is not an integer: 'abc'"),
    ({"family": [_kw(radicand=True)]}, "A0 radicand is not an integer: True"),
    ({"family": [_kw()], "schedule": {"start": 2.5, "count": 3}},
     "schedule start is not an integer: 2.5"),
    ({"family": [_kw()], "schedule": {"start": 2000, "count": "3x"}},
     "schedule count is not an integer: '3x'"),
    ({"family": [{"name": "G", "kind": "gap", "target": "0.9", "size": "x"}]},
     "G size is not an integer: 'x'"),
    ({"family": [_kw(), {"name": "C", "kind": "coded", "sigma": "01", "depth_limit": "z"}]},
     "C depth_limit is not an integer: 'z'"),
    ({"family": [_kw(), {"name": "S", "kind": "expr", "density": "0.1",
                         "expr": {"op": "scale", "factor": "q", "args": [{"ref": "A0"}]}}]},
     "S scale factor is not an integer: 'q'"),
    ({"family": [_kw(), {"name": "R", "kind": "random-ext", "family": ["A0"],
                         "distinguished": "A0", "target": "0.5", "seed": "s"}]},
     "R seed is not an integer: 's'"),
    ({"family": [_kw(), {"name": "E", "kind": "expr", "expr": {"op": "union", "args": 5}}]},
     "entry 'E': expression 'args' must be a list"),
], ids=["radicand-float", "radicand-word", "radicand-bool", "start-float", "count-word",
        "gap-size", "depth-limit", "scale-factor", "seed-word", "args-not-list"])
def test_bad_spec_integer_is_parse_error_naming_it(tmp_path, capsys, doc, message):
    assert main(["construct", write_spec(tmp_path, doc)] + FAST) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _expr(expr):
    return {"family": [_kw(), {"name": "E", "kind": "expr", "density": "0.1", "expr": expr}]}


@pytest.mark.parametrize("doc, message", [
    (_expr({"op": "scale", "factor": 0, "args": [{"ref": "A0"}]}),
     "scale factor must be a positive integer"),
    (_expr({"op": "scale", "factor": -2, "args": [{"ref": "A0"}]}),
     "scale factor must be a positive integer"),
    (_expr({"op": "intersect", "args": []}), "set operation needs at least one operand"),
    (_expr({"op": "union", "args": []}), "set operation needs at least one operand"),
    (_expr({"op": "sym_diff", "args": [{"ref": "A0"}]}), "sym_diff takes exactly two operands"),
], ids=["scale-0", "scale-negative", "intersect-empty", "union-empty", "sym-diff-arity"])
def test_bad_expr_entry_is_parse_error_naming_it(tmp_path, capsys, doc, message):
    assert main(["construct", write_spec(tmp_path, doc)] + FAST) == 2
    assert capsys.readouterr().err == f"error: entry 'E': {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({"family": [_kw()], "schedule": {"ratio": None}},
     "bad schedule: ratio is not a rational: None"),
    ({"family": [_kw()], "schedule": {"ratio": {}}},
     "bad schedule: ratio is not a rational: {}"),
    ({"family": [_kw(), {"name": "C0", "kind": "coded", "sigma": "00"},
                 {"name": "B0", "kind": "block", "classical": ["C0"]}]},
     "entry 'B0' references unknown set ['C0']"),
    (_expr({"ref": ["A0"]}), "entry 'E' references unknown set ['A0']"),
    ({"family": [_kw(), {"name": "T", "kind": "thin-ext", "family": [["A0"]]}]},
     "entry 'T' references unknown set ['A0']"),
    ({"family": [_kw(), {"name": "R", "kind": "random-ext", "family": [{"x": 1}],
                         "distinguished": "A0", "target": "0.5", "seed": 1}]},
     "entry 'R' references unknown set {'x': 1}"),
    ({"family": [{"name": "", "kind": "gap", "target": "0.9", "size": 2}]},
     "entry name must be a nonempty string: ''"),
    ({"family": [{"name": 5, "kind": "gap", "target": "0.9", "size": 2}]},
     "entry name must be a nonempty string: 5"),
], ids=["ratio-null", "ratio-object", "classical-list", "ref-list", "thin-ext-family-list",
        "random-ext-family-object", "gap-name-empty", "gap-name-int"])
def test_wrong_typed_spec_value_is_parse_error_naming_it(tmp_path, capsys, doc, message):
    assert main(["construct", write_spec(tmp_path, doc), "--prefix", "1000"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "2**128"])
@pytest.mark.parametrize("command", [["construct"], ["image"],
                                     ["pack", "--side", "1", "--target", "0.3"]],
                         ids=["construct", "image", "pack"])
def test_random_ext_seed_out_of_range_is_parse_error_naming_it(tmp_path, capsys, command, seed):
    doc = {"family": [_kw(), {"name": "R", "kind": "random-ext", "family": ["A0"],
                              "distinguished": "A0", "target": "0.5", "seed": seed}]}
    argv = [command[0], write_spec(tmp_path, doc), *command[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: entry 'R': seed must be an integer in [0, 2**128)\n")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["construct"],
    ["verify"],
    ["reap", "A1", "A0"],
    ["extend", "--mode", "thin"],
    ["extend", "--mode", "random", "--distinguished", "A1", "--seed", "7"],
], ids=["construct", "verify", "reap", "extend-thin", "extend-random"])
def test_workers_below_one_is_parse_error_naming_it(tmp_path, capsys, command, value):
    argv = [command[0], write_spec(tmp_path, KW3), *command[1:], "--workers", value]
    assert _exit_code(argv) == 2
    assert f"argument --workers: must be at least 1, got {value}" in capsys.readouterr().err
