import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qhdecomp
from qhdecomp import reports
from qhdecomp.cli import main
from qhdecomp.families import FamilySpec, generate
from qhdecomp.graph import from_edge_list, to_edge_list


def run_cli(args, cwd):
    # an absolute path, so the child imports this package from any cwd
    src = os.path.dirname(os.path.dirname(os.path.abspath(qhdecomp.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "qhdecomp.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def test_generate_round_trip(workdir):
    out = workdir / "g.el"
    assert main(["generate", "--kind", "grid_torus", "--params", "5,5", "--out", str(out)]) == 0
    g = from_edge_list(out.read_text())
    assert g.n == 25 and g.edge_count() == 50
    # parse(serialize(G)) = G bit-exactly
    assert to_edge_list(g) == out.read_text()


def test_generated_families_round_trip_bit_exact(workdir):
    specs = [
        FamilySpec("cycle", (13,)),
        FamilySpec("path", (9,)),
        FamilySpec("random_regular", (20, 3), seed=5),
        FamilySpec("d_ary_tree", (2, 3)),
    ]
    for spec in specs:
        g = generate(spec)
        text = to_edge_list(g)
        assert to_edge_list(from_edge_list(text)) == text


def test_stats_distance_pipeline(workdir):
    c = workdir / "c.el"
    t = workdir / "t.el"
    main(["generate", "--kind", "cycle", "--params", "16", "--out", str(c)])
    main(["generate", "--kind", "grid_torus", "--params", "6,6", "--out", str(t)])
    sc, st_ = workdir / "c.json", workdir / "t.json"
    assert main(["stats", "--input", str(c), "--radius", "2", "--out", str(sc)]) == 0
    assert main(["stats", "--input", str(t), "--radius", "2", "--out", str(st_)]) == 0
    for path in (sc, st_):
        doc = json.loads(path.read_text())
        reports.validate_document(doc)
        vec = reports.stat_vector_from_json(doc)
        assert sum(vec.at(1).values()) == 1
    d = workdir / "d.json"
    assert main(["distance", "--a", str(sc), "--b", str(st_), "--out", str(d)]) == 0
    doc = reports.validate_document(json.loads(d.read_text()))
    assert doc["value"]["den"] > 0


def test_atlas_dump(workdir):
    g = workdir / "g.el"
    main(["generate", "--kind", "cycle", "--params", "10", "--out", str(g)])
    s, atlas = workdir / "s.json", workdir / "a.json"
    assert main(["stats", "--input", str(g), "--radius", "1", "--out", str(s),
                 "--dump-atlas", str(atlas)]) == 0
    doc = reports.validate_document(json.loads(atlas.read_text()))
    assert len(doc["entries"]) == 1 and doc["entries"][0]["count"] == 10
    assert doc["entries"][0]["vertices"] == 3


def test_editdist_and_density(workdir):
    a, b, p3 = workdir / "a.el", workdir / "b.el", workdir / "p.el"
    main(["generate", "--kind", "cycle", "--params", "4", "--out", str(a)])
    (workdir / "b.el").write_text("4 2\n0 1\n1 2\n2 3\n")
    main(["generate", "--kind", "path", "--params", "3", "--out", str(p3)])
    out = workdir / "e.json"
    assert main(["editdist", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["value"]["num"], doc["value"]["den"]) == (1, 4)
    dens = workdir / "dens.json"
    assert main(["sparse-density", "--pattern", str(p3), "--input", str(a),
                 "--out", str(dens)]) == 0
    doc = json.loads(dens.read_text())
    assert (doc["value"]["num"], doc["value"]["den"]) == (1, 1)


def test_color_edges_formats(workdir):
    g = workdir / "g.el"
    main(["generate", "--kind", "grid_torus", "--params", "4,4", "--out", str(g)])
    cj, cel = workdir / "c.json", workdir / "c.el"
    assert main(["color-edges", "--input", str(g), "--out", str(cj),
                 "--out-el", str(cel)]) == 0
    doc = reports.validate_document(json.loads(cj.read_text()))
    assert doc["vertex_palette"] == 17
    lines = cel.read_text().splitlines()
    assert lines[0] == "16 4"
    assert all(len(line.split()) == 3 for line in lines[1:])
    # colored stats accept the JSON colors
    s = workdir / "s.json"
    assert main(["stats", "--input", str(g), "--radius", "1", "--colors", str(cj),
                 "--out", str(s)]) == 0


def test_check_quasihom_verdict_json(workdir):
    g = workdir / "g.el"
    main(["generate", "--kind", "cycle", "--params", "12", "--out", str(g)])
    v = workdir / "v.json"
    assert main(["check-quasihom", "--input", str(g), "--epsilon", "1/12",
                 "--lambda", "1/2", "--delta", "1/2", "--radius", "1",
                 "--exact", "--out", str(v)]) == 0
    doc = reports.validate_document(json.loads(v.read_text()))
    assert doc["status"] == "holds_exact"


def test_decompose_verify_pipeline(workdir):
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "kind": "bridged_union",
        "parts": [
            {"kind": "grid_torus", "params": [6, 6]},
            {"kind": "random_regular", "params": [36, 3], "seed": 3},
        ],
        "bridges": 2,
        "seed": 3,
    }))
    g = workdir / "g.el"
    assert main(["generate", "--spec", str(spec), "--out", str(g)]) == 0
    part = workdir / "p.json"
    assert main(["decompose", "--input", str(g), "--delta", "0.1", "--lambda", "0.3",
                 "--kmax", "2", "--signature-radius", "1", "--seed", "0",
                 "--out", str(part)]) == 0
    pdoc = reports.validate_document(json.loads(part.read_text()))
    assert pdoc["K"] == 2 and len(pdoc["deleted_edges"]) == 2
    v = workdir / "v.json"
    assert main(["verify-partition", "--input", str(g), "--partition", str(part),
                 "--delta", "0.1", "--lambda", "0.3", "--epsilon", "0.05",
                 "--radius", "2", "--mode", "heuristic", "--budget", "800",
                 "--out", str(v)]) == 0
    vdoc = reports.validate_document(json.loads(v.read_text()))
    assert vdoc["passed"] is True
    # split diagnostics on the same pair
    rep = workdir / "split.json"
    assert main(["split-diagnostics", "--inputs", str(g), "--partitions", str(part),
                 "--radius", "2", "--out", str(rep)]) == 0
    sdoc = reports.validate_document(json.loads(rep.read_text()))
    assert sdoc["items"][0]["mixture_exact"] is True


def test_convergence_report(workdir):
    specs = workdir / "specs.json"
    specs.write_text(json.dumps({
        "format_version": 1,
        "kind": "family_specs",
        "specs": [{"kind": "grid_torus", "params": [L, L]} for L in (6, 8, 10)],
    }))
    out = workdir / "conv.json"
    assert main(["convergence", "--specs", str(specs), "--radius", "2",
                 "--out", str(out)]) == 0
    doc = reports.validate_document(json.loads(out.read_text()))
    assert all(p["value"]["num"] == 0 for p in doc["pairwise"])
    # a sequence needs at least two specs
    specs.write_text(json.dumps({
        "format_version": 1,
        "kind": "family_specs",
        "specs": [{"kind": "grid_torus", "params": [6, 6]}],
    }))
    lone = workdir / "lone.json"
    assert main(["convergence", "--specs", str(specs), "--radius", "2",
                 "--out", str(lone)]) == 1
    assert not lone.exists()


def test_manifest_written_and_replays(workdir):
    g = workdir / "g.el"
    args = ["generate", "--kind", "random_regular", "--params", "18,3",
            "--seed", "7", "--out", str(g)]
    assert main(args) == 0
    manifest = json.loads((workdir / "g.el.manifest.json").read_text())
    reports.validate_document(manifest)
    assert manifest["subcommand"] == "generate"
    first = g.read_text()
    # replay the recorded argv: outputs must be byte-identical
    assert main(manifest["argv"]) == 0
    assert g.read_text() == first


def test_exit_codes(workdir):
    g1, g2 = workdir / "a.el", workdir / "b.el"
    main(["generate", "--kind", "cycle", "--params", "4", "--out", str(g1)])
    main(["generate", "--kind", "cycle", "--params", "6", "--out", str(g2)])
    # domain error: mismatched vertex sets
    assert main(["editdist", "--a", str(g1), "--b", str(g2)]) == 1
    # usage error: unknown subcommand (argparse exits 2)
    proc = run_cli(["definitely-not-a-command"], cwd=workdir)
    assert proc.returncode == 2


# argv, expected exit code, a word the error message must name
BAD_ARGV = {
    "spec_without_kind": (["generate", "--spec", "nokind.json", "--out", "g.el"], 1, "kind"),
    "cycle_arity": (["generate", "--kind", "cycle", "--params", "3,4", "--out", "g.el"],
                    1, "params"),
    "radius_zero": (["stats", "--input", "c.el", "--radius", "0", "--out", "s.json"],
                    2, "--radius"),
    "negative_budget": (["check-quasihom", "--input", "c.el", "--epsilon", "1/10",
                         "--lambda", "1/2", "--delta", "1/2", "--radius", "1",
                         "--budget", "-5", "--out", "v.json"], 2, "--budget"),
    "kmax_zero": (["decompose", "--input", "c.el", "--delta", "1/10", "--lambda", "3/10",
                   "--kmax", "0", "--signature-radius", "1", "--out", "p.json"], 2, "--kmax"),
    "negative_signature_radius": (["decompose", "--input", "c.el", "--delta", "1/10",
                                   "--lambda", "3/10", "--kmax", "2",
                                   "--signature-radius", "-1", "--out", "p.json"],
                                  2, "--signature-radius"),
    # zero candidates would report a vacuous no_violation_found
    "budget_zero": (["check-quasihom", "--input", "c.el", "--epsilon", "1/10",
                     "--lambda", "1/2", "--delta", "1/2", "--radius", "1",
                     "--budget", "0", "--out", "v.json"], 2, "--budget"),
    # verification needs both; one alone used to skip it silently
    "epsilon_without_radius": (["decompose", "--input", "c.el", "--delta", "1/10",
                                "--lambda", "3/10", "--kmax", "2", "--signature-radius", "1",
                                "--epsilon", "1/20", "--out", "p.json"], 2, "--radius"),
    "radius_without_epsilon": (["decompose", "--input", "c.el", "--delta", "1/10",
                                "--lambda", "3/10", "--kmax", "2", "--signature-radius", "1",
                                "--radius", "2", "--out", "p.json"], 2, "--epsilon"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_arguments_exit_cleanly(workdir, case):
    argv, code, word = BAD_ARGV[case]
    main(["generate", "--kind", "cycle", "--params", "8", "--out", str(workdir / "c.el")])
    (workdir / "nokind.json").write_text(json.dumps({"params": [5]}))
    proc = run_cli(argv, cwd=workdir)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and word in proc.stderr
    assert not any((workdir / out).exists() for out in ("g.el", "s.json", "v.json", "p.json"))


_NUMBERS = ["0", "1", "2", "3", "-1", "-5", "1/2", "1/10", "0.1", "-1/3", "1/0", "x", "", "3,4",
            "8", "1e3"]
_FILES = ["c.el", "t.el", "s.json", "p.json", "specs.json", "spec.json", "missing.el"]
_OUTS = ["o.el", "o.json"]
# flag -> values drawn for it; None marks a bare switch
_FLAGS = {
    "generate": {"--kind": ["cycle", "path", "grid_torus", "random_regular", "nope"],
                 "--params": _NUMBERS + ["8,3", "3,3", "4"], "--seed": _NUMBERS,
                 "--bridges": _NUMBERS, "--spec": _FILES, "--out": _OUTS},
    "stats": {"--input": _FILES, "--radius": _NUMBERS, "--colors": _FILES,
              "--dump-atlas": _OUTS, "--out": _OUTS},
    "distance": {"--a": _FILES, "--b": _FILES, "--out": _OUTS},
    "editdist": {"--a": _FILES, "--b": _FILES, "--out": _OUTS},
    "sparse-density": {"--pattern": _FILES, "--input": _FILES, "--out": _OUTS},
    "color-edges": {"--input": _FILES, "--out": _OUTS, "--out-el": _OUTS},
    "check-quasihom": {"--input": _FILES, "--epsilon": _NUMBERS, "--lambda": _NUMBERS,
                       "--delta": _NUMBERS, "--radius": _NUMBERS, "--exact": None,
                       "--budget": _NUMBERS, "--seed": _NUMBERS, "--out": _OUTS},
    "decompose": {"--input": _FILES, "--delta": _NUMBERS, "--lambda": _NUMBERS,
                  "--kmax": _NUMBERS, "--signature-radius": _NUMBERS, "--seed": _NUMBERS,
                  "--threshold-mode": ["theorem", "proof", "x"], "--epsilon": _NUMBERS,
                  "--radius": _NUMBERS, "--budget": _NUMBERS, "--out": _OUTS},
    "verify-partition": {"--input": _FILES, "--partition": _FILES, "--delta": _NUMBERS,
                         "--lambda": _NUMBERS, "--epsilon": _NUMBERS, "--radius": _NUMBERS,
                         "--mode": ["exact", "heuristic", "x"], "--budget": _NUMBERS,
                         "--seed": _NUMBERS, "--out": _OUTS},
    "split-diagnostics": {"--inputs": _FILES, "--partitions": _FILES, "--radius": _NUMBERS,
                          "--out": _OUTS},
    "convergence": {"--specs": _FILES, "--radius": _NUMBERS, "--out": _OUTS},
}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [sub]
    for flag, values in _FLAGS[sub].items():
        if not draw(st.integers(0, 4)):
            continue  # each flag is left out one time in five
        argv.append(flag)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    return argv


def test_cli_fuzz_exits_cleanly(tmp_path, monkeypatch):
    """Drawn argv lists end in exit 0, 1 or 2, never in an uncaught exception."""
    monkeypatch.chdir(tmp_path)
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet:
        main(["generate", "--kind", "cycle", "--params", "8", "--out", "c.el"])
        main(["generate", "--kind", "grid_torus", "--params", "3,3", "--out", "t.el"])
        main(["stats", "--input", "c.el", "--radius", "2", "--out", "s.json"])
        main(["decompose", "--input", "c.el", "--delta", "1/10", "--lambda", "3/10",
              "--kmax", "2", "--signature-radius", "1", "--out", "p.json"])
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "path", "params": [5]}))
    (tmp_path / "specs.json").write_text(json.dumps({
        "format_version": 1,
        "kind": "family_specs",
        "specs": [{"kind": "cycle", "params": [L]} for L in (6, 8)],
    }))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(_argvs())
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    run()
