import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qhdecomp
from qhdecomp import reports
from qhdecomp.cli import build_parser, main
from qhdecomp.families import FamilySpec, generate
from qhdecomp.graph import from_edge_list, to_edge_list


def run_python(args, cwd, timeout=None):
    # an absolute path, so the child imports this package from any cwd
    src = os.path.dirname(os.path.dirname(os.path.abspath(qhdecomp.__file__)))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=timeout,
    )


def run_cli(args, cwd, timeout=None):
    return run_python(["-m", "qhdecomp.cli", *args], cwd, timeout)


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


def test_generate_spec_reads_integral_floats(workdir):
    # the family_specs schema admits 6.0 as an integer; a bare spec used to refuse it
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"kind": "cycle", "params": [6.0]}))
    a, b = workdir / "a.el", workdir / "b.el"
    assert main(["generate", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["generate", "--kind", "cycle", "--params", "6", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_spec_records_its_seed(workdir):
    # the manifest used to record --seed (default 0) beside the spec's seed 5
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"kind": "random_regular", "params": [12, 3], "seed": 5}))
    out = workdir / "g.el"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    manifest = json.loads((workdir / "g.el.manifest.json").read_text())
    assert manifest["seeds"] == {"seed": 5}
    assert manifest["parameters"]["spec"]["seed"] == 5
    assert out.read_text() == to_edge_list(generate(FamilySpec("random_regular", (12, 3), seed=5)))


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


def test_exact_verdict_runs_without_numpy(workdir):
    # the library needs numpy nowhere: a None entry in sys.modules makes
    # any import of it fail
    (workdir / "g.el").write_text(to_edge_list(generate(FamilySpec("path", (16,)))))
    code = ("import sys; sys.modules['numpy'] = None; from qhdecomp.cli import main; "
            "sys.exit(main(['check-quasihom', '--exact', '--input', 'g.el', '--epsilon', '1/8', "
            "'--lambda', '3/10', '--delta', '1/5', '--radius', '2', '--out', 'v.json']))")
    proc = run_python(["-c", code], cwd=workdir, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((workdir / "v.json").read_text())["candidates_checked"] > 1


def test_coarse_radius_is_noted_on_stderr(workdir, capsys):
    # a verdict at radius R rules out only subsets with d_s > delta + 2 * 2^-R;
    # the three verdict commands say so once when 2^-R >= delta
    g = workdir / "g.el"
    main(["generate", "--kind", "cycle", "--params", "12", "--out", str(g)])
    part = workdir / "p.json"
    main(["decompose", "--input", str(g), "--delta", "1/10", "--lambda", "3/10",
          "--kmax", "2", "--signature-radius", "1", "--out", str(part)])
    common = ["--input", str(g), "--delta", "1/10", "--lambda", "3/10",
              "--epsilon", "1/12", "--budget", "20"]
    for radius, notes in (("3", 1), ("4", 0)):
        for argv in (
            ["check-quasihom", *common, "--radius", radius],
            ["verify-partition", *common, "--radius", radius, "--partition", str(part)],
            ["decompose", *common, "--radius", radius, "--kmax", "2",
             "--signature-radius", "1", "--out", str(workdir / "q.json")],
        ):
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().err.count("note: tail 2^-") == notes, argv


def test_resolution_note_states_what_a_verdict_rules_out(workdir, capsys):
    # d_s exceeds V_R by up to 2^-R and a certificate needs V_R > delta + 2^-R,
    # so an exact verdict rules out only d_s > delta + 2 * 2^-R; the note
    # used to say delta + 2^-R (1/10 + 1/8 = 9/40 here)
    g = workdir / "g.el"
    main(["generate", "--kind", "cycle", "--params", "8", "--out", str(g)])
    capsys.readouterr()
    assert main(["check-quasihom", "--exact", "--input", str(g), "--delta", "1/10",
                 "--lambda", "3/10", "--epsilon", "1/12", "--radius", "3"]) == 0
    err = capsys.readouterr().err
    assert "an exact verdict rules out only subsets with d_s > 7/20" in err
    assert "a heuristic verdict rules out none" in err


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


def test_decompose_signature_radius_zero_pinned(workdir):
    # every radius-0 ball is the root alone; sha256 of the partition file
    # bytes, taken before codes_at_radii keyed its cache by the largest ball
    g = workdir / "g.el"
    assert main(["generate", "--kind", "cycle", "--params", "12", "--out", str(g)]) == 0
    part = workdir / "p.json"
    assert main(["decompose", "--input", str(g), "--delta", "1/10", "--lambda", "3/10",
                 "--kmax", "2", "--signature-radius", "0", "--out", str(part)]) == 0
    digest = hashlib.sha256(part.read_bytes()).hexdigest()
    assert digest == "104e93385f35d99a442024ea4ad296046791503756ddf56fe44b3cacf3f236b5"


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("argv, header", [
    (["coloring_convergence.py", "--sizes", "6,8", "--radius", "2"],
     "pair        plain d_s   colored d_s"),
    (["convergence_experiment.py", "--radius", "1"], "== tori LxL (R=1, tail <= 1/2) =="),
    (["planted_recovery.py", "--seeds", "1"],
     "seed bridges deleted  d_s(part,torus)  d_s(part,regular)  verdict"),
])
def test_experiment_scripts_run(workdir, argv, header):
    proc = run_python([os.path.join(SCRIPTS, argv[0]), *argv[1:]], workdir)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


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


_INPUT_FLAGS = {"--input", "--a", "--b", "--pattern", "--colors", "--partition", "--spec",
                "--specs", "--inputs", "--partitions"}
_OUTPUT_FLAGS = {"--out", "--dump-atlas", "--out-el"}
_THREE_PARAMS = ["--delta", "1/10", "--lambda", "3/10", "--epsilon", "1/12", "--radius", "2",
                 "--budget", "40"]
# one run of every artifact-writing subcommand, its files named in the
# order the run reads and writes them
ARTIFACT_ARGV = {
    "generate": ["generate", "--kind", "random_regular", "--params", "12,3", "--seed", "4",
                 "--out", "o.el"],
    "generate_spec": ["generate", "--spec", "spec.json", "--out", "o.el"],
    "stats": ["stats", "--input", "g.el", "--colors", "k.json", "--radius", "2",
              "--out", "o.json", "--dump-atlas", "a.json"],
    "distance": ["distance", "--a", "s.json", "--b", "t.json", "--out", "o.json"],
    "editdist": ["editdist", "--a", "g.el", "--b", "h.el", "--out", "o.json"],
    "sparse_density": ["sparse-density", "--pattern", "p3.el", "--input", "g.el",
                       "--out", "o.json"],
    "color_edges": ["color-edges", "--input", "g.el", "--out", "o.json", "--out-el", "o.el"],
    "check_quasihom": ["check-quasihom", "--input", "g.el", "--epsilon", "1/12", "--lambda",
                       "1/2", "--delta", "1/2", "--radius", "2", "--budget", "40", "--seed",
                       "3", "--out", "o.json"],
    "decompose": ["decompose", "--input", "g.el", *_THREE_PARAMS, "--kmax", "2",
                  "--signature-radius", "1", "--seed", "2", "--out", "o.json"],
    "decompose_verified": ["decompose", "--input", "g.el", "--delta", "1/10", "--lambda",
                           "3/10", "--kmax", "2", "--signature-radius", "1", "--epsilon",
                           "1/12", "--radius", "2", "--budget", "50", "--out", "o.json"],
    "verify_partition": ["verify-partition", "--input", "g.el", "--partition", "p.json",
                         *_THREE_PARAMS, "--mode", "exact", "--out", "o.json"],
    "split_diagnostics": ["split-diagnostics", "--inputs", "g.el", "--partitions", "p.json",
                          "--radius", "2", "--out", "o.json"],
    "convergence": ["convergence", "--specs", "specs.json", "--radius", "2", "--out", "o.json"],
}


@pytest.fixture(scope="module")
def artifact_inputs(tmp_path_factory):
    """The files every run in ``ARTIFACT_ARGV`` reads."""
    root = tmp_path_factory.mktemp("inputs")
    old = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["generate", "--kind", "cycle", "--params", "12", "--out", "g.el"],
                ["generate", "--kind", "path", "--params", "12", "--out", "h.el"],
                ["generate", "--kind", "path", "--params", "3", "--out", "p3.el"],
                ["color-edges", "--input", "g.el", "--out", "k.json"],
                ["stats", "--input", "g.el", "--radius", "2", "--out", "s.json"],
                ["stats", "--input", "h.el", "--radius", "2", "--out", "t.json"],
                ["decompose", "--input", "g.el", "--delta", "1/10", "--lambda", "3/10",
                 "--kmax", "2", "--signature-radius", "1", "--out", "p.json"],
            ):
                assert main(argv) == 0, argv
    finally:
        os.chdir(old)
    (root / "spec.json").write_text(json.dumps({"kind": "grid_torus", "params": [4, 4]}))
    (root / "specs.json").write_text(json.dumps({
        "format_version": 1,
        "kind": "family_specs",
        "specs": [{"kind": "cycle", "params": [L]} for L in (6, 8, 10)],
    }))
    return root


@pytest.mark.parametrize("case", sorted(ARTIFACT_ARGV))
def test_manifest_lists_files_and_replays(artifact_inputs, tmp_path, monkeypatch, case):
    argv = ARTIFACT_ARGV[case]
    for f in artifact_inputs.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    monkeypatch.chdir(tmp_path)
    inputs = [v for flag, v in zip(argv, argv[1:]) if flag in _INPUT_FLAGS]
    outputs = [v for flag, v in zip(argv, argv[1:]) if flag in _OUTPUT_FLAGS]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    manifest_path = tmp_path / (outputs[0] + ".manifest.json")
    manifest = reports.validate_document(json.loads(manifest_path.read_text()))
    assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)
    assert manifest["argv"] == argv
    # every option parsed from the recorded argv, defaults included, is
    # recorded once: --seed under seeds, the rest under parameters
    options = {k: reports.rational(v) if isinstance(v, Fraction) else v
               for k, v in vars(build_parser().parse_args(manifest["argv"])).items()
               if k not in ("subcommand", "manifest")}
    recorded = {**manifest["parameters"], **manifest["seeds"]}
    assert len(recorded) == len(manifest["parameters"]) + len(manifest["seeds"])
    if manifest["subcommand"] == "generate":
        # in place of the --spec path, the spec the run resolved
        reports.family_specs_from_json(recorded["spec"])
        options["spec"] = recorded["spec"]
    assert recorded == options
    first = {out: (tmp_path / out).read_bytes() for out in outputs}
    for out in outputs:
        (tmp_path / out).unlink()
    manifest_path.unlink()
    # replaying the recorded argv reproduces every output byte for byte
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(manifest["argv"]) == 0
    assert {out: (tmp_path / out).read_bytes() for out in outputs} == first
    again = json.loads(manifest_path.read_text())
    assert {**again, "wall_time_s": None} == {**manifest, "wall_time_s": None}


def test_exit_codes(workdir):
    g1, g2 = workdir / "a.el", workdir / "b.el"
    main(["generate", "--kind", "cycle", "--params", "4", "--out", str(g1)])
    main(["generate", "--kind", "cycle", "--params", "6", "--out", str(g2)])
    # domain error: mismatched vertex sets
    assert main(["editdist", "--a", str(g1), "--b", str(g2)]) == 1
    # usage error: unknown subcommand (argparse exits 2)
    proc = run_cli(["definitely-not-a-command"], cwd=workdir)
    assert proc.returncode == 2


def test_deeply_nested_json_exits_cleanly(workdir):
    # json.loads ended in a RecursionError traceback
    deep = workdir / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli(["distance", "--a", str(deep), "--b", str(deep)], cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: {deep} nests JSON values too deeply to read"]


def test_deeply_nested_specs_exit_cleanly(workdir):
    # json.loads reads these depths; 200 levels build, inside a family_specs
    # document as well as bare (the schema check refused such documents),
    # and 400 levels are too deep to generate and end in one error line
    cycle3 = workdir / "c3.el"
    assert main(["generate", "--kind", "cycle", "--params", "3", "--out", str(cycle3)]) == 0
    for depth in (200, 400):
        spec = '{"kind": "cycle", "params": [3]}'
        for _ in range(depth):
            spec = '{"kind": "disjoint_union", "parts": [' + spec + ']}'
        bare, doc = workdir / f"bare{depth}.json", workdir / f"doc{depth}.json"
        bare.write_text(spec)
        doc.write_text('{"format_version": 1, "kind": "family_specs", "specs": [' + spec
                       + ', {"kind": "cycle", "params": [4]}]}')
        code = 0 if depth == 200 else 1
        for argv, out in (
            (["convergence", "--specs", str(doc), "--radius", "1"], workdir / "c.json"),
            (["generate", "--spec", str(doc)], workdir / "doc.el"),
            (["generate", "--spec", str(bare)], workdir / "bare.el"),
        ):
            out.unlink(missing_ok=True)
            proc = run_cli(argv + ["--out", str(out)], cwd=workdir)
            assert proc.returncode == code, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr
            if code:
                assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
            elif argv[0] == "generate":
                assert out.read_text() == cycle3.read_text()
            else:
                assert json.loads(out.read_text())["sizes"] == [3, 4]


def _spoil_r3(doc):
    doc["R"] = 3


def _swap_layers(doc):
    doc["radii"].reverse()


def _sum_to_5(doc):
    doc["radii"][0]["entries"][0]["num"] *= 5


def _code_twice(doc):
    # two halves of the one radius-1 code: the layer still sums to 1
    entry = doc["radii"][0]["entries"][0]
    entry["num"], entry["den"] = 1, 2
    doc["radii"][0]["entries"].append(dict(entry))


# malformed StatVector documents of cycle(8) at R = 2 and the error each gives
BAD_STAT_VECTORS = {
    "R_exceeds_layers": (_spoil_r3, "R = 3 but 2 radii layers"),
    "layers_swapped": (_swap_layers, "layer 1 is marked r = 2"),
    "sum_is_5": (_sum_to_5, "frequencies sum to 5, not 1"),
    "code_twice": (_code_twice, "lists a code twice"),
}


@pytest.mark.parametrize("case", sorted(BAD_STAT_VECTORS))
def test_malformed_stat_vector_exits_cleanly(workdir, case):
    # these used to end in an IndexError, print d_s = 3/4 between a vector
    # and its own copy, or pass unnoticed
    spoil, message = BAD_STAT_VECTORS[case]
    main(["generate", "--kind", "cycle", "--params", "8", "--out", str(workdir / "c.el")])
    main(["stats", "--input", str(workdir / "c.el"), "--radius", "2",
          "--out", str(workdir / "s.json")])
    doc = json.loads((workdir / "s.json").read_text())
    spoil(doc)
    reports.validate_document(doc)  # the schema alone accepts it
    (workdir / "bad.json").write_text(json.dumps(doc))
    proc = run_cli(["distance", "--a", "bad.json", "--b", "bad.json"], cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert "d_s" not in proc.stdout


def _drop_last_edge(doc):
    doc["edges"].pop()


def _reverse_first_edge(doc):
    e = doc["edges"][0]
    e["u"], e["v"] = e["v"], e["u"]


def _first_edge_twice(doc):
    doc["edges"].append(dict(doc["edges"][0]))


# edge colorings of cycle(8) that do not match its edges, and the error each gives
BAD_COLORINGS = {
    "edge_missing": (_drop_last_edge, "leaves the graph edge (6, 7) uncolored"),
    "edge_reversed": (_reverse_first_edge, "colors (1, 0), which is not an edge u < v"),
    "edge_twice": (_first_edge_twice, "lists an edge twice"),
}


@pytest.mark.parametrize("case", sorted(BAD_COLORINGS))
def test_mismatched_coloring_exits_cleanly(workdir, case):
    # a missing or reversed edge used to end in a KeyError traceback
    spoil, message = BAD_COLORINGS[case]
    main(["generate", "--kind", "cycle", "--params", "8", "--out", str(workdir / "c.el")])
    main(["color-edges", "--input", str(workdir / "c.el"), "--out", str(workdir / "k.json")])
    doc = json.loads((workdir / "k.json").read_text())
    spoil(doc)
    (workdir / "bad.json").write_text(json.dumps(doc))
    proc = run_cli(["stats", "--input", "c.el", "--radius", "2", "--colors", "bad.json",
                    "--out", "s.json"], cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and message in proc.stderr
    assert not (workdir / "s.json").exists()


def test_unencodable_colour_exits_cleanly(workdir):
    # a colour past the code's 16 bits used to end in a struct.error
    (workdir / "t.el").write_text("3 2\n0 1\n0 2\n1 2\n")
    main(["color-edges", "--input", str(workdir / "t.el"), "--out", str(workdir / "k.json")])
    doc = json.loads((workdir / "k.json").read_text())
    doc["edges"][0]["c"] = 70000
    reports.validate_document(doc)  # the schema alone accepts it
    (workdir / "bad.json").write_text(json.dumps(doc))
    proc = run_cli(["stats", "--input", "t.el", "--radius", "1", "--colors", "bad.json",
                    "--out", "s.json"], cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "0..65535" in proc.stderr
    assert not (workdir / "s.json").exists()


def _cycle_and_path_files(workdir, assignment, K, verdict=None):
    """C20 + P20 as ``g.el`` and a partition of it, with no deleted edge,
    as ``p.json``."""
    edges = [(i, (i + 1) % 20) for i in range(20)] + [(i, i + 1) for i in range(20, 39)]
    (workdir / "g.el").write_text("40 2\n" + "".join(f"{u} {v}\n" for u, v in edges))
    doc = {"format_version": 1, "kind": "partition", "n": 40, "K": K,
           "assignment": assignment, "deleted_edges": []}
    if verdict is not None:
        doc["verdict"] = verdict
    (workdir / "p.json").write_text(json.dumps(doc))


_VERIFY = ["verify-partition", "--input", "g.el", "--partition", "p.json", "--delta", "1/10",
           "--lambda", "3/10", "--epsilon", "1/20", "--radius", "4", "--out", "v.json"]
_SPLIT = ["split-diagnostics", "--inputs", "g.el", "--partitions", "p.json", "--radius", "2",
          "--out", "s.json"]


def test_bad_assignments_exit_cleanly(workdir):
    # part 9 with K = 1 used to be skipped: verify-partition passed on part
    # 1 alone, and split-diagnostics failed on the mixture weights
    _cycle_and_path_files(workdir, [1] * 20 + [9] * 20, 1)
    for argv in (_VERIFY, _SPLIT):
        proc = run_cli(argv, cwd=workdir)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "vertex 20 is in part 9, outside 0..1" in proc.stderr
    assert not (workdir / "v.json").exists() and not (workdir / "s.json").exists()
    # split-diagnostics used to end in a traceback on a short assignment
    _cycle_and_path_files(workdir, [1] * 30, 1)
    proc = run_cli(_SPLIT, cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "partition host size mismatch" in proc.stderr
    # the same split with ids in range fails verification without an error
    _cycle_and_path_files(workdir, [1] * 20 + [2] * 20, 2)
    proc = run_cli(_VERIFY, cwd=workdir)
    assert proc.returncode == 0 and "passed: False" in proc.stdout
    (workdir / "v.json").unlink()
    # a declared K of 10^9 on the 3-vertex path used to loop over every part
    (workdir / "g.el").write_text("3 2\n0 1\n1 2\n")
    (workdir / "p.json").write_text(json.dumps({
        "format_version": 1, "kind": "partition", "n": 3, "K": 10 ** 9,
        "assignment": [1, 1, 1], "deleted_edges": []}))
    for argv in (_VERIFY, _SPLIT):
        proc = run_cli(argv, cwd=workdir, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "K = 1000000000 parts" in proc.stderr
    assert not (workdir / "v.json").exists() and not (workdir / "s.json").exists()


def test_malformed_embedded_verdict_exits_cleanly(workdir):
    verdict = {"format_version": 1, "kind": "partition_verdict"}
    _cycle_and_path_files(workdir, [1] * 20 + [2] * 20, 2, verdict)
    proc = run_cli(_VERIFY, cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "partition_verdict" in proc.stderr
    assert not (workdir / "v.json").exists()


_QUASIHOM = ["check-quasihom", "--input", "e.el", "--epsilon", "1/10", "--lambda", "1/2",
             "--delta", "1/2", "--radius", "1", "--out", "v.json"]
# runs on the empty graph `0 3` and the K = 0 partition decompose gives it
EMPTY_GRAPH_ARGV = {
    "verify_partition": ["verify-partition", "--input", "e.el", "--partition", "p.json",
                         "--delta", "1/10", "--lambda", "3/10", "--epsilon", "1/20",
                         "--radius", "2", "--out", "v.json"],
    "split_diagnostics": ["split-diagnostics", "--inputs", "e.el", "--partitions", "p.json",
                          "--radius", "2", "--out", "s.json"],
    "check_quasihom": _QUASIHOM,
    "check_quasihom_exact": _QUASIHOM + ["--exact"],
}


@pytest.mark.parametrize("case", sorted(EMPTY_GRAPH_ARGV))
def test_empty_graph_exits_cleanly(workdir, case):
    # verify-partition and split-diagnostics used to end in a ZeroDivisionError
    # traceback, and check-quasihom without --exact printed a vacuous
    # no_violation_found
    (workdir / "e.el").write_text("0 3\n")
    assert main(["decompose", "--input", str(workdir / "e.el"), "--delta", "1/10",
                 "--lambda", "3/10", "--kmax", "2", "--signature-radius", "1",
                 "--out", str(workdir / "p.json")]) == 0
    proc = run_cli(EMPTY_GRAPH_ARGV[case], cwd=workdir)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "empty graph" in proc.stderr
    assert not (workdir / "v.json").exists() and not (workdir / "s.json").exists()


# argv, expected exit code, a word the error message must name
BAD_ARGV = {
    "spec_without_kind": (["generate", "--spec", "nokind.json", "--out", "g.el"], 1,
                          "'required'"),
    "cycle_arity": (["generate", "--kind", "cycle", "--params", "3,4", "--out", "g.el"],
                    1, "params"),
    # `true` used to be written as the vertex count `True`
    "spec_bool_param": (["generate", "--spec", "bool.json", "--out", "g.el"], 1, "family spec"),
    # used to reach rng.sample and exit with its untyped message
    "spec_negative_bridges": (["generate", "--spec", "bridges.json", "--out", "g.el"],
                              1, "$.bridges"),
    # --bridges never changed a run, and union kinds need parts, which only
    # --spec supplies
    "generate_bridges": (["generate", "--kind", "cycle", "--params", "7", "--bridges", "3",
                          "--out", "g.el"], 2, "--bridges"),
    "generate_union_kind": (["generate", "--kind", "bridged_union", "--out", "g.el"],
                            2, "--kind"),
    "radius_zero": (["stats", "--input", "c.el", "--radius", "0", "--out", "s.json"],
                    2, "--radius"),
    # codes hold radii up to 255; --radius 300000 used to run out of memory
    "radius_beyond_code": (["stats", "--input", "c.el", "--radius", "256", "--out", "s.json"],
                           1, "radius too large to encode"),
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


# commands on the edge list `-2 2`
NEGATIVE_VERTEX_ARGV = {
    "stats": ["stats", "--input", "neg.el", "--radius", "2", "--out", "s.json"],
    "decompose": ["decompose", "--input", "neg.el", "--delta", "1/10", "--lambda", "3/10",
                  "--kmax", "2", "--signature-radius", "1", "--out", "p.json"],
    "check_quasihom": ["check-quasihom", "--input", "neg.el", "--epsilon", "1/10",
                       "--lambda", "1/2", "--delta", "1/2", "--radius", "1",
                       "--out", "v.json"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_VERTEX_ARGV))
def test_negative_vertex_count_exits_cleanly(workdir, case):
    # n = -2 used to end stats in an IndexError and decompose in a
    # ZeroDivisionError, and check-quasihom never ended; the timeout makes
    # such a hang fail the test
    (workdir / "neg.el").write_text("-2 2\n")
    proc = run_cli(NEGATIVE_VERTEX_ARGV[case], cwd=workdir, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "negative vertex count" in proc.stderr
    assert not any((workdir / out).exists() for out in ("s.json", "p.json", "v.json"))


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_arguments_exit_cleanly(workdir, case):
    argv, code, word = BAD_ARGV[case]
    main(["generate", "--kind", "cycle", "--params", "8", "--out", str(workdir / "c.el")])
    (workdir / "nokind.json").write_text(json.dumps({"params": [5]}))
    (workdir / "bool.json").write_text(json.dumps({"kind": "path", "params": [True]}))
    (workdir / "bridges.json").write_text(json.dumps({
        "kind": "bridged_union", "parts": [{"kind": "cycle", "params": [3]}] * 2, "bridges": -1,
    }))
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
    "generate": {"--kind": ["cycle", "path", "grid_torus", "random_regular", "bridged_union",
                            "nope"],
                 "--params": _NUMBERS + ["8,3", "3,3", "4"], "--seed": _NUMBERS,
                 "--spec": _FILES, "--out": _OUTS},
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
