import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epa.cli import main
from epa.generator import GeneratorSpec, generate, random_weights
from epa.instances import MAX_VERTICES, serialize_instance
from epa.reports import ROWS
from small_graphs import cycle_graph, path_graph


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "tree.epa"
    p.write_text(serialize_instance(path_graph(6)))
    return str(p)


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.epa"
    p.write_text(serialize_instance(cycle_graph(5)))
    return str(p)


def test_solve_tree_exact(tree_file, capsys):
    assert main(["solve", "--problem", "vc", "--param", "fvs", "--input", tree_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "3" and out["feasible"] is True


def test_solve_unparseable(tmp_path, capsys):
    p = tmp_path / "bad.epa"
    p.write_text("p epa 2 1\ne 1 1\n")
    assert main(["solve", "--problem", "vc", "--param", "fvs", "--input", str(p)]) == 1


def test_solve_unsupported_pair(c5_file):
    assert main(["solve", "--problem", "tp", "--param", "fvs", "--input", c5_file]) == 2


def test_verify_c5_coloring(c5_file, capsys):
    rc = main(["verify", "--problem", "col", "--param", "oct", "--input", c5_file, "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["bound_value"] == "3"  # 2 + OPT_OCT(C5) = 3


def test_verify_over_budget(tmp_path):
    p = tmp_path / "big.epa"
    p.write_text(serialize_instance(path_graph(13)))
    rc = main(["verify", "--problem", "vc", "--param", "fvs", "--input", str(p)])
    assert rc == 3


def test_verify_tp_on_cocluster(tmp_path, capsys):
    from epa.generator import GeneratorSpec, generate
    from fractions import Fraction

    g, _ = generate(GeneratorSpec("cocluster", 9, 0, Fraction(1, 2), 31))
    p = tmp_path / "cc.epa"
    p.write_text(serialize_instance(g))
    rc = main(["verify", "--problem", "tp", "--param", "ccluster", "--input", str(p), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True and out["value"] == out["opt"]


def test_gen_solve_pipeline(tmp_path, capsys):
    inst = tmp_path / "gen.epa"
    rc = main(
        ["gen", "--class", "split", "--n", "9", "--k", "1", "--density", "1/2",
         "--seed", "5", "--out", str(inst)]
    )
    assert rc == 0
    sidecar = json.loads((tmp_path / "gen.epa.json").read_text())
    assert sidecar["base"] == "split" and len(sidecar["planted"]) == 1
    rc = main(["verify", "--problem", "vc", "--param", "split", "--input", str(inst), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.epa"
    b = tmp_path / "b.epa"
    for target in (a, b):
        assert main(
            ["gen", "--class", "cograph", "--n", "10", "--k", "2", "--seed", "77",
             "--out", str(target)]
        ) == 0
    assert a.read_text() == b.read_text()


def test_oracle_command(c5_file, capsys):
    assert main(["oracle", "--problem", "col", "--input", c5_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["opt"] == "3"
    assert main(["oracle", "--problem", "lp", "--input", c5_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["opt"] == "5/2"
    assert main(["oracle", "--modulator", "split", "--input", c5_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == "1"


def test_oracle_unknown_modulator_class_exits_2(c5_file, capsys):
    """An unknown modulator class is an unsupported class, as in ``gen``
    and ``bench``: exit code 2 and one ``error:`` line."""
    assert main(["oracle", "--modulator", "interval", "--input", c5_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no modulator oracle for class 'interval'\n"


@pytest.mark.parametrize("weighted", [False, True])
def test_oracle_modulator_k_matches_verify(weighted, tmp_path, capsys):
    g, _ = generate(GeneratorSpec("cograph", 7, 2, Fraction(1, 2), 1))
    path = tmp_path / "g.epa"
    path.write_text(serialize_instance(g, random_weights(g.n, 1) if weighted else None))
    for row in ROWS:
        argv = ["--problem", row.problem, "--input", str(path), "--json"]
        assert main(["verify", "--param", row.param] + argv) == 0
        k_verify = json.loads(capsys.readouterr().out)["k_oracle"]
        assert main(["oracle", "--modulator", row.modulator] + argv) == 0
        assert json.loads(capsys.readouterr().out)["k"] == k_verify, (row.problem, row.param)


def test_bench_csv_and_determinism(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = ["bench", "--classes", "cluster,bipartite", "--n", "8", "--k", "0,1",
            "--seeds", "0:3", "--density", "1/2"]
    assert main(args + ["--csv", str(out1)]) == 0
    assert main(args + ["--csv", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("seed,class,n,k_planted")
    assert len(lines) > 1
    # every EPA row passes
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[9] == "1"


def test_bench_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["bench", "--classes", "cluster", "--n", "8", "--k", "0",
                 "--seeds", "", "--csv", str(out)]) == 0
    assert out.read_text().strip() == "seed,class,n,k_planted,k_oracle,alg,value,opt,bound,pass,micros"


def test_verify_vc_fvs_c4(tmp_path, capsys):
    p = tmp_path / "c4.epa"
    p.write_text(serialize_instance(cycle_graph(4)))
    rc = main(["verify", "--problem", "vc", "--param", "fvs", "--input", str(p), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True and out["bound_value"] == "3"  # OPT 2 + FVS 1


def test_verify_cchordal_tightness_family(tmp_path, capsys):
    from epa.generator import chained_triangle_complement

    h = chained_triangle_complement(3)
    p = tmp_path / "fig.epa"
    p.write_text(serialize_instance(h))
    rc = main(["verify", "--problem", "col", "--param", "cchordal", "--input", str(p), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["bound_value"] == "5"  # 2*chi + k - 1 = 2*3 + 0 - 1
    assert out["value"] == "5"        # greedy is driven to exactly 2n - 1


def test_solve_every_supported_pair(tmp_path, capsys):
    from epa.reports import ROWS
    from epa.generator import GeneratorSpec, generate
    from fractions import Fraction

    g, _ = generate(GeneratorSpec("split", 8, 1, Fraction(3, 5), 12))
    assert g.is_connected()
    p = tmp_path / "all.epa"
    p.write_text(serialize_instance(g))
    for row in ROWS:
        rc = main(["solve", "--problem", row.problem, "--param", row.param, "--input", str(p),
                   "--json"])
        assert rc == 0, row
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True, row


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--class", "split", "--n", "5", "--out", "{missing}/x.epa"],
        ["gen", "--class", "split", "--n", "5", "--density", "abc"],
        ["bench", "--classes", "split", "--n", "5", "--density", "abc"],
        ["gen", "--class", "split", "--n", "-3"],
        ["bench", "--classes", "split", "--n", "x"],
        ["gen", "--class", "split", "--n", "5", "--density", "1/0"],
        ["gen", "--class", "split", "--n", "4", "--density", "3/2"],
        ["bench", "--classes", "split", "--n", "4", "--density", "-1"],
        # vc_fvs raises RecursionError below (an input too deep)
        ["solve", "--problem", "vc", "--param", "fvs", "--input", "{graph}"],
    ],
)
def test_bad_input_is_one_error_line(argv, tmp_path, capsys, monkeypatch):
    def too_deep(g, w):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("epa.reports.vc_fvs", too_deep)
    graph = tmp_path / "p6.epa"
    graph.write_text(serialize_instance(path_graph(6)))
    argv = [a.format(missing=tmp_path / "missing", graph=graph) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_vertex_count_above_the_cap_exits_1(tmp_path, capsys):
    """A ``p`` line above ``MAX_VERTICES`` is a parse error, raised before
    any per-vertex allocation."""
    p = tmp_path / "big.epa"
    p.write_text(f"p epa {MAX_VERTICES + 1} 0\n")
    assert main(["solve", "--problem", "vc", "--param", "fvs", "--input", str(p)]) == 1
    assert capsys.readouterr().err == \
        f"error: line 1: vertex count {MAX_VERTICES + 1} above the limit {MAX_VERTICES}\n"


def test_gen_above_the_cap_exits_1(capsys):
    """``gen`` refuses what ``solve`` would refuse to parse, before it
    builds anything."""
    assert main(["gen", "--class", "edgeless", "--n", str(MAX_VERTICES + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: vertex count {MAX_VERTICES + 1} above the limit {MAX_VERTICES}\n"


def test_import_loads_only_the_standard_library():
    """``import epa, epa.cli`` adds no module beyond epa and the standard
    library.  Modules loaded before the import (site hooks) are ignored."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import epa, epa.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - {'epa'} - sys.stdlib_module_names))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert got.stdout == "[]\n"


def test_benchmark_tracer_finds_every_traced_name():
    """Every function the benchmark tracer (``bench/tracer.py``) wraps
    still exists, so deleting one fails here and not only in a traced
    benchmark run.  Runs in a subprocess, since ``install`` rebinds the
    package's functions."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import importlib.util\n"
        "import epa, epa.cli\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(root / 'bench' / 'tracer.py')!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "t.uninstall()\n"
        "print(t.missing)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert got.stdout == "[]\n"


def test_repeated_calls_keep_no_state(tree_file, tmp_path, capsys):
    """One call's options do not leak into the next call of ``main``."""
    argv = ["solve", "--problem", "vc", "--param", "fvs", "--input", tree_file]
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "3"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "value: 3"
    p = tmp_path / "p8.epa"
    p.write_text(serialize_instance(path_graph(8)))
    argv = ["verify", "--problem", "vc", "--param", "fvs", "--input", str(p)]
    assert main(argv + ["--oracle-budget", "5"]) == 3
    assert main(argv) == 0
    assert "pass: yes" in capsys.readouterr().out


def test_commands_are_looked_up_at_call_time(tree_file, monkeypatch):
    """A command rebound after a first call is the one the next call runs."""
    argv = ["solve", "--problem", "vc", "--param", "fvs", "--input", tree_file]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr("epa.cli.cmd_solve", lambda args: seen.append(args.input) or 7)
    assert main(argv) == 7
    assert seen == [tree_file]


HELP_DIGESTS = {
    "": "421f4554963efe1d012b875aca571fba90ff0609f4fadddd09fb511d711a3119",
    "solve": "f8e32caa8f41061e4097ed889422c67544d64dd3350a05a0c3f2721c8c105f83",
    "verify": "123451a631e756d2210bc367942160b87a1d768fdce9a54d4871b7f9d31c8c68",
    "bench": "0d9704997effb088ac89b2d8feb5168d83b8ca80c53bb51a424004ef0bc960fc",
    "gen": "40e18d70d666bfbd4a54d2235c1fad1e55a54c80f5395523873673ad22517f7c",
    "oracle": "61fa84591c7bd94b8fc85d6e52dc731cf766c9517d371893b1700b18aeb80df7",
}
USAGE_ERROR_DIGEST = "34a69e69fff42836edef75a3b482d36007bf4d1749b0e7d66b91172840b97472"


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_pinned(command, capsys, monkeypatch):
    """The ``--help`` text of ``epa`` and of each subcommand, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


def test_usage_error_pinned(capsys, monkeypatch):
    """An argparse usage error exits with code 2 and the same stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["solve", "--problem", "vc", "--param", "nope", "--input", "x"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert hashlib.sha256(captured.err.encode()).hexdigest() == USAGE_ERROR_DIGEST
