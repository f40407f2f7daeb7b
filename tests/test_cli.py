import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsecore import Formula, from_dimacs, from_edge_list, to_dimacs, to_edge_list
from sparsecore.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sample_round_trips(tmp_path, capsys):
    out_file = tmp_path / "f.cnf"
    code, _ = run_cli(capsys, "sample", "--kind", "sat", "--n", "12", "--r", "3",
                      "--alpha", "1.0", "--seed", "7", "--out", str(out_file))
    assert code == 0
    formula = from_dimacs(out_file.read_text())
    assert formula.order == 12

    code, out = run_cli(capsys, "sample", "--kind", "hypergraph", "--n", "10", "--r", "2",
                        "--alpha", "1.5", "--seed", "7")
    assert code == 0
    graph, r = from_edge_list(out)
    assert graph.order == 10 and r == 2


def test_threshold_output(capsys):
    code, out = run_cli(capsys, "threshold", "--r", "3")
    assert code == 0
    alpha_line, y_line = out.strip().splitlines()
    assert abs(float(alpha_line.split("=")[1]) - 1.2277) < 1e-3
    assert float(y_line.split("=")[1]) > 0


def test_core_command(tmp_path, capsys, f_pair):
    path = tmp_path / "in.cnf"
    path.write_text(to_dimacs(f_pair))
    code, out = run_cli(capsys, "core", "--kind", "sat", "--in", str(path))
    assert code == 0
    assert "core order = 3" in out and "core size  = 2" in out and "core excess = 1" in out

    gpath = tmp_path / "in.hg"
    from sparsecore import Hypergraph
    tree = Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    gpath.write_text(to_edge_list(tree, 2))
    code, out = run_cli(capsys, "core", "--kind", "hypergraph", "--k", "2",
                        "--in", str(gpath))
    assert code == 0
    assert "core order = 0" in out and "core excess = 0" in out

    path.write_text(to_dimacs(Formula(3, [(1, 2, 3), (1, -2, 3)])))  # 1 is pure
    code, out = run_cli(capsys, "core", "--kind", "sat", "--in", str(path))
    assert code == 0
    assert "core order = 0" in out and "core excess = 0" in out


def test_catalog_and_predict_commands(tmp_path, capsys):
    cat_file = tmp_path / "cat.json"
    code, out = run_cli(capsys, "catalog", "--kind", "sat", "--r", "3",
                        "--max-excess", "1", "--out", str(cat_file))
    assert code == 0 and "complete=True" in out
    data = json.loads(cat_file.read_text())
    assert data["format_version"] == 1 and len(data["entries"]) == 1

    json_out = tmp_path / "exp.json"
    code, out = run_cli(capsys, "predict", "--catalog", str(cat_file), "--event", "pl-fail",
                        "--smax", "1", "--n", "30", "--alpha", "0.8",
                        "--json", str(json_out))
    assert code == 0
    assert "p_1(a) = 2/3*a^2" in out
    assert "1.422222e-02" in out
    payload = json.loads(json_out.read_text())
    assert payload["terms"]["1"] == [[2, "2/3"]]


def test_catalog_reports_a_budget_hit(tmp_path, capsys):
    cat_file = tmp_path / "cat.json"
    code, out = run_cli(capsys, "catalog", "--kind", "sat", "--r", "3",
                        "--max-excess", "3", "--out", str(cat_file))
    assert code == 30
    assert out.startswith("catalog: budget exceeded (sat cell (order 9, size 6)")
    assert len(out.strip().splitlines()) == 1
    assert not cat_file.exists()


def test_catalog_and_predict_report_invalid_parameters_in_one_line(tmp_path, capsys):
    cat_file = tmp_path / "cat.json"
    for argv in (("--r", "3", "--max-excess", "2", "--order-cap", "2"), ("--r", "2")):
        code, out = run_cli(capsys, "catalog", "--kind", "sat", "--max-excess", "1", *argv,
                            "--out", str(cat_file))
        assert code == 2 and out.startswith("catalog: ")
        assert len(out.strip().splitlines()) == 1
    assert not cat_file.exists()
    run_cli(capsys, "catalog", "--kind", "sat", "--r", "3", "--max-excess", "2",
            "--out", str(cat_file))
    for argv in (("--event", "pl-fail", "--smax", "3"), ("--event", "kcore", "--smax", "1")):
        code, out = run_cli(capsys, "predict", "--catalog", str(cat_file), *argv)
        assert code == 2 and out.startswith("predict: ")
        assert len(out.strip().splitlines()) == 1


NO_ITEMS_ENTRY = {"order": 3, "size": 2, "excess": 1, "aut_count": 48, "iso_key": "x",
                  "flags": {}}
SAT_CATALOG = {"format_version": 1, "kind": "sat", "r": 3, "k": None, "max_excess": 1,
               "order_cap": 3, "size_cap": 2, "complete": True, "entries": []}
INPUT_FILES = {"miscounted": "p cnf 3 2\n1 2 3 0\n", "not_json": "not json\n",
               "graph": "3 2 2\n1 2\n2 3\n", "one_vertex_edge": "3 1 1\n2\n",
               "no_kind": json.dumps({"format_version": 1, "entries": []}),
               "no_items": json.dumps({"format_version": 1, "kind": "sat",
                                       "entries": [NO_ITEMS_ENTRY]}),
               "cnf": "p cnf 3 1\n1 2 3 0\n",
               "catalog": json.dumps(SAT_CATALOG),
               "unknown_flag": json.dumps({**SAT_CATALOG, "entries": [
                   {**NO_ITEMS_ENTRY, "clauses": [[1, 2, 3], [-1, -2, -3]],
                    "flags": {"is_bogus": True}}]}),
               "clauses_not_list": json.dumps({**SAT_CATALOG, "entries": [
                   {**NO_ITEMS_ENTRY, "clauses": 5}]}),
               "array": json.dumps([SAT_CATALOG])}


@pytest.mark.parametrize("argv", [
    ("threshold", "--r", "2"),
    ("sample", "--kind", "sat", "--n", "5", "--r", "3", "--alpha", "100", "--seed", "1"),
    ("core", "--kind", "sat", "--in", "{miscounted}"),
    ("core", "--kind", "sat", "--in", "{missing}"),
    ("solve", "--in", "{miscounted}"),
    ("mc", "rate", "--kind", "pl-fail", "--n", "10", "--r", "3", "--alpha", "0.5",
     "--trials", "10", "--seed", "1", "--catalog", "{not_json}"),
    ("catalog", "--kind", "hypergraph", "--r", "2", "--max-excess", "1", "--out", "{out}"),
    ("core", "--kind", "hypergraph", "--in", "{graph}"),
    ("solve", "--kind", "hypergraph", "--in", "{graph}"),
    ("mc", "rate", "--kind", "pl-fail", "--n", "10", "--r", "3", "--alpha", "0.5",
     "--trials", "10", "--seed", "1", "--catalog", "{no_kind}"),
    ("predict", "--catalog", "{no_items}", "--event", "pl-fail", "--smax", "1"),
    ("mc", "rate", "--kind", "kcore", "--n", "20", "--r", "2", "--k", "0", "--alpha", "1",
     "--trials", "10", "--seed", "1"),
    ("mc", "validate", "--kind", "coloring", "--n", "10", "--r", "2", "--k", "0",
     "--alpha", "1", "--trials", "0", "--seed", "1"),
    ("core", "--kind", "sat", "--k", "3", "--in", "{cnf}"),
    ("solve", "--k", "3", "--in", "{cnf}"),
    ("catalog", "--kind", "sat", "--r", "3", "--k", "5", "--max-excess", "1", "--out", "{out}"),
    ("predict", "--catalog", "{catalog}", "--event", "pl-fail", "--smax", "1", "--n", "30",
     "--json", "{out}"),
    ("predict", "--catalog", "{catalog}", "--event", "pl-fail", "--smax", "1", "--alpha",
     "0.5", "--json", "{out}"),
    ("predict", "--catalog", "{unknown_flag}", "--event", "pl-fail", "--smax", "1"),
    ("mc", "rate", "--kind", "pl-fail", "--n", "10", "--r", "3", "--alpha", "0.5",
     "--trials", "10", "--seed", "1", "--catalog", "{clauses_not_list}"),
    ("predict", "--catalog", "{array}", "--event", "pl-fail", "--smax", "1"),
    ("predict", "--catalog", "{catalog}", "--event", "pl-fail", "--smax", "1", "--n", "0",
     "--alpha", "0.5", "--json", "{out}"),
    ("mc", "rate", "--kind", "pl-fail", "--n", "0", "--r", "3", "--alpha", "0.5",
     "--trials", "10", "--seed", "1"),
    ("mc", "census", "--kind", "pl-fail", "--n", "0", "--r", "3", "--alpha", "0.5",
     "--trials", "10", "--seed", "1"),
    ("solve", "--kind", "hypergraph", "--k", "2", "--in", "{one_vertex_edge}"),
    ("sample", "--kind", "sat", "--n", "5", "--r", "3", "--alpha", "nan", "--seed", "1"),
], ids=["threshold-r2", "sample-p-above-1", "core-miscounted-header", "core-missing-file",
        "solve-miscounted-header", "mc-catalog-not-json", "catalog-no-k", "core-no-k",
        "solve-no-k", "mc-catalog-no-kind", "predict-catalog-no-items", "mc-rate-k-zero",
        "mc-validate-k-zero", "core-sat-k", "solve-sat-k", "catalog-sat-k", "predict-n-only",
        "predict-alpha-only", "predict-catalog-unknown-flag", "mc-catalog-clauses-not-list",
        "predict-catalog-array", "predict-n-zero", "mc-rate-n-zero", "mc-census-n-zero",
        "solve-one-vertex-edge", "sample-alpha-nan"])
def test_invalid_input_is_reported_in_one_line(tmp_path, capsys, argv):
    paths = {name: str(tmp_path / name) for name in (*INPUT_FILES, "missing", "out")}
    for name, text in INPUT_FILES.items():
        Path(paths[name]).write_text(text)
    code, out = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out.startswith(f"{argv[0]}: ")
    assert len(out.strip().splitlines()) == 1
    assert not Path(paths["out"]).exists()


def test_solve_exit_codes(tmp_path, capsys, f_pair, complete3):
    sat_path = tmp_path / "sat.cnf"
    sat_path.write_text(to_dimacs(f_pair))
    code, out = run_cli(capsys, "solve", "--in", str(sat_path))
    assert code == 10
    assert "s SATISFIABLE" in out and out.count("v ") == 1

    unsat_path = tmp_path / "unsat.cnf"
    unsat_path.write_text(to_dimacs(complete3))
    code, out = run_cli(capsys, "solve", "--in", str(unsat_path), "--emit-muf")
    assert code == 20
    assert "s UNSATISFIABLE" in out and "max_satisfied 7" in out
    assert "p cnf 3 8" in out

    code, out = run_cli(capsys, "solve", "--in", str(unsat_path), "--budget", "1")
    assert code == 30


def test_solve_coloring(tmp_path, capsys, k4):
    path = tmp_path / "k4.hg"
    path.write_text(to_edge_list(k4, 2))
    code, out = run_cli(capsys, "solve", "--in", str(path), "--kind", "hypergraph",
                        "--k", "3", "--emit-muf")
    assert code == 20
    assert "s NOT COLORABLE" in out
    code, out = run_cli(capsys, "solve", "--in", str(path), "--kind", "hypergraph",
                        "--k", "4")
    assert code == 10
    assert out.count("v ") == 4


def test_mc_commands(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code, out = run_cli(capsys, "mc", "rate", "--kind", "pl-fail", "--n", "20", "--r", "3",
                        "--alpha", "1.0", "--trials", "400", "--seed", "3",
                        "--json", str(json_out), "--csv", str(csv_out))
    assert code == 0
    assert "rate =" in out
    report = json.loads(json_out.read_text())
    assert report["trials"] == 400
    assert csv_out.read_text().startswith("config,statistic,value")

    cat_file = tmp_path / "cat.json"
    run_cli(capsys, "catalog", "--kind", "hypergraph", "--r", "2", "--k", "3",
            "--max-excess", "2", "--out", str(cat_file))
    code, out = run_cli(capsys, "mc", "census", "--kind", "kcore", "--n", "20", "--r", "2",
                        "--k", "3", "--alpha", "2.5", "--trials", "2000", "--seed", "3",
                        "--catalog", str(cat_file))
    assert code == 0
    assert "census:" in out and "expected failures" in out

    code, out = run_cli(capsys, "mc", "validate", "--kind", "sat", "--n", "8", "--r", "3",
                        "--alpha", "1.0", "--trials", "200", "--seed", "3")
    assert code == 0
    assert "agreement_rate = 1.0" in out


def test_mc_reports_refusals_in_one_line(capsys):
    # past the group-table cap there is no full-formula catalog for the census
    code, out = run_cli(capsys, "mc", "census", "--kind", "pl-fail", "--n", "20", "--r", "8",
                        "--alpha", "0.5", "--trials", "10", "--seed", "1")
    assert code == 30
    assert out.startswith("mc: budget exceeded (sat cell (order 8, size 2)")
    assert len(out.strip().splitlines()) == 1

    code, out = run_cli(capsys, "mc", "rate", "--kind", "kcore", "--n", "20", "--r", "2",
                        "--alpha", "0.5", "--trials", "10", "--seed", "1")
    assert code == 2
    assert out == "mc: kind 'kcore' needs k\n"

    # the auto catalog holds excess 1 only, so it cannot exclude below excess 3
    code, out = run_cli(capsys, "mc", "census", "--kind", "pl-fail", "--n", "20", "--r", "3",
                        "--alpha", "0.5", "--trials", "10", "--seed", "1",
                        "--exclude-below-excess", "3")
    assert code == 2
    assert out == "mc: excluding cores below excess 3 needs a complete catalog through excess 2\n"


def test_mc_refuses_options_a_mode_ignores(tmp_path, capsys):
    cat_file = tmp_path / "cat.json"
    run_cli(capsys, "catalog", "--kind", "sat", "--r", "3", "--max-excess", "1",
            "--out", str(cat_file))
    common = ("--n", "10", "--r", "3", "--alpha", "1.0", "--trials", "20", "--seed", "1")
    for argv in (("rate", "--kind", "pl-fail", "--exclude-below-excess", "2"),
                 ("validate", "--kind", "sat", "--exclude-below-excess", "2"),
                 ("validate", "--kind", "sat", "--catalog", str(cat_file)),
                 ("rate", "--kind", "pl-fail", "--r", "4", "--catalog", str(cat_file))):
        code, out = run_cli(capsys, "mc", *argv[:3], *common, *argv[3:])
        assert code == 2 and out.startswith("mc: ")
        assert len(out.strip().splitlines()) == 1


def test_mc_rate_reports_a_refused_catalog(tmp_path, capsys):
    # past the group-table cap the rate is still measured, with no prediction
    json_out = tmp_path / "report.json"
    code, out = run_cli(capsys, "mc", "rate", "--kind", "pl-fail", "--n", "20", "--r", "8",
                        "--alpha", "0.5", "--trials", "10", "--seed", "1",
                        "--json", str(json_out))
    assert code == 0
    assert "catalog_refused = sat cell (order 8, size 2)" in out
    report = json.loads(json_out.read_text())
    assert "predicted" not in report
    assert report["catalog_refused"].startswith("sat cell (order 8, size 2)")

    json_out = tmp_path / "plain.json"
    run_cli(capsys, "mc", "rate", "--kind", "pl-fail", "--n", "20", "--r", "3",
            "--alpha", "0.5", "--trials", "10", "--seed", "1", "--json", str(json_out))
    assert "catalog_refused" not in json.loads(json_out.read_text())


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run(
        [sys.executable, "-m", "sparsecore.cli", "mc", "rate", "--kind", "pl-fail",
         "--n", "20", "--r", "3", "--alpha", "0.5", "--trials", "10", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "trials = 10" in result.stdout
    result = subprocess.run([sys.executable, "-m", "sparsecore.cli", "mc"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert "usage:" in result.stderr
