import json

import pytest

from ergodecay import VerificationError
from ergodecay.cli import main


def run(tmp_path, name, *args):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    return rc, out


def test_fourier_writes_csv_and_manifest(tmp_path):
    rc, out = run(tmp_path, "f.csv", "fourier", "--family", "squares", "--n", "5", "--grid", "16")
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,re,im,abs"
    assert len(lines) == 17
    manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
    assert manifest["command"] == "fourier"
    assert manifest["config"]["family"] == "squares"
    assert "version" in manifest and "timestamp" in manifest


def test_triviality_json(tmp_path):
    rc, out = run(
        tmp_path, "t.json", "triviality",
        "--family", "perturbed:power:1/4", "--n", "256", "--tol", "1e-3",
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["upper"] - payload["lower"] <= 1e-3
    assert payload["lower"] > 0


def test_triviality_resource_cap_exit_code(tmp_path):
    rc = main([
        "triviality", "--family", "squares", "--n", "256", "--tol", "1e-9",
        "--grid-cap", "65536", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 4


def test_select_squares_stalls_exit_3(tmp_path, capsys):
    rc = main([
        "select", "--family", "squares", "--k", "2", "--cap", "800",
        "--out", str(tmp_path / "s.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "stalled" in err
    assert "best_sup_lower" in err


def test_select_k1_succeeds(tmp_path):
    rc, out = run(tmp_path, "s.json", "select", "--family", "squares", "--k", "1", "--cap", "10")
    assert rc == 0
    state = json.loads(out.read_text())
    assert state["chosen"] == [1]


def test_select_verification_failure_exit_5(tmp_path, monkeypatch):
    import ergodecay.cli as cli_mod

    def boom(family, state):
        raise VerificationError("injected")

    monkeypatch.setattr(cli_mod, "verify_selection", boom)
    rc = main([
        "select", "--family", "squares", "--k", "1", "--cap", "10",
        "--out", str(tmp_path / "s.json"),
    ])
    assert rc == 5


def test_bad_family_exit_2(tmp_path):
    rc = main(["fourier", "--family", "nope", "--n", "3", "--out", str(tmp_path / "f.csv")])
    assert rc == 2


def test_cz_check_runs(tmp_path):
    rc, out = run(tmp_path, "cz.json", "cz-check", "--count", "20", "--lambdas", "5", "--seed", "1")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cases"] == 20
    assert payload["worst_reconstruction_error"] == 0.0


def test_maximal_csv(tmp_path):
    rc, out = run(
        tmp_path, "m.csv", "maximal",
        "--family", "squares", "--indices", "2,4,8", "--seed", "3",
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,levelset_count,ratio"
    assert len(lines) > 1


def test_threshold_audit_csv(tmp_path):
    rc, out = run(
        tmp_path, "th.csv", "threshold-audit",
        "--rho", "power:1/4", "--n-list", "256,512", "--grid", "16384",
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,N,beta,q,branch,value,bound,ratio"
    assert all(",transform," in ln for ln in lines[1:])


def test_residues_csv(tmp_path):
    rc, out = run(
        tmp_path, "r.csv", "residues",
        "--rho", "log:1", "--q", "15", "--n-list", "250000,500000,1000000",
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Q,a,count,density,bound"
    assert len(lines) == 7  # six quadratic residues mod 15


def test_residues_power_class_at_exact_power(tmp_path, capsys):
    # floor(rho(0.5 * 200000)) = 100000^(1/5) = 10 exactly
    rc, _ = run(tmp_path, "r.csv", "residues", "--rho", "power:1/5", "--q", "105",
                "--n-list", "200000")
    assert rc == 0
    assert "r_Q=10 " in capsys.readouterr().out


def test_residues_bad_window_exit_2(tmp_path):
    for rho in ("power:1/4", "log:1"):
        rc, _ = run(tmp_path, "r.csv", "residues", "--rho", rho, "--q", "15",
                    "--n-list", "1000", "--window", "-0.5")
        assert rc == 2


def test_dynsys_trace_csv(tmp_path):
    rc, out = run(
        tmp_path, "d.csv", "dynsys-trace",
        "--system", "cyclic:15", "--f", "table:3",
        "--family", "squares", "--indices", "4,8,16", "--x-samples", "4",
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,n_k,x,re,im,abs,osc_tail"
    assert len(lines) == 1 + 3 * 4


def test_identical_config_byte_identical_data(tmp_path):
    args = ["fourier", "--family", "perturbed:log:1", "--n", "64", "--grid", "128"]
    rc1, out1 = run(tmp_path, "a.csv", *args)
    rc2, out2 = run(tmp_path, "b.csv", *args)
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    # manifests agree except for the timestamp field
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    m1.pop("timestamp")
    m2.pop("timestamp")
    m1["config"].pop("out")
    m2["config"].pop("out")
    assert m1 == m2
