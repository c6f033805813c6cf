import json

import pytest

from ergodecay import VerificationError
from ergodecay.cli import main

from helpers import CLI_COMMANDS


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


def test_manifest_names_each_subcommand(tmp_path):
    for name, args in CLI_COMMANDS.items():
        rc, _ = run(tmp_path, f"{name}.dat", *args)
        assert rc == 0
        manifest = json.loads((tmp_path / f"{name}.dat.manifest.json").read_text())
        assert manifest["command"] == args[0]


def test_failing_command_writes_no_manifest(tmp_path):
    # an empty N list is a config error
    rc, _ = run(tmp_path, "w.csv", "weyl-audit", "--grid", "8", "--n", "")
    assert rc == 2
    assert not (tmp_path / "w.csv.manifest.json").exists()


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


@pytest.mark.parametrize(
    "args",
    [
        ["weyl-audit", "--grid", "0", "--n", "8"],
        ["weyl-audit", "--n", "1"],
        ["weyl-audit", "--grid", "8", "--n", ""],
        ["fourier", "--family", "squares", "--n", "4", "--grid", "1"],
        ["fourier", "--family", "squares", "--n", "0"],
        ["triviality", "--family", "squares", "--n", "4", "--tol", "0"],
        ["triviality", "--family", "squares", "--n", "4", "--tol", "nan"],
        ["triviality", "--family", "squares", "--n", "4", "--grid-cap", "1"],
        ["select", "--family", "squares", "--k", "0", "--cap", "10"],
        ["select", "--family", "squares", "--k", "2", "--cap", "3", "--sup-tol", "nan"],
        ["select", "--family", "perturbed:power:0.142857", "--k", "1", "--cap", "4"],
        ["maximal", "--family", "squares", "--indices", "0"],
        ["maximal", "--family", "squares", "--indices", ""],
        ["dynsys-trace", "--system", "cyclic:15", "--f", "trig:1", "--family", "squares",
         "--indices", ""],
        ["dynsys-trace", "--system", "rotation:1/0", "--f", "trig:1", "--family", "squares",
         "--indices", "4"],
        ["dynsys-trace", "--system", "cyclic:15", "--f", "trig:1", "--family", "squares",
         "--indices", "4", "--x-samples", "0"],
        ["dynsys-trace", "--system", "cyclic:15", "--f", "indicator:0:1",
         "--family", "squares", "--indices", "4,8", "--x-samples", "2"],
        ["threshold-audit", "--rho", "power:1/4", "--n-list", "0", "--grid", "1024"],
        ["threshold-audit", "--rho", "power:1/4", "--n-list", "64", "--grid", "1"],
        ["threshold-audit", "--rho", "power:1/4", "--n-list", ""],
        ["threshold-audit", "--rho", "power:1/4", "--n-list", "64", "--grid", "1024",
         "--row-betas", "0"],
        ["threshold-audit", "--rho", "power:1/4", "--n-list", "64", "--grid", "1024",
         "--row-betas", "-3"],
        ["residues", "--rho", "log:1", "--q", "15", "--n-list", ""],
        ["residues", "--rho", "logpow:400", "--q", "15", "--n-list", "1000"],
    ],
    ids=lambda args: " ".join(args),
)
def test_out_of_range_argument_exit_2(tmp_path, capsys, args):
    out = tmp_path / "x.dat"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()
    assert not (tmp_path / "x.dat.manifest.json").exists()


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


def test_summary_lines_report_shape_threshold(tmp_path, capsys):
    # the paper's shape assumptions hold for x >= x0; logpow:4 from x0 = e^r+ - 1
    rc, _ = run(tmp_path, "th.csv", "threshold-audit", "--rho", "logpow:4",
                "--n-list", "256", "--grid", "4096")
    assert rc == 0
    assert ", shape from x0=38.8906 -> " in capsys.readouterr().out
    rc, _ = run(tmp_path, "r.csv", "residues", "--rho", "log:1", "--q", "15",
                "--n-list", "1000")
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith(" shape from x0=0")


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


def test_residues_N_below_1_exit_2(tmp_path):
    for n_list in ("0", "-5"):
        rc, out = run(tmp_path, "r.csv", "residues", "--rho", "log:1", "--q", "15",
                      "--n-list", n_list)
        assert rc == 2
        assert not out.exists()


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
