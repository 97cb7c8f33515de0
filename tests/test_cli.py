import json
import math

import numpy as np
import pytest

from qcorr import OptimizerConfig, cli, correlations, infotheory, states

PAPER_DA = 0.6008760366928562
PAPER_I = 2 * PAPER_DA


def write_state(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def paper_file(tmp_path):
    return write_state(tmp_path, {"kind": "named", "family": "paper_example"})


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStateFiles:
    def test_dense(self, tmp_path):
        doc = {"kind": "dense", "dims": [2, 2],
               "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
        rho = cli.load_state(write_state(tmp_path, doc))
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-12

    def test_pure(self, tmp_path):
        s = 1 / math.sqrt(2)
        doc = {"kind": "pure", "dims": [2, 2],
               "amplitudes": [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]}
        rho = cli.load_state(write_state(tmp_path, doc))
        assert abs(rho.matrix[0, 3].real - 0.5) < 1e-12

    def test_named_with_params(self, tmp_path):
        doc = {"kind": "named", "family": "werner", "params": {"p": 0.0}}
        rho = cli.load_state(write_state(tmp_path, doc))
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-12

    @pytest.mark.parametrize("doc", [
        {"kind": "dense", "dims": [2, 2]},                       # missing matrix
        {"kind": "pure", "dims": [2], "amplitudes": [[1, 0], "x"]},
        {"kind": "mystery", "dims": [2]},
        {"kind": "named", "family": 3},
        "not an object",
    ])
    def test_parse_errors(self, tmp_path, doc):
        with pytest.raises(cli.ParseError):
            if isinstance(doc, dict):
                cli.load_state(write_state(tmp_path, doc))
            else:
                cli.parse_state_spec(doc)


class TestInfo:
    def test_paper_example(self, capsys, paper_file):
        code, out, _ = run(capsys, ["info", paper_file, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert abs(doc["mutual_info"] - PAPER_I) < 1e-9

    def test_bell(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "bell",
                                      "params": {"which": "phi+"}})
        code, out, _ = run(capsys, ["info", path, "--json"])
        assert code == 0
        assert abs(json.loads(out)["mutual_info"] - 2) < 1e-9

    def test_product_state(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "product",
                                      "params": {"bloch": [[0, 0, 1], [1, 0, 0]]}})
        code, out, _ = run(capsys, ["info", path, "--json"])
        assert code == 0
        assert abs(json.loads(out)["mutual_info"]) < 1e-9

    def test_invalid_state_exit_code(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "dense", "dims": [2],
                                      "matrix": [[[1.0, 0], [0, 0]],
                                                 [[0, 0], [0.1, 0]]]})
        code, _, err = run(capsys, ["info", path])
        assert code == 2
        assert "TraceNotOne" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, ["info", "/nonexistent.json"])
        assert code == 2


class TestDiscord:
    def test_paper_example(self, capsys, paper_file):
        code, out, _ = run(capsys, ["discord", paper_file, "--subsystem", "0",
                                    "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["discord"] - PAPER_DA) < 5e-4
        assert "theta" in doc["measurement"]
        assert doc["optimizer_config"]["grid_theta"] == 128

    def test_subsystem_b_bounds(self, capsys, paper_file):
        code, out, _ = run(capsys, ["discord", paper_file, "--subsystem", "1",
                                    "--grid", "64", "--json"])
        doc = json.loads(out)
        assert 0 <= doc["discord"] <= PAPER_I

    def test_werner_zero(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "werner",
                                      "params": {"p": 0.0}})
        code, out, _ = run(capsys, ["discord", path, "--grid", "32", "--json"])
        assert json.loads(out)["discord"] < 1e-9


class TestOverall:
    def test_paper_example(self, capsys, paper_file):
        code, out, _ = run(capsys, ["overall", paper_file, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["q_total"] - 0.8026281100785682) < 1e-3
        assert abs(doc["c_total"] - 0.3991239633071441) < 1e-3
        assert doc["identity_residuals"]["q_plus_c_minus_i"] <= 1e-6

    def test_ghz3(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "ghz",
                                      "params": {"n": 3}})
        code, out, _ = run(capsys, ["overall", path, "--grid", "64", "--json"])
        doc = json.loads(out)
        assert abs(doc["q_total"] - 1) < 1e-4
        assert abs(doc["c_total"] - 2) < 1e-4

    def test_all_orders(self, capsys, paper_file):
        code, out, _ = run(capsys, ["overall", paper_file, "--all-orders",
                                    "--grid", "32", "--json"])
        doc = json.loads(out)
        assert len(doc["orders"]) == 2
        assert "q_discrepancy" in doc

    def test_explicit_order(self, capsys, paper_file):
        code, out, _ = run(capsys, ["overall", paper_file, "--order", "1,0",
                                    "--grid", "32", "--json"])
        assert json.loads(out)["order"] == [1, 0]

    def test_bad_order(self, capsys, paper_file):
        code, _, err = run(capsys, ["overall", paper_file, "--order", "0,0"])
        assert code == 2
        assert "BadOrder" in err

    def test_json_round_trip(self, capsys, paper_file):
        _, out, _ = run(capsys, ["overall", paper_file, "--grid", "32", "--json"])
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) == out.strip()


class TestSweep:
    def test_werner_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "werner", "--start", "0", "--stop", "1",
                                  "--step", "0.25", "--grid", "32",
                                  "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "param,I,D0,D1,Q,C"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert all(abs(v) < 1e-9 for v in first[1:])
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[1] - 2) < 1e-6  # I at p = 1
        assert abs(last[2] - 1) < 1e-4  # D0 at p = 1
        # I is nondecreasing in p
        i_col = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(i_col, i_col[1:]))

    def test_each_row_optimizes_each_subsystem_once(self, capsys, monkeypatch):
        config = OptimizerConfig(grid_theta=16, grid_phi=16)
        expected = ["param,I,D0,D1,Q,C"]
        for p in (0.0, 0.5, 1.0):
            rho = states.named("werner", p=p)
            seq = correlations.sequential_measure(rho, (0, 1), config)
            expected.append(
                f"{p:.12g},{infotheory.mutual_information(rho):.12g},"
                f"{correlations.discord(rho, 0, config):.12g},"
                f"{correlations.discord(rho, 1, config):.12g},"
                f"{seq.q_total:.12g},{seq.c_total:.12g}")
        calls = []
        optimize = correlations.optimize_measurement

        def counting(*args, **kwargs):
            calls.append(args[1])
            return optimize(*args, **kwargs)

        monkeypatch.setattr(correlations, "optimize_measurement", counting)
        code, out, _ = run(capsys, ["sweep", "werner", "--start", "0", "--stop", "1",
                                    "--step", "0.5", "--grid", "16"])
        assert code == 0
        assert out == "\n".join(expected) + "\n"
        assert calls == [0, 1, 1] * 3  # D0 (= step 0), D1, step 1

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, ["sweep", "unknown"])
        assert code == 2


class TestVerify:
    def test_paper_example_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "paper-example"])
        assert code == 0
        assert out.count("PASS") == 3

    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "identities",
                                    "--grid", "64"])
        assert code == 0

    def test_oracle_suite_covers_the_qudit_search(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "oracle"])
        assert code == 0
        assert out.count("PASS") == 2
        assert "PASS oracle pure 3x2" in out

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "nope"])
        assert code == 2


class TestInputErrors:
    @pytest.mark.parametrize("argv, env", [
        (["discord", "{paper}", "--grid", "0"], {}),
        (["discord", "{paper}", "--subsystem", "5"], {}),
        (["discord", "{paper}", "--subsystem", "-1"], {}),
        (["sweep", "werner", "--step", "0"], {}),
        (["discord", "{paper}"], {"QCORR_SEED": "x"}),
        (["discord", "{paper}", "--seed", "-1"], {}),
        (["overall", "{paper}", "--order", "0,x"], {}),
    ])
    def test_exit_code_two(self, capsys, paper_file, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, _, err = run(capsys, [a.format(paper=paper_file) for a in argv])
        assert code == 2
        assert err.startswith("error: ")


class TestDeterminism:
    def test_same_seed_same_output(self, capsys, paper_file):
        _, out1, _ = run(capsys, ["discord", paper_file, "--seed", "5",
                                  "--grid", "32", "--json"])
        _, out2, _ = run(capsys, ["discord", paper_file, "--seed", "5",
                                  "--grid", "32", "--json"])
        assert out1 == out2

    def test_env_seed(self, capsys, paper_file, monkeypatch):
        monkeypatch.setenv("QCORR_SEED", "9")
        _, out, _ = run(capsys, ["discord", paper_file, "--grid", "32", "--json"])
        assert json.loads(out)["optimizer_config"]["seed"] == 9
