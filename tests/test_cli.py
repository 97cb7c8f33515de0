import dataclasses
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_searches
from qcorr import (OptimizerConfig, cli, correlations, infotheory, optimizer,
                   states)

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
        # JSON booleans are not numbers, though bool is an int to isinstance
        {"kind": "pure", "dims": [2, 2],
         "amplitudes": [[True, 0], [0, 0], [0, False], [0, 0]]},
        {"kind": "dense", "dims": [2],
         "matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"kind": "named", "family": "werner", "params": [0.5]},  # params not an object
        {"kind": "dense", "dims": [1, 2]},
        {"kind": "pure", "dims": [2, 2]},                         # missing amplitudes
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
        assert doc["schema_version"] == "4"
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

    @pytest.mark.parametrize("bloch", [[[0, 0, 1], [0, 0, -1]], [[0, 0, 1], [1, 0, 0]]],
                             ids=["01", "0+"])
    def test_pure_product_entropies_are_not_negative_zero(self, capsys, tmp_path, bloch):
        # they printed as -0 and were written as -0.0
        path = write_state(tmp_path, {"kind": "named", "family": "product",
                                      "params": {"bloch": bloch}})
        code, out, _ = run(capsys, ["info", path])
        assert code == 0
        lines = out.splitlines()
        assert lines[1:4] == ["S(rho_0) = 0", "S(rho_1) = 0", "S(rho)   = 0"]
        code, out, _ = run(capsys, ["info", path, "--json"])
        assert code == 0
        assert "-0.0" not in out
        doc = json.loads(out)
        for s in doc["marginal_entropies"] + [doc["joint_entropy"]]:
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_boolean_amplitudes_exit_two(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "pure", "dims": [2, 2],
                                      "amplitudes": [[True, 0], [0, 0], [0, False], [0, 0]]})
        code, out, err = run(capsys, ["info", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError")

    def test_invalid_state_exit_code(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "dense", "dims": [2],
                                      "matrix": [[[1.0, 0], [0, 0]],
                                                 [[0, 0], [0.1, 0]]]})
        code, _, err = run(capsys, ["info", path])
        assert code == 2
        assert "TraceNotOne" in err

    def test_single_party_state_exit_code(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "pure", "dims": [2],
                                      "amplitudes": [[1.0, 0], [0, 0]]})
        code, out, err = run(capsys, ["info", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: SinglePartyState")

    def test_oversized_named_state_exits_two(self, capsys, tmp_path):
        # 2^40 amplitudes: refused before any allocation
        path = write_state(tmp_path, {"kind": "named", "family": "ghz", "params": {"n": 40}})
        code, out, err = run(capsys, ["info", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParamOutOfRange")

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, ["info", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize("content", [b'\xff\xfe{"kind": "named"}', b"[" * 100000,
                                         b'{"kind": '],
                             ids=["not-utf8", "nested-too-deep", "not-json"])
    def test_unparsable_file_exit_code(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["info", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError: ")


class TestDiscord:
    def test_paper_example(self, capsys, paper_file):
        code, out, _ = run(capsys, ["discord", paper_file, "--subsystem", "0",
                                    "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["discord"] - PAPER_DA) < 5e-4
        assert "theta" in doc["measurement"]
        assert doc["optimizer_config"] == {"restarts": 32, "seed": 0}

    def test_json_schema_four(self, capsys, paper_file):
        code, out, _ = run(capsys, ["discord", paper_file, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["schema_version", "subsystem", "discord", "classical_hv",
                             "measurement", "oracle_gap", "iterations",
                             "optimizer_config"]
        assert doc["schema_version"] == "4"
        assert list(doc["measurement"]) == ["subsystem_dim", "projectors", "theta", "phi"]
        assert doc["optimizer_config"] == dataclasses.asdict(OptimizerConfig())
        assert list(doc["optimizer_config"]) == ["restarts", "seed"]

    def test_qudit_measurement_has_no_angles(self, capsys, tmp_path):
        rho = states.random_density((3, 2), np.random.default_rng(4))
        path = write_state(tmp_path, {"kind": "dense", "dims": [3, 2],
                                      "matrix": [[[x.real, x.imag] for x in row]
                                                 for row in rho.matrix]})
        code, out, _ = run(capsys, ["discord", path, "--restarts", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc["measurement"]) == ["subsystem_dim", "projectors"]
        assert doc["oracle_gap"] is None

    def test_subsystem_b_bounds(self, capsys, paper_file):
        code, out, _ = run(capsys, ["discord", paper_file, "--subsystem", "1", "--json"])
        doc = json.loads(out)
        assert 0 <= doc["discord"] <= PAPER_I

    def test_werner_zero(self, capsys, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "werner",
                                      "params": {"p": 0.0}})
        code, out, _ = run(capsys, ["discord", path, "--json"])
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
        code, out, _ = run(capsys, ["overall", path, "--json"])
        doc = json.loads(out)
        assert abs(doc["q_total"] - 1) < 1e-4
        assert abs(doc["c_total"] - 2) < 1e-4

    def test_all_orders(self, capsys, paper_file):
        code, out, _ = run(capsys, ["overall", paper_file, "--all-orders", "--json"])
        doc = json.loads(out)
        assert len(doc["orders"]) == 2
        assert "q_discrepancy" in doc

    def all_orders_case(self, tmp_path, dims, rng):
        """A random state's file and the --all-orders --json output by the
        recipe of one sequential_measure per order."""
        rho = states.random_density(dims, rng)
        path = write_state(tmp_path, {"kind": "dense", "dims": list(dims),
                                      "matrix": [[[x.real, x.imag] for x in row]
                                                 for row in rho.matrix]})
        rho = cli.load_state(path)
        reports = [correlations.sequential_measure(rho, order)
                   for order in itertools.permutations(range(len(dims)))]
        qs = [r.q_total for r in reports]
        expected = json.dumps({"schema_version": cli.SCHEMA_VERSION,
                               "orders": [cli._sequential_doc(r) for r in reports],
                               "q_discrepancy": max(qs) - min(qs)}, indent=2) + "\n"
        return path, expected

    def test_all_orders_search_step_zero_once_per_subsystem(self, capsys, tmp_path,
                                                           monkeypatch, rng):
        path, expected = self.all_orders_case(tmp_path, (2, 2, 2), rng)
        calls = count_searches(monkeypatch)
        code, out, _ = run(capsys, ["overall", path, "--all-orders", "--json"])
        assert code == 0
        assert out == expected
        # breadth-first, each prefix searched once, those of one length in one
        # batch: 3 + 3 * 2 + 3 * 2 = 15 searches, not 3 * 3! = 18
        assert calls == [0, 1, 2,            # (0,), (1,), (2,)
                         1, 2, 0, 2, 0, 1,   # (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
                         2, 1, 2, 0, 1, 0]   # each order's last step

    def test_all_orders_search_each_prefix_once_on_four_qubits(self, capsys, tmp_path,
                                                              monkeypatch, rng):
        path, expected = self.all_orders_case(tmp_path, (2, 2, 2, 2), rng)
        calls = count_searches(monkeypatch)
        code, out, _ = run(capsys, ["overall", path, "--all-orders", "--json"])
        assert code == 0
        assert out == expected
        prefixes = {order[:t] for order in itertools.permutations(range(4))
                    for t in range(1, 5)}
        assert len(calls) == len(prefixes) == 4 + 12 + 24 + 24

    def test_explicit_order(self, capsys, paper_file):
        code, out, _ = run(capsys, ["overall", paper_file, "--order", "1,0", "--json"])
        assert json.loads(out)["order"] == [1, 0]

    def test_order_and_all_orders_are_exclusive(self, capsys, paper_file):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overall", paper_file, "--order", "1,0", "--all-orders"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bad_order(self, capsys, paper_file):
        code, _, err = run(capsys, ["overall", paper_file, "--order", "0,0"])
        assert code == 2
        assert "BadOrder" in err

    def test_json_round_trip(self, capsys, paper_file):
        _, out, _ = run(capsys, ["overall", paper_file, "--json"])
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) == out.strip()


class TestSweep:
    def test_werner_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "werner", "--start", "0", "--stop", "1",
                                  "--step", "0.25", "--csv", str(csv_path)])
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
        expected = ["param,I,D0,D1,Q,C"]
        for p in (0.0, 0.5, 1.0):
            rho = states.named("werner", p=p)
            seq = correlations.sequential_measure(rho, (0, 1))
            expected.append(
                f"{p:.12g},{infotheory.mutual_information(rho):.12g},"
                f"{correlations.discord(rho, 0):.12g},"
                f"{correlations.discord(rho, 1):.12g},"
                f"{seq.q_total:.12g},{seq.c_total:.12g}")
        calls = count_searches(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "werner", "--start", "0", "--stop", "1",
                                    "--step", "0.5"])
        assert code == 0
        assert out == "\n".join(expected) + "\n"
        assert calls == [0, 1, 1] * 3  # D0 (= step 0), D1, step 1

    @pytest.mark.parametrize("start, stop, step, params", [
        ("0", "1", "0.6", ["0", "0.6"]),
        ("0", "0.5", "0.3", ["0", "0.3"]),
        # 0.3 / 0.1 is 2.9999999999999996 in floats
        ("0", "0.3", "0.1", ["0", "0.1", "0.2", "0.3"]),
    ])
    def test_rows_stop_at_stop(self, capsys, start, stop, step, params):
        code, out, _ = run(capsys, ["sweep", "werner", "--start", start, "--stop", stop,
                                    "--step", step])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == params

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, ["sweep", "unknown"])
        assert code == 2

    def test_an_unwritable_csv_path_exits_two_before_the_sweep(self, capsys, monkeypatch,
                                                               tmp_path):
        calls = count_searches(monkeypatch)
        code, out, err = run(capsys, ["sweep", "werner", "--step", "0.5",
                                      "--csv", str(tmp_path / "missing" / "sweep.csv")])
        assert code == 2
        assert out == ""
        assert err.startswith("error: QcorrError: cannot write ")
        assert calls == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_csv_write_exits_two(self, capsys):
        # /dev/full opens, and every write to it fails with ENOSPC
        code, out, err = run(capsys, ["sweep", "werner", "--step", "0.5", "--csv", "/dev/full"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: QcorrError: cannot write /dev/full: ")
        assert "No space left on device" in err


class TestVerify:
    def test_paper_example_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "paper-example"])
        assert code == 0
        assert out.count("PASS") == 3

    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "identities"])
        assert code == 0

    def test_oracle_suite_covers_the_qudit_search(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "oracle"])
        assert code == 0
        assert out.count("PASS") == 8
        assert "PASS oracle pure 3x2" in out
        assert "PASS oracle rank-2 4x2, 5x2 J = Koashi-Winter closed form" in out
        assert "PASS oracle rank-2 d x 2 J <= Koashi-Winter closed form" in out
        assert "PASS oracle Haar-basis classical-quantum 4x2 D_0 = 0" in out
        assert "PASS oracle pure 2x2 step-1 512x512 grid agreement" in out
        assert "PASS oracle batched searches against solo searches: residual 0.000e+00" in out
        waves = next(line for line in out.splitlines() if "4x2 waves" in line)
        assert waves.startswith("PASS oracle mixed 4x2 waves") and waves.endswith("(tol 1e-11)")
        assert "(and rank-3 5x2)" in waves

    def test_bounds_suite_searches_step_zero_once_per_state(self, capsys, monkeypatch):
        # the suite's output by the recipe that searched subsystem 0 twice
        config = OptimizerConfig()
        rng = np.random.default_rng(config.seed + 1)
        worst_chain, worst_c = 0.0, 0.0
        for _ in range(20):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0, config)
            seq = correlations.sequential_measure(rho, (0, 1), config)
            # 0 <= D_A as J <= I, the unfloored discord, against the I of Q and C
            worst_chain = max(worst_chain, res.j_value - seq.mutual_info,
                              res.discord - seq.q_total, seq.q_total - seq.mutual_info)
            worst_c = max(worst_c, seq.c_total - res.j_value)
        expected = (f"PASS bounds 0 <= D_A <= Q <= I: residual {worst_chain:.3e} (tol 1e-06)\n"
                    f"PASS bounds C <= C_A: residual {worst_c:.3e} (tol 1e-06)\n"
                    "all checks passed\n")
        calls = count_searches(monkeypatch)
        code, out, _ = run(capsys, ["verify", "--suite", "bounds"])
        assert code == 0
        assert out == expected
        assert calls == [0, 1] * 20  # one step-0 search per state, then step 1

    def test_every_suite_passes_at_the_default_config(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "all"])
        assert code == 0
        assert out.count("PASS") == 15 and "FAIL" not in out
        assert out.endswith("all checks passed\n")

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "nope"])
        assert code == 2

    def test_a_failed_check_exits_one(self, capsys, monkeypatch):
        # the identities suite runs as it is, but its Q + C = I check reads a
        # residual above its tolerance
        check = cli._check
        monkeypatch.setattr(cli, "_check", lambda name, residual, tol, failures: check(
            name, 1.0 if name == "identity Q + C = I" else residual, tol, failures))
        code, out, _ = run(capsys, ["verify", "--suite", "identities"])
        assert code == 1
        assert "FAIL identity Q + C = I: residual 1.000e+00 (tol 1e-06)\n" in out
        assert out.count("PASS") == 1
        assert out.endswith("1 check(s) failed\n")


class TestInputErrors:
    @pytest.mark.parametrize("argv, env", [
        (["discord", "{paper}", "--restarts", "0"], {}),
        (["discord", "{paper}", "--subsystem", "5"], {}),
        (["discord", "{paper}", "--subsystem", "-1"], {}),
        (["sweep", "werner", "--step", "0"], {}),
        (["sweep", "werner", "--step", "1e-320"], {}),
        (["discord", "{paper}"], {"QCORR_SEED": "x"}),
        (["discord", "{paper}", "--seed", "-1"], {}),
        (["overall", "{paper}", "--order", "0,x"], {}),
        (["sweep", "werner", "--start", "1", "--stop", "1.5", "--step", "0.25"], {}),
        (["sweep", "werner", "--start", "-0.5", "--stop", "1"], {}),
        (["sweep", "werner", "--start", "1", "--stop", "0"], {}),
        (["overall", "{ghz5}", "--all-orders"], {}),
        (["sweep", "werner", "--step", "1e-300"], {}),
        # above optimizer.MAX_RESTARTS; the paper example's qubit search
        # draws no Haar start, so nothing of that size is allocated
        (["discord", "{paper}", "--restarts", "1000000000"], {}),
        (["overall", "{paper}", "--restarts", "10001"], {}),
    ])
    def test_exit_code_two(self, capsys, tmp_path, paper_file, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        ghz5 = write_state(tmp_path, {"kind": "named", "family": "ghz", "params": {"n": 5}},
                           "ghz5.json")
        code, _, err = run(capsys, [a.format(paper=paper_file, ghz5=ghz5) for a in argv])
        assert code == 2
        assert err.startswith("error: ")

    def test_grid_option_is_gone(self, capsys, paper_file):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["discord", paper_file, "--grid", "16"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --grid 16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unread", [
        (["info", "{paper}"], ["--seed", "1"]),
        (["info", "{paper}"], ["--restarts", "2"]),
        (["sweep", "werner"], ["--json"]),
        (["verify"], ["--json"]),
    ], ids=["info-seed", "info-restarts", "sweep-json", "verify-json"])
    def test_an_option_the_command_does_not_read_is_rejected(self, capsys, paper_file,
                                                             argv, unread):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([a.format(paper=paper_file) for a in argv] + unread)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err

    def test_sweep_start_above_stop_prints_no_rows(self, capsys):
        code, out, err = run(capsys, ["sweep", "werner", "--start", "1", "--stop", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParamOutOfRange: ")


MALFORMED_NAMED = [
    pytest.param("ghz", {"n": "x"}, id="ghz-n-string"),
    pytest.param("ghz", {"m": 3}, id="ghz-unknown-name"),
    pytest.param("werner", {"p": "x"}, id="werner-p-string"),
    pytest.param("werner", {"p": None}, id="werner-p-null"),
    pytest.param("product", {"bloch": [[1, 0]]}, id="product-two-components"),
    pytest.param("product", {"bloch": [0, 0, 1]}, id="product-bare-vector"),
    pytest.param("bell", {"which": ["phi+"]}, id="bell-which-list"),
    pytest.param("maximally_mixed", {"dims": [2, "a"]}, id="maximally_mixed-dims-string"),
]


@pytest.mark.parametrize("family, params", MALFORMED_NAMED)
def test_malformed_named_state_is_an_input_error(capsys, tmp_path, family, params):
    path = write_state(tmp_path, {"kind": "named", "family": family, "params": params})
    code, out, err = run(capsys, ["info", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParamOutOfRange: ")


@pytest.mark.parametrize("matrix", [
    pytest.param([[[1, 0]], [[0, 0], [0, 0]]], id="ragged-rows"),
    pytest.param([1, 2], id="rows-not-lists"),
])
def test_malformed_dense_state_is_an_input_error(capsys, tmp_path, matrix):
    path = write_state(tmp_path, {"kind": "dense", "dims": [2, 2], "matrix": matrix})
    code, out, err = run(capsys, ["info", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


class TestProcessExitCodes:
    """The exit-code contract of `python -m qcorr.cli`, seen from outside."""

    def run_module(self, *argv, stdout=subprocess.PIPE):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "qcorr.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})

    def test_info_exits_zero(self, paper_file):
        proc = self.run_module("info", paper_file)
        assert proc.returncode == 0
        assert proc.stdout.startswith("dims: [2, 2]")
        assert proc.stderr == ""

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # as in `qcorr overall STATE.json | head -3` once head has exited
        path = write_state(tmp_path, {"kind": "named", "family": "ghz",
                                      "params": {"n": 3}})
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_module("overall", path, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["info", "STATE"], ["sweep", "werner", "--step", "0.5"]],
                             ids=["info", "sweep"])
    def test_a_full_stdout_exits_one_with_an_error_line(self, paper_file, argv):
        # as in `qcorr info STATE.json > /dev/full`
        with open("/dev/full", "w") as full:
            proc = self.run_module(*(paper_file if a == "STATE" else a for a in argv),
                                   stdout=full)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert "Traceback" not in proc.stderr

    def test_malformed_named_state_exits_two(self, tmp_path):
        path = write_state(tmp_path, {"kind": "named", "family": "werner",
                                      "params": {"p": None}})
        proc = self.run_module("info", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class _FullStdout(io.StringIO):
    """A standard output on a real file descriptor whose every write fails with ENOSPC."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


def test_an_unwritable_stdout_is_reported_and_pointed_at_devnull(capsys, monkeypatch,
                                                                  paper_file, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FullStdout(fd))
        code = cli.main(["info", paper_file])
        pointed_at = os.fstat(fd)
    finally:
        os.close(fd)
    assert code == 1
    enospc = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"error: cannot write standard output: {enospc}\n"
    assert os.path.samestat(pointed_at, os.stat(os.devnull))


class TestDeterminism:
    def test_same_seed_same_output(self, capsys, paper_file):
        _, out1, _ = run(capsys, ["discord", paper_file, "--seed", "5", "--json"])
        _, out2, _ = run(capsys, ["discord", paper_file, "--seed", "5", "--json"])
        assert out1 == out2

    def test_env_seed(self, capsys, paper_file, monkeypatch):
        monkeypatch.setenv("QCORR_SEED", "9")
        _, out, _ = run(capsys, ["discord", paper_file, "--json"])
        assert json.loads(out)["optimizer_config"]["seed"] == 9
