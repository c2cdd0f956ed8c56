import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import povmkit as pk
from povmkit import serialize as ser
from povmkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def coin_flip_file(tmp_path):
    path = tmp_path / "coin_flip.json"
    ser.save_povm(path, pk.coin_flip_povm())
    return str(path)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    ser.save_states(path, [("up", np.diag([1.0, 0.0]))])
    return str(path)


@pytest.fixture
def regions_file(tmp_path):
    path = tmp_path / "regions.json"
    payload = {
        "schema": 1,
        "regions": [
            {
                "id": "upper",
                "space": {"kind": "sphere"},
                "caps": [{"axis": [0.0, 0.0, 1.0], "angle": np.pi / 2}],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidate:
    def test_pass(self, capsys, coin_flip_file):
        code, out, _ = run_cli(capsys, "validate", coin_flip_file)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_fail_non_psd(self, capsys, tmp_path):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        bad = pk.FinitePOVM(
            dim=2,
            space=pk.FiniteLabels(2),
            entries=((0, (np.eye(2) + 1.5 * x) / 2), (1, (np.eye(2) - 1.5 * x) / 2)),
        )
        path = tmp_path / "bad.json"
        ser.save_povm(path, bad)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert min(report["psd_margins"]) < -1e-3

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "error" in json.loads(err)

    def test_nan_sphere_point_is_input_error(self, capsys, tmp_path):
        c, _ = pk.named_family("spin")
        entries = (((0.0, 0.0, 1.0), np.diag([1.0, 0.0])), ((0.0, 0.0, -1.0), np.diag([0.0, 1.0])))
        data = ser.povm_to_dict(pk.FinitePOVM(dim=2, space=c.space, entries=entries))
        data["entries"][0]["point"] = [float("nan"), 0.0, 1.0]
        path = tmp_path / "nan_point.json"
        path.write_text(json.dumps(data))  # the NaN literal, which json reads back
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "NaN" in json.loads(err)["error"]

    def test_tolerance_override(self, capsys, coin_flip_file):
        code, _, _ = run_cli(
            capsys, "validate", coin_flip_file, "--tolerance", "psd=1e-6"
        )
        assert code == 0

    def test_unknown_tolerance_key(self, capsys, coin_flip_file):
        code, _, err = run_cli(
            capsys, "validate", coin_flip_file, "--tolerance", "nope=1"
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    @pytest.mark.parametrize("key", ["psd", "complete", "gap"])
    def test_non_finite_or_negative_tolerance(self, capsys, coin_flip_file, key, value):
        code, out, err = run_cli(
            capsys, "validate", coin_flip_file, "--tolerance", f"{key}={value}"
        )
        assert code == 2
        assert out == ""
        assert key in json.loads(err)["error"]


class TestToleranceKeys:
    """Each command takes only the ``--tolerance`` keys it reads."""

    @pytest.mark.parametrize("command, key", [
        ("validate", "gap"), ("extremal", "psd"), ("extremal", "complete"),
        ("decompose", "psd"), ("decompose", "complete"),
    ])
    def test_key_the_command_does_not_read_is_input_error(
        self, capsys, coin_flip_file, command, key
    ):
        code, out, err = run_cli(capsys, command, coin_flip_file, "--tolerance", f"{key}=0.5")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"].startswith(f"unknown tolerance {key!r}")

    @pytest.mark.parametrize("command, pair", [
        ("validate", "psd=1e-6"), ("validate", "complete=1e-6"),
        ("extremal", "gap=1e-7"), ("decompose", "gap=1e-7"),
    ])
    def test_key_the_command_reads(self, capsys, coin_flip_file, command, pair):
        code, out, _ = run_cli(capsys, command, coin_flip_file, "--tolerance", pair)
        assert code == 0 and out


class TestExtremal:
    def test_coin_flip_verdict(self, capsys, coin_flip_file):
        code, out, _ = run_cli(capsys, "extremal", coin_flip_file)
        assert code == 0
        assert json.loads(out) == {"extremal": False, "kernel_dim": 4}

    def test_sic_verdict(self, capsys, tmp_path):
        path = tmp_path / "sic.json"
        ser.save_povm(path, pk.sic_tetrahedron_povm())
        code, out, _ = run_cli(capsys, "extremal", str(path))
        assert code == 0
        assert json.loads(out) == {"extremal": True, "kernel_dim": 0}

    def test_non_povm_is_input_error(self, capsys, tmp_path):
        half = 0.7 * np.eye(2, dtype=complex)
        path = tmp_path / "not_povm.json"
        entries = ((0, half), (1, half))
        ser.save_povm(path, pk.FinitePOVM(dim=2, space=pk.FiniteLabels(2), entries=entries))
        code, out, err = run_cli(capsys, "extremal", str(path))
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)


    @pytest.mark.parametrize("gap", ["nan", "inf", "-1", "0", "1"])
    def test_gap_outside_unit_interval_is_input_error(self, capsys, coin_flip_file, gap):
        code, out, err = run_cli(capsys, "extremal", coin_flip_file, "--tolerance", f"gap={gap}")
        assert code == 2
        assert out == ""
        assert "gap" in json.loads(err)["error"]


class TestDecompose:
    @pytest.mark.parametrize("max_terms", ["0", "-3"])
    def test_max_terms_below_one_is_input_error(self, capsys, coin_flip_file, max_terms):
        code, out, err = run_cli(capsys, "decompose", coin_flip_file, "--max-terms", max_terms)
        assert code == 2
        assert out == ""
        assert "max_terms" in json.loads(err)["error"]

    def test_coin_flip(self, capsys, coin_flip_file, tmp_path):
        out_path = tmp_path / "decomp.json"
        code, out, _ = run_cli(
            capsys, "decompose", coin_flip_file, "-o", str(out_path)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["terms"] == 2
        assert np.allclose(sorted(summary["weights"]), [0.5, 0.5])
        # round-trip: emitted file re-loads and every leaf validates
        data = json.loads(out_path.read_text())
        back = ser.decomposition_from_dict(data)
        for _, leaf in back.terms:
            assert pk.validate_povm(leaf).passed

    def test_output_overwrite_guard(self, capsys, coin_flip_file):
        code, _, err = run_cli(
            capsys, "decompose", coin_flip_file, "-o", coin_flip_file
        )
        assert code == 2
        assert "overwrite" in json.loads(err)["error"]

    def test_budget_exceeded_is_failed_check(self, capsys, tmp_path, rng):
        p = pk.random_povm(rng, 3, 10)
        path = tmp_path / "hard.json"
        ser.save_povm(path, p)
        code, _, err = run_cli(
            capsys, "decompose", str(path), "--max-terms", "8"
        )
        assert code == 1
        assert "check_failed" in json.loads(err)

    def test_non_povm_is_input_error(self, capsys, tmp_path):
        half = 0.7 * np.eye(2, dtype=complex)
        path = tmp_path / "not_povm.json"
        entries = ((0, half), (1, half))
        ser.save_povm(path, pk.FinitePOVM(dim=2, space=pk.FiniteLabels(2), entries=entries))
        out_path = tmp_path / "decomp.json"
        code, out, err = run_cli(capsys, "decompose", str(path), "-o", str(out_path))
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)
        assert not out_path.exists()


class TestEquiv:
    def test_deterministic(self, capsys, state_file, regions_file):
        code, out, _ = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "det", "--tol", "1e-6",
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_diff"] <= 1e-6
        assert report["rows"][0]["state_id"] == "up"

    def test_montecarlo_needs_seed(self, capsys, state_file, regions_file):
        code, _, err = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "mc",
        )
        assert code == 2

    def test_montecarlo(self, capsys, state_file, regions_file):
        code, out, _ = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "mc",
            "--budget", "20000", "--seed", "3",
        )
        assert code == 0
        assert "se" in json.loads(out)["rows"][0]

    def test_montecarlo_seed_beyond_64_bits_is_input_error(
        self, capsys, state_file, regions_file, tmp_path
    ):
        out_path = tmp_path / "never.json"
        code, out, err = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "mc", "--seed", str(2**64 + 3),
            "-o", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "2**64" in json.loads(err)["error"]
        assert not out_path.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_not_finite_nonnegative_is_input_error(
        self, capsys, state_file, regions_file, tol
    ):
        code, out, err = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "mc", "--budget", "100", "--seed", "3",
            "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "--tol" in json.loads(err)["error"]

    @pytest.mark.parametrize("tol, expected", [("0", 1), ("1", 0)])
    def test_tol_bounds_are_thresholds(self, capsys, state_file, regions_file, tol, expected):
        code, out, _ = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", "mc", "--budget", "100", "--seed", "3",
            "--tol", tol,
        )
        assert code == expected
        assert json.loads(out)["budget"] == 100

    @pytest.mark.parametrize("mode, budget", [
        ("det", "0"), ("det", "-5"), ("mc", "0"), ("mc", "-5"), ("mc", "1"),
    ])
    def test_budget_too_small_is_input_error(
        self, capsys, state_file, regions_file, mode, budget
    ):
        code, out, err = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", state_file,
            "--regions", regions_file, "--mode", mode, "--budget", budget, "--seed", "3",
        )
        assert (code, out) == (2, "")
        assert "budget" in json.loads(err)["error"]

    def test_phase_family(self, capsys, tmp_path):
        states = tmp_path / "s.json"
        ser.save_states(states, [("plus", np.full((2, 2), 0.5))])
        regions = tmp_path / "r.json"
        regions.write_text(json.dumps({
            "schema": 1,
            "regions": [{"space": {"kind": "circle"}, "arcs": [[0.0, np.pi]]}],
        }))
        code, out, _ = run_cli(
            capsys,
            "equiv", "--family", "phase:2", "--states", str(states),
            "--regions", str(regions), "--tol", "1e-9",
        )
        assert code == 0

    def test_bad_family(self, capsys, state_file, regions_file):
        code, _, _ = run_cli(
            capsys,
            "equiv", "--family", "banana", "--states", state_file,
            "--regions", regions_file,
        )
        assert code == 2

    @pytest.mark.parametrize("family", ["phase:1", "phase:17"])
    def test_invalid_dimension_is_input_error(
        self, capsys, state_file, regions_file, family
    ):
        code, _, err = run_cli(
            capsys,
            "equiv", "--family", family, "--states", state_file,
            "--regions", regions_file,
        )
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("mode", ["det", "mc"])
    @pytest.mark.parametrize("arc", ["[NaN, 1.0]", "[0.0, Infinity]"])
    def test_non_finite_arc_is_input_error(self, capsys, tmp_path, mode, arc):
        # a NaN row would print invalid JSON and pass --tol (NaN > tol is False)
        states = tmp_path / "s.json"
        ser.save_states(states, [("plus", np.full((2, 2), 0.5))])
        regions = tmp_path / "r.json"
        regions.write_text('{"regions": [{"space": {"kind": "circle"}, "arcs": [%s]}]}' % arc)
        code, out, err = run_cli(
            capsys,
            "equiv", "--family", "phase:2", "--states", str(states),
            "--regions", str(regions), "--mode", mode, "--seed", "3", "--tol", "1e-9",
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "arc endpoints must be finite" in json.loads(err)["error"]

    @pytest.mark.parametrize("mode", ["det", "mc"])
    def test_state_dimension_mismatch_is_input_error(self, capsys, tmp_path, regions_file,
                                                     mode):
        states = tmp_path / "qutrit.json"
        ser.save_states(states, [("mm", np.eye(3) / 3)])
        code, out, err = run_cli(
            capsys,
            "equiv", "--family", "spin", "--states", str(states),
            "--regions", regions_file, "--mode", mode, "--seed", "3",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "state dimension 3 != POVM dimension 2"


class TestSample:
    def test_direct_deterministic(self, capsys, state_file, tmp_path):
        out1 = tmp_path / "a.ndjson"
        out2 = tmp_path / "b.ndjson"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys,
                "sample", "--family", "spin", "--direct", "--state", state_file,
                "-n", "500", "--seed", "7", "-o", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_scheme_records_roundtrip(self, capsys, state_file, tmp_path):
        out = tmp_path / "two_stage.ndjson"
        code, _, _ = run_cli(
            capsys,
            "sample", "--family", "spin", "--scheme", "--state", state_file,
            "-n", "200", "--seed", "9", "-o", str(out),
        )
        assert code == 0
        recs = ser.read_records(out)
        assert recs.i is not None and recs.x is not None
        assert len(recs) == 200

    def test_direct_phase_deterministic(self, capsys, tmp_path):
        state = tmp_path / "state3.json"
        ser.save_states(state, [("rho", pk.random_density_matrix(np.random.default_rng(3), 3))])
        outs = [tmp_path / "a.ndjson", tmp_path / "b.ndjson"]
        for out in outs:
            code, _, _ = run_cli(
                capsys,
                "sample", "--family", "phase:3", "--direct", "--state", str(state),
                "-n", "500", "--seed", "7", "-o", str(out),
            )
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_dimension_mismatch_is_input_error(self, capsys, state_file, tmp_path):
        out = tmp_path / "mismatch.ndjson"
        code, _, err = run_cli(
            capsys,
            "sample", "--family", "phase:3", "--direct", "--state", state_file,
            "-n", "10", "--seed", "1", "-o", str(out),
        )
        assert code == 2
        assert json.loads(err)["error"] == "state dimension 2 != POVM dimension 3"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--direct", "--scheme"])
    def test_non_psd_state_is_input_error(self, capsys, tmp_path, mode):
        state = tmp_path / "z.json"
        ser.save_states(state, [("z", np.diag([1.0, -1.0]))])
        out = tmp_path / "never.ndjson"
        code, stdout, err = run_cli(
            capsys,
            "sample", "--family", "spin", mode, "--state", str(state),
            "-n", "10", "--seed", "1", "-o", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "not positive semidefinite" in json.loads(err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--direct", "--scheme"])
    def test_seed_beyond_64_bits_is_input_error(self, capsys, state_file, tmp_path, mode):
        # 2**64 + 5 would write the bytes of --seed 5
        out = tmp_path / "never.ndjson"
        code, stdout, err = run_cli(
            capsys,
            "sample", "--family", "spin", mode, "--state", state_file,
            "-n", "10", "--seed", str(2**64 + 5), "-o", str(out),
        )
        assert (code, stdout) == (2, "")
        assert "2**64" in json.loads(err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--direct", "--scheme"])
    def test_zero_draws_is_input_error(self, capsys, state_file, tmp_path, mode):
        out = tmp_path / "empty.ndjson"
        code, _, err = run_cli(
            capsys,
            "sample", "--family", "spin", mode, "--state", state_file,
            "-n", "0", "--seed", "1", "-o", str(out),
        )
        assert code == 2
        assert "error" in json.loads(err)
        assert not out.exists()


class TestGof:
    def test_same_law(self, capsys, state_file, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        for out, mode, seed in ((a, "--direct", "11"), (b, "--scheme", "12")):
            run_cli(
                capsys,
                "sample", "--family", "spin", mode, "--state", state_file,
                "-n", "20000", "--seed", seed, "-o", str(out),
            )
        code, out, _ = run_cli(
            capsys, "gof", "--a", str(a), "--b", str(b), "--bins", "sphere12",
            "--alpha", "0.001",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dof"] == 11

    def test_alpha_rejection_exit_one(self, capsys, tmp_path, state_file):
        mixed = tmp_path / "mixed_state.json"
        ser.save_states(mixed, [("mm", np.eye(2) / 2)])
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        run_cli(capsys, "sample", "--family", "spin", "--direct", "--state",
                state_file, "-n", "50000", "--seed", "1", "-o", str(a))
        run_cli(capsys, "sample", "--family", "spin", "--direct", "--state",
                str(mixed), "-n", "50000", "--seed", "2", "-o", str(b))
        code, out, _ = run_cli(
            capsys, "gof", "--a", str(a), "--b", str(b), "--bins", "sphere12",
            "--alpha", "0.001",
        )
        assert code == 1
        assert json.loads(out)["p_value"] < 1e-6

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0", "1"])
    def test_alpha_outside_unit_interval_is_input_error(self, capsys, tmp_path, state_file, alpha):
        # two different laws: p is far below any alpha in (0, 1)
        mixed = tmp_path / "mixed_state.json"
        ser.save_states(mixed, [("mm", np.eye(2) / 2)])
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        for state, path, seed in ((state_file, a, "1"), (str(mixed), b, "2")):
            run_cli(capsys, "sample", "--family", "spin", "--direct", "--state", state,
                    "-n", "5000", "--seed", seed, "-o", str(path))
        code, out, err = run_cli(
            capsys, "gof", "--a", str(a), "--b", str(b), "--bins", "sphere12", "--alpha", alpha
        )
        assert code == 2
        assert out == ""
        assert "--alpha" in json.loads(err)["error"]

    def test_one_bin_is_input_error(self, capsys, tmp_path, state_file):
        recs = tmp_path / "a.ndjson"
        run_cli(capsys, "sample", "--family", "spin", "--direct", "--state", state_file,
                "-n", "100", "--seed", "1", "-o", str(recs))
        whole = tmp_path / "whole.json"
        whole.write_text(json.dumps({"schema": 1, "regions": [
            {"space": {"kind": "sphere"}, "caps": [{"axis": [0.0, 0.0, 1.0], "angle": np.pi}]}
        ]}))
        code, out, err = run_cli(
            capsys, "gof", "--a", str(recs), "--b", str(recs), "--bins", str(whole)
        )
        assert (code, out) == (2, "")
        assert "two bins" in json.loads(err)["error"]

    def test_malformed_records_is_input_error(self, capsys, tmp_path, state_file):
        # two-stage records from which one apparatus index was dropped
        good = tmp_path / "good.ndjson"
        run_cli(capsys, "sample", "--family", "spin", "--scheme", "--state", state_file,
                "-n", "2000", "--seed", "3", "-o", str(good))
        lines = good.read_text().splitlines()
        lines[9] = lines[9].replace('"i":0,', "").replace('"i":1,', "")
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "gof", "--a", str(good), "--b", str(bad), "--bins", "sphere12"
        )
        assert code == 2
        assert "bad.ndjson:10: missing 'i'" in json.loads(err)["error"]

    def test_preset_on_wrong_space_is_input_error(self, capsys, tmp_path):
        state = tmp_path / "state3.json"
        ser.save_states(state, [("mm", np.eye(3) / 3)])
        paths = []
        for mode, seed in (("--direct", "1"), ("--scheme", "2")):
            path = tmp_path / f"circle{seed}.ndjson"
            code, _, _ = run_cli(
                capsys, "sample", "--family", "phase:3", mode, "--state", str(state),
                "-n", "2000", "--seed", seed, "-o", str(path),
            )
            assert code == 0
            paths.append(str(path))
        code, out, err = run_cli(
            capsys, "gof", "--a", paths[0], "--b", paths[1], "--bins", "sphere12"
        )
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @staticmethod
    def regions(path, regions):
        path.write_text(json.dumps({"schema": 1, "regions": regions}))
        return str(path)

    def test_region_bins_on_wrong_space_is_input_error(self, capsys, tmp_path):
        state = tmp_path / "state3.json"
        ser.save_states(state, [("mm", np.eye(3) / 3)])
        circle = []
        for seed in ("1", "2"):
            path = tmp_path / f"circle{seed}.ndjson"
            run_cli(capsys, "sample", "--family", "phase:3", "--direct", "--state", str(state),
                    "-n", "3000", "--seed", seed, "-o", str(path))
            circle.append(str(path))
        labels = [str(tmp_path / f"labels{k}.ndjson") for k in range(2)]
        rng = np.random.default_rng(8)
        for path in labels:
            with open(path, "w") as fh:
                fh.writelines(f'{{"omega":{k}}}\n' for k in rng.integers(0, 3, 600))
        label_bins = self.regions(tmp_path / "labels.json", [
            {"space": {"kind": "labels", "n": 3}, "labels": [k]} for k in range(3)
        ])
        arc_bins = self.regions(tmp_path / "arcs.json", [
            {"space": {"kind": "circle"}, "arcs": [[0.0, 1.5]]},
            {"space": {"kind": "circle"}, "arcs": [[1.5, 2 * np.pi]]},
        ])
        for records, bins in ((circle, label_bins), (labels, arc_bins), (labels, "circle16")):
            code, out, err = run_cli(
                capsys, "gof", "--a", records[0], "--b", records[1], "--bins", bins
            )
            assert (code, out) == (2, "")
            assert "space" in json.loads(err)["error"]
        for records, bins, dof in ((circle, arc_bins, 1), (labels, label_bins, 2)):
            code, out, _ = run_cli(
                capsys, "gof", "--a", records[0], "--b", records[1], "--bins", bins
            )
            assert (code, json.loads(out)["dof"]) == (0, dof)


class TestMerit:
    def test_fiducial_dimension_mismatch_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        up = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        spec.write_text(json.dumps(
            {"prior": "uniform_circle", "gain": "cosine", "state": up}
        ))
        code, out, err = run_cli(capsys, "merit", "--family", "phase:3", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "state dimension 2 != POVM dimension 3"

    def test_fiducial_trace_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        twice = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
        spec.write_text(json.dumps(
            {"prior": "uniform_circle", "gain": "cosine", "state": twice}
        ))
        code, out, err = run_cli(capsys, "merit", "--family", "phase:3", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert "trace" in json.loads(err)["error"]

    def test_family_value(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior": "uniform_sphere", "gain": "fidelity"}))
        code, out, _ = run_cli(capsys, "merit", "--family", "spin", "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 / 3, abs=1e-9)

    def test_scheme_spread(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior": "uniform_circle", "gain": "cosine"}))
        code, out, _ = run_cli(
            capsys,
            "merit", "--family", "phase:2", "--spec", str(spec), "--scheme",
            "--samples", "4", "--seed", "5", "--tol", "1e-9",
        )
        assert code == 0
        assert json.loads(out)["spread"] <= 1e-9

    @pytest.mark.parametrize("tol, expected", [
        ("nan", 2), ("inf", 2), ("-1", 2), ("0", 1), ("1", 0),
    ])
    def test_tol(self, capsys, tmp_path, tol, expected):
        # the spread of the phase:2 members is about 1e-15: tol 0 fails it
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior": "uniform_circle", "gain": "cosine"}))
        code, out, err = run_cli(
            capsys,
            "merit", "--family", "phase:2", "--spec", str(spec), "--scheme",
            "--samples", "4", "--seed", "5", "--tol", tol,
        )
        assert code == expected
        if expected == 2:
            assert out == ""
            assert "--tol" in json.loads(err)["error"]

    def test_negative_samples_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior": "uniform_circle", "gain": "cosine"}))
        code, out, err = run_cli(
            capsys,
            "merit", "--family", "phase:2", "--spec", str(spec), "--scheme", "--samples", "-3",
        )
        assert (code, out) == (2, "")
        assert "x_samples" in json.loads(err)["error"]


class TestTomo:
    @pytest.fixture
    def z_target(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({
            "schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        }))
        return str(path)

    @pytest.fixture
    def spin_records(self, capsys, tmp_path, state_file):
        path = tmp_path / "spin.ndjson"
        run_cli(
            capsys,
            "sample", "--family", "spin", "--direct", "--state", state_file,
            "-n", "100", "--seed", "3", "-o", str(path),
        )
        return str(path)

    def test_sphere_records_with_finite_dual_are_input_error(
        self, capsys, tmp_path, z_target, spin_records
    ):
        sic = tmp_path / "sic.json"
        ser.save_povm(sic, pk.sic_tetrahedron_povm())
        code, out, err = run_cli(
            capsys, "tomo", "--povm", str(sic), "--target", z_target,
            "--records", spin_records,
        )
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    def test_sphere_records_with_phase_dual_are_input_error(
        self, capsys, tmp_path, spin_records
    ):
        target = tmp_path / "toeplitz.json"
        ones = [[[1, 0]] * 3] * 3
        target.write_text(json.dumps({"schema": 1, "matrix": ones}))
        code, out, err = run_cli(
            capsys, "tomo", "--family", "phase:3", "--target", str(target),
            "--records", spin_records,
        )
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("label", [-1, 7])
    def test_label_out_of_range_is_input_error(self, capsys, tmp_path, z_target, label):
        sic = tmp_path / "sic.json"
        ser.save_povm(sic, pk.sic_tetrahedron_povm())
        records = tmp_path / "labels.ndjson"
        records.write_text(f'{{"omega":0}}\n{{"omega":{label}}}\n')
        code, out, err = run_cli(
            capsys, "tomo", "--povm", str(sic), "--target", z_target,
            "--records", str(records),
        )
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    def test_finite_dual(self, capsys, tmp_path):
        sic = tmp_path / "sic.json"
        ser.save_povm(sic, pk.sic_tetrahedron_povm())
        target = tmp_path / "z.json"
        target.write_text(json.dumps({
            "schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        }))
        code, out, _ = run_cli(
            capsys, "tomo", "--povm", str(sic), "--target", str(target)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10

    def test_spin_dual_with_records(self, capsys, tmp_path, state_file):
        records = tmp_path / "recs.ndjson"
        run_cli(
            capsys,
            "sample", "--family", "spin", "--direct", "--state", state_file,
            "-n", "20000", "--seed", "3", "-o", str(records),
        )
        target = tmp_path / "z.json"
        target.write_text(json.dumps({
            "schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        }))
        code, out, _ = run_cli(
            capsys,
            "tomo", "--family", "spin", "--target", str(target),
            "--records", str(records), "--state", state_file,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["exact"] == pytest.approx(1.0)
        est = payload["estimate"]
        assert abs(est["estimate"] - est["exact"]) <= 5 * est["std_error"]

    def test_state_dimension_mismatch_is_input_error(self, capsys, tmp_path, z_target,
                                                     spin_records):
        state = tmp_path / "qutrit.json"
        ser.save_states(state, [("mm", np.eye(3) / 3)])
        code, out, err = run_cli(capsys, "tomo", "--family", "spin", "--target", z_target,
                                 "--records", spin_records, "--state", str(state))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "state dimension 3 != POVM dimension 2"

    def test_invalid_povm_is_input_error(self, capsys, tmp_path, z_target):
        # a SIC scaled by 1.4 sums to 1.4 I: no dual coefficients for it
        sic = pk.sic_tetrahedron_povm()
        path = tmp_path / "scaled.json"
        ser.save_povm(path, sic.replace_elements([1.4 * el for el in sic.elements]))
        code, out, err = run_cli(capsys, "tomo", "--povm", str(path), "--target", z_target)
        assert code == 2
        assert out == ""
        assert "not a POVM" in json.loads(err)["error"]

    def test_stern_gerlach_records_with_finite_dual_are_input_error(
        self, capsys, tmp_path, z_target, state_file
    ):
        # their apparatus indices i are no SIC entries, nor their outcomes SIC points
        records = tmp_path / "staged.ndjson"
        run_cli(capsys, "sample", "--family", "spin", "--scheme", "--state", state_file,
                "-n", "500", "--seed", "4", "-o", str(records))
        sic = tmp_path / "sic.json"
        ser.save_povm(sic, pk.sic_tetrahedron_povm())
        code, out, err = run_cli(
            capsys, "tomo", "--povm", str(sic), "--target", z_target, "--records", str(records)
        )
        assert code == 2
        assert out == ""
        assert "not an outcome point" in json.loads(err)["error"]

    @pytest.mark.parametrize("source", [
        ("--family", "spin"), ("--family", "phase:4"), ("--povm", "sic"),
    ])
    def test_target_dimension_mismatch_is_input_error(self, capsys, tmp_path, source):
        flag, name = source
        if flag == "--povm":
            name = str(tmp_path / "sic.json")
            ser.save_povm(name, pk.sic_tetrahedron_povm())
        target = tmp_path / "identity3.json"
        target.write_text(json.dumps({"schema": 1, "matrix": np.stack(
            [np.eye(3), np.zeros((3, 3))], axis=-1).tolist()}))
        code, out, err = run_cli(capsys, "tomo", flag, name, "--target", str(target))
        assert code == 2
        assert out == ""
        assert "dimension" in json.loads(err)["error"]

    def test_non_hermitian_target_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "upper.json"
        target.write_text(json.dumps({
            "schema": 1, "matrix": [[[1, 0], [1, 0]], [[0, 0], [0, 0]]],
        }))
        code, out, err = run_cli(capsys, "tomo", "--family", "spin", "--target", str(target))
        assert code == 2
        assert out == ""
        assert "target is not Hermitian" in json.loads(err)["error"]

    def test_non_toeplitz_phase_target_is_failed_check(self, capsys, z_target):
        code, out, err = run_cli(capsys, "tomo", "--family", "phase:2", "--target", z_target)
        assert code == 1
        assert out == ""
        assert "check_failed" in json.loads(err)

    def test_incomplete_povm_is_failed_check(self, capsys, tmp_path):
        proj = tmp_path / "proj.json"
        ser.save_povm(proj, pk.projective_basis_povm(2))
        target = tmp_path / "x.json"
        target.write_text(json.dumps({
            "schema": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        }))
        code, _, err = run_cli(
            capsys, "tomo", "--povm", str(proj), "--target", str(target)
        )
        assert code == 1
        assert "check_failed" in json.loads(err)


class TestMalformedInput:
    """Every JSON loader of the CLI exits 2 with one error line on bad input,
    whether the text is no JSON or JSON of the wrong shape."""

    GOOD = {
        "povm": '{"dim": 1, "space": {"kind": "labels", "n": 1}, '
                '"entries": [{"point": 0, "element": [[[1, 0]]]}]}',
        "states": '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        "regions": '{"space": {"kind": "sphere"}, "caps": [{"axis": [0, 0, 1], "angle": 1}]}',
        "spec": '{"prior": "uniform_sphere", "gain": "fidelity"}',
        "target": '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}',
        "records": '{"omega": [0.0, 0.0, 1.0]}\n',
    }

    @staticmethod
    def argv(kind):
        return {
            "povm": ["decompose", "povm"],
            "states": ["sample", "--family", "spin", "--direct", "--state", "states",
                       "-n", "5", "--seed", "1", "-o", "out.ndjson"],
            "regions": ["equiv", "--family", "spin", "--states", "states", "--regions", "regions"],
            "spec": ["merit", "--family", "spin", "--spec", "spec"],
            "target": ["tomo", "--family", "spin", "--target", "target"],
            "records": ["tomo", "--family", "spin", "--target", "target", "--records", "records"],
        }[kind]

    @pytest.mark.parametrize("kind, text", [
        ("povm", '{"dim": 2, "entries": ['),
        ("povm", '{"dim": 1, "space": {"kind": "labels", "n": 1}, "entries": [5]}'),
        ("povm", '{"dim": 1, "space": {"kind": "labels", "n": 1}, '
                 '"entries": [{"point": 0, "element": [[[1, 0, 0]]]}]}'),
        # JSON flags must be true or false and a label count an integer
        ("povm", '{"dim": 1, "space": {"kind": "labels", "n": 1}, "allow_duplicates": "no", '
                 '"entries": [{"point": 0, "element": [[[0.5, 0]]]}, '
                 '{"point": 0, "element": [[[0.5, 0]]]}]}'),
        ("povm", '{"dim": 1, "space": {"kind": "labels", "n": 2.7}, '
                 '"entries": [{"point": 0, "element": [[[1, 0]]]}]}'),
        ("regions", '{"space": {"kind": "sphere"}, "caps": [{"axis": [0, 0, 1], "angle": 0.5}], '
                    '"complement": "false"}'),
        ("states", '{"states": [{"matrix": '),
        ("states", '{"states": []}'),
        ("states", '{"states": [5]}'),
        ("regions", '{"regions": [5]}'),
        ("regions", '{"regions": 5}'),
        ("spec", '["uniform_sphere", "fidelity"]'),
        ("spec", '{"prior": 1' + "0" * 5000 + "}"),
        ("target", "[]"),
        ("target", '{"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}'),
        ("records", '{"omega": [0.0, 0.0, 1.0]}\n{"omega": [0.0,'),
        ("records", '{"omega": [0.0, 0.0, 1.0]}\n{"omega": 1' + "0" * 5000 + "}\n"),
    ])
    def test_exit_two(self, capsys, tmp_path, monkeypatch, kind, text):
        monkeypatch.chdir(tmp_path)
        for name, good in self.GOOD.items():
            (tmp_path / name).write_text(text if name == kind else good)
        code, out, err = run_cli(capsys, *self.argv(kind))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)

    def test_good_inputs_pass(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, good in self.GOOD.items():
            (tmp_path / name).write_text(good)
        for kind in self.GOOD:
            assert run_cli(capsys, *self.argv(kind))[0] == 0, kind


def _two_entry_povm(space, points, dim=1, entry=0.5):
    """A dimension-1 POVM ``{entry, 1 - entry}`` at two points, as JSON."""
    return {"dim": dim, "space": space, "entries": [
        {"point": points[0], "element": [[[entry, 0]]]},
        {"point": points[1], "element": [[[1 - entry, 0]]]},
    ]}


LABELS2 = {"kind": "labels", "n": 2}
CIRCLE_SPACE, SPHERE_SPACE = {"kind": "circle"}, {"kind": "sphere"}


class TestJsonTypes:
    """The JSON loaders take integers and numbers as they are: a float, a
    string or a bool where the schema has an integer, or a string or a bool
    where it has a number, exits 2 with one error line instead of being
    coerced (``int(1.9)`` would read the dimension 1 and pass)."""

    VALIDATE = {
        "dim-float": _two_entry_povm(LABELS2, [0, 1], dim=1.9),
        "label-float": _two_entry_povm(LABELS2, [0, 1.7]),
        "label-string": _two_entry_povm(LABELS2, [0, "1"]),
        "label-bool": _two_entry_povm(LABELS2, [0, True]),
        "circle-string": _two_entry_povm(CIRCLE_SPACE, [0.0, "0.5"]),
        "circle-bool": _two_entry_povm(CIRCLE_SPACE, [0.0, True]),
        "sphere-strings": _two_entry_povm(SPHERE_SPACE, [[0, 0, -1], ["0", "0", "1"]]),
        "element-bool": _two_entry_povm(LABELS2, [0, 1], entry=False),
    }
    GOOD = {
        "dim-float": _two_entry_povm(LABELS2, [0, 1], dim=1),
        "label-float": _two_entry_povm(LABELS2, [0, 1]),
        "circle-string": _two_entry_povm(CIRCLE_SPACE, [0.0, 0.5]),
        "sphere-strings": _two_entry_povm(SPHERE_SPACE, [[0, 0, -1], [0, 0, 1]]),
        "element-bool": _two_entry_povm(LABELS2, [0, 1], entry=0),
    }
    # equiv reads its regions and states through the same loaders
    EQUIV = {
        "arc-string": ("phase:2", {"space": CIRCLE_SPACE, "arcs": [["0.5", 2.0]]}, None),
        "arc-bool": ("phase:2", {"space": CIRCLE_SPACE, "arcs": [[False, 2.0]]}, None),
        "angle-string": ("spin", {"space": SPHERE_SPACE,
                                  "caps": [{"axis": [0, 0, 1], "angle": "1.0"}]}, None),
        "axis-strings": ("spin", {"space": SPHERE_SPACE,
                                  "caps": [{"axis": ["0", "0", "1"], "angle": 1.0}]}, None),
        "state-bool": ("spin", {"space": SPHERE_SPACE, "caps": [{"axis": [0, 0, 1], "angle": 1.0}]},
                       [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]),
    }

    @staticmethod
    def write(path, obj):
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("case", sorted(VALIDATE))
    def test_validate(self, capsys, tmp_path, case):
        path = self.write(tmp_path / "povm.json", self.VALIDATE[case])
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "must be a JSON" in json.loads(err)["error"]

    @pytest.mark.parametrize("case", sorted(GOOD))
    def test_validate_same_file_with_json_types(self, capsys, tmp_path, case):
        path = self.write(tmp_path / "povm.json", self.GOOD[case])
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0 and json.loads(out)["passed"] is True

    @pytest.mark.parametrize("case", sorted(EQUIV))
    def test_equiv(self, capsys, tmp_path, case):
        family, region, state = self.EQUIV[case]
        states = self.write(tmp_path / "states.json",
                            {"matrix": state or [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
        regions = self.write(tmp_path / "regions.json", region)
        code, out, err = run_cli(capsys, "equiv", "--family", family, "--states", states,
                                 "--regions", regions)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "must be a JSON" in json.loads(err)["error"]


def test_no_command_is_input_error(capsys):
    assert main([]) == 2


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "/nonexistent/povm.json")
    assert code == 2
    assert out == ""
    assert err == (
        '{"error":"cannot read /nonexistent/povm.json: [Errno 2] No such file or directory: '
        "'/nonexistent/povm.json'\"}\n"
    )


def test_directory_is_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(f"cannot read {tmp_path}: ")


MALFORMED = '{"error":"malformed.json is not valid JSON: Expecting value: line 1 column 37 (char 36)"}'
MISSING = (
    '{"error":"cannot read missing.json: [Errno 2] No such file or directory: \'missing.json\'"}'
)


# runs the CLI, then writes sys.modules to argv[1] and exits with its code
MODULES_PROBE = (
    "import json, sys\n"
    "from povmkit.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "json.dump(sorted(sys.modules), open(sys.argv[1], 'w'))\n"
    "sys.exit(code)\n"
)


def _fresh_cli(tmp_path, *argv, modules=None):
    """``python -m povmkit.cli`` in a fresh interpreter, in a directory with
    a POVM, a malformed file, a JSON list and a file of schema version 2;
    with ``modules``, the modules loaded at exit are written to that path."""
    ser.save_povm(tmp_path / "povm.json", pk.coin_flip_povm())
    (tmp_path / "malformed.json").write_text('{"schema": 1, "dim": 2, "entries": [')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "schema2.json").write_text('{"schema": 2}')
    src = os.path.dirname(os.path.dirname(pk.__file__))
    run = ["-m", "povmkit.cli"] if modules is None else ["-c", MODULES_PROBE, str(modules)]
    return subprocess.run(
        [sys.executable, *run, *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), capture_output=True, text=True,
    )


@pytest.mark.parametrize("argv, line", [
    (["validate", "missing.json"], MISSING),
    (["validate", "malformed.json"], MALFORMED),
    (["extremal", "missing.json"], MISSING),
    (["extremal", "malformed.json"], MALFORMED),
    (["decompose", "missing.json"], MISSING),
    (["decompose", "malformed.json"], MALFORMED),
    (["validate", "list.json"], '{"error":"list.json: expected a JSON object"}'),
    (["validate", "schema2.json"], '{"error":"povm: unsupported schema version 2"}'),
    (["validate", "povm.json", "--tolerance", "psd=nan"],
     '{"error":"tolerance psd: needs a finite value >= 0, got \'nan\'"}'),
    (["equiv", "--family", "spin", "--states", "povm.json", "--regions", "povm.json",
      "--tol", "nan"], '{"error":"--tol needs a finite value >= 0, got nan"}'),
])
def test_input_error_bytes(tmp_path, argv, line):
    proc = _fresh_cli(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")


@pytest.mark.parametrize("argv", [
    ["gof", "--a", ".", "--b", "direct.ndjson", "--bins", "sphere12"],
    ["decompose", "povm.json", "-o", "."],
    ["sample", "--family", "spin", "--direct", "--state", "state.json", "-n", "10",
     "--seed", "1", "-o", "."],
    ["equiv", "--family", "spin", "--states", "state.json", "--regions", "povm.json",
     "-o", "."],
    ["merit", "--family", "spin", "--spec", "spec.json", "-o", "."],
    ["tomo", "--family", "spin", "--target", "target.json", "-o", "."],
])
def test_directory_path_is_input_error(tmp_path, argv):
    # NDJSON records and output paths are opened directly, not by load_json;
    # an output path is checked before numpy loads, records by their reader
    ser.save_states(tmp_path / "state.json", [("up", np.diag([1.0, 0.0]))])
    (tmp_path / "spec.json").write_text('{"prior": "uniform_sphere", "gain": "fidelity"}')
    (tmp_path / "target.json").write_text('{"schema": 1, "matrix": [[[1, 0], [0, 0]], '
                                          '[[0, 0], [-1, 0]]]}')
    proc = _fresh_cli(tmp_path, *argv, modules=tmp_path / "modules.json")
    line = '{"error":"[Errno 21] Is a directory: \'.\'"}'
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert ("numpy" in modules) == (argv[0] == "gof")


@pytest.mark.parametrize("output", ["out", "missing/out.json"])
@pytest.mark.parametrize("command, work", [
    ("sample", "povmkit.sampling.sample_direct"),
    ("decompose", "povmkit.extremality.decompose_extremal"),
])
def test_bad_output_exits_before_the_work(capsys, monkeypatch, tmp_path, coin_flip_file,
                                          state_file, command, work, output):
    # a directory, or a path in a missing directory, is reported at once
    (tmp_path / "out").mkdir()
    monkeypatch.setattr(work, lambda *args, **kwargs: pytest.fail(f"{work} ran"))
    argv = {
        "sample": ["sample", "--family", "spin", "--direct", "--state", state_file,
                   "-n", "10", "--seed", "1"],
        "decompose": ["decompose", coin_flip_file],
    }[command]
    code, out, err = run_cli(capsys, *argv, "-o", str(tmp_path / output))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].endswith(f"{str(tmp_path / output)!r}")
    assert not (tmp_path / "missing").exists()


def test_unknown_command_bytes(tmp_path):
    # argparse's own text: the usage, then one error line, whose list of
    # choices is formatted differently across Python versions
    proc = _fresh_cli(tmp_path, "bogus")
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert lines[:2] == [
        "usage: povmkit [-h]",
        "               {validate,extremal,decompose,equiv,sample,gof,merit,tomo} ...",
    ]
    assert lines[2].startswith("povmkit: error: argument command: invalid choice: 'bogus'")
    assert len(lines) == 3


def test_jsonio_imports_only_stdlib_and_errors():
    # the CLI reads JSON through ``jsonio`` before any array module loads;
    # an import of anything else there would load it on every error path
    from povmkit import jsonio

    with open(jsonio.__file__) as fh:
        tree = ast.parse(fh.read())
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [("." * node.level) + (node.module or "")]
        else:
            continue
        for name in names:
            stdlib = not name.startswith(".") and name.split(".")[0] in sys.stdlib_module_names
            if not (stdlib or name in (".errors", "povmkit.errors")):
                foreign.append(name)
    assert foreign == []
