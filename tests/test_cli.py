import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from indcomplex import (
    Family, betti_of_family, build_family, build_gamma, expected_f6, predict_family, predict_gamma,
)
from indcomplex.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from indcomplex.graphs import graph_to_json_dict
from indcomplex.linalg import MR_BOUND
from indcomplex.verify import Case, VerificationReport

from conftest import run_capped


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_gamma_default(self, capsys):
        code, out, _ = run(capsys, "predict", "--n", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"wedge": {"5": 3}, "chi": -2, "contractible": False}

    def test_x_family_point(self, capsys):
        code, out, _ = run(capsys, "predict", "--n", "3", "--family", "x")
        assert code == EXIT_OK
        assert json.loads(out)["contractible"] is True

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "predict", "--n", "0")
        assert code == EXIT_USAGE
        assert "error" in err


class TestHomology:
    def test_gamma_2(self, capsys):
        code, out, _ = run(capsys, "homology", "--family", "gamma", "--n", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["reduced_betti"] == {"2": 1}
        assert payload["torsion"] == []

    def test_emits_the_profile(self, capsys):
        code, out, _ = run(capsys, "homology", "--family", "b", "--n", "4", "--coeff", "gf3")
        assert code == EXIT_OK
        assert json.loads(out) == betti_of_family(Family("b", 4), coeff="gf3").to_json_dict()
        assert json.loads(out)["coefficient"] == "gf3"

    def test_integral_b4(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--family", "b", "--n", "4", "--coeff", "int"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["reduced_betti"] == {"5": 2}
        assert payload["torsion"] == []

    def test_any_prime_field(self, capsys):
        code, out, _ = run(capsys, "homology", "--family", "gamma", "--n", "3", "--coeff", "gf5")
        assert code == EXIT_OK
        assert json.loads(out)["reduced_betti"] == {"4": 1}

    def test_non_field_coefficient_is_usage_error(self, capsys):
        code, out, err = run(capsys, "homology", "--family", "gamma", "--n", "3", "--coeff", "gf4")
        assert code == EXIT_USAGE
        assert out == ""
        assert "unknown coefficient descriptor" in err

    @pytest.mark.parametrize("p", ["1000000000000000003", "2305843009213693951"])
    def test_large_prime_field(self, capsys, p):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "homology", "--family", "gamma", "--n", "2", "--coeff", f"gf{p}"
        )
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        assert json.loads(out)["reduced_betti"] == {"2": 1}

    def test_prime_beyond_the_primality_bound_is_usage_error(self, capsys):
        # 2^89 - 1 is prime, but above the bound where Miller-Rabin on the
        # first 13 prime bases is proven exact.
        code, out, err = run(
            capsys, "homology", "--family", "gamma", "--n", "2", "--coeff", f"gf{2**89 - 1}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert str(MR_BOUND) in err

    def test_budget_abort(self, capsys, face_budget_of):
        # No split applies to the 20-vertex fold residual of Γ(4,6): 10,907 faces.
        face_budget_of(10)
        code, _, err = run(capsys, "homology", "--family", "gamma", "--n", "4")
        assert code == EXIT_BUDGET
        assert "face budget exceeded" in err

    def test_splits_close_gamma_3_without_faces(self, capsys, face_budget_of):
        face_budget_of(10)
        code, out, _ = run(capsys, "homology", "--family", "gamma", "--n", "3")
        assert code == EXIT_OK
        assert json.loads(out)["reduced_betti"] == {"4": 1}

    def test_budget_abort_under_512mib_address_space(self):
        # Γ(7,6) keeps 23.77 M faces after fold and splits; 512 MiB admits
        # about 1.05 M, so the count refuses it before any face is enumerated.
        started = time.perf_counter()
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "gamma", "--n", "7"], 512 << 20
        )
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == EXIT_BUDGET
        assert "face budget exceeded" in proc.stderr

    def test_gamma6_under_512mib_address_space(self):
        # Splits leave 10,907 of Γ(6,6)'s 1.89 M fold-residual faces.
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "gamma", "--n", "6"], 512 << 20
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(proc.stdout)
        assert report["reduced_betti"] == {"8": 3} == {
            str(d): b for d, b in predict_gamma(6).betti_numbers().items()
        }
        assert report["suspensions_applied"] == 3

    def test_large_input_is_refused_quickly(self):
        # The split tests on Γ(60,6)'s 356-vertex residual each scan only
        # near the deleted vertices, so the refusal stays fast.
        started = time.perf_counter()
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "gamma", "--n", "60"], 1 << 30
        )
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == EXIT_BUDGET
        assert "face budget exceeded" in proc.stderr

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("indcomplex.cli.betti_of_family", exhausted)
        code, out, err = run(capsys, "homology", "--family", "gamma", "--n", "6")
        assert code == EXIT_BUDGET
        assert out == ""
        assert "out of memory" in err

    def test_a7_under_1gib_address_space(self):
        # Splits leave 322 of a(7)'s 0.84 M fold-residual faces; the cap
        # applies to the child process only.
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "a", "--n", "7"], 1 << 30
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["reduced_betti"] == {"9": 2}

    def test_gamma6_integral_under_1gib_address_space(self):
        args = ["homology", "--family", "gamma", "--n", "6", "--coeff", "int"]
        proc = run_capped(["-m", "indcomplex.cli", *args], 1 << 30)
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["reduced_betti"], report["torsion"]) == ({"8": 3}, [])

    @pytest.mark.deep
    def test_a11_under_1gib_address_space(self):
        # Fold and splits leave 30 vertices and 1.74 M faces.
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "a", "--n", "11"], 1 << 30
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["reduced_betti"] == {"15": 3} == {
            str(d): b for d, b in predict_family(Family("a", 11)).betti_numbers().items()
        }

    def test_gamma_takes_k(self, capsys):
        code, out, _ = run(capsys, "homology", "--family", "gamma", "--n", "3", "--k", "4")
        assert code == EXIT_OK
        assert json.loads(out)["reduced_betti"] == {"2": 1}

    def test_k_for_six_row_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "homology", "--family", "a", "--n", "3", "--k", "4")
        assert code == EXIT_USAGE
        assert out == ""
        assert "only defined for k = 6" in err

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["homology", "--family", "q", "--n", "2"])
        capsys.readouterr()
        assert exc.value.code == EXIT_USAGE


class TestEuler:
    def test_transfer_default(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "10")
        assert code == EXIT_OK
        assert json.loads(out) == {"n": 10, "k": 6, "chi": 6, "method": "transfer"}

    def test_transfer_requires_n(self, capsys):
        code, _, err = run(capsys, "euler")
        assert code == EXIT_USAGE
        assert "--n is required" in err

    def test_enumerate_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json_dict(build_gamma(2, 6))))
        code, out, _ = run(capsys, "euler", "--method", "enumerate", "--input", str(path))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chi"] == 2
        signed = sum((-1) ** d * c for d, c in enumerate(payload["f_vector"]))
        assert signed == payload["chi"]

    def test_enumerate_by_n(self, capsys):
        code, out, _ = run(capsys, "euler", "--method", "enumerate", "--n", "2", "--k", "6")
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == 2

    def test_enumerate_counts_gamma_7(self, capsys):
        # 69,050,253 faces: far past the face budget of enumeration.
        code, out, _ = run(capsys, "euler", "--method", "enumerate", "--n", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chi"] == 0
        assert sum(payload["f_vector"]) == 69_050_252
        assert payload["f_vector"][:2] == [42, 790]

    def test_sweep_into_closed_pipe(self):
        # A reader that stops early, like `| head -2`, is not a failure.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "indcomplex.cli", "euler", "--sweep", "1..20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().strip() == b"n,chi"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert err == b""

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "euler", "--sweep", "1..6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,chi"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [int(r[1]) for r in rows] == [0, 2, 2, -2, 0, 4]

    def test_sweep_far_rows_match_the_period_table(self, capsys):
        code, out, _ = run(capsys, "euler", "--sweep", "99990..100000")
        assert code == EXIT_OK
        rows = [tuple(map(int, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert rows == [(n, expected_f6(n)) for n in range(99_990, 100_001)]

    def test_transfer_agrees_with_predict_at_n_100000(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "100000", "--method", "transfer")
        assert code == EXIT_OK
        code, predicted, _ = run(capsys, "predict", "--n", "100000")
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == json.loads(predicted)["chi"]

    @pytest.mark.parametrize(
        "extra",
        [("--n", "9"), ("--n", "9", "--method", "transfer"), ("--method", "enumerate")],
    )
    def test_sweep_rejects_n_and_other_methods(self, capsys, extra):
        code, out, err = run(capsys, "euler", "--sweep", "1..3", "--k", "4", *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--sweep" in err

    def test_width_20_under_512mib_address_space(self, capsys):
        proc = run_capped(
            ["-m", "indcomplex.cli", "euler", "--k", "20", "--n", "6"], 512 << 20
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        code, out, _ = run(capsys, "euler", "--k", "6", "--n", "20")
        assert code == EXIT_OK
        assert json.loads(proc.stdout)["chi"] == json.loads(out)["chi"]

    @pytest.mark.parametrize(
        "extra",
        [
            ("--n", "3"),
            ("--method", "enumerate", "--n", "2"),
            ("--sweep", "1..3"),
        ],
    )
    def test_input_only_for_enumerate(self, capsys, extra):
        code, out, err = run(capsys, "euler", "--input", "/nonexistent.json", *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--input" in err and len(err.strip().splitlines()) == 1

    def test_sweep_bad_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["euler", "--sweep", "5..2"])
        capsys.readouterr()
        assert exc.value.code == EXIT_USAGE


class TestReduce:
    def test_roundtrip(self, capsys, tmp_path):
        g = build_family(Family("y", 1))
        path = tmp_path / "y1.json"
        path.write_text(json.dumps(graph_to_json_dict(g)))
        code, out, _ = run(capsys, "reduce", "--input", str(path))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["contractible"] is False
        assert payload["suspensions"] == 2
        assert payload["residual"]["vertices"] == []
        assert all(m["kind"] in ("fold", "cone", "strip_k2") for m in payload["moves"])

    def test_long_input_on_stdin(self):
        g = build_family(Family("x", 120))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "indcomplex.cli", "reduce"],
            input=json.dumps(graph_to_json_dict(g)),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert len(payload["moves"]) == 537
        assert payload["contractible"] is False
        assert payload["residual"]["vertices"] == []
        assert payload["residual"]["edges"] == []

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": [[1, 1], [[1], 2]], "edges": []},
            {"vertices": [[1, 1], [2, "a"]], "edges": []},
            {"vertices": [[1, 1], [2, 1]], "edges": [[0, 1.5]]},
            None,
        ],
        ids=["unhashable_vertex", "string_coordinate", "float_index", "missing_file"],
    )
    def test_bad_input_is_usage_error(self, capsys, tmp_path, data):
        path = tmp_path / "g.json"
        if data is not None:
            path.write_text(json.dumps(data))
        code, out, err = run(capsys, "reduce", "--input", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestVerify:
    def test_single_suite_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "euler_table")
        assert code == EXIT_OK
        assert out.startswith("[PASS] euler_table: 56 cases")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == EXIT_USAGE
        assert "unknown suite" in err

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "euler_table", "--json", str(path)
        )
        assert code == EXIT_OK
        data = json.loads(path.read_text())
        assert data[0]["suite"] == "euler_table"
        assert data[0]["passed"] is True
        assert len(data[0]["cases"]) == 56

    def test_unwritable_json_fails_before_any_suite(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr("indcomplex.cli.run_all", lambda **kw: calls.append(kw) or [])
        path = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "verify", "--json", str(path))
        assert code == EXIT_USAGE
        assert calls == [] and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_all_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--suite", "euler_table"])
        assert exc.value.code == EXIT_USAGE
        assert "--all" in capsys.readouterr().err

    def test_deep_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--deep", "--suite", "euler_table"])
        assert exc.value.code == EXIT_USAGE
        assert "--deep" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys, monkeypatch):
        bad = VerificationReport(
            "stub", [Case("c1", 1, 2, False)], runtime=0.0
        )
        monkeypatch.setattr("indcomplex.cli.run_all", lambda **kw: [bad])
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_FAIL
        assert "[FAIL] stub" in out
        assert "FAIL c1" in out

    def test_fold_soundness_seeded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fold_soundness", "--seed", "7"
        )
        assert code == EXIT_OK
        assert out.startswith("[PASS] fold_soundness")

    def test_split_soundness_seeded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "split_soundness", "--seed", "7"
        )
        assert code == EXIT_OK
        assert out.startswith("[PASS] split_soundness")
