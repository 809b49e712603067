import json
import time

import pytest

from indcomplex import Family, build_family, build_gamma, graph_to_json_dict
from indcomplex.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
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

    def test_budget_abort(self, capsys, face_budget_of):
        face_budget_of(10)
        code, _, err = run(capsys, "homology", "--family", "gamma", "--n", "3")
        assert code == EXIT_BUDGET
        assert "face budget exceeded" in err

    def test_budget_abort_under_512mib_address_space(self):
        # Γ(6,6) fold-reduces to 1.89 M faces; 512 MiB admits about 1.05 M,
        # so the count refuses it before any face is enumerated.
        started = time.perf_counter()
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "gamma", "--n", "6"], 512 << 20
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

    @pytest.mark.deep
    def test_a7_under_1gib_address_space(self):
        # a(7) has 0.84 M faces after fold reduction; the cap applies to the
        # child process only.
        proc = run_capped(
            ["-m", "indcomplex.cli", "homology", "--family", "a", "--n", "7"], 1 << 30
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["reduced_betti"] == {"9": 2}

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

    def test_predict_method(self, capsys):
        code, out, _ = run(capsys, "euler", "--n", "8", "--method", "predict")
        assert code == EXIT_OK
        assert json.loads(out)["chi"] == -4

    def test_predict_requires_k6(self, capsys):
        code, _, err = run(
            capsys, "euler", "--n", "3", "--k", "4", "--method", "predict"
        )
        assert code == EXIT_USAGE
        assert "k = 6" in err

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

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "euler", "--sweep", "1..6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,chi"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [int(r[1]) for r in rows] == [0, 2, 2, -2, 0, 4]

    @pytest.mark.parametrize(
        "extra", [("--n", "9"), ("--method", "predict"), ("--method", "enumerate")]
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
