"""End-to-end tests for the command line interface."""

import json

import numpy as np
import pytest

from convexpoint.bench import NEAR_BOUNDARY_RULE, trial_expectation_check
from convexpoint.cli import main
from convexpoint.polygon import random_convex

SQUARE_DOC = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_DOC))
    return str(path)


class TestClassify:
    def test_inside(self, square_file, capsys):
        assert main(["classify", square_file, "--point", "0.5,0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "inside"
        assert out[1].startswith("edges_tried=")

    def test_boundary(self, square_file, capsys):
        assert main(["classify", square_file, "--point", "0.5,0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "boundary"

    def test_outside(self, square_file, capsys):
        assert main(["classify", square_file, "--point", "5,5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "outside"

    def test_baseline_algorithms(self, square_file, capsys):
        for alg in ("raycast", "fan"):
            assert main(["classify", square_file, "--point", "0.5,0.5",
                         "--algorithm", alg]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "inside"

    def test_bad_point_exit2(self, square_file, capsys):
        assert main(["classify", square_file, "--point", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("point", ["nan,0.5", "0.5,inf"])
    def test_non_finite_point_exit2(self, square_file, capsys, point):
        assert main(["classify", square_file, "--point", point]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_polygon_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0],
                                                 [1, 1]]}))
        assert main(["classify", str(path), "--point", "0.5,0.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deterministic_stdout(self, square_file, capsys):
        args = ["classify", square_file, "--point", "0.25,0.25",
                "--policy-seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestGenerateValidate:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "poly.json")
        assert main(["generate", "--n", "12", "--seed", "3",
                     "--radius", "2.0", "--out", out]) == 0
        capsys.readouterr()
        assert main(["validate", out]) == 0
        assert capsys.readouterr().out.startswith("ok: 12 vertices")

    def test_generate_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["generate", "--n", "9", "--seed", "4", "--out", a])
        main(["generate", "--n", "9", "--seed", "4", "--out", b])
        capsys.readouterr()
        assert json.loads(open(a).read()) == json.loads(open(b).read())

    def test_generate_gives_up_exit2(self, tmp_path, capsys):
        # the generator gives up at this radius; that is an input error, not
        # exit 1, the code for a fuzz disagreement
        out = tmp_path / "tiny.json"
        assert main(["generate", "--n", "12", "--radius", "1e-4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not generate")
        assert "Traceback" not in err
        assert not out.exists()

    def test_generate_overflowing_radius_exit2(self, tmp_path, capsys):
        out = tmp_path / "huge.json"
        assert main(["generate", "--n", "50", "--seed", "1", "--radius",
                     "1e160", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: could not generate")
        assert not out.exists()

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1, 0], [1]],
        [[0, 0], [1, 0], [0, 1, 7]],
        [0, 1, 2],
        5,
    ])
    def test_validate_malformed_document_exit2(self, tmp_path, capsys,
                                               vertices):
        # used to end in a traceback and exit 1, the code for a fuzz
        # disagreement, or to drop a third coordinate silently
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": vertices}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_validate_rejects_nonconvex(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"vertices": [[0, 0], [4, 0], [4, 4], [2, 1], [0, 4]]}))
        assert main(["validate", str(path)]) == 2


class TestBench:
    def test_point_sweep_csv(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = main(["bench", "--mode", "point-sweep", "--polygon-n", "16",
                     "--points-per-set", "20", "--num-point-sets", "2",
                     "--warmup", "0", "--repetitions", "1",
                     "--seed", "5", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0].startswith("algorithm,set,")
        assert len(lines) == 1 + 3 * 2

    def test_polygon_sweep_json(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["bench", "--mode", "polygon-sweep", "--sizes", "8,12",
                     "--warmup", "0", "--repetitions", "1", "--seed", "5",
                     "--format", "json", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "polygon-sweep"
        assert len(doc["cells"]) == 6

    def test_expectation_csv(self, tmp_path, capsys):
        out = str(tmp_path / "exp.csv")
        code = main(["bench", "--mode", "expectation", "--polygon-n", "12",
                     "--query-rule", "near-boundary", "--runs", "200",
                     "--seed", "5", "--out", out])
        assert code == 0
        assert open(out).read().startswith("n_edges,sigma,")

    def test_expectation_point_follows_query_rule(self, tmp_path, capsys):
        out = str(tmp_path / "exp.json")
        code = main(["bench", "--mode", "expectation", "--polygon-n", "12",
                     "--radius", "100", "--query-rule", "near-boundary",
                     "--runs", "200", "--seed", "5", "--format", "json",
                     "--out", out])
        assert code == 0
        poly = random_convex(12, 5, 100.0)
        q = NEAR_BOUNDARY_RULE.point(poly, np.random.default_rng(5))
        expected = trial_expectation_check(poly, q, 200, 5)
        assert json.loads(open(out).read()) == expected.to_dict()

    def test_svg_for_expectation_rejected(self, tmp_path, capsys):
        code = main(["bench", "--mode", "expectation", "--polygon-n", "8",
                     "--runs", "10", "--format", "svg",
                     "--out", str(tmp_path / "x.svg")])
        assert code == 2


class TestFuzz:
    def test_small_fuzz_ok(self, capsys):
        assert main(["fuzz", "--cases", "50", "--max-n", "12",
                     "--seed", "3"]) == 0
        assert "50/50 agree" in capsys.readouterr().out

    def test_bad_max_n_exit2(self, capsys):
        assert main(["fuzz", "--cases", "5", "--max-n", "2"]) == 2

    def test_disagreement_writes_repro_and_exits_1(self, tmp_path, capsys,
                                                   monkeypatch):
        import convexpoint.cli as cli
        from convexpoint.bench import FuzzResult

        payload = {"polygon": {"vertices": [[0, 0], [1, 0], [0, 1]]},
                   "point": [5.0, 5.0],
                   "verdicts": {"improved": "inside", "oracle": "outside"}}
        monkeypatch.setattr(
            cli, "run_fuzz",
            lambda cases, max_n, seed: FuzzResult(7, 6, payload))
        out = str(tmp_path / "repro.json")
        assert main(["fuzz", "--cases", "10", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "6/7 agree" in err
        assert json.loads(open(out).read()) == payload

    def test_usage_error_exit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])  # missing required --point and polygon
        assert exc.value.code == 2
