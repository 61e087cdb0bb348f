import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from aplab import __version__, colorings
from aplab.cli import build_parser, main
from aplab.colorings import (
    CYCLIC,
    Coloring,
    Z22_COLORING,
    coloring_from_text,
    coloring_to_text,
    tensor_power,
    verify_symmetric_ap_free,
)
from aplab.sets import residue_set_from_text
from aplab.torus import torus_coloring_from_text
from aplab.uniformity import GridFunction, gowers_norm, grid_to_text


Z22_DIGITS = tuple(int(ch) for ch in Z22_COLORING)


@pytest.fixture()
def z22_file(tmp_path):
    path = tmp_path / "z22.txt"
    path.write_text(f"cyclic\n22 3\n{Z22_COLORING}\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestVerifyCommand:
    def test_bundled_passes(self, capsys, z22_file):
        code, rep = run(capsys, ["verify", z22_file, "--pattern", "symmetric", "--k", "4"])
        assert code == 0 and rep["ok"]

    def test_distributed_fixture_file(self, capsys):
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "z22_coloring.txt"
        code, rep = run(capsys, ["verify", str(fixture), "--pattern", "symmetric", "--k", "4"])
        assert code == 0 and rep["ok"]
        assert Z22_COLORING in fixture.read_text()

    def test_mutated_fails_with_witness(self, capsys, tmp_path):
        mutated = "3" + Z22_COLORING[1:]
        p = tmp_path / "bad.txt"
        p.write_text(f"cyclic\n22 3\n{mutated}\n")
        code, rep = run(capsys, ["verify", str(p), "--pattern", "symmetric", "--k", "4"])
        assert code == 1
        assert not rep["ok"]
        w = rep["witness"]
        colors = [int(ch) for ch in mutated]
        k = 4
        pts = [(w["n"] + i * w["d"]) % 22 for i in range(k)]
        assert pts == w["points"]
        assert all(colors[pts[i]] == colors[pts[k - 1 - i]] for i in range(k // 2))

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/x.txt", "--pattern", "symmetric"]) == 2

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("cyclic\n5 2\n11\n")
        assert main(["verify", str(p), "--pattern", "symmetric"]) == 2

    def test_other_patterns(self, capsys, z22_file):
        code, rep = run(capsys, ["verify", z22_file, "--pattern", "binomial", "--spec", "0,1,2,3"])
        assert code == 0 and rep["ok"]
        code, rep = run(capsys, ["verify", z22_file, "--pattern", "sym-a", "--spec", "0,1,2,3"])
        assert code == 0 and rep["ok"]

    @pytest.mark.parametrize("pattern", ["binomial", "sym-a"])
    def test_k_selects_plain_progression(self, capsys, pattern):
        # without --spec, --k picks the plain progression, as elsewhere
        from pathlib import Path

        fixture = str(Path(__file__).resolve().parent.parent / "fixtures" / "z22_coloring.txt")
        assert main(["verify", fixture, "--pattern", pattern, "--k", "4"]) == 0
        by_k = capsys.readouterr().out
        assert main(["verify", fixture, "--pattern", pattern, "--spec", "0,1,2,3"]) == 0
        assert by_k == capsys.readouterr().out


class TestSearchCommand:
    def test_search_writes_valid_coloring(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        code, rep = run(
            capsys,
            ["search", "--N", "22", "--k", "4", "--r", "3", "--out", str(out)],
        )
        assert code == 0 and rep["status"] == "found"
        c = coloring_from_text(out.read_text())
        assert verify_symmetric_ap_free(c, 4) is None

    def test_infeasible_reports_nonzero(self, capsys):
        code, rep = run(capsys, ["search", "--N", "4", "--k", "4", "--r", "1"])
        assert code == 1 and rep["status"] == "none_exists"

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    def test_negative_budget_is_a_usage_error(self, capsys, mode):
        argv = ["search", "--N", "5", "--r", "2", "--mode", mode, "--budget", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be non-negative\n"

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("budget", [0, 5])
    def test_exhausted_search_reports_its_budget(self, capsys, mode, budget):
        argv = ["search", "--N", "22", "--k", "4", "--r", "3", "--mode", mode, "--budget", str(budget)]
        code, rep = run(capsys, argv)
        assert code == 1 and (rep["status"], rep["nodes"]) == ("exhausted", budget)

    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    def test_zero_budget_is_accepted_and_exhausts(self, capsys, mode):
        argv = ["search", "--N", "5", "--r", "2", "--mode", mode, "--budget", "0"]
        code, rep = run(capsys, argv)
        assert code == 1 and rep["status"] == "exhausted"


class TestPipelineChain:
    def test_manual_chain_matches_pipeline(self, capsys, tmp_path, z22_file):
        phi = tmp_path / "phi.txt"
        code, rep = run(capsys, ["interlace", "--input", z22_file, "--k", "4", "--out", str(phi)])
        assert code == 0 and rep["D"] == 352 and rep["colors"] == 48

        s = tmp_path / "s.txt"
        code, rep = run(
            capsys,
            ["build-set", "--kind", "base9", "--r", "48", "--m", "82945", "--out", str(s)],
        )
        assert code == 0 and rep["size"] == 48

        a = tmp_path / "A.txt"
        code, rep = run(
            capsys,
            ["torus-set", "--coloring", str(phi), "--set", str(s), "--k", "4", "--out", str(a)],
        )
        assert code == 0 and rep["marginal"] == "1/1327120"

        code, rep = run(
            capsys,
            ["density", "--certificate", "--torus-coloring", str(phi), "--set", str(s), "--k", "4"],
        )
        assert code == 0
        assert rep["value_rational"] == "1/2468280434155143168000"

        code, rep = run(
            capsys,
            [
                "density", "--pattern-exact", "--torus-coloring", str(phi),
                "--k", "4", "--predicate", "binomial",
            ],
        )
        assert code == 0 and rep["value_rational"] == "1/1056"

    @pytest.mark.parametrize(
        "residues, message",
        [
            # 0..47 mod 97 holds the nontrivial AP4 solution (0, 0, 1, 3)
            (range(48), "the slots have the nontrivial solution (0, 0, 1, 3)"),
            (range(3), "need at least 48 residues, got 3"),
        ],
        ids=["set_with_a_solution", "short_set"],
    )
    def test_certificate_refuses_unsound_set(self, capsys, tmp_path, z22_file, residues, message):
        phi = tmp_path / "phi.txt"
        assert main(["interlace", "--input", z22_file, "--k", "4", "--out", str(phi)]) == 0
        s = tmp_path / "bad.txt"
        residues = list(residues)
        s.write_text(f"97 {len(residues)}\n{' '.join(map(str, residues))}\n")
        capsys.readouterr()
        code = main(
            ["density", "--certificate", "--torus-coloring", str(phi), "--set", str(s), "--k", "4"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_manual_chain_matches_pipeline_at_ell_2(self, capsys, tmp_path):
        # the chain's interlaced file is flat, so density takes the flat
        # scan; the pipeline's interlaced coloring carries digit levels and
        # takes the carry automaton
        base = tmp_path / "square.txt"
        base.write_text(coloring_to_text(tensor_power(Coloring(CYCLIC, Z22_DIGITS), 2)))
        phi = tmp_path / "phi.txt"
        code, rep = run(capsys, ["interlace", "--input", str(base), "--k", "4", "--out", str(phi)])
        assert code == 0 and rep["D"] == 7744 and rep["colors"] == 144
        m = 36 * 144**2 + 1
        s = tmp_path / "s.txt"
        code, _ = run(
            capsys, ["build-set", "--kind", "base9", "--r", "144", "--m", str(m), "--out", str(s)]
        )
        assert code == 0
        code, bound = run(
            capsys,
            ["density", "--certificate", "--torus-coloring", str(phi), "--set", str(s), "--k", "4"],
        )
        assert code == 0
        code, eps = run(capsys, ["density", "--pattern-exact", "--torus-coloring", str(phi), "--k", "4"])
        assert code == 0
        code, cert = run(capsys, ["pipeline", "--name", "thm2_6", "--ell", "2", "--samples", "1000"])
        assert code == 0
        assert cert["epsilon"] == eps["value_rational"] == "1/23232"
        assert cert["bound"] == bound["value_rational"]

    def test_pipeline_command_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "art"
        code, rep = run(
            capsys,
            [
                "pipeline", "--name", "thm2_6", "--samples", "20000",
                "--out-dir", str(out_dir),
            ],
        )
        assert code == 0
        assert rep["epsilon"] == "1/1056"
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "base_coloring.txt",
            "interlaced.txt",
            "residues.txt",
            "torus_set.txt",
            "certificate.json",
        }
        # artifacts re-verify
        base = coloring_from_text((out_dir / "base_coloring.txt").read_text())
        assert verify_symmetric_ap_free(base, 4) is None
        phi = torus_coloring_from_text((out_dir / "interlaced.txt").read_text())
        assert phi.D == 352
        s = residue_set_from_text((out_dir / "residues.txt").read_text())
        assert len(s) == 48
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["bound"] == rep["bound"]

    @pytest.mark.parametrize("name", ["thm2_7", "thm2_5", "lemma7_10"])
    def test_other_pipelines_run(self, capsys, name):
        code, rep = run(capsys, ["pipeline", "--name", name, "--samples", "20000"])
        assert code == 0
        bound = Fraction(rep["bound"])
        assert rep["mc_mean"] <= float(bound) + 4 * rep["mc_stderr"] + 1e-12


class TestDensityAndStats:
    def test_lambda_exact_constant_grid(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text(grid_to_text(GridFunction(exact=(Fraction(1, 2),) * 24)))
        code, rep = run(capsys, ["density", "--lambda-exact", "--grid", str(g), "--k", "4"])
        assert code == 0
        assert rep["exact"] and rep["value_rational"] == "1/16"

    def test_gowers_cli_matches_library(self, capsys, tmp_path):
        import numpy as np

        rng = np.random.default_rng(3)
        f = GridFunction(rng.random(97))
        g = tmp_path / "g.txt"
        g.write_text(grid_to_text(f))
        back = GridFunction(
            np.array([float(x) for x in g.read_text().split()[1:]])
        )
        # at N = 97 the order-3 norm takes the Rader transform
        for s in (2, 3):
            code, rep = run(capsys, ["gowers", "--input", str(g), "--s", str(s), "--center"])
            assert code == 0
            assert rep["value"] == gowers_norm(back, s, center=True)

    def test_spectrum_cli(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text(grid_to_text(GridFunction(exact=(Fraction(1, 4),) * 16)))
        code, rep = run(capsys, ["spectrum", "--input", str(g)])
        assert code == 0 and rep["alpha"] == pytest.approx(0.25)

    def test_spectrum_parseval_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        import numpy as np

        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kw: 2 * fft(a, *args, **kw))
        g = tmp_path / "g.txt"
        g.write_text(grid_to_text(GridFunction(exact=(Fraction(1, 4),) * 16)))
        assert main(["spectrum", "--input", str(g)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Parseval violated")

    @pytest.mark.parametrize(
        "argv", [["spectrum"], ["gowers", "--s", "2"]], ids=["spectrum", "gowers"]
    )
    def test_nan_grid_rejected(self, capsys, tmp_path, argv):
        # NaN fails every comparison, so a range check written as "below 0 or
        # above 1" would let it through and print invalid JSON
        g = tmp_path / "g.txt"
        g.write_text("3\n0.5\nnan\n0.25\n")
        assert main(argv + ["--input", str(g)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: values must lie in [0, 1]\n"

    def test_converge_cli(self, capsys):
        code, rep = run(
            capsys,
            [
                "converge", "--slab", "1/4", "--k", "4",
                "--N-list", "97,199", "--samples", "20000",
            ],
        )
        assert code == 0 and len(rep["rows"]) == 2

    def test_converge_constant_above_512(self, capsys):
        argv = ["converge", "--const", "1/4", "--k", "4", "--N-list", "600", "--samples", "20000"]
        code, rep = run(capsys, argv)
        assert code == 0
        assert [row["lambda"] for row in rep["rows"]] == [1 / 256]

    def test_extract_cli(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        code, rep = run(
            capsys,
            [
                "extract", "--diag", "1/4", "--alpha", "1/4", "--k", "4",
                "--r", "16", "--N", "12", "--attempts", "200", "--out", str(out),
            ],
        )
        assert code == 0 and rep["succeeded"]
        c = coloring_from_text(out.read_text())
        assert verify_symmetric_ap_free(c, 4) is None


    @pytest.mark.parametrize("mode", ["--pattern-mc", "--lambda-mc"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_rejected(self, capsys, tmp_path, mode, samples):
        tc = tmp_path / "tc.txt"
        tc.write_text("8 2\n1 1 1 1 1 1 1 2\n")
        argv = ["density", mode, "--k", "4", "--samples", samples]
        argv += ["--torus-coloring", str(tc)] if mode == "--pattern-mc" else ["--slab", "1/4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be positive\n"


class TestDeterminism:
    def test_reports_byte_identical(self, capsys):
        argv = [
            "density", "--lambda-mc", "--slab", "1/4", "--k", "4",
            "--samples", "50000", "--seed", "11",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_pipeline_reports_byte_identical(self, capsys):
        argv = ["pipeline", "--name", "thm2_6", "--samples", "20000", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_one_parser_serves_successive_calls(self, capsys, tmp_path, z22_file):
        # a usage error, --version and two commands, each against a fresh
        # parser and then in turn against the parser the process keeps
        calls = [
            ["verify", z22_file],
            ["--version"],
            ["verify", z22_file, "--pattern", "symmetric", "--k", "4"],
            ["build-set", "--kind", "base9", "--r", "5", "--m", "901",
             "--out", str(tmp_path / "s.txt")],
        ]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append((main(argv), capsys.readouterr()))
        build_parser.cache_clear()
        in_turn = [(main(argv), capsys.readouterr()) for argv in calls]
        assert in_turn == alone
        assert [code for code, _ in alone] == [2, 0, 0, 0]
        assert alone[1][1].out == f"{__version__}\n"
        assert build_parser() is build_parser()


class TestMonteCarloBytes:
    """The full stdout of seeded Monte Carlo and extraction runs, pinned at
    values computed before the float remainder, the row sampler and the
    in-place fields were written: an estimate must not move by a single
    bit.  The two torus-set estimates are pinned at the draw in marked
    buckets, which has the same distribution but values of its own."""

    CASES = {
        "lambda_mc_diag": (
            ["density", "--lambda-mc", "--diag", "1/4", "--k", "4",
             "--samples", "300000", "--seed", "5"],
            0,
            '{"exact": false, "kind": "lambda-mc", "mean": 0.00473, "samples": 300000, '
            '"seed": 5, "stderr": 0.0001252682826595602, "version": "VERSION"}\n',
        ),
        # offsets (0, 1, 3) have |e_k| = 2, so y_k reads the branch uniform
        "lambda_mc_slab_two_branches": (
            ["density", "--lambda-mc", "--slab", "3/10", "--spec", "0,1,3",
             "--samples", "300000", "--seed", "2"],
            0,
            '{"exact": false, "kind": "lambda-mc", "mean": 0.03076, "samples": 300000, '
            '"seed": 2, "stderr": 0.00031524552219785383, "version": "VERSION"}\n',
        ),
        # a torus set over phi.txt with m = 2, width 1/2 and alternating
        # slots: every bucket is marked, so every sample is drawn, and about
        # 1/16 of them survive every factor
        "lambda_mc_wide_torus_set": (
            ["density", "--lambda-mc", "--torus-set", "wide.txt", "--k", "4",
             "--samples", "300000", "--seed", "3"],
            0,
            '{"exact": false, "kind": "lambda-mc", "mean": 0.06194, "samples": 300000, '
            '"seed": 3, "stderr": 0.00044008949877181016, "version": "VERSION"}\n',
        ),
        # m = 5, width 1/10 and slots 0, 1, 2: about 3 in 10 buckets are
        # marked, and 29 of 300000 samples survive every factor
        "lambda_mc_mid_torus_set": (
            ["density", "--lambda-mc", "--torus-set", "mid.txt", "--k", "4",
             "--samples", "300000", "--seed", "4"],
            0,
            '{"exact": false, "kind": "lambda-mc", "mean": 9.666666666666667e-05, "samples": 300000, '
            '"seed": 4, "stderr": 1.7949711642472168e-05, "version": "VERSION"}\n',
        ),
        "pattern_mc_readme_phi": (
            ["density", "--pattern-mc", "--torus-coloring", "phi.txt", "--k", "4",
             "--samples", "300000", "--seed", "5"],
            0,
            '{"exact": false, "kind": "pattern-mc", "mean": 0.0009966666666666668, '
            '"predicate": "binomial", "samples": 300000, "seed": 5, '
            '"stderr": 5.761008711283003e-05, "version": "VERSION"}\n',
        ),
        "extract_diag": (
            ["extract", "--diag", "1/4", "--alpha", "1/4", "--k", "4", "--r", "16",
             "--N", "12", "--attempts", "1000", "--seed", "9", "--out", "c.txt"],
            0,
            '{"attempts": 7, "out": "c.txt", "rejected": 6, "seed": 9, "succeeded": true, '
            '"succeeded_at": 6, "undefined_failures": 0, "version": "VERSION"}\n',
        ),
        # no attempt succeeds, so every block of attempts is drawn and counted
        "extract_slab_all_blocks": (
            ["extract", "--slab", "1/4", "--alpha", "1/4", "--k", "4", "--r", "16",
             "--N", "12", "--attempts", "2000", "--seed", "1"],
            1,
            '{"attempts": 2000, "rejected": 1982, "seed": 1, "succeeded": false, '
            '"succeeded_at": null, "undefined_failures": 18, "version": "VERSION"}\n',
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_pinned(self, capsys, tmp_path, monkeypatch, z22_file, name):
        argv, code, want = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        assert main(["interlace", "--input", z22_file, "--k", "4", "--out", "phi.txt"]) == 0
        slots = " ".join(str(j % 2) for j in range(48))
        (tmp_path / "wide.txt").write_text(f"phi.txt\n2 1/2\n{slots}\n")
        mid_slots = " ".join(str(j % 3) for j in range(48))
        (tmp_path / "mid.txt").write_text(f"phi.txt\n5 1/10\n{mid_slots}\n")
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().out == want.replace("VERSION", __version__)
        if name == "extract_diag":
            assert (tmp_path / "c.txt").read_text() == "interval\n12 5\n123344511233\n"


class TestPipelineBytes:
    """The full stdout, and the SHA-256 of each --out-dir file, of every
    chain at --samples 1000 --seed 0, pinned before the four chains shared
    one driver: the driver must not move a byte.  The version is hashed as
    the word VERSION, so a release does not move a pin."""

    RUNS = {
        "thm2_6-ell1": (
            ["--name", "thm2_6", "--ell", "1"],
            '{"bound": "1/2468280434155143168000", "bound_float": 4.05140350408476e-22, '
            '"bound_over_random": 1256.7424242424242, "epsilon": "1/1056", '
            '"epsilon_float": 0.000946969696969697, "marginal": "1/1327120", '
            '"marginal_float": 7.535113629513533e-07, "mc_mean": 0.0, "mc_stderr": 0.0, '
            '"out_dir": "out", "pipeline": "thm2_6", "samples": 1000, "seed": 0, '
            '"spec": "0,1,2,3", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "b4fb1b76abe155ebc9c26e44fdefdf90149c54f4e952bd4118d909f09bd3b009",
                "certificate.json": "d9337dbdceaeb88ef535499286f14e6274748b1d6f90347058ec2afb87985248",
                "interlaced.txt": "9c44a2da96f2d4e9cbf2ca32a1b8eac607f25105a2d9c863a7dc2acc343a6db1",
                "residues.txt": "da0198f9c800d0e169f990886912162d47b726004f65988ce8d193292a8a5d49",
                "torus_set.txt": "738700ac8544149bd096070bacb782ca7b496d827e49a3023f193cf7ca4ee374",
            },
        ),
        "thm2_6-ell2": (
            ["--name", "thm2_6", "--ell", "2"],
            '{"bound": "1/39585008924864200494022656", "bound_float": 2.526208853200178e-26, '
            '"bound_over_random": 514.116391184573, "epsilon": "1/23232", '
            '"epsilon_float": 4.304407713498623e-05, "marginal": "1/11943952", '
            '"marginal_float": 8.372438201359148e-08, "mc_mean": 0.0, "mc_stderr": 0.0, '
            '"out_dir": "out", "pipeline": "thm2_6", "samples": 1000, "seed": 0, '
            '"spec": "0,1,2,3", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "b4fb1b76abe155ebc9c26e44fdefdf90149c54f4e952bd4118d909f09bd3b009",
                "certificate.json": "d56b853a40b1b8d6caf9e3ab4d00e9f40c7e2acb74fd001d89d09b7d23346cf7",
                "interlaced.txt": "0029ae7a4d62f4b83e38ffd63527b99d81ba3b84ab8fe2bb929f2eb6d85f2337",
                "residues.txt": "6bddea870b71fcdf3056c70cfec632c0078baff1ffda4ffcb8a935871b4de916",
                "torus_set.txt": "393b30c524b3940129fce0d66d4270e65f4e80436b5a4f4fee87f2bddb2e82ef",
            },
        ),
        "thm2_7-ell1": (
            ["--name", "thm2_7", "--ell", "1"],
            '{"bound": "1/3385721757364125696", "bound_float": 2.953579979881532e-19, '
            '"bound_over_random": 139.63636363636363, "epsilon": "1/1056", '
            '"epsilon_float": 0.000946969696969697, "marginal": "1/147456", '
            '"marginal_float": 6.781684027777777e-06, "mc_mean": 0.0, "mc_stderr": 0.0, '
            '"out_dir": "out", "pipeline": "thm2_7", "samples": 1000, "seed": 0, '
            '"spec": "0,1,2,3", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "b4fb1b76abe155ebc9c26e44fdefdf90149c54f4e952bd4118d909f09bd3b009",
                "certificate.json": "3f40370594719e9a46bd84488ff60751c48a63b387887b3ca04bdb4170b0fd69",
                "interlaced.txt": "9c44a2da96f2d4e9cbf2ca32a1b8eac607f25105a2d9c863a7dc2acc343a6db1",
                "residues.txt": "880e4d6b074e98f4a3ce61367c39e1693f48ed9228370c5eebee2df3fdeb4da2",
                "torus_set.txt": "bd7bda1c060ce3275cef02f91a7ef48acc6d7b233548c00bab41b3819f24b66a",
            },
        ),
        "thm2_7-ell2": (
            ["--name", "thm2_7", "--ell", "2"],
            '{"bound": "1/54300205544605847912448", "bound_float": 1.8416136549953436e-23, '
            '"bound_over_random": 57.12396694214876, "epsilon": "1/23232", '
            '"epsilon_float": 4.304407713498623e-05, "marginal": "1/1327104", '
            '"marginal_float": 7.535204475308642e-07, "mc_mean": 0.0, "mc_stderr": 0.0, '
            '"out_dir": "out", "pipeline": "thm2_7", "samples": 1000, "seed": 0, '
            '"spec": "0,1,2,3", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "b4fb1b76abe155ebc9c26e44fdefdf90149c54f4e952bd4118d909f09bd3b009",
                "certificate.json": "f709489fcc52296938fe45e4ba40f805e04bb5ed4afb48bfb16e38fc2b724503",
                "interlaced.txt": "0029ae7a4d62f4b83e38ffd63527b99d81ba3b84ab8fe2bb929f2eb6d85f2337",
                "residues.txt": "ce26ec72111467994445ac64b288a55f1efbffeb7630af85a60726a1ce25b294",
                "torus_set.txt": "3d731ebc220337018246d9678618e34a34f19877fa8d8617eb1ab50c77ee1a14",
            },
        ),
        "thm2_5": (
            ["--name", "thm2_5"],
            '{"bound": "1/1048576000000000000000000", "bound_float": 9.5367431640625e-25, '
            '"bound_over_random": 3200.0, "epsilon": "1/100", "epsilon_float": 0.01, '
            '"marginal": "1/320000", "marginal_float": 3.125e-06, "mc_mean": 0.0, '
            '"mc_stderr": 0.0, "out_dir": "out", "pipeline": "thm2_5", "samples": 1000, '
            '"seed": 0, "spec": "0,1,2,3,4", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "9dfc858461d2cb19fd06d6b169c47acd8e0aaceccccd0d20cb9185e20807a7eb",
                "certificate.json": "923cb8ad32441e4c5f0fdb2bf8f2b757eccef79ce9c4201c17a72056f7b347b6",
                "interlaced.txt": "64a99dfaf9e57e7b41d74efb1606f75630812e99dd26a651215a7ca7d35f76ec",
                "residues.txt": "876d50d7922dd37445ee32ce0bbd49839ff74174eb4083208c40a1bfeacc26ba",
                "torus_set.txt": "5e04f2fc34b8e51ad60e9590953e2431d4029f6ff110f923c1e191ede7ee5c24",
            },
        ),
        "lemma7_10": (
            ["--name", "lemma7_10"],
            '{"bound": "1/57848230338713616384", "bound_float": 1.7286613508222958e-20, '
            '"bound_over_random": 209.45454545454547, "epsilon": "1/1584", '
            '"epsilon_float": 0.0006313131313131314, "marginal": "1/331776", '
            '"marginal_float": 3.0140817901234566e-06, "mc_mean": 0.0, "mc_stderr": 0.0, '
            '"out_dir": "out", "pipeline": "lemma7_10", "samples": 1000, "seed": 0, '
            '"spec": "0,1,2,3", "version": "VERSION"}\n',
            {
                "base_coloring.txt": "b4fb1b76abe155ebc9c26e44fdefdf90149c54f4e952bd4118d909f09bd3b009",
                "certificate.json": "dc2c673b231698a686290c99ecdea95296dbd292c3efd43c228e3c43c6b15db2",
                "interlaced.txt": "3a10a517512f40558bd464b6a2d139e1acb7732b6e4ecc9058dda3e79a955044",
                "residues.txt": "92edf5250be47aca8cca6b6e77b2f4c8e77c3fa78b5261510141e3f32ce69fe4",
                "torus_set.txt": "582e4570e0f396c8765a14eb1eb43ace46f6fdd655188f5e48ec394a4a543cad",
            },
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_stdout_and_files_pinned(self, capsys, tmp_path, monkeypatch, name):
        argv, want, digests = self.RUNS[name]
        monkeypatch.chdir(tmp_path)
        argv = ["pipeline", *argv, "--samples", "1000", "--seed", "0", "--out-dir", "out"]
        assert main(argv) == 0
        assert capsys.readouterr().out == want.replace("VERSION", __version__)
        got = {
            p.name: hashlib.sha256(p.read_text().replace(__version__, "VERSION").encode()).hexdigest()
            for p in (tmp_path / "out").iterdir()
        }
        assert got == digests

    @pytest.mark.parametrize("name", list(RUNS))
    def test_certificate_replays_from_the_files(self, capsys, tmp_path, monkeypatch, name):
        # density --certificate over the chain's own interlaced coloring and
        # residue set recomputes the bound the chain certified
        monkeypatch.chdir(tmp_path)
        argv = ["pipeline", *self.RUNS[name][0], "--samples", "1000", "--out-dir", "out"]
        code, cert = run(capsys, argv)
        assert code == 0
        code, rep = run(
            capsys,
            [
                "density", "--certificate", "--torus-coloring", "out/interlaced.txt",
                "--set", "out/residues.txt", "--spec", cert["spec"],
            ],
        )
        assert code == 0 and rep["value_rational"] == cert["bound"]


class TestMalformedToken:
    """A token that is not a number is a format error at its physical line
    (blank lines counted), in each of the five data-file readers."""

    CASES = {
        # name: (file text, argv after the file is written to PATH, line, token)
        "grid": ("2\n\n0/1\n1/2/3\n", ["density", "--lambda-exact", "--grid", "PATH"], 4, "1/2/3"),
        "grid-sign": ("2\n-/1 0/1\n", ["density", "--lambda-exact", "--grid", "PATH"], 2, "-/1"),
        "torus-coloring": (
            "2 2\n\n1 x\n", ["density", "--pattern-exact", "--torus-coloring", "PATH"], 3, "x"
        ),
        "torus-set-slots": (
            "phi.txt\n5 1/4\n0 y\n",
            ["density", "--lambda-mc", "--torus-set", "PATH", "--samples", "10"], 3, "y",
        ),
        "residue-set": (
            "\n10 2\n1 z\n",
            ["density", "--certificate", "--torus-coloring", "phi.txt", "--set", "PATH"], 3, "z",
        ),
        "coloring": ("cyclic\n3 2\n1 2 q\n", ["verify", "PATH", "--pattern", "symmetric"], 3, "q"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_2_at_the_line(self, capsys, tmp_path, monkeypatch, name):
        text, argv, line, token = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "phi.txt").write_text("2 2\n1 2\n")
        (tmp_path / "data.txt").write_text(text)
        argv = [str(tmp_path / "data.txt") if a == "PATH" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert repr(token) in captured.err


class TestMissingModeFlag:
    """A mode run without a flag it needs is a usage error naming the flag."""

    @pytest.mark.parametrize(
        "argv,mode,flag",
        [
            (["density", "--lambda-exact"], "--lambda-exact", "--grid"),
            (["density", "--pattern-exact"], "--pattern-exact", "--torus-coloring"),
            (["density", "--pattern-mc", "--samples", "10"], "--pattern-mc", "--torus-coloring"),
            (["density", "--certificate", "--set", "S"], "--certificate", "--torus-coloring"),
            (["density", "--certificate", "--torus-coloring", "T"], "--certificate", "--set"),
            (["build-set", "--kind", "behrend", "--out", "o"], "--kind behrend", "--N"),
            (["build-set", "--kind", "base9", "--r", "4", "--out", "o"], "--kind base9", "--m"),
            (["build-set", "--kind", "base9", "--m", "101", "--out", "o"], "--kind base9", "--r"),
            (["build-set", "--kind", "greedy", "--r", "4", "--out", "o"], "--kind greedy", "--m"),
            (["build-set", "--kind", "greedy", "--m", "101", "--out", "o"], "--kind greedy", "--r"),
        ],
    )
    def test_exit_2_naming_the_flag(self, capsys, argv, mode, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {mode} needs {flag}\n"


class TestColorIdsPastInt64:
    """A color id past the int64 range, in a coloring or a torus-coloring
    file, is an error of the file: exit 2, not a traceback."""

    BIG = 2**63

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--pattern-exact", "--k", "4", "--torus-coloring", "tc.txt"],
            ["torus-set", "--coloring", "tc.txt", "--set", "s.txt", "--k", "4", "--out", "A.txt"],
            ["verify", "c.txt", "--pattern", "symmetric", "--k", "4"],
        ],
    )
    def test_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tc.txt").write_text(f"2 {self.BIG}\n1 {self.BIG}\n")
        (tmp_path / "c.txt").write_text(f"cyclic\n1 {self.BIG}\n{self.BIG}\n")
        (tmp_path / "s.txt").write_text("97 2\n0 1\n")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestZeroDenominator:
    """A p/0 rational, in a file or a flag, is a format or usage error."""

    def test_grid_file(self, capsys, tmp_path):
        g = tmp_path / "g.txt"
        g.write_text("2\n0/1\n1/0\n")
        assert main(["density", "--lambda-exact", "--grid", str(g)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: zero denominator in '1/0'\n"

    def test_torus_set_width(self, capsys, tmp_path):
        (tmp_path / "phi.txt").write_text("2 2\n1 2\n")
        a = tmp_path / "A.txt"
        a.write_text("phi.txt\n5 1/0\n0 1\n")
        assert main(["density", "--lambda-mc", "--torus-set", str(a), "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: expected 'm num/den', got '5 1/0'\n"

    @pytest.mark.parametrize("flag", ["--slab", "--diag", "--const"])
    def test_field_flag(self, capsys, flag):
        assert main(["density", "--lambda-mc", flag, "1/0", "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: invalid rational value: '1/0'" in captured.err

    def test_extract_alpha(self, capsys):
        argv = ["extract", "--const", "1/2", "--alpha", "1/0", "--r", "2", "--N", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --alpha: invalid rational value: '1/0'" in captured.err


class TestDensityRange:
    """A density flag outside [0, 1] is a usage error naming the flag; at
    the ends of the range it is accepted."""

    @pytest.mark.parametrize(
        "argv,flag,value",
        [
            (["density", "--lambda-mc", "--slab", "3/2", "--samples", "10"], "--slab", "3/2"),
            (["density", "--lambda-mc", "--const", "3", "--samples", "10"], "--const", "3"),
            (["density", "--lambda-mc", "--diag=-1/4", "--samples", "10"], "--diag", "-1/4"),
            (["converge", "--const", "5/4", "--N-list", "8"], "--const", "5/4"),
            (["extract", "--const", "1/2", "--alpha", "-1", "--r", "2", "--N", "8"], "--alpha", "-1"),
            (["extract", "--const", "1/2", "--alpha", "2", "--r", "2", "--N", "8"], "--alpha", "2"),
        ],
    )
    def test_outside_exits_2_naming_the_flag(self, capsys, argv, flag, value):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: density {value} is outside [0, 1]" in captured.err

    @pytest.mark.parametrize("value,mean", [("0", 0.0), ("1", 1.0)])
    def test_ends_are_accepted(self, capsys, value, mean):
        code, rep = run(capsys, ["density", "--lambda-mc", "--const", value, "--samples", "10"])
        assert code == 0 and rep["mean"] == mean


class TestNegativeSeed:
    """A negative --seed is a usage error naming the flag and the value, on
    every command that takes one; seed 0 is accepted."""

    COMMANDS = [
        ["density", "--lambda-mc", "--slab", "1/4", "--samples", "10"],
        ["converge", "--const", "1/2", "--N-list", "8", "--samples", "10"],
        ["extract", "--const", "1/2", "--alpha", "1/2", "--r", "2", "--N", "8"],
        ["search", "--N", "8", "--r", "3", "--mode", "randomized"],
        ["search", "--N", "8", "--r", "3"],
        ["pipeline", "--name", "thm2_6", "--samples", "10"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:3:2]))
    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_negative_exits_2_naming_the_flag(self, capsys, monkeypatch, argv, value):
        import aplab.pipelines

        stages = []
        monkeypatch.setattr(aplab.pipelines, "_stage", lambda name, *a, **kw: stages.append(name))
        assert main([*argv, "--seed", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --seed: seed {value} is negative\n")
        assert stages == []

    @pytest.mark.parametrize("argv", COMMANDS[:5], ids=lambda a: "-".join(a[:3:2]))
    def test_zero_is_accepted(self, capsys, argv):
        code, rep = run(capsys, [*argv, "--seed", "0"])
        assert code in (0, 1) and rep["seed"] == 0

    def test_non_integer_keeps_the_int_message(self, capsys):
        assert main(["search", "--N", "8", "--r", "3", "--seed", "x"]) == 2
        assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: 'x'\n")


class TestStageErrors:
    @pytest.mark.parametrize(
        "argv,stage",
        [
            (["pipeline", "--name", "thm2_6", "--ell", "5"], "tensor-power"),
            (["pipeline", "--name", "thm2_5", "--k", "9"], "greedy-set"),
            (["pipeline", "--name", "thm2_5", "--k", "7"], "greedy-set"),
            (["pipeline", "--name", "lemma7_10", "--spec", "0,1,3"], "verify-base"),
        ],
    )
    def test_failed_stage_exits_2_and_names_stage(self, capsys, argv, stage):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: stage '{stage}': ")

    CHAINS = [
        ["--name", "thm2_6", "--ell", "2"],
        ["--name", "thm2_7"],
        ["--name", "thm2_5"],
        ["--name", "lemma7_10"],
    ]

    @pytest.mark.parametrize("argv", CHAINS)
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_rejected_before_any_stage(
        self, capsys, monkeypatch, argv, samples
    ):
        import aplab.pipelines

        # every stage, exact-probability included, runs through _stage
        stages = []
        monkeypatch.setattr(aplab.pipelines, "_stage", lambda name, *a, **kw: stages.append(name))
        assert main(["pipeline", *argv, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be positive\n"
        assert stages == []

    @pytest.mark.parametrize("argv", CHAINS)
    def test_negative_seed_rejected_before_any_stage(self, capsys, monkeypatch, argv):
        import aplab.pipelines

        stages = []
        monkeypatch.setattr(aplab.pipelines, "_stage", lambda name, *a, **kw: stages.append(name))
        assert main(["pipeline", *argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --seed: seed -1 is negative\n")
        assert stages == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--name", "lemma7_10", "--ell", "4"], "--ell"),
            (["--name", "thm2_7", "--k", "6"], "--k"),
            (["--name", "thm2_5", "--spec", "0,1,3"], "--spec"),
            (["--name", "thm2_5", "--base-coloring", "FIXTURE"], "--base-coloring"),
            (["--name", "thm2_6", "--k", "4"], "--k"),
        ],
    )
    def test_flag_the_pipeline_does_not_take_exits_2(
        self, capsys, monkeypatch, z22_file, argv, flag
    ):
        import aplab.pipelines

        stages = []
        monkeypatch.setattr(aplab.pipelines, "_stage", lambda name, *a, **kw: stages.append(name))
        argv = [z22_file if a == "FIXTURE" else a for a in argv]
        assert main(["pipeline", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: pipeline '{argv[1]}' takes no {flag}\n"
        assert stages == []

    @pytest.mark.parametrize("name", ["thm2_6", "thm2_7", "lemma7_10"])
    def test_interval_base_refused_before_any_stage(self, capsys, monkeypatch, tmp_path, name):
        import aplab.pipelines

        stages = []
        monkeypatch.setattr(aplab.pipelines, "_stage", lambda name, *a, **kw: stages.append(name))
        base = tmp_path / "interval.txt"
        base.write_text("interval\n12 5\n123344511233\n")
        assert main(["pipeline", "--name", name, "--base-coloring", str(base)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: base must be cyclic\n"
        assert stages == []

    def test_pipeline_k_zero_is_refused(self, capsys):
        assert main(["pipeline", "--name", "thm2_5", "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be odd and at least 5\n"

    def test_greedy_table_memory_budget_exits_2(self, capsys, tmp_path):
        out = tmp_path / "s.txt"
        argv = ["build-set", "--kind", "greedy", "--k", "4", "--m", "1250001", "--r", "3"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: budget greedy_table exceeded: needs 20000016, cap 20000000\n"
        )
        assert not out.exists()

    def test_greedy_count_budget_exits_2(self, capsys):
        # the palette of thm2_5 at k = 7 is 49, so solution counts reach 49^6
        assert main(["pipeline", "--name", "thm2_5", "--k", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: stage 'greedy-set': "
            "budget greedy_table exceeded: needs 13841287201, cap 20000000\n"
        )


FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "z22_coloring.txt")


class TestCertificateDefaultWidth:
    """Without --width a certificate takes 1/(2^k m), or the sound width
    where that is smaller; a --width above the sound width is refused."""

    @pytest.fixture()
    def chain(self, capsys, tmp_path):
        phi, s = str(tmp_path / "phi.txt"), str(tmp_path / "s.txt")
        assert main(["interlace", "--input", FIXTURE, "--k", "4", "--out", phi]) == 0
        argv = ["build-set", "--kind", "greedy", "--spec", "0,1,2,4", "--m", "200000", "--r", "48"]
        assert main([*argv, "--out", s]) == 0
        capsys.readouterr()
        return ["density", "--certificate", "--torus-coloring", phi, "--set", s, "--spec", "0,1,2,4"]

    def test_mass_above_half_certifies_at_the_sound_width(self, capsys, chain):
        # e = (3, -8, 6, -1) has mass 9 > 2^3, so the default 1/(16 m) is
        # unsound and 1/(18 m) is taken
        code, rep = run(capsys, chain)
        assert code == 0
        assert run(capsys, [*chain, "--width", "1/3600000"]) == (code, rep)

    def test_width_above_the_sound_width_is_refused(self, capsys, chain):
        assert main([*chain, "--width", "1/3599999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("need width <= 1/3600000\n")


class TestSpecUsageError:
    """A --spec that is not an increasing list of integers is a usage error
    naming the flag and the value, on every command that takes one."""

    COMMANDS = [
        ["verify", FIXTURE, "--pattern", "binomial"],
        ["search", "--N", "8", "--r", "3"],
        ["build-set", "--kind", "greedy", "--m", "64", "--r", "3", "--out", "unwritten.txt"],
        ["density", "--lambda-mc", "--slab", "1/4", "--samples", "10"],
        ["converge", "--const", "1/2", "--N-list", "8", "--samples", "10"],
        ["pipeline", "--name", "lemma7_10", "--samples", "10"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    @pytest.mark.parametrize(
        "value,reason",
        [("0,x,2", "offsets must be integers"), ("3,2,1", "offsets must be strictly increasing")],
    )
    def test_exits_2_naming_flag_and_value(self, capsys, tmp_path, monkeypatch, argv, value, reason):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--spec", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --spec: invalid value '{value}': {reason}\n")
        assert list(tmp_path.iterdir()) == []


class TestSearchSize:
    @pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, mode, n):
        assert main(["search", "--N", n, "--r", "3", "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N must be at least 1\n"

    def test_over_budget_exits_2_before_constraints(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("constraints built over budget")

        monkeypatch.setattr(colorings, "_symmetric_constraints", unreachable)
        assert main(["search", "--N", "1000", "--r", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget exhaustive_n exceeded: needs 1000, cap 64\n"


class TestCommandPaths:
    """Commands that no other test runs to completion: exit code, report
    keys and the file each writes."""

    CASES = [
        (
            ["build-set", "--kind", "greedy", "--k", "4", "--m", "2000", "--r", "8", "--out", "OUT"],
            0, ["complete", "kind", "modulus", "out", "scanned", "size", "version"], "residues",
        ),
        (
            ["build-set", "--kind", "greedy", "--k", "4", "--m", "64", "--r", "48", "--out", "OUT"],
            1, ["complete", "infeasible_at_budget", "kind", "scanned", "version"], None,
        ),
        (
            ["build-set", "--kind", "behrend", "--N", "1000", "--k", "3", "--out", "OUT"],
            0, ["kind", "modulus", "out", "size", "version"], "residues",
        ),
        (
            ["interlace", "--input", FIXTURE, "--m", "3", "--out", "OUT"],
            0, ["D", "colors", "out", "version"], "torus-coloring",
        ),
        (
            ["verify", FIXTURE, "--pattern", "mono", "--k", "4"],
            1, ["input", "ok", "pattern", "version", "witness"], None,
        ),
        (
            ["verify", FIXTURE, "--pattern", "abab-abba", "--a-bound", "5"],
            1, ["input", "ok", "pattern", "version", "witness"], None,
        ),
        (
            ["density", "--lambda-exact", "--grid", "GRID", "--k", "3"],
            0, ["exact", "kind", "value", "version"], None,
        ),
        (
            ["pipeline", "--name", "thm2_7", "--base-coloring", FIXTURE, "--samples", "10", "--out-dir", "OUT"],
            0,
            [
                "bound", "bound_float", "bound_over_random", "epsilon", "epsilon_float", "marginal",
                "marginal_float", "mc_mean", "mc_stderr", "out_dir", "pipeline", "samples", "seed",
                "spec", "version",
            ],
            "artifacts",
        ),
    ]

    IDS = [
        "greedy", "greedy-infeasible", "behrend", "interlace-m", "verify-mono", "verify-abab-abba",
        "lambda-exact-float", "pipeline-base-coloring",
    ]

    @pytest.mark.parametrize("argv,code,keys,written", CASES, ids=IDS)
    def test_runs(self, capsys, tmp_path, argv, code, keys, written):
        out = tmp_path / "out"
        grid = tmp_path / "grid.txt"
        grid.write_text("5\n0.5\n0.25\n1.0\n0.0\n0.75\n")
        argv = [{"OUT": str(out), "GRID": str(grid)}.get(a, a) for a in argv]
        got, rep = run(capsys, argv)
        assert got == code
        assert sorted(rep) == keys
        if written is None:
            assert not out.exists()
        elif written == "residues":
            S = residue_set_from_text(out.read_text())
            assert (S.modulus, len(S)) == (rep["modulus"], rep["size"])
        elif written == "torus-coloring":
            tc = torus_coloring_from_text(out.read_text())
            assert (tc.D, tc.r) == (rep["D"], rep["colors"]) == (66, 9)
        else:
            names = sorted(p.name for p in out.iterdir())
            assert names == [
                "base_coloring.txt", "certificate.json", "interlaced.txt", "residues.txt",
                "torus_set.txt",
            ]
            assert coloring_from_text((out / "base_coloring.txt").read_text()).colors == Z22_DIGITS
        if argv[0] == "density":
            assert rep["exact"] is False and rep["value"] == 0.125
