"""The benchmark's four workloads.

Each workload is a class whose constructor is the set-up: it imports aplab
and builds the seeded inputs, and nothing else, so the benchmark can time it.
``prepare`` then computes the reference values the checks need (untimed) and
returns spot checks that run once before the timed loop.  ``tasks`` returns
one round: the fixed sequence of tasks the timed loop repeats.

Every task returns the program's output and every check raises ``Wrong``
when that output is not the correct one.  Checks never call aplab, so a
traced run records only the tasks.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pinned
from pinned import MC_SIGMAS

Z22_UNITS = tuple(u for u in range(1, 22) if math.gcd(u, 22) == 1)
AP4 = (0, 1, 2, 3)


class Wrong(Exception):
    """A task's output is not the correct one."""


def expect(ok, message):
    if not ok:
        raise Wrong(message)


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliOutput:
    stdout: str
    bytes_out: int


def affine_base(rng):
    """The bundled Z/22Z coloring composed with n -> u*n + t, u a unit mod 22.

    Affine bijections map progressions to progressions, so every image is
    again free of symmetrically colored 4-term progressions.
    """
    from aplab.colorings import CYCLIC, Z22_COLORING, Coloring

    u, t = rng.choice(Z22_UNITS), rng.randrange(22)
    colors = [int(Z22_COLORING[(u * n + t) % 22]) for n in range(22)]
    return Coloring.from_raw(CYCLIC, colors), (u, t)


def write_base(rng, work_dir):
    from aplab.colorings import coloring_to_text

    base, image = affine_base(rng)
    path = Path(work_dir) / "base.txt"
    path.write_text(coloring_to_text(base))
    return str(path), image


def run_cli(cli, argv, out_dir):
    """``aplab`` in process; a non-zero exit code is a failed task."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"aplab exited with {code}: {err.getvalue().strip()}")
    stdout = out.getvalue()
    written = sum(p.stat().st_size for p in Path(out_dir).iterdir())
    return CliOutput(stdout, len(stdout.encode()) + len(err.getvalue().encode()) + written)


def base9(r):
    """The first r positive integers with base-9 digits in {0, 1, 2}."""
    out = []
    for j in range(1, r + 1):
        val, w = 0, 1
        while j:
            val += (j % 3) * w
            j //= 3
            w *= 9
        out.append(val)
    return tuple(out)


def check_chain(result, out_dir, k, epsilon, modulus, elements):
    """A pipeline certificate: exact epsilon, slab width 1/(2^k m) as the
    marginal, bound = epsilon * width^(k-1), the Monte Carlo estimate under
    the bound, the residue set on disk and the saved certificate."""
    cert = json.loads(result.stdout)
    eps, bound, marginal = (Fraction(cert[key]) for key in ("epsilon", "bound", "marginal"))
    width = Fraction(1, 2**k * modulus)
    expect(eps == epsilon, f"epsilon {eps} != {epsilon}")
    expect(marginal == width, f"marginal {marginal} != width {width}")
    expect(bound == eps * width ** (k - 1), f"bound {bound} != epsilon * width^{k - 1}")
    expect(
        cert["mc_mean"] - MC_SIGMAS * cert["mc_stderr"] <= float(bound),
        f"Monte Carlo {cert['mc_mean']} +- {cert['mc_stderr']} exceeds the bound {float(bound)}",
    )
    header, _, body = (Path(out_dir) / "residues.txt").read_text().partition("\n")
    expect(header.split() == [str(modulus), str(len(elements))], f"residue header {header!r}")
    expect(tuple(int(x) for x in body.split()) == tuple(elements), "residue elements differ")
    saved = json.loads((Path(out_dir) / "certificate.json").read_text())
    expect(saved == {key: v for key, v in cert.items() if key != "out_dir"}, "certificate.json differs")


def check_within(est, exact, what):
    expect(est.stderr > 0, f"{what}: zero standard error")
    expect(
        abs(est.mean - float(exact)) <= MC_SIGMAS * est.stderr,
        f"{what}: {est.mean} +- {est.stderr} is not within {MC_SIGMAS} stderr of {float(exact)}",
    )


def symmetric_free(oracles, coloring):
    return oracles.naive_symmetric_witness(coloring.colors, coloring.ambient, range(4)) is None


class Certify:
    """thm2_6 at ell = 2 through ``aplab pipeline``, the user path to a
    certificate; exact pattern probability at D = 7744 dominates."""

    def __init__(self, seed, work_dir):
        import aplab.cli

        self.cli = aplab.cli
        self.base, image = write_base(random.Random(seed), work_dir)
        self.inputs = {"affine": image}
        self.out = Path(work_dir) / "out"
        self.out.mkdir()

    def prepare(self, oracles):
        return []

    def tasks(self, seed):
        argv = ["pipeline", "--name", "thm2_6", "--ell", "2", "--base-coloring", self.base,
                "--seed", str(seed), "--out-dir", str(self.out)]
        D = 16 * 22**2
        r = 16 * 3**2  # 16 interlaced palettes of the 9 color pairs of the square
        return [
            Task(
                "thm2_6",
                lambda: run_cli(self.cli, argv, self.out),
                lambda res: check_chain(res, self.out, 4, Fraction(1, 3 * D), 36 * r * r + 1, base9(r)),
            )
        ]


class Greedy:
    """The three greedy-set chains through ``aplab pipeline``."""

    CHAINS = {  # name -> (extra arguments, k, structural D or None, takes a base)
        "thm2_7": ([], 4, 16 * 22, True),
        "thm2_5": (["--k", "5"], 5, None, False),
        "lemma7_10": (["--spec", "0,1,2,3"], 4, 24 * 22, True),
    }

    def __init__(self, seed, work_dir):
        import aplab.cli

        self.cli = aplab.cli
        self.base, image = write_base(random.Random(seed), work_dir)
        self.inputs = {"affine": image}
        self.out = {}
        for name in self.CHAINS:
            self.out[name] = Path(work_dir) / name
            self.out[name].mkdir()

    def prepare(self, oracles):
        return []

    def _task(self, name, seed):
        extra, k, D, takes_base = self.CHAINS[name]
        argv = ["pipeline", "--name", name, *extra, "--samples", "100000", "--seed", str(seed),
                "--out-dir", str(self.out[name])]
        if takes_base:
            argv += ["--base-coloring", self.base]
        epsilon = Fraction(1, 3 * D) if D else pinned.THM2_5_EPSILON
        modulus, elements = pinned.GREEDY[name]
        return Task(
            name,
            lambda: run_cli(self.cli, argv, self.out[name]),
            lambda res: check_chain(res, self.out[name], k, epsilon, modulus, elements),
        )

    def tasks(self, seed):
        return [self._task(name, seed) for name in self.CHAINS]


class Scan:
    """Exact integer scans over Z/NZ in ``uniformity`` and ``colorings``."""

    def __init__(self, seed, work_dir):
        from aplab import PatternSpec, quadratic_indicator, tensor_power

        rng = random.Random(seed)
        self.N = rng.choice(sorted(pinned.QUADRATIC_AP4_COUNTS))
        base, image = affine_base(rng)
        self.inputs = {"N": self.N, "affine": image}
        self.spec = PatternSpec(AP4)
        self.quadratic = quadratic_indicator(self.N, Fraction(1, 2))
        self.quadratic_4001 = quadratic_indicator(4001, Fraction(1, 4))
        self.cube = tensor_power(base, 3)
        self.square = tensor_power(base, 2)

    def prepare(self, oracles):
        import numpy as np
        from aplab import gowers_norm, lambda_exact, quadratic_indicator

        n = 61
        indicator = [int(2 * (x * x % n) < n) for x in range(n)]
        want_lambda = oracles.naive_lambda([indicator] * 4, AP4, n)
        m = 24
        values = np.array([float(4 * (x * x % m) < m) for x in range(m)])
        want_u3 = oracles.naive_gowers(values - values.mean(), 3)
        return [
            Task(
                "spot.lambda_exact",
                lambda: lambda_exact(quadratic_indicator(n, Fraction(1, 2)), self.spec),
                lambda got: expect(got == want_lambda, f"lambda_exact {got} != naive {want_lambda}"),
            ),
            Task(
                "spot.gowers_norm",
                lambda: gowers_norm(quadratic_indicator(m, Fraction(1, 4)), 3, center=True),
                lambda got: expect(
                    abs(got - want_u3) <= pinned.GOWERS_RTOL * want_u3, f"U3 {got} != naive {want_u3}"
                ),
            ),
        ]

    def _check_abab(self, w):
        expect(w is not None, "the squared coloring has ABAB/ABBA patterns, none reported")
        quad = w.detail["quad"]
        expect(len(quad) == 4 and 1 <= quad[0] < quad[1] < quad[2] < quad[3] <= 8, f"quad {quad}")
        n = self.square.n
        expect(w.d % n != 0, "zero difference")
        pts = tuple((w.n + (q - quad[0]) * w.d) % n for q in quad)
        expect(pts == tuple(w.points), f"points {w.points} != {pts}")
        c = [self.square.colors[p] for p in pts]
        expect(c == list(w.colors), "reported colors differ from the coloring")
        if w.kind == "abab":
            expect(c[0] == c[2] and c[1] == c[3], f"not ABAB: {c}")
        else:
            expect(w.kind == "asymmetric-abba", f"kind {w.kind}")
            expect(quad[0] + quad[3] != quad[1] + quad[2], f"{quad} is symmetric")
            expect(c[0] == c[3] and c[1] == c[2], f"not ABBA: {c}")

    def tasks(self, seed):
        import aplab

        want = Fraction(pinned.QUADRATIC_AP4_COUNTS[self.N], self.N**2)
        return [
            Task(
                "lambda_exact",
                lambda: aplab.uniformity.lambda_exact(self.quadratic, self.spec),
                lambda got: expect(got == want, f"lambda_exact at N={self.N}: {got} != {want}"),
            ),
            Task(
                "verify_symmetric_ap_free",
                lambda: aplab.colorings.verify_symmetric_ap_free(self.cube, 4),
                lambda w: expect(w is None, f"witness on a free coloring: {w}"),
            ),
            Task(
                "verify_binomial_pattern_free",
                lambda: aplab.colorings.verify_binomial_pattern_free(self.cube, self.spec),
                lambda w: expect(w is None, f"witness on a free coloring: {w}"),
            ),
            Task(
                "gowers_norm",
                lambda: aplab.uniformity.gowers_norm(self.quadratic_4001, 3, center=True),
                lambda got: expect(
                    abs(got - pinned.GOWERS_U3_4001) <= pinned.GOWERS_RTOL * pinned.GOWERS_U3_4001,
                    f"U3 {got} != {pinned.GOWERS_U3_4001}",
                ),
            ),
            Task(
                "verify_abab_abba_free",
                lambda: aplab.colorings.verify_abab_abba_free(self.square, 8),
                self._check_abab,
            ),
        ]


class Sample:
    """Seeded Monte Carlo, randomized extraction and randomized search."""

    MC_SAMPLES = 2_000_000
    CONVERGENCE_N = (97, 199)
    CONVERGENCE_SAMPLES = 1_000_000
    SEARCH = dict(n=20, pattern=4, r=5, mode="randomized", budget=20_000)

    def __init__(self, seed, work_dir):
        from aplab import (
            DiagonalStrip,
            PatternSpec,
            SlabIndicator,
            base9_set,
            build_torus_set,
            interlace_k,
        )

        base, image = affine_base(random.Random(seed))
        self.inputs = {"affine": image}
        self.spec = PatternSpec(AP4)
        self.phi = interlace_k(base, 4)
        self.m = 36 * self.phi.r**2 + 1
        self.torus_set = build_torus_set(self.phi, base9_set(self.phi.r, self.m), 4)
        self.slab = SlabIndicator(Fraction(1, 4))
        self.strip = DiagonalStrip(Fraction(1, 4))

    def prepare(self, oracles):
        import numpy as np

        self.oracles = oracles
        self.rows = {}
        for n in self.CONVERGENCE_N:
            slab = [int(4 * (x * x % n) < n) for x in range(n)]
            values = np.array(slab, dtype=np.float64)
            self.rows[n] = (
                float(oracles.naive_lambda([slab] * 4, AP4, n)),
                oracles.naive_gowers(values - values.mean(), 2),
            )
        return []

    def _check_torus_set(self, est):
        # exact certificate: epsilon = 1/(3D) at D = 352, width 1/(16 m)
        bound = Fraction(1, 3 * 16 * 22) * Fraction(1, 16 * self.m) ** 3
        expect(est.mean >= 0, f"negative estimate {est.mean}")
        expect(
            est.mean - MC_SIGMAS * est.stderr <= float(bound),
            f"{est.mean} +- {est.stderr} exceeds the certificate {float(bound)}",
        )

    def _check_extract(self, res, attempts):
        if res.coloring is None:
            expect(res.attempts == attempts, f"{res.attempts} attempts of {attempts}")
            expect(res.undefined_failures + res.rejected == attempts, "failure counts do not add up")
            return
        expect(res.coloring.n == 12, f"length {res.coloring.n}")
        expect(symmetric_free(self.oracles, res.coloring), "extracted coloring has a symmetric 4-AP")
        expect(res.succeeded_at == res.attempts - 1 < attempts, "success index")

    def _check_search(self, res):
        if res.status == "exhausted":
            expect(res.nodes == self.SEARCH["budget"], f"exhausted after {res.nodes} rounds")
            return
        expect(res.status == "found", f"status {res.status}")
        c = res.coloring
        expect(c.n == 20 and c.r <= self.SEARCH["r"], f"coloring of {c.n} with {c.r} colors")
        expect(symmetric_free(self.oracles, c), "found coloring has a symmetric 4-AP")

    def _check_convergence(self, table):
        v = float(pinned.SLAB_QUARTER_AP4)
        sigma = math.sqrt(v * (1 - v) / self.CONVERGENCE_SAMPLES)
        expect(table["reference_kind"] == "mc", table["reference_kind"])
        expect(
            abs(table["reference"] - v) <= MC_SIGMAS * sigma,
            f"reference {table['reference']} not within {MC_SIGMAS} sigma of {v}",
        )
        expect([row["N"] for row in table["rows"]] == list(self.CONVERGENCE_N), "rows")
        for row in table["rows"]:
            lam, norm = self.rows[row["N"]]
            expect(row["lambda"] == lam, f"lambda at N={row['N']}: {row['lambda']} != {lam}")
            expect(row["gap"] == abs(lam - table["reference"]), f"gap at N={row['N']}")
            expect(abs(row["centered_norm"] - norm) <= 1e-9 * norm, f"U2 at N={row['N']}")

    def tasks(self, seed):
        import aplab

        torus, unif, col = aplab.torus, aplab.uniformity, aplab.colorings
        quarter = Fraction(1, 4)
        return [
            Task(
                "lambda_tilde_mc.strip",
                lambda: torus.lambda_tilde_mc(self.strip, self.spec, self.MC_SAMPLES, seed),
                lambda est: check_within(est, pinned.SLAB_QUARTER_AP4, "strip"),
            ),
            Task(
                "lambda_tilde_mc.torus_set",
                lambda: torus.lambda_tilde_mc(self.torus_set, self.spec, self.MC_SAMPLES, seed),
                self._check_torus_set,
            ),
            Task(
                "pattern_probability_mc",
                lambda: torus.pattern_probability_mc(self.phi, self.spec, "binomial", self.MC_SAMPLES, seed),
                lambda est: check_within(est, Fraction(1, 3 * self.phi.D), "interlacing"),
            ),
            Task(
                "extract_coloring.slab",
                lambda: unif.extract_coloring(self.slab, quarter, 4, 16, 12, seed, 10_000),
                lambda res: self._check_extract(res, 10_000),
            ),
            Task(
                "extract_coloring.strip",
                lambda: unif.extract_coloring(self.strip, quarter, 4, 16, 12, seed, 2_000),
                lambda res: self._check_extract(res, 2_000),
            ),
            Task(
                "search_coloring",
                lambda: col.search_coloring(seed=seed, **self.SEARCH),
                self._check_search,
            ),
            Task(
                "convergence_experiment",
                lambda: unif.convergence_experiment(
                    self.slab, self.spec, list(self.CONVERGENCE_N), None, self.CONVERGENCE_SAMPLES, seed
                ),
                self._check_convergence,
            ),
        ]


WORKLOADS = {"certify": Certify, "greedy": Greedy, "scan": Scan, "sample": Sample}
