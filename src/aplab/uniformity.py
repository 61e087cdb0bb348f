"""Discretized torus functions on Z/NZ and their statistics: progression
densities, Fourier spectra, Gowers box norms, convergence tables, and
randomized extraction of interval colorings.

Spectra and box norms run in binary64 (the FFT needs floats) with stated
tolerances; progression densities over indicator or rational grids are exact
rationals, and serve as the correctness anchor for everything float-based.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .colorings import INTERVAL, Coloring, verify_symmetric_ap_free
from .errors import FormatError, SelfCheckError, check_budget, data_lines
from .patterns import PatternSpec
from .scan import eval_clauses, ordered_map, predicate_clauses, shift_blocks
from .torus import DEFAULT_SAMPLES, _frac, _sample_blocks, lambda_tilde_mc

__all__ = [
    "GridFunction",
    "SpectrumReport",
    "ExtractionResult",
    "discretize",
    "quadratic_indicator",
    "lambda_exact",
    "spectrum",
    "gowers_norm",
    "convergence_experiment",
    "extract_coloring",
    "grid_to_text",
    "grid_from_text",
]

PARSEVAL_RTOL = 1e-10


class GridFunction:
    """A length-N sequence of values in [0, 1] on Z/NZ.

    Carries exact rational values (ints or Fractions) alongside the float
    array when the source supports it (torus sets, constants); the float
    values are then the exact ones converted, and are derived from them when
    not given.  Exact values make the progression density an exact rational.
    """

    def __init__(self, values=None, exact=None):
        self.exact = tuple(exact) if exact is not None else None
        if self.exact is not None:
            # one conversion per distinct object: a parsed file or a constant
            # grid shares a few
            uniq = {id(v): v for v in self.exact}
            if not all(isinstance(v, (int, Fraction)) for v in uniq.values()):
                raise ValueError("exact values must be ints or Fractions")
            floats = {key: float(v) for key, v in uniq.items()}
            converted = np.array([floats[id(v)] for v in self.exact], dtype=np.float64)
            if values is None:
                values = converted
            elif not np.array_equal(converted, values):
                raise ValueError("exact values must equal the float values")
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("values must be a nonempty 1-D sequence")
        # written so that NaN, which fails every comparison, is rejected too
        if not np.all((self.values >= -1e-12) & (self.values <= 1 + 1e-12)):
            raise ValueError("values must lie in [0, 1]")

    @property
    def N(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(self.values.mean())

    @cached_property
    def _integer_form(self) -> tuple[int, list[int]]:
        """(L, numerators): the exact values as integers over their least
        common denominator L."""
        L = math.lcm(*{v.denominator for v in self.exact})
        return L, [v.numerator * (L // v.denominator) for v in self.exact]


@dataclass(frozen=True)
class SpectrumReport:
    """Mean coefficient and largest nonzero-frequency magnitude."""

    alpha: float
    max_nonzero: float


def discretize(F, N: int, degree: int) -> GridFunction:
    """f(n) = F(n/N, (n^degree mod N)/N), read from ``F.exact_value_at`` at
    exact rational coordinates, so the grid carries rational values.  Every
    torus field (``TorusSet`` and the bundled ones) has that method."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return GridFunction(
        exact=[F.exact_value_at(Fraction(n, N), Fraction(pow(n, degree, N), N)) for n in range(N)]
    )


def quadratic_indicator(N: int, alpha) -> GridFunction:
    """Indicator of {n : n^2 mod N < alpha*N}, the classical Fourier-uniform
    set with skewed 4-term progression count."""
    # n^2 mod N / N < num/den, compared in integers (den > 0)
    num, den = Fraction(alpha).as_integer_ratio()
    return GridFunction(exact=[int(pow(n, 2, N) * den < num * N) for n in range(N)])


# ---------------------------------------------------------------------------
# progression density


def lambda_exact(fs, spec: PatternSpec):
    """Average over all (n, d) in (Z/NZ)^2 of the product of f_i at
    n + a_i d, for one grid or a sequence of k grids of equal length: a
    Fraction when every grid is exact, a float otherwise.

    Blocks of differences are read from ``scan.shift_blocks``.  Exact grids
    are scanned in their integer form, numerators over a least common
    denominator L_i, and the count of products is divided by N^2 prod L_i:
    indicators (every L_i = 1) as booleans, other grids as Python integers.
    Float rows are multiplied in position order, each row is summed on its
    own and the rows are added in increasing d, so the value is the one a
    sum per difference gives, bit for bit.
    """
    if isinstance(fs, GridFunction):
        fs = [fs] * spec.k
    fs = list(fs)
    if len(fs) != spec.k:
        raise ValueError(f"need {spec.k} grids, got {len(fs)}")
    N = fs[0].N
    if any(f.N != N for f in fs):
        raise ValueError("grids must share N")
    offsets = spec.normalized().a
    distinct = {id(f): f for f in fs}
    exact = all(f.exact is not None for f in distinct.values())
    if exact:
        forms = {key: f._integer_form for key, f in distinct.items()}
        denom = N * N * math.prod(forms[id(f)][0] for f in fs)
        dtype = bool if denom == N * N else object
        arrays = {key: np.array(nums, dtype=dtype) for key, (_, nums) in forms.items()}
    else:
        arrays = {key: f.values for key, f in distinct.items()}
    total = 0
    for _, views in shift_blocks([arrays[id(f)] for f in fs], offsets, 0, N):
        prod = views[0] * views[1]
        for v in views[2:]:
            prod *= v
        if not exact:
            # row sums in increasing d, as one sum per d would add them
            for s in prod.sum(axis=1).tolist():
                total += s
        elif dtype is bool:
            total += int(np.count_nonzero(prod))
        else:
            total += int(prod.sum())
    return Fraction(total, denom) if exact else total / (N * N)


# ---------------------------------------------------------------------------
# spectra and box norms


def spectrum(f: GridFunction) -> SpectrumReport:
    """The mean and the largest nonzero-frequency magnitude of the N Fourier
    coefficients fhat(r) = E_n f(n) e(-rn/N), computed by FFT.

    Every call self-checks Parseval (sum |fhat|^2 == E|f|^2) to 1e-10
    relative; a failure means the transform cannot be trusted.
    """
    N = f.N
    coeffs = np.fft.fft(f.values) / N
    energy_freq = float(np.sum(np.abs(coeffs) ** 2))
    energy_time = float(np.mean(f.values**2))
    scale = max(energy_time, 1e-300)
    if abs(energy_freq - energy_time) > PARSEVAL_RTOL * scale:
        raise SelfCheckError(f"Parseval violated: {energy_freq} vs {energy_time}")
    mags = np.abs(coeffs)
    alpha = float(coeffs[0].real)
    max_nonzero = float(mags[1:].max()) if N > 1 else 0.0
    return SpectrumReport(alpha, max_nonzero)


def _rader_order(N: int) -> np.ndarray | None:
    """The residues g^m mod N, m = 0..N-2, of a primitive root g, when N is an
    odd prime and N - 1 has no prime factor above 11; None for every other N.

    For those N a length-(N - 1) transform runs only on pocketfft's dedicated
    passes (2, 3, 4, 5, 7 and 11), so Rader's two such transforms beat the
    one of prime length N (through Bluestein at N = 4001).  Raises
    ``SelfCheckError`` unless the powers hit 1..N-1 exactly once."""
    if N < 3 or N % 2 == 0 or any(N % p == 0 for p in range(3, math.isqrt(N) + 1, 2)):
        return None
    rest, factors = N - 1, []
    for p in (2, 3, 5, 7, 11):
        if rest % p == 0:
            factors.append(p)
            while rest % p == 0:
                rest //= p
    if rest != 1:
        return None
    g = next(g for g in range(2, N) if all(pow(g, (N - 1) // p, N) != 1 for p in factors))
    powers = [1]
    for _ in range(N - 2):
        powers.append(powers[-1] * g % N)
    order = np.array(powers, dtype=np.intp)
    if not np.array_equal(np.sort(order), np.arange(1, N)):
        raise SelfCheckError(f"{g} is not a primitive root mod {N}")
    return order


def _rader_transform(z: np.ndarray, kernel: np.ndarray) -> None:
    """Rader's DFT of prime length N, in place on the rows of z (N + 1
    columns).  On entry columns 0..N-1 hold a row at x = g^0, ..., g^(N-2),
    then x = 0, and ``kernel`` is the length-(N - 1) FFT of
    exp(-2 pi i g^-m / N).  On exit, with M = (N - 1)/2, columns 0..M hold
    the frequencies 0, g^0, g^-1, ..., g^-(M-1) and columns M+1..N their
    negatives 0, -g^0, ..., -g^-(M-1), since g^M = -1."""
    N = z.shape[1] - 1
    half = N // 2
    total = z[:, :N].sum(axis=1)
    conv = z[:, : N - 1]
    _transform_in_place(np.fft.fft, conv)
    conv *= kernel
    # adds the value at x = 0 to every output of the inverse
    conv[:, 0] += (N - 1) * z[:, N - 1]
    _transform_in_place(np.fft.ifft, conv)
    # the convolution moves one column right, its upper half first, so that
    # no column is read after it is written
    z[:, half + 2 :] = conv[:, half:]
    z[:, 1 : half + 1] = conv[:, :half]
    z[:, 0] = z[:, half + 1] = total


# numpy 2 transforms into a given array (``out=``); numpy 1, the floor,
# returns a new one
_FFT_TAKES_OUT = int(np.__version__.split(".")[0]) >= 2


def _transform_in_place(transform, a: np.ndarray) -> None:
    """Overwrite the rows of ``a`` with ``transform`` (``np.fft.fft`` or
    ``np.fft.ifft``) of them: written in place on numpy 2, copied in from
    the returned array on numpy 1, the same values either way.

    In place, a box-norm block allocates no temporary of transform size.
    Measured at N = 4001 on a 2-CPU Linux host: the two 256 KiB results of
    a block, each freed at once, had glibc trim and re-fault its heap on
    every block, 30,000 to 50,000 page faults and about a quarter of the
    time of a call, and two threads faulting at once ran little faster
    than one."""
    if _FFT_TAKES_OUT:
        transform(a, out=a)
    else:
        a[...] = transform(a)


def gowers_norm(f: GridFunction, s: int, center: bool = False) -> float:
    """Box norm of order s in {2, 3}.

    Order 2 uses the spectral identity (norm^4 equals the sum of fourth
    powers of Fourier magnitudes).  Order 3 averages the order-2 identity
    over the multiplicative derivatives g_h(x) = f(x) f(x + h), so it is
    O(N^2 log N) and capped by the ``u3_n`` budget.  Two symmetries halve
    the work and keep the sum: g_{N-h} is g_h translated by h and the
    order-2 norm is translation invariant, so only h = 0..N//2 are
    transformed; and a real row has |ghat(r)| = |ghat(-r)|, so two rows
    share one complex transform and each pair {r, -r} is read once.  Both
    sums weight an index 2, except 1 at 0 and at N/2 for even N.  The cost
    is N//2 + 1 derivative rows in (N//2 + 2) // 2 complex transforms, taken
    in blocks of shift views of the doubled array; the 1/N scalings are
    applied once, at the end.

    The blocks, a 256 KiB transform buffer each, are split by
    ``scan.ordered_map`` over every CPU of the process's affinity mask.  A
    worker transforms into a buffer of its own and only reads the shared
    arrays; each block reduces to one float, and the caller adds those in
    block order.  The blocks are fixed by N alone, so the value is the
    same, bit for bit, on any number of CPUs.

    The transform has two paths, chosen from N alone.  When N is an odd
    prime and N - 1 has no prime factor above 11, Rader's algorithm takes
    it: for a primitive root g, the row gathered at x = g^m (m = 0..N-2)
    is cyclically convolved with exp(-2 pi i g^-m / N) by a forward and an
    inverse transform of length N - 1, plus the row's value at x = 0; index
    p of the result is the frequency r = g^-p, and r = 0 is the row sum.
    Since g^((N-1)/2) = -1, the frequency -r sits (N - 1)/2 indices after
    r, so the pair {r, -r} is read as (p, p + (N-1)/2).  Every other N takes
    one numpy FFT of length N, frequencies r = 0..N//2 paired with -r.  Both
    paths agree with the one-FFT-per-shift loop to 1e-12 relative.
    """
    if s not in (2, 3):
        raise ValueError("only orders 2 and 3 are implemented")
    vals = f.values - f.mean() if center else f.values
    N = len(vals)
    if s == 2:
        coeffs = np.fft.fft(vals) / N
        return float(np.sum(np.abs(coeffs) ** 4) ** 0.25)
    check_budget("u3_n", N)
    half = N // 2
    j = np.arange(half + 1)
    weight = np.where((j == 0) | (2 * j == N), 1.0, 2.0)
    # row h is the translate x -> f(x + h)
    shifted = sliding_window_view(np.tile(vals, 2), N)
    order = _rader_order(N)
    if order is None:
        at_cols = vals
    else:
        # the Rader path gathers the columns x = g^0, ..., g^(N-2), then 0
        cols = np.append(order, 0)
        at_cols = vals[cols]
        kernel = np.fft.fft(np.exp(-2j * np.pi / N * order[-np.arange(N - 1)]))
    # a transform buffer of about 256 KiB per worker, plus one for the
    # gathered rows on the Rader path; complex row i of a block carries
    # derivative rows h0 + 2i (real part) and h0 + 2i + 1 (imaginary part),
    # and after the transform columns 0..N//2 and N..N - N//2 (direct) or
    # N//2 + 1..N (Rader) hold the frequencies r and -r, r = 0 first
    shape = (max(1, (1 << 18) // (16 * N)), N + 1)
    own = threading.local()

    def block(h0):
        if not hasattr(own, "buf"):
            own.buf = np.empty(shape, dtype=np.complex128)
            own.gathered = np.empty(shape[:1] + (N,)) if order is not None else None
        n = min(2 * shape[0], half + 1 - h0)
        z = own.buf[: (n + 1) // 2]
        for part, lo in ((z.real, h0), (z.imag[: n // 2], h0 + 1)):
            rows = shifted[lo : h0 + n : 2]
            if order is not None:
                # every index is in range, so mode "clip" takes the same
                # values; unlike "raise" it writes into ``out`` unbuffered
                rows = rows.take(cols, axis=1, out=own.gathered[: len(rows)], mode="clip")
            np.multiply(rows, at_cols, out=part[:, :N])
        z.imag[n // 2 :] = 0
        if order is None:
            _transform_in_place(np.fft.fft, z[:, :N])
            z[:, N] = z[:, 0]
            neg = z[:, N : N - half - 1 : -1]
        else:
            _rader_transform(z, kernel)
            neg = z[:, half + 1 :]
        pos = z[:, : half + 1]
        # |Z(r) + conj Z(-r)|^2 and |Z(r) - conj Z(-r)|^2 are four times the
        # power at r of the real row and of the imaginary row, hence the 16
        # in the final scaling
        power = pos.real**2 + pos.imag**2 + neg.real**2 + neg.imag**2
        cross = 2 * (pos.real * neg.real - pos.imag * neg.imag)
        sums = np.empty((len(z), 2))
        sums[:, 0] = ((power + cross) ** 2) @ weight
        sums[:, 1] = ((power - cross) ** 2) @ weight
        return float(weight[h0 : h0 + n] @ sums.ravel()[:n])

    acc = 0.0
    for part in ordered_map(block, range(0, half + 1, 2 * shape[0])):
        acc += part
    return float((acc / (16 * float(N) ** 5)) ** (1 / 8))


# ---------------------------------------------------------------------------
# convergence table


def convergence_experiment(
    F,
    spec: PatternSpec,
    N_list,
    reference=None,
    mc_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict:
    """For each N: the exact progression density of the discretized grid and
    its centered order-(k-2) box norm, against a reference torus value.

    The reference is Monte Carlo unless supplied (e.g. an exact certificate).
    The box-norm column needs k - 2 <= 3 and is omitted otherwise.
    """
    k = spec.k
    degree = k - 2
    rows = []
    if reference is None:
        est = lambda_tilde_mc(F, spec, mc_samples, seed)
        reference = est.mean
        ref_kind = "mc"
    else:
        ref_kind = "given"
    for N in N_list:
        f = discretize(F, N, degree)
        lam = lambda_exact(f, spec)
        row = {
            "N": int(N),
            "lambda": float(lam),
            "gap": abs(float(lam) - float(reference)),
        }
        if degree <= 3:
            row["centered_norm"] = gowers_norm(f, max(degree, 2), center=True)
        rows.append(row)
    return {"reference": float(reference), "reference_kind": ref_kind, "rows": rows}


# ---------------------------------------------------------------------------
# randomized extraction of colorings


@dataclass
class ExtractionResult:
    coloring: Coloring | None
    succeeded_at: int | None
    attempts: int
    undefined_failures: int
    rejected: int


def _symmetric_ap_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Mask over the rows of a 2-D color array, each row an interval
    coloring: True where the row has a k-term progression n + i*d, d >= 1,
    whose i-th and (k-1-i)-th points share a color for every i < k/2.

    One pass per difference d evaluates the symmetric clause on the slices
    rows[:, i*d : i*d + N - (k-1)d], so every row is scanned at once."""
    clauses = predicate_clauses(PatternSpec.ap(k), "symmetric")
    N = rows.shape[1]
    bad = np.zeros(len(rows), dtype=bool)
    for d in range(1, (N - 1) // (k - 1) + 1):
        span = N - (k - 1) * d
        cols = [rows[:, i * d : i * d + span] for i in range(k)]
        bad |= eval_clauses(clauses, cols).any(axis=1)
    return bad


def extract_coloring(
    F,
    alpha,
    k: int,
    r: int,
    N: int,
    seed: int = 0,
    attempts: int = 1,
) -> ExtractionResult:
    """Per attempt: sample x0, x1, y_1..y_r uniformly, color position i by the
    least j with F(x0 + i*x1, y_j) >= alpha/2, and accept the first coloring
    that is everywhere defined and has no symmetrically colored k-term
    progression in the interval ambient.

    Failure is a value: the result carries per-cause counts.  Attempt j takes
    its 2 + r uniforms from rows 0..r+1 of its seeded block of
    ``torus._sample_blocks``, about 2^16 field evaluations to a block, so it
    depends only on (seed, j) and the declared inputs; attempts are scanned
    in order, so the first success by attempt index is returned.  The
    positions x0 + i*x1 mod 1 are taken by ``torus._frac``, bit for bit
    numpy's ``% 1.0``.

    All attempts of a block are checked at once (``_symmetric_ap_rows``),
    and only the attempts that can still change the result, those up to the
    first defined and accepted one, are counted.  Only that coloring is
    built and re-verified with ``verify_symmetric_ap_free`` (a failure
    raises ``SelfCheckError``), so the result is identical to verifying
    each attempt in turn.
    """
    if k % 2 or k < 4:
        raise ValueError("k must be even and at least 4")
    if r < 1 or N < 1 or attempts < 1:
        raise ValueError("r, N, attempts must be positive")
    threshold = float(alpha) / 2
    undefined = 0
    rejected = 0
    done = 0
    idx = np.arange(N, dtype=np.float64)
    for blk in _sample_blocks(seed, attempts, 2 + r, max(1, (1 << 16) // (N * r))):
        x0, x1 = blk[0], blk[1]
        ys = blk[2:].T
        nb = len(x0)
        # F values at (attempt, position, palette index)
        xs = _frac(x0[:, None] + idx[None, :] * x1[:, None])
        vals = F.evaluate_batch(
            np.repeat(xs[:, :, None], r, axis=2).ravel(),
            np.repeat(ys[:, None, :], N, axis=1).ravel(),
        ).reshape(nb, N, r)
        hit = vals >= threshold
        defined = hit.any(axis=2).all(axis=1)
        first = hit.argmax(axis=2) + 1
        bad = _symmetric_ap_rows(first, k)
        ok = np.flatnonzero(defined & ~bad)
        a = int(ok[0]) if len(ok) else nb
        undefined += int(np.count_nonzero(~defined[:a]))
        rejected += int(np.count_nonzero(bad[:a] & defined[:a]))
        if a < nb:
            coloring = Coloring.from_raw(INTERVAL, first[a].tolist())
            if verify_symmetric_ap_free(coloring, k) is not None:
                raise SelfCheckError("an accepted extraction has a symmetric progression")
            return ExtractionResult(coloring, done + a, done + a + 1, undefined, rejected)
        done += nb
    return ExtractionResult(None, None, attempts, undefined, rejected)


# ---------------------------------------------------------------------------
# file format: line 1 N, then one value per line ("p/q" exact or float)


def grid_to_text(f: GridFunction) -> str:
    lines = [str(f.N)]
    if f.exact is not None:
        for v in f.exact:
            fr = Fraction(v)
            lines.append(f"{fr.numerator}/{fr.denominator}")
    else:
        lines.extend(repr(float(v)) for v in f.values)
    return "\n".join(lines) + "\n"


def grid_from_text(text: str) -> GridFunction:
    rows = data_lines(text)
    if not rows:
        raise FormatError("empty grid file", 1)
    head_no, head = rows[0]
    try:
        N = int(head)
    except ValueError:
        raise FormatError(f"expected N, got {head!r}", head_no) from None
    toks = []
    for _, ln in rows[1:]:
        toks.extend(ln.split())
    if len(toks) != N:
        raise FormatError(f"expected {N} values, got {len(toks)}", head_no + 1)
    # each distinct token is parsed once; an indicator file has two
    distinct = dict.fromkeys(toks)
    exact = all("/" in tok or tok.lstrip("-").isdigit() for tok in distinct)
    for tok in distinct:
        try:
            if not exact:
                distinct[tok] = float(tok)
            elif "/" in tok:
                num, den = tok.split("/")
                distinct[tok] = Fraction(int(num), int(den))
            else:
                distinct[tok] = Fraction(int(tok))
        except (ValueError, ZeroDivisionError) as exc:
            at = next(no for no, ln in rows[1:] if tok in ln.split())
            if isinstance(exc, ZeroDivisionError):
                raise FormatError(f"zero denominator in {tok!r}", at) from None
            raise FormatError(f"expected p/q or a float, got {tok!r}", at) from None
    values = [distinct[tok] for tok in toks]
    return GridFunction(exact=values) if exact else GridFunction(np.array(values))
