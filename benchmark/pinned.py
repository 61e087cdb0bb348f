"""Reference values the benchmark checks outputs against.

Exact values (Fractions, residue lists) are pinned and must match exactly.
Floats from a deterministic computation carry a relative tolerance.  Monte
Carlo estimates are never pinned: they are checked against an exact value
within ``MC_SIGMAS`` standard errors, so a change of sample stream still
passes.
"""

from fractions import Fraction

MC_SIGMAS = 5

# lambda_exact(quadratic_indicator(N, 1/2), AP4) == Fraction(count, N^2),
# for every N of the scan workload's menu
QUADRATIC_AP4_COUNTS = {
    9967: 6642407,
    9973: 6450445,
    10007: 6936757,
    10009: 6508089,
    10037: 6529091,
    10039: 6895395,
    10061: 6561971,
    10067: 6944047,
}

# gowers_norm(quadratic_indicator(4001, 1/4), 3, center=True); FFT sums may
# be reordered by a faster kernel, hence the tolerance
GOWERS_U3_4001 = 0.25422344034979694
GOWERS_RTOL = 1e-9

# lambda~ of the slab T x [0, 1/4) (and of the diagonal strip, which the
# substitution z_i = y_i - x_i maps onto it) along AP4; the numeric
# convolution oracle tests/oracles.slab_volume gives 0.0046296296285
SLAB_QUARTER_AP4 = Fraction(1, 216)

# greedy solution-free sets: modulus after the doubling retries and the
# elements, which do not depend on the affine base (same palette size)
_BASE9_48 = (
    0, 1, 2, 9, 10, 11, 18, 19, 20, 81, 82, 83, 90, 91, 92, 99, 100, 101,
    162, 163, 164, 171, 172, 173, 180, 181, 182, 729, 730, 731, 738, 739, 740,
    747, 748, 749, 810, 811, 812, 819, 820, 821, 828, 829, 830, 891, 892, 893,
)
GREEDY = {
    "thm2_7": (9216, _BASE9_48),
    "thm2_5": (
        10000,
        (
            0, 1, 5, 6, 25, 26, 30, 31, 125, 126, 130, 131, 150, 151, 155, 156,
            625, 626, 630, 631, 650, 651, 655, 656, 750,
        ),
    ),
    "lemma7_10": (
        20736,
        _BASE9_48
        + (
            900, 901, 902, 909, 910, 911, 1458, 1459, 1460, 1467, 1468, 1469,
            1476, 1477, 1478, 1539, 1540, 1541, 1548, 1549, 1550, 1557, 1558, 1559,
        ),
    ),
}

# exact pattern probability of the k = 5 chain's interlacing (D = 25); it has
# no base coloring, so 1/(3D) does not apply
THM2_5_EPSILON = Fraction(1, 100)
