"""Scrambled Sobol points and the inverse normal CDF, on numpy alone.

sobol_points(m, seed) is the first 2^m points of the 8-dimensional
Sobol sequence with the Joe-Kuo direction numbers (Joe & Kuo, SIAM J.
Sci. Comput. 30 (2008) 2635), under a linear matrix scramble and a
digital shift (Matousek, J. Complexity 14 (1998) 527) drawn from
np.random.default_rng(seed), walked in Gray-code order.  ndtri is the
Cephes inverse of the standard normal CDF (S. L. Moshier, Cephes Math
Library).  Both reproduce scipy's qmc.Sobol(d=8, scramble=True,
seed=seed).random_base2(m) and scipy.special.ndtri bit for bit, which
the tests check with scipy as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sobol_points", "ndtri"]

_BITS = 30
#: primitive polynomials, leading and constant terms included, one per dimension
_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
#: initial direction numbers m_1..m_s of each dimension
_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17))


def _direction_numbers() -> np.ndarray:
    """(8, 30) direction numbers, left-justified in 30 bits."""
    v = np.ones((len(_POLY), _BITS), dtype=np.int64)
    for k in range(1, len(_POLY)):
        p = _POLY[k]
        deg = p.bit_length() - 1
        v[k, :deg] = _VINIT[k]
        for j in range(deg, _BITS):
            x = int(v[k, j - deg])
            for i in range(deg):
                if (p >> (deg - 1 - i)) & 1:
                    x ^= int(v[k, j - i - 1]) << (i + 1)
            v[k, j] = x
    return v << (_BITS - 1 - np.arange(_BITS))


#: bit weights, most significant first: bit i of a 30-bit number is worth 2^(29 - i)
_WEIGHTS = np.int64(1) << (_BITS - 1 - np.arange(_BITS))
#: _VBITS[k, i, j] is bit i of direction number j of dimension k
_VBITS = (_direction_numbers()[:, None, :] // _WEIGHTS[None, :, None]) & 1


def sobol_points(m: int, seed) -> np.ndarray:
    """(2^m, 8) scrambled Sobol points in [0, 1)."""
    rng = np.random.default_rng(seed)
    # scipy's draw order: the shift bits, then the lower-triangular scramble matrices
    shift = rng.integers(2, size=(len(_POLY), _BITS), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(_BITS, dtype=np.uint32)
    )
    ltm = np.tril(rng.integers(2, size=(len(_POLY), _BITS, _BITS), dtype=np.uint32))
    ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
    # over GF(2), bit p of a scrambled number is row p of ltm dotted with the bits of v
    sv = ((ltm.astype(np.int64) @ _VBITS) & 1).transpose(0, 2, 1) @ _WEIGHTS
    # Gray-code walk: point i is point i - 1 with direction ctz(i) flipped
    i = np.arange(1, 1 << m, dtype=np.int64)
    ctz = np.frexp((i & -i).astype(float))[1] - 1
    q = np.bitwise_xor.accumulate(np.vstack([shift.astype(np.int64), sv[:, ctz].T]), axis=0)
    return q / float(1 << _BITS)


_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
)
_P1 = (
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
)
# the two smallest coefficients are written out in full, without an exponent
_P2 = (
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 0.00000000623974539184983293730,
)
_Q2 = (
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 0.00000000679019408009981274425,
)


def _polevl(x: float, coef) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef) -> float:
    """_polevl with an implicit leading coefficient 1."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtri(y: float) -> float:
    """x with Phi(x) = y for y in [0, 1]; -inf at 0 and +inf at 1."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        raise ValueError(f"ndtri needs a probability in [0, 1], got {y!r}")
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    # scalar math.log rounds as the C library does, where numpy's vector log may not
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _p1evl(z, q)
    return x if upper else -x
