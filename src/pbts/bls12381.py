"""Arithmetic for the BLS12-381 pairing curve.

Internal plumbing for :mod:`pbts.sigcrypto`: the Fq/Fq2/Fq6/Fq12 tower, the
two source groups G1 (over Fq) and G2 (on the sextic twist over Fq2), an
optimal-ate multi-pairing, deterministic hashing to G2, and compressed point
serialization (48-byte G1 / 96-byte G2, flag bits in the top three bits of the
first byte).

Hashing to G2 is split in two, as RFC 9380 splits it: ``map_to_curve`` maps a
message to a point on the twist by try-and-increment, and
``g2_clear_cofactor`` moves that point into the r-order subgroup.
``hash_to_g2`` is the composition and the only memoised entry point.  Because
clearing is a group homomorphism, a verifier may sum one signer's mapped
messages and clear the sum once (see ``sigcrypto.aggregate_verify``); a
signer with one message takes the memoised ``hash_to_g2``, the same point.
``g2_add`` sums any number of points projectively, with one inversion.

Performance notes, since this runs on CPython:

* field elements are plain ints (the G1 group law, which secp256k1 shares,
  lives in :mod:`pbts.weierstrass`);
* the Miller loop keeps each twist point T in homogeneous coordinates, so a
  doubling or addition step makes no inversion: it yields the next T and the
  line's coefficients (sparse in slots w^0, w^3, w^5) directly, each line
  scaled by a factor in Fq2 (Costello-Lange-Naehrig, PKC 2010).  Such a
  factor c lies in Fq6, so c^(p^6 - 1) = 1; and p^6 - 1 divides the final
  exponent 3(p^12 - 1)/r, because r divides p^4 - p^2 + 1, which divides
  p^6 + 1.  So the pairing equals the one built from exact affine lines, bit
  for bit, and vertical lines are dropped for the same reason;
* reductions, not calls, are the cost: a 381-bit product takes about
  0.35 us on CPython without gmpy2 and a ``% P`` about 0.55 us.  The Fq12
  product, squaring and line product (and the cyclotomic squaring) are
  written out on ints with lazy reduction (Aranha et al., EUROCRYPT 2011):
  sums of products stay unreduced and each output coefficient pays one
  ``% P``;
* the final exponentiation computes e(P,Q)^(3*lambda) via the
  Hayashida-Hayasaka-Teruya decomposition; a fixed cube of the ate pairing is
  still a bilinear non-degenerate pairing because gcd(3, r) = 1;
* G2 has one group law, the Miller loop's doubling and addition steps.  The
  next T a step yields never reads the evaluation point P, so scalar
  multiplication, cofactor clearing and the subgroup check pass a zero P
  and discard the line.  One mixed-addition wrapper handles what a Miller
  loop never meets (infinity, T == Q), so the law is complete on the whole
  twist: the subgroup check runs on attacker-chosen points.  Multiplication
  by |z| is a fixed chain of 63 doublings and 5 additions;
* ``g2_mul`` is GLS (Galbraith-Lin-Scott, EUROCRYPT 2009): psi acts as [z]
  on G2, so k mod r splits into four base-|z| digits, and one joint loop over
  P, psi(P), psi^2(P), psi^3(P) makes ~64 doublings, not 255.  Its input must
  lie in G2, so the subgroup check and the import-time gates use |z| chains;
* endomorphism constants (G1 cube-root map, G2 untwist-Frobenius-twist) are
  derived algebraically at import and sanity-checked against scalar
  multiplication on the generators, so there are no hand-copied magic tables
  to get wrong.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import zip_longest

from . import weierstrass as wei


# ---------------------------------------------------------------------------
# curve constants

P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
# the BLS parameter z is negative; X = |z|
X = 0xD201000000010000
_X_BITS = [int(b) for b in bin(X)[3:]]  # skip the leading 1: 63 bits, 5 set
B1 = 4  # E:  y^2 = x^3 + 4
_HALF_P = (P - 1) >> 1
_INV2 = pow(2, -1, P)

G1_GEN = (
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
)
G2_GEN = (
    (
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ),
    (
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ),
)

FQ2_ZERO = (0, 0)
FQ2_ONE = (1, 0)

# ---------------------------------------------------------------------------
# Fq

def fq_sqrt(a):
    """Square root in Fq (p = 3 mod 4), or None if a is a non-residue."""
    if a == 0:
        return 0
    c = pow(a, (P + 1) >> 2, P)
    if c * c % P == a:
        return c
    return None


# ---------------------------------------------------------------------------
# Fq2 = Fq[u] / (u^2 + 1), elements are (c0, c1) meaning c0 + c1*u

def fq2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fq2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fq2_neg(a):
    return (-a[0] % P, -a[1] % P)


def fq2_conj(a):
    return (a[0], -a[1] % P)


def fq2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    t2 = (a0 + a1) * (b0 + b1)
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def fq2_sq(a):
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % P, (a0 * a1 << 1) % P)


def fq2_scale(a, k):
    return (a[0] * k % P, a[1] * k % P)


def fq2_mul_xi(a):
    # multiply by xi = 1 + u (the Fq6 non-residue)
    a0, a1 = a
    return ((a0 - a1) % P, (a0 + a1) % P)


def fq2_inv(a):
    a0, a1 = a
    d = pow((a0 * a0 + a1 * a1) % P, -1, P)
    return (a0 * d % P, -a1 * d % P)


def fq2_pow(a, e):
    result = FQ2_ONE
    while e:
        if e & 1:
            result = fq2_mul(result, a)
        a = fq2_sq(a)
        e >>= 1
    return result


def fq2_sqrt(a):
    """Square root in Fq2 via the complex method, or None."""
    a0, a1 = a
    if a1 == 0:
        s = fq_sqrt(a0)
        if s is not None:
            return (s, 0)
        s = fq_sqrt(-a0 % P)
        return None if s is None else (0, s)
    n = (a0 * a0 + a1 * a1) % P
    s = fq_sqrt(n)
    if s is None:
        return None
    t = (a0 + s) * _INV2 % P
    c = pow(t, (P + 1) >> 2, P)
    if c * c % P == t:
        cand = (c, a1 * pow(c << 1, -1, P) % P)
    else:  # c^2 = -t, so (a0 - s)/2 = -a1^2/(4t) has the root a1/(2c)
        cand = (a1 * pow(c << 1, -1, P) % P, c)
    if fq2_sq(cand) != (a0 % P, a1 % P):
        return None
    return cand


XI = (1, 1)  # 1 + u
B2 = fq2_scale(XI, 4)  # twist:  y^2 = x^3 + 4(1+u)


def fq2_is_larger(a):
    """Lexicographic 'y > -y' rule used for compression sign bits."""
    if a[1] != 0:
        return a[1] > _HALF_P
    return a[0] > _HALF_P


# ---------------------------------------------------------------------------
# Fq6 = Fq2[v] / (v^3 - xi), elements (c0, c1, c2)

def fq6_neg(a):
    return (fq2_neg(a[0]), fq2_neg(a[1]), fq2_neg(a[2]))


def fq6_inv(a):
    a0, a1, a2 = a
    t0 = fq2_sub(fq2_sq(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    t1 = fq2_sub(fq2_mul_xi(fq2_sq(a2)), fq2_mul(a0, a1))
    t2 = fq2_sub(fq2_sq(a1), fq2_mul(a0, a2))
    d = fq2_add(fq2_mul(a0, t0), fq2_mul_xi(fq2_add(fq2_mul(a2, t1), fq2_mul(a1, t2))))
    dinv = fq2_inv(d)
    return (fq2_mul(t0, dinv), fq2_mul(t1, dinv), fq2_mul(t2, dinv))


FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)

# ---------------------------------------------------------------------------
# Fq12 = Fq6[w] / (w^2 - v), elements (c0, c1)
#
# The three kernels the pairing spends its time in (product, squaring, and
# the Miller loop's line product) work on plain ints and reduce lazily: sums
# of products stay unreduced, and each output coefficient pays one ``% P``.

FQ12_ONE = (FQ6_ONE, FQ6_ZERO)


def _fq6_mul_u(a, b):
    """Karatsuba product of two flat Fq6 elements (c0.re, c0.im, c1.re, ...).

    With v, w, x = a0*b0, a1*b1, a2*b2 in Fq2:  c0 = v + xi*((a1 + a2)(b1 + b2)
    - w - x),  c1 = (a0 + a1)(b0 + b1) - v - w + xi*x,  c2 = (a0 + a2)(b0 + b2)
    - v - x + w.  Entries may be negative or small multiples of P; the output
    is unreduced.
    """
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    t0, t1 = a0 * b0, a1 * b1
    v0, v1 = t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1
    t0, t1 = a2 * b2, a3 * b3
    w0, w1 = t0 - t1, (a2 + a3) * (b2 + b3) - t0 - t1
    t0, t1 = a4 * b4, a5 * b5
    x0, x1 = t0 - t1, (a4 + a5) * (b4 + b5) - t0 - t1
    s0, s1, r0, r1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    t0, t1 = s0 * r0, s1 * r1
    m0, m1 = t0 - t1 - w0 - x0, (s0 + s1) * (r0 + r1) - t0 - t1 - w1 - x1
    s0, s1, r0, r1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    t0, t1 = s0 * r0, s1 * r1
    n0, n1 = t0 - t1 - v0 - w0 + x0 - x1, (s0 + s1) * (r0 + r1) - t0 - t1 - v1 - w1 + x0 + x1
    s0, s1, r0, r1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    t0, t1 = s0 * r0, s1 * r1
    return (v0 + m0 - m1, v1 + m0 + m1, n0, n1,
            t0 - t1 - v0 - x0 + w0, (s0 + s1) * (r0 + r1) - t0 - t1 - v1 - x1 + w1)


def _fq12_join(lo, hi, mid):
    """Last step of Karatsuba over the Fq6 halves, for unreduced flat lo = x0*y0,
    hi = x1*y1 and mid = (x0 + x1)(y0 + y1):  (lo + v*hi) + (mid - lo - hi)*w."""
    v0, v1, v2, v3, v4, v5 = lo
    w0, w1, w2, w3, w4, w5 = hi
    s0, s1, s2, s3, s4, s5 = mid
    return ((((v0 + w4 - w5) % P, (v1 + w4 + w5) % P), ((v2 + w0) % P, (v3 + w1) % P),
             ((v4 + w2) % P, (v5 + w3) % P)),
            (((s0 - v0 - w0) % P, (s1 - v1 - w1) % P), ((s2 - v2 - w2) % P, (s3 - v3 - w3) % P),
             ((s4 - v4 - w4) % P, (s5 - v5 - w5) % P)))


def fq12_mul(a, b):
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    ((b0, b1), (b2, b3), (b4, b5)), ((b6, b7), (b8, b9), (b10, b11)) = b
    return _fq12_join(
        _fq6_mul_u((a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5)),
        _fq6_mul_u((a6, a7, a8, a9, a10, a11), (b6, b7, b8, b9, b10, b11)),
        _fq6_mul_u((a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11),
                   (b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11)))


def fq12_sq(a):
    """(x + y*w)^2 = (x + y)(x + v*y) - t - v*t + 2t*w with t = x*y."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    t0, t1, t2, t3, t4, t5 = _fq6_mul_u((a0, a1, a2, a3, a4, a5), (a6, a7, a8, a9, a10, a11))
    m0, m1, m2, m3, m4, m5 = _fq6_mul_u(
        (a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11),
        (a0 + a10 - a11, a1 + a10 + a11, a2 + a6, a3 + a7, a4 + a8, a5 + a9))
    return ((((m0 - t0 - t4 + t5) % P, (m1 - t1 - t4 - t5) % P),
             ((m2 - t2 - t0) % P, (m3 - t3 - t1) % P), ((m4 - t4 - t2) % P, (m5 - t5 - t3) % P)),
            ((2 * t0 % P, 2 * t1 % P), (2 * t2 % P, 2 * t3 % P), (2 * t4 % P, 2 * t5 % P)))


def _fq12_mul_line(f, line):
    """f * (a + b*w^3 + c*w^5) for line = (a0, a1, b0, b1, c0, c1), the shape
    of every Miller-loop line.

    In Fq6 halves the line is (a, 0, 0) + (0, b, c)*w: Karatsuba over the
    halves, with 3 + 5 + 6 Fq2 products.
    """
    ((f0, f1), (f2, f3), (f4, f5)), ((g0, g1), (g2, g3), (g4, g5)) = f
    a0, a1, b0, b1, c0, c1 = line
    s0, s1 = f0 * a0, f1 * a1  # v = (f0, f1, f2) * a
    v0, v1 = s0 - s1, (f0 + f1) * (a0 + a1) - s0 - s1
    s0, s1 = f2 * a0, f3 * a1
    v2, v3 = s0 - s1, (f2 + f3) * (a0 + a1) - s0 - s1
    s0, s1 = f4 * a0, f5 * a1
    v4, v5 = s0 - s1, (f4 + f5) * (a0 + a1) - s0 - s1
    # w = (g0, g1, g2) * (0, b, c) = (xi*(g1*c + g2*b), g0*b + xi*g2*c, g0*c + g1*b)
    s0, s1 = g2 * b0, g3 * b1
    p0, p1 = s0 - s1, (g2 + g3) * (b0 + b1) - s0 - s1  # g1*b
    s0, s1 = g4 * c0, g5 * c1
    q0, q1 = s0 - s1, (g4 + g5) * (c0 + c1) - s0 - s1  # g2*c
    s0, s1, r0, r1 = g2 + g4, g3 + g5, b0 + c0, b1 + c1
    t0, t1 = s0 * r0, s1 * r1
    m0, m1 = t0 - t1 - p0 - q0, (s0 + s1) * (r0 + r1) - t0 - t1 - p1 - q1  # g1*c + g2*b
    s0, s1 = g0 * b0, g1 * b1
    n0, n1 = s0 - s1 + q0 - q1, (g0 + g1) * (b0 + b1) - s0 - s1 + q0 + q1
    s0, s1 = g0 * c0, g1 * c1
    return _fq12_join(
        (v0, v1, v2, v3, v4, v5),
        (m0 - m1, m0 + m1, n0, n1, s0 - s1 + p0, (g0 + g1) * (c0 + c1) - s0 - s1 + p1),
        _fq6_mul_u((f0 + g0, f1 + g1, f2 + g2, f3 + g3, f4 + g4, f5 + g5), (a0, a1, b0, b1, c0, c1)))


def fq12_conj(a):
    return (a[0], fq6_neg(a[1]))


def fq12_inv(a):
    # a * conj(a) = x^2 - v*y^2 lies in Fq6, so one Fq6 inversion serves
    b = fq12_conj(a)
    return fq12_mul(b, (fq6_inv(fq12_mul(a, b)[0]), FQ6_ZERO))


# Frobenius coefficients, derived at import:  v^p = g1 * v,  w^p = gw * w.
_G1C = fq2_pow(XI, (P - 1) // 3)
_G2C = fq2_sq(_G1C)
_GWC = fq2_pow(XI, (P - 1) // 6)
_GW1 = fq2_mul(_GWC, _G1C)
_GW2 = fq2_mul(_GWC, _G2C)


def fq12_frob(a):
    (a0, a1, a2), (b0, b1, b2) = a
    return (
        (fq2_conj(a0), fq2_mul(fq2_conj(a1), _G1C), fq2_mul(fq2_conj(a2), _G2C)),
        (fq2_mul(fq2_conj(b0), _GWC), fq2_mul(fq2_conj(b1), _GW1), fq2_mul(fq2_conj(b2), _GW2)),
    )


def fq12_frob2(a):
    return fq12_frob(fq12_frob(a))


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 4 over Fq.  Affine points are (x, y) tuples, None = infinity;
# scalar multiplication is :mod:`pbts.weierstrass`.

def g1_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B1)) % P == 0


def g1_neg(pt):
    return None if pt is None else (pt[0], -pt[1] % P)


def g1_mul(pt, k):
    """k * pt for affine pt (k any int); returns affine or None."""
    if pt is None or k == 0:
        return None
    if k < 0:
        pt = g1_neg(pt)
        k = -k
    return wei.mul(wei.odd_multiples(pt, P), k, P)


# fixed-base table for the G1 generator (4-bit windows), used by keygen
_G1_GEN_TABLE = wei.gen_table(G1_GEN, P)


def g1_mul_gen(k):
    """k * G1 generator via the fixed-base table."""
    return wei.mul_gen(_G1_GEN_TABLE, k % R, P)


# ---------------------------------------------------------------------------
# G2: points on the twist  y^2 = x^3 + 4(1+u)  over Fq2.  Affine points are
# ((x0, x1), (y0, y1)) tuples, None = infinity; projective points are the
# Miller loop's flat (X0, X1, Y0, Y1, Z0, Z1) for (X/Z, Y/Z), Z = 0 infinity.

def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return fq2_sub(fq2_sq(y), fq2_add(fq2_mul(fq2_sq(x), x), B2)) == FQ2_ZERO


def g2_neg(pt):
    return None if pt is None else (pt[0], fq2_neg(pt[1]))


def _double(t, nx3, yp):
    """2T for T = (X, Y, Z) homogeneous on the twist (flat ints), and the
    tangent at T evaluated at P, as the (a, b, c) of a + b*w^3 + c*w^5 with
    nx3 = -3*xP.  The line is scaled by xi*2YZ, a factor in Fq2."""
    x0, x1, y0, y1, z0, z1 = t
    b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # B = Y^2
    c0, c1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # C = Z^2
    h0, h1 = 2 * (y0 * z0 - y1 * z1) % P, 2 * (y0 * z1 + y1 * z0) % P  # H = 2YZ
    e0, e1 = 12 * (c0 - c1), 12 * (c0 + c1)  # E = 3*b2*C = 12*xi*C
    g0, g1 = b0 + 3 * e0, b1 + 3 * e1
    k0, k1 = b0 - 3 * e0, b1 - 3 * e1
    m0, m1 = (x0 * y0 - x1 * y1) % P, (x0 * y1 + x1 * y0) % P  # XY
    # 2T, scaled by 4:  X = 2XY(B - 3E), Y = (B + 3E)^2 - 12E^2, Z = 4BH
    return ((2 * (m0 * k0 - m1 * k1) % P, 2 * (m0 * k1 + m1 * k0) % P,
             ((g0 + g1) * (g0 - g1) - 12 * (e0 + e1) * (e0 - e1)) % P,
             2 * (g0 * g1 - 12 * e0 * e1) % P,
             4 * (b0 * h0 - b1 * h1) % P, 4 * (b0 * h1 + b1 * h0) % P),
            # xi*H*yP + (B - E)*w^3 - 3X^2*xP*w^5
            ((h0 - h1) * yp % P, (h0 + h1) * yp % P, b0 - e0, b1 - e1,
             (x0 + x1) * (x0 - x1) % P * nx3 % P, 2 * x0 * x1 % P * nx3 % P))


def _add(t, q, nx, yp):
    """T + Q for T as in ``_double`` and Q = ((qx0, qx1), (qy0, qy1)) affine,
    and the chord through them evaluated at P (nx = -xP), scaled by
    xi*(X - qx*Z)."""
    x0, x1, y0, y1, z0, z1 = t
    (qx0, qx1), (qy0, qy1) = q
    t0, t1 = (y0 - qy0 * z0 + qy1 * z1) % P, (y1 - qy0 * z1 - qy1 * z0) % P  # Y - qy*Z
    l0, l1 = (x0 - qx0 * z0 + qx1 * z1) % P, (x1 - qx0 * z1 - qx1 * z0) % P  # X - qx*Z
    c0, c1 = (t0 + t1) * (t0 - t1) % P, 2 * t0 * t1 % P  # C = t^2
    d0, d1 = (l0 + l1) * (l0 - l1) % P, 2 * l0 * l1 % P  # D = l^2
    e0, e1 = (l0 * d0 - l1 * d1) % P, (l0 * d1 + l1 * d0) % P  # E = l^3
    g0, g1 = (x0 * d0 - x1 * d1) % P, (x0 * d1 + x1 * d0) % P  # G = X*D
    h0 = (e0 + z0 * c0 - z1 * c1 - 2 * g0) % P  # H = E + Z*C - 2G
    h1 = (e1 + z0 * c1 + z1 * c0 - 2 * g1) % P
    # X = l*H, Y = t(G - H) - Y*E, Z = Z*E
    return (((l0 * h0 - l1 * h1) % P, (l0 * h1 + l1 * h0) % P,
             (t0 * (g0 - h0) - t1 * (g1 - h1) - y0 * e0 + y1 * e1) % P,
             (t0 * (g1 - h1) + t1 * (g0 - h0) - y0 * e1 - y1 * e0) % P,
             (z0 * e0 - z1 * e1) % P, (z0 * e1 + z1 * e0) % P),
            # xi*l*yP + (t*qx - l*qy)*w^3 - t*xP*w^5
            ((l0 - l1) * yp % P, (l0 + l1) * yp % P,
             (t0 * qx0 - t1 * qx1 - l0 * qy0 + l1 * qy1) % P,
             (t0 * qx1 + t1 * qx0 - l0 * qy1 - l1 * qy0) % P,
             t0 * nx % P, t1 * nx % P))


_G2_INF = (0, 0, 1, 0, 0, 0)


def _g2_madd(t, q):
    """t + q for projective t and affine q, complete on the whole twist.

    ``_add`` alone misses what a Miller loop never meets: t at infinity, and
    t == q, where its output is all zero.  t == -q already comes out with
    Z = 0.
    """
    if q is None:
        return t
    if not (t[4] or t[5]):
        return (*q[0], *q[1], 1, 0)
    s = _add(t, q, 0, 0)[0]
    return s if any(s) else _double(t, 0, 0)[0]


def _g2_sum(pts, acc=_G2_INF):
    """acc plus the sum of affine points (None = infinity), projective: no
    inversion."""
    for pt in pts:
        acc = _g2_madd(acc, pt)
    return acc


def _g2_affine(t):
    x0, x1, y0, y1, z0, z1 = t
    if not (z0 or z1):
        return None
    zi = fq2_inv((z0, z1))
    return (fq2_mul((x0, x1), zi), fq2_mul((y0, y1), zi))


def _g2_mul_x(pt):
    """[X]pt, projective, for affine pt along the fixed bits of |z|.

    |z| has Hamming weight 6, so this is 63 doublings and 5 additions, with
    no wNAF table and no inversion.
    """
    acc = _g2_madd(_G2_INF, pt)
    for bit in _X_BITS:
        acc = _double(acc, 0, 0)[0]
        if bit:
            acc = _g2_madd(acc, pt)
    return acc


def g2_add(*pts):
    """Sum of any number of affine points (None = infinity): one inversion."""
    return _g2_affine(_g2_sum(pts))


# ---------------------------------------------------------------------------
# endomorphisms (for fast subgroup checks and cofactor clearing)
#
# psi = twist o Frobenius o untwist:  psi(x, y) = (cx * conj(x), cy * conj(y))
# with cx = xi^(-(p-1)/3), cy = xi^(-(p-1)/2); on G2 it acts as [z].
_PSI_CX = fq2_inv(fq2_pow(XI, (P - 1) // 3))
_PSI_CY = fq2_inv(fq2_pow(XI, (P - 1) // 2))


def _g2_psi(pt):
    x, y = pt
    return (fq2_mul(_PSI_CX, fq2_conj(x)), fq2_mul(_PSI_CY, fq2_conj(y)))


def g2_mul(pt, k):
    """k * pt for affine pt (k any int); returns affine or None.

    pt must lie in G2, as every output of ``hash_to_g2`` and
    ``g2_from_bytes`` does: only there does psi act as [z] = -[X].  With
    k mod R = d0 + d1*X + d2*X^2 + d3*X^3 (R < X^4), kP is the sum of
    d_i * (-psi)^i(P), run as one joint width-5 wNAF loop (GLS).
    """
    k %= R
    if pt is None or not k:
        return None
    digits = [k // X**i % X for i in range(4)]
    mults = [None, (*pt[0], *pt[1], 1, 0)]  # mults[m] = mP, projective
    for m in range(2, 16):
        mults.append(_g2_madd(mults[m - 1], pt) if m & 1 else _double(mults[m >> 1], 0, 0)[0])
    odd = mults[1::2]
    prefix = [FQ2_ONE]  # Montgomery's trick: one inversion for all eight Z
    for t in odd:
        prefix.append(fq2_mul(prefix[-1], t[4:]))
    inv = fq2_inv(prefix.pop())
    row = [None] * 8
    for i in reversed(range(8)):
        zi, inv = fq2_mul(inv, prefix[i]), fq2_mul(inv, odd[i][4:])
        row[i] = (fq2_mul(odd[i][:2], zi), fq2_mul(odd[i][2:4], zi))
    tables = []  # laid out as ``weierstrass.odd_multiples``: entry d >> 1 is dP
    for i in range(4):
        if i:
            row = [g2_neg(_g2_psi(q)) for q in row]  # [X^i]P = (-psi)^i(P)
        tables.append(row + [g2_neg(q) for q in reversed(row)])
    acc = _G2_INF
    for col in reversed(list(zip_longest(*map(wei.wnaf, digits), fillvalue=0))):
        acc = _double(acc, 0, 0)[0]
        for d, table in zip(col, tables):
            if d:
                acc = _g2_madd(acc, table[d >> 1])
    return _g2_affine(acc)


# G1 cube-root endomorphism phi(x, y) = (beta * x, y) acts as [lambda] on G1
# with lambda = z^2 - 1 (since r = z^4 - z^2 + 1).  beta is whichever
# nontrivial cube root of unity matches on the generator.
def _select_beta():
    s = fq_sqrt(-3 % P)
    lam = X * X - 1
    want = g1_mul(G1_GEN, lam)
    for beta in ((-1 + s) * _INV2 % P, (-1 - s) * _INV2 % P):
        if (beta * G1_GEN[0] % P, G1_GEN[1]) == want:
            return beta
    raise AssertionError("no cube root of unity matches [z^2-1] on G1")


_BETA = _select_beta()
_LAMBDA = X * X - 1


def g1_in_subgroup(pt):
    if pt is None:
        return True
    if not g1_is_on_curve(pt):
        return False
    return (pt[0] * _BETA % P, pt[1]) == g1_mul(pt, _LAMBDA)


# psi should act as [z] (z negative) on the r-order subgroup (g2_mul assumes it)
if _g2_psi(G2_GEN) != g2_neg(_g2_affine(_g2_mul_x(G2_GEN))):  # pragma: no cover - import-time gate
    raise AssertionError("psi endomorphism constants are inconsistent")


def g2_in_subgroup(pt):
    """psi(P) == [z]P = -[|z|]P, compared projectively (no inversion)."""
    if pt is None:
        return True
    if not g2_is_on_curve(pt):
        return False
    x0, x1, y0, y1, z0, z1 = _g2_mul_x(pt)
    if not (z0 or z1):
        return False
    px, py = _g2_psi(pt)
    return fq2_mul(px, (z0, z1)) == (x0, x1) and fq2_mul(py, (z0, z1)) == fq2_neg((y0, y1))


def g2_clear_cofactor(*pts):
    """Map the sum of the given points on the twist into the r-order subgroup.

    Budroni-Pintore:  [z^2 - z - 1]P + [z - 1]psi(P) + psi(psi(2P)), as two
    [z] chains (z is negative: [z]P = -[|z|]P).  The second chain runs from
    [z]P, since [z^2]P + [z]psi(P) = [z]([z]P) + psi([z]P): psi is a group
    endomorphism, so it commutes with [z].  Each chain starts from an affine
    point, and |z| is prime to the twist's order, so [z]P is not infinity.
    Clearing is a group homomorphism, so clear(P + Q) == clear(P) + clear(Q);
    the sum P is one ``g2_add``, so k points cost no more inversions than
    one.
    """
    p = g2_add(*pts)
    if p is None:
        return None
    t1 = g2_neg(_g2_affine(_g2_mul_x(p)))  # [z]P
    t2 = _g2_psi(p)  # psi(P)
    pp = g2_neg(_g2_psi(t2))  # -psi^2(P), added twice for -psi^2(2P)
    # the negated result: [|z|][z]P - psi([z]P) - psi^2(2P) + psi(P) + [z]P + P
    rest = (g2_neg(_g2_psi(t1)), pp, pp, t2, t1, p)
    return g2_neg(_g2_affine(_g2_sum(rest, _g2_mul_x(t1))))


def _check_clear_cofactor():
    # a fixed non-subgroup curve point: x = small counter until x^3+b is square
    x = (1, 0)
    while True:
        rhs = fq2_add(fq2_mul(fq2_sq(x), x), B2)
        y = fq2_sqrt(rhs)
        if y is not None:
            pt = (x, y)
            break
        x = (x[0] + 1, 0)
    q = g2_clear_cofactor(pt)
    def mul_x2(p):
        return _g2_affine(_g2_mul_x(_g2_affine(_g2_mul_x(p))))
    # [R]q without psi, which g2_mul assumes:  R = X^4 - X^2 + 1
    rq = g2_add(mul_x2(g2_add(mul_x2(q), g2_neg(q))), q)
    return q is not None and rq is None and g2_in_subgroup(q)


if not _check_clear_cofactor():  # pragma: no cover - import-time gate
    raise AssertionError("cofactor clearing does not land in G2")


# ---------------------------------------------------------------------------
# pairing


def _miller_loop(pairs):
    """Product of ate Miller functions for [(P in G1, Q on twist), ...].

    Points must be affine, nonzero, and in their r-order subgroups.  Returns
    an Fq12 element still awaiting the final exponentiation, correct only up
    to a factor in Fq2 (see the module notes: the exponentiation removes it).
    """
    ps = [(-3 * p[0] % P, -p[0] % P, p[1]) for p, _q in pairs]
    ts = [(*q[0], *q[1], 1, 0) for _p, q in pairs]
    f = FQ12_ONE
    for bit in _X_BITS:
        f = fq12_sq(f)
        for j, (nx3, _nx, yp) in enumerate(ps):
            ts[j], line = _double(ts[j], nx3, yp)
            f = _fq12_mul_line(f, line)
        if bit:
            for j, ((_nx3, nx, yp), (_p, q)) in enumerate(zip(ps, pairs)):
                ts[j], line = _add(ts[j], q, nx, yp)
                f = _fq12_mul_line(f, line)
    return fq12_conj(f)  # the curve parameter z is negative


def _fp4_sq(a0, a1, b0, b1):
    """(a + b*w)^2 over Fq4 = Fq2[w]/(w^2 - xi), unreduced: a^2 + xi*b^2, 2ab."""
    t00, t01 = (a0 + a1) * (a0 - a1), 2 * a0 * a1  # a^2
    t10, t11 = (b0 + b1) * (b0 - b1), 2 * b0 * b1  # b^2
    s0, s1 = a0 + b0, a1 + b1
    return (t00 + t10 - t11, t01 + t10 + t11,
            (s0 + s1) * (s0 - s1) - t00 - t10, 2 * s0 * s1 - t01 - t11)


def fq12_cyc_sq(f):
    """Granger-Scott squaring, valid only in the cyclotomic subgroup (inlined:
    it is most of the final exponentiation)."""
    (z0, z4, z3), (z2, z1, z5) = f
    a0, a1, b0, b1 = _fp4_sq(*z0, *z1)
    n0 = ((3 * a0 - 2 * z0[0]) % P, (3 * a1 - 2 * z0[1]) % P)
    n1 = ((3 * b0 + 2 * z1[0]) % P, (3 * b1 + 2 * z1[1]) % P)
    a0, a1, b0, b1 = _fp4_sq(*z2, *z3)
    c0, c1, d0, d1 = _fp4_sq(*z4, *z5)
    n4 = ((3 * a0 - 2 * z4[0]) % P, (3 * a1 - 2 * z4[1]) % P)
    n5 = ((3 * b0 + 2 * z5[0]) % P, (3 * b1 + 2 * z5[1]) % P)
    n2 = ((3 * (d0 - d1) + 2 * z2[0]) % P, (3 * (d0 + d1) + 2 * z2[1]) % P)  # xi * d
    n3 = ((3 * c0 - 2 * z3[0]) % P, (3 * c1 - 2 * z3[1]) % P)
    return ((n0, n4, n3), (n2, n1, n5))


def _cyc_sq_is_consistent():
    # build some cyclotomic element cheaply:  a^((p^6-1)(p^2+1))
    a = ((XI, FQ2_ONE, (7, 9)), ((3, 5), FQ2_ONE, XI))
    c = fq12_mul(fq12_conj(a), fq12_inv(a))
    c = fq12_mul(fq12_frob2(c), c)
    return fq12_cyc_sq(c) == fq12_sq(c)


if not _cyc_sq_is_consistent():  # pragma: no cover - import-time gate
    raise AssertionError("cyclotomic squaring disagrees with generic squaring")


def _cyc_exp_x(g):
    """g^X in the cyclotomic subgroup (X positive; caller handles z's sign)."""
    result = g
    for bit in _X_BITS:
        result = fq12_cyc_sq(result)
        if bit:
            result = fq12_mul(result, g)
    return result


def _exp_z(g):
    # g^z with z = -X; inversion is conjugation in the cyclotomic subgroup
    return fq12_conj(_cyc_exp_x(g))


def final_exponentiation(f):
    """f^((p^12-1)/r * 3): easy part then the HHT hard-part chain."""
    f1 = fq12_mul(fq12_conj(f), fq12_inv(f))  # f^(p^6 - 1)
    m = fq12_mul(fq12_frob2(f1), f1)  # ^(p^2 + 1)
    # hard part: m^(3*(p^4-p^2+1)/r) via
    #   3*lambda = (z-1)^2 * (z+p) * (z^2+p^2-1) + 3
    t0 = fq12_mul(_exp_z(m), fq12_conj(m))  # m^(z-1)
    t1 = fq12_mul(_exp_z(t0), fq12_conj(t0))  # m^((z-1)^2)
    t2 = fq12_mul(_exp_z(t1), fq12_frob(t1))  # ^(z+p)
    t3 = fq12_mul(_exp_z(_exp_z(t2)), fq12_mul(fq12_frob2(t2), fq12_conj(t2)))  # ^(z^2+p^2-1)
    return fq12_mul(t3, fq12_mul(fq12_sq(m), m))


def multi_pairing_is_one(pairs):
    """True iff the product of e(P_i, Q_i) over all pairs equals 1.

    Infinity entries contribute the identity and are skipped.
    """
    live = [(p, q) for (p, q) in pairs if p is not None and q is not None]
    if not live:
        return True
    return final_exponentiation(_miller_loop(live)) == FQ12_ONE


# ---------------------------------------------------------------------------
# hashing to G2 (deterministic try-and-increment, then cofactor clearing)

_HASH_DST = b"pbts/bls12381-g2/sha256/tai/v1"


def map_to_curve(msg: bytes):
    """Try-and-increment map of msg to a twist point, not yet in G2.

    Not memoised: aggregate verification sums these per signer and clears
    the cofactor once per sum.
    """
    seed = hashlib.sha256(_HASH_DST + msg).digest()
    for ctr in range(256):
        base = seed + bytes([ctr])
        d = [hashlib.sha256(base + bytes([i])).digest() for i in range(4)]
        x0 = int.from_bytes(d[0] + d[1], "big") % P
        x1 = int.from_bytes(d[2] + d[3], "big") % P
        x = (x0, x1)
        rhs = fq2_add(fq2_mul(fq2_sq(x), x), B2)
        y = fq2_sqrt(rhs)
        if y is not None:
            if fq2_is_larger(y):
                y = fq2_neg(y)
            return (x, y)
    raise AssertionError("try-and-increment failed after 256 tries")


@lru_cache(maxsize=8192)
def hash_to_g2(msg: bytes):
    """H(msg) in G2: ``g2_clear_cofactor(map_to_curve(msg))``, memoised."""
    return g2_clear_cofactor(map_to_curve(msg))


# ---------------------------------------------------------------------------
# serialization: 48-byte compressed G1, 96-byte compressed G2.
# first byte: bit7 = compressed flag (always set), bit6 = infinity,
# bit5 = sign (y lexicographically larger than -y).

def g1_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(47)
    x, y = pt
    out = bytearray(x.to_bytes(48, "big"))
    out[0] |= 0x80
    if y > _HALF_P:
        out[0] |= 0x20
    return bytes(out)


def g2_to_bytes(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(95)
    (x0, x1), y = pt
    out = bytearray(x1.to_bytes(48, "big") + x0.to_bytes(48, "big"))
    out[0] |= 0x80
    if fq2_is_larger(y):
        out[0] |= 0x20
    return bytes(out)


@lru_cache(maxsize=16384)
def g1_from_bytes(data: bytes):
    """Decompress + full validation (curve and subgroup).  Raises ValueError."""
    if len(data) != 48:
        raise ValueError("bad G1 encoding length")
    flags = data[0]
    if not flags & 0x80:
        raise ValueError("uncompressed G1 encoding not supported")
    if flags & 0x40:
        if any(data[1:]) or flags != 0xC0:
            raise ValueError("bad G1 infinity encoding")
        return None
    x = int.from_bytes(bytes([flags & 0x1F]) + data[1:], "big")
    if x >= P:
        raise ValueError("G1 x out of range")
    y = fq_sqrt((x * x % P * x + B1) % P)
    if y is None:
        raise ValueError("G1 x not on curve")
    if bool(flags & 0x20) != (y > _HALF_P):
        y = -y % P
    pt = (x, y)
    if not g1_in_subgroup(pt):
        raise ValueError("G1 point not in the prime-order subgroup")
    return pt


@lru_cache(maxsize=16384)
def g2_from_bytes(data: bytes):
    if len(data) != 96:
        raise ValueError("bad G2 encoding length")
    flags = data[0]
    if not flags & 0x80:
        raise ValueError("uncompressed G2 encoding not supported")
    if flags & 0x40:
        if any(data[1:]) or flags != 0xC0:
            raise ValueError("bad G2 infinity encoding")
        return None
    x1 = int.from_bytes(bytes([flags & 0x1F]) + data[1:48], "big")
    x0 = int.from_bytes(data[48:], "big")
    if x0 >= P or x1 >= P:
        raise ValueError("G2 x out of range")
    x = (x0, x1)
    y = fq2_sqrt(fq2_add(fq2_mul(fq2_sq(x), x), B2))
    if y is None:
        raise ValueError("G2 x not on curve")
    if bool(flags & 0x20) != fq2_is_larger(y):
        y = fq2_neg(y)
    pt = (x, y)
    if not g2_in_subgroup(pt):
        raise ValueError("G2 point not in the prime-order subgroup")
    return pt

