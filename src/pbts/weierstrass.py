"""Jacobian arithmetic on curves y^2 = x^3 + b over a prime field.

The one copy of the group law that both prime-field curves use: secp256k1
for session signatures and the BLS12-381 G1 for long-term public keys.  The
formulas never read b, so every function takes only the field modulus p.

Affine points are (x, y) tuples and None is the point at infinity.
Jacobian triples (X, Y, Z) stand for (X/Z^2, Y/Z^3); Z = 0 is infinity.
Scalar multiplication runs width-5 wNAF over a point's odd-multiple table,
or 4-bit windows over a fixed-base table for a generator; both tables are
affine so that every addition is a mixed one.
Field elements are plain ints.
"""

from __future__ import annotations

INF = (1, 1, 0)


def jdbl(pt, p):
    """2 * pt (EFD dbl-2009-l, for a = 0)."""
    x1, y1, z1 = pt
    a = x1 * x1 % p
    b = y1 * y1 % p
    c = b * b % p
    d = ((x1 + b) ** 2 - a - c << 1) % p
    e = 3 * a % p
    f = e * e % p
    x3 = (f - (d << 1)) % p
    y3 = (e * (d - x3) - (c << 3)) % p
    z3 = (y1 * z1 << 1) % p
    return (x3, y3, z3)


def jadd(p1, p2, p):
    """p1 + p2 (EFD add-2007-bl, falling back to doubling when p1 == p2)."""
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2z2 % p * z2 % p
    s2 = y2 * z1z1 % p * z1 % p
    if u1 == u2:
        if s1 != s2:
            return INF
        return jdbl(p1, p)
    h = (u2 - u1) % p
    i = (h * h << 2) % p
    j = h * i % p
    rr = (s2 - s1 << 1) % p
    v = u1 * i % p
    x3 = (rr * rr - j - (v << 1)) % p
    y3 = (rr * (v - x3) - (s1 * j << 1)) % p
    z3 = ((z1 + z2) ** 2 - z1z1 - z2z2) % p * h % p
    return (x3, y3, z3)


def madd(acc, apt, p):
    """Jacobian acc + affine apt, None being infinity (EFD madd-2007-bl)."""
    if apt is None:
        return acc
    x2, y2 = apt
    x1, y1, z1 = acc
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * z1z1 % p * z1 % p
    h = (u2 - x1) % p
    if h == 0:
        if (s2 - y1) % p == 0:
            return jdbl(acc, p)
        return INF
    hh = h * h % p
    i = (hh << 2) % p
    j = h * i % p
    rr = (s2 - y1 << 1) % p
    v = x1 * i % p
    x3 = (rr * rr - j - (v << 1)) % p
    y3 = (rr * (v - x3) - (y1 * j << 1)) % p
    z3 = ((z1 + h) ** 2 - z1z1 - hh) % p
    return (x3, y3, z3)


def to_affine(pt, p):
    x, y, z = pt
    if z == 0:
        return None
    zi = pow(z, -1, p)
    zi2 = zi * zi % p
    return (x * zi2 % p, y * zi2 % p * zi % p)


def batch_to_affine(jpts, p):
    """``to_affine`` of every point, with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _x, _y, z in jpts:
        prefix.append(acc)
        if z:
            acc = acc * z % p
    zinv = pow(acc, -1, p)
    out = [None] * len(jpts)
    for i in range(len(jpts) - 1, -1, -1):
        x, y, z = jpts[i]
        if z:
            zi = zinv * prefix[i] % p
            zinv = zinv * z % p
            zi2 = zi * zi % p
            out[i] = (x * zi2 % p, y * zi2 % p * zi % p)
    return out


def wnaf(k):
    """Width-5 NAF digits of k > 0, least significant first: each digit is 0
    or odd in [-15, 15], and any nonzero digit is followed by four zeros."""
    digits = []
    while k:
        if k & 1:
            d = k & 31
            if d >= 16:
                d -= 32
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def odd_multiples(pt, p):
    """The wNAF table of affine pt: P, 3P, ..., 15P, then -15P, ..., -P, so
    that entry d >> 1 is dP for every digit d.  Small-order points are fine:
    a multiple at infinity is None."""
    base = (pt[0], pt[1], 1)
    dbl = jdbl(base, p)
    rows = [base]
    for _ in range(7):
        rows.append(jadd(rows[-1], dbl, p))
    pos = batch_to_affine(rows, p)
    return pos + [None if q is None else (q[0], -q[1] % p) for q in reversed(pos)]


def mul(table, k, p):
    """k * P for k >= 0 from P's ``odd_multiples`` table; affine or None."""
    acc = INF
    for d in reversed(wnaf(k)):
        acc = jdbl(acc, p)
        if d:
            acc = madd(acc, table[d >> 1], p)
    return to_affine(acc, p)


def gen_table(g, p):
    """Fixed-base table of affine g: row i holds d * 16^i * g for d = 1..15,
    64 rows, so ``mul_gen`` covers scalars below 2^256."""
    base = (g[0], g[1], 1)
    flat = []
    for _ in range(64):
        row = [base]
        for _ in range(14):
            row.append(jadd(row[-1], base, p))
        flat.extend(row)
        for _ in range(4):
            base = jdbl(base, p)
    affine = batch_to_affine(flat, p)
    return [affine[i * 15:(i + 1) * 15] for i in range(64)]


def mul_gen(table, k, p):
    """k * g for 0 <= k < 2^256 from g's ``gen_table``; affine or None."""
    acc = INF
    i = 0
    while k:
        d = k & 15
        if d:
            acc = madd(acc, table[i][d - 1], p)
        k >>= 4
        i += 1
    return to_affine(acc, p)
