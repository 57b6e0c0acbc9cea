"""The shared Jacobian arithmetic against a naive affine reference, on both
prime-field curves: secp256k1 and the BLS12-381 G1."""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pbts import bls12381 as bls
from pbts import secp256k1 as ec
from pbts import weierstrass as wei

# A failing example is reported as drawn: shrinking 256- and 381-bit values
# is slow and tells no more.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def ref_add(a, b, p):
    """Affine chord-and-tangent addition; None is infinity."""
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def ref_mul(pt, k, p):
    """k * pt for k >= 0 by affine double-and-add."""
    acc = None
    for bit in bin(k)[2:]:
        acc = ref_add(acc, acc, p)
        if bit == "1":
            acc = ref_add(acc, pt, p)
    return acc


def ref_neg(pt, p):
    return None if pt is None else (pt[0], -pt[1] % p)


def jacobian(pt, z, p):
    """pt in Jacobian coordinates with the given z (infinity for None)."""
    if pt is None:
        return wei.INF
    return (pt[0] * z * z % p, pt[1] * z * z * z % p, z)


class Curve:
    def __init__(self, name, p, order, gen, mul_gen, mul):
        self.name, self.p, self.order, self.gen = name, p, order, gen
        self.mul_gen, self.mul = mul_gen, mul

    def __repr__(self):
        return self.name


SECP = Curve("secp256k1", ec.P, ec.N, (ec.GX, ec.GY), ec.mul_gen, ec.mul_point)
G1 = Curve("g1", bls.P, bls.R, bls.G1_GEN, bls.g1_mul_gen, bls.g1_mul)
CURVES = [SECP, G1]

# (0, 2) has order 3 on the G1 curve and (4, y) lies outside G1 too: the
# subgroup check multiplies such points, so their tables may hold infinity.
G1_OUTSIDE = [(0, 2), (4, bls.fq_sqrt(68))]

scalar = st.integers(min_value=1, max_value=(1 << 256) - 1)
nonzero = st.integers(min_value=1, max_value=(1 << 255) - 1)


def edge_scalars(order):
    return [0, 1, 2, 3, 15, 16, 17, order - 1, order]


@pytest.mark.parametrize("curve", CURVES, ids=repr)
class TestAgainstAffineReference:
    def test_mul_gen_edge_scalars(self, curve):
        for k in edge_scalars(curve.order):
            assert curve.mul_gen(k) == ref_mul(curve.gen, k % curve.order, curve.p)

    def test_mul_edge_scalars(self, curve):
        pt = ref_mul(curve.gen, 0xC0FFEE, curve.p)
        for k in edge_scalars(curve.order):
            assert curve.mul(pt, k) == ref_mul(pt, k % curve.order, curve.p)

    @given(k=scalar, s=nonzero)
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_mul_and_mul_gen_random(self, curve, k, s):
        pt = ref_mul(curve.gen, s, curve.p)
        k %= curve.order
        assert curve.mul_gen(k) == ref_mul(curve.gen, k, curve.p)
        assert curve.mul(pt, k) == ref_mul(pt, k, curve.p)
        assert wei.mul(wei.odd_multiples(pt, curve.p), k, curve.p) == ref_mul(pt, k, curve.p)

    @given(s=nonzero, t=nonzero, z1=nonzero, z2=nonzero)
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_jadd_and_madd(self, curve, s, t, z1, z2):
        p = curve.p
        a, b = ref_mul(curve.gen, s, p), ref_mul(curve.gen, t, p)
        z1, z2 = z1 % (p - 1) + 1, z2 % (p - 1) + 1
        # a + b, a + a, a + (-a), and infinity on either side
        for x, y in [(a, b), (a, a), (a, ref_neg(a, p)), (None, b), (a, None), (None, None)]:
            want = ref_add(x, y, p)
            assert wei.to_affine(wei.jadd(jacobian(x, z1, p), jacobian(y, z2, p), p), p) == want
            assert wei.to_affine(wei.madd(jacobian(x, z1, p), y, p), p) == want
        assert wei.to_affine(wei.jdbl(jacobian(a, z1, p), p), p) == ref_add(a, a, p)

    @given(ss=st.lists(nonzero, min_size=1, max_size=6), zs=st.lists(nonzero, min_size=7, max_size=7))
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_batch_to_affine(self, curve, ss, zs):
        p = curve.p
        pts = [ref_mul(curve.gen, s, p) for s in ss]
        pts.insert(len(pts) // 2, None)
        jpts = [jacobian(pt, z % (p - 1) + 1, p) for pt, z in zip(pts, zs)]
        assert wei.batch_to_affine(jpts, p) == pts


class TestG1Scalars:
    @given(k=scalar)
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_negative_scalars(self, k):
        pt = ref_mul(bls.G1_GEN, 0xBEEF, bls.P)
        assert bls.g1_mul(pt, -k) == ref_mul(ref_neg(pt, bls.P), k, bls.P)
        assert bls.g1_mul(pt, -k) == bls.g1_neg(bls.g1_mul(pt, k))

    @pytest.mark.parametrize("pt", G1_OUTSIDE, ids=["order-3", "x=4"])
    def test_points_outside_g1(self, pt):
        assert bls.g1_is_on_curve(pt)
        for k in [1, 2, 3, 4, 5, 11, 0xD201000000010000 ** 2 - 1, bls.R, -7]:
            want = ref_mul(pt if k > 0 else ref_neg(pt, bls.P), abs(k), bls.P)
            assert bls.g1_mul(pt, k) == want
