#include "sph/types.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace gsph::sph {
namespace {

TEST(Vec3, Arithmetic)
{
    const Vec3 a{1.0, 2.0, 3.0}, b{4.0, 5.0, 6.0};
    const Vec3 sum = a + b;
    EXPECT_DOUBLE_EQ(sum.x, 5.0);
    EXPECT_DOUBLE_EQ((a - b).z, -3.0);
    EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
    EXPECT_DOUBLE_EQ((a / 2.0).x, 0.5);
    EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
    EXPECT_DOUBLE_EQ(a.norm2(), 14.0);
    EXPECT_DOUBLE_EQ(Vec3(3.0, 4.0, 0.0).norm(), 5.0);
}

TEST(Vec3, CrossProduct)
{
    const Vec3 x{1.0, 0.0, 0.0}, y{0.0, 1.0, 0.0};
    const Vec3 z = x.cross(y);
    EXPECT_DOUBLE_EQ(z.z, 1.0);
    EXPECT_DOUBLE_EQ(z.x, 0.0);
    // anti-commutative
    const Vec3 mz = y.cross(x);
    EXPECT_DOUBLE_EQ(mz.z, -1.0);
    // a x a = 0
    EXPECT_DOUBLE_EQ(x.cross(x).norm(), 0.0);
}

TEST(Vec3, CompoundAssignment)
{
    Vec3 v{1.0, 1.0, 1.0};
    v += Vec3{1.0, 2.0, 3.0};
    v -= Vec3{0.5, 0.5, 0.5};
    v *= 2.0;
    EXPECT_DOUBLE_EQ(v.x, 3.0);
    EXPECT_DOUBLE_EQ(v.y, 5.0);
    EXPECT_DOUBLE_EQ(v.z, 7.0);
}

TEST(Box, MinImageWrapsPeriodicAxes)
{
    const Box box = Box::cube(0.0, 1.0, true);
    const Vec3 d = box.min_image({0.05, 0.5, 0.5}, {0.95, 0.5, 0.5});
    EXPECT_NEAR(d.x, 0.1, 1e-12); // through the boundary, not across the box
    EXPECT_DOUBLE_EQ(d.y, 0.0);
}

TEST(Box, MinImageOpenBoxIsPlainDifference)
{
    const Box box = Box::cube(0.0, 1.0, false);
    const Vec3 d = box.min_image({0.05, 0.5, 0.5}, {0.95, 0.5, 0.5});
    EXPECT_NEAR(d.x, -0.9, 1e-12);
}

TEST(Box, MinImageMatchesDivideAndRound)
{
    // The compare-and-shift minimum image gives the same bits as
    // d - L * round(d / L) for every pair of in-box points whose periodic
    // components are shorter than half the box.
    Box shifted = Box::cube(-1.6, 2.3, true);
    Box mixed;
    mixed.lo = {-0.5, 2.0, -3.0};
    mixed.hi = {0.25, 5.0, 4.0};
    mixed.periodic_x = mixed.periodic_z = true;
    util::Rng rng(11);
    for (const Box& box : {Box::cube(0.0, 1.0, true), shifted, mixed}) {
        const bool periodic[3] = {box.periodic_x, box.periodic_y, box.periodic_z};
        const double len[3] = {box.lx(), box.ly(), box.lz()};
        int compared = 0, wrapped = 0;
        for (int trial = 0; trial < 20000; ++trial) {
            auto point = [&] {
                return Vec3{rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
                            rng.uniform(box.lo.z, box.hi.z)};
            };
            const Vec3 a = point(), b = point();
            const Vec3 raw = a - b;
            double ref[3] = {raw.x, raw.y, raw.z};
            bool short_enough = true;
            for (int k = 0; k < 3; ++k) {
                if (!periodic[k]) continue;
                ref[k] -= len[k] * std::round(ref[k] / len[k]);
                short_enough = short_enough && std::fabs(ref[k]) < 0.499 * len[k];
            }
            if (!short_enough) continue;
            const Vec3 d = box.min_image(a, b);
            const double got[3] = {d.x, d.y, d.z};
            for (int k = 0; k < 3; ++k) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                          std::bit_cast<std::uint64_t>(ref[k]))
                    << "axis " << k << " trial " << trial;
            }
            ++compared;
            if (raw.x != d.x || raw.y != d.y || raw.z != d.z) ++wrapped;
        }
        EXPECT_GT(compared, 10000);
        EXPECT_GT(wrapped, 1000);
    }
}

TEST(Box, WrapBringsPointsInside)
{
    const Box box = Box::cube(0.0, 1.0, true);
    const Vec3 w = box.wrap({1.25, -0.25, 3.5});
    EXPECT_NEAR(w.x, 0.25, 1e-12);
    EXPECT_NEAR(w.y, 0.75, 1e-12);
    EXPECT_NEAR(w.z, 0.5, 1e-12);
    EXPECT_TRUE(box.contains(w));
}

TEST(Box, WrapNoOpOnOpenBox)
{
    const Box box = Box::cube(0.0, 1.0, false);
    const Vec3 w = box.wrap({1.25, 0.5, 0.5});
    EXPECT_DOUBLE_EQ(w.x, 1.25);
    EXPECT_FALSE(box.contains(w));
}

TEST(Box, MixedPeriodicity)
{
    Box box = Box::cube(0.0, 1.0, false);
    box.periodic_x = true;
    const Vec3 w = box.wrap({1.2, 1.2, 0.5});
    EXPECT_NEAR(w.x, 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(w.y, 1.2);
}

TEST(Sym3, IdentityInverse)
{
    const Sym3 eye{1.0, 0.0, 0.0, 1.0, 0.0, 1.0};
    const Sym3 inv = eye.inverse();
    EXPECT_NEAR(inv.xx, 1.0, 1e-12);
    EXPECT_NEAR(inv.xy, 0.0, 1e-12);
    EXPECT_NEAR(inv.zz, 1.0, 1e-12);
}

TEST(Sym3, InverseTimesOriginalIsIdentity)
{
    util::Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        // Random SPD-ish matrix: diagonal-dominant symmetric.
        Sym3 m;
        m.xy = rng.uniform(-0.3, 0.3);
        m.xz = rng.uniform(-0.3, 0.3);
        m.yz = rng.uniform(-0.3, 0.3);
        m.xx = 1.0 + rng.uniform(0.0, 1.0);
        m.yy = 1.0 + rng.uniform(0.0, 1.0);
        m.zz = 1.0 + rng.uniform(0.0, 1.0);
        const Sym3 inv = m.inverse();
        for (const Vec3& e :
             {Vec3{1.0, 0.0, 0.0}, Vec3{0.0, 1.0, 0.0}, Vec3{0.0, 0.0, 1.0}}) {
            const Vec3 back = inv.mul(m.mul(e));
            EXPECT_NEAR(back.x, e.x, 1e-10);
            EXPECT_NEAR(back.y, e.y, 1e-10);
            EXPECT_NEAR(back.z, e.z, 1e-10);
        }
    }
}

TEST(Sym3, DeterminantOfKnownMatrix)
{
    const Sym3 diag{2.0, 0.0, 0.0, 3.0, 0.0, 4.0};
    EXPECT_DOUBLE_EQ(diag.det(), 24.0);
}

TEST(Sym3, SingularFallbackStaysFinite)
{
    const Sym3 zero{};
    const Sym3 inv = zero.inverse();
    EXPECT_TRUE(std::isfinite(inv.xx));

    // Rank-1 matrix (coplanar neighbourhood pathology).
    const Sym3 rank1{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    const Sym3 pinv = rank1.inverse();
    EXPECT_TRUE(std::isfinite(pinv.xx));
    EXPECT_TRUE(std::isfinite(pinv.zz));
}

} // namespace
} // namespace gsph::sph
