#include "sph/neighbors.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include <set>
#include <vector>

namespace gsph::sph {
namespace {

ParticleSet random_particles(std::size_t n, const Box& box, double h, std::uint64_t seed)
{
    ParticleSet ps;
    ps.resize(n);
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        ps.x[i] = rng.uniform(box.lo.x, box.hi.x);
        ps.y[i] = rng.uniform(box.lo.y, box.hi.y);
        ps.z[i] = rng.uniform(box.lo.z, box.hi.z);
        ps.h[i] = h;
        ps.m[i] = 1.0;
    }
    return ps;
}

/// O(N^2) reference search.
std::set<std::pair<std::uint32_t, std::uint32_t>> brute_force(const ParticleSet& ps,
                                                              const Box& box)
{
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (std::size_t j = 0; j < ps.size(); ++j) {
            if (i == j) continue;
            const Vec3 d = box.min_image(ps.pos(i), ps.pos(j));
            if (d.norm2() < 4.0 * ps.h[i] * ps.h[i]) {
                pairs.insert({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
            }
        }
    }
    return pairs;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> to_pairs(const NeighborList& nl,
                                                           std::size_t n)
{
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto* j = nl.begin(i); j != nl.end(i); ++j) {
            pairs.insert({static_cast<std::uint32_t>(i), *j});
        }
    }
    return pairs;
}

class NeighborPeriodicityTest : public ::testing::TestWithParam<bool> {};

TEST_P(NeighborPeriodicityTest, MatchesBruteForce)
{
    const Box box = Box::cube(0.0, 1.0, GetParam());
    ParticleSet ps = random_particles(300, box, 0.09, 77);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
}

TEST_P(NeighborPeriodicityTest, CountsMatchStoredPairs)
{
    const Box box = Box::cube(0.0, 1.0, GetParam());
    ParticleSet ps = random_particles(200, box, 0.1, 78);
    NeighborList nl;
    const std::size_t pre_cap = find_all_neighbors(ps, box, nl);
    ASSERT_EQ(nl.counts.size(), ps.size());
    ASSERT_GE(nl.list.size(), ps.size() * static_cast<std::size_t>(nl.ngmax));
    std::size_t sum = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(ps.nc[i]), nl.count(i));
        EXPECT_EQ(nl.end(i) - nl.begin(i), static_cast<std::ptrdiff_t>(nl.count(i)));
        sum += nl.count(i);
    }
    // Nobody reaches ngmax here, so every pair found is stored.
    EXPECT_TRUE(nl.truncated.empty());
    EXPECT_EQ(sum, nl.total_pairs());
    EXPECT_EQ(sum, pre_cap);
}

INSTANTIATE_TEST_SUITE_P(OpenAndPeriodic, NeighborPeriodicityTest, ::testing::Bool());

TEST(Neighbors, PeriodicWrapFindsAcrossBoundary)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.01, 0.99};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.05, 0.05};
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 1u);
    EXPECT_EQ(nl.count(1), 1u);
}

TEST(Neighbors, OpenBoxDoesNotWrap)
{
    const Box box = Box::cube(0.0, 1.0, false);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.01, 0.99};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.05, 0.05};
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 0u);
    EXPECT_EQ(nl.count(1), 0u);
}

TEST(Neighbors, NoSelfNeighbor)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(100, box, 0.2, 79);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (const auto* j = nl.begin(i); j != nl.end(i); ++j) {
            EXPECT_NE(static_cast<std::size_t>(*j), i);
        }
    }
}

TEST(Neighbors, NgmaxCapTruncatesAndRecords)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(500, box, 0.45, 80); // everyone sees everyone
    NeighborList nl;
    nl.ngmax = 20;
    EXPECT_EQ(find_all_neighbors(ps, box, nl), 500u * 499u);
    EXPECT_EQ(nl.truncated.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        ASSERT_EQ(nl.count(i), 20u);
        // Overflow keeps the lowest indices, whatever the cell layout.
        std::vector<std::uint32_t> lowest;
        for (std::uint32_t j = 0; lowest.size() < 20; ++j) {
            if (j != i) lowest.push_back(j);
        }
        EXPECT_EQ(std::vector<std::uint32_t>(nl.begin(i), nl.end(i)), lowest) << i;
    }

    // Exactly ngmax neighbours: nothing was dropped, so nothing is flagged.
    ParticleSet exact = random_particles(21, box, 0.45, 83);
    find_all_neighbors(exact, box, nl);
    EXPECT_TRUE(nl.truncated.empty());
    for (std::size_t i = 0; i < exact.size(); ++i) EXPECT_EQ(nl.count(i), 20u);
}

TEST(Neighbors, PreCapPairCountAtLeastStored)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(300, box, 0.3, 81);
    NeighborList nl;
    nl.ngmax = 30;
    const std::size_t pre_cap = find_all_neighbors(ps, box, nl);
    EXPECT_GE(pre_cap, nl.total_pairs());
}

TEST(Neighbors, SameListsOnOneAndFourThreads)
{
    // Half the particles overflow ngmax, so the truncation order and the
    // pre-cap total are covered too.
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet serial = random_particles(600, box, 0.12, 86);
    for (std::size_t i = 0; i < serial.size(); i += 2) serial.h[i] = 0.2;
    ParticleSet pooled = serial;
    NeighborList a, b;
    a.ngmax = b.ngmax = 40;
    EXPECT_EQ(find_all_neighbors(serial, box, a, 1), find_all_neighbors(pooled, box, b, 4));
    EXPECT_FALSE(a.truncated.empty());
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(serial.nc, pooled.nc);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(std::vector<std::uint32_t>(a.begin(i), a.end(i)),
                  std::vector<std::uint32_t>(b.begin(i), b.end(i)))
            << i;
    }
}

TEST(Neighbors, NonPositiveHThrows)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps;
    ps.resize(1);
    ps.h[0] = 0.0;
    NeighborList nl;
    EXPECT_THROW(find_all_neighbors(ps, box, nl), std::invalid_argument);
}

TEST(Neighbors, VariableSmoothingLengthsAsymmetric)
{
    // Search radius is 2*h_i (gather formulation): a big-h particle can see
    // a small-h particle that does not see it back.
    const Box box = Box::cube(0.0, 1.0, false);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.30, 0.50};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.15, 0.05}; // radii 0.3 and 0.1, separation 0.2
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 1u);
    EXPECT_EQ(nl.count(1), 0u);
}

TEST(Neighbors, VariableSmoothingLengthOpenBoxMatchesBruteForce)
{
    // Evrard-like: centrally concentrated particles in an open box with h
    // growing 3x from the centre outward, plus particles that have left
    // the box (they fall into the edge cells).
    const Box box = Box::cube(-1.6, 1.6, false);
    util::Rng rng(84);
    ParticleSet ps;
    ps.resize(400);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double r = std::pow(rng.uniform(0.0, 1.0), 1.5);
        const double cos_t = rng.uniform(-1.0, 1.0);
        const double sin_t = std::sqrt(1.0 - cos_t * cos_t);
        const double phi = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
        ps.x[i] = r * sin_t * std::cos(phi);
        ps.y[i] = r * sin_t * std::sin(phi);
        ps.z[i] = r * cos_t;
        ps.h[i] = 0.08 * (1.0 + 2.0 * r);
        ps.m[i] = 1.0;
    }
    ps.x[0] = 1.65; // escaped past +x, within reach of particles 1 and 2
    ps.x[1] = 1.90;
    ps.x[2] = 1.50;
    for (std::size_t i = 0; i < 3; ++i) {
        ps.y[i] = ps.z[i] = 0.0;
        ps.h[i] = 0.24;
    }
    ps.y[3] = -1.7; // escaped past -y
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
    EXPECT_GE(nl.count(0), 2u);
}

TEST(Neighbors, SupportWiderThanPeriodicAxisMatchesBruteForce)
{
    // Non-cubic periodic box with lo != 0: the large-h particles' support
    // (radius 0.6) spans the whole x axis (L = 1) but not y or z.
    Box box;
    box.lo = {0.5, -1.0, 2.0};
    box.hi = {1.5, 1.0, 5.0};
    box.periodic_x = box.periodic_y = box.periodic_z = true;
    ParticleSet ps = random_particles(300, box, 0.1, 85);
    for (std::size_t i = 0; i < ps.size(); i += 10) ps.h[i] = 0.3;
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        std::set<std::uint32_t> unique(nl.begin(i), nl.end(i));
        EXPECT_EQ(unique.size(), nl.count(i)) << "duplicates for particle " << i;
    }
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
}

TEST(Neighbors, TinyPeriodicBoxHasNoDuplicates)
{
    // The cell list degenerates to very few cells and every support box
    // spans the whole box: no cell may be scanned twice.
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(20, box, 0.5, 82);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        std::set<std::uint32_t> unique(nl.begin(i), nl.end(i));
        EXPECT_EQ(unique.size(), nl.count(i)) << "duplicates for particle " << i;
    }
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
}

} // namespace
} // namespace gsph::sph
