#pragma once
/// \file neighbors.hpp
/// \brief Cell-list neighbour search with periodic boundary support.
///
/// Finds, for every particle i, all j != i with |x_i - x_j| < 2 * h_i
/// (kernel support radius).  Results use SPH-EXA's fixed neighbour budget
/// layout: particle i owns the `ngmax` slots starting at i * ngmax, of
/// which the first counts[i] are filled.

#include "sph/particles.hpp"
#include "sph/types.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

namespace gsph::sph {

struct NeighborList {
    int ngmax = 150;                   ///< per-particle neighbour cap (slot stride)
    std::vector<std::uint32_t> counts; ///< size N: neighbours kept per particle
    std::vector<std::uint32_t> list;   ///< at least N * ngmax slots
    std::vector<int> truncated;        ///< particles with more than ngmax (indices)

    std::size_t count(std::size_t i) const { return counts[i]; }
    const std::uint32_t* begin(std::size_t i) const
    {
        return list.data() + i * static_cast<std::size_t>(ngmax);
    }
    const std::uint32_t* end(std::size_t i) const { return begin(i) + counts[i]; }
    std::size_t total_pairs() const
    {
        return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
    }
};

/// Fill `out` with all neighbours within 2*h_i of each particle and update
/// `particles.nc`.  Particles are bucketed into one flat cell list with
/// cells about max(h) wide; each particle scans only the cells under the
/// bounding box of its own support sphere, on at most `max_threads` threads
/// of the shared pool (<= 0: all of them).  A particle with more than
/// `out.ngmax` neighbours keeps the `ngmax` lowest indices and is listed in
/// `out.truncated`.  Returns the total number of pairs found (before the
/// ngmax cap).  The result is the same for any thread count.
std::size_t find_all_neighbors(ParticleSet& particles, const Box& box, NeighborList& out,
                               int max_threads = 0);

} // namespace gsph::sph
