#pragma once
/// \file neighbors.hpp
/// \brief Cell-list neighbour search with periodic boundary support.
///
/// Finds, for every particle i, all j != i with |x_i - x_j| < 2 * h_i
/// (kernel support radius).  Results are stored CSR-style with a per-
/// particle cap `ngmax`, matching SPH-EXA's fixed neighbour budget.

#include "sph/particles.hpp"
#include "sph/types.hpp"

#include <cstdint>
#include <vector>

namespace gsph::sph {

struct NeighborList {
    int ngmax = 150;                    ///< per-particle neighbour cap
    std::vector<std::uint32_t> offsets; ///< size N+1
    std::vector<std::uint32_t> list;    ///< concatenated neighbour indices
    std::vector<int> truncated;         ///< particles with more than ngmax (indices)

    std::size_t count(std::size_t i) const { return offsets[i + 1] - offsets[i]; }
    const std::uint32_t* begin(std::size_t i) const { return list.data() + offsets[i]; }
    const std::uint32_t* end(std::size_t i) const { return list.data() + offsets[i + 1]; }
    std::size_t total_pairs() const { return list.size(); }
};

/// Fill `out` (CSR) with all neighbours within 2*h_i of each particle and
/// update `particles.nc`.  Particles are bucketed into one flat cell list
/// with cells about max(h) wide; each particle scans only the cells under
/// the bounding box of its own support sphere.  A particle with more than
/// `out.ngmax` neighbours keeps the `ngmax` lowest indices and is listed in
/// `out.truncated`.  Returns the total number of pairs found (before the
/// ngmax cap).
std::size_t find_all_neighbors(ParticleSet& particles, const Box& box, NeighborList& out);

} // namespace gsph::sph
