#pragma once
/// \file gravity.hpp
/// \brief Barnes-Hut self-gravity on the cornerstone octree.
///
/// Monopole acceptance with opening angle theta; direct summation inside
/// accepted leaves with Plummer softening.  Used by the Evrard Collapse
/// workload (the paper chose Evrard precisely because it adds a gravity
/// kernel that Subsonic Turbulence lacks).

#include "sph/octree.hpp"
#include "sph/particles.hpp"

namespace gsph::sph {

struct GravityConfig {
    double G = 1.0;           ///< gravitational constant (code units)
    double theta = 0.5;       ///< opening angle
    double softening = 0.01;  ///< Plummer softening length
};

struct GravityStats {
    std::size_t particle_node_interactions = 0; ///< accepted multipoles
    std::size_t particle_particle_interactions = 0;
    double potential = 0.0; ///< total gravitational potential energy
};

/// Adds gravitational acceleration to particles.{ax,ay,az} and returns
/// interaction counts plus the total potential energy (for conservation
/// diagnostics).  The tree must be built over the same particle set.  The
/// per-particle walks run on at most `max_threads` threads of the shared
/// pool (<= 0: all of them); the totals are summed in index order, so the
/// result is the same for any thread count.
GravityStats compute_gravity(ParticleSet& particles, const Octree& tree,
                             const GravityConfig& config, int max_threads = 0);

} // namespace gsph::sph
