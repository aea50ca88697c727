#include "sph/decomposition.hpp"

#include <cmath>
#include <stdexcept>

namespace gsph::sph {

DecompositionStats analyze_sfc_decomposition(const SphSimulation& sim, int n_parts)
{
    if (n_parts <= 0) throw std::invalid_argument("decomposition: n_parts <= 0");
    const ParticleSet& ps = sim.particles();
    const NeighborList& nl = sim.neighbors();
    const std::size_t n = ps.size();
    if (nl.counts.size() != n) {
        throw std::logic_error("decomposition: neighbour lists not built");
    }

    DecompositionStats stats;
    stats.n_parts = n_parts;
    stats.part_sizes.assign(static_cast<std::size_t>(n_parts), 0);
    stats.halo_counts.assign(static_cast<std::size_t>(n_parts), 0);

    // Contiguous SFC ranges of (near-)equal size: particle i belongs to
    // part i * n_parts / n (the particles are key-sorted).
    auto part_of = [n, n_parts](std::size_t i) {
        return static_cast<std::size_t>(i * static_cast<std::size_t>(n_parts) / n);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t p = part_of(i);
        ++stats.part_sizes[p];
        bool boundary = false;
        for (const auto* jp = nl.begin(i); jp != nl.end(i); ++jp) {
            if (part_of(*jp) != p) {
                boundary = true;
                break;
            }
        }
        if (boundary) ++stats.halo_counts[p];
    }

    double fraction_sum = 0.0;
    double prefactor_sum = 0.0;
    int counted = 0;
    for (std::size_t p = 0; p < stats.part_sizes.size(); ++p) {
        if (stats.part_sizes[p] == 0) continue;
        const double size = static_cast<double>(stats.part_sizes[p]);
        const double halo = static_cast<double>(stats.halo_counts[p]);
        fraction_sum += halo / size;
        prefactor_sum += halo / std::pow(size, 2.0 / 3.0);
        ++counted;
    }
    if (counted > 0) {
        stats.mean_halo_fraction = fraction_sum / counted;
        stats.surface_prefactor = prefactor_sum / counted;
    }
    return stats;
}

} // namespace gsph::sph
