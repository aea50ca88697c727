#include "sph/gravity.hpp"

#include "sph/parallel.hpp"

#include <cmath>
#include <vector>

namespace gsph::sph {

namespace {

struct Accum {
    Vec3 acc;
    double pot = 0.0;
    std::size_t pn = 0;
    std::size_t pp = 0;
};

void traverse(const ParticleSet& ps, const Octree& tree, int node_index, std::size_t i,
              const GravityConfig& cfg, Accum& out)
{
    const OctreeNode& node = tree.node(static_cast<std::size_t>(node_index));
    if (node.mass <= 0.0) return;

    const Vec3 xi = ps.pos(i);
    const Vec3 d = node.com - xi;
    const double dist2 = d.norm2();
    const double size = 2.0 * node.half_size;

    const bool contains_self = node.start <= i && i < node.end;
    const bool accept =
        !contains_self && size * size < cfg.theta * cfg.theta * dist2 && dist2 > 0.0;

    if (accept) {
        const double eps2 = cfg.softening * cfg.softening;
        const double r2 = dist2 + eps2;
        const double inv_r = 1.0 / std::sqrt(r2);
        const double inv_r3 = inv_r * inv_r * inv_r;
        out.acc += (cfg.G * node.mass * inv_r3) * d;
        out.pot += -cfg.G * node.mass * inv_r;
        ++out.pn;
        return;
    }

    if (node.is_leaf()) {
        const double eps2 = cfg.softening * cfg.softening;
        for (std::uint32_t j = node.start; j < node.end; ++j) {
            if (static_cast<std::size_t>(j) == i) continue;
            const Vec3 dj = ps.pos(j) - xi;
            const double r2 = dj.norm2() + eps2;
            const double inv_r = 1.0 / std::sqrt(r2);
            const double inv_r3 = inv_r * inv_r * inv_r;
            out.acc += (cfg.G * ps.m[j] * inv_r3) * dj;
            out.pot += -cfg.G * ps.m[j] * inv_r;
            ++out.pp;
        }
        return;
    }

    for (int child : node.children) {
        if (child >= 0) traverse(ps, tree, child, i, cfg, out);
    }
}

} // namespace

GravityStats compute_gravity(ParticleSet& particles, const Octree& tree,
                             const GravityConfig& config, int max_threads)
{
    GravityStats stats;
    if (tree.empty() || particles.size() == 0) return stats;

    std::vector<Accum> walks(particles.size());
    for_each_particle(particles.size(), max_threads, [&](std::size_t i) {
        Accum& acc = walks[i];
        traverse(particles, tree, 0, i, config, acc);
        particles.ax[i] += acc.acc.x;
        particles.ay[i] += acc.acc.y;
        particles.az[i] += acc.acc.z;
    });

    double potential2 = 0.0; // 2x the potential (each pair counted twice)
    for (std::size_t i = 0; i < particles.size(); ++i) {
        potential2 += particles.m[i] * walks[i].pot;
        stats.particle_node_interactions += walks[i].pn;
        stats.particle_particle_interactions += walks[i].pp;
    }
    stats.potential = 0.5 * potential2;
    return stats;
}

} // namespace gsph::sph
